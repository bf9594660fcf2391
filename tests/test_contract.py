"""The verification contract: one Report, one VerificationError, and require,
with no ``assert`` in the library, so every check also runs under python -O."""

import ast
import json
import os
import pathlib
import subprocess
import sys

import pytest

import schemeforge as sf
from schemeforge import constructions, errors, hypergroup, io, scheme

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"


def test_library_holds_no_assert_statement():
    found = []
    for path in sorted((SRC / "schemeforge").rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert found == []


def test_require_raises_under_python_dash_o():
    code = (
        "import json\n"
        "import schemeforge as sf\n"
        "report = sf.build_hypergroup([[{0}, {1}], [{1}, {1}]], 0, (0, 1))\n"
        "assert False, 'asserts must be stripped under -O'\n"
        "try:\n"
        "    sf.require(report)\n"
        "except sf.VerificationError as exc:\n"
        "    print(exc.violations == report.violations, len(exc.violations))\n"
        "try:\n"
        "    sf.build_group([[0, 1.5], [1, 0]])\n"
        "except ValueError as exc:\n"
        "    group = str(exc)\n"
        "print(json.dumps([sf.build_scheme(2, [[0, True], [True, 0]]).violations[0].axiom,\n"
        "                  sf.build_hypergroup([[{0}, {1.0}], [{1}, {0}]], 0, (0, 1)).violations[0].axiom, group]))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-O", "-c", code], capture_output=True, text=True, check=False,
        env=dict(os.environ, PYTHONPATH=str(SRC)),
    )
    assert proc.returncode == 0, proc.stderr
    verdict, gate = proc.stdout.splitlines()
    flag, count = verdict.split()
    assert flag == "True" and int(count) >= 1
    # three refusals of the input gate, which no assert carries either
    assert json.loads(gate) == ["shape", "cell", "Cayley table must be a square nonempty table of integers in 0..g-1"]


def test_count_routes_refuse_alike_under_python_dash_o():
    """A perturbed 8-point matrix takes the pair histogram and a perturbed
    24-point one the radix route; both name the same witnesses under -O."""
    code = (
        "import json\n"
        "import schemeforge as sf\n"
        "from schemeforge import scheme\n"
        "bases = (sf.hamming_scheme(3), sf.group_scheme(sf.cyclic_group(24)))\n"
        "taken = []\n"
        "for route in ('_histogram_counts', '_radix_counts'):\n"
        "    def spy(*args, route=route, real=getattr(scheme, route)):\n"
        "        taken.append(route)\n"
        "        return real(*args)\n"
        "    setattr(scheme, route, spy)\n"
        "out = []\n"
        "for built in bases:\n"
        "    rel = built.rel.copy()\n"
        "    d = int(rel[0, -1])\n"
        "    rel[0, 1], rel[1, 0] = d, built.star[d]\n"
        "    out.append([v.witness for v in sf.build_scheme(built.n, rel).violations])\n"
        "print(json.dumps([taken, out]))\n"
    )
    runs = [
        subprocess.run([sys.executable, *flags, "-c", code], capture_output=True, text=True, check=False,
                       env=dict(os.environ, PYTHONPATH=str(SRC)))
        for flags in ([], ["-O"])
    ]
    assert all(proc.returncode == 0 for proc in runs), [proc.stderr for proc in runs]
    plain, optimized = (proc.stdout for proc in runs)
    assert plain == optimized
    taken, witnesses = json.loads(optimized)
    assert taken == ["_histogram_counts", "_radix_counts"]
    assert all(witnesses)


def test_generator_route_refuses_alike_under_python_dash_o():
    """Z/21 with two cells swapped fails Light's test as a group table and as
    a 21-element single-valued hypergroup, both put to it by
    hypergroup._table_witnesses; the full scans behind it then name the same
    witnesses under -O, with no assert on the way.  A relabelled Z/64 is
    certified by the generating set that the support pass finds, with no
    mod-p round, under -O as well."""
    code = (
        "import json\n"
        "import numpy as np\n"
        "import schemeforge as sf\n"
        "from schemeforge import hypergroup, scheme\n"
        "taken = []\n"
        "def spy(t, real=hypergroup._light_associative):\n"
        "    taken.append(real(t))\n"
        "    return taken[-1]\n"
        "hypergroup._light_associative = spy\n"
        "t = [[(a + b) % 21 for b in range(21)] for a in range(21)]\n"
        "t[1][2], t[3][4] = t[3][4], t[1][2]\n"
        "try:\n"
        "    sf.build_group(t)\n"
        "except ValueError as exc:\n"
        "    group = str(exc)\n"
        "report = sf.build_hypergroup([[{x} for x in row] for row in t], 0, [-a % 21 for a in range(21)])\n"
        "light, gens, rounds = list(taken), [], []\n"
        "def find(constants, order, real=scheme.generating_classes):\n"
        "    gens.append(real(constants, order))\n"
        "    return gens[-1]\n"
        "scheme.generating_classes = find\n"
        "scheme._extend = lambda *args, real=scheme._extend: rounds.append(1) or real(*args)\n"
        "rng = np.random.default_rng(91)\n"
        "sigma, pi = rng.permutation(64), np.concatenate([[0], 1 + rng.permutation(63)])\n"
        "z64 = pi[sf.group_scheme(sf.cyclic_group(64)).rel[np.ix_(sigma, sigma)]]\n"
        "certified = isinstance(sf.build_scheme(64, z64), sf.AssociationScheme)\n"
        "print(json.dumps([group, [[v.axiom, v.witness] for v in report.violations], light,\n"
        "                  [certified, gens, len(rounds)]]))\n"
    )
    runs = [
        subprocess.run([sys.executable, *flags, "-c", code], capture_output=True, text=True, check=False,
                       env=dict(os.environ, PYTHONPATH=str(SRC)))
        for flags in ([], ["-O"])
    ]
    assert all(proc.returncode == 0 for proc in runs), [proc.stderr for proc in runs]
    plain, optimized = (proc.stdout for proc in runs)
    assert plain == optimized
    group, violations, taken, (certified, gens, rounds) = json.loads(optimized)
    assert group.startswith("not associative at ")
    assert "associativity" in {axiom for axiom, _ in violations}
    assert taken == [False, False]
    assert certified and gens and all(gens) and rounds == 0


def test_star_refusal_leaves_numpy_ma_unimported():
    """The star refusal names its witnesses by np.unique(..., return_index=True),
    which on numpy 2.4 leaves numpy.ma (about 1 MB resident) unimported, in a
    fresh process and after 100 refusals; a plain np.unique imports it, which
    shows that the check can see the import."""
    code = (
        "import json, sys\n"
        "import numpy as np\n"
        "import schemeforge as sf\n"
        "rel = np.array([[0, 1, 2], [2, 0, 1], [1, 1, 0]])\n"
        "seen = ['numpy.ma' in sys.modules]\n"
        "axioms = {v.axiom for _ in range(100) for v in sf.build_scheme(3, rel).violations}\n"
        "seen.append('numpy.ma' in sys.modules)\n"
        "np.unique(rel)\n"
        "seen.append('numpy.ma' in sys.modules)\n"
        "print(json.dumps([sorted(axioms), seen]))\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=False,
                          env=dict(os.environ, PYTHONPATH=str(SRC)))
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == [["star"], [False, False, True]]


def test_old_names_are_the_one_report_and_error():
    assert scheme.SchemeReport is hypergroup.HypergroupReport is constructions.TriangleReport
    assert sf.SchemeReport is sf.HypergroupReport is sf.TriangleReport is sf.Report
    assert sf.TriangleConditionError is sf.CongruenceError is sf.GeometryError
    assert sf.GeometryError is errors.VerificationError is sf.VerificationError
    assert issubclass(sf.VerificationError, sf.SchemeForgeError)


def test_report_reads_valid_and_ok_from_its_violations():
    report = sf.build_scheme(2, [[0, 1], [1, 1]])
    assert isinstance(report, sf.Report)
    assert not report.valid and not report.ok and report.violations
    assert report.text() == "\n".join(v.text() for v in report.violations)
    passed = sf.check_triangle_condition(sf.padic_valued_ring(9, 3))
    assert passed.ok and passed.valid and passed.violations == ()


def test_require_passes_values_and_raises_for_reports():
    z3 = sf.group_scheme(sf.cyclic_group(3))
    assert sf.require(z3) is z3
    report = sf.build_scheme(2, [[0, 1], [1, 1]])
    with pytest.raises(sf.VerificationError) as info:
        sf.require(report)
    assert info.value.violations == report.violations
    assert str(info.value) == f"verification fails: {report.violations[0].text()}"


def test_raised_verification_errors_carry_witnesses():
    with pytest.raises(sf.VerificationError, match="triangle condition fails") as info:
        sf.valuation_scheme(sf.padic_valued_ring(8, 2))
    assert info.value.violations[0].axiom == "triangle_empty"
    k = sf.krasner_hypergroup()
    with pytest.raises(sf.VerificationError, match="not a congruence relation") as info:
        blocks = sf.CongruenceRelation.from_blocks([[0, 1], [2], [3]], 4)
        sf.congruence_quotient(sf.product_hypergroup(k, k), blocks)
    assert info.value.violations
    with pytest.raises(sf.VerificationError, match="geometry axiom fails") as info:
        io.load_geometry('{"points": 3, "lines": [[0, 1]]}')
    assert info.value.violations[0].axiom == "line_size"


def test_aut_subgroup_is_the_only_automorphism_group_constructor():
    """Every AutSubgroup comes out of aut_subgroup, which verifies the group;
    orbits relies on that."""
    def calls(tree):
        return [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Call)
                and getattr(node.func, "id", getattr(node.func, "attr", None)) == "AutSubgroup"]

    found, allowed = [], []
    for path in sorted((SRC / "schemeforge").rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        found += [f"{path.name}:{line}" for line in calls(tree)]
        for node in ast.walk(tree):
            if isinstance(node, ast.FunctionDef) and node.name == "aut_subgroup":
                allowed += [f"{path.name}:{line}" for line in calls(node)]
    assert len(allowed) == 1
    assert found == allowed


def _functions(tree):
    """(qualified name, node) for every function, nested ones and methods as outer.inner."""
    found = []

    def walk(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                found.append((prefix + child.name, child))
            named = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            walk(child, prefix + child.name + "." if named else prefix)

    walk(tree, "")
    return found


def _called_names(node):
    return {getattr(call.func, "id", getattr(call.func, "attr", None))
            for call in ast.walk(node) if isinstance(call, ast.Call)}


def test_isomorphism_searches_share_one_backtracker():
    """Both searches call find_bijection, and the modules that hold them define
    no other recursive function (a backtracker of their own)."""
    recursive, calls = [], {}
    for name in ("hypergroup.py", "scheme.py"):
        tree = ast.parse((SRC / "schemeforge" / name).read_text(encoding="utf-8"))
        for qualified, node in _functions(tree):
            calls[qualified] = _called_names(node)
            if node.name in _called_names(node):
                recursive.append(f"{name}:{qualified}")
    assert "find_bijection" in calls["hypergroup_isomorphic"]
    assert "find_bijection" in calls["scheme_isomorphic"]
    assert recursive == ["hypergroup.py:find_bijection.place"]


def test_normality_and_quotients_share_one_coset_pass():
    """is_normal_sub, quotient_hypergroup and the scheme's double cosets form
    their cosets in _cosets; double_cosets and _quotient (under quotient_scheme
    and quotient_projection) read theirs from that pass through _double_cosets,
    which multiplies no arrays (no s x s double-coset product over the
    constants is left); a scheme's normality is asked of its class hypergroup
    through is_normal_sub."""
    calls, products = {}, {}
    for path in sorted((SRC / "schemeforge").rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for qualified, node in _functions(tree):
            calls[f"{path.name}:{qualified}"] = _called_names(node)
            products[f"{path.name}:{qualified}"] = any(
                isinstance(n, ast.BinOp) and isinstance(n.op, ast.MatMult) for n in ast.walk(node))
    assert "_cosets" in calls["hypergroup.py:is_normal_sub"]
    assert "_cosets" in calls["hypergroup.py:quotient_hypergroup"]
    assert "_cosets" in calls["scheme.py:_double_cosets"]
    assert "is_normal_sub" in calls["scheme.py:is_normal_closed"]
    assert "hypergroup.py:_is_normal" not in calls
    assert [name for name, called in calls.items() if "_double_cosets" in called] == [
        "scheme.py:double_cosets", "scheme.py:_quotient",
    ]
    assert "_quotient" in calls["scheme.py:quotient_scheme"]
    assert "_quotient" in calls["realize.py:quotient_projection"]
    assert not products["scheme.py:_double_cosets"]


def test_class_sets_are_read_off_the_masks():
    """The closure lattice, sub-hypergroup test, cosets, congruence images,
    quotients, products, the isomorphism search, the realization search,
    induced homomorphisms, quotient hyperrings and geometries read
    Hypergroup.masks and never its table, and only hypergroup._table_masks
    turns a table into masks (a function that reads ``table`` and shifts
    bits)."""
    reads, from_table = {}, []
    for path in sorted((SRC / "schemeforge").rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for qualified, node in _functions(tree):
            names = {getattr(n, "attr", getattr(n, "id", None)) for n in ast.walk(node)}
            reads[f"{path.name}:{qualified}"] = names
            shifts = any(isinstance(n, ast.BinOp) and isinstance(n.op, ast.LShift) for n in ast.walk(node))
            if "table" in names and shifts:
                from_table.append(f"{path.name}:{qualified}")
    readers = [f"hypergroup.py:{name}" for name in (
        "closure_lattice", "is_sub_hypergroup", "_cosets", "_congruence", "congruence_quotient",
        "product_hypergroup", "_signatures", "hypergroup_isomorphic", "Hypergroup.product",
        "Hypergroup.is_commutative")]
    readers += [f"realize.py:{name}" for name in ("_search_plan", "_identity_first", "_search_at_size", "induced_hom")]
    readers += [f"constructions.py:{name}" for name in (
        "_vector_space_violations", "geometry_from_hypergroup", "quotient_hyperring")]
    for name in readers:
        assert "masks" in reads[name] and "table" not in reads[name], name
    assert from_table == ["hypergroup.py:_table_masks"]


def _indexes_itself(node) -> bool:
    """True when the function indexes an array or table by its own entries,
    t[t[...]] or t[:, t[...]], as a product of products (xy)z = t[t[x, y], z]
    does; type annotations are not read."""
    def base(n):
        while isinstance(n, ast.Subscript):
            n = n.value
        return ast.unparse(n)

    notes = {id(n) for a in ast.walk(node) for field in ("annotation", "returns")
             if getattr(a, field, None) is not None for n in ast.walk(getattr(a, field))}
    return any(
        isinstance(n, ast.Subscript) and id(n) not in notes
        and any(isinstance(i, ast.Subscript) and base(i) == base(n)
                for i in (n.slice.elts if isinstance(n.slice, ast.Tuple) else [n.slice]))
        for n in ast.walk(node))


def test_single_valued_associativity_is_one_check():
    """build_group, build_ring, quotient_hyperring and the hypergroup check
    reach hypergroup._table_witnesses, only it names _light_associative, and
    no other function in src/ indexes a table by its own entries, as an
    associativity scan must: none but Light's test, its proof, and
    inner_automorphisms, whose conjugation h x h^-1 checks nothing."""
    calls, names, self_indexed = {}, {}, []
    for path in sorted((SRC / "schemeforge").rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for qualified, node in _functions(tree):
            key = f"{path.name}:{qualified}"
            calls[key] = _called_names(node)
            names[key] = {getattr(n, "id", getattr(n, "attr", None)) for n in ast.walk(node)}
            if _indexes_itself(node):
                self_indexed.append(key)
    for name in ("constructions.py:build_group", "constructions.py:build_ring",
                 "constructions.py:quotient_hyperring", "hypergroup.py:_verified"):
        assert "_table_witnesses" in calls[name], name
    assert [key for key, held in names.items() if "_light_associative" in held] == ["hypergroup.py:_table_witnesses"]
    assert self_indexed == ["constructions.py:inner_automorphisms", "hypergroup.py:_table_witnesses",
                            "hypergroup.py:_light_associative"]


def test_first_witnesses_come_from_one_blocked_scan():
    """Only hypergroup.py and scheme.py read _BLOCK_BYTES.  Associativity
    (the word scan, and _table_witnesses for a single-valued table, which
    build_group takes), ring distributivity, both morphism passes and the
    Veblen-Young check find their first witnesses through
    hypergroup._first_flagged, and none of them (nested functions included)
    steps a range over row blocks of its own."""
    readers, calls, stepped = set(), {}, {}
    for path in sorted((SRC / "schemeforge").rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        if any(getattr(n, "id", getattr(n, "attr", getattr(n, "name", None))) == "_BLOCK_BYTES"
               for n in ast.walk(tree)):
            readers.add(path.name)
        for qualified, node in _functions(tree):
            calls[f"{path.name}:{qualified}"] = _called_names(node)
            stepped[f"{path.name}:{qualified}"] = any(
                isinstance(n, ast.Call) and getattr(n.func, "id", None) == "range" and len(n.args) == 3
                for n in ast.walk(node))
    assert readers == {"hypergroup.py", "scheme.py"}
    for name in ("hypergroup.py:_associativity_witnesses", "hypergroup.py:_table_witnesses",
                 "constructions.py:build_ring", "realize.py:check_morphism", "constructions.py:check_geometry"):
        assert "_first_flagged" in calls[name] and not stepped[name], name
    assert "_table_witnesses" in calls["constructions.py:build_group"] and not stepped["constructions.py:build_group"]
    assert not any(name.startswith("constructions.py:_first_triple") for name in calls)


def test_constants_support_is_read_in_one_place():
    """constants > 0 is the class hypergroup's table; it is formed only where
    that hypergroup is built, and every class-set question goes through it."""
    found = []
    for path in sorted((SRC / "schemeforge").rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for qualified, node in _functions(tree):
            for cmp in ast.walk(node):
                if (isinstance(cmp, ast.Compare) and isinstance(cmp.ops[0], ast.Gt)
                        and getattr(cmp.left, "attr", getattr(cmp.left, "id", None)) == "constants"
                        and getattr(cmp.comparators[0], "value", None) == 0):
                    found.append(f"{path.name}:{qualified}")
    assert found == ["scheme.py:AssociationScheme.hypergroup"]


def test_built_constants_have_two_readers():
    """Only the class hypergroup and is_commutative read a built scheme's
    dense s^3 ``.constants``; every other question goes through the
    hypergroup, so constants held by support would change these two alone."""
    found = []
    for path in sorted((SRC / "schemeforge").rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        reads = {id(n) for n in ast.walk(tree) if isinstance(n, ast.Attribute) and n.attr == "constants"}
        inside = set()
        for qualified, node in _functions(tree):
            held = reads & {id(n) for n in ast.walk(node)}
            found += [f"{path.name}:{qualified}"] if held else []
            inside |= held
        assert inside == reads, path.name  # no read outside a function
    assert found == ["scheme.py:AssociationScheme.hypergroup", "scheme.py:is_commutative"]


def test_cli_prints_in_one_place():
    """In cli.py only _emit prints or writes: a call of print, of write or
    writelines, or an open in a writing mode.  Two prints stand apart: run's
    ``error:`` line to stderr, and the progress callback that search passes
    to search_realization, which prints while the search runs."""
    tree = ast.parse((SRC / "schemeforge" / "cli.py").read_text(encoding="utf-8"))
    spans = [(n.lineno, n.end_lineno, n.name) for n in tree.body
             if isinstance(n, (ast.FunctionDef, ast.ClassDef))]

    def owner(node):
        return next((name for first, last, name in spans if first <= node.lineno <= last), "<module>")

    def writes(call):
        name = getattr(call.func, "id", getattr(call.func, "attr", None))
        if name == "open":
            mode = call.args[1] if len(call.args) > 1 else next(
                (k.value for k in call.keywords if k.arg == "mode"), None)
            return isinstance(mode, ast.Constant) and bool(set(str(mode.value)) & set("wax+"))
        return name in {"print", "write", "writelines"}

    progress = {id(n) for call in ast.walk(tree) for k in getattr(call, "keywords", ())
                if k.arg == "progress" and isinstance(k.value, ast.Lambda) for n in ast.walk(k.value)}
    found = [c for c in ast.walk(tree) if isinstance(c, ast.Call) and writes(c)]
    outside = sorted(((owner(c), c) for c in found if owner(c) != "_emit"), key=lambda pair: pair[0])
    assert {owner(c) for c in found} == {"_emit", "run", "_cmd_search"}
    assert [name for name, _ in outside] == ["_cmd_search", "run"]
    (_, progress_print), (_, error_print) = outside
    assert id(progress_print) in progress
    text, = error_print.args
    assert isinstance(text, ast.JoinedStr) and text.values[0].value == "error: "
    assert [(k.arg, getattr(k.value, "attr", None)) for k in error_print.keywords] == [("file", "stderr")]


def _gated_names(node) -> set[str]:
    """Names a function binds from a call of errors._integers, alone or in a
    tuple assignment such as ``given, rel = rel, _integers(rel, 2)``."""
    def gate(value):
        return isinstance(value, ast.Call) and getattr(value.func, "id", None) == "_integers"

    names = set()
    for assign in (n for n in ast.walk(node) if isinstance(n, ast.Assign)):
        for target in assign.targets:
            pairs = (zip(target.elts, assign.value.elts) if isinstance(target, ast.Tuple)
                     and isinstance(assign.value, ast.Tuple) else [(target, assign.value)])
            names |= {t.id for t, v in pairs if isinstance(t, ast.Name) and gate(v)}
    return names


def _root(expr) -> str | None:
    """The name a subscript or attribute chain starts from: obj for obj["n"]."""
    while isinstance(expr, (ast.Subscript, ast.Attribute)):
        expr = expr.value
    return expr.id if isinstance(expr, ast.Name) else None


def _caller_values(node) -> set[str]:
    """The names in a function that hold a caller's value as given: its
    parameters (nested functions' too) not rebound from the gate, and the
    loop and comprehension variables that run over one of them, directly or
    through enumerate, zip, sorted, list, tuple or set."""
    params = {a.arg for f in ast.walk(node) if isinstance(f, (ast.FunctionDef, ast.Lambda))
              for a in f.args.posonlyargs + f.args.args + f.args.kwonlyargs + [f.args.vararg, f.args.kwarg] if a}
    held, loops = params - _gated_names(node), [n for n in ast.walk(node) if isinstance(n, (ast.comprehension, ast.For))]

    def over(it):
        if isinstance(it, ast.Call) and getattr(it.func, "id", None) in ("enumerate", "zip", "sorted", "list",
                                                                          "tuple", "set"):
            return any(over(a) for a in it.args)
        return _root(it) in held

    while True:
        more = {t.id for loop in loops if over(loop.iter)
                for t in ast.walk(loop.target) if isinstance(t, ast.Name)} - held
        if not more:
            return held
        held |= more


def test_inputs_pass_one_gate():
    """errors._integers alone decides what an integer input is.  Outside it,
    src/ names no numbers.Integral and no np.issubdtype, converts with
    dtype=np.int64 only values the library computed (a verified group or
    ring, a search's own matrix and class orders), and applies
    int() (or map(int, ...)) to no caller's value: no parameter as given, no
    item or attribute of one, nor a variable that runs over one (cli.py's
    int() of command-line text parses a string it split itself).  Every
    builder, loader and index argument that reads caller integers names the
    gate, and the io loaders read their headers through io._fields."""
    found, int64, ints, mentions = [], [], [], {}
    for path in sorted((SRC / "schemeforge").rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        names = {getattr(n, "id", getattr(n, "attr", getattr(n, "name", None))) for n in ast.walk(tree)}
        found += [f"{path.name}:{name}" for name in ("Integral", "numbers", "issubdtype") if name in names]
        if path.name == "errors.py":
            continue
        for qualified, node in _functions(tree):
            mentions[f"{path.name}:{qualified}"] = {getattr(n, "id", getattr(n, "attr", None)) for n in ast.walk(node)}
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            held = _caller_values(node)
            for call in (n for n in ast.walk(node) if isinstance(n, ast.Call)):
                name = getattr(call.func, "id", getattr(call.func, "attr", None))
                if name in ("array", "asarray") and any(
                        k.arg == "dtype" and ast.unparse(k.value) == "np.int64" for k in call.keywords):
                    int64.append(f"{path.name}:{node.name}")
                args = call.args[1:] if name == "map" and ast.unparse(call.args[0]) == "int" else (
                    call.args if name == "int" else [])
                if any(_root(a) in held for a in args):
                    ints.append(f"{path.name}:{node.name}")
    assert found == []
    assert sorted(set(int64)) == ["constructions.py:partition_scheme", "constructions.py:valuation_relation",
                                  "realize.py:_search_at_size", "scheme.py:_radix_counts"]
    assert ints == []
    readers = [f"scheme.py:{name}" for name in ("build_scheme", "_check_class_sets", "restrict_scheme")]
    readers += [f"hypergroup.py:{name}" for name in (
        "Hypergroup.__init__", "_table_masks", "_verified", "is_sub_hypergroup", "_cosets", "quotient_hypergroup",
        "CongruenceRelation.from_blocks")]
    readers += [f"constructions.py:{name}" for name in (
        "build_group", "build_ring", "aut_subgroup", "unit_subgroup", "check_geometry", "_order",
        "symmetric_group", "alternating_group", "hamming_scheme", "padic_valued_ring", "units_of_order_dividing")]
    readers += ["realize.py:check_morphism", "realize.py:search_realization", "io.py:_fields"]
    for name in readers:
        assert "_integers" in mentions[name], name
    # family sizes: the group and ring orders pass one check before any table is built
    for name in ("cyclic_group", "zmod_ring", "padic_valued_ring"):
        assert "_order" in mentions[f"constructions.py:{name}"], name
    for name in ("_scheme_from", "_hypergroup_from", "load_geometry", "load_group", "load_ring"):
        assert "_fields" in mentions[f"io.py:{name}"], name


def test_caches_stay_where_they_are():
    """functools.cached_property and lru_cache (and functools.cache) decorate
    only the class hypergroup of a scheme, the frozenset view of a
    hypergroup's masks and the catalog getters.  A cache on a scheme's or
    hypergroup's answers would let a repeated question time a dict lookup, so
    lattices, quotients and products are computed afresh."""
    caches = {"cached_property", "lru_cache", "cache"}
    decorated, stray = [], []
    for path in sorted((SRC / "schemeforge").rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        allowed = set()
        for qualified, node in _functions(tree):
            for dec in node.decorator_list:
                target = dec.func if isinstance(dec, ast.Call) else dec
                if getattr(target, "attr", getattr(target, "id", None)) in caches:
                    decorated.append(f"{path.stem}:{qualified}")
                    allowed.add(id(target))
        for node in ast.walk(tree):
            named = getattr(node, "attr", getattr(node, "id", None))
            if isinstance(node, ast.alias):
                named = node.asname or node.name
            if named in caches and id(node) not in allowed:
                stray.append(f"{path.name}:{node.lineno}")
    assert sorted(decorated) == [
        "catalog:_valued_rings", "catalog:catalog_hypergroup", "catalog:catalog_scheme",
        "hypergroup:Hypergroup.table", "scheme:AssociationScheme.hypergroup",
    ]
    assert stray == []
