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
        "import schemeforge as sf\n"
        "report = sf.build_hypergroup([[{0}, {1}], [{1}, {1}]], 0, (0, 1))\n"
        "assert False, 'asserts must be stripped under -O'\n"
        "try:\n"
        "    sf.require(report)\n"
        "except sf.VerificationError as exc:\n"
        "    print(exc.violations == report.violations, len(exc.violations))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-O", "-c", code], capture_output=True, text=True, check=False,
        env=dict(os.environ, PYTHONPATH=str(SRC)),
    )
    assert proc.returncode == 0, proc.stderr
    flag, count = proc.stdout.split()
    assert flag == "True" and int(count) >= 1


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
    witnesses under -O, with no assert on the way."""
    code = (
        "import json\n"
        "import schemeforge as sf\n"
        "from schemeforge import hypergroup\n"
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
        "print(json.dumps([group, [[v.axiom, v.witness] for v in report.violations], taken]))\n"
    )
    runs = [
        subprocess.run([sys.executable, *flags, "-c", code], capture_output=True, text=True, check=False,
                       env=dict(os.environ, PYTHONPATH=str(SRC)))
        for flags in ([], ["-O"])
    ]
    assert all(proc.returncode == 0 for proc in runs), [proc.stderr for proc in runs]
    plain, optimized = (proc.stdout for proc in runs)
    assert plain == optimized
    group, violations, taken = json.loads(optimized)
    assert group.startswith("not associative at ")
    assert "associativity" in {axiom for axiom, _ in violations}
    assert taken == [False, False]


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
