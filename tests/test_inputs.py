"""The one input gate, ``errors._integers``: every builder, loader and index
argument reads a caller's integers through it, so a float, a string, None, a
bool or an int64 overflow is refused and never converted.  One test per input
that an earlier version converted or met with a raw exception, then a seeded
malformed-input run over every public builder, every loader and ``cli.run``.
"""

import dataclasses
import json

import numpy as np
import pytest

import schemeforge as sf
from schemeforge import catalog, constructions, io
from schemeforge.cli import run
from schemeforge.errors import _integers
from schemeforge.hypergroup import CongruenceRelation
from schemeforge.realize import SchemeMorphism, identity_morphism

from helpers import malformed


def witnesses(result):
    return [(v.axiom, v.witness) for v in result.violations]


Z2_CELLS = [[{0}, {1}], [{1}, {0}]]


# ---------------------------------------------------------------------------
# the gate itself

def test_gate_reads_integers_and_refuses_the_rest():
    assert [_integers(x) for x in (3, -(2 ** 63), 2 ** 63 - 1, np.int8(-3), np.uint64(2 ** 63 - 1))] == [
        3, -(2 ** 63), 2 ** 63 - 1, -3, 2 ** 63 - 1]
    assert all(type(_integers(x)) is int for x in (np.int64(2), np.uint16(2)))
    for x in (True, np.bool_(False), 2.0, np.float64(1), "1", None, 2 ** 63, -(2 ** 63) - 1,
              np.uint64(2 ** 63), [1]):
        assert _integers(x) is None, x
    table = _integers([[0, 1], [1, 0]], 2)
    assert table.dtype == np.int64 and table.tolist() == [[0, 1], [1, 0]]
    given = np.array([[0, 1], [1, 0]], dtype=np.uint8)
    assert not np.shares_memory(_integers(given, 2), given)
    refused = [[[0, True], [1, 0]], [[0, 1.0], [1, 0]], [[0, "1"], [1, 0]], [[0, None], [1, 0]],
               [[0, 10 ** 30], [1, 0]], [0, 1], [[[0]]], np.array([[0, 2 ** 63]], dtype=np.uint64),
               np.array([[True]]), [[np.bool_(True), 1]], 5]
    for value in refused:
        assert _integers(value, 2) is None, value
    assert _integers([0, False], 1) is None and _integers([0, np.int8(1)], 1).tolist() == [0, 1]
    with pytest.raises(ValueError):
        _integers([[0], [0, 1]], 2)  # ragged: numpy's own refusal


# ---------------------------------------------------------------------------
# scheme.py

def test_uint64_labels_above_int64_are_refused_by_shape():
    """A uint64 label 2^63 + 1 used to wrap to -9223372036854775807 and be
    refused as a class with that label, which is not in the matrix."""
    rel = np.array([[0, 2 ** 63 + 1], [2 ** 63 + 1, 0]], dtype=np.uint64)
    assert witnesses(sf.build_scheme(2, rel)) == [("shape", (2, (2, 2)))]
    assert witnesses(sf.build_scheme(2, rel.tolist())) == [("shape", (2, (2, 2)))]


def test_build_scheme_refuses_a_point_count_that_is_no_integer():
    for n in (2.0, "2", True, None):
        assert witnesses(sf.build_scheme(n, [[0, 1], [1, 0]])) == [("shape", (n, (2, 2)))], n
    assert sf.build_scheme(np.int64(2), [[0, 1], [1, 0]]).n == 2


def test_build_scheme_refuses_bool_entries():
    for rel in ([[0, True], [True, 0]], [[False, True], [True, False]], np.array([[0, 1], [1, 0]], dtype=bool)):
        assert witnesses(sf.build_scheme(2, rel)) == [("shape", (2, (2, 2)))]


def test_class_sets_refuse_non_integers():
    z4 = catalog.catalog_scheme("Z4")
    for call in (lambda: sf.is_closed(z4, {0, 2.5}), lambda: sf.quotient_scheme(z4, [0, 2.9]),
                 lambda: sf.is_closed(z4, [0, True]), lambda: sf.complex_mult(z4, [1], ["1"]),
                 lambda: sf.is_normal_closed(z4, [0.0, 2])):
        with pytest.raises(ValueError, match="^class indices must be integers$"):
            call()
    assert sf.is_closed(z4, [np.int64(0), np.int8(2)])


def test_restrict_refuses_a_point_that_is_no_integer():
    z4 = catalog.catalog_scheme("Z4")
    for x0 in (1.5, 1.0, "1", True):
        with pytest.raises(ValueError, match="out of range"):
            sf.restrict_scheme(z4, {0, 2}, x0)
    assert sf.restrict_scheme(z4, {0, 2}, np.int64(1)).n == 2


# ---------------------------------------------------------------------------
# hypergroup.py

def test_cells_hold_integers_only():
    for odd in (1.9, 1.0, "1", True, None, np.float64(1)):
        table = [[{0}, [odd]], [{1}, {0}]]
        assert witnesses(sf.build_hypergroup(table, 0, [0, 1])) == [("cell", (0, 1))], odd
        with pytest.raises(ValueError, match="no integer"):
            sf.Hypergroup(2, table, 0, (0, 1))
        with pytest.raises(sf.VerificationError):
            sf.group_as_hypergroup([[0, odd], [1, 0]], 0, [0, 1])
    for cell in ([["0"]], [[0.0]]):
        assert witnesses(sf.build_hypergroup([cell], 0, [0])) == [("cell", (0, 0))]
    assert sf.build_hypergroup([[[np.int64(0)]]], 0, [0]).m == 1


def test_identity_and_inverses_are_integers():
    for e, inv in ((0, [0, True]), (0, [0, 1.2]), (0, [0, 1.0]), (0.0, [0, 1]), (False, [0, 1]), ("0", [0, 1])):
        assert witnesses(sf.build_hypergroup(Z2_CELLS, e, inv)) == [("shape", (e, tuple(inv)))]
    h = sf.require(sf.build_hypergroup(Z2_CELLS, np.int64(0), np.array([0, 1])))
    assert type(h.e) is int and all(type(x) is int for x in h.inv)


def test_unverified_constructor_reads_identity_and_inverses_through_the_gate():
    # Hypergroup(...) checks no axiom, but it stores integers alone
    with pytest.raises(ValueError, match="must be integers"):
        sf.Hypergroup(2, Z2_CELLS, 0.0, (0, 1.0))
    for m, e, inv in ((2.0, 0, (0, 1)), (2, 0, (0, 1.0)), (2, True, (0, 1)), (2, 0, ("0", 1))):
        with pytest.raises(ValueError, match="must be integers"):
            sf.Hypergroup(m, Z2_CELLS, e, inv)
    h = sf.Hypergroup(np.int64(2), Z2_CELLS, np.int64(0), np.array([0, 1]))
    assert type(h.m) is int and type(h.e) is int and h.inv == (0, 1) and all(type(x) is int for x in h.inv)
    # range and axioms stay unchecked, so replace still builds invalid values
    assert dataclasses.replace(h, e=5).e == 5 and dataclasses.replace(h, inv=[1, 0]).inv == (1, 0)


def test_element_sets_refuse_non_integers():
    h = catalog.catalog_hypergroup("Z4")
    for call in (lambda: sf.is_sub_hypergroup(h, {0, 2.0}), lambda: sf.is_normal_sub(h, [0, 2.0]),
                 lambda: sf.quotient_hypergroup(h, [0, "2"]), lambda: sf.quotient_hypergroup(h, [True])):
        with pytest.raises(ValueError, match="^element set holds a non-integer$"):
            call()


def test_congruence_blocks_refuse_non_integers():
    for blocks in ([[0, 1.0]], [[0], [True]], [[0], ["1"]]):
        with pytest.raises(ValueError, match="partition"):
            CongruenceRelation.from_blocks(blocks, 2)


# ---------------------------------------------------------------------------
# constructions.py

def test_group_tables_hold_integers_only():
    for table in ([[0, 1.5], [1, 0]], [[0, "1"], [1, 0]], [[False, True], [True, False]],
                  [[0, True], [1, 0]], [[0, 10 ** 30], [1, 0]], [[0, 1.0], [1.0, 0]]):
        with pytest.raises(ValueError, match="table of integers"):
            sf.build_group(table)


def test_ring_tables_hold_integers_only():
    with pytest.raises((ValueError, TypeError)) as info:
        sf.build_ring(True, [[0, 1], [1, 0]])
    assert str(info.value)
    for mul in ([[0, 0], [0, 1.7]], [[0, 0], [0, True]], [[0, 0], [0, 10 ** 30]]):
        with pytest.raises(ValueError, match="table of integers"):
            sf.build_ring([[0, 1], [1, 0]], mul)
    with pytest.raises(ValueError, match="table of integers"):
        sf.build_ring([[0, 10 ** 30], [1, 0]], [[0, 0], [0, 1]])


def test_permutations_and_units_hold_integers_only():
    z3 = sf.cyclic_group(3)
    for perm in ([0, 2.0, 1], [0, True, 2], ["0", 1, 2]):
        with pytest.raises(ValueError, match="not a permutation"):
            sf.aut_subgroup(z3, [(0, 1, 2), perm])
    assert sf.aut_subgroup(z3, [np.array([0, 1, 2]), (0, 2, 1)]).perms == ((0, 1, 2), (0, 2, 1))
    z5 = sf.zmod_ring(5)
    for units in ([1, 4.0], [1, True], [1, "4"]):
        with pytest.raises(ValueError, match="not a subset of the units"):
            sf.unit_subgroup(z5, units)
    assert sf.unit_subgroup(z5, [np.int64(1), 4]) == (1, 4)


def _spy(monkeypatch, module, name):
    """Record the calls of module.name, then make them."""
    calls, real = [], getattr(module, name)
    monkeypatch.setattr(module, name, lambda *args: calls.append(args) or real(*args))
    return calls


def test_cyclic_group_order_is_an_integer_within_the_bound(monkeypatch):
    """True is not 1: cyclic_group(True) returned Z/1.  An order above
    GROUP_ORDER_BOUND is refused before the g x g lists are built."""
    built = _spy(monkeypatch, constructions, "build_group")
    for n in (True, 2.0, "3", None, 0, -4):
        with pytest.raises(ValueError, match="order must be a positive integer"):
            sf.cyclic_group(n)
    for n in (constructions.GROUP_ORDER_BOUND + 1, 10 ** 12):
        with pytest.raises(sf.SizeGuardError, match=f"order {n} exceeds bound"):
            sf.cyclic_group(n)
    assert built == [] and sf.cyclic_group(np.int64(3)).order == 3


def test_zmod_ring_order_is_an_integer_within_the_bound(monkeypatch):
    built = _spy(monkeypatch, constructions, "build_ring")
    for n in (True, 2.0, "3", None, 0):
        with pytest.raises(ValueError, match="order must be a positive integer"):
            sf.zmod_ring(n)
    with pytest.raises(sf.SizeGuardError, match="exceeds bound"):
        sf.zmod_ring(10 ** 12)
    assert built == []


def test_hamming_scheme_sizes_are_integers():
    for args in ((True,), (3, True), (2.0,), (3, 2.0), ("3",), (None, 2)):
        with pytest.raises(ValueError, match="hamming_scheme needs integers n and q"):
            sf.hamming_scheme(*args)
    assert sf.hamming_scheme(np.int64(2)).n == 4


def test_symmetric_and_alternating_degrees_are_integers():
    for k in (True, 3.0, "3", None):
        for family in (sf.symmetric_group, sf.alternating_group):
            with pytest.raises(ValueError, match="needs an integer k"):
                family(k)


def test_padic_valued_ring_sizes_are_integers_within_the_bound(monkeypatch):
    for n, p in ((True, 2), (8, True), (8.0, 2), (8, 2.0), ("8", 2)):
        with pytest.raises(ValueError, match="need integers p >= 2 and n >= 1"):
            sf.padic_valued_ring(n, p)
    built = _spy(monkeypatch, constructions, "zmod_ring")
    with pytest.raises(sf.SizeGuardError, match="exceeds bound"):
        sf.padic_valued_ring(2 ** 40, 2)
    assert built == []


def test_units_of_order_dividing_reads_its_exponent():
    """The exponent is read through the gate, and its size costs nothing: the
    units are kept by their multiplicative order, which divides d or not."""
    gf16 = sf.gf_ring(16)
    for d in (True, 3.0, "3", None):
        with pytest.raises(ValueError, match="exponent must be an integer"):
            sf.units_of_order_dividing(gf16, d)
    assert len(sf.units_of_order_dividing(gf16, 3)) == 3 and len(sf.units_of_order_dividing(gf16, 5)) == 5
    assert sf.units_of_order_dividing(gf16, 15 * 10 ** 15) == sf.units_of_order_dividing(gf16, 15)
    assert len(sf.units_of_order_dividing(gf16, 15)) == 15


def test_search_bound_is_an_integer():
    """search_realization(h, True) searched at most one point and returned None."""
    for n_max in (True, 3.0, "3", None):
        with pytest.raises(ValueError, match="n_max must be an integer"):
            sf.search_realization(sf.krasner_hypergroup(), n_max)


def test_ring_product_rows_are_counted_before_they_are_read(monkeypatch):
    """A 3000 x 3000 product against a one-element addition is refused by
    its row count: the gate never reads it (it took 0.53 s when it did)."""
    read = _spy(monkeypatch, constructions, "_integers")
    mul = [[0] * 3000] * 3000
    for given in (mul, np.zeros((3000, 3000), dtype=np.int64)):
        with pytest.raises(ValueError, match="the size of addition"):
            sf.build_ring([[0]], given)
        assert read and all(args[0] is not given for args in read)
    for ragged in ([[0, 0], [0]], [[0, 0], 5], [[0, 0]], np.array(5)):
        with pytest.raises(ValueError, match="the size of addition"):
            sf.build_ring([[0, 1], [1, 0]], ragged)


def test_geometry_points_are_integers():
    assert [v.axiom for v in sf.check_geometry(3, [[0, 2, True]])] == ["line_points"]
    assert [v.axiom for v in sf.check_geometry(3, [[0, 1, 2.0]])] == ["line_points"]
    for n in (3.0, "3", True):
        with pytest.raises(ValueError, match="point count must be a nonnegative integer"):
            sf.check_geometry(n, [[0, 1, 2]])
    assert sf.check_geometry(np.int64(3), [[0, 1, np.int64(2)]]) == []


def test_morphism_maps_are_integers():
    z4 = catalog.catalog_scheme("Z4")
    ident = identity_morphism(z4)
    assert sf.check_morphism(ident).morphism
    for pm in ((0, 1, 2, 3.0), (0, True, 2, 3)):
        report = sf.check_morphism(SchemeMorphism(z4, z4, pm, ident.class_map))
        assert [v.axiom for v in report.violations] == ["point_range"]
    report = sf.check_morphism(SchemeMorphism(z4, z4, ident.point_map, (0, 1, 2, "3")))
    assert [v.axiom for v in report.violations] == ["class_range"]


# ---------------------------------------------------------------------------
# io.py

@pytest.mark.parametrize("text", [
    '{"n": "2", "rel": [[0, 1], [1, 0]]}',
    '{"n": 2.7, "rel": [[0, 1], [1, 0]]}',
    '{"n": true, "rel": [[0]]}',
])
def test_scheme_files_need_an_integer_n(text):
    with pytest.raises(ValueError, match='need an integer "n"'):
        io.load_scheme(text)


@pytest.mark.parametrize("text, key", [
    ('{"m": 2, "e": "0", "inv": [0, 1], "table": [[[0], [1]], [[1], [0]]]}', "e"),
    ('{"m": 2.0, "e": 0, "inv": [0, 1], "table": [[[0], [1]], [[1], [0]]]}', "m"),
])
def test_hypergroup_files_need_integer_m_and_e(text, key):
    with pytest.raises(ValueError, match=f'need an integer "{key}"'):
        io.load_hypergroup(text)


def test_geometry_and_group_files_need_integers():
    with pytest.raises(ValueError, match='need an integer "points"'):
        io.load_geometry('{"points": "3", "lines": [[0, 1, 2]]}')
    with pytest.raises(sf.VerificationError) as info:
        io.load_geometry('{"points": 3, "lines": [[0, 1, 2.5]]}')
    assert info.value.violations[0].axiom == "line_points"
    with pytest.raises(ValueError, match='need an integer "order"'):
        io.load_group('{"order": 2.0, "cayley": [[0, 1], [1, 0]]}')


def test_json_true_is_no_class_label(tmp_path, capsys):
    path = tmp_path / "true.json"
    path.write_text('{"n":2,"rel":[[0,true],[true,0]]}')
    assert run(["verify", "scheme", str(path)]) == 1
    assert "AXIOM shape" in capsys.readouterr().out
    assert witnesses(io.load_scheme(path.read_text())) == [("shape", (2, (2, 2)))]


# ---------------------------------------------------------------------------
# a seeded malformed-input run over every builder, loader and cli.run

def _holds(call):
    """('value' | 'report' | 'raised', the value) of call(); any exception
    other than a ValueError or TypeError with a message fails the test."""
    try:
        value = call()
    except (ValueError, TypeError) as exc:  # a SchemeForgeError is a ValueError
        assert str(exc), repr(exc)
        return "raised", exc
    if isinstance(value, sf.Report):
        assert value.violations
        return "report", value
    return "value", value


def _refused(kind, value) -> bool:
    if kind == "value" and isinstance(value, list):  # check_geometry's violations
        return bool(value)
    if kind == "value" and isinstance(value, sf.MorphismReport):
        return not value.morphism
    return kind != "value"


def test_malformed_inputs_are_refused_with_a_message(tmp_path, monkeypatch):
    """Every public builder and index argument, given a valid input with one
    leaf, row or field swapped for a float, bool, string, None, list, dict or
    an int beyond int64, returns a value or a Report or raises ValueError or
    TypeError with a message, and returns a value only when the input still
    held integers alone.  The loaders and ``cli.run`` read the same documents
    from JSON: a file that is not integers alone never verifies, and the CLI
    exits 1 or 2 with no traceback."""
    z4, k, z3, z5 = (catalog.catalog_scheme("Z4"), sf.krasner_hypergroup(), sf.cyclic_group(3), sf.zmod_ring(5))
    h4 = z4.hypergroup
    z2 = [[0, 1], [1, 0]]
    ktable = [[sorted(cell) for cell in row] for row in k.table]
    calls = {
        "build_scheme": ((4, z4.rel.tolist()), sf.build_scheme),
        "build_hypergroup": ((ktable, 0, [0, 1]), sf.build_hypergroup),
        "Hypergroup": ((ktable,), lambda t: sf.Hypergroup(2, t, 0, (0, 1)).masks),
        "group_as_hypergroup": ((z2, 0, [0, 1]), sf.group_as_hypergroup),
        "build_group": ((z2,), sf.build_group),
        "build_ring": ((z2, [[0, 0], [0, 1]]), sf.build_ring),
        "check_geometry": ((3, [[0, 1, 2]]), sf.check_geometry),
        "from_blocks": (([[0, 2], [1, 3]], 4), CongruenceRelation.from_blocks),
        "is_closed": (([0, 2],), lambda t: sf.is_closed(z4, t)),
        "complex_mult": (([1], [1, 3]), lambda p, q: sf.complex_mult(z4, p, q)),
        "quotient_scheme": (([0, 2],), lambda t: sf.quotient_scheme(z4, t)),
        "restrict_scheme": (([0, 2], 1), lambda t, x: sf.restrict_scheme(z4, t, x)),
        "is_normal_sub": (([0, 2],), lambda t: sf.is_normal_sub(h4, t)),
        "quotient_hypergroup": (([0, 2],), lambda t: sf.quotient_hypergroup(h4, t)),
        "aut_subgroup": (([[0, 1, 2], [0, 2, 1]],), lambda p: sf.aut_subgroup(z3, p)),
        "unit_subgroup": (([1, 4],), lambda u: sf.unit_subgroup(z5, u)),
        "check_morphism": (((0, 1, 2, 3), (0, 1, 2, 3)), lambda p, c: sf.check_morphism(SchemeMorphism(z4, z4, p, c))),
    }
    rng = np.random.default_rng(20232)
    for name, (args, call) in calls.items():
        for _ in range(40):
            given, honest = malformed(rng, list(args))
            kind, value = _holds(lambda: call(*given))
            assert honest or _refused(kind, value), (name, given, kind, value)

    docs = {
        "scheme": ({"n": 4, "rel": z4.rel.tolist()}, io.load_scheme),
        "hypergroup": ({"m": 2, "e": 0, "inv": [0, 1], "table": ktable}, io.load_hypergroup),
        "geometry": ({"points": 3, "lines": [[0, 1, 2]]}, io.load_geometry),
        "group": ({"order": 2, "cayley": z2}, io.load_group),
        "ring": ({"add": z2, "mul": [[0, 0], [0, 1]]}, io.load_ring),
    }
    monkeypatch.chdir(tmp_path)
    for word, (doc, load) in docs.items():
        for _ in range(40):
            given, honest = malformed(rng, doc)
            text = json.dumps(given)
            kind, value = _holds(lambda: load(text))
            assert honest or _refused(kind, value), (word, text, kind, value)
            if word in ("scheme", "hypergroup"):
                with open("doc.json", "w", encoding="utf-8") as fh:
                    fh.write(text)
                for argv in (["verify", {"scheme": "scheme", "hypergroup": "hyper"}[word], "doc.json"],
                             ["build", "doc.json"]):
                    code = run(argv)
                    assert code in ((0, 1, 2) if honest else (1, 2)), (argv, text, code)
