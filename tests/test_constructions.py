import functools
import itertools
from math import inf

import numpy as np
import pytest

import schemeforge as sf
from schemeforge import catalog, constructions, hypergroup, io

from helpers import hamming_distance, naive_check_geometry, naive_orbits, naive_partition_hypergroup


# ---------------------------------------------------------------------------
# groups and automorphisms

def test_build_group_rejects_bad_tables():
    with pytest.raises(ValueError, match="associative"):
        sf.build_group([[0, 1], [0, 0]])
    with pytest.raises(ValueError, match="identity"):
        sf.build_group([[0, 0], [1, 1]])  # left-zero semigroup
    with pytest.raises(ValueError, match="inverse"):
        sf.build_group([[0, 1], [1, 1]])  # boolean OR monoid


def test_group_order_bound(monkeypatch):
    """Z/GROUP_ORDER_BOUND builds; one row more is refused by the row count,
    before any entry is read: a table of one-entry rows would fail the
    square check, and the gate is never called.  build_ring and
    io.load_group inherit the guard."""
    g = constructions.GROUP_ORDER_BOUND
    idx = np.arange(g)
    grp = sf.build_group((idx[:, None] + idx) % g)
    assert grp.order == g and grp.e == 0 and grp.inv[1] == g - 1
    read = []
    monkeypatch.setattr(constructions, "_integers", lambda *args: read.append(args))
    for call in (lambda: sf.build_group([[0]] * (g + 1)), lambda: sf.build_ring([[0]] * (g + 1), [[0]]),
                 lambda: io.load_group(io.canonical_json({"order": g + 1, "cayley": [[0]] * (g + 1)}))):
        with pytest.raises(sf.SizeGuardError, match=f"order {g + 1} exceeds bound {g}"):
            call()
    assert read == []


def test_symmetric_and_alternating_groups():
    s3 = sf.symmetric_group(3)
    assert s3.order == 6 and s3.e == 0
    a4 = sf.alternating_group(4)
    assert a4.order == 12 and a4.e == 0
    # centerless: conjugation gives as many automorphisms as elements
    assert len(sf.inner_automorphisms(s3).perms) == 6
    assert len(sf.inner_automorphisms(a4).perms) == 12
    # abelian: inner automorphisms collapse
    assert len(sf.inner_automorphisms(sf.cyclic_group(6)).perms) == 1


def test_aut_subgroup_rejects_non_automorphism():
    g = sf.cyclic_group(4)
    swap = (0, 2, 1, 3)  # 1 <-> 2 does not respect addition
    with pytest.raises(ValueError, match="automorphism"):
        sf.aut_subgroup(g, [tuple(range(4)), swap])


def test_aut_subgroup_requires_closure():
    g = sf.cyclic_group(5)
    double = tuple((2 * x) % 5 for x in range(5))
    with pytest.raises(ValueError, match="closed"):
        sf.aut_subgroup(g, [tuple(range(5)), double])


def test_orbits_identity_first():
    g = sf.symmetric_group(3)
    orbit_list, orbit_of = sf.orbits(sf.inner_automorphisms(g))
    assert orbit_list[0] == (0,)
    assert len(orbit_list) == 3  # identity, transpositions, 3-cycles
    assert orbit_of[0] == 0


# ---------------------------------------------------------------------------
# group and partition schemes

def test_group_scheme_structure_constants_are_cayley_indicators():
    for n in [2, 3, 4, 5, 6]:
        g = sf.cyclic_group(n)
        s = sf.group_scheme(g)
        assert s.s == n
        for a, b, t in itertools.product(range(n), repeat=3):
            assert s.constants[a, b, t] == (1 if t == g.cayley[a][b] else 0)


def test_group_scheme_trivial_group():
    s = sf.group_scheme(sf.cyclic_group(1))
    assert s.n == 1 and s.s == 1


def test_group_scheme_s3_noncommutative():
    s = catalog.catalog_scheme("S3")
    assert s.n == 6 and s.s == 6
    assert not sf.is_commutative(s)
    g = sf.symmetric_group(3)
    for a, b, t in itertools.product(range(6), repeat=3):
        assert s.constants[a, b, t] == (1 if t == g.cayley[a][b] else 0)


def test_partition_scheme_with_trivial_group_is_group_scheme():
    g = sf.symmetric_group(3)
    assert np.array_equal(
        sf.partition_scheme(g, sf.trivial_automorphisms(g)).rel,
        sf.group_scheme(g).rel,
    )


def test_partition_scheme_f3_units():
    s = catalog.catalog_scheme("F3")
    assert s.n == 3 and s.s == 2
    assert sf.to_hypergroup(s) == sf.krasner_hypergroup()


def test_partition_scheme_s3_inn_is_conjugacy_classes():
    s = catalog.catalog_scheme("S3-inn")
    assert s.n == 6 and s.s == 3
    assert sf.is_commutative(s)


def test_partition_scheme_constants_match_counting_formula():
    # nonzero entries match the count of t with a*b*t^-1 in [a], t in [b]
    g = sf.symmetric_group(3)
    p = sf.inner_automorphisms(g)
    s = sf.partition_scheme(g, p)
    orbit_list, orbit_of = sf.orbits(p)
    for pa, qb, rc in itertools.product(range(s.s), repeat=3):
        if rc in sf.complex_mult(s, {pa}, {qb}):
            pair = next(
                (a, b)
                for a in orbit_list[pa] for b in orbit_list[qb]
                if orbit_of[g.cayley[a][b]] == rc
            )
            a, b = pair
            count = sum(
                 1
                 for t in range(g.order)
                 if orbit_of[g.cayley[g.cayley[a][b]][g.inv[t]]] == pa and orbit_of[t] == qb
            )
            assert s.constants[pa, qb, rc] == count
        else:
            assert s.constants[pa, qb, rc] == 0


def test_partition_hypergroup_matches_scheme_route():
    """partition_hypergroup is the class hypergroup of partition_scheme, and
    it equals the orbit products of naive_partition_hypergroup, including
    for scaling orbits of rings and the automorphisms of Z2 x Z2 that swap
    its three involutions."""
    groups = [
        sf.cyclic_group(2), sf.cyclic_group(3), sf.cyclic_group(4),
        sf.cyclic_group(5), sf.cyclic_group(6),
        sf.symmetric_group(3), sf.alternating_group(4), sf.symmetric_group(4),
    ]
    cases = [(g, p) for g in groups for p in [sf.trivial_automorphisms(g), sf.inner_automorphisms(g)]]
    v4 = sf.product_group(sf.cyclic_group(2), sf.cyclic_group(2))
    cases += [(v4, sf.aut_subgroup(v4, [(0, 1, 2, 3), (0, 2, 3, 1), (0, 3, 1, 2)]))]
    for ring in [sf.zmod_ring(7), sf.zmod_ring(8), sf.zmod_ring(9), sf.gf_ring(16)]:
        cases += [(sf.additive_group(ring), sf.scaling_automorphisms(ring, sf.ring_units(ring)))]
    for g, p in cases:
        assert sf.orbits(p) == naive_orbits(p.perms, g.order, g.e), g.order
        h = sf.partition_hypergroup(g, p)
        assert h == sf.to_hypergroup(sf.partition_scheme(g, p)), g.order
        assert (h.table, h.e, h.inv) == naive_partition_hypergroup(g, p), g.order


def test_partition_hypergroup_refuses_another_groups_automorphisms():
    """Automorphisms of Z2 x Z2 or Z5 are refused for Z4 as by partition_scheme,
    where the orbit products would read Z4's table through the wrong orbits."""
    z4 = sf.cyclic_group(4)
    for other in [sf.product_group(sf.cyclic_group(2), sf.cyclic_group(2)), sf.cyclic_group(5)]:
        for build in (sf.partition_scheme, sf.partition_hypergroup):
            with pytest.raises(ValueError, match="automorphism subgroup belongs to a different group"):
                build(z4, sf.trivial_automorphisms(other))


def test_partition_hypergroup_s3_inn_table():
    g = sf.symmetric_group(3)
    h = sf.partition_hypergroup(g, sf.inner_automorphisms(g))
    assert h.m == 3
    assert h.table[1][1] == {0, 2}  # transposition * transposition
    assert h.table[1][2] == {1}
    assert h.table[2][2] == {0, 2}


def test_partition_hypergroup_z5_units_is_krasner():
    r = sf.zmod_ring(5)
    aut = sf.scaling_automorphisms(r, sf.ring_units(r))
    h = sf.partition_hypergroup(sf.additive_group(r), aut)
    assert h == sf.krasner_hypergroup()


def test_campaigne_simplicity_equivalence():
    simple = {"Z2": True, "Z3": True, "Z5": True, "S3": False, "A4": False,
              "Z4": False, "Z6": False}
    builders = {
        "Z2": sf.cyclic_group(2), "Z3": sf.cyclic_group(3), "Z4": sf.cyclic_group(4),
        "Z5": sf.cyclic_group(5), "Z6": sf.cyclic_group(6),
        "S3": sf.symmetric_group(3), "A4": sf.alternating_group(4),
    }
    for name, g in builders.items():
        p = sf.inner_automorphisms(g)
        scheme = sf.partition_scheme(g, p)
        h = sf.partition_hypergroup(g, p)
        primitive = sf.is_primitive(scheme)
        assert primitive == simple[name], name
        assert primitive == (len(sf.sub_hypergroups(h)) == 2), name


# ---------------------------------------------------------------------------
# rings and quotient hyperrings

def test_zmod_and_gf_rings():
    r7 = sf.zmod_ring(7)
    assert sf.ring_units(r7) == tuple(range(1, 7))
    for q in [4, 16, 64]:
        r = sf.gf_ring(q)
        assert len(sf.ring_units(r)) == q - 1  # a field
        assert len(sf.units_of_order_dividing(r, 3)) == 3


def test_additive_group_is_the_one_build_ring_verified():
    for r in [sf.zmod_ring(6), sf.gf_ring(16)]:
        g = sf.additive_group(r)
        assert g is sf.additive_group(r)
        assert g.cayley == r.add and g.e == r.zero


def test_build_ring_rejects_broken_distributivity():
    add = [[(a + b) % 3 for b in range(3)] for a in range(3)]
    mul = [[1 if a and b else 0 for b in range(3)] for a in range(3)]  # not distributive
    with pytest.raises(ValueError):
        sf.build_ring(add, mul)


def test_unit_subgroup_validation():
    r = sf.zmod_ring(7)
    assert sf.unit_subgroup(r, (1, 2, 4)) == (1, 2, 4)
    with pytest.raises(ValueError, match="closed"):
        sf.unit_subgroup(r, (1, 2))
    with pytest.raises(ValueError, match="units"):
        sf.unit_subgroup(sf.zmod_ring(8), (1, 2))


def test_quotient_hyperring_f3_is_krasner_with_f2_multiplication():
    qh = sf.quotient_hyperring(sf.zmod_ring(3), (1, 2))
    assert qh.hypergroup == sf.krasner_hypergroup()
    assert qh.mult == ((0, 0), (0, 1))


def test_quotient_hyperring_f7_sum_of_unit_orbits():
    qh = sf.quotient_hyperring(sf.zmod_ring(7), (1, 2, 4))
    assert qh.orbit_reps == ((0,), (1, 2, 4), (3, 5, 6))
    # oracle: sums g1 + g2 over {1,2,4}^2 modulo 7 land in orbits [1] and [3]
    sums = {(g1 + g2) % 7 for g1 in (1, 2, 4) for g2 in (1, 2, 4)}
    expected = {qh.orbit_of[c] for c in sums}
    assert qh.hypergroup.table[1][1] == expected == {1, 2}


def test_quotient_hyperring_f16_is_k_vector_space():
    r = sf.gf_ring(16)
    qh = sf.quotient_hyperring(r, sf.units_of_order_dividing(r, 3))
    assert qh.hypergroup.m == 6
    for x in range(1, 6):
        assert qh.hypergroup.table[x][x] == {0, x}
    assert sf.is_k_vector_space(qh.hypergroup)


def test_quotient_hyperring_addition_is_partition_hypergroup():
    cases = [
        (sf.zmod_ring(3), (1, 2)),
        (sf.zmod_ring(7), (1, 2, 4)),
        (sf.gf_ring(16), sf.units_of_order_dividing(sf.gf_ring(16), 3)),
        (sf.zmod_ring(9), sf.ring_units(sf.zmod_ring(9))),
        (sf.zmod_ring(5), (1, 4)),
        (sf.gf_ring(4), sf.ring_units(sf.gf_ring(4))),
        (sf.gf_ring(64), sf.units_of_order_dividing(sf.gf_ring(64), 3)),
    ]
    for ring, units in cases:
        qh = sf.quotient_hyperring(ring, units)
        scaling = sf.scaling_automorphisms(ring, units)
        ph = sf.partition_hypergroup(sf.additive_group(ring), scaling)
        assert qh.hypergroup == ph
        assert (ph.table, ph.e, ph.inv) == naive_partition_hypergroup(sf.additive_group(ring), scaling)
        orbit_list, orbit_of = naive_orbits(scaling.perms, ring.order, ring.zero)
        assert sf.orbits(scaling) == (orbit_list, orbit_of)
        assert (qh.orbit_reps, qh.orbit_of) == (tuple(orbit_list), orbit_of)


def test_quotient_hyperring_rejects_non_subgroup():
    with pytest.raises(ValueError):
        sf.quotient_hyperring(sf.zmod_ring(7), (1, 3))


# ---------------------------------------------------------------------------
# Hamming schemes

def test_hamming_1_is_z2_scheme():
    assert np.array_equal(sf.hamming_scheme(1).rel, catalog.catalog_scheme("Z2").rel)


def test_hamming_matches_distance_oracle():
    for n, q in [(2, 2), (3, 2), (4, 2), (3, 3), (2, 4)]:
        s = sf.hamming_scheme(n, q)
        assert s.s == n + 1
        for x, y in itertools.product(range(q ** n), repeat=2):
            assert s.rel[x, y] == hamming_distance(x, y, q)


def test_hamming_3_hypergroup_is_not_a_group():
    h = sf.to_hypergroup(catalog.catalog_scheme("hamming-3"))
    assert h.m == 4
    assert any(len(h.table[a][b]) > 1 for a in range(4) for b in range(4))


def test_hamming_ternary():
    s = sf.hamming_scheme(2, q=3)
    assert s.n == 9 and s.s == 3


def test_hamming_guard():
    with pytest.raises(sf.SizeGuardError):
        sf.hamming_scheme(13)
    with pytest.raises(sf.SizeGuardError):
        sf.hamming_scheme(12, q=3)


# ---------------------------------------------------------------------------
# the flag scheme of the Fano plane

def test_fano_plane_shape():
    n, lines = sf.fano_plane()
    assert n == 7 and len(lines) == 7
    assert all(len(line) == 3 for line in lines)
    for p, q in itertools.combinations(range(7), 2):
        assert sum(1 for line in lines if p in line and q in line) == 1


def test_fano_flag_scheme_shape():
    s = catalog.catalog_scheme("fano-flags")
    assert s.n == 21
    assert s.s == 6
    assert not sf.is_commutative(s)
    assert s.valency[0] == 1 and s.valency[1] == 2 and s.valency[2] == 2
    assert s.valency[3] == 4 and s.valency[4] == 4 and s.valency[5] == 8


def test_fano_classes_3_and_4_are_compositions():
    s = catalog.catalog_scheme("fano-flags")
    a1 = (s.rel == 1).astype(int)
    a2 = (s.rel == 2).astype(int)
    assert np.array_equal((a1 @ a2) > 0, s.rel == 3)
    assert np.array_equal((a2 @ a1) > 0, s.rel == 4)
    # the long class is reached by same-line, same-point, same-line steps
    composed = (a1 @ a2 @ a1) > 0
    assert np.all(composed[s.rel == 5])


# ---------------------------------------------------------------------------
# linearly ordered hypergroups and valuation schemes

def test_linear_hypergroup_two_values_is_krasner():
    assert sf.linear_hypergroup((0, inf)) == sf.krasner_hypergroup()


def test_linear_hypergroup_singleton_chain():
    h = sf.linear_hypergroup((inf,))
    assert h.m == 1


def test_linear_hypergroup_three_values():
    h = sf.linear_hypergroup(("a", "b", inf))
    # elements: 0 = top, 1 = a, 2 = b; a+a covers everything, a+b = {a}
    assert h.table[1][1] == {0, 1, 2}
    assert h.table[1][2] == {1}
    assert h.table[2][2] == {0, 2}


def test_valued_ring_rejects_bad_maps():
    r = sf.zmod_ring(4)
    with pytest.raises(ValueError, match="negation"):
        sf.valued_ring(r, (0, 1, inf), [inf, 0, 0, 1])
    with pytest.raises(ValueError, match="ultrametric"):
        sf.valued_ring(r, (0, 1, inf), [inf, 1, 0, 1])
    with pytest.raises(ValueError, match="surjective"):
        sf.valued_ring(r, (0, 1, inf), [inf, 0, 0, 0])
    with pytest.raises(ValueError, match="zero"):
        sf.valued_ring(r, (0, inf), [inf, 0, inf, 0])


def test_padic_valued_rings():
    z8 = sf.padic_valued_ring(8, 2)
    assert z8.chain == (0, 1, 2, inf)
    assert [z8.value(x) for x in range(8)] == [inf, 0, 1, 0, 2, 0, 1, 0]
    z9 = sf.padic_valued_ring(9, 3)
    assert z9.chain == (0, 1, inf)
    with pytest.raises(ValueError):
        sf.padic_valued_ring(6, 2)


def test_padic_valued_ring_rejects_bad_base_and_order():
    # without the guard, (5, 1) and (0, 2) never leave the power-of-p loop and (4, 0) divides by zero
    for n, p in [(5, 1), (0, 2), (4, 0), (-8, 2), (9, -3)]:
        with pytest.raises(ValueError, match="p >= 2 and n >= 1"):
            sf.padic_valued_ring(n, p)
    with pytest.raises(ValueError, match="not a positive power"):
        sf.padic_valued_ring(1, 2)


def test_triangle_condition_z9_and_f5():
    assert sf.check_triangle_condition(sf.padic_valued_ring(9, 3)).ok
    assert sf.check_triangle_condition(sf.trivial_valued_ring(sf.zmod_ring(5))).ok


def test_triangle_condition_fails_on_z8():
    # binary residue field: two elements of exact value r sum to a strictly
    # larger value, so no equilateral triangles exist at any finite value
    report = sf.check_triangle_condition(sf.padic_valued_ring(8, 2))
    assert not report.ok
    assert report.violations[0].axiom == "triangle_empty"
    label, (a, b) = report.violations[0].witness
    v = sf.padic_valued_ring(8, 2)
    assert v.value((a - b) % 8) == label
    ys = [y for y in range(8)
          if v.value((a - y) % 8) == label and v.value((y - b) % 8) == label]
    assert ys == []


def test_valuation_scheme_z9():
    v = sf.padic_valued_ring(9, 3)
    s = sf.valuation_scheme(v)
    assert s.n == 9 and s.s == 3
    assert sf.to_hypergroup(s) == sf.linear_hypergroup((0, 1, inf))


def test_valuation_scheme_f5_trivial_realizes_krasner():
    s = sf.valuation_scheme(sf.trivial_valued_ring(sf.zmod_ring(5)))
    assert s.n == 5 and s.s == 2
    assert sf.to_hypergroup(s) == sf.krasner_hypergroup()


def test_valuation_scheme_z8_refused_but_partition_is_a_scheme():
    v = sf.padic_valued_ring(8, 2)
    with pytest.raises(sf.TriangleConditionError):
        sf.valuation_scheme(v)
    s = catalog.catalog_scheme("Z8-2adic")
    assert s.n == 8 and s.s == 4
    assert np.array_equal(s.rel, sf.valuation_relation(v))
    h = sf.to_hypergroup(s)
    # the diagonal cells skip their own value: strictly coarser values only
    assert h.table[1][1] == {0, 2, 3}
    assert h.table[2][2] == {0, 3}
    assert h.table[3][3] == {0}
    assert h != sf.linear_hypergroup(v.chain)
    assert sf.hypergroup_isomorphic(h, sf.linear_hypergroup(v.chain)) is None


def _five_case_signs(scheme, chain_length):
    """Sort every class triple of a valuation scheme into the five value cases
    and record whether the constant is nonzero.  Class 0 is the top value."""

    def value_rank(cls):
        # class 0 (equal pairs) is the largest value; others ascend with index
        return chain_length if cls == 0 else cls

    results = []
    for p, q, r in itertools.product(range(scheme.s), repeat=3):
        vp, vq, vr = value_rank(p), value_rank(q), value_rank(r)
        nz = bool(scheme.constants[p, q, r])
        if vp == vq == vr:
            case = 2
        elif len({vp, vq, vr}) == 3:
            case = 1
        elif vp == vq:
            case = 3 if vr < vp else 4
        elif (vr == vp and vp > vq) or (vr == vq and vq > vp):
            case = 5
        else:
            case = 6  # r = min(p, q) with p != q: the min-rule support
        results.append((case, (p, q, r), nz))
    return results


def test_valuation_five_cases_z9_f5():
    for v in [sf.padic_valued_ring(9, 3), sf.trivial_valued_ring(sf.zmod_ring(5))]:
        s = sf.valuation_scheme(v)
        for case, triple, nz in _five_case_signs(s, len(v.chain)):
            if case in (1, 3, 5):
                assert not nz, (case, triple)
            else:
                assert nz, (case, triple)


def test_valuation_cases_z8_honest_behaviour():
    # the scheme exists, and four of the five sign cases hold; the equilateral
    # case collapses to zero at every finite value because the residue field
    # has two elements (class 0, equal pairs, keeps its trivial third point)
    s = catalog.catalog_scheme("Z8-2adic")
    chain_length = 4
    for case, triple, nz in _five_case_signs(s, chain_length):
        if case == 2:
            assert nz == (triple[0] == 0), triple
        elif case in (1, 3, 5):
            assert not nz, triple
        else:
            assert nz, triple


def test_valuation_min_rule_z9():
    v = sf.padic_valued_ring(9, 3)
    s = sf.valuation_scheme(v)
    assert sf.complex_mult(s, {1}, {2}) == {1}
    assert sf.complex_mult(s, {1}, {1}) == {0, 1, 2}
    assert sf.complex_mult(s, {2}, {2}) == {0, 2}


# ---------------------------------------------------------------------------
# vector-space hypergroups and geometries

def test_is_k_vector_space():
    assert sf.is_k_vector_space(sf.krasner_hypergroup())
    assert not sf.is_k_vector_space(sf.group_hypergroup(sf.cyclic_group(2)))
    with pytest.raises(ValueError, match="commutative"):
        sf.is_k_vector_space(sf.group_hypergroup(sf.symmetric_group(3)))


def test_geometry_from_krasner_is_degenerate_point():
    geom = sf.geometry_from_hypergroup(sf.krasner_hypergroup())
    assert geom.n_points == 1
    assert geom.lines == ()
    assert geom.degenerate


def test_geometry_from_f16_is_projective_line():
    r = sf.gf_ring(16)
    qh = sf.quotient_hyperring(r, sf.units_of_order_dividing(r, 3))
    geom = sf.geometry_from_hypergroup(qh.hypergroup)
    assert geom.n_points == 5
    assert len(geom.lines) == 1
    assert len(geom.lines[0]) == 5
    assert geom.degenerate


def test_geometry_from_f64_is_pg_2_4():
    r = sf.gf_ring(64)
    qh = sf.quotient_hyperring(r, sf.units_of_order_dividing(r, 3))
    geom = sf.geometry_from_hypergroup(qh.hypergroup)
    assert geom.n_points == 21
    assert len(geom.lines) == 21
    assert all(len(line) == 5 for line in geom.lines)
    assert not geom.degenerate
    assert sf.check_geometry(geom.n_points, geom.lines) == []


def test_product_of_krasner_is_not_a_vector_space_hypergroup():
    # (1,1) + (1,1) covers all four pairs, not just the identity and itself
    k = sf.krasner_hypergroup()
    square = sf.product_hypergroup(k, k)
    assert square.table[3][3] == {0, 1, 2, 3}
    assert not sf.is_k_vector_space(square)


def test_check_geometry_detects_violations():
    assert sf.check_geometry(3, [(0, 1)]) [0].axiom == "line_size"
    assert [v.axiom for v in sf.check_geometry(3, [(0.0, 1.0, 2.0), (0, 1, 2.5)])] == ["line_points"] * 2
    assert any(
        v.axiom == "pair_multicovered"
        for v in sf.check_geometry(4, [(0, 1, 2), (0, 1, 3)])
    )
    assert any(
        v.axiom == "pair_uncovered" for v in sf.check_geometry(4, [(0, 1, 2)])
    )


def test_check_geometry_veblen_young_fails_on_affine_plane():
    # AG(2,3): 9 points, 12 lines of 3; parallel lines break the triangle axiom
    lines = []
    for c in range(3):
        lines.append(tuple(3 * c + y for y in range(3)))          # x = c
        lines.append(tuple(3 * x + c for x in range(3)))          # y = c
    for slope in (1, 2):
        for c in range(3):
            lines.append(tuple(3 * x + (slope * x + c) % 3 for x in range(3)))
    bad = sf.check_geometry(9, lines)
    assert bad
    assert all(v.axiom == "veblen_young" for v in bad)


def projective_lines(d: int, q: int) -> tuple[int, list[tuple[int, ...]]]:
    """PG(d, q) for a prime q: the points are the vectors of F_q^(d+1) whose
    first nonzero coordinate is 1, in lexicographic order, and the line
    through a and b holds a and the points of b + t*a."""
    points = [v for v in itertools.product(range(q), repeat=d + 1) if any(v) and v[np.flatnonzero(v)[0]] == 1]
    index = {v: i for i, v in enumerate(points)}

    def point(v):
        lead = next(x for x in v if x)
        return index[tuple(x * pow(lead, -1, q) % q for x in v)]

    lines, covered = set(), set()
    for a, b in itertools.combinations(points, 2):
        if (index[a], index[b]) not in covered:
            line = tuple(sorted({index[a]} | {point([(y + t * x) % q for x, y in zip(a, b)]) for t in range(q)}))
            lines.add(line)
            covered |= set(itertools.combinations(line, 2))
    return len(points), sorted(lines)


def affine_lines(q: int) -> tuple[int, list[tuple[int, ...]]]:
    """AG(2, q) for a prime q, the point (x, y) numbered q*x + y."""
    lines = [tuple(q * c + y for y in range(q)) for c in range(q)]
    lines += [tuple(q * x + (slope * x + c) % q for x in range(q)) for slope in range(q) for c in range(q)]
    return q * q, lines


def hyperring_geometry(q: int) -> tuple[int, list[tuple[int, ...]]]:
    r = sf.gf_ring(q)
    geom = sf.geometry_from_hypergroup(sf.quotient_hyperring(r, sf.units_of_order_dividing(r, 3)).hypergroup)
    return geom.n_points, list(geom.lines)


def perturbed(n, lines, rng):
    """Six copies of a geometry with its points relabelled: with one point
    deleted, with three deleted, with a line dropped, with a line repeated,
    with a point added to a line, and with two lines sharing a point more."""
    relabel = rng.permutation(n)
    lines = [tuple(sorted(int(relabel[p]) for p in line)) for line in lines]
    out = []
    for k in (1, 3):
        gone = set(rng.choice(n, k, replace=False).tolist())
        keep = {p: i for i, p in enumerate(sorted(set(range(n)) - gone))}
        out.append((n - k, [tuple(keep[p] for p in line if p in keep) for line in lines]))
    i, j = rng.integers(len(lines), size=2).tolist()
    out.append((n, lines[:i] + lines[i + 1:]))
    out.append((n, lines + [lines[i]]))
    grown = list(lines)
    grown[i] = tuple(sorted(set(lines[i]) | {next(p for p in range(n + 1) if p not in lines[i])}))
    out.append((n, grown))
    grown = list(grown)
    grown[j] = tuple(sorted(set(lines[j]) | {lines[i][0]}))
    out.append((n, grown))
    return out


@functools.cache
def geometry_cases():
    """(n_points, lines, naive_check_geometry's answer) on projective spaces,
    affine planes and a near-pencil, 54 perturbed copies of them and 300
    random line sets; the loops run once however many tests read them."""
    rng = np.random.default_rng(29)
    spaces = [sf.fano_plane(), projective_lines(3, 2), hyperring_geometry(16), hyperring_geometry(64),
              projective_lines(2, 3), projective_lines(2, 5), projective_lines(3, 3), projective_lines(2, 7),
              affine_lines(3)]
    cases = spaces + [affine_lines(5), (6, [(0, 1, 2, 3, 4)] + [(5, p) for p in range(5)])]
    for n, lines in spaces:
        cases += perturbed(n, lines, rng)
    for _ in range(300):
        n = int(rng.integers(3, 10))
        cases.append((n, [tuple(rng.choice(n + 1, int(rng.integers(2, min(6, n + 2))), replace=False).tolist())
                          for _ in range(int(rng.integers(1, 13)))]))
    return [(n, lines, naive_check_geometry(n, lines)) for n, lines in cases]


@pytest.mark.parametrize("block", [None, (1 << 16, 1)], ids=["default-block", "one-point-block"])
def test_geometry_check_matches_the_triple_loop(block, monkeypatch):
    """check_geometry names the same witnesses, in the same order, as the
    loops it replaced, on every case of geometry_cases.  With one point a
    block, the Veblen-Young scan of a valid space spans every block, and
    that of a broken one stops at 10 witnesses."""
    if block is not None:
        monkeypatch.setattr(hypergroup, "_BLOCK_BYTES", block)
    axioms = set()
    for n, lines, want in geometry_cases():
        assert [(v.axiom, v.witness) for v in sf.check_geometry(n, lines)] == want, (n, lines)
        axioms |= {axiom for axiom, _ in want}
    assert axioms == {"line_points", "line_size", "duplicate_line", "pair_multicovered", "pair_uncovered",
                      "veblen_young"}
    vy = [want for _, _, want in geometry_cases() if want and want[0][0] == "veblen_young"]
    assert len(vy) >= 10 and all(len(want) == 10 for want in vy)
    assert sum(n >= 3 and not want for n, _, want in geometry_cases()) >= 9


def test_geometry_check_refuses_above_its_point_bound():
    """64 points on one line pass and 65 are refused before anything is built,
    as is a file of 3,000 points and no lines (whose pair loop would list
    4,498,500 uncovered pairs)."""
    assert sf.check_geometry(64, [tuple(range(64))]) == []
    with pytest.raises(sf.SizeGuardError, match="65 points exceeds 64"):
        sf.check_geometry(65, [tuple(range(65))])
    with pytest.raises(sf.SizeGuardError, match="3000 points exceeds 64"):
        io.load_geometry('{"points": 3000, "lines": []}')


def test_geometry_check_refuses_a_negative_point_count():
    """A negative point count is a ValueError, also from verified_geometry and
    load_geometry, not a degenerate geometry."""
    for check in (sf.check_geometry, constructions.verified_geometry):
        with pytest.raises(ValueError, match="nonnegative"):
            check(-5, [])
    with pytest.raises(ValueError, match="nonnegative"):
        io.load_geometry('{"points": -5, "lines": []}')


def test_pg_5_2_passes_at_the_point_bound():
    """PG(5, 2), the nonzero vectors of F_2^6 with the lines {a, b, a xor b},
    has 63 points on 651 lines and passes."""
    lines = sorted({tuple(sorted((a - 1, b - 1, (a ^ b) - 1))) for a, b in itertools.combinations(range(1, 64), 2)})
    assert len(lines) == 651
    assert sf.check_geometry(63, lines) == []


def test_geometry_from_hypergroup_meets_the_point_bound():
    """The projective line on k points as a hypergroup (x + y the other points,
    x + x = {0, x}): 64 points give one line, and 65 are refused by
    check_geometry's bound."""
    for k in (64, 65):
        points = set(range(1, k + 1))
        table = [[{y} if x == 0 else {x} if y == 0 else {0, x} if x == y else points - {x, y}
                  for y in range(k + 1)] for x in range(k + 1)]
        h = sf.require(sf.build_hypergroup(table, 0, list(range(k + 1))))
        if k == 64:
            assert sf.geometry_from_hypergroup(h).lines == (tuple(range(64)),)
        else:
            with pytest.raises(sf.SizeGuardError, match="65 points exceeds 64"):
                sf.geometry_from_hypergroup(h)


def test_collinearity_matches_complex_multiplication_f64():
    r = sf.gf_ring(64)
    units = sf.units_of_order_dividing(r, 3)
    qh = sf.quotient_hyperring(r, units)
    geom = sf.geometry_from_hypergroup(qh.hypergroup)
    scheme = catalog.catalog_scheme("F64/F4")
    h = sf.to_hypergroup(scheme)
    on_line = {
        (p, q): set(line)
        for line in geom.lines
        for p, q in itertools.permutations(line, 2)
    }
    for p, q, rr in itertools.permutations(range(geom.n_points), 3):
        collinear = rr in on_line.get((p, q), set())
        # geometry points are hypergroup elements shifted past the identity
        algebraic = (rr + 1) in h.table[p + 1][q + 1]
        assert collinear == algebraic, (p, q, rr)
