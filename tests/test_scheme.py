import itertools

import numpy as np
import pytest

import schemeforge as sf
from schemeforge import catalog
from schemeforge import scheme as scheme_module

from helpers import naive_complex_mult, naive_constants


def z_mod_rel(n):
    return [[(a - b) % n for b in range(n)] for a in range(n)]


# ---------------------------------------------------------------------------
# build_scheme

def test_build_z3_group_scheme():
    s = sf.build_scheme(3, z_mod_rel(3))
    assert isinstance(s, sf.AssociationScheme)
    assert s.s == 3
    for p, q, r in itertools.product(range(3), repeat=3):
        assert s.constants[p, q, r] == (1 if r == (p + q) % 3 else 0)


def test_build_singleton():
    s = sf.build_scheme(1, [[0]])
    assert isinstance(s, sf.AssociationScheme)
    assert s.s == 1
    assert s.constants[0, 0, 0] == 1
    assert s.valency == (1,)


def test_build_star_violation():
    # transpose of class 1 falls in two different classes
    rel = [[0, 1, 1], [2, 0, 1], [1, 2, 0]]
    report = sf.build_scheme(3, rel)
    assert isinstance(report, sf.SchemeReport)
    assert not report.valid
    assert report.violations[0].axiom == "star"


def test_build_reports_shape_and_classes_and_diagonal():
    bad = sf.build_scheme(2, [[0, 1, 1], [1, 0, 0]])
    assert isinstance(bad, sf.SchemeReport) and bad.violations[0].axiom == "shape"

    gap = sf.build_scheme(2, [[0, 2], [2, 0]])  # class 1 missing
    assert isinstance(gap, sf.SchemeReport) and gap.violations[0].axiom == "classes"

    diag = sf.build_scheme(2, [[1, 0], [0, 1]])
    assert isinstance(diag, sf.SchemeReport) and diag.violations[0].axiom == "diagonal"


def test_build_refuses_an_empty_matrix_by_its_shape():
    """No point means no diagonal class: a 0 x 0 matrix, of any integer
    dtype, is refused as a shape like an empty list, before any pass."""
    for rel in ([], np.zeros((0, 0), int), np.zeros((0, 0), np.int8)):
        report = sf.build_scheme(0, rel)
        assert isinstance(report, sf.Report)
        assert [(v.axiom, v.witness) for v in report.violations] == [("shape", (0, np.shape(rel)))]


def test_build_constants_violation_has_five_part_witness():
    # edges of the path 0-1-2-3 versus non-edges: symmetric classes, but the
    # vertex degrees differ, so the counts cannot be constant on the diagonal
    rel = [
        [0, 1, 2, 2],
        [1, 0, 1, 2],
        [2, 1, 0, 1],
        [2, 2, 1, 0],
    ]
    report = sf.build_scheme(4, rel)
    assert isinstance(report, sf.SchemeReport)
    assert report.violations[0].axiom == "constants"
    assert len(report.violations[0].witness) == 5


def test_constants_match_naive_oracle_on_catalog_samples():
    for name in ["Z4", "S3", "S3-inn", "hamming-2", "Z9-3adic"]:
        s = catalog.catalog_scheme(name)
        oracle = naive_constants(s.rel.tolist(), s.s)
        for (p, q, r), v in oracle.items():
            assert s.constants[p, q, r] == v, (name, p, q, r)


def test_identity_class_constants():
    for name in ["Z6", "fano-flags", "F7"]:
        s = catalog.catalog_scheme(name)
        for q, r in itertools.product(range(s.s), repeat=2):
            assert s.constants[0, q, r] == (1 if q == r else 0)


def test_star_is_involution_with_fixed_zero():
    for name in catalog.scheme_names():
        s = catalog.catalog_scheme(name)
        assert s.star[0] == 0
        for p in range(s.s):
            assert s.star[s.star[p]] == p


# ---------------------------------------------------------------------------
# complex multiplication

def test_complex_mult_group_scheme():
    s = catalog.catalog_scheme("Z3")
    assert sf.complex_mult(s, {1}, {1}) == {2}


def test_complex_mult_identity_class():
    s = catalog.catalog_scheme("S3")
    for q in range(s.s):
        assert sf.complex_mult(s, {0}, {q}) == {q}


def test_complex_mult_hamming_midpoints():
    # oracle: count midpoints on the 2-cube directly
    points = [(0, 0), (0, 1), (1, 0), (1, 1)]

    def dist(a, b):
        return sum(x != y for x, y in zip(a, b))

    reachable = set()
    for y, z in itertools.product(points, repeat=2):
        if any(dist(y, x) == 1 and dist(x, z) == 1 for x in points):
            reachable.add(dist(y, z))
    s = catalog.catalog_scheme("hamming-2")
    assert sf.complex_mult(s, {1}, {1}) == reachable == {0, 2}


def test_complex_mult_rejects_empty():
    s = catalog.catalog_scheme("Z2")
    with pytest.raises(ValueError):
        sf.complex_mult(s, set(), {0})


def test_complex_mult_agrees_with_naive():
    s = catalog.catalog_scheme("F7")
    oracle = naive_constants(s.rel.tolist(), s.s)
    for pset, qset in [({1}, {1}), ({1, 2}, {2}), ({0, 1}, {1, 2})]:
        assert sf.complex_mult(s, pset, qset) == naive_complex_mult(oracle, s.s, pset, qset)


# ---------------------------------------------------------------------------
# commutativity, closed subsets, primitivity, normality

def test_is_commutative():
    assert sf.is_commutative(catalog.catalog_scheme("Z3"))
    assert not sf.is_commutative(catalog.catalog_scheme("fano-flags"))
    assert sf.is_commutative(catalog.catalog_scheme("S3-inn"))
    assert not sf.is_commutative(catalog.catalog_scheme("S3"))


def test_closed_subsets_z4_matches_subgroup_lattice():
    # oracle: subgroups of Z/4, mapped through the one-class-per-element scheme
    subgroups = []
    for k in range(1, 5):
        for combo in itertools.combinations(range(1, 4), k - 1):
            cand = {0} | set(combo)
            if all((a + b) % 4 in cand for a in cand for b in cand):
                subgroups.append(frozenset(cand))
    s = catalog.catalog_scheme("Z4")
    assert sorted(sf.closed_subsets(s), key=sorted) == sorted(set(subgroups), key=sorted)
    assert len(sf.closed_subsets(s)) == 3


def test_closed_subsets_singleton():
    s = sf.build_scheme(1, [[0]])
    assert sf.closed_subsets(s) == [frozenset({0})]


def test_closed_subsets_s3_inn():
    s = catalog.catalog_scheme("S3-inn")
    assert sf.closed_subsets(s) == [
        frozenset({0}), frozenset({0, 1, 2}), frozenset({0, 2})
    ]


def test_closed_subsets_lexicographic_order():
    s = catalog.catalog_scheme("Z6")
    subsets = [tuple(sorted(t)) for t in sf.closed_subsets(s)]
    assert subsets == sorted(subsets)


def test_closed_subsets_size_guard():
    s = catalog.catalog_scheme("Z2")
    big = sf.group_scheme(sf.cyclic_group(26))
    with pytest.raises(sf.SizeGuardError, match="25"):
        sf.closed_subsets(big)
    assert sf.closed_subsets(s)  # small input unaffected


def test_is_primitive():
    assert sf.is_primitive(catalog.catalog_scheme("Z5"))
    assert not sf.is_primitive(catalog.catalog_scheme("S3-inn"))
    assert sf.is_primitive(sf.build_scheme(1, [[0]]))


def test_primitive_iff_two_closed_subsets():
    for name in ["Z2", "Z3", "Z4", "Z5", "Z6", "S3", "S3-inn", "hamming-2", "F7"]:
        s = catalog.catalog_scheme(name)
        if s.s >= 2:
            assert sf.is_primitive(s) == (len(sf.closed_subsets(s)) == 2)


def test_is_normal_closed():
    z3 = catalog.catalog_scheme("Z3")
    # {0} in a one-class-per-element scheme: star(p)*0*p collapses back to {0}
    assert sf.is_normal_closed(z3, {0}) == (True, True)
    assert sf.is_normal_closed(z3, {0, 1, 2}) == (True, True)
    s3inn = catalog.catalog_scheme("S3-inn")
    assert sf.is_normal_closed(s3inn, {0, 2}) == (True, True)


def test_is_normal_closed_non_normal_case():
    s3 = catalog.catalog_scheme("S3")
    g = sf.symmetric_group(3)
    # subgroup generated by one transposition is closed but not normal in S3
    t = next(x for x in range(6) if g.cayley[x][x] == 0 and x != 0)
    tset = {0, t}
    assert sf.is_closed(s3, tset)
    normal, strongly = sf.is_normal_closed(s3, tset)
    assert not normal
    assert not strongly


def test_is_normal_closed_rejects_non_closed():
    z4 = catalog.catalog_scheme("Z4")
    with pytest.raises(ValueError) as info:
        sf.is_normal_closed(z4, {0, 1})
    assert str(info.value) == "class set [0, 1] is not closed"


def test_is_normal_closed_checks_closedness_once(monkeypatch):
    # the coset pass of is_normal_sub checks it; nothing in the scheme layer again
    calls = []

    def counted(h, kset, check=sf.is_sub_hypergroup):
        calls.append(sorted(kset))
        return check(h, kset)

    monkeypatch.setattr("schemeforge.hypergroup.is_sub_hypergroup", counted)
    monkeypatch.setattr("schemeforge.scheme.is_sub_hypergroup", counted)
    z4 = catalog.catalog_scheme("Z4")
    assert sf.is_normal_closed(z4, {0, 2}) == (True, True)
    assert calls == [[0, 2]]


def test_double_cosets_rejects_non_closed():
    # without the check, Z3 with N = {1} raised KeyError: -1, and S3 with
    # N = {1, 3} returned a partition into "double cosets" of a non-subgroup
    z3 = sf.group_scheme(sf.cyclic_group(3))
    s3 = catalog.catalog_scheme("S3")
    assert not sf.is_commutative(s3)
    for scheme, nset, text in [(z3, {1}, "[1]"), (s3, {1, 3}, "[1, 3]"), (s3, {0, 3}, "[0, 3]")]:
        assert not sf.is_closed(scheme, nset)
        with pytest.raises(ValueError) as info:
            sf.double_cosets(scheme, nset)
        assert str(info.value) == f"class set {text} is not closed"


def test_double_cosets_overlap_check_names_pairs(monkeypatch):
    """The double cosets of a closed subset always partition the classes, so
    the overlap check is reached only through a coset pass made to lie: with
    NpN = {0, 1}, {1, 2}, {2} on Z3 it names (p, r) where r lies in NpN but
    not in p's part by smallest class, or the reverse, in row-major order."""
    z3 = sf.group_scheme(sf.cyclic_group(3))
    monkeypatch.setattr(scheme_module, "_cosets", lambda h, nset: (1, [3, 6, 4], [3, 6, 4]))
    for call in (sf.double_cosets, sf.quotient_scheme):
        with pytest.raises(sf.VerificationError, match="double cosets overlap") as info:
            call(z3, {0, 1})
        assert info.value.violations == (sf.Violation("double_cosets", (0, 1)), sf.Violation("double_cosets", (1, 2)))


# ---------------------------------------------------------------------------
# restriction

def test_restrict_z4_to_order_two_subgroup():
    z4 = catalog.catalog_scheme("Z4")
    r = sf.restrict_scheme(z4, {0, 2}, 0)
    assert r.n == 2 and r.s == 2
    assert np.array_equal(r.rel, [[0, 1], [1, 0]])


def test_restrict_to_diagonal_class():
    s = catalog.catalog_scheme("S3")
    r = sf.restrict_scheme(s, {0}, 4)
    assert r.n == 1 and r.s == 1


def test_restrict_s3_inn_a3():
    s = catalog.catalog_scheme("S3-inn")
    r = sf.restrict_scheme(s, {0, 2}, 0)
    assert r.n == 3 and r.s == 2


def test_restrict_preserves_constants():
    s = catalog.catalog_scheme("S3-inn")
    tset = {0, 2}
    r = sf.restrict_scheme(s, tset, 0)
    classes = sorted(tset)
    for pi, p in enumerate(classes):
        for qi, q in enumerate(classes):
            for ri, rr in enumerate(classes):
                assert r.constants[pi, qi, ri] == s.constants[p, q, rr]


# ---------------------------------------------------------------------------
# products

def test_product_z2_z2_is_klein_scheme():
    z2 = catalog.catalog_scheme("Z2")
    prod = sf.product_scheme(z2, z2)
    klein = sf.group_scheme(sf.product_group(sf.cyclic_group(2), sf.cyclic_group(2)))
    assert prod.n == 4 and prod.s == 4
    assert np.array_equal(prod.rel, klein.rel)


def test_product_with_singleton_is_isomorphic():
    s = catalog.catalog_scheme("S3-inn")
    one = sf.build_scheme(1, [[0]])
    prod = sf.product_scheme(s, one)
    assert np.array_equal(prod.rel, s.rel)  # the chosen indexing makes it literal
    assert sf.scheme_isomorphic(prod, s) is not None


def test_product_constants_factor():
    s1 = catalog.catalog_scheme("S3-inn")
    s2 = catalog.catalog_scheme("Z3")
    prod = sf.product_scheme(s1, s2)
    for p1, p2, q1, q2, r1, r2 in itertools.product(
        range(s1.s), range(s2.s), range(s1.s), range(s2.s), range(s1.s), range(s2.s)
    ):
        lhs = prod.constants[p1 * s2.s + p2, q1 * s2.s + q2, r1 * s2.s + r2]
        assert lhs == s1.constants[p1, q1, r1] * s2.constants[p2, q2, r2]


def test_product_hamming_fusion():
    h1 = catalog.catalog_scheme("hamming-2")
    z2 = sf.hamming_scheme(1)
    prod = sf.product_scheme(z2, z2)
    # fusing product classes by coordinate distance sum gives the 2-cube scheme
    fused = np.zeros_like(prod.rel)
    for x in range(4):
        for y in range(4):
            p1, p2 = divmod(prod.rel[x, y], 2)
            fused[x, y] = p1 + p2
    assert np.array_equal(fused, h1.rel)


# ---------------------------------------------------------------------------
# quotients

def test_quotient_z4_by_half():
    z4 = catalog.catalog_scheme("Z4")
    q = sf.quotient_scheme(z4, {0, 2})
    assert q.n == 2 and q.s == 2
    assert np.array_equal(q.rel, [[0, 1], [1, 0]])


def test_quotient_by_diagonal_is_identity():
    s = catalog.catalog_scheme("S3-inn")
    q = sf.quotient_scheme(s, {0})
    assert np.array_equal(q.rel, s.rel)


def test_quotient_s3_inn_by_a3():
    s = catalog.catalog_scheme("S3-inn")
    q = sf.quotient_scheme(s, {0, 2})
    assert q.n == 2 and q.s == 2


def test_quotient_valency_identity():
    for name, nset in [("Z4", {0, 2}), ("S3-inn", {0, 2}), ("Z6", {0, 3})]:
        s = catalog.catalog_scheme(name)
        cosets, coset_of = sf.double_cosets(s, nset)
        q = sf.quotient_scheme(s, nset)
        n_n = sum(s.valency[r] for r in nset)
        for p, qq, r in itertools.product(range(s.s), repeat=3):
            lhs = q.constants[coset_of[p], coset_of[qq], coset_of[r]] * n_n
            rhs = sum(
                s.constants[u, v, r]
                for u in cosets[coset_of[p]]
                for v in cosets[coset_of[qq]]
            )
            assert lhs == rhs, (name, p, qq, r)


def test_quotient_requires_normal():
    s3 = catalog.catalog_scheme("S3")
    g = sf.symmetric_group(3)
    t = next(x for x in range(6) if g.cayley[x][x] == 0 and x != 0)
    with pytest.raises(ValueError, match="not normal"):
        sf.quotient_scheme(s3, {0, t})


def test_quotient_block_order_deterministic():
    s = catalog.catalog_scheme("Z6")
    blocks, block_of = sf.quotient_blocks(s, {0, 3})
    assert blocks == [(0, 3), (1, 4), (2, 5)]
    assert block_of == (0, 1, 2, 0, 1, 2)


# ---------------------------------------------------------------------------
# counting identity and isomorphism

def test_counting_identity_all_catalog():
    for name in catalog.scheme_names():
        s = catalog.catalog_scheme(name)
        nr = np.array(s.valency)
        assert np.array_equal(s.constants @ nr, np.outer(nr, nr)), name


def test_scheme_isomorphic_detects_relabeling():
    z3 = catalog.catalog_scheme("Z3")
    perm = [2, 0, 1]
    rel = np.zeros((3, 3), dtype=int)
    for x in range(3):
        for y in range(3):
            rel[perm[x], perm[y]] = z3.rel[x, y]
    other = sf.build_scheme(3, rel)
    found = sf.scheme_isomorphic(z3, other)
    assert found is not None
    pmap, cmap = found
    for x in range(3):
        for y in range(3):
            assert other.rel[pmap[x], pmap[y]] == cmap[z3.rel[x, y]]


def test_scheme_isomorphic_negative():
    z4 = catalog.catalog_scheme("Z4")
    klein = sf.group_scheme(sf.product_group(sf.cyclic_group(2), sf.cyclic_group(2)))
    assert sf.scheme_isomorphic(z4, klein) is None
    assert sf.scheme_isomorphic(z4, catalog.catalog_scheme("Z3")) is None
