import tracemalloc

import numpy as np
import pytest

import schemeforge as sf
from schemeforge import catalog, realize

from helpers import naive_admissible


# ---------------------------------------------------------------------------
# the class hypergroup

def test_to_hypergroup_of_group_scheme_is_the_group():
    g = sf.cyclic_group(5)
    h = sf.to_hypergroup(sf.group_scheme(g))
    assert h == sf.group_hypergroup(g)


def test_to_hypergroup_hamming2():
    h = sf.to_hypergroup(catalog.catalog_scheme("hamming-2"))
    assert h.table[1][1] == {0, 2}
    assert h.table[1][2] == {1}
    assert h.table[2][2] == {0}


def test_to_hypergroup_f3_units_is_krasner():
    h = sf.to_hypergroup(catalog.catalog_scheme("F3"))
    assert h == sf.krasner_hypergroup()


def test_to_hypergroup_passes_axioms_everywhere():
    for name in catalog.scheme_names():
        h = sf.to_hypergroup(catalog.catalog_scheme(name))
        assert isinstance(sf.build_hypergroup(h.table, h.e, h.inv), sf.Hypergroup), name


def test_closed_subsets_biject_with_sub_hypergroups():
    for name in ["Z4", "Z6", "S3", "S3-inn", "hamming-2", "F7"]:
        s = catalog.catalog_scheme(name)
        h = sf.to_hypergroup(s)
        assert sf.closed_subsets(s) == sf.sub_hypergroups(h), name


def test_normal_closed_maps_to_normal_sub():
    for name, tset in [("S3-inn", {0, 2}), ("Z6", {0, 3}), ("S3", {0, 3, 4})]:
        s = catalog.catalog_scheme(name)
        h = sf.to_hypergroup(s)
        assert sf.is_normal_closed(s, tset) == sf.is_normal_sub(h, tset), name


# ---------------------------------------------------------------------------
# morphisms

def test_identity_morphism():
    s = catalog.catalog_scheme("S3-inn")
    report = sf.check_morphism(sf.identity_morphism(s))
    assert report.morphism and report.admissible


def test_quotient_projection_is_admissible_morphism():
    z4 = catalog.catalog_scheme("Z4")
    morph, quo = sf.quotient_projection(z4, {0, 2})
    report = sf.check_morphism(morph)
    assert report.morphism and report.admissible
    assert quo.n == 2


def test_constant_map_to_singleton_is_admissible():
    z2 = catalog.catalog_scheme("Z2")
    one = sf.build_scheme(1, [[0]])
    morph = sf.SchemeMorphism(z2, one, (0, 0), (0, 0))
    report = sf.check_morphism(morph)
    assert report.morphism and report.admissible


def test_wrong_class_map_is_not_a_morphism():
    z2 = catalog.catalog_scheme("Z2")
    morph = sf.SchemeMorphism(z2, z2, (0, 0), (0, 1))
    report = sf.check_morphism(morph)
    assert not report.morphism
    assert report.violations and report.violations[0].axiom == "morphism"


def test_non_admissible_inclusion():
    # embed Z2 as one edge of the 2-cube: structure is preserved, but distance-1
    # pairs leaving the edge never lift (the image is not a closed subset)
    z2 = catalog.catalog_scheme("Z2")
    cube = catalog.catalog_scheme("hamming-2")
    morph = sf.SchemeMorphism(z2, cube, (0, 1), (0, 1))
    report = sf.check_morphism(morph)
    assert report.morphism
    assert not report.admissible
    assert report.violations[0].axiom == "admissible"


@pytest.mark.parametrize("block", [None, (1, 1)], ids=["default-block", "one-point-block"])
def test_admissibility_matches_the_definition(block, monkeypatch):
    """check_morphism's admissibility witnesses equal naive_admissible's loop
    over points on every catalog scheme: its identity, an isomorphism onto a
    seeded relabelling, the fusion into the complete scheme on its points, a
    seeded random injection into the complete scheme on two more points (more
    than 25 witnesses on the larger schemes), its quotient projections and,
    up to 21 points, its product projections with Z2.  With one source point
    a block, the witnesses span blocks and the pass stops at the cap."""
    if block is not None:
        monkeypatch.setattr(realize, "_BLOCK_BYTES", block)
    rng = np.random.default_rng(24)
    z2 = catalog.catalog_scheme("Z2")

    def complete(m):
        return sf.require(sf.build_scheme(m, 1 - np.eye(m, dtype=np.int64)))

    for name in catalog.scheme_names():
        s = catalog.catalog_scheme(name)
        pi = rng.permutation(s.n)
        back = np.argsort(pi)
        moved = sf.require(sf.build_scheme(s.n, s.rel[np.ix_(back, back)]))
        fuse = (0,) + (1,) * (s.s - 1)
        morphs = [
            sf.identity_morphism(s),
            sf.SchemeMorphism(s, moved, tuple(pi.tolist()), tuple(range(s.s))),
            sf.SchemeMorphism(s, complete(s.n), tuple(range(s.n)), fuse),
            sf.SchemeMorphism(s, complete(s.n + 2), tuple(rng.permutation(s.n + 2)[: s.n].tolist()), fuse),
        ]
        morphs += [sf.quotient_projection(s, t)[0] for t in sf.closed_subsets(s) if sf.is_normal_closed(s, t)[0]]
        if s.n <= 21:
            morphs += [sf.product_projection(s, z2, 0)[0], sf.product_projection(z2, s, 1)[0]]
        for f in morphs:
            report = sf.check_morphism(f)
            want = naive_admissible(f)
            assert report.morphism, name
            assert report.admissible == (not want), name
            assert report.violations == tuple(sf.Violation("admissible", w) for w in want), name


def test_admissibility_pass_is_bounded_by_its_blocks():
    """The identity morphism of H(10,2) (1,024 points, 11 classes) checks
    admissibility in blocks of source points: one pass over all of them
    would hold 51 MB of n x s x n booleans."""
    f = sf.identity_morphism(sf.hamming_scheme(10, 2))
    tracemalloc.start()
    try:
        report = sf.check_morphism(f)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.morphism and report.admissible
    assert peak < 32e6


def test_induced_hom_quotient():
    z4 = catalog.catalog_scheme("Z4")
    morph, _ = sf.quotient_projection(z4, {0, 2})
    hom = sf.induced_hom(morph)
    assert hom.elem_map == (0, 1, 0, 1)
    assert hom.strict


def test_induced_hom_product_projection_strict():
    z2 = catalog.catalog_scheme("Z2")
    morph, _ = sf.product_projection(z2, z2, 0)
    report = sf.check_morphism(morph)
    assert report.morphism and report.admissible
    assert sf.induced_hom(morph).strict


def test_induced_hom_rejects_non_morphism():
    z2 = catalog.catalog_scheme("Z2")
    bad = sf.SchemeMorphism(z2, z2, (0, 0), (0, 1))
    with pytest.raises(ValueError, match="not a morphism"):
        sf.induced_hom(bad)


def test_functoriality_of_composition():
    z2 = catalog.catalog_scheme("Z2")
    proj, prod = sf.product_projection(z2, z2, 0)
    quo_morph, _ = sf.quotient_projection(z2, {0, 1})
    composed = sf.compose_morphisms(quo_morph, proj)
    assert sf.check_morphism(composed).morphism
    h_composed = sf.induced_hom(composed)
    h_proj = sf.induced_hom(proj)
    h_quo = sf.induced_hom(quo_morph)
    assert h_composed.elem_map == tuple(
        h_quo.elem_map[c] for c in h_proj.elem_map
    )


# ---------------------------------------------------------------------------
# functor compatibility with products, quotients, restrictions

def test_hypergroup_of_product_is_product_of_hypergroups():
    # every catalog pair with at most 12 classes in total; the two routes use
    # the same pair indexing, so the tables agree literally, and the
    # isomorphism search confirms it wherever its size bound allows
    names = catalog.scheme_names()
    for i, a in enumerate(names):
        for b in names[i:]:
            s1, s2 = catalog.catalog_scheme(a), catalog.catalog_scheme(b)
            if s1.s + s2.s > 12:
                continue
            left = sf.to_hypergroup(sf.product_scheme(s1, s2))
            right = sf.product_hypergroup(sf.to_hypergroup(s1), sf.to_hypergroup(s2))
            assert left == right, (a, b)
            if left.m <= 12:
                assert sf.hypergroup_isomorphic(left, right) is not None, (a, b)


def test_hypergroup_of_quotient_is_quotient_of_hypergroup():
    for name, nset in [("Z4", {0, 2}), ("S3-inn", {0, 2}), ("Z6", {0, 3})]:
        s = catalog.catalog_scheme(name)
        left = sf.to_hypergroup(sf.quotient_scheme(s, nset))
        right = sf.quotient_hypergroup(sf.to_hypergroup(s), nset)
        assert sf.hypergroup_isomorphic(left, right) is not None, name


def test_hypergroup_of_restriction_is_sub_hypergroup():
    for name, tset in [("S3-inn", {0, 2}), ("Z4", {0, 2}), ("Z6", {0, 2, 4})]:
        s = catalog.catalog_scheme(name)
        h = sf.to_hypergroup(s)
        restricted = sf.to_hypergroup(sf.restrict_scheme(s, tset, 0))
        classes = sorted(tset)
        pos = {p: i for i, p in enumerate(classes)}
        sub_table = [
            [frozenset(pos[t] for t in h.table[p][q]) for q in classes] for p in classes
        ]
        sub = sf.build_hypergroup(sub_table, pos[0], [pos[h.inv[p]] for p in classes])
        assert isinstance(sub, sf.Hypergroup)
        assert sf.hypergroup_isomorphic(restricted, sub) is not None, name


# ---------------------------------------------------------------------------
# realizability search

def test_search_finds_z2_at_two_points():
    found = sf.search_realization(sf.group_hypergroup(sf.cyclic_group(2)), 2)
    assert found is not None
    assert found.n == 2
    assert np.array_equal(found.rel, [[0, 1], [1, 0]])


def test_search_realizes_the_one_element_hypergroup_on_one_point():
    found = sf.search_realization(sf.require(sf.build_hypergroup([[{0}]], 0, [0])), 1)
    assert found is not None
    assert np.array_equal(found.rel, [[0]])


def test_search_finds_z3_at_three_points():
    found = sf.search_realization(sf.group_hypergroup(sf.cyclic_group(3)), 3)
    assert found is not None
    assert np.array_equal(found.rel, [[0, 1, 2], [2, 0, 1], [1, 2, 0]])


def test_search_finds_krasner_on_three_points():
    lines = []
    found = sf.search_realization(sf.krasner_hypergroup(), 3, progress=lines.append)
    assert found is not None
    assert found.n == 3
    assert sf.to_hypergroup(found) == sf.krasner_hypergroup()
    # same scheme as the 3-point unit-scaling partition, up to relabeling
    assert sf.scheme_isomorphic(found, catalog.catalog_scheme("F3")) is not None
    assert lines == ["n=2 exhausted: 0 candidate matrices, 0 matches"]


def test_search_sign_hypergroup_negative_up_to_six_points():
    lines = []
    found = sf.search_realization(sf.sign_hypergroup(), 6, progress=lines.append)
    assert found is None
    assert [line.split()[0] for line in lines] == ["n=3", "n=4", "n=5", "n=6"]
    assert all(line.endswith("0 matches") for line in lines)


def test_search_deterministic():
    runs = []
    for _ in range(2):
        lines = []
        found = sf.search_realization(sf.krasner_hypergroup(), 3, progress=lines.append)
        runs.append((found.rel.tolist(), lines))
    assert runs[0] == runs[1]


def test_search_bound_guard():
    with pytest.raises(sf.SizeGuardError, match="8"):
        sf.search_realization(sf.krasner_hypergroup(), 9)


def test_search_output_always_verifies():
    for h in [sf.krasner_hypergroup(), sf.group_hypergroup(sf.cyclic_group(3))]:
        found = sf.search_realization(h, 4)
        assert found is not None
        rebuilt = sf.build_scheme(found.n, found.rel.copy())
        assert isinstance(rebuilt, sf.AssociationScheme)
        assert sf.hypergroup_isomorphic(sf.to_hypergroup(rebuilt), h) is not None


def _move_identity(h, target):
    """h relabelled by swapping its identity with the element `target`."""
    swap = list(range(h.m))
    swap[h.e], swap[target] = target, h.e
    table = [[{swap[t] for t in h.table[swap[a]][swap[b]]} for b in range(h.m)] for a in range(h.m)]
    moved = sf.build_hypergroup(table, target, [swap[h.inv[swap[a]]] for a in range(h.m)])
    assert isinstance(moved, sf.Hypergroup)
    return moved


def test_search_finds_krasner_with_identity_one():
    k1 = sf.build_hypergroup([[{0, 1}, {0}], [{0}, {1}]], 1, (0, 1))
    assert isinstance(k1, sf.Hypergroup)
    assert sf.hypergroup_isomorphic(k1, sf.krasner_hypergroup()) == (1, 0)
    found = sf.search_realization(k1, 5)
    assert found is not None and found.n == 3
    assert sf.hypergroup_isomorphic(sf.to_hypergroup(found), k1) is not None


def test_search_finds_s3_inn_with_identity_moved():
    for target in (1, 2):
        moved = _move_identity(catalog.catalog_hypergroup("S3-inn"), target)
        found = sf.search_realization(moved, 8)
        assert found is not None and found.n == 6
        assert sf.hypergroup_isomorphic(sf.to_hypergroup(found), moved) is not None


def test_search_does_not_depend_on_where_the_identity_sits():
    names = ["Z4", "hamming-2", "hamming-3", "F7", "Z8-2adic", "Z9-3adic"]
    for h in [catalog.catalog_hypergroup(name) for name in names] + [sf.sign_hypergroup()]:
        expected = sf.search_realization(h, 8)
        for target in range(1, h.m):
            moved = _move_identity(h, target)
            found = sf.search_realization(moved, 8)
            if expected is None:
                assert found is None
                continue
            assert found is not None and found.n == expected.n
            assert sf.hypergroup_isomorphic(sf.to_hypergroup(found), moved) is not None
