"""The realization search tree against the slow oracle in helpers.py, its
valency vectors against ``naive_valency_vectors``, and its leaf filter
``realize._counts_fit`` against ``naive_counts_fit``, ``build_scheme`` and the
literal table comparison it makes unneeded."""

import itertools
from math import inf

import numpy as np

import schemeforge as sf
from schemeforge import catalog, realize

from helpers import naive_counts_fit, naive_search_at_size, naive_valency_vectors


def relabelled(h, perm):
    """h with element a renamed perm[a]."""
    table = [[None] * h.m for _ in range(h.m)]
    inv = [0] * h.m
    for a in range(h.m):
        inv[perm[a]] = perm[h.inv[a]]
        for b in range(h.m):
            table[perm[a]][perm[b]] = frozenset(perm[t] for t in h.table[a][b])
    return sf.require(sf.build_hypergroup(table, perm[h.e], inv))


def identity_fixing_labellings(h):
    return [relabelled(h, (0,) + p) for p in itertools.permutations(range(1, h.m))]


def three_element(c11, c12, c22):
    """3 elements, all self-inverse, with the given products 1*1, 1*2, 2*2."""
    return sf.require(sf.build_hypergroup([[{0}, {1}, {2}], [{1}, c11, c12], [{2}, c12, c22]], 0, (0, 1, 2)))


KRASNER = sf.krasner_hypergroup()
TARGETS = {
    "K": KRASNER,
    "F7": catalog.catalog_hypergroup("F7"),
    "Z8-2adic": catalog.catalog_hypergroup("Z8-2adic"),
    "hamming-3": catalog.catalog_hypergroup("hamming-3"),
    "S": sf.sign_hypergroup(),
    "linear-3": sf.linear_hypergroup([0, 1, inf]),
    "dense": three_element({0, 1, 2}, {1, 2}, {0, 1, 2}),
    "petersen": three_element({0, 2}, {1, 2}, {0, 1, 2}),
    "S3": sf.group_hypergroup(sf.symmetric_group(3)),  # not commutative
}


def fill_order(n):
    return [(x, z) for z in range(1, n) for x in range(z)]


def adjacent_swaps(rel):
    """For each point y >= 1 with rel[0][y] == rel[0][y + 1], the point
    permutation that swaps y and y + 1."""
    n = len(rel)
    for y in range(1, n - 1):
        if rel[0][y] == rel[0][y + 1]:
            t = list(range(n))
            t[y], t[y + 1] = y + 1, y
            yield t


def is_lex_leader(rel) -> bool:
    """No adjacent swap of one row-0 class gives a matrix whose cells, in
    fill order, come first: the swap is applied literally and the two cell
    sequences compared."""
    order = fill_order(len(rel))
    cells = [rel[x][z] for x, z in order]
    return all(cells <= [rel[t[x]][t[z]] for x, z in order] for t in adjacent_swaps(rel))


def test_search_tree_matches_naive_oracle():
    # every size up to the search bound, so the leaf-heavy n = 8 trees of
    # dense (1,106 leaves unbroken) and petersen (97) are compared too.  The
    # oracle walks the tree without symmetry breaking; the fast tree must
    # visit exactly its lex-leader leaves and find the same matrix
    for name, h in TARGETS.items():
        for g in identity_fixing_labellings(h):
            for n in range(g.m, realize.SEARCH_POINT_BOUND + 1):
                naive, leaves = naive_search_at_size(g, n)
                expected = (None if naive is None else naive.rel.tolist(),
                            sum(map(is_lex_leader, leaves)))
                found, count = realize._search_at_size(g, n)
                got = (None if found is None else found.rel.tolist(), count)
                assert got == expected, (name, g.table, n)
                if found is not None:
                    # a leaf is returned without its class hypergroup: it is h's literally
                    assert found.hypergroup == realize._identity_first(g), (name, g.table, n)


def test_valency_vectors_match_the_naive_enumeration():
    # each size's list, read off one plan up to the search bound, is the same
    # list in the same order, lexicographic ascending, for every labelling of
    # every target, and for one and two elements from one point
    bound = realize.SEARCH_POINT_BOUND
    trivial = sf.require(sf.build_hypergroup([[{0}]], 0, [0]))
    z2 = sf.group_hypergroup(sf.cyclic_group(2))
    cases = [(g, g.m) for h in TARGETS.values() for g in identity_fixing_labellings(h)]
    cases += [(trivial, 1), (z2, 1)]
    vectors = 0
    for g, low in cases:
        valencies = realize._search_plan(g, bound).valencies
        for n in range(low, bound + 1):
            assert valencies[n] == naive_valency_vectors(g, n), (g.table, n)
            vectors += len(valencies[n])
    assert realize._search_plan(trivial, bound).valencies[1:3] == [[(1,)], []]
    assert vectors > 200


def test_a_search_reads_h_once_whatever_the_sizes(monkeypatch):
    # one call decodes h's cells once and builds the class supports at most
    # once, on a target that exhausts several sizes with leaves
    decoded, built, exhausted = [], [], []
    members, supports = realize._members, realize._class_supports
    monkeypatch.setattr(realize, "_members", lambda mask: decoded.append(mask) or members(mask))
    monkeypatch.setattr(realize, "_class_supports", lambda masks: built.append(masks) or supports(masks))
    h = TARGETS["petersen"]
    assert realize.search_realization(h, realize.SEARCH_POINT_BOUND, progress=exhausted.append) is None
    sizes_with_leaves = [line for line in exhausted if not line.endswith(": 0 candidate matrices, 0 matches")]
    assert len(sizes_with_leaves) > 1
    assert len(decoded) == (h.m - 1) ** 2
    assert len(built) == 1


def test_adjacent_swaps_of_a_realization_keep_its_table_and_order():
    # the premise of the lex-leader argument: an adjacent swap inside one
    # row-0 class maps a found realization to a scheme with the same class
    # table, which does not come before it in fill order
    swaps = 0
    for name, h in TARGETS.items():
        for g in identity_fixing_labellings(h):
            found = realize.search_realization(g, realize.SEARCH_POINT_BOUND)
            if found is None:
                continue
            rel = found.rel
            order = fill_order(found.n)
            for t in adjacent_swaps(rel.tolist()):
                image = rel[np.ix_(t, t)]
                swapped = sf.require(sf.build_scheme(found.n, image))
                assert swapped.hypergroup.table == g.table and swapped.hypergroup.inv == g.inv, (name, t)
                assert [image[x, z] for x, z in order] >= [rel[x, z] for x, z in order], (name, t)
                swaps += 1
    assert swaps > 0


def accepts(rel, h) -> bool:
    # the histogram filter agrees with the sorted-paths oracle on every draw
    fit = realize._counts_fit(rel, realize._class_supports(h.masks))
    assert fit == naive_counts_fit(rel, h.table), (rel, h.table)
    return fit


def test_leaf_filter_accepts_every_small_scheme_and_nothing_else():
    # each catalog scheme with n <= 8, under seeded point and class
    # relabellings: the filter accepts it with its own class table, and with
    # any other table of as many classes exactly when the tables are equal
    rng = np.random.default_rng(20261018)
    schemes = [catalog.catalog_scheme(name) for name in catalog.scheme_names()]
    schemes = [s for s in schemes if s.n <= 8]
    tables = {}
    for s in schemes:
        for g in identity_fixing_labellings(s.hypergroup):
            tables.setdefault(g.m, []).append(g)
    for s in schemes:
        for _ in range(3):
            points = rng.permutation(s.n)
            classes = np.concatenate(([0], 1 + rng.permutation(s.s - 1)))
            rel = classes[s.rel[np.ix_(points, points)]]
            own = sf.require(sf.build_scheme(s.n, rel)).hypergroup
            rel = rel.tolist()
            assert accepts(rel, own)
            for other in tables[s.s]:
                assert accepts(rel, other) == (other.table == own.table), (s.rel.tolist(), other.table)


def test_leaf_filter_rejects_only_leaves_the_search_rejects():
    # seeded random star-consistent matrices on at most 6 points: a rejected
    # matrix is no scheme or has another class table; where every class
    # appears, as at every leaf, the filter is exact
    rng = np.random.default_rng(9)
    k = KRASNER
    pool = [
        k, sf.group_hypergroup(sf.cyclic_group(2)), sf.group_hypergroup(sf.cyclic_group(3)),
        sf.product_hypergroup(k, k),
        *(catalog.catalog_hypergroup(name) for name in ("F7", "S3-inn", "hamming-2", "Z8-2adic")),
        *(TARGETS[name] for name in ("S", "linear-3", "dense", "petersen")),
    ]
    labelled = [g for h in pool for g in identity_fixing_labellings(h)]
    seen = set()
    for _ in range(1500):
        h = labelled[rng.integers(len(labelled))]
        n = int(rng.integers(h.m, 7))
        rel = [[0] * n for _ in range(n)]
        for x, z in itertools.combinations(range(n), 2):
            c = int(rng.integers(1, h.m))
            rel[x][z], rel[z][x] = c, h.inv[c]
        built = sf.build_scheme(n, np.array(rel))
        good = isinstance(built, sf.AssociationScheme) and built.hypergroup.table == h.table
        fit = accepts(rel, h)
        if not fit:
            assert not good, (rel, h.table)
        if len({c for row in rel for c in row}) == h.m:
            assert fit == good, (rel, h.table)
        seen.add((fit, isinstance(built, sf.AssociationScheme)))
    # the draws reach accepted schemes, schemes with another table, and non-schemes
    assert seen == {(True, True), (False, True), (False, False)}
