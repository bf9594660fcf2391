"""Both isomorphism searches against the all-permutations oracle in helpers.py,
on seeded relabellings and on perturbations, with every returned map checked
independently of the search.  A perturbation merges two classes of a scheme
(a fusion), so that it stays a scheme and its class hypergroup a hypergroup:
the searches take verified values only."""

import itertools
from math import inf

import numpy as np

import schemeforge as sf
from schemeforge import catalog

from helpers import naive_isomorphic

SMALL_SCHEMES = [name for name in catalog.scheme_names() if catalog.catalog_scheme(name).n <= 6]


def relabel_hypergroup(h, rng):
    pi = rng.permutation(h.m).tolist()
    table = [[None] * h.m for _ in range(h.m)]
    for a, b in itertools.product(range(h.m), repeat=2):
        table[pi[a]][pi[b]] = frozenset(pi[t] for t in h.table[a][b])
    inv = [0] * h.m
    for x in range(h.m):
        inv[pi[x]] = pi[h.inv[x]]
    return sf.require(sf.build_hypergroup(table, pi[h.e], inv))


def relabel_scheme(s, rng):
    sigma = rng.permutation(s.n)
    pi = np.concatenate([[0], 1 + rng.permutation(s.s - 1)])
    rel = np.empty_like(s.rel)
    rel[np.ix_(sigma, sigma)] = pi[s.rel]
    return sf.require(sf.build_scheme(s.n, rel))


def fusions(s):
    """The schemes made by merging two non-diagonal classes and their transposes."""
    out = []
    for p, q in itertools.combinations(range(1, s.s), 2):
        merged = np.arange(s.s)
        merged[[q, s.star[q]]] = merged[[p, s.star[p]]]
        _, rel = np.unique(merged[s.rel], return_inverse=True)
        fused = sf.build_scheme(s.n, rel.reshape(s.n, s.n))
        if isinstance(fused, sf.AssociationScheme) and fused.s < s.s:
            out.append(fused)
    return out


def check_hypergroup_map(h1, h2, phi):
    if sorted(phi) != list(range(h1.m)) or phi[h1.e] != h2.e:
        raise AssertionError(f"not a bijection fixing the identity: {phi}")
    if any(phi[h1.inv[x]] != h2.inv[phi[x]] for x in range(h1.m)):
        raise AssertionError(f"inverses not carried: {phi}")
    for a, b in itertools.product(range(h1.m), repeat=2):
        if {phi[t] for t in h1.table[a][b]} != h2.table[phi[a]][phi[b]]:
            raise AssertionError(f"cell {a}*{b} not carried: {phi}")


def check_scheme_map(s1, s2, found):
    pmap, cmap = found
    if sorted(pmap) != list(range(s1.n)) or sorted(cmap) != list(range(s1.s)):
        raise AssertionError(f"not bijections: {found}")
    for x, y in itertools.product(range(s1.n), repeat=2):
        if s2.rel[pmap[x], pmap[y]] != cmap[s1.rel[x, y]]:
            raise AssertionError(f"pair {x, y} not carried: {found}")


def hypergroup_pool():
    """Named hypergroups with at most 6 elements: small constructions, catalog
    class hypergroups and the class hypergroups of catalog fusions."""
    k = sf.krasner_hypergroup()
    pool = {"K": k, "S": sf.sign_hypergroup(), "KxK": sf.product_hypergroup(k, k),
            "linear(0,1,inf)": sf.linear_hypergroup([0, 1, inf]),
            "group S3": sf.group_hypergroup(sf.symmetric_group(3))}
    for name in catalog.scheme_names():
        s = catalog.catalog_scheme(name)
        if s.s <= 6:
            pool[name] = sf.to_hypergroup(s)
        if s.s <= 7:
            pool.update((f"{name}/fused{i}", sf.to_hypergroup(f)) for i, f in enumerate(fusions(s)))
    return pool


def test_hypergroup_isomorphic_matches_naive_on_relabellings_and_fusions():
    rng = np.random.default_rng(8080)
    inputs = []
    for name, h in hypergroup_pool().items():
        inputs += [(name, h)] + [(name + "/moved", relabel_hypergroup(h, rng)) for _ in range(2)]
    verdicts = {True: 0, False: 0}
    for (n1, h1), (n2, h2) in itertools.product(inputs, repeat=2):
        if h1.m != h2.m:
            continue
        phi = sf.hypergroup_isomorphic(h1, h2)
        expected = naive_isomorphic(h1, h2)
        assert (phi is None) == (expected is None), (n1, n2)
        if phi is not None:
            check_hypergroup_map(h1, h2, phi)
        verdicts[phi is not None] += 1
    assert verdicts[True] > 100 and verdicts[False] > 100, verdicts


def test_scheme_isomorphic_matches_naive_on_relabellings_and_fusions():
    rng = np.random.default_rng(9090)
    inputs = []
    for name in SMALL_SCHEMES:
        s = catalog.catalog_scheme(name)
        inputs += [(name, s)] + [(name + "/moved", relabel_scheme(s, rng)) for _ in range(2)]
        inputs += [(f"{name}/fused{i}", f) for i, f in enumerate(fusions(s))]
    verdicts = {True: 0, False: 0}
    for (n1, s1), (n2, s2) in itertools.product(inputs, repeat=2):
        if s1.n != s2.n:
            continue
        found = sf.scheme_isomorphic(s1, s2)
        expected = naive_isomorphic(s1, s2)
        assert (found is None) == (expected is None), (n1, n2)
        if found is not None:
            check_scheme_map(s1, s2, found)
        verdicts[found is not None] += 1
    assert verdicts[True] > 100 and verdicts[False] > 100, verdicts


def test_isomorphism_searches_refuse_mismatched_sizes():
    z4, z5 = catalog.catalog_scheme("Z4"), catalog.catalog_scheme("Z5")
    assert sf.scheme_isomorphic(z4, z5) is None
    assert sf.scheme_isomorphic(z4, catalog.catalog_scheme("hamming-2")) is None  # s = 4 against 3
    assert sf.hypergroup_isomorphic(sf.to_hypergroup(z4), sf.to_hypergroup(z5)) is None


def test_shrikhande_and_rook_schemes_are_told_apart():
    """The Shrikhande graph and the 4 x 4 rook's graph are strongly regular with
    the same parameters (16, 6, 2, 2), so their schemes have the same constants,
    but they are not isomorphic."""
    cells = list(itertools.product(range(4), repeat=2))
    steps = {(1, 0), (3, 0), (0, 1), (0, 3), (1, 1), (3, 3)}

    def graph_scheme(adjacent):
        rel = [[0 if x == y else 1 if adjacent(x, y) else 2 for y in cells] for x in cells]
        return sf.require(sf.build_scheme(16, rel))

    shrikhande = graph_scheme(lambda x, y: ((x[0] - y[0]) % 4, (x[1] - y[1]) % 4) in steps)
    rook = graph_scheme(lambda x, y: x[0] == y[0] or x[1] == y[1])
    assert np.array_equal(shrikhande.constants, rook.constants)
    assert sf.scheme_isomorphic(shrikhande, rook) is None
    moved = relabel_scheme(rook, np.random.default_rng(16))
    check_scheme_map(rook, moved, sf.scheme_isomorphic(rook, moved))
