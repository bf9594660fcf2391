"""Closed subsets, sub-hypergroups, closedness and normality against the
power-set and complex-product oracles in helpers.py."""

import functools
import itertools
from math import inf

import numpy as np
import pytest

import schemeforge as sf
from schemeforge import catalog

from helpers import (
    naive_complex_mult,
    naive_constants,
    naive_is_closed,
    naive_is_sub_hypergroup,
    naive_quotient_hypergroup,
    naive_star,
    naive_sub_hypergroups,
    set_product,
    support_table,
)

SMALL_SCHEMES = [name for name in catalog.scheme_names() if catalog.catalog_scheme(name).s <= 12]
# every catalog class hypergroup within SUB_HYPERGROUP_BOUND
QUOTIENT_SCHEMES = [name for name in catalog.scheme_names() if catalog.catalog_scheme(name).s <= 20]


def small_hypergroups():
    k, sign = sf.krasner_hypergroup(), sf.sign_hypergroup()
    return {
        "K": k,
        "S": sign,
        "KxK": sf.product_hypergroup(k, k),
        "linear(0,1,inf)": sf.linear_hypergroup([0, 1, inf]),
    }


@functools.lru_cache(maxsize=None)
def oracle_constants(name: str):
    """Structure constants by direct counting where that is cheap, else the library's."""
    s = catalog.catalog_scheme(name)
    if s.s ** 3 * s.n ** 3 <= 300_000:
        return naive_constants(s.rel.tolist(), s.s)
    return s.constants


def relabel_points(s, rng):
    sigma = rng.permutation(s.n)
    rel = np.empty_like(s.rel)
    rel[np.ix_(sigma, sigma)] = s.rel
    return sf.build_scheme(s.n, rel)


def relabel_classes(s, rng):
    pi = np.concatenate([[0], 1 + rng.permutation(s.s - 1)])
    return sf.build_scheme(s.n, pi[s.rel]), pi


def relabel_hypergroup(h, rng):
    pi = rng.permutation(h.m).tolist()
    table = [[None] * h.m for _ in range(h.m)]
    for a, b in itertools.product(range(h.m), repeat=2):
        table[pi[a]][pi[b]] = {pi[t] for t in h.table[a][b]}
    inv = [0] * h.m
    for x in range(h.m):
        inv[pi[x]] = pi[h.inv[x]]
    return sf.build_hypergroup(table, pi[h.e], inv), pi


def image(subsets, pi):
    return sorted((frozenset(int(pi[x]) for x in t) for t in subsets), key=sorted)


def check_class_products(moved, c, pi, closed, name):
    """complex_mult on every class pair and double_cosets of every closed
    subset of a relabelled scheme, against naive_complex_mult on the original
    constants c, carried over by the class relabelling pi."""
    s = moved.s

    def naive(pset, qset):
        return {int(pi[r]) for r in naive_complex_mult(c, s, pset, qset)}

    for p, q in itertools.product(range(s), repeat=2):
        assert sf.complex_mult(moved, {pi[p]}, {pi[q]}) == naive({p}, {q}), (name, p, q)
        assert sf.complex_mult(moved, {pi[p], pi[q]}, {pi[q]}) == naive({p, q}, {q}), (name, p, q)
    for t in closed:
        cosets, coset_of = sf.double_cosets(moved, {pi[x] for x in t})
        expected = {frozenset(naive(naive_complex_mult(c, s, t, {p}), t)) for p in range(s)}
        assert set(cosets) == expected and len(cosets) == len(expected), (name, sorted(t))
        assert cosets == sorted(cosets, key=min), (name, sorted(t))
        assert all(pi[p] in cosets[coset_of[pi[p]]] for p in range(s)), (name, sorted(t))


def check_quotients(h, name) -> int:
    """quotient_hypergroup against the coset oracle on every normal
    sub-hypergroup of h, and its refusal of the others; returns the number of
    normal ones."""
    normal = 0
    for t in sf.sub_hypergroups(h):
        if all(set_product(h.table, [x], t) == set_product(h.table, t, [x]) for x in range(h.m)):
            q = sf.quotient_hypergroup(h, t)
            assert (q.table, q.e, q.inv) == naive_quotient_hypergroup(h.table, h.e, h.inv, t), name
            normal += 1
        else:
            with pytest.raises(ValueError, match="not normal"):
                sf.quotient_hypergroup(h, t)
    return normal


# ---------------------------------------------------------------------------
# the closure lattice against the power set

def test_closed_subsets_match_power_set_oracle():
    for name in SMALL_SCHEMES:
        s = catalog.catalog_scheme(name)
        table = support_table(oracle_constants(name), s.s)
        star = naive_star(s.rel.tolist(), s.s)
        assert sf.closed_subsets(s) == naive_sub_hypergroups(table, 0, star), name


def test_sub_hypergroups_match_power_set_oracle():
    hypergroups = {name: catalog.catalog_hypergroup(name) for name in SMALL_SCHEMES}
    hypergroups.update(small_hypergroups())
    for name, h in hypergroups.items():
        assert sf.sub_hypergroups(h) == naive_sub_hypergroups(h.table, h.e, h.inv), name


def test_lattice_under_random_relabellings():
    rng = np.random.default_rng(20260)
    for name in ["S3", "A4", "hamming-3", "fano-flags", "F16/F4", "Z8-2adic"]:
        s = catalog.catalog_scheme(name)
        expected = sf.closed_subsets(s)
        c = oracle_constants(name)
        for _ in range(2):
            points = relabel_points(s, rng)
            assert sf.closed_subsets(points) == expected, name
            check_class_products(points, c, range(s.s), expected, name)
            moved, pi = relabel_classes(s, rng)
            got = sf.closed_subsets(moved)
            assert got == image(expected, pi), name
            table = support_table(moved.constants, s.s)
            assert got == naive_sub_hypergroups(table, 0, moved.star), name
            check_class_products(moved, c, pi, expected, name)
    for name, h in list(small_hypergroups().items()) + [("S3", catalog.catalog_hypergroup("S3"))]:
        expected = sf.sub_hypergroups(h)
        for _ in range(3):
            moved, pi = relabel_hypergroup(h, rng)
            got = sf.sub_hypergroups(moved)
            assert got == image(expected, pi), name
            assert got == naive_sub_hypergroups(moved.table, moved.e, moved.inv), name
            check_quotients(moved, name)
    normal = 0
    for name in QUOTIENT_SCHEMES:
        h = catalog.catalog_hypergroup(name)
        count = check_quotients(h, name)
        normal += count
        for _ in range(2):
            moved, pi = relabel_hypergroup(h, rng)
            assert sf.sub_hypergroups(moved) == image(sf.sub_hypergroups(h), pi), name
            assert check_quotients(moved, name) == count, name
    assert normal == 56


def test_is_sub_hypergroup_matches_oracle_on_every_subset():
    hypergroups = dict(small_hypergroups())
    for name in ["S3", "fano-flags", "hamming-3"]:
        hypergroups[name] = catalog.catalog_hypergroup(name)
    for name, h in hypergroups.items():
        for k in range(1, h.m + 1):
            for kset in itertools.combinations(range(h.m), k):
                assert sf.is_sub_hypergroup(h, kset) == naive_is_sub_hypergroup(
                    h.table, h.e, h.inv, kset
                ), (name, kset)


# ---------------------------------------------------------------------------
# closedness and normality against complex products

def test_is_normal_closed_matches_complex_products():
    verdicts = set()
    for name in SMALL_SCHEMES:
        s = catalog.catalog_scheme(name)
        c = oracle_constants(name)
        star = naive_star(s.rel.tolist(), s.s)
        for t in sf.closed_subsets(s):
            normal = all(
                naive_complex_mult(c, s.s, {p}, t) == naive_complex_mult(c, s.s, t, {p})
                for p in range(s.s)
            )
            strongly = all(
                naive_complex_mult(c, s.s, naive_complex_mult(c, s.s, {star[p]}, t), {p}) == t
                for p in range(s.s)
            )
            assert sf.is_normal_closed(s, t) == (normal, strongly), (name, sorted(t))
            verdicts.add((name, tuple(sorted(t)), normal, strongly))
    # normal but not strongly normal, and the non-normal transposition subgroup of S3
    assert ("hamming-3", (0, 3), True, False) in verdicts
    assert ("S3-inn", (0,), True, False) in verdicts
    assert ("S3", (0, 1), False, False) in verdicts


def test_is_closed_matches_definition_on_every_subset():
    for name in SMALL_SCHEMES:
        s = catalog.catalog_scheme(name)
        if s.s > 8:
            continue
        c = oracle_constants(name)
        star = naive_star(s.rel.tolist(), s.s)
        # every nonempty class set, with or without the diagonal class
        for k in range(1, s.s + 1):
            for tset in itertools.combinations(range(s.s), k):
                assert sf.is_closed(s, tset) == naive_is_closed(c, star, s.s, tset), (name, tset)


# ---------------------------------------------------------------------------
# sizes the power set made impractical

def test_closed_subsets_f64_over_f4_are_the_subspaces():
    s = catalog.catalog_scheme("F64/F4")
    subsets = sf.closed_subsets(s)
    # F4-subspaces of F4^3: {0}, 21 lines (one class each), 21 planes (five), all
    sizes = sorted(len(t) for t in subsets)
    assert sizes == [1] + [2] * 21 + [6] * 21 + [22]
    assert len(set(subsets)) == 44
    for t in subsets:
        assert naive_is_closed(s.constants, s.star, s.s, t), sorted(t)


def test_sub_hypergroups_z20_are_the_subgroups():
    h = sf.to_hypergroup(sf.group_scheme(sf.cyclic_group(20)))
    subs = sf.sub_hypergroups(h)
    # one subgroup d*Z/20 per divisor d of 20, d(20) = 6 in all
    assert set(subs) == {frozenset(range(0, 20, d)) for d in (1, 2, 4, 5, 10, 20)}
    assert len(subs) == 6
    for t in subs:
        assert naive_is_sub_hypergroup(h.table, h.e, h.inv, t), sorted(t)
