"""Closed subsets, sub-hypergroups, closedness, normality and scheme quotients
against the power-set, complex-product and quotient oracles in helpers.py."""

import dataclasses
import functools
import itertools
import re
import sys
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
    naive_normal_flags,
    naive_quotient_hypergroup,
    naive_quotient_scheme,
    naive_star,
    naive_sub_hypergroups,
    set_product,
    support_table,
)

SMALL_SCHEMES = [name for name in catalog.scheme_names() if catalog.catalog_scheme(name).s <= 12]
# every catalog class hypergroup within SUB_HYPERGROUP_BOUND
QUOTIENT_SCHEMES = [name for name in catalog.scheme_names() if catalog.catalog_scheme(name).s <= 20]
# every catalog scheme within CLOSED_SUBSET_CLASS_BOUND
LATTICE_SCHEMES = [name for name in catalog.scheme_names() if catalog.catalog_scheme(name).s <= 25]


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


def test_is_normal_sub_matches_definition_on_every_subset():
    """Both flags of is_normal_sub against Lx, xL and inv(x)*L*x formed by set
    products, on every subset that contains e, of every catalog class
    hypergroup with m <= 12 (among them the non-commutative S3, A4 and
    fano-flags), K, S, a linear and a product hypergroup, and of a random
    relabelling of each; a set that is not closed raises."""
    k, sign = sf.krasner_hypergroup(), sf.sign_hypergroup()
    cases = {name: catalog.catalog_hypergroup(name) for name in SMALL_SCHEMES}
    cases.update({"K": k, "S": sign, "linear(0,1,2,inf)": sf.linear_hypergroup([0, 1, 2, inf]),
                  "KxS": sf.product_hypergroup(k, sign)})
    assert not any(cases[name].is_commutative() for name in ("S3", "A4", "fano-flags"))
    rng = np.random.default_rng(20265)
    verdicts, refused = set(), 0
    for name, base in cases.items():
        for h in (base, relabel_hypergroup(base, rng)[0]):
            rest = [x for x in range(h.m) if x != h.e]
            for k in range(len(rest) + 1):
                for combo in itertools.combinations(rest, k):
                    t = frozenset((h.e,) + combo)
                    if all(h.inv[x] in t for x in t) and set_product(h.table, t, t) <= t:
                        flags = naive_normal_flags(h.table, h.inv, t)
                        assert sf.is_normal_sub(h, t) == flags, (name, sorted(t))
                        assert flags[0] or not flags[1], (name, sorted(t))  # strong implies normal
                        verdicts.add(flags)
                    else:
                        refused += 1
                        with pytest.raises(ValueError, match=re.escape(f"{sorted(t)} is not a sub-hypergroup")):
                            sf.is_normal_sub(h, t)
    assert verdicts == {(True, True), (True, False), (False, False)}
    assert refused > 0


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


# ---------------------------------------------------------------------------
# the bitmask closure and the array quotient against their definitions

def _shared_closures(h, lattice) -> list[tuple[int, int]]:
    """Pairs x < y, not inverse to each other, whose closures are one set:
    the smallest closed set holding each element."""
    single = {x: min((t for t in lattice if x in t), key=len) for x in range(h.m) if x != h.e}
    return [(x, y) for x, y in itertools.combinations(single, 2) if y != h.inv[x] and single[x] == single[y]]


def test_closure_lattice_matches_power_set_oracle_under_relabellings():
    k = sf.krasner_hypergroup()
    z2 = sf.cyclic_group(2)
    s3 = sf.symmetric_group(3)
    f7 = catalog.catalog_hypergroup("F7")
    hypergroups = {
        "KxKxK": sf.product_hypergroup(sf.product_hypergroup(k, k), k),
        "S3xZ2": sf.group_hypergroup(sf.product_group(s3, z2)),
        "A4": sf.group_hypergroup(sf.alternating_group(4)),
        "SxS": sf.product_hypergroup(sf.sign_hypergroup(), sf.sign_hypergroup()),
        # not groups: one element's closure holds others, or several share it
        "linear(0,1,inf)": sf.linear_hypergroup([0, 1, inf]),
        "S3-inn": sf.partition_hypergroup(s3, sf.inner_automorphisms(s3)),
        "F7": f7,
        "fano-flags": catalog.catalog_hypergroup("fano-flags"),
        "F7xF7": sf.product_hypergroup(f7, f7),
    }
    rng = np.random.default_rng(20261)
    counts = {}
    for name, h in hypergroups.items():
        assert h.m <= 12, name
        for _ in range(2):
            moved, _ = relabel_hypergroup(h, rng)
            got = sf.hypergroup.closure_lattice(moved)
            assert got == naive_sub_hypergroups(moved.table, moved.e, moved.inv), name
            counts[name] = len(got)
    # subgroups of S3 x Z2 and of A4; S x S has only the products of {0} and S,
    # since {0, 1} is closed under * but not under inv in S
    assert counts["S3xZ2"] == 16 and counts["A4"] == 10 and counts["SxS"] == 4
    # {0, 1, 2} is the closure of 1 and holds 2, whose closure is {0, 2}
    assert counts["linear(0,1,inf)"] == counts["S3-inn"] == 3 and counts["F7"] == 2
    for name in ("linear(0,1,inf)", "S3-inn"):
        h = hypergroups[name]
        assert sf.hypergroup.closure_lattice(h) == [{0}, {0, 1, 2}, {0, 2}], name
    # closures shared beyond inverse pairs, so the joins are deduplicated
    for name in ("fano-flags", "F7xF7"):
        h = hypergroups[name]
        assert _shared_closures(h, sf.hypergroup.closure_lattice(h)), name


def test_closure_lattice_of_z2_to_the_fifth_counts_subspaces():
    z2 = sf.cyclic_group(2)
    g = z2
    for _ in range(4):
        g = sf.product_group(g, z2)
    h = sf.group_hypergroup(g)
    assert h.m == 32
    lattice = sf.hypergroup.closure_lattice(h)
    # the subspaces of F_2^5, by dimension: Gaussian binomials [5 choose k]_2
    sizes = sorted(len(t) for t in lattice)
    assert [sizes.count(2 ** d) for d in range(6)] == [1, 31, 155, 155, 31, 1]
    assert len(lattice) == 374 == len(set(lattice))
    assert lattice == sorted(lattice, key=sorted)


def test_closure_stops_once_the_set_is_full():
    """A closure that fills the set runs no further round: in each closure
    frame, once its mask is full, at most three lines execute (the first line
    of a frame entered full, the loop check and the return), where a round
    takes at least seven."""
    for p in (13, 31):
        h = sf.group_hypergroup(sf.cyclic_group(p))
        full = (1 << p) - 1
        after_full = []

        def tracer(frame, event, arg):
            if frame.f_code.co_name != "close":
                return None
            seen = [0]
            after_full.append(seen)

            def local(frame, event, arg):
                if event == "line" and frame.f_locals.get("mask") == full:
                    seen[0] += 1
                return local
            return local

        previous = sys.gettrace()
        sys.settrace(tracer)
        try:
            lattice = sf.hypergroup.closure_lattice(h)
        finally:
            sys.settrace(previous)
        # Z/p has no subgroup but {0} and itself, and each element's closure fills
        assert lattice == [frozenset({0}), frozenset(range(p))]
        # the closure of {e}, one closure per pair {x, -x} (x and its inverse
        # have one closure), then one join of {e} with the one distinct closure
        assert len(after_full) == (p - 1) // 2 + 2
        # every frame after the first was seen full, so the trace reads the
        # closure's frames and mask
        assert [seen > 0 for seen, in after_full] == [False] + [True] * ((p - 1) // 2 + 1)
        assert max(seen for seen, in after_full) <= 3, p


def _dense(constants, s: int) -> np.ndarray:
    if isinstance(constants, np.ndarray):
        return constants
    dense = np.zeros((s, s, s), dtype=np.int64)
    for key, value in constants.items():
        dense[key] = value
    return dense


def test_quotients_match_definition_on_every_closed_subset():
    rng = np.random.default_rng(20262)
    normal = closed = 0
    for name in LATTICE_SCHEMES:
        base = catalog.catalog_scheme(name)
        c = _dense(oracle_constants(name), base.s)
        for _ in range(2):
            sigma, pi = rng.permutation(base.n), np.concatenate([[0], 1 + rng.permutation(base.s - 1)])
            rel = np.empty_like(base.rel)
            rel[np.ix_(sigma, sigma)] = pi[base.rel]
            moved = sf.build_scheme(base.n, rel)
            moved_c = np.empty_like(c)
            moved_c[np.ix_(pi, pi, pi)] = c
            rel_list = moved.rel.tolist()
            for t in sf.closed_subsets(moved):
                closed += 1
                blocks, block_of, cosets, coset_of, quotient = naive_quotient_scheme(
                    rel_list, moved_c, moved.s, t)
                assert sf.quotient_blocks(moved, t) == (blocks, block_of), (name, sorted(t))
                assert sf.double_cosets(moved, t) == (cosets, coset_of), (name, sorted(t))
                if all(naive_complex_mult(moved_c, moved.s, {p}, t) == naive_complex_mult(moved_c, moved.s, t, {p})
                       for p in range(moved.s)):
                    normal += 1
                    got = sf.quotient_scheme(moved, t)
                    assert isinstance(quotient, sf.AssociationScheme), (name, sorted(t))
                    assert np.array_equal(got.rel, quotient.rel), (name, sorted(t))
                else:
                    with pytest.raises(ValueError) as info:
                        sf.quotient_scheme(moved, t)
                    assert str(info.value) == f"class set {sorted(t)} is not normal"
    # per relabelling: 112 closed subsets of the catalog schemes, 100 of them normal
    assert (closed, normal) == (224, 200)


def test_quotient_layers_give_one_table():
    """The class hypergroup of S//N is h(S)//N as equal tables, not only
    isomorphic ones, on every normal closed subset of every catalog scheme
    within CLOSED_SUBSET_CLASS_BOUND and of two relabelled copies: both layers
    number the cosets by smallest class from the same pass."""
    rng = np.random.default_rng(20266)
    normal = 0
    for name in LATTICE_SCHEMES:
        base = catalog.catalog_scheme(name)
        for s in (base, relabel_classes(relabel_points(base, rng), rng)[0],
                  relabel_classes(relabel_points(base, rng), rng)[0]):
            for t in sf.closed_subsets(s):
                if sf.is_normal_closed(s, t)[0]:
                    normal += 1
                    quotient = sf.quotient_hypergroup(sf.to_hypergroup(s), t)
                    assert sf.to_hypergroup(sf.quotient_scheme(s, t)) == quotient, (name, sorted(t))
    # 112 closed subsets of the catalog schemes, 100 of them normal
    assert normal == 300


def test_quotient_refusals_keep_their_errors():
    s = catalog.catalog_scheme("S3")
    rng = np.random.default_rng(20263)
    calls = (sf.quotient_blocks, sf.double_cosets, sf.quotient_scheme)
    closed = set(sf.closed_subsets(s))
    refused = 0
    for k in range(1, s.s + 1):
        for t in itertools.combinations(range(s.s), k):
            if frozenset(t) in closed:
                continue
            refused += 1
            for call in calls:
                with pytest.raises(ValueError, match=re.escape(f"class set {list(t)} is not closed")):
                    call(s, t)
    assert refused == 2 ** 6 - 1 - len(closed)
    for call in calls:
        with pytest.raises(ValueError, match="^class set must be nonempty$"):
            call(s, [])
        with pytest.raises(ValueError, match=re.escape("class indices out of range 0..5: [0, 6]")):
            call(s, [0, 6])
    # the transposition subgroup {e, (01)} of S3 is closed but not normal
    moved, pi = relabel_classes(s, rng)
    for t in sf.closed_subsets(s):
        if not sf.is_normal_closed(s, t)[0]:
            image_t = sorted(int(pi[x]) for x in t)
            with pytest.raises(ValueError) as info:
                sf.quotient_scheme(moved, image_t)
            assert type(info.value) is ValueError
            assert str(info.value) == f"class set {image_t} is not normal"


# ---------------------------------------------------------------------------
# the masks and their table view, and the quotient by the identity

def _route_values():
    """(route, hypergroup) for every way a Hypergroup is made: both builders,
    relabellings, lattice quotients, products, the identity-first relabelling
    of the search, dataclasses.replace and a direct Hypergroup(...)."""
    rng = np.random.default_rng(20264)
    out = []
    for name in catalog.hypergroup_names() + catalog.scheme_names():
        h = catalog.catalog_hypergroup(name)
        out.append((name, h))
        for k in range(2):
            moved, _ = relabel_hypergroup(h, rng)
            out += [(f"{name}~{k}", moved), (f"{name}~{k}/identity-first", sf.realize._identity_first(moved))]
        if name in catalog.scheme_names():
            for k in range(2):
                moved, _ = relabel_classes(catalog.catalog_scheme(name), rng)
                out.append((f"{name}:classes~{k}", moved.hypergroup))
        for t in sf.hypergroup.closure_lattice(h):
            if sf.is_normal_sub(h, t)[0]:
                out.append((f"{name}//{sorted(t)}", sf.quotient_hypergroup(h, t)))
    k, sign, s3 = sf.krasner_hypergroup(), sf.sign_hypergroup(), catalog.catalog_hypergroup("S3")
    f64, h3 = catalog.catalog_hypergroup("F64/F4"), catalog.catalog_hypergroup("hamming-3")
    out += [("KxS", sf.product_hypergroup(k, sign)), ("S3xK", sf.product_hypergroup(s3, k)),
            ("F64/F4 x hamming-3", sf.product_hypergroup(f64, h3))]  # 88 elements: two words a cell
    out.append(("replace(table)", dataclasses.replace(k, table=sign.table, m=3, inv=sign.inv)))
    out.append(("replace(inv)", dataclasses.replace(s3, inv=s3.inv)))
    out.append(("direct", sf.Hypergroup(m=sign.m, table=sign.table, e=sign.e, inv=sign.inv)))
    return out


def test_masks_match_the_table_on_every_route():
    routes = _route_values()
    assert max(h.m for _, h in routes) > 64
    for route, h in routes:
        assert h.masks == tuple(tuple(sum(1 << t for t in cell) for cell in row) for row in h.table), route
        assert all(type(mask) is int for row in h.masks for mask in row), route
        direct = sf.Hypergroup(m=h.m, table=h.table, e=h.e, inv=h.inv)
        assert h == direct and hash(h) == hash(direct) and repr(h) == repr(direct), route
        assert "table=" in repr(h) and "masks" not in repr(h), route


def test_class_hypergroup_holds_no_table_until_one_is_read():
    """to_hypergroup's value holds its masks alone; the closure lattice, the
    quotients and the realization search leave it and the quotients so, and
    the first read of ``table`` builds the view once."""
    scheme = sf.require(sf.build_scheme(8, catalog.catalog_scheme("Z8-2adic").rel))
    h = sf.to_hypergroup(scheme)
    assert "table" not in vars(h)
    for t in sf.hypergroup.closure_lattice(h):
        if sf.is_normal_sub(h, t)[0] and len(t) < h.m:  # by all of h: a shared constant
            assert "table" not in vars(sf.quotient_hypergroup(h, t)), sorted(t)
    assert sf.search_realization(h, 8) is not None
    assert "table" not in vars(h)
    table = h.table
    assert vars(h)["table"] is table and h.table is table
    assert table == tuple(tuple(frozenset(t for t in range(h.m) if mask >> t & 1) for mask in row) for row in h.masks)


def test_quotient_by_the_identity_returns_its_input():
    rng = np.random.default_rng(20265)
    for name in LATTICE_SCHEMES:
        base = catalog.catalog_scheme(name)
        for s in (base, relabel_classes(base, rng)[0]):
            assert sf.quotient_scheme(s, {0}) is s, name
            blocks, block_of, cosets, coset_of, naive = naive_quotient_scheme(
                s.rel.tolist(), s.constants, s.s, {0})
            assert np.array_equal(naive.rel, s.rel) and naive.star == s.star, name
            assert np.array_equal(naive.constants, s.constants), name
            morph, quotient = sf.quotient_projection(s, {0})
            assert quotient is s, name
            assert morph.point_map == tuple(range(s.n)) and morph.class_map == tuple(range(s.s)), name
            for p in range(1, s.s):
                with pytest.raises(ValueError) as info:
                    sf.quotient_scheme(s, {p})
                assert str(info.value) == f"class set {[p]} is not closed", name
            with pytest.raises(ValueError, match="^class set must be nonempty$"):
                sf.quotient_scheme(s, set())
            with pytest.raises(ValueError, match=re.escape(f"class indices out of range 0..{s.s - 1}: [{s.s}]")):
                sf.quotient_scheme(s, {s.s})
    for name in catalog.hypergroup_names() + catalog.scheme_names():
        base = catalog.catalog_hypergroup(name)
        for h in (base, relabel_hypergroup(base, rng)[0]):
            assert sf.quotient_hypergroup(h, {h.e}) is h, name
            assert (h.table, h.e, h.inv) == naive_quotient_hypergroup(h.table, h.e, h.inv, {h.e}), name
            for x in set(range(h.m)) - {h.e}:
                with pytest.raises(ValueError) as info:
                    sf.quotient_hypergroup(h, {x})
                assert str(info.value) == f"{[x]} is not a sub-hypergroup", name
            with pytest.raises(ValueError, match="^element set must be nonempty$"):
                sf.quotient_hypergroup(h, set())
            with pytest.raises(ValueError, match=re.escape(f"element set out of range: ({h.m},)")):
                sf.quotient_hypergroup(h, {h.m})


def test_quotient_by_the_identity_or_everything_skips_the_coset_pass(monkeypatch):
    cosets_of = []
    real = sf.hypergroup._cosets

    def spy(h, nset):
        cosets_of.append(sorted(nset))
        return real(h, nset)

    monkeypatch.setattr(sf.hypergroup, "_cosets", spy)
    a4 = catalog.catalog_hypergroup("A4")
    assert sf.quotient_hypergroup(a4, {a4.e}) is a4
    assert sf.quotient_hypergroup(a4, range(a4.m)).m == 1
    assert sf.quotient_hypergroup(a4, [a4.e, a4.e]) is a4
    assert cosets_of == []
    # every other set takes the pass, and its refusals keep their messages
    normal = next(t for t in sf.sub_hypergroups(a4) if 1 < len(t) < a4.m and sf.is_normal_sub(a4, t)[0])
    cosets_of.clear()
    sf.quotient_hypergroup(a4, normal)
    assert cosets_of == [sorted(normal)]
    x = next(x for x in range(a4.m) if x != a4.e)
    not_normal = next(t for t in sf.sub_hypergroups(a4) if not sf.is_normal_sub(a4, t)[0])
    refusals = [(set(), "element set must be nonempty"),
                ({a4.e, a4.m}, f"element set out of range: {(a4.e, a4.m)}"),
                ({x}, f"{[x]} is not a sub-hypergroup"),
                (set(range(a4.m)) - {a4.e}, f"{list(range(1, a4.m))} is not a sub-hypergroup"),
                (not_normal, f"{sorted(not_normal)} is not normal")]
    for nset, message in refusals:
        with pytest.raises(ValueError) as info:
            sf.quotient_hypergroup(a4, nset)
        assert type(info.value) is ValueError and str(info.value) == message


def test_quotient_by_every_class_is_one_point():
    rng = np.random.default_rng(20266)
    schemes, hypergroups = [], []
    for name in LATTICE_SCHEMES:
        base = catalog.catalog_scheme(name)
        for s in (base, relabel_classes(base, rng)[0]):
            every = set(range(s.s))
            got = sf.quotient_scheme(s, every)
            schemes.append(got)
            blocks, block_of, cosets, coset_of, naive = naive_quotient_scheme(
                s.rel.tolist(), s.constants, s.s, every)
            assert (got.n, got.s, got.star, got.valency) == (naive.n, naive.s, naive.star, naive.valency) == (
                1, 1, (0,), (1,)), name
            assert np.array_equal(got.rel, naive.rel) and np.array_equal(got.constants, naive.constants), name
            morph, quotient = sf.quotient_projection(s, every)
            assert quotient is got, name
            assert morph.point_map == (0,) * s.n and morph.class_map == (0,) * s.s, name
            assert block_of == morph.point_map and coset_of == morph.class_map, name
            with pytest.raises(ValueError) as info:
                sf.quotient_scheme(s, every - {0})
            assert str(info.value) == f"class set {list(range(1, s.s))} is not closed", name
            with pytest.raises(ValueError, match="^class set must be nonempty$"):
                sf.quotient_scheme(s, set())
            wide = list(range(s.s + 1))
            with pytest.raises(ValueError, match=re.escape(f"class indices out of range 0..{s.s - 1}: {wide}")):
                sf.quotient_scheme(s, wide)
            h = s.hypergroup
            got = sf.quotient_hypergroup(h, every)
            hypergroups.append(got)
            assert (got.table, got.e, got.inv) == naive_quotient_hypergroup(h.table, h.e, h.inv, every), name
            with pytest.raises(ValueError) as info:
                sf.quotient_hypergroup(h, every - {h.e})
            assert str(info.value) == f"{sorted(every - {h.e})} is not a sub-hypergroup", name
            with pytest.raises(ValueError, match="^element set must be nonempty$"):
                sf.quotient_hypergroup(h, set())
            with pytest.raises(ValueError, match=re.escape(f"element set out of range: {tuple(wide)}")):
                sf.quotient_hypergroup(h, wide)
    for name in catalog.hypergroup_names():
        h = catalog.catalog_hypergroup(name)
        got = sf.quotient_hypergroup(h, range(h.m))
        hypergroups.append(got)
        assert (got.table, got.e, got.inv) == naive_quotient_hypergroup(h.table, h.e, h.inv, range(h.m)), name
    # the one-point scheme and the one-element hypergroup are one value each
    assert all(q is schemes[0] for q in schemes) and all(q is hypergroups[0] for q in hypergroups)
