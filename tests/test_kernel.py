"""The packed-count kernel of build_scheme, the bitset axiom check of
build_hypergroup and the row-0 triangle check, against the by-definition
oracles in helpers.py under seeded random relabellings and perturbations."""

import itertools
import json
import os
import resource
import subprocess
import sys
import tracemalloc
from math import inf, prod

import numpy as np
import pytest

import schemeforge as sf
from schemeforge import catalog, hypergroup, scheme
from schemeforge.constructions import ValuedRing
from schemeforge.hypergroup import support_hypergroup
from schemeforge.scheme import count_radices

from helpers import (
    naive_constant_witnesses,
    naive_constants,
    naive_generated_rank,
    naive_hypergroup_violations,
    naive_star,
    naive_star_witnesses,
    naive_triangle_violations,
)

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
SMALL_SCHEMES = [name for name in catalog.scheme_names() if catalog.catalog_scheme(name).n <= 64]


def relabelled(rel, rng):
    """rel under a random point permutation and a random permutation of the
    nondiagonal classes."""
    rel = np.asarray(rel)
    sigma = rng.permutation(len(rel))
    pi = np.concatenate([[0], 1 + rng.permutation(int(rel.max()))])
    return pi[rel[np.ix_(sigma, sigma)]]


def assert_matches_oracle(n, rel):
    s = int(rel.max()) + 1
    built = sf.require(sf.build_scheme(n, rel))
    lists = rel.tolist()
    expected = naive_constants(lists, s)
    constants = np.zeros((s, s, s), dtype=np.int64)
    for key, count in expected.items():
        constants[key] = count
    assert built.constants.dtype == np.int64
    assert np.array_equal(built.constants, constants)
    star = naive_star(lists, s)
    assert built.star == tuple(star)
    assert built.valency == tuple(lists[0].count(p) for p in range(s))
    assert built.valency == tuple(int(constants[p, star[p], 0]) for p in range(s))


def perturbed(rel, star, rng):
    """Move one off-diagonal pair (y, z) to another class d and (z, y) to star(d):
    every earlier axiom still holds, and the counts usually stop being constant."""
    rel = rel.copy()
    n, s = len(rel), len(star)
    y, z = rng.choice(n, size=2, replace=False)
    d = int(rng.choice([c for c in range(1, s) if c != rel[y, z]]))
    rel[y, z], rel[z, y] = d, star[d]
    return rel


def on_the_radix_route(test):
    """``test`` again with every count check on the radix route at its default
    block sizes: most of its matrices fit the pair histogram, which
    ``build_scheme`` takes by default."""
    def run(monkeypatch):
        monkeypatch.setattr(scheme, "_histogram_counts", scheme._radix_counts)
        test()
    return run


# ---------------------------------------------------------------------------
# build_scheme: constants, star and valency

def test_constants_match_oracle_on_small_catalog_schemes_under_relabelling():
    rng = np.random.default_rng(61)
    for name in SMALL_SCHEMES:
        rel = catalog.catalog_scheme(name).rel
        assert_matches_oracle(len(rel), np.array(rel))
        for _ in range(2):
            assert_matches_oracle(len(rel), relabelled(rel, rng))


test_constants_match_oracle_on_small_catalog_schemes_under_relabelling_on_the_radix_route = on_the_radix_route(
    test_constants_match_oracle_on_small_catalog_schemes_under_relabelling)


def test_constants_match_oracle_on_fano_times_hamming_3():
    fano, h3 = catalog.catalog_scheme("fano-flags"), catalog.catalog_scheme("hamming-3")
    product = sf.product_scheme(fano, h3)
    assert (product.n, product.s) == (168, 24)
    assert_matches_oracle(product.n, relabelled(product.rel, np.random.default_rng(62)))


def test_refusal_witnesses_match_oracle_on_perturbed_matrices():
    rng = np.random.default_rng(63)
    refused = 0
    for name in SMALL_SCHEMES:
        scheme = catalog.catalog_scheme(name)
        if scheme.n > 24 or scheme.s < 3:
            continue
        for _ in range(4):
            base = relabelled(scheme.rel, rng)
            rel = perturbed(base, naive_star(base.tolist(), scheme.s), rng)
            witnesses = naive_constant_witnesses(rel.tolist(), scheme.s)
            result = sf.build_scheme(len(rel), rel)
            if witnesses:
                refused += 1
                assert isinstance(result, sf.Report), name
                assert [(v.axiom, v.witness) for v in result.violations] == [
                    ("constants", w) for w in witnesses
                ], name
            else:
                assert_matches_oracle(len(rel), rel)
    assert refused >= 40


test_refusal_witnesses_match_oracle_on_perturbed_matrices_on_the_radix_route = on_the_radix_route(
    test_refusal_witnesses_match_oracle_on_perturbed_matrices)


def test_refusal_witnesses_capped_in_p_q_r_order():
    # one moved pair breaks more than 25 class triples; on 64 points the count
    # check runs in several row blocks and stops once 25 witnesses are settled
    rng = np.random.default_rng(64)
    for scheme in (sf.hamming_scheme(4), sf.hamming_scheme(6), catalog.catalog_scheme("F64/F4")):
        base = relabelled(scheme.rel, rng)
        rel = perturbed(base, naive_star(base.tolist(), scheme.s), rng)
        witnesses = naive_constant_witnesses(rel.tolist(), scheme.s, cap=10_000)
        assert len(witnesses) > 25
        result = sf.build_scheme(scheme.n, rel)
        assert [v.witness for v in result.violations] == witnesses[:25]


test_refusal_witnesses_capped_in_p_q_r_order_on_the_radix_route = on_the_radix_route(
    test_refusal_witnesses_capped_in_p_q_r_order)


def test_refusal_witnesses_match_oracle_across_row_blocks():
    # Z/n has n classes; for these n a row block ends inside the rows of a class p
    rng = np.random.default_rng(67)
    for n in range(24, 41, 4):
        base = relabelled(sf.group_scheme(sf.cyclic_group(n)).rel, rng)
        for _ in range(2):
            rel = perturbed(base, naive_star(base.tolist(), n), rng)
            result = sf.build_scheme(n, rel)
            assert [v.witness for v in result.violations] == naive_constant_witnesses(rel.tolist(), n), n


def test_first_pairs_off_row_0_match_oracle():
    # H(3,2) with the pair (1, 5), (5, 1) moved to a new class 4, which row 0
    # lacks: its first pair is found by the scan of the whole matrix
    rel = sf.hamming_scheme(3).rel.copy()
    rel[1, 5] = rel[5, 1] = 4
    assert 4 not in rel[0]
    rng = np.random.default_rng(68)
    off_row_0 = 0
    for case in [rel] + [relabelled(rel, rng) for _ in range(12)]:
        off_row_0 += len(set(case[0].tolist())) < 5
        witnesses = naive_constant_witnesses(case.tolist(), 5)
        assert witnesses
        result = sf.build_scheme(8, case)
        assert [(v.axiom, v.witness) for v in result.violations] == [("constants", w) for w in witnesses]
    assert off_row_0 >= 6


test_first_pairs_off_row_0_match_oracle_on_the_radix_route = on_the_radix_route(
    test_first_pairs_off_row_0_match_oracle)


def test_star_witnesses_match_naive_scan():
    # one to three pairs moved to another class without their transposes
    rng = np.random.default_rng(69)
    bases = [catalog.catalog_scheme(name) for name in SMALL_SCHEMES] + [sf.hamming_scheme(4)]
    refused = 0
    for built in bases:
        if built.s < 3:
            continue
        for _ in range(3):
            rel = relabelled(built.rel, rng)
            for _ in range(int(rng.integers(1, 4))):
                y, z = rng.choice(built.n, size=2, replace=False)
                rel[y, z] = rng.choice([c for c in range(1, built.s) if c != rel[y, z]])
            witnesses = naive_star_witnesses(rel.tolist(), built.s)
            result = sf.build_scheme(built.n, rel)
            if witnesses:
                refused += 1
                assert [(v.axiom, v.witness) for v in result.violations] == [("star", w) for w in witnesses]
            else:
                assert isinstance(result, sf.AssociationScheme) or result.violations[0].axiom != "star"
    assert refused >= 40
    assert max(built.n for built in bases) >= 64


def test_build_scheme_owns_its_rel():
    base = sf.hamming_scheme(3).rel
    for dtype in (np.int64, np.int32, np.uint8):
        given = base.astype(dtype)
        built = sf.require(sf.build_scheme(8, given))
        assert given.flags.writeable and given.dtype == dtype
        assert np.array_equal(given, base)
        assert built.rel.dtype == np.int64 and not built.rel.flags.writeable
        assert np.array_equal(built.rel, base)
        assert not np.shares_memory(built.rel, given)


def switched(rel, star, rng, avoid=()):
    """Swap two classes p, q on a 2 x 2 pattern rel[a, c] = rel[b, d] = p,
    rel[a, d] = rel[b, c] = q, and their transposes: every row and column keeps
    its count of each class, so only the count check can refuse it.  The
    classes moved avoid those given.  None if no pattern turns up."""
    n = len(rel)
    free = np.ones(int(rel.max()) + 1, dtype=bool)
    free[[0, *avoid]] = free[[star[c] for c in avoid]] = False
    for _ in range(4 * n if n >= 4 else 0):
        a, b = rng.choice(n, size=2, replace=False)
        p, q = rel[a][:, None], rel[a][None, :]  # p = rel[a, c], q = rel[a, d]
        fits = (rel[b][None, :] == p) & (rel[b][:, None] == q) & (p != q) & free[p] & free[q]
        fits[[a, b], :] = fits[:, [a, b]] = False
        cs, ds = np.nonzero(fits)
        if len(cs):
            k = int(rng.integers(len(cs)))
            c, d = cs[k], ds[k]
            p, q = rel[a, c], rel[a, d]
            rel = rel.copy()
            rel[a, c] = rel[b, d] = q
            rel[a, d] = rel[b, c] = p
            rel[c, a] = rel[d, b] = star[q]
            rel[d, a] = rel[c, b] = star[p]
            return rel
    return None


def spy_on_generators(monkeypatch):
    """Force the generator path with one-row blocks, and record each G found."""
    monkeypatch.setattr(scheme, "_BLOCK_BYTES", (1, 1))
    found = []
    find = scheme.generating_classes

    def spy(constants, order):
        gens = find(constants, order)
        found.append(gens)
        return gens

    monkeypatch.setattr(scheme, "generating_classes", spy)
    return found


def test_generator_path_matches_oracle_on_small_catalog_schemes(monkeypatch):
    found = spy_on_generators(monkeypatch)
    rng = np.random.default_rng(75)
    for name in SMALL_SCHEMES:
        rel = catalog.catalog_scheme(name).rel
        for _ in range(2):
            base = relabelled(rel, rng)
            found.clear()
            assert_matches_oracle(len(base), base)
            # the last G found is the one checked; it reaches rank s over Q
            assert found and found[-1], name
            constants = sf.require(sf.build_scheme(len(base), base)).constants.tolist()
            assert naive_generated_rank(constants, found[-1]) == len(constants), name


def test_generator_path_refusals_match_oracle(monkeypatch):
    found = spy_on_generators(monkeypatch)
    rng = np.random.default_rng(76)
    refused = via_generators = 0
    for name in SMALL_SCHEMES:
        built = catalog.catalog_scheme(name)
        if built.n > 24 or built.s < 3:
            continue
        for _ in range(6):
            base = relabelled(built.rel, rng)
            star = naive_star(base.tolist(), built.s)
            found.clear()
            sf.build_scheme(len(base), base)
            # a moved pair leaves uneven columns, so G is not sought; a switch
            # keeps them even, and these switch only classes outside the base's G
            away = [switched(base, star, rng, avoid=found[-1]) for _ in range(2)]
            for rel in [perturbed(base, star, rng)] + away:
                if rel is None:
                    continue
                found.clear()
                witnesses = naive_constant_witnesses(rel.tolist(), built.s)
                result = sf.build_scheme(len(rel), rel)
                if not witnesses:
                    assert_matches_oracle(len(rel), rel)
                    continue
                refused += 1
                via_generators += bool(found)
                assert [(v.axiom, v.witness) for v in result.violations] == [
                    ("constants", w) for w in witnesses
                ], name
    assert refused >= 100 and via_generators >= 25, (refused, via_generators)


def test_generator_path_refusals_match_oracle_across_row_blocks(monkeypatch):
    # blocks of 4 KB end inside the rows of a class, and G's rows come first
    monkeypatch.setattr(scheme, "_BLOCK_BYTES", (1, 1 << 12))
    rng = np.random.default_rng(77)
    for n in range(24, 41, 4):
        base = relabelled(sf.group_scheme(sf.cyclic_group(n)).rel, rng)
        star = naive_star(base.tolist(), n)
        for rel in (perturbed(base, star, rng), switched(base, star, rng), switched(base, star, rng)):
            if rel is None:
                continue
            result = sf.build_scheme(n, rel)
            assert [v.witness for v in result.violations] == naive_constant_witnesses(rel.tolist(), n), n


def test_generating_classes_run_out_of_order():
    z12 = sf.group_scheme(sf.cyclic_group(12))
    assert scheme.generating_classes(z12.constants, [1]) == [1]
    # 4 and 6 generate the subgroup of order 6 only
    assert scheme.generating_classes(z12.constants, [4, 6]) is None
    gens = scheme.generating_classes(z12.constants, [4, 6, 3])
    assert gens == [4, 6, 3] and naive_generated_rank(z12.constants.tolist(), gens) == 12


def test_more_classes_than_points_refused_by_row_0():
    # each unordered pair its own class: every earlier axiom holds
    rel = np.zeros((5, 5), dtype=np.int64)
    upper = np.triu_indices(5, 1)
    rel[upper] = np.arange(1, 11)
    rel.T[upper] = rel[upper]
    expected = [(c, int(y), int(z)) for c, (y, z) in enumerate(zip(*upper), start=1) if y > 0]
    assert [(v.axiom, v.witness) for v in sf.build_scheme(5, rel).violations] == [
        ("valency", w) for w in expected
    ]


def test_more_classes_than_points_costs_no_memory():
    # n = 40 with s = 781: a constants array would ask for 3.55 GiB
    code = (
        "import numpy as np\n"
        "import schemeforge as sf\n"
        "rel = np.zeros((40, 40), dtype=np.int64)\n"
        "upper = np.triu_indices(40, 1)\n"
        "rel[upper] = np.arange(1, 781)\n"
        "rel.T[upper] = rel[upper]\n"
        "print([(v.axiom, v.witness) for v in sf.build_scheme(40, rel).violations])\n"
    )
    proc = limited_child(["-c", code])
    assert proc.returncode == 0, proc.stderr
    # row 0 holds classes 1..39; class 39 + k is the pair (1, 1 + k)
    assert proc.stdout.strip() == str([("valency", (39 + k, 1, 1 + k)) for k in range(1, 26)])


def test_radix_groups_are_greedy_and_exact():
    fano, h3 = catalog.catalog_scheme("fano-flags"), catalog.catalog_scheme("hamming-3")
    cases = {
        "fano x fano": (sf.product_scheme(fano, fano), 3),
        "Z/64": (sf.group_scheme(sf.cyclic_group(64)), 2),
        "F64/F4": (catalog.catalog_scheme("F64/F4"), 1),
        "H(8,2)": (sf.hamming_scheme(8), 1),
        "fano x H(3,2)": (sf.product_scheme(fano, h3), 2),
    }
    for name, (scheme, groups) in cases.items():
        radix, group, place = count_radices(np.asarray(scheme.rel), scheme.s)
        # a scheme's columns all hold valency[q] points of class q
        assert radix == [k + 1 for k in scheme.valency], name
        assert group == sorted(group) and group[0] == 0 and group[-1] == groups - 1, name
        for j in range(groups):
            members = [q for q in range(scheme.s) if group[q] == j]
            assert members == list(range(members[0], members[-1] + 1)), name
            assert [place[q] for q in members] == [prod(radix[members[0]:q]) for q in members], name
            width = prod(radix[q] for q in members)
            assert width <= 2 ** 53, name
            if j < groups - 1:
                assert width * radix[members[-1] + 1] > 2 ** 53, name


def uneven_matrices(rng, count):
    """Matrices that pass every check before the count check (diagonal class 0,
    transposes landing in one class, no class missing) with some column holding
    more points of a class than row 0 does: a radix read off row 0 would carry."""
    found = 0
    while found < count:
        n = int(rng.integers(4, 12))
        pairs = int(rng.integers(1, 4))
        rel = np.zeros((n, n), dtype=np.int64)
        upper = np.triu_indices(n, 1)
        lower = rng.integers(1, pairs + 1, len(upper[0]))
        rel[upper] = lower
        # a class c <= pairs transposes to itself when even, to c + pairs when odd
        rel.T[upper] = np.where(lower % 2 == 0, lower, lower + pairs)
        s = int(rel.max()) + 1
        if len(np.unique(rel)) < s:
            continue
        most = np.array([(rel == q).sum(axis=0).max() for q in range(s)])
        if (most > np.bincount(rel[0], minlength=s)).any():
            found += 1
            yield rel


def test_uneven_columns_match_oracle():
    rng = np.random.default_rng(69)
    refused = 0
    for rel in uneven_matrices(rng, 150):
        n, s = len(rel), int(rel.max()) + 1
        witnesses = naive_constant_witnesses(rel.tolist(), s)
        result = sf.build_scheme(n, rel)
        if witnesses:
            refused += 1
            assert [(v.axiom, v.witness) for v in result.violations] == [("constants", w) for w in witnesses]
        else:
            assert_matches_oracle(n, rel)
    assert refused >= 100


test_uneven_columns_match_oracle_on_the_radix_route = on_the_radix_route(
    test_uneven_columns_match_oracle)


def test_one_point_and_one_class():
    s = sf.require(sf.build_scheme(1, [[0]]))
    assert (s.n, s.s, s.star, s.valency) == (1, 1, (0,), (1,))
    assert s.constants.tolist() == [[[1]]]
    two = sf.require(sf.build_scheme(2, [[0, 1], [1, 0]]))
    assert two.constants.tolist() == [[[1, 0], [0, 1]], [[0, 1], [1, 0]]]
    assert sf.to_hypergroup(s).table == ((frozenset({0}),),)


test_one_point_and_one_class_on_the_radix_route = on_the_radix_route(
    test_one_point_and_one_class)


def test_earlier_axiom_refusals_are_unchanged():
    def witnesses(n, rel):
        return [(v.axiom, v.witness) for v in sf.build_scheme(n, rel).violations]

    assert witnesses(2, [[0, 1]]) == [("shape", (2, (1, 2)))]
    assert witnesses(2, [[0.0, 1.0], [1.0, 0.0]]) == [("shape", (2, (2, 2)))]
    assert witnesses(2, [[0, -1], [-1, 0]]) == [("classes", (0, 1, -1))]
    assert witnesses(3, [[0, 3, 3], [3, 0, 3], [3, 3, 0]]) == [("classes", (1,)), ("classes", (2,))]
    assert witnesses(3, [[1, 1, 1], [1, 0, 1], [1, 1, 0]]) == [("diagonal", (0, 0))]
    assert witnesses(3, [[0, 0, 1], [1, 0, 1], [1, 1, 0]]) == [("diagonal", (0, 1))]
    # in class order, the first pair, row-major, whose transpose leaves the
    # class the transpose of the class's first pair lies in
    rel = [[0, 1, 1, 3], [2, 0, 1, 3], [3, 2, 0, 1], [2, 3, 2, 0]]
    assert witnesses(4, rel) == [("star", (0, 2)), ("star", (3, 0)), ("star", (1, 3))]
    big = [[0] + [1] * 29] + [[1] * 30 for _ in range(29)]
    assert witnesses(30, big) == [("diagonal", (x, x)) for x in range(1, 26)]


# ---------------------------------------------------------------------------
# the two count routes: the pair histogram and the radix products

def first_pairs(rel, s):
    """(ys, zs): each class's first pair, row-major, as build_scheme reads it."""
    flat = np.asarray(rel).ravel()
    return np.divmod(np.array([np.flatnonzero(flat == c)[0] for c in range(s)]), len(rel))


def route_cases(rng):
    """(name, rel, s): relabelled catalog schemes with n <= 20 and Z/n for
    n <= 24, each with a perturbed and a switched copy when it has 3 classes or
    more."""
    bases = [(name, catalog.catalog_scheme(name)) for name in catalog.scheme_names()]
    bases = [(name, built) for name, built in bases if built.n <= 20]
    bases += [(f"Z/{n}", sf.group_scheme(sf.cyclic_group(n))) for n in range(1, 25)]
    for name, built in bases:
        base = relabelled(built.rel, rng)
        yield name, base, built.s
        if built.s >= 3:
            star = naive_star(base.tolist(), built.s)
            yield f"{name} perturbed", perturbed(base, star, rng), built.s
            rel = switched(base, star, rng)
            if rel is not None:
                yield f"{name} switched", rel, built.s


def listed(witness, n, s):
    """(p, q, r, y, z) for the first 25 class triples a witness array holds."""
    if witness is None:
        return []
    keys = np.flatnonzero(witness < n * n)[:25]
    return [(k // (s * s), k // s % s, k % s, w // n, w % n) for k, w in zip(keys.tolist(), witness[keys].tolist())]


def test_count_routes_agree_with_each_other_and_the_oracle():
    rng = np.random.default_rng(81)
    built = refused = 0
    for name, rel, s in route_cases(rng):
        ys, zs = first_pairs(rel, s)
        counted, found = scheme._histogram_counts(rel, s, ys, zs)
        radix_counted, radix_found = scheme._radix_counts(rel, s, ys, zs)
        assert counted.dtype == radix_counted.dtype == np.int64, name
        assert counted.flags.c_contiguous, name
        assert np.array_equal(counted, radix_counted), name
        witnesses = naive_constant_witnesses(rel.tolist(), s)
        assert listed(found, len(rel), s) == listed(radix_found, len(rel), s) == witnesses, name
        if witnesses:
            refused += 1
            continue
        built += 1
        expected = naive_constants(rel.tolist(), s)
        assert {key: int(counted[key]) for key in expected} == expected, name
    assert built >= 40 and refused >= 40, (built, refused)


def test_count_route_is_chosen_by_the_smallest_block(monkeypatch):
    taken = []
    for route in ("_histogram_counts", "_radix_counts"):
        def spy(*args, route=route, real=getattr(scheme, route)):
            taken.append(route)
            return real(*args)
        monkeypatch.setattr(scheme, route, spy)

    def route_of(built):
        taken.clear()
        sf.require(sf.build_scheme(built.n, built.rel))
        return taken

    complete20 = sf.require(sf.build_scheme(20, 1 - np.eye(20, dtype=np.int64)))
    h4 = sf.hamming_scheme(4)
    # at the default 64 KB: K20's 20^3 keys take 64,000 bytes, fano-flags' 21^3
    # take 74,088, and Z/16's 16^2 x 16^2 counts take 524,288
    assert scheme._BLOCK_BYTES[0] == 1 << 16
    for built, route in ((complete20, "_histogram_counts"), (h4, "_histogram_counts"),
                         (sf.group_scheme(sf.cyclic_group(8)), "_histogram_counts"),
                         (catalog.catalog_scheme("fano-flags"), "_radix_counts"),
                         (sf.group_scheme(sf.cyclic_group(16)), "_radix_counts")):
        assert route_of(built) == [route], (built.n, built.s)
    # exactly at the bound, and one byte above it: K20 is bound by its keys,
    # H(4,2) (n = 16, s = 5) by its 16^2 x 5^2 counts
    for built, at in ((complete20, 8 * 20 ** 3), (h4, 8 * 16 ** 2 * 5 ** 2)):
        monkeypatch.setattr(scheme, "_BLOCK_BYTES", (at, 1 << 21))
        assert route_of(built) == ["_histogram_counts"], built.n
        monkeypatch.setattr(scheme, "_BLOCK_BYTES", (at - 1, 1 << 21))
        assert route_of(built) == ["_radix_counts"], built.n


def limited_child(argv, cwd=HERE):
    """Run a Python child whose address space is capped at 1 GB."""
    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

    return subprocess.run([sys.executable] + argv, cwd=cwd, capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=SRC), preexec_fn=cap)


def test_oversized_class_label_costs_no_memory(tmp_path):
    # a bincount sized by the largest label would ask for 8 TB here; the sort
    # that reads the labels instead imports no numpy.ma
    code = (
        "import sys\n"
        "import schemeforge as sf\n"
        "report = sf.build_scheme(2, [[0, 2 ** 40], [2 ** 40, 0]])\n"
        "print([(v.axiom, v.witness) for v in report.violations])\n"
        "print('numpy.ma' in sys.modules)\n"
    )
    proc = limited_child(["-c", code])
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [str([("classes", (c,)) for c in range(1, 26)]), "False"]

    path = tmp_path / "huge-label.json"
    path.write_text(json.dumps({"n": 2, "rel": [[0, 2 ** 40], [2 ** 40, 0]]}))
    proc = limited_child(["-m", "schemeforge", "verify", "scheme", str(path), "--json"])
    assert proc.returncode == 1, proc.stderr
    out = json.loads(proc.stdout)
    assert out["valid"] is False
    assert [(v["axiom"], v["witness"]) for v in out["violations"]] == [("classes", [c]) for c in range(1, 26)]


def test_groups_and_rings_build_within_a_gigabyte():
    """Associativity and distributivity are read from generators, so nothing
    of g^3 is allocated: a scan of all triples of Z/512 would ask for a 1 GiB
    (512, 512, 512) int64 array, twice."""
    code = (
        "import schemeforge as sf\n"
        "g = sf.cyclic_group(512)\n"
        "p = sf.product_group(sf.cyclic_group(49), sf.cyclic_group(7))\n"
        "r = sf.zmod_ring(200)\n"
        "print(g.order, g.e, g.inv[1], p.order, p.inv[8], r.one, r.mul[7][30])\n"
    )
    proc = limited_child(["-c", code])
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["512", "0", "511", "343", "342", "1", "10"]


def _cyclic_rel(n):
    return (np.arange(n)[None, :] - np.arange(n)[:, None]) % n


def test_dense_constants_refused_above_their_bound():
    # the group scheme of Z/1024 would ask for 8 GiB of constants: refused
    # before they are allocated, within a 1 GB address space
    code = (
        "import numpy as np\n"
        "import schemeforge as sf\n"
        "n = 1024\n"
        "rel = (np.arange(n)[None, :] - np.arange(n)[:, None]) % n\n"
        "try:\n"
        "    sf.build_scheme(n, rel)\n"
        "except sf.SizeGuardError as exc:\n"
        "    print(exc)\n"
    )
    proc = limited_child(["-c", code])
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "scheme verification refused: s=1024 exceeds bound 512 (8589934592 bytes of dense constants)\n"
    bound = scheme.CONSTANTS_CLASS_BOUND
    with pytest.raises(sf.SizeGuardError, match=f"s={bound + 1} exceeds bound {bound}"):
        sf.build_scheme(bound + 1, _cyclic_rel(bound + 1))


def test_dense_constants_admitted_at_their_bound(monkeypatch):
    class Reached(Exception):
        pass

    def counted(rel, s, ys, zs):
        raise Reached(s)

    # the count check is reached, and nothing of s^3 is allocated
    monkeypatch.setattr(scheme, "_counted_constants", counted)
    bound = scheme.CONSTANTS_CLASS_BOUND
    with pytest.raises(Reached) as info:
        sf.build_scheme(bound, _cyclic_rel(bound))
    assert info.value.args == (bound,)


def test_missing_classes_are_the_first_gaps_in_the_labels():
    def witnesses(n, rel):
        return [v.witness for v in sf.build_scheme(n, rel).violations]

    assert witnesses(3, [[0, 5, 5], [5, 0, 2], [5, 2, 0]]) == [(1,), (3,), (4,)]
    rel = [[0] + [30 + x for x in range(1, 9)]] + [[30 + x] * x + [0] + [31] * (8 - x) for x in range(1, 9)]
    assert witnesses(9, rel) == [(c,) for c in range(1, 26)]


# ---------------------------------------------------------------------------
# build_hypergroup: the bitset check against the triple loops

def violations(table, e, inv):
    result = sf.build_hypergroup(table, e, inv)
    return [(v.axiom, v.witness) for v in result.violations] if isinstance(result, sf.Report) else []


def test_hypergroup_check_matches_triple_loops_on_random_tables():
    rng = np.random.default_rng(65)
    valid = 0
    for _ in range(3000):
        m = int(rng.integers(1, 7))
        density = rng.random()
        table = [[set(np.flatnonzero(rng.random(m) < density).tolist()) for _ in range(m)] for _ in range(m)]
        e = int(rng.integers(m))
        if rng.random() < 0.7:
            for a in range(m):
                table[e][a] = table[a][e] = {a}
        inv = list(range(m)) if rng.random() < 0.5 else rng.integers(0, m, m).tolist()
        expected = naive_hypergroup_violations(table, e, inv)
        assert violations(table, e, inv) == expected, (table, e, inv)
        valid += not expected
    assert valid >= 30


def test_hypergroup_check_matches_triple_loops_on_catalog_hypergroups():
    rng = np.random.default_rng(66)
    broken = 0
    for name in catalog.scheme_names() + catalog.hypergroup_names():
        h = catalog.catalog_hypergroup(name)
        table = [[set(cell) for cell in row] for row in h.table]
        assert violations(table, h.e, h.inv) == naive_hypergroup_violations(table, h.e, h.inv) == [], name
        # drop one element from a cell with two or more: usually breaks associativity
        cells = [(a, b) for a, b in itertools.product(range(h.m), repeat=2) if len(table[a][b]) > 1]
        if cells:
            a, b = cells[int(rng.integers(len(cells)))]
            table[a][b].discard(max(table[a][b]))
            found = violations(table, h.e, h.inv)
            assert found == naive_hypergroup_violations(table, h.e, h.inv), name
            broken += any(axiom == "associativity" for axiom, _ in found)
    assert broken >= 5


def test_hypergroup_check_in_blocks_matches_triple_loops(monkeypatch):
    # a 256-byte block bound puts every table with 4 or more elements in several blocks of a
    monkeypatch.setattr(hypergroup, "_BLOCK_BYTES", (1 << 16, 1 << 8))
    rng = np.random.default_rng(72)
    found = set()
    for _ in range(800):
        m = int(rng.integers(4, 8))
        density = rng.random() * 0.6
        table = [[set(np.flatnonzero(rng.random(m) < density).tolist()) | {int(rng.integers(m))}
                  for _ in range(m)] for _ in range(m)]
        for a in range(m):
            table[0][a] = table[a][0] = {a}
        expected = naive_hypergroup_violations(table, 0, list(range(m)))
        assert violations(table, 0, list(range(m))) == expected, table
        found |= {axiom for axiom, _ in expected}
    assert {"associativity", "reversibility", "inverse"} <= found


def test_cells_out_of_range_are_broken_in_row_major_order():
    table = [[{0}, {1}, {2}], [{1}, {0, 3}, set()], [{2}, {-1}, {0, 2 ** 70}]]
    expected = [("cell", (1, 1)), ("cell", (1, 2)), ("cell", (2, 1)), ("cell", (2, 2))]
    assert violations(table, 0, [0, 1, 2]) == naive_hypergroup_violations(table, 0, [0, 1, 2]) == expected


def test_hypergroup_check_spans_blocks_at_the_real_bound():
    # Z/65 needs two words per cell, so its 65^3 * 2 words split into three blocks
    m = 65
    assert m * m * 2 * 8 * m > hypergroup._BLOCK_BYTES[1]
    inv = [(-a) % m for a in range(m)]
    table = [[{(a + b) % m} for b in range(m)] for a in range(m)]
    assert violations(table, 0, inv) == []
    for a, b, extra in ((40, 50, 7), (64, 1, 33)):
        broken = [[set(cell) for cell in row] for row in table]
        broken[a][b].add(extra)
        assert violations(broken, 0, inv) == naive_hypergroup_violations(broken, 0, inv)
    # cells of one or two elements, the orbits {x, -x} of Z/129 numbered 0..64:
    # about 2 m^2 entries, so the ORs of the two full blocks of a run in two chunks or more
    fold = [min(x, 129 - x) for x in range(129)]
    table = [[{fold[(a + b) % 129], fold[(a - b) % 129]} for b in range(m)] for a in range(m)]
    identity = list(range(m))
    assert violations(table, 0, identity) == []
    mutated = [(table, identity[:60] + [61, 60] + identity[62:])]  # associative, every block compared
    broken = [[set(cell) for cell in row] for row in table]
    broken[2][3] |= {7, 64}  # some witnesses differ only at 64, in the second word
    mutated.append((broken, identity))
    for broken, inv in mutated:
        assert violations(broken, 0, inv) == naive_hypergroup_violations(broken, 0, inv) != []


def test_hypergroup_check_peak_memory_on_a_dense_table():
    # every cell off the identity's row and column is the whole set: 96^3
    # entries, whose rows gathered at once would take 14 * 96^3 * 16 bytes
    # (190 MB) for one block of a.  37.4 MB is the peak with the cells read
    # into masks, against 143.2 MB when a frozenset table and a list of one
    # Python int per entry were built first (Python 3.11, numpy 2.4)
    m = 96
    full = frozenset(range(m))
    table = [[full if a and b else {a + b} for b in range(m)] for a in range(m)]
    tracemalloc.start()
    try:
        report = sf.build_hypergroup(table, 0, range(m))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert {v.axiom for v in report.violations} == {"inverse", "reversibility"}
    assert peak <= 1.1 * 37.4 * 2 ** 20, peak / 2 ** 20


def test_first_flagged_indexes_an_all_true_block_within_the_smallest_block():
    """Two all-True blocks of 2 MB each: the first one's first flags come
    in row-major order and the scan stops there, and indexing them adds at
    most twice the smallest block to the block itself; indexing the whole
    block at once took 8 bytes a flag, 16 MB more.  A block whose one flag
    is its last entry is searched through every slice to it."""
    small, large = hypergroup._BLOCK_BYTES
    shape = (256, 128)  # one row of flags: 32 KB, so 64 rows make a block

    def ones(rows):
        return np.ones((len(range(128)[rows]),) + shape, dtype=bool)

    for cap in (1, 25):
        tracemalloc.start()
        try:
            found = hypergroup._first_flagged(128, prod(shape), ones, cap=cap)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert found == [(0, 0, z) for z in range(cap)]
        assert peak <= large + 2 * small, peak / 2 ** 20

    def last(rows):
        block = np.zeros((len(range(128)[rows]),) + shape, dtype=bool)
        block[-1, -1, -1] = True
        return block

    assert hypergroup._first_flagged(128, prod(shape), last) == [(63, 255, 127), (127, 255, 127)]


def test_class_hypergroup_shares_one_frozenset_per_distinct_cell():
    for h, distinct in ((sf.to_hypergroup(sf.group_scheme(sf.cyclic_group(64))), 64),
                        (sf.to_hypergroup(catalog.catalog_scheme("F64/F4")), 253)):
        cells = [cell for row in h.table for cell in row]
        assert len({id(cell) for cell in cells}) == len(set(cells)) == distinct


def test_class_hypergroup_equals_the_public_route():
    rng = np.random.default_rng(73)
    for name in catalog.scheme_names():
        base = catalog.catalog_scheme(name).rel
        for rel in (base, relabelled(base, rng), relabelled(base, rng)):
            scheme = sf.require(sf.build_scheme(len(rel), rel))
            table = [[set(cell) for cell in row] for row in scheme.hypergroup.table]
            assert sf.require(sf.build_hypergroup(table, 0, scheme.star)) == scheme.hypergroup, name


def test_both_routes_report_alike_on_corrupted_supports():
    rng = np.random.default_rng(74)
    axioms = set()
    for name in catalog.scheme_names():
        scheme = catalog.catalog_scheme(name)
        s = scheme.s
        for _ in range(4):
            support = scheme.constants > 0
            for _ in range(int(rng.integers(1, 4))):
                a, b, t = rng.integers(s, size=3)
                support[a, b, t] = not support[a, b, t]
            if rng.random() < 0.2:
                support[rng.integers(s), rng.integers(s)] = False
            inv = scheme.star if rng.random() < 0.8 else tuple(rng.integers(0, s, s).tolist())
            table = [[set(np.flatnonzero(support[a, b]).tolist()) for b in range(s)] for a in range(s)]
            public = sf.build_hypergroup(table, 0, inv)
            assert support_hypergroup(support, 0, inv) == public, name
            if isinstance(public, sf.Report):
                axioms |= {v.axiom for v in public.violations}
                if s <= 12:
                    assert [(v.axiom, v.witness) for v in public.violations] == naive_hypergroup_violations(table, 0, inv)
    assert {"cell", "identity", "inverse", "associativity", "reversibility"} <= axioms


def test_class_hypergroup_of_a_large_group_scheme():
    z64 = sf.group_scheme(sf.cyclic_group(64))
    h = sf.to_hypergroup(z64)
    assert h.table == tuple(tuple(frozenset({(a + b) % 64}) for b in range(64)) for a in range(64))
    assert h.inv == tuple((-a) % 64 for a in range(64))


# ---------------------------------------------------------------------------
# the triangle condition: row 0 against all pairs

def test_triangle_check_matches_scan_over_all_pairs():
    rings = [catalog.catalog_valued_ring(name) for name in catalog.valued_ring_names()]
    rings += [sf.padic_valued_ring(16, 2), sf.padic_valued_ring(27, 3), sf.trivial_valued_ring(sf.zmod_ring(2))]
    # an ultrametric value map gives every pair at one value the same count, so
    # unequal counts need a map valued_ring refuses: on Z/7, 0 at +-1, +-2 and 1 at +-3
    rings.append(ValuedRing(sf.zmod_ring(7), (0, 1, inf), (2, 0, 0, 1, 1, 0, 0)))
    rng = np.random.default_rng(68)
    for n in range(5, 13):
        values = [2] + [0] * (n - 1)
        for x in range(1, n // 2 + 1):
            values[x] = values[n - x] = int(rng.integers(2))
        rings.append(ValuedRing(sf.zmod_ring(n), (0, 1, inf), tuple(values)))
    # in Z/n the count at (0, b) equals that at (0, -b); GF(16) has no such pairing
    gf16 = sf.gf_ring(16)
    for _ in range(3):
        values = [2 if x == gf16.zero else int(rng.integers(2)) for x in range(16)]
        rings.append(ValuedRing(gf16, (0, 1, inf), tuple(values)))
    axioms = set()
    for v in rings:
        report = sf.check_triangle_condition(v)
        assert [(x.axiom, x.witness) for x in report.violations] == naive_triangle_violations(v)
        axioms |= {x.axiom for x in report.violations}
    assert axioms == {"triangle_empty", "triangle_cardinality"}


# ---------------------------------------------------------------------------
# the oracle itself under python -O

def test_constants_oracle_raises_under_python_dash_o():
    code = (
        "from helpers import naive_constants\n"
        "try:\n"
        "    naive_constants([[0, 1, 1], [1, 0, 2], [1, 2, 0]], 3)\n"
        "except ValueError:\n"
        "    print('raised')\n"
    )
    out = subprocess.run([sys.executable, "-O", "-c", code], cwd=HERE, capture_output=True, text=True)
    assert out.stdout.strip() == "raised", out.stderr
