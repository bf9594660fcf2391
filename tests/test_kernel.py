"""The packed-count kernel of build_scheme, the bitset axiom check of
build_hypergroup and the row-0 triangle check, against the by-definition
oracles in helpers.py under seeded random relabellings and perturbations."""

import itertools
import os
import subprocess
import sys
from math import inf

import numpy as np

import schemeforge as sf
from schemeforge import catalog
from schemeforge.constructions import ValuedRing
from schemeforge.hypergroup import hypergroup_violations
from schemeforge.scheme import pack_width

from helpers import (
    naive_constant_witnesses,
    naive_constants,
    naive_hypergroup_violations,
    naive_star,
    naive_triangle_violations,
)

HERE = os.path.dirname(os.path.abspath(__file__))
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


# ---------------------------------------------------------------------------
# build_scheme: constants, star and valency

def test_constants_match_oracle_on_small_catalog_schemes_under_relabelling():
    rng = np.random.default_rng(61)
    for name in SMALL_SCHEMES:
        rel = catalog.catalog_scheme(name).rel
        assert_matches_oracle(len(rel), np.array(rel))
        for _ in range(2):
            assert_matches_oracle(len(rel), relabelled(rel, rng))


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


def test_refusal_witnesses_match_oracle_across_row_blocks():
    # Z/n has n classes; for these n a row block ends inside the rows of a class p
    rng = np.random.default_rng(67)
    for n in range(24, 41, 4):
        base = relabelled(sf.group_scheme(sf.cyclic_group(n)).rel, rng)
        for _ in range(2):
            rel = perturbed(base, naive_star(base.tolist(), n), rng)
            result = sf.build_scheme(n, rel)
            assert [v.witness for v in result.violations] == naive_constant_witnesses(rel.tolist(), n), n


def test_pack_width_is_the_largest_exact_width():
    for n in (1, 2, 8, 441, 4096, 2 ** 26):
        g = pack_width(n)
        assert (n + 1) ** g <= 2 ** 53 < (n + 1) ** (g + 1), n
    assert pack_width(441) == 6 and pack_width(2 ** 26) == 2


def test_one_point_and_one_class():
    s = sf.require(sf.build_scheme(1, [[0]]))
    assert (s.n, s.s, s.star, s.valency) == (1, 1, (0,), (1,))
    assert s.constants.tolist() == [[[1]]]
    two = sf.require(sf.build_scheme(2, [[0, 1], [1, 0]]))
    assert two.constants.tolist() == [[[1, 0], [0, 1]], [[0, 1], [1, 0]]]
    assert sf.to_hypergroup(s).table == ((frozenset({0}),),)


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
# build_hypergroup: the bitset check against the triple loops

def violations(table, e, inv):
    return [(v.axiom, v.witness) for v in hypergroup_violations(table, e, inv)]


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
