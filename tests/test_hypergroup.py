import itertools
import json
import time
from math import inf

import pytest

import schemeforge as sf

from helpers import set_product

import library_transcript


K_TABLE = [[{0}, {1}], [{1}, {0, 1}]]
SIGN_TABLE = [
    [{0}, {1}, {2}],
    [{1}, {1}, {0, 1, 2}],
    [{2}, {0, 1, 2}, {2}],
]


def z_hypergroup(n):
    return sf.group_hypergroup(sf.cyclic_group(n))


# ---------------------------------------------------------------------------
# the hypergroup-layer transcript

def test_library_transcript_replays_unchanged():
    with open(library_transcript.TRANSCRIPT, encoding="utf-8") as fh:
        table = json.load(fh)
    start = time.perf_counter()
    replayed = library_transcript.rows()
    elapsed = time.perf_counter() - start
    assert [row["call"] for row in replayed] == [row["call"] for row in table]
    for row, expected in zip(replayed, table):
        assert row == expected
    assert elapsed < 2.0


# ---------------------------------------------------------------------------
# build_hypergroup

def test_build_krasner():
    h = sf.build_hypergroup(K_TABLE, 0, (0, 1))
    assert isinstance(h, sf.Hypergroup)
    assert h.table[1][1] == {0, 1}
    assert h == sf.krasner_hypergroup()


def test_build_group_wrapped_in_singletons():
    for n in [1, 2, 5]:
        g = sf.cyclic_group(n)
        h = sf.group_as_hypergroup(g.cayley, g.e, g.inv)
        assert isinstance(h, sf.Hypergroup)
        assert all(len(h.table[a][b]) == 1 for a in range(n) for b in range(n))


def test_build_sign_hypergroup():
    h = sf.build_hypergroup(SIGN_TABLE, 0, (0, 2, 1))
    assert isinstance(h, sf.Hypergroup)
    assert h.table[1][2] == {0, 1, 2}
    assert h == sf.sign_hypergroup()


def test_build_rejects_empty_cell():
    table = [[{0}, set()], [{1}, {0}]]
    report = sf.build_hypergroup(table, 0, (0, 1))
    assert isinstance(report, sf.HypergroupReport)
    assert report.violations[0].axiom == "cell"
    assert report.violations[0].witness == (0, 1)


def test_build_rejects_missing_identity():
    table = [[{1}, {0}], [{0}, {1}]]
    report = sf.build_hypergroup(table, 0, (0, 1))
    assert isinstance(report, sf.HypergroupReport)
    assert any(v.axiom == "identity" for v in report.violations)


def test_build_rejects_boolean_semigroup():
    # 1+1 = {1} leaves 1 without an inverse
    table = [[{0}, {1}], [{1}, {1}]]
    report = sf.build_hypergroup(table, 0, (0, 1))
    assert isinstance(report, sf.HypergroupReport)
    assert any(v.axiom == "inverse" and v.witness[0] == 1 for v in report.violations)


def test_build_rejects_wrong_stored_inverse():
    report = sf.build_hypergroup(K_TABLE, 0, (0, 0))
    assert isinstance(report, sf.HypergroupReport)
    assert any(v.axiom == "inverse" for v in report.violations)


def test_build_rejects_double_inverse():
    # both 1 and 2 invert 1: uniqueness fails before associativity is reached
    table = [
        [{0}, {1}, {2}],
        [{1}, {0}, {0}],
        [{2}, {0}, {0}],
    ]
    report = sf.build_hypergroup(table, 0, (0, 1, 2))
    assert isinstance(report, sf.HypergroupReport)
    assert any(v.axiom == "inverse" for v in report.violations)


def test_build_reports_associativity_and_reversibility_witnesses():
    # broken three-element table: (1*2)*2 != 1*(2*2) and 2 in 2*2 cannot revert
    table = [
        [{0}, {1}, {2}],
        [{1}, {2}, {0}],
        [{2}, {0}, {2}],
    ]
    report = sf.build_hypergroup(table, 0, (0, 2, 1))
    assert isinstance(report, sf.HypergroupReport)
    axioms = {v.axiom for v in report.violations}
    assert "associativity" in axioms
    assert "reversibility" in axioms


def test_axioms_hold_exhaustively_on_valid_instances():
    for h in [sf.krasner_hypergroup(), sf.sign_hypergroup(), z_hypergroup(4)]:
        for a, b, c in itertools.product(range(h.m), repeat=3):
            assert set_product(h.table, h.table[a][b], {c}) == set_product(
                h.table, {a}, h.table[b][c]
            )
        for a, b in itertools.product(range(h.m), repeat=2):
            for c in h.table[a][b]:
                assert a in h.table[c][h.inv[b]]
                assert b in h.table[h.inv[a]][c]


# ---------------------------------------------------------------------------
# sub-hypergroups and normality

def test_sub_hypergroups_krasner():
    assert sf.sub_hypergroups(sf.krasner_hypergroup()) == [
        frozenset({0}), frozenset({0, 1})
    ]


def test_sub_hypergroups_sign():
    # {0,1} and {0,2} are closed under + but their nonzero element has no
    # inverse in the restricted table, so only the trivial subs remain
    assert sf.sub_hypergroups(sf.sign_hypergroup()) == [
        frozenset({0}), frozenset({0, 1, 2})
    ]


def test_sub_hypergroups_group_case_is_subgroup_lattice():
    assert sf.sub_hypergroups(z_hypergroup(3)) == [frozenset({0}), frozenset({0, 1, 2})]
    subs = sf.sub_hypergroups(z_hypergroup(4))
    assert subs == [frozenset({0}), frozenset({0, 1, 2, 3}), frozenset({0, 2})]


def test_sub_hypergroups_size_guard():
    big = z_hypergroup(21)
    with pytest.raises(sf.SizeGuardError, match="20"):
        sf.sub_hypergroups(big)


def test_is_normal_sub():
    h = z_hypergroup(3)
    assert sf.is_normal_sub(h, {0}) == (True, True)
    s3inn = sf.partition_hypergroup(
        sf.symmetric_group(3), sf.inner_automorphisms(sf.symmetric_group(3))
    )
    assert sf.is_normal_sub(s3inn, {0, 2}) == (True, True)
    # commutative input: always normal
    assert sf.is_normal_sub(sf.sign_hypergroup(), {0})[0] is True


def test_is_normal_sub_rejects_non_sub():
    with pytest.raises(ValueError, match="not a sub-hypergroup"):
        sf.is_normal_sub(sf.sign_hypergroup(), {0, 1})
    with pytest.raises(ValueError, match=r"^\[0, 1\] is not a sub-hypergroup$"):
        sf.quotient_hypergroup(sf.sign_hypergroup(), {0, 1})


def test_normality_and_quotient_name_an_empty_or_out_of_range_set():
    k = sf.krasner_hypergroup()
    for call in (sf.is_normal_sub, sf.quotient_hypergroup):
        with pytest.raises(ValueError, match="^element set must be nonempty$"):
            call(k, set())
        with pytest.raises(ValueError, match=r"^element set out of range: \(0, 5\)$"):
            call(k, {0, 5})


def test_non_normal_sub_in_group():
    s3 = sf.group_hypergroup(sf.symmetric_group(3))
    t = next(x for x in range(1, 6) if x in s3.table[x][x] or s3.inv[x] == x)
    normal, strongly = sf.is_normal_sub(s3, {0, t})
    assert not normal and not strongly


# ---------------------------------------------------------------------------
# quotients

def test_quotient_group_case():
    q = sf.quotient_hypergroup(z_hypergroup(4), {0, 2})
    assert q == z_hypergroup(2)


def test_quotient_by_identity_is_same():
    h = sf.sign_hypergroup()
    q = sf.quotient_hypergroup(h, {0})
    assert q == h


def test_quotient_partition_hypergroup_by_a3():
    g = sf.symmetric_group(3)
    h = sf.partition_hypergroup(g, sf.inner_automorphisms(g))
    q = sf.quotient_hypergroup(h, {0, 2})
    assert q == z_hypergroup(2)


def test_quotient_requires_normal():
    s3 = sf.group_hypergroup(sf.symmetric_group(3))
    t = next(x for x in range(1, 6) if s3.inv[x] == x)
    with pytest.raises(ValueError, match="not normal"):
        sf.quotient_hypergroup(s3, {0, t})


# ---------------------------------------------------------------------------
# congruences

def test_congruence_trivial_and_total():
    h = sf.krasner_hypergroup()
    assert sf.congruence_quotient(h, sf.CongruenceRelation.trivial(2)) == h
    total = sf.congruence_quotient(h, sf.CongruenceRelation.total(2))
    assert total.m == 1


def test_congruence_z6_mod_3():
    h = z_hypergroup(6)
    c = sf.CongruenceRelation.from_blocks([[0, 3], [1, 4], [2, 5]], 6)
    assert sf.congruence_quotient(h, c) == z_hypergroup(3)


def test_congruence_rejects_bad_partition():
    h = z_hypergroup(6)
    bad = sf.CongruenceRelation.from_blocks([[0, 1], [2, 3], [4, 5]], 6)
    with pytest.raises(sf.CongruenceError):
        sf.congruence_quotient(h, bad)


def test_congruence_product_condition_witnessed():
    h = z_hypergroup(5)
    c = sf.CongruenceRelation.from_blocks([[0], [1, 2, 3], [4]], 5)
    bad = sf.congruence_violations(h, c)
    assert bad and bad[0].axiom == "product_congruence"
    with pytest.raises(sf.CongruenceError):
        sf.congruence_quotient(h, c)


def test_congruence_inverse_condition_witnessed():
    # tamper with the stored inverse map so only the inverse condition breaks
    import dataclasses

    h = dataclasses.replace(z_hypergroup(4), inv=(0, 1, 3, 2))
    c = sf.CongruenceRelation.from_blocks([[0, 2], [1, 3]], 4)
    bad = sf.congruence_violations(h, c)
    assert bad and bad[0].axiom == "inverse_congruence"


def test_congruence_quotient_matches_kernel_quotient():
    cases = [
        (z_hypergroup(6), sf.CongruenceRelation.from_blocks([[0, 3], [1, 4], [2, 5]], 6)),
        (sf.krasner_hypergroup(), sf.CongruenceRelation.trivial(2)),
        (z_hypergroup(4), sf.CongruenceRelation.from_blocks([[0, 2], [1, 3]], 4)),
    ]
    for h, c in cases:
        q1 = sf.congruence_quotient(h, c)
        kernel = {x for x in range(h.m) if c.block_of[x] == c.block_of[h.e]}
        q2 = sf.quotient_hypergroup(h, kernel)
        assert sf.hypergroup_isomorphic(q1, q2) is not None


def test_projection_strictness():
    h = z_hypergroup(6)
    c = sf.CongruenceRelation.from_blocks([[0, 3], [1, 4], [2, 5]], 6)
    q = sf.congruence_quotient(h, c)
    blocks = {x: c.block_of[x] for x in range(6)}
    for x, y in itertools.product(range(6), repeat=2):
        assert q.table[blocks[x]][blocks[y]] == frozenset(blocks[z] for z in h.table[x][y])


def set_partitions(m):
    """Every partition of 0..m-1 as an element -> block map, blocks numbered by
    smallest member (restricted growth strings)."""
    def grow(prefix, k):
        if len(prefix) == m:
            yield tuple(prefix)
            return
        for b in range(k + 1):
            yield from grow(prefix + [b], max(k, b + 1))

    return list(grow([], 0))


def test_congruence_quotient_is_strict_on_every_partition():
    """From the definition, over every partition of a few small hypergroups:
    either the congruence check refuses it, or the quotient's cell at
    ([x], [y]) is the set of blocks that x*y meets, for every x and y."""
    k, s3 = sf.krasner_hypergroup(), sf.symmetric_group(3)
    # with the number of congruences: for groups, one per normal subgroup
    cases = [
        (sf.product_hypergroup(k, k), 4), (z_hypergroup(6), 4), (sf.group_hypergroup(s3), 3),
        (sf.partition_hypergroup(s3, sf.inner_automorphisms(s3)), 3),
        (sf.linear_hypergroup((0, 1, inf)), 3),
    ]
    for h, congruences in cases:
        partitions = set_partitions(h.m)
        assert len(partitions) <= 203
        accepted = 0
        for block_of in partitions:
            c = sf.CongruenceRelation(block_of)
            if sf.congruence_violations(h, c):
                with pytest.raises(sf.VerificationError, match="not a congruence relation"):
                    sf.congruence_quotient(h, c)
                continue
            q = sf.congruence_quotient(h, c)
            accepted += 1
            for x, y in itertools.product(range(h.m), repeat=2):
                assert q.table[block_of[x]][block_of[y]] == {block_of[t] for t in h.table[x][y]}
        assert accepted == congruences


def test_congruence_witnesses_match_definition_on_every_partition():
    """Every witness list, from the definition: the cells (x, y), in row-major
    order, whose block image differs from that of the smallest members of
    their blocks, then each x whose inverse's block differs from that of its
    block's smallest member's inverse, at most 25 in all."""
    k, s3 = sf.krasner_hypergroup(), sf.symmetric_group(3)
    for h in (sf.product_hypergroup(k, k), z_hypergroup(6), sf.group_hypergroup(s3),
              sf.linear_hypergroup((0, 1, inf))):
        many = 0
        for block_of in set_partitions(h.m):
            rep = [block_of.index(block_of[x]) for x in range(h.m)]

            def image(x, y):
                return {block_of[t] for t in h.table[x][y]}

            expected = [("product_congruence", ((rep[x], rep[y]), (x, y)))
                        for x, y in itertools.product(range(h.m), repeat=2) if image(x, y) != image(rep[x], rep[y])]
            expected += [("inverse_congruence", (rep[x], x)) for x in range(h.m)
                         if block_of[h.inv[x]] != block_of[h.inv[rep[x]]]]
            got = sf.congruence_violations(h, sf.CongruenceRelation(block_of))
            assert [(v.axiom, v.witness) for v in got] == expected[:25], (h.m, block_of)
            many += sum(axiom == "product_congruence" for axiom, _ in expected[:25]) > 1
        assert many > 0, h.m


# ---------------------------------------------------------------------------
# products

def test_product_krasner_square():
    h = sf.krasner_hypergroup()
    p = sf.product_hypergroup(h, h)
    assert p.m == 4
    # (1,1) has index 3; its square is {0,1} x {0,1}
    assert p.table[3][3] == {0, 1, 2, 3}


def test_product_with_singleton():
    h = sf.sign_hypergroup()
    one = sf.group_hypergroup(sf.cyclic_group(1))
    p = sf.product_hypergroup(h, one)
    assert p == h


def test_product_of_groups_is_group_product():
    z2, z3 = sf.cyclic_group(2), sf.cyclic_group(3)
    p = sf.product_hypergroup(sf.group_hypergroup(z2), sf.group_hypergroup(z3))
    direct = sf.group_hypergroup(sf.product_group(z2, z3))
    assert p == direct
    klein = sf.product_hypergroup(sf.group_hypergroup(z2), sf.group_hypergroup(z2))
    assert klein == sf.group_hypergroup(sf.product_group(z2, z2))


def test_commutativity_preserved_by_product_and_quotient():
    commutative = [
        sf.krasner_hypergroup(), sf.sign_hypergroup(), z_hypergroup(3), z_hypergroup(4)
    ]
    for h1 in commutative:
        for h2 in commutative:
            assert sf.product_hypergroup(h1, h2).is_commutative()
    for h in commutative:
        for sub in sf.sub_hypergroups(h):
            assert sf.quotient_hypergroup(h, sub).is_commutative()


# ---------------------------------------------------------------------------
# isomorphism

def test_isomorphic_relabeled_krasner():
    h = sf.krasner_hypergroup()
    # swap labels: element 1 is the identity
    table = [[{1, 0}, {0}], [{0}, {1}]]
    other = sf.build_hypergroup(table, 1, (0, 1))
    assert isinstance(other, sf.Hypergroup)
    phi = sf.hypergroup_isomorphic(h, other)
    assert phi == (1, 0)


def test_krasner_not_isomorphic_to_z2():
    assert sf.hypergroup_isomorphic(sf.krasner_hypergroup(), z_hypergroup(2)) is None


def test_isomorphism_guard():
    h = z_hypergroup(25)
    with pytest.raises(sf.SizeGuardError, match="24"):
        sf.hypergroup_isomorphic(h, h)


def test_group_specialization_of_all_operations():
    # on singleton-cell inputs everything collapses to classical group theory
    z4 = z_hypergroup(4)
    assert sf.sub_hypergroups(z4) == [
        frozenset({0}), frozenset({0, 1, 2, 3}), frozenset({0, 2})
    ]
    q = sf.quotient_hypergroup(z4, {0, 2})
    assert all(len(q.table[a][b]) == 1 for a in range(2) for b in range(2))
    p = sf.product_hypergroup(z4, z_hypergroup(2))
    assert all(len(c) == 1 for row in p.table for c in row)
