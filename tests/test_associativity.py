"""Associativity from generators: Light's test in ``build_group``,
``build_ring`` and the single-valued hypergroup check, against the full scans
it stands in front of and the triple loops in helpers.py, on seeded
relabellings of groups and rings and their one-swapped-cell mutants."""

import math

import numpy as np
import pytest

import schemeforge as sf
from schemeforge import constructions, hypergroup

from helpers import naive_associative, naive_distributive

LOOP_BOUND = 64  # above it only the swapped-cell mutants, where they stop early, meet the triple loops


def _rings():
    """(add, mul) of Z/n for n = 19..23 and 64, of F2^6 on Z2^6 and of
    Z/49 x Z/7, each as g x g int64 tables."""
    out = {}
    for n in (19, 20, 21, 22, 23, 64):
        x = np.arange(n)
        out[f"Z/{n}"] = ((x[:, None] + x) % n, x[:, None] * x % n)
    x = np.arange(64)
    out["Z2^6"] = (x[:, None] ^ x, x[:, None] & x)
    hi, lo = np.divmod(np.arange(343), 7)
    out["Z49xZ7"] = (
        (hi[:, None] + hi) % 49 * 7 + (lo[:, None] + lo) % 7,
        hi[:, None] * hi % 49 * 7 + lo[:, None] * lo % 7,
    )
    return out


RINGS = _rings()


def relabel(t, perm):
    """The table t under x -> perm[x]."""
    out = np.empty_like(t)
    out[np.ix_(perm, perm)] = perm[t]
    return out


def swapped(t, rng, symmetric=False):
    """t with the values of two cells that differ swapped; with symmetric, the
    transposed cells are swapped too, so a commutative t stays commutative."""
    g = len(t)
    while True:
        (a, b), (c, d) = rng.integers(0, g, (2, 2)).tolist()
        if t[a, b] != t[c, d] and (not symmetric or a != b and c != d and {a, b} != {c, d}):
            break
    out = t.copy()
    out[a, b], out[c, d] = t[c, d], t[a, b]
    if symmetric:
        out[b, a], out[d, c] = out[a, b], out[c, d]
    return out


def cases(name):
    """(group tables, ring table pairs) for one base: its seeded relabelling,
    then one-swapped-cell mutants; the rings add a multiplication conjugated
    by a permutation fixing zero and one, associative and unital but, over
    the same addition, not distributive."""
    rng = np.random.default_rng(sum(map(ord, name)))
    add, mul = RINGS[name]
    perm = rng.permutation(len(add))
    add, mul = relabel(add, perm), relabel(mul, perm)
    groups = [add, swapped(add, rng), swapped(add, rng)]
    sigma = np.arange(len(add))
    one = int(np.flatnonzero((mul == sigma).all(axis=1))[0])
    rest = np.setdiff1d(sigma, [perm[0], one])
    sigma[rest] = rng.permutation(rest)
    conjugated = np.empty_like(mul)
    conjugated[np.ix_(sigma, sigma)] = sigma[mul]
    rings = [(add, mul), (add, swapped(mul, rng, symmetric=True)), (add, conjugated)]
    return groups, rings


def verdict(build, *args):
    """What a builder returns, in a comparable form: the ValueError text, a
    Report's violations, or the built value's fields."""
    try:
        built = build(*args)
    except ValueError as exc:
        return str(exc)
    if isinstance(built, sf.Report):
        return built.violations
    if isinstance(built, sf.Hypergroup):
        return built
    if isinstance(built, sf.FiniteGroup):
        return built.order, built.cayley, built.e, built.inv
    return built.add, built.mul, built.zero, built.one, verdict(lambda: built.additive)


SCAN_ONLY = (1 << 40, hypergroup._BLOCK_BYTES[1])  # a smallest block that every scan fits


def group_by_loops(t):
    """build_group's associativity refusal by the triple loop, or None."""
    found = naive_associative(t.tolist())
    return f"not associative at {found[0]}" if found else None


def ring_by_loops(add, mul):
    """build_ring's verdict past its additive group and commutativity, by
    the triple loops: the refusal text, or None for a ring."""
    g, add, mul = len(add), add.tolist(), mul.tolist()
    if naive_associative(mul):
        return "multiplication must be associative"
    ones = [c for c in range(g) if mul[c] == list(range(g))]
    if len(ones) != 1:
        return f"unit candidates: {ones}"
    found = naive_distributive(add, mul)
    if found is not None:
        return f"not distributive at {found}"
    return None


def hypergroup_inputs(t):
    """The singleton table of t and its support tensor."""
    g = len(t)
    support = np.zeros((g, g, g), dtype=bool)
    support[np.arange(g)[:, None], np.arange(g), t] = True
    return [[{int(x)} for x in row] for row in t], support


@pytest.mark.parametrize("name", list(RINGS))
def test_group_routes_agree(name, monkeypatch):
    """build_group by Light's test, by the chunked full scan alone (a smallest
    block that every scan fits) and by the triple loop: the same group or
    the same refusal text."""
    groups, _ = cases(name)
    light = [verdict(sf.build_group, t) for t in groups]
    monkeypatch.setattr(hypergroup, "_BLOCK_BYTES", SCAN_ONLY)
    assert [verdict(sf.build_group, t) for t in groups] == light
    assert not isinstance(light[0], str)
    for k, (t, got) in enumerate(zip(groups, light)):
        if len(t) <= LOOP_BOUND or k > 0:
            want = group_by_loops(t)
            assert got == want if want else not str(got).startswith("not associative")
    assert all(isinstance(got, str) for got in light[1:])


@pytest.mark.parametrize("name", list(RINGS))
def test_ring_routes_agree(name, monkeypatch):
    """build_ring by Light's test and the additive generators, by the chunked
    full scans alone and by the triple loops."""
    _, rings = cases(name)
    light = [verdict(sf.build_ring, add, mul) for add, mul in rings]
    monkeypatch.setattr(hypergroup, "_BLOCK_BYTES", SCAN_ONLY)
    assert [verdict(sf.build_ring, add, mul) for add, mul in rings] == light
    assert not isinstance(light[0], str) and isinstance(light[2], str)
    for k, ((add, mul), got) in enumerate(zip(rings, light)):
        if len(add) <= LOOP_BOUND or k == 1:
            want = ring_by_loops(add, mul)
            assert got == want if want else not isinstance(got, str)


@pytest.mark.parametrize("name", list(RINGS))
def test_hypergroup_routes_agree(name, monkeypatch):
    """build_hypergroup and support_hypergroup on the singleton tables of the
    groups and their mutants, with the relabelled group's identity and
    inverses: the same hypergroup or the same violations with Light's test
    as with the blocked scan alone (a smallest block that every scan fits),
    and associativity witnesses equal to the triple loop's first 25."""
    groups, _ = cases(name)
    e = int(np.flatnonzero((groups[0] == np.arange(len(groups[0]))).all(axis=1))[0])
    inv = (groups[0] == e).argmax(axis=1).tolist()
    inputs = [hypergroup_inputs(t) for t in groups]

    def run():
        return [(verdict(sf.build_hypergroup, table, e, inv), verdict(hypergroup.support_hypergroup, support, e, inv))
                for table, support in inputs]

    light = run()
    assert all(built == from_support for built, from_support in light)
    assert isinstance(light[0][0], sf.Hypergroup)
    for t, (got, _) in zip(groups[1:], light[1:]):
        assert [v.witness for v in got if v.axiom == "associativity"] == naive_associative(t.tolist(), 25)
    if len(groups[0]) > LOOP_BOUND:
        inputs = inputs[1:]  # the blocked scan of the valid 343-element table takes seconds
        light = light[1:]
    monkeypatch.setattr(hypergroup, "_BLOCK_BYTES", SCAN_ONLY)
    assert run() == light


def test_routes_are_taken_on_each_side_of_the_smallest_block(monkeypatch):
    """The m^3 scan of Z/20 fits the 64 KB block and runs alone; from Z/21 on
    Light's test runs first, and the blocked scan (which ORs cells in
    _or_cells) only on a table it does not accept.  A table with a cell of
    two elements is scanned at any m."""
    taken = []
    for route in ("_light_associative", "_or_cells"):
        def spy(*args, route=route, real=getattr(hypergroup, route)):
            if taken[-1:] != [route]:
                taken.append(route)
            return real(*args)
        monkeypatch.setattr(hypergroup, route, spy)
    rng = np.random.default_rng(20)
    expected = {
        20: (["_or_cells"], ["_or_cells"]),
        21: (["_light_associative"], ["_light_associative", "_or_cells"]),
    }
    for m, (valid, mutant) in expected.items():
        t = RINGS[f"Z/{m}"][0]
        inv = (-np.arange(m) % m).tolist()
        for table, want, accepted in ((t, valid, True), (swapped(t, rng), mutant, False)):
            taken.clear()
            table, support = hypergroup_inputs(table)
            built = sf.build_hypergroup(table, 0, inv)
            assert taken == want, m
            taken.clear()
            assert hypergroup.support_hypergroup(support, 0, inv) == built
            assert taken == want, m
            assert isinstance(built, sf.Hypergroup) == accepted
    taken.clear()
    table = [[{(a + b) % 21} for b in range(21)] for a in range(21)]
    table[0][0] = {0, 1}
    assert isinstance(sf.build_hypergroup(table, 0, (-np.arange(21) % 21).tolist()), sf.Report)
    assert taken == ["_or_cells"]


def test_builders_take_light_test_on_the_same_side(monkeypatch):
    """build_group and build_ring scan Z/20's g^3 triples in one block and
    put Z/21's tables to Light's test first: once for a group, twice for a
    ring (its addition, then its multiplication), and distributivity is
    read from the additive generators only at 21."""
    taken = []
    for route in ("_light_associative", "_generators"):
        def spy(t, route=route, real=getattr(constructions, route)):
            taken.append((route, len(t)))
            return real(t)
        monkeypatch.setattr(constructions, route, spy)
    for n in (20, 21):
        add, mul = RINGS[f"Z/{n}"]
        taken.clear()
        sf.build_group(add)
        assert taken == ([] if n == 20 else [("_light_associative", 21)])
        taken.clear()
        sf.build_ring(add, mul)
        assert taken == ([] if n == 20 else [("_light_associative", 21)] * 2 + [("_generators", 21)])


def naive_generators(t):
    """The greedy generating set by its definition: the smallest element
    outside the closure of the generators so far joins them, the closure
    being taken under right multiplication by every generator."""
    g, gens, closed = len(t), [], set()
    while len(closed) < g:
        gens.append(min(set(range(g)) - closed))
        closed, todo = set(), list(gens)
        while todo:
            r = todo.pop()
            if r not in closed:
                closed.add(r)
                todo += [t[r][x] for x in gens]
    return gens


UNRELABELLED_GENERATORS = {"Z2^6": [0, 1, 2, 4, 8, 16, 32], "Z49xZ7": [0, 1, 7]}  # Z/n: [0, 1]


@pytest.mark.parametrize("name", list(RINGS))
def test_generators_are_greedy(name):
    """_generators equals the greedy set by definition on every table here,
    relabelled groups, their mutants and the rings' multiplications; a
    group's has at most log2(g) + 1 elements, as each one after the first
    at least doubles the subgroup reached."""
    groups, rings = cases(name)
    for t in groups + [mul for _, mul in rings]:
        assert hypergroup._generators(t) == naive_generators(t.tolist())
    assert len(hypergroup._generators(groups[0])) <= math.log2(len(groups[0])) + 1
    assert hypergroup._generators(RINGS[name][0]) == UNRELABELLED_GENERATORS.get(name, [0, 1])



def test_light_test_settles_every_element_from_the_generators():
    """A table that is associative at every generator is associative: on
    random tables of 2 and 3 elements (every table of 2) the test agrees with
    the triple loop, and so does the check of the first generator alone only
    on some of them."""
    rng = np.random.default_rng(3)
    tables = [np.array(cells).reshape(2, 2) for cells in np.ndindex(2, 2, 2, 2)]
    tables += [rng.integers(0, 3, (3, 3)) for _ in range(300)]
    first_only = 0
    for t in tables:
        assert hypergroup._light_associative(t) == (not naive_associative(t.tolist()))
        a = hypergroup._generators(t)[0]
        first_only += np.array_equal(t[t[:, a]], t[:, t[a]]) != (not naive_associative(t.tolist()))
    assert first_only > 0
