"""Concrete families: group schemes, partition schemes from automorphism orbits,
quotient hyperrings, Hamming and flag schemes, linearly ordered hypergroups,
valuation schemes, and projective geometries extracted from hypergroups.

Everything here is finite and exhaustively verified at construction time.
A group's table, a ring's product and a quotient hyperring's product are
single-valued, and their associativity is ``hypergroup._table_witnesses``,
the one check of every single-valued table.
"""

from __future__ import annotations

import dataclasses
import itertools
from collections.abc import Iterable, Sequence
from math import inf
from numbers import Integral

import numpy as np

from .errors import _WITNESS_CAP, Report, SizeGuardError, VerificationError, Violation, require
from .hypergroup import (
    Hypergroup,
    _first_flagged,
    _generators,
    _image,
    _members,
    _table_witnesses,
    build_hypergroup,
    group_as_hypergroup,
)
from .scheme import AssociationScheme, build_scheme

HAMMING_LENGTH_BOUND = 12
HAMMING_POINT_BOUND = 4096
GEOMETRY_POINT_BOUND = 64


# ---------------------------------------------------------------------------
# finite groups and automorphism subgroups

@dataclasses.dataclass(frozen=True, eq=False)
class FiniteGroup:
    order: int
    cayley: tuple[tuple[int, ...], ...]
    e: int
    inv: tuple[int, ...]


def build_group(cayley) -> FiniteGroup:
    """Verify the group axioms on a Cayley table; identity and inverses are derived.

    Associativity is ``hypergroup._table_witnesses`` with a cap of 1: Light's
    test where the g^3 scan outgrows the smallest block, from g = 21 on,
    O(g^2) for each of at most log2(g) + 1 generators of a group of order
    g, and the blocked scan, g^2 int64s an x, on a smaller table or one the
    test does not accept.  The refusal names the first non-associative
    (x, y, z) in row-major order; nothing of size g^3 is allocated beyond
    the smallest block.
    """
    t = np.asarray(cayley, dtype=np.int64)
    g = t.shape[0]
    if t.ndim != 2 or t.shape != (g, g) or g == 0:
        raise ValueError("Cayley table must be square and nonempty")
    if t.min() < 0 or t.max() >= g:
        raise ValueError("Cayley table entries out of range")
    witness = _table_witnesses(t, 1)
    if witness:
        raise ValueError(f"not associative at {witness[0]}")
    idx = np.arange(g)
    es = [e for e in range(g) if np.array_equal(t[e], idx) and np.array_equal(t[:, e], idx)]
    if len(es) != 1:
        raise ValueError(f"identity candidates: {es}")
    e = es[0]
    inv = []
    for a in range(g):
        partners = np.nonzero(t[a] == e)[0]
        if len(partners) != 1 or t[partners[0], a] != e:
            raise ValueError(f"no unique inverse for {a}")
        inv.append(int(partners[0]))
    return FiniteGroup(order=g, cayley=tuple(map(tuple, t.tolist())), e=e, inv=tuple(inv))


def cyclic_group(n: int) -> FiniteGroup:
    return build_group([[(a + b) % n for b in range(n)] for a in range(n)])


def _perm_group(perms: list[tuple[int, ...]]) -> FiniteGroup:
    perms = sorted(perms)
    pos = {p: i for i, p in enumerate(perms)}
    cayley = [
        [pos[tuple(p[q[i]] for i in range(len(q)))] for q in perms]
        for p in perms
    ]
    return build_group(cayley)


def _parity(perm: tuple[int, ...]) -> int:
    return sum(perm[i] > perm[j] for i in range(len(perm)) for j in range(i + 1, len(perm))) % 2


def symmetric_group(k: int) -> FiniteGroup:
    """S_k on lexicographically ordered permutations; the identity is element 0."""
    if not 1 <= k <= 4:
        raise SizeGuardError(f"symmetric_group supports k <= 4, got {k}")
    return _perm_group([tuple(p) for p in itertools.permutations(range(k))])


def alternating_group(k: int) -> FiniteGroup:
    if not 1 <= k <= 4:
        raise SizeGuardError(f"alternating_group supports k <= 4, got {k}")
    return _perm_group([tuple(p) for p in itertools.permutations(range(k)) if _parity(tuple(p)) == 0])


def product_group(g1: FiniteGroup, g2: FiniteGroup) -> FiniteGroup:
    """Direct product; (a1, a2) gets index a1*order2 + a2."""
    n1, n2 = g1.order, g2.order
    cayley = [
        [g1.cayley[a1][b1] * n2 + g2.cayley[a2][b2] for b1 in range(n1) for b2 in range(n2)]
        for a1 in range(n1) for a2 in range(n2)
    ]
    return build_group(cayley)


def group_hypergroup(g: FiniteGroup) -> Hypergroup:
    return group_as_hypergroup(g.cayley, g.e, g.inv)


@dataclasses.dataclass(frozen=True, eq=False)
class AutSubgroup:
    """A group of automorphisms of ``group``; values come from ``aut_subgroup``,
    which verifies that ``perms`` is closed under composition and inversion."""

    group: FiniteGroup
    perms: tuple[tuple[int, ...], ...]


def aut_subgroup(g: FiniteGroup, perms: Iterable[Sequence[int]]) -> AutSubgroup:
    """Verify a set of permutations forms a subgroup of the automorphism group."""
    t = np.array(g.cayley, dtype=np.int64)
    seen = {tuple(int(x) for x in p) for p in perms}
    ident = tuple(range(g.order))
    if ident not in seen:
        raise ValueError("automorphism set must contain the identity map")
    for p in seen:
        arr = np.array(p, dtype=np.int64)
        if sorted(p) != list(range(g.order)):
            raise ValueError(f"not a permutation: {p}")
        if not np.array_equal(arr[t], t[np.ix_(arr, arr)]):
            raise ValueError(f"not an automorphism: {p}")
    for p, q in itertools.product(seen, repeat=2):
        comp = tuple(p[q[i]] for i in range(g.order))
        if comp not in seen:
            raise ValueError("automorphism set not closed under composition")
    for p in seen:
        if tuple(sorted(range(g.order), key=p.__getitem__)) not in seen:  # the inverse permutation
            raise ValueError("automorphism set not closed under inversion")
    return AutSubgroup(group=g, perms=tuple(sorted(seen)))


def trivial_automorphisms(g: FiniteGroup) -> AutSubgroup:
    return aut_subgroup(g, [tuple(range(g.order))])


def inner_automorphisms(g: FiniteGroup) -> AutSubgroup:
    c, inv = g.cayley, g.inv
    return aut_subgroup(g, [tuple(c[c[h][x]][inv[h]] for x in range(g.order)) for h in range(g.order)])


def orbits(p: AutSubgroup) -> tuple[list[tuple[int, ...]], tuple[int, ...]]:
    """Orbits of the group elements, identity orbit first, the rest by smallest
    member; returns (orbit list, orbit index per element).

    The orbit of x is {perm[x] : perm in p.perms}: ``aut_subgroup`` has verified
    that the permutations form a group, so no closure is needed."""
    g = p.group
    found = {tuple(sorted({perm[x] for perm in p.perms})) for x in range(g.order)}
    orbit_list = sorted(found, key=lambda orb: (g.e not in orb, orb[0]))
    index = {x: i for i, orb in enumerate(orbit_list) for x in orb}
    return orbit_list, tuple(index[x] for x in range(g.order))


def partition_scheme(g: FiniteGroup, p: AutSubgroup) -> AssociationScheme:
    """Scheme on the group: (x, y) pairs are in the same class when x*y^-1 lies
    in the same automorphism orbit."""
    if p.group is not g and p.group.cayley != g.cayley:
        raise ValueError("automorphism subgroup belongs to a different group")
    _, orbit_of = orbits(p)
    t = np.array(g.cayley, dtype=np.int64)
    inv = np.array(g.inv, dtype=np.int64)
    diff = t[np.arange(g.order)[:, None], inv[None, :]]
    rel = np.array(orbit_of, dtype=np.int64)[diff]
    return require(build_scheme(g.order, rel))


def group_scheme(g: FiniteGroup) -> AssociationScheme:
    """The scheme of a group: one class per element, rel[a][b] = class of a*b^-1."""
    return partition_scheme(g, trivial_automorphisms(g))


def partition_hypergroup(g: FiniteGroup, p: AutSubgroup) -> Hypergroup:
    """Hypergroup on the automorphism orbits: the class hypergroup of
    ``partition_scheme``, so the scheme realizes it (orbit c is class c)."""
    return partition_scheme(g, p).hypergroup


# ---------------------------------------------------------------------------
# finite commutative rings

@dataclasses.dataclass(frozen=True, eq=False)
class FiniteRing:
    order: int
    add: tuple[tuple[int, ...], ...]
    mul: tuple[tuple[int, ...], ...]
    zero: int
    one: int
    additive: FiniteGroup


def build_ring(add, mul) -> FiniteRing:
    """Verify commutative unital ring axioms on the two tables.

    (R, +) is verified by ``build_group``, and the associativity of (R, *)
    by the same ``hypergroup._table_witnesses``.  On its size route (from
    g = 21 on) distributivity x(y + z) = xy + xz is checked for all x, y
    and each z of a greedy generating set of (R, +): the z that pass are
    closed under +, as x(y + (z + w)) = x((y + z) + w) = x(y + z) + xw =
    (xy + xz) + xw = xy + x(z + w), the last step being w's at y = z.  So every z, a sum of generators, passes.  Once
    distributivity holds, associativity is additive in its last factor as
    well, (ab)(c + d) = (ab)c + (ab)d = a(bc) + a(bd) = a(b(c + d)), so the
    additive generators would settle it too; Light's set is used because
    associativity is checked, and refused, before distributivity.  Below the
    route, or when a generator fails, distributivity is scanned as
    ``build_group`` scans associativity for its first (x, y, z) in row-major
    order, which the refusal names.
    """
    a = np.asarray(add, dtype=np.int64)
    m = np.asarray(mul, dtype=np.int64)
    g = a.shape[0]
    if a.shape != (g, g) or m.shape != (g, g):
        raise ValueError("addition and multiplication tables must be square and matching")
    grp = build_group(a.tolist())
    if m.min() < 0 or m.max() >= g:
        raise ValueError("multiplication table entries out of range")
    if not np.array_equal(a, a.T):
        raise ValueError("addition must be commutative")
    if not np.array_equal(m, m.T):
        raise ValueError("multiplication must be commutative")
    if _table_witnesses(m, 1):
        raise ValueError("multiplication must be associative")
    idx = np.arange(g)
    ones = [c for c in range(g) if np.array_equal(m[c], idx)]
    if len(ones) != 1:
        raise ValueError(f"unit candidates: {ones}")
    # x(y + z) against xy + xz: at [x, y] for each additive generator z, or all at once
    witness = _first_flagged(
        g, 8 * g * g, lambda xs: m[xs][:, a] != a[m[xs, :, None], m[xs, None, :]], 1,
        lambda: all(np.array_equal(m[:, a[:, z]], a[m, m[:, z, None]]) for z in _generators(a)))
    if witness:
        raise ValueError(f"not distributive at {witness[0]}")
    zero = grp.e
    if not np.array_equal(m[zero], np.full(g, zero)):
        raise ValueError("zero must be absorbing")
    return FiniteRing(order=g, add=tuple(map(tuple, a.tolist())),
                      mul=tuple(map(tuple, m.tolist())), zero=zero, one=ones[0], additive=grp)


def additive_group(r: FiniteRing) -> FiniteGroup:
    """The additive group that ``build_ring`` verified."""
    return r.additive


def zmod_ring(n: int) -> FiniteRing:
    add = [[(a + b) % n for b in range(n)] for a in range(n)]
    mul = [[(a * b) % n for b in range(n)] for a in range(n)]
    return build_ring(add, mul)


_GF_POLY = {4: (2, 0b111), 16: (4, 0b10011), 64: (6, 0b1000011)}


def gf_ring(q: int) -> FiniteRing:
    """GF(q) for q in {4, 16, 64}, elements encoded as polynomial bitmasks."""
    if q not in _GF_POLY:
        raise ValueError(f"gf_ring supports q in {sorted(_GF_POLY)}, got {q}")
    k, poly = _GF_POLY[q]

    def mul(x: int, y: int) -> int:
        r = 0
        for i in range(k):
            if (y >> i) & 1:
                r ^= x << i
        for d in range(2 * k - 2, k - 1, -1):
            if (r >> d) & 1:
                r ^= poly << (d - k)
        return r

    add = [[x ^ y for y in range(q)] for x in range(q)]
    mtab = [[mul(x, y) for y in range(q)] for x in range(q)]
    return build_ring(add, mtab)


def ring_units(r: FiniteRing) -> tuple[int, ...]:
    return tuple(a for a in range(r.order) if r.one in r.mul[a])


def unit_subgroup(r: FiniteRing, elements: Iterable[int]) -> tuple[int, ...]:
    """Verify the elements form a multiplicative subgroup of the units."""
    elems = tuple(sorted({int(x) for x in elements}))
    units = set(ring_units(r))
    if not elems or not set(elems) <= units:
        raise ValueError(f"not a subset of the units: {elems}")
    if r.one not in elems:
        raise ValueError("unit subgroup must contain 1")
    for x, y in itertools.product(elems, repeat=2):
        if r.mul[x][y] not in elems:
            raise ValueError(f"not closed under multiplication: {x}, {y}")
    for x in elems:
        if not any(r.mul[x][y] == r.one for y in elems):
            raise ValueError(f"no inverse inside the subgroup for {x}")
    return elems


def units_of_order_dividing(r: FiniteRing, d: int) -> tuple[int, ...]:
    """The subgroup of units u with u^d = 1 (for example a subfield's unit group)."""
    out = []
    for u in ring_units(r):
        acc = r.one
        for _ in range(d):
            acc = r.mul[acc][u]
        if acc == r.one:
            out.append(u)
    return unit_subgroup(r, out)


def scaling_automorphisms(r: FiniteRing, elements: Iterable[int]) -> AutSubgroup:
    """Unit scalings x -> u*x as automorphisms of the additive group."""
    elems = unit_subgroup(r, elements)
    grp = additive_group(r)
    perms = [tuple(r.mul[u][x] for x in range(r.order)) for u in elems]
    return aut_subgroup(grp, perms)


# ---------------------------------------------------------------------------
# quotient hyperrings

@dataclasses.dataclass(frozen=True, eq=False)
class QuotientHyperring:
    """Orbits of unit scaling with set-valued addition and single-valued product."""

    ring: FiniteRing
    group: tuple[int, ...]
    orbit_reps: tuple[tuple[int, ...], ...]
    orbit_of: tuple[int, ...]
    hypergroup: Hypergroup
    mult: tuple[tuple[int, ...], ...]


def quotient_hyperring(r: FiniteRing, elements: Iterable[int]) -> QuotientHyperring:
    """Quotient of a ring by a unit subgroup G: classes are scaling orbits,
    [a] + [b] collects the orbits of g1*a + g2*b, [a]*[b] = [a*b].

    The hyperaddition is the partition hypergroup of (R, +) under scaling by G,
    and the two operations are verified to distribute, with the zero orbit
    absorbing.  The product's associativity is ``hypergroup._table_witnesses``,
    and each axiom names at most 25 witnesses, in row-major order.
    """
    elems = unit_subgroup(r, elements)
    aut = scaling_automorphisms(r, elems)
    orbit_list, orbit_of = orbits(aut)
    k = len(orbit_list)
    if orbit_list[0] != (r.zero,):
        raise VerificationError([Violation("zero_orbit", orbit_list[0])], "zero orbit is not {0}")
    hg = partition_hypergroup(additive_group(r), aut)

    mult_rows = []
    for oa in orbit_list:
        row = []
        for ob in orbit_list:
            images = {orbit_of[r.mul[x][y]] for x in oa for y in ob}
            if len(images) != 1:
                raise VerificationError([Violation("mult_single_valued", (oa[0], ob[0]))],
                                        "orbit product is not single-valued")
            row.append(images.pop())
        mult_rows.append(tuple(row))
    mult = tuple(mult_rows)

    one_cls = orbit_of[r.one]
    bad = [Violation("mult_identity", (b,)) for b in range(k) if mult[one_cls][b] != b][:_WITNESS_CAP]
    bad += [Violation("mult_zero", (b,)) for b in range(k) if mult[0][b] != 0][:_WITNESS_CAP]
    bad += [
        Violation("mult_commutative", (a, b)) for a, b in itertools.product(range(k), repeat=2)
        if mult[a][b] != mult[b][a]
    ][:_WITNESS_CAP]
    bad += [Violation("mult_associative", w) for w in _table_witnesses(np.array(mult))]
    # (a + b)c against ac + bc; times[c][cell] is the image of a cell under t -> tc,
    # formed once for each distinct cell
    masks = hg.masks
    cells = set(itertools.chain.from_iterable(masks))
    times = [{cell: _image(cell, col) for cell in cells} for col in zip(*mult)]
    bad += [
        Violation("distributive", (a, b, c)) for a, b, c in itertools.product(range(k), repeat=3)
        if times[c][masks[a][b]] != masks[mult[a][c]][mult[b][c]]
    ][:_WITNESS_CAP]
    if bad:
        raise VerificationError(bad, "quotient hyperring axioms fail")

    return QuotientHyperring(
        ring=r, group=elems, orbit_reps=tuple(orbit_list), orbit_of=orbit_of,
        hypergroup=hg, mult=mult,
    )


# ---------------------------------------------------------------------------
# canonical small hypergroups

def krasner_hypergroup() -> Hypergroup:
    """Two elements 0, 1 with 1+1 = {0, 1}."""
    return require(build_hypergroup([[{0}, {1}], [{1}, {0, 1}]], 0, (0, 1)))


def sign_hypergroup() -> Hypergroup:
    """Three elements 0, +1, -1 (encoded 0, 1, 2) under the rule of signs."""
    table = [
        [{0}, {1}, {2}],
        [{1}, {1}, {0, 1, 2}],
        [{2}, {0, 1, 2}, {2}],
    ]
    return require(build_hypergroup(table, 0, (0, 2, 1)))


# ---------------------------------------------------------------------------
# Hamming schemes and the flag scheme of the Fano plane

def hamming_scheme(n: int, q: int = 2) -> AssociationScheme:
    """Distance scheme on words of length n over a q-letter alphabet."""
    if not 1 <= n <= HAMMING_LENGTH_BOUND:
        raise SizeGuardError(f"hamming_scheme requires 1 <= n <= {HAMMING_LENGTH_BOUND}, got {n}")
    if q < 2 or q ** n > HAMMING_POINT_BOUND:
        raise SizeGuardError(f"hamming_scheme refused: q^n = {q ** n} exceeds {HAMMING_POINT_BOUND}")
    size = q ** n
    # the distance adds up, digit by digit, where two words differ; n <= 12 fits int8
    rel = np.zeros((size, size), dtype=np.int8)
    word = np.arange(size)
    for _ in range(n):
        digit = word % q
        rel += digit[:, None] != digit[None, :]
        word //= q
    return require(build_scheme(size, rel))


def fano_plane() -> tuple[int, list[tuple[int, ...]]]:
    """The 7-point projective plane over the two-element field.

    Points are the nonzero bitmasks 1..7; a line collects the three points
    orthogonal to a nonzero functional.  Returns (7, lines on point ids 0..6).
    """
    lines = [tuple(p - 1 for p in range(1, 8) if bin(p & h).count("1") % 2 == 0) for h in range(1, 8)]
    return 7, sorted(lines)


def fano_flag_scheme() -> AssociationScheme:
    """Scheme on the 21 point-line flags of the Fano plane.

    Classes: 0 equal flags, 1 same line, 2 same point, 3 the second point on the
    first line, 4 the first point on the second line, 5 flags in general
    position.  The result is a valid non-commutative scheme with 6 classes.
    """
    _, lines = fano_plane()
    on_line = [set(line) for line in lines]
    flags = sorted((p, li) for li in range(len(lines)) for p in lines[li])
    nf = len(flags)
    rel = np.zeros((nf, nf), dtype=np.int64)
    for i, (p, l) in enumerate(flags):
        for j, (q, m) in enumerate(flags):
            # the first class, in the order of the docstring, whose condition holds
            rel[i, j] = (i == j, l == m, p == q, q in on_line[l], p in on_line[m], True).index(True)
    return require(build_scheme(nf, rel))


# ---------------------------------------------------------------------------
# linearly ordered hypergroups and valuation schemes

def linear_hypergroup(chain: Sequence) -> Hypergroup:
    """Min-rule hypergroup of an ascending chain whose last entry is the top.

    The top (identity) becomes element 0 and the i-th chain value element i+1,
    so smaller element index means smaller value among nonidentity elements:
    x+y = {min} for distinct values, and x+x = everything from x up, plus 0.
    """
    m = len(chain)
    if m == 0:
        raise ValueError("chain must be nonempty")
    try:
        ascending = all(chain[i] < chain[i + 1] for i in range(m - 1))
    except TypeError:
        ascending = True  # labels not mutually comparable; positions define the order
    if not ascending:
        raise ValueError("chain must be strictly ascending")
    # 0 is the identity; x + x is 0 and every element from x up, x + y the smaller
    table = [[{max(x, y)} if 0 in (x, y) else {0, *range(x, m)} if x == y else {min(x, y)} for y in range(m)]
             for x in range(m)]
    return require(build_hypergroup(table, 0, tuple(range(m))))


@dataclasses.dataclass(frozen=True, eq=False)
class ValuedRing:
    """A finite ring with an ultrametric value map onto an ascending chain.

    ``chain`` ends with the infinity label (the value of 0 only); ``val_index``
    maps each element to its chain position.
    """

    ring: FiniteRing
    chain: tuple
    val_index: tuple[int, ...]

    def value(self, x: int) -> object:
        return self.chain[self.val_index[x]]


def valued_ring(ring: FiniteRing, chain: Sequence, values: Sequence) -> ValuedRing:
    """Validate the value-map invariants: infinity exactly at zero, symmetry
    under negation, the ultrametric inequality, and surjectivity onto the chain."""
    chain = tuple(chain)
    if len(chain) < 1:
        raise ValueError("chain must be nonempty")
    pos = {label: i for i, label in enumerate(chain)}
    if len(pos) != len(chain):
        raise ValueError("chain labels must be distinct")
    if len(values) != ring.order:
        raise ValueError("one value per ring element required")
    try:
        vi = tuple(pos[v] for v in values)
    except KeyError as exc:
        raise ValueError(f"value {exc.args[0]} not on the chain") from exc
    top = len(chain) - 1
    for x in range(ring.order):
        if (vi[x] == top) != (x == ring.zero):
            raise ValueError(f"infinity value must occur exactly at zero; element {x}")
    neg = additive_group(ring).inv
    for x in range(ring.order):
        if vi[neg[x]] != vi[x]:
            raise ValueError(f"value must be symmetric under negation; element {x}")
    for x, y in itertools.product(range(ring.order), repeat=2):
        if vi[ring.add[x][y]] < min(vi[x], vi[y]):
            raise ValueError(f"ultrametric inequality fails at {(x, y)}")
    if set(vi) != set(range(len(chain))):
        raise ValueError("value map must be surjective onto the chain")
    return ValuedRing(ring=ring, chain=chain, val_index=vi)


def padic_valued_ring(n: int, p: int) -> ValuedRing:
    """Z/n with the p-adic value map; n must be a power of p."""
    if p < 2 or n < 1:
        raise ValueError(f"need p >= 2 and n >= 1, got n={n}, p={p}")
    k, m = 0, n
    while m % p == 0:
        m //= p
        k += 1
    if m != 1 or k == 0:
        raise ValueError(f"{n} is not a positive power of {p}")
    ring = zmod_ring(n)
    chain = tuple(range(k)) + (inf,)

    def val(x: int):
        if x == 0:
            return inf
        v = 0
        while x % p == 0:
            x //= p
            v += 1
        return v

    return valued_ring(ring, chain, [val(x) for x in range(n)])


def trivial_valued_ring(ring: FiniteRing) -> ValuedRing:
    if ring.order < 2:
        raise ValueError("need a nonzero element for the trivial value map")
    return valued_ring(ring, (0, inf), [inf if x == ring.zero else 0 for x in range(ring.order)])


TriangleReport = Report  # former name, kept for existing callers


def check_triangle_condition(v: ValuedRing) -> Report:
    """For each value r, the equidistant-third-point sets of all pairs at
    distance r must be nonempty and share one cardinality.

    Distance is v(x - y), so translating a pair and its third points by -a
    keeps every distance: pair (a, b) has as many third points as (0, b - a).
    In row-major order the first pair at each distance and the first failing
    pair therefore both lie in row 0, and scanning the pairs (0, b), in O(n^2),
    gives the report of the scan over all pairs.
    """
    dist = valuation_relation(v)  # per pair: 0 at the top value, r + 1 at the r-th below it
    row = dist[0]
    # third[b]: the points y with dist(0, y) = dist(y, b) = dist(0, b)
    third = ((row[:, None] == row) & (dist == row)).sum(axis=0)
    top = len(v.chain) - 1
    bad: list[Violation] = []
    for r, label in enumerate(v.chain):
        pairs = np.flatnonzero(row == (0 if r == top else r + 1))
        odd = pairs[(third[pairs] == 0) | (third[pairs] != third[pairs[:1]])]
        if odd.size and third[odd[0]] == 0:
            bad.append(Violation("triangle_empty", (label, (0, int(odd[0])))))
        elif odd.size:
            b0, b = int(pairs[0]), int(odd[0])
            bad.append(Violation(
                "triangle_cardinality", (label, (0, b0), int(third[b0]), (0, b), int(third[b]))
            ))
    return Report(tuple(bad))


def valuation_relation(v: ValuedRing) -> np.ndarray:
    """Class matrix of the value-distance partition: pairs at infinity form
    class 0, pairs at the i-th finite value form class i+1."""
    ring = v.ring
    neg = np.array(additive_group(ring).inv, dtype=np.int64)
    vi = np.array(v.val_index, dtype=np.int64)
    add = np.array(ring.add, dtype=np.int64)
    diff = add[np.arange(ring.order)[:, None], neg[None, :]]
    top = len(v.chain) - 1
    cls = np.where(vi == top, 0, vi + 1)
    return cls[diff]


def valuation_scheme(v: ValuedRing) -> AssociationScheme:
    """Scheme of the value-distance partition; requires the triangle condition."""
    report = check_triangle_condition(v)
    if not report.ok:
        raise VerificationError(report.violations, "triangle condition fails")
    return require(build_scheme(v.ring.order, valuation_relation(v)))


# ---------------------------------------------------------------------------
# projective geometries from hypergroups

def _vector_space_violations(h: Hypergroup) -> list[Violation]:
    """Pairs that do not commute, then nonidentity x with x + x != {identity, x}."""
    bad = [Violation("commutative", (a, b)) for a, b in itertools.combinations(range(h.m), 2)
           if h.masks[a][b] != h.masks[b][a]][:_WITNESS_CAP]
    return bad + [Violation("vector_space", (x, tuple(_members(h.masks[x][x])))) for x in range(h.m)
                  if x != h.e and h.masks[x][x] != 1 << h.e | 1 << x][:_WITNESS_CAP]


def is_k_vector_space(h: Hypergroup) -> bool:
    """True when x + x = {identity, x} for every nonidentity element."""
    bad = _vector_space_violations(h)
    if bad and bad[0].axiom == "commutative":
        raise ValueError("hypergroup is not commutative")
    return not bad


@dataclasses.dataclass(frozen=True, eq=False)
class IncidenceGeometry:
    n_points: int
    lines: tuple[tuple[int, ...], ...]
    degenerate: bool


def check_geometry(n_points: int, lines: Sequence[Sequence[int]]) -> list[Violation]:
    """Incidence axioms: lines carry at least three distinct points, two points
    span exactly one line, and the Veblen-Young triangle axiom holds.

    A point that is no integer in 0..n_points-1 breaks its line.  A negative
    point count raises ValueError, and more than GEOMETRY_POINT_BOUND points
    SizeGuardError, before anything is built.  Once two points span exactly
    one line, two lines share at most one point, and the triangle axiom is
    read off the incidence matrix: a line through p meets pq or pr only at
    p, and a line i off p fails it for the triangle (p, q, r) when it meets
    pq and pr and misses qr.  The first 10 failures (p, q, r, i), p < q < r,
    come in row-major order from ``hypergroup._first_flagged``, a block of p
    at a time.
    """
    if n_points < 0:
        raise ValueError(f"point count must be nonnegative, got {n_points}")
    if n_points > GEOMETRY_POINT_BOUND:
        raise SizeGuardError(f"geometry check refused: {n_points} points exceeds {GEOMETRY_POINT_BOUND}")
    bad: list[Violation] = []
    sets = []
    for i, line in enumerate(lines):
        members = set(line)
        in_range = all(isinstance(p, Integral) and 0 <= p < n_points for p in members)
        if len(members) != len(tuple(line)) or not in_range:
            bad.append(Violation("line_points", (i,)))
        elif len(members) < 3:
            bad.append(Violation("line_size", (i,)))
        sets.append(frozenset(members))
    same: dict[frozenset[int], list[int]] = {}
    for i, members in enumerate(sets):
        same.setdefault(members, []).append(i)
    bad += [Violation("duplicate_line", pair)
            for pair in sorted(pair for group in same.values() for pair in itertools.combinations(group, 2))]
    if bad:
        return bad

    through = [[-1] * n_points for _ in range(n_points)]  # through[p][q]: the line through p and q
    for i, members in enumerate(sets):
        for p, q in itertools.combinations(sorted(members), 2):
            if through[p][q] >= 0:
                bad.append(Violation("pair_multicovered", (p, q)))
            through[p][q] = through[q][p] = i
    bad += [Violation("pair_uncovered", (p, q))
            for p, q in itertools.combinations(range(n_points), 2) if through[p][q] < 0]
    if bad or n_points < 3:  # a triangle needs three points
        return bad

    on = np.zeros((n_points, len(sets)), dtype=bool)  # on[p, i]: p lies on line i
    for i, members in enumerate(sets):
        on[list(members), i] = True
    meets = np.zeros((len(sets), len(sets)), dtype=bool)  # meets[i, j]: lines i and j share a point
    for lines_at in on:
        meets[np.ix_(lines_at, lines_at)] = True
    # meets_line[x, y, i]: line i meets the line through x and y (at x = y, a
    # row that the order p < q < r masks)
    meets_line = meets[np.array(through)]
    upper = np.triu(np.ones((n_points, n_points), dtype=bool), 1)[:, :, None]
    near = meets_line & ~on[:, None, :] & upper  # near[p, q, i]: p < q, and line i off p meets pq
    far = upper & ~meets_line  # far[q, r, i]: q < r, and line i misses qr
    triangles = _first_flagged(n_points, n_points * n_points * len(sets),
                               lambda ps: near[ps, :, None] & near[ps, None] & far, cap=10)
    return [Violation("veblen_young", w) for w in triangles]


def verified_geometry(n_points: int, lines: Sequence[tuple[int, ...]]) -> IncidenceGeometry:
    """The geometry on n_points with these lines, or VerificationError with
    the witnesses of check_geometry; at most one point or line is degenerate."""
    bad = check_geometry(n_points, lines)
    if bad:
        raise VerificationError(bad, "geometry axiom fails")
    return IncidenceGeometry(n_points, tuple(lines), degenerate=n_points <= 1 or len(lines) <= 1)


def geometry_from_hypergroup(h: Hypergroup) -> IncidenceGeometry:
    """Points are the nonidentity elements; the line through two points is their
    sum (minus the identity) together with the points themselves.

    A hypergroup that is no vector space over K, or whose line set fails a
    geometry axiom, raises VerificationError with witnesses, and one with more
    than GEOMETRY_POINT_BOUND points SizeGuardError from ``check_geometry``.
    Geometries with at most one point or at most one line are flagged
    degenerate but accepted.
    """
    bad = _vector_space_violations(h)
    if bad:
        raise VerificationError(bad, "hypergroup is not a vector space over the two-element hyperfield")
    elems = [x for x in range(h.m) if x != h.e]
    pos = {x: i for i, x in enumerate(elems)}
    lines = {h.masks[p][q] & ~(1 << h.e) | 1 << p | 1 << q for p, q in itertools.combinations(elems, 2)}
    return verified_geometry(len(elems), sorted(tuple(pos[t] for t in _members(line)) for line in lines))
