"""Finite hypergroups: a set-valued multiplication table with a unique identity,
unique inverses, associativity, and reversibility.

Elements are 0..m-1.  ``table[a][b]`` is the nonempty set a*b; products of
subsets are unions of cell products.  Verification is exhaustive: every axiom
holds over all triples, checked directly or, for the associativity of a group
table, proved from generators, and every construction in this module
re-verifies its output.  Sub-hypergroups are the exception: a subset that contains e and is
closed under * and inv inherits every axiom, so only that closure is checked.
The scheme layer asks its class-set questions of a scheme's class hypergroup
here, and ``find_bijection`` is the one backtracker under both isomorphism searches.

The axioms are read from the support tensor, support[a, b, t] = (t in a*b),
by one checker that both routes share: ``build_hypergroup`` reads the tensor
off the masks of its cells, and a scheme's class hypergroup
(``support_hypergroup``) hands in constants > 0 directly.  Cells must be
nonempty and in range, e the only identity and inv(x) x's only inverse.  The
rows of the tensor are packed into bit words bits[a, b]: (ab)c is the OR of
the rows bits[t] over t in ab and a(bc) the OR of the columns bits[a, t]
over t in bc, both gathered straight into (a, b, c) order for a block of a
at a time.  The cells are gathered whole and ORed by ``reduceat``, as many
as fit in the block, and every temporary is at most 2 MB unless one a
needs more.  Reversibility is two gathers over the nonzero cells.  Witnesses
come in ascending (a, b, c) order, at most 25 per axiom.

A table of singletons (class hypergroups of group schemes,
``group_as_hypergroup``, quotients of groups) is a single-valued table, and
its associativity is not read from the words: ``_table_witnesses`` is the
one associativity check of every single-valued table, a group's, a ring's
product, a quotient hyperring's product and such a hypergroup's.  It
compares t[t[x, y], z] with t[x, t[y, z]] a block of x at a time.  Where
that m^3 scan would outgrow the smallest block, from m = 21 on, the table
is first put to Light's test (Clifford and Preston, The Algebraic Theory
of Semigroups I, 1961), which proves associativity in O(m^2) a generator.
``_generators`` picks a greedy generating set: the smallest element not
yet reached joins it, and the reached set is closed under right
multiplication by every generator, so each element is a left-bracketed
product of generators, which needs no associativity.
``_light_associative`` checks (x*a)*y = x*(a*y) for all x, y and each
generator a.  The a that pass (Light's set) are closed under *: for a and
b in it, (x(ab))y = ((xa)b)y = (xa)(by) = x(a(by)) = x((ab)y), each step
one of a's or b's identities.  So every product of generators, every
element, lies in it, and that is associativity.  The test only ever
accepts: it is the proof of the scan, and a table it does not accept is
scanned, so the witnesses do not depend on the route.

Both associativity scans, ring distributivity, both morphism passes and
the Veblen-Young check find their first witnesses by one blocked scan,
``_first_flagged``.

A cell is held once, as ``masks[a][b]``, the Python int with bit t set for
each t in a*b, and ``_table_masks`` alone turns a table's cells into masks.
``table[a][b]``, the frozenset a*b, is a view built from the masks on first
read, one frozenset per distinct mask (Z/64 has 64 among 4,096 cells).
Every class-set question (sub-hypergroups, the closure lattice, cosets,
congruence images, isomorphism) is answered on the masks: a product of sets
is an OR of ints.
"""

from __future__ import annotations

import dataclasses
import functools
import itertools
import operator
from collections.abc import Iterable

import numpy as np

from .errors import _WITNESS_CAP, Report, SizeGuardError, VerificationError, Violation, require

SUB_HYPERGROUP_BOUND = 20
ISOMORPHISM_BOUND = 24
_BLOCK_BYTES = (1 << 16, 1 << 21)  # bounds on each temporary of a blocked check

HypergroupReport = Report  # former name, kept for existing callers


@dataclasses.dataclass(frozen=True, init=False, repr=False)
class Hypergroup:
    """A hypergroup on 0..m-1 with identity e and inverses inv.

    Each cell a*b is held once, as ``masks[a][b]``, the int sum of 2^t over t
    in a*b, and equality and hash read m, e, inv and the masks.  ``table`` is
    the frozenset view of the masks, built on first read; repr shows it.
    """

    m: int
    # an InitVar whose default is the view below, so dataclasses.replace reads the table back
    table: dataclasses.InitVar[tuple[tuple[frozenset[int], ...], ...]]
    e: int
    inv: tuple[int, ...]
    masks: tuple[tuple[int, ...], ...] = dataclasses.field(init=False)

    def __init__(self, m: int, table: tuple[tuple[frozenset[int], ...], ...], e: int, inv: tuple[int, ...]) -> None:
        masks = _table_masks(table, m)
        if any(-1 in row for row in masks):
            raise ValueError(f"a cell holds an element outside 0..{m - 1}")
        vars(self).update(m=m, e=e, inv=inv, masks=masks)

    @classmethod
    def _from_masks(cls, m: int, masks: tuple[tuple[int, ...], ...], e: int, inv: tuple[int, ...]) -> Hypergroup:
        h = object.__new__(cls)
        vars(h).update(m=m, e=e, inv=inv, masks=masks)
        return h

    @functools.cached_property
    def table(self) -> tuple[tuple[frozenset[int], ...], ...]:
        sets = {mask: frozenset(_members(mask)) for mask in set(itertools.chain.from_iterable(self.masks))}
        return tuple(tuple(map(sets.__getitem__, row)) for row in self.masks)

    def __repr__(self) -> str:
        return f"Hypergroup(m={self.m!r}, table={self.table!r}, e={self.e!r}, inv={self.inv!r})"

    def product(self, aset: Iterable[int], bset: Iterable[int]) -> frozenset[int]:
        return frozenset(_members(functools.reduce(int.__or__, (self.masks[a][b] for a in aset for b in bset), 0)))

    def is_commutative(self) -> bool:
        return tuple(zip(*self.masks)) == self.masks


def _verified(support: np.ndarray, e: int, inv, masks=None) -> Hypergroup | Report:
    """The Hypergroup whose cell a*b is {t : support[a, b, t]}, its masks given
    or read off the uint64 words bits[a, b] of the check, or the Report of its
    axioms in axiom order (the check stops at an empty cell or a broken shape)."""
    m = len(support)
    # bits[a, b]: support[a, b] as uint64 words, t padded to a multiple of 64
    words = -(-m // 64)
    padded = np.zeros((m, m, words * 64), dtype=bool)
    padded[:, :, :m] = support
    bits = np.packbits(padded, axis=2, bitorder="little").view("<u8")
    broken = (~bits.any(axis=2).ravel()).nonzero()[0]
    if broken.size:
        return Report(tuple(Violation("cell", divmod(k, m)) for k in broken[:_WITNESS_CAP].tolist()))
    inv = tuple(int(x) for x in inv)
    if not (0 <= e < m) or len(inv) != m or not all(0 <= g < m for g in inv):
        return Report((Violation("shape", (e, inv)),))

    # c is an identity when c*x = {x} = x*c for every x; identities c and d give
    # c = c*d = d, so the others are looked for only when e is none
    eye = np.eye(m, dtype=bool)

    def is_identity(c: int) -> bool:
        return bool((support[c] == eye).all() and (support[:, c] == eye).all())

    bad = [] if is_identity(e) else [Violation("identity", tuple(c for c in range(m) if is_identity(c)))]

    # partners[x, g]: e lies in x*g and in g*x; inv(x) must be x's only one
    partners = support[:, :, e] & support[:, :, e].T
    inv_arr = np.array(inv)
    for x in (partners != eye[inv_arr]).any(axis=1).nonzero()[0].tolist():
        bad.append(Violation("inverse", (x, tuple(partners[x].nonzero()[0].tolist()))))

    # the entries (a*m + b, t) of the cells in C order; with no cell empty, m^2
    # of them make a table of singletons, whose elem is its single-valued table
    cell, elem = np.divmod(support.ravel().nonzero()[0], m)
    witnesses = (_table_witnesses(elem.reshape(m, m)) if len(elem) == m * m
                 else _associativity_witnesses(bits, elem, np.searchsorted(cell, np.arange(m * m + 1))))
    bad += [Violation("associativity", w) for w in witnesses]

    # c in ab needs a in c*inv(b) and b in inv(a)*c
    a, b = np.divmod(cell, m)
    reversed_ok = support[elem, inv_arr[b], a] & support[inv_arr[a], elem, b]
    for x in (~reversed_ok).nonzero()[0][:_WITNESS_CAP]:
        bad.append(Violation("reversibility", (int(a[x]), int(b[x]), int(elem[x]))))
    if bad:
        return Report(tuple(bad))
    return Hypergroup._from_masks(m, _cell_masks(bits) if masks is None else masks, int(e), inv)


def _first_flagged(n: int, row_bytes: int, flags, cap: int = _WITNESS_CAP, proof=None) -> list[tuple[int, ...]]:
    """The first cap indices, in row-major order, of the True entries of a bool
    array of n rows, as tuples of ints; flags(rows) gives its rows at the
    slice rows, a block at a time, each within _BLOCK_BYTES[1] at row_bytes a
    row (one row at least).  Where the whole scan outgrows _BLOCK_BYTES[0],
    proof() is tried first: it can only accept, and True means none is set.
    A block with a flag is indexed a slice at a time, whose int64 indices
    fit in _BLOCK_BYTES[0], until cap are found."""
    if proof is not None and n * row_bytes > _BLOCK_BYTES[0] and proof():
        return []
    step, width = max(1, _BLOCK_BYTES[1] // row_bytes), max(1, _BLOCK_BYTES[0] // 8)
    found: list[tuple[int, ...]] = []
    for r0 in range(0, n, step):
        block = flags(slice(r0, r0 + step))
        flat = block.reshape(-1)
        for i0 in range(0, flat.size if flat.any() else 0, width):
            hits = np.flatnonzero(flat[i0:i0 + width])[:cap - len(found)]
            if len(hits):
                at = np.unravel_index(hits + i0, block.shape)
                found += zip((at[0] + r0).tolist(), *(i.tolist() for i in at[1:]))
                if len(found) == cap:
                    return found
    return found


def _associativity_witnesses(bits: np.ndarray, elem: np.ndarray, bounds: np.ndarray) -> list[tuple[int, int, int]]:
    """The first _WITNESS_CAP triples (a, b, c), ascending, where (ab)c and
    a(bc) differ, read from the words bits[a, b] and the cell entries, cell
    k's at elem[bounds[k]:bounds[k + 1]], a block of a at a time."""
    m, words = bits.shape[0], bits.shape[2]

    def differ(rows: slice) -> np.ndarray:
        # (ab)c at [a*m + b - lo, c] joins the rows bits[t] = t*c, and a(bc)
        # at [a - rows.start, b*m + c] the columns bits[a, t] = a*t, so both
        # are in (a, b, c) order
        lo, hi = rows.start * m, min(rows.stop, m) * m
        left = _or_cells(bits, elem, bounds[lo:hi + 1], 0).reshape(-1, words)
        right = _or_cells(bits[rows], elem, bounds, 1).reshape(-1, words)
        ne = left[:, 0] != right[:, 0] if words == 1 else (left != right).any(axis=1)
        return ne.reshape(-1, m, m)

    return _first_flagged(m, bits.nbytes, differ)


def _table_witnesses(t: np.ndarray, cap: int = _WITNESS_CAP) -> list[tuple[int, int, int]]:
    """The first cap triples (x, y, z), row-major, where (xy)z and x(yz)
    differ in the single-valued int table t[x, y] = xy, by ``_first_flagged``
    a block of x at a time (m^2 int64s an x), with Light's test as its proof.
    Every associativity check of a single-valued table is this one."""
    return _first_flagged(len(t), 8 * t.size, lambda xs: t[t[xs]] != t[xs][:, t], cap,
                          functools.partial(_light_associative, t))


def _generators(t: np.ndarray) -> list[int]:
    """A greedy generating set of the single-valued table t[a, b] = a*b: the
    smallest element not yet reached joins it, and the reached set is closed
    under right multiplication by every generator.  So each element is a
    left-bracketed product (..(g1*g2)*..)*gk of generators, which needs no
    associativity to be one."""
    m = len(t)
    reached = [False] * m
    held: list[int] = []
    gens: list[int] = []
    cols: list[list[int]] = []  # cols[i][r] = r * gens[i]
    for x in range(m):
        if reached[x]:
            continue
        gens.append(x)
        cols.append(t[:, x].tolist())
        # the held elements were closed under the earlier generators
        todo = [x] + [cols[-1][r] for r in held]
        while todo:
            r = todo.pop()
            if not reached[r]:
                reached[r] = True
                held.append(r)
                todo += [col[r] for col in cols]
    return gens


def _light_associative(t: np.ndarray) -> bool:
    """Light's associativity test on the single-valued table t[a, b] = a*b:
    True when (x*a)*y = x*(a*y) for every x, y and each generator a of
    ``_generators``, which proves t associative (see the module docstring).
    False names no triple: the caller scans for its witnesses."""
    return all(np.array_equal(t[t[:, a]], t[:, t[a]]) for a in _generators(t))


def _or_cells(rows: np.ndarray, elem: np.ndarray, bounds: np.ndarray, axis: int) -> np.ndarray:
    """Along axis, out[i] = the OR of rows[t] over the entries t of the i-th
    cell, elem[bounds[i]:bounds[i + 1]].  Rows are gathered for as many cells
    at a time as fit in the block bound, and for one cell (m rows) at least."""
    n = len(bounds) - 1
    entries = elem[bounds[0]:bounds[n]]
    limit = max(rows.shape[axis], _BLOCK_BYTES[1] * rows.shape[axis] // rows.nbytes)
    if len(entries) <= limit:
        return np.bitwise_or.reduceat(np.take(rows, entries, axis=axis), bounds[:n] - bounds[0], axis=axis)
    out = np.empty(rows.shape[:axis] + (n,) + rows.shape[axis + 1:], rows.dtype)
    c0 = 0
    while c0 < n:
        c1 = int(np.searchsorted(bounds, bounds[c0] + limit, "right")) - 1
        part = np.take(rows, elem[bounds[c0]:bounds[c1]], axis=axis)
        at = (slice(None),) * axis + (slice(c0, c1),)
        np.bitwise_or.reduceat(part, bounds[c0:c1] - bounds[c0], axis=axis, out=out[at])
        c0 = c1
    return out


def _cell_masks(bits: np.ndarray) -> tuple[tuple[int, ...], ...]:
    """The words bits[a, b] (element t at bit t % 64 of word t // 64) joined
    into one int per cell."""
    masks = bits[:, :, 0].tolist()
    for w in range(1, bits.shape[2]):
        masks = [[low | high << 64 * w for low, high in zip(*rows)] for rows in zip(masks, bits[:, :, w].tolist())]
    return tuple(map(tuple, masks))


def _table_masks(table, m: int) -> tuple[tuple[int, ...], ...]:
    """Each cell of a table as a mask, the OR of 2^t over its elements t (each
    read by ``int``), or -1 when an element lies outside 0..m-1.  This is the
    one place where cells become masks."""
    rows = []
    for row in table:
        masks = []
        for cell in row:
            mask = 0
            for t in map(int, cell):
                mask |= 1 << t if 0 <= t < m else -1
            masks.append(mask)
        rows.append(tuple(masks))
    return tuple(rows)


def _mask_support(masks) -> np.ndarray:
    """support[a, b, t] = (t in a*b) for cells given as masks, m x m x m; a
    mask outside 0..m-1 (-1 among them) gives an empty cell."""
    m = len(masks)
    size = 8 * -(-m // 64)
    data = b"".join((mask if mask >> m == 0 else 0).to_bytes(size, "little") for row in masks for mask in row)
    words = np.frombuffer(data, dtype=np.uint8).reshape(m, m, size)
    return np.unpackbits(words, axis=2, count=m, bitorder="little").view(bool)


def build_hypergroup(table, e: int, inv) -> Hypergroup | Report:
    """Exhaustively verify all hypergroup axioms; return the value or a report.
    Each cell becomes a mask once and the support tensor is read off the
    masks; a cell with an element outside 0..m-1 is broken like an empty one."""
    try:
        rows = tuple(table)
        masks = _table_masks(rows, len(rows))
    except TypeError:
        masks = ((),)  # not a table of cells: a shape violation below
    if any(len(row) != len(masks) for row in masks):
        return Report((Violation("shape", ()),))
    return _verified(_mask_support(masks), e, inv, masks)


def support_hypergroup(support: np.ndarray, e: int, inv) -> Hypergroup | Report:
    """``build_hypergroup`` of the table whose cell a*b is {t : support[a, b, t]},
    checked on the m x m x m bool tensor itself."""
    return _verified(support, e, inv)


def group_as_hypergroup(cayley, e: int, inv) -> Hypergroup:
    """Wrap a group's Cayley table in singleton cells."""
    masks = _table_masks([[(c,) for c in row] for row in cayley], len(cayley))
    return require(_verified(_mask_support(masks), e, inv, masks))


def _members(mask: int) -> list[int]:
    """The elements of a mask, ascending."""
    out = []
    while mask:
        out.append((mask & -mask).bit_length() - 1)
        mask &= mask - 1
    return out


def _image(mask: int, f) -> int:
    """The mask of {f[t] : t in mask}, an OR of bits, since f need not be injective."""
    return functools.reduce(int.__or__, (1 << f[t] for t in _members(mask)), 0)


def is_sub_hypergroup(h: Hypergroup, kset) -> bool:
    """True when the subset contains e and is closed under * and inv.  It then
    inherits every axiom from h: associativity and reversibility speak of cells
    inside it, e is its only identity (c*e = {c}), and inv(x) is x's only partner."""
    members = {int(x) for x in kset}
    if not members:
        raise ValueError("element set must be nonempty")
    if not all(0 <= x < h.m for x in members):
        raise ValueError(f"element set out of range: {tuple(sorted(members))}")
    mask, reached = sum(1 << x for x in members), 1 << h.e
    for a in members:
        row = h.masks[a]
        reached |= 1 << h.inv[a]
        for b in members:
            reached |= row[b]
    return reached | mask == mask


def closure_lattice(h: Hypergroup) -> list[frozenset[int]]:
    """Every sub-hypergroup (a subset that contains e and is closed under * and
    inv), in lexicographic order of its sorted members, with no size bound.

    Starts from the closure of {e}, then joins each closed set T found with
    each distinct closure <x> of one element x outside T (x is outside T
    exactly when <x> is, T being closed; <x> = <inv(x)> is formed once) and
    closes again, once per union met.  This reaches every closed K: joining a
    closed T inside K with x in K outside T, or with <x>, which lies in the
    closure of T + {x}, gives a larger closed set, still inside K.  Sets are
    Python-int bitmasks.  A closure round ORs sym[a][b] = a*b | b*a | {inv(a)}
    over the elements a added last and all members b (other pairs lie inside
    already) until it adds nothing or is full.
    """
    m, full, masks = h.m, (1 << h.m) - 1, h.masks
    sym = [[masks[a][b] | masks[b][a] | 1 << h.inv[a] for b in range(m)] for a in range(m)]

    def close(mask: int, fresh: int) -> int:
        """The closure of mask, which is closed but for its elements in fresh."""
        held, added = [], mask
        while fresh and mask != full:
            held += _members(added)
            acc = 0
            for a in _members(fresh):
                row = sym[a]
                for b in held:
                    acc |= row[b]
            added = fresh = acc & ~mask
            mask |= fresh
        return mask

    bottom = close(1 << h.e, 1 << h.e)
    outside = [x for x in _members(full & ~bottom) if h.inv[x] >= x]
    singles = list(dict.fromkeys(close(bottom | 1 << x, 1 << x) for x in outside))
    todo, seen, tried = [bottom], {bottom}, set()
    while todo:
        base = todo.pop()
        for single in singles:
            union = base | single
            if union not in seen and union not in tried:
                tried.add(union)
                joined = close(union, single & ~base)
                if joined not in seen:
                    seen.add(joined)
                    todo.append(joined)
    return sorted((frozenset(_members(k)) for k in seen), key=sorted)


def sub_hypergroups(h: Hypergroup) -> list[frozenset[int]]:
    """All sub-hypergroups, in lexicographic order.  Refused above the size bound."""
    if h.m > SUB_HYPERGROUP_BOUND:
        raise SizeGuardError(
            f"sub-hypergroup enumeration refused: m={h.m} exceeds bound {SUB_HYPERGROUP_BOUND}"
        )
    return closure_lattice(h)


def _cosets(h: Hypergroup, lset) -> tuple[int, list[int], list[int]]:
    """(L, [L*x for every x], [x*L for every x]) for a sub-hypergroup L, each
    set as a mask: L*x is the OR of L's rows, x*L of L's columns."""
    lset = frozenset(int(x) for x in lset)
    if not is_sub_hypergroup(h, lset):
        raise ValueError(f"{sorted(lset)} is not a sub-hypergroup")
    lx = xl = [0] * h.m
    for x in lset:
        lx = list(map(operator.or_, lx, h.masks[x]))
        xl = list(map(operator.or_, xl, map(operator.itemgetter(x), h.masks)))
    return sum(1 << x for x in lset), lx, xl


def is_normal_sub(h: Hypergroup, lset) -> tuple[bool, bool]:
    """(Lx == xL for all x,  inv(x)*L*x == L for all x) for a sub-hypergroup L.

    The second flag is read as: normal, and inv(x)*x inside L for every x.
    Strong implies normal: Lx lies in x*inv(x)*L*x = xL, and xL in x*L*inv(x)*x
    = Lx (the same at inv(x)).  Given Lx = xL, inv(x)*L*x = (inv(x)*x)*L, which
    holds L and inv(x)*x (e lies in both) and lies in L when inv(x)*x does (L is
    closed); so it equals L exactly when inv(x)*x lies in L.
    """
    lmask, lx, xl = _cosets(h, lset)
    normal = lx == xl
    return normal, normal and all(h.masks[h.inv[x]][x] | lmask == lmask for x in range(h.m))


_ONE_ELEMENT = require(build_hypergroup([[{0}]], 0, [0]))


def quotient_hypergroup(h: Hypergroup, nset) -> Hypergroup:
    """Quotient by a normal sub-hypergroup N: ``congruence_quotient`` by the
    partition into cosets x*N, numbered by smallest member.

    The cosets partition h because N is closed and h is reversible: x lies in
    x*e, inside x*N, and z in x*n puts x in z*inv(n), so x*N and z*N are equal
    and each coset is first met, in increasing x, at its smallest member.
    That the coset products do not depend on the representatives is the
    congruence check, with a ``product_congruence`` witness.  By {e} alone the
    cosets are {x}, numbered x, so the quotient is h itself and is returned.
    By all of h it is the one-element hypergroup, built once at import.  Both
    sets are closed and normal, so they are answered before the coset pass.
    """
    members = frozenset(int(x) for x in nset)
    if members == {h.e}:
        return h
    if members == frozenset(range(h.m)):
        return _ONE_ELEMENT
    nmask, nx, xn = _cosets(h, members)
    if nx != xn:
        raise ValueError(f"{_members(nmask)} is not normal")
    first: dict[int, int] = {}
    return congruence_quotient(h, CongruenceRelation(tuple(first.setdefault(c, len(first)) for c in xn)))


@dataclasses.dataclass(frozen=True)
class CongruenceRelation:
    """A partition of 0..m-1, stored as an element -> block map (blocks numbered
    by first appearance)."""

    block_of: tuple[int, ...]

    @staticmethod
    def from_blocks(blocks: Iterable[Iterable[int]], m: int) -> "CongruenceRelation":
        block_of = [-1] * m
        for i, block in enumerate(blocks):
            for x in block:
                if not 0 <= x < m or block_of[x] >= 0:
                    raise ValueError("blocks must partition 0..m-1")
                block_of[x] = i
        if any(b < 0 for b in block_of):
            raise ValueError("blocks must cover 0..m-1")
        return CongruenceRelation(tuple(block_of))

    @staticmethod
    def trivial(m: int) -> "CongruenceRelation":
        return CongruenceRelation(tuple(range(m)))

    @staticmethod
    def total(m: int) -> "CongruenceRelation":
        return CongruenceRelation((0,) * m)

    def blocks(self) -> list[tuple[int, ...]]:
        out: dict[int, list[int]] = {}
        for x, b in enumerate(self.block_of):
            out.setdefault(b, []).append(x)
        return [tuple(v) for v in out.values()]


def congruence_violations(h: Hypergroup, c: CongruenceRelation) -> list[Violation]:
    """Check both congruence conditions; blockwise set-equivalence means the two
    products meet exactly the same blocks."""
    return _congruence(h, c)[3]


def _congruence(h: Hypergroup, c: CongruenceRelation):
    """(blocks by smallest member, each element's index among them, the mask of
    the blocks that each cell a*b meets, the congruence violations read from
    those images).

    In row-major order the first pair of a block pair is its smallest members,
    so each row of images is compared with its representative's row read at
    the representatives, and only a row that differs is searched for witnesses.
    """
    if len(c.block_of) != h.m:
        return [], [], [], [Violation("shape", (len(c.block_of), h.m))]
    blocks, first = c.blocks(), {}  # blocks() lists them by first appearance
    block_of = [first.setdefault(b, len(first)) for b in c.block_of]
    rep = [blocks[i][0] for i in block_of]
    # an image depends on the cell's mask alone, so each distinct mask is tested
    # once against each block's mask: one AND a block, and no call a cell
    cells = set(itertools.chain.from_iterable(h.masks))
    image = dict.fromkeys(cells, 0)
    for i, block in enumerate(blocks):
        bit, bmask = 1 << i, sum(1 << x for x in block)
        for cell in cells:
            if cell & bmask:
                image[cell] |= bit
    images = [list(map(image.__getitem__, row)) for row in h.masks]
    expect = {r: list(map(images[r].__getitem__, rep)) for r in set(rep)}
    bad = [
        Violation("product_congruence", ((rep[a], rep[b]), (a, b)))
        for a, row in enumerate(images) if row != expect[rep[a]]
        for b in range(h.m) if row[b] != expect[rep[a]][b]
    ]
    bad += [
        Violation("inverse_congruence", (rep[a], a)) for a in range(h.m)
        if block_of[h.inv[a]] != block_of[h.inv[rep[a]]]
    ]
    return blocks, block_of, images, bad[:_WITNESS_CAP]


def congruence_quotient(h: Hypergroup, c: CongruenceRelation) -> Hypergroup:
    """Hypergroup on the congruence blocks, numbered by smallest member; cell (i, j)
    is the block image of the cell at their smallest members.  So the projection is
    strict by construction: ``product_congruence`` compared every x*y's image with it."""
    blocks, block_of, images, bad = _congruence(h, c)
    if bad:
        raise VerificationError(bad, "not a congruence relation")
    masks = tuple(tuple(images[bi[0]][bj[0]] for bj in blocks) for bi in blocks)
    return require(_verified(_mask_support(masks), block_of[h.e], [block_of[h.inv[b[0]]] for b in blocks], masks))


def product_hypergroup(h1: Hypergroup, h2: Hypergroup) -> Hypergroup:
    """Componentwise product on pairs; (a1, a2) gets index a1*m2 + a2."""
    m1, m2 = h1.m, h2.m
    masks = tuple(tuple(sum(c2 << t1 * m2 for t1 in _members(c1)) for c1 in row1 for c2 in row2)
                  for row1 in h1.masks for row2 in h2.masks)
    e = h1.e * m2 + h2.e
    inv = [h1.inv[a1] * m2 + h2.inv[a2] for a1 in range(m1) for a2 in range(m2)]
    return require(_verified(_mask_support(masks), e, inv, masks))


def find_bijection(sig1, sig2, extend, state):
    """The backtracker under both isomorphism searches: (phi, final state) for
    a bijection with sig2[phi[x]] == sig1[x] that ``extend`` accepts, or None.

    Places x in order of (sig1[x], x), onto each free u of equal signature in
    turn.  extend(phi, x, state) sees x just placed (unplaced entries are -1)
    and returns the next state, or None to reject.  States are passed down,
    not mutated, so backtracking has nothing to undo.
    """
    if sorted(sig1) != sorted(sig2):
        return None
    order = sorted(range(len(sig1)), key=lambda x: (sig1[x], x))
    phi, used = [-1] * len(sig1), [False] * len(sig1)

    def place(i: int, state):
        if i == len(order):
            return tuple(phi), state
        x = order[i]
        for u in range(len(sig2)):
            if used[u] or sig2[u] != sig1[x]:
                continue
            phi[x], used[u] = u, True
            grown = extend(phi, x, state)
            found = None if grown is None else place(i + 1, grown)
            if found is not None:
                return found
            phi[x], used[u] = -1, False
        return None

    return place(0, state)


def _signatures(h: Hypergroup) -> list[tuple]:
    sizes = [[mask.bit_count() for mask in row] for row in h.masks]
    return [(
        x != h.e,  # the identity sorts first, so it is placed first
        h.inv[x] == x,
        sizes[x][x],
        bool(h.masks[x][x] >> x & 1),
        sizes[x][h.inv[x]],
        tuple(sorted(sizes[x])), tuple(sorted(row[x] for row in sizes)),
    ) for x in range(h.m)]


def hypergroup_isomorphic(h1: Hypergroup, h2: Hypergroup) -> tuple[int, ...] | None:
    """Search for a bijection preserving identity, inverses, and all cell products.

    ``find_bijection`` matches elements of equal per-element multiset signature.
    Each placed x must agree with inverses and with the cells it forms with the
    elements placed so far (the state); an element t placed later is covered by
    reversibility, as t in a*b puts a in t*inv(b).  Any candidate is verified in
    full before being returned.
    """
    if h1.m != h2.m:
        return None
    if h1.m > ISOMORPHISM_BOUND:
        raise SizeGuardError(
            f"isomorphism search refused: m={h1.m} exceeds bound {ISOMORPHISM_BOUND}"
        )

    def extend(phi, x: int, placed: tuple[int, ...]):
        if phi[h1.inv[x]] >= 0 and phi[h1.inv[x]] != h2.inv[phi[x]]:
            return None
        placed += (x,)
        for y in placed:
            for a, b in ((x, y), (y, x)):
                cell1, cell2 = h1.masks[a][b], h2.masks[phi[a]][phi[b]]
                image = sum(1 << phi[t] for t in _members(cell1) if phi[t] >= 0)
                if cell1.bit_count() != cell2.bit_count() or image & ~cell2:
                    return None
        return placed

    found = find_bijection(_signatures(h1), _signatures(h2), extend, ())
    if found is None:
        return None
    phi, m = found[0], h1.m
    # full verification of the found bijection
    bad = [Violation("identity", (h1.e,))] if phi[h1.e] != h2.e else []
    bad += [Violation("inverse", (x,)) for x in range(m) if phi[h1.inv[x]] != h2.inv[phi[x]]]
    bad += [
        Violation("product", (x, y)) for x in range(m) for y in range(m)
        if sum(1 << phi[t] for t in _members(h1.masks[x][y])) != h2.masks[phi[x]][phi[y]]
    ]
    if bad:
        raise VerificationError(bad, "found bijection is not an isomorphism")
    return phi
