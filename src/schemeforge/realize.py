"""From schemes to hypergroups: the class-set hypergroup of a scheme, scheme
morphisms with admissibility and their induced hypergroup homomorphisms, and a
bounded exhaustive search for a scheme realizing a given hypergroup.
"""

from __future__ import annotations

import dataclasses
import itertools
from collections.abc import Callable

import numpy as np

from .errors import SizeGuardError, VerificationError, Violation
from .hypergroup import Hypergroup, _first_flagged, _image, _mask_support, _members
from .scheme import (
    AssociationScheme,
    _pair_histogram,
    _quotient,
    build_scheme,
    product_scheme,
)

SEARCH_POINT_BOUND = 8


def to_hypergroup(scheme: AssociationScheme) -> Hypergroup:
    """The class hypergroup of a scheme, ``AssociationScheme.hypergroup``."""
    return scheme.hypergroup


@dataclasses.dataclass(frozen=True, eq=False)
class SchemeMorphism:
    source: AssociationScheme
    target: AssociationScheme
    point_map: tuple[int, ...]
    class_map: tuple[int, ...]


@dataclasses.dataclass(frozen=True)
class MorphismReport:
    morphism: bool
    admissible: bool
    violations: tuple[Violation, ...]


def check_morphism(f: SchemeMorphism) -> MorphismReport:
    """Verify the structure-preservation condition and admissibility.

    A morphism carries every related point pair into the image class; it is
    admissible when every target pair starting at an image point lifts.
    Witnesses for each failed condition are collected in the report.
    """
    src, tgt = f.source, f.target
    bad: list[Violation] = []
    if len(f.point_map) != src.n or not all(0 <= u < tgt.n for u in f.point_map):
        bad.append(Violation("point_range", (len(f.point_map),)))
    if len(f.class_map) != src.s or not all(0 <= c < tgt.s for c in f.class_map):
        bad.append(Violation("class_range", (len(f.class_map),)))
    if bad:
        return MorphismReport(False, False, tuple(bad))

    pm = np.array(f.point_map, dtype=np.int64)
    cm = np.array(f.class_map, dtype=np.int64)
    # Both passes run over blocks of source points: the image and expected
    # classes take n int64s a point, the s x n_t booleans of the second pass
    # s bytes (and the target's rows 8) a target point.
    differ = _first_flagged(src.n, 8 * src.n, lambda xs: tgt.rel[pm[xs, None], pm] != cm[src.rel[xs]])
    bad = [Violation("morphism", w) for w in differ]
    if not bad:
        # forced consequences, re-verified: identity class and star-equivariance
        if f.class_map[0] != 0:
            bad.append(Violation("class_identity", (f.class_map[0],)))
        for p in src.classes():
            if f.class_map[src.star[p]] != tgt.star[f.class_map[p]]:
                bad.append(Violation("class_star", (p,)))
    if bad:
        return MorphismReport(False, False, tuple(bad))

    def first_misses(xs: slice) -> np.ndarray:
        # a target point y in class cm[p] from pm[x] is a miss unless some z in
        # class p from x has pm[z] = y; the first miss of each (x, p) is flagged
        rows = src.rel[xs]
        miss = tgt.rel[pm[xs]][:, None, :] == cm[:, None]
        miss[np.arange(len(rows))[:, None], rows, pm] = False
        x, p = np.nonzero(miss.any(axis=2))
        first = np.zeros_like(miss)
        first[x, p, miss[x, p].argmax(axis=1)] = True
        return first

    found = _first_flagged(src.n, max(src.s, 8) * tgt.n, first_misses)
    adm_bad = tuple(Violation("admissible", (x, y, p)) for x, p, y in found)
    return MorphismReport(True, not adm_bad, adm_bad)


@dataclasses.dataclass(frozen=True, eq=False)
class InducedHom:
    """The hypergroup homomorphism a scheme morphism induces on class sets."""

    source: Hypergroup
    target: Hypergroup
    elem_map: tuple[int, ...]
    strict: bool


def induced_hom(f: SchemeMorphism) -> InducedHom:
    """Restrict a verified morphism to the classes and check the homomorphism law.

    Admissibility is not required: structure preservation alone makes the class
    map a hypergroup homomorphism.
    """
    report = check_morphism(f)
    if not report.morphism:
        raise ValueError(f"not a morphism: {report.violations[0].text()}")
    hs, ht = to_hypergroup(f.source), to_hypergroup(f.target)
    cm = f.class_map
    strict = True
    for p, q in itertools.product(range(hs.m), repeat=2):
        image = _image(hs.masks[p][q], cm)
        cell = ht.masks[cm[p]][cm[q]]
        if image & ~cell:
            raise VerificationError([Violation("homomorphism", (p, q))],
                                    "induced class map is not a homomorphism")
        if image != cell:
            strict = False
    return InducedHom(source=hs, target=ht, elem_map=cm, strict=strict)


def identity_morphism(scheme: AssociationScheme) -> SchemeMorphism:
    return SchemeMorphism(scheme, scheme, tuple(range(scheme.n)), tuple(range(scheme.s)))


def quotient_projection(scheme: AssociationScheme, nset) -> tuple[SchemeMorphism, AssociationScheme]:
    """The projection onto the quotient by a closed normal subset: points go to
    their block, classes to their double coset.  Returns (morphism, quotient)."""
    quo, block_of, coset_of = _quotient(scheme, nset)
    return SchemeMorphism(scheme, quo, tuple(np.asarray(block_of).tolist()), tuple(coset_of)), quo


def product_projection(
    s1: AssociationScheme, s2: AssociationScheme, coord: int
) -> tuple[SchemeMorphism, AssociationScheme]:
    """Coordinate projection from the product scheme onto one factor."""
    if coord not in (0, 1):
        raise ValueError("coord must be 0 or 1")
    prod = product_scheme(s1, s2)
    factor = (s1, s2)[coord]
    if coord == 0:
        pmap = tuple(x1 for x1 in range(s1.n) for _ in range(s2.n))
        cmap = tuple(p1 for p1 in range(s1.s) for _ in range(s2.s))
    else:
        pmap = tuple(x2 for _ in range(s1.n) for x2 in range(s2.n))
        cmap = tuple(p2 for _ in range(s1.s) for p2 in range(s2.s))
    return SchemeMorphism(prod, factor, pmap, cmap), prod


def compose_morphisms(g: SchemeMorphism, f: SchemeMorphism) -> SchemeMorphism:
    """g after f; requires f's target and g's source to be the same scheme."""
    if f.target is not g.source and not (
        f.target.n == g.source.n and np.array_equal(f.target.rel, g.source.rel)
    ):
        raise ValueError("morphisms do not compose: target and source differ")
    return SchemeMorphism(
        f.source,
        g.target,
        tuple(g.point_map[u] for u in f.point_map),
        tuple(g.class_map[c] for c in f.class_map),
    )


@dataclasses.dataclass
class _Plan:
    """What a search reads of h at every point count, made once a call:
    ``valencies[n]`` lists the valency vectors of n points, ascending, and
    ``supports`` is ``_class_supports(h.masks)``, built at the first leaf of
    any size; many calls reach none."""

    valencies: list[list[tuple[int, ...]]]
    supports: np.ndarray | None = None


def _search_plan(h: Hypergroup, n_max: int) -> _Plan:
    """The plan of a search up to n_max points.  Its candidate class
    valencies are positive, star-paired, sum to n-1 beyond the diagonal, and
    sum to at most val[p] * val[q] over each p*q.  One enumeration serves every
    point count: values go to the star-pair representatives in turn, each
    ascending, so each count's list is ascending, and a cell p*q is checked as
    soon as all of its classes have values."""
    star = h.inv
    reps = [p for p in range(1, h.m) if p <= star[p]]
    weights = [1 if star[p] == p else 2 for p in reps]
    rest = [sum(weights[i:]) for i in range(len(reps) + 1)]
    step = [-1] * h.m  # the representative whose value sets val[t]; none for e = 0
    for i, p in enumerate(reps):
        step[p] = step[star[p]] = i
    # every caller passes h identity-first, and the row and column of e = 0
    # always pass: e*q = {q} and val[0] = 1.  ready[i] holds the cells whose
    # classes all have values once representative i has one
    ready = [[] for _ in reps]
    for p in range(1, h.m):
        for q in range(1, h.m):
            cell = _members(h.masks[p][q])
            ready[max(step[t] for t in (p, q, *cell))].append((p, q, cell))
    val = [1] * h.m
    out = [[] for _ in range(n_max + 1)]

    def fill(i: int, used: int) -> None:
        if i == len(reps):
            out[used + 1].append(tuple(val))
            return
        p, w = reps[i], weights[i]
        for v in range(1, (n_max - 1 - used - rest[i + 1]) // w + 1):
            val[p] = val[star[p]] = v
            for a, b, cell in ready[i]:
                total = 0
                for t in cell:
                    total += val[t]
                if total > val[a] * val[b]:
                    break
            else:
                fill(i + 1, used + w * v)

    if h.m <= n_max:
        fill(0, 0)
    return _Plan(out)


def _identity_first(h: Hypergroup) -> Hypergroup:
    """h relabelled by swapping e and 0, so that the identity sits where the
    diagonal class of every scheme does.  A relabelling keeps every axiom."""
    if h.e == 0:
        return h
    swap = list(range(h.m))
    swap[0], swap[h.e] = h.e, 0
    flip = 1 | 1 << h.e  # exchanges bits 0 and e of a mask where they differ
    masks = tuple(tuple(x ^ flip if (x ^ x >> h.e) & 1 else x for x in map(row.__getitem__, swap))
                  for row in map(h.masks.__getitem__, swap))
    return Hypergroup._from_masks(h.m, masks, 0, tuple(swap[h.inv[a]] for a in swap))


def _class_supports(masks) -> np.ndarray:
    """Row r flags, at p * m + q, whether r is in p*q."""
    return np.ascontiguousarray(_mask_support(masks).reshape(len(masks) ** 2, -1).T)


def _counts_fit(rel, supports: np.ndarray) -> bool:
    """True when the multiset of class pairs (rel[x][y], rel[y][z]) over y, row
    x * n + z of build_scheme's pair histogram, is the same at every pair (x, z)
    of a class r as at its first, with support supports[r]."""
    a = np.asarray(rel)
    hist, flat = _pair_histogram(a, len(supports)), a.ravel()
    # each pair's first pair of its class, row-major; an absent class gets
    # pair 0, and no pair reads it
    first = (flat == np.arange(len(supports))[:, None]).argmax(1)[flat]
    return bool(((hist > 0) == supports[flat]).all() and (hist == hist[first]).all())


def _search_at_size(h: Hypergroup, n: int, plan: _Plan | None = None):
    """Backtracking over class matrices with s = m classes at a fixed point count.

    What depends only on h comes from ``plan``, which ``search_realization``
    makes once a call for every size: the valency vectors of n points, and
    the class supports, built at the first leaf of any size.  A lone call
    makes a plan for n alone.  A size with no valency vector returns at once.

    Cells fill column by column, and the classes tried at (x, z), ascending,
    are the bits of the AND over w < x of h.masks[rel[x][w]][rel[w][z]]: each
    triangle is checked the moment its last edge appears, and h is reversible,
    so its other two orientations are in h's table as well.  Row counts are
    bounded only by the valency guard: every class c >= 1 enters row v at most
    val[c] times, and these valencies sum to n - 1, so each partial row can
    still be completed and needs no separate test.  So every leaf's row 0 is
    [0] and val[c] copies of each c, ascending; cell (0, z) offers only that.
    At a leaf, ``_counts_fit`` must hold before ``build_scheme`` runs: a leaf
    it rejects has a count that varies on a class, so it is no scheme, or a
    support that differs from h's cell, so its class table is not h's.  A
    scheme that passes is returned without its class hypergroup, which is h
    literally: the class pairs at every pair of class r are those at its
    first, which are plan.supports[r], the (p, q) with r in p*q, and ``assign``
    writes inv(c) beside each c, so the stars are h's inverses.  The filter
    and ``build_scheme`` count by one pair histogram, ``_pair_histogram``: a
    leaf of at most SEARCH_POINT_BOUND points takes that route in the build
    too.  Every leaf is counted, filtered or not.  Returns (scheme or None,
    leaf count).

    Lex-leader pruning (Crawford, Ginsberg, Luks and Roy, KR 1996) drops
    leaves that are relabellings of smaller ones.  For a fixed val, row 0 is
    [0] followed by the sorted classes.  Take 1 <= y < n - 1 with
    rel[0][y] == rel[0][y + 1] and let t swap the points y and y + 1.  The
    matrix tM, tM[a][b] = M[t(a)][t(b)], has the same row 0, valencies and
    class table as M, so t maps accepted leaves to accepted leaves.  Classes
    are tried in ascending order, so the first accepted leaf M is the least
    in fill order, and M <= tM there.  Requiring cells(M) <= cells(tM) for
    every such t therefore drops only leaves that are not least, and the
    search returns the same matrix as without it.  In fill order, M and tM
    first differ at one of these positions P, where M[P] < M[t(P)] must hold:
    (u, y) for u = 1..y-1, then (y, y + 1), then (y, z) for z > y + 1.  Each
    is checked when the later of P and t(P) is placed, while every earlier
    position of the chain is tied; ``tied`` holds one flag per cell of the
    chain, written when the cell is entered, so nothing is undone.  Only a
    class that passed the mask and the guard reaches the chain and writes
    tied[i]; the flag is read only below cell i on the current path, so it
    was always written for the class now at i.
    """
    plan = plan if plan is not None else _search_plan(h, n)
    if not plan.valencies[n]:
        return None, 0
    m, star, masks = h.m, h.inv, h.masks
    cells = [(x, z) for z in range(1, n) for x in range(z)]  # (x, z) is cell z(z-1)/2 + x
    size = len(cells)
    leaves = 0

    for val in plan.valencies[n]:
        # plain lists while the tree runs; a cell is read only after the current
        # path has set it, so nothing is reset on backtracking
        rel = [[0] * n for _ in range(n)]
        counts = [[0] * m for _ in range(n)]
        # links[i]: for each chain whose check falls on cell i, its flags, its
        # previous cell and the positions P and t(P) as (row, column)
        links = [[] for _ in cells]
        row0 = [0] + [c for c in range(1, m) for _ in range(val[c])]
        for y in range(1, n - 1):
            if row0[y] != row0[y + 1]:
                continue
            v = y + 1
            tied = [False] * size + [True]  # tied[-1]: a chain starts tied
            prev = -1
            chain = [(u, y, u, v) for u in range(1, y)] + [(y, v, v, y)]
            chain += [(y, z, v, z) for z in range(v + 1, n)]
            for pr, pc, qr, qc in chain:
                i = qr * (qr - 1) // 2 + qc if qc < qr else qc * (qc - 1) // 2 + qr
                links[i].append((tied, prev, rel[pr], pc, rel[qr], qc))
                prev = i

        def assign(i: int):
            nonlocal leaves
            if i == size:
                leaves += 1
                if plan.supports is None:
                    plan.supports = _class_supports(masks)
                matrix = np.array(rel, dtype=np.int64)
                if not _counts_fit(matrix, plan.supports):
                    return None
                candidate = build_scheme(n, matrix)
                return candidate if isinstance(candidate, AssociationScheme) else None
            x, z = cells[i]
            row_x, count_x, count_z = rel[x], counts[x], counts[z]
            lex = links[i]
            # e*c = {c} forces row 0; elsewhere -2 keeps every class but 0
            allowed = masks[0][row0[z]] if x == 0 else -2
            for w in range(x):
                allowed &= masks[row_x[w]][rel[w][z]]
            while allowed:
                bit = allowed & -allowed
                allowed ^= bit
                c = bit.bit_length() - 1
                cs = star[c]
                if count_x[c] >= val[c] or count_z[cs] >= val[cs]:
                    continue
                row_x[z], rel[z][x] = c, cs
                # lex-leader: rel[P] <= rel[t(P)] while the chain is tied
                for tied, prev, p_row, p, q_row, q in lex:
                    if tied[prev]:
                        if p_row[p] > q_row[q]:
                            break
                        tied[i] = p_row[p] == q_row[q]
                    else:
                        tied[i] = False
                else:
                    count_x[c] += 1
                    count_z[cs] += 1
                    result = assign(i + 1)
                    if result is not None:
                        return result
                    count_x[c] -= 1
                    count_z[cs] -= 1
            return None

        found = assign(0)
        if found is not None:
            return found, leaves
    return None, leaves


def search_realization(
    h: Hypergroup, n_max: int, progress: Callable[[str], None] | None = None
) -> AssociationScheme | None:
    """Exhaustive search for a scheme whose class hypergroup is isomorphic to h.

    Explores point counts from the number of elements of h up to n_max, with
    exactly one class per element; the identity of h is relabelled 0 first.
    Deterministic: the first scheme in the fixed enumeration order is
    returned; per exhausted size a progress line
    "n=<k> exhausted: <count> candidate matrices, 0 matches" is emitted,
    where <count> is the number of leaves of the lex-leader-pruned tree.
    """
    if n_max > SEARCH_POINT_BOUND:
        raise SizeGuardError(
            f"realization search refused: n_max={n_max} exceeds bound {SEARCH_POINT_BOUND}"
        )
    h = _identity_first(h)
    plan = _search_plan(h, n_max)
    for n in range(h.m, n_max + 1):
        found, leaves = _search_at_size(h, n, plan)
        if found is not None:
            return found
        if progress is not None:
            progress(f"n={n} exhausted: {leaves} candidate matrices, 0 matches")
    return None
