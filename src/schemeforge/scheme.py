"""Finite association schemes: axiom verification, structure constants, and the
intrinsic constructions (complex multiplication, closed subsets, restriction,
product, quotient, isomorphism testing).

Questions about class sets are asked of the scheme's class hypergroup
(``AssociationScheme.hypergroup``, built once per scheme): complex products,
closed subsets and normal closed subsets are its products, sub-hypergroups and
normal sub-hypergroups, and double cosets (a quotient's classes among them) are
read off its coset pass.  Quotient blocks are an array pass over rel.
Isomorphism search runs on ``hypergroup.find_bijection``.

A scheme lives on the point set 0..n-1.  Its relations ("classes") partition
the n x n index square; class 0 is always the diagonal, and ``star`` maps each
class to its transpose class.  For classes p, q, r the structure constant
``constants[p][q][r]`` counts, for any pair (y, z) in class r, the points x
with (y, x) in class p and (x, z) in class q; an n x n class matrix is a
scheme exactly when these counts do not depend on the chosen (y, z).

``build_scheme`` checks every count exactly, on one of two routes.  When the
n^3 keys and n^2 s^2 counts of ``_pair_histogram`` each fit in the smallest
block, ``_BLOCK_BYTES[0]``, one bincount counts the points x of every (y, z,
p, q) by definition, as integers, so no bound is needed.  Larger matrices are
checked by float64 BLAS products.  The count of (p, q) at (y, z) is at most
the number of x with rel[x, z] = q, so at most bound[q], the most points of
class q in any one column, read off the matrix itself by one bincount (a
matrix that is no scheme can have uneven columns, so no valency is
assumed).  Class q's count is a digit of radix
bound[q] + 1, and ``count_radices`` fills column groups in class order while
the product of their radices stays <= 2^53.  The packing is injective, and
every partial sum of a product is an integer between 0 and the final sum, so
below 2^53: float64 holds it exactly, with no rounding argument.

The counts of a few classes settle all the others.  Let V be the span of the
class matrices A_r, and L_g[r, q] = c[g, q, r] for a class g.  If every count
of g checks out, A_g A_q = sum_r c[g, q, r] A_r for each q: A_g maps V into V,
and L_g is its matrix there.  Let the counts of each g in a set G check out,
and let the words in the L_g applied to e_0 (the diagonal, the identity) span
rank s.  Those words are the coordinates of the words in the A_g, so
V lies in alg(G), and V V lies in alg(G) V, which lies in V.  So A_p A_q is some
sum_r d_r A_r for every p and q.  Its entry at the first pair of class r is
d_r, and it is also the count read there, c[p, q, r].  So every count equals
its constant, though only G's were checked.  The words are nonnegative
integer vectors, as the constants are counts.  So the support of a word is
exact, and a word whose support leaves the union of the earlier words'
supports by one class is independent of them: s such words have rank s over
Q, with no prime and no floats.  ``generating_classes`` finds G that way when
every word it forms leaves that union by at most one class (every group
scheme's do), and otherwise by rank mod a prime: rank s there gives s words
whose determinant is nonzero mod the prime, so nonzero, and ``_PRIME`` < 2^20
keeps every int64 product of residues exact.  It finds G from the constants
as read; the argument trusts nothing but the two checks, so on a matrix that
is no scheme some row of G fails.  Class 0's counts always hold: c[0, q, r]
is 1 when q = r and 0 otherwise.

A class g of G may skip its product and be counted through its
neighbourhoods N_g(y) = {x : rel[y, x] = g}, in int64.  The count of (g, q)
at (y, z) is the number of x in N_g(y) with rel[x, z] = q.  When every row
holds exactly k_g points of class g, checked directly, that count is at most
k_g, and so is each constant c[g, q, r], read at a pair whose row holds k_g
points of g too.  With K the largest such k_g and v[q] = (K + 1)^q, the
counts of g at (y, z) are the digits of radix K + 1 of the sum of
v[rel[x, z]] over x in N_g(y).  No digit carries, so the packing is
injective, and when (K + 1)^s < 2^63 every sum, partial sum and packed
constant is an int64 below it.  G is sought in ascending valency, so that
its classes are sparse.
"""

from __future__ import annotations

import dataclasses
import functools

import numpy as np

from .errors import _WITNESS_CAP, Report, SizeGuardError, VerificationError, Violation, _integers, require
from .hypergroup import (
    _BLOCK_BYTES,
    Hypergroup,
    _cosets,
    _members,
    closure_lattice,
    find_bijection,
    is_normal_sub,
    is_sub_hypergroup,
    support_hypergroup,
)

CLOSED_SUBSET_CLASS_BOUND = 25
CONSTANTS_CLASS_BOUND = 512  # s^3 int64 constants of 1 GiB (see build_scheme)

SchemeReport = Report  # former name, kept for existing callers


@dataclasses.dataclass(frozen=True, eq=False)
class AssociationScheme:
    n: int
    s: int
    rel: np.ndarray          # n x n class matrix, read-only
    star: tuple[int, ...]    # class -> transpose class
    constants: np.ndarray    # s x s x s intersection numbers, read-only
    valency: tuple[int, ...]

    def classes(self) -> range:
        return range(self.s)

    def class_set(self) -> frozenset[int]:
        return frozenset(range(self.s))

    @functools.cached_property
    def hypergroup(self) -> Hypergroup:
        """The hypergroup on the classes, built once: p*q is the support of the
        structure constants, the identity is the diagonal class, inversion is star.
        """
        return require(support_hypergroup(self.constants > 0, 0, self.star))


def _freeze(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


def count_radices(rel: np.ndarray, s: int) -> tuple[list[int], list[int], list[int]]:
    """(radix, group, place) of each class q: its digit's radix, column group
    and place value in the count check (the module docstring says why)."""
    n = len(rel)
    # bound[q]: the most points of class q in one column, from one bincount by (z, q)
    per_column = np.bincount((rel + s * np.arange(n)).ravel(), minlength=s * n)
    bound = per_column.reshape(n, s).max(axis=0, initial=0)
    radix, group, place = (bound + 1).tolist(), [], []
    j, width = 0, 1  # group j's radix product so far
    for r in radix:
        if width * r > 2 ** 53:
            j, width = j + 1, 1
        group.append(j)
        place.append(width)
        width *= r
    return radix, group, place


_PRIME = 1048573  # the largest prime below 2^20, so a product of two residues is below 2^40


def _mulmod(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a @ b mod _PRIME for int64 residues: the inner axis is at most s <=
    CONSTANTS_CLASS_BOUND = 2^9 long, so every partial sum is an integer
    below 2^9 * 2^40 = 2^49, exact in int64."""
    return a @ b % _PRIME


def _extend(basis: np.ndarray, pivots: list[int], new: np.ndarray) -> np.ndarray:
    """The reduced echelon basis mod _PRIME of span(basis) + span(new), by
    Gauss-Jordan one pivot at a time.  pivots grows in place, and the rows
    after the old ones span what is new."""
    rest = (new - _mulmod(new[:, pivots], basis)) % _PRIME
    while len(rest := rest[rest.any(axis=1)]):
        # the first row, scaled to lead 1, clears its lead column elsewhere;
        # each term of the outer products is below 2^40
        lead = int(np.argmax(rest[0] != 0))
        row = rest[0] * pow(int(rest[0, lead]), -1, _PRIME) % _PRIME
        basis = np.vstack([(basis - np.outer(basis[:, lead], row)) % _PRIME, row])
        rest = (rest[1:] - np.outer(rest[1:, lead], row)) % _PRIME
        pivots.append(lead)
    return basis


def generating_classes(constants: np.ndarray, order) -> list[int] | None:
    """Classes G whose words reach every class from the diagonal: the words in
    the L_g, L_g[r, q] = constants[g, q, r], applied to e_0 span rank s.  Each
    g is the first class in ``order`` whose e_g lies outside the span reached
    so far, once that span is closed under every earlier L_g; None if
    ``order`` runs out first.

    The support pass finds G when it can, with no prime and no floats;
    otherwise the int64 rounds mod _PRIME find it, from the start.
    Soundness does not depend on the order, the prime or the constants
    being right (see the module docstring).
    """
    gens = _support_generators(constants, order)
    return _rank_generators(constants, order) if gens is None else gens


def _support_generators(constants: np.ndarray, order) -> list[int] | None:
    """generating_classes read off the supports of the words, or None to hand
    over to the rounds.

    The constants are counts, so every L_g and every word is a nonnegative
    integer vector: no cancellation can occur, and the support of L_g w is
    exact, the OR over q in the support of w of the mask {r : c[g, q, r] > 0}.
    U, a mask, is the union of the supports of the words kept so far, from
    e_0.  Each kept word's image under each generator is formed once, first
    in first out, and kept when it leaves U by exactly one class t: it is
    then c e_t plus a vector inside U, with c > 0.  So the kept words form a
    triangular system, each independent of the earlier ones, and by
    induction they span span{e_t : t in U} over Q; an image inside U adds
    nothing.  When no image is left to form, that span is closed under every
    L_g of G, so it is the span the rounds close to: its reduced echelon
    basis is the unit vectors of U, which is the rounds' "inside" set, and
    the next generator, the first class in ``order`` outside U, is theirs.
    G is therefore the rounds' G, except where a pivot vanishes mod _PRIME
    and the rounds lose rank that the supports keep.  Once U holds every
    class, s kept words have rank s over Q.  An image that leaves U by two
    or more classes, or an ``order`` that runs out, hands over.
    """
    s = len(constants)
    inside, gens, images = 1, [], []  # images[i][q]: the support of L_g e_q, g = gens[i]
    words, todo, done = [1], [], 0  # todo: (word, images[i]) pairs, formed in order from done
    while inside != (1 << s) - 1:
        if done == len(todo):
            # the span is closed under every L_g so far: add a class outside it
            g = next((p for p in order if not inside >> p & 1), None)
            if g is None:
                return None
            packed = np.packbits(constants[g] > 0, axis=1, bitorder="little").tobytes()
            width = len(packed) // s
            images.append([int.from_bytes(packed[i:i + width], "little") for i in range(0, len(packed), width)])
            gens.append(g)
            todo += [(word, images[-1]) for word in words]
        word, image = todo[done]
        done += 1
        out = 0  # the support of the image: image[q] ORed over the classes q of word
        while word:
            low = word & -word
            out |= image[low.bit_length() - 1]
            word ^= low
        new = out & ~inside
        if new & (new - 1):
            return None
        if new:
            inside |= new
            words.append(out)
            todo += [(out, each) for each in images]
    return gens


def _rank_generators(constants: np.ndarray, order) -> list[int] | None:
    """generating_classes by rank mod _PRIME: the words' span is closed under
    every L_g in rounds.  A new generator's L_g is applied to the whole span;
    each later round applies every L_g in G to the rows new in the last
    round, until a round adds none.
    """
    s = len(constants)
    basis, pivots = np.eye(1, s, dtype=np.int64), [0]
    gens, stack, fresh = [], np.zeros((s, 0), dtype=np.int64), basis[:0]
    while len(pivots) < s:
        if len(fresh):
            new = _mulmod(fresh, stack).reshape(-1, s)
        else:
            # the span is closed under every L_g so far: add a class outside it
            inside = np.zeros(s, dtype=bool)
            inside[np.array(pivots)[np.count_nonzero(basis, axis=1) == 1]] = True
            g = next((p for p in order if not inside[p]), None)
            if g is None:
                return None
            gens.append(g)
            stack = np.hstack([stack, constants[g] % _PRIME])
            new = _mulmod(basis, stack[:, -s:])
        k = len(basis)
        basis = _extend(basis, pivots, new)
        fresh = basis[k:]
    return gens


def _pair_histogram(rel: np.ndarray, s: int) -> np.ndarray:
    """Row y * n + z holds at p * s + q the number of points x with rel[y, x] = p
    and rel[x, z] = q: one bincount of n^3 keys, exact integers."""
    n = len(rel)
    keys = np.arange(0, n * n * s * s, s * s).reshape(n, 1, n) + (rel * s)[:, :, None] + rel
    return np.bincount(keys.ravel(), minlength=n * n * s * s).reshape(n * n, s * s)


def _counted_constants(rel: np.ndarray, s: int, ys: np.ndarray, zs: np.ndarray) -> tuple[np.ndarray, list[Violation]]:
    """The constants read at each class's first pair (ys, zs), and in (p, q, r)
    order the first pair of class r where the count of (p, q) differs (see
    build_scheme): by the pair histogram when its n^3 keys and n^2 s^2 counts
    each fit in the smallest block, else by the radix route."""
    n = len(rel)
    route = _histogram_counts if 8 * n * n * max(n, s * s) <= _BLOCK_BYTES[0] else _radix_counts
    constants, witness = route(rel, s, ys, zs)
    if witness is None:
        return constants, []
    keys = np.flatnonzero(witness < n * n)[:_WITNESS_CAP]
    return constants, [
        Violation("constants", (key // (s * s), key // s % s, key % s) + divmod(at, n))
        for key, at in zip(keys.tolist(), witness[keys].tolist())
    ]


def _histogram_counts(rel: np.ndarray, s: int, ys: np.ndarray, zs: np.ndarray) -> tuple[np.ndarray, np.ndarray | None]:
    """(constants, witness): c[., ., r] is the pair histogram's row at r's first
    pair, and witness[(p * s + q) * s + r] the first pair y * n + z of class r
    whose row differs there at (p, q), n * n for none; None if no row differs."""
    n = len(rel)
    hist, flat = _pair_histogram(rel, s), rel.ravel()
    at_first = hist[ys * n + zs]
    constants = at_first.T.copy().reshape(s, s, s)
    differ = hist != at_first[flat]
    if not differ.any():
        return constants, None
    pair, pq = np.nonzero(differ)
    witness = np.full(s ** 3, n * n)
    np.minimum.at(witness, pq * s + flat[pair], pair)
    return constants, witness


_NEIGHBOURHOOD_COST = 32  # measured where neighbourhoods beat products (build_scheme)


def _neighbourhood_counts(rel: np.ndarray, constants: np.ndarray, classes: list[int], k: list[int]) -> list[int] | None:
    """The classes g of ``classes`` whose counts all hold, checked through the
    neighbourhoods N_g(y) in int64, or None if a count differs.  g is checked
    when every row holds exactly k[g] points of class g and (k[g] + 1)^s <
    2^63; with K the largest such k[g], row y's packed counts of g are the
    sum of v[rel[x]] over x in N_g(y), v[q] = (K + 1)^q, in row blocks of
    256 KB (the module docstring says why this is exact)."""
    n, s = len(rel), len(constants)
    cols = {}  # g -> the k[g] points of class g in each row, row by row
    for g in classes:
        if (k[g] + 1) ** s < 2 ** 63:
            at = np.flatnonzero(rel == g)
            if np.array_equal(at // n, np.arange(n * k[g]) // k[g]):
                cols[g] = (at % n).reshape(n, k[g])
    if not cols:
        return []
    v = (max(k[g] for g in cols) + 1) ** np.arange(s, dtype=np.int64)  # digit q's place value
    vrel = np.take(v, rel)
    step = max(1, (1 << 18) // (8 * n))
    for g, points in cols.items():
        want = constants[g].T @ v  # class r's packed constants of g
        for start in range(0, n, step):
            got = np.take(vrel, points[start:start + step, 0], axis=0)
            for j in range(1, k[g]):
                got += np.take(vrel, points[start:start + step, j], axis=0)
            if not np.array_equal(got, np.take(want, rel[start:start + step])):
                return None
    return list(cols)


def _radix_counts(rel: np.ndarray, s: int, ys: np.ndarray, zs: np.ndarray) -> tuple[np.ndarray, np.ndarray | None]:
    """_histogram_counts by packed float64 products, and G's sparse classes
    through their neighbourhoods in int64 (see build_scheme); witness is exact
    at the first _WITNESS_CAP keys it holds."""
    n = len(rel)
    keys = (rel[ys] * s + rel[:, zs].T) * s + np.arange(s)[:, None]
    constants = np.bincount(keys.ravel(), minlength=s ** 3).reshape(s, s, s)

    radix, group, place = count_radices(rel, s)
    groups = group[-1] + 1 if s else 0

    # G pays off only when the check is more than one largest block, and only
    # when every column holds row 0's count of each class, as a scheme's do
    gens = []
    if (s - 1) * 8 * n * n * groups > _BLOCK_BYTES[1] and np.array_equal(np.bincount(rel[0], minlength=s) + 1, radix):
        gens = generating_classes(constants, sorted(range(1, s), key=radix.__getitem__))
        # G's sparse classes go through their neighbourhoods; if those hold, the
        # rest of G goes by products
        k = [r - 1 for r in radix]
        routed = _neighbourhood_counts(rel, constants, [g for g in gens if _NEIGHBOURHOOD_COST * k[g] <= n * groups], k)
        if routed is not None:
            gens = [g for g in gens if g not in routed]
            if not gens:
                return constants, None

    weights = np.zeros((s, groups))
    weights[np.arange(s), group] = place
    packed = np.take(weights, rel, axis=0).reshape(n, n * groups)
    # a block's product takes no more bytes than packed itself, within the bounds
    block = min(max(packed.nbytes, _BLOCK_BYTES[0]), _BLOCK_BYTES[1])
    step = max(1, block // (8 * max(n * groups, 1)))
    # rows of class 0 always pass; G's go first, and if they pass they settle the rest
    order = np.array(gens + [p for p in range(1, s) if p not in gens], dtype=np.int64)
    cut, end = len(gens) * n, len(order) * n
    bounds = [*range(0, cut, step), *range(cut, end, step), end]
    expect = np.zeros((s, s, groups))  # class p's packed constants, made before p's rows
    if gens:
        expect[gens] = constants[gens].transpose(0, 2, 1) @ weights
    done = np.zeros(s + 1, dtype=bool)  # classes whose rows are all checked
    done[0] = True
    found = np.zeros(s, dtype=np.int64)  # witnesses so far, by class p
    witness = None  # by (p, q, r); n * n where none is found; made at the first one
    for start, stop in zip(bounds, bounds[1:]):
        if start == cut:
            if gens and witness is None:
                break
            others = order[len(gens):]
            expect[others] = constants[others].transpose(0, 2, 1) @ weights
        ps, ys = np.divmod(np.arange(start, stop), n)
        ps = order[ps]
        rows = np.take(rel, ys, axis=0)
        counts = ((rows == ps[:, None]) @ packed).reshape(len(ps), n, groups)
        # expect[p, r] is row p * s + r of expect as one s*s x groups table
        differ = np.flatnonzero(counts != np.take(expect.reshape(s * s, groups), ps[:, None] * s + rows, axis=0))
        done[order[: stop // n]] = True
        if differ.size:
            if witness is None:
                witness = np.full(s ** 3, n * n)
            i, z, j = np.unravel_index(differ, counts.shape)
            got, want = counts[i, z, j].astype(np.int64), expect[ps[i], rows[i, z], j].astype(np.int64)
            # class q's count is the digit of radix radix[q] at place[q] in group group[q]
            for q in range(s):
                off = (j == group[q]) & (got // place[q] % radix[q] != want // place[q] % radix[q])
                key = (ps[i[off]] * s + q) * s + rows[i[off], z[off]]
                np.minimum.at(witness, key, ys[i[off]] * n + z[off])
            hit = order[start // n: (stop - 1) // n + 1]  # the classes of this block
            found[hit] = np.count_nonzero(witness.reshape(s, s * s)[hit] < n * n, axis=1)
        # the classes below the first one not done are complete
        if witness is not None and found[: np.argmin(done)].sum() >= _WITNESS_CAP:
            break
    return constants, witness


def build_scheme(n: int, rel) -> AssociationScheme | Report:
    """Verify the scheme axioms for an n x n class matrix, every count exactly.

    Returns a fully populated AssociationScheme on success.  On failure returns
    a Report whose violations all belong to the first failing axiom, each
    with a concrete witness.

    The constants are read at the first pair of each class, row-major.  On
    the histogram route every pair's row must equal its class's first.  On
    the radix route row (p, y) of A_p @ R packs, at each (y, z), the counts
    of the classes q of each column group, where R holds class q's place
    value at (x, z) in q's group for q = rel[x, z]; it must equal the same
    packing of the constants.  Each class p costs groups * n^3
    multiply-adds, in row blocks of at most 2 MB.  Class 0 is never checked,
    and the rows of a generating set G go first; if they pass, the matrix is
    a scheme (the module docstring says why).  G is sought, in ascending
    valency, only when the whole check is more than one 2 MB block, and only
    when every column holds row 0's count of each class.

    A class g of G with _NEIGHBOURHOOD_COST * k_g <= groups * n is first
    counted through its neighbourhoods instead, about k_g * n^2 int64
    additions in row blocks of 256 KB (the module docstring says why this is
    exact, and when it applies).  On a 2-core Intel Xeon with 7.8 GB and
    OpenBLAS 0.3.31 at its default two threads, a product costs 0.025-0.045
    ns a multiply-add and a neighbourhood 0.7-0.9 ns a point and pair, plus
    2.5-8 ns a pair; the products and the neighbourhoods broke even at k_g =
    groups * n / 20 on H(8,2), / 28 on fano x H(3,2), / 30 on H(10,2) and /
    37 on H(9,2), so _NEIGHBOURHOOD_COST = 32 (256 KB blocks beat 64 KB and
    2 MB ones).  A scheme thus costs about the sum of k_g * n^2 over the
    classes of G so counted and groups * n^3 for each other one.  If a
    neighbourhood differs, the check starts over with G's products.  If a
    row of G fails, the other classes follow in order until 25 witnesses are
    settled, so a refusal names the same witnesses in the same order as a
    check of every class.

    Once the counts pass, sum_r c[p, q, r] k_r = k_p k_q for the valencies
    k_p = c[p, star p, 0], so it is not checked.  The diagonal and star
    checks give rel[x, y] = star(rel[y, x]), star an involution, and (y, y)
    in class 0, so the verified count of (p, star p) at (y, y) is #{x :
    rel[y, x] = p}: every row holds k_p points of class p.  For one y, the
    pairs (x, z) with rel[y, x] = p and rel[x, z] = q number k_p k_q by x,
    and sum_r k_r c[p, q, r] by z.  On the radix route with G this rests on
    the module docstring's argument that every count equals its constant.

    A matrix that ``errors._integers`` does not read as an int64 array, or
    an n that it does not read as an integer, is refused by shape.
    Missing classes are found from the distinct labels, so a huge label
    costs no memory.  Every class of a scheme occurs in row 0, so a matrix
    with more classes than points is refused there, before any s^3 array.
    More than CONSTANTS_CLASS_BOUND classes raise SizeGuardError before the
    constants are allocated: the group scheme of Z/512 (1 GiB of them) builds
    at 1.1 GB peak RSS, and Z/1024's would take 8 GiB.
    """
    given, rel = rel, _integers(rel, 2)
    # a scheme has the diagonal class, so at least one point
    if rel is None or _integers(n) is None or n < 1 or rel.shape != (n, n):
        return Report((Violation("shape", (n, np.shape(given) if rel is None else rel.shape)),))
    rel_flat = rel.ravel()

    if rel.min() < 0:
        x, y = divmod(int(np.argmax(rel_flat < 0)), n)
        return Report((Violation("classes", (x, y, int(rel[x, y]))),))
    s = int(rel.max()) + 1
    # the distinct labels, sorted: a bincount no larger than rel, or a sort when
    # some label exceeds n*n (and so leaves classes missing), not np.unique,
    # which imports numpy.ma
    if s <= rel.size:
        labels = np.flatnonzero(np.bincount(rel_flat, minlength=s))
    else:
        labels = np.sort(rel_flat)
        labels = labels[np.concatenate(([True], labels[1:] != labels[:-1]))]
    if len(labels) < s:
        # labels[i] - i classes are missing below labels[i], so missing class k
        # (from 0) is k plus the number of labels with at most k missing below them
        ks = np.arange(min(s - len(labels), _WITNESS_CAP))
        missing = ks + np.searchsorted(labels - np.arange(len(labels)), ks, side="right")
        return Report(tuple(Violation("classes", (c,)) for c in missing.tolist()))

    # class 0 is the diagonal, rel_flat[:: n + 1]: rel[x][x] = 0 and 0 appears nowhere else
    off = rel_flat == 0
    off[:: n + 1] = False
    wrong = [(x, x) for x in np.flatnonzero(rel_flat[:: n + 1]).tolist()]
    wrong += [divmod(xy, n) for xy in np.flatnonzero(off)[:_WITNESS_CAP].tolist()]
    if wrong:
        return Report(tuple(Violation("diagonal", xy) for xy in wrong[:_WITNESS_CAP]))

    # each class is read at its first pair in row-major order; row 0 comes first
    # and holds every class of a scheme, so the whole matrix is scanned only
    # when some class is missing there
    first = np.full(s, n * n)
    np.minimum.at(first, rel_flat[:n], np.arange(n))
    if (first == n * n).any():
        np.minimum.at(first, rel_flat, np.arange(n * n))

    # transposing any class must land in a single class
    ys, zs = np.divmod(first, n)
    star = rel[zs, ys]
    moved = np.flatnonzero(rel.T != star[rel])
    if moved.size:
        _, at = np.unique(rel_flat[moved], return_index=True)
        return Report(tuple(
            Violation("star", divmod(int(k), n)) for k in moved[at[:_WITNESS_CAP]]
        ))

    # every class of a scheme occurs in row 0: name the classes missing there
    if s > n:
        absent = np.flatnonzero(np.bincount(rel[0], minlength=s) == 0)[:_WITNESS_CAP]
        return Report(tuple(Violation("valency", (c,) + divmod(int(first[c]), n)) for c in absent.tolist()))

    if s > CONSTANTS_CLASS_BOUND:
        raise SizeGuardError(f"scheme verification refused: s={s} exceeds bound {CONSTANTS_CLASS_BOUND} "
                             f"({8 * s ** 3} bytes of dense constants)")
    constants, bad = _counted_constants(rel, s, ys, zs)
    if bad:
        return Report(tuple(bad))

    valency = tuple(int(constants[p, star[p], 0]) for p in range(s))
    return AssociationScheme(
        n=n, s=s, rel=_freeze(rel), star=tuple(star.tolist()),
        constants=_freeze(constants), valency=valency,
    )


def _check_class_sets(scheme: AssociationScheme, *sets) -> list[frozenset[int]]:
    out = []
    for part in sets:
        part = frozenset(map(_integers, part))
        if not part:
            raise ValueError("class set must be nonempty")
        if None in part:
            raise ValueError("class indices must be integers")
        if not part <= scheme.class_set():
            raise ValueError(f"class indices out of range 0..{scheme.s - 1}: {sorted(part)}")
        out.append(part)
    return out


def _closed_set(scheme: AssociationScheme, tset) -> frozenset[int]:
    """The checked class set, or ValueError when it is not closed."""
    (tset,) = _check_class_sets(scheme, tset)
    if not is_sub_hypergroup(scheme.hypergroup, tset):
        raise ValueError(f"class set {sorted(tset)} is not closed")
    return tset


def complex_mult(scheme: AssociationScheme, pset, qset) -> frozenset[int]:
    """Complex product: classes r with constants[p][q][r] >= 1 for some p, q in the inputs."""
    pset, qset = _check_class_sets(scheme, pset, qset)
    return scheme.hypergroup.product(pset, qset)


def is_commutative(scheme: AssociationScheme) -> bool:
    return bool(np.array_equal(scheme.constants, scheme.constants.transpose(1, 0, 2)))


def is_closed(scheme: AssociationScheme, tset) -> bool:
    """True when the class set contains the diagonal class and star(T)T stays inside T,
    that is, when it is a sub-hypergroup of the class hypergroup."""
    (tset,) = _check_class_sets(scheme, tset)
    return is_sub_hypergroup(scheme.hypergroup, tset)


def closed_subsets(scheme: AssociationScheme) -> list[frozenset[int]]:
    """All closed class subsets, in lexicographic order of their sorted members.

    A class set containing 0 has star(T)T inside T exactly when it is closed
    under complex product and star, so these are the closure lattice of the
    class hypergroup (``hypergroup.closure_lattice``): one closure per closed
    subset and distinct closure of one class outside it.  Refused for schemes
    with more than CLOSED_SUBSET_CLASS_BOUND classes.
    """
    s = scheme.s
    if s > CLOSED_SUBSET_CLASS_BOUND:
        raise SizeGuardError(
            f"closed-subset enumeration refused: s={s} exceeds bound {CLOSED_SUBSET_CLASS_BOUND}"
        )
    return closure_lattice(scheme.hypergroup)


def is_primitive(scheme: AssociationScheme) -> bool:
    """True when the only closed subsets are the diagonal class and the full class set."""
    return len(closed_subsets(scheme)) <= 2


def is_normal_closed(scheme: AssociationScheme, tset) -> tuple[bool, bool]:
    """Normality of a closed subset: (pT == Tp for all p, star(p)Tp == T for all p),
    its closedness checked once, by the coset pass of ``is_normal_sub``."""
    (tset,), h = _check_class_sets(scheme, tset), scheme.hypergroup
    try:
        return is_normal_sub(h, tset)
    except ValueError:
        raise ValueError(f"class set {sorted(tset)} is not closed") from None


def restrict_scheme(scheme: AssociationScheme, tset, x0: int) -> AssociationScheme:
    """Restrict to the points reachable from x0 through classes of a closed subset T.

    The restricted classes are the classes of T cut down to the new point set,
    renumbered in increasing original order; structure constants carry over.
    """
    tset = _closed_set(scheme, tset)
    if _integers(x0) is None or not 0 <= x0 < scheme.n:
        raise ValueError(f"point {x0!r} out of range")
    points = [y for y in range(scheme.n) if scheme.rel[x0, y] in tset]
    # T is closed, so every pair of these points has its class in T: rank it there
    new_rel = np.searchsorted(sorted(tset), scheme.rel[np.ix_(points, points)])
    return require(build_scheme(len(points), new_rel))


def product_scheme(s1: AssociationScheme, s2: AssociationScheme) -> AssociationScheme:
    """Direct product on the point set X1 x X2; classes are pairs (p1, p2).

    Point (x1, x2) gets index x1*n2 + x2 and class (p1, p2) gets index p1*s2 + p2.
    """
    rel = (s1.rel[:, None, :, None] * s2.s + s2.rel[None, :, None, :]).reshape(
        s1.n * s2.n, s1.n * s2.n
    )
    return require(build_scheme(s1.n * s2.n, rel))


def _numbered(first: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """A partition read from each element's smallest partner: (the smallest
    members, each element's part), parts numbered by smallest member.  A closed
    N makes x ~ y an equivalence on points, with x's smallest partner the first
    y where rel[x, y] is in N: the argmax over rel of N's indicator."""
    firsts = np.flatnonzero(first == np.arange(len(first)))
    return firsts, np.searchsorted(firsts, first)


def _double_cosets(scheme: AssociationScheme, nset: frozenset[int]) -> tuple[bool, list[int], list[int]]:
    """(whether Np = pN for every class p, the double cosets NpN as masks by
    smallest class, each class's coset) from the coset pass ``_cosets``: NpN is
    the OR of t*N over t in N*p, and pNN = pN when N is normal."""
    try:
        _, n_p, p_n = _cosets(scheme.hypergroup, nset)
    except ValueError:
        raise ValueError(f"class set {sorted(nset)} is not closed") from None
    normal = n_p == p_n
    npn = p_n if normal else [functools.reduce(int.__or__, map(p_n.__getitem__, _members(c))) for c in n_p]
    # p lies in its own NpN (e is in N and p*e = {p}), so the double cosets
    # partition the classes (r in NpN exactly when p and r have one smallest
    # class) when the distinct ones are disjoint
    number: dict[int, int] = {}
    coset_of = [number.setdefault(c, len(number)) for c in npn]
    if sum(map(int.bit_count, number)) != len(npn):
        low = [c & -c for c in npn]
        bad = [Violation("double_cosets", (p, r)) for p, c in enumerate(npn) for r in range(len(npn))
               if (c >> r & 1) != (low[r] == low[p])]
        raise VerificationError(bad[:_WITNESS_CAP], "double cosets overlap")
    return normal, list(number), coset_of


def quotient_blocks(scheme: AssociationScheme, nset) -> tuple[list[tuple[int, ...]], tuple[int, ...]]:
    """Point blocks of a closed subset: x ~ y when rel[x][y] lies in N.

    Blocks are sorted by smallest member; returns (blocks, block index per point).
    """
    in_n = np.bincount(sorted(_closed_set(scheme, nset)), minlength=scheme.s)
    firsts, block_of = _numbered(in_n[scheme.rel].argmax(axis=1))
    blocks = [tuple(np.flatnonzero(block_of == b).tolist()) for b in range(len(firsts))]
    return blocks, tuple(block_of.tolist())


def double_cosets(scheme: AssociationScheme, nset) -> tuple[list[frozenset[int]], tuple[int, ...]]:
    """Partition of the classes into NpN double cosets, sorted by smallest class."""
    _, cosets, coset_of = _double_cosets(scheme, *_check_class_sets(scheme, nset))
    return [frozenset(_members(c)) for c in cosets], tuple(coset_of)


_ONE_POINT = require(build_scheme(1, np.zeros((1, 1), dtype=np.int64)))


def quotient_scheme(scheme: AssociationScheme, nset) -> AssociationScheme:
    """Quotient by a closed normal subset: points become N-blocks, classes double cosets.

    Closedness, normality (Np = pN for every p) and the classes, the double
    cosets NpN = pNN = pN, come from the coset pass (``_double_cosets``).
    By {0} alone (closed) every block is a point and every double coset a class,
    each numbered as itself, so the quotient is the scheme itself and is returned.
    By every class (closed) it is the one-point scheme, built once at import: such
    quotients of different schemes are one object (AssociationScheme has eq=False).
    """
    return _quotient(scheme, nset)[0]


def _quotient(scheme: AssociationScheme, nset):
    """(``quotient_scheme``, each point's block as ``quotient_blocks`` numbers
    it, each class's double coset as ``double_cosets`` numbers it), from one
    block pass and one coset pass; the two maps are sequences of ints."""
    (nset,) = _check_class_sets(scheme, nset)
    if nset == {0}:
        return scheme, range(scheme.n), range(scheme.s)
    if len(nset) == scheme.s:
        return _ONE_POINT, [0] * scheme.n, [0] * scheme.s
    normal, _, coset_of = _double_cosets(scheme, nset)
    if not normal:
        raise ValueError(f"class set {sorted(nset)} is not normal")
    firsts, block_of = _numbered(np.bincount(sorted(nset), minlength=scheme.s)[scheme.rel].argmax(axis=1))
    coset_rel = np.array(coset_of)[scheme.rel]
    q_rel = coset_rel[np.ix_(firsts, firsts)]
    # representative independence across whole blocks
    moved = np.argwhere(coset_rel != q_rel[block_of][:, block_of])
    if len(moved):
        witness = tuple(int(x) for x in moved[0])
        raise VerificationError([Violation("representatives", witness)],
                                "quotient relation depends on representatives")
    return require(build_scheme(len(firsts), q_rel)), block_of, coset_of


def scheme_isomorphic(
    s1: AssociationScheme, s2: AssociationScheme
) -> tuple[tuple[int, ...], tuple[int, ...]] | None:
    """Search for a simultaneous point/class relabeling carrying s1 onto s2.

    ``find_bijection`` maps the points.  Every point has the same signature,
    its sorted valencies (it sees valency[c] points in class c), so schemes of
    other sizes or valencies fail at once.  The state is the class map bound so
    far, which must stay injective and keep valencies.  Returns (point_map,
    class_map) or None.
    """
    rel1, rel2 = s1.rel.tolist(), s2.rel.tolist()

    def extend(pmap, x: int, cmap: list[int]):
        u, cmap = pmap[x], list(cmap)
        # equal signatures place the points in order 0, 1, ..., so y <= x are placed
        for y in range(x + 1):
            v = pmap[y]
            for c1, c2 in ((rel1[x][y], rel2[u][v]), (rel1[y][x], rel2[v][u])):
                if cmap[c1] != c2:
                    if cmap[c1] >= 0 or c2 in cmap or s1.valency[c1] != s2.valency[c2]:
                        return None
                    cmap[c1] = c2
        return cmap

    sig1, sig2 = [sorted(s1.valency)] * s1.n, [sorted(s2.valency)] * s2.n
    found = find_bijection(sig1, sig2, extend, [-1] * s1.s)
    if found is None:
        return None
    pmap, cmap = found
    # point bijection fixed every class somewhere, so the class map is total
    if -1 in cmap:
        raise VerificationError([Violation("class_map", (cmap.index(-1),))], "class map is partial")
    return pmap, tuple(cmap)
