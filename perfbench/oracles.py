"""Inputs from closed forms, and output checks, written without schemeforge.

Nothing in this module imports the package under test, so a check cannot
inherit a fault of the code it checks.  Every check raises ``CheckFailure``
with a short reason; it returns nothing on success.
"""

from __future__ import annotations

import math

import numpy as np


class CheckFailure(AssertionError):
    """An output of the program disagrees with an independent computation."""


def _fail(msg: str) -> None:
    raise CheckFailure(msg)


# ---------------------------------------------------------------------------
# relation matrices from closed forms (class 0 is always the diagonal)

def hamming_rel(k: int) -> np.ndarray:
    """Binary Hamming scheme H(k, 2): the class of (x, y) is the distance."""
    ids = np.arange(1 << k)
    pop = np.array([bin(i).count("1") for i in range(1 << k)], dtype=np.int64)
    return pop[np.bitwise_xor.outer(ids, ids)]


def cyclic_rel(n: int) -> np.ndarray:
    """Group scheme of Z/n: the class of (a, b) is the element a - b."""
    a = np.arange(n)
    return (a[:, None] - a[None, :]) % n


def fano_flag_rel() -> np.ndarray:
    """The 21 flags of PG(2, 2) in six classes: equal, same line, same point,
    other point on my line, my point on other line, general position."""
    pts = range(1, 8)                        # nonzero vectors of F2^3
    lines = [frozenset(p for p in pts if bin(p & h).count("1") % 2 == 0) for h in pts]
    flags = [(p, li) for li, line in enumerate(lines) for p in sorted(line)]
    rel = np.zeros((21, 21), dtype=np.int64)
    for i, (p, l) in enumerate(flags):
        for j, (q, m) in enumerate(flags):
            if i == j:
                c = 0
            elif l == m:
                c = 1
            elif p == q:
                c = 2
            elif q in lines[l]:
                c = 3
            elif p in lines[m]:
                c = 4
            else:
                c = 5
            rel[i, j] = c
    return rel


def product_rel(r1: np.ndarray, r2: np.ndarray) -> np.ndarray:
    """Direct product: point (x1, x2) is x1*n2 + x2, class (p1, p2) is p1*s2 + p2."""
    n1, n2, s2 = len(r1), len(r2), int(r2.max()) + 1
    return (r1[:, None, :, None] * s2 + r2[None, :, None, :]).reshape(n1 * n2, n1 * n2)


def _gf64_mul(x: int, y: int) -> int:
    r = 0
    for i in range(6):
        if (y >> i) & 1:
            r ^= x << i
    for d in range(10, 5, -1):               # reduce by x^6 + x + 1
        if (r >> d) & 1:
            r ^= 0b1000011 << (d - 6)
    return r


def f64_f4_rel() -> np.ndarray:
    """GF(64) split by F4* = {u : u^3 = 1}: the class of (x, y) is the
    F4*-orbit of x - y, so classes 1..21 are the points of PG(2, 4)."""
    units = [u for u in range(1, 64) if _gf64_mul(_gf64_mul(u, u), u) == 1]
    if len(units) != 3:
        _fail(f"GF(64) has {len(units)} cube roots of unity, not 3")
    orbit = [0] * 64
    for x in range(1, 64):
        if not orbit[x]:
            label = max(orbit) + 1
            for u in units:
                orbit[_gf64_mul(u, x)] = label
    ids = np.arange(64)
    return np.array(orbit, dtype=np.int64)[np.bitwise_xor.outer(ids, ids)]


def relabel(rel: np.ndarray, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Permute points and the nonidentity classes; returns (new rel, sigma)
    where class p of the input is class sigma[p] of the output."""
    n, s = len(rel), int(rel.max()) + 1
    pi = rng.permutation(n)
    sigma = np.concatenate(([0], 1 + rng.permutation(s - 1)))
    out = np.empty_like(rel)
    out[np.ix_(pi, pi)] = sigma[rel]
    return out, sigma


def perturb(rel: np.ndarray, rng: np.random.Generator, p: int, q: int) -> np.ndarray:
    """Move one symmetric pair from symmetric class p to symmetric class q.

    The row of the moved pair then holds one p fewer and one q more than the
    other rows, so the matrix is not a scheme (see ``check_refused``)."""
    xs, zs = np.nonzero(np.triu(rel == p, 1))
    k = int(rng.integers(len(xs)))
    out = rel.copy()
    out[xs[k], zs[k]] = out[zs[k], xs[k]] = q
    return out


# ---------------------------------------------------------------------------
# verify: accepted and refused matrices

def star_and_valency(rel: np.ndarray) -> tuple[list[int], list[int]]:
    """Transpose class and valency of every class, counted from the matrix."""
    s = int(rel.max()) + 1
    star, valency = [], []
    for p in range(s):
        t = rel.T[rel == p]
        if not (t == t[0]).all():
            _fail(f"class {p} does not transpose to one class")
        star.append(int(t[0]))
        valency.append(int((rel[0] == p).sum()))
    return star, valency


def direct_counts(rel: np.ndarray, y: int, z: int) -> np.ndarray:
    """counts[p, q] = #{x : rel[y, x] = p and rel[x, z] = q}."""
    s = int(rel.max()) + 1
    return np.bincount(rel[y, :] * s + rel[:, z], minlength=s * s).reshape(s, s)


def check_sampled_counts(rel: np.ndarray, constants: np.ndarray,
                         rng: np.random.Generator, per_class: int = 2) -> None:
    """Recount the structure constants at sampled pairs of every class."""
    flat = rel.ravel()
    s, n = int(rel.max()) + 1, len(rel)
    if constants.shape != (s, s, s):
        _fail(f"constants have shape {constants.shape}, expected {(s, s, s)}")
    order = np.argsort(flat, kind="stable")
    starts = np.searchsorted(flat[order], np.arange(s + 1))
    for r in range(s):
        members = order[starts[r]:starts[r + 1]]
        for idx in rng.choice(members, size=min(per_class, len(members)), replace=False):
            y, z = divmod(int(idx), n)
            if not np.array_equal(direct_counts(rel, y, z), constants[:, :, r]):
                _fail(f"constants[:, :, {r}] differ from the direct count at {(y, z)}")


def check_scheme_identities(rel: np.ndarray, constants: np.ndarray, star, valency) -> None:
    """c[p,q,0] = [q = p*] k_p and sum_r c[p,q,r] k_r = k_p k_q, with star and
    valencies counted from the matrix and compared with the program's."""
    my_star, my_val = star_and_valency(rel)
    if list(star) != my_star:
        _fail(f"star {list(star)} differs from the counted {my_star}")
    if list(valency) != my_val:
        _fail(f"valencies {list(valency)} differ from the counted {my_val}")
    k = np.array(my_val, dtype=np.int64)
    s = len(k)
    expect0 = np.zeros((s, s), dtype=np.int64)
    expect0[np.arange(s), my_star] = k
    if not np.array_equal(constants[:, :, 0], expect0):
        _fail("c[p, q, 0] is not [q = p*] k_p")
    if not np.array_equal(constants @ k, np.outer(k, k)):
        _fail("sum_r c[p, q, r] k_r is not k_p k_q")


def check_hamming_valencies(valency, sigma: np.ndarray, k: int) -> None:
    for i in range(k + 1):
        if valency[sigma[i]] != math.comb(k, i):
            _fail(f"distance-{i} valency {valency[sigma[i]]} is not C({k}, {i})")


def check_cyclic_constants(constants: np.ndarray, sigma: np.ndarray, n: int) -> None:
    """Group scheme of Z/n: c[p, q, r] = [p + q = r (mod n)]."""
    a = np.arange(n)
    expect = ((a[:, None, None] + a[None, :, None] - a[None, None, :]) % n == 0).astype(np.int64)
    if not np.array_equal(constants[np.ix_(sigma, sigma, sigma)], expect):
        _fail(f"constants of Z/{n} are not [p + q = r]")


def support_table(constants: np.ndarray) -> list[list[frozenset[int]]]:
    s = constants.shape[0]
    return [[frozenset(int(r) for r in np.nonzero(constants[p, q])[0]) for q in range(s)]
            for p in range(s)]


def check_class_hypergroup(h, constants: np.ndarray, star) -> None:
    """The class hypergroup is the support of the (already checked) constants."""
    if h.e != 0 or list(h.inv) != list(star):
        _fail("class hypergroup identity or inverses differ from the scheme's")
    if [list(row) for row in h.table] != support_table(constants):
        _fail("class hypergroup table is not the support of the constants")


def check_refused(rel: np.ndarray) -> None:
    """Prove a matrix is not a scheme: some class has two rows with different counts."""
    s = int(rel.max()) + 1
    counts = np.stack([np.bincount(row, minlength=s) for row in rel])
    if (counts == counts[0]).all():
        _fail("every row has the same class counts: no proof that this is not a scheme")


# ---------------------------------------------------------------------------
# lattice: closed subsets and their counts

def _relation(rel: np.ndarray, tset) -> np.ndarray:
    """0/1 matrix of the union of the classes in tset (float, so products use BLAS)."""
    return np.isin(rel, sorted(tset)).astype(np.float64)


def is_equivalence(rel: np.ndarray, tset) -> bool:
    """The union of the classes in tset is an equivalence relation."""
    m = _relation(rel, tset)
    if not m.diagonal().all() or not np.array_equal(m, m.T):
        return False
    return bool(((m @ m > 0) <= (m > 0)).all())


def normal_subsets(rel: np.ndarray, subsets) -> list[frozenset[int]]:
    """The class sets T with pT = Tp for every class p, compared as the
    supports of the boolean products A_p M_T and M_T A_p."""
    s = int(rel.max()) + 1
    classes = [_relation(rel, {p}) for p in range(s)]
    out = []
    for t in subsets:
        m = _relation(rel, t)
        if all(np.array_equal(a @ m > 0, m @ a > 0) for a in classes):
            out.append(frozenset(t))
    return out


def subspace_count(q: int, k: int) -> int:
    """Number of subspaces of F_q^k: the sum of the Gaussian binomials."""
    def gauss(j: int) -> int:
        num = den = 1
        for i in range(j):
            num *= q ** (k - i) - 1
            den *= q ** (i + 1) - 1
        return num // den
    return sum(gauss(j) for j in range(k + 1))


def divisor_count(n: int) -> int:
    return sum(1 for d in range(1, n + 1) if n % d == 0)


def check_closed_subsets(rel: np.ndarray, subsets, expected: int) -> None:
    found = [frozenset(t) for t in subsets]
    if len(set(found)) != len(found):
        _fail("closed subsets are listed twice")
    for t in found:
        if not is_equivalence(rel, t):
            _fail(f"class set {sorted(t)} is not closed: its relation is not an equivalence")
    if len(found) != expected:
        _fail(f"{len(found)} closed subsets, expected {expected}")


# ---------------------------------------------------------------------------
# search: a found scheme, counted in full

def check_realization(rel: np.ndarray, h) -> None:
    """Every pair of a class gives the same counts, and the supports and
    transposes of those counts are the target hypergroup."""
    rel = np.asarray(rel)
    n, s = len(rel), int(rel.max()) + 1
    if (s != h.m or (np.bincount(rel.ravel()) == 0).any()
            or (np.diag(rel) != 0).any() or (rel[~np.eye(n, dtype=bool)] == 0).any()):
        _fail("realization does not have one class per element with class 0 the diagonal")
    constants = np.full((s, s, s), -1, dtype=np.int64)
    for y in range(n):
        for z in range(n):
            r = rel[y, z]
            counts = direct_counts(rel, y, z)
            if constants[0, 0, r] < 0:
                constants[:, :, r] = counts
            elif not np.array_equal(constants[:, :, r], counts):
                _fail(f"counts at {(y, z)} differ from another pair of class {r}")
    star, _ = star_and_valency(rel)
    if star != list(h.inv) or support_table(constants) != [list(row) for row in h.table]:
        _fail("realization's class hypergroup is not the target")
