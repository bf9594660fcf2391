"""Independent brute-force oracles shared by the test modules.

These deliberately avoid the library's vectorized code paths: expected values
are recomputed with plain triple loops so the tests check the implementation
against a second, slower route.
"""

from __future__ import annotations

import itertools


def naive_constants(rel, s: int) -> dict[tuple[int, int, int], int]:
    """Structure constants by definition; raises if any count is not constant."""
    n = len(rel)
    out: dict[tuple[int, int, int], int] = {}
    for p, q, r in itertools.product(range(s), repeat=3):
        counts = set()
        for y, z in itertools.product(range(n), repeat=2):
            if rel[y][z] != r:
                continue
            counts.add(sum(1 for x in range(n) if rel[y][x] == p and rel[x][z] == q))
        assert len(counts) <= 1, f"count not constant at {(p, q, r)}"
        out[(p, q, r)] = counts.pop() if counts else 0
    return out


def naive_complex_mult(constants, s: int, pset, qset) -> set[int]:
    return {
        r for r in range(s)
        for p in pset for q in qset
        if constants[(p, q, r)] >= 1
    }


def hamming_distance(x: int, y: int) -> int:
    return bin(x ^ y).count("1")


def set_product(table, aset, bset) -> frozenset[int]:
    out: set[int] = set()
    for a in aset:
        for b in bset:
            out |= set(table[a][b])
    return frozenset(out)


def naive_star(rel, s: int) -> list[int]:
    """Transpose class of each class, read from one pair of the class."""
    n = len(rel)
    star = [-1] * s
    for y, z in itertools.product(range(n), repeat=2):
        star[rel[y][z]] = rel[z][y]
    return star


def naive_is_closed(constants, star, s: int, tset) -> bool:
    """0 in T and star(T)T inside T, by the definition."""
    star_t = {star[p] for p in tset}
    return 0 in tset and naive_complex_mult(constants, s, star_t, tset) <= set(tset)


def support_table(constants, s: int) -> list[list[set[int]]]:
    """The class hypergroup's table: r lies in p*q when constants[p, q, r] >= 1."""
    return [[naive_complex_mult(constants, s, {p}, {q}) for q in range(s)] for p in range(s)]


def naive_is_sub_hypergroup(table, e: int, inv, kset) -> bool:
    """True when kset contains e, is closed under inv and *, and its reindexed
    table passes full hypergroup verification."""
    from schemeforge import Hypergroup, build_hypergroup

    kset = sorted(kset)
    pos = {x: i for i, x in enumerate(kset)}
    if e not in pos or any(inv[x] not in pos for x in kset):
        return False
    rows = []
    for a in kset:
        row = []
        for b in kset:
            cell = table[a][b]
            if not all(t in pos for t in cell):
                return False
            row.append({pos[t] for t in cell})
        rows.append(row)
    return isinstance(build_hypergroup(rows, pos[e], [pos[inv[x]] for x in kset]), Hypergroup)


def naive_sub_hypergroups(table, e: int, inv) -> list[frozenset[int]]:
    """Power-set oracle: every subset containing e that passes
    naive_is_sub_hypergroup, in lexicographic order of the sorted members."""
    rest = [x for x in range(len(table)) if x != e]
    found = []
    for k in range(len(rest) + 1):
        for combo in itertools.combinations(rest, k):
            if naive_is_sub_hypergroup(table, e, inv, (e,) + combo):
                found.append(frozenset((e,) + combo))
    found.sort(key=lambda t: tuple(sorted(t)))
    return found
