"""Independent brute-force oracles shared by the test modules.

These deliberately avoid the library's vectorized code paths: expected values
are recomputed with plain loops over points, pairs and triples, so the tests
check the implementation against a second, slower route.  They raise
explicitly instead of asserting, so they also hold under ``python -O``.
"""

from __future__ import annotations

import itertools
import json
from collections import Counter
from fractions import Fraction


def _pair_counts(rel):
    """Yield (y, z, counts) in row-major order, where counts[(p, q)] is the
    number of points x with rel[y][x] = p and rel[x][z] = q."""
    n = len(rel)
    cols = [list(col) for col in zip(*rel)]
    for y, z in itertools.product(range(n), repeat=2):
        yield y, z, Counter(zip(rel[y], cols[z]))


def naive_constants(rel, s: int) -> dict[tuple[int, int, int], int]:
    """Structure constants by definition; raises ValueError if any count is not
    constant on its class (an explicit raise, so it also fails under -O)."""
    at_first: dict[int, Counter] = {}
    for y, z, counts in _pair_counts(rel):
        if at_first.setdefault(rel[y][z], counts) != counts:
            raise ValueError(f"count not constant on class {rel[y][z]} at {(y, z)}")
    return {
        (p, q, r): at_first.get(r, Counter())[(p, q)]
        for p, q, r in itertools.product(range(s), repeat=3)
    }


def naive_constant_witnesses(rel, s: int, cap: int = 25) -> list[tuple[int, int, int, int, int]]:
    """(p, q, r, y, z) in (p, q, r) order, at most cap of them: for each class
    triple whose count varies, the first pair (y, z) of class r, row-major,
    whose count differs from the count at the class's first pair."""
    at_first: dict[int, Counter] = {}
    witness: dict[tuple[int, int, int], tuple[int, int]] = {}
    for y, z, counts in _pair_counts(rel):
        r = rel[y][z]
        first = at_first.setdefault(r, counts)
        for p, q in set(first) | set(counts):
            if first[(p, q)] != counts[(p, q)]:
                witness.setdefault((p, q, r), (y, z))
    return [key + witness[key] for key in sorted(witness)[:cap]]


def _apply(constants, g, v) -> list:
    """L_g v, L_g[r][q] = constants[g][q][r]."""
    s = len(constants)
    return [sum(int(constants[g][q][r]) * v[q] for q in range(s) if v[q]) for r in range(s)]


def _reduced(v, rows) -> list:
    """v minus its components along rows, each zero at earlier pivots: zero
    exactly when v lies in their span."""
    for pivot, row in rows:
        if v[pivot]:
            v = [a - v[pivot] * b for a, b in zip(v, row)]
    return v


def _close(constants, gens, rows, todo) -> None:
    """Grow rows, (pivot, row with 1 there) pairs each zero at earlier pivots,
    to span the vectors of todo and their words in the L_g for g in gens:
    exact Fraction elimination, each new independent vector multiplied by
    every L_g in turn."""
    while todo:
        v = _reduced(todo.pop(), rows)
        lead = next((r for r, a in enumerate(v) if a), None)
        if lead is None:
            continue
        rows.append((lead, [a / v[lead] for a in v]))
        todo += [_apply(constants, g, v) for g in gens]


def naive_generated_rank(constants, gens) -> int:
    """Rank over Q of the words in the matrices L_g, L_g[r][q] = constants[g][q][r]
    for g in gens, applied to e_0."""
    rows: list[tuple[int, list[Fraction]]] = []
    _close(constants, gens, rows, [[Fraction(int(r == 0)) for r in range(len(constants))]])
    return len(rows)


def naive_generating_classes(constants, order) -> list[int] | None:
    """The greedy generating set over Q: the next class is the first in order
    whose unit vector lies outside the span of the words reached from e_0,
    once that span is closed under the L_g of every class chosen so far;
    None if order runs out before the span is everything."""
    s = len(constants)
    rows: list[tuple[int, list[Fraction]]] = []
    gens: list[int] = []
    _close(constants, gens, rows, [[Fraction(int(r == 0)) for r in range(s)]])
    while len(rows) < s:
        g = next((p for p in order if any(_reduced([Fraction(int(r == p)) for r in range(s)], rows))), None)
        if g is None:
            return None
        gens.append(g)
        # the span is closed under the earlier L_g: the new one goes over all of it
        _close(constants, gens, rows, [_apply(constants, g, row) for _, row in rows])
    return gens


def naive_complex_mult(constants, s: int, pset, qset) -> set[int]:
    return {
        r for r in range(s)
        for p in pset for q in qset
        if constants[(p, q, r)] >= 1
    }


def hamming_distance(x: int, y: int, q: int = 2) -> int:
    """The number of base-q digits in which x and y differ."""
    distance = 0
    while x or y:
        distance += x % q != y % q
        x, y = x // q, y // q
    return distance


def set_product(table, aset, bset) -> frozenset[int]:
    out: set[int] = set()
    for a in aset:
        for b in bset:
            out |= set(table[a][b])
    return frozenset(out)


def naive_associative(t, cap: int = 1) -> list[tuple[int, int, int]]:
    """The first cap triples (a, b, c) in row-major order with (ab)c != a(bc)
    in the single-valued table t[a][b] = ab, by a triple loop; empty exactly
    when t is associative."""
    found = []
    m = len(t)
    for a, b, c in itertools.product(range(m), repeat=3):
        if t[t[a][b]][c] != t[a][t[b][c]]:
            found.append((a, b, c))
            if len(found) == cap:
                break
    return found


def naive_distributive(add, mul) -> tuple[int, int, int] | None:
    """The first (x, y, z) in row-major order with x(y + z) != xy + xz, by a
    triple loop, or None."""
    g = len(add)
    for x, y, z in itertools.product(range(g), repeat=3):
        if mul[x][add[y][z]] != add[mul[x][y]][mul[x][z]]:
            return x, y, z
    return None


def naive_star(rel, s: int) -> list[int]:
    """Transpose class of each class, read from one pair of the class."""
    n = len(rel)
    star = [-1] * s
    for y, z in itertools.product(range(n), repeat=2):
        star[rel[y][z]] = rel[z][y]
    return star


def naive_star_witnesses(rel, s: int, cap: int = 25) -> list[tuple[int, int]]:
    """For each class in order, the first pair (y, z), row-major, whose
    transpose leaves the class that the transpose of the class's first pair
    lies in; at most cap of them."""
    n = len(rel)
    target: dict[int, int] = {}
    witness: dict[int, tuple[int, int]] = {}
    for y, z in itertools.product(range(n), repeat=2):
        p = rel[y][z]
        if rel[z][y] != target.setdefault(p, rel[z][y]):
            witness.setdefault(p, (y, z))
    return [witness[p] for p in range(s) if p in witness][:cap]


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


def naive_hypergroup_violations(table, e: int, inv, cap: int = 25) -> list[tuple[str, tuple]]:
    """Every axiom by its definition, over all triples: (axiom, witness) pairs in
    the order build_hypergroup reports them, with cells read in ascending order."""
    try:
        rows = [[sorted({int(x) for x in cell}) for cell in row] for row in table]
    except TypeError:
        return [("shape", ())]
    m = len(rows)
    if any(len(row) != m for row in rows):
        return [("shape", ())]
    cells = [("cell", (a, b)) for a, b in itertools.product(range(m), repeat=2)
             if not rows[a][b] or not all(0 <= x < m for x in rows[a][b])]
    if cells:
        return cells[:cap]
    inv = tuple(int(x) for x in inv)
    if not (0 <= e < m) or len(inv) != m or not all(0 <= g < m for g in inv):
        return [("shape", (e, inv))]
    bad = []
    identities = [c for c in range(m) if all(rows[c][x] == [x] == rows[x][c] for x in range(m))]
    if identities != [e]:
        bad.append(("identity", tuple(identities)))
    for x in range(m):
        partners = [g for g in range(m) if e in rows[x][g] and e in rows[g][x]]
        if partners != [inv[x]]:
            bad.append(("inverse", (x, tuple(partners))))
    assoc = []
    for a, b, c in itertools.product(range(m), repeat=3):
        left = set_product(rows, rows[a][b], [c])
        right = set_product(rows, [a], rows[b][c])
        if left != right and len(assoc) < cap:
            assoc.append(("associativity", (a, b, c)))
    reversed_bad = []
    for a, b in itertools.product(range(m), repeat=2):
        for c in rows[a][b]:
            if (a not in rows[c][inv[b]] or b not in rows[inv[a]][c]) and len(reversed_bad) < cap:
                reversed_bad.append(("reversibility", (a, b, c)))
    return bad + assoc + reversed_bad


def naive_triangle_violations(v) -> list[tuple[str, tuple]]:
    """The triangle condition over all pairs (a, b) and third points y, in O(n^3):
    per value, the first pair with no third point or with a third-point count
    other than the first pair's."""
    ring = v.ring
    n = ring.order
    neg = [next(y for y in range(n) if ring.add[x][y] == ring.zero) for x in range(n)]

    def dist(x, y):
        return v.val_index[ring.add[x][neg[y]]]

    bad = []
    for r, label in enumerate(v.chain):
        reference = None
        for a, b in itertools.product(range(n), repeat=2):
            if dist(a, b) != r:
                continue
            card = sum(1 for y in range(n) if dist(a, y) == r and dist(y, b) == r)
            if card == 0:
                bad.append(("triangle_empty", (label, (a, b))))
                break
            if reference is None:
                reference = (card, (a, b))
            elif card != reference[0]:
                bad.append(("triangle_cardinality", (label, reference[1], reference[0], (a, b), card)))
                break
    return bad


def naive_normal_flags(table, inv, lset) -> tuple[bool, bool]:
    """(Lx == xL for every x, inv(x)*L*x == L for every x) for a closed L, by
    their definitions: each coset and conjugate formed by set_product."""
    lset = frozenset(lset)
    xs = range(len(table))
    normal = all(set_product(table, lset, [x]) == set_product(table, [x], lset) for x in xs)
    strongly = all(set_product(table, set_product(table, [inv[x]], lset), [x]) == lset for x in xs)
    return normal, strongly


def naive_quotient_hypergroup(table, e: int, inv, nset):
    """Quotient by a normal subset N by its definition: the cosets x*N by
    set_product, numbered by smallest member, with each coset product and
    inverse read at every pair of representatives.  Raises ValueError if the
    cosets overlap or the representatives disagree.  Returns (table, e, inv)
    in the form of Hypergroup's fields."""
    m = len(table)
    cosets = sorted({set_product(table, [x], nset) for x in range(m)}, key=min)
    if sum(len(c) for c in cosets) != m:
        raise ValueError("cosets do not partition the elements")
    coset_of = {x: i for i, c in enumerate(cosets) for x in c}
    rows = []
    for ci in cosets:
        row = []
        for cj in cosets:
            images = {frozenset(coset_of[t] for t in table[x][y]) for x in ci for y in cj}
            if len(images) != 1:
                raise ValueError(f"coset product depends on representatives at {min(ci), min(cj)}")
            row.append(images.pop())
        rows.append(tuple(row))
    inverses = [{coset_of[inv[x]] for x in c} for c in cosets]
    if any(len(i) != 1 for i in inverses):
        raise ValueError("coset inverse depends on representatives")
    return tuple(rows), coset_of[e], tuple(min(i) for i in inverses)


def naive_quotient_scheme(rel, constants, s: int, nset):
    """Quotient by a closed subset N by its definition: the blocks
    {y : rel[x][y] in N}, numbered by smallest member; the double cosets NpN by
    naive_complex_mult, numbered by smallest class; and the class of two blocks
    read at their smallest points, passed to build_scheme.  Raises ValueError
    when the blocks or the double cosets do not partition.  Returns (blocks,
    block_of, cosets, coset_of, the scheme or its Report) in the form of
    quotient_blocks, double_cosets and quotient_scheme."""
    from schemeforge import build_scheme

    n, nset = len(rel), set(nset)
    blocks = sorted({tuple(y for y in range(n) if rel[x][y] in nset) for x in range(n)})
    cosets = sorted({
        frozenset(naive_complex_mult(constants, s, naive_complex_mult(constants, s, nset, {p}), nset))
        for p in range(s)
    }, key=min)
    if sum(map(len, blocks)) != n or sum(map(len, cosets)) != s:
        raise ValueError("blocks or double cosets do not partition")
    block_of = tuple(next(i for i, b in enumerate(blocks) if x in b) for x in range(n))
    coset_of = tuple(next(i for i, c in enumerate(cosets) if p in c) for p in range(s))
    firsts = [b[0] for b in blocks]
    q_rel = [[coset_of[rel[x][y]] for y in firsts] for x in firsts]
    return blocks, block_of, cosets, coset_of, build_scheme(len(blocks), q_rel)


def naive_orbits(perms, n: int, e: int):
    """Orbits as the closures of each {x} under the permutations, identity
    orbit first, the rest by smallest member: (orbit list, orbit index per element)."""
    found = []
    for x in range(n):
        if any(x in orbit for orbit in found):
            continue
        orbit, grown = set(), {x}
        while grown != orbit:
            orbit, grown = grown, grown | {p[y] for p in perms for y in grown}
        found.append(tuple(sorted(orbit)))
    found.sort(key=lambda orbit: (e not in orbit, orbit[0]))
    return found, tuple(next(i for i, orbit in enumerate(found) if x in orbit) for x in range(n))


def naive_partition_hypergroup(g, p):
    """The hypergroup on the automorphism orbits of a group by its definition:
    cell (a, b) holds the orbits of x*y for x in orbit a and y in orbit b,
    the identity is the identity's orbit and the inverse of orbit a is the
    orbit of one member's inverse.  Reads g.cayley, g.e, g.inv and p.perms;
    returns (table, e, inv) in the form of a Hypergroup's fields."""
    orbit_list, orbit_of = naive_orbits(p.perms, len(g.cayley), g.e)
    table = tuple(
        tuple(frozenset(orbit_of[g.cayley[x][y]] for x in oa for y in ob) for ob in orbit_list)
        for oa in orbit_list
    )
    return table, orbit_of[g.e], tuple(orbit_of[g.inv[orbit[0]]] for orbit in orbit_list)


def naive_admissible(f, cap: int = 25) -> list[tuple[int, int, int]]:
    """Admissibility witnesses of a morphism f by the definition, a loop over
    points: for each source point x and class p in order, the first target
    point y in class class_map[p] from point_map[x] that no z in class p from
    x maps onto, as (x, y, p); at most cap of them."""
    src, tgt, pm, cm = f.source.rel.tolist(), f.target.rel.tolist(), f.point_map, f.class_map
    found = []
    for x, row in enumerate(src):
        fibers: dict[int, set[int]] = {}
        for z, p in enumerate(row):
            fibers.setdefault(p, set()).add(pm[z])
        for p in range(len(cm)):
            y = next((y for y, c in enumerate(tgt[pm[x]]) if c == cm[p] and y not in fibers.get(p, ())), None)
            if y is not None:
                found.append((x, y, p))
                if len(found) == cap:
                    return found
    return found


def naive_isomorphic(a, b):
    """The first permutation, in lexicographic order, that carries a onto b,
    or None.  a and b are two hypergroups or two schemes with at most 6
    elements or points; only their raw fields are read.

    A hypergroup map must carry e, inv and every cell onto b's.  A scheme map
    must carry the points so that rel_a[x][y] -> rel_b[p[x]][p[y]] is one
    bijection of the classes; it is returned as (point map, class map).
    """
    hyper = hasattr(a, "table")
    size = a.m if hyper else a.n
    if size > 6:
        raise ValueError(f"naive_isomorphic tries all permutations; {size} is too many")
    if size != (b.m if hyper else b.n):
        return None
    pairs = list(itertools.product(range(size), repeat=2))
    for p in itertools.permutations(range(size)):
        if hyper:
            if (p[a.e] == b.e and all(p[a.inv[x]] == b.inv[p[x]] for x in range(size))
                    and all({p[t] for t in a.table[x][y]} == b.table[p[x]][p[y]] for x, y in pairs)):
                return p
            continue
        classes: dict[int, int] = {}
        if all(classes.setdefault(int(a.rel[x][y]), int(b.rel[p[x]][p[y]])) == b.rel[p[x]][p[y]]
               for x, y in pairs) and len(set(classes.values())) == len(classes) == b.s:
            return p, tuple(classes[c] for c in range(len(classes)))
    return None


def naive_valency_vectors(h, n: int) -> list[tuple[int, ...]]:
    """Oracle for ``realize._search_plan(h, n_max).valencies[n]``: every
    vector of valencies in 1..n-1 for the classes 1..m-1, in lexicographic
    order, kept when star pairs agree, the valencies sum to n - 1 and, for
    every p, q, the valencies over p*q sum to at most val[p] * val[q].  h must
    have identity 0."""
    out = []
    for rest in itertools.product(range(1, n), repeat=h.m - 1):
        if sum(rest) != n - 1:
            continue
        val = (1, *rest)
        if (all(val[h.inv[p]] == val[p] for p in range(h.m))
                and all(sum(val[r] for r in h.table[p][q]) <= val[p] * val[q]
                        for p in range(h.m) for q in range(h.m))):
            out.append(val)
    return out


def naive_counts_fit(rel, table) -> bool:
    """Oracle for ``realize._counts_fit``: the sorted list of class pairs
    (rel[x][y], rel[y][z]) over y is the same at every pair (x, z) of a class
    as at its first pair, row-major, and there its set of pairs is the (p, q)
    with r in table[p][q]."""
    m = len(table)
    supports = [{(p, q) for p in range(m) for q in range(m) if r in table[p][q]} for r in range(m)]
    cols = list(zip(*rel))
    first: dict[int, list[tuple[int, int]]] = {}
    for row in rel:
        for r, col in zip(row, cols):
            paths = sorted(zip(row, col))
            known = first.setdefault(r, paths)
            if paths != known or (known is paths and set(paths) != supports[r]):
                return False
    return True


def naive_search_at_size(h, n: int):
    """Oracle for ``realize._search_at_size``: the same tree written the slow
    way, with a numpy ``rel``, a row-feasibility test at every node and
    ``build_scheme`` at every leaf.  It imports the library itself, so the
    other oracles here stay independent of it; its valencies come from
    ``naive_valency_vectors``, not from the code under test.

    Backtracking over class matrices with s = m classes at a fixed point count.
    Cells fill column by column so each triangle is checked the moment its last
    edge appears; the target table's zero pattern, per-row class counts, and a
    sorted first row prune the tree.  It has no symmetry breaking.  Returns
    (scheme or None, the leaf matrices as lists in visiting order).
    """
    import numpy as np

    from schemeforge.realize import to_hypergroup
    from schemeforge.scheme import AssociationScheme, build_scheme

    m = h.m
    star = h.inv
    table = h.table
    cells = [(x, z) for z in range(1, n) for x in range(z)]
    leaves = []

    for val in naive_valency_vectors(h, n):
        rel = np.zeros((n, n), dtype=np.int64)
        counts = [[0] * m for _ in range(n)]

        def feasible_row(v: int, filled_v: int) -> bool:
            remaining = (n - 1) - filled_v
            return sum(max(0, val[c] - counts[v][c]) for c in range(1, m)) <= remaining

        filled = [0] * n

        def assign(i: int):
            if i == len(cells):
                leaves.append(rel.tolist())
                candidate = build_scheme(n, rel.copy())
                # a literal match of table and inverses: the identity map is an
                # isomorphism, so no isomorphism search is needed
                if isinstance(candidate, AssociationScheme):
                    found = to_hypergroup(candidate)
                    if found.table == table and found.inv == star:
                        return candidate
                return None
            x, z = cells[i]
            lo = rel[0, z - 1] if x == 0 and z >= 2 else 1
            for c in range(lo, m):
                cs = star[c]
                if counts[x][c] + 1 > val[c] or counts[z][cs] + 1 > val[cs]:
                    continue
                rel[x, z] = c
                rel[z, x] = cs
                counts[x][c] += 1
                counts[z][cs] += 1
                filled[x] += 1
                filled[z] += 1
                ok = feasible_row(x, filled[x]) and feasible_row(z, filled[z])
                if ok:
                    # triangles {w, x, z} whose last edge is (x, z): only w < x
                    # have both other edges assigned in this fill order
                    for w in range(x):
                        a, b = rel[x, w], rel[w, z]
                        if (
                            c not in table[a][b]
                            or a not in table[c][rel[z, w]]
                            or b not in table[rel[w, x]][c]
                        ):
                            ok = False
                            break
                if ok:
                    result = assign(i + 1)
                    if result is not None:
                        return result
                rel[x, z] = 0
                rel[z, x] = 0
                counts[x][c] -= 1
                counts[z][cs] -= 1
                filled[x] -= 1
                filled[z] -= 1
            return None

        found = assign(0)
        if found is not None:
            return found, leaves
    return None, leaves


def naive_check_geometry(n_points: int, lines) -> list[tuple[str, tuple]]:
    """check_geometry's (axiom, witness) pairs by the loops it once ran: line
    shapes, duplicates by comparing every pair of lines, pair coverage through
    a dict, then the Veblen-Young axiom per triple p < q < r and line i, the
    first 10 failures."""
    bad = []
    sets = []
    for i, line in enumerate(lines):
        members = set(line)
        if len(members) != len(tuple(line)) or not all(0 <= p < n_points for p in members):
            bad.append(("line_points", (i,)))
        elif len(members) < 3:
            bad.append(("line_size", (i,)))
        sets.append(frozenset(members))
    for i in range(len(sets)):
        for j in range(i + 1, len(sets)):
            if sets[i] == sets[j]:
                bad.append(("duplicate_line", (i, j)))
    if bad:
        return bad

    line_through: dict[tuple[int, int], int] = {}
    for i, members in enumerate(sets):
        for p, q in itertools.combinations(sorted(members), 2):
            if (p, q) in line_through:
                bad.append(("pair_multicovered", (p, q)))
            line_through[(p, q)] = i
    for p, q in itertools.combinations(range(n_points), 2):
        if (p, q) not in line_through:
            bad.append(("pair_uncovered", (p, q)))
    if bad:
        return bad

    def line_of(p: int, q: int) -> frozenset[int]:
        return sets[line_through[(min(p, q), max(p, q))]]

    for p, q, r in itertools.combinations(range(n_points), 3):
        side_pq, side_pr = line_of(p, q), line_of(p, r)
        if r in side_pq:
            continue  # collinear triple, no triangle
        side_qr = line_of(q, r)
        for i, members in enumerate(sets):
            xs = (members & side_pq) - {p}
            ys = (members & side_pr) - {p}
            if xs and ys and not members & side_qr:
                bad.append(("veblen_young", (p, q, r, i)))
                if len(bad) >= 10:
                    return bad
    return bad


# the strangers that malformed() puts in place of an int x, none of them an integer input
_STRANGERS = (
    float, lambda x: x + 0.5, lambda x: bool(x % 2), str, lambda x: None, lambda x: 10 ** 30,
    lambda x: -(2 ** 63) - 1, lambda x: [x], lambda x: {"x": x},
)


def _nodes(value, path=()):
    """(path, node) for value and everything nested in its lists, tuples and dicts."""
    yield path, value
    items = value.items() if isinstance(value, dict) else enumerate(value) if isinstance(value, (list, tuple)) else ()
    for key, item in items:
        yield from _nodes(item, path + (key,))


def _integers_only(value, top=True) -> bool:
    """True when every leaf is a Python int within int64, under lists, tuples
    and the top-level dict of a file."""
    if isinstance(value, dict):
        return top and all(_integers_only(v, False) for v in value.values())
    if isinstance(value, (list, tuple)):
        return all(_integers_only(v, False) for v in value)
    return type(value) is int and -(2 ** 63) <= value < 2 ** 63


def malformed(rng, value):
    """A copy of value (nested lists, tuples and one top-level dict of ints)
    with one node replaced, and whether the copy holds integers alone.

    The node is a leaf, a row or a whole field, drawn uniformly from all of
    them.  A quarter of the time it becomes another int in -2..5, which keeps
    the copy integers alone; otherwise it becomes a stranger made from it (or
    from 1 for a container): a float, x + 0.5, a bool, a string, None, 10^30,
    -2^63 - 1, a list [x] or a dict."""
    copy = json.loads(json.dumps(value))
    nodes = list(_nodes(copy))[1:]
    path, node = nodes[int(rng.integers(len(nodes)))]
    x = node if type(node) is int else 1
    new = int(rng.integers(-2, 6)) if rng.random() < 0.25 else _STRANGERS[int(rng.integers(len(_STRANGERS)))](x)
    parent = copy
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = new
    return copy, _integers_only(copy)
