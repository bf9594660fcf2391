"""The golden hypergroup-layer transcript: a table of library calls, each with
the sha256 of its outcome's canonical JSON.

An outcome is a Hypergroup (m, e, inv and every cell as a sorted list), a
Report (its violations in order), an exception (its type, message and any
violations it carries) or a plain value read the same way: closed sets, maps,
geometries and quotient hyperrings.  The calls cover every value of
``test_lattice._route_values``, ``build_hypergroup`` on perturbed and
malformed tables, the closure lattice, both quotients, isomorphism maps,
geometries, quotient hyperrings and the realization search.
``test_hypergroup`` replays the table and requires every digest.  After a
deliberate change of a result, record the table again and review the diff:

    PYTHONPATH=src python tests/library_transcript.py
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os

import numpy as np

import schemeforge as sf
from schemeforge import catalog
from schemeforge.hypergroup import CongruenceRelation, closure_lattice, congruence_quotient

import test_lattice

TRANSCRIPT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "library_transcript.json")


def canonical(value):
    """value as plain JSON data: cells and sets as sorted lists."""
    if isinstance(value, sf.Hypergroup):
        cells = [[sorted(cell) for cell in row] for row in value.table]
        return {"m": value.m, "e": value.e, "inv": list(value.inv), "cells": cells}
    if isinstance(value, sf.AssociationScheme):
        return {"n": value.n, "rel": value.rel.tolist(), "star": list(value.star)}
    if isinstance(value, sf.Report):
        return {"violations": canonical(value.violations)}
    if isinstance(value, sf.Violation):
        return [value.axiom, canonical(value.witness)]
    if dataclasses.is_dataclass(value):
        return {f.name: canonical(getattr(value, f.name)) for f in dataclasses.fields(value)}
    if isinstance(value, (set, frozenset)):
        return sorted(canonical(x) for x in value)
    if isinstance(value, (list, tuple)):
        return [canonical(x) for x in value]
    if isinstance(value, np.integer):
        return int(value)
    return value


def outcome(call) -> object:
    """The canonical data of call()'s value, or of the exception it raised."""
    try:
        value = call()
    except Exception as exc:  # every refusal is part of the transcript
        return {"raised": type(exc).__name__, "message": str(exc),
                "violations": canonical(getattr(exc, "violations", ()))}
    return canonical(value)


def digest(data) -> str:
    text = json.dumps(data, sort_keys=True, separators=(",", ":"), allow_nan=False)
    return hashlib.sha256(text.encode()).hexdigest()


def _tables(h: sf.Hypergroup, rng) -> list[tuple[str, object, object, object]]:
    """(name, table, e, inv) of h's table perturbed and made malformed."""
    m, table = h.m, [[sorted(cell) for cell in row] for row in h.table]

    def changed(a, b, cell):
        out = [list(row) for row in table]
        out[a][b] = cell
        return out

    a, b = (int(x) for x in rng.integers(0, m, 2))
    out = [
        ("as lists", table, h.e, list(h.inv)),
        ("cell emptied", changed(a, b, []), h.e, h.inv),
        ("cell filled", changed(a, b, list(range(m))), h.e, h.inv),
        ("cell moved", changed(a, b, [(t + 1) % m for t in table[a][b]]), h.e, h.inv),
        ("element m", changed(a, b, [*table[a][b], m]), h.e, h.inv),
        ("element 10^30", changed(a, b, [10 ** 30]), h.e, h.inv),
        ("element -1", changed(a, b, [-1, *table[a][b]]), h.e, h.inv),
        ("duplicates", changed(a, b, table[a][b] * 2), h.e, h.inv),
        ("all broken", [[[m]] * m for _ in range(m)], h.e, h.inv),
        ("row short", [row[:-1] if i == a else row for i, row in enumerate(table)], h.e, h.inv),
        ("row extra", table + [table[0]], h.e, h.inv),
        ("e out of range", table, m, h.inv),
        ("e other", table, (h.e + 1) % m, h.inv),
        ("inv short", table, h.e, h.inv[:-1]),
        ("inv out of range", table, h.e, [*h.inv[:-1], m]),
        ("inv identity", table, h.e, list(range(m))),
    ]
    for k in range(3):
        moved = [list(row) for row in table]
        for _ in range(k + 1):
            x, y, t = (int(v) for v in rng.integers(0, m, 3))
            moved[x][y] = sorted(set(moved[x][y]) ^ {t})
        out.append((f"perturbed~{k}", moved, h.e, h.inv))
    return out


def calls() -> list[tuple[str, object]]:
    """(name, zero-argument call) for every row of the table."""
    rng = np.random.default_rng(20271)
    out: list[tuple[str, object]] = []
    routes = test_lattice._route_values()
    out += [(f"route {name}", lambda h=h: h) for name, h in routes]
    out += [(f"route {name} is_commutative", h.is_commutative) for name, h in routes]
    out += [(f"route {name} product", lambda h=h: h.product(range(0, h.m, 2), range(1, h.m, 3)))
            for name, h in routes]

    malformed = [("[]", [], 0, []), ("5", 5, 0, [0]), ("[5]", [5], 0, [0]), ("[[5]]", [[5]], 0, [0]),
                 ("[[None]]", [[[None]]], 0, [0]), ("[['x']]", [[["x"]]], 0, [0]), ("[[[]]]", [[[]]], 0, [0]),
                 ("[['0']]", [[["0"]]], 0, [0]), ("[[[0.0]]]", [[[0.0]]], 0, [0])]
    out += [(f"build {name}", lambda t=t, e=e, i=i: sf.build_hypergroup(t, e, i)) for name, t, e, i in malformed]
    names = catalog.hypergroup_names() + catalog.scheme_names()
    for name in names:
        h = catalog.catalog_hypergroup(name)
        out += [(f"build {name} {what}", lambda t=t, e=e, i=i: sf.build_hypergroup(t, e, i))
                for what, t, e, i in _tables(h, rng)]

    for name in names:
        h = catalog.catalog_hypergroup(name)
        moved = test_lattice.relabel_hypergroup(h, rng)[0]
        out += [(f"lattice {name}", lambda h=h: closure_lattice(h)),
                (f"lattice {name}~", lambda h=moved: closure_lattice(h))]
        lattice, pair = closure_lattice(h), frozenset({h.e, (h.e + 1) % h.m})
        for t in lattice + [pair] * (pair not in lattice):
            out += [(f"normal {name} {sorted(t)}", lambda h=h, t=t: sf.is_normal_sub(h, t)),
                    (f"quotient {name} {sorted(t)}", lambda h=h, t=t: sf.quotient_hypergroup(h, t))]
        blocks = [list(range(k, h.m, 2)) for k in range(min(2, h.m))]
        for what, c in (("trivial", CongruenceRelation.trivial(h.m)), ("total", CongruenceRelation.total(h.m)),
                        ("parity", CongruenceRelation.from_blocks(blocks, h.m)),
                        ("random", CongruenceRelation(tuple(int(x) for x in rng.integers(0, 3, h.m)))),
                        ("short", CongruenceRelation((0,) * (h.m + 1)))):
            out += [(f"congruence {name} {what}", lambda h=h, c=c: sf.congruence_violations(h, c)),
                    (f"congruence quotient {name} {what}", lambda h=h, c=c: congruence_quotient(h, c))]
        out += [(f"isomorphic {name}~", lambda h=h, g=moved: sf.hypergroup_isomorphic(h, g)),
                (f"geometry {name}", lambda h=h: sf.geometry_from_hypergroup(h))]
        for other in names:
            g = catalog.catalog_hypergroup(other)
            if other != name and g.m == h.m:
                out.append((f"isomorphic {name} {other}", lambda h=h, g=g: sf.hypergroup_isomorphic(h, g)))
        if h.m <= 4:
            out.append((f"search {name}", lambda h=moved: sf.search_realization(h, 6)))

    products = [("K", "S"), ("S", "K"), ("S3", "K"), ("Z3", "Z2"), ("K", "fano-flags")]
    out += [(f"product {a} {b}", lambda a=a, b=b: sf.product_hypergroup(catalog.catalog_hypergroup(a),
                                                                          catalog.catalog_hypergroup(b)))
            for a, b in products]
    for n in (1, 2, 5, 12):
        g = sf.cyclic_group(n)
        out.append((f"group Z/{n}", lambda g=g: sf.group_as_hypergroup(g.cayley, g.e, g.inv)))

    rings = [("Z3", sf.zmod_ring(3), (1, 2)), ("Z7", sf.zmod_ring(7), (1, 2, 4)), ("Z7 bad", sf.zmod_ring(7), (1, 3)),
             ("Z9", sf.zmod_ring(9), sf.ring_units(sf.zmod_ring(9))), ("Z5", sf.zmod_ring(5), (1, 4)),
             ("GF4", sf.gf_ring(4), sf.ring_units(sf.gf_ring(4))),
             ("GF16", sf.gf_ring(16), sf.units_of_order_dividing(sf.gf_ring(16), 3)),
             ("GF64", sf.gf_ring(64), sf.units_of_order_dividing(sf.gf_ring(64), 3))]
    for name, ring, units in rings:
        out += [(f"hyperring {name}", lambda r=ring, u=units: sf.quotient_hyperring(r, u)),
                (f"hyperring {name} geometry",
                 lambda r=ring, u=units: sf.geometry_from_hypergroup(sf.quotient_hyperring(r, u).hypergroup))]
    return out


def rows() -> list[dict]:
    return [{"call": name, "sha256": digest(outcome(call))} for name, call in calls()]


def record(path: str = TRANSCRIPT) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(rows(), fh, indent=1, ensure_ascii=False)
        fh.write("\n")


if __name__ == "__main__":
    record()
