"""Canonical JSON interchange for schemes, hypergroups, geometries, groups, and
rings: sorted keys, no insignificant whitespace, arrays in index order, so that
export followed by import reproduces byte-identical files."""

from __future__ import annotations

import json

from .constructions import (
    FiniteGroup,
    FiniteRing,
    IncidenceGeometry,
    build_group,
    build_ring,
    verified_geometry,
)
from .errors import Report
from .hypergroup import Hypergroup, build_hypergroup
from .scheme import AssociationScheme, build_scheme


def canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def dump_scheme(scheme: AssociationScheme) -> str:
    return canonical_json({"n": scheme.n, "rel": scheme.rel.tolist()})


def load_scheme(text: str) -> AssociationScheme | Report:
    """Parse and rebuild a scheme; only the relation matrix is authoritative."""
    return _scheme_from(json.loads(text))


def _scheme_from(obj) -> AssociationScheme | Report:
    if not isinstance(obj, dict) or "n" not in obj or "rel" not in obj:
        raise ValueError('scheme files need keys "n" and "rel"')
    return build_scheme(int(obj["n"]), obj["rel"])


def dump_hypergroup(h: Hypergroup) -> str:
    return canonical_json({
        "m": h.m,
        "e": h.e,
        "inv": list(h.inv),
        "table": [[sorted(cell) for cell in row] for row in h.table],
    })


def load_hypergroup(text: str) -> Hypergroup | Report:
    return _hypergroup_from(json.loads(text))


def _hypergroup_from(obj) -> Hypergroup | Report:
    needed = {"m", "e", "inv", "table"}
    if not isinstance(obj, dict) or not needed <= set(obj):
        raise ValueError(f'hypergroup files need keys {sorted(needed)}')
    if len(obj["table"]) != int(obj["m"]):
        raise ValueError("table size disagrees with m")
    return build_hypergroup(obj["table"], int(obj["e"]), obj["inv"])


def dump_geometry(g: IncidenceGeometry) -> str:
    return canonical_json({"points": g.n_points, "lines": [list(line) for line in g.lines]})


def load_geometry(text: str) -> IncidenceGeometry:
    obj = json.loads(text)
    if not isinstance(obj, dict) or "points" not in obj or "lines" not in obj:
        raise ValueError('geometry files need keys "points" and "lines"')
    return verified_geometry(int(obj["points"]), tuple(tuple(int(p) for p in line) for line in obj["lines"]))


def dump_group(g: FiniteGroup) -> str:
    return canonical_json({"order": g.order, "cayley": [list(row) for row in g.cayley]})


def load_group(text: str) -> FiniteGroup:
    obj = json.loads(text)
    if not isinstance(obj, dict) or "order" not in obj or "cayley" not in obj:
        raise ValueError('group files need keys "order" and "cayley"')
    if len(obj["cayley"]) != int(obj["order"]):
        raise ValueError("cayley size disagrees with order")
    return build_group(obj["cayley"])


def dump_ring(r: FiniteRing) -> str:
    return canonical_json({
        "add": [list(row) for row in r.add],
        "mul": [list(row) for row in r.mul],
    })


def load_ring(text: str) -> FiniteRing:
    obj = json.loads(text)
    if not isinstance(obj, dict) or "add" not in obj or "mul" not in obj:
        raise ValueError('ring files need keys "add" and "mul"')
    return build_ring(obj["add"], obj["mul"])
