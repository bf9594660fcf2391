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
from .errors import Report, _integers
from .hypergroup import Hypergroup, build_hypergroup
from .scheme import AssociationScheme, build_scheme


def canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def dump_scheme(scheme: AssociationScheme) -> str:
    return canonical_json({"n": scheme.n, "rel": scheme.rel.tolist()})


def _fields(obj, word: str, keys: tuple[str, ...], integers: tuple[str, ...] = ()) -> list:
    """The values of keys in a file's parsed JSON, or ValueError when it is no
    object holding them all or when a header field named in integers is not
    an integer to ``errors._integers``; the builders check the rest."""
    if not isinstance(obj, dict) or not set(keys) <= set(obj):
        raise ValueError(f"{word} files need keys {' and '.join(map(json.dumps, keys))}")
    for key in integers:
        if _integers(obj[key]) is None:
            raise ValueError(f'{word} files need an integer "{key}"')
    return [obj[key] for key in keys]


def load_scheme(text: str) -> AssociationScheme | Report:
    """Parse and rebuild a scheme; only the relation matrix is authoritative."""
    return _scheme_from(json.loads(text))


def _scheme_from(obj) -> AssociationScheme | Report:
    n, rel = _fields(obj, "scheme", ("n", "rel"), ("n",))
    return build_scheme(n, rel)


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
    m, e, inv, table = _fields(obj, "hypergroup", ("m", "e", "inv", "table"), ("m", "e"))
    if m != len(table):
        raise ValueError("table size disagrees with m")
    return build_hypergroup(table, e, inv)


def dump_geometry(g: IncidenceGeometry) -> str:
    return canonical_json({"points": g.n_points, "lines": [list(line) for line in g.lines]})


def load_geometry(text: str) -> IncidenceGeometry:
    return verified_geometry(*_fields(json.loads(text), "geometry", ("points", "lines"), ("points",)))


def dump_group(g: FiniteGroup) -> str:
    return canonical_json({"order": g.order, "cayley": [list(row) for row in g.cayley]})


def load_group(text: str) -> FiniteGroup:
    order, cayley = _fields(json.loads(text), "group", ("order", "cayley"), ("order",))
    if order != len(cayley):
        raise ValueError("cayley size disagrees with order")
    return build_group(cayley)


def dump_ring(r: FiniteRing) -> str:
    return canonical_json({
        "add": [list(row) for row in r.add],
        "mul": [list(row) for row in r.mul],
    })


def load_ring(text: str) -> FiniteRing:
    return build_ring(*_fields(json.loads(text), "ring", ("add", "mul")))
