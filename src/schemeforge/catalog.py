"""Built-in named instances: the schemes, hypergroups, and valued rings used
throughout the test suite, the demos, and the command line."""

from __future__ import annotations

import functools

from .constructions import (
    ValuedRing,
    additive_group,
    alternating_group,
    cyclic_group,
    fano_flag_scheme,
    gf_ring,
    hamming_scheme,
    inner_automorphisms,
    krasner_hypergroup,
    padic_valued_ring,
    partition_scheme,
    scaling_automorphisms,
    sign_hypergroup,
    symmetric_group,
    group_scheme,
    trivial_valued_ring,
    units_of_order_dividing,
    valuation_relation,
    zmod_ring,
    ring_units,
)
from .errors import require
from .hypergroup import Hypergroup
from .realize import to_hypergroup
from .scheme import AssociationScheme, build_scheme


@functools.lru_cache(maxsize=None)
def _valued_rings() -> dict[str, ValuedRing]:
    return {
        "Z8-2adic": padic_valued_ring(8, 2),
        "Z9-3adic": padic_valued_ring(9, 3),
        "F5-trivial": trivial_valued_ring(zmod_ring(5)),
    }


def _valuation_partition_scheme(name: str) -> AssociationScheme:
    # built from the distance partition directly: it is a scheme (the orbit
    # partition under unit scaling) whether or not the triangle condition holds
    v = _valued_rings()[name]
    return require(build_scheme(v.ring.order, valuation_relation(v)))


def _unit_partition_scheme(ring, order: int | None = None) -> AssociationScheme:
    # the additive group under scaling by every unit, or by the units of order dividing ``order``
    units = ring_units(ring) if order is None else units_of_order_dividing(ring, order)
    return partition_scheme(additive_group(ring), scaling_automorphisms(ring, units))


_SCHEME_BUILDERS = {
    "Z2": lambda: group_scheme(cyclic_group(2)),
    "Z3": lambda: group_scheme(cyclic_group(3)),
    "Z4": lambda: group_scheme(cyclic_group(4)),
    "Z5": lambda: group_scheme(cyclic_group(5)),
    "Z6": lambda: group_scheme(cyclic_group(6)),
    "S3": lambda: group_scheme(symmetric_group(3)),
    "A4": lambda: group_scheme(alternating_group(4)),
    "S3-inn": lambda: partition_scheme(symmetric_group(3), inner_automorphisms(symmetric_group(3))),
    "A4-inn": lambda: partition_scheme(alternating_group(4), inner_automorphisms(alternating_group(4))),
    "F3": lambda: _unit_partition_scheme(zmod_ring(3)),
    "F5": lambda: _unit_partition_scheme(zmod_ring(5)),
    "F7": lambda: _unit_partition_scheme(zmod_ring(7), 3),
    "F16/F4": lambda: _unit_partition_scheme(gf_ring(16), 3),
    "F64/F4": lambda: _unit_partition_scheme(gf_ring(64), 3),
    "hamming-2": lambda: hamming_scheme(2),
    "hamming-3": lambda: hamming_scheme(3),
    "fano-flags": fano_flag_scheme,
    "Z8-2adic": lambda: _valuation_partition_scheme("Z8-2adic"),
    "Z9-3adic": lambda: _valuation_partition_scheme("Z9-3adic"),
    "F5-trivial": lambda: _valuation_partition_scheme("F5-trivial"),
}

_HYPERGROUP_BUILDERS = {
    "K": krasner_hypergroup,
    "S": sign_hypergroup,
}


def scheme_names() -> list[str]:
    return list(_SCHEME_BUILDERS)


def hypergroup_names() -> list[str]:
    return list(_HYPERGROUP_BUILDERS)


def valued_ring_names() -> list[str]:
    return list(_valued_rings())


@functools.lru_cache(maxsize=None)
def catalog_scheme(name: str) -> AssociationScheme:
    try:
        return _SCHEME_BUILDERS[name]()
    except KeyError:
        raise KeyError(f"unknown catalog scheme {name!r}; choices: {', '.join(scheme_names())}") from None


@functools.lru_cache(maxsize=None)
def catalog_hypergroup(name: str) -> Hypergroup:
    """A named hypergroup, or the class hypergroup of a named scheme."""
    if name in _HYPERGROUP_BUILDERS:
        return _HYPERGROUP_BUILDERS[name]()
    if name in _SCHEME_BUILDERS:
        return to_hypergroup(catalog_scheme(name))
    raise KeyError(
        f"unknown catalog hypergroup {name!r}; choices: "
        f"{', '.join(list(_HYPERGROUP_BUILDERS) + scheme_names())}"
    )


def catalog_valued_ring(name: str) -> ValuedRing:
    try:
        return _valued_rings()[name]
    except KeyError:
        raise KeyError(
            f"unknown valued ring {name!r}; choices: {', '.join(valued_ring_names())}"
        ) from None
