"""Shared error types and the one verification surface of the package.

Every builder either returns a verified value or a ``Report`` of violations,
and ``require`` turns such a result into the value or a ``VerificationError``.
Internal invariants are checked with explicit raises, never with ``assert``,
so the contract also holds under ``python -O``.

The integers a caller hands in (a class matrix, a table's cells and entries,
an identity and its inverses, class and element sets, permutations, points,
file headers) are read through ``_integers`` alone, which decides what an
integer input is; each caller words its own refusal of what it returns None for.
"""

from __future__ import annotations

import dataclasses
import itertools

import numpy as np

_WITNESS_CAP = 25  # the most witnesses a check records for one axiom


@dataclasses.dataclass(frozen=True)
class Violation:
    """One failed axiom check: the axiom's name and a concrete witness tuple."""

    axiom: str
    witness: tuple

    def text(self) -> str:
        return f"AXIOM {self.axiom} WITNESS {self.witness}"


@dataclasses.dataclass(frozen=True)
class Report:
    """Outcome of a verification: the violations found, each with a witness.

    Builders return one only on failure; check functions return one either way.
    """

    violations: tuple[Violation, ...]

    @property
    def valid(self) -> bool:
        return not self.violations

    ok = valid

    def text(self) -> str:
        return "\n".join(v.text() for v in self.violations)


class SchemeForgeError(ValueError):
    """Base class for contract violations raised by this package."""


class SizeGuardError(SchemeForgeError):
    """An enumeration was refused because the input exceeds its hard size bound."""


class VerificationError(SchemeForgeError):
    """A verification failed: ``what`` names the check, ``violations`` carry the witnesses."""

    def __init__(self, violations, what: str = "verification fails"):
        self.violations, self.what = tuple(violations), what
        super().__init__(f"{what}: {self.violations[0].text()}")


# former names, kept so existing callers keep working
TriangleConditionError = CongruenceError = GeometryError = VerificationError


def _integers(value, ndim: int = 0):
    """value as a Python int (ndim 0) or as a fresh int64 array of ndim <= 2
    dimensions, or None when it is not one: the one test of an integer input.

    An integer is a Python int or a numpy integer within int64; a bool is
    none.  An array must have an integer dtype and hold no uint64 above
    2^63 - 1 and, when it comes as nested lists, no bool (numpy would read
    True as 1, so the lists are scanned once; an ndarray carries its dtype).
    Floats, strings and None are refused, never converted, and a ragged list
    raises numpy's ValueError.  Scalars take a pure-Python path, since cells
    and class sets call it once an element.
    """
    if type(value) is int and -(1 << 63) <= value < 1 << 63:  # the common case, in one test
        return value if ndim == 0 else None
    if ndim == 0:
        return int(value) if isinstance(value, np.integer) and -(1 << 63) <= value < 1 << 63 else None
    array = np.asarray(value)
    refused = (array.ndim != ndim or array.dtype.kind not in "iu"
               or array.dtype == np.uint64 and array.size and array.max() >= 1 << 63
               or not isinstance(value, np.ndarray) and not {bool, np.bool_}.isdisjoint(
                   map(type, value if ndim == 1 else itertools.chain.from_iterable(value))))
    return None if refused else array.astype(np.int64)


def require(result):
    """The verified value a builder returned, or VerificationError for its Report."""
    if isinstance(result, Report):
        raise VerificationError(result.violations)
    return result
