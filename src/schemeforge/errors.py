"""Shared error types and the one verification surface of the package.

Every builder either returns a verified value or a ``Report`` of violations,
and ``require`` turns such a result into the value or a ``VerificationError``.
Internal invariants are checked with explicit raises, never with ``assert``,
so the contract also holds under ``python -O``.
"""

from __future__ import annotations

import dataclasses

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


def require(result):
    """The verified value a builder returned, or VerificationError for its Report."""
    if isinstance(result, Report):
        raise VerificationError(result.violations)
    return result
