"""Generalized repunits (b^n - 1)/(b - 1) and (b^n + 1)/(b + 1) and their
gcd law: for either kind, gcd of two members is the member at the gcd of the
indices (the plus kind requires odd indices throughout)."""

from __future__ import annotations

import enum

from .gcdlaws import _gcd_law

__all__ = ["RepunitKind", "repunit", "gcd_repunit"]


class RepunitKind(enum.Enum):
    MINUS = "minus"
    PLUS = "plus"

    @classmethod
    def parse(cls, name: str) -> "RepunitKind":
        try:
            return cls(name.lower())
        except ValueError:
            raise ValueError(
                f"unknown repunit kind {name!r}; expected 'minus' or 'plus'"
            ) from None


def repunit(b: int, n: int, kind: RepunitKind) -> int:
    """(b^n - 1)/(b - 1) for the minus kind, (b^n + 1)/(b + 1) for plus.

    The plus kind is only defined for odd n.  Both divisions are exact by
    construction; a nonzero remainder would be an implementation bug.
    """
    if b < 2:
        raise ValueError(f"base must be >= 2, got {b}")
    if n < 1:
        raise ValueError(f"index must be >= 1, got {n}")
    if kind is RepunitKind.MINUS:
        quotient, remainder = divmod(b**n - 1, b - 1)
    else:
        if n % 2 == 0:
            raise ValueError(f"plus kind requires odd index, got {n}")
        quotient, remainder = divmod(b**n + 1, b + 1)
    assert remainder == 0, f"defining division left remainder {remainder}"
    return quotient


def gcd_repunit(b: int, n: int, m: int, kind: RepunitKind) -> tuple[int, int, bool]:
    """gcd of two same-kind repunits, with the predicted value and a match flag.

    Returns (computed gcd, repunit at gcd(n, m), computed == predicted).
    """
    computed, predicted = _gcd_law(lambda i: repunit(b, i, kind), n, m)
    return computed, predicted, computed == predicted
