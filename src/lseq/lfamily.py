"""Exact and modular evaluation of the four sequences 2^(2n) +/- 2^n +/- 1.

The four sign variants are named L1 through L4.  Values grow like 4^n, so
every exact computation is guarded by an explicit bit budget and everything
that only needs a residue goes through modular exponentiation instead.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from .arith import is_prime

__all__ = [
    "DEFAULT_EVAL_BIT_BUDGET",
    "DEFAULT_PRODUCT_BIT_BUDGET",
    "BudgetExceededError",
    "LFamily",
    "CongruenceRule",
    "eval_exact",
    "residue",
    "builtin_congruence_rules",
    "verify_statement1_orbit",
    "verify_statement2_orbit",
    "verify_theorem3",
    "verify_product_identity",
]

# Exact evaluation refuses to build integers wider than this many bits.
DEFAULT_EVAL_BIT_BUDGET = 1 << 26

# verify_product_identity builds 2^(3^(k+1)) - 1 exactly; this budget admits
# k <= 6 and turns anything larger into an explicit resource error.
DEFAULT_PRODUCT_BIT_BUDGET = 1 << 12


class BudgetExceededError(Exception):
    """An exact computation would exceed its configured bit budget."""


class LFamily(enum.Enum):
    """Sign variant of 2^(2n) + mid_sign*2^n + unit_sign."""

    L1 = (1, 1)
    L2 = (1, -1)
    L3 = (-1, 1)
    L4 = (-1, -1)

    def __init__(self, mid_sign: int, unit_sign: int) -> None:
        # Plain attributes: residue reads them on every call.
        self.mid_sign = mid_sign
        self.unit_sign = unit_sign

    @classmethod
    def parse(cls, name: str) -> "LFamily":
        try:
            return cls[name.upper()]
        except KeyError:
            raise ValueError(
                f"unknown family {name!r}; expected one of L1, L2, L3, L4"
            ) from None


def eval_exact(family: LFamily, n: int, *, bit_budget: int = DEFAULT_EVAL_BIT_BUDGET) -> int:
    """Return 2^(2n) + mid_sign*2^n + unit_sign as an exact integer.

    Raises BudgetExceededError when the result would need more than
    ``bit_budget`` bits, so callers cannot accidentally materialize
    astronomically large values.
    """
    if n < 1:
        raise ValueError(f"index must be >= 1, got {n}")
    if 2 * n + 1 > bit_budget:
        raise BudgetExceededError(
            f"value at index {n} needs {2 * n + 1} bits, budget is {bit_budget}"
        )
    x = 1 << n
    return x * x + family.mid_sign * x + family.unit_sign


def residue(family: LFamily, n: int, m: int) -> int:
    """Return the sequence value at index n reduced mod m, in [0, m).

    Uses modular exponentiation throughout; the full value is never built,
    so the index may be arbitrarily large.
    """
    if n < 1:
        raise ValueError(f"index must be >= 1, got {n}")
    if m < 2:
        raise ValueError(f"modulus must be >= 2, got {m}")
    t = pow(2, n, m)
    return (t * t + family.mid_sign * t + family.unit_sign) % m


@dataclass(frozen=True)
class CongruenceRule:
    """Divisibility pattern: value at every index step*k + offset is 0 mod modulus."""

    family: LFamily
    modulus: int
    step: int
    offsets: tuple[int, ...]
    description: str

    def __post_init__(self) -> None:
        if self.modulus < 2:
            raise ValueError(f"modulus must be >= 2, got {self.modulus}")
        if self.step < 1:
            raise ValueError(f"step must be >= 1, got {self.step}")
        if not self.offsets:
            raise ValueError("at least one offset is required")
        for off in self.offsets:
            if not 1 <= off <= self.step:
                raise ValueError(f"offset {off} outside [1, {self.step}]")

    def covered_indices(self, n_max: int) -> list[int]:
        """All indices <= n_max that the rule claims are divisible."""
        out: set[int] = set()
        for off in self.offsets:
            out.update(range(off, n_max + 1, self.step))
        return sorted(out)

    def first_violation(self, n_max: int) -> int | None:
        """Smallest covered index <= n_max where the claim fails, if any.

        Walks the progressions in ascending order, block by block of step
        indices (the offsets lie in [1, step]), without listing them, and
        stops after one period of 2^n mod m.  L(n) mod m is a polynomial
        in 2^n mod m, so a block's residues follow from y = 2^base mod m,
        which each block multiplies by 2^step.  From base v2(m) on (the
        exponent of 2 in m) y is purely periodic; once it comes back to
        its value at the first such block, every later block repeats an
        earlier one and can hold no first violation.  Each catalogued rule
        has an odd m and a step that ord_m(2) divides: it walks one block.
        """
        m = self.modulus
        offsets = sorted(set(self.offsets))
        two_adic = (m & -m).bit_length() - 1
        shift = pow(2, self.step, m)
        y, period_start = 1, None
        for base in range(0, n_max, self.step):
            if period_start is None:
                if base >= two_adic:
                    period_start = y
            elif y == period_start:
                return None
            for off in offsets:
                n = base + off
                if n > n_max:
                    return None
                if residue(self.family, n, m) != 0:
                    return n
            y = y * shift % m
        return None


_RULES: dict[LFamily, tuple[CongruenceRule, ...]] = {
    LFamily.L1: (
        CongruenceRule(LFamily.L1, 3, 2, (2,), "divisible by 3 at every even index"),
        CongruenceRule(
            LFamily.L1, 7, 3, (1, 2), "divisible by 7 at every index not divisible by 3"
        ),
    ),
    LFamily.L2: (
        CongruenceRule(LFamily.L2, 5, 4, (1,), "divisible by 5 at indices 4k+1"),
        CongruenceRule(LFamily.L2, 11, 10, (7, 8), "divisible by 11 at indices 10k+7 and 10k+8"),
    ),
    LFamily.L3: (
        CongruenceRule(LFamily.L3, 3, 2, (1,), "divisible by 3 at every odd index"),
        CongruenceRule(LFamily.L3, 13, 12, (2, 10), "divisible by 13 at indices 12k+2 and 12k+10"),
    ),
    LFamily.L4: (
        CongruenceRule(LFamily.L4, 5, 4, (3,), "divisible by 5 at indices 4k+3"),
        CongruenceRule(LFamily.L4, 11, 10, (2, 3), "divisible by 11 at indices 10k+2 and 10k+3"),
    ),
}


def builtin_congruence_rules(family: LFamily) -> list[CongruenceRule]:
    """The catalogued arithmetic-progression divisibility rules for a family."""
    return list(_RULES[family])


def verify_statement1_orbit(family: LFamily, l: int, p: int, k_max: int) -> bool:
    """Check that p | L(l) propagates along the index progression l + (p-1)*k.

    Requires the seed divisibility residue(family, l, p) == 0; the progression
    is then checked for every 0 <= k <= k_max.
    """
    if l < 1:
        raise ValueError(f"offset must be >= 1, got {l}")
    if p < 3 or not is_prime(p).is_prime_or_probable:
        raise ValueError(f"modulus must be an odd prime, got {p}")
    if k_max < 0:
        raise ValueError(f"k_max must be >= 0, got {k_max}")
    if residue(family, l, p) != 0:
        raise ValueError(
            f"precondition failed: {family.name}({l}) is not divisible by {p}"
        )
    return all(residue(family, l + (p - 1) * k, p) == 0 for k in range(k_max + 1))


def verify_statement2_orbit(family: LFamily, l: int, p: int, t: int, n_max: int) -> bool:
    """Check that p^t | L(l) propagates to indices p^(N+t) - p^(t-1) + l.

    Requires the seed divisibility residue(family, l, p^t) == 0; the derived
    indices are then checked for every 0 <= N <= n_max.
    """
    if l < 1:
        raise ValueError(f"offset must be >= 1, got {l}")
    if p < 3 or not is_prime(p).is_prime_or_probable:
        raise ValueError(f"modulus base must be an odd prime, got {p}")
    if t < 1:
        raise ValueError(f"exponent must be >= 1, got {t}")
    if n_max < 0:
        raise ValueError(f"n_max must be >= 0, got {n_max}")
    modulus = p**t
    if residue(family, l, modulus) != 0:
        raise ValueError(
            f"precondition failed: {family.name}({l}) is not divisible by {p}^{t}"
        )
    return all(
        residue(family, p ** (n + t) - p ** (t - 1) + l, modulus) == 0
        for n in range(n_max + 1)
    )


def verify_theorem3(k: int, n: int) -> bool:
    """Check that 7^(k+1) divides L1(7^k * n) for n not divisible by 3."""
    if k < 0:
        raise ValueError(f"k must be >= 0, got {k}")
    if n < 1:
        raise ValueError(f"index must be >= 1, got {n}")
    if n % 3 == 0:
        raise ValueError(f"hypothesis requires n not divisible by 3, got {n}")
    return residue(LFamily.L1, 7**k * n, 7 ** (k + 1)) == 0


def verify_product_identity(k: int, *, bit_budget: int = DEFAULT_PRODUCT_BIT_BUDGET) -> bool:
    """Check that L1(1) * L1(3) * ... * L1(3^k) equals 2^(3^(k+1)) - 1 exactly."""
    if k < 0:
        raise ValueError(f"k must be >= 0, got {k}")
    target_bits = 3 ** (k + 1) + 1
    if target_bits > bit_budget:
        raise BudgetExceededError(
            f"product at k={k} needs {target_bits} bits, budget is {bit_budget}"
        )
    product = 1
    for i in range(k + 1):
        product *= eval_exact(LFamily.L1, 3**i)
    return product == (1 << 3 ** (k + 1)) - 1
