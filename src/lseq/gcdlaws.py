"""Gcd identities of the L-sequences and generic gcd-insularity checking.

A sequence R is insular on an index set M when gcd(R(n), R(m)) equals
R(gcd(n, m)) for all n, m in M.  One law, ``_l_gcd``, gives every pair of L1
or L3 indices: gcd(L(i), L(j)) = L(gcd(i, j)) when v_3 (L1), or v_2 and v_3
(L3), of i and j agree; otherwise 3 when 3 divides both values (L1 at even,
L3 at odd indices), and 1 when not.  By L1(n) = Phi_3(2^n) and L3(n) =
Phi_6(2^n), two values share a factor Phi_d(2) only when the valuations
agree, and distinct Phi_a(2), Phi_b(2) share a prime p only if a/b is a
power of p, which leaves p = 3.  The paper's insular sets are 3^k * t (L1)
and 3^m * 2^n * t with n >= 1 (L3), t prime to 6: t prime to 3 (and odd, for
L3) fixes the valuations, and t odd (n >= 1, for L3) keeps two sets from
sharing the factor 3.  ``_gcd_law`` predicts R(gcd) for any sequence (the
sampling harness and ``repunit.gcd_repunit``); each check returns the
computed and the predicted gcd so mismatches are auditable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

from .lfamily import LFamily, eval_exact

__all__ = [
    "GcdCheckRecord",
    "IndexSetSpec",
    "gcd_l1",
    "gcd_l1_cross",
    "gcd_l3",
    "gcd_l3_cross",
    "insularity_harness",
]


@dataclass(frozen=True)
class GcdCheckRecord:
    """Computed-versus-predicted gcd for one index pair."""

    index_pair: tuple[int, int]
    computed: int
    predicted: int

    @property
    def match(self) -> bool:
        return self.computed == self.predicted


def _gcd_law(sequence: Callable[[int], int], i: int, j: int) -> tuple[int, int]:
    """(gcd(R(i), R(j)), R(gcd(i, j))): the gcd and its prediction where R
    is insular."""
    return math.gcd(sequence(i), sequence(j)), sequence(math.gcd(i, j))


def _l_gcd(family: LFamily, i: int, j: int) -> int:
    """The law's gcd(L(i), L(j)) for L1 or L3.  With g = gcd(i, j), the
    valuations v_3 (L1), or v_2 and v_3 (L3), of i and j agree exactly when
    i/g and j/g are both prime to m = 3 (L1) or 6 (L3)."""
    m, parity = (3, 0) if family is LFamily.L1 else (6, 1)
    g = math.gcd(i, j)
    if math.gcd(i // g, m) == math.gcd(j // g, m) == 1:
        return eval_exact(family, g)
    return 3 if i % 2 == j % 2 == parity else 1


def _l_check(family: LFamily, i: int, j: int) -> tuple[int, GcdCheckRecord]:
    computed = math.gcd(eval_exact(family, i), eval_exact(family, j))
    return computed, GcdCheckRecord((i, j), computed, _l_gcd(family, i, j))


def _require_admissible_t(**ts: int) -> None:
    for name, t in ts.items():
        if t < 1:
            raise ValueError(f"{name} must be >= 1, got {t}")
        if t % 2 == 0:
            raise ValueError(f"{name} must be odd, got {t}")
        if t % 3 == 0:
            raise ValueError(f"{name} must not be divisible by 3, got {t}")


def gcd_l1(k: int, t1: int, t2: int) -> tuple[int, GcdCheckRecord]:
    """gcd of L1 at indices 3^k*t1 and 3^k*t2, predicted L1(3^k*gcd(t1,t2))."""
    if k < 0:
        raise ValueError(f"k must be >= 0, got {k}")
    _require_admissible_t(t1=t1, t2=t2)
    return _l_check(LFamily.L1, 3**k * t1, 3**k * t2)


def gcd_l1_cross(k1: int, t1: int, k2: int, t2: int) -> tuple[int, GcdCheckRecord]:
    """gcd of L1 at indices 3^k1*t1 and 3^k2*t2 with k1 != k2, predicted 1."""
    if k1 < 0 or k2 < 0:
        raise ValueError(f"exponents must be >= 0, got {k1} and {k2}")
    if k1 == k2:
        raise ValueError(f"exponents must differ (got k1 = k2 = {k1}); use gcd_l1")
    _require_admissible_t(t1=t1, t2=t2)
    return _l_check(LFamily.L1, 3**k1 * t1, 3**k2 * t2)


def gcd_l3(m: int, n: int, t1: int, t2: int) -> tuple[int, GcdCheckRecord]:
    """gcd of L3 at indices 3^m*2^n*t1 and 3^m*2^n*t2, predicted at the gcd index."""
    if m < 0:
        raise ValueError(f"m must be >= 0, got {m}")
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    _require_admissible_t(t1=t1, t2=t2)
    base = 3**m * 2**n
    return _l_check(LFamily.L3, base * t1, base * t2)


def gcd_l3_cross(
    m1: int, n1: int, t1: int, m2: int, n2: int, t2: int
) -> tuple[int, GcdCheckRecord]:
    """gcd of L3 at indices 3^m1*2^n1*t1 and 3^m2*2^n2*t2 with distinct
    exponent pairs, predicted 1."""
    if m1 < 0 or m2 < 0:
        raise ValueError(f"3-adic exponents must be >= 0, got {m1} and {m2}")
    if n1 < 1 or n2 < 1:
        raise ValueError(f"2-adic exponents must be >= 1, got {n1} and {n2}")
    if (m1, n1) == (m2, n2):
        raise ValueError(
            f"exponent pairs must differ (got ({m1}, {n1}) twice); use gcd_l3"
        )
    _require_admissible_t(t1=t1, t2=t2)
    return _l_check(LFamily.L3, 3**m1 * 2**n1 * t1, 3**m2 * 2**n2 * t2)


@dataclass(frozen=True)
class IndexSetSpec:
    """Bounded enumeration of an index set for insularity sampling.

    kind "structured" generates 3^pow3 * 2^pow2 * t with t odd and not
    divisible by 3; "all" generates every index and "odd" every odd index.
    Only indices <= bound are enumerated.
    """

    kind: str
    pow3: int = 0
    pow2: int = 0
    bound: int = 10_000

    def __post_init__(self) -> None:
        if self.kind not in ("structured", "all", "odd"):
            raise ValueError(f"unknown index-set kind {self.kind!r}")
        if self.pow3 < 0 or self.pow2 < 0:
            raise ValueError("exponents must be >= 0")
        if self.bound < 1:
            raise ValueError(f"bound must be >= 1, got {self.bound}")

    def indices(self) -> list[int]:
        if self.kind == "all":
            return list(range(1, self.bound + 1))
        if self.kind == "odd":
            return list(range(1, self.bound + 1, 2))
        base = 3**self.pow3 * 2**self.pow2
        return [
            base * t
            for t in range(1, self.bound // base + 1)
            if t % 2 == 1 and t % 3 != 0
        ]


def insularity_harness(
    sequence: Callable[[int], int],
    index_set: IndexSetSpec,
    sample_pairs: int,
    seed: int = 0,
) -> list[GcdCheckRecord]:
    """Sample index pairs and check gcd(R(n), R(m)) == R(gcd(n, m)).

    Pairs are drawn uniformly (with the given seed) from the bounded
    enumeration of the index set; records come back sorted by index pair and
    mismatches are reported in the records rather than raised.
    """
    if sample_pairs < 1:
        raise ValueError(f"sample_pairs must be >= 1, got {sample_pairs}")
    candidates = index_set.indices()
    if not candidates:
        raise ValueError(f"index set {index_set} is empty")
    import random  # only the sampler draws; other launches skip the import

    rng = random.Random(seed)
    draws = [(rng.choice(candidates), rng.choice(candidates)) for _ in range(sample_pairs)]
    pairs = sorted((min(n, m), max(n, m)) for n, m in draws)
    return [GcdCheckRecord(pair, *_gcd_law(sequence, *pair)) for pair in pairs]
