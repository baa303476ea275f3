"""Modular arithmetic, primality classification, factoring helpers, and
multiplicative order.

Primality verdicts are deterministic below 2^64 (sieve, trial division, and
a fixed Miller-Rabin witness set proven exhaustive for that range) and
probabilistic above it (base-2 strong test, a strong Lucas test, and a
configurable number of seeded random-base rounds).
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Callable, Iterator

__all__ = [
    "DETERMINISTIC_LIMIT",
    "DEFAULT_EXTRA_ROUNDS",
    "DEFAULT_TRIAL_BOUND",
    "DEFAULT_RHO_BUDGET",
    "FactorBudgetError",
    "OrderSearchError",
    "PrimalityVerdict",
    "OrderResult",
    "mod_pow",
    "sieve_primes",
    "is_prime",
    "factor_trial",
    "multiplicative_order",
    "lemma2_witness",
]

# Verdicts for n below this bound are deterministic.
DETERMINISTIC_LIMIT = 1 << 64

DEFAULT_EXTRA_ROUNDS = 2
DEFAULT_TRIAL_BOUND = 10**6
DEFAULT_RHO_BUDGET = 200_000

_SIEVE_LIMIT = 1 << 20
_sieve: bytearray | None = None


class FactorBudgetError(Exception):
    """Factoring stopped with a composite cofactor still unsplit."""

    def __init__(self, message: str, factors: list[tuple[int, int]], cofactor: int):
        super().__init__(message)
        self.factors = factors
        self.cofactor = cofactor


class OrderSearchError(Exception):
    """Multiplicative-order computation exceeded its factoring budget."""


def _build_sieve(limit: int) -> bytearray:
    """Eratosthenes sieve: entry n is 1 exactly when n <= limit is prime."""
    sieve = bytearray(b"\x01") * (limit + 1)
    sieve[0] = sieve[1] = 0
    for p in range(2, math.isqrt(limit) + 1):
        if sieve[p]:
            sieve[p * p :: p] = bytearray(len(sieve[p * p :: p]))
    return sieve


def _small_sieve() -> bytearray:
    global _sieve
    if _sieve is None:
        _sieve = _build_sieve(_SIEVE_LIMIT)
    return _sieve


def sieve_primes(limit: int) -> list[int]:
    """Ascending list of primes <= limit."""
    if limit < 2:
        return []
    sieve = _small_sieve() if limit <= _SIEVE_LIMIT else _build_sieve(limit)
    return [n for n in range(2, limit + 1) if sieve[n]]


def _wheel(bound: int) -> Iterator[int]:
    """Trial divisors up to bound: 2, 3, then every 6k - 1 and 6k + 1."""
    yield from (d for d in (2, 3) if d <= bound)
    d, step = 5, 2
    while d <= bound:
        yield d
        d += step
        step = 6 - step


def mod_pow(base: int, exponent: int, m: int) -> int:
    """base**exponent mod m, result in [0, m)."""
    if m < 2:
        raise ValueError(f"modulus must be >= 2, got {m}")
    if exponent < 0:
        raise ValueError(f"exponent must be >= 0, got {exponent}")
    return pow(base, exponent, m)


@dataclass(frozen=True)
class PrimalityVerdict:
    """Outcome of a primality check, with how it was reached.

    classification is one of "unit", "prime", "probable_prime", "composite".
    evidence is a short machine-readable string: a factor ("factor=3"), a
    failed-test witness ("mr_witness=2"), or a marker for the deterministic
    method used.  rounds counts probabilistic tests applied.
    """

    n: int
    classification: str
    evidence: str | None = None
    rounds: int = 0

    @property
    def is_prime_or_probable(self) -> bool:
        return self.classification in ("prime", "probable_prime")


# Deterministic Miller-Rabin witness sets, each proven exhaustive below its
# bound; the final row covers everything below 2^64.
_MR_TIERS: tuple[tuple[int, tuple[int, ...]], ...] = (
    (2047, (2,)),
    (1373653, (2, 3)),
    (9080191, (31, 73)),
    (25326001, (2, 3, 5)),
    (3215031751, (2, 3, 5, 7)),
    (4759123141, (2, 7, 61)),
    (1122004669633, (2, 13, 23, 1662803)),
    (2152302898747, (2, 3, 5, 7, 11)),
    (3474749660383, (2, 3, 5, 7, 11, 13)),
    (341550071728321, (2, 3, 5, 7, 11, 13, 17)),
    (3825123056546413051, (2, 3, 5, 7, 11, 13, 17, 19, 23)),
    (DETERMINISTIC_LIMIT, (2, 325, 9375, 28178, 450775, 9780504, 1795265022)),
)

_TRIAL_PRIMES: list[int] | None = None


def _trial_primes() -> list[int]:
    global _TRIAL_PRIMES
    if _TRIAL_PRIMES is None:
        _TRIAL_PRIMES = sieve_primes(1000)
    return _TRIAL_PRIMES


# Moduli of the form 4^h + s1*2^h + s0 with at least this many bits are
# reduced by shifts and adds (_l_form_reducer); below it CPython's builtin
# pow and % are faster.  Builtin time over reducer time, measured on CPython
# 3.11 (2-vCPU x86-64) for L1-L4 values and each of the base-2, Lucas and
# random-base tests: 0.6-0.8 at 512-640 bits, 0.8-1.2 at 768, 0.9-1.3 at
# 896, 1.0-2.0 at 1024 and 2-3.4 at 4096.
_L_FORM_MIN_BITS = 1024

_WINDOW_BITS = 5


def _l_form_reducer(n: int) -> Callable[[int], int] | None:
    """x -> x mod n, for any int x, when n = 4^h + s1*2^h + s0 with s1, s0
    in {1, -1} and h >= 3; None for every other n.

    Since 4^h = -(s1*2^h + s0) (mod n), the bits of x from 2h up fold back
    onto the low 2h bits with one shift and two subtractions, so a
    reduction costs a few passes over x instead of a long division
    (Crandall-Pomerance, Prime Numbers, 9.2).
    """
    h = n.bit_length() >> 1
    rest = n - (1 << 2 * h)
    s1 = 1 if rest > 0 else -1
    s0 = rest - s1 * (1 << h)
    if h < 3 or s0 not in (1, -1):
        return None
    width = 2 * h
    mask = (1 << width) - 1

    def reduce(x: int) -> int:
        # Each fold shrinks |x| until it is below 2^(2h+1), at most 3n.
        while x.bit_length() > width + 1:
            high = x >> width
            x = (x & mask) - s0 * high - s1 * (high << h)
        while x < 0:
            x += n
        while x >= n:
            x -= n
        return x

    return reduce


def _pow_reduced(a: int, e: int, reduce: Callable[[int], int]) -> int:
    """a**e mod n for 0 <= a < n and e >= 1, where reduce(x) = x mod n:
    left to right in fixed windows, with reduce in place of %.  For base 2
    the table holds 2^w, so its multiplies cost no more than shifts."""
    table = [1, a]
    for _ in range(2, 1 << _WINDOW_BITS):
        table.append(reduce(table[-1] * a))
    bits = bin(e)[2:]
    head = len(bits) % _WINDOW_BITS or _WINDOW_BITS
    x = table[int(bits[:head], 2)]
    for i in range(head, len(bits), _WINDOW_BITS):
        for _ in range(_WINDOW_BITS):
            x = reduce(x * x)
        w = int(bits[i : i + _WINDOW_BITS], 2)
        if w:
            x = reduce(x * table[w])
    return x


def _strong_probable_prime(n: int, a: int, reduce: Callable[[int], int] | None = None) -> bool:
    """Strong (Miller-Rabin) test base a; n odd and >= 3.  reduce, when
    given, computes x mod n and replaces builtin pow and %."""
    a %= n
    if a == 0:
        return True
    d = n - 1
    s = (d & -d).bit_length() - 1
    d >>= s
    if reduce is None:
        x = pow(a, d, n)
        reduce = n.__rmod__  # x -> x % n
    else:
        x = _pow_reduced(a, d, reduce)
    if x == 1 or x == n - 1:
        return True
    for _ in range(s - 1):
        x = reduce(x * x)
        if x == n - 1:
            return True
    return False


def _jacobi(a: int, n: int) -> int:
    """Jacobi symbol (a/n) for odd n >= 1."""
    a %= n
    result = 1
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                result = -result
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            result = -result
        a %= n
    return result if n == 1 else 0


def _selfridge_d(n: int) -> int | None:
    """First D in 5, -7, 9, -11, ... with (D/n) = -1, or None when the
    search itself exposes a factor (only possible for composite n)."""
    d = 5
    while True:
        j = _jacobi(d, n)
        if j == -1:
            return d
        if j == 0 and abs(d) % n != 0:
            return None
        d = -(d + 2) if d > 0 else -(d - 2)


def _half_mod(x: int, n: int, reduce: Callable[[int], int]) -> int:
    x = reduce(x)
    return x >> 1 if x % 2 == 0 else (x + n) >> 1


def _strong_lucas_probable_prime(n: int, reduce: Callable[[int], int] | None = None) -> bool:
    """Strong Lucas test with Selfridge parameters; n odd, >= 3, not a square.
    reduce, when given, computes x mod n in place of builtin %."""
    d_sel = _selfridge_d(n)
    if d_sel is None:
        return False
    if reduce is None:
        reduce = n.__rmod__  # x -> x % n
    p, q = 1, (1 - d_sel) // 4
    k = n + 1
    s = (k & -k).bit_length() - 1
    d = k >> s
    u, v, qk = 1, p, reduce(q)
    for bit in bin(d)[3:]:
        u, v = reduce(u * v), reduce(v * v - 2 * qk)
        qk = reduce(qk * qk)
        if bit == "1":
            u, v = _half_mod(p * u + v, n, reduce), _half_mod(d_sel * u + p * v, n, reduce)
            qk = reduce(qk * q)
    if u == 0 or v == 0:
        return True
    for _ in range(s - 1):
        v = reduce(v * v - 2 * qk)
        if v == 0:
            return True
        qk = reduce(qk * qk)
    return False


def _smallest_factor_small(n: int) -> int:
    """Smallest prime factor of composite n <= _SIEVE_LIMIT."""
    for p in _trial_primes():
        if n % p == 0:
            return p
    # Composites from 1009^2 up, with no prime factor below 1000.
    return next(d for d in _wheel(math.isqrt(n)) if n % d == 0)


def is_prime(
    n: int,
    *,
    extra_rounds: int = DEFAULT_EXTRA_ROUNDS,
    seed: int = 0,
) -> PrimalityVerdict:
    """Classify n as unit, prime, probable_prime, or composite.

    Below 2^64 the verdict is deterministic; above it a passing n is labeled
    probable_prime after a base-2 strong test, a strong Lucas test, and
    extra_rounds random-base strong tests drawn from the given seed.
    """
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    if extra_rounds < 0:
        raise ValueError(f"extra_rounds must be >= 0, got {extra_rounds}")
    if n == 0:
        return PrimalityVerdict(0, "composite", "zero")
    if n == 1:
        return PrimalityVerdict(1, "unit")
    if n <= _SIEVE_LIMIT:
        if _small_sieve()[n]:
            return PrimalityVerdict(n, "prime", "trial_division")
        return PrimalityVerdict(n, "composite", f"factor={_smallest_factor_small(n)}")
    for p in _trial_primes():
        if n % p == 0:
            return PrimalityVerdict(n, "composite", f"factor={p}")
    if n < DETERMINISTIC_LIMIT:
        for bound, bases in _MR_TIERS:
            if n < bound:
                for a in bases:
                    if not _strong_probable_prime(n, a):
                        return PrimalityVerdict(n, "composite", f"mr_witness={a}")
                return PrimalityVerdict(n, "prime", f"mr_deterministic:{','.join(map(str, bases))}")
        raise AssertionError("unreachable: tier table covers all n < 2^64")
    root = math.isqrt(n)
    if root * root == n:
        return PrimalityVerdict(n, "composite", f"square_of={root}")
    reduce = _l_form_reducer(n) if n.bit_length() >= _L_FORM_MIN_BITS else None
    if not _strong_probable_prime(n, 2, reduce):
        return PrimalityVerdict(n, "composite", "mr_witness=2", rounds=1)
    if not _strong_lucas_probable_prime(n, reduce):
        return PrimalityVerdict(n, "composite", "lucas_witness", rounds=2)
    rng = random.Random(seed)
    for i in range(extra_rounds):
        a = rng.randrange(3, n - 1)
        if not _strong_probable_prime(n, a, reduce):
            return PrimalityVerdict(n, "composite", f"mr_witness={a}", rounds=2 + i + 1)
    return PrimalityVerdict(
        n,
        "probable_prime",
        f"bpsw+{extra_rounds}r:seed={seed}",
        rounds=2 + extra_rounds,
    )


def _brent_rho(n: int, budget: int, rng: random.Random) -> tuple[int | None, int]:
    """Brent-cycle Pollard rho.  Returns (factor or None, iterations used)."""
    if n % 2 == 0:
        return 2, 0
    used = 0
    while used < budget:
        y = rng.randrange(1, n)
        c = rng.randrange(1, n)
        m = 128
        g = r = q = 1
        x = ys = y
        while g == 1 and used < budget:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1 and used < budget:
                ys = y
                for _ in range(min(m, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                used += min(m, r - k)
                g = math.gcd(q, n)
                k += m
            r *= 2
        if g == n:
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = math.gcd(abs(x - ys), n)
        if 1 < g < n:
            return g, used
    return None, used


def factor_trial(
    n: int,
    bound: int,
    *,
    rho_budget: int = 0,
    seed: int = 0,
) -> tuple[list[tuple[int, int]], int]:
    """Partial factorization by trial division up to ``bound``.

    Returns (sorted (prime, exponent) list, cofactor).  The cofactor is 1 or
    has no prime factor <= bound; when it is <= bound^2 it must itself be
    prime and is folded into the list.  With rho_budget > 0 a Brent-cycle rho
    stage additionally tries to split the cofactor within that iteration
    budget; pieces passing is_prime (possibly as probable primes) are folded
    in, anything unsplit stays in the cofactor.
    """
    if n < 2:
        raise ValueError(f"n must be >= 2, got {n}")
    if bound < 2:
        raise ValueError(f"bound must be >= 2, got {bound}")
    counts: dict[int, int] = {}
    m = n
    for d in _wheel(bound):
        if d * d > m:
            break
        while m % d == 0:
            m //= d
            counts[d] = counts.get(d, 0) + 1
    # Every prime up to min(bound, sqrt(m)) has been tried, so the cofactor
    # is proven prime as soon as sqrt(m) is within the bound.
    if m > 1 and math.isqrt(m) <= bound:
        counts[m] = counts.get(m, 0) + 1
        m = 1
    if m > 1 and rho_budget > 0:
        rng = random.Random(seed)
        remaining = rho_budget
        pending = [m]
        unsplit: list[int] = []
        while pending:
            c = pending.pop()
            if is_prime(c).is_prime_or_probable:
                counts[c] = counts.get(c, 0) + 1
                continue
            f, used = _brent_rho(c, remaining, rng)
            remaining -= used
            if f is None:
                unsplit.append(c)
            else:
                pending.extend((f, c // f))
        m = math.prod(unsplit)
    return sorted(counts.items()), m


def _full_factor(n: int, trial_bound: int, rho_budget: int, seed: int) -> list[tuple[int, int]]:
    """Complete factorization or FactorBudgetError."""
    factors, cofactor = factor_trial(n, trial_bound, rho_budget=rho_budget, seed=seed)
    if cofactor != 1:
        raise FactorBudgetError(
            f"could not fully factor {n}: composite cofactor {cofactor} remains",
            factors,
            cofactor,
        )
    return factors


@dataclass(frozen=True)
class OrderResult:
    """Least d >= 1 with base**d = 1 (mod modulus)."""

    base: int
    modulus: int
    order: int


def _carmichael(factors: list[tuple[int, int]]) -> int:
    lam = 1
    for p, e in factors:
        if p == 2:
            block = 1 if e == 1 else (2 if e == 2 else 1 << (e - 2))
        else:
            block = p ** (e - 1) * (p - 1)
        lam = math.lcm(lam, block)
    return lam


def multiplicative_order(
    a: int,
    m: int,
    *,
    trial_bound: int = DEFAULT_TRIAL_BOUND,
    rho_budget: int = DEFAULT_RHO_BUDGET,
    seed: int = 0,
) -> OrderResult:
    """Multiplicative order of a mod m.

    Factors the group order (m-1 for prime m, the Carmichael function
    otherwise) and strips prime factors.  When that factorization exceeds
    the effort budget, falls back to sequential search for m below 10^6 and
    otherwise raises OrderSearchError.
    """
    if m < 2:
        raise ValueError(f"modulus must be >= 2, got {m}")
    a %= m
    if math.gcd(a, m) != 1:
        raise ValueError(f"base {a} is not coprime to modulus {m}")
    try:
        if is_prime(m).is_prime_or_probable:
            group = m - 1
        else:
            group = _carmichael(_full_factor(m, trial_bound, rho_budget, seed))
        group_factors = _full_factor(group, trial_bound, rho_budget, seed)
        if pow(a, group, m) != 1:
            raise OrderSearchError(
                f"group exponent {group} did not annihilate base {a} mod {m}"
            )
        order = group
        for p, _ in group_factors:
            while order % p == 0 and pow(a, order // p, m) == 1:
                order //= p
        return OrderResult(a, m, order)
    except FactorBudgetError as exc:
        if m < 10**6:
            order, x = 1, a
            while x != 1:
                x = x * a % m
                order += 1
            return OrderResult(a, m, order)
        raise OrderSearchError(
            f"factoring the group order for modulus {m} exceeded the budget: {exc}"
        ) from exc


def _first_prime_factor(n: int, trial_bound: int, rho_budget: int, seed: int) -> int:
    """Some prime factor of n, preferring the smallest via trial division."""
    for d in _wheel(min(trial_bound, math.isqrt(n))):
        if n % d == 0:
            return d
    if math.isqrt(n) <= trial_bound:
        return n
    if is_prime(n).is_prime_or_probable:
        return n
    rng = random.Random(seed)
    remaining = rho_budget
    c = n
    while remaining > 0:
        f, used = _brent_rho(c, remaining, rng)
        remaining -= used
        if f is None:
            break
        c = min(f, c // f)
        if is_prime(c).is_prime_or_probable:
            return c
    raise FactorBudgetError(
        f"could not isolate a prime factor of {n} within the budget", [], c
    )


def lemma2_witness(
    k: int,
    *,
    trial_bound: int = DEFAULT_TRIAL_BOUND,
    rho_budget: int = DEFAULT_RHO_BUDGET,
    seed: int = 0,
) -> int:
    """A prime q > 3 such that 2 has multiplicative order exactly 3^k mod q.

    Takes q to be a prime factor of (2^(3^(k-1)))^2 + 2^(3^(k-1)) + 1; every
    prime factor of that number works, and the order property is verified
    with two modular exponentiations before returning.  Raises
    FactorBudgetError when no prime factor can be isolated in budget.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    x = 1 << 3 ** (k - 1)
    b = x * x + x + 1
    q = _first_prime_factor(b, trial_bound, rho_budget, seed)
    if q <= 3:
        raise ArithmeticError(f"unexpected small factor {q} of {b}")
    if mod_pow(2, 3**k, q) != 1 or mod_pow(2, 3 ** (k - 1), q) == 1:
        raise ArithmeticError(f"factor {q} does not have order 3^{k}")
    return q
