"""Modular arithmetic, primality classification, factoring helpers, and
multiplicative order.

Primality verdicts are deterministic below 2^64.  n <= 2^20 is decided by
one lookup in a smallest-prime-factor table, built on first use (evidence
"trial_division" for a prime, "factor=p" for a composite).  Every larger n
takes one trial-division stage, a gcd per block of primes between
consecutive powers of two from 2 up, each block built when the loop first
reaches it (its least factor there reads factor=p), then one deciding test.
The stage reaches 2^10, the table's primes, below 2^64 and for values 4^h
+/- 2^h + 1 (L1, L3); for any other n about b^2/16 for b bits (at most
2^18), and for 4^h +/- 2^h - 1 (L2, L4) only the primes = +-1 mod 5 above
2^10, the only ones that can divide them.  The test is
Miller-Rabin to seven bases proven exhaustive below 2^64; above, one N-1
exponentiation proves an L1/L3 value prime or composite, and an L2/L4 value
gets a base-2 strong test and, if it passes, an N+1 proof by one Lucas
V-sequence.  For all four forms (n - s0)/2 = 2^(h-1) * (2^h + s1), so the
N-1 power and the L2/L4 base-2 power are one routine of 2h - 1 squarings and
one product, and every product modulo an L-form value is reduced by one
shift-add fold in place of a long division; both parameter searches end, so
every L-form verdict depends on n alone.  A value of no L-form that survives
gets BPSW, with builtin pow and %: a square check, a base-2 strong test and
the extra strong Lucas test on the N+1 proof's V-chain.  Every verdict
depends on n alone.  The last verdict above 2^20 is kept: an L4 twin scan,
which tests each value twice in a row, decides each once.

sieve_primes reads out one plain sieve of Eratosthenes, _sieve, as a
list.  The primes up to isqrt(2^20) = 1024, which the table, its verdicts
and trial division use, are sieved once at import.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Iterator

if TYPE_CHECKING:
    import random

__all__ = [
    "DETERMINISTIC_LIMIT",
    "DEFAULT_TRIAL_BOUND",
    "DEFAULT_RHO_BUDGET",
    "OrderSearchError",
    "PrimalityVerdict",
    "OrderResult",
    "sieve_primes",
    "is_prime",
    "factor_trial",
    "multiplicative_order",
    "lemma2_witness",
]

# Verdicts for n below this bound are deterministic.
DETERMINISTIC_LIMIT = 1 << 64

DEFAULT_TRIAL_BOUND = 10**6
DEFAULT_RHO_BUDGET = 200_000

# The classifications of a value that is prime or a probable prime.
_PRIMEISH = ("prime", "probable_prime")

# n <= _TABLE_LIMIT is decided by one lookup in _spf_table().
_TABLE_LIMIT = 1 << 20
_spf: bytearray | None = None


class OrderSearchError(Exception):
    """A multiplicative-order computation exceeded its factoring budget, or
    the search for a prime of given order its bound."""


def _sieve(limit: int) -> bytearray:
    """The sieve of Eratosthenes to limit: entry n, for 0 <= n <= limit, is
    1 when n is prime and 0 otherwise.  itertools.compress(range(limit + 1),
    it) reads the primes in ascending order."""
    sieve = bytearray(b"\x01") * (limit + 1)
    sieve[:2] = bytes(min(2, len(sieve)))
    for p in range(2, math.isqrt(max(limit, 0)) + 1):
        if sieve[p]:
            sieve[p * p :: p] = bytearray(len(range(p * p, limit + 1, p)))
    return sieve


def sieve_primes(limit: int) -> list[int]:
    """Ascending list of primes <= limit, by the sieve of Eratosthenes."""
    return list(itertools.compress(range(limit + 1), _sieve(limit)))


# The 172 primes <= isqrt(_TABLE_LIMIT) = 2^10: the table's factors, and the
# blocks 1.._ROOT_BLOCK that divide every n above the table (_block_factor).
# Entry i of _spf_table() maps to _TABLE_VERDICTS[i].
_ROOT_PRIMES = sieve_primes(math.isqrt(_TABLE_LIMIT))
_ROOT_BLOCK = math.isqrt(_TABLE_LIMIT).bit_length() - 1
_TABLE_VERDICTS = (
    ("prime", "trial_division"),
    *(("composite", f"factor={p}") for p in _ROOT_PRIMES),
)


def _spf_table() -> bytearray:
    """Smallest-prime-factor table, built on first use: entry n, for 2 <= n
    <= _TABLE_LIMIT, is 0 when n is prime and otherwise the 1-based index of
    n's smallest prime factor in _ROOT_PRIMES."""
    global _spf
    if _spf is None:
        table = bytearray(_TABLE_LIMIT + 1)
        # Largest prime first, so each entry ends with its smallest factor; in
        # runs of 2^16 entries, so that no temporary outgrows 64 KiB.
        for i in range(len(_ROOT_PRIMES), 0, -1):
            p = _ROOT_PRIMES[i - 1]
            for lo in range(p * p, _TABLE_LIMIT + 1, p << 16):
                run = range(lo, min(lo + (p << 16), _TABLE_LIMIT + 1), p)
                table[lo : run.stop : p] = bytearray((i,)) * len(run)
        _spf = table
    return _spf


# Block j is the product of the primes in (2^(j-1), 2^j]: block 1 is 2, and
# blocks 1.._ROOT_BLOCK hold _ROOT_PRIMES.  Above _ROOT_BLOCK an L2/L4 value
# takes the L2/L4 block j of only those = +-1 mod 5 (_block_factor).
# The bound b*b/16 keeps the largest gcd a small part of the base-2 strong
# test it may save.  Measured on CPython 3.11 (2-vCPU x86-64) for L2 values
# and their L2/L4 blocks: block 15 costs 0.02 ms at 601 bits against a
# 1.2 ms test, block 18 0.43 ms at 2001 bits against 8.2 ms and 0.93 ms at
# 4001 bits against 80 ms.
_BLOCK_SHIFT = 4
# Blocks 1..18 take 29 ms to build and hold 47 KB, an L2/L4 value's 7 ms
# and 24 KB.  L2/L4 blocks 19 and 20 would take another 41 ms and strike
# only 3 more of the 303 L2(p), p <= 2000, whose base-2 tests take 0.04 s.
_BLOCK_CAP = 1 << 18


def _block_range(j: int) -> range:
    """The odd numbers in (2^(j-1), 2^j], or 2 for j = 1."""
    return range((1 << (j - 1)) + 1, (1 << j) + 1, 2)


@functools.lru_cache(maxsize=None)
def _prime_block(j: int, pm1_mod_5: bool) -> int:
    """Product of the primes in block j, or of only those = +-1 mod 5 when
    pm1_mod_5, read from the smallest-factor table."""
    table = _spf or _spf_table()
    odd = _block_range(j)
    # The odd numbers = 1 and = 9 mod 10 are two slices of step 10.
    runs = [odd[(r - odd.start) % 10 // 2 :: 5] for r in (1, 9)] if pm1_mod_5 else [odd]
    # One product per run of 512 candidates, then balanced pairs: one
    # math.prod over all the primes of block 18 takes 41 ms against 16 ms so
    # (9 against 4 ms for its L2/L4 block), and a list of them would raise
    # peak memory by 0.5 MB.
    parts = [
        math.prod(q for q in run[i : i + 512] if not table[q])
        for run in runs
        for i in range(0, len(run), 512)
    ]
    while len(parts) > 1:
        parts = [math.prod(parts[i : i + 2]) for i in range(0, len(parts), 2)]
    return parts[0]


def _block_factor(n: int, form: tuple[int, int, int] | None) -> int | None:
    """The smallest prime factor of n > _TABLE_LIMIT up to 2^J, or None,
    where form is _l_form(n) for n >= 2^64 and None below.  One gcd per
    block from block 1 up, each built when the loop first reaches it: a gcd
    g > 1 is a product of the block's primes, so its least divisor there is
    n's factor; two primes of block j multiply past 2^j, so g <= 2^j is that
    prime.

    J is _ROOT_BLOCK below 2^64 and for L1/L3 values, whose prime factors in
    the scan kinds are 1 mod a large power of 2 or 3, far above the blocks.
    For any other b-bit n, 2^J is the least power of two >= min(_BLOCK_CAP,
    b*b >> _BLOCK_SHIFT), and J >= _ROOT_BLOCK.

    A prime q divides an L2/L4 value 4^h + s1*2^h - 1 only if x^2 + s1*x - 1
    has a root mod q, whose discriminant 5 must then be a square mod q: by
    quadratic reciprocity, q = 5 or q = +-1 mod 5.  Such values are divided
    by the blocks of those primes alone above _ROOT_BLOCK, half the size of
    the full blocks."""
    last, pm1_mod_5 = _ROOT_BLOCK, False
    if n >= DETERMINISTIC_LIMIT and (form is None or form[2] < 0):
        bits = n.bit_length()
        last = max(last, (min(_BLOCK_CAP, bits * bits >> _BLOCK_SHIFT) - 1).bit_length())
        pm1_mod_5 = form is not None
    for j in range(1, last + 1):
        g = math.gcd(n, _prime_block(j, pm1_mod_5 and j > _ROOT_BLOCK))
        if g > 1:
            return g if g <= 1 << j else next(q for q in _block_range(j) if g % q == 0)
    return None


def _wheel(bound: int) -> Iterator[int]:
    """Trial divisors up to bound: 2, 3, then every 6k - 1 and 6k + 1."""
    yield from (d for d in (2, 3) if d <= bound)
    d, step = 5, 2
    while d <= bound:
        yield d
        d += step
        step = 6 - step


@dataclass(frozen=True, init=False)
class PrimalityVerdict:
    """Outcome of a primality check, with how it was reached.

    classification is one of "unit", "prime", "probable_prime", "composite".
    evidence is a short machine-readable string: a factor ("factor=3"), a
    failed-test witness ("mr_witness=2", "euler_witness=7"), or a marker for
    the deterministic method used ("proth:a=7", "llr:p=4").  rounds counts
    the tests applied above 2^64: 1 for an N-1 proof or a failed base-2
    test, 2 for an N+1 proof or for BPSW ("bpsw", probable_prime).
    """

    n: int
    classification: str
    evidence: str | None = None
    rounds: int = 0

    def __init__(
        self, n: int, classification: str, evidence: str | None = None, rounds: int = 0
    ) -> None:
        # The generated __init__ of a frozen dataclass calls
        # object.__setattr__ once per field; writing the instance dict, in
        # field order, costs a third of that.  is_prime's table path writes
        # it the same way.
        fields = self.__dict__
        fields["n"] = n
        fields["classification"] = classification
        fields["evidence"] = evidence
        fields["rounds"] = rounds

    @property
    def is_prime_or_probable(self) -> bool:
        return self.classification in _PRIMEISH


# is_prime builds its n <= 2^20 verdicts in its own frame, as _new_object(
# PrimalityVerdict) and four stores into its instance dict, with no Python
# call: neither the class call and __init__ nor a helper that writes the
# fields.  A lookup then takes 0.39 against 0.43 us through such a helper, on
# CPython 3.11 (2-vCPU x86-64).  Looking up object.__new__ at each call would
# add 0.02 us (0.06 us on CPython 3.12).
_new_object = object.__new__


# The deciding test below DETERMINISTIC_LIMIT: Sinclair's seven bases, proven
# exhaustive for every n < 2^64 against the Feitsma-Galway list of base-2
# strong pseudoprimes.  A base = 0 mod n passes, but every composite divisor
# of a base above 2^20 is even or a multiple of 3: trial division takes it.
_MR_BASES = (2, 325, 9375, 28178, 450775, 9780504, 1795265022)


def _l_form(n: int) -> tuple[int, int, int] | None:
    """(h, s1, s0) when n = 4^h + s1*2^h + s0 with s1, s0 in {1, -1} and
    h >= 3; None for every other n."""
    h = n.bit_length() >> 1
    rest = n - (1 << 2 * h)
    s1 = 1 if rest > 0 else -1
    s0 = rest - s1 * (1 << h)
    if h < 3 or s0 not in (1, -1):
        return None
    return h, s1, s0


def _l_form_reducer(n: int, h: int, s1: int, s0: int) -> Callable[[int], int]:
    """x -> x mod n, for any int x, where n = 4^h + s1*2^h + s0 as read by
    _l_form.

    Since 4^h = -(s1*2^h + s0) (mod n), the bits of x from 2h up fold back
    onto the low 2h bits.  Write x = a + b*4^h and b = b0 + b1*2^h, b0 the
    low h bits of b; then x = a - s0*(b - s1*b1) + ((b1 - s1*b0) << h)
    (mod n), one shift and two subtractions besides the splits, so a
    product of two residues is reduced in one pass instead of a long
    division (Crandall-Pomerance, Prime Numbers, 9.2).
    """
    width = 2 * h
    mask = (1 << width) - 1
    low = (1 << h) - 1

    def reduce(x: int) -> int:
        # A product of two residues, below 2^(4h+2), folds to below 2^(2h+4),
        # and a fold of that few-bit b to below 2^(2h+1), at most 3n.  The
        # signs pick an add or a subtraction: a product by -1 would copy.
        while x.bit_length() > width + 1:
            b = x >> width
            b1 = b >> h
            if s1 > 0:
                t, u = b - b1, b1 - (b & low)
            else:
                t, u = b + b1, b1 + (b & low)
            x = (x & mask) + (u << h) - t if s0 > 0 else (x & mask) + (u << h) + t
        while x < 0:
            x += n
        while x >= n:
            x -= n
        return x

    return reduce


def _l_form_power(a: int, n: int, h: int, s1: int, reduce: Callable[[int], int]) -> int:
    """a^((n - s0)/2) mod n for n = 4^h + s1*2^h + s0 (h >= 3) and 0 < a <
    n coprime to n, where reduce(x) = x mod n.

    (n - s0)/2 = 2^(h-1) * (2^h + s1) for all four forms: h squarings of a
    give a^(2^h), one product by a^s1 = pow(a, s1, n) makes a^(2^h + s1),
    and h - 1 more squarings finish.  This is the Euler power a^((n-1)/2) of
    L1/L3 values and the power 2^((n+1)/2) of the L2/L4 base-2 test.
    """
    x = a
    for _ in range(h):
        x = reduce(x * x)
    x = reduce(x * pow(a, s1, n))
    for _ in range(h - 1):
        x = reduce(x * x)
    return x


def _strong_probable_prime(n: int, a: int) -> bool:
    """Strong (Miller-Rabin) test base a; n odd and >= 3."""
    a %= n
    if a == 0:
        return True
    d = n - 1
    s = (d & -d).bit_length() - 1
    d >>= s
    x = pow(a, d, n)
    if x == 1 or x == n - 1:
        return True
    for _ in range(s - 1):
        x = x * x % n
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


def _factor_verdict(n: int, k: int) -> PrimalityVerdict:
    """Composite n with Jacobi symbol (k/n) = 0: factor=k, n's least prime
    factor.  Both parameter searches visit their arguments in increasing
    order and stop at the first symbol 0, so every number below k that may
    divide n had a nonzero symbol: L1/L3 visit every odd number (n is odd),
    L2/L4 every number (each P - 2 is an earlier P + 2 or at most 4, and 3
    divides no L2/L4 value).  k shares a factor with n and no smaller number
    does, so k is prime and no smaller prime divides n."""
    return PrimalityVerdict(n, "composite", f"factor={k}")


def _lucas_v(p: int, k: int, reduce: Callable[[int], int]) -> tuple[int, int]:
    """(V_k, V_k+1) of the Lucas sequence V_0 = 2, V_1 = P, V_m+1 = P*V_m -
    V_m-1 (parameters P and Q = 1), for k >= 1, where reduce(x) = x mod n:
    from (V_1, V_2) = (P, P^2 - 2), left unreduced, up the bits of k by
    V_2m = V_m^2 - 2 and V_2m+1 = V_m*V_m+1 - P."""
    v, w = p, p * p - 2
    for bit in bin(k)[3:]:
        if bit == "1":
            v, w = reduce(v * w - p), reduce(w * w - 2)
        else:
            v, w = reduce(v * v - 2), reduce(v * w - p)
    return v, w


def _extra_strong_lucas_probable_prime(n: int) -> bool:
    """Extra strong Lucas test (Grantham 2001); n odd, >= 3, not a square.

    P is the least P >= 3 with ((P^2 - 4)/n) = -1; a symbol of 0 where n
    does not divide P^2 - 4 exposes a factor, and n fails.  With n + 1 =
    d*2^s, d odd, n passes if U_d = 0 and V_d = +-2, or if V_(d*2^r) = 0
    for some 0 <= r < s - 1 (mod n).  As Q = 1, D*U_d = 2*V_d+1 - P*V_d for
    D = P^2 - 4, a unit mod n, so the one V-chain of _lucas_v gives both.
    """
    for p in itertools.count(3):
        symbol = _jacobi(p * p - 4, n)
        if symbol == -1:
            break
        if symbol == 0 and (p * p - 4) % n:
            return False
    s = ((n + 1) & -(n + 1)).bit_length() - 1
    v, w = _lucas_v(p, (n + 1) >> s, n.__rmod__)
    v %= n
    if (v == 2 or v == n - 2) and (2 * w - p * v) % n == 0:
        return True
    for _ in range(s - 1):
        if v == 0:
            return True
        v = (v * v - 2) % n
    return False


def _n_plus_1_proof(n: int, h: int, s1: int, reduce: Callable[[int], int]) -> PrimalityVerdict:
    """Prime or composite, proven from n + 1 = 2^h * (2^h + s1), for n = 4^h
    + s1*2^h - 1 (an L2 or L4 value, h >= 3), where reduce(x) = x mod n.

    P is the least P >= 3 with Jacobi symbols ((P-2)/n) = 1 and ((P+2)/n) =
    -1.  One exists: n = 7 mod 8, so (2/n) = 1, and if q is the least k with
    (k/n) != 1, P = 4q - 2 qualifies unless (q/n) = 0.  A symbol of 0 met on
    the way gives _factor_verdict.

    With w = (P + sqrt(P^2 - 4))/2, u = V_((n+1)/4)(P, 1) = w^((n+1)/4) +
    w^(-(n+1)/4) is taken mod n: V_k for k = 2^h + s1 by _lucas_v, then
    h - 2 steps u -> u^2 - 2.  n is prime iff u = 0:
    - if n is prime, w is the square of (sqrt(P+2) + sqrt(P-2))/2, whose
      n-th power is (sqrt(P-2) - sqrt(P+2))/2 by the two Jacobi symbols, so
      w^((n+1)/2) = -1 and u = 0 (Rodseth 1994: Lucas-Lehmer-Riesel for L4);
    - if u = 0, then w^((n+1)/2) = -1 mod every prime p | n, and p does not
      divide P^2 - 4 (there V_m = 2*(P/2)^m is a unit); so 2^h | ord_p(w),
      which divides p -+ 1, and p >= 2^h - 1.  A composite n would have
      such a p <= sqrt(n) < 2^h + 1, that is p = 2^h - 1; but n = s1 = +-1
      mod 2^h - 1 (Brillhart-Lehmer-Selfridge 1975, Morrison 1975 for L2).
    """
    for p in itertools.count(3):
        symbols = _jacobi(p - 2, n), _jacobi(p + 2, n)
        if 0 in symbols:
            return _factor_verdict(n, p + 2)
        if symbols == (1, -1):
            break
    v, _ = _lucas_v(p, (1 << h) + s1, reduce)
    for _ in range(h - 2):
        v = reduce(v * v - 2)
    if v == 0:
        proof = "llr" if s1 < 0 else "morrison"
        return PrimalityVerdict(n, "prime", f"{proof}:p={p}", rounds=2)
    return PrimalityVerdict(n, "composite", f"lucas_v_witness={p}", rounds=2)


def _l_form_proof(n: int, h: int, s1: int, s0: int) -> PrimalityVerdict:
    """Prime or composite, proven from n - 1 or n + 1, for n = 4^h + s1*2^h
    + s0 as read by _l_form (an L1-L4 value, h >= 3).  Every product is
    reduced by _l_form_reducer; the L2/L4 base-2 power and the L1/L3 Euler
    power are both _l_form_power.

    s0 = -1 (L2, L4): first the strong base-2 test.  n = 7 mod 8, so n - 1
    = 2*d with d odd and the test passes iff 2^d = +-1, that is iff
    2^((n+1)/2) = +-2; a failure reads mr_witness=2 with rounds 1.  Then
    the N+1 proof (_n_plus_1_proof), rounds 2.

    s0 = +1 (L1, L3): for prime n, Euler's criterion gives b^((n-1)/2) =
    (b/n) for every base b, so a base where that fails proves n composite.
    Base 2 is tried first: n divides 2^(6h) - 1, so its power costs one
    shift and one division.  Then a, the least odd a >= 3 with (a/n) != 1
    (one exists, as (2/n) = 1 and n is no square), costs one
    exponentiation; (a/n) = 0 gives _factor_verdict.  If a^((n-1)/2) = -1,
    every prime p | n has 2^h | ord_p(a), as n - 1 = 2^h * (2^h + s1) with
    2^h + s1 odd; so p >= 2^h + 1 and, since (2^h + 1)^2 > n, n is prime:
    Proth's theorem for L3 (s1 = -1), the Pocklington bound
    (Brillhart-Lehmer-Selfridge 1975) for L1.  Both verdicts have rounds 1.
    """
    reduce = _l_form_reducer(n, h, s1, s0)
    if s0 < 0:
        x = _l_form_power(2, n, h, s1, reduce)
        if x != 2 and x != n - 2:
            return PrimalityVerdict(n, "composite", "mr_witness=2", rounds=1)
        return _n_plus_1_proof(n, h, s1, reduce)
    # (2/n) = 1, as n = 1 mod 8.
    if (1 << ((n - 1) >> 1) % (6 * h)) % n != 1:
        return PrimalityVerdict(n, "composite", "euler_witness=2", rounds=1)
    a = next(a for a in itertools.count(3, 2) if _jacobi(a, n) != 1)
    if _jacobi(a, n) == 0:
        return _factor_verdict(n, a)
    if _l_form_power(a, n, h, s1, reduce) == n - 1:
        proof = "proth" if s1 < 0 else "pocklington"
        return PrimalityVerdict(n, "prime", f"{proof}:a={a}", rounds=1)
    return PrimalityVerdict(n, "composite", f"euler_witness={a}", rounds=1)


def _bpsw(n: int) -> PrimalityVerdict:
    """Probable prime or composite, for n above 2^64 of no L-form that
    trial division leaves: a square check, a base-2 strong test and the
    extra strong Lucas test, with builtin pow and %.  No composite is known
    to pass both tests (Baillie, Fiori and Wagstaff 2021).  The Lucas test
    needs a non-square n; 4^h +- 2^h +- 1 lies strictly between consecutive
    squares."""
    root = math.isqrt(n)
    if root * root == n:
        return PrimalityVerdict(n, "composite", f"square_of={root}")
    if not _strong_probable_prime(n, 2):
        return PrimalityVerdict(n, "composite", "mr_witness=2", rounds=1)
    if not _extra_strong_lucas_probable_prime(n):
        return PrimalityVerdict(n, "composite", "lucas_witness", rounds=2)
    return PrimalityVerdict(n, "probable_prime", "bpsw", rounds=2)


# Kept for the last call only: an L4 twin scan tests each value twice in a
# row (as L4(n + 1) of candidate n, then as L4(n) of candidate n + 1), while
# a re-run or a resumed scan still recomputes every value.
@functools.lru_cache(maxsize=1)
def _verdict_above_table(n: int) -> PrimalityVerdict:
    """is_prime's verdict for n > _TABLE_LIMIT: trial division, then one test."""
    form = _l_form(n) if n >= DETERMINISTIC_LIMIT else None
    q = _block_factor(n, form)
    if q is not None:
        return PrimalityVerdict(n, "composite", f"factor={q}")
    if n < DETERMINISTIC_LIMIT:
        for a in _MR_BASES:
            if not _strong_probable_prime(n, a):
                return PrimalityVerdict(n, "composite", f"mr_witness={a}")
        return PrimalityVerdict(n, "prime", f"mr_deterministic:{','.join(map(str, _MR_BASES))}")
    if form is not None:
        return _l_form_proof(n, *form)
    return _bpsw(n)


def is_prime(n: int) -> PrimalityVerdict:
    """Classify n as unit, prime, probable_prime, or composite.

    Below 2^64 the verdict is deterministic.  n <= 2^20 is one lookup in the
    smallest-factor table.  Every larger n is trial divided, one gcd per
    block of primes from 2 up (_block_factor), to 2^10 for n below 2^64 and
    for n = 4^h +/- 2^h + 1, else to the first power of two at or above
    min(2^18, b*b >> 4), b its bit length; its smallest factor there reads
    factor=p.  Then one test decides: below 2^64 a strong test to each of
    Sinclair's seven bases (_MR_BASES): "prime" with mr_deterministic:2,325,
    ... or mr_witness=a, the first base failed; above it, for n = 4^h +/-
    2^h + 1, a proof from _l_form_proof: "prime" with evidence proth:a=A
    (L3) or pocklington:a=A (L1), or "composite" with euler_witness=A, both
    with rounds 1.  n = 4^h +/- 2^h - 1 gets its proof from _l_form_proof
    too: a base-2 strong test ("composite", mr_witness=2, rounds 1), then an
    N+1 proof, "prime" with llr:p=P (L4) or morrison:p=P (L2), or
    "composite" with lucas_v_witness=P, rounds 2.  Those proofs reduce every
    product by the shift-add fold of _l_form_reducer; a Jacobi symbol of 0
    in their parameter search reads factor=q, n's least prime factor.  Any
    other n is labeled probable_prime with evidence bpsw, rounds 2, after
    BPSW: a square check (square_of=r), a base-2 strong test and the extra
    strong Lucas test, with builtin pow and %.  The verdict of the last call
    above 2^20 is kept, so a repeated call (an L4 twin scan makes them) runs
    no test.
    """
    if 1 < n <= _TABLE_LIMIT:
        classification, evidence = _TABLE_VERDICTS[(_spf or _spf_table())[n]]
        verdict = _new_object(PrimalityVerdict)
        fields = verdict.__dict__
        fields["n"] = n
        fields["classification"] = classification
        fields["evidence"] = evidence
        fields["rounds"] = 0
        return verdict
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    if n <= 1:
        return PrimalityVerdict(1, "unit") if n else PrimalityVerdict(0, "composite", "zero")
    return _verdict_above_table(n)


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


def factor_trial(n: int, bound: int, *, rho_budget: int = 0) -> tuple[list[tuple[int, int]], int]:
    """Partial factorization by trial division up to ``bound``.

    Returns (sorted (prime, exponent) list, cofactor).  The cofactor is 1 or
    has no prime factor <= bound; when it is <= bound^2 it must itself be
    prime and is folded into the list.  With rho_budget > 0 a Brent-cycle rho
    stage (seed 0) additionally tries to split the cofactor within that
    iteration budget; pieces passing is_prime (possibly as probable primes)
    are folded in, anything unsplit stays in the cofactor.
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
        import random  # only the rho stage samples; other launches skip the import

        rng = random.Random(0)
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


def _full_factor(n: int, m: int) -> list[tuple[int, int]]:
    """Complete factorization of n, which is m or a group order mod m (none
    for n = 1), or OrderSearchError when it exceeds the factoring budget."""
    if n == 1:
        return []
    factors, cofactor = factor_trial(n, DEFAULT_TRIAL_BOUND, rho_budget=DEFAULT_RHO_BUDGET)
    if cofactor != 1:
        raise OrderSearchError(
            f"factoring the group order for modulus {m} exceeded the budget: "
            f"could not fully factor {n}: composite cofactor {cofactor} remains"
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


def multiplicative_order(a: int, m: int) -> OrderResult:
    """Multiplicative order of a mod m.

    Factors the group order (m-1 for prime m, the Carmichael function
    otherwise) and strips prime factors.  Raises OrderSearchError when that
    factorization exceeds the effort budget; trial division up to
    DEFAULT_TRIAL_BOUND alone completes it for every m below 10^12.
    """
    if m < 2:
        raise ValueError(f"modulus must be >= 2, got {m}")
    if math.gcd(a, m) != 1:
        raise ValueError(f"base {a} is not coprime to modulus {m}")
    a %= m
    if is_prime(m).is_prime_or_probable:
        group = m - 1
    else:
        group = _carmichael(_full_factor(m, m))
    group_factors = _full_factor(group, m)
    if pow(a, group, m) != 1:
        raise OrderSearchError(f"group exponent {group} did not annihilate base {a} mod {m}")
    order = group
    for p, _ in group_factors:
        while order % p == 0 and pow(a, order // p, m) == 1:
            order //= p
    return OrderResult(a, m, order)


# lemma2_witness tries q = 2*m*3^k + 1 for m = 1 .. _LEMMA2_STEPS.
_LEMMA2_STEPS = 2**21


def lemma2_witness(k: int) -> int:
    """The least prime q = 2*m*3^k + 1, m <= _LEMMA2_STEPS, such that 2 has
    multiplicative order exactly 3^k mod q.

    Every such q divides L1(3^(k-1)) = 2^(2*3^(k-1)) + 2^(3^(k-1)) + 1, but
    that value is never built: each step costs two small modular powers.
    The first q with 2^(3^k) = 1 and gcd(2^(3^(k-1)) - 1, q) = 1 is prime:
    those two put the order of 2 modulo every prime p | q at exactly 3^k,
    so p = 1 mod 2*3^k.  A composite q would have such a p < q, which
    passes both tests at a smaller m and would have been returned first.
    Raises OrderSearchError when no q qualifies.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    order = 3**k
    step = 2 * order
    bound = step * (_LEMMA2_STEPS + 1)
    for q in range(step + 1, bound, step):
        if pow(2, order, q) == 1 and math.gcd(pow(2, order // 3, q) - 1, q) == 1:
            return q
    raise OrderSearchError(f"no witness with q below {bound}")
