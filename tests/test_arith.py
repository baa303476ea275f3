"""Tests for primality, factorization, and multiplicative-order routines."""

import dataclasses
import hashlib
import inspect
import itertools
import math
import pickle
import random
import time

import pytest

from lseq import arith
from lseq.arith import (
    OrderResult,
    OrderSearchError,
    PrimalityVerdict,
    factor_trial,
    is_prime,
    lemma2_witness,
    multiplicative_order,
    sieve_primes,
)
from lseq.lfamily import LFamily, eval_exact, residue
from lseq.search import ScanSpec, run_scan, scan_l4_twins


def naive_is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def test_sieve_primes():
    assert sieve_primes(1) == []
    assert sieve_primes(2) == [2]
    assert sieve_primes(30) == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
    assert len(sieve_primes(10**4)) == 1229


def test_is_prime_agrees_with_trial_division():
    for n in range(0, 20000):
        verdict = is_prime(n)
        expected = naive_is_prime(n)
        if n == 1:
            assert verdict.classification == "unit"
        elif expected:
            assert verdict.classification == "prime"
        else:
            assert verdict.classification == "composite"


def test_is_prime_small_examples():
    assert is_prime(0).classification == "composite"
    assert is_prime(1).classification == "unit"
    assert is_prime(2).classification == "prime"
    assert is_prime(262657).classification == "prime"
    assert is_prime(4295032831).classification == "prime"
    assert is_prime(eval_exact(LFamily.L3, 32)).classification == "prime"
    assert is_prime(eval_exact(LFamily.L1, 27)).classification == "composite"


def test_is_prime_sieve_boundary():
    # values straddling the smallest-factor table's limit, 2^20
    assert is_prime(1048571).classification == "prime"
    assert is_prime(1048573).classification == "prime"
    assert is_prime(1048575).classification == "composite"
    assert is_prime(1048577).classification == "composite"
    assert is_prime(1048583).classification == "prime"


def test_is_prime_up_to_sieve_limit_names_smallest_factor():
    # Every n in [2, 2^20], including the 15 composites from 1009^2 =
    # 1018081 to 1021^2 = 1042441, which have no prime factor below 1000.
    lo, hi = 1, 1 << 20
    spf = list(range(hi + 1))  # smallest prime factor
    for p in range(2, math.isqrt(hi) + 1):
        if spf[p] == p:
            for m in range(p * p, hi + 1, p):
                if spf[m] == m:
                    spf[m] = p
    for n in range(lo + 1, hi + 1):
        verdict = is_prime(n)
        if spf[n] == n:
            assert (verdict.classification, verdict.evidence) == ("prime", "trial_division"), n
        else:
            assert (verdict.classification, verdict.evidence) == ("composite", f"factor={spf[n]}"), n


def test_is_prime_table_edges():
    # A negative n must raise before any lookup: a negative index would read
    # the smallest-factor table from its end.
    for n in (-1, -(2**20)):
        with pytest.raises(ValueError):
            is_prime(n)
    assert is_prime(0) == PrimalityVerdict(0, "composite", "zero")
    assert is_prime(1) == PrimalityVerdict(1, "unit")
    # Above 2^20, trial division reaches every prime up to 2^10, the
    # table's, so a smallest factor of 1009 or 1021 is named before any
    # strong test runs.
    for n, q in ((1009 * 1000003, 1009), (1021**3, 1021)):
        assert is_prime(n) == PrimalityVerdict(n, "composite", f"factor={q}")


def test_sieve_primes_where_table_and_large_path_meet():
    top = 2**20 + 1000
    flags = [True] * (top + 1)
    for p in range(2, math.isqrt(top) + 1):
        if flags[p]:
            flags[p * p :: p] = [False] * len(range(p * p, top + 1, p))
    reference = [n for n in range(2, top + 1) if flags[n]]
    for limit in (2**20 - 1, 2**20, 2**20 + 1, top):
        assert sieve_primes(limit) == [p for p in reference if p <= limit], limit
    assert arith._ROOT_PRIMES == [p for p in reference if p <= 1024]


def test_is_prime_deterministic_below_2_64():
    # 2047 = 23 * 89 and 3215031751 = 151 * 751 * 28351 fall to trial
    # division before any strong test runs; the seven bases themselves are
    # pinned by test_mr_tier_bounds_fall_to_the_next_row and
    # test_is_prime_below_2_64_on_strong_pseudoprimes.
    assert is_prime(2047).classification == "composite"
    assert is_prime(3215031751).classification == "composite"
    assert is_prime(3825123056546413051).classification == "composite"
    v = is_prime(18446744073709551557)  # largest prime below 2^64
    assert v.classification == "prime"
    assert v.evidence.startswith("mr_deterministic:")
    assert v.rounds == 0


def _strong_probable_prime(n: int, a: int) -> bool:
    """The strong base-a test with builtin pow, independent of arith."""
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    x = pow(a, d, n)
    if x in (1, n - 1):
        return True
    for _ in range(s - 1):
        x = x * x % n
        if x == n - 1:
            return True
    return False


# Each former witness set's bound is the least composite that passes its
# bases (n < bound was proven for that set), and is_prime's verdict on it
# under the seven bases: a factor up to 2^10 or the first base it fails.
_FORMER_TIERS = [
    (2047, (2,), "factor=23"),
    (1373653, (2, 3), "factor=829"),
    (9080191, (31, 73), "mr_witness=2"),
    (25326001, (2, 3, 5), "mr_witness=325"),
    (3215031751, (2, 3, 5, 7), "factor=151"),
    (4759123141, (2, 7, 61), "mr_witness=28178"),
    (1122004669633, (2, 13, 23, 1662803), "mr_witness=325"),
    (2152302898747, (2, 3, 5, 7, 11), "mr_witness=325"),
    (3474749660383, (2, 3, 5, 7, 11, 13), "mr_witness=28178"),
    (341550071728321, (2, 3, 5, 7, 11, 13, 17), "mr_witness=28178"),
    (3825123056546413051, (2, 3, 5, 7, 11, 13, 17, 19, 23), "mr_witness=28178"),
]
_SINCLAIR_BASES = (2, 325, 9375, 28178, 450775, 9780504, 1795265022)

# The 25 composite base-2 strong pseudoprimes in (2^20, 2^23) with no prime
# factor up to 2^10, which trial division leaves to the seven bases.
_SPSP2_ABOVE_TABLE = [
    1194649, 2284453, 2304167, 3090091, 3375041, 3400013, 3898129, 4181921,
    4360621, 4469471, 4863127, 5044033, 5173169, 5489641, 5919187, 6226193,
    6233977, 6368689, 6787327, 6952037, 7306261, 7306561, 7820201, 8036033,
    8095447,
]


def test_mr_tier_bounds_are_strong_pseudoprimes_to_their_own_bases():
    # Each former bound passes its own row's bases, so those witness sets
    # needed a tier above them; test_mr_tier_bounds_fall_to_the_next_row
    # shows that the seven bases decide each one.
    assert len(_FORMER_TIERS) == 11
    for bound, bases, _ in _FORMER_TIERS:
        assert all(_strong_probable_prime(bound, a) for a in bases), bound


def test_mr_tier_bounds_fall_to_the_next_row():
    # The next row of every former bound is now the seven bases: is_prime
    # names its least factor up to 2^10 or the first of the bases it fails.
    for bound, _, evidence in _FORMER_TIERS:
        assert is_prime(bound) == PrimalityVerdict(bound, "composite", evidence)
        if evidence.startswith("factor="):
            q = int(evidence[7:])
            assert bound % q == 0 and all(bound % p for p in range(2, q))
        else:
            a = int(evidence[11:])
            assert all(bound % p for p in arith._ROOT_PRIMES), bound
            failed = [b for b in _SINCLAIR_BASES if not _strong_probable_prime(bound, b)]
            assert failed[0] == a, bound


def test_is_prime_below_2_64_on_strong_pseudoprimes():
    # A base = 0 mod n passes.  299210837 divides 1795265022 and is prime;
    # its composite multiple 3 * 299210837 falls to trial division.
    assert is_prime(299210837) == PrimalityVerdict(
        299210837, "prime", f"mr_deterministic:{','.join(map(str, _SINCLAIR_BASES))}"
    )
    assert 1795265022 % 299210837 == 0 and naive_is_prime(299210837)
    assert is_prime(897632511) == PrimalityVerdict(897632511, "composite", "factor=3")
    for n in _SPSP2_ABOVE_TABLE:
        assert 2**20 < n < 2**23 and not naive_is_prime(n), n
        assert all(n % p for p in arith._ROOT_PRIMES) and _strong_probable_prime(n, 2), n
        witness = 9375 if n == 4181921 else 325
        assert is_prime(n) == PrimalityVerdict(n, "composite", f"mr_witness={witness}"), n


def test_is_prime_probabilistic_above_2_64():
    v = is_prime(2**64 + 13)
    assert (v.classification, v.evidence, v.rounds) == ("probable_prime", "bpsw", 2)  # base 2 + Lucas
    v = is_prime(2**127 - 1)
    assert (v.classification, v.evidence, v.rounds) == ("probable_prime", "bpsw", 2)


def test_is_prime_lucas_catches_base2_pseudoprime():
    # 2^67 - 1 = 193707721 * 761838257287 passes the base-2 strong test
    # (the order of 2 divides n-1) so the Lucas stage must reject it.
    v = is_prime(2**67 - 1)
    assert v.classification == "composite"
    assert v.evidence == "lucas_witness"


def _extra_strong_lucas_by_recurrence(n):
    """The extra strong Lucas test with U_k and V_k built term by term from
    U_k+1 = P*U_k - U_k-1 and V_k+1 = P*V_k - V_k-1 (Q = 1)."""
    for p in itertools.count(3):
        g = math.gcd(p * p - 4, n)
        if 1 < g < n:
            return False
        if g == 1 and arith._jacobi(p * p - 4, n) == -1:
            break
    s = ((n + 1) & -(n + 1)).bit_length() - 1
    d = (n + 1) >> s
    u, v = [0, 1], [2, p % n]
    for _ in range((n + 1) // 2 - 1):
        u.append((p * u[-1] - u[-2]) % n)
        v.append((p * v[-1] - v[-2]) % n)
    if u[d] == 0 and v[d] in (2, n - 2):
        return True
    return any(v[d << r] == 0 for r in range(s - 1))


def test_extra_strong_lucas_matches_the_recurrences():
    passed = 0
    for n in range(3, 3000, 2):
        if math.isqrt(n) ** 2 == n:
            continue
        expected = _extra_strong_lucas_by_recurrence(n)
        assert arith._extra_strong_lucas_probable_prime(n) == expected, n
        passed += expected
    assert passed > 400


def test_extra_strong_lucas_pseudoprimes_below_10_5():
    # The odd composites below 10^5 that pass are the extra strong Lucas
    # pseudoprimes (OEIS A217719), none of them a base-2 strong
    # pseudoprime; every odd prime passes.
    primes = set(sieve_primes(10**5))
    passing = [
        n for n in range(3, 10**5, 2)
        if math.isqrt(n) ** 2 != n and arith._extra_strong_lucas_probable_prime(n)
    ]
    pseudoprimes = [n for n in passing if n not in primes]
    assert pseudoprimes == [
        989, 3239, 5777, 10877, 27971, 29681, 30739, 31631, 39059, 72389, 73919, 75077
    ]
    assert not any(arith._strong_probable_prime(n, 2) for n in pseudoprimes)
    assert len(passing) - len(pseudoprimes) == len(primes) - 1


def test_is_prime_perfect_square_guard():
    n = (2**33 + 89) ** 2
    v = is_prime(n)
    assert v.classification == "composite"
    assert v.evidence == f"square_of={2**33 + 89}"


def test_is_prime_evidence_strings():
    assert is_prime(91).evidence == "factor=7"
    assert is_prime(1048577).evidence == "factor=17"
    assert is_prime(97).evidence == "trial_division"
    assert is_prime(0).evidence == "zero"


def test_is_prime_rounds_and_determinism():
    a = is_prime(2**89 - 1)
    arith._verdict_above_table.cache_clear()
    b = is_prime(2**89 - 1)
    assert a == b and a is not b
    assert a.classification == "probable_prime"
    assert a.rounds == 2
    # A negative n fails the table test and reaches the same error.
    for n in (-1, -2, -(2**20), -(2**70)):
        with pytest.raises(ValueError, match="n must be >= 0"):
            is_prime(n)


def test_primality_verdict_is_a_frozen_dataclass():
    v = PrimalityVerdict(7, "prime", "trial_division")
    assert v == PrimalityVerdict(n=7, classification="prime", evidence="trial_division", rounds=0)
    assert PrimalityVerdict(1, "unit") == PrimalityVerdict(1, "unit", None, 0)
    assert v != PrimalityVerdict(7, "prime", "trial_division", 1)
    assert hash(v) == hash(PrimalityVerdict(7, "prime", "trial_division", 0))
    assert repr(v) == "PrimalityVerdict(n=7, classification='prime', evidence='trial_division', rounds=0)"
    with pytest.raises(dataclasses.FrozenInstanceError):
        v.rounds = 1
    assert [f.name for f in dataclasses.fields(v)] == ["n", "classification", "evidence", "rounds"]
    assert dataclasses.replace(v, rounds=3) == PrimalityVerdict(7, "prime", "trial_division", 3)
    assert dataclasses.asdict(v) == {
        "n": 7, "classification": "prime", "evidence": "trial_division", "rounds": 0
    }
    assert pickle.loads(pickle.dumps(v)) == v
    # The same for the verdicts is_prime returns: the table path (7, 10^6)
    # builds them in is_prime's own frame, without calling the class; above
    # 2^20 the seven bases, the N-1 stage, a block and BPSW decide.
    for n, evidence in [
        (7, "trial_division"),
        (10**6, "factor=2"),
        (0, "zero"),
        (1, None),
        (2**20 + 7, "mr_deterministic:2,325,9375,28178,450775,9780504,1795265022"),
        (eval_exact(LFamily.L3, 36), "euler_witness=11"),
        (1009 * (2**89 - 1), "factor=1009"),
        (2**89 - 1, "bpsw"),
    ]:
        v = is_prime(n)
        assert type(v) is PrimalityVerdict
        assert (v.n, v.evidence) == (n, evidence)
        built = PrimalityVerdict(n, v.classification, evidence, v.rounds)
        assert v == built and hash(v) == hash(built) and repr(v) == repr(built)
        # The same fields in field order: a writer that skips, renames or
        # reorders one fails here, though == and repr read them by name.
        assert list(vars(built)) == [f.name for f in dataclasses.fields(PrimalityVerdict)]
        assert list(vars(v).items()) == list(vars(built).items())
        with pytest.raises(dataclasses.FrozenInstanceError):
            v.classification = "prime"
        assert dataclasses.replace(v, rounds=9) == PrimalityVerdict(n, v.classification, evidence, 9)
        assert dataclasses.asdict(v) == {
            "n": n, "classification": v.classification, "evidence": evidence, "rounds": v.rounds
        }
        assert pickle.loads(pickle.dumps(v)) == v


def _count_base2_tests(monkeypatch):
    """A list that grows by one at each base-2 strong test is_prime makes,
    by the strong test or, for L2/L4 values above 2^64, by _l_form_power
    (which L1/L3 values call with an odd base)."""
    calls = []
    real = arith._strong_probable_prime
    real_power = arith._l_form_power

    def spy(n, a):
        if a == 2:
            calls.append(n)
        return real(n, a)

    def spy_power(a, n, h, s1, reduce):
        if a == 2:
            calls.append(n)
        return real_power(a, n, h, s1, reduce)

    monkeypatch.setattr(arith, "_strong_probable_prime", spy)
    monkeypatch.setattr(arith, "_l_form_power", spy_power)
    return calls


def test_twin_scan_tests_each_l4_value_once(monkeypatch):
    calls = _count_base2_tests(monkeypatch)
    for n in range(1, 121):
        is_prime(eval_exact(LFamily.L4, n))
    once_each = len(calls)
    calls.clear()
    first = scan_l4_twins(120)
    assert len(calls) == once_each > 0
    # 22 of them test L4 values above 2^64, by _l_form_power.
    assert sum(n > arith.DETERMINISTIC_LIMIT for n in calls) == 22
    # The memo holds one value, so a re-run recomputes every value.
    calls.clear()
    second = scan_l4_twins(120)
    assert len(calls) == once_each
    assert second.canonical_bytes() == first.canonical_bytes()


def test_bpsw_verdict_is_kept_for_a_repeated_value(monkeypatch):
    # A prime above 2^64 of no L-form keeps BPSW (L2/L4 primes get a proof):
    # a repeated call runs no test and returns the kept verdict.
    calls = _count_base2_tests(monkeypatch)
    n = 2**127 - 1
    arith._verdict_above_table.cache_clear()
    first = is_prime(n)
    assert (first.classification, first.evidence, first.rounds) == ("probable_prime", "bpsw", 2)
    assert calls == [n]
    assert is_prime(n) is first
    assert calls == [n]
    # Another value takes the memo's one slot, so n is tested again.
    is_prime(2**89 - 1)
    assert is_prime(n) == first
    assert calls == [n, 2**89 - 1, n]


def test_factor_trial_examples():
    assert factor_trial(1057, 100) == ([(7, 1), (151, 1)], 1)
    assert factor_trial(16513, 100) == ([(7, 2), (337, 1)], 1)
    assert factor_trial(9409, 10) == ([], 9409)
    assert factor_trial(9409, 10, rho_budget=10**5) == ([(97, 2)], 1)


def test_factor_trial_recomposition():
    # listed primes may exceed the bound only via the proven-prime cofactor fold
    for n in range(2, 2000):
        factors, cofactor = factor_trial(n, 37)
        product = cofactor
        for p, e in factors:
            product *= p**e
            assert naive_is_prime(p)
        assert product == n
        assert sum(1 for p, _ in factors if p > 37) <= 1
        if cofactor > 1:
            for p in sieve_primes(37):
                assert cofactor % p != 0


def test_factor_trial_proves_cofactor_prime():
    # cofactor below bound^2 with all primes <= bound removed must be folded in
    assert factor_trial(2 * 9973, 100) == ([(2, 1), (9973, 1)], 1)
    assert factor_trial(101 * 103, 103) == ([(101, 1), (103, 1)], 1)
    # bound too small to prove anything about the cofactor
    assert factor_trial(101 * 103, 7) == ([], 101 * 103)
    # tiny bound must not fold composite cofactors
    assert factor_trial(9, 2) == ([], 9)
    assert factor_trial(49, 5) == ([], 49)


def test_factor_trial_rho_stage():
    n = 1000003 * 1000033
    assert factor_trial(n, 1000) == ([], n)
    factors, cofactor = factor_trial(n, 1000, rho_budget=10**6)
    assert factors == [(1000003, 1), (1000033, 1)]
    assert cofactor == 1


def test_factor_trial_rejects():
    with pytest.raises(ValueError):
        factor_trial(1, 100)
    with pytest.raises(ValueError):
        factor_trial(100, 1)


def test_order_examples():
    assert multiplicative_order(2, 7).order == 3
    assert multiplicative_order(2, 73).order == 9
    assert multiplicative_order(2, 3).order == 2
    assert multiplicative_order(2, 262657).order == 27
    assert multiplicative_order(1, 5).order == 1
    # The group mod 2 has order 1, with no prime factor to strip.
    assert multiplicative_order(3, 2) == OrderResult(1, 2, 1)


def test_order_matches_bruteforce():
    for m in (2, 3, 5, 9, 11, 15, 49, 100, 121, 341, 561, 997):
        for a in range(2, 30):
            if math.gcd(a, m) != 1:
                continue
            order = multiplicative_order(a, m).order
            x, naive = a % m, 1
            while x != 1:
                x = x * a % m
                naive += 1
            assert order == naive


def test_order_divides_totient_for_primes():
    for p in sieve_primes(2000)[1:]:
        result = multiplicative_order(2, p)
        assert (p - 1) % result.order == 0
        assert pow(2, result.order, p) == 1
        for q in {q for q, _ in factor_trial(result.order, result.order)[0]}:
            assert pow(2, result.order // q, p) != 1


def test_order_rejects():
    with pytest.raises(ValueError):
        multiplicative_order(6, 9)  # gcd != 1
    # a >= m: the message names the base as given, not its residue.
    with pytest.raises(ValueError, match="^base 2 is not coprime to modulus 2$"):
        multiplicative_order(2, 2)
    with pytest.raises(ValueError, match="^base 15 is not coprime to modulus 9$"):
        multiplicative_order(15, 9)
    with pytest.raises(ValueError):
        multiplicative_order(2, 1)
    with pytest.raises(ValueError):
        multiplicative_order(0, 5)


# p - 1 = 2^3 * 3 * 5 * q1 * q2 with q1, q2 primes near 2^61 and 2^62: p is
# prime, but neither trial division nor the rho budget splits q1 * q2.
ORDER_UNFACTORABLE = 1276058875953519283643346360300271285561


def test_order_search_error_when_group_order_does_not_factor():
    q1, q2 = 2305843009213693967, 4611686018427388039
    assert ORDER_UNFACTORABLE == 2 * q1 * q2 * 60 + 1
    with pytest.raises(OrderSearchError, match="exceeded the budget"):
        multiplicative_order(2, ORDER_UNFACTORABLE)


def test_lemma2_witness_values():
    assert lemma2_witness(1) == 7
    assert lemma2_witness(2) == 73
    assert lemma2_witness(3) == 262657
    assert lemma2_witness(4) == 2593
    assert lemma2_witness(5) == 487
    assert lemma2_witness(6) == 80191
    assert lemma2_witness(7) == 39367
    assert lemma2_witness(8) == 209953
    assert lemma2_witness(9) == 141560137
    assert lemma2_witness(10) == 472393
    # lemma2_witness makes no primality test: the first hit is prime.
    for q in (7, 73, 262657, 2593, 487, 80191, 39367, 209953, 141560137, 472393):
        assert is_prime(q).classification == "prime", q


def test_lemma2_witness_order_conditions():
    # p = witness(k) satisfies ord_p(2) = 3^k and 3^k | p - 1
    for k in (*range(1, 11), 17, 20, 40):
        p = lemma2_witness(k)
        assert (p - 1) % 3**k == 0
        assert pow(2, 3**k, p) == 1
        assert pow(2, 3 ** (k - 1), p) != 1


def test_lemma2_witness_divides_value():
    # the witness divides 2^(2*3^(k-1)) + 2^(3^(k-1)) + 1
    for k in range(1, 6):
        p = lemma2_witness(k)
        assert residue(LFamily.L1, 3 ** (k - 1), p) == 0


def test_lemma2_witness_rejects():
    with pytest.raises(ValueError):
        lemma2_witness(0)
    with pytest.raises(ValueError):
        lemma2_witness(-2)


# --- shift-add reduction modulo L-form values --------------------------------


def _builtin_reducer(monkeypatch):
    """Every L-form proof reduces by builtin % instead of the shift-add fold:
    the reference that the fold is compared with."""
    monkeypatch.setattr(arith, "_l_form_reducer", lambda n, *form: n.__rmod__)


@pytest.mark.parametrize("family", list(LFamily))
@pytest.mark.parametrize("h", [32, 33, 351, 352, 353, 511, 512, 513, 4096])
def test_l_form_reducer_matches_mod(family, h):
    # L1/L2 values have 2h+1 bits and L3/L4 values 2h.  h = 32 and 33 give
    # the smallest values above 2^64, which the proofs reduce with the fold
    # too; 351..353 and 511..513 straddle 704 and 1024 bits; L3(4096) =
    # L3(2^12) is the largest value of the l3-pow2 benchmark workload.
    n = eval_exact(family, h)
    reduce = arith._l_form_reducer(n, *arith._l_form(n))
    rng = random.Random(h)
    xs = [0, 1, n - 1, n, n + 1, 2 * n, 3 * n - 1, n * n - 1, n**3 + 5, -1, -n, -n - 1, -(n**2)]
    xs += [rng.randrange(n * n) for _ in range(200)]
    xs += [-rng.randrange(1, n * n) for _ in range(100)]
    for x in xs:
        assert reduce(x) == x % n


def test_l_form_reducer_rejects_other_moduli(monkeypatch):
    # _l_form reads no form for these, so is_prime builds no reducer.
    h = 352
    four = 1 << 2 * h
    # L1(h) - 2 = L2(h) and L3(h) - 2 = L4(h) are L-form themselves, so the
    # near misses are taken on the other side.
    near_misses = [
        eval_exact(LFamily.L1, h) + 2,
        eval_exact(LFamily.L2, h) - 2,
        eval_exact(LFamily.L3, h) + 2,
        eval_exact(LFamily.L4, h) - 2,
        four + 3,
        four - 3,
        four + 1,
        four + (1 << h),
        four + (1 << h + 1) + 1,
        2**1279 - 1,
        eval_exact(LFamily.L1, 2),  # h < 3
    ]
    built = []
    real = arith._l_form_reducer
    monkeypatch.setattr(arith, "_l_form_reducer", lambda n, *form: built.append(n) or real(n, *form))
    for n in near_misses:
        assert arith._l_form(n) is None, n
        is_prime(n)
    assert built == []


def _without_l_form_proof(monkeypatch):
    """Send L-form values to BPSW, as if they had no L-form."""
    monkeypatch.setattr(arith, "_l_form_proof", lambda n, h, s1, s0: arith._bpsw(n))


def test_is_prime_with_reducer_equals_builtin_path(monkeypatch):
    cases = [eval_exact(LFamily.L3, 2**k) for k in (9, 10, 11)]  # base-2 pseudoprimes
    cases += [eval_exact(LFamily.L1, 3**k) for k in (6, 7)]  # base-2 pseudoprimes
    cases.append(eval_exact(LFamily.L4, 597))
    # Every index from 704 bits on, then every 8th up to 1024 bits, in all
    # four families.
    indices = sorted({*range(352, 364), *range(352, 513, 8)})
    cases += [eval_exact(family, h) for family in LFamily for h in indices]
    reduced = []
    real = arith._l_form_reducer
    monkeypatch.setattr(arith, "_l_form_reducer", lambda n, *form: reduced.append(n) or real(n, *form))
    # With the proof stage off, the L1/L3 base-2 pseudoprimes go on to the
    # Lucas test, BPSW's fallback labels L4(597), 1194 bits, and no
    # reducer is built: BPSW runs on builtin pow and %.
    with monkeypatch.context() as patch:
        _without_l_form_proof(patch)
        bpsw = [is_prime(n) for n in cases]
    assert reduced == []
    evidence = [v.evidence for v in bpsw]
    assert evidence[:5] == ["lucas_witness"] * 5
    assert (bpsw[5].classification, bpsw[5].evidence, bpsw[5].rounds) == ("probable_prime", "bpsw", 2)
    assert "mr_witness=2" in evidence
    # With it on, every value past trial division and the blocks takes the
    # reducer path, with the verdicts of builtin %.
    arith._verdict_above_table.cache_clear()
    with_reducer = [is_prime(n) for n in cases]
    _builtin_reducer(monkeypatch)
    builtin = [is_prime(n) for n in cases]
    assert with_reducer == builtin
    assert len(reduced) == sum(v.rounds > 0 for v in builtin) > 0
    assert [v.evidence for v in with_reducer[:6]] == ["euler_witness=7"] * 3 + ["euler_witness=5"] * 2 + ["llr:p=4"]


def test_l_form_proof_with_reducer_equals_builtin_path(monkeypatch):
    cases = [eval_exact(LFamily.L3, 2**k) for k in (9, 10, 11)]
    cases += [eval_exact(LFamily.L1, 3**k) for k in (6, 7)]
    cases += [eval_exact(family, h) for family in (LFamily.L1, LFamily.L3)
              for h in range(352, 392)]
    with_reducer = [is_prime(n) for n in cases]
    _builtin_reducer(monkeypatch)
    builtin = [is_prime(n) for n in cases]
    assert with_reducer == builtin
    proved = [v for v in with_reducer if v.rounds]
    assert len(proved) >= 10
    assert all(v.evidence.startswith("euler_witness=") and v.rounds == 1 for v in proved)
    assert [v.evidence for v in with_reducer[:5]] == ["euler_witness=7"] * 3 + ["euler_witness=5"] * 2


@pytest.mark.parametrize(
    "family, index, evidence",
    [(LFamily.L3, 4, "proth:a=7"), (LFamily.L3, 32, "proth:a=7"),
     (LFamily.L1, 3, "pocklington:a=5"), (LFamily.L1, 9, "pocklington:a=5")],
)
def test_l_form_proof_proves_primes(monkeypatch, family, index, evidence):
    # is_prime decides these below 2^64 before the N-1 stage; called
    # directly, the stage proves them, with the reducer and with builtin %.
    n = eval_exact(family, index)
    expected = arith.PrimalityVerdict(n, "prime", evidence, rounds=1)
    assert arith._l_form_proof(n, *arith._l_form(n)) == expected
    _builtin_reducer(monkeypatch)
    assert arith._l_form_proof(n, *arith._l_form(n)) == expected


def test_l_form_proof_only_for_l_form_values(monkeypatch):
    n = eval_exact(LFamily.L1, 27)
    assert arith._l_form_proof(n, *arith._l_form(n)).evidence == "euler_witness=5"
    for family in (LFamily.L2, LFamily.L4):
        n = eval_exact(family, 40)
        assert arith._l_form_proof(n, *arith._l_form(n)) == PrimalityVerdict(n, "composite", "mr_witness=2", rounds=1)
    proved = []
    real = arith._l_form_proof
    monkeypatch.setattr(arith, "_l_form_proof", lambda n, *form: proved.append(n) or real(n, *form))
    for n in (2**89 - 1, eval_exact(LFamily.L3, 2)):
        assert arith._l_form(n) is None
        is_prime(n)
    assert proved == []


def test_l_form_proof_agrees_with_bpsw(monkeypatch):
    values = [eval_exact(family, n) for family in (LFamily.L1, LFamily.L3) for n in range(33, 601)]
    proved = [is_prime(n) for n in values]
    _without_l_form_proof(monkeypatch)
    bpsw = [is_prime(n) for n in values]
    same = {"prime": "probable_prime", "composite": "composite"}
    reached = 0
    for p, b in zip(proved, bpsw):
        if b.rounds == 0:  # decided by trial division or the square check
            assert p == b
            continue
        reached += 1
        assert same[p.classification] == b.classification, p.n
        assert p.rounds == 1
        assert p.evidence.split("=")[0] in ("euler_witness", "proth:a", "pocklington:a")
        # A strong base-2 pseudoprime is an Euler pseudoprime to base 2.
        if p.evidence == "euler_witness=2":
            assert b.evidence == "mr_witness=2"
    assert reached > 50
    assert {p.evidence for p in proved} >= {"euler_witness=2", "euler_witness=7"}


def test_values_without_l_form_keep_bpsw():
    # L1-L4 values above 2^64 get a proof; other values keep BPSW.
    for n in (2**89 - 1, 2**127 - 1):
        assert arith._l_form(n) is None
        v = is_prime(n)
        assert (v.classification, v.evidence, v.rounds) == ("probable_prime", "bpsw", 2)


# --- N+1 proofs for L2/L4 values ----------------------------------------------


def test_n_plus_1_proof_agrees_with_bpsw(monkeypatch):
    values = [eval_exact(family, h) for family in (LFamily.L2, LFamily.L4) for h in range(33, 401)]
    proved = [is_prime(n) for n in values]
    _without_l_form_proof(monkeypatch)
    bpsw = [is_prime(n) for n in values]
    same = {"prime": "probable_prime", "composite": "composite"}
    primes = 0
    for p, b in zip(proved, bpsw):
        # Trial division, the blocks and the base-2 test decide alike.
        if b.rounds <= 1:
            assert p == b
            continue
        assert same[p.classification] == b.classification, p.n
        assert p.rounds == 2
        _, s1, _ = arith._l_form(p.n)
        assert p.evidence.split(":")[0] == ("llr" if s1 < 0 else "morrison")
        primes += 1
    assert primes == 17
    assert sum(b.evidence == "mr_witness=2" for b in bpsw) == 155


def test_l_form_base2_is_the_strong_base2_test():
    # n = 7 mod 8, so 2^((n+1)/2) = +-2 exactly when 2^((n-1)/2) = +-1.
    for family in (LFamily.L2, LFamily.L4):
        for h in range(33, 701):
            n = eval_exact(family, h)
            _, s1, s0 = arith._l_form(n)
            expected = arith._strong_probable_prime(n, 2)
            for reduce in (n.__rmod__, arith._l_form_reducer(n, h, s1, s0)):
                assert (arith._l_form_power(2, n, h, s1, reduce) in (2, n - 2)) == expected, (family, h)


@pytest.mark.parametrize("family", list(LFamily))
@pytest.mark.parametrize("h", [*range(32, 41), 351, 352, 353, 4096])
def test_l_form_power_is_the_half_exponent_power(family, h):
    # (n - s0)/2 = 2^(h-1) * (2^h + s1) for all four forms, so one routine
    # makes the L1/L3 Euler power and the L2/L4 base-2 power.  At h = 4096,
    # where builtin pow takes seconds, one base and the reducer only.  The
    # bases are coprime to n, as in the proofs.
    n = eval_exact(family, h)
    _, s1, s0 = arith._l_form(n)
    odd = [a for a in (3, 5, 7, 11, 13) if n % a]
    reducers = [arith._l_form_reducer(n, h, s1, s0)]
    if h == 4096:
        bases = odd[:1]
    else:
        bases = [2, *odd[:2], n - 2]
        reducers.append(n.__rmod__)
    for a in bases:
        expected = pow(a, (n - s0) // 2, n)
        for reduce in reducers:
            assert arith._l_form_power(a, n, h, s1, reduce) == expected, a


def test_l_form_read_once_per_value(monkeypatch):
    # From 2^64 up, is_prime reads a value's form once, before the trial
    # stage, whose bound and blocks it picks, and hands it on to the proof
    # and the reducer.  Below 2^64 no form is read, not even an L2 value's.
    values = [eval_exact(family, h) for family in LFamily for h in range(33, 121)]
    values += [2**89 - 1, 2**127 - 1, 1013 * (2**2203 - 1)]
    below = [eval_exact(LFamily.L2, 20), 2**61 - 1]
    reads = []
    real = arith._l_form
    monkeypatch.setattr(arith, "_l_form", lambda n: reads.append(n) or real(n))
    for n in values + below:
        is_prime(n)
    assert reads == values


@pytest.mark.parametrize(
    "family, index, evidence",
    [(LFamily.L4, 38, "llr:p=5"), (LFamily.L4, 597, "llr:p=4"), (LFamily.L2, 379, "morrison:p=15")],
)
def test_l_form_proof_proves_l2_l4_primes(monkeypatch, family, index, evidence):
    n = eval_exact(family, index)
    expected = PrimalityVerdict(n, "prime", evidence, rounds=2)
    assert arith._l_form_proof(n, *arith._l_form(n)) == expected
    assert is_prime(n) == expected
    _builtin_reducer(monkeypatch)
    assert arith._l_form_proof(n, *arith._l_form(n)) == expected


def test_n_plus_1_proof_rejects_composites():
    # Called past the base-2 check and trial division, which would reject
    # these values first.  A value with a small factor, such as an L2 value
    # divisible by 5, may meet a Jacobi symbol of 0 in the parameter search,
    # which names its least prime factor.
    composites = factored = 0
    for family in (LFamily.L2, LFamily.L4):
        for h in range(33, 121):
            n = eval_exact(family, h)
            if is_prime(n).classification != "composite":
                continue
            _, s1, s0 = arith._l_form(n)
            for reduce in (n.__rmod__, arith._l_form_reducer(n, h, s1, s0)):
                verdict = arith._n_plus_1_proof(n, h, s1, reduce)
                assert verdict.classification == "composite", (family, h)
                if verdict.evidence.startswith("factor="):
                    least = next(q for q in range(3, 1000, 2) if n % q == 0)
                    assert verdict.evidence == f"factor={least}" and verdict.rounds == 0
                else:
                    assert verdict.evidence.startswith("lucas_v_witness=") and verdict.rounds == 2
            composites += 1
            factored += verdict.evidence.startswith("factor=")
    assert composites > 150
    assert 0 < factored < composites


def test_l2_l4_verdicts_do_not_depend_on_seed_or_rounds():
    # is_prime takes n alone, and a value tested afresh reads its verdict again.
    assert list(inspect.signature(is_prime).parameters) == ["n"]
    for n in (eval_exact(LFamily.L4, 597), eval_exact(LFamily.L2, 379), eval_exact(LFamily.L4, 40)):
        first = is_prime(n)
        assert first.rounds in (1, 2)
        arith._verdict_above_table.cache_clear()
        assert is_prime(n) == first


def test_l3_pow2_scan_bytes_pinned():
    # sha256 of the report as first taken with builtin pow and %, re-taken
    # when N-1 proofs replaced BPSW for L3 values above 2^64 (k = 7..11 read
    # euler_witness=7, and the fingerprint gained "primality"), and again when
    # the block stage moved "primality" to 3, the L2/L4 N+1 proofs to 4 and
    # the one witness set below 2^64 to 5 (header only: no L3 verdict
    # changed), and when BPSW lost its seeded rounds: "format" 2, "primality"
    # 6, and no extra_rounds or seed in the fingerprint or extra_rounds in the
    # spec (header only again).  The reducer must not change a byte.
    digest = hashlib.sha256(run_scan(ScanSpec(kind="l3_pow2", n_max=11)).canonical_bytes()).hexdigest()
    assert digest == "7e172eaef0312f07559fe099ee73b6551b625c24cc91f6ffaffdf14a6ebeaeb9"


# --- trial division by blocks of primes ------------------------------------


def _trial_top(n):
    """Trial division of a value above 2^64 of no L1/L3 form reaches every
    prime up to 2^10 and up to the first power of two at or above min(2^18,
    b*b >> 4), b the value's bit length."""
    bits = n.bit_length()
    return max(1024, 1 << (min(2**18, bits * bits >> 4) - 1).bit_length())


def _l2_l4_values():
    return [eval_exact(family, n) for family in (LFamily.L2, LFamily.L4) for n in range(33, 401)]


@pytest.mark.parametrize("k, q", [(12, 1259), (14, 96731), (17, 2039)])
def test_block_stage_factors_l2_pow2(k, q):
    # With trial division stopping at 1000, each took a full base-2
    # exponentiation: seconds for L2(2^14), over an hour for the 262,145 bits
    # of L2(2^17).
    n = eval_exact(LFamily.L2, 2**k)
    start = time.perf_counter()
    verdict = is_prime(n)
    assert time.perf_counter() - start < 1.0
    assert verdict == PrimalityVerdict(n, "composite", f"factor={q}")


def test_block_stage_names_the_smallest_prime_factor():
    # Brute force, one prime at a time, up to each value's bound: L2 and L4
    # values and random odd values of other forms above 2^64, and below it,
    # where the bound is 2^10, windows of consecutive n just above 2^20 and
    # near 2^32.
    rng = random.Random(0)
    values = _l2_l4_values() + [rng.getrandbits(bits) | 1 for bits in range(65, 700, 3)]
    limit = 2**16
    primes = sieve_primes(limit)
    reached = 0
    for n in values:
        top = _trial_top(n)
        assert top <= limit
        spf = next((p for p in primes if p <= top and n % p == 0), None)
        verdict = is_prime(n)
        if spf is None:
            assert not verdict.evidence.startswith("factor="), n
        else:
            assert verdict == PrimalityVerdict(n, "composite", f"factor={spf}"), n
            reached += spf > 1000
    assert reached == 61
    for n in [*range(2**20 + 1, 2**20 + 2001), *range(2**32, 2**32 + 2000)]:
        spf = next((p for p in arith._ROOT_PRIMES if n % p == 0), None)
        verdict = is_prime(n)
        if spf is not None:
            assert verdict == PrimalityVerdict(n, "composite", f"factor={spf}"), n
        elif n < 1031**2:  # 1031 is the least prime above 2^10
            assert verdict.classification == "prime", n
        else:
            assert verdict.evidence.startswith(("mr_deterministic:", "mr_witness=")), n


def test_block_stage_changes_only_its_own_verdicts(monkeypatch):
    # With the cap at 2^10, every value takes blocks 1-10 only, the primes
    # of the table.  53 values changed when the primes below 1000 were a
    # loop of their own and the blocks began at 1009; L2(284) (factor 1009)
    # and L2(323) (factor 1019) now stay in the blocks that remain.
    values = _l2_l4_values()
    with_blocks = [is_prime(n) for n in values]
    monkeypatch.setattr(arith, "_BLOCK_CAP", 1 << 10)
    without = [is_prime(n) for n in values]
    changed = 0
    for new, old in zip(with_blocks, without):
        if new != old:
            changed += 1
            q = int(new.evidence.removeprefix("factor="))
            assert q > 1024 and new.n % q == 0
            assert (old.classification, old.evidence) == ("composite", "mr_witness=2")
    assert changed == 51


def test_block_stage_bound_is_pinned():
    # L4(78) has 156 bits, so its bound is 2^11 (156^2 >> 4 = 1521); its
    # smallest factor 2111 is just above.  L4(184), 368 bits, is divided up
    # to 2^14 (368^2 >> 4 = 8464), which finds 16139.  Above 2048 bits the
    # bound stays at 2^18: 262139 < 2^18 < 262147.
    l4_78 = eval_exact(LFamily.L4, 78)
    assert l4_78 % 2111 == 0
    assert is_prime(l4_78) == PrimalityVerdict(l4_78, "composite", "mr_witness=2", rounds=1)
    l4_184 = eval_exact(LFamily.L4, 184)
    assert is_prime(l4_184) == PrimalityVerdict(l4_184, "composite", "factor=16139")
    mersenne = 2**2203 - 1  # prime
    below, above = 262139 * mersenne, 262147 * mersenne
    assert is_prime(below) == PrimalityVerdict(below, "composite", "factor=262139")
    assert is_prime(above) == PrimalityVerdict(above, "composite", "mr_witness=2", rounds=1)
    # Every n above 2^20 takes blocks 1-10, the primes up to 2^10, from block
    # 1 = {2} up, below 2^64 too.  1009 is in block 10, and 1031, the first
    # prime of block 11, is past the bound below 2^64 but not at 2214 bits.
    for n, q in (
        (2**20 + 2, 2),
        (eval_exact(LFamily.L2, 284), 1009),
        (1013 * (2**61 - 1), 1013),
        (1021 * 1000003, 1021),
        (1031 * mersenne, 1031),
    ):
        assert is_prime(n) == PrimalityVerdict(n, "composite", f"factor={q}")
    assert is_prime(1031 * (2**31 - 1)).evidence == "mr_witness=2"
    # 1013 = 3 mod 5 is in no L2/L4 block, but a value of no L-form sees it.
    m1013 = 1013 * mersenne
    assert is_prime(m1013) == PrimalityVerdict(m1013, "composite", "factor=1013")
    # A gcd of two primes of a block exceeds 2^j, so the block is searched
    # for its least prime; a gcd of one prime is that prime.
    m1009_1013 = 1009 * 1013 * mersenne
    assert is_prime(m1009_1013) == PrimalityVerdict(m1009_1013, "composite", "factor=1009")


def test_l2_l4_blocks_hold_only_primes_plus_minus_one_mod_5(monkeypatch):
    # q | 4^h + s1*2^h - 1 makes x = 2^h a root of x^2 + s1*x - 1 mod q, whose
    # discriminant is 5; for q = +-2 mod 5, 5 is no square mod q, so there is
    # no root and no L2/L4 value has the factor q.  Brute force over x.
    for q in sieve_primes(3000):
        if q > 1000 and q % 5 in (2, 3):
            for s1 in (1, -1):
                assert all((x * x + s1 * x - 1) % q for x in range(q)), (q, s1)
    # Blocks 1-10 are full for every value: they hold the primes of the
    # table, 5 among them, which divides L4(3) = 55.  Block 10 holds 1009,
    # 1013, 1019 and 1021 with the other primes above 512; the L2/L4 blocks
    # begin at 11.
    assert eval_exact(LFamily.L4, 3) == 5 * 11
    assert arith._prime_block(10, False) == math.prod(p for p in sieve_primes(1024) if p > 512)
    assert math.prod(arith._prime_block(j, False) for j in range(1, 11)) == math.prod(sieve_primes(1024))
    assert arith._prime_block(11, True) == math.prod(
        p for p in sieve_primes(2048) if p > 1024 and p % 5 in (1, 4)
    )
    # An L2/L4 value takes those blocks, up to its bound 2^14 at 368 bits
    # (L4(184)) and 369 bits (L2(184)); a value of no L-form takes the full
    # ones, up to the cap 2^18.  Each block is looked up when the loop
    # reaches it, so the lookups end at the factor's block, or at the bound
    # when there is no factor: L2(184) has none up to 2^14, and the Mersenne
    # prime 2^2203 - 1 none up to 2^18.
    calls = []
    real = arith._prime_block
    monkeypatch.setattr(arith, "_prime_block", lambda j, pm1: calls.append((j, pm1)) or real(j, pm1))

    def lookups(n, form):
        calls.clear()
        return arith._block_factor(n, form), list(calls)

    l4_184, l2_184 = eval_exact(LFamily.L4, 184), eval_exact(LFamily.L2, 184)
    assert (l4_184.bit_length(), l2_184.bit_length()) == (368, 369)
    l2_l4_blocks = [(j, j > 10) for j in range(1, 15)]
    assert lookups(l4_184, arith._l_form(l4_184)) == (16139, l2_l4_blocks)
    assert lookups(l2_184, arith._l_form(l2_184)) == (None, l2_l4_blocks)
    assert lookups(1013 * (2**2203 - 1), None) == (1013, [(j, False) for j in range(1, 11)])
    assert lookups(2**2203 - 1, None) == (None, [(j, False) for j in range(1, 19)])


def test_trial_division_builds_only_the_blocks_it_reaches():
    # 3 * (2^2203 - 1), of no L-form, has the full blocks up to 2^18 as its
    # bound, and its factor 3 is in block 2: blocks 1 and 2 are all it builds.
    arith._prime_block.cache_clear()
    arith._verdict_above_table.cache_clear()
    n = 3 * (2**2203 - 1)
    assert is_prime(n) == PrimalityVerdict(n, "composite", "factor=3")
    assert arith._prime_block.cache_info().currsize == 2


def test_block_stage_skips_l1_l3_values():
    # 12289 = 3 * 2^12 + 1 divides L3(2^10), but L1/L3 values go straight to
    # their N-1 proof, so the Euler witness stands.
    n = eval_exact(LFamily.L3, 2**10)
    assert n % 12289 == 0
    assert is_prime(n) == PrimalityVerdict(n, "composite", "euler_witness=7", rounds=1)
