"""Tests for primality, factorization, and multiplicative-order routines."""

import hashlib
import math
import random

import pytest

from lseq import arith
from lseq.arith import (
    FactorBudgetError,
    OrderSearchError,
    factor_trial,
    is_prime,
    lemma2_witness,
    mod_pow,
    multiplicative_order,
    sieve_primes,
)
from lseq.lfamily import LFamily, eval_exact, residue
from lseq.search import scan_l3_pow2


def naive_is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def test_mod_pow_examples():
    assert mod_pow(2, 10, 1000) == 24
    assert mod_pow(2, 0, 7) == 1
    assert mod_pow(5, 117, 19) == pow(5, 117, 19)
    assert mod_pow(-3, 4, 7) == 81 % 7


def test_mod_pow_matches_builtin():
    for base in range(-5, 20):
        for exp in range(0, 40):
            for m in (2, 3, 7, 97, 1024):
                assert mod_pow(base, exp, m) == pow(base, exp, m)


def test_mod_pow_rejects():
    with pytest.raises(ValueError):
        mod_pow(2, -1, 7)
    with pytest.raises(ValueError):
        mod_pow(2, 3, 1)
    with pytest.raises(ValueError):
        mod_pow(2, 3, 0)


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
    # values straddling the internal sieve cutoff at 2^20
    assert is_prime(1048571).classification == "prime"
    assert is_prime(1048573).classification == "prime"
    assert is_prime(1048575).classification == "composite"
    assert is_prime(1048577).classification == "composite"
    assert is_prime(1048583).classification == "prime"


def test_is_prime_up_to_sieve_limit_names_smallest_factor():
    # The 15 composites from 1009^2 = 1018081 to 1021^2 = 1042441 have no
    # prime factor below 1000 and used to raise AssertionError.
    lo, hi = 10**6, 1 << 20
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


def test_is_prime_deterministic_below_2_64():
    # strong-pseudoprime traps for small witness sets
    assert is_prime(2047).classification == "composite"
    assert is_prime(3215031751).classification == "composite"
    assert is_prime(3825123056546413051).classification == "composite"
    v = is_prime(18446744073709551557)  # largest prime below 2^64
    assert v.classification == "prime"
    assert v.evidence.startswith("mr_deterministic:")
    assert v.rounds == 0


def test_is_prime_probabilistic_above_2_64():
    v = is_prime(2**64 + 13)
    assert v.classification == "probable_prime"
    assert v.rounds == 4  # base-2 + Lucas + 2 extra rounds
    assert "seed=0" in v.evidence
    v = is_prime(2**127 - 1)
    assert v.classification == "probable_prime"


def test_is_prime_lucas_catches_base2_pseudoprime():
    # 2^67 - 1 = 193707721 * 761838257287 passes the base-2 strong test
    # (the order of 2 divides n-1) so the Lucas stage must reject it.
    v = is_prime(2**67 - 1)
    assert v.classification == "composite"
    assert v.evidence == "lucas_witness"


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
    a = is_prime(2**89 - 1, extra_rounds=5, seed=3)
    b = is_prime(2**89 - 1, extra_rounds=5, seed=3)
    assert a == b
    assert a.classification == "probable_prime"
    assert a.rounds == 7
    with pytest.raises(ValueError):
        is_prime(10, extra_rounds=-1)


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


def test_order_matches_bruteforce():
    for m in (3, 5, 9, 11, 15, 49, 100, 121, 341, 561, 997):
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
    with pytest.raises(ValueError):
        multiplicative_order(2, 1)
    with pytest.raises(ValueError):
        multiplicative_order(0, 5)


def test_lemma2_witness_values():
    assert lemma2_witness(1) == 7
    assert lemma2_witness(2) == 73
    assert lemma2_witness(3) == 262657
    assert lemma2_witness(4) == 2593
    assert lemma2_witness(5) == 487


def test_lemma2_witness_order_conditions():
    # p = witness(k) satisfies ord_p(2) = 3^k and 3^k | p - 1
    for k in range(1, 6):
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

FLOOR_H = arith._L_FORM_MIN_BITS // 2


@pytest.mark.parametrize("family", list(LFamily))
@pytest.mark.parametrize("h", [FLOOR_H - 1, FLOOR_H, FLOOR_H + 1])
def test_l_form_reducer_matches_mod(family, h):
    # L1/L2 values have 2h+1 bits and L3/L4 values 2h, so these indices put
    # each family just under, at and over the size floor.
    n = eval_exact(family, h)
    reduce = arith._l_form_reducer(n)
    assert reduce is not None
    rng = random.Random(h)
    xs = [0, 1, n - 1, n, n + 1, 2 * n, 3 * n - 1, n * n - 1, n**3 + 5, -1, -n, -n - 1, -(n**2)]
    xs += [rng.randrange(n * n) for _ in range(200)]
    xs += [-rng.randrange(1, n * n) for _ in range(100)]
    for x in xs:
        assert reduce(x) == x % n


def test_l_form_reducer_rejects_other_moduli():
    h = FLOOR_H
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
    for n in near_misses:
        assert arith._l_form_reducer(n) is None, n


def test_is_prime_with_reducer_equals_builtin_path(monkeypatch):
    cases = [eval_exact(LFamily.L3, 2**k) for k in (9, 10, 11)]  # base-2 pseudoprimes
    cases += [eval_exact(LFamily.L1, 3**k) for k in (6, 7)]  # base-2 pseudoprimes
    cases.append(eval_exact(LFamily.L4, 597))  # probable prime, 1194 bits
    cases += [eval_exact(family, h) for family in LFamily for h in range(FLOOR_H, FLOOR_H + 12)]
    reduced = []
    real = arith._l_form_reducer

    def spy(n):
        reduce = real(n)
        reduced.append(reduce is not None)
        return reduce

    monkeypatch.setattr(arith, "_l_form_reducer", spy)
    with_reducer = [is_prime(n) for n in cases]
    monkeypatch.setattr(arith, "_l_form_reducer", lambda n: None)
    builtin = [is_prime(n) for n in cases]
    assert with_reducer == builtin
    # Every value past trial division took the reducer path.
    assert reduced and all(reduced)
    assert len(reduced) == sum(v.rounds > 0 for v in builtin)
    evidence = [v.evidence for v in with_reducer]
    assert evidence[:5] == ["lucas_witness"] * 5
    assert with_reducer[5].classification == "probable_prime"
    assert with_reducer[5].rounds == 4
    assert "mr_witness=2" in evidence


def test_l3_pow2_scan_bytes_pinned():
    # sha256 of the report made by builtin pow and % before shift-add
    # reduction existed; the reducer must not change a byte.
    digest = hashlib.sha256(scan_l3_pow2(11).canonical_bytes()).hexdigest()
    assert digest == "0e721f48d214a0a89b8235fcba9d379c1ce3f134e346b842d88df710357dcc31"
