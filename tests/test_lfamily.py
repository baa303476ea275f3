"""Tests for the four quadratic-in-2^n sequences and their congruence orbits."""

import math
import pickle
import random
import tracemalloc

import pytest

from lseq import lfamily, paper
from lseq.lfamily import (
    BudgetExceededError,
    CongruenceRule,
    LFamily,
    builtin_congruence_rules,
    eval_exact,
    residue,
    verify_product_identity,
    verify_statement1_orbit,
    verify_statement2_orbit,
    verify_theorem3,
)


def reference_value(family: LFamily, n: int) -> int:
    return (1 << (2 * n)) + family.mid_sign * (1 << n) + family.unit_sign


def test_family_signs():
    assert (LFamily.L1.mid_sign, LFamily.L1.unit_sign) == (1, 1)
    assert (LFamily.L2.mid_sign, LFamily.L2.unit_sign) == (1, -1)
    assert (LFamily.L3.mid_sign, LFamily.L3.unit_sign) == (-1, 1)
    assert (LFamily.L4.mid_sign, LFamily.L4.unit_sign) == (-1, -1)


def test_family_public_behaviour():
    assert list(LFamily) == [LFamily.L1, LFamily.L2, LFamily.L3, LFamily.L4]
    assert [f.name for f in LFamily] == ["L1", "L2", "L3", "L4"]
    assert [f.value for f in LFamily] == [(1, 1), (1, -1), (-1, 1), (-1, -1)]
    for family in LFamily:
        assert family.value == (family.mid_sign, family.unit_sign)
        assert LFamily(family.value) is family
        assert LFamily.parse(family.name.lower()) is family
        assert pickle.loads(pickle.dumps(family)) is family


def test_family_parse():
    assert LFamily.parse("L1") is LFamily.L1
    assert LFamily.parse("l4") is LFamily.L4
    with pytest.raises(ValueError):
        LFamily.parse("L9")
    with pytest.raises(ValueError):
        LFamily.parse("")


def test_eval_small_values():
    assert eval_exact(LFamily.L1, 1) == 7
    assert eval_exact(LFamily.L1, 2) == 21
    assert eval_exact(LFamily.L1, 3) == 73
    assert eval_exact(LFamily.L1, 9) == 262657
    assert eval_exact(LFamily.L2, 1) == 5
    assert eval_exact(LFamily.L2, 3) == 71
    assert eval_exact(LFamily.L2, 16) == 4295032831
    assert eval_exact(LFamily.L3, 1) == 3
    assert eval_exact(LFamily.L3, 2) == 13
    assert eval_exact(LFamily.L3, 32) == 18446744069414584321
    assert eval_exact(LFamily.L4, 1) == 1
    assert eval_exact(LFamily.L4, 2) == 11
    assert eval_exact(LFamily.L4, 10) == 1047551


def test_eval_matches_reference_formula():
    for family in LFamily:
        for n in range(1, 200):
            assert eval_exact(family, n) == reference_value(family, n)


def test_eval_ordering_and_difference():
    # L1 > L2 > L3 > L4 pointwise for n >= 1, and L1 - L4 = 2^(n+1) + 2.
    for n in range(1, 80):
        v1 = eval_exact(LFamily.L1, n)
        v2 = eval_exact(LFamily.L2, n)
        v3 = eval_exact(LFamily.L3, n)
        v4 = eval_exact(LFamily.L4, n)
        assert v1 > v2 > v3 > v4
        assert v1 - v4 == (1 << (n + 1)) + 2


def test_eval_rejects_bad_index():
    for family in LFamily:
        with pytest.raises(ValueError):
            eval_exact(family, 0)
        with pytest.raises(ValueError):
            eval_exact(family, -3)


def test_eval_bit_budget():
    # 2n + 1 bits are needed; the budget is inclusive.
    assert eval_exact(LFamily.L1, 39, bit_budget=79) == reference_value(LFamily.L1, 39)
    with pytest.raises(BudgetExceededError):
        eval_exact(LFamily.L1, 40, bit_budget=79)
    with pytest.raises(BudgetExceededError):
        eval_exact(LFamily.L2, 1 << 30)


def test_residue_examples():
    assert residue(LFamily.L1, 10, 7) == 0
    # 641 divides 2^32 + 1, so L2(16) = 2^32 + 2^16 - 1 == 65534 == 152 (mod 641)
    assert residue(LFamily.L2, 16, 641) == 152
    assert residue(LFamily.L3, 6, 13) == 3
    assert residue(LFamily.L4, 13, 11) == 0
    assert residue(LFamily.L4, 20, 11) == 10


def test_residue_matches_eval():
    moduli = [2, 3, 4, 5, 7, 9, 11, 13, 49, 64, 100, 343, 1000, 65537]
    for family in LFamily:
        for n in range(1, 65):
            value = eval_exact(family, n)
            for m in moduli:
                r = residue(family, n, m)
                assert r == value % m
                assert 0 <= r < m


def test_residue_rejects():
    with pytest.raises(ValueError):
        residue(LFamily.L1, 0, 7)
    with pytest.raises(ValueError):
        residue(LFamily.L1, 3, 1)
    with pytest.raises(ValueError):
        residue(LFamily.L1, 3, 0)


def test_builtin_rules_catalog():
    for family in LFamily:
        rules = builtin_congruence_rules(family)
        assert len(rules) == 2
        for rule in rules:
            assert rule.family is family
    by_key = {
        (r.family, r.modulus): r
        for family in LFamily
        for r in builtin_congruence_rules(family)
    }
    assert by_key[(LFamily.L1, 3)].step == 2
    assert by_key[(LFamily.L1, 3)].offsets == (2,)
    assert by_key[(LFamily.L1, 7)].offsets == (1, 2)
    assert by_key[(LFamily.L2, 5)].offsets == (1,)
    assert by_key[(LFamily.L2, 11)].offsets == (7, 8)
    assert by_key[(LFamily.L3, 3)].offsets == (1,)
    assert by_key[(LFamily.L3, 13)].offsets == (2, 10)
    assert by_key[(LFamily.L4, 5)].offsets == (3,)
    assert by_key[(LFamily.L4, 11)].offsets == (2, 3)


def test_builtin_rules_hold():
    for family in LFamily:
        for rule in builtin_congruence_rules(family):
            assert rule.first_violation(2000) is None


def test_rule_covered_indices():
    rule = builtin_congruence_rules(LFamily.L1)[0]
    assert rule.modulus == 3
    assert rule.covered_indices(10) == [2, 4, 6, 8, 10]
    rule7 = builtin_congruence_rules(LFamily.L1)[1]
    assert rule7.covered_indices(8) == [1, 2, 4, 5, 7, 8]


def test_false_rule_is_violated():
    # 7 divides L1(n) exactly when 3 does not divide n, and L1(3) = 73.
    rule = CongruenceRule(LFamily.L1, 7, 3, (3,), "divisible by 7 at multiples of 3")
    assert rule.first_violation(2) is None
    assert rule.first_violation(3) == 3
    assert rule.first_violation(10**6) == 3


def test_congruence_anchor_names_a_violated_rule(monkeypatch):
    # The congruence-orbits anchor audits the catalogue through the
    # congruence_audit scan and names the first rule it finds violated.
    false = CongruenceRule(LFamily.L1, 7, 3, (3,), "divisible by 7 at multiples of 3")
    monkeypatch.setitem(lfamily._RULES, LFamily.L1, (*lfamily._RULES[LFamily.L1], false))
    assert paper.ANCHORS["congruence-orbits"]() == (
        False, "L1: divisible by 7 at multiples of 3 fails at n=3"
    )


def test_first_violation_walks_covered_indices_in_order():
    # The same answer as a scan of covered_indices, for every builtin rule
    # and for false rules with unsorted or repeated offsets.
    rules = [rule for family in LFamily for rule in builtin_congruence_rules(family)]
    rules += [
        CongruenceRule(LFamily.L1, 7, 3, (3,), "first violation 3"),
        CongruenceRule(LFamily.L1, 7, 6, (5, 1, 6, 2, 4), "holds at 1, 2, 4, 5; fails at 6"),
        CongruenceRule(LFamily.L3, 13, 12, (10, 5, 2), "L3(5) = 993 is 5 mod 13"),
        CongruenceRule(LFamily.L3, 13, 12, (10, 2, 10), "repeated offset, holds"),
        CongruenceRule(LFamily.L4, 11, 10, (3, 2, 9), "fails first at 9"),
        CongruenceRule(LFamily.L1, 7, 6, (6, 3), "fails at 6 and, first, at 3"),
        CongruenceRule(LFamily.L2, 3, 4, (1,), "L2(1) = 5, L2(5) = 1055"),
    ]
    for rule in rules:
        for n_max in (-1, 0, 1, 2, rule.step - 1, rule.step, rule.step + 1, 97, 600):
            assert rule.first_violation(n_max) == _scanned_violation(rule, n_max), (rule.description, n_max)
    # Seeded random rules, so that the walk's stop after one period of
    # 2^n mod m is checked on odd, even and power-of-two moduli, with
    # offsets equal to the step and repeated offsets, at n_max around a few
    # periods.  Every L(n) is odd, so an even modulus fails at its first
    # covered index; an odd one divides some L(n) with n <= ord_m(2), and
    # most rules take offsets whose residues are 0 in the first block, so
    # that many hold to n_max and others fail only in a later block.
    rng = random.Random(30)
    for _ in range(600):
        family = rng.choice(list(LFamily))
        odd, order = 1, 1
        while odd == 1 or all(residue(family, k, odd) for k in range(1, order + 1)):
            odd = rng.randrange(3, 60, 2)
            order = next(k for k in range(1, odd) if pow(2, k, odd) == 1)
        modulus = odd << rng.choice((0, 0, 0, 1, 3)) if rng.random() < 0.9 else 1 << rng.randrange(1, 7)
        step = order * rng.randrange(1, 3) if rng.random() < 0.5 else rng.randrange(1, 25)
        zeros = [off for off in range(1, step + 1) if residue(family, off, modulus) == 0]
        if zeros and rng.random() < 0.7:
            offsets = tuple(rng.sample(zeros, rng.randrange(1, len(zeros) + 1)))
        else:
            offsets = tuple(rng.randrange(1, step + 1) for _ in range(rng.randrange(1, 4)))
        offsets += rng.choice(((), (step,), offsets[:1]))
        rule = CongruenceRule(family, modulus, step, offsets, "random")
        for n_max in (rng.randrange(0, 4 * order * step + 8), rng.randrange(0, 3 * step)):
            assert rule.first_violation(n_max) == _scanned_violation(rule, n_max), (rule, n_max)


def _scanned_violation(rule: CongruenceRule, n_max: int) -> int | None:
    """The first covered index <= n_max with a nonzero residue, by a scan of
    covered_indices."""
    return next(
        (n for n in rule.covered_indices(n_max) if residue(rule.family, n, rule.modulus)), None
    )


def test_first_violation_stops_after_one_period(monkeypatch):
    # Each catalogued rule has an odd modulus and a step that the order of 2
    # divides, so its walk makes one residue call per distinct offset, at
    # any n_max.
    calls = []
    real = lfamily.residue
    monkeypatch.setattr(lfamily, "residue", lambda family, n, m: calls.append(n) or real(family, n, m))
    for family in LFamily:
        for rule in builtin_congruence_rules(family):
            calls.clear()
            assert rule.first_violation(10**6) is None
            assert calls == sorted(set(rule.offsets)), rule.description


def test_first_violation_lists_no_indices(monkeypatch):
    # covered_indices(10**6) of this rule is a list of 666,667 ints (tens of
    # MiB); the walk holds one index at a time.  2 is a primitive root of the
    # prime 1,000,003, so 2^n mod m does not repeat before n_max and the walk
    # visits all 333,334 blocks.  residue is replaced so that only the walk's
    # own memory is traced.
    monkeypatch.setattr(lfamily, "residue", lambda family, n, m: 0)
    rule = CongruenceRule(LFamily.L1, 1000003, 3, (1, 2), "a walk of 333,334 blocks")
    tracemalloc.start()
    try:
        assert rule.first_violation(10**6) is None
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_rule_covered_residues_are_zero():
    for family in LFamily:
        for rule in builtin_congruence_rules(family):
            for n in rule.covered_indices(300):
                assert residue(family, n, rule.modulus) == 0


def test_rule_validation():
    rule_cls = type(builtin_congruence_rules(LFamily.L1)[0])
    with pytest.raises(ValueError):
        rule_cls(LFamily.L1, 1, 2, (1,), "bad modulus")
    with pytest.raises(ValueError):
        rule_cls(LFamily.L1, 3, 0, (1,), "bad step")
    with pytest.raises(ValueError):
        rule_cls(LFamily.L1, 3, 2, (), "no offsets")
    with pytest.raises(ValueError):
        rule_cls(LFamily.L1, 3, 2, (3,), "offset out of range")


def test_statement1_orbit_examples():
    assert verify_statement1_orbit(LFamily.L1, 10, 7, 50)
    assert verify_statement1_orbit(LFamily.L2, 7, 11, 50)
    assert verify_statement1_orbit(LFamily.L3, 2, 13, 50)
    assert verify_statement1_orbit(LFamily.L4, 2, 11, 50)


def test_statement1_orbit_all_builtin_seeds():
    # Every covered index of a builtin rule seeds a full orbit.
    for family in LFamily:
        for rule in builtin_congruence_rules(family):
            if rule.modulus == 3:
                continue
            for l in rule.covered_indices(rule.step):
                assert verify_statement1_orbit(family, l, rule.modulus, 30)


def test_statement1_orbit_precondition():
    # seed index must satisfy p | L(l)
    assert residue(LFamily.L1, 3, 7) != 0
    with pytest.raises(ValueError):
        verify_statement1_orbit(LFamily.L1, 3, 7, 10)
    with pytest.raises(ValueError):
        verify_statement1_orbit(LFamily.L1, 10, 2, 10)  # p must be odd
    with pytest.raises(ValueError, match="must be an odd prime, got 21"):
        verify_statement1_orbit(LFamily.L1, 2, 21, 3)  # 21 | L1(2), 21 not prime
    with pytest.raises(ValueError):
        verify_statement1_orbit(LFamily.L1, 0, 7, 10)
    with pytest.raises(ValueError):
        verify_statement1_orbit(LFamily.L1, 10, 7, -1)


def test_statement2_orbit_examples():
    # seeds with a known square (or cube) prime-power divisor
    assert verify_statement2_orbit(LFamily.L1, 7, 7, 2, 5)
    assert verify_statement2_orbit(LFamily.L2, 97, 11, 2, 4)
    assert verify_statement2_orbit(LFamily.L2, 68, 11, 3, 3)
    assert verify_statement2_orbit(LFamily.L3, 26, 13, 2, 4)
    assert verify_statement2_orbit(LFamily.L4, 13, 11, 2, 4)
    # t = 1 reduces to plain divisibility seeds
    assert verify_statement2_orbit(LFamily.L1, 10, 7, 1, 6)


def test_statement2_orbit_rejects():
    with pytest.raises(ValueError, match=r"^offset must be >= 1, got 0$"):
        verify_statement2_orbit(LFamily.L1, 0, 7, 1, 1)
    with pytest.raises(ValueError):
        verify_statement2_orbit(LFamily.L1, 3, 7, 2, 5)  # seed not divisible
    with pytest.raises(ValueError):
        verify_statement2_orbit(LFamily.L1, 10, 7, 2, 5)  # divisible by 7, not 49
    with pytest.raises(ValueError, match="must be an odd prime, got 49"):
        verify_statement2_orbit(LFamily.L1, 7, 49, 1, 2)  # 49 | L1(7), 49 not prime
    with pytest.raises(ValueError):
        verify_statement2_orbit(LFamily.L1, 7, 7, 0, 5)
    with pytest.raises(ValueError):
        verify_statement2_orbit(LFamily.L1, 7, 7, 2, -1)


def test_statement2_indices_divisible():
    # spot-check the actual index arithmetic for one seed
    p, t, l = 7, 2, 7
    for big_n in range(0, 4):
        idx = p ** (big_n + t) - p ** (t - 1) + l
        assert residue(LFamily.L1, idx, p**t) == 0


def test_theorem3_grid():
    for k in range(0, 5):
        for n in range(1, 20):
            if n % 3 == 0:
                continue
            assert verify_theorem3(k, n)


def test_theorem3_divisibility_is_exact_power():
    # 7^(k+1) divides L1(7^k * n) and for n=1 the next power does not.
    for k in range(0, 4):
        value = eval_exact(LFamily.L1, 7**k)
        assert value % 7 ** (k + 1) == 0
        assert value % 7 ** (k + 2) != 0


def test_theorem3_rejects():
    with pytest.raises(ValueError):
        verify_theorem3(-1, 1)
    with pytest.raises(ValueError):
        verify_theorem3(2, 0)
    with pytest.raises(ValueError):
        verify_theorem3(2, 3)
    with pytest.raises(ValueError):
        verify_theorem3(2, 9)


def test_product_identity():
    for k in range(0, 7):
        assert verify_product_identity(k, bit_budget=1 << 14)
    # identity expanded by hand for k = 1:  L1(1) * L1(3) = (2^9 - 1) / ... no,
    # just recheck the closed form directly.
    for k in range(0, 5):
        product = 1
        for j in range(0, k + 1):
            product *= eval_exact(LFamily.L1, 3**j)
        assert product == ((1 << (3 ** (k + 1))) - 1) // ((1 << 3 ** 0) - 1)


def test_product_identity_budget():
    with pytest.raises(BudgetExceededError):
        verify_product_identity(7)
    with pytest.raises(BudgetExceededError):
        verify_product_identity(2, bit_budget=20)
    assert verify_product_identity(2, bit_budget=28)
    with pytest.raises(ValueError):
        verify_product_identity(-1)


def test_gcd_consecutive_l1_powers_of_three():
    # adjacents in the product identity are coprime
    for j in range(0, 5):
        a = eval_exact(LFamily.L1, 3**j)
        b = eval_exact(LFamily.L1, 3 ** (j + 1))
        assert math.gcd(a, b) == 1
