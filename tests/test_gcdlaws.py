"""Tests for gcd identities and the generic insularity sampling harness."""

import math
from functools import partial

import pytest

from lseq import gcdlaws, paper
from lseq.gcdlaws import (
    GcdCheckRecord,
    IndexSetSpec,
    _l_check,
    _l_gcd,
    gcd_l1,
    gcd_l1_cross,
    gcd_l3,
    gcd_l3_cross,
    insularity_harness,
)
from lseq.lfamily import LFamily, eval_exact
from lseq.repunit import RepunitKind, repunit

ADMISSIBLE = [1, 5, 7, 11, 13, 17, 19, 23, 25]


def test_gcd_l1_example():
    value, record = gcd_l1(0, 5, 7)
    assert value == 7  # gcd(1057, 16513) = 7 = L1(1)
    assert record.index_pair == (5, 7)
    assert record.computed == record.predicted == 7
    assert record.match


def test_gcd_l1_grid():
    for k in range(0, 3):
        for t1 in ADMISSIBLE[:5]:
            for t2 in ADMISSIBLE[:5]:
                value, record = gcd_l1(k, t1, t2)
                assert record.match
                assert value == eval_exact(LFamily.L1, 3**k * math.gcd(t1, t2))


def test_gcd_l1_record_shape():
    _, record = gcd_l1(1, 7, 5)
    assert record.index_pair == (21, 15)
    assert isinstance(record, GcdCheckRecord)


def test_gcd_l1_cross_grid():
    for k1 in range(0, 3):
        for k2 in range(0, 3):
            if k1 == k2:
                continue
            for t1 in ADMISSIBLE[:4]:
                for t2 in ADMISSIBLE[:4]:
                    value, record = gcd_l1_cross(k1, t1, k2, t2)
                    assert value == 1
                    assert record.match


def test_gcd_l1_rejects():
    with pytest.raises(ValueError):
        gcd_l1(-1, 1, 5)
    with pytest.raises(ValueError):
        gcd_l1(0, 2, 5)  # even t
    with pytest.raises(ValueError):
        gcd_l1(0, 9, 5)  # divisible by 3
    with pytest.raises(ValueError):
        gcd_l1(0, -5, 5)
    with pytest.raises(ValueError):
        gcd_l1_cross(1, 5, 1, 7)  # equal exponents


def test_gcd_l3_grid():
    for m in range(0, 2):
        for n in range(1, 4):
            for t1 in ADMISSIBLE[:4]:
                for t2 in ADMISSIBLE[:4]:
                    value, record = gcd_l3(m, n, t1, t2)
                    assert record.match
                    base = 3**m * 2**n
                    assert value == eval_exact(LFamily.L3, base * math.gcd(t1, t2))


def test_gcd_l3_cross_grid():
    pairs = [(0, 1), (0, 2), (1, 1), (1, 2)]
    for a in pairs:
        for b in pairs:
            if a == b:
                continue
            value, record = gcd_l3_cross(a[0], a[1], 5, b[0], b[1], 7)
            assert value == 1
            assert record.match


def test_gcd_l3_rejects():
    with pytest.raises(ValueError):
        gcd_l3(0, 0, 1, 5)  # 2-adic exponent must be >= 1
    with pytest.raises(ValueError):
        gcd_l3(-1, 1, 1, 5)
    with pytest.raises(ValueError):
        gcd_l3(0, 1, 15, 5)  # t divisible by 3
    with pytest.raises(ValueError):
        gcd_l3_cross(0, 1, 5, 0, 1, 7)  # equal exponent pairs


@pytest.mark.parametrize(
    "check, args, message",
    [
        (gcd_l1_cross, (-1, 1, 0, 1), "exponents must be >= 0, got -1 and 0"),
        (gcd_l3_cross, (-1, 1, 1, 0, 1, 1), "3-adic exponents must be >= 0, got -1 and 0"),
        (gcd_l3_cross, (0, 0, 1, 0, 1, 1), "2-adic exponents must be >= 1, got 0 and 1"),
    ],
    ids=["l1-negative", "l3-negative-3-adic", "l3-zero-2-adic"],
)
def test_cross_checks_reject_exponents_out_of_range(check, args, message):
    with pytest.raises(ValueError) as info:
        check(*args)
    assert str(info.value) == message


def test_l_gcd_law_on_every_pair_to_300():
    # gcd(L(i), L(j)) is L(gcd(i, j)) where the valuations agree, else 3 (L1
    # at two even, L3 at two odd indices) or 1: all 45,150 pairs 1 <= i <= j
    # <= 300 of each family.
    for family in (LFamily.L1, LFamily.L3):
        values = [0] + [eval_exact(family, n) for n in range(1, 301)]
        wrong = [
            (i, j)
            for i in range(1, 301)
            for j in range(i, 301)
            if _l_gcd(family, i, j) != math.gcd(values[i], values[j])
        ]
        assert wrong == [], family


def test_gcd_all_pairs_anchor(monkeypatch):
    # verify-paper's gcd-all-pairs anchor makes the same comparison on every
    # pair to 120 and names the first pair where law and gcd disagree.
    anchor = paper.ANCHORS["gcd-all-pairs"]
    assert anchor() == (True, "14520 pairs i <= j <= 120 of L1 and L3 match the gcd law")

    def law(family, i, j):  # gcd(L3(4), L3(20)) is L3(4) = 241
        return 1 if (family, i, j) == (LFamily.L3, 4, 20) else _l_gcd(family, i, j)

    monkeypatch.setattr(gcdlaws, "_l_gcd", law)
    assert anchor() == (False, "L3: gcd law fails at i=4, j=20")


def test_corollary2_divisor_branches():
    # L3(2^n) divides L3(2^n * t) when 3 does not divide t (equal v_2 and
    # v_3), and the two are coprime when it does (even indices).
    for n in range(1, 5):
        small = eval_exact(LFamily.L3, 2**n)
        for t in (5, 7, 11, 13, 25):
            value, record = _l_check(LFamily.L3, 2**n, 2**n * t)
            assert value == record.predicted == small
        for t in (3, 9, 15, 21):
            value, record = _l_check(LFamily.L3, 2**n, 2**n * t)
            assert value == record.predicted == 1


def test_corollary2_divisor_manual():
    small = eval_exact(LFamily.L3, 4)
    large = eval_exact(LFamily.L3, 20)
    assert small == 241
    assert large % small == 0
    assert _l_gcd(LFamily.L3, 4, 20) == small
    # t divisible by 3 lands in the coprime case
    assert math.gcd(eval_exact(LFamily.L3, 12), small) == 1
    assert _l_gcd(LFamily.L3, 4, 12) == 1


def test_index_set_spec_enumeration():
    assert IndexSetSpec("structured", bound=20).indices() == [1, 5, 7, 11, 13, 17, 19]
    assert IndexSetSpec("structured", pow3=1, pow2=1, bound=50).indices() == [6, 30, 42]
    assert IndexSetSpec("all", bound=5).indices() == [1, 2, 3, 4, 5]
    assert IndexSetSpec("odd", bound=9).indices() == [1, 3, 5, 7, 9]


def test_index_set_spec_rejects():
    with pytest.raises(ValueError):
        IndexSetSpec("weird")
    with pytest.raises(ValueError):
        IndexSetSpec("structured", pow3=-1)
    with pytest.raises(ValueError):
        IndexSetSpec("all", bound=0)


def test_harness_structured_set_is_insular():
    l1 = partial(eval_exact, LFamily.L1)
    records = insularity_harness(l1, IndexSetSpec("structured", pow3=4), 30, seed=7)
    assert len(records) == 30
    assert all(r.match for r in records)


def test_harness_detects_violations_on_unrestricted_set():
    l1 = partial(eval_exact, LFamily.L1)
    records = insularity_harness(l1, IndexSetSpec("all", bound=5), 20, seed=0)
    mismatches = [r.index_pair for r in records if not r.match]
    assert len(mismatches) == 10
    assert (1, 3) in mismatches
    # the (1, 3) record shows the violation concretely
    rec = next(r for r in records if r.index_pair == (1, 3))
    assert rec.computed == math.gcd(7, 73) == 1
    assert rec.predicted == 7


def test_harness_is_deterministic_and_sorted():
    l1 = partial(eval_exact, LFamily.L1)
    spec = IndexSetSpec("structured", pow3=2, bound=2000)
    a = insularity_harness(l1, spec, 25, seed=11)
    b = insularity_harness(l1, spec, 25, seed=11)
    assert a == b
    assert [r.index_pair for r in a] == sorted(r.index_pair for r in a)
    assert all(r.index_pair[0] <= r.index_pair[1] for r in a)


def test_harness_records_recompute():
    l3 = partial(eval_exact, LFamily.L3)
    spec = IndexSetSpec("structured", pow3=1, pow2=2, bound=3000)
    for rec in insularity_harness(l3, spec, 15, seed=4):
        n, m = rec.index_pair
        assert rec.computed == math.gcd(l3(n), l3(m))
        assert rec.predicted == l3(math.gcd(n, m))


def test_harness_repunit_sequence():
    # base-10 repunits are insular on the full index set
    r10 = lambda n: repunit(10, n, RepunitKind.MINUS)
    records = insularity_harness(r10, IndexSetSpec("all", bound=40), 40, seed=2)
    assert all(r.match for r in records)


def test_harness_rejects():
    l1 = partial(eval_exact, LFamily.L1)
    with pytest.raises(ValueError):
        insularity_harness(l1, IndexSetSpec("all", bound=10), 0)
    with pytest.raises(ValueError):
        # structured base 81 exceeds the bound, so the set is empty
        insularity_harness(l1, IndexSetSpec("structured", pow3=4, bound=50), 5)
