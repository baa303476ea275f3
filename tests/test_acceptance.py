"""Acceptance gate: one test per release criterion, at the stated budgets.

The expected data (golden values, square hits, admissible t lists, scan
targets) is written out literally here and each table is compared with
lseq.paper's, so it stays independent of the code under test.  A criterion
runs its verify-paper anchor where the anchor checks the same thing, and
keeps its own loop for every assertion the anchor does not make (values
against the defining formulas, hit validity, resume cut points).  Each test
asserts the criterion's wall-clock budget.
"""

import math
import random
import time

from lseq import paper
from lseq.arith import is_prime
from lseq.gcdlaws import gcd_l1, gcd_l3, gcd_l3_cross
from lseq.lfamily import (
    LFamily,
    eval_exact,
    residue,
    verify_statement1_orbit,
    verify_statement2_orbit,
)
from lseq.repunit import RepunitKind, gcd_repunit, repunit
from lseq.search import ScanSpec, resume, run_scan, scan_l4_twins, scan_square_divisors

GOLDEN_VALUES = [
    ("L1", 1, 7),
    ("L1", 3, 73),
    ("L1", 9, 262657),
    ("L2", 1, 5),
    ("L2", 2, 19),
    ("L2", 3, 71),
    ("L2", 4, 271),
    ("L2", 6, 4159),
    ("L2", 16, 4295032831),
    ("L3", 1, 3),
    ("L3", 2, 13),
    ("L3", 4, 241),
    ("L3", 32, 18446744069414584321),
    ("L4", 1, 1),
    ("L4", 2, 11),
    ("L4", 4, 239),
    ("L4", 5, 991),
    ("L4", 9, 261631),
    ("L4", 10, 1047551),
]

SQUARE_HITS = {
    "L1": {(7, 7, 2), (104, 13, 2), (114, 19, 2)},
    "L2": {(68, 11, 3), (97, 11, 2)},
    "L3": {(26, 13, 2), (130, 13, 2), (57, 19, 2)},
    "L4": {(13, 11, 2), (42, 11, 2), (123, 11, 2), (52, 19, 2), (119, 19, 2)},
}

ADMISSIBLE_T35 = [1, 5, 7, 11, 13, 17, 19, 23, 25, 29, 31, 35]
ADMISSIBLE_T25 = [1, 5, 7, 11, 13, 17, 19, 23, 25]


def finish(start: float, budget: float, label: str) -> None:
    elapsed = time.perf_counter() - start
    assert elapsed < budget, f"{label} took {elapsed:.2f}s, budget {budget}s"
    print(f"PASS {label} ({elapsed:.2f}s)")


def anchor(name: str) -> str:
    """Run one verify-paper anchor, which must pass; return its detail."""
    ok, detail = paper.ANCHORS[name]()
    assert ok, f"{name}: {detail}"
    return detail


def test_criterion_01_golden_values():
    start = time.perf_counter()
    assert paper.GOLDEN_VALUES == {(name, n): value for name, n, value in GOLDEN_VALUES}
    assert len(GOLDEN_VALUES) == 19
    assert anchor("golden-values") == "19 fixed values"
    finish(start, 1.0, "criterion 1: 19 golden sequence values exact")


def test_criterion_02_congruence_audit():
    start = time.perf_counter()
    detail = anchor("congruence-orbits")  # every builtin rule, shallow orbits at scanned hits
    assert detail == "8 rules to n=10000; orbit checks for 25 square hits"
    for name, hits in SQUARE_HITS.items():
        family = LFamily.parse(name)
        for n, p, e in hits:
            assert verify_statement1_orbit(family, n, p, 10)
            assert verify_statement2_orbit(family, n, p, e, 2)
    finish(start, 10.0, "criterion 2: builtin rules to 10000 + orbits at all hits")


def test_criterion_03_l1_insularity_suite():
    start = time.perf_counter()
    assert paper.ADMISSIBLE_T35 == ADMISSIBLE_T35
    detail = anchor("gcd-insularity-l1")  # the law on the same-k grid, every cross pair coprime
    assert detail == "576 same-exponent pairs match; 1728 cross pairs coprime"
    for k in range(0, 4):
        for t1 in ADMISSIBLE_T35:
            for t2 in ADMISSIBLE_T35:
                value, _ = gcd_l1(k, t1, t2)
                assert value == eval_exact(LFamily.L1, 3**k * math.gcd(t1, t2))
    finish(start, 60.0, "criterion 3: L1 same-k grid + cross-k coprimality")


def test_criterion_04_l3_insularity_suite():
    start = time.perf_counter()
    assert paper.ADMISSIBLE_T25 == ADMISSIBLE_T25
    detail = anchor("gcd-insularity-l3")  # the law on the same-cell grid, t1, t2 <= 7 across cells
    assert detail == "972 same-cell pairs match; 1188 cross pairs coprime"
    exponents = [(m, n) for m in range(0, 3) for n in range(1, 5)]
    for m, n in exponents:
        for t1 in ADMISSIBLE_T25:
            for t2 in ADMISSIBLE_T25:
                value, _ = gcd_l3(m, n, t1, t2)
                assert value == eval_exact(LFamily.L3, 3**m * 2**n * math.gcd(t1, t2))
    for a in exponents:
        for b in exponents:
            if a == b:
                continue
            for t in ADMISSIBLE_T25:
                value, _ = gcd_l3_cross(a[0], a[1], t, b[0], b[1], t)
                assert value == 1
    # the divisor relation on a small grid: L3(2^n) divides L3(2^n * t) for
    # t = 5, 7, 11 and is coprime to it for t = 3, 9 (another 3-adic exponent)
    for n in range(1, 4):
        small = eval_exact(LFamily.L3, 2**n)
        for t in (5, 7, 11):
            value, record = gcd_l3(0, n, 1, t)
            assert value == small and record.match
        for m in (1, 2):
            value, record = gcd_l3_cross(0, n, 1, m, n, 1)
            assert value == 1 and record.match
    finish(start, 60.0, "criterion 4: L3 same-exponent grid + cross coprimality")


def test_criterion_05_repunit_suite():
    start = time.perf_counter()
    for b in (2, 3, 5, 10):
        for n in range(1, 41):
            for m in range(1, 41):
                computed, predicted, match = gcd_repunit(b, n, m, RepunitKind.MINUS)
                assert match
                assert computed == repunit(b, math.gcd(n, m), RepunitKind.MINUS)
        for n in range(1, 40, 2):
            for m in range(1, 40, 2):
                computed, predicted, match = gcd_repunit(b, n, m, RepunitKind.PLUS)
                assert match
                assert computed == repunit(b, math.gcd(n, m), RepunitKind.PLUS)
    finish(start, 30.0, "criterion 5: repunit gcd law, 4 bases, both kinds")


def test_criterion_06_theorem3():
    start = time.perf_counter()
    assert anchor("seven-power-orbit") == "56 (k, n) cells hold"
    finish(start, 5.0, "criterion 6: 7-power divisibility, 56 grid cells")


def test_criterion_07_product_identity():
    start = time.perf_counter()
    anchor("product-identity")  # k <= 6, and gcd(L1(3^i), L1(3^j)) = 1 for i < j <= 5
    finish(start, 10.0, "criterion 7: exact products k <= 6 + pairwise coprimality")


def test_criterion_08_desk_scan_reproduction():
    start = time.perf_counter()
    assert set(run_scan(ScanSpec(kind="l2_prime_exponent", p_max=1000)).prime_indices()) == {2, 3, 379}
    assert set(run_scan(ScanSpec(kind="l2_pow2", n_max=10)).prime_indices()) == {1, 2, 4}
    assert set(run_scan(ScanSpec(kind="l3_pow2", n_max=10)).prime_indices()) == {0, 1, 2, 5}
    assert set(run_scan(ScanSpec(kind="l1_pow3", k_max=5)).prime_indices()) == {0, 1, 2}
    twins, flagged = scan_l4_twins(603).twin_pairs()
    assert set(twins) == {(4, 5), (9, 10), (224, 225)}
    assert flagged == [(1, 2)]
    detail = anchor("desk-scans")
    assert detail == "all five desk-scale scans reproduce the expected index sets"
    finish(start, 1800.0, "criterion 8: five desk-scale scans reproduce targets")


def test_criterion_09_square_divisor_hits():
    start = time.perf_counter()
    assert paper.SQUARE_HITS == SQUARE_HITS
    for name, expected in SQUARE_HITS.items():
        found = set(scan_square_divisors(name, 130, 20).square_hits())
        missing = expected - found
        assert not missing, f"{name} missing hits {sorted(missing)}"
        # every reported hit must be a genuine prime-power divisor
        family = LFamily.parse(name)
        for n, p, e in found:
            assert residue(family, n, p**e) == 0
            assert residue(family, n, p ** (e + 1)) != 0
    finish(start, 60.0, "criterion 9: all 13 enumerated square-divisor hits found")


def test_criterion_10_scan_determinism(tmp_path):
    start = time.perf_counter()
    baseline = scan_l4_twins(120)
    expected = baseline.canonical_bytes()
    rng = random.Random(2026)
    for i, cut in enumerate(sorted(rng.sample(range(1, 119), 3))):
        path = str(tmp_path / f"cut{i}.jsonl")
        partial = scan_l4_twins(120, checkpoint_path=path, limit=cut)
        assert partial.completed_through == cut
        resumed = resume(path)
        assert resumed.complete
        assert resumed.canonical_bytes() == expected, f"cut at {cut} diverged"
    assert scan_l4_twins(120, jobs=8).canonical_bytes() == expected
    assert scan_l4_twins(120, jobs=1).canonical_bytes() == expected
    detail = anchor("scan-determinism")
    assert detail == "3 interrupted/resumed runs and a jobs=8 run are byte-identical"
    finish(start, 300.0, "criterion 10: byte-identical reports across cuts and jobs")


def test_criterion_11_oracle_cross_checks():
    start = time.perf_counter()
    anchor("oracle-cross-checks")  # 1 <= n <= 10^6 against a sieve, residues n <= 64, m <= 1000
    assert is_prime(0).classification == "composite"
    finish(start, 60.0, "criterion 11: primality vs sieve to 1e6 + residue grid")
