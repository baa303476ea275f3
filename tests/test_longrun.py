"""Full-range scan reproductions. These are batch jobs of seconds to minutes
(the L1(3^k) scan, k <= 10, takes about eight minutes), not CI gates; they
only run when LSEQ_RUN_LONG=1 is set in the environment.  The L2(2^k)
reproduction, k <= 17, takes a fraction of a second and is a tier-1 test
in test_search.py.

    LSEQ_RUN_LONG=1 pytest tests/test_longrun.py -v -s
"""

import os

import pytest

from lseq.search import ScanSpec, run_scan

long_running = pytest.mark.skipif(
    os.environ.get("LSEQ_RUN_LONG") != "1",
    reason="full-range reproduction; set LSEQ_RUN_LONG=1 to run",
)


@long_running
def test_l2_prime_exponents_full_range():
    report = run_scan(ScanSpec(kind="l2_prime_exponent", p_max=5003))
    assert report.complete
    assert set(report.prime_indices()) == {2, 3, 379}


@long_running
def test_l3_pow2_full_range():
    report = run_scan(ScanSpec(kind="l3_pow2", n_max=15))
    assert report.complete
    assert set(report.prime_indices()) == {0, 1, 2, 5}


@long_running
def test_l3_mixed_grids_all_composite():
    wide = run_scan(ScanSpec(kind="l3_mixed", m_max=8, n_max=1))
    assert wide.complete
    assert wide.prime_indices() == []
    deep = run_scan(ScanSpec(kind="l3_mixed", m_max=2, n_max=12))
    assert deep.complete
    assert deep.prime_indices() == []


@long_running
def test_l1_pow3_full_range():
    report = run_scan(ScanSpec(kind="l1_pow3", k_max=10))
    assert report.complete
    assert set(report.prime_indices()) == {0, 1, 2}
