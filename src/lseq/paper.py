"""The paper's anchors: the fixed values, identities and index sets that
``lseq verify-paper`` checks.

``ANCHORS`` maps each anchor name to a check that takes no arguments and
returns ``(ok, detail)``.  The checks call library functions through their
defining modules (``arith.is_prime``, ``lfamily.eval_exact``, ...), so a
caller that replaces a function there sees every call an anchor makes.
"""

from __future__ import annotations

import itertools
import math
import os
from typing import Callable

from . import arith, gcdlaws, lfamily, repunit, search
from .lfamily import LFamily
from .repunit import RepunitKind

__all__ = ["ANCHORS", "GOLDEN_VALUES", "SQUARE_HITS", "ADMISSIBLE_T35", "ADMISSIBLE_T25"]

GOLDEN_VALUES: dict[tuple[str, int], int] = {
    ("L1", 1): 7,
    ("L1", 3): 73,
    ("L1", 9): 262657,
    ("L2", 1): 5,
    ("L2", 2): 19,
    ("L2", 3): 71,
    ("L2", 4): 271,
    ("L2", 6): 4159,
    ("L2", 16): 4295032831,
    ("L3", 1): 3,
    ("L3", 2): 13,
    ("L3", 4): 241,
    ("L3", 32): 18446744069414584321,
    ("L4", 1): 1,
    ("L4", 2): 11,
    ("L4", 4): 239,
    ("L4", 5): 991,
    ("L4", 9): 261631,
    ("L4", 10): 1047551,
}

# Family -> hits (n, p, e), p^e exactly dividing L(n) with e >= 2, that a
# square-divisor scan to n <= 130, p <= 20 must find.  For L1 it also finds
# twelve more, eleven of them powers of 7 (Theorem 3).
SQUARE_HITS: dict[str, set[tuple[int, int, int]]] = {
    "L1": {(7, 7, 2), (104, 13, 2), (114, 19, 2)},
    "L2": {(68, 11, 3), (97, 11, 2)},
    "L3": {(26, 13, 2), (130, 13, 2), (57, 19, 2)},
    "L4": {(13, 11, 2), (42, 11, 2), (123, 11, 2), (52, 19, 2), (119, 19, 2)},
}

ADMISSIBLE_T35 = [t for t in range(1, 36, 2) if t % 3 != 0]
ADMISSIBLE_T25 = [t for t in range(1, 26, 2) if t % 3 != 0]


def _verify_golden_values() -> tuple[bool, str]:
    bad = [
        (fam, n)
        for (fam, n), expected in GOLDEN_VALUES.items()
        if lfamily.eval_exact(LFamily.parse(fam), n) != expected
    ]
    return not bad, f"{len(GOLDEN_VALUES)} fixed values" + (f"; wrong: {bad}" if bad else "")


def _verify_congruences() -> tuple[bool, str]:
    audit = search.run_scan(search.ScanSpec(kind="congruence_audit", n_max=10000))
    for rec in audit.records:
        if rec.verdict != "holds":
            d = rec.detail
            return False, f"{d['family']}: {d['description']} fails at n={d['first_violation']}"
    checked = 0
    for family in LFamily:
        report = search.scan_square_divisors(family, 130, 20)
        for n, p, e in report.square_hits():
            if not lfamily.verify_statement1_orbit(family, n, p, 5):
                return False, f"first-order orbit fails at {family.name}, n={n}, p={p}"
            if not lfamily.verify_statement2_orbit(family, n, p, e, 1):
                return False, f"power orbit fails at {family.name}, n={n}, p={p}, t={e}"
            checked += 1
    return True, f"{len(audit.records)} rules to n=10000; orbit checks for {checked} square hits"


def _verify_gcd_grid(
    pair: Callable, cross_pair: Callable, cells: list[tuple[int, ...]], ts: list[int],
    cross_ts: list[int], labels: tuple[str, str, str],
) -> tuple[bool, str]:
    """The gcd law on a grid of insular index sets, one per cell of exponents:
    pair(*cell, t1, t2) must match for t1, t2 in ts, and cross_pair(*cell1, t1,
    *cell2, t2) must match (gcd 1) for two cells and t1, t2 in cross_ts.  labels
    names a cell in the passing detail and formats one and two cells for a failure."""
    cell_name, cell_at, cross_at = labels
    same = list(itertools.product(cells, ts, ts))
    cross = [q for q in itertools.product(cells, cells, cross_ts, cross_ts) if q[0] != q[1]]
    for cell, t1, t2 in same:
        if not pair(*cell, t1, t2)[1].match:
            return False, f"mismatch at {cell_at.format(*cell)}, t1={t1}, t2={t2}"
    for c1, c2, t1, t2 in cross:
        if not cross_pair(*c1, t1, *c2, t2)[1].match:
            return False, f"cross gcd != 1 at {cross_at.format(c1, c2)}, t1={t1}, t2={t2}"
    return True, f"{len(same)} same-{cell_name} pairs match; {len(cross)} cross pairs coprime"


def _verify_gcd_l1() -> tuple[bool, str]:
    cells = [(k,) for k in range(4)]
    return _verify_gcd_grid(
        gcdlaws.gcd_l1, gcdlaws.gcd_l1_cross, cells, ADMISSIBLE_T35, ADMISSIBLE_T35,
        ("exponent", "k={0}", "k1={0[0]}, k2={1[0]}"),
    )


def _verify_gcd_l3() -> tuple[bool, str]:
    cells = [(m, n) for m in range(3) for n in range(1, 5)]
    return _verify_gcd_grid(
        gcdlaws.gcd_l3, gcdlaws.gcd_l3_cross, cells, ADMISSIBLE_T25, ADMISSIBLE_T25[:3],
        ("cell", "m={0}, n={1}", "{0} x {1}"),
    )


def _verify_gcd_all_pairs() -> tuple[bool, str]:
    """gcd(L(i), L(j)) against gcdlaws._l_gcd on every pair 1 <= i <= j <=
    120 of L1 and of L3, insular or not."""
    indices = range(1, 121)
    pairs = 0
    for family in (LFamily.L1, LFamily.L3):
        values = {n: lfamily.eval_exact(family, n) for n in indices}
        for i, j in itertools.combinations_with_replacement(indices, 2):
            if math.gcd(values[i], values[j]) != gcdlaws._l_gcd(family, i, j):
                return False, f"{family.name}: gcd law fails at i={i}, j={j}"
            pairs += 1
    return True, f"{pairs} pairs i <= j <= 120 of L1 and L3 match the gcd law"


def _verify_gcd_repunit() -> tuple[bool, str]:
    checked = 0
    for b in (2, 3, 5, 10):
        for n in range(1, 41):
            for m in range(1, 41):
                if not repunit.gcd_repunit(b, n, m, RepunitKind.MINUS)[2]:
                    return False, f"minus mismatch at b={b}, n={n}, m={m}"
                checked += 1
        for n in range(1, 40, 2):
            for m in range(1, 40, 2):
                if not repunit.gcd_repunit(b, n, m, RepunitKind.PLUS)[2]:
                    return False, f"plus mismatch at b={b}, n={n}, m={m}"
                checked += 1
    return True, f"{checked} repunit pairs match"


def _verify_theorem3_grid() -> tuple[bool, str]:
    checked = 0
    for k in range(4):
        for n in range(1, 21):
            if n % 3 == 0:
                continue
            if not lfamily.verify_theorem3(k, n):
                return False, f"fails at k={k}, n={n}"
            checked += 1
    return True, f"{checked} (k, n) cells hold"


def _verify_product_identity() -> tuple[bool, str]:
    for k in range(7):
        if not lfamily.verify_product_identity(k):
            return False, f"product identity fails at k={k}"
    for i in range(6):
        for j in range(i + 1, 6):
            g, _ = gcdlaws.gcd_l1_cross(i, 1, j, 1)
            if g != 1:
                return False, f"gcd(L1(3^{i}), L1(3^{j})) = {g}"
    return True, "k <= 6 products exact; 3-power values pairwise coprime"


def _verify_desk_scans() -> tuple[bool, str]:
    checks = [
        (search.ScanSpec(kind="l2_prime_exponent", p_max=1000), {2, 3, 379}, "L2 prime exponents"),
        (search.ScanSpec(kind="l2_pow2", n_max=10), {1, 2, 4}, "L2 power-of-2 exponents"),
        (search.ScanSpec(kind="l3_pow2", n_max=10), {0, 1, 2, 5}, "L3 power-of-2 exponents"),
        (search.ScanSpec(kind="l1_pow3", k_max=5), {0, 1, 2}, "L1 power-of-3 exponents"),
    ]
    for spec, expected, label in checks:
        got = set(search.run_scan(spec).prime_indices())
        if got != expected:
            return False, f"{label}: got {sorted(got)}, expected {sorted(expected)}"
    twins, flagged = search.run_scan(search.ScanSpec(kind="l4_twins", n_max=603)).twin_pairs()
    if set(twins) != {(4, 5), (9, 10), (224, 225)} or flagged != [(1, 2)]:
        return False, f"twins: got {twins}, flagged {flagged}"
    return True, "all five desk-scale scans reproduce the expected index sets"


def _verify_square_hits() -> tuple[bool, str]:
    total = 0
    for family_name, expected in SQUARE_HITS.items():
        got = set(search.scan_square_divisors(family_name, 130, 20).square_hits())
        missing = expected - got
        if missing:
            return False, f"{family_name}: missing hits {sorted(missing)}"
        total += len(expected)
    return True, f"all {total} expected square hits reproduced within n <= 130, p <= 20"


def _verify_determinism() -> tuple[bool, str]:
    import random
    import tempfile  # only this anchor samples and writes files; other launches skip both

    spec = search.ScanSpec(kind="l4_twins", n_max=120)
    baseline = search.run_scan(spec).canonical_bytes()
    rng = random.Random(2026)
    total = 119
    with tempfile.TemporaryDirectory() as tmp:
        for i, cut in enumerate(sorted(rng.sample(range(1, total), 3))):
            path = os.path.join(tmp, f"cut{i}.jsonl")
            search.run_scan(spec, checkpoint_path=path, limit=cut)
            final = search.resume(path)
            if final.canonical_bytes() != baseline:
                return False, f"resumed run after cut at {cut} differs"
    parallel = search.run_scan(spec, jobs=8).canonical_bytes()
    if parallel != baseline:
        return False, "jobs=8 run differs from jobs=1"
    return True, "3 interrupted/resumed runs and a jobs=8 run are byte-identical"


def _verify_oracles() -> tuple[bool, str]:
    # Looked up once per call, not once per value: 10^6 and 255,744 calls below.
    is_prime, residue = arith.is_prime, lfamily.residue
    limit = 10**6
    sieve = bytearray(b"\x01") * (limit + 1)
    sieve[0] = sieve[1] = 0
    for p in range(2, math.isqrt(limit) + 1):
        if sieve[p]:
            sieve[p * p :: p] = bytearray(len(sieve[p * p :: p]))
    for n in range(2, limit + 1):
        expected = "prime" if sieve[n] else "composite"
        if is_prime(n).classification != expected:
            return False, f"primality disagrees with the sieve at {n}"
    if is_prime(1).classification != "unit":
        return False, "1 is not classified as a unit"
    for family in LFamily:
        for n in range(1, 65):
            value = lfamily.eval_exact(family, n)
            for m in range(2, 1001):
                if residue(family, n, m) != value % m:
                    return False, f"residue disagrees at {family.name}({n}) mod {m}"
    return True, "primality to 10^6 and residues (n <= 64, m <= 1000) agree"


ANCHORS: dict[str, Callable[[], tuple[bool, str]]] = {
    "golden-values": _verify_golden_values,
    "congruence-orbits": _verify_congruences,
    "gcd-insularity-l1": _verify_gcd_l1,
    "gcd-insularity-l3": _verify_gcd_l3,
    "gcd-all-pairs": _verify_gcd_all_pairs,
    "gcd-insularity-repunit": _verify_gcd_repunit,
    "seven-power-orbit": _verify_theorem3_grid,
    "product-identity": _verify_product_identity,
    "desk-scans": _verify_desk_scans,
    "square-divisors": _verify_square_hits,
    "scan-determinism": _verify_determinism,
    "oracle-cross-checks": _verify_oracles,
}
