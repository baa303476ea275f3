"""Command-line front end.

Every subcommand supports a human-readable table form (default) and a
structured form (--json, one JSON object per line) in which all integers
are exact decimal strings.  Headers always carry the engine version and,
where randomness is involved, the seed and round count, so any verdict can
be reproduced.  Verification commands exit 0 only when every requested
check passed; scans exit 0 only when they ran to completion.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import random
import sys
import tempfile
from typing import Any, Callable

from . import __version__
from .arith import (
    DEFAULT_EXTRA_ROUNDS,
    FactorBudgetError,
    OrderSearchError,
    is_prime,
    lemma2_witness,
    multiplicative_order,
)
from .gcdlaws import (
    GcdCheckRecord,
    IndexSetSpec,
    gcd_l1,
    gcd_l1_cross,
    gcd_l3,
    gcd_l3_cross,
    insularity_harness,
)
from .lfamily import (
    BudgetExceededError,
    LFamily,
    builtin_congruence_rules,
    eval_exact,
    residue,
    verify_product_identity,
    verify_statement1_orbit,
    verify_statement2_orbit,
    verify_theorem3,
)
from .repunit import RepunitKind, gcd_repunit, repunit
from .search import (
    SCAN_KINDS,
    ResumeError,
    ScanReport,
    ScanSpec,
    _header_line,
    _record_line,
    _summary,
    resume,
    run_scan,
    scan_l1_pow3,
    scan_l2_pow2,
    scan_l2_prime_exponents,
    scan_l3_pow2,
    scan_l4_twins,
    scan_square_divisors,
)

__all__ = ["main", "VERIFICATIONS"]

_ELLIPSIS = "…"


def _decimal(value: Any) -> Any:
    """Recursively turn ints into exact decimal strings for structured output."""
    if isinstance(value, bool) or value is None:
        return value
    if isinstance(value, int):
        return str(value)
    if isinstance(value, (list, tuple)):
        return [_decimal(v) for v in value]
    if isinstance(value, dict):
        return {k: _decimal(v) for k, v in value.items()}
    return value


def _elide(text: str, cap: int | None) -> str:
    """Display-only middle elision; structured output is never elided."""
    if cap is None or len(text) <= cap:
        return text
    head = max(1, cap // 2)
    tail = max(1, cap - head)
    return f"{text[:head]}{_ELLIPSIS}{text[-tail:]}({len(text)} digits)"


class _Output:
    """Where a handler writes: every line is one JSON object under --json and
    table text otherwise, and header and result lines name args.command."""

    def __init__(self, args: argparse.Namespace):
        self.command = args.command
        self.json = args.json
        self.digits_cap = args.digits_cap

    def line(self, obj: dict[str, Any], table_lines: list[str]) -> None:
        if self.json:
            print(json.dumps(obj, sort_keys=True, separators=(",", ":")))
        else:
            for text in table_lines:
                print(text)

    def header(
        self, params: dict[str, Any], seed: int | None = None, extra_rounds: int | None = None
    ) -> None:
        provenance: dict[str, Any] = {"engine": "lseq", "version": __version__}
        if seed is not None:
            provenance["seed"] = seed
        if extra_rounds is not None:
            provenance["extra_rounds"] = extra_rounds
        pairs = " ".join(f"{k}={v}" for k, v in params.items() if v is not None)
        extras = " ".join(f"{k}={v}" for k, v in provenance.items() if k != "engine")
        parts = [p for p in (f"# lseq {self.command}", pairs, f"[{extras}]") if p]
        self.line(
            {
                "type": "header",
                "command": self.command,
                "params": _decimal(params),
                "provenance": provenance,
            },
            [" ".join(parts)],
        )

    def result(
        self, anchor: str, result: dict[str, Any], lines: list[str], ok: bool = True
    ) -> int:
        """Write the result; return the exit code, 0 when ok, else 1."""
        self.line(
            {
                "type": "result",
                "command": self.command,
                "anchor": anchor,
                "result": _decimal(result),
            },
            lines,
        )
        return 0 if ok else 1

    def num(self, value: int) -> str:
        return _elide(str(value), self.digits_cap)


def _cmd_eval(args: argparse.Namespace, out: _Output) -> int:
    family = LFamily.parse(args.family)
    value = eval_exact(family, args.n, bit_budget=args.bit_budget)
    out.header({"family": family.name, "n": args.n})
    return out.result(
        "sequence-values",
        {"value": value},
        [f"{family.name}({args.n}) = {out.num(value)}"],
    )


def _cmd_residue(args: argparse.Namespace, out: _Output) -> int:
    family = LFamily.parse(args.family)
    r = residue(family, args.n, args.m)
    out.header({"family": family.name, "n": args.n, "m": args.m})
    return out.result(
        "congruence-residues",
        {"residue": r},
        [f"{family.name}({args.n}) mod {args.m} = {r}"],
    )


def _cmd_prime_check(args: argparse.Namespace, out: _Output) -> int:
    n = int(args.n)
    verdict = is_prime(n, extra_rounds=args.extra_rounds, seed=args.seed)
    out.header({"n": n}, seed=args.seed, extra_rounds=args.extra_rounds)
    return out.result(
        "primality",
        {
            "classification": verdict.classification,
            "evidence": verdict.evidence,
            "rounds": verdict.rounds,
        },
        [f"{out.num(n)}: {verdict.classification} (evidence={verdict.evidence}, rounds={verdict.rounds})"],
    )


def _cmd_order(args: argparse.Namespace, out: _Output) -> int:
    order = multiplicative_order(args.a, args.m).order
    out.header({"a": args.a, "m": args.m})
    return out.result(
        "multiplicative-order",
        {"order": order},
        [f"order of {args.a} mod {args.m} = {order}"],
    )


def _cmd_lemma2_witness(args: argparse.Namespace, out: _Output) -> int:
    q = lemma2_witness(args.k)
    out.header({"k": args.k})
    return out.result(
        "order-power-of-3-witness",
        {"q": q, "order": 3**args.k},
        [f"prime {out.num(q)} has multiplicative order 3^{args.k} = {3 ** args.k} for base 2"],
    )


def _gcd_result(out: _Output, family: str, record: GcdCheckRecord) -> int:
    """Result of gcd-l1 and gcd-l3: the gcd of one index pair against the law."""
    i, j = record.index_pair
    computed, predicted, match = record.computed, record.predicted, record.match
    return out.result(
        f"gcd-insularity-{family.lower()}",
        {"indices": [i, j], "gcd": computed, "predicted": predicted, "match": match},
        [
            f"gcd({family}({i}), {family}({j})) = {out.num(computed)}",
            f"predicted {out.num(predicted)} -> {'match' if match else 'MISMATCH'}",
        ],
        match,
    )


def _cmd_gcd_l1(args: argparse.Namespace, out: _Output) -> int:
    if args.k1 == args.k2:
        _, record = gcd_l1(args.k1, args.t1, args.t2)
    else:
        _, record = gcd_l1_cross(args.k1, args.t1, args.k2, args.t2)
    out.header({"k1": args.k1, "t1": args.t1, "k2": args.k2, "t2": args.t2})
    return _gcd_result(out, "L1", record)


def _cmd_gcd_l3(args: argparse.Namespace, out: _Output) -> int:
    if (args.m1, args.n1) == (args.m2, args.n2):
        _, record = gcd_l3(args.m1, args.n1, args.t1, args.t2)
    else:
        _, record = gcd_l3_cross(args.m1, args.n1, args.t1, args.m2, args.n2, args.t2)
    out.header(
        {
            "m1": args.m1,
            "n1": args.n1,
            "t1": args.t1,
            "m2": args.m2,
            "n2": args.n2,
            "t2": args.t2,
        },
    )
    return _gcd_result(out, "L3", record)


def _cmd_gcd_repunit(args: argparse.Namespace, out: _Output) -> int:
    kind = RepunitKind.parse(args.kind)
    computed, predicted, match = gcd_repunit(args.b, args.n, args.m, kind)
    out.header({"b": args.b, "n": args.n, "m": args.m, "kind": kind.value})
    return out.result(
        "gcd-insularity-repunit",
        {"gcd": computed, "predicted": predicted, "match": match},
        [
            f"gcd = {out.num(computed)}, predicted {out.num(predicted)}"
            f" -> {'match' if match else 'MISMATCH'}"
        ],
        match,
    )


def _cmd_insularity(args: argparse.Namespace, out: _Output) -> int:
    if args.sequence.upper() == "L1":
        spec = IndexSetSpec("structured", pow3=args.pow3, pow2=0, bound=args.bound)
        seq: Callable[[int], int] = lambda n: eval_exact(LFamily.L1, n)
        label = f"L1[3^{args.pow3}*t]"
    elif args.sequence.upper() == "L3":
        spec = IndexSetSpec("structured", pow3=args.pow3, pow2=args.pow2, bound=args.bound)
        seq = lambda n: eval_exact(LFamily.L3, n)
        label = f"L3[3^{args.pow3}*2^{args.pow2}*t]"
    elif args.sequence.lower() == "repunit":
        kind = RepunitKind.parse(args.kind)
        base = args.b
        spec = IndexSetSpec("all" if kind is RepunitKind.MINUS else "odd", bound=args.bound)
        seq = lambda n: repunit(base, n, kind)
        label = f"repunit[b={base},{kind.value}]"
    else:
        raise ValueError(
            f"unknown sequence {args.sequence!r}; expected L1, L3, or repunit"
        )
    records = insularity_harness(seq, spec, args.pairs, seed=args.seed)
    matches = sum(1 for r in records if r.match)
    out.header({"sequence": label, "pairs": args.pairs, "bound": args.bound}, seed=args.seed)
    for record in records:
        i, j = record.index_pair
        computed, predicted, match = record.computed, record.predicted, record.match
        fields = {"indices": [i, j], "gcd": computed, "predicted": predicted, "match": match}
        out.line(
            {"type": "record", **_decimal(fields)},
            [f"({i}, {j}): gcd={out.num(computed)} {'match' if match else 'MISMATCH'}"],
        )
    return out.result(
        "gcd-insularity-sampled",
        {"pairs": len(records), "matches": matches},
        [f"{matches}/{len(records)} pairs match"],
        matches == len(records),
    )


def _cmd_orbit(args: argparse.Namespace, out: _Output) -> int:
    family = LFamily.parse(args.family)
    if args.statement == 1:
        params = {"family": family.name, "l": args.l, "p": args.p, "k_max": args.k_max}
        ok = verify_statement1_orbit(family, args.l, args.p, args.k_max)
        description = f"{family.name}({args.l} + ({args.p}-1)k) = 0 mod {args.p} for k <= {args.k_max}"
    else:
        params = {
            "family": family.name,
            "l": args.l,
            "p": args.p,
            "t": args.t,
            "n_max": args.n_max,
        }
        ok = verify_statement2_orbit(family, args.l, args.p, args.t, args.n_max)
        description = (
            f"{family.name}({args.p}^(N+{args.t}) - {args.p}^{args.t - 1} + {args.l})"
            f" = 0 mod {args.p}^{args.t} for N <= {args.n_max}"
        )
    out.header({"statement": args.statement, **params})
    return out.result(
        "divisibility-orbits",
        {"holds": ok},
        [f"{description}: {'holds' if ok else 'FAILS'}"],
        ok,
    )


def _cmd_theorem3(args: argparse.Namespace, out: _Output) -> int:
    ok = verify_theorem3(args.k, args.n)
    out.header({"k": args.k, "n": args.n})
    return out.result(
        "seven-power-orbit",
        {"holds": ok},
        [f"7^{args.k + 1} divides L1(7^{args.k} * {args.n}): {'holds' if ok else 'FAILS'}"],
        ok,
    )


def _cmd_product_identity(args: argparse.Namespace, out: _Output) -> int:
    ok = verify_product_identity(args.k, bit_budget=args.bit_budget)
    out.header({"k": args.k})
    return out.result(
        "product-identity",
        {"holds": ok},
        [
            f"L1(1) * L1(3) * ... * L1(3^{args.k}) == 2^(3^{args.k + 1}) - 1:"
            f" {'holds' if ok else 'FAILS'}"
        ],
        ok,
    )


def _cmd_repunit(args: argparse.Namespace, out: _Output) -> int:
    kind = RepunitKind.parse(args.kind)
    value = repunit(args.b, args.n, kind)
    out.header({"b": args.b, "n": args.n, "kind": kind.value})
    return out.result(
        "repunit-values",
        {"value": value},
        [f"repunit(b={args.b}, n={args.n}, {kind.value}) = {out.num(value)}"],
    )


def _report_lines(out: _Output, report: ScanReport) -> int:
    """Write a scan's journal lines and summary.  The exit code is 1 while the
    scan is incomplete or when a record is "violated" (a congruence rule
    failed), else 0."""
    spec = report.spec
    out.line(
        _header_line(spec),
        [
            f"# lseq scan kind={spec.kind} spec={spec.canonical()}"
            f" [version={__version__} seed={spec.seed} extra_rounds={spec.extra_rounds}]"
        ],
    )
    for pos, rec in enumerate(report.records):
        brief = rec.verdict
        if "hits" in rec.detail:
            brief += f" {rec.detail['hits']}"
        elif "evidence" in rec.detail and rec.detail["evidence"]:
            brief += f" ({rec.detail['evidence']})"
        out.line(_record_line(pos, rec), [f"{pos:>6}  index={','.join(map(str, rec.index))}  {brief}"])
    fields, line = _summary(report)
    summary = {
        "type": "summary",
        "completed_through": report.completed_through,
        "total": report.total,
        "complete": report.complete,
        **fields,
    }
    out.line(
        _decimal(summary),
        [
            f"completed {report.completed_through}/{report.total}"
            + ("" if report.complete else " (incomplete)"),
            line,
        ],
    )
    return int(not report.complete or any(r.verdict == "violated" for r in report.records))


def _cmd_scan(args: argparse.Namespace, out: _Output) -> int:
    spec = ScanSpec(
        kind=args.kind.replace("-", "_"),
        family=args.family,
        n_max=args.n_max,
        p_max=args.p_max,
        m_max=args.m_max,
        k_max=args.k_max,
        extra_rounds=args.extra_rounds,
        seed=args.seed,
    )
    report = run_scan(
        spec,
        jobs=args.jobs,
        checkpoint_path=args.checkpoint,
        limit=args.limit,
        fsync=args.fsync,
    )
    return _report_lines(out, report)


def _cmd_resume(args: argparse.Namespace, out: _Output) -> int:
    report = resume(args.path, jobs=args.jobs, limit=args.limit, fsync=args.fsync)
    return _report_lines(out, report)


# --- verify-paper fixtures ------------------------------------------------

_GOLDEN_VALUES: dict[tuple[str, int], int] = {
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

_EXPECTED_SQUARE_HITS: dict[str, set[tuple[int, int, int]]] = {
    "L1": {(7, 7, 2), (104, 13, 2), (114, 19, 2)},
    "L2": {(68, 11, 3), (97, 11, 2)},
    "L3": {(26, 13, 2), (130, 13, 2), (57, 19, 2)},
    "L4": {(13, 11, 2), (42, 11, 2), (123, 11, 2), (52, 19, 2), (119, 19, 2)},
}

_ADMISSIBLE_T35 = [t for t in range(1, 36, 2) if t % 3 != 0]
_ADMISSIBLE_T25 = [t for t in range(1, 26, 2) if t % 3 != 0]


def _verify_golden_values() -> tuple[bool, str]:
    bad = [
        (fam, n)
        for (fam, n), expected in _GOLDEN_VALUES.items()
        if eval_exact(LFamily.parse(fam), n) != expected
    ]
    return not bad, f"{len(_GOLDEN_VALUES)} fixed values" + (f"; wrong: {bad}" if bad else "")


def _verify_congruences() -> tuple[bool, str]:
    for family in LFamily:
        for rule in builtin_congruence_rules(family):
            if not rule.holds_through(10000):
                return False, f"rule {rule} fails below 10000"
    checked = 0
    for family in LFamily:
        report = scan_square_divisors(family, 130, 20)
        for n, p, e in report.square_hits():
            if not verify_statement1_orbit(family, n, p, 5):
                return False, f"first-order orbit fails at {family.name}, n={n}, p={p}"
            if not verify_statement2_orbit(family, n, p, e, 1):
                return False, f"power orbit fails at {family.name}, n={n}, p={p}, t={e}"
            checked += 1
    return True, f"8 rules to n=10000; orbit checks for {checked} square hits"


def _verify_gcd_l1() -> tuple[bool, str]:
    same = cross = 0
    for k in range(4):
        for t1 in _ADMISSIBLE_T35:
            for t2 in _ADMISSIBLE_T35:
                _, record = gcd_l1(k, t1, t2)
                if not record.match:
                    return False, f"mismatch at k={k}, t1={t1}, t2={t2}"
                same += 1
    for k1 in range(4):
        for k2 in range(4):
            if k1 == k2:
                continue
            for t1 in _ADMISSIBLE_T35:
                for t2 in _ADMISSIBLE_T35:
                    value, _ = gcd_l1_cross(k1, t1, k2, t2)
                    if value != 1:
                        return False, f"cross gcd != 1 at k1={k1}, k2={k2}, t1={t1}, t2={t2}"
                    cross += 1
    return True, f"{same} same-exponent pairs match; {cross} cross pairs coprime"


def _verify_gcd_l3() -> tuple[bool, str]:
    same = cross = 0
    cells = [(m, n) for m in range(3) for n in range(1, 5)]
    for m, n in cells:
        for t1 in _ADMISSIBLE_T25:
            for t2 in _ADMISSIBLE_T25:
                _, record = gcd_l3(m, n, t1, t2)
                if not record.match:
                    return False, f"mismatch at m={m}, n={n}, t1={t1}, t2={t2}"
                same += 1
    for c1 in cells:
        for c2 in cells:
            if c1 == c2:
                continue
            for t1 in _ADMISSIBLE_T25[:3]:
                for t2 in _ADMISSIBLE_T25[:3]:
                    value, _ = gcd_l3_cross(c1[0], c1[1], t1, c2[0], c2[1], t2)
                    if value != 1:
                        return False, f"cross gcd != 1 at {c1} x {c2}, t1={t1}, t2={t2}"
                    cross += 1
    return True, f"{same} same-cell pairs match; {cross} cross pairs coprime"


def _verify_gcd_repunit() -> tuple[bool, str]:
    checked = 0
    for b in (2, 3, 5, 10):
        for n in range(1, 41):
            for m in range(1, 41):
                if not gcd_repunit(b, n, m, RepunitKind.MINUS)[2]:
                    return False, f"minus mismatch at b={b}, n={n}, m={m}"
                checked += 1
        for n in range(1, 40, 2):
            for m in range(1, 40, 2):
                if not gcd_repunit(b, n, m, RepunitKind.PLUS)[2]:
                    return False, f"plus mismatch at b={b}, n={n}, m={m}"
                checked += 1
    return True, f"{checked} repunit pairs match"


def _verify_theorem3_grid() -> tuple[bool, str]:
    checked = 0
    for k in range(4):
        for n in range(1, 21):
            if n % 3 == 0:
                continue
            if not verify_theorem3(k, n):
                return False, f"fails at k={k}, n={n}"
            checked += 1
    return True, f"{checked} (k, n) cells hold"


def _verify_product_identity() -> tuple[bool, str]:
    for k in range(7):
        if not verify_product_identity(k):
            return False, f"product identity fails at k={k}"
    for i in range(6):
        for j in range(i + 1, 6):
            g = math.gcd(eval_exact(LFamily.L1, 3**i), eval_exact(LFamily.L1, 3**j))
            if g != 1:
                return False, f"gcd(L1(3^{i}), L1(3^{j})) = {g}"
    return True, "k <= 6 products exact; 3-power values pairwise coprime"


def _verify_desk_scans() -> tuple[bool, str]:
    checks = [
        (set(scan_l2_prime_exponents(1000).prime_indices()), {2, 3, 379}, "L2 prime exponents"),
        (set(scan_l2_pow2(10).prime_indices()), {1, 2, 4}, "L2 power-of-2 exponents"),
        (set(scan_l3_pow2(10).prime_indices()), {0, 1, 2, 5}, "L3 power-of-2 exponents"),
        (set(scan_l1_pow3(5).prime_indices()), {0, 1, 2}, "L1 power-of-3 exponents"),
    ]
    for got, expected, label in checks:
        if got != expected:
            return False, f"{label}: got {sorted(got)}, expected {sorted(expected)}"
    twins, flagged = scan_l4_twins(603).twin_pairs()
    if set(twins) != {(4, 5), (9, 10), (224, 225)} or flagged != [(1, 2)]:
        return False, f"twins: got {twins}, flagged {flagged}"
    return True, "all five desk-scale scans reproduce the expected index sets"


def _verify_square_hits() -> tuple[bool, str]:
    total = 0
    for family_name, expected in _EXPECTED_SQUARE_HITS.items():
        got = set(scan_square_divisors(family_name, 130, 20).square_hits())
        missing = expected - got
        if missing:
            return False, f"{family_name}: missing hits {sorted(missing)}"
        total += len(expected)
    return True, f"all {total} expected square hits reproduced within n <= 130, p <= 20"


def _verify_determinism() -> tuple[bool, str]:
    spec = ScanSpec(kind="l4_twins", n_max=120, seed=1)
    baseline = run_scan(spec).canonical_bytes()
    rng = random.Random(2026)
    total = 119
    with tempfile.TemporaryDirectory() as tmp:
        for i, cut in enumerate(sorted(rng.sample(range(1, total), 3))):
            path = os.path.join(tmp, f"cut{i}.jsonl")
            run_scan(spec, checkpoint_path=path, limit=cut)
            final = resume(path)
            if final.canonical_bytes() != baseline:
                return False, f"resumed run after cut at {cut} differs"
    parallel = run_scan(spec, jobs=8).canonical_bytes()
    if parallel != baseline:
        return False, "jobs=8 run differs from jobs=1"
    return True, "3 interrupted/resumed runs and a jobs=8 run are byte-identical"


def _verify_oracles() -> tuple[bool, str]:
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
            value = eval_exact(family, n)
            for m in range(2, 1001):
                if residue(family, n, m) != value % m:
                    return False, f"residue disagrees at {family.name}({n}) mod {m}"
    return True, "primality to 10^6 and residues (n <= 64, m <= 1000) agree"


VERIFICATIONS: list[tuple[str, Callable[[], tuple[bool, str]]]] = [
    ("golden-values", _verify_golden_values),
    ("congruence-orbits", _verify_congruences),
    ("gcd-insularity-l1", _verify_gcd_l1),
    ("gcd-insularity-l3", _verify_gcd_l3),
    ("gcd-insularity-repunit", _verify_gcd_repunit),
    ("seven-power-orbit", _verify_theorem3_grid),
    ("product-identity", _verify_product_identity),
    ("desk-scans", _verify_desk_scans),
    ("square-divisors", _verify_square_hits),
    ("scan-determinism", _verify_determinism),
    ("oracle-cross-checks", _verify_oracles),
]


def _cmd_verify_paper(args: argparse.Namespace, out: _Output) -> int:
    selected = None
    if args.only:
        selected = {name.strip() for name in args.only.split(",")}
        known = {anchor for anchor, _ in VERIFICATIONS}
        unknown = selected - known
        if unknown:
            raise ValueError(f"unknown anchors {sorted(unknown)}; known: {sorted(known)}")
    out.header({"only": args.only}, seed=0, extra_rounds=DEFAULT_EXTRA_ROUNDS)
    all_ok = True
    for anchor, check in VERIFICATIONS:
        if selected is not None and anchor not in selected:
            continue
        ok, detail = check()
        all_ok = all_ok and ok
        out.line(
            {"type": "check", "anchor": anchor, "pass": ok, "detail": detail},
            [f"{'PASS' if ok else 'FAIL'}  {anchor:<24} {detail}"],
        )
    return out.result(
        "verification-suite",
        {"pass": all_ok},
        [f"overall: {'PASS' if all_ok else 'FAIL'}"],
        all_ok,
    )


_Argument = tuple[str, dict[str, Any]]  # flag, add_argument settings


def _ints(*flags: str) -> list[_Argument]:
    """Required integer options."""
    return [(flag, {"type": int, "required": True}) for flag in flags]


def _int(flag: str, default: int | None, help_text: str | None = None) -> _Argument:
    """An optional integer option."""
    return flag, {"type": int, "default": default, "help": help_text}


_FAMILY = ("--family", {"required": True})
_SEED = _int("--seed", 0)
_EXTRA_ROUNDS = _int("--extra-rounds", DEFAULT_EXTRA_ROUNDS)
_FSYNC = ("--fsync", {"action": "store_true"})
_REPUNIT_KINDS = ["minus", "plus"]

# Subcommand name -> (help, handler, options).  Every subcommand also takes
# --json and --digits-cap.  Handlers call library functions through this
# module's globals, so a caller that replaces one here (the benchmark's
# tracer does) sees every call.
_COMMANDS: dict[str, tuple[str, Callable[[argparse.Namespace, _Output], int], list[_Argument]]] = {
    "eval": (
        "exact sequence value",
        _cmd_eval,
        [_FAMILY, *_ints("--n"), _int("--bit-budget", 1 << 26)],
    ),
    "residue": (
        "sequence value mod m without full evaluation",
        _cmd_residue,
        [_FAMILY, *_ints("--n", "--m")],
    ),
    "prime-check": (
        "classify an integer",
        _cmd_prime_check,
        [("--n", {"required": True, "help": "decimal integer"}), _EXTRA_ROUNDS, _SEED],
    ),
    "order": ("multiplicative order of a mod m", _cmd_order, _ints("--a", "--m")),
    "lemma2-witness": (
        "prime q with order of 2 mod q exactly 3^k",
        _cmd_lemma2_witness,
        _ints("--k"),
    ),
    "gcd-l1": (
        "gcd law for L1 indices 3^k * t",
        _cmd_gcd_l1,
        _ints("--k1", "--t1", "--k2", "--t2"),
    ),
    "gcd-l3": (
        "gcd law for L3 indices 3^m * 2^n * t",
        _cmd_gcd_l3,
        _ints("--m1", "--n1", "--t1", "--m2", "--n2", "--t2"),
    ),
    "gcd-repunit": (
        "gcd law for generalized repunits",
        _cmd_gcd_repunit,
        [*_ints("--b", "--n", "--m"), ("--kind", {"required": True, "choices": _REPUNIT_KINDS})],
    ),
    "insularity": (
        "sample index pairs and check the gcd law",
        _cmd_insularity,
        [
            ("--sequence", {"required": True, "help": "L1, L3, or repunit"}),
            _int("--pow3", 0),
            _int("--pow2", 1),
            _int("--b", 10),
            ("--kind", {"default": "minus", "choices": _REPUNIT_KINDS}),
            _int("--bound", 10_000),
            _int("--pairs", 20),
            _SEED,
        ],
    ),
    "orbit": (
        "check a divisibility orbit",
        _cmd_orbit,
        [
            ("--statement", {"type": int, "required": True, "choices": [1, 2]}),
            _FAMILY,
            *_ints("--l", "--p"),
            _int("--t", 1),
            _int("--k-max", 50),
            _int("--n-max", 2),
        ],
    ),
    "theorem3": ("check 7^(k+1) | L1(7^k * n)", _cmd_theorem3, _ints("--k", "--n")),
    "product-identity": (
        "check the power-of-3 product identity",
        _cmd_product_identity,
        [*_ints("--k"), _int("--bit-budget", 1 << 12)],
    ),
    "repunit": (
        "generalized repunit value",
        _cmd_repunit,
        [*_ints("--b", "--n"), ("--kind", {"required": True, "choices": _REPUNIT_KINDS})],
    ),
    "scan": (
        "run a search scan",
        _cmd_scan,
        [
            ("--kind", {"required": True, "choices": [k.replace("_", "-") for k in SCAN_KINDS]}),
            ("--family", {}),
            *[_int(flag, None) for flag in ("--n-max", "--p-max", "--m-max", "--k-max")],
            _SEED,
            _EXTRA_ROUNDS,
            _int("--jobs", None, "default: LSEQ_JOBS or 1"),
            ("--checkpoint", {"help": "journal progress to this file"}),
            _int("--limit", None, "evaluate at most this many candidates"),
            _FSYNC,
        ],
    ),
    "resume": (
        "continue a checkpointed scan",
        _cmd_resume,
        [("--path", {"required": True}), _int("--jobs", None), _int("--limit", None), _FSYNC],
    ),
    "verify-paper": (
        "run the verification fixture suite",
        _cmd_verify_paper,
        [("--only", {"help": "comma-separated anchors to run"})],
    ),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lseq",
        description="Evaluate, verify, and search the sequences 2^(2n) +/- 2^n +/- 1.",
    )
    parser.add_argument("--version", action="version", version=f"lseq {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, _, options) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        for flag, settings in options:
            p.add_argument(flag, **settings)
        p.add_argument(
            "--json", action="store_true", help="structured output, one JSON object per line"
        )
        p.add_argument(
            "--digits-cap",
            type=int,
            default=None,
            help="elide the middle of long numbers in table output (display only)",
        )
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        code = _COMMANDS[args.command][1](args, _Output(args))
        sys.stdout.flush()  # a closed pipe then shows up here, not at exit
        return code
    except BrokenPipeError:
        # The reader went away (`lseq ... | head`).  Later flushes, including
        # the one at interpreter exit, go to devnull; exit as SIGPIPE would.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 141
    except (
        ValueError,
        BudgetExceededError,
        FactorBudgetError,
        OrderSearchError,
        ResumeError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
