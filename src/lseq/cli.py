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


def _provenance(seed: int | None = None, extra_rounds: int | None = None) -> dict[str, Any]:
    info: dict[str, Any] = {"engine": "lseq", "version": __version__}
    if seed is not None:
        info["seed"] = seed
    if extra_rounds is not None:
        info["extra_rounds"] = extra_rounds
    return info


class _Output:
    def __init__(self, args: argparse.Namespace):
        self.json = bool(getattr(args, "json", False))
        self.digits_cap = getattr(args, "digits_cap", None)

    def header(self, command: str, params: dict[str, Any], provenance: dict[str, Any]) -> None:
        if self.json:
            print(
                json.dumps(
                    {
                        "type": "header",
                        "command": command,
                        "params": _decimal(params),
                        "provenance": provenance,
                    },
                    sort_keys=True,
                    separators=(",", ":"),
                )
            )
        else:
            pairs = " ".join(f"{k}={v}" for k, v in params.items() if v is not None)
            extras = " ".join(f"{k}={v}" for k, v in provenance.items() if k != "engine")
            parts = [p for p in (f"# lseq {command}", pairs, f"[{extras}]") if p]
            print(" ".join(parts))

    def result(self, command: str, anchor: str, result: dict[str, Any], table_lines: list[str]) -> None:
        if self.json:
            print(
                json.dumps(
                    {
                        "type": "result",
                        "command": command,
                        "anchor": anchor,
                        "result": _decimal(result),
                    },
                    sort_keys=True,
                    separators=(",", ":"),
                )
            )
        else:
            for line in table_lines:
                print(line)

    def raw_line(self, obj: dict[str, Any], table_line: str | None) -> None:
        if self.json:
            print(json.dumps(obj, sort_keys=True, separators=(",", ":")))
        elif table_line is not None:
            print(table_line)

    def num(self, value: int) -> str:
        return _elide(str(value), self.digits_cap)


def _cmd_eval(args: argparse.Namespace) -> int:
    family = LFamily.parse(args.family)
    out = _Output(args)
    value = eval_exact(family, args.n, bit_budget=args.bit_budget)
    out.header("eval", {"family": family.name, "n": args.n}, _provenance())
    out.result(
        "eval",
        "sequence-values",
        {"value": value},
        [f"{family.name}({args.n}) = {out.num(value)}"],
    )
    return 0


def _cmd_residue(args: argparse.Namespace) -> int:
    family = LFamily.parse(args.family)
    out = _Output(args)
    r = residue(family, args.n, args.m)
    out.header("residue", {"family": family.name, "n": args.n, "m": args.m}, _provenance())
    out.result(
        "residue",
        "congruence-residues",
        {"residue": r},
        [f"{family.name}({args.n}) mod {args.m} = {r}"],
    )
    return 0


def _cmd_prime_check(args: argparse.Namespace) -> int:
    n = int(args.n)
    out = _Output(args)
    verdict = is_prime(n, extra_rounds=args.extra_rounds, seed=args.seed)
    out.header(
        "prime-check",
        {"n": n},
        _provenance(seed=args.seed, extra_rounds=args.extra_rounds),
    )
    out.result(
        "prime-check",
        "primality",
        {
            "classification": verdict.classification,
            "evidence": verdict.evidence,
            "rounds": verdict.rounds,
        },
        [f"{out.num(n)}: {verdict.classification} (evidence={verdict.evidence}, rounds={verdict.rounds})"],
    )
    return 0


def _cmd_order(args: argparse.Namespace) -> int:
    out = _Output(args)
    result = multiplicative_order(args.a, args.m)
    out.header("order", {"a": args.a, "m": args.m}, _provenance())
    out.result(
        "order",
        "multiplicative-order",
        {"order": result.order},
        [f"order of {args.a} mod {args.m} = {result.order}"],
    )
    return 0


def _cmd_lemma2_witness(args: argparse.Namespace) -> int:
    out = _Output(args)
    q = lemma2_witness(args.k)
    out.header("lemma2-witness", {"k": args.k}, _provenance())
    out.result(
        "lemma2-witness",
        "order-power-of-3-witness",
        {"q": q, "order": 3**args.k},
        [f"prime {out.num(q)} has multiplicative order 3^{args.k} = {3 ** args.k} for base 2"],
    )
    return 0


def _record_result(record: GcdCheckRecord) -> dict[str, Any]:
    return {
        "indices": list(record.index_pair),
        "gcd": record.computed,
        "predicted": record.predicted,
        "match": record.match,
    }


def _cmd_gcd_l1(args: argparse.Namespace) -> int:
    out = _Output(args)
    if args.k1 == args.k2:
        _, record = gcd_l1(args.k1, args.t1, args.t2)
    else:
        _, record = gcd_l1_cross(args.k1, args.t1, args.k2, args.t2)
    out.header(
        "gcd-l1",
        {"k1": args.k1, "t1": args.t1, "k2": args.k2, "t2": args.t2},
        _provenance(),
    )
    out.result(
        "gcd-l1",
        "gcd-insularity-l1",
        _record_result(record),
        [
            f"gcd(L1({record.index_pair[0]}), L1({record.index_pair[1]})) = {out.num(record.computed)}",
            f"predicted {out.num(record.predicted)} -> {'match' if record.match else 'MISMATCH'}",
        ],
    )
    return 0 if record.match else 1


def _cmd_gcd_l3(args: argparse.Namespace) -> int:
    out = _Output(args)
    if (args.m1, args.n1) == (args.m2, args.n2):
        _, record = gcd_l3(args.m1, args.n1, args.t1, args.t2)
    else:
        _, record = gcd_l3_cross(args.m1, args.n1, args.t1, args.m2, args.n2, args.t2)
    out.header(
        "gcd-l3",
        {
            "m1": args.m1,
            "n1": args.n1,
            "t1": args.t1,
            "m2": args.m2,
            "n2": args.n2,
            "t2": args.t2,
        },
        _provenance(),
    )
    out.result(
        "gcd-l3",
        "gcd-insularity-l3",
        _record_result(record),
        [
            f"gcd(L3({record.index_pair[0]}), L3({record.index_pair[1]})) = {out.num(record.computed)}",
            f"predicted {out.num(record.predicted)} -> {'match' if record.match else 'MISMATCH'}",
        ],
    )
    return 0 if record.match else 1


def _cmd_gcd_repunit(args: argparse.Namespace) -> int:
    out = _Output(args)
    kind = RepunitKind.parse(args.kind)
    computed, predicted, match = gcd_repunit(args.b, args.n, args.m, kind)
    out.header(
        "gcd-repunit",
        {"b": args.b, "n": args.n, "m": args.m, "kind": kind.value},
        _provenance(),
    )
    out.result(
        "gcd-repunit",
        "gcd-insularity-repunit",
        {"gcd": computed, "predicted": predicted, "match": match},
        [
            f"gcd = {out.num(computed)}, predicted {out.num(predicted)}"
            f" -> {'match' if match else 'MISMATCH'}"
        ],
    )
    return 0 if match else 1


def _cmd_insularity(args: argparse.Namespace) -> int:
    out = _Output(args)
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
    out.header(
        "insularity",
        {"sequence": label, "pairs": args.pairs, "bound": args.bound},
        _provenance(seed=args.seed),
    )
    for record in records:
        out.raw_line(
            {"type": "record", **_decimal(_record_result(record))},
            f"({record.index_pair[0]}, {record.index_pair[1]}):"
            f" gcd={out.num(record.computed)}"
            f" {'match' if record.match else 'MISMATCH'}",
        )
    out.result(
        "insularity",
        "gcd-insularity-sampled",
        {"pairs": len(records), "matches": matches},
        [f"{matches}/{len(records)} pairs match"],
    )
    return 0 if matches == len(records) else 1


def _cmd_orbit(args: argparse.Namespace) -> int:
    out = _Output(args)
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
    out.header("orbit", {"statement": args.statement, **params}, _provenance())
    out.result(
        "orbit",
        "divisibility-orbits",
        {"holds": ok},
        [f"{description}: {'holds' if ok else 'FAILS'}"],
    )
    return 0 if ok else 1


def _cmd_theorem3(args: argparse.Namespace) -> int:
    out = _Output(args)
    ok = verify_theorem3(args.k, args.n)
    out.header("theorem3", {"k": args.k, "n": args.n}, _provenance())
    out.result(
        "theorem3",
        "seven-power-orbit",
        {"holds": ok},
        [f"7^{args.k + 1} divides L1(7^{args.k} * {args.n}): {'holds' if ok else 'FAILS'}"],
    )
    return 0 if ok else 1


def _cmd_product_identity(args: argparse.Namespace) -> int:
    out = _Output(args)
    ok = verify_product_identity(args.k, bit_budget=args.bit_budget)
    out.header("product-identity", {"k": args.k}, _provenance())
    out.result(
        "product-identity",
        "product-identity",
        {"holds": ok},
        [
            f"L1(1) * L1(3) * ... * L1(3^{args.k}) == 2^(3^{args.k + 1}) - 1:"
            f" {'holds' if ok else 'FAILS'}"
        ],
    )
    return 0 if ok else 1


def _cmd_repunit(args: argparse.Namespace) -> int:
    out = _Output(args)
    kind = RepunitKind.parse(args.kind)
    value = repunit(args.b, args.n, kind)
    out.header("repunit", {"b": args.b, "n": args.n, "kind": kind.value}, _provenance())
    out.result(
        "repunit",
        "repunit-values",
        {"value": value},
        [f"repunit(b={args.b}, n={args.n}, {kind.value}) = {out.num(value)}"],
    )
    return 0


def _report_lines(out: _Output, report: ScanReport) -> None:
    spec = report.spec
    out.raw_line(
        _header_line(spec),
        f"# lseq scan kind={spec.kind} spec={spec.canonical()}"
        f" [version={__version__} seed={spec.seed} extra_rounds={spec.extra_rounds}]",
    )
    for pos, rec in enumerate(report.records):
        brief = rec.verdict
        if "hits" in rec.detail:
            brief += f" {rec.detail['hits']}"
        elif "evidence" in rec.detail and rec.detail["evidence"]:
            brief += f" ({rec.detail['evidence']})"
        out.raw_line(_record_line(pos, rec), f"{pos:>6}  index={','.join(map(str, rec.index))}  {brief}")
    fields, line = _summary(report)
    summary = {
        "type": "summary",
        "completed_through": report.completed_through,
        "total": report.total,
        "complete": report.complete,
        **fields,
    }
    out.raw_line(_decimal(summary), None)
    if not out.json:
        print(
            f"completed {report.completed_through}/{report.total}"
            + ("" if report.complete else " (incomplete)")
        )
        print(line)


def _scan_exit(report: ScanReport) -> int:
    """1 while incomplete or when a record is "violated" (a congruence rule
    failed), else 0."""
    return int(not report.complete or any(r.verdict == "violated" for r in report.records))


def _cmd_scan(args: argparse.Namespace) -> int:
    out = _Output(args)
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
    _report_lines(out, report)
    return _scan_exit(report)


def _cmd_resume(args: argparse.Namespace) -> int:
    out = _Output(args)
    report = resume(args.path, jobs=args.jobs, limit=args.limit, fsync=args.fsync)
    _report_lines(out, report)
    return _scan_exit(report)


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


def _cmd_verify_paper(args: argparse.Namespace) -> int:
    out = _Output(args)
    selected = None
    if args.only:
        selected = {name.strip() for name in args.only.split(",")}
        known = {anchor for anchor, _ in VERIFICATIONS}
        unknown = selected - known
        if unknown:
            raise ValueError(f"unknown anchors {sorted(unknown)}; known: {sorted(known)}")
    out.header("verify-paper", {"only": args.only}, _provenance(seed=0, extra_rounds=DEFAULT_EXTRA_ROUNDS))
    all_ok = True
    for anchor, check in VERIFICATIONS:
        if selected is not None and anchor not in selected:
            continue
        ok, detail = check()
        all_ok = all_ok and ok
        out.raw_line(
            {"type": "check", "anchor": anchor, "pass": ok, "detail": detail},
            f"{'PASS' if ok else 'FAIL'}  {anchor:<24} {detail}",
        )
    out.result(
        "verify-paper",
        "verification-suite",
        {"pass": all_ok},
        [f"overall: {'PASS' if all_ok else 'FAIL'}"],
    )
    return 0 if all_ok else 1


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--json", action="store_true", help="structured output, one JSON object per line")
    parser.add_argument(
        "--digits-cap",
        type=int,
        default=None,
        help="elide the middle of long numbers in table output (display only)",
    )


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lseq",
        description="Evaluate, verify, and search the sequences 2^(2n) +/- 2^n +/- 1.",
    )
    parser.add_argument("--version", action="version", version=f"lseq {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("eval", help="exact sequence value")
    p.add_argument("--family", required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--bit-budget", type=int, default=1 << 26)
    _add_common(p)
    p.set_defaults(handler=_cmd_eval)

    p = sub.add_parser("residue", help="sequence value mod m without full evaluation")
    p.add_argument("--family", required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    _add_common(p)
    p.set_defaults(handler=_cmd_residue)

    p = sub.add_parser("prime-check", help="classify an integer")
    p.add_argument("--n", required=True, help="decimal integer")
    p.add_argument("--extra-rounds", type=int, default=DEFAULT_EXTRA_ROUNDS)
    p.add_argument("--seed", type=int, default=0)
    _add_common(p)
    p.set_defaults(handler=_cmd_prime_check)

    p = sub.add_parser("order", help="multiplicative order of a mod m")
    p.add_argument("--a", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    _add_common(p)
    p.set_defaults(handler=_cmd_order)

    p = sub.add_parser("lemma2-witness", help="prime q with order of 2 mod q exactly 3^k")
    p.add_argument("--k", type=int, required=True)
    _add_common(p)
    p.set_defaults(handler=_cmd_lemma2_witness)

    p = sub.add_parser("gcd-l1", help="gcd law for L1 indices 3^k * t")
    p.add_argument("--k1", type=int, required=True)
    p.add_argument("--t1", type=int, required=True)
    p.add_argument("--k2", type=int, required=True)
    p.add_argument("--t2", type=int, required=True)
    _add_common(p)
    p.set_defaults(handler=_cmd_gcd_l1)

    p = sub.add_parser("gcd-l3", help="gcd law for L3 indices 3^m * 2^n * t")
    p.add_argument("--m1", type=int, required=True)
    p.add_argument("--n1", type=int, required=True)
    p.add_argument("--t1", type=int, required=True)
    p.add_argument("--m2", type=int, required=True)
    p.add_argument("--n2", type=int, required=True)
    p.add_argument("--t2", type=int, required=True)
    _add_common(p)
    p.set_defaults(handler=_cmd_gcd_l3)

    p = sub.add_parser("gcd-repunit", help="gcd law for generalized repunits")
    p.add_argument("--b", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--kind", required=True, choices=["minus", "plus"])
    _add_common(p)
    p.set_defaults(handler=_cmd_gcd_repunit)

    p = sub.add_parser("insularity", help="sample index pairs and check the gcd law")
    p.add_argument("--sequence", required=True, help="L1, L3, or repunit")
    p.add_argument("--pow3", type=int, default=0)
    p.add_argument("--pow2", type=int, default=1)
    p.add_argument("--b", type=int, default=10)
    p.add_argument("--kind", default="minus", choices=["minus", "plus"])
    p.add_argument("--bound", type=int, default=10_000)
    p.add_argument("--pairs", type=int, default=20)
    p.add_argument("--seed", type=int, default=0)
    _add_common(p)
    p.set_defaults(handler=_cmd_insularity)

    p = sub.add_parser("orbit", help="check a divisibility orbit")
    p.add_argument("--statement", type=int, required=True, choices=[1, 2])
    p.add_argument("--family", required=True)
    p.add_argument("--l", type=int, required=True)
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--t", type=int, default=1)
    p.add_argument("--k-max", type=int, default=50)
    p.add_argument("--n-max", type=int, default=2)
    _add_common(p)
    p.set_defaults(handler=_cmd_orbit)

    p = sub.add_parser("theorem3", help="check 7^(k+1) | L1(7^k * n)")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    _add_common(p)
    p.set_defaults(handler=_cmd_theorem3)

    p = sub.add_parser("product-identity", help="check the power-of-3 product identity")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--bit-budget", type=int, default=1 << 12)
    _add_common(p)
    p.set_defaults(handler=_cmd_product_identity)

    p = sub.add_parser("repunit", help="generalized repunit value")
    p.add_argument("--b", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--kind", required=True, choices=["minus", "plus"])
    _add_common(p)
    p.set_defaults(handler=_cmd_repunit)

    p = sub.add_parser("scan", help="run a search scan")
    p.add_argument(
        "--kind",
        required=True,
        choices=[kind.replace("_", "-") for kind in SCAN_KINDS],
    )
    p.add_argument("--family", default=None)
    p.add_argument("--n-max", type=int, default=None)
    p.add_argument("--p-max", type=int, default=None)
    p.add_argument("--m-max", type=int, default=None)
    p.add_argument("--k-max", type=int, default=None)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--extra-rounds", type=int, default=DEFAULT_EXTRA_ROUNDS)
    p.add_argument("--jobs", type=int, default=None, help="default: LSEQ_JOBS or 1")
    p.add_argument("--checkpoint", default=None, help="journal progress to this file")
    p.add_argument("--limit", type=int, default=None, help="evaluate at most this many candidates")
    p.add_argument("--fsync", action="store_true")
    _add_common(p)
    p.set_defaults(handler=_cmd_scan)

    p = sub.add_parser("resume", help="continue a checkpointed scan")
    p.add_argument("--path", required=True)
    p.add_argument("--jobs", type=int, default=None)
    p.add_argument("--limit", type=int, default=None)
    p.add_argument("--fsync", action="store_true")
    _add_common(p)
    p.set_defaults(handler=_cmd_resume)

    p = sub.add_parser("verify-paper", help="run the verification fixture suite")
    p.add_argument("--only", default=None, help="comma-separated anchors to run")
    _add_common(p)
    p.set_defaults(handler=_cmd_verify_paper)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.handler(args)
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
