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
import os
import sys
from typing import TYPE_CHECKING, Any, Callable

from . import __version__
from .arith import (
    DEFAULT_EXTRA_ROUNDS,
    OrderSearchError,
    is_prime,
    lemma2_witness,
    multiplicative_order,
)
from .lfamily import (
    DEFAULT_EVAL_BIT_BUDGET,
    DEFAULT_PRODUCT_BIT_BUDGET,
    BudgetExceededError,
    LFamily,
    eval_exact,
    residue,
    verify_product_identity,
    verify_statement1_orbit,
    verify_statement2_orbit,
    verify_theorem3,
)
from .search import (
    SCAN_KINDS,
    ResumeError,
    ScanReport,
    ScanSpec,
    _canonical_json,
    _header_line,
    _record_line,
    _summary,
    resume,
    run_scan,
)

if TYPE_CHECKING:
    from .gcdlaws import GcdCheckRecord

__all__ = ["main"]

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
    table text otherwise, and header and result lines name args.command.
    Each mode turns an int into decimal once, and only for its own lines:
    decimal() for the JSON object, num() for table text, header pairs included,
    so --digits-cap elides a long header value as it does a result."""

    def __init__(self, args: argparse.Namespace):
        if args.digits_cap is not None and args.digits_cap < 1:
            raise ValueError(f"--digits-cap must be >= 1, got {args.digits_cap}")
        self.command = args.command
        self.json = args.json
        self.digits_cap = args.digits_cap

    def line(self, obj: dict[str, Any], table_lines: list[str]) -> None:
        if self.json:
            print(_canonical_json(obj))
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
        pairs = " ".join(
            f"{k}={self.num(v) if type(v) is int else v}"
            for k, v in params.items()
            if v is not None and not self.json
        )
        extras = " ".join(f"{k}={v}" for k, v in provenance.items() if k != "engine")
        parts = [p for p in (f"# lseq {self.command}", pairs, f"[{extras}]") if p]
        self.line(
            {
                "type": "header",
                "command": self.command,
                "params": self.decimal(params),
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
                "result": self.decimal(result),
            },
            lines,
        )
        return 0 if ok else 1

    def decimal(self, value: Any) -> Any:
        return _decimal(value) if self.json else value

    def num(self, value: int) -> str:
        return "" if self.json else _elide(str(value), self.digits_cap)


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
    from .gcdlaws import gcd_l1, gcd_l1_cross

    if args.k1 == args.k2:
        _, record = gcd_l1(args.k1, args.t1, args.t2)
    else:
        _, record = gcd_l1_cross(args.k1, args.t1, args.k2, args.t2)
    out.header({name: getattr(args, name) for name in ("k1", "t1", "k2", "t2")})
    return _gcd_result(out, "L1", record)


def _cmd_gcd_l3(args: argparse.Namespace, out: _Output) -> int:
    from .gcdlaws import gcd_l3, gcd_l3_cross

    if (args.m1, args.n1) == (args.m2, args.n2):
        _, record = gcd_l3(args.m1, args.n1, args.t1, args.t2)
    else:
        _, record = gcd_l3_cross(args.m1, args.n1, args.t1, args.m2, args.n2, args.t2)
    out.header({name: getattr(args, name) for name in ("m1", "n1", "t1", "m2", "n2", "t2")})
    return _gcd_result(out, "L3", record)


def _cmd_gcd_repunit(args: argparse.Namespace, out: _Output) -> int:
    from .repunit import RepunitKind, gcd_repunit

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
    from .gcdlaws import IndexSetSpec, insularity_harness
    from .repunit import RepunitKind, repunit

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
            {"type": "record", **out.decimal(fields)},
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
        params = {"family": family.name, "l": args.l, "p": args.p, "t": args.t, "n_max": args.n_max}
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
    from .repunit import RepunitKind, repunit

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
        out.decimal(summary),
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


def _cmd_verify_paper(args: argparse.Namespace, out: _Output) -> int:
    from . import paper

    selected = set(paper.ANCHORS)
    if args.only is not None:
        selected = {name.strip() for name in args.only.split(",")}
        unknown = selected - set(paper.ANCHORS)
        if unknown:
            raise ValueError(f"unknown anchors {sorted(unknown)}; known: {sorted(paper.ANCHORS)}")
    out.header({"only": args.only}, seed=0, extra_rounds=DEFAULT_EXTRA_ROUNDS)
    all_ok = True
    for anchor, check in paper.ANCHORS.items():
        if anchor not in selected:
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
# --json and --digits-cap.  The gcd, repunit and verify-paper handlers import
# gcdlaws, repunit and paper when they run, so no other launch loads them.
# Handlers call arith, lfamily and search functions through this module's
# globals; those handlers, and verify-paper's anchors, read functions from
# their defining modules at each call.  So a caller that replaces a function
# in both places (the benchmark's tracer does) sees every call.
_COMMANDS: dict[str, tuple[str, Callable[[argparse.Namespace, _Output], int], list[_Argument]]] = {
    "eval": (
        "exact sequence value",
        _cmd_eval,
        [_FAMILY, *_ints("--n"), _int("--bit-budget", DEFAULT_EVAL_BIT_BUDGET)],
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
        [*_ints("--k"), _int("--bit-budget", DEFAULT_PRODUCT_BIT_BUDGET)],
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
    if hasattr(sys, "set_int_max_str_digits"):
        # CPython 3.11+ refuses to convert ints of more than 4,300 digits to
        # or from decimal; values here are exact and printed in full.
        sys.set_int_max_str_digits(0)
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
        OrderSearchError,
        ResumeError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
