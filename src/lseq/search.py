"""Resumable, parallel scans over the L-sequences: prime hunts on structured
index families, twin searches, square-divisor sweeps, and congruence audits.

Every scan is driven by a ScanSpec and produces a ScanReport whose records
are deterministic functions of the spec and seed: the same spec yields the
same records regardless of worker count or interruption points.  Progress
can be journaled to an append-only checkpoint file (one JSON object per
line) and picked up later with resume().

jobs=1 runs in-process; jobs > 1 loads a pool of at most one worker per candidate left.
"""

from __future__ import annotations

import contextlib
import functools
import json
import os
import time
from dataclasses import asdict, dataclass, fields
from typing import IO, Any, Callable, Iterator

from . import __version__
from .arith import (
    DEFAULT_EXTRA_ROUNDS,
    DETERMINISTIC_LIMIT,
    is_prime,
    multiplicative_order,
    sieve_primes,
)
from .lfamily import LFamily, builtin_congruence_rules, eval_exact, residue

__all__ = [
    "CHECKPOINT_FORMAT",
    "SCAN_KINDS",
    "ResumeError",
    "ScanSpec",
    "ScanRecord",
    "ScanReport",
    "engine_fingerprint",
    "run_scan",
    "resume",
    "scan_l4_twins",
    "scan_square_divisors",
]

CHECKPOINT_FORMAT = 1

_PRIMEISH = ("prime", "probable_prime")

# The optional bound fields of a ScanSpec; each kind reads some of them.
_BOUNDS = ("n_max", "p_max", "m_max", "k_max")


def _canonical_json(obj: Any) -> str:
    """The one JSON encoding of spec hashes, report bytes, journal lines and
    the CLI's --json lines: sorted keys, no spaces."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _sha256(text: str) -> Any:
    """The SHA-256 hash object of ASCII text: the one place a digest is taken."""
    import hashlib  # maps OpenSSL; a launch that takes no digest never loads it

    return hashlib.sha256(text.encode("ascii"))


class ResumeError(Exception):
    """A checkpoint cannot be resumed (mismatched spec, engine, or content)."""


@dataclass(frozen=True)
class ScanSpec:
    """Full parameterization of one scan; embedded verbatim in its report.

    Construction checks the fields against the kind's entry in the kind
    table: integers must be ints (not bools), the kind's bounds must be at or
    above their minimums, and fields the kind does not read must be None.
    """

    kind: str
    family: str | None = None
    n_max: int | None = None
    p_max: int | None = None
    m_max: int | None = None
    k_max: int | None = None
    extra_rounds: int = DEFAULT_EXTRA_ROUNDS
    seed: int = 0

    def __post_init__(self) -> None:
        kind = _KINDS.get(self.kind)
        if kind is None:
            raise ValueError(f"unknown scan kind {self.kind!r}")
        for name in ("extra_rounds", "seed"):
            # type(), not isinstance(): True and False must not pass as int.
            if type(getattr(self, name)) is not int:
                raise ValueError(f"{name} must be an integer, got {getattr(self, name)!r}")
        if self.family is not None:
            if type(self.family) is not str:
                raise ValueError(f"family must be a string, got {self.family!r}")
            # Stored by its canonical name: "l4" and "L4" are one scan.
            object.__setattr__(self, "family", LFamily.parse(self.family).name)
        elif kind.family == "required":
            raise ValueError(f"{self.kind} scan requires a family")
        if self.extra_rounds < 0:
            raise ValueError(f"extra_rounds must be >= 0, got {self.extra_rounds}")
        for name, minimum in kind.bounds.items():
            value = getattr(self, name)
            if type(value) is not int or value < minimum:
                raise ValueError(
                    f"scan kind {self.kind!r} requires {name} >= {minimum}, got {value!r}"
                )
        used = {*kind.bounds, "family"} if kind.family else set(kind.bounds)
        unused = [
            name for name in ("family", *_BOUNDS) if name not in used and getattr(self, name) is not None
        ]
        if unused:
            raise ValueError(f"scan kind {self.kind!r} does not use {', '.join(unused)}")

    def to_dict(self) -> dict[str, Any]:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "ScanSpec":
        names = {f.name for f in fields(cls)}
        unknown = set(data) - names
        if unknown:
            raise ResumeError(f"unknown spec fields {sorted(unknown)}")
        try:
            return cls(**data)
        except (TypeError, ValueError) as exc:
            raise ResumeError(f"invalid spec in checkpoint: {exc}") from exc

    def canonical(self) -> str:
        return _canonical_json(self.to_dict())

    def sha256(self) -> str:
        return _sha256(self.canonical()).hexdigest()


def engine_fingerprint(spec: ScanSpec) -> dict[str, Any]:
    """Engine identity and thresholds that a checkpoint must match to resume."""
    return {
        "engine": "lseq",
        "version": __version__,
        "format": CHECKPOINT_FORMAT,
        "deterministic_limit": DETERMINISTIC_LIMIT,
        # 2: L1/L3 values above 2^64 get N-1 proofs (arith._l_form_proof).
        # 3: other values above 2^64 are trial divided up to a bound sized to
        # the value (arith._block_factor), so L2/L4 verdicts that read
        # mr_witness=2 may read factor=q.
        # 4: L2/L4 values above 2^64 get N+1 proofs, llr:p=P or morrison:p=P
        # in place of bpsw+..., and lucas_v_witness=P in place of a BPSW
        # witness.
        "primality": 4,
        "extra_rounds": spec.extra_rounds,
        "seed": spec.seed,
    }


@dataclass(frozen=True)
class ScanRecord:
    """Outcome for one candidate.  elapsed_ms is informational only and is
    excluded from the canonical report serialization."""

    index: tuple[int, ...]
    verdict: str
    detail: dict[str, Any]
    elapsed_ms: int


@dataclass(frozen=True)
class ScanReport:
    spec: ScanSpec
    records: list[ScanRecord]
    total: int

    @property
    def fingerprint(self) -> dict[str, Any]:
        return engine_fingerprint(self.spec)

    @property
    def completed_through(self) -> int:
        return len(self.records)

    @property
    def complete(self) -> bool:
        return self.completed_through == self.total

    def canonical_bytes(self) -> bytes:
        """Deterministic serialization: identical for identical spec + seed,
        independent of worker count, interruptions, and wall time."""
        payload = {
            "format": CHECKPOINT_FORMAT,
            "spec": self.spec.to_dict(),
            "fingerprint": self.fingerprint,
            "total": self.total,
            "completed_through": self.completed_through,
            # The journal's record lines without their informational fields.
            "records": [
                {k: v for k, v in _record_line(pos, rec).items() if k not in ("type", "elapsed_ms")}
                for pos, rec in enumerate(self.records)
            ],
        }
        return (_canonical_json(payload) + "\n").encode("ascii")

    def prime_indices(self) -> list[Any]:
        """Candidates classified prime or probable_prime (scalar for
        one-dimensional scans, tuple otherwise)."""
        out = []
        for rec in self.records:
            if rec.verdict in _PRIMEISH:
                out.append(rec.index[0] if len(rec.index) == 1 else tuple(rec.index))
        return out

    def twin_pairs(self) -> tuple[list[tuple[int, int]], list[tuple[int, int]]]:
        """(true twin pairs, unit-flagged pairs) from an l4_twins scan."""
        twins = [(r.index[0], r.index[0] + 1) for r in self.records if r.verdict == "twin"]
        flagged = [(r.index[0], r.index[0] + 1) for r in self.records if r.verdict == "unit_twin"]
        return twins, flagged

    def square_hits(self) -> list[tuple[int, int, int]]:
        """(index, prime, exponent) triples from a square_divisors scan,
        ordered by prime then index."""
        out = []
        for rec in self.records:
            if "hits" in rec.detail:
                p = rec.index[0]
                for n, e in rec.detail["hits"]:
                    out.append((n, p, e))
        return out


def _candidate_seed(spec: ScanSpec, label: tuple[int, ...]) -> int:
    text = f"{spec.seed}|{spec.kind}|" + "|".join(map(str, label))
    return int.from_bytes(_sha256(text).digest()[:8], "big")


def _classify(spec: ScanSpec, family: LFamily, n: int, label: tuple[int, ...]) -> dict[str, Any]:
    verdict = is_prime(
        eval_exact(family, n),
        extra_rounds=spec.extra_rounds,
        seed=_candidate_seed(spec, label),
    )
    return {
        "classification": verdict.classification,
        "evidence": verdict.evidence,
        "rounds": verdict.rounds,
    }


# --- the scan kinds -------------------------------------------------------
#
# Candidate evaluation is pure: its only inputs are the spec and the index.
# The functions below look up is_prime, eval_exact, residue and
# multiplicative_order as module globals when called, so replacing those
# names on this module intercepts every call.


@dataclass(frozen=True)
class _Kind:
    """One scan kind.

    bounds maps each bound field the kind reads to its minimum (in checking
    order); family is "required", "optional" or None when the kind does not
    read it.  summary returns the summary's JSON fields and its table line.
    """

    bounds: dict[str, int]
    candidates: Callable[[ScanSpec], list[tuple[int, ...]]]
    evaluate: Callable[[ScanSpec, tuple[int, ...]], tuple[str, dict[str, Any]]]
    summary: Callable[[ScanReport], tuple[dict[str, Any], str]]
    family: str | None = None


def _prime_summary(report: ScanReport) -> tuple[dict[str, Any], str]:
    primes = report.prime_indices()
    return {"prime_indices": primes}, f"prime/probable-prime at: {primes}"


def _prime_kind(
    family: LFamily,
    sequence_index: Callable[..., int],
    bounds: dict[str, int],
    candidates: Callable[[ScanSpec], list[tuple[int, ...]]],
) -> _Kind:
    """A kind that classifies the family's value at sequence_index(*index)."""

    def evaluate(spec: ScanSpec, index: tuple[int, ...]) -> tuple[str, dict[str, Any]]:
        n = sequence_index(*index)
        result = _classify(spec, family, n, index)
        return result.pop("classification"), {"sequence_index": n, **result}

    return _Kind(bounds, candidates, evaluate, _prime_summary)


def _evaluate_twins(spec: ScanSpec, index: tuple[int, ...]) -> tuple[str, dict[str, Any]]:
    n = index[0]
    left = _classify(spec, LFamily.L4, n, (n, 0))
    right = _classify(spec, LFamily.L4, n + 1, (n, 1))
    sides = {left["classification"], right["classification"]}
    if sides <= set(_PRIMEISH):
        verdict = "twin"
    elif "unit" in sides and (sides - {"unit"}) <= set(_PRIMEISH):
        verdict = "unit_twin"
    else:
        verdict = "not_twin"
    return verdict, {"left": left, "right": right}


def _twin_summary(report: ScanReport) -> tuple[dict[str, Any], str]:
    twins, flagged = report.twin_pairs()
    return (
        {"twins": twins, "flagged_unit_pairs": flagged},
        f"twin pairs: {twins}; unit-flagged pairs: {flagged}",
    )


def _evaluate_square(spec: ScanSpec, index: tuple[int, ...]) -> tuple[str, dict[str, Any]]:
    """Find every index n <= n_max with p^e | value, e >= 2, for one prime p.

    Divisibility by p repeats with period ord_p(2) in the index, so only the
    residue classes where p divides at all are swept for higher powers.
    """
    p = index[0]
    family = LFamily.parse(spec.family)
    order = multiplicative_order(2, p).order
    roots = [l for l in range(1, order + 1) if residue(family, l, p) == 0]
    hits = []
    for root in roots:
        for n in range(root, spec.n_max + 1, order):
            e = 1
            while residue(family, n, p ** (e + 1)) == 0:
                e += 1
            if e >= 2:
                hits.append([n, e])
    hits.sort()
    return ("hits" if hits else "none"), {"order": order, "roots": roots, "hits": hits}


def _square_summary(report: ScanReport) -> tuple[dict[str, Any], str]:
    hits = report.square_hits()
    return {"square_hits": hits}, f"square hits (n, p, e): {hits}"


def _audit_candidates(spec: ScanSpec) -> list[tuple[int, ...]]:
    """(family position from 1, rule position) for the audited families."""
    return [
        (fam_pos, rule_pos)
        for fam_pos, fam in enumerate(LFamily, 1)
        if spec.family is None or fam is LFamily.parse(spec.family)
        for rule_pos in range(len(builtin_congruence_rules(fam)))
    ]


def _evaluate_audit(spec: ScanSpec, index: tuple[int, ...]) -> tuple[str, dict[str, Any]]:
    fam = list(LFamily)[index[0] - 1]
    rule = builtin_congruence_rules(fam)[index[1]]
    violation = rule.first_violation(spec.n_max)
    detail = {
        "family": fam.name,
        "modulus": rule.modulus,
        "step": rule.step,
        "offsets": list(rule.offsets),
        "description": rule.description,
        "n_max": spec.n_max,
        "first_violation": violation,
    }
    return ("holds" if violation is None else "violated"), detail


def _audit_summary(report: ScanReport) -> tuple[dict[str, Any], str]:
    holds = all(r.verdict == "holds" for r in report.records)
    return {"all_hold": holds}, f"all rules hold: {holds}"


_KINDS: dict[str, _Kind] = {
    "l2_prime_exponent": _prime_kind(
        LFamily.L2, lambda p: p, {"p_max": 2}, lambda s: [(p,) for p in sieve_primes(s.p_max)]
    ),
    "l2_pow2": _prime_kind(
        LFamily.L2, lambda n: 2**n, {"n_max": 1}, lambda s: [(n,) for n in range(1, s.n_max + 1)]
    ),
    "l3_pow2": _prime_kind(
        LFamily.L3, lambda n: 2**n, {"n_max": 0}, lambda s: [(n,) for n in range(s.n_max + 1)]
    ),
    "l3_mixed": _prime_kind(
        LFamily.L3,
        lambda m, n: 3**m * 2**n,
        {"m_max": 1, "n_max": 1},
        lambda s: [(m, n) for m in range(1, s.m_max + 1) for n in range(1, s.n_max + 1)],
    ),
    "l1_pow3": _prime_kind(
        LFamily.L1, lambda k: 3**k, {"k_max": 0}, lambda s: [(k,) for k in range(s.k_max + 1)]
    ),
    "l4_twins": _Kind(
        {"n_max": 2}, lambda s: [(n,) for n in range(1, s.n_max)], _evaluate_twins, _twin_summary
    ),
    "square_divisors": _Kind(
        {"n_max": 1, "p_max": 3},
        lambda s: [(p,) for p in sieve_primes(s.p_max) if p != 2],
        _evaluate_square,
        _square_summary,
        family="required",
    ),
    "congruence_audit": _Kind(
        {"n_max": 1}, _audit_candidates, _evaluate_audit, _audit_summary, family="optional"
    ),
}

SCAN_KINDS = tuple(_KINDS)


def _summary(report: ScanReport) -> tuple[dict[str, Any], str]:
    """The report's kind-specific summary: JSON fields and one table line."""
    return _KINDS[report.spec.kind].summary(report)


def _timed(spec: ScanSpec, index: tuple[int, ...]) -> ScanRecord:
    began = time.perf_counter()
    verdict, detail = _KINDS[spec.kind].evaluate(spec, index)
    return ScanRecord(index, verdict, detail, int((time.perf_counter() - began) * 1000))


# --- journal lines --------------------------------------------------------


def _header_line(spec: ScanSpec) -> dict[str, Any]:
    """First line of a journal and of the CLI's structured scan output."""
    return {
        "type": "header",
        "format": CHECKPOINT_FORMAT,
        "spec": spec.to_dict(),
        "spec_sha256": spec.sha256(),
        "fingerprint": engine_fingerprint(spec),
    }


def _record_line(pos: int, rec: ScanRecord) -> dict[str, Any]:
    """The journal line of one record; the CLI's structured output uses the
    same lines, so it can itself be resumed."""
    return {
        "type": "record",
        "pos": pos,
        "index": list(rec.index),
        "verdict": rec.verdict,
        "detail": rec.detail,
        "elapsed_ms": rec.elapsed_ms,
    }


def _append(handle: IO[str], line: dict[str, Any], fsync: bool) -> None:
    """Write one journal line and flush it; with fsync, to the disk as well."""
    handle.write(_canonical_json(line) + "\n")
    handle.flush()
    if fsync:
        os.fsync(handle.fileno())


def _effective_jobs(jobs: int | None, limit: int | None) -> int:
    """jobs, else LSEQ_JOBS, else 1.  Checks jobs and limit, so callers call
    it before they touch a journal."""
    name = "jobs" if jobs is not None else "LSEQ_JOBS"
    if jobs is None:
        env = os.environ.get("LSEQ_JOBS")
        try:
            jobs = int(env) if env else 1
        except ValueError:
            raise ValueError(f"LSEQ_JOBS must be an integer, got {env!r}") from None
    if jobs < 1:
        raise ValueError(f"{name} must be >= 1, got {jobs}")
    if limit is not None and limit < 1:
        raise ValueError(f"limit must be >= 1, got {limit}")
    return jobs


def _execute(
    spec: ScanSpec,
    candidates: list[tuple[int, ...]],
    records: list[ScanRecord],
    jobs: int,
    limit: int | None,
    journal: str | None,
    fsync: bool,
    keep: int,
) -> ScanReport:
    """Evaluate up to limit candidates after records.  The journal, when
    given, is cut to its first keep bytes (its complete lines), gets the
    header line when that leaves it empty, and one record line per result."""
    start = len(records)
    todo = candidates[start:] if limit is None else candidates[start : start + limit]
    evaluate = functools.partial(_timed, spec)
    # A forking pool starts all its workers up front, so never more than
    # there are candidates left.
    workers = min(jobs, len(todo))
    try:
        handle = open(journal, "a", encoding="ascii") if journal is not None else contextlib.nullcontext()
    except OSError as exc:
        raise ValueError(f"cannot write checkpoint {journal!r}: {exc}") from exc
    if workers > 1:
        # Imported on first use: the pool stack (multiprocessing, pickle,
        # socket, subprocess, logging) would otherwise load on every launch.
        from concurrent.futures import ProcessPoolExecutor
    with handle, ProcessPoolExecutor(workers) if workers > 1 else contextlib.nullcontext() as pool:
        if journal:
            handle.truncate(keep)
            if not keep:
                _append(handle, _header_line(spec), fsync)
        # Results come back in candidate order, so they are journaled as they
        # arrive.  About eight chunks per worker keep workers busy while the
        # costlier candidates at the end are still running.
        if workers > 1:
            results = pool.map(evaluate, todo, chunksize=max(1, len(todo) // (8 * workers)))
        else:
            results = map(evaluate, todo)
        for pos, rec in enumerate(results, start):
            records.append(rec)
            if journal:
                _append(handle, _record_line(pos, rec), fsync)
    return ScanReport(spec, records, len(candidates))


def run_scan(
    spec: ScanSpec,
    *,
    jobs: int | None = None,
    checkpoint_path: str | None = None,
    limit: int | None = None,
    fsync: bool = False,
) -> ScanReport:
    """Run a scan from the beginning, optionally journaling to a checkpoint.

    limit caps how many candidates are evaluated in this call (the report is
    then incomplete but resumable); jobs > 1 fans candidates out to worker
    processes without changing any output content.
    """
    candidates = _KINDS[spec.kind].candidates(spec)
    if (
        checkpoint_path is not None
        and os.path.exists(checkpoint_path)
        and os.path.getsize(checkpoint_path) > 0
    ):
        raise ValueError(f"checkpoint {checkpoint_path!r} already exists; use resume()")
    jobs = _effective_jobs(jobs, limit)
    return _execute(spec, candidates, [], jobs, limit, checkpoint_path, fsync, 0)


# JSON type of each field of a journal record line.
_RECORD_FIELDS = {"pos": int, "index": list, "verdict": str, "detail": dict, "elapsed_ms": int}


def _entries(path: str, lines: list[str]) -> Iterator[dict[str, Any]]:
    """The JSON objects on the journal's non-blank lines, in order."""
    for number, line in enumerate(lines, 1):
        if not line:
            continue
        try:
            entry = json.loads(line)
        except json.JSONDecodeError:
            raise ResumeError(f"{path!r} line {number} is not valid JSON") from None
        if not isinstance(entry, dict):
            raise ResumeError(f"{path!r} line {number} is not a JSON object")
        yield entry


def resume(
    report_path: str,
    *,
    jobs: int | None = None,
    limit: int | None = None,
    fsync: bool = False,
) -> ScanReport:
    """Continue a checkpointed scan to completion (or by ``limit`` more
    candidates).  Refuses to run when the stored spec hash or the engine
    fingerprint does not match what this engine would recompute, or when the
    record positions do not run 0, 1, 2, ... over the candidates; a finished
    scan is returned unchanged."""
    try:
        with open(report_path, encoding="ascii") as handle:
            raw = handle.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ResumeError(f"cannot read checkpoint {report_path!r}: {exc}") from exc
    # Only newline-terminated lines count: text after the last newline is a
    # torn write from an interrupted run and is cut off before appending.
    entries = _entries(report_path, raw.split("\n")[:-1])
    header = next(entries, {})
    if header.get("type") != "header":
        raise ResumeError(f"{report_path!r} does not start with a checkpoint header")
    if header.get("format") != CHECKPOINT_FORMAT:
        raise ResumeError(
            f"checkpoint format {header.get('format')!r} is not {CHECKPOINT_FORMAT}"
        )
    if not isinstance(header.get("spec"), dict):
        raise ResumeError("checkpoint header has no spec object")
    spec = ScanSpec.from_dict(header["spec"])
    # The hash covers the spec as written, defaults filled in: a journal
    # whose header spells the family "l4" resumes as the "L4" scan.
    written = _canonical_json({**spec.to_dict(), **header["spec"]})
    if header.get("spec_sha256") != _sha256(written).hexdigest():
        raise ResumeError("stored spec hash does not match the stored spec")
    if header.get("fingerprint") != engine_fingerprint(spec):
        raise ResumeError("engine fingerprint changed; refusing to mix results")
    candidates = _KINDS[spec.kind].candidates(spec)
    records: list[ScanRecord] = []
    for entry in entries:
        if entry.get("type") != "record":
            continue
        for name, kind in _RECORD_FIELDS.items():
            # type(), not isinstance(): JSON true/false must not pass as int.
            if type(entry.get(name)) is not kind:
                raise ResumeError(
                    f"{report_path!r} has a record whose {name!r} is missing or not of type {kind.__name__}"
                )
        index = tuple(entry["index"])
        if not all(type(i) is int for i in index):
            raise ResumeError(
                f"{report_path!r} has a record whose 'index' is not a list of integers"
            )
        pos = entry["pos"]
        if 0 <= pos < len(records):
            raise ResumeError(f"{report_path!r} has two records at position {pos}")
        if pos != len(records):
            raise ResumeError(
                f"{report_path!r} has a record at position {pos} where {len(records)} is next"
            )
        if pos == len(candidates):
            raise ResumeError("checkpoint has more records than candidates")
        if index != candidates[pos]:
            raise ResumeError(
                f"record {pos} index {index} does not match candidate {candidates[pos]}"
            )
        records.append(ScanRecord(index, entry["verdict"], entry["detail"], entry["elapsed_ms"]))
    jobs = _effective_jobs(jobs, limit)
    journal = report_path if len(records) < len(candidates) else None
    return _execute(spec, candidates, records, jobs, limit, journal, fsync, raw.rfind("\n") + 1)


def scan_l4_twins(
    n_max: int, *, seed: int = 0, extra_rounds: int = DEFAULT_EXTRA_ROUNDS, **run_kwargs: Any
) -> ScanReport:
    """Find all n < n_max with L4(n) and L4(n+1) both prime; the pair
    starting at the unit L4(1) = 1 is flagged separately.  Other keywords go
    to run_scan."""
    spec = ScanSpec(kind="l4_twins", n_max=n_max, seed=seed, extra_rounds=extra_rounds)
    return run_scan(spec, **run_kwargs)


def scan_square_divisors(
    family: LFamily | str, n_max: int, p_max: int, *,
    seed: int = 0, extra_rounds: int = DEFAULT_EXTRA_ROUNDS, **run_kwargs: Any,
) -> ScanReport:
    """Report every (n, p, e) with p^e dividing the value at n, e >= 2, over
    odd primes p <= p_max and indices n <= n_max.  An LFamily is passed by
    its name; other keywords go to run_scan."""
    name = family.name if isinstance(family, LFamily) else family
    spec = ScanSpec(
        kind="square_divisors", family=name, n_max=n_max, p_max=p_max, seed=seed, extra_rounds=extra_rounds
    )
    return run_scan(spec, **run_kwargs)
