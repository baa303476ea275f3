"""Resumable, parallel scans over the L-sequences: prime hunts on structured
index families, twin searches, square-divisor sweeps, and congruence audits.

Every scan is driven by a ScanSpec and produces a ScanReport whose records
are deterministic functions of the spec: the same spec yields the same
records regardless of worker count or interruption points.  Every value a
scan tests is below 2^64 or of L-form, and is_prime decides every value
from the value alone; the spec's seed is a label, kept in the spec and its
digest, that changes no record.  Progress can be journaled to an append-only
checkpoint file (one JSON object per line) and picked up later with
resume().  The journal header's spec_sha256 is SHA-256 from CPython's own
C module (_sha2 or _sha256, else hashlib), so no launch loads OpenSSL with it.
A spec whose values would exceed eval_exact's bit budget is refused when
it is made, before the first value is evaluated, as is a square-divisor
sweep whose sieve of primes up to p_max would pass 2^25 entries (a peak of
about 64 MiB).  Candidates are read one index at a time from their range
or array of primes; only the exponent kinds and the audit list theirs.

jobs=1 runs in-process; jobs > 1 loads a pool of at most one worker per candidate left.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import json
import os
import time
from dataclasses import asdict, dataclass, field, fields
from typing import IO, Any, Callable, Iterator, Sequence

from . import __version__
from .arith import DETERMINISTIC_LIMIT, _PRIMEISH, _sieve, is_prime
from .lfamily import DEFAULT_EVAL_BIT_BUDGET, LFamily, builtin_congruence_rules, eval_exact, residue

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

CHECKPOINT_FORMAT = 2

# The optional bound fields of a ScanSpec; each kind reads some of them.
_BOUNDS = ("n_max", "p_max", "m_max", "k_max")


def _canonical_json(obj: Any) -> str:
    """The one JSON encoding of spec hashes, report bytes, journal lines and
    the CLI's --json lines: sorted keys, no spaces."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


@functools.cache
def _sha256_new() -> Callable[[bytes], Any]:
    """CPython's SHA-256 constructor: the C module hashlib falls back on (_sha2
    from 3.12, _sha256 before), else hashlib's.  Resolved on the first digest,
    so no launch maps OpenSSL, and one that takes no digest loads neither."""
    try:
        from _sha2 import sha256
    except ImportError:
        try:
            from _sha256 import sha256
        except ImportError:
            from hashlib import sha256
    return sha256


def _sha256(text: str) -> str:
    """The hex SHA-256 of ASCII text: the one place a digest is taken."""
    return _sha256_new()(text.encode("ascii")).hexdigest()


class ResumeError(Exception):
    """A checkpoint cannot be resumed (mismatched spec, engine, or content)."""


@dataclass(frozen=True)
class ScanSpec:
    """Full parameterization of one scan; embedded verbatim in its report.

    Construction checks the fields against the kind's entry in the kind
    table: integers must be ints (not bools), the kind's bounds must be at or
    above their minimums and at or below their maximums, and fields the kind
    does not read must be None.  seed is a label: it is kept in the spec and
    its digest, and changes no record.
    """

    kind: str
    family: str | None = None
    n_max: int | None = None
    p_max: int | None = None
    m_max: int | None = None
    k_max: int | None = None
    seed: int = 0

    def __post_init__(self) -> None:
        kind = _KINDS.get(self.kind)
        if kind is None:
            raise ValueError(f"unknown scan kind {self.kind!r}")
        # type(), not isinstance(): True and False must not pass as int.
        if type(self.seed) is not int:
            raise ValueError(f"seed must be an integer, got {self.seed!r}")
        if self.family is not None:
            if type(self.family) is not str:
                raise ValueError(f"family must be a string, got {self.family!r}")
            # Stored by its canonical name: "l4" and "L4" are one scan.
            object.__setattr__(self, "family", LFamily.parse(self.family).name)
        elif kind.family == "required":
            raise ValueError(f"{self.kind} scan requires a family")
        for name, minimum in kind.bounds.items():
            value = getattr(self, name)
            if type(value) is not int or value < minimum:
                raise ValueError(
                    f"scan kind {self.kind!r} requires {name} >= {minimum}, got {value!r}"
                )
        for name, maximum in kind.maxima.items():
            if getattr(self, name) > maximum:
                raise ValueError(
                    f"scan kind {self.kind!r} requires {name} <= {maximum}, got {getattr(self, name)}"
                )
        used = {*kind.bounds, "family"} if kind.family else set(kind.bounds)
        unused = [
            name for name in ("family", *_BOUNDS) if name not in used and getattr(self, name) is not None
        ]
        if unused:
            raise ValueError(f"scan kind {self.kind!r} does not use {', '.join(unused)}")
        # eval_exact's own check, made before the first value is evaluated.
        if kind.top is not None and 2 * kind.top(self) + 1 > DEFAULT_EVAL_BIT_BUDGET:
            raise ValueError(
                f"scan kind {self.kind!r} reaches values past the evaluation bit budget "
                f"of {DEFAULT_EVAL_BIT_BUDGET} bits"
            )

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
        return _sha256(self.canonical())


def engine_fingerprint() -> dict[str, Any]:
    """Engine identity and thresholds that a checkpoint must match to resume;
    the header's spec_sha256 covers the spec."""
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
        # 5: n between 2^20 and 2^64 is decided by Sinclair's seven bases
        # alone, so primes read mr_deterministic:2,325,... and some base-2
        # strong pseudoprimes a new mr_witness=a.
        # 6: a value above 2^64 of no L-form reads bpsw, rounds 2 (no seeded rounds).
        "primality": 6,
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
    def completed_through(self) -> int:
        return len(self.records)

    @property
    def complete(self) -> bool:
        return self.completed_through == self.total

    def canonical_bytes(self) -> bytes:
        """Deterministic serialization: identical for identical specs,
        independent of worker count, interruptions, and wall time."""
        payload = {
            "format": CHECKPOINT_FORMAT,
            "spec": self.spec.to_dict(),
            "fingerprint": engine_fingerprint(),
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


def _classify(family: LFamily, n: int) -> dict[str, Any]:
    """The primality verdict of the family's value at n, from the value alone."""
    verdict = is_prime(eval_exact(family, n))
    return {
        "classification": verdict.classification,
        "evidence": verdict.evidence,
        "rounds": verdict.rounds,
    }


# --- the scan kinds -------------------------------------------------------
#
# Candidate evaluation is pure: its only inputs are the spec and the index.
# The functions below look up is_prime, eval_exact and residue as module
# globals when called, so replacing those names on this module intercepts
# every call.


@dataclass(frozen=True)
class _Kind:
    """One scan kind.

    bounds maps each bound field the kind reads to its minimum (in checking
    order), and maxima some of them to their maximum; family is "required",
    "optional" or None when the kind does not read it.  summary returns the
    summary's JSON fields and its table line.  top returns the largest
    sequence index whose value the kind evaluates, which ScanSpec checks
    against the evaluation bit budget; it is None where the kind evaluates no
    value.
    """

    bounds: dict[str, int]
    candidates: Callable[[ScanSpec], Sequence[tuple[int, ...]]]
    evaluate: Callable[[ScanSpec, tuple[int, ...]], tuple[str, dict[str, Any]]]
    summary: Callable[[ScanReport], tuple[dict[str, Any], str]]
    family: str | None = None
    top: Callable[[ScanSpec], int] | None = None
    maxima: dict[str, int] = field(default_factory=dict)


@dataclass(frozen=True)
class _Singles:
    """The candidates (v,) of the values of a range or a list, read one
    index at a time; a slice is another view."""

    values: Sequence[int]

    def __len__(self) -> int:
        return len(self.values)

    def __getitem__(self, i: Any) -> Any:
        return _Singles(self.values[i]) if isinstance(i, slice) else (self.values[i],)


def _prime_summary(report: ScanReport) -> tuple[dict[str, Any], str]:
    primes = report.prime_indices()
    return {"prime_indices": primes}, f"prime/probable-prime at: {primes}"


def _prime_kind(
    family: LFamily,
    sequence_index: Callable[..., int],
    bounds: dict[str, int],
    candidates: Callable[[ScanSpec], Sequence[tuple[int, ...]]] | None = None,
    top: Callable[[ScanSpec], int] | None = None,
) -> _Kind:
    """A kind that classifies the family's value at sequence_index(*index).
    By default its bounds are exponents: its candidates are every tuple of
    them from each bound's minimum up to its value, the last bound varying
    fastest, and its top index is sequence_index(*bounds)."""

    def evaluate(spec: ScanSpec, index: tuple[int, ...]) -> tuple[str, dict[str, Any]]:
        n = sequence_index(*index)
        result = _classify(family, n)
        return result.pop("classification"), {"sequence_index": n, **result}

    def exponent_top(spec: ScanSpec) -> int:
        # An exponent at or past the budget's bit length puts the index past
        # the budget already, so capping it there keeps the verdict and
        # builds no index wider than a few dozen bits.
        cap = DEFAULT_EVAL_BIT_BUDGET.bit_length()
        return sequence_index(*(min(getattr(spec, name), cap) for name in bounds))

    def exponents(spec: ScanSpec) -> list[tuple[int, ...]]:
        ranges = (range(low, getattr(spec, name) + 1) for name, low in bounds.items())
        return list(itertools.product(*ranges))

    return _Kind(bounds, candidates or exponents, evaluate, _prime_summary, top=top or exponent_top)


def _largest_prime_exponent(spec: ScanSpec) -> int:
    """The largest prime p <= p_max, or <= the evaluation bit budget when
    p_max is above it, where L2(p) is past the budget already: the top index
    of l2_prime_exponent, found by stepping down with is_prime before any
    sieve is built.  The budget then bounds the sieve too.  Every step is
    below 2^27 and takes microseconds."""
    p = min(spec.p_max, DEFAULT_EVAL_BIT_BUDGET)
    while not is_prime(p).is_prime_or_probable:
        p -= 1
    return p


# square_divisors evaluates no value, so the bit budget does not bound its
# sieve of the primes up to p_max: this does.
_SIEVE_LIMIT = 1 << 25


def _primes(limit: int) -> Sequence[int]:
    """The primes <= limit, ascending, in an array of 4-byte ints: every
    p_max a spec accepts is at most 2^26.  At limit 2^25 the 2,063,689
    primes take 8 MiB, where a list of them held 75 MiB."""
    from array import array  # only the prime kinds read one; other launches skip the import

    return array("i", itertools.compress(range(limit + 1), _sieve(limit)))


def _evaluate_twins(spec: ScanSpec, index: tuple[int, ...]) -> tuple[str, dict[str, Any]]:
    n = index[0]
    left = _classify(LFamily.L4, n)
    right = _classify(LFamily.L4, n + 1)
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
    residue classes where p divides at all are swept for higher powers.  One
    walk of 2^l mod p, from l = 1 to l = ord_p(2), finds both.
    """
    p = index[0]
    family = LFamily.parse(spec.family)
    x, order, roots = 1, 0, []
    while x != 1 or not order:
        x, order = 2 * x % p, order + 1
        if (x * x + family.mid_sign * x + family.unit_sign) % p == 0:
            roots.append(order)
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
        LFamily.L2,
        lambda p: p,
        {"p_max": 2},
        lambda s: _Singles(_primes(s.p_max)),
        _largest_prime_exponent,
    ),
    "l2_pow2": _prime_kind(LFamily.L2, lambda n: 2**n, {"n_max": 1}),
    "l3_pow2": _prime_kind(LFamily.L3, lambda n: 2**n, {"n_max": 0}),
    "l3_mixed": _prime_kind(LFamily.L3, lambda m, n: 3**m * 2**n, {"m_max": 1, "n_max": 1}),
    "l1_pow3": _prime_kind(LFamily.L1, lambda k: 3**k, {"k_max": 0}),
    "l4_twins": _Kind(
        {"n_max": 2},
        lambda s: _Singles(range(1, s.n_max)),
        _evaluate_twins,
        _twin_summary,
        top=lambda s: s.n_max,
    ),
    "square_divisors": _Kind(
        {"n_max": 1, "p_max": 3},
        lambda s: _Singles(_primes(s.p_max))[1:],
        _evaluate_square,
        _square_summary,
        family="required",
        maxima={"p_max": _SIEVE_LIMIT},
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
        "fingerprint": engine_fingerprint(),
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


def _execute(
    spec: ScanSpec,
    candidates: Sequence[tuple[int, ...]],
    records: list[ScanRecord],
    jobs: int,
    limit: int | None,
    journal: str | None,
    fsync: bool,
    keep: int,
) -> ScanReport:
    """Evaluate up to limit candidates after records.  The journal, when
    given, is cut to its first keep bytes (its complete lines), gets the
    header line when that leaves it empty, and one record line per result.
    jobs and limit are checked before the journal is opened, so a bad value
    leaves it as it was."""
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    if limit is not None and limit < 1:
        raise ValueError(f"limit must be >= 1, got {limit}")
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
    jobs: int = 1,
    checkpoint_path: str | None = None,
    limit: int | None = None,
    fsync: bool = False,
) -> ScanReport:
    """Run a scan from the beginning, optionally journaling to a checkpoint.

    limit caps how many candidates are evaluated in this call (the report is
    then incomplete but resumable); jobs, the worker count (default 1), fans
    candidates out to that many processes without changing any output content.
    """
    candidates = _KINDS[spec.kind].candidates(spec)
    if (
        checkpoint_path is not None
        and os.path.exists(checkpoint_path)
        and os.path.getsize(checkpoint_path) > 0
    ):
        raise ValueError(f"checkpoint {checkpoint_path!r} already exists; use resume()")
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
    jobs: int = 1,
    limit: int | None = None,
    fsync: bool = False,
) -> ScanReport:
    """Continue a checkpointed scan to completion (or by ``limit`` more
    candidates).  Refuses to run when the stored spec hash or the engine
    fingerprint does not match what this engine would recompute, or when the
    record positions do not run 0, 1, 2, ... over the candidates; a finished
    scan is returned unchanged.  jobs and limit are as for run_scan."""
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
    if header.get("spec_sha256") != _sha256(written):
        raise ResumeError("stored spec hash does not match the stored spec")
    if header.get("fingerprint") != engine_fingerprint():
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
    journal = report_path if len(records) < len(candidates) else None
    return _execute(spec, candidates, records, jobs, limit, journal, fsync, raw.rfind("\n") + 1)


def scan_l4_twins(n_max: int, **run_kwargs: Any) -> ScanReport:
    """Find all n < n_max with L4(n) and L4(n+1) both prime; the pair
    starting at the unit L4(1) = 1 is flagged separately.  Keywords go to
    run_scan."""
    return run_scan(ScanSpec(kind="l4_twins", n_max=n_max), **run_kwargs)


def scan_square_divisors(family: LFamily | str, n_max: int, p_max: int, **run_kwargs: Any) -> ScanReport:
    """Report every (n, p, e) with p^e dividing the value at n, e >= 2, over
    odd primes p <= p_max and indices n <= n_max.  An LFamily is passed by
    its name; keywords go to run_scan."""
    name = family.name if isinstance(family, LFamily) else family
    return run_scan(ScanSpec(kind="square_divisors", family=name, n_max=n_max, p_max=p_max), **run_kwargs)
