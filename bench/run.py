"""Benchmark for the lseq toolkit: four fixed CLI workloads.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout (the package need not be installed;
``src`` is put on the path).  With ``--trace 0`` the workload's ``lseq``
command sequence runs as subprocesses, repeated for about S seconds, and
every output is checked against known answers; the end-to-end metrics are
medians over those repetitions.  Each repetition is timed between two runs
of a fixed calibration loop (calibrate.py), and its wall and CPU times are
reported as multiples of the calibration's, which cancels most of the
host's speed drift; the raw seconds are printed too.  With ``--trace 1``
the same sequence runs in-process through ``lseq.cli.main`` with the
public functions of each module wrapped in spans (see spans.py), and the
per-layer metrics are reported.  Every command runs at ``--jobs 1``.  The
last line of stdout is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.

Workloads (bench/NOTES.md has the details):

- l2-prime-exponent: ``scan --kind l2-prime-exponent --p-max 2000``.  303
  values of up to 4001 bits, most killed by trial division; about 59 reach
  the base-2 Miller-Rabin round.  Cheap-rejection path.
- l3-pow2: ``scan --kind l3-pow2 --n-max 12``.  13 values up to 8193 bits;
  L3(2^k) for k >= 6 are base-2 strong pseudoprimes, so the Lucas test runs
  too.  Cost per modular exponentiation; no pool, no journal.
- l4-twins-journal: ``scan --kind l4-twins --n-max 603`` journaled in
  200-candidate segments, resumed to the end and resumed once more on the
  finished journal.  602 cheap candidates of at most 1208 bits: dispatch,
  journal writes and the journal read.
- paper-oracle: ``verify-paper`` on nine fixed-input anchors.  10^6 primality
  calls below 2^20 and about 285k small residues: per-call overhead.  It has
  no seed; ``--seed`` changes nothing in it.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass
from typing import Any, Callable

from spans import BUCKETS, Tracer

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, "bench", "out")
STEP_TIMEOUT_S = 150
SETUP_LAUNCHES = 11  # at least, per run
SETUP_SHARE = 0.08  # of a run's time spent on set-up launches
CALIBRATION_PASSES = 3

PAPER_ANCHORS = (
    "golden-values",
    "congruence-orbits",
    "gcd-insularity-l1",
    "gcd-insularity-l3",
    "gcd-insularity-repunit",
    "seven-power-orbit",
    "product-identity",
    "square-divisors",
    "oracle-cross-checks",
)
L4_SCAN = ["--kind", "l4-twins", "--n-max", "603"]
L4_TWINS = [[4, 5], [9, 10], [224, 225]]
L4_FLAGGED = [[1, 2]]


@dataclass
class Step:
    argv: list[str]
    exit_code: int


@dataclass
class Workload:
    steps: Callable[[int, str], list[Step]]  # (seed, tmp dir) -> steps
    check: Callable[[list[str], str, Any], list[str]]  # (stdouts, tmp dir, reference) -> problems
    calibration: str  # the loop of calibrate.py whose character it shares
    journal: bool = False


def reference_journal(seed: int, tmp: str) -> list[dict[str, Any]] | None:
    """Journal lines, without elapsed_ms, of an uninterrupted l4 scan; made
    once per invocation.  None when that run itself fails."""
    path = os.path.join(tmp, "reference.jsonl")
    code, out, _ = run_cli(["scan", *L4_SCAN, "--seed", str(seed), "--jobs", "1", "--checkpoint", path, "--json"])
    if code != 0 or not os.path.exists(path):
        print(f"reference l4 run exited {code}", file=sys.stderr)
        return None
    return journal_lines(path)


# --- running the CLI ------------------------------------------------------


def cli_env() -> dict[str, str]:
    """The caller's environment, made hermetic: no LSEQ_JOBS, ``src`` on the
    path, a fixed hash seed (random seeds widened the run-to-run spread of
    the small-call workload) and bytecode cached under bench/out, as an
    installed package would have it."""
    env = dict(os.environ)
    env.pop("LSEQ_JOBS", None)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONPYCACHEPREFIX"] = os.path.join(OUT, "pycache")
    return env


def run_cli(argv: list[str]) -> tuple[int, str, Any]:
    """Run ``python -m lseq.cli argv``; return (exit code, stdout, rusage).

    The child is reaped with wait4 so its rusage (CPU and peak RSS, pool
    workers included once they are joined) belongs to this one command.
    """
    with tempfile.TemporaryFile(dir=OUT) as err:
        proc = subprocess.Popen(
            [sys.executable, "-m", "lseq.cli", *argv],
            stdout=subprocess.PIPE,
            stderr=err,
            env=cli_env(),
            cwd=ROOT,
            start_new_session=True,
        )
        timer = threading.Timer(STEP_TIMEOUT_S, _kill_group, (proc.pid,))
        timer.start()
        try:
            out = proc.stdout.read().decode("utf-8", "replace")  # all of it: no early close
        finally:
            proc.stdout.close()
            _, status, usage = os.wait4(proc.pid, 0)
            timer.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)
        if proc.returncode not in (0, 1):
            err.seek(0)
            sys.stderr.write(err.read().decode("utf-8", "replace")[-2000:])
    return proc.returncode, out, usage


def _kill_group(pid: int) -> None:
    """Kill a command that outlived STEP_TIMEOUT_S, with its pool workers."""
    with contextlib.suppress(ProcessLookupError):
        os.killpg(pid, signal.SIGKILL)


def run_in_process(argv: list[str]) -> tuple[int, str]:
    from lseq import cli

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse rejected the arguments
            code = exc.code if isinstance(exc.code, int) else 2
    return code, buf.getvalue()


# --- workloads ------------------------------------------------------------


def _decimal(pairs: list[list[int]]) -> list[list[str]]:
    return [[str(v) for v in pair] for pair in pairs]


def _json_lines(text: str) -> list[dict[str, Any]]:
    out = []
    for line in text.splitlines():
        try:
            out.append(json.loads(line))
        except json.JSONDecodeError:
            out.append({"type": "unparsed", "line": line})
    return out


def _last_of_type(text: str, kind: str) -> dict[str, Any]:
    found = [obj for obj in _json_lines(text) if obj.get("type") == kind]
    return found[-1] if found else {}


def journal_lines(path: str) -> list[dict[str, Any]]:
    with open(path, encoding="ascii") as handle:
        lines = _json_lines(handle.read())
    for obj in lines:
        obj.pop("elapsed_ms", None)
    return lines


def _scan_steps(kind: str, bound: list[str]) -> Callable[[int, str], list[Step]]:
    def steps(seed: int, tmp: str) -> list[Step]:
        return [Step(["scan", "--kind", kind, *bound, "--seed", str(seed), "--jobs", "1", "--json"], 0)]

    return steps


def _check_primes(expected: set[int]) -> Callable[[list[str], str, Any], list[str]]:
    def check(outs: list[str], tmp: str, ref: Any) -> list[str]:
        summary = _last_of_type(outs[0], "summary")
        records = sum(obj.get("type") == "record" for obj in _json_lines(outs[0]))
        got = {int(v) for v in summary.get("prime_indices", [])}
        problems = []
        if got != expected:
            problems.append(f"prime_indices {sorted(got)} != {sorted(expected)}")
        if not summary.get("complete") or records != int(summary.get("total", -1)):
            problems.append(f"incomplete scan: {records} records, summary {summary}")
        return problems

    return check


def _l4_steps(seed: int, tmp: str) -> list[Step]:
    path = os.path.join(tmp, "journal.jsonl")
    with contextlib.suppress(FileNotFoundError):
        os.remove(path)
    # --jobs 2 measured a wider run-to-run spread on 2 cores; the jobs
    # comparison is kept in the traced run (search.pool.speedup).
    j = ["--jobs", "1", "--json"]
    return [
        Step(["scan", *L4_SCAN, "--seed", str(seed), "--checkpoint", path, "--limit", "200", *j], 1),
        Step(["resume", "--path", path, "--limit", "200", *j], 1),
        Step(["resume", "--path", path, *j], 0),
        Step(["resume", "--path", path, *j], 0),
    ]


def _l4_check(outs: list[str], tmp: str, ref: list[dict[str, Any]] | None) -> list[str]:
    problems = []
    for i, (out, through) in enumerate(zip(outs, (200, 400, 602, 602))):
        summary = _last_of_type(out, "summary")
        if summary.get("completed_through") != str(through) or summary.get("total") != "602":
            problems.append(f"step {i}: summary {summary}")
        if through == 602 and (
            summary.get("twins") != _decimal(L4_TWINS)
            or summary.get("flagged_unit_pairs") != _decimal(L4_FLAGGED)
        ):
            problems.append(f"step {i}: twins {summary.get('twins')} flagged {summary.get('flagged_unit_pairs')}")
    journal = os.path.join(tmp, "journal.jsonl")
    if ref is None or not os.path.exists(journal):
        problems.append("no journal to compare")
    elif journal_lines(journal) != ref:
        problems.append("journal differs from the uninterrupted jobs=1 journal")
    return problems


def _paper_steps(seed: int, tmp: str) -> list[Step]:
    return [Step(["verify-paper", "--only", ",".join(PAPER_ANCHORS), "--json"], 0)]


def _paper_check(outs: list[str], tmp: str, ref: Any) -> list[str]:
    lines = _json_lines(outs[0])
    checks = {obj["anchor"]: obj["pass"] for obj in lines if obj.get("type") == "check"}
    result = _last_of_type(outs[0], "result").get("result", {})
    problems = []
    if result.get("pass") is not True:
        problems.append(f"verify-paper result {result}")
    if sorted(checks) != sorted(PAPER_ANCHORS) or not all(v is True for v in checks.values()):
        problems.append(f"verify-paper checks {checks}")
    return problems


WORKLOADS: dict[str, Workload] = {
    "l2-prime-exponent": Workload(
        _scan_steps("l2-prime-exponent", ["--p-max", "2000"]), _check_primes({2, 3, 379}), "modexp"
    ),
    "l3-pow2": Workload(_scan_steps("l3-pow2", ["--n-max", "12"]), _check_primes({0, 1, 2, 5}), "modexp"),
    "l4-twins-journal": Workload(_l4_steps, _l4_check, "sieve", journal=True),
    "paper-oracle": Workload(_paper_steps, _paper_check, "sieve"),
}


def run_steps(steps: list[Step], runner: Callable[[list[str]], tuple]) -> tuple[list[tuple], list[str]]:
    """Run steps in order; return each runner result and exit-code problems."""
    results, problems = [], []
    for i, step in enumerate(steps):
        result = runner(step.argv)
        results.append(result)
        if result[0] != step.exit_code:
            problems.append(f"step {i} exited {result[0]}, expected {step.exit_code}")
    return results, problems


# --- end-to-end run -------------------------------------------------------


def calibrate(loop: str) -> tuple[float, float]:
    """Run a calibration loop of calibrate.py in a fresh interpreter; return
    its (wall s, CPU s) per pass."""
    proc = subprocess.run(
        [sys.executable, "-I", os.path.join(ROOT, "bench", "calibrate.py"), loop, str(CALIBRATION_PASSES)],
        capture_output=True,
        text=True,
        timeout=STEP_TIMEOUT_S,
        check=True,
    )
    result = json.loads(proc.stdout)
    return result["wall"], result["cpu"]


def launch_version() -> float:
    """Time one ``lseq --version`` launch: interpreter start, import, parser."""
    began = time.perf_counter()
    code, out, _ = run_cli(["--version"])
    elapsed = time.perf_counter() - began
    if code != 0 or not out.startswith("lseq "):
        raise RuntimeError(f"lseq --version failed (exit {code}): {out!r}")
    return elapsed


def end_to_end(name: str, seed: int, seconds: float, tmp: str, ref: Any) -> dict[str, Any]:
    workload = WORKLOADS[name]
    run_cli(["--version"])  # compile bytecode once; not timed
    calibrate(workload.calibration)  # warm-up; not used
    setup: list[float] = []
    walls, cpus, wall_ratios, cpu_ratios, rss, failed, attempted = [], [], [], [], [], 0, 0
    began = time.perf_counter()
    before = calibrate(workload.calibration)
    calibrations = [before[0]]
    # Stop where the run ends nearest to `seconds`, so runs of long and short
    # iterations take about the same time.
    while not walls or time.perf_counter() - began + walls[-1] / 2 < seconds:
        # Set-up launches are spread over the run, not made in one burst, so
        # their median spans the same stretch of host speed as the rest.
        while not setup or sum(setup) < SETUP_SHARE * (time.perf_counter() - began):
            setup.append(launch_version())
        steps = workload.steps(seed, tmp)
        t0 = time.perf_counter()
        results, problems = run_steps(steps, run_cli)
        walls.append(time.perf_counter() - t0)
        cpus.append(sum(u.ru_utime + u.ru_stime for _, _, u in results))
        after = calibrate(workload.calibration)
        calibrations.append(after[0])
        wall_ratios.append(walls[-1] / ((before[0] + after[0]) / 2))
        cpu_ratios.append(cpus[-1] / ((before[1] + after[1]) / 2))
        before = after
        rss.append(max(u.ru_maxrss for _, _, u in results) / 1024)  # KiB -> MiB
        problems += workload.check([out for _, out, _ in results], tmp, ref)
        attempted += 1
        if problems:
            failed += 1
            print(f"run {attempted} failed: " + "; ".join(problems), file=sys.stderr)
    while len(setup) < SETUP_LAUNCHES:
        setup.append(launch_version())
    elapsed = time.perf_counter() - began
    print(f"# {name} seed={seed}: {attempted} runs, {len(setup)} set-up launches in {elapsed:.1f} s")
    error_rate = failed / attempted
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "wall_rel": (statistics.median(wall_ratios), "ratio"),
        "cpu_rel": (statistics.median(cpu_ratios), "ratio"),
        "max_rss_mb": (statistics.median(rss), "MB"),
        "success_rate": (1 - error_rate, "ratio"),
    }
    print(f"wall_s {statistics.median(walls)} s")
    print(f"cpu_s {statistics.median(cpus)} s")
    print(f"calibrate.{workload.calibration}_s {statistics.median(calibrations)} s")
    print(f"error_rate {error_rate} ratio")
    return {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}


# --- traced run -----------------------------------------------------------

# Exact counts: they must repeat on every traced iteration of one invocation.
EXACT = (
    "search.candidates",
    "search.journal.lines",
    "lfamily.eval_exact.bits",
    "lfamily.eval_exact.calls",
    "lfamily.residue.calls",
    "arith.is_prime.calls",
    "arith.multiplicative_order.calls",
    "arith.modexp_rounds",
    *(f"arith.decided.{stage}.count" for stage in BUCKETS),
)


def _targets(tracer: Any) -> dict[str, tuple[Any, str, Any]]:
    from lseq import arith, gcdlaws, lfamily, repunit, search

    return {
        "search.run_scan": (search, "run_scan", tracer.on_run_scan),
        "search.resume": (search, "resume", tracer.on_resume),
        "lfamily.eval_exact": (lfamily, "eval_exact", tracer.on_eval_exact),
        "lfamily.residue": (lfamily, "residue", None),
        "arith.is_prime": (arith, "is_prime", tracer.on_is_prime),
        "arith.multiplicative_order": (arith, "multiplicative_order", None),
        "gcdlaws.gcd_l1": (gcdlaws, "gcd_l1", None),
        "gcdlaws.gcd_l1_cross": (gcdlaws, "gcd_l1_cross", None),
        "gcdlaws.gcd_l3": (gcdlaws, "gcd_l3", None),
        "gcdlaws.gcd_l3_cross": (gcdlaws, "gcd_l3_cross", None),
        "repunit.gcd_repunit": (repunit, "gcd_repunit", None),
    }


def _percentile_ms(sorted_ns: list[int], q: float) -> float:
    if not sorted_ns:
        return 0.0
    return sorted_ns[min(len(sorted_ns) - 1, int(q * len(sorted_ns)))] / 1e6


def layer_metrics(tracer: Any, journal: str | None) -> dict[str, tuple[float, str]]:
    table, prime_ns = tracer.summary("arith.is_prime")
    span = lambda name: table.get(name, (0, 0, 0))  # noqa: E731  (calls, total ns, self ns)
    c = tracer.counts.get
    above = c("calls_above_2_64", 0)
    m: dict[str, tuple[float, str]] = {
        "cli.main.self_s": (span("cli.main")[2] / 1e9, "s"),
        "search.run_scan.self_s": (span("search.run_scan")[2] / 1e9, "s"),
        "search.resume.self_s": (span("search.resume")[2] / 1e9, "s"),
        "search.resume_read_s": (c("resume_read_ns", 0) / 1e9, "s"),
        "search.candidates": (c("candidates", 0), "count"),
        "search.journal.lines": (0, "count"),
        "search.journal.bytes": (0, "bytes"),
        "lfamily.eval_exact.calls": (span("lfamily.eval_exact")[0], "count"),
        "lfamily.eval_exact.s": (span("lfamily.eval_exact")[1] / 1e9, "s"),
        "lfamily.eval_exact.bits": (c("eval_exact.bits", 0), "bits"),
        "lfamily.residue.calls": (span("lfamily.residue")[0], "count"),
        "lfamily.residue.s": (span("lfamily.residue")[1] / 1e9, "s"),
        "arith.is_prime.calls": (len(prime_ns), "count"),
        "arith.is_prime.s": (sum(prime_ns) / 1e9, "s"),
        "arith.is_prime.p50_ms": (_percentile_ms(prime_ns, 0.50), "ms"),
        "arith.is_prime.p99_ms": (_percentile_ms(prime_ns, 0.99), "ms"),
    }
    for stage in BUCKETS:
        m[f"arith.decided.{stage}.count"] = (c(f"decided.{stage}.count", 0), "count")
        m[f"arith.decided.{stage}.s"] = (c(f"decided.{stage}.ns", 0) / 1e9, "s")
    m["arith.modexp_rounds"] = (c("modexp_rounds", 0), "count")
    m["arith.trial_kill_ratio"] = (c("trial_kills_above_2_64", 0) / above if above else 0.0, "ratio")
    m["arith.multiplicative_order.calls"] = (span("arith.multiplicative_order")[0], "count")
    m["arith.multiplicative_order.s"] = (span("arith.multiplicative_order")[1] / 1e9, "s")
    for fn in ("gcd_l1", "gcd_l1_cross", "gcd_l3", "gcd_l3_cross"):
        m[f"gcdlaws.{fn}.s"] = (span(f"gcdlaws.{fn}")[1] / 1e9, "s")
    m["repunit.gcd_repunit.s"] = (span("repunit.gcd_repunit")[1] / 1e9, "s")
    if journal is not None:
        with open(journal, "rb") as handle:
            raw = handle.read()
        m["search.journal.lines"] = (raw.count(b"\n"), "count")
        m["search.journal.bytes"] = (len(raw), "bytes")
    return m


def _median(values: list[float]) -> float:
    """Median, keeping an exact count exact (an int) when all runs agree."""
    return values[0] if len(set(values)) == 1 else statistics.median(values)


def pool_speedup(seed: int) -> float:
    """In-process run_scan time of the l4 spec at jobs=1 over jobs=2
    (median of three each, alternating, untraced)."""
    from lseq.search import ScanSpec, run_scan

    spec = ScanSpec(kind="l4_twins", n_max=603, seed=seed)
    times: dict[int, list[float]] = {1: [], 2: []}
    for _ in range(3):
        for jobs in (1, 2):
            began = time.perf_counter()
            run_scan(spec, jobs=jobs)
            times[jobs].append(time.perf_counter() - began)
    one, two = statistics.median(times[1]), statistics.median(times[2])
    print(f"# l4 run_scan in-process: jobs=1 {one:.3f} s, jobs=2 {two:.3f} s")
    return one / two


def traced(name: str, seed: int, seconds: float, tmp: str, ref: Any) -> dict[str, Any]:
    sys.path.insert(0, SRC)
    from lseq import arith, cli, gcdlaws, lfamily, repunit, search

    os.environ.pop("LSEQ_JOBS", None)
    workload = WORKLOADS[name]
    modules = [cli, search, lfamily, arith, gcdlaws, repunit]
    journal = os.path.join(tmp, "journal.jsonl") if workload.journal else None
    began = time.perf_counter()
    speedup = pool_speedup(seed) if workload.journal else 0.0

    def iteration(tracer: Any | None) -> tuple[float, list[str]]:
        steps = workload.steps(seed, tmp)
        runner = run_in_process if tracer is None else lambda argv: tracer.run("cli.main", run_in_process, argv)
        t0 = time.perf_counter()
        results, problems = run_steps(steps, runner)
        wall = time.perf_counter() - t0
        return wall, problems + workload.check([out for _, out in results], tmp, ref)

    untraced_wall, problems = iteration(None)
    failed, attempted = int(bool(problems)), 1
    runs: list[dict[str, tuple[float, str]]] = []
    walls: list[float] = []
    while len(runs) < 2 or time.perf_counter() - began + walls[-1] / 2 < seconds:
        tracer = Tracer()
        tracer.install(modules, _targets(tracer))
        try:
            wall, problems = iteration(tracer)
        finally:
            tracer.uninstall()
        attempted += 1
        failed += bool(problems)
        walls.append(wall)
        runs.append(layer_metrics(tracer, journal))
        for problem in problems:
            print(f"traced run {attempted}: {problem}", file=sys.stderr)
    tracer.write(os.path.join(OUT, f"spans-{name}.tsv.gz"))

    mismatched = [key for key in EXACT if len({run[key][0] for run in runs}) != 1]
    if mismatched:
        print(f"exact counts differ between traced runs: {mismatched}", file=sys.stderr)
    metrics = {key: (_median([run[key][0] for run in runs]), unit) for key, (_, unit) in runs[0].items()}
    metrics["search.pool.speedup"] = (speedup, "ratio")
    metrics["trace.wall_s"] = (statistics.median(walls), "s")
    metrics["trace.overhead_s"] = (statistics.median(walls) - untraced_wall, "s")
    print(f"# {name} seed={seed}: untraced {untraced_wall:.3f} s, {len(runs)} traced runs")
    return {
        "correct": failed == 0 and not mismatched,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }


# --- entry point ----------------------------------------------------------


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not os.path.isfile(os.path.join(SRC, "lseq", "cli.py")):
        print(f"error: no lseq sources under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    os.makedirs(OUT, exist_ok=True)
    tmp = tempfile.mkdtemp(dir=OUT)
    try:
        ref = reference_journal(args.seed, tmp) if WORKLOADS[args.workload].journal else None
        run = traced if args.trace else end_to_end
        result = run(args.workload, args.seed, args.seconds, tmp, ref)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    for key, (value, unit) in result["metrics"].items():
        print(f"{key} {value} {unit}")
    result["metrics"] = {key: {"value": value, "unit": unit} for key, (value, unit) in result["metrics"].items()}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
