"""The benchmark's traced run wraps lseq functions by name, and its
paper-oracle workload selects verify-paper anchors by name; a rename in lseq
must fail here, not in the benchmark.  The layer benchmark,
tools/bench_layers.py, runs here on small inputs."""

import importlib.util
import inspect
import json
import math
import os
import sys

from lseq import arith
from lseq.lfamily import LFamily, eval_exact
from lseq.paper import ANCHORS
from lseq.cli import _build_parser
from lseq.search import ScanSpec, resume, run_scan

BENCH = os.path.join(os.path.dirname(__file__), "..", "bench")


def _bench_run(monkeypatch):
    """bench/run.py, loaded as a module."""
    monkeypatch.syspath_prepend(BENCH)  # run.py imports spans.py from its directory
    spec = importlib.util.spec_from_file_location("bench_run", os.path.join(BENCH, "run.py"))
    run = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, run)  # its dataclasses look it up
    spec.loader.exec_module(run)
    return run


def test_traced_functions_exist(monkeypatch):
    run = _bench_run(monkeypatch)
    targets = run._targets(run.Tracer())
    assert targets
    for name, (module, attr, _) in targets.items():
        assert callable(getattr(module, attr, None)), name
    # The run_scan and resume hooks read these arguments by name.
    assert "checkpoint_path" in inspect.signature(run_scan).parameters
    assert list(inspect.signature(resume).parameters)[0] == "report_path"
    assert [name for name in run.PAPER_ANCHORS if name not in ANCHORS] == []


def test_benchmark_command_lines_parse(monkeypatch, tmp_path):
    # Every argv a workload passes to the CLI, and the spec its pool timing
    # builds, are accepted: a dropped flag fails here, not as a
    # success_rate of 0.
    run = _bench_run(monkeypatch)
    parser = _build_parser()
    argvs = [step.argv for workload in run.WORKLOADS.values() for step in workload.steps(0, str(tmp_path))]
    assert {argv[0] for argv in argvs} == {"scan", "resume", "verify-paper"}
    for argv in argvs:
        parser.parse_args(argv)
    assert ScanSpec(kind="l4_twins", n_max=603, seed=0).seed == 0


def test_layer_benchmark_writes_its_keys(monkeypatch, tmp_path):
    monkeypatch.setattr(sys, "path", sys.path[:])  # the tool puts src on it
    path = os.path.join(os.path.dirname(__file__), "..", "tools", "bench_layers.py")
    spec = importlib.util.spec_from_file_location("bench_layers", path)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    small = (
        ("ROOT", str(tmp_path)),
        ("L_FORM_BITS", (256, 512)),
        ("SMALL_H", range(33, 49)),
        ("BPSW_BITS", (128, 256)),
        ("P_MAX", 400),
        ("WINDOW", 200),
        ("TABLE", range(2, 1001)),
        ("REPEATS", 1),
    )
    for name, value in small:
        monkeypatch.setattr(tool, name, value)
    assert tool.main(["--label", "small"]) == 0
    with open(tmp_path / "BENCH_small.json") as report_file:
        report = json.load(report_file)
    assert report["label"] == "small" and report["repeats"] == 1
    layers = report["layers"]
    assert set(layers) == {
        "l_form_test", "small_l_form", "bpsw", "block_build", "trial", "mr64", "table", "launch"
    }
    timing = {"median", "q1", "q3"}
    # The power of all four families and the N+1 proof of L2/L4 make
    # reductions on every value, so each row times its family at h = bits/2
    # (an L1 or L2 value has one bit more).
    rows = layers["l_form_test"]
    assert sorted((r["test"], r["family"], r["bits"] // 2) for r in rows) == sorted(
        [("power", family, h) for family in ("L1", "L2", "L3", "L4") for h in (128, 256)]
        + [("n_plus_1", family, h) for family in ("L2", "L4") for h in (128, 256)]
    )
    for row in rows:
        assert set(row["builtin_ms"]) == set(row["reducer_ms"]) == timing
        assert row["builtin_over_reducer"] > 0
        # h squarings, one product and h - 1 squarings; for the proof, two
        # per bit of 2^h + 1 (L2) or 2^h - 1 (L4) after the first, then h - 2.
        h = row["bits"] // 2
        proof = 3 * h - 2 if row["family"] == "L2" else 3 * h - 4
        assert row["reductions"] == (2 * h if row["test"] == "power" else proof)
    # Every L1-L4 value with 33 <= h <= 48, timed with both reductions; trial
    # division and the blocks decide some, the proof stage the others.
    small = layers["small_l_form"]
    assert small["h"] == [33, 48] and small["values"] == 4 * 16
    assert 0 < small["proofs"] < small["values"]
    assert set(small["reducer_ms"]) == set(small["builtin_ms"]) == timing
    assert small["builtin_over_reducer"] > 0
    # A prime of no L-form passes the base-2 and Lucas tests: rounds 2.
    assert [row["bits"] for row in layers["bpsw"]] == [128, 256]
    for row in layers["bpsw"]:
        assert set(row["ms"]) == timing
        assert row["rounds"] == 2
    build = layers["block_build"]
    assert build["blocks"] == [1, 18]
    for kind in ("all", "pm1_mod_5"):
        assert set(build[kind]["ms"]) == timing
    # The L2/L4 blocks hold the primes = +-1 mod 5, about half of them.
    assert 0.4 < build["pm1_mod_5"]["bits"] / build["all"]["bits"] < 0.6
    # Every value above 2^20 takes the trial stage: each L2(p), p >= 11, and
    # each n of the window, which is divided by blocks 1 to 10 up to the
    # block of its least prime factor, if that is at most 2^10.
    stage = layers["trial"]
    assert set(stage) == {"l2_prime_exponent", "window_2_32"}
    l2 = stage["l2_prime_exponent"]
    assert l2["p_max"] == 400
    assert l2["values"] == sum(eval_exact(LFamily.L2, p) > 2**20 for p in arith.sieve_primes(400))
    assert l2["gcds"] >= l2["values"] >= l2["factors"] > 0
    window = stage["window_2_32"]
    assert window["n"] == [2**32, 2**32 + 199] and window["values"] == 200
    least = [next((p for p in arith._ROOT_PRIMES if n % p == 0), None) for n in range(2**32, 2**32 + 200)]
    assert window["factors"] == sum(p is not None for p in least)
    assert window["gcds"] == sum(10 if p is None else (p - 1).bit_length() for p in least)
    for row in (l2, window):
        assert set(row["ms"]) == timing
    # The window's n with no prime factor up to 2^10 reach the strong tests:
    # a prime passes all seven bases, a composite there fails base 2.
    mr = layers["mr64"]
    survivors = [n for n, p in zip(range(2**32, 2**32 + 200), least) if p is None]
    primes = sum(all(n % d for d in range(3, math.isqrt(n) + 1, 2)) for n in survivors)
    assert mr["n"] == [2**32, 2**32 + 199] and mr["values"] == len(survivors)
    assert mr["primes"] == primes > 0
    assert mr["strong_tests"] == 7 * primes + len(survivors) - primes
    assert set(mr["ms"]) == timing
    # One table lookup per n in 2..1000.
    lookup = layers["table"]
    assert set(lookup) == {"n", "ms", "calls", "ns_per_call"}
    assert lookup["n"] == [2, 1000] and lookup["calls"] == 999
    assert set(lookup["ms"]) == timing
    assert lookup["ns_per_call"] == lookup["ms"]["median"] * 1e6 / 999 > 0
    launch = layers["launch"]
    assert set(launch) == {"pass", "import_cli", "version", "scan", "cli_modules"}
    for name in ("pass", "import_cli", "version", "scan"):
        assert set(launch[name]) == {"ms", "rss_mb"}
        assert set(launch[name]["ms"]) == timing
        assert launch[name]["rss_mb"] > 0
    # Importing the CLI loads modules and takes memory beyond the bare interpreter.
    assert launch["cli_modules"] > 0
    assert launch["import_cli"]["rss_mb"] > launch["pass"]["rss_mb"]
