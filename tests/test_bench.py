"""The benchmark's traced run wraps lseq functions by name, and its
paper-oracle workload selects verify-paper anchors by name; a rename in lseq
must fail here, not in the benchmark.  The layer benchmark,
tools/bench_layers.py, runs here on small inputs."""

import importlib.util
import inspect
import json
import os
import sys

from lseq.paper import ANCHORS
from lseq.search import resume, run_scan

BENCH = os.path.join(os.path.dirname(__file__), "..", "bench")


def test_traced_functions_exist(monkeypatch):
    monkeypatch.syspath_prepend(BENCH)  # run.py imports spans.py from its directory
    spec = importlib.util.spec_from_file_location("bench_run", os.path.join(BENCH, "run.py"))
    run = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, run)  # its dataclasses look it up
    spec.loader.exec_module(run)
    targets = run._targets(run.Tracer())
    assert targets
    for name, (module, attr, _) in targets.items():
        assert callable(getattr(module, attr, None)), name
    # The run_scan and resume hooks read these arguments by name.
    assert "checkpoint_path" in inspect.signature(run_scan).parameters
    assert list(inspect.signature(resume).parameters)[0] == "report_path"
    assert [name for name in run.PAPER_ANCHORS if name not in ANCHORS] == []


def test_layer_benchmark_writes_its_keys(monkeypatch, tmp_path):
    monkeypatch.setattr(sys, "path", sys.path[:])  # the tool puts src on it
    path = os.path.join(os.path.dirname(__file__), "..", "tools", "bench_layers.py")
    spec = importlib.util.spec_from_file_location("bench_layers", path)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    small = (("ROOT", str(tmp_path)), ("L_FORM_BITS", (256, 512)), ("P_MAX", 400), ("REPEATS", 1))
    for name, value in small:
        monkeypatch.setattr(tool, name, value)
    assert tool.main(["--label", "small"]) == 0
    with open(tmp_path / "BENCH_small.json") as report_file:
        report = json.load(report_file)
    assert report["label"] == "small" and report["repeats"] == 1
    layers = report["layers"]
    assert set(layers) == {"l_form_test", "block_build", "block_stage", "launch"}
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
    build = layers["block_build"]
    assert build["blocks"] == [10, 18]
    for kind in ("all", "pm1_mod_5"):
        assert set(build[kind]["ms"]) == timing
    # The L2/L4 blocks hold the primes = +-1 mod 5, about half of them.
    assert 0.4 < build["pm1_mod_5"]["bits"] / build["all"]["bits"] < 0.6
    stage = layers["block_stage"]
    assert set(stage["ms"]) == timing
    assert stage["values"] > 0 and stage["gcds"] >= stage["values"] >= stage["factors"] > 0
    launch = layers["launch"]
    assert set(launch) == {"pass", "import_cli", "version", "cli_modules"}
    for name in ("pass", "import_cli", "version"):
        assert set(launch[name]) == {"ms", "rss_mb"}
        assert set(launch[name]["ms"]) == timing
        assert launch[name]["rss_mb"] > 0
    # Importing the CLI loads modules and takes memory beyond the bare interpreter.
    assert launch["cli_modules"] > 0
    assert launch["import_cli"]["rss_mb"] > launch["pass"]["rss_mb"]
