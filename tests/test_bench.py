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
    for name, value in (("ROOT", str(tmp_path)), ("BITS", (512, 704)), ("P_MAX", 400), ("REPEATS", 1)):
        monkeypatch.setattr(tool, name, value)
    assert tool.main(["--label", "small"]) == 0
    with open(tmp_path / "BENCH_small.json") as report_file:
        report = json.load(report_file)
    assert report["label"] == "small" and report["repeats"] == 1
    layers = report["layers"]
    assert set(layers) == {"strong_test", "block_build", "block_stage"}
    timing = {"median", "q1", "q3"}
    rows = layers["strong_test"]
    assert {(r["test"], r["family"]) for r in rows} == {
        (test, family) for test in ("base2", "lucas", "random_base") for family in ("L1", "L2", "L3", "L4")
    }
    for row in rows:
        assert set(row["builtin_ms"]) == set(row["reducer_ms"]) == timing
        assert row["reductions"] > 0 and row["builtin_over_reducer"] > 0
    # The Lucas parameter search finds a factor of L4(352) and L4(353), so
    # the 704-bit L4 rows time L4(354).
    assert sorted(r["bits"] for r in rows if r["family"] == "L4") == [512] * 3 + [708] * 3
    build = layers["block_build"]
    assert build["blocks"] == [10, 18]
    for kind in ("all", "pm1_mod_5"):
        assert set(build[kind]["ms"]) == timing
    # The L2/L4 blocks hold the primes = +-1 mod 5, about half of them.
    assert 0.4 < build["pm1_mod_5"]["bits"] / build["all"]["bits"] < 0.6
    stage = layers["block_stage"]
    assert set(stage["ms"]) == timing
    assert stage["values"] > 0 and stage["gcds"] >= stage["values"] >= stage["factors"] > 0
