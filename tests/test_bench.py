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
    small = (("ROOT", str(tmp_path)), ("BITS", (512, 704)), ("L_FORM_BITS", (704, 1024)),
             ("P_MAX", 400), ("REPEATS", 1))
    for name, value in small:
        monkeypatch.setattr(tool, name, value)
    assert tool.main(["--label", "small"]) == 0
    with open(tmp_path / "BENCH_small.json") as report_file:
        report = json.load(report_file)
    assert report["label"] == "small" and report["repeats"] == 1
    layers = report["layers"]
    assert set(layers) == {"strong_test", "l_form_test", "block_build", "block_stage"}
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
    # The L2/L4 stage's two steps make reductions on every value, so each
    # row times L2 or L4 at h = bits/2 (an L2 value has one bit more).
    rows = layers["l_form_test"]
    assert sorted((r["test"], r["family"], r["bits"] // 2) for r in rows) == [
        (test, family, h)
        for test in ("base2_squarings", "n_plus_1")
        for family in ("L2", "L4")
        for h in (352, 512)
    ]
    for row in rows:
        assert set(row["builtin_ms"]) == set(row["reducer_ms"]) == timing
        assert row["builtin_over_reducer"] > 0
        # 2h - 1 squarings and a doubling or halving; for the proof, two per
        # bit of 2^h + 1 (L2) or 2^h - 1 (L4) after the first, then h - 2.
        h = row["bits"] // 2
        proof = 3 * h - 2 if row["family"] == "L2" else 3 * h - 4
        assert row["reductions"] == (2 * h if row["test"] == "base2_squarings" else proof)
    build = layers["block_build"]
    assert build["blocks"] == [10, 18]
    for kind in ("all", "pm1_mod_5"):
        assert set(build[kind]["ms"]) == timing
    # The L2/L4 blocks hold the primes = +-1 mod 5, about half of them.
    assert 0.4 < build["pm1_mod_5"]["bits"] / build["all"]["bits"] < 0.6
    stage = layers["block_stage"]
    assert set(stage["ms"]) == timing
    assert stage["values"] > 0 and stage["gcds"] >= stage["values"] >= stage["factors"] > 0
