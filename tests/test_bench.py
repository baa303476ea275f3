"""The benchmark's traced run wraps lseq functions by name, and its
paper-oracle workload selects verify-paper anchors by name; a rename in lseq
must fail here, not in the benchmark."""

import importlib.util
import inspect
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
