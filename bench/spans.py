"""In-memory span tracer for the lseq benchmark's per-layer run.

The tracer never edits the package.  It replaces public functions at every
module attribute that names them (``lseq.search.is_prime``,
``lseq.cli.run_scan``, ...), so each call is timed at the name its caller
resolves, and restores the originals afterwards.  Spans are kept in flat
arrays (name, depth, start, end; the parent follows from depth and order)
because the oracle workload makes over a million calls; counts are
recorded by the same wrappers, at the same boundaries.
"""

from __future__ import annotations

import gzip
import time
from array import array
from typing import Any, Callable

# is_prime verdict buckets, in report order.  "other" takes any evidence
# string this file does not recognise, so a new proof stage still counts.
BUCKETS = ("small", "trial", "mr64", "mr2", "lucas", "bpsw", "other")
_SMALL = 1 << 20  # values decided by lookup in the 2^20 sieve
_WORD = 1 << 64  # below this, Miller-Rabin is deterministic
_KEYS = {stage: (f"decided.{stage}.count", f"decided.{stage}.ns") for stage in BUCKETS}


def bucket(verdict: Any) -> str:
    """Which primality stage decided a verdict, from its public fields."""
    evidence = verdict.evidence or ""
    if verdict.classification == "unit" or evidence in ("zero", "trial_division"):
        return "small"
    if evidence.startswith("factor="):
        return "small" if verdict.n <= _SMALL else "trial"
    if evidence.startswith("square_of="):
        return "trial"
    if evidence.startswith("mr_deterministic:"):
        return "mr64"
    if evidence.startswith("mr_witness="):
        if verdict.n < _WORD:
            return "mr64"
        return "mr2" if verdict.rounds == 1 else "bpsw"
    if evidence == "lucas_witness":
        return "lucas"
    if evidence.startswith("bpsw+"):
        return "bpsw"
    return "other"


class Tracer:
    """Spans and counters for one traced workload iteration.

    A span is stored when it ends, as (name, depth, start, end), so spans are
    in completion order and each parent follows its children; the parent of
    a span is the next span to end one level up.  Storing at the end keeps
    the wrapper cheap: it knows no span index on entry.
    """

    def __init__(self) -> None:
        self.names: list[str] = []
        self.name_of = array("H")
        self.depth = array("H")
        self.start = array("q")
        self.end = array("q")
        self._level = [0]
        self._patches: list[tuple[Any, str, Any]] = []
        self.counts: dict[str, int] = {}
        self._journal_done: dict[str, int] = {}

    def add(self, key: str, amount: int = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + amount

    def wrap(self, name: str, fn: Callable, on_result: Callable | None = None) -> Callable:
        """fn wrapped to record a span named name, then call on_result."""
        if name not in self.names:
            self.names.append(name)
        name_id = self.names.index(name)
        name_of, depth, start, end, level = self.name_of, self.depth, self.start, self.end, self._level
        clock = time.perf_counter_ns

        def traced(*args: Any, **kwargs: Any) -> Any:
            d = level[0]
            level[0] = d + 1
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                level[0] = d
                name_of.append(name_id)
                depth.append(d)
                start.append(t0)
                end.append(t1)
            if on_result is not None:
                on_result(args, kwargs, result, t1 - t0)
            return result

        return traced

    def install(self, modules: list[Any], targets: dict[str, tuple[Any, str, Callable | None]]) -> None:
        """Replace each target function wherever a module in modules names it.

        targets maps span name -> (defining module, function name, on_result).
        """
        for span_name, (home, attr, on_result) in targets.items():
            original = getattr(home, attr)
            traced = self.wrap(span_name, original, on_result)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patches.append((module, key, value))
                        setattr(module, key, traced)

    def uninstall(self) -> None:
        for module, key, value in reversed(self._patches):
            setattr(module, key, value)
        self._patches.clear()

    def run(self, name: str, fn: Callable, *args: Any) -> Any:
        """Call fn under a root span (used for lseq.cli.main)."""
        return self.wrap(name, fn)(*args)

    # --- counters recorded at the wrapped boundaries ----------------------

    def on_is_prime(self, args: Any, kwargs: Any, verdict: Any, ns: int) -> None:
        # Called once per primality test (10^6 times on the oracle workload),
        # so the counters are updated inline.
        stage = bucket(verdict)
        count_key, ns_key = _KEYS[stage]
        counts = self.counts
        counts[count_key] = counts.get(count_key, 0) + 1
        counts[ns_key] = counts.get(ns_key, 0) + ns
        if verdict.rounds:
            self.add("modexp_rounds", verdict.rounds)
        if verdict.n >= _WORD:
            self.add("calls_above_2_64")
            if stage == "trial":
                self.add("trial_kills_above_2_64")

    def on_eval_exact(self, args: Any, kwargs: Any, value: int, ns: int) -> None:
        self.add("eval_exact.bits", value.bit_length())

    def on_run_scan(self, args: Any, kwargs: Any, report: Any, ns: int) -> None:
        self.add("candidates", report.completed_through)
        path = kwargs.get("checkpoint_path")
        if path is not None:
            self._journal_done[path] = report.completed_through

    def on_resume(self, args: Any, kwargs: Any, report: Any, ns: int) -> None:
        path = args[0] if args else kwargs["report_path"]
        before = self._journal_done.get(path, 0)
        self.add("candidates", report.completed_through - before)
        self._journal_done[path] = report.completed_through
        if report.complete and before == report.total:
            self.add("resume_read_ns", ns)

    # --- span analysis ----------------------------------------------------

    def summary(self, keep: str) -> tuple[dict[str, tuple[int, int, int]], list[int]]:
        """Per span name: (calls, total ns, self ns); and the sorted durations
        of the spans named keep.

        Self time is a span's duration minus the time its child spans cover.
        Spans run on one thread, so children never overlap each other and
        the time they cover is the sum of their durations.
        """
        size = len(self.names)
        calls, total, self_ns = [0] * size, [0] * size, [0] * size
        keep_id = self.names.index(keep) if keep in self.names else -1
        kept = []
        # children_ns[d]: summed duration of ended depth-d spans whose parent
        # has not ended yet.
        children_ns = [0] * (max(self.depth, default=0) + 2)
        for n, d, s, e in zip(self.name_of, self.depth, self.start, self.end):
            span = e - s
            calls[n] += 1
            total[n] += span
            self_ns[n] += span - children_ns[d + 1]
            children_ns[d + 1] = 0
            children_ns[d] += span
            if n == keep_id:
                kept.append(span)
        kept.sort()
        table = {name: (calls[i], total[i], self_ns[i]) for i, name in enumerate(self.names)}
        return table, kept

    def parents(self) -> array:
        """Index of each span's parent, or -1 for a root span."""
        parent = array("l", [-1]) * len(self.depth)
        pending: list[list[int]] = [[] for _ in range(max(self.depth, default=0) + 2)]
        for i, d in enumerate(self.depth):
            for child in pending[d + 1]:
                parent[child] = i
            pending[d + 1].clear()
            pending[d].append(i)
        return parent

    def write(self, path: str) -> None:
        """Write every span as gzip'd TSV: id, parent, name, start_ns, end_ns."""
        names = self.names
        rows = zip(self.parents(), self.name_of, self.start, self.end)
        with gzip.open(path, "wt", encoding="ascii", compresslevel=1) as out:
            out.write("id\tparent\tname\tstart_ns\tend_ns\n")
            for i, (p, n, s, e) in enumerate(rows):
                out.write(f"{i}\t{p}\t{names[n]}\t{s}\t{e}\n")
