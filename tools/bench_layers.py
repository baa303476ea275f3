"""Layer benchmark: times the L-form proof and block layers of lseq.arith,
and the launch of the CLI, on fixed inputs and writes BENCH_<label>.json at
the repository root.

    python3 tools/bench_layers.py --label L

Run from a source checkout (``src`` is put on the path).  Each timing but
the launches is the median and quartiles, in ms, of REPEATS in-process
runs (the full run takes a few minutes on 2 vCPUs), after an untimed run
that counts the work and fills every cache the timed code uses.  The counts let a change in work
be told apart from a change in speed.  The layers:

- l_form_test: the exponentiations of the L-form proof stage on L1-L4
  values of 256 to 8192 bits, each with builtin % ("builtin_ms") and with
  the shift-add reducer ("reducer_ms"), which is_prime uses: the power
  a^((n - s0)/2) of all four families ("power"; a is 2 for L2/L4 and the
  Euler base of the N-1 proof for L1/L3) and the N+1 proof of L2 and L4
  ("n_plus_1").  The work is the number of reductions each makes.  A value
  on which one of them makes none (the N+1 parameter search can fail) is
  replaced by the next one of its family.
- block_build: building the blocks of primes 10..18 from the smallest-factor
  table, the full blocks and the L2/L4 blocks of primes = +-1 mod 5.
- block_stage: _block_factor on every L2(p), p <= 2000 prime, value that
  is_prime hands to it, with the gcds made and the factors found.
- launch: fresh ``python -S`` processes for ``-c pass`` (the interpreter
  alone), ``-c "import lseq.cli"`` and ``-m lseq.cli --version`` (bench/run.py
  times it, with site, as setup_s), each with its peak RSS from wait4.  They
  run in turn, LAUNCH_ROUNDS times per repeat, so that they share the host's
  load.  The work is the number of modules ``import lseq.cli`` adds.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, SRC)

from lseq import arith  # noqa: E402
from lseq.lfamily import LFamily, eval_exact  # noqa: E402

L_FORM_BITS = (256, 512, 1024, 2048, 4096, 8192)
P_MAX = 2000
REPEATS = 5
BLOCKS = range(arith._FIRST_BLOCK, arith._BLOCK_CAP.bit_length())
LAUNCHES = {
    "pass": ["-c", "pass"],
    "import_cli": ["-c", "import lseq.cli"],
    "version": ["-m", "lseq.cli", "--version"],
}
LAUNCH_ROUNDS = 4


def _power(n: int, reduce) -> int:
    h, s1, s0 = arith._l_form(n)
    a = 2 if s0 < 0 else next(a for a in arith._TRIAL_PRIMES[1:] if arith._jacobi(a, n) == -1)
    return arith._l_form_power(a, n, h, s1, reduce)


def _n_plus_1(n: int, reduce):
    h, s1, _ = arith._l_form(n)
    return arith._n_plus_1_proof(n, h, s1, reduce)


# Each step takes reduce(x) = x mod n (n.__rmod__ is builtin %), and the
# families it applies to.
L_FORM_TESTS = {
    "power": (_power, tuple(LFamily)),
    "n_plus_1": (_n_plus_1, (LFamily.L2, LFamily.L4)),
}


def _timed(fn, repeats: int) -> dict[str, float]:
    """Median and quartiles in ms of repeats runs of fn."""
    runs = []
    for _ in range(repeats):
        start = time.perf_counter_ns()
        fn()
        runs.append((time.perf_counter_ns() - start) / 1e6)
    return _quartiles(runs)


def _quartiles(runs: list[float]) -> dict[str, float]:
    if len(runs) == 1:
        return {"median": runs[0], "q1": runs[0], "q3": runs[0]}
    q1, median, q3 = statistics.quantiles(runs, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def _counting(fn):
    """fn, and a one-element list counting its calls."""
    calls = [0]

    def counted(*args):
        calls[0] += 1
        return fn(*args)

    return counted, calls


def _reducer(n: int):
    return arith._l_form_reducer(n, *arith._l_form(n))


def _tested_value(tests: dict, family: LFamily, bits: int) -> tuple[int, dict[str, int]]:
    """The first value of family from h = bits/2 up on which every test
    makes reductions, and the number each test makes."""
    h = bits // 2
    while True:
        n = eval_exact(family, h)
        reductions = {}
        for name, test in tests.items():
            counted, calls = _counting(_reducer(n))
            test(n, counted)
            reductions[name] = calls[0]
        if all(reductions.values()):
            return n, reductions
        h += 1


def l_form_rows(bits_list, repeats: int) -> list[dict]:
    """One row per test, family and size: builtin and reducer timings."""
    rows = []
    for bits in bits_list:
        for family in LFamily:
            tests = {name: test for name, (test, families) in L_FORM_TESTS.items() if family in families}
            n, reductions = _tested_value(tests, family, bits)
            reduce = _reducer(n)
            for name, test in tests.items():
                builtin = _timed(lambda: test(n, n.__rmod__), repeats)
                reduced = _timed(lambda: test(n, reduce), repeats)
                rows.append({
                    "test": name,
                    "family": family.name,
                    "bits": n.bit_length(),
                    "builtin_ms": builtin,
                    "reducer_ms": reduced,
                    "builtin_over_reducer": builtin["median"] / reduced["median"],
                    "reductions": reductions[name],
                })
    return rows


def block_build(repeats: int) -> dict:
    def build(pm1_mod_5: bool) -> None:
        arith._prime_block.cache_clear()
        for j in BLOCKS:
            arith._prime_block(j, pm1_mod_5)

    row = {"blocks": [BLOCKS.start, BLOCKS.stop - 1]}
    for kind, pm1_mod_5 in (("all", False), ("pm1_mod_5", True)):
        build(pm1_mod_5)
        row[kind] = {
            "ms": _timed(lambda: build(pm1_mod_5), repeats),
            "bits": sum(arith._prime_block(j, pm1_mod_5).bit_length() for j in BLOCKS),
        }
    return row


def block_stage(p_max: int, repeats: int) -> dict:
    values = []
    real = arith._block_factor
    arith._block_factor = lambda n, pm1_mod_5: values.append((n, pm1_mod_5)) or real(n, pm1_mod_5)
    try:
        for p in arith.sieve_primes(p_max):
            arith.is_prime(eval_exact(LFamily.L2, p))
    finally:
        arith._block_factor = real
    # _block_factor makes one gcd per _prime_block call.
    block = arith._prime_block
    arith._prime_block, gcds = _counting(block)
    try:
        found = sum(real(*value) is not None for value in values)
    finally:
        arith._prime_block = block
    return {
        "p_max": p_max,
        "ms": _timed(lambda: [real(*value) for value in values], repeats),
        "values": len(values),
        "gcds": gcds[0],
        "factors": found,
    }


# Runs one launch, python -S with the arguments given, and prints its wall
# time in ns, exit code and peak RSS in KiB.  A process's peak RSS counts the
# pages of the process it was forked from, so each launch is forked from this
# small interpreter, not from the benchmark, whose pages would count instead.
_SPAWN = """
import os, sys, time
start = time.perf_counter_ns()
pid = os.fork()
if pid == 0:
    os.dup2(os.open(os.devnull, os.O_WRONLY), 1)
    os.execv(sys.executable, [sys.executable, "-S", *sys.argv[1:]])
_, status, usage = os.wait4(pid, 0)
print(time.perf_counter_ns() - start, os.waitstatus_to_exitcode(status), usage.ru_maxrss)
"""


def _python_s(args: list[str], env: dict[str, str]) -> str:
    """The output of python -S args."""
    command = [sys.executable, "-S", *args]
    return subprocess.run(command, env=env, stdout=subprocess.PIPE, text=True, check=True).stdout


def _launch(args: list[str], env: dict[str, str]) -> tuple[float, float]:
    """Wall time in ms and peak RSS in MiB of one python -S launch."""
    ns, code, rss = map(int, _python_s(["-c", _SPAWN, *args], env).split())
    if code != 0:
        raise RuntimeError(f"python -S {' '.join(args)} exited {code}")
    return ns / 1e6, rss / 1024


def launch(repeats: int) -> dict:
    """Each launch's wall time and peak RSS, and the modules the CLI adds.
    The launches find src on the path and its bytecode cached, as an
    installed package would have it."""
    count = "import sys; n = len(sys.modules); import lseq.cli; print(len(sys.modules) - n)"
    runs = {name: [] for name in LAUNCHES}
    with tempfile.TemporaryDirectory() as cache:
        env = dict(os.environ, PYTHONPATH=SRC, PYTHONPYCACHEPREFIX=cache)
        env.pop("PYTHONDONTWRITEBYTECODE", None)
        modules = int(_python_s(["-c", count], env))  # untimed; writes the bytecode
        for _ in range(LAUNCH_ROUNDS * repeats):
            for name, args in LAUNCHES.items():
                runs[name].append(_launch(args, env))
    row = {
        name: {
            "ms": _quartiles([ms for ms, _ in taken]),
            "rss_mb": statistics.median(rss for _, rss in taken),
        }
        for name, taken in runs.items()
    }
    return {**row, "cli_modules": modules}


def layers(l_form_bits, p_max: int, repeats: int) -> dict:
    return {
        "l_form_test": l_form_rows(l_form_bits, repeats),
        "block_build": block_build(repeats),
        "block_stage": block_stage(p_max, repeats),
        "launch": launch(repeats),
    }


def _dump(value, depth: int = 0) -> str:
    """value as JSON with one line per item down to depth 3, so that each
    l_form_test row takes one line."""
    if depth == 3 or not isinstance(value, (dict, list)):
        return json.dumps(value)
    if isinstance(value, dict):
        items = [f"{json.dumps(key)}: {_dump(item, depth + 1)}" for key, item in value.items()]
        start, end = "{", "}"
    else:
        items = [_dump(item, depth + 1) for item in value]
        start, end = "[", "]"
    pad = "\n" + " " * (depth + 1)
    return start + pad + ("," + pad).join(items) + "\n" + " " * depth + end


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--label", required=True, help="file name suffix: BENCH_<label>.json")
    args = parser.parse_args(argv)
    report = {
        "label": args.label,
        "python": platform.python_version(),
        "machine": platform.machine(),
        "cpus": os.cpu_count(),
        "repeats": REPEATS,
        "layers": layers(L_FORM_BITS, P_MAX, REPEATS),
    }
    path = os.path.join(ROOT, f"BENCH_{args.label}.json")
    with open(path, "w") as out:
        out.write(_dump(report) + "\n")
    print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
