"""Layer benchmark: times the exponentiation and block layers of lseq.arith
on fixed inputs and writes BENCH_<label>.json at the repository root.

    python3 tools/bench_layers.py --label L

Run from a source checkout (``src`` is put on the path).  Each timing is
the median and quartiles, in ms, of REPEATS in-process runs (the full run
takes a few minutes on 2 vCPUs), after an untimed run that counts the work
and fills every cache the timed code uses.  The counts let a change in work
be told apart from a change in speed.  The layers:

- strong_test: the base-2 strong test, the strong Lucas test and a
  random-base strong test on L1-L4 values of 512 to 8192 bits, each with
  builtin pow and % ("builtin_ms") and with the shift-add reducer
  ("reducer_ms"), whatever size floor is_prime applies; the work is the
  number of reductions the reducer path makes.  A value on which one of
  the tests returns before exponentiating (the Lucas parameter search can
  find a factor) is replaced by the next one of its family.
- l_form_test: the two steps of the L2/L4 stage on L2 and L4 values of 704
  to 4096 bits, with builtin % and with the reducer, as in strong_test:
  the strong base-2 test by squarings alone ("base2_squarings") and the
  N+1 proof ("n_plus_1").  Rows of different layers are taken minutes
  apart, so set "base2_squarings" against strong_test's "base2" only by
  runs made back to back.
- block_build: building the blocks of primes 10..18 from the smallest-factor
  table, the full blocks and the L2/L4 blocks of primes = +-1 mod 5.
- block_stage: _block_factor on every L2(p), p <= 2000 prime, value that
  is_prime hands to it, with the gcds made and the factors found.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import statistics
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

from lseq import arith  # noqa: E402
from lseq.lfamily import LFamily, eval_exact  # noqa: E402

BITS = (512, 640, 704, 768, 1024, 2048, 4096, 8192)
L_FORM_BITS = (704, 1024, 2048, 4096)
P_MAX = 2000
REPEATS = 5
BLOCKS = range(arith._FIRST_BLOCK, arith._BLOCK_CAP.bit_length())
TESTS = {
    "base2": lambda n, reduce: arith._strong_probable_prime(n, 2, reduce),
    "lucas": lambda n, reduce: arith._strong_lucas_probable_prime(n, reduce),
    "random_base": lambda n, reduce: arith._strong_probable_prime(
        n, random.Random(n).randrange(3, n - 1), reduce
    ),
}


def _h_s1(n: int) -> tuple[int, int]:
    h, s1, _ = arith._l_form(n)
    return h, s1


# The L2/L4 stage's steps take reduce(x) = x mod n; n.__rmod__ is builtin %.
L_FORM_TESTS = {
    "base2_squarings": lambda n, reduce: arith._l_form_base2(n, *_h_s1(n), reduce or n.__rmod__),
    "n_plus_1": lambda n, reduce: arith._n_plus_1_proof(n, *_h_s1(n), reduce or n.__rmod__),
}


def _timed(fn, repeats: int) -> dict[str, float]:
    """Median and quartiles in ms of repeats runs of fn."""
    runs = []
    for _ in range(repeats):
        start = time.perf_counter_ns()
        fn()
        runs.append((time.perf_counter_ns() - start) / 1e6)
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


def _tested_value(tests: dict, family: LFamily, bits: int) -> tuple[int, dict[str, int]]:
    """The first value of family from h = bits/2 up on which every test
    makes reductions, and the number each test makes."""
    h = bits // 2
    while True:
        n = eval_exact(family, h)
        reduce = arith._l_form_reducer(n)
        reductions = {}
        for name, test in tests.items():
            counted, calls = _counting(reduce)
            test(n, counted)
            reductions[name] = calls[0]
        if all(reductions.values()):
            return n, reductions
        h += 1


def timed_rows(tests: dict, families, bits_list, repeats: int) -> list[dict]:
    """One row per test, family and size: builtin and reducer timings."""
    rows = []
    for bits in bits_list:
        for family in families:
            n, reductions = _tested_value(tests, family, bits)
            reduce = arith._l_form_reducer(n)
            for name, test in tests.items():
                builtin = _timed(lambda: test(n, None), repeats)
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
    arith._block_factor = lambda n: values.append(n) or real(n)
    try:
        for p in arith.sieve_primes(p_max):
            arith.is_prime(eval_exact(LFamily.L2, p))
    finally:
        arith._block_factor = real
    # _block_factor makes one gcd per _prime_block call.
    block = arith._prime_block
    arith._prime_block, gcds = _counting(block)
    try:
        found = sum(real(n) is not None for n in values)
    finally:
        arith._prime_block = block
    return {
        "p_max": p_max,
        "ms": _timed(lambda: [real(n) for n in values], repeats),
        "values": len(values),
        "gcds": gcds[0],
        "factors": found,
    }


def layers(bits_list, l_form_bits, p_max: int, repeats: int) -> dict:
    return {
        "strong_test": timed_rows(TESTS, LFamily, bits_list, repeats),
        "l_form_test": timed_rows(L_FORM_TESTS, (LFamily.L2, LFamily.L4), l_form_bits, repeats),
        "block_build": block_build(repeats),
        "block_stage": block_stage(p_max, repeats),
    }


def _dump(value, depth: int = 0) -> str:
    """value as JSON with one line per item down to depth 3, so that each
    strong_test and l_form_test row takes one line."""
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
        "l_form_min_bits": arith._L_FORM_MIN_BITS,
        "layers": layers(BITS, L_FORM_BITS, P_MAX, REPEATS),
    }
    path = os.path.join(ROOT, f"BENCH_{args.label}.json")
    with open(path, "w") as out:
        out.write(_dump(report) + "\n")
    print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
