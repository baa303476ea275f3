"""Fixed calibration loops that measure how fast the host runs right now.

    python3 -I bench/calibrate.py sieve|modexp PASSES

prints one JSON object: the median wall and CPU seconds of PASSES passes
of the loop.

The benchmark runs on shared machines whose speed drifts by 10-20% over
minutes, in wall and CPU time alike.  Each workload repetition is timed
between two calibration runs, each in a fresh interpreter as the workload
itself is, and the end-to-end timings are reported as multiples of the
calibration time, so a slower host slows both sides of the ratio.  The loops
use only the standard library, never the lseq package, so no change to the
program can move them.  Each pass takes about 0.08 s on a 2-vCPU virtual
machine with CPython 3.11.

- ``sieve``: a bytearray sieve to 10^6, then a strided pass over it that
  builds a small dataclass per entry: many tiny interpreted steps over a
  table larger than the L2 cache, the character of ``verify-paper`` and of
  start-up and per-candidate work.
- ``modexp``: modular exponentiation of 2049-bit integers, the character of
  the big-value primality tests that dominate the scans.
"""

from __future__ import annotations

import json
import math
import statistics
import sys
import time
from dataclasses import dataclass
from typing import Callable


@dataclass
class _Verdict:
    n: int
    kind: str
    note: str | None = None


def sieve() -> int:
    limit = 10**6
    table = bytearray(b"\x01") * (limit + 1)
    table[0] = table[1] = 0
    for p in range(2, math.isqrt(limit) + 1):
        if table[p]:
            table[p * p :: p] = bytearray(len(table[p * p :: p]))
    count = 0
    for n in range(2, limit + 1, 9):
        verdict = _Verdict(n, "prime") if table[n] else _Verdict(n, "composite", f"factor={n % 97}")
        count += verdict.kind == "prime"
    return count


_MODULUS = (1 << 2049) - 1  # odd, composite: every pow runs the full exponent


def modexp() -> int:
    return sum(pow(base, _MODULUS - 1, _MODULUS) & 1 for base in (3, 5, 7))


LOOPS: dict[str, Callable[[], int]] = {"sieve": sieve, "modexp": modexp}


def main() -> int:
    loop, passes = LOOPS[sys.argv[1]], int(sys.argv[2])
    walls, cpus = [], []
    for _ in range(passes):
        w0, c0 = time.perf_counter(), time.process_time()
        loop()
        walls.append(time.perf_counter() - w0)
        cpus.append(time.process_time() - c0)
    print(json.dumps({"wall": statistics.median(walls), "cpu": statistics.median(cpus)}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
