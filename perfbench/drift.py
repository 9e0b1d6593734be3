"""Measure how the speed of this machine drifts while nothing changes.

    python3 perfbench/drift.py [seconds]

Repeats two fixed pieces of work for the given time (default 60 s) and
prints one JSON object: the mean time of a pure-Python loop in each 2 s
bucket and in each 10 s window, and the times of single 256 x 256
numpy.linalg.eigh calls, each with its min, median and max.  The spread
of these is the floor under any benchmark figure taken here.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import json  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

import numpy as np  # noqa: E402


def python_loop() -> None:
    total = 0
    for i in range(200_000):
        total += i * i % 7


def spread(values) -> dict:
    return {"min": min(values), "median": statistics.median(values), "max": max(values), "n": len(values)}


def main() -> int:
    seconds = float(sys.argv[1]) if len(sys.argv) > 1 else 60.0
    rng = np.random.default_rng(0)
    g = rng.standard_normal((256, 256)) + 1j * rng.standard_normal((256, 256))
    h = g + g.conj().T
    loops, eighs = [], []
    t_start = time.perf_counter()
    while time.perf_counter() - t_start < seconds:
        t0 = time.perf_counter()
        python_loop()
        t1 = time.perf_counter()
        np.linalg.eigh(h)
        t2 = time.perf_counter()
        loops.append((t0 - t_start, t1 - t0))
        eighs.append(t2 - t1)

    def buckets(width):
        out = {}
        for at, dt in loops:
            out.setdefault(int(at // width), []).append(dt)
        return [1e3 * statistics.mean(v) for k, v in sorted(out.items()) if (k + 1) * width <= seconds]

    print(
        json.dumps(
            {
                "seconds": seconds,
                "loop_ms_per_2s_bucket": spread(buckets(2.0)),
                "loop_ms_per_10s_window": spread(buckets(10.0)),
                "eigh256_ms": spread([1e3 * t for t in eighs]),
            },
            indent=1,
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
