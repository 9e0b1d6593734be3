"""Benchmark of choikit: one workload per run, each in fresh processes.

    python3 perfbench/run.py --workload classify --seed 1 --seconds 40 --trace 0

Run from the root of a checkout; choikit is imported from ./src.  The
command writes the seeded inputs of the workload, then starts fresh
worker processes (worker.py) with BLAS pinned to one thread:

* with --trace 0, SETUP_SAMPLES processes that each import choikit and run
  one warm-up round (set-up time is taken from process start to the end
  of warm-up), the last of which goes on to the timed rounds;
* with --trace 1, one process that records spans (spans.py) over the
  timed rounds and reports the per-layer metrics.

The last line of stdout is one JSON object: correct, attempted, failed
and the metrics.  See README.md for the workloads and the metrics.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
os.environ["PYTHONHASHSEED"] = "0"

import argparse  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import threading  # noqa: E402
import time  # noqa: E402

import inputs  # noqa: E402
import spans  # noqa: E402
from worker import WORKLOADS  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
SETUP_SAMPLES = 3
DEADLINE_S = 170.0


class WorkerFailed(Exception):
    pass


def spawn(args, workdir: str, deadline: float, probe: bool):
    """Start one worker; return (seconds to READY, parsed result or None)."""
    cmd = [
        sys.executable,
        os.path.join(HERE, "worker.py"),
        "--workload", args.workload,
        "--workdir", workdir,
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--trace-out", os.path.join(OUT, f"trace-{args.workload}-seed{args.seed}"),
    ]
    if probe:
        cmd.append("--probe")
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    timer = threading.Timer(max(deadline - t0, 0.0), proc.kill)
    timer.start()
    try:
        ready = proc.stdout.readline()
        ready_s = time.perf_counter() - t0
        rest = proc.stdout.read()
        code = proc.wait()
    finally:
        timer.cancel()
        proc.stdout.close()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if ready.strip() != "READY" or code != 0:
        raise WorkerFailed(f"worker exited with code {code} (deadline {DEADLINE_S:.0f} s)")
    if probe:
        return ready_s, None
    lines = rest.strip().splitlines()
    if not lines:
        raise WorkerFailed("worker printed no result")
    return ready_s, json.loads(lines[-1])


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True, help="timed length of the run")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    # On SIGTERM, unwind through spawn's finally so the worker is killed and reaped.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    deadline = time.perf_counter() + DEADLINE_S
    if not os.path.isfile(os.path.join(ROOT, "src", "choikit", "__init__.py")):
        print(f"perfbench: no choikit sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2

    os.makedirs(OUT, exist_ok=True)
    workdir = os.path.join(OUT, f"{args.workload}-seed{args.seed}-{os.getpid()}")
    os.makedirs(workdir)
    try:
        inputs.write_inputs(args.workload, args.seed, workdir)
        setup = []
        if not args.trace:
            for _ in range(SETUP_SAMPLES - 1):
                setup.append(spawn(args, workdir, deadline, probe=True)[0])
        ready_s, res = spawn(args, workdir, deadline, probe=False)
        setup.append(ready_s)
    except WorkerFailed as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    timed = sum(res["op_s"])
    if args.trace:
        metrics = {name: {"value": value, "unit": spans.metric_unit(name)} for name, value in res["per_layer"].items()}
        print(f"perfbench: traced {res['ops']} operations: {json.dumps(res['traced'])}", file=sys.stderr)
    else:
        metrics = {
            "latency_p50_ms": {"value": 1e3 * statistics.median(res["op_s"]), "unit": "ms"},
            "throughput_ops_s": {"value": res["attempted"] / timed, "unit": "ops/s"},
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
            "peak_rss_mb": {"value": res["peak_rss_kb"] / 1024.0, "unit": "MB"},
        }
        print(
            f"perfbench: {args.workload} seed {args.seed}: {res['ops']} operations in {timed:.2f} s, "
            f"set-up samples {', '.join(f'{s:.3f}' for s in setup)} s",
            file=sys.stderr,
        )
    result = {"correct": res["correct"], "attempted": res["attempted"], "failed": res["failed"], "metrics": metrics}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
