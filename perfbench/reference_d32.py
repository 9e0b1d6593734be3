"""One-off reference figures at d = 32 (a 1024 x 1024 Choi matrix).

    python3 perfbench/reference_d32.py

Not a workload: one classify there takes about 16 s, and the positivity
search alone allocates about 0.5 GB.  Times one `choikit classify` of a
rank-4 channel in Kraus form and one `choikit convert --to superop` of a
rank-4 channel in Choi form, through choikit.cli.main, with the CLI
stages and channel_verdict taken from a traced run, plus one bare
numpy.linalg.eigh of the Choi matrix.  Prints one JSON object.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import json  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

import numpy as np  # noqa: E402

import inputs  # noqa: E402
import worker  # noqa: E402
from spans import Tracer  # noqa: E402

D, RANK, SEED = 32, 4, 1


def main() -> int:
    ck = worker.import_choikit()
    workdir = os.path.join(worker.HERE, "out", f"d32-{os.getpid()}")
    os.makedirs(workdir)
    rng = np.random.default_rng(SEED)
    ops = inputs.kraus_blocks(inputs.random_isometry(rng, D * RANK, D), RANK, D)
    s = inputs.choi_of_kraus(ops)
    kraus_doc = os.path.join(workdir, "kraus.json")
    choi_doc = os.path.join(workdir, "choi.json")
    inputs.write_json(kraus_doc, inputs.channel_json(D, D, "kraus", ops))
    inputs.write_json(choi_doc, inputs.channel_json(D, D, "choi", s))

    tracer = Tracer()
    tracer.install(ck)
    figures = {}
    before = {k: 0.0 for k in ("cli.load_ms", "cli.parse_ms", "cli.compute_ms", "cli.render_ms")}
    try:
        for name, argv in (
            ("classify", ["classify", kraus_doc]),
            ("convert_superop", ["convert", choi_doc, "--to", "superop"]),
        ):
            out = os.path.join(workdir, f"{name}.out.json")
            tracer.on = True
            t0 = time.perf_counter()
            code = tracer.operation(name, lambda argv=argv: ck.cli.main(argv + ["--out", out]))
            wall = time.perf_counter() - t0
            tracer.on = False
            # metrics are sums over the spans so far; take this command's share
            after = tracer.metrics(1)
            stage = {k: (after[k] - before[k]) / 1e3 for k in before}
            before = after
            figures[name] = {
                "exit_code": code,
                "wall_s": wall,
                "load_s": stage["cli.load_ms"],
                "parse_s": stage["cli.parse_ms"],
                "compute_s": stage["cli.compute_ms"],
                "render_s": stage["cli.render_ms"],
                "bytes_in": os.path.getsize(argv[1]),
                "bytes_out": os.path.getsize(out),
            }
            if name == "classify":
                names, _, start, end = tracer.arrays()
                verdict = names == tracer.index["channel.channel_verdict"]
                figures[name]["channel_verdict_s"] = float((end - start)[verdict].sum())
        t0 = time.perf_counter()
        np.linalg.eigh(s)
        figures["numpy_eigh_s"] = time.perf_counter() - t0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(figures, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
