"""Self-test of the output checkers: they pass real output and reject corrupted output.

    python3 perfbench/selftest.py

Run from the root of a checkout.  Exits 0 when every checker accepts the
output choikit produces for one seeded input and rejects each corrupted
copy of it; prints what went wrong and exits 1 otherwise.
"""

from __future__ import annotations

import copy
import os
import shutil
import sys

import numpy as np

import checks
import inputs
import worker

SEED = 7


def main() -> int:
    ck = worker.import_choikit()
    failures = []

    def expect(name, problems, ok):
        if bool(problems) == ok:
            failures.append(f"{name}: {'rejected real output' if ok else 'accepted a corrupted output'} {problems}")

    workdir = os.path.join(worker.HERE, "out", f"selftest-{os.getpid()}")
    os.makedirs(workdir)
    try:
        # classify: a CPTP channel and the non-positive one, every flag flipped in turn
        inputs.write_inputs("classify", SEED, workdir)
        refs = dict(np.load(os.path.join(workdir, "refs.npz")))
        for label in ("cptp_r2", "hp_nonpositive"):
            out = os.path.join(workdir, f"{label}.out.json")
            code = ck.cli.main(["classify", os.path.join(workdir, f"{label}.json"), "--out", out])
            doc = checks.load_doc(out)
            d = inputs.CLASSIFY_D
            expect(f"classify {label}", [f"exit {code}"] if code else checks.check_classify(doc, refs[label], d, d), ok=True)
            for key in ("completely_positive", "trace_preserving", "unital", "bistochastic", "factorizable"):
                bad = dict(doc, **{key: not doc[key]})
                expect(f"classify {label} with {key} flipped", checks.check_classify(bad, refs[label], d, d), ok=False)
            bad = dict(doc, higher_rank=doc["higher_rank"] - 1)
            expect(f"classify {label} with higher_rank - 1", checks.check_classify(bad, refs[label], d, d), ok=False)
        expect("boundary agreeing", checks.check_boundary({"completely_positive": True, "higher_rank": 3}, 3), ok=True)
        expect("boundary disagreeing", checks.check_boundary({"completely_positive": True, "higher_rank": 64}, 63), ok=False)

        # convert: one superoperator entry changed, one Kraus operator dropped
        manifest = inputs.write_inputs("convert", SEED, workdir)
        s = dict(np.load(os.path.join(workdir, "refs.npz")))["choi"]
        d, rank = manifest["m"], manifest["rank"]
        for to in ("superop", "kraus"):
            out = os.path.join(workdir, f"{to}.out.json")
            code = ck.cli.main(["convert", manifest["channel"], "--to", to, "--out", out])
            doc = checks.load_doc(out)
            if to == "superop":
                expect("superop", checks.check_superop(doc, s, d, d), ok=True)
                bad = copy.deepcopy(doc)
                bad["payload"]["data"][17][1] += 2.0**-40
                expect("superop with one entry changed", checks.check_superop(bad, s, d, d), ok=False)
            else:
                expect("kraus", checks.check_kraus(doc, s, d, d, rank), ok=True)
                bad = copy.deepcopy(doc)
                del bad["payload"]["kraus"][-1]
                expect("kraus with one operator dropped", checks.check_kraus(bad, s, d, d, rank), ok=False)
            if code:
                failures.append(f"convert --to {to} exited {code}")

        # algebra: every identity on real output, a few on perturbed output
        manifest = inputs.write_inputs("algebra", SEED, workdir)
        refs = dict(np.load(os.path.join(workdir, "refs.npz")))
        alg = worker.Algebra(ck, manifest, refs, workdir)
        outs = alg.run_round(lambda label, fn: fn())
        for label, problems, _ in alg.check(outs):
            expect(label, problems, ok=True)
        d, inp, ops = alg.cases[-1]
        names = [name for name, _ in ops]
        by_name = dict(zip(names, outs[-len(names):]))
        bad = ck.StateSquare(d, ck.BipartiteOperator(ck.BipartiteShape(d, d), by_name["diamond"].mat * (1 + 1e-6)))
        expect("diamond scaled", checks.check_algebra("diamond", bad, inp, d), ok=False)
        u, j, k = by_name["polar_of_pure_channel"]
        expect("polar with k for j", checks.check_algebra("polar_of_pure_channel", (u, k, k), inp, d), ok=False)
        ppt = by_name["ppt_test"]
        bad = type(ppt)(ppt.is_ppt, ppt.min_eigenvalue * 0.999, ppt.side)
        expect("ppt minimum moved", checks.check_algebra("ppt_test", bad, inp, d), ok=False)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for line in failures:
        print(f"FAIL {line}")
    print("checker self-test:", "FAILED" if failures else "ok")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
