"""One workload process: import choikit, warm up, run timed rounds, check.

Started by run.py, never by hand.  Prints READY on stdout once the
warm-up round has finished (run.py times set-up up to that line), then,
unless it is a set-up probe, runs whole rounds until the timed rounds add
up to --seconds and prints one JSON line with the raw figures.

An operation is a fixed number of whole rounds (rounds_per_op); a round
is the same calls in the same order every time.  Checks run after each
round, outside the timed region; an operation's time is the sum of its
rounds' times.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time

import numpy as np

import checks
from inputs import choi_of_kraus
from spans import Tracer

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
MIN_OPS = 3


def import_choikit():
    sys.path.insert(0, SRC)
    import choikit
    import choikit.cli  # noqa: F401  (the CLI workloads call choikit.cli.main)

    where = os.path.dirname(os.path.abspath(choikit.__file__))
    if where != os.path.join(SRC, "choikit"):
        raise SystemExit(f"choikit was imported from {where}, not from {SRC}")
    return choikit


class Classify:
    """`choikit classify` on the eight channels of inputs.CLASSIFY_MIX."""

    rounds_per_op = 1

    def __init__(self, ck, manifest, refs, workdir):
        self.ck = ck
        self.refs = refs
        self.calls = []
        for c in manifest["calls"]:
            out = os.path.join(workdir, f"{c['label']}.out.json")
            self.calls.append((c["label"], ["classify", c["channel"], "--out", out], out, c["m"]))
        # What kraus_from_channel returns for the boundary channel; the
        # check compares classify's answer with it.
        s = refs["boundary"]
        d = next(c["m"] for c in manifest["calls"] if c["label"] == "boundary")
        try:
            k = ck.kraus_from_channel(ck.channel_from_choi(s, ck.BipartiteShape(d, d)))
            self.boundary_kraus = len(k.ops)
        except ck.NotCompletelyPositive:
            self.boundary_kraus = None

    def run_round(self, invoke):
        return [invoke(label, lambda argv=argv: self.ck.cli.main(argv)) for label, argv, _, _ in self.calls]

    def written(self):
        return [out for _, _, out, _ in self.calls]

    def check(self, codes):
        for (label, _, out, d), code in zip(self.calls, codes):
            if code != 0:
                yield label, [f"exit code {code!r}"], False
            elif label == "boundary":
                problems = verdict(lambda: checks.check_boundary(checks.load_doc(out), self.boundary_kraus))
                yield label, problems, True
            else:
                yield label, verdict(lambda: checks.check_classify(checks.load_doc(out), self.refs[label], d, d)), False


class Convert:
    """`choikit convert --to superop` then `--to kraus` on one Choi document."""

    rounds_per_op = 1

    def __init__(self, ck, manifest, refs, workdir):
        self.ck = ck
        self.s = refs["choi"]
        self.d = manifest["m"]
        self.rank = manifest["rank"]
        self.calls = []
        for to in ("superop", "kraus"):
            out = os.path.join(workdir, f"{to}.out.json")
            self.calls.append((to, ["convert", manifest["channel"], "--to", to, "--out", out], out))

    def run_round(self, invoke):
        return [invoke(to, lambda argv=argv: self.ck.cli.main(argv)) for to, argv, _ in self.calls]

    def written(self):
        return [out for _, _, out in self.calls]

    def check(self, codes):
        d = self.d
        for (to, _, out), code in zip(self.calls, codes):
            if code != 0:
                yield to, [f"exit code {code!r}"], False
            elif to == "superop":
                yield to, verdict(lambda: checks.check_superop(checks.load_doc(out), self.s, d, d)), False
            else:
                yield to, verdict(lambda: checks.check_kraus(checks.load_doc(out), self.s, d, d, self.rank)), False


class Algebra:
    """The paper's second-half identities, as library calls, at d = 2, 4, 8."""

    # A round takes about 17 ms, so it sits in one of the machine's fast or
    # slow states (they last seconds) and round times are bimodal; the
    # median of single rounds jumps between the modes.  64 rounds, about
    # 1 s, average over the states.
    rounds_per_op = 64

    def __init__(self, ck, manifest, refs, workdir):
        self.ck = ck
        self.cases = []
        for d in manifest["dims"]:
            inp = {k[: -len(f"_{d}")]: refs[k] for k in refs if k.endswith(f"_{d}")}
            va = inp["a"].reshape(-1)
            inp["phi_a"] = np.outer(va, va.conj())
            inp["vvh"] = np.outer(inp["v"], inp["v"].conj())
            inp["fam_b"] = np.einsum("xy,yij->xij", inp["mix"], inp["fam"])
            inp["choi_fam"] = choi_of_kraus(inp["fam"])
            inp["sv"] = np.linalg.svd(inp["v"].reshape(d, d), compute_uv=False)
            self.cases.append((d, inp, self._identities(d, inp)))

    def _identities(self, d, inp):
        ck = self.ck
        shape = ck.BipartiteShape(d, d)

        def square(mat):
            return ck.StateSquare(d, ck.BipartiteOperator(shape, mat))

        def vector():
            return ck.BipartiteVector(shape, inp["v"])

        def kraus(ops):
            return ck.KrausSet(shape, tuple(ops))

        return [
            ("phi_homomorphism", lambda: ck.diamond(ck.phi_homomorphism(inp["a"]), ck.phi_homomorphism(inp["b"]))),
            ("diamond", lambda: ck.diamond(square(inp["x"]), square(inp["y"]))),
            ("group_inverse", lambda: ck.group_inverse(square(inp["phi_a"]))),
            ("schmidt", lambda: ck.schmidt(vector())),
            ("one_sided_triangular", lambda: ck.one_sided_triangular(vector())),
            ("two_sided_triangular", lambda: ck.two_sided_triangular(vector())),
            ("polar_of_pure_channel", lambda: ck.polar_of_pure_channel(vector())),
            ("ppt_test", lambda: ck.ppt_test(ck.BipartiteOperator(shape, inp["vvh"]))),
            ("classify_entanglement", lambda: ck.classify_entanglement(vector())),
            ("find_kraus_isometry", lambda: ck.find_kraus_isometry(kraus(inp["fam"]), kraus(inp["fam_b"]))),
            (
                "compose",
                lambda: ck.compose(ck.channel_from_kraus(kraus(inp["outer"])), ck.channel_from_kraus(kraus(inp["fam"]))),
            ),
            ("state_as_measurement", lambda: ck.state_as_measurement(ck.BipartiteOperator(shape, inp["choi_fam"]), inp["m_op"])),
        ]

    def run_round(self, invoke):
        return [invoke(f"{name}@{d}", fn) for d, _, ops in self.cases for name, fn in ops]

    def written(self):
        return []

    def check(self, outs):
        it = iter(outs)
        for d, inp, ops in self.cases:
            for name, _ in ops:
                out = next(it)
                if isinstance(out, Exception):
                    yield f"{name}@{d}", [f"raised {out!r}"], False
                else:
                    yield f"{name}@{d}", verdict(checks.check_algebra, name, out, inp, d), False


WORKLOADS = {"classify": Classify, "convert": Convert, "algebra": Algebra}


def guarded(fn):
    """fn(), or the exception it raised: a failing call is counted, not fatal."""
    try:
        return fn()
    except Exception as exc:
        return exc


def verdict(check, *args) -> list:
    """Problems check(*args) finds; output the checker cannot read is one too."""
    try:
        return check(*args)
    except Exception as exc:
        return [f"unreadable output: {exc!r}"]


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--trace-out", required=True, help="path prefix for the span and summary files")
    ap.add_argument("--probe", action="store_true", help="stop after the warm-up round")
    args = ap.parse_args()

    ck = import_choikit()
    with open(os.path.join(args.workdir, "manifest.json"), encoding="utf-8") as fh:
        manifest = json.load(fh)
    with np.load(os.path.join(args.workdir, "refs.npz")) as npz:
        refs = dict(npz)
    wl = WORKLOADS[args.workload](ck, manifest, refs, args.workdir)

    wl.run_round(lambda label, fn: guarded(fn))
    print("READY", flush=True)
    if args.probe:
        return 0

    tracer = None
    invoke = lambda label, fn: guarded(fn)  # noqa: E731
    if args.trace:
        tracer = Tracer()
        tracer.install(ck)
        invoke = lambda label, fn: tracer.operation(label, lambda: guarded(fn))  # noqa: E731

    op_s = []
    timed = 0.0
    attempted = failed = 0
    correct = True
    reported = 0
    while timed < args.seconds or len(op_s) < MIN_OPS:
        op = 0.0
        for _ in range(wl.rounds_per_op):
            if tracer:
                tracer.on = True
            t0 = time.perf_counter()
            outs = wl.run_round(invoke)
            op += time.perf_counter() - t0
            if tracer:
                tracer.on = False
                tracer.bytes_out += sum(os.path.getsize(p) for p in wl.written())
            for label, problems, known_fault in wl.check(outs):
                attempted += 1
                if problems:
                    failed += 1
                    correct = correct and known_fault
                    if reported < 5:
                        kind = "known fault" if known_fault else "WRONG OUTPUT"
                        print(f"{kind}: {label}: {'; '.join(problems)}", file=sys.stderr)
                        reported += 1
        op_s.append(op)
        timed += op

    result = {
        "ops": len(op_s),
        "op_s": op_s,
        "attempted": attempted,
        "failed": failed,
        "correct": correct,
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if tracer:
        result["per_layer"] = tracer.metrics(len(op_s))
        summary = {
            "workload": args.workload,
            "ops": len(op_s),
            "throughput_ops_s": attempted / timed,
            "latency_p50_ms": 1e3 * float(np.median(op_s)),
            "spans": len(tracer.start),
            "verdict_breakdown": tracer.verdict_breakdown(),
            "per_layer": result["per_layer"],
        }
        result["traced"] = {k: summary[k] for k in ("throughput_ops_s", "latency_p50_ms", "spans", "verdict_breakdown")}
        tracer.write(args.trace_out, summary)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
