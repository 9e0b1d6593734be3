"""Span tracing of choikit from outside the package.

``Tracer.install`` wraps the functions named in ``LAYERS`` and ``CLI_SPANS``
and rebinds every name in every loaded ``choikit`` module that refers to
one of them, so calls made inside the package (``bipartite`` imports
``as_matrix`` by name, ``decomp`` imports ``channel_from_kraus``) are
recorded too.  A span is (name, start, end, parent, operation id); spans
stay in compact arrays in memory and are written out once, at the end.

Self time is a span's duration minus the durations of its direct
children.  Calls run on one thread, so children never overlap.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time
from array import array

import numpy as np

LAYERS = {
    "channel": (
        "channel_verdict",
        "is_hermitian_preserving",
        "is_completely_positive",
        "check_positive_preserving",
        "kraus_from_channel",
        "is_factorizable",
        "is_extremal_tp",
        "higher_rank",
        "superop_from_channel",
        "channel_from_kraus",
        "channel_from_choi",
    ),
    "matlin": (
        "hermitian_eig",
        "svd",
        "qr",
        "schur",
        "polar",
        "sqrt_psd",
        "as_matrix",
        "frobenius_norm",
        "nearly_equal",
    ),
    "bipartite": (
        "reshuffle_hat",
        "unreshuffle_hat",
        "partial_trace_1",
        "partial_trace_2",
        "partial_transpose_1",
        "partial_transpose_2",
        "kron",
    ),
    "decomp": (
        "schmidt",
        "one_sided_triangular",
        "two_sided_triangular",
        "polar_of_pure_channel",
        "find_kraus_isometry",
    ),
    "algebra": (
        "diamond",
        "phi_homomorphism",
        "group_inverse",
        "classify_entanglement",
        "ppt_test",
        "state_as_measurement",
    ),
}

# Factorisations whose computed operation count sum(rows * cols * min(rows, cols))
# over calls is reported as matlin.<f>.n3 (n^3 for a square n x n input).
FACTORISATIONS = ("hermitian_eig", "svd", "qr", "schur", "polar")

# CLI stages: span name -> functions of choikit.cli recorded under it.
CLI_SPANS = {
    "cli.load": ("_load_json",),
    "cli.parse": ("parse_channel", "parse_kraus", "parse_matrix"),
    "cli.render": ("matrix_doc", "render_document"),
    "cli.command": (
        "cmd_classify",
        "cmd_convert",
        "cmd_decompose",
        "cmd_compose",
        "cmd_diamond",
        "cmd_apply",
        "cmd_ppt",
        "cmd_measure",
    ),
}
CLI_STAGES = ("cli.load", "cli.parse", "cli.render")

OP_SPAN = "op"


def per_layer_names() -> list:
    """Every per-layer metric name, in the order BENCHMARK.json lists them."""
    names = [
        "cli.load_ms",
        "cli.parse_ms",
        "cli.render_ms",
        "cli.compute_ms",
        "cli.bytes_in",
        "cli.bytes_out",
    ]
    for layer, funcs in LAYERS.items():
        for f in funcs:
            names += [f"{layer}.{f}.calls", f"{layer}.{f}.self_ms"]
        if layer == "matlin":
            names += [f"matlin.{f}.n3" for f in FACTORISATIONS]
    return names


def metric_unit(name: str) -> str:
    if name.endswith("_ms"):
        return "ms"
    if name.endswith(".calls"):
        return "count"
    if name.endswith(".n3"):
        return "computed_n3"
    return "bytes"


class Tracer:
    def __init__(self):
        self.names: list = []
        self.index: dict = {}
        self.name = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]
        self.op_id = -1
        self.op_labels: list = []
        self.n3: dict = {f: 0.0 for f in FACTORISATIONS}
        self.bytes_in = 0
        self.bytes_out = 0
        self.on = False

    def _intern(self, name: str) -> int:
        if name not in self.index:
            self.index[name] = len(self.names)
            self.names.append(name)
        return self.index[name]

    def _span(self, idx: int, fn, args, kwargs):
        i = len(self.start)
        self.name.append(idx)
        self.parent.append(self.stack[-1])
        self.op.append(self.op_id)
        self.end.append(0.0)
        self.stack.append(i)
        self.start.append(time.perf_counter())
        try:
            return fn(*args, **kwargs)
        finally:
            self.end[i] = time.perf_counter()
            self.stack.pop()

    def wrap(self, span_name: str, fn, before=None):
        idx = self._intern(span_name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.on:
                return fn(*args, **kwargs)
            if before is not None:
                before(args)
            return self._span(idx, fn, args, kwargs)

        return wrapper

    def operation(self, label: str, fn):
        """Run fn() as one sub-operation: a root span with its own id."""
        if not self.on:
            return fn()
        self.op_id = len(self.op_labels)
        self.op_labels.append(label)
        return self._span(self._intern(OP_SPAN), fn, (), {})

    def install(self, package) -> None:
        """Wrap the traced functions and rebind them in every choikit module."""
        modules = [m for n, m in sys.modules.items() if n == package.__name__ or n.startswith(package.__name__ + ".")]
        targets = []
        for layer, funcs in LAYERS.items():
            mod = sys.modules[f"{package.__name__}.{layer}"]
            for f in funcs:
                before = None
                if layer == "matlin" and f in FACTORISATIONS:
                    before = functools.partial(self._count_n3, f)
                targets.append((getattr(mod, f), f"{layer}.{f}", before))
        cli = sys.modules[f"{package.__name__}.cli"]
        for span, funcs in CLI_SPANS.items():
            for f in funcs:
                before = self._count_bytes_in if f == "_load_json" else None
                targets.append((getattr(cli, f), span, before))
        for orig, span, before in targets:
            wrapper = self.wrap(span, orig, before)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is orig:
                        setattr(mod, attr, wrapper)

    def _count_n3(self, f: str, args) -> None:
        shape = np.shape(args[0])
        if len(shape) == 2:
            r, c = shape
            self.n3[f] += float(r * c * min(r, c))

    def _count_bytes_in(self, args) -> None:
        self.bytes_in += os.path.getsize(args[0])

    # ----------------------------------------------------------- results

    def arrays(self):
        """Copies of the span columns; copies, so that recording can go on."""
        name = np.frombuffer(self.name, dtype=np.int32).copy()
        parent = np.frombuffer(self.parent, dtype=np.int32).copy()
        start = np.frombuffer(self.start, dtype=np.float64).copy()
        end = np.frombuffer(self.end, dtype=np.float64).copy()
        return name, parent, start, end

    def metrics(self, ops: int) -> dict:
        """Per-layer metrics per operation, averaged over `ops` operations."""
        name, parent, start, end = self.arrays()
        n = len(self.names)
        dur = end - start
        nested = parent >= 0
        child = np.bincount(parent[nested], weights=dur[nested], minlength=len(dur))
        self_t = dur - child
        calls = np.bincount(name, minlength=n)
        self_sum = np.bincount(name, weights=self_t, minlength=n)

        out = {}
        for layer, funcs in LAYERS.items():
            for f in funcs:
                i = self.index[f"{layer}.{f}"]
                out[f"{layer}.{f}.calls"] = int(calls[i]) / ops
                out[f"{layer}.{f}.self_ms"] = 1e3 * float(self_sum[i]) / ops
        for f in FACTORISATIONS:
            out[f"matlin.{f}.n3"] = self.n3[f] / ops

        # CLI stages: time in the outermost span of each stage, and command
        # time not spent in the stages it calls.
        pname = np.where(nested, name[np.maximum(parent, 0)], -1)
        outermost = pname != name
        stage_ms = {}
        inside_command = np.zeros(len(dur), dtype=bool)
        cmd = self.index["cli.command"]
        inside_command[nested] = name[parent[nested]] == cmd
        io_in_command = 0.0
        for stage in CLI_STAGES:
            sel = (name == self.index[stage]) & outermost
            stage_ms[stage] = float(dur[sel].sum())
            io_in_command += float(dur[sel & inside_command].sum())
        command = float(dur[name == cmd].sum())
        out["cli.load_ms"] = 1e3 * stage_ms["cli.load"] / ops
        out["cli.parse_ms"] = 1e3 * stage_ms["cli.parse"] / ops
        out["cli.render_ms"] = 1e3 * stage_ms["cli.render"] / ops
        out["cli.compute_ms"] = 1e3 * (command - io_in_command) / ops
        out["cli.bytes_in"] = self.bytes_in / ops
        out["cli.bytes_out"] = self.bytes_out / ops
        return {k: out[k] for k in per_layer_names()}

    def verdict_breakdown(self) -> dict:
        """hermitian_eig and svd calls under each channel_verdict, by input label."""
        if "channel.channel_verdict" not in self.index:
            return {}
        name, parent, _, _ = self.arrays()
        verdict = self.index["channel.channel_verdict"]
        counted = {self.index["matlin.hermitian_eig"]: "hermitian_eig", self.index["matlin.svd"]: "svd"}
        per_verdict = {int(i): {"hermitian_eig": 0, "svd": 0} for i in np.flatnonzero(name == verdict)}
        for i in np.flatnonzero(np.isin(name, list(counted))):
            j = int(parent[i])
            while j >= 0 and name[j] != verdict:
                j = int(parent[j])
            if j >= 0:
                per_verdict[j][counted[int(name[i])]] += 1
        ops = np.frombuffer(self.op, dtype=np.int32).copy()
        by_label: dict = {}
        for i, counts in per_verdict.items():
            seen = by_label.setdefault(self.op_labels[int(ops[i])], [])
            if counts not in seen:
                seen.append(counts)
        return by_label

    def write(self, path_prefix: str, extra: dict) -> None:
        """Spans to <prefix>.npz, summary to <prefix>.json."""
        name, parent, start, end = self.arrays()
        np.savez(
            path_prefix + ".npz",
            names=np.array(self.names),
            name=name,
            parent=parent,
            op=np.frombuffer(self.op, dtype=np.int32).copy(),
            start=start,
            end=end,
            op_labels=np.array(self.op_labels),
        )
        with open(path_prefix + ".json", "w", encoding="utf-8") as fh:
            json.dump(extra, fh, indent=1, sort_keys=True)
