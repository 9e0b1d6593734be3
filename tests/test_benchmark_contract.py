"""The API that the benchmark in ``perfbench/`` builds on.

``perfbench`` traces choikit functions by name and constructs its value
types directly, so a rename or a changed signature shows up here rather
than as a failed benchmark run.  These tests only read ``perfbench/``:
they import its modules without writing bytecode and write every input
and output under ``tmp_path``.
"""

import importlib
import pathlib
import sys

import numpy as np
import pytest

import choikit
import choikit.cli  # noqa: F401  (the classify workload calls choikit.cli.main)

PERFBENCH = pathlib.Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture(scope="module")
def perfbench():
    sys.path.insert(0, str(PERFBENCH))
    dont_write = sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    names = ("checks", "inputs", "spans", "worker")
    try:
        yield {name: importlib.import_module(name) for name in names}
    finally:
        sys.dont_write_bytecode = dont_write
        sys.path.remove(str(PERFBENCH))
        for name in names:
            sys.modules.pop(name, None)


def test_every_traced_name_resolves(perfbench):
    spans = perfbench["spans"]
    missing = [
        f"{layer}.{name}"
        for layer, names in spans.LAYERS.items()
        for name in names
        if not callable(getattr(getattr(choikit, layer), name, None))
    ]
    missing += [
        f"cli.{name}"
        for names in spans.CLI_SPANS.values()
        for name in names
        if not callable(getattr(choikit.cli, name, None))
    ]
    assert missing == []


@pytest.mark.parametrize("workload", ["classify", "algebra"])
def test_one_round_passes_its_checks(perfbench, tmp_path, workload):
    worker = perfbench["worker"]
    manifest = perfbench["inputs"].write_inputs(workload, 1, str(tmp_path))
    with np.load(tmp_path / "refs.npz") as npz:
        refs = dict(npz)
    wl = worker.WORKLOADS[workload](choikit, manifest, refs, str(tmp_path))
    outs = wl.run_round(lambda label, fn: worker.guarded(fn))
    problems = {label: found for label, found, _ in wl.check(outs) if found}
    assert problems == {}
