"""The package's top level: what it re-exports, and what importing costs."""

import subprocess
import sys

import pytest

import choikit
from choikit import algebra, bipartite, channel, decomp, matlin

MODULES = [algebra, bipartite, channel, decomp]


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_every_public_name_is_reexported(module):
    for name in module.__all__:
        assert getattr(choikit, name) is getattr(module, name), name


def test_only_the_tolerance_is_reexported_from_matlin():
    exported = {name for name in matlin.__all__ if hasattr(choikit, name)}
    assert exported == {"Tolerance", "DEFAULT_TOL"}
    assert choikit.Tolerance is matlin.Tolerance and choikit.DEFAULT_TOL is matlin.DEFAULT_TOL


def test_cli_import_leaves_scipy_unloaded():
    # scipy is imported by matlin.schur alone, on its first call
    code = "import sys, choikit.cli; print('scipy' in sys.modules)"
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert result.stdout == "False\n"
