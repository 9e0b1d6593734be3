"""The package's top level: what it re-exports, what importing costs, and
how its value types compare."""

import subprocess
import sys

import numpy as np
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


S2 = bipartite.BipartiteShape(2, 2)


def _vector(eps):
    return bipartite.BipartiteVector(S2, [0.8, 0.1, 0.2 + eps, 0.55])


def _kraus(eps):
    return channel.KrausSet(S2, (np.eye(2) / 2, np.diag([1.0, -1.0]) / 2 + eps))


def _not_positive(eps):
    # rho -> -(1 + eps) tr(rho) id: every sampled pair is a violation
    c = channel.channel_from_choi(-(1 + eps) * np.eye(4), S2)
    verdict = channel.check_positive_preserving(c, samples=3)
    assert verdict.outcome == "NotPositive"
    return verdict


# one builder per value type that holds arrays; eps perturbs its input
VALUE_TYPES = {
    "KrausSet": _kraus,
    "SchmidtForm": lambda eps: decomp.schmidt(_vector(eps)),
    "TriangularForm": lambda eps: decomp.two_sided_triangular(_vector(eps)),
    "Dilation": lambda eps: decomp.dilate(_kraus(eps)),
    "KrausIsometry": lambda eps: decomp.KrausIsometry(np.eye(2) + eps, "a_from_b"),
    "EntanglementClass": lambda eps: algebra.classify_entanglement(_vector(eps)),
    "PositivityVerdict": _not_positive,
}


@pytest.mark.parametrize("name", VALUE_TYPES)
def test_array_holding_values_compare_by_value(name):
    a, b, other = (VALUE_TYPES[name](eps) for eps in (0.0, 0.0, 1e-9))
    assert type(a).__name__ == name
    assert a == b and not a != b
    assert a != other and not a == other
