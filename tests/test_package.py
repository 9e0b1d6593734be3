"""The package's top level: what it re-exports, what importing costs,
which module owns the factorizations, and how its value types compare."""

import ast
import dataclasses
import pathlib
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


def test_schur_decomposition_loads_no_scipy(tmp_path):
    # matlin.schur is numpy alone; scipy, 0.3 s and 27 MB to import, is no dependency
    bell = pathlib.Path(__file__).resolve().parent.parent / "data" / "states" / "bell_vector.json"
    argv = ["decompose", str(bell), "--method", "schur", "--cut", "2", "2", "--out", str(tmp_path / "out.json")]
    code = f"import sys; from choikit import cli; cli.main({argv!r}); print('scipy' in sys.modules)"
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert result.stdout == "False\n"
    assert (tmp_path / "out.json").read_text().startswith('{\n  "method": "schur"')


def _linalg_uses(tree):
    """Each ``linalg.<name>`` other than ``linalg.norm``, and each import
    that names a linalg module, in a parsed module."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr != "norm":
            base = node.value
            if getattr(base, "attr", getattr(base, "id", None)) == "linalg":
                yield f"line {node.lineno}: {ast.unparse(node)}"
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names = [getattr(node, "module", None) or ""] + [a.name for a in node.names]
            if any("linalg" in name for name in names):
                yield f"line {node.lineno}: {ast.unparse(node)}"


def test_matlin_owns_every_factorization():
    # eigensolvers, SVD, QR, inverses, solvers and Schur forms go through
    # matlin, so one set of conventions and one rank rule hold everywhere
    package = pathlib.Path(choikit.__file__).parent
    found = {
        path.name: uses
        for path in sorted(package.glob("*.py"))
        if path.name != "matlin.py"
        and (uses := list(_linalg_uses(ast.parse(path.read_text(encoding="utf-8")))))
    }
    assert found == {}


def test_only_bipartite_and_channel_reshuffle():
    # the diamond product is channel.compose, so algebra has no reshuffle
    package = pathlib.Path(choikit.__file__).parent
    callers = {
        path.name
        for path in package.glob("*.py")
        if any(f"{name}(" in path.read_text(encoding="utf-8") for name in ("reshuffle_hat", "unreshuffle_hat"))
    }
    assert callers == {"bipartite.py", "channel.py"}


S2 = bipartite.BipartiteShape(2, 2)


def test_a_state_square_stores_its_operator_alone():
    assert [f.name for f in dataclasses.fields(algebra.StateSquare)] == ["op"]
    op = bipartite.BipartiteOperator(S2, np.eye(4))
    assert algebra.StateSquare(2, op).op is op
    with pytest.raises(choikit.DimensionMismatch):
        algebra.StateSquare(3, op)


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


def test_schmidt_ranks_are_read_off_the_coefficients():
    form = decomp.schmidt(_vector(0.0))
    found = algebra.classify_entanglement(_vector(0.0))
    assert form.rank == found.schmidt_rank == 2
    one = form.coefficients[:1]
    assert dataclasses.replace(form, coefficients=one).rank == 1
    assert dataclasses.replace(found, coefficients=one).schmidt_rank == 1
    assert dataclasses.replace(found, coefficients=None).schmidt_rank is None
