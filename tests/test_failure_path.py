"""One failure path: numpy/scipy errors become ChoikitErrors in one place.

The source checks keep the translation from being copied back into the
modules; the call checks make every guarded factorization fail as
:class:`ConvergenceFailure`.
"""

import pathlib

import numpy as np
import pytest
import scipy.linalg

from choikit import algebra as alg
from choikit import bipartite as bp
from choikit import channel as ch
from choikit import decomp
from choikit import matlin as ml
from choikit.errors import ConvergenceFailure, InvalidValue

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "choikit"


@pytest.mark.parametrize(
    "needle, allowed",
    [
        ("LinAlgError", {"matlin.py"}),
        ("compute_uv=False", {"matlin.py"}),
        ("raise ValueError(", set()),
        ("np.linalg.svd(", {"matlin.py"}),
        ("np.linalg.qr(", {"matlin.py"}),
        ("np.linalg.inv(", {"matlin.py"}),
    ],
)
def test_failure_idiom_lives_in_one_module(needle, allowed):
    found = {p.name for p in SRC.glob("*.py") if needle in p.read_text()}
    assert found <= allowed


def _identity_kraus(weights):
    return ch.KrausSet(bp.BipartiteShape(2, 2), tuple(np.sqrt(w) * np.eye(2) for w in weights))


def _extremality_of_identity():
    return ch.is_extremal_tp(ch.channel_from_kraus(_identity_kraus([1.0])))


def _choi_of_identity():
    return ch.channel_from_choi(ch.channel_from_kraus(_identity_kraus([1.0])).choi_mat, bp.BipartiteShape(2, 2))


def _isometry_between_identity_families():
    return decomp.find_kraus_isometry(_identity_kraus([1.0]), _identity_kraus([0.5, 0.5]))


@pytest.mark.parametrize(
    "module, name, call",
    [
        (np.linalg, "eigh", lambda: ml.hermitian_eig(np.eye(2))),
        (np.linalg, "eigvalsh", lambda: ml.hermitian_eigvals(np.eye(2))),
        (np.linalg, "eigvalsh", lambda: alg.ppt_test(alg.group_identity(2).op)),
        (np.linalg, "svd", lambda: ml.svd(np.eye(2))),
        (np.linalg, "svd", lambda: ml.polar(np.eye(2))),
        (np.linalg, "svd", lambda: ml.matrix_rank(np.eye(2))),
        (np.linalg, "qr", lambda: ml.qr(np.eye(2))),
        (scipy.linalg, "schur", lambda: ml.schur(np.eye(2))),
        (np.linalg, "svd", _extremality_of_identity),
        (np.linalg, "svd", lambda: alg.group_inverse(alg.group_identity(2))),
        (np.linalg, "svd", _isometry_between_identity_families),
        (np.linalg, "eigh", lambda: ch.check_positive_preserving(_choi_of_identity())),
    ],
    ids=[
        "hermitian_eig",
        "hermitian_eigvals",
        "ppt_test",
        "svd",
        "polar",
        "matrix_rank",
        "qr",
        "schur",
        "is_extremal_tp",
        "group_inverse",
        "find_kraus_isometry-svd",
        "check_positive_preserving-eigh",
    ],
)
def test_factorization_failure_is_a_convergence_failure(monkeypatch, module, name, call):
    def fail(*args, **kwargs):
        raise np.linalg.LinAlgError(f"{name} did not converge")

    monkeypatch.setattr(module, name, fail)
    with pytest.raises(ConvergenceFailure, match=f"{name} did not converge"):
        call()


@pytest.mark.parametrize("seed", [-1, 2.5, [1], "0", None, True])
def test_seed_that_is_not_a_non_negative_integer_is_an_invalid_value(seed):
    c = ch.channel_from_choi(np.eye(4), bp.BipartiteShape(2, 2))
    with pytest.raises(InvalidValue, match="seed"):
        ch.check_positive_preserving(c, seed=seed)


@pytest.mark.parametrize("samples", [0, 2.5, True, np.float64(3.0), "5", None, ch.MAX_SAMPLES + 1])
def test_samples_that_is_not_a_count_in_range_is_an_invalid_value(samples):
    c = ch.channel_from_choi(np.eye(4), bp.BipartiteShape(2, 2))
    with pytest.raises(InvalidValue, match="samples"):
        ch.check_positive_preserving(c, samples=samples)


def test_other_errors_pass_through_the_guard():
    with pytest.raises(ZeroDivisionError):
        with ml._linalg_guard():
            1 / 0
