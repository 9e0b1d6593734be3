"""Output checkers, independent of choikit.

Each checker returns a list of problems; an empty list means the output
passed.  They recompute what the output claims with numpy from the
generated inputs (see inputs.py), or test a property the method must
have.  None of them compares against a stored copy of earlier output.
"""

from __future__ import annotations

import json

import numpy as np

from inputs import choi_of_kraus, choi_of_superop, superop_of_choi

TOL = 1e-8  # relative; every generated input is far from this boundary
SAMPLES = 10000  # choikit classify's default --samples


def load_doc(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def matrix_of(doc) -> np.ndarray:
    data = np.asarray(doc["data"], dtype=float).reshape(-1, 2)
    return (data[:, 0] + 1j * data[:, 1]).reshape(doc["rows"], doc["cols"])


def close(x, y) -> bool:
    x, y = np.asarray(x), np.asarray(y)
    if x.shape != y.shape:
        return False
    bound = TOL * max(float(np.linalg.norm(y)), 1.0)
    return float(np.linalg.norm(x - y)) <= bound


def partial_trace_1(s, m, n):
    return np.einsum("ijil->jl", s.reshape(m, n, m, n))


def partial_trace_2(s, m, n):
    return np.einsum("ijkj->ik", s.reshape(m, n, m, n))


def apply_choi(s, m, n, rho):
    """F(rho)[i,k] = sum_{j,l} s[(i,j),(k,l)] rho[j,l]."""
    return np.einsum("ijkl,jl->ik", s.reshape(m, n, m, n), rho)


def numeric_rank(values) -> int:
    values = np.abs(np.asarray(values))
    return int(np.count_nonzero(values > TOL * values.max(initial=0.0)))


# ---------------------------------------------------------------- classify


def expected_flags(s: np.ndarray, m: int, n: int) -> dict:
    """Every flag of `choikit classify`, recomputed from the block matrix."""
    norm = float(np.linalg.norm(s))
    w, vecs = np.linalg.eigh((s + s.conj().T) / 2)
    herm = float(np.linalg.norm(s - s.conj().T)) <= TOL * norm
    cp = herm and bool(w[0] >= -TOL * norm)
    tp = close(partial_trace_1(s, m, n), np.eye(n))
    unital = close(partial_trace_2(s, m, n), np.eye(m))
    # singular values of a Hermitian matrix are the moduli of its eigenvalues
    rank = numeric_rank(np.abs(w) if herm else np.linalg.svd(s, compute_uv=False))
    extremal = None
    if cp and tp:
        keep = w > TOL * w.max()
        ops = [np.sqrt(w[i]) * vecs[:, i].reshape(m, n) for i in np.flatnonzero(keep)]
        prods = np.stack([(x.conj().T @ y).reshape(-1) for x in ops for y in ops])
        extremal = numeric_rank(np.linalg.svd(prods, compute_uv=False)) == len(ops) ** 2
    return {
        "m": m,
        "n": n,
        "hermitian_preserving": herm,
        "completely_positive": cp,
        "trace_preserving": tp,
        "unital": unital,
        "bistochastic": tp and unital,
        "factorizable": cp and rank == 1,
        "higher_rank": rank,
        "extremal_tp": extremal,
    }


def check_classify(doc: dict, s: np.ndarray, m: int, n: int) -> list:
    problems = []
    want = expected_flags(s, m, n)
    for key, value in want.items():
        if doc.get(key) != value:
            problems.append(f"{key}: got {doc.get(key)!r}, expected {value!r}")
    norm = float(np.linalg.norm(s))
    if want["completely_positive"]:
        if doc.get("cp_witness") is not None or doc.get("cp_witness_eigenvalue") is not None:
            problems.append("a completely positive map carries a cp witness")
    elif want["hermitian_preserving"]:
        w = matrix_of(doc["cp_witness"])[:, 0]
        value = float((w.conj() @ s @ w).real)
        if abs(np.linalg.norm(w) - 1.0) > TOL or not value < -TOL * norm:
            problems.append(f"cp witness is not a unit vector with <w|s|w> < 0 ({value})")
        elif abs(value - doc["cp_witness_eigenvalue"]) > TOL * norm:
            problems.append("cp_witness_eigenvalue disagrees with <w|s|w>")

    pos = doc.get("positive_preserving") or {}
    if pos.get("samples_used") != SAMPLES:
        problems.append(f"positivity search used {pos.get('samples_used')} samples")
    outcome = pos.get("outcome")
    if outcome == "NotPositive":
        psi = matrix_of(pos["witness_psi"])[:, 0]
        phi = matrix_of(pos["witness_phi"])[:, 0]
        value = float((phi.conj() @ apply_choi(s, m, n, np.outer(psi, psi.conj())) @ phi).real)
        if not value < -TOL * norm:
            problems.append(f"positivity witness pair gives {value}, not < 0")
        if pos["min_value"] > value + TOL * norm:
            problems.append("min_value exceeds the value at the witness pair")
        if want["completely_positive"]:
            problems.append("a completely positive map was reported NotPositive")
    elif outcome == "NoViolationFound":
        if want["completely_positive"] and pos.get("min_value", -1.0) < -TOL * norm:
            problems.append("a completely positive map has a negative sampled value")
        if pos.get("witness_psi") is not None or pos.get("witness_phi") is not None:
            problems.append("NoViolationFound carries a witness")
    else:
        problems.append(f"unknown positivity outcome {outcome!r}")
    return problems


def check_boundary(doc: dict, kraus_count) -> list:
    """The property in kraus_from_channel's docstring, on classify's answer.

    `kraus_count` is the number of operators kraus_from_channel returns,
    or None when it raised NotCompletelyPositive.
    """
    if doc.get("completely_positive"):
        if kraus_count != doc.get("higher_rank"):
            return [f"higher_rank {doc.get('higher_rank')} != {kraus_count} Kraus operators"]
        return []
    if kraus_count is not None:
        return ["not completely positive, yet kraus_from_channel returned a family"]
    return []


# ----------------------------------------------------------------- convert


def check_superop(doc: dict, s: np.ndarray, m: int, n: int) -> list:
    if doc.get("representation") != "superop" or (doc.get("m"), doc.get("n")) != (m, n):
        return ["wrong header"]
    got = matrix_of(doc["payload"])
    if got.shape != (m * m, n * n) or not np.array_equal(got, superop_of_choi(s, m, n)):
        return ["superoperator differs from the index permutation of the input"]
    return []


def check_kraus(doc: dict, s: np.ndarray, m: int, n: int, rank: int) -> list:
    if doc.get("representation") != "kraus" or (doc.get("m"), doc.get("n")) != (m, n):
        return ["wrong header"]
    ops = [matrix_of(k) for k in doc["payload"]["kraus"]]
    problems = []
    if len(ops) != rank:
        problems.append(f"{len(ops)} Kraus operators, generating rank {rank}")
    if any(a.shape != (m, n) for a in ops):
        return problems + ["Kraus operator of the wrong size"]
    if not close(choi_of_kraus(ops), s):
        problems.append("Kraus family does not rebuild the input block matrix")
    return problems


# ----------------------------------------------------------------- algebra


def _upper(t) -> bool:
    return float(np.linalg.norm(np.tril(t, -1))) <= TOL * max(1.0, float(np.linalg.norm(t)))


def _orthonormal_columns(u) -> bool:
    return close(u.conj().T @ u, np.eye(u.shape[1]))


def _psd(h) -> bool:
    return close(h, h.conj().T) and np.linalg.eigvalsh((h + h.conj().T) / 2)[0] >= -TOL * max(1.0, float(np.linalg.norm(h)))


def diamond_ref(x, y, d):
    return choi_of_superop(superop_of_choi(x, d, d) @ superop_of_choi(y, d, d), d, d)


def check_algebra(name: str, out, inp: dict, d: int) -> list:
    """Check one identity's output.

    `inp` holds the inputs of inputs.algebra_case plus "sv", the singular
    values of hat(v).
    """
    hv = inp["v"].reshape(d, d)
    sv = inp["sv"]
    ok = True
    if name == "phi_homomorphism":
        ab = (inp["a"] @ inp["b"]).reshape(-1)
        ok = close(out.mat, np.outer(ab, ab.conj()))
    elif name == "diamond":
        ok = close(out.mat, diamond_ref(inp["x"], inp["y"], d))
    elif name == "group_inverse":
        va = inp["a"].reshape(-1)
        beta = np.eye(d).reshape(-1)
        ok = close(diamond_ref(np.outer(va, va.conj()), out.mat, d), np.outer(beta, beta))
    elif name == "schmidt":
        rebuilt = sum(c * np.kron(out.left_basis[:, i], out.right_basis[:, i]) for i, c in enumerate(out.coefficients))
        ok = (
            out.rank == d
            and close(out.coefficients, sv)
            and _orthonormal_columns(out.left_basis)
            and _orthonormal_columns(out.right_basis)
            and close(rebuilt, inp["v"])
        )
    elif name == "one_sided_triangular":
        r = out.coefficients
        diag = np.diagonal(r)
        ok = (
            close(out.basis_left @ r, hv)
            and _orthonormal_columns(out.basis_left)
            and _upper(r)
            and bool(np.all(np.abs(diag.imag) <= TOL))
            and bool(np.all(diag.real >= -TOL))
        )
    elif name == "two_sided_triangular":
        u, t = out.basis_left, out.coefficients
        ok = (
            out.basis_right is u
            and close(u @ t @ u.conj().T, hv)
            and _orthonormal_columns(u)
            and _upper(t)
        )
    elif name == "polar_of_pure_channel":
        u, j, k = out
        ok = close(u @ j, hv) and close(k @ u, hv) and _orthonormal_columns(u) and _psd(j) and _psd(k)
    elif name == "ppt_test":
        ok = (not out.is_ppt) and abs(out.min_eigenvalue + sv[0] * sv[1]) <= TOL
    elif name == "classify_entanglement":
        ok = out.kind.value == "totally_entangled" and out.schmidt_rank == d and close(out.coefficients, sv)
    elif name == "find_kraus_isometry":
        fam = inp["fam"].reshape(len(inp["fam"]), -1)
        big = inp["mix"] @ fam
        u = out.matrix
        ok = out.direction == "b_from_a" and _orthonormal_columns(u) and close(u @ fam, big)
    elif name == "compose":
        want = superop_of_choi(choi_of_kraus(inp["outer"]), d, d) @ superop_of_choi(choi_of_kraus(inp["fam"]), d, d)
        ok = close(superop_of_choi(out.choi_mat, d, d), want)
    elif name == "state_as_measurement":
        effect = (inp["m_op"].conj().T @ inp["m_op"]).T
        ok = close(out, sum(a @ effect @ a.conj().T for a in inp["fam"]))
    else:
        return [f"unknown identity {name!r}"]
    return [] if ok else [f"{name} at d={d} failed its identity"]
