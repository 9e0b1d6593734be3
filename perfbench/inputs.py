"""Seeded inputs for the benchmark workloads, and the JSON writer for them.

Nothing here imports choikit: the inputs and the reference matrices the
checkers compare against are built from the definitions alone.

Conventions match the package (and the paper): an operation with Kraus
operators a_x (m x n) has the block matrix s = sum_x vec(a_x) vec(a_x)^dagger
with row-major vec, so s[(i,j),(k,l)] = sum_x a_x[i,j] conj(a_x[k,l]).
"""

from __future__ import annotations

import json
import os

import numpy as np

CLASSIFY_D = 16
BOUNDARY_D = 8
BOUNDARY_EIGENVALUE = -5e-10
CONVERT_D = 16
CONVERT_RANK = 16
ALGEBRA_DIMS = (2, 4, 8)

# The classify round.  Each entry is (label, representation); the
# tolerance-boundary channel is last and does not depend on the seed.
CLASSIFY_MIX = (
    ("cptp_r1", "kraus"),
    ("cptp_r2", "kraus"),
    ("cptp_r3", "kraus"),
    ("cptp_r4", "kraus"),
    ("trace_decreasing", "kraus"),
    ("unital_mixture", "kraus"),
    ("hp_nonpositive", "choi"),
    ("boundary", "choi"),
)


# ------------------------------------------------------------- primitives


def crandn(rng, *shape) -> np.ndarray:
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def random_isometry(rng, p: int, q: int) -> np.ndarray:
    """p x q with orthonormal columns (p >= q)."""
    qq, r = np.linalg.qr(crandn(rng, p, q))
    dg = np.diagonal(r)
    return qq * (dg / np.abs(dg))[np.newaxis, :]


def kraus_blocks(iso: np.ndarray, count: int, m: int) -> list:
    """Split an (count*m) x n isometry into count operators of size m x n."""
    return [iso[x * m : (x + 1) * m] for x in range(count)]


def choi_of_kraus(ops) -> np.ndarray:
    vecs = np.stack([np.asarray(a).reshape(-1) for a in ops])
    return np.einsum("xp,xq->pq", vecs, vecs.conj())


def _reshuffle_index(m: int, n: int):
    """Flat positions (i*m + k, j*n + l) and (i*n + j, k*n + l) for all i, j, k, l."""
    i, j, k, l = (a.reshape(-1) for a in np.indices((m, n, m, n)))
    return (i * m + k, j * n + l), (i * n + j, k * n + l)


def superop_of_choi(s: np.ndarray, m: int, n: int) -> np.ndarray:
    """S[(i,k),(j,l)] = s[(i,j),(k,l)], by explicit index permutation."""
    big, block = _reshuffle_index(m, n)
    out = np.empty((m * m, n * n), dtype=complex)
    out[big] = s[block]
    return out


def choi_of_superop(big_mat: np.ndarray, m: int, n: int) -> np.ndarray:
    """Inverse of :func:`superop_of_choi`."""
    big, block = _reshuffle_index(m, n)
    out = np.empty((m * n, m * n), dtype=complex)
    out[block] = big_mat[big]
    return out


# -------------------------------------------------------------- JSON writer


def matrix_json(mat) -> dict:
    """Matrix document: row-major [re, im] pairs; floats round-trip exactly."""
    mat = np.asarray(mat, dtype=complex)
    if mat.ndim == 1:
        mat = mat[:, np.newaxis]
    flat = mat.reshape(-1)
    return {
        "rows": int(mat.shape[0]),
        "cols": int(mat.shape[1]),
        "data": [[float(z.real), float(z.imag)] for z in flat],
    }


def channel_json(m: int, n: int, representation: str, payload) -> dict:
    if representation == "kraus":
        payload = {"m": m, "n": n, "kraus": [matrix_json(a) for a in payload]}
    else:
        payload = matrix_json(payload)
    return {"m": m, "n": n, "representation": representation, "payload": payload}


def write_json(path: str, doc) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, separators=(",", ":"))


# ---------------------------------------------------------------- classify


def boundary_choi() -> np.ndarray:
    """d = 8 block matrix with one eigenvalue at -5e-10 and the rest at 1/d.

    The negative eigenvalue sits inside the positivity floor (Frobenius
    scale) but above the rank and Kraus cuts (largest-eigenvalue scale).
    """
    d = BOUNDARY_D
    diag = np.full(d * d, 1.0 / d)
    diag[0] = BOUNDARY_EIGENVALUE
    return np.diag(diag).astype(complex)


def classify_case(rng, label: str):
    """(choi, payload) for one entry of the classify mix at d = 16."""
    d = CLASSIFY_D
    if label.startswith("cptp_r"):
        r = int(label[len("cptp_r") :])
        ops = kraus_blocks(random_isometry(rng, d * r, d), r, d)
        return choi_of_kraus(ops), ops
    if label == "trace_decreasing":
        ops = [np.sqrt(0.8) * a for a in kraus_blocks(random_isometry(rng, 2 * d, d), 2, d)]
        return choi_of_kraus(ops), ops
    if label == "unital_mixture":
        weights = rng.uniform(0.2, 1.0, size=3)
        weights /= weights.sum()
        ops = [np.sqrt(p) * random_isometry(rng, d, d) for p in weights]
        return choi_of_kraus(ops), ops
    if label == "hp_nonpositive":
        # rho -> Tr(rho) id/d - 2 P rho P^dagger with P a signed permutation:
        # Hermitian preserving, and <phi|F(psi psi^dagger)|phi> < 0 whenever
        # |<phi|P psi>|^2 > 1/(2d), which most random pairs satisfy.
        perm = np.zeros((d, d), dtype=complex)
        perm[np.arange(d), rng.permutation(d)] = rng.choice((-1.0, 1.0), size=d)
        v = perm.reshape(-1)
        s = np.eye(d * d, dtype=complex) / d - 2.0 * np.outer(v, v.conj())
        return s, s
    if label == "boundary":
        s = boundary_choi()
        return s, s
    raise ValueError(f"unknown classify case {label!r}")


# ------------------------------------------------------------------ writer


def write_inputs(workload: str, seed: int, workdir: str) -> dict:
    """Write the seeded inputs of one workload into workdir.

    Returns the manifest (also written as manifest.json).  Reference
    arrays go to refs.npz for the checkers.
    """
    rng = np.random.default_rng(seed)
    refs = {}
    if workload == "classify":
        calls = []
        for label, rep in CLASSIFY_MIX:
            s, payload = classify_case(rng, label)
            d = BOUNDARY_D if label == "boundary" else CLASSIFY_D
            path = os.path.join(workdir, f"{label}.json")
            write_json(path, channel_json(d, d, rep, payload))
            refs[label] = s
            calls.append({"label": label, "channel": path, "m": d, "n": d})
        manifest = {"workload": workload, "calls": calls}
    elif workload == "convert":
        d, r = CONVERT_D, CONVERT_RANK
        ops = kraus_blocks(random_isometry(rng, d * r, d), r, d)
        s = choi_of_kraus(ops)
        path = os.path.join(workdir, "choi.json")
        write_json(path, channel_json(d, d, "choi", s))
        refs["choi"] = s
        manifest = {"workload": workload, "channel": path, "m": d, "n": d, "rank": r}
    elif workload == "algebra":
        for d in ALGEBRA_DIMS:
            refs.update({f"{k}_{d}": v for k, v in algebra_case(rng, d).items()})
        manifest = {"workload": workload, "dims": list(ALGEBRA_DIMS)}
    else:
        raise ValueError(f"unknown workload {workload!r}")
    np.savez(os.path.join(workdir, "refs.npz"), **refs)
    write_json(os.path.join(workdir, "manifest.json"), manifest)
    return manifest


def algebra_case(rng, d: int) -> dict:
    """Random inputs for one round of the algebra identities at dimension d."""
    def state(dim):
        g = crandn(rng, dim, dim)
        x = g @ g.conj().T
        return x / np.trace(x).real

    v = crandn(rng, d * d)
    two = kraus_blocks(random_isometry(rng, 2 * d, d), 2, d)
    outer = kraus_blocks(random_isometry(rng, 2 * d, d), 2, d)
    return {
        "a": crandn(rng, d, d),
        "b": crandn(rng, d, d),
        "v": v / np.linalg.norm(v),
        "x": state(d * d),
        "y": state(d * d),
        "fam": np.stack(two),
        "mix": random_isometry(rng, 3, 2),
        "outer": np.stack(outer),
        "m_op": crandn(rng, d, d),
    }
