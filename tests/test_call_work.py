"""Per-call work guard: finiteness scans and ownership copies, counted.

Every finiteness scan in the package is a ``matlin.as_matrix`` call, and
every copy a wrapper makes to own an array is a ``matlin._frozen_copy``
call.  Counting both over one call each of the algebra's small-matrix
routes pins the validation contract (outside input is copied and scanned
once; computed arrays are scanned once and frozen in place), so redundant
checks cannot creep back unnoticed.  Counts, not times: deterministic.
"""

import sys

import numpy as np
import pytest

from choikit import algebra as alg
from choikit import bipartite as bp
from choikit import channel as ch
from choikit import matlin as ml

from helpers import crandn

S2 = bp.BipartiteShape(2, 2)


@pytest.fixture
def counts(monkeypatch):
    """Wrap as_matrix and _frozen_copy under every name a choikit module
    binds them to; returns the running counts."""
    tally = {"as_matrix": 0, "_frozen_copy": 0}
    for name in tally:
        original = getattr(ml, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            tally[_name] += 1
            return _original(*args, **kwargs)

        for mod in list(sys.modules.values()):
            if getattr(mod, "__name__", "").startswith("choikit") and getattr(mod, name, None) is original:
                monkeypatch.setattr(mod, name, counted)
    return tally


def _calls():
    rng = np.random.default_rng(41)
    a = crandn(rng, 2, 2)
    mat = crandn(rng, 2, 2)
    x, y = (alg.StateSquare(2, bp.BipartiteOperator(S2, crandn(rng, 4, 4))) for _ in range(2))
    state = alg.phi_homomorphism(a)
    outer, inner = (ch.channel_from_choi(crandn(rng, 4, 4), S2) for _ in range(2))
    return {
        "phi_homomorphism": lambda: alg.phi_homomorphism(a),
        "diamond": lambda: alg.diamond(x, y),
        "group_inverse": lambda: alg.group_inverse(state),
        "unhat": lambda: bp.unhat(mat, S2),
        "compose": lambda: ch.compose(outer, inner),
    }


# (scans, copies) per call at n = 2
WORK = {
    "phi_homomorphism": (3, 1),  # the input copied; its rank; the projector
    "diamond": (1, 0),  # the product
    "group_inverse": (4, 0),  # u; hat(u) in svd; the inverse; its projector
    "unhat": (1, 1),  # the caller's matrix, copied once
    "compose": (1, 0),  # the product
}


@pytest.mark.parametrize("name", sorted(WORK))
def test_scans_and_copies_per_call(name, counts):
    call = _calls()[name]
    counts.update(as_matrix=0, _frozen_copy=0)
    call()
    assert (counts["as_matrix"], counts["_frozen_copy"]) == WORK[name]
