"""Quantum operations through their block-matrix (state) form.

The package keeps one canonical representation for a linear operation
on matrices, the block matrix living on a doubled system, and derives
superoperator and Kraus forms from it by exact reindexing and
eigensystem computations.  On top of that sit the structural predicates
(complete positivity, trace preservation, factorizability, extremality)
and the algebra that states of the doubled system inherit from
operation composition.
"""

from .algebra import (
    EntanglementClass,
    EntanglementKind,
    PPTVerdict,
    StateSquare,
    classify_entanglement,
    diamond,
    dual_functional,
    group_identity,
    group_inverse,
    phi_homomorphism,
    ppt_test,
    schur_product_channels,
    state_as_measurement,
)
from .bipartite import (
    BipartiteOperator,
    BipartiteShape,
    BipartiteVector,
    canonical_bell,
    check,
    hat,
    kron,
    partial_trace_1,
    partial_trace_2,
    partial_transpose_1,
    partial_transpose_2,
    reshuffle_check,
    reshuffle_hat,
    unhat,
    unreshuffle_hat,
)
from .channel import (
    Channel,
    ChannelVerdict,
    KrausSet,
    PositivityVerdict,
    TPConditions,
    adjoint_channel,
    apply,
    channel_equal,
    channel_from_choi,
    channel_from_kraus,
    channel_from_superop,
    channel_verdict,
    check_positive_preserving,
    compose,
    extend_with_identity,
    extremal_span_dimension,
    higher_rank,
    is_bistochastic,
    is_completely_positive,
    is_extremal_tp,
    is_factorizable,
    is_hermitian_preserving,
    is_isometric_channel,
    is_trace_preserving,
    is_unital,
    kraus_from_channel,
    sandwich_identity_check,
    six_tp_conditions,
    superop_from_channel,
)
from .decomp import (
    Dilation,
    KrausIsometry,
    SchmidtForm,
    TriangularForm,
    dilate,
    find_kraus_isometry,
    one_sided_triangular,
    polar_of_pure_channel,
    schmidt,
    two_sided_triangular,
)
from .errors import (
    ChoikitError,
    ConvergenceFailure,
    DifferentChannels,
    DimensionMismatch,
    InvalidValue,
    NotCompletelyPositive,
    NotHermitian,
    NotTotallyEntangled,
    NotTracePreserving,
    NumericalFailure,
    ParseError,
    SingularMatrix,
)
from .matlin import DEFAULT_TOL, Tolerance

__version__ = "0.1.0"
