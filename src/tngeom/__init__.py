"""Exact-arithmetic toolkit for tensors built by contracting networks.

The pieces, bottom up: exact fields (rationals and large prime fields),
exact-rank linear algebra, sparse tensors with group and derivation
actions, graphs with vertex/edge dimensions and their contraction map,
named tensor constructors (cyclic trace tensors, splittings, the
explicit boundary tensor), symmetry-algebra systems, matrix curves with
Laurent expansion, and variety-level queries culminating in a
non-closedness certificate.
"""

from .errors import (
    FieldMismatchError,
    FormatError,
    SemanticError,
    ShapeError,
    SingularMatrixError,
    TngeomError,
)
from .fields import DEFAULT_PRIME, QQ, Field, PrimeField, RationalField
from .linalg import (
    Matrix,
    inverse,
    is_invertible,
    kernel_basis,
    kron,
    random_invertible,
    random_matrix,
    rank,
)
from .tensors import (
    Tensor,
    apply_end,
    contract_pair,
    eval_multilinear,
    flatten,
    leibniz_act,
    mlrank,
    mode_apply,
    outer,
    random_tensor,
    transpose_axes,
)
from .networks import (
    Edge,
    MergeStep,
    NetworkGraph,
    TNSInstance,
    Vertex,
    chain_graph,
    classify_vertex,
    contract_network,
    expected_dim,
    flip_edge,
    gauge_transform,
    identity_instance,
    loop_dim_formula,
    loop_graph,
    random_instance,
    reduce_valence_one,
    reduction_preimage,
    supercritical_truncate,
)
from .zoo import (
    Splitting,
    block_splitting,
    diagonal_splitting,
    imm_loop,
    m_tilde_formula,
    mmult,
)
from .stabilizer import (
    StabilizerSystem,
    build_system,
    orbit_dim,
    stabilizer_contains_expected,
    stabilizer_dim,
    stabilizer_tuples,
)
from .curves import (
    MatrixCurve,
    TensorLaurent,
    act_curve,
    curve_from_splitting,
    leading_term,
)
from .varieties import (
    Certificate,
    certify_not_closed,
    contraction_jacobian,
    end_orbit_consistency,
    is_concise,
    loop_endomorphisms,
    sub_membership,
    tns_dim,
)

__version__ = "0.1.0"
