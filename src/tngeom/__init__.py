"""Exact-arithmetic toolkit for tensors built by contracting networks.

The pieces, bottom up: exact fields (rationals and large prime fields),
exact-rank linear algebra, sparse tensors with group and derivation
actions, graphs with vertex/edge dimensions and their contraction map,
named tensor constructors (cyclic trace tensors, splittings, the
explicit boundary tensor), symmetry-algebra systems, matrix curves with
Laurent expansion, and variety-level queries culminating in a
non-closedness certificate.

The package namespace is lazy (PEP 562): ``tngeom.X`` imports the module
that defines X on first access and binds X here, so ``import tngeom``
loads no submodule and a command loads only the modules it runs.
"""

from importlib import import_module as _import_module

_EXPORTS = {
    "errors": "FieldMismatchError FormatError SemanticError ShapeError SingularMatrixError TngeomError",
    "fields": "DEFAULT_PRIME QQ Field PrimeField RationalField",
    "linalg": "Matrix rank",
    "tensors": "Tensor apply_end contract_pair flatten mlrank mode_apply outer random_tensor transpose_axes",
    "networks": "Edge MergeStep NetworkGraph TNSInstance Vertex chain_graph classify_vertex expected_dim "
                "identity_instance loop_dim_formula loop_graph random_instance reduce_valence_one "
                "reduction_preimage supercritical_truncate",
    "contraction": "contract_network",
    "zoo": "Splitting diagonal_splitting imm_loop m_tilde_formula mmult",
    "stabilizer": "StabilizerSystem build_system stabilizer_dim stabilizer_tuples",
    "curves": "MatrixCurve TensorLaurent act_curve curve_from_splitting leading_term",
    "jacobian": "contraction_jacobian tns_dim",
    "varieties": "Certificate certify_not_closed sub_membership",
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names.split()}
__all__ = sorted(_MODULE_OF)
__version__ = "0.1.0"


def __getattr__(name: str):
    if name in _EXPORTS:
        return _import_module(f".{name}", __name__)
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(_import_module(f".{_MODULE_OF[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *_MODULE_OF, *_EXPORTS})
