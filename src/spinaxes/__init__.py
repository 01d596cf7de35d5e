"""spinaxes: axial decomposition and rotational invariants of spin-j density matrices.

A symmetric N-qubit (spin-j, j = N/2) density matrix is expanded in
statistical tensor components t[k,q]; each rank k maps to k axes on the unit
sphere plus one non-negative scale r_k. The scales and all pairwise axis
couplings are rotational (local-unitary) invariants, though not a complete set:
a state and its transpose, in general not a rotation of it, give the same
scales and sorted |pairwise| values.
"""

from .angular import (
    HalfInt, clebsch_gordan, couple, euler_rotation_cartesian, tensor_operator, unit_vector_components, wigner_D,
    wigner_D_matrix, wigner_d_small,
)
from .axes import (
    Axis, MultiaxialForm, RankDecomposition, RankPolynomial, build_polynomial, coupled_axes_tensor, decompose,
    decompose_many, pair_and_canonicalize, reconstruct_tensor, scalar_r, solve_axes,
)
from .errors import DecompositionError, DomainError, StateFileError, ValidationError
from .invariants import (
    InvarianceReport, InvariantSet, enumerate_invariants, invariant_count, spin1_named, verify_invariance,
)
from .states import (
    ChannelParams, PptResult, Spinor, channel_mixed, ppt_separable, pure_two_spinor, random_density_matrix,
    symmetrize_pure,
)
from .tensors import (
    DensityMatrix, TensorComponents, from_tensor, random_tensor_components, rotate_density, rotate_tensor, to_tensor,
)

__version__ = "0.1.0"

__all__ = [
    "Axis", "ChannelParams", "DecompositionError", "DensityMatrix", "DomainError", "HalfInt", "InvarianceReport",
    "InvariantSet", "MultiaxialForm", "PptResult", "RankDecomposition", "RankPolynomial", "Spinor", "StateFileError",
    "TensorComponents", "ValidationError", "build_polynomial", "channel_mixed", "clebsch_gordan", "couple",
    "coupled_axes_tensor", "decompose", "decompose_many", "enumerate_invariants", "euler_rotation_cartesian",
    "from_tensor", "invariant_count", "pair_and_canonicalize", "ppt_separable", "pure_two_spinor",
    "random_density_matrix", "random_tensor_components", "reconstruct_tensor", "rotate_density", "rotate_tensor",
    "scalar_r", "solve_axes", "spin1_named", "symmetrize_pure", "tensor_operator", "to_tensor",
    "unit_vector_components", "verify_invariance", "wigner_D", "wigner_D_matrix", "wigner_d_small",
]
