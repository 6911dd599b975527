"""Juddian points of the Rabi Hamiltonian and their numerical validation."""

from .bosons import (
    SqueezeParams,
    displaced_osc_hamiltonian,
    displacement_matrix,
    ladder_matrices,
    squeeze_params,
    squeezed_osc_hamiltonian,
)
from .juddian import (
    JuddianPoint,
    JuddianState,
    VerificationReport,
    alternate_branch,
    build_full_system,
    compatibility_polynomial,
    juddian_points,
    reconstruct_state,
    verify_point,
)
from .numerics import (
    EigResult,
    FullRankError,
    NonConvergenceError,
    RootCountError,
    null_vector,
    poly_eval,
    poly_real_roots,
    sym_eig,
)
from .rabi import (
    Crossing,
    ModelParams,
    ParityBlock,
    SpectrumTable,
    build_rabi,
    find_crossings,
    parity_blocks,
    spectrum_sweep,
)

__all__ = [
    "Crossing",
    "EigResult",
    "FullRankError",
    "JuddianPoint",
    "JuddianState",
    "ModelParams",
    "NonConvergenceError",
    "ParityBlock",
    "RootCountError",
    "SpectrumTable",
    "SqueezeParams",
    "VerificationReport",
    "alternate_branch",
    "build_full_system",
    "build_rabi",
    "compatibility_polynomial",
    "displaced_osc_hamiltonian",
    "displacement_matrix",
    "find_crossings",
    "juddian_points",
    "ladder_matrices",
    "null_vector",
    "parity_blocks",
    "poly_eval",
    "poly_real_roots",
    "reconstruct_state",
    "spectrum_sweep",
    "squeeze_params",
    "squeezed_osc_hamiltonian",
    "sym_eig",
    "verify_point",
]

__version__ = "0.1.0"
