"""Juddian points of the Rabi Hamiltonian and their numerical validation."""

from .bosons import SqueezeParams, oscillator_levels, squeeze_params
from .juddian import (
    Crossing,
    JuddianPoint,
    JuddianState,
    VerificationReport,
    find_crossings,
    juddian_points,
    reconstruct_state,
    verify_point,
)
from .numerics import FullRankError, RootCountError
from .rabi import ModelParams, SpectrumTable, spectrum_sweep

# the references the benchmark under perfbench/ calls as rj.<name>; not in __all__
from .reference import (  # noqa: F401
    build_full_system,
    build_rabi,
    compatibility_polynomial,
    displaced_osc_hamiltonian,
    displacement_matrix,
    null_vector,
    parity_blocks,
    poly_real_roots,
    squeezed_osc_hamiltonian,
    sym_eig,
)

__all__ = [
    "Crossing",
    "FullRankError",
    "JuddianPoint",
    "JuddianState",
    "ModelParams",
    "RootCountError",
    "SpectrumTable",
    "SqueezeParams",
    "VerificationReport",
    "find_crossings",
    "juddian_points",
    "oscillator_levels",
    "reconstruct_state",
    "spectrum_sweep",
    "squeeze_params",
    "verify_point",
]

__version__ = "0.1.0"
