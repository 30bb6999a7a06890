"""Exact arithmetic for minimal-model Virasoro characters via lattice paths.

The package computes bosonic and fermionic character q-series with exact
integer coefficients, enumerates the RSOS and half-lattice path models
whose generating functions they are, executes the weight-preserving
bijections between the two models in both directions, and dissects
half-lattice paths into charged particles with their sector generating
functions.
"""

from .bijections import (
    Bij1Trace,
    Bij2Trace,
    BijectionDomainError,
    InvariantError,
    bij1_forward,
    bij1_inverse,
    bij2_forward,
    bij2_inverse,
)
from .characters import (
    CharacterLabel,
    InvalidLabelError,
    bosonic_character,
    fermionic_character_12,
    m_vector,
    theorem1_label,
    verify_symmetries,
)
from .halfpath import HalfPath, InvalidHalfPathError
from .particles import Dissection, Particle, apply_move, dissect, enumerate_moves
from .particles import minimal_path, minimal_weight, sector_gf
from .qseries import (
    QSeries,
    modular_product,
    pochhammer_finite,
    pochhammer_inf_inverse,
    q_binomial,
)
from .rsos import InfiniteWeightError, InvalidPathError, RsosPath

__all__ = [
    "Bij1Trace",
    "Bij2Trace",
    "BijectionDomainError",
    "CharacterLabel",
    "Dissection",
    "HalfPath",
    "InfiniteWeightError",
    "InvalidHalfPathError",
    "InvalidLabelError",
    "InvalidPathError",
    "InvariantError",
    "Particle",
    "QSeries",
    "RsosPath",
    "apply_move",
    "bij1_forward",
    "bij1_inverse",
    "bij2_forward",
    "bij2_inverse",
    "bosonic_character",
    "dissect",
    "enumerate_moves",
    "fermionic_character_12",
    "m_vector",
    "minimal_path",
    "minimal_weight",
    "modular_product",
    "pochhammer_finite",
    "pochhammer_inf_inverse",
    "q_binomial",
    "sector_gf",
    "theorem1_label",
    "verify_symmetries",
]

__version__ = "0.1.0"
