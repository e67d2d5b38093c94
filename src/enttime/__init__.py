"""Entanglement timescales and entropy growth for bipartite quantum systems.

Given H = sum_n A_n (x) B_n and a product initial state, one covariance
double sum fixes the timescale on which every Renyi entropy of the reduced
state starts to grow; this package computes that timescale, evolves the
state exactly to confirm the predicted curvature, and ships the two
reference models used to exercise the machinery end to end.
"""

from __future__ import annotations

from .errors import (
    DimensionError,
    EnttimeError,
    ModelError,
    NumericalError,
    StateError,
    TruncationError,
)
from .entropy import (
    VON_NEUMANN_ALPHA,
    entropy_series,
    renyi_from_probabilities,
    verify_growth,
    von_neumann_curvature_probe,
    von_neumann_from_probabilities,
)
from .hamiltonian import Factor, ProductHamiltonian, ProductState, assemble, product_state_vector
from .linalg import HermitianSpectrum, eig_hermitian
from .models import (
    BoseHubbardBoundarySpec,
    CoherentField,
    FockField,
    JcmSpec,
    build_bose_hubbard_boundary,
    build_jcm,
    jcm_timescale_closed_form,
)
from .propagator import Propagator
from .timescale import entanglement_timescale, predicted_curvature

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "EnttimeError",
    "DimensionError",
    "StateError",
    "ModelError",
    "TruncationError",
    "NumericalError",
    "HermitianSpectrum",
    "eig_hermitian",
    "Factor",
    "ProductHamiltonian",
    "ProductState",
    "assemble",
    "product_state_vector",
    "Propagator",
    "entanglement_timescale",
    "predicted_curvature",
    "VON_NEUMANN_ALPHA",
    "renyi_from_probabilities",
    "von_neumann_from_probabilities",
    "entropy_series",
    "von_neumann_curvature_probe",
    "verify_growth",
    "JcmSpec",
    "FockField",
    "CoherentField",
    "BoseHubbardBoundarySpec",
    "build_jcm",
    "jcm_timescale_closed_form",
    "build_bose_hubbard_boundary",
]
