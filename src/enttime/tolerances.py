"""Numerical tolerances used across the package.

Values are module constants rather than per-call arguments so that every
layer (library, tests, command line) agrees on what "equal" means. The
relative ones are applied against max(1, scale) with a scale stated at the
point of use, which keeps them meaningful for operators with entries far
from unit magnitude.
"""

from __future__ import annotations

# State vectors must be normalized to this accuracy on construction.
NORM_TOL = 1e-10

# Hermiticity defect max|M - M^dag| allowed for assembled operators,
# relative to max(1, max|M|).
HERM_TOL = 1e-10

# Eigendecomposition reconstruction residual max|V w V^dag - M|, relative
# to max(1, max|M|).
RECON_TOL = 1e-10

# Reduced-density eigenvalues may undershoot zero by this much before the
# spectrum is considered broken (relative to the unit trace).
PSD_TOL = -1e-12

# Largest total Hilbert-space dimension the dense kernel will build.
MAX_DIM = 4096

# A squared inverse timescale at or below DEGEN_TOL_REL times the covariance
# magnitude scale counts as degenerate (no quadratic entropy growth).
DEGEN_TOL_REL = 1e-12

# Imaginary part allowed in the (mathematically real) covariance double sum,
# relative to max(1, covariance magnitude scale).
IMAG_TOL = 1e-10

# Probability mass a truncated mode expansion may discard.
TAIL_TOL = 1e-12

# Deviation from unit total tolerated for probability vectors.
TRACE_TOL = 1e-8
