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

# Eigendecomposition residual ||E||_F, E = S - V W V^dag with S the
# symmetrized input, allowed up to tau = RECON_TOL * max(1, ||S||_F).
# Scaling by ||S||_F rather than max|S| keeps the margin as d grows: a
# backward-stable eigh leaves an E spread over all entries, so
# ||E||_F / max|E| grows like d (about 0.14 d on dense random models).
# ||E||_F is not formed (that is a second O(d^3) product) but probed
# (Freivalds 1977): for n > PROBE_COLUMNS, with X the n x k matrix of
# k = PROBE_COLUMNS standard normal columns drawn from PROBE_SEED, the
# check accepts when ||E X||_F <= sqrt(k) tau, since E ||E X||_F^2 =
# k ||E||_F^2 for any E that does not depend on X. For a rank-1 E with a
# real singular direction, ||E X||_F^2 = ||E||_F^2 chi2_k, so
#   P(accept | ||E||_F >= gamma tau) <= P(chi2_k <= k / gamma^2),
# which is about (k / (2 gamma^2))^(k/2) / (k/2)! = 1.1e-7 at k = 8 and
# gamma = 10. A complex direction, or a residual of higher rank, spreads
# ||E||_F^2 over more independent chi-squared terms, which only lowers
# that probability at a threshold this far below the mean. For
# n <= PROBE_COLUMNS, X is the identity and ||E||_F is exact.
RECON_TOL = 1e-10
PROBE_COLUMNS = 8
PROBE_SEED = 1977

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
