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

# Truncation allowed in a Chebyshev series of exp(-i S t) psi0, relative to
# ||psi0||. With S's spectrum inside [a - R, a + R] and x = R max|t|,
#   exp(-i S t) psi0 = sum_k (2 - delta_k0) (-i)^k J_k(R t) e^(-i a t) T_k(H) psi0,
# H = (S - a) / R (Tal-Ezer and Kosloff 1984). |T_k| <= 1 on [-1, 1] and
# |J_k(-y)| = |J_k(y)|, so term k has norm at most 2 |J_k(R t)| ||psi0||,
# and dropping every term past K changes the amplitudes by at most
# ||psi0|| times 2 sum_(k > K) max_(0 <= y <= x) |J_k(y)|. Two bounds on that:
# - |J_k(y)| <= (y/2)^k / k!, and each later term is at most x / (2 (K + 2))
#   times the one before, so the tail is at most
#     2 (x/2)^(K+1) / (K+1)! / (1 - x / (2 (K + 2))),   x < 2 (K + 2);
# - Kapteyn's inequality (DLMF 10.14.8), |J_k(k z)| <= z^k e^(k w) / (1 + w)^k
#   with w = sqrt(1 - z^2), 0 < z <= 1, which grows with z: at y <= x < k it
#   gives |J_k(y)| <= e^(-E(k)), E(k) = k arccosh(k / x) - sqrt(k^2 - x^2).
#   E'(k) = arccosh(k / x) grows with k, so past k = K + 1 each term is at
#   most rho = e^(-arccosh(y)) = y - sqrt(y^2 - 1), y = (K + 1) / x, times
#   the one before, and the tail is at most 2 e^(-E(K + 1)) / (1 - rho).
# The first is the sharper for x below about 10, the second above: at
# x = 323.4 they ask for K = 472 and K = 405, and the exact tail of
# |J_k| reaches the tolerance at K = 399. The series takes the smallest K
# for which either bound is at most CHEB_TAIL_TOL; at 1e-16, below the unit
# roundoff 2^-53 = 1.1e-16, the dropped tail is smaller than one rounding
# of psi0.
CHEB_TAIL_TOL = 1e-16

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
