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
# ||psi0|| times 2 sum_(k > K) max_(0 <= y <= x) |J_k(y)|. Kapteyn's
# inequality (DLMF 10.14.8), |J_k(k z)| <= z^k e^(k w) / (1 + w)^k with
# w = sqrt(1 - z^2), 0 < z <= 1, grows with z, so at y <= x < k it gives
# |J_k(y)| <= e^(-E(k)), E(k) = k arccosh(k / x) - sqrt(k^2 - x^2).
# E'(k) = arccosh(k / x) grows with k, so past k = K + 1 each term is at
# most rho = e^(-arccosh(y)) = y - sqrt(y^2 - 1), y = (K + 1) / x, times
# the one before, and the tail is at most 2 e^(-E(K + 1)) / (1 - rho).
# That needs K + 1 > x, and no smaller K could do: its tail would hold
# |J_(K+1)(K+1)|, about 0.45 (K + 1)^(-1/3) (DLMF 10.19.8).
# At x = 323.4 it asks for K = 405, and the exact tail of |J_k| reaches
# the tolerance at K = 399. The series takes the smallest K for which the
# bound is at most CHEB_TAIL_TOL; at 1e-16, below the unit roundoff
# 2^-53 = 1.1e-16, the dropped tail is smaller than one rounding of psi0.
CHEB_TAIL_TOL = 1e-16

# An interval that is not known to enclose the spectrum (the Lanczos one
# below) rests on the growth check of the series instead: every row v_k,
# k <= K, stays within C = (1 + NORM_TOL) ||psi0||. An eigencomponent c at
# H-coordinate |y| = cosh(phi) > 1, rho = e^phi, shows in v_k as
# |c| T_k(|y|), so sum |c|^2 T_K(|y|)^2 <= C^2 over all such components.
# The expansion of e^(-ixy) holds for every y, so each one's error is
# |c| times both sum_(k > K) 2 |J_k(x)| T_k(|y|) and
# 1 + sum_(k <= K) 2 |J_k(x)| T_k(|y|), and all of them together miss by at
# most C sup_(rho > 1) min(F(rho), G(rho)), with, by T_k / T_K <= rho^(k-K)
# for k > K and <= 2 rho^(k-K) for k < K, and 1 / T_K <= 2 rho^(-K),
#   F(rho) = sum_(k > K) 2 M_k rho^(k-K),
#   G(rho) = 2 rho^(-K) + 2 M_K + 4 sum_(k < K) M_k rho^(k-K).
# M_k bounds |J_k| at every argument up to x, here Kapteyn's e^(-E(k)),
# which steps geometrically: M_(K+1+j) <= M_(K+1) s_hi^(-j) and
# M_(K-j) <= M_K s_lo^j, with s_lo = e^E'(K) and s_hi = e^E'(K+1) (K > x;
# for k <= x it uses |J_k| <= 1, which is below M_K s_lo^(K-k) since
# arccosh(z) <= sqrt(z^2 - 1)). F grows with rho and G falls, so their
# smaller one peaks at most at the larger of the two at
# rho* = sqrt(s_lo s_hi), r = sqrt(s_lo / s_hi):
#   F(rho*) <= 2 M_(K+1) rho* / (1 - r),
#   G(rho*) <= 2 rho*^(-K) + 2 M_K (1 + r) / (1 - r).
# The series then takes the smallest K for which the tail bound plus
# (1 + NORM_TOL) times this one is at most CHEB_TAIL_TOL. G keeps M_K, the
# top term, so it asks for about one term more than the tail, and
# 1 / (1 - r) a few more: at x = 323.4, 414 against 405.
#
# That interval comes from LANCZOS_STEPS Lanczos steps with full
# reorthogonalization from a standard normal start drawn from PROBE_SEED,
# not from psi0: roundoff seeds every eigendirection, so the interval has
# to cover the whole spectrum, not just the part psi0 populates. It is
# [theta_1 - m, theta_s + m], theta the Ritz values, with the margin
# m = max(r_1, r_s) + RECON_TOL max(1, |theta_1|, |theta_s|): r_i, the
# residual ||S y_i - theta_i y_i|| of the extreme Ritz pairs, puts an
# eigenvalue within r_i of theta_i (Kahan), and the RECON_TOL term is the
# backward error the eigendecomposition check allows, which keeps the
# interval open when Lanczos stops on an invariant subspace. On five dense
# models of d = 1024 with 4 to 8 terms, 80 steps (26-39 ms) bring both
# extremes within 5e-12 of eigvalsh with residuals up to 1.1e-6; 40 steps
# left gaps of up to 1.1e-2 and residuals up to 0.87, which widen the
# interval.
#
# The same number is the block size up to which a block is diagonalized
# outright instead (one eigh per block size, equal sizes stacked): on n <=
# LANCZOS_STEPS states Lanczos would be a full tridiagonalization, and the
# series, which needs K <= n terms, would serve only x up to about n/2.
LANCZOS_STEPS = 80

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
