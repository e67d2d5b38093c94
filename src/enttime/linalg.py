"""Dense complex linear algebra kernel shared by all higher modules.

Input validation; the checked eigendecomposition of a Hermitian matrix or
of a stack of equal-size ones (checked by an O(k n^2) residual probe
rather than an O(n^3) reconstruction); the product form of
S = (M + M^dag)/2 for M = sum_n A_n (x) B_n, applied from dense factor
stacks without forming S, with each term that the caller flags as
paired with its adjoint entered once (:func:`hermitian_product`), and
the extreme Ritz values of a few Lanczos steps on any such operator
(:func:`lanczos_interval`); and the two ways to form exp(-i S t) psi0: in
the eigenbasis (:func:`propagate`), or as a Chebyshev series that needs
only products with S and an interval, guarded by the series' growth check
(:func:`chebyshev_vectors` and :func:`chebyshev_propagate`, after
Tal-Ezer and Kosloff 1984), sized in logs by :func:`chebyshev_terms` for
every x. A series from any start state serves one time step; the caller
chains steps by passing the state one series reaches as the next one's
start. Nothing here knows about the bipartite split beyond
the factor shapes: the composite index i * dim_b + j is laid out by
:func:`~enttime.hamiltonian.product_state_vector` and read back by
:class:`~enttime.propagator.Propagator`.

All heavy lifting is delegated to numpy (LAPACK and BLAS); this module adds
the validation, the series and the error contract.
"""

from __future__ import annotations

import math
from collections.abc import Callable

import numpy as np

from .errors import DimensionError, NumericalError, StateError
from .tolerances import (CHEB_TAIL_TOL, LANCZOS_STEPS, NORM_TOL, PROBE_COLUMNS, PROBE_SEED,
                         RECON_TOL)

# The last passes of chebyshev_propagate run over blocks of rows of at most
# this many complex entries (128 KB), each still in cache for its three
# passes, with no temporary q psi0^T of all T rows. On a d = 1024 dense
# model, 2001 times in 16 chunks, that took its calls from 73 to 57 ms
# (one OpenBLAS thread), with the same bits.
_BLOCK_ENTRIES = 1 << 13

__all__ = [
    "HermitianSpectrum",
    "hermitian_part",
    "eig_hermitian",
    "propagate",
    "hermitian_product",
    "lanczos_interval",
    "chebyshev_terms",
    "bessel_j",
    "chebyshev_vectors",
    "chebyshev_propagate",
    "row_norms",
]


class HermitianSpectrum:
    """Checked spectrum of a Hermitian matrix, or of a stack of them.

    ``eigenvalues`` are real and ascending. ``eigenvectors`` holds the
    orthonormal eigenvectors as columns, so
    ``(eigenvectors * eigenvalues) @ eigenvectors.conj().T`` reconstructs the
    matrix. ``residual`` is the probe estimate of ||S - V W V^dag||_F and
    ``tolerance`` the bound it was accepted under, one value per matrix
    (:func:`eig_hermitian`). A stack carries its leading axis on every
    field. The arrays are kept read-only.
    """

    def __init__(self, eigenvalues: np.ndarray, eigenvectors: np.ndarray, residual: np.ndarray,
                 tolerance: np.ndarray) -> None:
        for array in (eigenvalues, eigenvectors, residual, tolerance):
            array.setflags(write=False)
        self.eigenvalues, self.eigenvectors = eigenvalues, eigenvectors
        self.residual, self.tolerance = residual, tolerance


def _square(m) -> np.ndarray:
    """``m`` as a finite complex (n, n) or (b, n, n) array."""
    m = np.asarray(m, dtype=np.complex128)
    if m.ndim not in (2, 3) or m.shape[-1] != m.shape[-2] or m.shape[-1] < 1:
        raise DimensionError(f"matrix must be square, got shape {m.shape!r}")
    if not np.all(np.isfinite(m)):
        raise StateError("matrix contains non-finite entries")
    return m


def hermitian_part(m) -> np.ndarray:
    """S = (M + M^dag)/2 of a matrix or of each matrix of an (b, n, n) stack.

    Formed with one temporary, and exactly Hermitian: S[i, j] and S[j, i]
    are conjugates bit for bit, so a second pass returns S unchanged. The
    spectra below take S, not M.
    """
    m = _square(m)
    sym = m.conj().swapaxes(-1, -2)
    sym += m
    sym *= 0.5
    return sym


def eig_hermitian(m) -> HermitianSpectrum:
    """Eigendecomposition of a Hermitian matrix, or of an (b, n, n) stack, with a residual probe.

    ``m`` must be Hermitian (:func:`hermitian_part` makes it so): ``eigh``
    reads its lower triangle, while the probe measures the residual against
    all of it. A stack takes one LAPACK call, and each of its matrices gets
    exactly the spectrum it would get alone. Raises
    :class:`NumericalError` when LAPACK fails to converge or when, for any
    matrix, the probe of ||S - V W V^dag||_F (:func:`_residual_estimate`,
    O(n^2) per probe column) exceeds ``RECON_TOL`` max(1, ||S||_F); the
    detection bound is derived next to ``RECON_TOL``.
    """
    sym = _square(m)
    try:
        w, v = np.linalg.eigh(sym)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"Hermitian eigensolver failed to converge: {exc}") from exc
    residual = _residual_estimate(sym, w, v)
    tol = RECON_TOL * np.maximum(1.0, _frobenius(sym))
    bad = np.flatnonzero(~(residual <= tol))
    if bad.size:
        k = bad[0]
        raise NumericalError(f"eigendecomposition residual {residual.flat[k]:.3e} exceeds "
                             f"{tol.flat[k]:.3e}")
    return HermitianSpectrum(eigenvalues=w, eigenvectors=v, residual=residual, tolerance=tol)


def _residual_estimate(sym: np.ndarray, w: np.ndarray, v: np.ndarray) -> np.ndarray:
    """||(S - V W V^dag) X||_F / sqrt(columns of X) for each matrix of the stack.

    X is the identity when n <= ``PROBE_COLUMNS`` (the exact Frobenius
    residual), else ``PROBE_COLUMNS`` standard normal columns from
    ``PROBE_SEED``, applied as S X - V (W (V^dag X)).
    """
    n = w.shape[-1]
    if n <= PROBE_COLUMNS:
        x, scale = np.eye(n), 1.0
    else:
        x = np.random.default_rng(PROBE_SEED).standard_normal((n, PROBE_COLUMNS))
        scale = math.sqrt(PROBE_COLUMNS)
    vx = (v.swapaxes(-1, -2) @ x).conj()  # V^dag X, as X is real
    e = sym @ x - v @ (w[..., :, None] * vx)
    return _frobenius(e) / scale


def _frobenius(x: np.ndarray) -> np.ndarray:
    """||X||_F of each matrix of a stack, with no square that overflows.

    The squares are summed over X / 2^k, 2^k >= max|X| (an exact scaling),
    on its real view: one temporary of the size of X, where
    ``np.linalg.norm`` forms two and overflows past about 1e154.
    """
    scale = np.ldexp(1.0, np.frexp(np.abs(x).max(axis=(-2, -1)))[1])
    real = np.divide(x, scale[..., None, None], order="C").view(np.float64)
    return scale * np.sqrt(np.einsum("...ij,...ij->...", real, real))


def _norm(x: np.ndarray) -> float:
    """||x|| of a vector: ``np.linalg.norm`` where it is finite, else :func:`_frobenius` of
    x as a 1 x n matrix, so only vectors whose squares overflow (past about 1e154) change route.
    """
    with np.errstate(over="ignore"):
        norm = float(np.linalg.norm(x))
    return norm if math.isfinite(norm) else float(_frobenius(x[None, :]))


def propagate(spectrum: HermitianSpectrum, psi0: np.ndarray, modes: np.ndarray,
              times) -> np.ndarray:
    """Amplitudes exp(-i M t) psi0 for each time, one row per time, for a matrix or a stack.

    Evaluated as psi0 + V diag(exp(-i w t) - 1) V^dag psi0 with the phase
    shift written through sines, so t = 0 returns psi0 exactly and the
    change of a nearly unmoved state keeps its relative accuracy. ``modes``
    is V^dag psi0, formed once by the caller for all its time grids. A
    stack of b matrices of size n takes psi0 and ``modes`` as (b, n) and
    returns (T, b, n). The rows for all times come out of one (T x n) by
    (n x n) product per matrix, one batched call for a stack, into a new
    array; each matrix of a stack gets bit for bit the rows it gets alone.
    """
    theta = np.multiply.outer(np.asarray(times, dtype=np.float64), spectrum.eigenvalues)
    half = 0.5 * theta
    np.sin(half, out=half)
    np.sin(theta, out=theta)
    shift = 1j * theta
    # -2 sin^2(theta / 2) - i sin(theta), in the order of the complex expression
    np.multiply(half, -2.0, out=theta)
    theta *= half
    np.subtract(theta, shift, out=shift)
    shift *= modes
    # the time axis moves next to each matrix's columns for the product, and back
    out = (shift.swapaxes(0, -2) @ spectrum.eigenvectors.swapaxes(-1, -2)).swapaxes(0, -2)
    out += psi0
    return out


def hermitian_product(pairs, paired) -> Callable[[np.ndarray], np.ndarray]:
    """psi -> S psi for S = (M + M^dag)/2, M = sum_n A_n (x) B_n, without forming S.

    ``pairs`` holds each term's dense factors (A_n, B_n), of shapes
    (dim_a, dim_a) and (dim_b, dim_b). With Psi = psi reshaped to
    (dim_a, dim_b) (index i * dim_b + j), (A (x) B) psi is A Psi B^T (Van
    Loan, "The ubiquitous Kronecker product", 2000). ``paired`` flags the
    terms that add the same to M^dag as to M, the self-adjoint ones and
    those matched one to one with an adjoint partner
    (:attr:`~enttime.hamiltonian.ProductHamiltonian.paired`), so they
    enter S once, with weight 1. Every other term n keeps both halves,
    (1/2)(A_n Psi B_n^T + A_n^dag Psi conj(B_n)). The left factors,
    times their weights, and the transposed right ones are stacked once,
    and each product is two GEMMs, Psi times the right stack and the left
    stack times its blocks laid end to end. With P of the N terms paired,
    the stacks hold w = 2N - P blocks, N for a list closed under the
    adjoint: w d (dim_a + dim_b) multiply-adds per product, against d^2
    for S psi.
    """
    dim_a, dim_b = pairs[0][0].shape[0], pairs[0][1].shape[0]
    whole = [pair for pair, c in zip(pairs, paired) if c]
    halves = [pair for pair, c in zip(pairs, paired) if not c]
    halves += [(a.conj().T, b.conj().T) for a, b in halves]
    count = len(whole) + len(halves)
    left = np.concatenate([a for a, _ in whole] + [0.5 * a for a, _ in halves], axis=1)
    right = np.concatenate([b.T for _, b in whole + halves], axis=1)

    def apply(psi: np.ndarray) -> np.ndarray:
        blocks = psi.reshape(dim_a, dim_b) @ right  # Psi B_k^T side by side
        blocks = blocks.reshape(dim_a, count, dim_b).swapaxes(0, 1).reshape(-1, dim_b)
        return (left @ blocks).reshape(-1)

    return apply


def row_norms(x: np.ndarray) -> np.ndarray:
    """||x_i|| for each row of a complex (T, n) array.

    Summed over the real view, with no temporary of the size of ``x``, where
    ``np.linalg.norm(x, axis=1)`` forms two (conj(x) and its product with
    x) that cost more than the sum itself on whole-space amplitudes.
    """
    real = np.ascontiguousarray(x).view(np.float64)
    return np.sqrt(np.einsum("ij,ij->i", real, real))


def _applier(operator) -> Callable[[np.ndarray], np.ndarray]:
    """v -> S v for a callable, or for a matrix S."""
    return operator if callable(operator) else operator.__matmul__


def lanczos_interval(operator, start: np.ndarray) -> tuple[float, float, float]:
    """(theta_1, theta_s, m): the extreme Ritz values of Lanczos and their margin.

    ``operator`` is a Hermitian matrix S or a callable v -> S v. Lanczos
    runs from ``start`` for min(n, ``LANCZOS_STEPS``) steps, each new vector
    orthogonalized twice against all earlier ones (full
    reorthogonalization), and stops early when the next off-diagonal beta
    is 0 or below roundoff, n eps max ||S q_j||: the Krylov space is then
    invariant, its Ritz values are eigenvalues, and nothing is divided by
    a vanishing beta. The Ritz pairs come from ``eigh`` of the small real
    tridiagonal, with residuals ||S y_i - theta_i y_i|| = beta_s |s_(s,i)|
    (zero after a stop). The margin is
    max(r_1, r_s) + ``RECON_TOL`` max(1, |theta_1|, |theta_s|), derived next
    to ``LANCZOS_STEPS``; the interval [theta_1 - m, theta_s + m] need not
    hold every eigenvalue, which is what the series' growth check is for.
    Raises :class:`NumericalError` when ``eigh`` does not converge.
    """
    apply = _applier(operator)
    n = start.size
    basis = np.empty((min(n, LANCZOS_STEPS), n), dtype=np.complex128)
    alpha, beta = np.zeros(basis.shape[0]), np.zeros(basis.shape[0])
    q = start.astype(np.complex128) / _norm(start)
    roundoff, floor = n * np.finfo(np.float64).eps, 0.0
    for j in range(basis.shape[0]):
        basis[j] = q
        w = apply(q)
        floor = max(floor, roundoff * _norm(w))
        alpha[j] = np.vdot(q, w).real
        kept = basis[: j + 1]
        for _ in range(2):
            w -= (kept @ w.conj()).conj() @ kept
        beta[j] = _norm(w)
        if not beta[j] > floor:
            beta[j] = 0.0
            break
        q = w / beta[j]
    size = j + 1
    tri = np.diag(alpha[:size]) + np.diag(beta[: size - 1], 1) + np.diag(beta[: size - 1], -1)
    try:
        ritz, vectors = np.linalg.eigh(tri)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"Lanczos tridiagonal eigensolver failed to converge: {exc}") from exc
    residual = beta[size - 1] * np.abs(vectors[-1, [0, -1]])
    low, high = float(ritz[0]), float(ritz[-1])
    margin = float(residual.max()) + RECON_TOL * max(1.0, abs(low), abs(high))
    return low, high, margin


def _logaddexp(a: float, b: float) -> float:
    """log(e^a + e^b)."""
    top = max(a, b)
    return top + math.log1p(math.exp(min(a, b) - top))


def _kapteyn(k: int, x: float) -> tuple[float, float]:
    """(-E(k), E'(k)): the log of Kapteyn's bound on |J_k| up to x, and its step, for k > x > 0.

    E(k) = k arccosh(k / x) - sqrt(k^2 - x^2) and E'(k) = arccosh(k / x),
    as derived next to ``CHEB_TAIL_TOL``. Both are taken in logs of
    u = x / k and w = sqrt(1 - u^2), arccosh(k / x) = log1p(w) - log(u),
    so that no finite x > 0, however small, overflows a square; log(u) is
    taken as log(k) - log(x), since u underflows for subnormal x.
    """
    u = x / k
    w = math.sqrt((1.0 - u) * (1.0 + u))
    slope = math.log1p(w) + math.log(k) - math.log(x)
    return k * (w - slope), slope


def _with_outside(tail: float, k: int, x: float, log_next: float, log_hi: float) -> float:
    """log(e^tail + (1 + NORM_TOL) W / 2), W the bound on what components outside the interval add.

    W = max(F(rho*), G(rho*)) as derived next to ``CHEB_TAIL_TOL``, for
    K = ``k`` at ``x``, from Kapteyn's bound: M_(K+1) = e^log_next and
    s_hi = e^log_hi from :func:`_kapteyn` at K + 1, and M_K and s_lo from
    it at K; ``tail`` is the log of half the tail bound. It is infinite
    for K <= x, where Kapteyn's bound gives no M_K.
    """
    if k <= x:
        return math.inf
    log_top, log_lo = _kapteyn(k, x)
    log_rho = 0.5 * (log_lo + log_hi)
    r = math.exp(0.5 * (log_lo - log_hi))
    half = max(log_next + log_rho - math.log1p(-r),
               _logaddexp(-k * log_rho, log_top + math.log((1.0 + r) / (1.0 - r))))
    return _logaddexp(tail, math.log1p(NORM_TOL) + half)


def chebyshev_terms(x: float, limit: int) -> int | None:
    """Smallest K <= ``limit`` whose series error bound at ``x`` is at most ``CHEB_TAIL_TOL``.

    The bound is Kapteyn's tail bound derived next to ``CHEB_TAIL_TOL``,
    2 e^(-E(K+1)) / (1 - rho) with rho = e^(-E'(K+1)) (:func:`_kapteyn`),
    plus (1 + NORM_TOL) times the bound, from the same |J_k| bound, on
    what components outside the interval add once the growth check has
    passed (:func:`_with_outside`): the interval is not known to hold the
    spectrum. The outside term only adds to the tail, so it is taken only
    once the tail alone meets the tolerance. The tail bound needs
    K + 1 > x, so the search starts at K = floor(x), and |x| >= limit + 1,
    an infinite x included, returns None with no search at all. No x
    overflows the search: x = 0 takes K = 0, and any x > 0 below about
    1e-17 takes K = 1. None means no K up to ``limit`` will do.
    """
    x = abs(x)
    if not x < limit + 1:
        return None
    if x == 0.0:
        return 0
    log_tol = math.log(CHEB_TAIL_TOL) - math.log(2.0)
    for k in range(int(x), limit + 1):
        log_next, slope = _kapteyn(k + 1, x)
        tail = log_next - math.log1p(-math.exp(-slope))
        if tail <= log_tol and _with_outside(tail, k, x, log_next, slope) <= log_tol:
            return k
    return None


def bessel_j(k_max: int, x, terms: int | None = None) -> np.ndarray:
    """J_0(x) .. J_k_max(x) for each finite x, one row per x.

    Miller's backward recurrence, J_{k-1} = (2k/x) J_k - J_{k+1}, carried
    as the ratios r_k = J_k / J_{k-1} = x / (2k - x r_{k+1}), so each step
    is rescaled and nothing overflows however small x is. It starts from
    r = 0 one order past both ``k_max`` and the series length of
    :func:`chebyshev_terms` at the largest |x|, which a caller that has
    already found it passes as ``terms``, and is normalized by
    J_0 + 2 sum_m J_2m = 1. Orders below that series length come out to
    roundoff relative to J_k, the ones from it on only to roundoff
    absolute. Negative x takes J_k(-x) = (-1)^k J_k(x).
    """
    x = np.asarray(x, dtype=np.float64).reshape(-1)
    ax = np.abs(x)
    top = float(ax.max(initial=0.0))
    if not math.isfinite(top):
        raise ValueError("Bessel arguments must be finite")
    if terms is None:
        # Kapteyn's bound needs K - x of order x^(1/3), far inside this limit
        terms = chebyshev_terms(top, 2 * math.ceil(top) + 64)
    n = max(k_max, terms) + 1
    ratios = np.empty((n, ax.size))  # row k - 1 holds r_k, k = 1 .. n
    r = np.zeros(ax.size)
    for k in range(n, 0, -1):
        den = 2.0 * k - ax * r
        if not den.all():  # J_{k-1}(x) vanishes to the last bit: keep r finite
            den[den == 0.0] = 2.0 * k * np.finfo(np.float64).eps
        r = np.divide(ax, den, out=ratios[k - 1])
    relative = np.cumprod(ratios, axis=0)  # J_k / J_0, k = 1 .. n
    j0 = 1.0 / (1.0 + 2.0 * relative[1::2].sum(axis=0))
    out = np.empty((ax.size, k_max + 1))
    out[:, 0] = j0
    out[:, 1:] = (relative[:k_max] * j0).T
    out[x < 0.0, 1::2] *= -1.0
    return out


def chebyshev_vectors(operator, center: float, radius: float, start: np.ndarray,
                      count: int) -> tuple[np.ndarray, float]:
    """Rows v_k = (-i)^k T_k(H) psi0, k = 0 .. ``count``, with H = (S - center) / radius.

    ``operator`` is the Hermitian matrix S or a callable v -> S v (such as
    :func:`hermitian_product`). ``start`` holds the rows v_0 = psi0 .. v_j
    already formed for this operator, at least v_0, which are copied and
    continued. Each new row costs one product with S:
    v_1 = -i H v_0 and v_{k+1} = -2i H v_k + v_{k-1}, the Chebyshev
    recurrence with the factor (-i)^k of the series folded in. The series
    rests on the spectrum of H lying in [-1, 1], where |T_k| <= 1, so
    ||v_k|| <= ||psi0||; a spectrum that leaves the interval makes the rows
    grow, and a row beyond (1 + ``NORM_TOL``) ||psi0|| raises
    :class:`NumericalError`. Returns the rows and max_k ||v_k|| / ||psi0||
    over the new ones.
    """
    apply = _applier(operator)
    first = start.shape[0]
    rows = np.empty((count + 1, start.shape[1]), dtype=np.complex128)
    rows[:first] = start
    for k in range(first, count + 1):
        rows[k] = apply(rows[k - 1])
        rows[k] -= center * rows[k - 1]
        if k == 1:
            rows[k] *= -1j / radius
        else:
            rows[k] *= -2j / radius
            rows[k] += rows[k - 2]
    norm = float(np.linalg.norm(start[0]))
    growth = float(np.max(row_norms(rows[first:]), initial=0.0)) / norm
    if not growth <= 1.0 + NORM_TOL:
        raise NumericalError(
            f"Chebyshev vectors grew to {growth!r} times the start's norm: the spectrum "
            f"leaves [{float(center - radius)!r}, {float(center + radius)!r}]"
        )
    return rows, growth


def chebyshev_propagate(psi0: np.ndarray, vectors: np.ndarray, center: float, radius: float,
                        times) -> np.ndarray:
    """Amplitudes exp(-i S t) psi0 for each time, one row per time, from Chebyshev vectors.

    ``vectors`` are the rows v_0 .. v_K of :func:`chebyshev_vectors` for S
    and the interval [center - radius, center + radius], which they passed
    the growth check on. Then
    exp(-i S t) psi0 = p sum_k (2 - delta_k0) J_k(radius t) v_k with
    p = exp(-i center t), and the terms past K, with what components
    outside the interval add, change the amplitudes by at most the bound of
    :func:`chebyshev_terms` at radius max|t|, times
    ||psi0||. The result is psi0 + q psi0 + p sum_(k >= 1) 2 J_k v_k with
    q = J_0 (p - 1) - 2 sum_(m >= 1) J_2m = J_0 p - 1 and the phase shift
    p - 1 written through sines as in :func:`propagate`, so t = 0 returns
    psi0 exactly and a small change keeps its relative accuracy. Only the
    first K' + 1 rows enter, K' the series length for these times' own
    max|t|, which the same bound allows, and the Bessel recurrence starts
    past K', found once. The sum is one real (T x K') by
    (K' x 2 dim) product, since its coefficients are real.
    """
    t = np.asarray(times, dtype=np.float64)
    terms = chebyshev_terms(radius * float(np.max(np.abs(t), initial=0.0)),
                            vectors.shape[0] - 1)
    vectors = vectors[: terms + 1]
    bessel = bessel_j(terms, radius * t, terms)
    theta = center * t
    half = np.sin(0.5 * theta)
    sine = np.sin(theta)
    q = bessel[:, 0] * (-2.0 * half * half - 1j * sine) - 2.0 * bessel[:, 2::2].sum(axis=1)
    bessel[:, 1:] *= 2.0
    out = (bessel[:, 1:] @ vectors[1:].view(np.float64)).view(np.complex128)
    phase = np.cos(theta) - 1j * sine
    size = max(1, _BLOCK_ENTRIES // psi0.size)
    for lo in range(0, t.size, size):
        part = out[lo : lo + size]
        part *= phase[lo : lo + size, None]
        part += np.multiply.outer(q[lo : lo + size], psi0)
        part += psi0
    return out
