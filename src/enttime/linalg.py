"""Dense complex linear algebra kernel shared by all higher modules.

Input validation; the checked spectra of a Hermitian matrix or of a stack
of equal-size ones, either eigenvalues alone (one ``eigvalsh``, checked by
its trace moments) or the full eigendecomposition (checked by an O(k n^2)
residual probe rather than an O(n^3) reconstruction); and the two ways to
form exp(-i S t) psi0 from them: in the eigenbasis (:func:`propagate`), or
as a Chebyshev series in S that needs only the two extreme eigenvalues
(:func:`chebyshev_vectors` and :func:`chebyshev_propagate`, after
Tal-Ezer and Kosloff 1984). Nothing here knows about the bipartite split:
the composite index i * dim_b + j is laid out by
:func:`~enttime.hamiltonian.product_state_vector` and read back by
:class:`~enttime.propagator.Propagator`.

All heavy lifting is delegated to numpy (LAPACK and BLAS); this module adds
the validation, the series and the error contract.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, NumericalError, StateError
from .tolerances import CHEB_TAIL_TOL, NORM_TOL, PROBE_COLUMNS, PROBE_SEED, RECON_TOL

__all__ = [
    "as_complex_matrix",
    "HermitianSpectrum",
    "hermitian_part",
    "eig_hermitian",
    "eigvals_hermitian",
    "propagate",
    "chebyshev_terms",
    "bessel_j",
    "chebyshev_vectors",
    "chebyshev_propagate",
]


def as_complex_matrix(m, *, name: str = "matrix") -> np.ndarray:
    """Coerce ``m`` to a finite 2-D complex128 array.

    Parameters
    ----------
    m : array_like
        Anything numpy can turn into a matrix.
    name : str
        Label used in error messages.

    Returns
    -------
    numpy.ndarray
        2-D complex128 view or copy of the input.
    """
    out = np.asarray(m, dtype=np.complex128)
    if out.ndim != 2 or out.shape[0] < 1 or out.shape[1] < 1:
        raise DimensionError(
            f"{name} must be a 2-D array with positive dimensions, got shape {out.shape!r}"
        )
    if not np.all(np.isfinite(out)):
        raise StateError(f"{name} contains non-finite entries")
    return out


@dataclass(frozen=True, eq=False)
class HermitianSpectrum:
    """Checked spectrum of a Hermitian matrix, or of a stack of them.

    ``eigenvalues`` are real and ascending. ``eigenvectors`` holds the
    orthonormal eigenvectors as columns, so
    ``(eigenvectors * eigenvalues) @ eigenvectors.conj().T`` reconstructs the
    matrix, or is None for a spectrum of eigenvalues alone
    (:func:`eigvals_hermitian`). ``residual`` is the measured error of the
    decomposition and ``tolerance`` the bound it was accepted under, one
    value per matrix: the probe estimate of ||S - V W V^dag||_F for
    :func:`eig_hermitian`, the trace-moment lower bound on the backward
    error for :func:`eigvals_hermitian`. A stack carries its leading axis on
    every field. The arrays are kept read-only.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray | None
    residual: np.ndarray
    tolerance: np.ndarray

    def __post_init__(self) -> None:
        for field in (self.eigenvalues, self.eigenvectors, self.residual, self.tolerance):
            if field is not None:
                field.setflags(write=False)

    def __getitem__(self, k: int) -> "HermitianSpectrum":
        """The spectrum of matrix ``k`` of a stack."""
        vectors = None if self.eigenvectors is None else self.eigenvectors[k]
        return HermitianSpectrum(self.eigenvalues[k], vectors, self.residual[k],
                                 self.tolerance[k])


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


def _accept(what: str, residual: np.ndarray, tol: np.ndarray) -> None:
    bad = np.flatnonzero(~(residual <= tol))
    if bad.size:
        k = bad[0]
        raise NumericalError(f"{what} {residual.flat[k]:.3e} exceeds {tol.flat[k]:.3e}")


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
    tol = RECON_TOL * np.maximum(1.0, np.linalg.norm(sym, axis=(-2, -1)))
    _accept("eigendecomposition residual", residual, tol)
    return HermitianSpectrum(eigenvalues=w, eigenvectors=v, residual=residual, tolerance=tol)


def eigvals_hermitian(m) -> HermitianSpectrum:
    """Eigenvalues alone of a Hermitian matrix, or of an (b, n, n) stack, checked by trace moments.

    One ``eigvalsh`` call, which reads the lower triangle; ``m`` must be
    Hermitian as for :func:`eig_hermitian`. A backward-stable solver returns
    the exact eigenvalues w of S + E for some Hermitian E, so
    |sum w - tr S| = |tr E| <= sqrt(n) ||E||_F and
    | ||w||_2 - ||S||_F | <= ||E||_F. The larger of the two left-hand sides
    (the first over sqrt(n)) is a lower bound on ||E||_F, computed in
    O(n^2); it must not exceed ``RECON_TOL`` max(1, ||S||_F), the bound the
    full decomposition is held to. Raises :class:`NumericalError` when it
    does or when LAPACK fails to converge.
    """
    sym = _square(m)
    try:
        w = np.linalg.eigvalsh(sym)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"Hermitian eigenvalue solver failed to converge: {exc}") from exc
    fro = np.linalg.norm(sym, axis=(-2, -1))
    trace = np.trace(sym, axis1=-2, axis2=-1).real
    residual = np.maximum(np.abs(w.sum(axis=-1) - trace) / math.sqrt(w.shape[-1]),
                          np.abs(np.linalg.norm(w, axis=-1) - fro))
    tol = RECON_TOL * np.maximum(1.0, fro)
    _accept("eigenvalue moment residual", residual, tol)
    return HermitianSpectrum(eigenvalues=w, eigenvectors=None, residual=residual, tolerance=tol)


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
    return np.linalg.norm(e, axis=(-2, -1)) / scale


def propagate(spectrum: HermitianSpectrum, psi0: np.ndarray, modes: np.ndarray,
              times) -> np.ndarray:
    """Amplitudes exp(-i M t) psi0 for each time, one row per time.

    Evaluated as psi0 + V diag(exp(-i w t) - 1) V^dag psi0 with the phase
    shift written through sines, so t = 0 returns psi0 exactly and the
    change of a nearly unmoved state keeps its relative accuracy. ``modes``
    is V^dag psi0, formed once by the caller for all its time grids as
    ``(psi0.conj() @ V).conj()``. The rows for all times come out of one
    (T x dim) by (dim x dim) product, into a new array.
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
    out = shift @ spectrum.eigenvectors.T
    out += psi0
    return out


def chebyshev_terms(x: float, limit: int) -> int | None:
    """Smallest K <= ``limit`` whose series tail bound at ``x`` is at most ``CHEB_TAIL_TOL``.

    The bound is the smaller of the two derived next to ``CHEB_TAIL_TOL``:
    2 (x/2)^(K+1) / (K+1)! / (1 - x / (2 (K+2))) for x < 2 (K + 2), and
    Kapteyn's 2 e^(-k eta) / (1 - y + sqrt(y^2 - 1)) at k = K + 1 > x,
    y = k / x, k eta = k arccosh(y) - sqrt(k^2 - x^2). Both exceed 1 for
    K + 1 <= x/2, so the search starts there, and |x| >= 2 (limit + 2), an
    infinite x included, returns None with no search at all. None means no
    K up to ``limit`` will do.
    """
    x = abs(x)
    if not x < 2.0 * (limit + 2):
        return None
    if x == 0.0:
        return 0
    log_half, log_tol = math.log(0.5 * x), math.log(CHEB_TAIL_TOL) - math.log(2.0)
    for k in range(max(0, int(0.5 * x) - 1), limit + 1):
        ratio = x / (2.0 * (k + 2))
        if ratio < 1.0 and ((k + 1) * log_half - math.lgamma(k + 2)
                            - math.log1p(-ratio)) <= log_tol:
            return k
        y = (k + 1) / x
        if y > 1.0:
            root = math.sqrt(y * y - 1.0)
            if (x * root - (k + 1) * math.acosh(y) - math.log1p(root - y)) <= log_tol:
                return k
    return None


def bessel_j(k_max: int, x) -> np.ndarray:
    """J_0(x) .. J_k_max(x) for each finite x, one row per x.

    Miller's backward recurrence, J_{k-1} = (2k/x) J_k - J_{k+1}, carried
    as the ratios r_k = J_k / J_{k-1} = x / (2k - x r_{k+1}), so each step
    is rescaled and nothing overflows however small x is. It starts from
    r = 0 one order past both ``k_max`` and the order where the tail bound
    of :func:`chebyshev_terms` falls below ``CHEB_TAIL_TOL`` at the largest
    |x|, and is normalized by J_0 + 2 sum_m J_2m = 1. Orders below that
    series length come out to roundoff relative to J_k, the ones from it on
    only to roundoff absolute. Negative x takes J_k(-x) = (-1)^k J_k(x).
    """
    x = np.asarray(x, dtype=np.float64).reshape(-1)
    ax = np.abs(x)
    top = float(ax.max(initial=0.0))
    if not math.isfinite(top):
        raise ValueError("Bessel arguments must be finite")
    # Kapteyn's bound needs K - x of order x^(1/3), far inside this limit
    n = max(k_max, chebyshev_terms(top, 2 * math.ceil(top) + 64)) + 1
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


def chebyshev_vectors(matrix: np.ndarray, center: float, radius: float, psi0: np.ndarray,
                      count: int, start: np.ndarray | None = None) -> tuple[np.ndarray, float]:
    """Rows v_k = (-i)^k T_k(H) psi0, k = 0 .. ``count``, with H = (``matrix`` - center) / radius.

    ``start`` holds rows already formed for this matrix and start, which
    are copied and continued. Each new row costs one matrix-vector product:
    v_1 = -i H v_0 and v_{k+1} = -2i H v_k + v_{k-1}, the Chebyshev
    recurrence with the factor (-i)^k of the series folded in. The series
    rests on the spectrum of H lying in [-1, 1], where |T_k| <= 1, so
    ||v_k|| <= ||psi0||; a spectrum that leaves the interval makes the rows
    grow, and a row beyond (1 + ``NORM_TOL``) ||psi0|| raises
    :class:`NumericalError`. Returns the rows and max_k ||v_k|| / ||psi0||
    over the new ones.
    """
    rows = np.empty((count + 1, psi0.size), dtype=np.complex128)
    if start is None:
        rows[0] = psi0
        first = 1
    else:
        first = start.shape[0]
        rows[:first] = start
    for k in range(first, count + 1):
        np.matmul(matrix, rows[k - 1], out=rows[k])
        rows[k] -= center * rows[k - 1]
        if k == 1:
            rows[k] *= -1j / radius
        else:
            rows[k] *= -2j / radius
            rows[k] += rows[k - 2]
    norm = np.linalg.norm(psi0)
    growth = float(np.max(np.linalg.norm(rows[first:], axis=1), initial=0.0)) / norm
    if not growth <= 1.0 + NORM_TOL:
        raise NumericalError(
            f"Chebyshev vectors grew to {growth!r} times the start's norm: the spectrum "
            f"leaves [{center - radius!r}, {center + radius!r}]"
        )
    return rows, growth


def chebyshev_propagate(psi0: np.ndarray, vectors: np.ndarray, center: float, radius: float,
                        times) -> np.ndarray:
    """Amplitudes exp(-i S t) psi0 for each time, one row per time, from Chebyshev vectors.

    ``vectors`` are the rows v_0 .. v_K of :func:`chebyshev_vectors` for S
    with spectrum in [center - radius, center + radius]. Then
    exp(-i S t) psi0 = p sum_k (2 - delta_k0) J_k(radius t) v_k with
    p = exp(-i center t), and the terms past K change the amplitudes by at
    most the tail bound of :func:`chebyshev_terms` at radius max|t|, times
    ||psi0||. The result is psi0 + q psi0 + p sum_(k >= 1) 2 J_k v_k with
    q = J_0 (p - 1) - 2 sum_(m >= 1) J_2m = J_0 p - 1 and the phase shift
    p - 1 written through sines as in :func:`propagate`, so t = 0 returns
    psi0 exactly and a small change keeps its relative accuracy. Only the
    first K' + 1 rows enter, K' the series length for these times' own
    max|t|, which the same bound allows. The sum is one real (T x K') by
    (K' x 2 dim) product, since its coefficients are real.
    """
    t = np.asarray(times, dtype=np.float64)
    terms = chebyshev_terms(radius * float(np.max(np.abs(t), initial=0.0)),
                            vectors.shape[0] - 1)
    vectors = vectors[: terms + 1]
    bessel = bessel_j(terms, radius * t)
    theta = center * t
    half = np.sin(0.5 * theta)
    sine = np.sin(theta)
    q = bessel[:, 0] * (-2.0 * half * half - 1j * sine) - 2.0 * bessel[:, 2::2].sum(axis=1)
    bessel[:, 1:] *= 2.0
    out = (bessel[:, 1:] @ vectors[1:].view(np.float64)).view(np.complex128)
    out *= (np.cos(theta) - 1j * sine)[:, None]
    out += np.multiply.outer(q, psi0)
    out += psi0
    return out
