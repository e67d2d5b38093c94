"""Renyi and von Neumann entropies of reduced states, exactly evolved.

Two evaluation routes live here. The matrix route (:func:`alpha_purity`,
:func:`renyi_entropy`, :func:`von_neumann_entropy`) diagonalizes a reduced
density matrix; it is the natural interface when a caller already holds
rho_A. The state route (:func:`schmidt_probabilities` plus the
``*_from_probabilities`` kernels) takes the Schmidt spectrum from an SVD of
the pure-state amplitude matrix and never forms the largest probability
explicitly, which keeps entropies of nearly-product states accurate down to
the 1e-30 range; the naive log-of-sum loses them below ~1e-15. Time series
and the short-time von Neumann curvature probe are built on the state route.

Entropies are in nats. alpha = 1 marks the von Neumann branch in
:func:`entropy_series`; the Renyi-only entry points reject it.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import NumericalError, StateError
from .hamiltonian import ProductHamiltonian, ProductState
from .linalg import BipartitePureState, eig_hermitian
from .propagator import Propagator
from .timescale import TimescaleReport, entanglement_timescale
from .tolerances import PSD_TOL, TRACE_TOL

__all__ = [
    "VON_NEUMANN_ALPHA",
    "EntropySeries",
    "schmidt_probabilities",
    "renyi_from_probabilities",
    "von_neumann_from_probabilities",
    "alpha_purity",
    "renyi_entropy",
    "von_neumann_entropy",
    "entropy_series",
    "stencil_curvatures",
    "von_neumann_curvature_probe",
]

# Sentinel order marking the von Neumann (alpha -> 1) branch in series requests.
VON_NEUMANN_ALPHA = 1

# A 5-point second-derivative stencil narrower than this fraction of the
# entanglement timescale drowns in roundoff; the probe refuses to go there.
_STENCIL_FLOOR = 1e-7

# The 5-point central second difference: sample offsets in units of the
# width h, and weights over 12 h^2.
_STENCIL_OFFSETS = np.array([-2.0, -1.0, 0.0, 1.0, 2.0])
_STENCIL_WEIGHTS = np.array([-1.0, 16.0, -30.0, 16.0, -1.0])


def _check_alpha(alpha, minimum: int) -> int:
    if isinstance(alpha, bool) or not isinstance(alpha, (int, np.integer)):
        raise ValueError(f"alpha must be an integer, got {alpha!r}")
    if alpha < minimum:
        raise ValueError(f"alpha must be >= {minimum}, got {alpha}")
    return int(alpha)


def _prepared_tail(probs) -> np.ndarray:
    """Sorted sub-leading probabilities, renormalized by the exact total.

    The leading probability is carried implicitly as 1 - sum(tail), which is
    what protects the kernels from cancellation when the state is nearly
    pure.
    """
    q = np.asarray(probs, dtype=np.float64).reshape(-1)
    if q.size == 0:
        raise StateError("probability vector is empty")
    if not np.all(np.isfinite(q)):
        raise StateError("probability vector contains non-finite entries")
    low = float(q.min())
    if low < PSD_TOL:
        raise StateError(f"probability {low:.3e} is negative beyond roundoff")
    q = np.sort(np.clip(q, 0.0, None))[::-1]
    total = float(q.sum())
    if abs(total - 1.0) > TRACE_TOL:
        raise StateError(f"probabilities sum to {total!r}, expected 1 within {TRACE_TOL}")
    tail = q[1:] / total
    return tail[tail > 0.0]


def schmidt_probabilities(state: BipartitePureState) -> np.ndarray:
    """Schmidt coefficients squared, descending.

    These are the common eigenvalues of both reduced density matrices
    (padded with zeros up to the respective dimension); min(dim_a, dim_b)
    values are returned.
    """
    singular = np.linalg.svd(state.amplitude_matrix(), compute_uv=False)
    return singular * singular


def renyi_from_probabilities(probs, alpha: int) -> float:
    """Order-alpha Renyi entropy ln(sum p^alpha) / (1 - alpha) of a spectrum.

    Implemented through the purity defect sum p^alpha - 1 so values of order
    1e-30 survive; exact zero comes back for a pure spectrum.
    """
    alpha = _check_alpha(alpha, 2)
    tail = _prepared_tail(probs)
    if tail.size == 0:
        return 0.0
    eps = float(tail.sum())
    purity_defect = math.expm1(alpha * math.log1p(-eps)) + float(np.sum(tail**alpha))
    return math.log1p(purity_defect) / (1.0 - alpha)


def von_neumann_from_probabilities(probs) -> float:
    """Shannon entropy -sum p ln p of a spectrum, in nats."""
    tail = _prepared_tail(probs)
    if tail.size == 0:
        return 0.0
    eps = float(tail.sum())
    return -(1.0 - eps) * math.log1p(-eps) - float(np.sum(tail * np.log(tail)))


def _density_spectrum(rho) -> np.ndarray:
    """Descending, clipped eigenvalues of a density matrix."""
    spectrum = eig_hermitian(rho)
    p = spectrum.eigenvalues[::-1]
    low = float(p.min())
    if low < PSD_TOL:
        raise StateError(
            f"density matrix eigenvalue {low:.3e} is negative beyond roundoff"
        )
    trace = float(p.sum())
    if abs(trace - 1.0) > TRACE_TOL:
        raise StateError(f"density matrix trace {trace!r} deviates from 1")
    clipped_mass = float(p[p < 0.0].sum())
    if clipped_mass < -1e-9:
        warnings.warn(
            f"clipping {clipped_mass:.3e} of negative eigenvalue mass to zero",
            RuntimeWarning,
            stacklevel=2,
        )
    return np.clip(p, 0.0, None)


def alpha_purity(rho, alpha: int) -> float:
    """tr rho^alpha through the eigenvalue spectrum, for integer alpha >= 1."""
    alpha = _check_alpha(alpha, 1)
    p = _density_spectrum(rho)
    return float(np.sum(p**alpha))


def renyi_entropy(rho, alpha: int) -> float:
    """Order-alpha Renyi entropy of a density matrix, alpha integer >= 2.

    The alpha -> 1 limit is :func:`von_neumann_entropy`; its short-time
    growth law is different in kind (see
    :func:`von_neumann_curvature_probe`), so alpha = 1 is rejected here.
    """
    alpha = _check_alpha(alpha, 2)
    return renyi_from_probabilities(_density_spectrum(rho), alpha)


def von_neumann_entropy(rho) -> float:
    """Von Neumann entropy -tr(rho ln rho) in nats."""
    return von_neumann_from_probabilities(_density_spectrum(rho))


@dataclass(frozen=True, eq=False)
class EntropySeries:
    """Entropy values of one order along a time grid.

    ``alpha`` is the Renyi order, with ``VON_NEUMANN_ALPHA`` (= 1) marking
    the von Neumann branch. ``spectra`` optionally carries the Schmidt
    probabilities per time, shape (len(times), min(dim_a, dim_b)),
    descending within each row.
    """

    alpha: int
    times: np.ndarray
    values: np.ndarray
    spectra: np.ndarray | None = None

    def __post_init__(self) -> None:
        self.times.setflags(write=False)
        self.values.setflags(write=False)
        if self.spectra is not None:
            self.spectra.setflags(write=False)


def _check_times(times, *, require_nonnegative: bool) -> np.ndarray:
    t = np.asarray(times, dtype=np.float64).reshape(-1)
    if t.size == 0:
        raise ValueError("time grid is empty")
    if not np.all(np.isfinite(t)):
        raise ValueError("time grid contains non-finite entries")
    if require_nonnegative and t[0] < 0.0:
        raise ValueError(f"times must be nonnegative, got {t[0]!r}")
    if t.size > 1 and not np.all(np.diff(t) > 0.0):
        raise ValueError("times must be strictly ascending")
    return t


def entropy_series(
    h: ProductHamiltonian,
    state: ProductState,
    alphas,
    times,
    *,
    capture_spectra: bool = False,
) -> list[EntropySeries]:
    """Exact-evolution entropy curves for several orders at once.

    Parameters
    ----------
    h, state : ProductHamiltonian, ProductState
        The system and its product initial condition.
    alphas : sequence of int
        Renyi orders >= 2, plus optionally ``VON_NEUMANN_ALPHA`` (= 1) for
        the von Neumann branch. One series per entry, same order.
    times : array_like
        Strictly ascending, nonnegative time grid.
    capture_spectra : bool
        Attach the per-time Schmidt probabilities to each series.

    Returns
    -------
    list of EntropySeries
    """
    alphas = list(alphas)
    if len(alphas) == 0:
        raise ValueError("alphas is empty")
    checked = [_check_alpha(a, 1) for a in alphas]
    t = _check_times(times, require_nonnegative=True)
    per_time = Propagator(h, state).probabilities(t)
    spectra = per_time if capture_spectra else None
    series = []
    for alpha in checked:
        if alpha == VON_NEUMANN_ALPHA:
            values = np.array([von_neumann_from_probabilities(p) for p in per_time])
        else:
            values = np.array([renyi_from_probabilities(p, alpha) for p in per_time])
        series.append(
            EntropySeries(alpha=alpha, times=t.copy(), values=values, spectra=spectra)
        )
    return series


def stencil_curvatures(propagator: Propagator, kernels, centers, widths) -> np.ndarray:
    """5-point central second derivatives of entropies along exact dynamics.

    Each kernel maps a Schmidt spectrum to an entropy. Row k of the result
    holds d^2/dt^2 of ``kernels[k]`` at each center, sampled at
    center + (-2, -1, 0, 1, 2) * width with that center's width. All
    kernels share one batched propagation. Raises :class:`NumericalError`
    when a sampled entropy is not finite.
    """
    centers = np.asarray(centers, dtype=np.float64).reshape(-1)
    widths = np.broadcast_to(np.asarray(widths, dtype=np.float64), centers.shape)
    probs = propagator.probabilities(centers[:, None] + np.outer(widths, _STENCIL_OFFSETS))
    out = np.empty((len(kernels), centers.size))
    for k, kernel in enumerate(kernels):
        values = np.array([kernel(p) for p in probs]).reshape(centers.size, -1)
        if not np.all(np.isfinite(values)):
            raise NumericalError(
                f"finite-difference stencil at t = {centers!r}, widths {widths!r} "
                f"produced non-finite entropies {values!r}"
            )
        out[k] = values @ _STENCIL_WEIGHTS / (12.0 * widths * widths)
    return out


def von_neumann_curvature_probe(
    h: ProductHamiltonian,
    state: ProductState,
    times,
    *,
    stencil_fraction: float = 20.0,
    propagator: Propagator | None = None,
    report: TimescaleReport | None = None,
) -> list[tuple[float, float]]:
    """Second derivative of the von Neumann entropy at short positive times.

    Unlike the Renyi orders, the von Neumann entropy has no finite initial
    curvature for a pure product start: d^2 S/dt^2 grows like
    -4 * t_ent_inv_sq * ln t as t -> 0+. This probe measures the curvature
    at each requested time with a 5-point central stencil of width
    t / stencil_fraction, returning (t, estimate) pairs for a caller-side
    fit of a + b ln t.

    ``times`` must be strictly positive and strictly descending (largest
    first, walking toward the divergence). A stencil narrower than 1e-7 of
    the entanglement timescale is rejected as numerically meaningless.
    A caller that already holds the :class:`Propagator` or the
    :class:`TimescaleReport` of this ``h`` and ``state`` passes them in, so
    neither the eigendecomposition nor the covariance sum runs twice.
    """
    t = np.asarray(times, dtype=np.float64).reshape(-1)
    if t.size == 0:
        raise ValueError("probe time list is empty")
    if not np.all(np.isfinite(t)) or t[-1] <= 0.0:
        raise ValueError("probe times must be strictly positive and finite")
    if t.size > 1 and not np.all(np.diff(t) < 0.0):
        raise ValueError("probe times must be strictly descending")
    fraction = float(stencil_fraction)
    if not math.isfinite(fraction) or fraction <= 2.0:
        raise ValueError(
            f"stencil_fraction must exceed 2 so that t - 2h stays positive, got {fraction!r}"
        )
    if report is None:
        report = entanglement_timescale(h, state)
    if not report.degenerate:
        narrowest = float(t.min()) / fraction
        floor = _STENCIL_FLOOR * report.t_ent
        if narrowest < floor:
            raise NumericalError(
                f"stencil width {narrowest:.3e} is below the stability floor "
                f"{floor:.3e} (1e-7 of the entanglement timescale)"
            )
    if propagator is None:
        propagator = Propagator(h, state)
    (curvatures,) = stencil_curvatures(
        propagator, [von_neumann_from_probabilities], t, t / fraction
    )
    return [(float(ti), float(c)) for ti, c in zip(t, curvatures)]
