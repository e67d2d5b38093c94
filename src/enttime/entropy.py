"""Renyi and von Neumann entropies along exact dynamics, and their checks.

Every entropy here is a function of a Schmidt spectrum: the squared singular
values of the pure-state amplitude matrix, which
:class:`~enttime.propagator.Propagator` gives for a whole time grid. The
``*_from_probabilities`` kernels take a stack of spectra along the last axis
(one call per order for a whole time grid) and never form the largest
probability explicitly, which keeps entropies of nearly-product states
accurate down to 1e-30; a naive log-of-sum loses them below ~1e-15. Time
series, the 5-point stencil, the von Neumann curvature probe and
:func:`verify_growth`, which holds the measured initial growth against the
covariance-sum prediction, are all built on that one route.

Entropies are in nats. alpha = 1 marks the von Neumann branch in
:func:`entropy_series` and :func:`verify_growth`; the Renyi-only entry points
reject it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NumericalError, StateError
from .hamiltonian import ProductHamiltonian, ProductState
from .propagator import Propagator
from .timescale import (
    TimescaleReport,
    check_alpha,
    entanglement_timescale,
    predicted_curvature,
)
from .tolerances import PSD_TOL, TRACE_TOL

__all__ = [
    "VON_NEUMANN_ALPHA",
    "EntropySeries",
    "VerificationRow",
    "renyi_from_probabilities",
    "von_neumann_from_probabilities",
    "entropy_series",
    "stencil_curvatures",
    "von_neumann_curvature_probe",
    "verify_growth",
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

# Stencil width of verify_growth as a fraction of the entanglement timescale;
# small enough for the O(h^4) truncation error to sit far below a 1% check,
# wide enough to stay clear of roundoff.
_VERIFY_STENCIL_DIVISOR = 50.0

# Cap on that width h in units of 1/Omega, Omega the spread of the
# eigenvalues of the reached blocks, since scales absent from T_ent still
# bend S_alpha. The truncation error over the curvature is
# (h^4 / 90) |S^(6)| / |S''| <= K (h Omega)^4 / 90 with |S^(6)| <= K Omega^4 |S''|;
# K = 14 for S_2 of one two-level oscillation, -ln((3 + cos(2 Omega t)) / 4),
# the largest seen. Holding that to 1e-3 of the default tolerance_rel 0.01
# gives h Omega <= (90 * 1e-5 / 14)^(1/4) = 0.0895.
_VERIFY_STENCIL_PHASE = (90.0 * 1e-3 * 0.01 / 14.0) ** 0.25

# Stencil width of von_neumann_curvature_probe as a fraction of each probe
# time t; above 2, so that t - 2h stays positive.
_PROBE_STENCIL_DIVISOR = 20.0

# Dimensionless onset-fit window for degenerate systems, in units of the
# inverse square root of the covariance scale.
_ONSET_WINDOW = (1e-3, 1e-1)
_ONSET_POINTS = 13
_ONSET_SLOPE = 6.0
_ONSET_SLOPE_BAND = 0.1


def _libm(fn):
    """``fn`` from :mod:`math` applied elementwise, as float64.

    numpy's SIMD expm1 and log1p differ from the C library's in the last bit
    on some CPUs; through ``math`` the stacked kernels give the bits of a
    one-spectrum evaluation with the C library, whatever the host's SIMD.
    """
    elementwise = np.frompyfunc(fn, 1, 1)
    return lambda x: np.asarray(elementwise(x), dtype=np.float64)


_expm1 = _libm(math.expm1)
_log1p = _libm(math.log1p)


def _prepared_tail(probs) -> np.ndarray:
    """Sorted sub-leading probabilities of each spectrum (the last axis), over its total.

    The result has the shape (..., k - 1). The leading probability is
    carried implicitly as 1 - sum(tail), which is what protects the kernels
    from cancellation when the state is nearly pure.
    """
    q = np.atleast_1d(np.asarray(probs, dtype=np.float64))
    if q.size == 0:
        raise StateError("probability vector is empty")
    if not np.all(np.isfinite(q)):
        raise StateError("probability vector contains non-finite entries")
    low = float(q.min())
    if low < PSD_TOL:
        raise StateError(f"probability {low:.3e} is negative beyond roundoff")
    q = np.sort(np.clip(q, 0.0, None), axis=-1)[..., ::-1]
    total = q.sum(axis=-1)
    off = np.abs(total - 1.0)
    if off.max() > TRACE_TOL:
        worst = float(total.flat[np.argmax(off)])
        raise StateError(f"probabilities sum to {worst!r}, expected 1 within {TRACE_TOL}")
    return q[..., 1:] / total[..., None]


def renyi_from_probabilities(probs, alpha: int):
    """Order-alpha Renyi entropy ln(sum p^alpha) / (1 - alpha) of each spectrum.

    One spectrum gives a float, a stack of shape (..., k) an array of shape
    (...). Computed through the purity defect sum p^alpha - 1 so values of
    order 1e-30 survive; a pure spectrum gives exactly +0.0.
    """
    alpha = check_alpha(alpha, 2)
    tail = _prepared_tail(probs)
    eps = tail.sum(axis=-1)
    purity_defect = _expm1(alpha * _log1p(-eps)) + np.sum(tail**alpha, axis=-1)
    values = _log1p(purity_defect) / (1.0 - alpha) + 0.0
    return float(values) if values.ndim == 0 else values


def von_neumann_from_probabilities(probs):
    """Shannon entropy -sum p ln p, in nats, per spectrum like the Renyi kernel."""
    tail = _prepared_tail(probs)
    eps = tail.sum(axis=-1)
    log_tail = np.log(np.where(tail > 0.0, tail, 1.0))
    values = -(1.0 - eps) * _log1p(-eps) - np.sum(tail * log_tail, axis=-1) + 0.0
    return float(values) if values.ndim == 0 else values


def _entropy(probs, alpha: int):
    """Order-``alpha`` entropy of each spectrum; ``VON_NEUMANN_ALPHA`` is von Neumann."""
    if alpha == VON_NEUMANN_ALPHA:
        return von_neumann_from_probabilities(probs)
    return renyi_from_probabilities(probs, alpha)


@dataclass(frozen=True, eq=False)
class EntropySeries:
    """Entropy values of one order along a time grid.

    ``alpha`` is the Renyi order, with ``VON_NEUMANN_ALPHA`` (= 1) marking
    the von Neumann branch. ``spectra`` carries the Schmidt probabilities
    per time, shape (len(times), min(dim_a, dim_b)), descending within each
    row; every series of one :func:`entropy_series` call shares it.
    """

    alpha: int
    times: np.ndarray
    values: np.ndarray
    spectra: np.ndarray

    def __post_init__(self) -> None:
        self.times.setflags(write=False)
        self.values.setflags(write=False)
        self.spectra.setflags(write=False)


def _check_times(times) -> np.ndarray:
    t = np.asarray(times, dtype=np.float64).reshape(-1)
    if t.size == 0:
        raise ValueError("time grid is empty")
    if not np.all(np.isfinite(t)):
        raise ValueError("time grid contains non-finite entries")
    if t[0] < 0.0:
        raise ValueError(f"times must be nonnegative, got {t[0]!r}")
    if t.size > 1 and not np.all(np.diff(t) > 0.0):
        raise ValueError("times must be strictly ascending")
    return t


def entropy_series(
    h: ProductHamiltonian,
    state: ProductState,
    alphas,
    times,
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

    Returns
    -------
    list of EntropySeries
    """
    alphas = list(alphas)
    if len(alphas) == 0:
        raise ValueError("alphas is empty")
    checked = [check_alpha(a, VON_NEUMANN_ALPHA) for a in alphas]
    t = _check_times(times)
    spectra = Propagator(h, state).probabilities(t)
    return [
        EntropySeries(alpha, t.copy(), _entropy(spectra, alpha), spectra) for alpha in checked
    ]


def stencil_curvatures(propagator: Propagator, alphas, centers, widths) -> np.ndarray:
    """5-point central second derivatives of entropies along exact dynamics.

    Row k of the result holds d^2/dt^2 of the order-``alphas[k]`` entropy
    (``VON_NEUMANN_ALPHA`` for von Neumann) at each center, sampled at
    center + (-2, -1, 0, 1, 2) * width with that center's width. All
    orders share one batched propagation. Raises :class:`NumericalError`
    when a sampled entropy is not finite.
    """
    centers = np.asarray(centers, dtype=np.float64).reshape(-1)
    widths = np.broadcast_to(np.asarray(widths, dtype=np.float64), centers.shape)
    probs = propagator.probabilities(centers[:, None] + np.outer(widths, _STENCIL_OFFSETS))
    probs = probs.reshape(centers.size, _STENCIL_OFFSETS.size, -1)
    values = np.array([_entropy(probs, alpha) for alpha in alphas])
    if not np.all(np.isfinite(values)):
        raise NumericalError(
            f"finite-difference stencil at t = {centers!r}, widths {widths!r} "
            f"produced non-finite entropies {values!r}"
        )
    return values @ _STENCIL_WEIGHTS / (12.0 * widths * widths)


def von_neumann_curvature_probe(
    propagator: Propagator, report: TimescaleReport, times
) -> list[tuple[float, float]]:
    """Second derivative of the von Neumann entropy at short positive times.

    Unlike the Renyi orders, the von Neumann entropy has no finite initial
    curvature for a pure product start: d^2 S/dt^2 grows like
    -4 * t_ent_inv_sq * ln t as t -> 0+. This probe measures the curvature
    at each requested time with a 5-point central stencil of width t / 20,
    returning (t, estimate) pairs for a caller-side fit of a + b ln t.

    ``times`` must be strictly positive and strictly descending (largest
    first, walking toward the divergence). A stencil narrower than 1e-7 of
    the entanglement timescale is rejected as numerically meaningless.
    ``propagator`` and ``report`` belong to the same system and start; the
    report's t_ent sets that floor.
    """
    t = np.asarray(times, dtype=np.float64).reshape(-1)
    if t.size == 0:
        raise ValueError("probe time list is empty")
    if not np.all(np.isfinite(t)) or t[-1] <= 0.0:
        raise ValueError("probe times must be strictly positive and finite")
    if t.size > 1 and not np.all(np.diff(t) < 0.0):
        raise ValueError("probe times must be strictly descending")
    if not report.degenerate:
        narrowest = float(t.min()) / _PROBE_STENCIL_DIVISOR
        floor = _STENCIL_FLOOR * report.t_ent
        if narrowest < floor:
            raise NumericalError(
                f"stencil width {narrowest:.3e} is below the stability floor "
                f"{floor:.3e} (1e-7 of the entanglement timescale)"
            )
    (curvatures,) = stencil_curvatures(
        propagator, [VON_NEUMANN_ALPHA], t, t / _PROBE_STENCIL_DIVISOR
    )
    return [(float(ti), float(c)) for ti, c in zip(t, curvatures)]


@dataclass
class VerificationRow:
    """One check of :func:`verify_growth`: a prediction against a measurement.

    ``status`` is PASS or FAIL for a checked row, INFO for a fit reported
    without a verdict, and SKIP for a check the start gives nothing to
    measure.
    """

    label: str
    predicted: float | None
    measured: float | None
    rel_error: float | None
    status: str
    detail: str = ""


def _linear_fit(x: np.ndarray, y: np.ndarray) -> tuple[float, float, float]:
    """Least-squares slope, intercept and R^2 of y against x."""
    if x.size < 2:
        raise NumericalError("fit needs at least two points")
    try:
        slope, intercept = np.polyfit(x, y, 1)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"least-squares fit failed to converge: {exc}") from exc
    residual = y - (slope * x + intercept)
    total = y - y.mean()
    denom = float(total @ total)
    r_squared = 1.0 if denom == 0.0 else 1.0 - float(residual @ residual) / denom
    if not (math.isfinite(slope) and math.isfinite(intercept) and math.isfinite(r_squared)):
        raise NumericalError(
            f"unstable fit: slope {slope!r}, intercept {intercept!r}, R^2 {r_squared!r}"
        )
    return float(slope), float(intercept), r_squared


def verify_growth(
    h: ProductHamiltonian,
    state: ProductState,
    alphas,
    tolerance_rel: float = 0.01,
) -> tuple[TimescaleReport, list[VerificationRow]]:
    """Measure the initial entropy growth and check the predicted universal form.

    Non-degenerate systems get one row per Renyi order in ``alphas``:
    predicted curvature (2 alpha / (alpha - 1)) * t_ent_inv_sq against a
    5-point finite difference around t = 0 of width t_ent / 50, or
    0.0895 / Omega when that is narrower (Omega the spread of the
    eigenvalues of the blocks the start reaches), PASS/FAIL at
    ``tolerance_rel``. ``VON_NEUMANN_ALPHA`` (= 1) adds an informational
    row fitting the von Neumann curvature to a + b ln t. Degenerate systems
    instead fit the log-log onset slope of S_2, which the product start pins
    at 6.

    One :class:`Propagator` and one :class:`TimescaleReport` serve every
    row; the report comes back with the rows. The propagator is built
    first, so a non-Hermitian H raises :class:`ModelError` before anything
    is measured. Raises ValueError when ``alphas`` is empty, and
    :class:`NumericalError` when the start never entangles (covariance
    scale exactly zero) or a fit breaks down.
    """
    if not math.isfinite(tolerance_rel) or tolerance_rel <= 0.0:
        raise ValueError(f"tolerance_rel must be positive, got {tolerance_rel!r}")
    orders = [check_alpha(a, VON_NEUMANN_ALPHA) for a in alphas]
    if not orders:
        raise ValueError("alphas is empty")
    renyi_orders = [a for a in orders if a != VON_NEUMANN_ALPHA]
    wants_vn = VON_NEUMANN_ALPHA in orders
    propagator = Propagator(h, state)
    report = entanglement_timescale(h, state)
    rows: list[VerificationRow] = []

    if report.degenerate:
        if report.scale <= 0.0:
            raise NumericalError(
                "nothing to verify: covariance scale is exactly zero, the state "
                "never entangles under this Hamiltonian"
            )
        times = np.geomspace(*_ONSET_WINDOW, _ONSET_POINTS) * report.scale**-0.5
        values = renyi_from_probabilities(propagator.probabilities(times), 2)
        if np.any(values <= 0.0):
            raise NumericalError(
                "onset-slope fit impossible: S_2 not resolvable above the "
                f"floating-point floor on the window {times[0]!r}..{times[-1]!r}"
            )
        slope, _, r_squared = _linear_fit(np.log(times), np.log(values))
        status = "PASS" if abs(slope - _ONSET_SLOPE) <= _ONSET_SLOPE_BAND else "FAIL"
        rows.append(
            VerificationRow(
                label="onset-slope(S_2)",
                predicted=_ONSET_SLOPE,
                measured=slope,
                rel_error=abs(slope - _ONSET_SLOPE) / _ONSET_SLOPE,
                status=status,
                detail=f"log-log fit over {len(times)} points, R^2 = {r_squared:.6f}",
            )
        )
        for alpha in renyi_orders:
            rows.append(
                VerificationRow(
                    label=f"curvature(alpha={alpha})",
                    predicted=0.0,
                    measured=None,
                    rel_error=None,
                    status="SKIP",
                    detail="degenerate timescale: quadratic coefficient is zero",
                )
            )
        if wants_vn:
            rows.append(
                VerificationRow(
                    label="vn-divergence",
                    predicted=None,
                    measured=None,
                    rel_error=None,
                    status="SKIP",
                    detail="degenerate timescale: no logarithmic divergence",
                )
            )
        return report, rows

    if renyi_orders:
        width = report.t_ent / _VERIFY_STENCIL_DIVISOR
        detail = f"5-point stencil, width t_ent/{_VERIFY_STENCIL_DIVISOR:g}"
        levels = np.concatenate([block.eigenvalues for block in propagator.blocks])
        omega = float(levels.max() - levels.min())
        if omega * width > _VERIFY_STENCIL_PHASE:
            width = _VERIFY_STENCIL_PHASE / omega
            detail += (
                f" capped at {_VERIFY_STENCIL_PHASE:.3g}/Omega = {width:.3e}, Omega = {omega:.6g}"
            )
        measured_all = stencil_curvatures(propagator, renyi_orders, [0.0], width)
        for alpha, row in zip(renyi_orders, measured_all):
            prediction = predicted_curvature(report, alpha)
            measured = float(row[0])
            rel = abs(measured - prediction.curvature) / abs(prediction.curvature)
            rows.append(
                VerificationRow(
                    label=f"curvature(alpha={alpha})",
                    predicted=prediction.curvature,
                    measured=measured,
                    rel_error=rel,
                    status="PASS" if rel <= tolerance_rel else "FAIL",
                    detail=detail,
                )
            )
    if wants_vn:
        pairs = von_neumann_curvature_probe(
            propagator, report, report.t_ent * np.array([1e-1, 1e-2, 1e-3, 1e-4])
        )
        ts, curvatures = np.array(pairs).T
        slope, intercept, r_squared = _linear_fit(np.log(ts), curvatures)
        rows.append(
            VerificationRow(
                label="vn-divergence",
                predicted=-4.0 * report.t_ent_inv_sq,
                measured=slope,
                rel_error=abs(slope + 4.0 * report.t_ent_inv_sq)
                / (4.0 * report.t_ent_inv_sq),
                status="INFO",
                detail=(
                    f"curvature ~ a + b ln t: a = {intercept!r}, b = {slope!r}, "
                    f"R^2 = {r_squared:.6f}"
                ),
            )
        )
    return report, rows
