"""The model-independent entanglement timescale and the curvature it predicts.

For H = sum_n A_n (x) B_n acting on a product state, the squared inverse
timescale is the double sum over term pairs of the product of connected
correlators,

    t_ent_inv_sq = sum_{n,m} (<A_n A_m> - <A_n><A_m>) (<B_n B_m> - <B_n><B_m>),

with every expectation taken in the respective initial factor state. Each
Renyi entropy of order alpha >= 2 then starts out as

    S_alpha(t) = (alpha / (alpha - 1)) * t_ent_inv_sq * t**2 + O(t**3),

so the initial curvature is (2 alpha / (alpha - 1)) * t_ent_inv_sq, one
number for the whole family; :func:`predicted_curvature` gives it per order
as the dict that ``enttime timescale`` writes. Nothing here evolves the
state or forms the dense H.
"""

from __future__ import annotations

import cmath
import math

import numpy as np

from .errors import NumericalError
from .hamiltonian import Factor, ProductHamiltonian, ProductState, check_state_dims
from .tolerances import DEGEN_TOL_REL, IMAG_TOL

__all__ = [
    "entanglement_timescale",
    "predicted_curvature",
    "check_alpha",
]


def check_alpha(alpha, minimum: int) -> int:
    """``alpha`` as an int, if it is an integer entropy order >= ``minimum``.

    Raises ValueError otherwise. Renyi-only entry points ask for 2; the
    callers that take order 1 as the von Neumann branch ask for 1.
    """
    if isinstance(alpha, bool) or not isinstance(alpha, (int, np.integer)):
        raise ValueError(f"alpha must be an integer >= {minimum}, got {alpha!r}")
    if alpha < minimum:
        hint = ""
        if minimum > 1:
            hint = (
                "; the alpha -> 1 limit diverges logarithmically, "
                "see von_neumann_curvature_probe"
            )
        raise ValueError(f"alpha must be >= {minimum}, got {alpha}{hint}")
    return int(alpha)


def _covariance_matrix(factors: list[Factor], psi: np.ndarray) -> np.ndarray:
    """Connected-correlator matrix G[n, m] = <F_n F_m> - <F_n><F_m>.

    <F_n F_m> is the overlap of F_n^dag psi with F_m psi. The bra
    (F_n^dag psi)^dag is the row vector psi^dag F_n, so no adjoint factor is
    formed: each factor's nonzeros are read once for F psi and once for
    psi^dag F.
    """
    applied = np.stack([f.matvec(psi) for f in factors])
    bra = psi.conj()
    bras = np.stack([f.vecmat(bra) for f in factors])
    second = np.einsum("nd,md->nm", bras, applied)
    means = np.array([np.vdot(psi, row) for row in applied])
    return second - np.outer(means, means)


def _norm(x: np.ndarray) -> float:
    """||x||_F, taken over x / max|x| only where squares of its finite entries overflow."""
    norm = float(np.linalg.norm(x))
    if math.isinf(norm) and np.all(np.isfinite(x)):
        peak = float(np.max(np.abs(x)))
        norm = peak * float(np.linalg.norm(x / peak))
    return norm


def entanglement_timescale(h: ProductHamiltonian, state: ProductState) -> dict:
    """Evaluate the covariance double sum for a product Hamiltonian and state.

    Parameters
    ----------
    h : ProductHamiltonian
        Term list whose assembled total is Hermitian.
    state : ProductState
        Initial product state; expectations use its two factors separately.

    Returns
    -------
    dict
        ``t_ent_inv_sq``, ``t_ent``, ``imag_residual``, ``scale``,
        ``cov_a``, ``cov_b`` and ``degenerate``, in that order: the
        ``timescale`` block that ``enttime timescale`` writes, then the flag
        it writes at the top level. ``cov_a[n, m]`` holds
        <A_n A_m> - <A_n><A_m> in the A factor state and ``cov_b`` the same
        for the B factors, as read-only arrays. They are reported exactly as
        computed; they are Hermitian under the permutation that swaps
        adjoint-paired terms (not entrywise), which is what forces the total
        sum real. ``scale`` is the Frobenius-norm product used to classify
        degeneracy, ``imag_residual`` the discarded imaginary part, and
        ``t_ent`` is ``t_ent_inv_sq ** -0.5``, or None when degenerate.

    Raises
    ------
    DimensionError
        When the state dimensions do not match the Hamiltonian.
    NumericalError
        When the double sum keeps an imaginary part beyond ``IMAG_TOL``
        relative to the covariance scale (the symptom of a non-Hermitian
        total slipping through), lands more negative than roundoff allows,
        or is not finite (terms too large for double precision).
    """
    check_state_dims(h, state)
    with np.errstate(over="ignore", invalid="ignore"):  # caught as a non-finite sum below
        cov_a = _covariance_matrix([a for a, _ in h.terms], state.psi_a)
        cov_b = _covariance_matrix([b for _, b in h.terms], state.psi_b)
        total = complex(np.sum(cov_a * cov_b))
        scale = _norm(cov_a) * _norm(cov_b)
    if not (cmath.isfinite(total) and math.isfinite(scale)):
        raise NumericalError(
            f"covariance double sum {total!r} or its scale {scale!r} is not finite; "
            "the terms of H are too large for double precision"
        )

    # each test below is written to raise, not pass, if a NaN reaches it
    imag_residual = abs(total.imag)
    if not imag_residual <= IMAG_TOL * max(1.0, scale):
        raise NumericalError(
            f"covariance double sum has imaginary residual {imag_residual:.3e} "
            f"(scale {scale:.3e}); the assembled Hamiltonian is likely not Hermitian"
        )
    t2 = total.real
    if not t2 >= -DEGEN_TOL_REL * max(1.0, scale):
        raise NumericalError(
            f"covariance double sum is negative ({t2:.3e}) beyond roundoff "
            f"for scale {scale:.3e}"
        )
    t2 = max(t2, 0.0)
    degenerate = t2 <= DEGEN_TOL_REL * scale
    cov_a.setflags(write=False)
    cov_b.setflags(write=False)
    return {"t_ent_inv_sq": t2, "t_ent": None if degenerate else t2 ** -0.5,
            "imag_residual": imag_residual, "scale": scale, "cov_a": cov_a, "cov_b": cov_b,
            "degenerate": degenerate}


def predicted_curvature(report: dict, alpha: int) -> dict:
    """Initial entropy curvature (2 alpha / (alpha - 1)) * t_ent_inv_sq.

    Returns ``{"alpha", "coefficient", "curvature"}``: the order, its
    factor 2 alpha / (alpha - 1) and the predicted d^2 S_alpha / dt^2 at
    t = 0. ``alpha`` must be an integer >= 2. The alpha -> 1 (von Neumann)
    limit has no finite curvature; use
    :func:`enttime.entropy.von_neumann_curvature_probe` for its
    logarithmic growth instead.
    """
    alpha = check_alpha(alpha, 2)
    coefficient = 2.0 * alpha / (alpha - 1.0)
    curvature = coefficient * report["t_ent_inv_sq"]
    return {"alpha": alpha, "coefficient": coefficient, "curvature": curvature}

