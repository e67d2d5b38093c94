"""Dense complex linear algebra kernel shared by all higher modules.

Index convention: a pure state of a bipartite system stores the amplitude of
basis ket |i>|j> at flat position i * dim_b + j, i.e. subsystem A owns the
slow (row-block) index. Kronecker products and state reshapes all assume
this ordering, and the test oracles check it.

All heavy lifting is delegated to numpy (LAPACK); this module adds the
validation and the error contract.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, NumericalError, StateError
from .tolerances import NORM_TOL, RECON_TOL

__all__ = [
    "as_complex_matrix",
    "dagger",
    "HermitianSpectrum",
    "eig_hermitian",
    "BipartitePureState",
    "propagate",
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


def dagger(m: np.ndarray) -> np.ndarray:
    """Conjugate transpose."""
    return m.conj().T


@dataclass(frozen=True, eq=False)
class HermitianSpectrum:
    """Eigendecomposition of a Hermitian matrix.

    ``eigenvalues`` are real and ascending, ``eigenvectors`` holds the
    orthonormal eigenvectors as columns, so
    ``(eigenvectors * eigenvalues) @ eigenvectors.conj().T`` reconstructs the
    matrix. Instances come out of :func:`eig_hermitian`, which enforces the
    reconstruction residual; the fields are kept read-only.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    def __post_init__(self) -> None:
        self.eigenvalues.setflags(write=False)
        self.eigenvectors.setflags(write=False)


def eig_hermitian(m) -> HermitianSpectrum:
    """Eigendecomposition of a Hermitian matrix with a reconstruction check.

    The input is symmetrized as (M + M^dag)/2 before the solve; callers are
    expected to pass matrices that are already Hermitian to working
    precision. Raises :class:`NumericalError` when LAPACK fails to converge
    or the reconstruction residual exceeds ``RECON_TOL`` relative to
    max(1, max|M|).
    """
    m = as_complex_matrix(m, name="matrix")
    if m.shape[0] != m.shape[1]:
        raise DimensionError(f"matrix must be square, got shape {m.shape!r}")
    sym = 0.5 * (m + dagger(m))
    try:
        w, v = np.linalg.eigh(sym)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"Hermitian eigensolver failed to converge: {exc}") from exc
    residual = float(np.max(np.abs((v * w) @ dagger(v) - sym)))
    tol = RECON_TOL * max(1.0, float(np.max(np.abs(sym))))
    if residual > tol:
        raise NumericalError(
            f"eigendecomposition reconstruction residual {residual:.3e} exceeds {tol:.3e}"
        )
    return HermitianSpectrum(eigenvalues=w, eigenvectors=v)


@dataclass(frozen=True, eq=False)
class BipartitePureState:
    """Pure state of an A x B system as a flat amplitude vector.

    The amplitude of |i>|j> sits at index i * dim_b + j. Construction
    validates the norm against ``NORM_TOL`` and freezes the array.
    """

    dim_a: int
    dim_b: int
    amplitudes: np.ndarray

    def __post_init__(self) -> None:
        if self.dim_a < 1 or self.dim_b < 1:
            raise DimensionError(
                f"subsystem dimensions must be positive, got {self.dim_a}, {self.dim_b}"
            )
        amps = np.array(self.amplitudes, dtype=np.complex128, copy=True).reshape(-1)
        if amps.shape[0] != self.dim_a * self.dim_b:
            raise DimensionError(
                f"amplitude vector has length {amps.shape[0]}, expected "
                f"{self.dim_a * self.dim_b} = {self.dim_a} * {self.dim_b}"
            )
        if not np.all(np.isfinite(amps)):
            raise StateError("state amplitudes contain non-finite entries")
        norm = float(np.linalg.norm(amps))
        if abs(norm - 1.0) > NORM_TOL:
            raise StateError(f"state norm {norm!r} deviates from 1 by more than {NORM_TOL}")
        amps.setflags(write=False)
        object.__setattr__(self, "amplitudes", amps)

    @property
    def dim(self) -> int:
        return self.dim_a * self.dim_b

    def amplitude_matrix(self) -> np.ndarray:
        """Amplitudes as a (dim_a, dim_b) matrix; its SVD is the Schmidt form."""
        return self.amplitudes.reshape(self.dim_a, self.dim_b)


def propagate(spectrum: HermitianSpectrum, psi0: np.ndarray, times) -> np.ndarray:
    """Amplitudes exp(-i M t) psi0 for each time, one row per time.

    Evaluated as psi0 + V diag(exp(-i w t) - 1) V^dag psi0 with the phase
    shift written through sines, so t = 0 returns psi0 exactly and the
    change of a nearly unmoved state keeps its relative accuracy. The rows
    for all times come out of one (T x dim) by (dim x dim) product.
    """
    theta = np.multiply.outer(np.asarray(times, dtype=np.float64), spectrum.eigenvalues)
    half = np.sin(0.5 * theta)
    shift = -2.0 * half * half - 1j * np.sin(theta)
    modes = (psi0.conj() @ spectrum.eigenvectors).conj()
    return psi0 + (shift * modes) @ spectrum.eigenvectors.T

