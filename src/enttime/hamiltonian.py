"""Product-form Hamiltonians H = sum_n A_n (x) B_n and product states.

The decomposition into local factor pairs is the input format of the whole
package: the timescale formula consumes the factors directly, and the exact
dynamics builds the blocks of H its start reaches, each through
:func:`block_matrix`, the one place where entries of H are formed.
Individual factors need not be Hermitian (ladder operators pair up with
their adjoints across terms); only the total must be. :func:`check_hermitian`
first bounds ||H - H^dag||_F from the factors alone (realignment: Van Loan
and Pitsianis, "Approximation with Kronecker products", 1993) and accepts
when that bound proves the entrywise test would pass; otherwise H is checked
entry by entry in row slabs, never holding H, H^dag or their difference in
full.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DimensionError, ModelError, StateError
from .linalg import as_complex_matrix
from .tolerances import HERM_TOL, MAX_DIM, NORM_TOL

__all__ = [
    "ProductHamiltonian",
    "ProductState",
    "assemble",
    "block_matrix",
    "check_hermitian",
    "product_state_vector",
    "require_dense_dim",
]

# Entries of H held at once while it is checked entry by entry (4 MB).
_SLAB_ENTRIES = 1 << 18


@dataclass(frozen=True, eq=False)
class ProductHamiltonian:
    """Hamiltonian given as a sum of Kronecker-product terms.

    ``terms`` is a sequence of (A_n, B_n) pairs with A_n acting on the
    dim_a-dimensional subsystem and B_n on the dim_b-dimensional one.
    Construction validates shapes and finiteness; Hermiticity of the total
    is checked by :func:`check_hermitian`, because the factors themselves
    are generally not Hermitian.

    The stored factors are read-only. A read-only complex128 array that owns
    its memory is taken over as it is (the model builders hand theirs over
    this way); any other factor is copied, so a caller who keeps a writeable
    array, or the writeable base of a read-only view, cannot change ``terms``.

    ``nonzeros`` holds, for each (A_n, B_n), one boolean mask per factor,
    True at its exact nonzeros, computed on first use. It is the one place
    where an entry counts as zero: only an exact zero does, never a small
    value. A mask takes one byte per entry of its factor, a sixteenth of
    the factor, however dense the factor is.
    """

    dim_a: int
    dim_b: int
    terms: tuple[tuple[np.ndarray, np.ndarray], ...]

    def __post_init__(self) -> None:
        if self.dim_a < 1 or self.dim_b < 1:
            raise DimensionError(
                f"subsystem dimensions must be positive, got {self.dim_a}, {self.dim_b}"
            )
        if len(self.terms) == 0:
            raise ModelError("a product Hamiltonian needs at least one term")
        frozen = []
        for k, pair in enumerate(self.terms):
            if len(pair) != 2:
                raise ModelError(f"term {k} is not an (A, B) pair")
            a = as_complex_matrix(pair[0], name=f"term {k} factor A")
            b = as_complex_matrix(pair[1], name=f"term {k} factor B")
            if a.shape != (self.dim_a, self.dim_a):
                raise DimensionError(
                    f"term {k} factor A has shape {a.shape!r}, expected "
                    f"({self.dim_a}, {self.dim_a})"
                )
            if b.shape != (self.dim_b, self.dim_b):
                raise DimensionError(
                    f"term {k} factor B has shape {b.shape!r}, expected "
                    f"({self.dim_b}, {self.dim_b})"
                )
            frozen.append((_frozen(a), _frozen(b)))
        object.__setattr__(self, "terms", tuple(frozen))

    @cached_property
    def nonzeros(self) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
        """Read-only masks of the exact nonzeros of each (A_n, B_n)."""
        return tuple((_nonzero_mask(a), _nonzero_mask(b)) for a, b in self.terms)

    @property
    def n_terms(self) -> int:
        return len(self.terms)

    @property
    def dim(self) -> int:
        return self.dim_a * self.dim_b


def _nonzero_mask(m: np.ndarray) -> np.ndarray:
    mask = m != 0
    mask.setflags(write=False)
    return mask


def _frozen(m: np.ndarray) -> np.ndarray:
    """``m`` itself if it is read-only and owns its memory, else a read-only copy."""
    if m.flags.writeable or m.base is not None:
        m = m.copy()
        m.setflags(write=False)
    return m


@dataclass(frozen=True, eq=False)
class ProductState:
    """Normalized product initial state psi_a (x) psi_b."""

    psi_a: np.ndarray
    psi_b: np.ndarray

    def __post_init__(self) -> None:
        for label in ("psi_a", "psi_b"):
            vec = np.array(getattr(self, label), dtype=np.complex128, copy=True).reshape(-1)
            if vec.shape[0] < 1:
                raise DimensionError(f"{label} must have at least one amplitude")
            if not np.all(np.isfinite(vec)):
                raise StateError(f"{label} contains non-finite entries")
            norm = float(np.linalg.norm(vec))
            if abs(norm - 1.0) > NORM_TOL:
                raise StateError(
                    f"{label} norm {norm!r} deviates from 1 by more than {NORM_TOL}"
                )
            vec.setflags(write=False)
            object.__setattr__(self, label, vec)

    @property
    def dim_a(self) -> int:
        return self.psi_a.shape[0]

    @property
    def dim_b(self) -> int:
        return self.psi_b.shape[0]


def require_dense_dim(dim_a: int, dim_b: int) -> int:
    """The composite dimension dim_a * dim_b, if the dense kernel may work on it.

    Raises :class:`DimensionError` when it exceeds ``MAX_DIM``; callers run
    it before anything of that size, or any factor of such a model, exists.
    """
    dim = dim_a * dim_b
    if dim > MAX_DIM:
        raise DimensionError(
            f"composite dimension {dim} = {dim_a} * {dim_b} exceeds the "
            f"configured maximum {MAX_DIM}"
        )
    return dim


def _row_slabs(h: ProductHamiltonian):
    """Consecutive row slabs of H and of H^dag, never holding either in full.

    Yields (first row, H[rows], H^dag[rows]). Each slab lies within one row
    i of the A factors, where H[(i, l), :] = sum_n kron(A_n[i, :], B_n[l, :]);
    the H^dag slab is built the same way from the adjoint factors.
    """
    d = require_dense_dim(h.dim_a, h.dim_b)
    # A term with an all-zero factor adds exact zeros; rows of A that are
    # all zero are skipped below for the same reason.
    terms = [(a, b) for a, b in h.terms if a.any() and b.any()]
    adjoints = [(a.conj().T, b.conj().T) for a, b in terms]
    step = max(1, min(h.dim_b, _SLAB_ENTRIES // d))
    for i in range(h.dim_a):
        for l0 in range(0, h.dim_b, step):
            l1 = min(l0 + step, h.dim_b)
            slabs = []
            for factors in (terms, adjoints):
                slab = np.zeros((l1 - l0, h.dim_a, h.dim_b), dtype=np.complex128)
                for a, b in factors:
                    if a[i].any():
                        slab += a[i][None, :, None] * b[l0:l1][:, None, :]
                slabs.append(slab.reshape(l1 - l0, d))
            yield i * h.dim_b + l0, slabs[0], slabs[1]


def _scan_hermitian(h: ProductHamiltonian) -> None:
    """Check every entry of H against H^dag."""
    worst, where, peak = 0.0, (0, 0), 0.0
    for r0, slab, adjoint in _row_slabs(h):
        defect = np.abs(slab - adjoint)
        k = int(np.argmax(defect))
        if defect.flat[k] > worst:
            worst = float(defect.flat[k])
            where = divmod(r0 * h.dim + k, h.dim)
        peak = max(peak, float(np.max(np.abs(slab))))
    tol = HERM_TOL * max(1.0, peak)
    if worst > tol:
        i, j = where
        raise ModelError(
            f"assembled Hamiltonian is not Hermitian: worst off-diagonal residual "
            f"{worst:.3e} at entry ({i}, {j}) exceeds {tol:.3e}"
        )


def _realigned_r(factors: list[np.ndarray], masks, sign: float) -> np.ndarray:
    """R of the QR decomposition of [vec(M_1) ... vec(M_N), sign vec(M_1^dag) ...].

    Only the flat positions where some factor or its adjoint is nonzero are
    stacked, in ascending order (``masks`` holds each factor's nonzero
    mask); the rows left out are zero and add nothing to R. The adjoint is
    read by index, m[j, i].conj(), without forming it.
    """
    support = np.zeros_like(masks[0])
    for mask in masks:
        support |= mask
    # flatnonzero, then divmod: np.nonzero on a 2-D mask is ten times slower
    rows, cols = np.divmod(np.flatnonzero(support | support.T), support.shape[0])
    columns = np.empty((rows.size, 2 * len(factors)), dtype=np.complex128)
    for k, m in enumerate(factors):
        columns[:, k] = m[rows, cols]
        columns[:, len(factors) + k] = sign * m[cols, rows].conj()
    return np.linalg.qr(columns, mode="r")


def _factor_norms(h: ProductHamiltonian) -> tuple[float, float]:
    """(||H - H^dag||_F, ||H||_F) from the factors, never forming H.

    H - H^dag = sum_n A_n (x) B_n - A_n^dag (x) B_n^dag. Realigned, a sum
    sum_m C_m (x) D_m becomes the matrix C D^T of the stacked columns
    vec(C_m) and vec(D_m), which has the same Frobenius norm, and with
    C = Q_C R_C and D = Q_D R_D that norm is ||R_C R_D^T||_F. The first
    n_terms columns of the same R factors hold H itself.
    """
    r_a = _realigned_r([a for a, _ in h.terms], [ma for ma, _ in h.nonzeros], -1.0)
    r_b = _realigned_r([b for _, b in h.terms], [mb for _, mb in h.nonzeros], 1.0)
    n = h.n_terms
    defect = float(np.linalg.norm(r_a @ r_b.T))
    return defect, float(np.linalg.norm(r_a[:, :n] @ r_b[:, :n].T))


def check_hermitian(h: ProductHamiltonian) -> None:
    """Verify that sum_n kron(A_n, B_n) is Hermitian without forming it.

    Accepts when the factor-level ||H - H^dag||_F is at most
    HERM_TOL * max(1, ||H||_F / d): since max|X| <= ||X||_F and
    max|H| >= ||H||_F / d, the entrywise test would then pass too.
    Otherwise it runs that test, with its ``MAX_DIM`` cap; its
    :class:`ModelError` names the worst off-diagonal residual.
    """
    defect, norm = _factor_norms(h)
    if defect <= HERM_TOL * max(1.0, norm / h.dim):
        return
    _scan_hermitian(h)


def block_matrix(h: ProductHamiltonian, indices: np.ndarray) -> np.ndarray:
    """H restricted to the ascending composite ``indices``.

    Entry (r, c) is sum_n A_n[i_r, i_c] B_n[j_r, j_c], added in term order
    from zero; rows that share an A index i are built together.
    """
    ii, jj = np.divmod(indices, h.dim_b)
    bounds = [0, *(np.flatnonzero(np.diff(ii)) + 1).tolist(), indices.size]
    block = np.zeros((indices.size, indices.size), dtype=np.complex128)
    for r0, r1 in zip(bounds[:-1], bounds[1:]):
        i, rows, cols = ii[r0], block[r0:r1], jj[r0:r1, None]
        for a, b in h.terms:
            rows += a[i, ii] * b[cols, jj]
    return block


def assemble(h: ProductHamiltonian) -> np.ndarray:
    """Dense matrix sum_n kron(A_n, B_n), verified Hermitian.

    The exact term-by-term sum, not symmetrized, after the dimension cap
    and :func:`check_hermitian`.
    """
    d = require_dense_dim(h.dim_a, h.dim_b)
    check_hermitian(h)
    return block_matrix(h, np.arange(d))


def product_state_vector(state: ProductState) -> np.ndarray:
    """Composite-space amplitudes psi_a (x) psi_b, entry i * dim_b + j = psi_a[i] psi_b[j].

    Not renormalized: its norm is the product of the factors' norms, which
    :class:`ProductState` holds within ``NORM_TOL`` of 1 each.
    """
    return np.kron(state.psi_a, state.psi_b)
