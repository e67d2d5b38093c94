"""Product-form Hamiltonians H = sum_n A_n (x) B_n and product states.

The decomposition into local factor pairs is the input format of the whole
package: the timescale formula consumes the factors directly, and the exact
dynamics builds the blocks of H its start reaches, each through
:func:`block_matrix`, the one place where entries of H are formed. Each
factor is a :class:`Factor`, its exact nonzeros in CSR form, which every
reader reads directly; entries are read only as dense rows scattered from
the CSR slices (:meth:`Factor.rows`). A factor's adjoint is formed once,
on first use, and kept. Individual factors need not be Hermitian (ladder
operators pair up with their adjoints across terms); only the total must
be. :attr:`ProductHamiltonian.paired` finds, once per Hamiltonian, the
terms that are self-adjoint or matched one to one with an exact adjoint
partner, and :func:`check_hermitian` accepts at once when every term is,
as H - H^dag is then exactly 0. Otherwise it bounds ||H - H^dag||_F from
the factors alone (realignment: Van Loan and Pitsianis, "Approximation
with Kronecker products", 1993) and accepts when that bound proves the
entrywise test would pass; failing that, H and H^dag are compared entry
by entry in row slabs, each from :func:`block_matrix`, never holding H,
H^dag or their difference in full.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DimensionError, ModelError, StateError
from .tolerances import HERM_TOL, MAX_DIM, NORM_TOL

__all__ = [
    "Factor",
    "ProductHamiltonian",
    "ProductState",
    "assemble",
    "block_matrix",
    "check_hermitian",
    "check_state_dims",
    "product_state_vector",
    "require_dense_dim",
]

# Entries of H held at once while it is checked entry by entry (4 MB).
_SLAB_ENTRIES = 1 << 18


@dataclass(frozen=True, eq=False)
class Factor:
    """An n x n matrix held as its exact nonzeros, row by row (CSR).

    Row i stores ``values[indptr[i]:indptr[i + 1]]`` at the ascending columns
    ``indices[indptr[i]:indptr[i + 1]]``. Construction copies the arrays
    read-only (int64, int32, complex128) and drops every value that is
    exactly zero, the only entries that count as zero, never small ones.
    With no zero entry, ``values`` is the dense matrix row by row (the full
    pattern). A stored entry takes 20 bytes, and 20 more once
    :meth:`adjoint` has been called.
    """

    n: int
    indptr: np.ndarray
    indices: np.ndarray
    values: np.ndarray

    def __post_init__(self) -> None:
        n, indptr = int(self.n), np.array(self.indptr, dtype=np.int64)
        indices = np.array(self.indices, dtype=np.int64).reshape(-1)
        values = np.array(self.values, dtype=np.complex128).reshape(-1)
        if not (n >= 1 and indptr.shape == (n + 1,) and indptr[0] == 0
                and np.all(np.diff(indptr) >= 0) and indptr[-1] == indices.size == values.size
                and np.all((indices >= 0) & (indices < n))
                and np.all(np.diff(_flat_keys(n, indptr, indices)) > 0)):
            raise DimensionError(f"not the CSR arrays of a {n} x {n} matrix with sorted rows")
        if not np.all(np.isfinite(values)):
            raise StateError("factor contains non-finite entries")
        kept = values != 0
        self._set_arrays(n, np.concatenate(([0], np.cumsum(kept)))[indptr],
                         indices[kept].astype(np.int32), values[kept])

    def _set_arrays(self, n: int, indptr: np.ndarray, indices: np.ndarray,
                    values: np.ndarray) -> None:
        """Store n and the three CSR arrays, made read-only, as they are given."""
        object.__setattr__(self, "n", n)
        for name, array in zip(("indptr", "indices", "values"), (indptr, indices, values)):
            array.setflags(write=False)
            object.__setattr__(self, name, array)

    def _rows(self) -> np.ndarray:
        """Row of each stored entry."""
        return np.repeat(np.arange(self.n), np.diff(self.indptr))

    def scaled(self, c: complex) -> Factor:
        return Factor(self.n, self.indptr, self.indices, c * self.values)

    def adjoint(self) -> Factor:
        """F^dag, formed on the first call and kept; valid CSR when F is, so unchecked."""
        if "_adjoint" not in self.__dict__:
            order = np.argsort(self.indices, kind="stable")
            adjoint = object.__new__(Factor)
            adjoint._set_arrays(self.n, np.searchsorted(self.indices[order], np.arange(self.n + 1)),
                                self._rows()[order].astype(np.int32), self.values[order].conj())
            object.__setattr__(self, "_adjoint", adjoint)
        return self._adjoint

    def toarray(self) -> np.ndarray:
        return self.rows(np.arange(self.n))

    def rows(self, ix: np.ndarray) -> np.ndarray:
        """The dense rows F[ix, :] of a 1-D index array, each scattered from its CSR slice."""
        out = np.zeros((len(ix), self.n), dtype=np.complex128)
        for row, i in zip(out, ix.tolist()):
            lo, hi = self.indptr[i : i + 2].tolist()
            row[self.indices[lo:hi]] = self.values[lo:hi]
        return out

    def matvec(self, x: np.ndarray) -> np.ndarray:
        """F @ x: BLAS on a full pattern, else each row summed in column order."""
        if self.values.size == self.n * self.n:
            return self.values.reshape(self.n, self.n) @ x
        out = np.zeros(self.n, dtype=np.complex128)
        np.add.at(out, self._rows(), self.values * x[self.indices])
        return out

    def vecmat(self, x: np.ndarray) -> np.ndarray:
        """x @ F: BLAS on a full pattern, else each column summed in row order."""
        if self.values.size == self.n * self.n:
            return x @ self.values.reshape(self.n, self.n)
        out = np.zeros(self.n, dtype=np.complex128)
        np.add.at(out, self.indices, x[self._rows()] * self.values)
        return out


def _equal(f: Factor, g: Factor) -> bool:
    """Whether f and g hold the same entries: their CSR arrays, which hold no zero, are equal."""
    return (np.array_equal(f.indptr, g.indptr) and np.array_equal(f.indices, g.indices)
            and np.array_equal(f.values, g.values))


def _flat_keys(n: int, indptr: np.ndarray, indices: np.ndarray) -> np.ndarray:
    """Flat position row * n + column of each stored entry."""
    return np.repeat(np.arange(n, dtype=np.int64) * n, np.diff(indptr)) + indices


@dataclass(frozen=True, eq=False)
class ProductHamiltonian:
    """Hamiltonian given as a sum of Kronecker-product terms.

    ``terms`` is a sequence of (A_n, B_n) pairs with A_n acting on the
    dim_a-dimensional subsystem and B_n on the dim_b-dimensional one.
    Construction validates shapes and finiteness; Hermiticity of the total
    is checked by :func:`check_hermitian`, because the factors themselves
    are generally not Hermitian.

    A factor given as a :class:`Factor` is kept as it is; any other is read
    as a dense matrix into a new Factor, which shares no memory with it.
    """

    dim_a: int
    dim_b: int
    terms: tuple[tuple[Factor, Factor], ...]

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
            frozen.append((_factor(pair[0], self.dim_a, f"term {k} factor A"),
                           _factor(pair[1], self.dim_b, f"term {k} factor B")))
        object.__setattr__(self, "terms", tuple(frozen))

    @property
    def n_terms(self) -> int:
        return len(self.terms)

    @property
    def dim(self) -> int:
        return self.dim_a * self.dim_b

    @cached_property
    def paired(self) -> tuple[bool, ...]:
        """Which terms add the same to H^dag as to H, found on first use and kept.

        Term m is paired when A_m = A_m^dag and B_m = B_m^dag entry for
        entry, or when it is matched one to one with a term n whose factors
        are its adjoints, A_m = A_n^dag and B_m = B_n^dag: each term m in
        order takes the first unpaired n >= m that fits. Factors are
        compared on their CSR arrays, which hold no exact zero, so this is
        the entrywise equality of the dense factors. When every term
        is paired, H^dag is the sum of the same terms in another order, so
        H - H^dag is exactly 0.
        """
        paired = [False] * self.n_terms
        for m, (a, b) in enumerate(self.terms):
            if paired[m]:
                continue
            for n in range(m, self.n_terms):
                if (not paired[n] and _equal(a, self.terms[n][0].adjoint())
                        and _equal(b, self.terms[n][1].adjoint())):
                    paired[m] = paired[n] = True
                    break
        return tuple(paired)


def _factor(m, dim: int, name: str) -> Factor:
    """``m`` as a dim x dim :class:`Factor`, read as a dense matrix unless it is one."""
    if isinstance(m, Factor):
        if m.n != dim:
            raise DimensionError(f"{name} has shape {(m.n, m.n)!r}, expected ({dim}, {dim})")
        return m
    m = np.asarray(m, dtype=np.complex128)
    if m.shape != (dim, dim):
        raise DimensionError(f"{name} has shape {m.shape!r}, expected ({dim}, {dim})")
    if not np.all(np.isfinite(m)):
        raise StateError(f"{name} contains non-finite entries")
    flat = np.flatnonzero(m)
    return Factor(dim, np.searchsorted(flat, np.arange(dim + 1) * dim), flat % dim, m.flat[flat])


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


def check_state_dims(h: ProductHamiltonian, state: ProductState) -> None:
    """Raise :class:`DimensionError` unless ``state`` has the factor dimensions of ``h``."""
    if (state.dim_a, state.dim_b) != (h.dim_a, h.dim_b):
        raise DimensionError(
            f"state dimensions ({state.dim_a}, {state.dim_b}) do not match "
            f"Hamiltonian dimensions ({h.dim_a}, {h.dim_b})"
        )


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

    Yields (first row, H[rows], H^dag[rows]), both from :func:`block_matrix`:
    H^dag = sum_n A_n^dag (x) B_n^dag is the product Hamiltonian of the
    adjoint factor pairs. Each slab lies within one row of the A factors.
    """
    d = require_dense_dim(h.dim_a, h.dim_b)
    h_adj = ProductHamiltonian(
        h.dim_a, h.dim_b, tuple((a.adjoint(), b.adjoint()) for a, b in h.terms)
    )
    step = max(1, min(h.dim_b, _SLAB_ENTRIES // d))
    every = np.arange(d)
    for r0 in range(0, d, h.dim_b):
        for l0 in range(r0, r0 + h.dim_b, step):
            slab = np.arange(l0, min(l0 + step, r0 + h.dim_b))
            yield l0, block_matrix(h, slab, every), block_matrix(h_adj, slab, every)


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


def _realigned_r(factors: list[Factor], sign: float) -> np.ndarray:
    """R of the QR decomposition of [vec(M_1) ... vec(M_N), sign vec(M_1^dag) ...].

    Only the flat positions where some factor or its adjoint is nonzero are
    stacked, in ascending order; the rows left out are zero and add nothing
    to R. Each stored entry m[i, j] is placed at the position of (i, j),
    and its adjoint entry m[i, j].conj() at that of (j, i), found by
    searching the sorted positions, so no adjoint is formed.
    """
    n = factors[0].n
    keys = [_flat_keys(n, m.indptr, m.indices) for m in factors]
    transposed = [(key % n) * n + key // n for key in keys]
    # sorted and deduplicated by hand: np.unique imports numpy.ma on first use
    flat = np.sort(np.concatenate(keys + transposed))
    flat = flat[np.diff(flat, prepend=-1) != 0]
    columns = np.zeros((flat.size, 2 * len(factors)), dtype=np.complex128)
    for k, m in enumerate(factors):
        columns[flat.searchsorted(keys[k]), k] = m.values
        columns[flat.searchsorted(transposed[k]), len(factors) + k] = sign * m.values.conj()
    return np.linalg.qr(columns, mode="r")


def _factor_norms(h: ProductHamiltonian) -> tuple[float, float]:
    """(||H - H^dag||_F, ||H||_F) from the factors, never forming H.

    H - H^dag = sum_n A_n (x) B_n - A_n^dag (x) B_n^dag. Realigned, a sum
    sum_m C_m (x) D_m becomes the matrix C D^T of the stacked columns
    vec(C_m) and vec(D_m), which has the same Frobenius norm, and with
    C = Q_C R_C and D = Q_D R_D that norm is ||R_C R_D^T||_F. The first
    n_terms columns of the same R factors hold H itself.
    """
    r_a = _realigned_r([a for a, _ in h.terms], -1.0)
    r_b = _realigned_r([b for _, b in h.terms], 1.0)
    n = h.n_terms
    defect = float(np.linalg.norm(r_a @ r_b.T))
    return defect, float(np.linalg.norm(r_a[:, :n] @ r_b[:, :n].T))


def check_hermitian(h: ProductHamiltonian) -> None:
    """Verify that sum_n kron(A_n, B_n) is Hermitian without forming it.

    Accepts at once when every term is paired with its adjoint
    (:attr:`ProductHamiltonian.paired`), as H - H^dag is then exactly 0.
    Otherwise accepts when the factor-level ||H - H^dag||_F is at most
    HERM_TOL * max(1, ||H||_F / d): since max|X| <= ||X||_F and
    max|H| >= ||H||_F / d, the entrywise test would then pass too.
    Failing that, it runs that test, with its ``MAX_DIM`` cap; its
    :class:`ModelError` names the worst off-diagonal residual.
    """
    if all(h.paired):
        return
    defect, norm = _factor_norms(h)
    if defect <= HERM_TOL * max(1.0, norm / h.dim):
        return
    _scan_hermitian(h)


def block_matrix(h: ProductHamiltonian, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """H[rows][:, cols] for composite index arrays ``rows`` and ``cols``.

    Entry (r, c) is sum_n A_n[i_r, i_c] B_n[j_r, j_c], added in term order
    from zero; rows that share an A index i are built together from row i
    of A_n and the rows j_r of B_n (:meth:`Factor.rows`), and a term whose
    A_n has no entry in row i is skipped there, as it adds only zeros.
    """
    ii, jj = np.divmod(rows, h.dim_b)
    ci, cj = np.divmod(cols, h.dim_b)
    # the runs are found in a list: on the many 2 x 2 blocks of a coherent
    # start, numpy calls cost more than this loop
    heads = ii.tolist()
    bounds = [0, *(r for r in range(1, rows.size) if heads[r] != heads[r - 1]), rows.size]
    block = np.zeros((rows.size, cols.size), dtype=np.complex128)
    for r0, r1 in zip(bounds[:-1], bounds[1:]):
        i, run = heads[r0], block[r0:r1]
        for a, b in h.terms:
            if a.indptr[i] < a.indptr[i + 1]:
                run += a.rows(ii[r0:r0 + 1])[:, ci] * b.rows(jj[r0:r1])[:, cj]
    return block


def assemble(h: ProductHamiltonian) -> np.ndarray:
    """Dense matrix sum_n kron(A_n, B_n), verified Hermitian.

    The exact term-by-term sum, not symmetrized, after the dimension cap
    and :func:`check_hermitian`.
    """
    every = np.arange(require_dense_dim(h.dim_a, h.dim_b))
    check_hermitian(h)
    return block_matrix(h, every, every)


def product_state_vector(state: ProductState) -> np.ndarray:
    """Composite-space amplitudes psi_a (x) psi_b, entry i * dim_b + j = psi_a[i] psi_b[j].

    Not renormalized: its norm is the product of the factors' norms, which
    :class:`ProductState` holds within ``NORM_TOL`` of 1 each.
    """
    return np.kron(state.psi_a, state.psi_b)
