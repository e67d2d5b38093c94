"""Exact dynamics of a product start, one invariant block at a time.

H[(k, l), (i, j)] = sum_n A_n[k, i] B_n[l, j] can be nonzero only where some
term has A_n[k, i] != 0 and B_n[l, j] != 0. Read undirected, that pattern is
a graph on the composite basis, and each of its connected components spans
a coordinate subspace H maps into itself. The start evolves inside the
components that meet its support, so only those blocks are diagonalized;
nothing outside them is ever touched. This is exact: the pattern is the
stored entries of each :class:`~enttime.hamiltonian.Factor`, where zero
means an exact zero of a factor, never a small one, and the CSR rows of a
factor and of its adjoint are the adjacency lists of the search. When one
component covers the whole space the search stops there, and that
component is one block like any other: every block comes from
:func:`~enttime.hamiltonian.block_matrix`.

The Hermiticity of the whole H is checked once, including entries outside
the blocks. Each block keeps its symmetrized matrix S and its eigenvalues,
from one checked :func:`~enttime.linalg.eigvals_hermitian` per block size
(equal-size blocks stacked). A time grid then takes one of two routes per
block, chosen from x = R max|t|, with R the half-width of the block's
spectrum interval:

* the Chebyshev series, when it needs K <= n terms for a block of n states
  (:func:`~enttime.linalg.chebyshev_terms`): K matrix-vector products with
  S, then one coefficient product per time chunk. K <= n is the flop-count
  crossover: K products of n^2 against the O(n^3) eigenvector work, and
  the series rows never hold more than n^2 entries;
* otherwise the eigenbasis: eigenvectors from
  :func:`~enttime.linalg.eig_hermitian`, formed once on first need (equal
  sizes stacked), V^dag psi0 with them, and :func:`~enttime.linalg.propagate`.

The series interval is [w_min - m, w_max + m], with m the tolerance
``RECON_TOL`` max(1, ||S||_F) the eigenvalue check holds the backward error
to; the series raises :class:`NumericalError` if its rows grow, which is
what a spectrum outside the interval does. The block that covers the whole
space (any dense model) is propagated straight into the amplitudes, with
no scatter.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DimensionError, NumericalError, StateError
from .hamiltonian import (
    ProductHamiltonian,
    ProductState,
    block_matrix,
    check_hermitian,
    product_state_vector,
    require_dense_dim,
)
from .linalg import (
    HermitianSpectrum,
    chebyshev_propagate,
    chebyshev_terms,
    chebyshev_vectors,
    eig_hermitian,
    eigvals_hermitian,
    hermitian_part,
    propagate,
)
from .tolerances import NORM_TOL

__all__ = ["Propagator", "invariant_blocks"]

# Complex amplitudes held at once while spectra are taken (2 MB); the time
# grid is cut into chunks of this many entries.
_CHUNK_ENTRIES = 1 << 17


def invariant_blocks(h: ProductHamiltonian, support) -> list[np.ndarray]:
    """Connected components of the coupling graph of ``h`` that meet ``support``.

    ``support`` lists flat composite indices (i * dim_b + j). Each block comes
    back as an ascending index array; blocks are ordered by their first
    support index. Every term contributes the kron pattern of its factors
    and that pattern's transpose. A component that covers the whole space
    ends the search at once.
    """
    d, dim_b = h.dim, h.dim_b
    moves = [
        ((fa.indptr, fa.indices), (fb.indptr, fb.indices))
        for a, b in h.terms
        for fa, fb in ((a.adjoint(), b.adjoint()), (a, b))
    ]
    seen = np.zeros(d, dtype=bool)
    blocks: list[np.ndarray] = []
    for seed in np.asarray(support, dtype=np.intp).reshape(-1):
        if seen[seed]:
            continue
        seen[seed] = True
        members = [np.array([seed], dtype=np.intp)]
        size = 1
        stack = [int(seed)]
        while stack:
            i, j = divmod(stack.pop(), dim_b)
            for (ptr_a, rows_a), (ptr_b, rows_b) in moves:
                ks = rows_a[ptr_a[i] : ptr_a[i + 1]]
                ls = rows_b[ptr_b[j] : ptr_b[j + 1]]
                if ks.size == 0 or ls.size == 0:
                    continue
                reach = (ks[:, None].astype(np.intp) * dim_b + ls).ravel()
                new = reach[~seen[reach]]
                if new.size == 0:
                    continue
                size += new.size
                if size == d:
                    return [np.arange(d)]
                seen[new] = True
                members.append(new)
                stack.extend(new.tolist())
        blocks.append(np.sort(np.concatenate(members)))
    return blocks


def _by_size(blocks) -> list[list[int]]:
    """Positions in ``blocks`` grouped by block size, in order of first appearance."""
    groups: dict[int, list[int]] = {}
    for k, block in enumerate(blocks):
        groups.setdefault(len(block), []).append(k)
    return list(groups.values())


def _stack(mats: list[np.ndarray]) -> np.ndarray:
    """Equal-size matrices as one (b, n, n) stack for one solver call.

    A lone matrix goes in as it is: no copy into a stack of one, and the
    perfbench trace, which reads the first axis as the dimension, holds.
    """
    return mats[0] if len(mats) == 1 else np.stack(mats)


def _per_matrix(spectra: HermitianSpectrum, count: int) -> list[HermitianSpectrum]:
    """The spectrum of each of ``count`` matrices that went in through :func:`_stack`."""
    return [spectra] if count == 1 else [spectra[k] for k in range(count)]


@dataclass(eq=False)
class _Block:
    """One reached block and what has been formed from it so far.

    ``matrix`` is S = (M + M^dag)/2 of the block and ``levels`` its checked
    eigenvalues. ``spectrum`` (with eigenvectors) and ``modes`` = V^dag psi0
    are formed on the first grid that takes the eigenbasis route;
    ``vectors`` holds the Chebyshev rows u_0 .. u_K formed so far, and
    grows when a grid needs more. ``terms`` is the K of the latest grid, or
    None when that grid took the eigenbasis, and ``growth`` is
    max_k ||u_k|| / ||psi0|| over all rows formed.
    """

    indices: np.ndarray
    matrix: np.ndarray
    levels: HermitianSpectrum
    psi0: np.ndarray
    spectrum: HermitianSpectrum | None = None
    modes: np.ndarray | None = None
    vectors: np.ndarray | None = None
    terms: int | None = None
    growth: float = 0.0

    @property
    def eigenvalues(self) -> np.ndarray:
        return self.levels.eigenvalues

    @cached_property
    def interval(self) -> tuple[float, float]:
        """Center and half-width of the series interval, which encloses the spectrum."""
        w = self.levels.eigenvalues
        return 0.5 * (w[0] + w[-1]), 0.5 * (w[-1] - w[0]) + float(self.levels.tolerance)

    def amplitudes(self, times) -> np.ndarray:
        """exp(-i S t) psi0 on this block, by the route ``terms`` records."""
        if self.terms is None:
            return propagate(self.spectrum, self.psi0, self.modes, times)
        return chebyshev_propagate(self.psi0, self.vectors, *self.interval, times)


class Propagator:
    """Schmidt spectra of one product start evolving under ``h``, for any times.

    Construction checks the whole Hamiltonian for Hermiticity, finds the
    invariant blocks the start reaches, and forms and checks the
    eigenvalues of each block, equal-size blocks in one stacked call.
    :meth:`probabilities` then serves any number of time grids, each block
    by the Chebyshev series or by its eigenbasis (see the module docstring).

    Raises :class:`DimensionError` when the state does not fit ``h`` or the
    composite dimension exceeds ``MAX_DIM``, :class:`ModelError` when H is
    not Hermitian, and :class:`NumericalError` when LAPACK does not converge
    on a block or a block's eigenvalues fail their moment check
    (:func:`~enttime.linalg.eigvals_hermitian`); :meth:`probabilities`
    raises it too when an eigendecomposition fails its residual probe
    (:func:`~enttime.linalg.eig_hermitian`) or the series vectors grow past
    the start's norm (:func:`~enttime.linalg.chebyshev_vectors`).
    """

    def __init__(self, h: ProductHamiltonian, state: ProductState):
        if (state.dim_a, state.dim_b) != (h.dim_a, h.dim_b):
            raise DimensionError(
                f"state dimensions ({state.dim_a}, {state.dim_b}) do not match "
                f"Hamiltonian dimensions ({h.dim_a}, {h.dim_b})"
            )
        self.dim_a, self.dim_b = h.dim_a, h.dim_b
        self.dim = require_dense_dim(h.dim_a, h.dim_b)
        check_hermitian(h)
        psi0 = product_state_vector(state)
        self.norm = float(np.linalg.norm(psi0))
        found = invariant_blocks(h, np.flatnonzero(psi0))
        blocks: list = [None] * len(found)
        for members in _by_size(found):
            sym = hermitian_part(_stack([block_matrix(h, found[k], found[k]) for k in members]))
            sym.setflags(write=False)
            mats = [sym] if len(members) == 1 else list(sym)
            levels = _per_matrix(eigvals_hermitian(sym), len(members))
            for k, mat, level in zip(members, mats, levels):
                blocks[k] = _Block(found[k], mat, level, psi0[found[k]])
        self.blocks = tuple(blocks)

    @property
    def block_sizes(self) -> list[int]:
        """Dimensions of the reached blocks, in the order of ``blocks``."""
        return [block.indices.size for block in self.blocks]

    def _prepare(self, reach: float) -> None:
        """Choose each block's route for times up to |t| = ``reach`` and form what it needs."""
        bare = []
        for block in self.blocks:
            block.terms = chebyshev_terms(block.interval[1] * reach, block.indices.size)
            if block.terms is None:
                if block.spectrum is None:
                    bare.append(block)
            elif block.vectors is None or block.vectors.shape[0] <= block.terms:
                block.vectors, growth = chebyshev_vectors(
                    block.matrix, *block.interval, block.psi0, block.terms, block.vectors)
                block.growth = max(block.growth, growth)
        for members in _by_size([block.indices for block in bare]):
            group = [bare[k] for k in members]
            spectra = eig_hermitian(_stack([block.matrix for block in group]))
            for block, spectrum in zip(group, _per_matrix(spectra, len(group))):
                block.spectrum = spectrum
                block.modes = (block.psi0.conj() @ spectrum.eigenvectors).conj()

    def probabilities(self, times) -> np.ndarray:
        """Squared Schmidt coefficients, descending, one row per time.

        ``times`` may be any finite values in any order; the result has
        shape (len(times), min(dim_a, dim_b)). Each evolved state's norm is
        checked against the start's norm ``norm`` within ``NORM_TOL``.
        """
        t = np.asarray(times, dtype=np.float64).reshape(-1)
        if not np.all(np.isfinite(t)):
            raise ValueError("times must be finite")
        self._prepare(float(np.max(np.abs(t), initial=0.0)))
        out = np.empty((t.size, min(self.dim_a, self.dim_b)))
        step = max(1, _CHUNK_ENTRIES // self.dim)
        # a block of all d indices is range(d) in order: its rows are the amplitudes
        whole = self.blocks[0] if self.blocks[0].indices.size == self.dim else None
        for start in range(0, t.size, step):
            chunk = t[start : start + step]
            if whole is not None:
                amps = whole.amplitudes(chunk)
            else:
                amps = np.zeros((chunk.size, self.dim), dtype=np.complex128)
                for block in self.blocks:
                    amps[:, block.indices] = block.amplitudes(chunk)
            drift = np.abs(np.linalg.norm(amps, axis=1) - self.norm)
            worst = int(np.argmax(drift))
            if not drift[worst] <= NORM_TOL:
                raise StateError(
                    f"state norm at t = {chunk[worst]!r} differs from the start's norm by "
                    f"{drift[worst]!r}, more than {NORM_TOL}"
                )
            try:
                singular = np.linalg.svd(
                    amps.reshape(chunk.size, self.dim_a, self.dim_b), compute_uv=False
                )
            except np.linalg.LinAlgError as exc:
                raise NumericalError(f"Schmidt SVD failed to converge: {exc}") from exc
            out[start : start + chunk.size] = singular * singular
        return out
