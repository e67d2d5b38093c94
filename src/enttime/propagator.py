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
the blocks, and every block keeps the reconstruction check of
:func:`~enttime.linalg.eig_hermitian`.
"""

from __future__ import annotations

from dataclasses import dataclass

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
from .linalg import HermitianSpectrum, eig_hermitian, propagate
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


@dataclass(frozen=True, eq=False)
class _Block:
    indices: np.ndarray
    spectrum: HermitianSpectrum
    psi0: np.ndarray


class Propagator:
    """Schmidt spectra of one product start evolving under ``h``, for any times.

    Construction checks the whole Hamiltonian for Hermiticity, finds the
    invariant blocks the start reaches and diagonalizes each block once.
    :meth:`probabilities` then serves any number of time grids.

    Raises :class:`DimensionError` when the state does not fit ``h`` or the
    composite dimension exceeds ``MAX_DIM``, :class:`ModelError` when H is
    not Hermitian.
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
        self.blocks = tuple(
            _Block(indices, eig_hermitian(block_matrix(h, indices, indices)), psi0[indices])
            for indices in invariant_blocks(h, np.flatnonzero(psi0))
        )

    @property
    def block_sizes(self) -> list[int]:
        """Dimensions of the diagonalized blocks, in the order of ``blocks``."""
        return [block.indices.size for block in self.blocks]

    def probabilities(self, times) -> np.ndarray:
        """Squared Schmidt coefficients, descending, one row per time.

        ``times`` may be any finite values in any order; the result has
        shape (len(times), min(dim_a, dim_b)). Each evolved state's norm is
        checked against the start's norm ``norm`` within ``NORM_TOL``.
        """
        t = np.asarray(times, dtype=np.float64).reshape(-1)
        if not np.all(np.isfinite(t)):
            raise ValueError("times must be finite")
        out = np.empty((t.size, min(self.dim_a, self.dim_b)))
        step = max(1, _CHUNK_ENTRIES // self.dim)
        for start in range(0, t.size, step):
            chunk = t[start : start + step]
            amps = np.zeros((chunk.size, self.dim), dtype=np.complex128)
            for block in self.blocks:
                amps[:, block.indices] = propagate(block.spectrum, block.psi0, chunk)
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
