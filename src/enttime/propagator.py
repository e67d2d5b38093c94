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
component covers the whole space the search stops there.

The Hermiticity of the whole H is checked once, including entries outside
the blocks. A block of n <= ``LANCZOS_STEPS`` states is diagonalized at
construction (the size cut is argued next to that constant): the
symmetrized matrices S = (M + M^dag)/2 of all such blocks of one size, from
:func:`~enttime.hamiltonian.block_matrix`, go as one stack through one
checked :func:`~enttime.linalg.eig_hermitian`, and the stack stays whole:
each time chunk propagates it in its eigenbasis by one batched product
(:func:`~enttime.linalg.propagate`) and scatters it once. A larger block
takes its series interval from ``LANCZOS_STEPS`` Lanczos steps from a
seeded random start (:func:`~enttime.linalg.lanczos_interval`) on S, or,
for the whole space (any dense model) when that is cheaper, on S in
product form straight from the factors
(:func:`~enttime.linalg.hermitian_product`, where a term and its adjoint,
or a self-adjoint term, enter once, as the Hermiticity check paired
them). Each time grid then takes one of two
routes for it, whichever :func:`_series_plan` counts as less work:

* the Chebyshev series in m >= 1 equal steps of max|t| / m, after Tal-Ezer
  and Kosloff (1984). Each step expands from the state the step before it
  carried to its start, with K <= n terms
  (:func:`~enttime.linalg.chebyshev_terms`) at x = R times the step, R the
  half-width of the interval: m K products with S, then one coefficient
  product per step and time chunk. Negative times step out from psi0 in
  their own direction. m = 1 is one series over max|t|, and more steps
  trade products for shorter coefficient rows. K <= n keeps one step's
  rows within the n^2 entries of S, and one step's rows at a time are
  kept beside psi0's;
* otherwise the eigenbasis: S is formed if it was not, and its
  eigenvectors come from one :func:`~enttime.linalg.eig_hermitian`, formed
  once on first need, after which the rule counts only propagating in
  them. Huge times go there with no series formed.

The series raises :class:`NumericalError` if its rows grow, which is what a
spectrum outside the interval does. The Lanczos interval need not hold
every eigenvalue; the growth check then bounds what the levels outside it
can add, and the block takes the few more terms that bound asks for
(derived next to ``CHEB_TAIL_TOL``). Every step keeps that bound and its
growth check, so m steps miss by at most m times it. A block that covers
the whole space is propagated straight into the amplitudes, with no
scatter.

Schmidt spectra are taken over the reached support only: the r rows of A
and c columns of B that some reached block touches. Every other amplitude
is an exact zero, and zero rows and columns add no singular value, so the
SVD of the r x c amplitude matrix, padded with zeros to min(dim_a, dim_b),
is the spectrum of the whole state. A 2-state block of d = 4096 thus fills
and reduces 2 x 2 amplitudes per time, not 2 x 2048.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import NumericalError, StateError
from .hamiltonian import (
    ProductHamiltonian,
    ProductState,
    block_matrix,
    check_hermitian,
    check_state_dims,
    product_state_vector,
    require_dense_dim,
)
from .linalg import (
    HermitianSpectrum,
    chebyshev_propagate,
    chebyshev_terms,
    chebyshev_vectors,
    eig_hermitian,
    hermitian_part,
    hermitian_product,
    lanczos_interval,
    propagate,
    row_norms,
)
from .tolerances import LANCZOS_STEPS, NORM_TOL, PROBE_SEED

__all__ = ["Propagator", "invariant_blocks"]

# Complex amplitudes held at once while spectra are taken (2 MB); the time
# grid is cut into chunks of this many entries of the r x c support grid.
_CHUNK_ENTRIES = 1 << 17

# The route rule counts work in complex multiply-adds at the rate of a
# matrix product. With one OpenBLAS thread (Haswell kernels, 2 shared
# vCPUs), a GEMM took 0.14-0.16 ns per multiply-add at n = 256-1024; S psi
# on a matrix took 0.7 ns per entry of S at n = 512-1024, as it reads each
# entry once (weight 4); and eigh with eigenvectors took 1.3 ns n^3 at
# n = 512-1024, 1.7 and 2.8 ns n^3 at n = 256 and 100 (weight 8). A series
# row in product form took 0.25 ns per multiply-add at d = 1024, while the
# coefficients of a time chunk cost less than T K n / 2, as each chunk takes
# only the rows its own times need. Weight 2 picks m = 4 for 2001 times to
# 2 on dense d = 1024 models, within 2% of the fastest m on each of seven
# timed, and m = 8 for times to 8, the fastest on two; weight 1 picks m = 8
# and 16, up to 7% slower.
_MATVEC_WORK = 4
_PRODUCT_WORK = 2
_EIGH_WORK = 8


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


def _by_size(blocks) -> list[list[np.ndarray]]:
    """``blocks`` grouped by size, in order of first appearance."""
    groups: dict[int, list[np.ndarray]] = {}
    for block in blocks:
        groups.setdefault(block.size, []).append(block)
    return list(groups.values())


def _stack(arrays: list[np.ndarray]) -> np.ndarray:
    """Equal-shape arrays as one stack with a leading axis, for one batched call.

    A lone array stays as it is: no copy into a stack of one, and the
    perfbench trace, which reads the first axis of a matrix as its
    dimension, holds.
    """
    return arrays[0] if len(arrays) == 1 else np.stack(arrays)


def _step_index(magnitudes: np.ndarray, span: float) -> np.ndarray:
    """The step j >= 0 whose span, (j span, (j + 1) span], holds each |t| of ``magnitudes``.

    The offset |t| - j span is then in [0, span], up to a few units of the
    last place either way by rounding; t = 0 is in step 0, and so is every
    time when ``span`` is 0 (a grid of zeros).
    """
    if span == 0.0:
        return np.zeros_like(magnitudes)
    return np.maximum(np.ceil(magnitudes / span) - 1.0, 0.0)


def _series_plan(times: np.ndarray, radius: float, size: int, work: float,
                 eigenvectors: bool) -> tuple[int, int] | None:
    """(m, K): the least work of m equal steps of the series over ``times``, or None.

    Step j >= 0 expands exp(-i S s) around the state at j max|t| / m (on the
    side of zero of its times), formed by the step before it, so m steps
    take m K products with S, of ``work`` multiply-adds each; T times then
    take T K n / 2 more for their coefficients (a real (T x K) by (K x 2n)
    product). K is the series length at R times the largest offset of a
    time from its step's start, or the step itself, which carries the
    state to the next one. The eigenbasis takes T n^2 to propagate, and
    ``_EIGH_WORK`` n^3 more for eigh unless ``eigenvectors`` says they are
    formed already; None means every m costs more. K stays at most n, so
    that one step's rows hold no more than S. m runs over the powers of
    two while m products cost less than the eigenbasis, and stops at the
    first that costs no less than the best before it: the work falls with
    m while the coefficients dominate and rises once the products do. It
    stops at K <= 1 too, which no more steps undercut. m = 1 is one series
    over max|t|.
    """
    reach = float(np.max(np.abs(times), initial=0.0))
    eigenbasis = times.size * size**2 + (0 if eigenvectors else _EIGH_WORK * size**3)
    coefficients = times.size * size / 2
    best = None
    steps = 1
    while steps * work <= eigenbasis:
        span = reach / steps
        ahead = np.abs(times)
        ahead -= _step_index(ahead, span) * span
        x = radius * max(span, float(ahead.max(initial=0.0)))
        per_term = steps * work + coefficients
        terms = chebyshev_terms(x, min(size, int(eigenbasis // per_term)))
        if terms is not None:
            if best is not None and terms * per_term >= best[0]:
                break
            best = (terms * per_term, steps, terms)
            if terms <= 1:  # 0 for a grid of zeros
                break
        steps *= 2
    return None if best is None else best[1:]


@dataclass(eq=False)
class _Block:
    """One large block, or every small block of one size, and what has been formed from it.

    ``indices`` and ``psi0`` are (n,) arrays for a lone block, and (b, n)
    for the b small blocks of n states that share a size, which stay one
    stack from ``eigh`` to the scatter of their amplitudes. ``extremes``
    are the lowest and highest level: of the eigenvalues of small blocks,
    or the Lanczos Ritz values of a large one, which ``margin`` widens into
    the series interval. ``operator`` is what the series applies to a large
    block, S = (M + M^dag)/2 or its product form
    (:func:`~enttime.linalg.hermitian_product`), and None for small blocks,
    which never take the series; ``work`` is the multiply-adds of one
    product with it, weighted as the route rule counts them. ``spectrum``
    (with eigenvectors, stacked like ``indices``) is formed at construction
    for small blocks, and on the first grid that takes the eigenbasis for a
    large one; ``vectors`` holds the Chebyshev rows u_0 .. u_K of psi0, the
    first step's, formed so far, u_0 = psi0 alone at construction, and
    grows when a grid needs more. ``terms`` is the K of each step of the
    latest grid, or None when that grid took the eigenbasis; ``steps`` is
    its number of steps m, each ``span`` long, and ``latest`` holds the
    direction (+1 or -1), index, start and rows of the last step past the
    first that the grid formed, the one such step kept. ``growth`` is
    max_k ||u_k|| over the start's norm, over all rows formed.
    """

    indices: np.ndarray
    psi0: np.ndarray
    extremes: tuple[float, float]
    margin: float = 0.0
    operator: np.ndarray | Callable[[np.ndarray], np.ndarray] | None = None
    work: float = 0.0
    spectrum: HermitianSpectrum | None = None
    vectors: np.ndarray | None = None
    terms: int | None = None
    steps: int = 1
    span: float = 0.0
    latest: tuple | None = None
    growth: float = 0.0

    @cached_property
    def interval(self) -> tuple[float, float]:
        """Center and half-width of the series interval."""
        low, high = self.extremes
        return 0.5 * (low + high), 0.5 * (high - low) + self.margin

    @cached_property
    def modes(self) -> np.ndarray:
        """V^dag psi0, per block, formed once for every grid that takes the eigenbasis."""
        return (self.psi0.conj()[..., None, :] @ self.spectrum.eigenvectors)[..., 0, :].conj()

    def amplitudes(self, times) -> np.ndarray:
        """exp(-i S t) psi0, (T,) + ``indices.shape``, by the route ``terms`` records.

        On the series route each time is propagated from the start of its
        step (:func:`_step_index`) by its offset from it; the times of step
        0 keep their own value, so t = 0 returns psi0's bytes.
        """
        if self.terms is None:
            return propagate(self.spectrum, self.psi0, self.modes, times)
        t = np.asarray(times, dtype=np.float64)
        magnitude = np.abs(t)
        step = _step_index(magnitude, self.span)
        back = np.signbit(t) & (step > 0)
        out = np.empty((t.size, self.psi0.size), dtype=np.complex128)
        # backward steps first, each direction outward: the order of Propagator's chunks
        for forward, j in sorted(set(zip((~back).tolist(), step.tolist()))):
            chosen = (step == j) & (back != forward)
            sign = 1.0 if forward else -1.0
            offsets = t[chosen] if j == 0 else sign * (magnitude[chosen] - j * self.span)
            out[chosen] = chebyshev_propagate(*self._step(int(j), sign), *self.interval, offsets)
        return out

    def _rows(self, start: np.ndarray) -> np.ndarray:
        """The series rows of a step from ``start``, with their growth checked and kept."""
        rows, growth = chebyshev_vectors(self.operator, *self.interval, start[None], self.terms)
        self.growth = max(self.growth, growth)
        return rows

    def _step(self, j: int, sign: float) -> tuple[np.ndarray, np.ndarray]:
        """Start and rows of step j in the direction ``sign`` (+1 or -1).

        Step j > 0 is carried on from ``latest`` when that lies in the same
        direction and not past j, and from psi0 otherwise, and becomes the
        latest. Each step's rows are dropped before the next one's are
        formed, so at most one step's rows exist beside psi0's, and times
        taken in order of sign, then |t|, form each step's rows once.
        """
        if j == 0:
            return self.psi0, self.vectors
        i, start, rows = 0, self.psi0, self.vectors
        if self.latest is not None and self.latest[0] == sign and self.latest[1] <= j:
            _, i, start, rows = self.latest
        self.latest = None
        while i < j:
            start = chebyshev_propagate(start, rows, *self.interval, [sign * self.span])[0]
            del rows
            rows = self._rows(start)
            i += 1
        self.latest = (sign, j, start, rows)
        return start, rows


class Propagator:
    """Schmidt spectra of one product start evolving under ``h``, for any times.

    Construction checks the whole Hamiltonian for Hermiticity, finds the
    invariant blocks the start reaches (``block_sizes``, in the order
    :func:`invariant_blocks` finds them), diagonalizes the small blocks of
    each size as one stack, and takes the Lanczos interval of each large
    one. ``blocks`` holds one entry per small size and per large block.
    :meth:`probabilities` then serves any number of time grids, each large
    block by the Chebyshev series or by its eigenbasis (see the module
    docstring). ``support`` is (r, c), the number of rows of A and columns
    of B the reached blocks touch, the grid the amplitudes and Schmidt SVD
    are taken on. ``spread`` is the spread of the levels of the reached
    blocks: the highest of their ``extremes`` less the lowest.

    Raises :class:`DimensionError` when the state does not fit ``h`` or the
    composite dimension exceeds ``MAX_DIM``, :class:`ModelError` when H is
    not Hermitian, and :class:`NumericalError` when LAPACK does not converge
    on a block or a small block's eigendecomposition fails its residual
    probe (:func:`~enttime.linalg.eig_hermitian`); :meth:`probabilities`
    raises it too when a large block's eigendecomposition fails that probe
    or its series vectors grow past the start's norm
    (:func:`~enttime.linalg.chebyshev_vectors`).
    """

    def __init__(self, h: ProductHamiltonian, state: ProductState):
        check_state_dims(h, state)
        self.dim_a, self.dim_b = h.dim_a, h.dim_b
        self.dim = require_dense_dim(h.dim_a, h.dim_b)
        check_hermitian(h)
        psi0 = product_state_vector(state)
        self.norm = float(np.linalg.norm(psi0))
        self._h = h
        found = invariant_blocks(h, np.flatnonzero(psi0))
        self.block_sizes = [members.size for members in found]
        blocks: list[_Block] = []
        for group in _by_size(found):
            if group[0].size > LANCZOS_STEPS:
                blocks.extend(self._large(indices, psi0[indices]) for indices in group)
                continue
            indices = _stack(group)
            matrices = _stack([block_matrix(h, members, members) for members in group])
            spectrum = eig_hermitian(hermitian_part(matrices))
            w = spectrum.eigenvalues
            blocks.append(_Block(indices, psi0[indices], (w[..., 0].min(), w[..., -1].max()),
                                 spectrum=spectrum))
        self.blocks = tuple(blocks)
        lows, highs = zip(*(block.extremes for block in self.blocks))
        self.spread = float(max(highs) - min(lows))
        # the rows of A and columns of B the blocks touch, in ascending order, and each
        # block's flat positions on that r x c grid, in the shape of its indices
        rows, cols = np.divmod(np.concatenate(found), self.dim_b)
        touched_a = np.zeros(self.dim_a, dtype=bool)
        touched_b = np.zeros(self.dim_b, dtype=bool)
        touched_a[rows] = True
        touched_b[cols] = True
        r, c = int(np.count_nonzero(touched_a)), int(np.count_nonzero(touched_b))
        self.support = (r, c)
        rank_a, rank_b = np.cumsum(touched_a) - 1, np.cumsum(touched_b) - 1
        self._local = [rank_a[i] * c + rank_b[j]
                       for i, j in (np.divmod(block.indices, self.dim_b) for block in self.blocks)]

    def _matrix(self, indices: np.ndarray) -> np.ndarray:
        """S = (M + M^dag)/2 of the block on ``indices``, read-only."""
        sym = hermitian_part(block_matrix(self._h, indices, indices))
        sym.setflags(write=False)
        return sym

    def _large(self, indices: np.ndarray, psi0: np.ndarray) -> _Block:
        """A block of more than ``LANCZOS_STEPS`` states, with its interval from Lanczos.

        Its operator is the product form of S when the block is the whole
        space and that takes no more multiply-adds than S psi,
        w (dim_a + dim_b) <= d for the width w of the stacked factors (N
        to 2N for N terms), and S otherwise (a partial block, or a lopsided
        split, where the factor stacks outweigh S). The cut counts plain
        multiply-adds, not the weighted work of the route rule: on a thin
        split the first GEMM reads its stack once per product, as S psi
        reads S.
        """
        h, n = self._h, indices.size
        operator, work = None, _MATVEC_WORK * n * n
        if n == self.dim and h.n_terms * (h.dim_a + h.dim_b) <= n:
            product, width = hermitian_product([(a.toarray(), b.toarray()) for a, b in h.terms],
                                               h.paired)
            if width * (h.dim_a + h.dim_b) <= n:
                operator, work = product, _PRODUCT_WORK * width * n * (h.dim_a + h.dim_b)
        if operator is None:
            operator = self._matrix(indices)
        start = np.random.default_rng(PROBE_SEED).standard_normal(n)
        low, high, margin = lanczos_interval(operator, start)
        return _Block(indices, psi0, (low, high), margin, operator, work, vectors=psi0[None])

    def _prepare(self, t: np.ndarray) -> None:
        """Choose each large block's route for the times ``t`` and form what it needs first."""
        reach = float(np.max(np.abs(t), initial=0.0))
        for block in self.blocks:
            if block.operator is None:  # a small block: in its eigenbasis from the start
                continue
            plan = _series_plan(t, block.interval[1], block.indices.size, block.work,
                                block.spectrum is not None)
            block.latest = None
            if plan is None:
                block.terms = None
                if block.spectrum is None:
                    op = block.operator
                    block.spectrum = eig_hermitian(
                        self._matrix(block.indices) if callable(op) else op)
                continue
            block.steps, block.terms = plan
            block.span = reach / block.steps
            if block.vectors.shape[0] <= block.terms:
                block.vectors, growth = chebyshev_vectors(
                    block.operator, *block.interval, block.vectors, block.terms)
                block.growth = max(block.growth, growth)

    def probabilities(self, times) -> np.ndarray:
        """Squared Schmidt coefficients, descending, one row per time.

        ``times`` may be any finite values in any order; the result has
        shape (len(times), min(dim_a, dim_b)). They are taken in chunks,
        negative times first, each sign in order of |t|, so that a large
        block's series steps are each formed once and one step's rows at a
        time are kept (:meth:`_Block._step`). Each evolved state's norm is
        checked against the start's norm ``norm`` within ``NORM_TOL``. The
        amplitudes and their SVD span only the ``support`` grid, the r rows
        of A and c columns of B that the reached blocks touch; the other
        rows and columns are exact zeros and add no singular value, so the
        last min(dim_a, dim_b) - min(r, c) entries of each row are exact
        zeros.
        """
        t = np.asarray(times, dtype=np.float64).reshape(-1)
        if not np.all(np.isfinite(t)):
            raise ValueError("times must be finite")
        self._prepare(t)
        r, c = self.support
        out = np.zeros((t.size, min(self.dim_a, self.dim_b)))
        step = max(1, _CHUNK_ENTRIES // (r * c))
        # a block of all d indices is range(d) in order: its rows are the amplitudes
        whole = self.blocks[0] if self.blocks[0].indices.shape == (self.dim,) else None
        # chunks in order of sign, then |t|, so that each direction's series steps are
        # carried outward from t = 0 once
        order = np.lexsort((np.abs(t), t >= 0.0))
        for start in range(0, t.size, step):
            part = order[start : start + step]
            chunk = t[part]
            if whole is not None:
                amps = whole.amplitudes(chunk)
            else:
                amps = np.zeros((chunk.size, r * c), dtype=np.complex128)
                for block, local in zip(self.blocks, self._local):
                    amps[:, local] = block.amplitudes(chunk)
            drift = np.abs(row_norms(amps) - self.norm)
            worst = int(np.argmax(drift))
            if not drift[worst] <= NORM_TOL:
                raise StateError(
                    f"state norm at t = {float(chunk[worst])!r} differs from the start's norm by "
                    f"{float(drift[worst])!r}, more than {NORM_TOL}"
                )
            try:
                singular = np.linalg.svd(amps.reshape(chunk.size, r, c), compute_uv=False)
            except np.linalg.LinAlgError as exc:
                raise NumericalError(f"Schmidt SVD failed to converge: {exc}") from exc
            out[part, : min(r, c)] = singular * singular
        return out
