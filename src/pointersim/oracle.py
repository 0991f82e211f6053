"""Brute-force ground truth: exact unitary dynamics of the discretized system.

The continuum is replaced by its quadrature nodes, giving a real symmetric
(N + M) x (N + M) Hamiltonian H with the levels first, then the nodes.  The
level-node coupling carries a sqrt(weight) factor so the discrete sum of
squared couplings converges to the continuum integral of V^2.  Everything
downstream is spectral decomposition; no perturbative input enters anywhere,
which is what makes this module a legitimate independent check.

Neither H nor its eigenvector matrix Q is ever stored.  The levels couple to
the nodes but not to each other, so H is diagonalized one level at a time
(Bunch, Nielsen & Sorensen 1978): against the eigenbasis found so far, each
level is an arrowhead matrix whose eigenvalues solve a secular equation in
O(M^2) and whose eigenvectors have a closed form (``_FoldStep``).  Q is the
product of those N closed forms, so every product with Q or Q^T is a chain of
N chunked Cauchy passes, O(N M^2) time and O(M) memory per column.  The
returned ``OracleModel`` holds the ascending eigenvalues, the N level rows
Q[:N, :] (all that survival probabilities, level coherences and spectral
measures read) and each step's O(M) fold data, and must pass an
orthonormality gate.  The gate costs two Cauchy passes per fold step: a
probe's forward pass, which gathers from the same blocks the pole sums each
step's Gram bound needs, and the probe's transpose.  That bound's sums over
pairs of roots are bounded from above in O(M log M), never computed in full.

Every chunked pass, those of the secular iteration and of the gate too, is
split into contiguous row parts, one per CPU the process may run on, that
run on a thread pool (``_in_parts``).  Parts end only at chunk boundaries,
so each chunk meets the numpy and BLAS calls of a serial pass, and the
eigenvalues, the level rows and every artifact do not depend on the CPU
count.

The probes (``evolve_pure``, ``survival_probability``, ``coherence`` and
``pointer_weights``) read time as ``evolution.evolve`` does: ``t`` is a real
scalar or a real array of any shape (``_inputs.check_time``), and its axes
lead every result.  All times share one pass: a level-only probe is one
phase matrix and one product over the N level rows, O(T N (N + M)) for T
times, and a full vector is one multi-column ``OracleModel.apply``, N
Cauchy passes whatever T is.

A finite grid is quasi-periodic: beyond roughly half the recurrence time
(``ContinuumGrid.valid_t_max``), the nodes rephase and the dynamics stops
mimicking irreversible decay.  A probe call with any time past that horizon
triggers one warning, and the corresponding runs must not be tagged valid.
"""

from __future__ import annotations

import os
import threading
import warnings
from dataclasses import dataclass
from functools import partial, reduce

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from ._inputs import check_amplitudes, check_dtype, check_time, read_numbers
from .continuum import ContinuumGrid
from .errors import EigensolverFailure, FitFailure, InvalidState, RecurrenceWindowExceeded
from .model import ModelSpec, check_index, coupling_at

_ORTHO_TOL = 1e-10
# survival samples per exponential fit, and the resonance fit's half-width
# in interquartile ranges of the level's spectral measure
_FIT_SAMPLES = 40
_WINDOW_IQR = 20.0


@dataclass(frozen=True, eq=False)
class OracleModel:
    """Eigendecomposition H = Q diag(eigenvalues) Q^T of the discretized Hamiltonian.

    Neither H nor Q is kept.  ``eigenvectors`` holds only the N level rows
    Q[:N, :], shape (N, N + M), one column per eigenvalue; ``apply`` and
    ``apply_transpose`` reach the node rows through the fold ``steps``.
    """

    spec: ModelSpec
    grid: ContinuumGrid
    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    steps: tuple[_FoldStep, ...]

    @property
    def n_levels(self) -> int:
        return self.spec.n_levels

    @property
    def size(self) -> int:
        """N + M, the dimension of H."""
        return len(self.eigenvalues)

    def apply(self, coefficients) -> np.ndarray:
        """Q @ coefficients: eigenbasis coefficients to (levels, nodes) components.

        Takes a vector or a matrix of columns, real or complex.
        """
        return _by_real_columns(self._forward, check_dtype("coefficients", coefficients, complex))

    def apply_transpose(self, vectors) -> np.ndarray:
        """Q^T @ vectors: (levels, nodes) components to eigenbasis coefficients."""
        return _by_real_columns(self._backward, check_dtype("vectors", vectors, complex))

    def _forward(self, y: np.ndarray, gram_bounds: list | None = None) -> np.ndarray:
        levels = np.empty((self.n_levels, y.shape[1]))
        for s in reversed(range(self.n_levels)):
            y = self.steps[s].forward(y, gram_bounds)
            levels[s] = y[0]
            y = y[1:]
        return np.concatenate([levels, y])

    def _backward(self, v: np.ndarray) -> np.ndarray:
        y = v[self.n_levels:]
        for s, step in enumerate(self.steps):
            y = step.transpose(np.concatenate([v[s:s + 1], y]))
        return y

    def orthonormality_defect(self) -> float:
        """A bound on max |Q^T Q - I|, checked against the level rows and a probe.

        The largest of three parts, NaN when any input is not finite:

        - the fold steps' Gram bounds b_s (``_FoldStep.gram_bound``)
          composed: Q_s = P diag(1, Q_{s-1}) S_s for a row permutation P, so
          in the spectral norm, which bounds every entry,
          ||Q_s^T Q_s - I|| <= b_s + (1 + b_s) ||Q_{s-1}^T Q_{s-1} - I||;
          1 plus the composed bound is the product of every 1 + b_s, so the
          steps compose in any order;
        - max |L L^T - I_N| over the stored level rows L;
        - for the fixed probe x_j = cos(j): max |Q^T (Q x) - x| and the
          eigen-equation residual max |H (Q x) - Q (E x)| / max |E|.

        Each b_s needs the pole sums of the step's stored roots, and the
        probe's forward pass gathers them from the inverse-distance blocks it
        builds anyway, so a fold step costs the gate two Cauchy passes: that
        forward pass and the probe's transpose.
        """
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            probe = np.cos(np.arange(self.size))
            gram_bounds = []
            states = self._forward(np.column_stack([probe, self.eigenvalues * probe]), gram_bounds)
            bound = 0.0
            for own in gram_bounds:
                bound = own + (1.0 + own) * bound
            rows = self.eigenvectors
            level_gram = rows @ rows.T - np.eye(self.n_levels)
            round_trip = self.apply_transpose(states[:, 0]) - probe
            residual = _hamiltonian_times(self.spec, self.grid, states[:, 0]) - states[:, 1]
            scale = np.max(np.abs(self.eigenvalues))
            return float(np.max([bound, np.max(np.abs(level_gram)),
                                 np.max(np.abs(round_trip)), np.max(np.abs(residual)) / scale]))


def _by_real_columns(linear, x) -> np.ndarray:
    """Apply a real linear map to the columns of x, a real or complex vector or matrix.

    Real and imaginary parts ride as separate real columns, so the map's
    matrix or passes are read once and never upcast to complex.
    """
    x = np.asarray(x)
    columns = x.reshape(len(x), -1)
    if np.iscomplexobj(x):
        out = np.ascontiguousarray(linear(np.ascontiguousarray(columns, complex).view(float)))
        out = out.view(complex)
    else:
        out = linear(np.asarray(columns, float))
    return out.reshape(out.shape[:1] + x.shape[1:])


def _couplings(spec: ModelSpec, grid: ContinuumGrid) -> np.ndarray:
    """Level-node couplings V(w_k, i) sqrt(weight_k), one row per level."""
    sqrt_w = np.sqrt(grid.weights)
    return np.array([coupling_at(spec, grid.nodes, i) * sqrt_w for i in range(spec.n_levels)])


def _hamiltonian_times(spec: ModelSpec, grid: ContinuumGrid, psi: np.ndarray) -> np.ndarray:
    """H @ psi for the (levels, nodes) vector psi, in O(N M) without H."""
    n = spec.n_levels
    g = _couplings(spec, grid)
    return np.concatenate([spec.levels * psi[:n] + g @ psi[n:],
                           grid.nodes * psi[n:] + g.T @ psi[:n]])


def discretize(spec: ModelSpec, grid: ContinuumGrid) -> OracleModel:
    """Diagonalize the discretized Hamiltonian, folding in one level at a time.

    Level s couples to the eigenvectors found so far through their node rows,
    so in their basis it is an arrowhead whose poles are the current
    eigenvalues (the bare nodes, for level 0) and whose border is Q^T applied
    to its coupling row.
    """
    n = spec.n_levels
    eigenvalues = grid.nodes
    # one column per level in the current eigenbasis: the level rows of the
    # levels folded in so far, then the couplings of those still to come
    columns = _couplings(spec, grid).T
    steps = []
    for s in range(n):
        step, eigenvalues = _fold(spec.levels[s], eigenvalues, columns[:, s])
        others = np.arange(n) != s
        moved = np.empty((len(eigenvalues), n))
        moved[:, s] = step.level_row()
        if n > 1:
            # the levels do not couple to each other: no other column has a
            # level-s component
            moved[:, others] = step.transpose(
                np.concatenate([np.zeros((1, n - 1)), columns[:, others]]))
        columns = moved
        steps.append(step)

    model = OracleModel(spec=spec, grid=grid, eigenvalues=eigenvalues,
                        eigenvectors=np.ascontiguousarray(columns.T), steps=tuple(steps))
    defect = model.orthonormality_defect()
    # written so that a NaN defect fails the gate too
    if not defect <= _ORTHO_TOL:
        raise EigensolverFailure(f"eigenvector orthonormality defect {defect:g} above {_ORTHO_TOL}")
    return model


# -- one fold step: the arrowhead secular equation ----------------------------
#
# With one level at e coupled by g_k to poles w_k (the grid's nodes, or the
# eigenvalues of the previous fold step), H = [[e, g^T], [g, diag(w)]]
# and, once couplings too small to matter are deflated to the exact pairs
# (w_k, e_k), every other eigenvalue is a root of the secular equation
#
#     f(x) = x - e - sum_k g_k^2 / (x - w_k),
#
# which increases between its poles: one root lies below the first pole, one
# in each gap and one above the last pole (Gu & Eisenstat 1995; Stor,
# Slapnicar & Barlow 2015).  The poles come sorted: strictly increasing nodes,
# or a previous step's ascending eigenvalues.  Dropping a coupling below
# eps * |H| moves H by rounding noise, but a kept one must be a genuine pole:
# an underflowing g_k^2 would leave its gap without a sign change.  A root is
# kept as an offset d from its nearer pole p, so x - w_k = (w_p - w_k) + d
# stays accurate to full relative precision however close x is to w_p, and d
# solves F(d) = d * f(w_p + d), which has no pole at d = 0.  Every exact
# evaluation of f sums over all k poles, an O(k^2) Cauchy pass, so the solve
# makes as few as it can: one at the gap midpoints, whose sums also feed a
# cheap near-field start model, then two Newton passes over every root and
# short ones over the few left.  The eigenvector of root x_n is
# c_n (1, g_k / (x_n - w_k)), with c_n the norm that makes it a unit vector,
# so a product with the step's eigenvectors is a Cauchy matrix product that
# never needs them stored.

_EPS = np.finfo(float).eps
_SECULAR_MAX_ITER = 64
# the start model: poles taken exactly on each side of a root's gap, and
# its Newton steps
_NEAR_POLES = 16
_MODEL_STEPS = 2
# roots are handled in row chunks of about 64k matrix elements (512 kB), so
# no M x M temporary exists while solving or applying a step
_CHUNK_ELEMENTS = 1 << 16


@dataclass(frozen=True, eq=False)
class _FoldStep:
    """One level folded into the previous eigenbasis: its arrowhead in closed form.

    The step's eigenvector matrix S has rows (level, previous basis) and
    columns in ascending eigenvalue order.  Root x_n = anchor_n + offset_n
    owns the column c_n (1, g_k / (x_n - w_k)) on the active poles; every
    deflated pole keeps its unit vector.  Position j of the ascending order
    holds entry ``order[j]`` of (roots, deflated poles).
    """

    level: float
    active: np.ndarray    # bool over the previous basis: poles in the secular equation
    poles: np.ndarray     # the active poles w_k, ascending
    coupling: np.ndarray  # their couplings g_k
    anchor: np.ndarray    # each root's nearer pole
    offset: np.ndarray
    norms: np.ndarray     # c_n
    order: np.ndarray

    def level_row(self) -> np.ndarray:
        """S[0, :]: the folded level's component of every eigenvector."""
        row = np.zeros(len(self.order))
        row[: len(self.anchor)] = self.norms
        return row[self.order]

    def forward(self, y: np.ndarray, gram_bounds: list | None = None) -> np.ndarray:
        """S @ y for columns y: rows (level, previous basis).

        Each row part of the roots adds its own partial sum; the partial sums
        are added in part order.  Given a list ``gram_bounds``, the pass also
        sums g_k^2 / (x_n - w_k) and g_k^2 / (x_n - w_k)^2 for every root from
        the same inverse-distance blocks, and appends the step's
        ``gram_bound``.
        """
        k = len(self.anchor)
        unsorted = np.empty_like(y)
        unsorted[self.order] = y
        weighted = self.norms[:, None] * unsorted[:k]
        g2 = self.coupling * self.coupling
        pole_sums = np.empty((2, k))

        def part(span: range) -> np.ndarray:
            coupled = np.zeros((len(self.poles), y.shape[1]))
            for rows, block in _chunks(span, len(self.poles)):
                inverse = _inverse_distances(self.poles, self.anchor[rows], self.offset[rows], block)
                coupled += inverse.T @ weighted[rows]
                if gram_bounds is not None:
                    pole_sums[0, rows] = inverse @ g2
                    pole_sums[1, rows] = np.square(inverse, out=inverse) @ g2
            return coupled

        coupled = reduce(np.add, _in_parts(k, len(self.poles), part))
        out = np.empty((1 + len(self.active), y.shape[1]))
        out[0] = weighted.sum(axis=0)
        rest = out[1:]
        rest[self.active] = self.coupling[:, None] * coupled
        rest[~self.active] = unsorted[k:]
        if gram_bounds is not None:
            gram_bounds.append(self.gram_bound(*pole_sums))
        return out

    def transpose(self, z: np.ndarray) -> np.ndarray:
        """S^T @ z for columns z with rows (level, previous basis)."""
        k = len(self.anchor)
        rest = z[1:]
        coupled = self.coupling[:, None] * rest[self.active]
        unsorted = np.empty((len(self.order), z.shape[1]))

        def part(span: range):
            for rows, block in _chunks(span, len(self.poles)):
                inverse = _inverse_distances(self.poles, self.anchor[rows], self.offset[rows], block)
                np.matmul(inverse, coupled, out=unsorted[rows])

        _in_parts(k, len(self.poles), part)
        unsorted[:k] += z[0]
        unsorted[:k] *= self.norms[:, None]
        unsorted[k:] = rest[~self.active]
        return unsorted[self.order]

    def gram_bound(self, sums: np.ndarray, squares: np.ndarray) -> float:
        """An upper bound on every entry and on the spectral norm of S^T S - I,
        from each root's pole sums of g_k^2 / (x_n - w_k) and of its square.

        It is the largest row sum of an entrywise bound on |S^T S - I|,
        which bounds the spectral norm too, S^T S being symmetric.  By
        partial fractions, two roots' columns have the inner product
        c_n c_m (f(x_n) - f(x_m)) / (x_n - x_m) exactly, so with each root's
        secular residual f from ``sums``, which ``forward`` computes from the
        stored roots, the pair is bounded by
        c_n c_m (|f(x_n)| + |f(x_m)|) / |x_n - x_m|.  The row sums over m of
        c_m / |x_n - x_m| and c_m |f(x_m)| / |x_n - x_m| are bounded from
        above in O(k log k) by ``_gap_sums``.  A root's own entry is
        c_n^2 (1 + sum_k g_k^2 / (x_n - w_k)^2) - 1, and a deflated pole's
        unit vector is orthogonal to every other column.
        """
        residual = np.abs((self.anchor - self.level) + self.offset - sums)
        own = self.norms ** 2 * (1.0 + squares) - 1.0
        gaps = _gap_sums(self.anchor, self.offset,
                         np.column_stack([self.norms, self.norms * residual]))
        return float(np.max(self.norms * (residual * gaps[:, 0] + gaps[:, 1]) + np.abs(own)))


def _gap_sums(anchor: np.ndarray, offset: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Upper bounds on sum_{m != n} weights_m / |x_n - x_m|, one row per root
    x_n = anchor_n + offset_n and one column per column of ``weights`` >= 0,
    in log2(k) vectorized O(k) levels.

    The roots must ascend: the bounds are NaN unless every adjacent
    difference is > 0.  Each root starts from its exact nearest neighbour on
    each side.  Each level doubles the roots a bound covers on each side of
    root j: the new far half is the window of the root at the end of the old
    one, and the smaller of two bounds on its sum is added.  One is its
    total weight over the distance from root j to its nearest root; the
    other is that end root's own bound over it, whose distances are
    shorter.  The first is tight when the window is narrow next to its
    distance from root j, the second when its weight lies far beyond its
    first root, as around the outlying roots of a strong coupling.  Totals
    are sums of non-negative terms, so none cancels as a difference of
    prefix sums would.
    """
    k = len(anchor)
    # x_{j+1} - x_j
    gap = (np.diff(anchor) + np.diff(offset))[:, None]
    if not np.all(gap > 0):
        return np.full_like(weights, np.nan)
    # for root j, the roots j + 1 .. j + span (ahead) and j - span .. j - 1
    # (behind), cut at both ends: their total weight and a bound on the sum
    # over distances from root j
    ahead_weight, behind_weight = np.zeros_like(weights), np.zeros_like(weights)
    ahead_weight[:-1], behind_weight[1:] = weights[1:], weights[:-1]
    ahead, behind = np.zeros_like(weights), np.zeros_like(weights)
    ahead[:-1], behind[1:] = weights[1:] / gap, weights[:-1] / gap
    span = 1
    while span < k - 1:
        rows = k - 1 - span
        # x_{j+span+1} - x_j
        distance = ((anchor[span + 1:] - anchor[:rows]) + (offset[span + 1:] - offset[:rows]))[:, None]
        ahead[:rows] += np.minimum(ahead_weight[span:-1] / distance, ahead[span:-1])
        behind[span + 1:] += np.minimum(behind_weight[1:rows + 1] / distance, behind[1:rows + 1])
        ahead_weight[:rows] += ahead_weight[span:-1]
        behind_weight[span + 1:] += behind_weight[1:rows + 1]
        span *= 2
    return ahead + behind


def _fold(level: float, poles: np.ndarray, coupling: np.ndarray):
    """Fold one level coupled by ``coupling`` to ``poles``: the step and its ascending eigenvalues."""
    if not (np.isfinite(level) and np.all(np.isfinite(poles)) and np.all(np.isfinite(coupling))):
        raise EigensolverFailure("the Hamiltonian has non-finite entries")
    scale = max(abs(level), float(np.max(np.abs(poles))), float(np.linalg.norm(coupling)))
    active = np.abs(coupling) > _EPS * scale
    kept, g = poles[active], coupling[active]
    anchor, offset, norms = _secular_roots(level, kept, g * g)
    eigenvalues = np.concatenate([anchor + offset, poles[~active]])
    # stable, so without deflation the roots keep their (ascending) order
    order = np.argsort(eigenvalues, kind="stable")
    step = _FoldStep(level=float(level), active=active, poles=kept, coupling=g,
                     anchor=anchor, offset=offset, norms=norms, order=order)
    return step, eigenvalues[order]


def _chunk_rows(width: int) -> int:
    """Rows per chunk: a chunk-by-width block stays near _CHUNK_ELEMENTS."""
    return max(1, _CHUNK_ELEMENTS // max(width, 1))


def _chunks(span: range, width: int, scratch: int = 1):
    """Row slices of ``span`` in chunks of ``_chunk_rows(width)`` rows, each
    with ``scratch`` chunk-by-width blocks.

    The blocks are views of buffers that every chunk reuses, so a pass
    allocates (and page-faults) its scratch memory once, not once per chunk.
    """
    step = _chunk_rows(width)
    buffers = np.empty((scratch, min(step, len(span)), width))
    for start in range(span.start, span.stop, step):
        stop = min(start + step, span.stop)
        yield (slice(start, stop), *buffers[:, : stop - start])


# (process id, executor): a forked child starts a pool of its own
_POOL = None
_POOL_LOCK = threading.Lock()


def _cpu_count() -> int:
    """The number of CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _in_parts(count: int, width: int, work) -> list:
    """``work(span)`` for contiguous row ranges that cover range(count), one
    per CPU; their results in order.

    A part starts only where a chunk of a serial walk over range(count)
    starts, so its ``_chunks`` are that walk's chunks: every numpy and BLAS
    call sees the block it sees serially, and no row depends on the CPU
    count.  The parts run on a thread pool (numpy releases the GIL), each
    under the caller's numpy error state, which does not reach other
    threads by itself.  A pass of one chunk runs inline.
    """
    global _POOL
    step = _chunk_rows(width)
    chunks = -(-count // step)
    parts = min(chunks, _cpu_count())
    if parts <= 1:
        return [work(range(count))]
    with _POOL_LOCK:
        if _POOL is None or _POOL[0] != os.getpid():
            # imported here: at the top it would slow down every import of the package
            from concurrent.futures import ThreadPoolExecutor
            _POOL = os.getpid(), ThreadPoolExecutor(_cpu_count())
        pool = _POOL[1]
    errors = np.geterr()

    def run(start: int, stop: int):
        with np.errstate(**errors):
            return work(range(start, stop))

    edges = [min(count, step * (chunks * p // parts)) for p in range(parts + 1)]
    return list(pool.map(run, edges[:-1], edges[1:]))


def _inverse_distances(at, anchor, offset, out, own=None):
    """1 / (x_n - w) into ``out`` for roots x_n = anchor_n + offset_n (rows)
    and poles w (columns): ``at`` holds the poles, one row shared by every
    root or one row per root.  Each x_n - w is formed as (anchor_n - w) + d_n,
    accurate however close x_n is to its anchor.  With ``own``, column own_n
    of row n, the root's own pole, holds 0.
    """
    np.subtract(anchor[:, None], at, out=out)
    out += offset[:, None]
    if own is not None:
        own = (np.arange(len(anchor)), own)
        out[own] = 1.0
    np.reciprocal(out, out=out)
    if own is not None:
        out[own] = 0.0
    return out


def _secular_roots(level: float, poles: np.ndarray, g2: np.ndarray):
    """Roots of f, ascending, each as its nearer pole plus an offset, and the
    norms c_n of their eigenvectors.

    One exact pass at the gap midpoints picks each interior root's half-gap
    bracket and its pole.  Its sums also seed the root's start: the gap's
    two poles exact and the rest frozen at the midpoint give a first guess,
    which ``_near_field_start`` refines in O(k B) on a model with the 2B
    nearest poles exact and the far field linear.  Then a vectorized
    safeguarded Newton iteration on F(d) = d * f(w_p + d) runs, one exact
    pass per iteration: every root keeps a bracket on which f changes sign,
    and a Newton step that leaves it is replaced by bisection.  From the
    near-field start, the second iteration finds almost every root converged,
    so a fold step makes three exact passes over every root.  The last
    iteration's pole sums give each norm,
    1 / c_n^2 = 1 + sum_k g_k^2 / (x_n - w_k)^2.  Without poles the one root
    is the level itself.
    """
    k = len(poles)
    if k == 0:
        return np.array([level]), np.zeros(1), np.ones(1)
    # every eigenvalue lies within |g| of the diagonal's range
    radius = float(np.sqrt(np.sum(g2)))
    origin = np.empty(k + 1, dtype=np.intp)
    lo = np.empty(k + 1)
    hi = np.empty(k + 1)
    origin[0], lo[0], hi[0] = 0, min(level, poles[0]) - radius - poles[0], 0.0
    origin[k], lo[k], hi[k] = k - 1, 0.0, max(level, poles[-1]) + radius - poles[-1]
    # each root starts from its bracket's midpoint or a better guess inside it
    offset = np.empty(k + 1)
    offset[0], offset[k] = 0.5 * lo[0], 0.5 * hi[k]
    if k > 1:
        # roots 1..k-1 lie between poles n-1 and n; the sign of f at the
        # gap's midpoint says which half holds the root, hence its pole
        half = 0.5 * np.diff(poles)
        left = np.arange(k - 1)
        others, squares, _ = _pole_sum(poles, g2, left, half)
        f_mid = (poles[left] + half - level) - (others + g2[left] / half)
        lower_half = f_mid >= 0
        origin[1:k] = np.where(lower_half, left, left + 1)
        lo[1:k] = np.where(lower_half, 0.0, -half)
        hi[1:k] = np.where(lower_half, half, 0.0)
        # first guess: the gap's two poles exact, the rest frozen at the
        # midpoint, c - g_l^2 / (x - w_l) - g_r^2 / (x - w_r) = 0; it is only
        # a start, so an overflow in it just fails the bracket test below
        with np.errstate(all="ignore"):
            c = f_mid + (g2[left] - g2[left + 1]) / half
            guess = np.where(lower_half,
                             _two_pole_root(c, g2[left], g2[left + 1], 2 * half),
                             -_two_pole_root(-c, g2[left + 1], g2[left], 2 * half))
        inside = (guess > lo[1:k]) & (guess < hi[1:k])
        offset[1:k] = _near_field_start(
            level, poles, g2, half, (others, squares), origin[1:k],
            np.where(inside, guess, 0.5 * (lo[1:k] + hi[1:k])), lo[1:k], hi[1:k])

    base = poles[origin] - level
    norms = np.empty(k + 1)
    pending = np.arange(k + 1)
    for _ in range(_SECULAR_MAX_ITER):
        d, p, b = offset[pending], origin[pending], base[pending]
        low, high = lo[pending], hi[pending]
        sums, slopes, magnitude = _pole_sum(poles, g2, p, d)
        reduced = b + d - sums                      # f without the pole at w_p
        value = d * reduced - g2[p]                 # F(d)
        slope = reduced + d * (1.0 + slopes)        # F'(d)
        bound = np.abs(d) * (np.abs(b + d) + magnitude) + g2[p]

        # f < 0 where F and d differ in sign: the root lies further up
        up = (value < 0) == (d > 0)
        low = np.where(up, d, low)
        high = np.where(up | (value == 0), high, d)
        newton = d - np.divide(value, slope, out=np.full_like(d, np.nan), where=slope != 0)
        step = np.where((newton > low) & (newton < high), newton, 0.5 * (low + high))
        done = (np.abs(value) <= 4 * _EPS * bound) | (np.abs(step - d) <= 2 * _EPS * np.abs(d))
        offset[pending] = np.where(done, d, step)
        lo[pending], hi[pending] = low, high
        # a finished root keeps d, so its sums are those of its final offset
        norms[pending[done]] = 1.0 / np.sqrt(1.0 + slopes[done] + g2[p[done]] / d[done] ** 2)
        pending = pending[~done]
        if not len(pending):
            return poles[origin], offset, norms
    raise EigensolverFailure(
        f"secular equation: {len(pending)} of {k + 1} roots did not converge "
        f"in {_SECULAR_MAX_ITER} iterations")


def _near_field_start(level, poles, g2, half, at_mid, origin, offset, lo, hi):
    """Start offsets of the interior roots, refined on a near-field model of f in O(k B).

    Row i holds the root in the gap between poles i and i + 1, at ``offset``
    from its pole ``origin``, inside its bracket (lo, hi).  The model keeps
    the 2B poles nearest the gap exact, B = ``_NEAR_POLES`` on each side and
    fewer at the grid's ends.  The rest, the far field, enters to first order
    about the gap's midpoint m: its sum of g_k^2 / (x - w_k) is S - T (x - m),
    with S and T its sums of g_k^2 / (m - w_k) and g_k^2 / (m - w_k)^2.  They
    are ``at_mid``, the midpoint pass's sums over every pole but pole i, less
    their near part.  ``_MODEL_STEPS`` Newton steps on the model's F(d)
    follow; a step is taken only when it is finite and inside the bracket.
    """
    k = len(poles)
    offset = offset.copy()
    width = 2 * _NEAR_POLES
    # row i holds poles i-B+1 .. i+B, so columns B-1 and B are the gap's own
    # two; past the grid's ends the windows read padding poles of no weight
    at = sliding_window_view(np.pad(poles, _NEAR_POLES, mode="edge"), width)[1:k]
    weight = sliding_window_view(np.pad(g2, _NEAR_POLES), width)[1:k]
    # the model only proposes steps: one that overflows or divides by zero
    # is not finite, and is not taken
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for rows, inverse, terms in _chunks(range(k - 1), width, scratch=2):
            gap = np.arange(rows.start, rows.stop)
            own = origin[rows]
            middle = half[rows]
            near = (at[rows], weight[rows], inverse, terms)
            mid_sums, mid_squares = _near_sums(*near, poles[gap], middle, _NEAR_POLES - 1)
            far = at_mid[0][rows] - mid_sums
            far_squares = at_mid[1][rows] - mid_squares
            # x - midpoint is d - half from the gap's left pole, d + half from its right one
            base = (poles[own] - level) - far + far_squares * np.where(own == gap, -middle, middle)
            column = _NEAR_POLES - 1 + (own - gap)
            d, low, high = offset[rows], lo[rows], hi[rows]
            for _ in range(_MODEL_STEPS):
                sums, squares = _near_sums(*near, poles[own], d, column)
                reduced = base + d - sums + far_squares * d
                value = d * reduced - g2[own]
                slope = reduced + d * (1.0 + squares + far_squares)
                step = d - value / slope
                # NaN and infinite steps fail the comparisons too
                d = np.where((step > low) & (step < high), step, d)
            offset[rows] = d
    return offset


def _near_sums(at, weight, inverse, terms, anchor, offset, own):
    """sum_j weight_nj / (x_n - at_nj) and sum_j weight_nj / (x_n - at_nj)^2
    over every column j but ``own``, for x_n = anchor_n + offset_n, with the
    scratch blocks ``inverse`` and ``terms``."""
    _inverse_distances(at, anchor, offset, inverse, own)
    np.multiply(weight, inverse, out=terms)
    return terms.sum(axis=1), np.einsum("ij,ij->i", terms, inverse)


def _two_pole_root(c, own, far, gap):
    """Distance t in (0, gap) from the own pole to the root of c - own/t - far/(t - gap)."""
    # c t^2 - (c gap + own + far) t + own gap = 0, each root in its stable form
    beta = c * gap + own + far
    root = np.sqrt(np.maximum(beta * beta - 4.0 * c * own * gap, 0.0))
    stable = beta >= 0
    numerator = np.where(stable, 2.0 * own * gap, beta - root)
    denominator = np.where(stable, beta + root, 2.0 * c)
    return np.divide(numerator, denominator, out=np.zeros_like(c), where=denominator != 0)


def _pole_sum(poles, g2, origin, offset):
    """Sums over all poles but each root's own, in row chunks.

    For roots x_n = w_origin(n) + offset_n, returns sum g_k^2 / (x_n - w_k),
    sum g_k^2 / (x_n - w_k)^2 and sum |g_k^2 / (x_n - w_k)| with k != origin(n).
    Since g_k^2 >= 0, each is a matrix-vector product with g^2.
    """
    sums = np.empty(len(offset))
    slopes = np.empty(len(offset))
    magnitude = np.empty(len(offset))

    def part(span: range):
        for rows, inverse, terms in _chunks(span, len(poles), scratch=2):
            _inverse_distances(poles, poles[origin[rows]], offset[rows], inverse, origin[rows])
            sums[rows] = inverse @ g2
            magnitude[rows] = np.abs(inverse, out=terms) @ g2
            slopes[rows] = np.multiply(inverse, inverse, out=terms) @ g2

    _in_parts(len(offset), len(poles), part)
    return sums, slopes, magnitude


def _check_window(model: OracleModel, t) -> np.ndarray:
    """The times ``t`` through ``check_time``; one warning when any reaches ``valid_t_max``."""
    times = check_time(t)
    if (times >= model.grid.valid_t_max).any():
        warnings.warn(
            f"t = {times.max():g} is beyond half the recurrence time {model.grid.recurrence_time:g}; "
            "the discretized dynamics is no longer a faithful decay",
            RecurrenceWindowExceeded,
            stacklevel=3,
        )
    return times


def evolve_pure(model: OracleModel, amplitudes, t, levels_only: bool = False) -> np.ndarray:
    """Exact exp(-i H t) applied through the spectral decomposition.

    Returns the full (levels, nodes) vector, or with ``levels_only`` the N
    level amplitudes alone, after the axes of ``t``, a real scalar or array
    of times.  Level amplitudes in and levels out read only the level rows,
    O(T N (N + M)) for T times; a full vector either way is one product
    with every time's column, N Cauchy passes.  Amplitudes that are not
    finite numbers raise ``InvalidState``.
    """
    times = _check_window(model, t)
    psi = check_amplitudes(amplitudes)
    if psi.shape == (model.n_levels,):
        coefficients = _by_real_columns(partial(np.matmul, model.eigenvectors.T), psi)
    elif psi.shape == (model.size,):
        coefficients = model.apply_transpose(psi)
    else:
        raise InvalidState(f"expected {model.n_levels} level amplitudes or a full vector")
    # one column per time
    evolved = np.exp(-1j * model.eigenvalues[:, None] * times.ravel()) * coefficients[:, None]
    evolved = (_by_real_columns(partial(np.matmul, model.eigenvectors), evolved) if levels_only
               else model.apply(evolved))
    return evolved.T.reshape(times.shape + evolved.shape[:1])


def _level_row(model: OracleModel, i: int) -> np.ndarray:
    """Q[i, :], level i's component of every eigenvector."""
    check_index(i, model.n_levels)
    return model.eigenvectors[i]


def survival_probability(model: OracleModel, i: int, t) -> float | np.ndarray:
    """|<i| exp(-i H t) |i>|^2 for level i: a float for one time, else an
    array of the shape of ``t``."""
    times = _check_window(model, t)
    c = _level_row(model, i)
    amplitude = np.sum(c * c * np.exp(-1j * model.eigenvalues * times[..., None]), axis=-1)
    probability = np.abs(amplitude) ** 2
    return float(probability) if probability.ndim == 0 else probability


def coherence(model: OracleModel, i: int, j: int, amplitudes, t) -> complex | np.ndarray:
    """Density-matrix element rho_ij(t) of the evolved pure state; i and j
    index the levels, then the nodes.  A complex for one time, else an
    array of the shape of ``t``."""
    check_index(i, model.size)
    check_index(j, model.size)
    # the level axis first, so one time multiplies numpy scalars
    psi = evolve_pure(model, amplitudes, t, levels_only=max(i, j) < model.n_levels).T
    rho = (psi[i] * np.conj(psi[j])).T
    return complex(rho) if rho.ndim == 0 else rho


def pointer_weights(model: OracleModel, amplitudes, t) -> np.ndarray:
    """Probability mass attributed to each level, after the axes of ``t``.

    The continuum is partitioned at the midpoints between adjacent level
    energies (the simplest unambiguous attribution of a resonance line to
    its level) and each cell's mass is added to the residual occupation of
    the level itself: one product of the node populations of every time
    with the cells' indicator matrix.
    """
    psi = evolve_pure(model, amplitudes, t)
    n = model.n_levels
    order = np.argsort(model.spec.levels)
    cuts = (model.spec.levels[order][:-1] + model.spec.levels[order][1:]) / 2.0
    # the level whose cell holds each node
    owner = order[np.searchsorted(cuts, model.grid.nodes)]
    return np.abs(psi[..., :n]) ** 2 + np.abs(psi[..., n:]) ** 2 @ (owner[:, None] == np.arange(n))


# -- fits against the exact dynamics ------------------------------------------

def fit_exponential_rate(times, values) -> float:
    """Least-squares decay rate of values ~ exp(-rate * t) on a log scale."""
    times, values = read_numbers(times), read_numbers(values)
    if isinstance(times, str):
        raise FitFailure(f"exponential fit needs finite times, got {times}")
    if isinstance(values, str):
        raise FitFailure(f"exponential fit needs strictly positive finite values, got {values}")
    if times.ndim != 1 or times.shape != values.shape:
        raise FitFailure(f"exponential fit needs one value per time, got shapes "
                         f"{times.shape} and {values.shape}")
    # with one distinct time the slope is undetermined, and lstsq would
    # return its minimum-norm guess
    if len(np.unique(times)) < 2:
        raise FitFailure("exponential fit needs at least two distinct times")
    if not np.all(values > 0):
        raise FitFailure("exponential fit needs strictly positive finite values")
    design = np.column_stack([times, np.ones_like(times)])
    slope, _ = np.linalg.lstsq(design, np.log(values), rcond=None)[0]
    return float(-slope)


def _spectral_quartiles(model: OracleModel, i: int):
    """Median and interquartile range of the spectral measure of level i."""
    mass = _level_row(model, i) ** 2
    cdf = np.cumsum(mass)
    cdf /= cdf[-1]
    q25, q50, q75 = np.interp([0.25, 0.5, 0.75], cdf, model.eigenvalues)
    return q50, q75 - q25


def fitted_decay_rate(model: OracleModel, i: int, t_min: float | None = None,
                      t_max: float | None = None) -> float:
    """Survival decay rate of level i fitted on the exponential window.

    The window defaults to [0.1 / G, 2 / G] with G estimated from the
    interquartile range of the level's own spectral measure: it excludes the
    short-time quadratic region and the long-time power-law tail without any
    perturbative input.
    """
    if t_min is None or t_max is None:
        _, iqr = _spectral_quartiles(model, i)
        if iqr <= 0:
            raise FitFailure(f"level {i} does not decay; no exponential window exists")
        t_min = 0.1 / iqr if t_min is None else t_min
        t_max = 2.0 / iqr if t_max is None else t_max
    times = np.linspace(check_time(t_min), check_time(t_max), _FIT_SAMPLES)
    return fit_exponential_rate(times, survival_probability(model, i, times))


def resonance_center(model: OracleModel, i: int) -> float:
    """Position of the level-i resonance line in the exact spectrum.

    Near a Lorentzian line the inverse spectral weight density is a parabola
    with its vertex at the line centre.  It is fitted with a density-weighted
    quadratic over the eigenvalues within ``_WINDOW_IQR`` interquartile ranges
    of the level's weighted median.  When fewer than three of them carry
    weight (a decoupled level) there is no line to fit, and the eigenvalue
    carrying the level's largest weight is returned.
    """
    mass = _level_row(model, i) ** 2
    center0, iqr = _spectral_quartiles(model, i)
    energies = model.eigenvalues
    mask = (np.abs(energies - center0) < _WINDOW_IQR * iqr) & (mass > 0)
    if np.count_nonzero(mask) < 3:
        return float(energies[np.argmax(mass)])
    density = mass[mask] / np.gradient(energies)[mask]
    a, b, _ = np.polyfit(energies[mask], 1.0 / density, 2, w=density)
    return float(-b / (2.0 * a))
