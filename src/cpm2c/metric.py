"""Temporal alignment scoring between enhanced frame sequences.

Per-frame-pair costs (1 - cosine) feed a soft-minimum dynamic program
over monotone alignment paths from the first frame pair to the last
(moves: right, down, diagonal). The soft minimum is a log-sum-exp at
temperature gamma, so the score is differentiable and converges to the
exact minimal path cost as gamma shrinks. This is OTAM's scoring rule
(Cao et al. 2020, arXiv:1906.11415).

OTAM and CLIP-FSAR (Wang et al. 2023, arXiv:2301.07944) average the
score over the cost matrix and its transpose because their path set is
asymmetric. This move set maps onto itself under transpose (right and
down swap, diagonal stays), and each cell's soft minimum adds its left
and up candidates in either order to the same bits, so
cost(C^T) == cost(C) exactly and one orientation is the whole score.

Sign convention: alignment yields a cost; the model negates the
combined cost into a similarity so that the classification softmax
favors the nearest class.

``cost_matrix`` and ``otam_distance`` are one fused tape op each, and
both take any batch of leading axes, so an episode's prototypes and
queries reach the DP without a reshape on the tape. The DP's forward
runs the soft-min recursion
R[i, j] = C[i, j] + softmin(R[i, j-1], R[i-1, j], R[i-1, j-1])
in plain numpy, vectorized over a batch of equally sized cost matrices
and over anti-diagonals within each matrix, with the batch innermost:
anti-diagonal k is an (m, B) slab whose rows are its live cells
(i, k - i), each a contiguous run of B values. Only live cells are
computed, each anti-diagonal's costs are read straight from the input,
and the forward keeps only the last two anti-diagonals of R. Rows a
diagonal does not reach, and a virtual row -1, hold a large finite
sentinel instead of infinity, which keeps every subtraction well defined
and gives those candidates an exactly zero soft-min weight.

While it runs, the forward stores each cell's three normalized soft-min
weights W (left, up, diagonal), which are the partial derivatives of
R[i, j] with respect to its predecessors. The backward pass is the
expected-alignment recursion of soft-DTW (Cuturi & Blondel 2017,
arXiv:1703.01541; in general form, Mensch & Blondel 2018,
arXiv:1802.03676): walking the anti-diagonals in reverse,
E[pred] += E[cell] * W[cell, dir], and dL/dC = E. Reusing the stored
weights instead of recomputing them from the table, as
exp((R[cell] - C[cell] - R[pred]) / gamma), avoids cancellation between
nearly equal path costs, which loses float32 gradient accuracy.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from . import tensor as T
from .errors import ConfigError, DomainError, ShapeError
from .tensor import Tensor, _unbroadcast

BIG = 1e30


def cost_matrix(a: Tensor, b: Tensor) -> Tensor:
    """Pairwise cost 1 - cos(a_i, b_j) between row sets, one tape node.

    Accepts (m, D) x (n, D) or batched (..., m, D) x (..., n, D) with
    leading shapes that broadcast, so (N, 1, m, D) x (1, Q, n, D) costs
    every pair without copying either side; costs land in [0, 2].

    Row norms are exp(0.5 * log(sum x^2)), and the cosine is the dot
    products over the outer product of the norms. The backward works on
    the normalized rows: with A = a / |a| and dA the gradient reaching A,
    the gradient of a is (dA - A * sum(dA * A)) / |a|, and likewise for
    b; broadcast axes are summed before that row projection.
    """
    ad, bd = a.data, b.data
    try:
        if ad.ndim < 2 or ad.ndim != bd.ndim or ad.shape[-1] != bd.shape[-1]:
            raise ValueError
        np.broadcast_shapes(ad.shape[:-2], bd.shape[:-2])
    except ValueError:
        raise ShapeError(f"cost_matrix: shapes {a.shape} and {b.shape} "
                         f"do not pair") from None
    norms = []
    for name, x in (("a", ad), ("b", bd)):
        sq = (x * x).sum(axis=-1, keepdims=True)
        if (sq == 0).any():
            idx = tuple(np.argwhere(sq[..., 0] == 0)[0])
            raise DomainError(f"cost_matrix: zero-norm row {idx} in {name}")
        norms.append(np.exp(np.log(sq) * 0.5))
    na, nb = norms                                   # (..., m, 1), (..., n, 1)
    dots = ad @ bd.swapaxes(-1, -2)
    denom = na @ nb.swapaxes(-1, -2)
    if (denom == 0).any():
        raise DomainError("cost_matrix: row norms underflow to a zero "
                          "product")
    cost = 1.0 - dots / denom
    need_a, need_b = a.requires_grad, b.requires_grad

    def bwd(g):
        a_hat, b_hat = ad / na, bd / nb
        da = db = None
        if need_a:
            d = _unbroadcast(g @ b_hat, ad.shape)    # minus dL/dA
            da = (a_hat * (d * a_hat).sum(axis=-1, keepdims=True) - d) / na
        if need_b:
            d = _unbroadcast(g.swapaxes(-1, -2) @ a_hat, bd.shape)
            db = (b_hat * (d * b_hat).sum(axis=-1, keepdims=True) - d) / nb
        return da, db

    return T._record(cost, (a, b), bwd)


@functools.lru_cache(maxsize=64)
def _diagonals(m: int, n: int) -> tuple:
    """Index plan of an (m, n) table's anti-diagonals, one entry each.

    Anti-diagonal k holds the live cells (i, k - i) for rows i in
    lo:hi. An entry is (lo, hi, cells, at, left, up, diag): ``cells``
    slices those cells out of the row-major (m * n) table, and the other
    four slices pick them, and their left, up and diagonal predecessors,
    out of the (m + 1) * (n + 1) table with a leading pad row and column.
    """
    step = max(n - 1, 1)              # one column: one cell per diagonal
    plan = []
    for k in range(m + n - 1):
        lo, hi = max(0, k - n + 1), min(k, m - 1) + 1
        first = k + lo * (n - 1)
        at = (lo + 1) * (n + 1) + k - lo + 1
        plan.append((lo, hi,
                     slice(first, first + (hi - lo - 1) * step + 1, step),
                     *(slice(at - d, at - d + (hi - lo - 1) * n + 1, n)
                       for d in (0, 1, n + 1, n + 2))))
    return tuple(plan)


def _soft_dp(X: np.ndarray, gamma: float, keep_weights: bool):
    """Fixed-corner soft-min path cost of a (B, m, n) batch.

    Returns the (B,) costs and, when ``keep_weights``, the per-cell
    soft-min weights with the batch innermost, (K, 3, m, B) with
    K = m + n - 1 anti-diagonals: W[k, :, i] belongs to cell (i, k - i).
    Only live cells' weights are written; the rest are left unset.
    """
    batch, m, n = X.shape
    diagonals = m + n - 1
    plan = _diagonals(m, n)
    flat = X.reshape(batch, m * n)
    # the last two anti-diagonals of R: row i + 1 holds the path cost of
    # live cell (i, k - i); row 0 (a virtual row -1), and every row a
    # diagonal has not reached yet, hold the sentinel
    prev2 = np.full((m + 1, batch), BIG, X.dtype)
    prev1 = np.full((m + 1, batch), BIG, X.dtype)
    prev1[1] = flat[:, 0]
    W = (np.empty((diagonals, 3, m, batch), X.dtype) if keep_weights
         else None)
    inv = 1.0 / gamma
    # one anti-diagonal's left, up and diagonal candidates, stacked so
    # that each elementwise step is one call over all three
    cand = np.empty((3, m, batch), X.dtype)
    for k in range(1, diagonals):
        lo, hi, cells = plan[k][:3]
        c = cand[:, :hi - lo]
        c[0] = prev1[lo + 1:hi + 1]
        c[1] = prev1[lo:hi]
        c[2] = prev2[lo:hi]
        # the subtracted minimum is exact to shift by and keeps sentinel
        # candidates underflowing cleanly to zero weight
        z = np.minimum(np.minimum(c[0], c[1]), c[2])
        e = np.exp((z - c) * inv)
        total = e[0] + e[1] + e[2]
        # diagonal k - 2 is spent: its buffer takes diagonal k
        prev2[lo + 1:hi + 1] = flat[:, cells].T + (z - np.log(total) * gamma)
        prev1, prev2 = prev2, prev1
        if W is not None:
            np.divide(e, total, out=W[k, :, lo:hi])
    return prev1[m].copy(), W


def _soft_dp_backward(W: np.ndarray, g: np.ndarray, shape) -> np.ndarray:
    """Gradient of ``_soft_dp`` costs with respect to its (B, m, n) input.

    E, an (m + 1) * (n + 1) table of (B,) rows with a leading pad row and
    column, accumulates dL/dR: each live cell, once complete, passes
    E * W to its three predecessors, and dL/dC equals E. The pad cells
    take the edge cells' zero-weight passes and are never read.
    """
    batch, m, n = shape
    E = np.zeros(((m + 1) * (n + 1), batch), W.dtype)
    E[-1] = g
    plan = _diagonals(m, n)
    for k in range(m + n - 2, 0, -1):
        lo, hi, _, at, left, up, diag = plan[k]
        passed = E[at] * W[k, :, lo:hi]
        E[left] += passed[0]
        E[up] += passed[1]
        E[diag] += passed[2]
    return E.reshape(m + 1, n + 1, batch)[1:, 1:].transpose(2, 0, 1)


def otam_distance(C: Tensor, gamma: float = 0.1) -> Tensor:
    """Soft alignment cost of one (m, n) matrix or a (..., m, n) batch.

    Returns a scalar for a single matrix and one cost per matrix, in the
    batch's leading shape, for a batch: one ``_soft_dp`` call and one
    tape node. ``gamma`` is the soft-min temperature (smaller is closer
    to the hard minimum) and must be positive and finite.
    """
    if not (math.isfinite(gamma) and gamma > 0):
        raise ConfigError(f"gamma must be positive and finite, got {gamma}")
    if C.size == 0:
        raise ShapeError("otam_distance: empty cost matrix")
    if C.ndim < 2:
        raise ShapeError(f"otam_distance: rank {C.ndim} input")
    # the backward closure must not hold C: a Tensor refers to its tape,
    # and that cycle would keep every tape alive until a full collection
    shape = C.shape
    X = C.data.reshape((-1,) + shape[-2:])
    keep = C.requires_grad and T.active_tape() is not None
    dist, W = _soft_dp(X, gamma, keep)

    def bwd(g):
        dX = _soft_dp_backward(W, np.reshape(g, (len(X),)), X.shape)
        return (dX.reshape(shape),)

    return T._record(dist.reshape(shape[:-2]), (C,), bwd)
