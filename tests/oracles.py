"""Reference implementations kept only for the tests to compare against.

``taped_otam_distance`` is the soft-alignment DP recorded cell by cell on
the autodiff tape: every soft-min is built from tape ops, so its gradient
comes from replaying them. ``metric.otam_distance`` must reproduce its
forward bit for bit and its gradient to rounding.
"""

import numpy as np

from cpm2c import tensor as T
from cpm2c.metric import BIG, AlignmentConfig
from cpm2c.tensor import Tensor


def _softmin3(a: Tensor, b: Tensor, c: Tensor, gamma: float) -> Tensor:
    """Stabilized -gamma*log(sum exp(-x/gamma)) over three candidates.

    The subtracted minimum is a constant: the result is mathematically
    independent of the shift, so taking it off-tape is exact.
    """
    z = Tensor(np.minimum(np.minimum(a.data, b.data), c.data))
    inv = 1.0 / gamma
    total = T.add(T.add(T.exp(T.scale(T.sub(z, a), inv)),
                        T.exp(T.scale(T.sub(z, b), inv))),
                  T.exp(T.scale(T.sub(z, c), inv)))
    return T.sub(z, T.scale(T.log(total), gamma))


def _skew(C: Tensor) -> Tensor:
    """Shift row i of each matrix right by i so anti-diagonals become
    columns; new cells are BIG sentinels. (B, m, n) -> (B, m, m+n-1)."""
    batch, m, n = C.shape
    rows = []
    for i in range(m):
        parts = []
        if i > 0:
            parts.append(Tensor(np.full((batch, 1, i), BIG)))
        parts.append(T.slice_axis(C, 1, i, i + 1))
        if m - 1 - i > 0:
            parts.append(Tensor(np.full((batch, 1, m - 1 - i), BIG)))
        rows.append(parts[0] if len(parts) == 1 else T.concat(parts, axis=2))
    return rows[0] if len(rows) == 1 else T.concat(rows, axis=1)


def _soft_dp(C: Tensor, gamma: float) -> Tensor:
    """Fixed-corner soft-min path cost for a (B, m, n) batch -> (B,)."""
    batch, m, n = C.shape
    skewed = _skew(C)
    big_col = Tensor(np.full((batch, 1), BIG))
    big_all = Tensor(np.full((batch, m), BIG))

    def column(k):
        return T.reshape(T.slice_axis(skewed, 2, k, k + 1), (batch, m))

    def shifted(x):
        # row i reads its predecessor at row i-1; row 0 has none
        if m == 1:
            return big_col
        return T.concat([big_col, T.slice_axis(x, 1, 0, m - 1)], axis=1)

    prev2 = None
    prev1 = column(0)  # only cell (0, 0) is real here; the rest are sentinels
    for k in range(1, m + n - 1):
        best = _softmin3(prev1, shifted(prev1),
                         shifted(prev2) if prev2 is not None else big_all,
                         gamma)
        prev2, prev1 = prev1, T.add(column(k), best)
    return T.reshape(T.slice_axis(prev1, 1, m - 1, m), (batch,))


def taped_otam_distance(C: Tensor,
                        cfg: AlignmentConfig = AlignmentConfig()) -> Tensor:
    """Same contract as ``metric.otam_distance``, recorded cell by cell."""
    single = C.ndim == 2
    if single:
        C = T.reshape(C, (1,) + C.shape)

    def one_direction(X):
        if cfg.relaxed_ends:
            pad = Tensor(np.zeros((X.shape[0], X.shape[1], 1)))
            X = T.concat([pad, X, pad], axis=2)
        return _soft_dp(X, cfg.gamma)

    dist = one_direction(C)
    if cfg.bidirectional:
        dist = T.scale(T.add(dist, one_direction(T.transpose(C, 1, 2))), 0.5)
    return T.reshape(dist, ()) if single else dist
