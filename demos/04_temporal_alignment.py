"""Soft temporal alignment against a brute-force path oracle.

The alignment score is a softened minimum over monotone paths through a
frame-to-frame cost matrix. For small matrices every path can be
enumerated, which makes the smoothing behaviour visible: as gamma
shrinks the soft score converges to the exact cheapest path, and as it
grows the log-sum-exp mass of all the paths drags the score below any
single one of them.
"""

import itertools
import math

import numpy as np

from cpm2c import metric
from cpm2c import tensor as T
from cpm2c.tensor import Tape, Tensor, backward


def enumerate_paths(costs):
    """Cost of every monotone (down / right / diagonal) corner-to-corner
    path, the hard oracle the soft score relaxes."""
    m, n = costs.shape
    totals = []

    def walk(i, j, acc):
        acc += costs[i, j]
        if (i, j) == (m - 1, n - 1):
            totals.append(acc)
            return
        for di, dj in ((1, 0), (0, 1), (1, 1)):
            if i + di < m and j + dj < n:
                walk(i + di, j + dj, acc)

    walk(0, 0, 0.0)
    return totals


rng = np.random.default_rng(4)
costs = rng.uniform(0.0, 2.0, size=(4, 4))
paths = enumerate_paths(costs)
print(f"4x4 matrix          {len(paths)} monotone paths, "
      f"cheapest {min(paths):.4f}, mean {np.mean(paths):.4f}")

with T.precision("float64"):
    for gamma in (10.0, 1.0, 0.1, 0.01, 0.001):
        soft = float(metric.otam_distance(Tensor(costs), gamma).data)
        print(f"gamma {gamma:>6}        soft score {soft:8.4f}   "
              f"gap to cheapest {soft - min(paths):+.2e}")

# the whole thing is differentiable: gradient of the score with respect
# to every cell says how much each frame pairing participates
with Tape():
    cell = Tensor(costs, requires_grad=True)
    score = metric.otam_distance(cell, gamma=0.1)
backward(score)
print("participation weights (rows: query frames, cols: support frames)")
for row in cell.grad:
    print("   " + "  ".join(f"{v:5.2f}" for v in row))

# frame-level use: cosine costs between two random videos, as
# classification scores them. Right and down moves swap under transpose,
# so the transposed matrix costs exactly the same, and one orientation is
# the whole score.
a = Tensor(rng.standard_normal((5, 8)))
b = Tensor(rng.standard_normal((6, 8)))
C = metric.cost_matrix(a, b)
ab = metric.otam_distance(C, gamma=0.1)
ba = metric.otam_distance(Tensor(C.data.T), gamma=0.1)
print(f"video pair          distance {float(ab.data):.4f}, transposed "
      f"{float(ba.data):.4f}, same bits = {bool(ab.data == ba.data)}")
