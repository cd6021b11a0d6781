"""Motion compensation: bidirectional frame differencing through Phi.

Backward and forward difference streams are formed against the
Phi-transformed neighbors, each stream is recentered by adding its own
global mean, and the two streams are averaged into a (T-1) x D motion
sequence for the motion branch of the prototype module. Everything after
Phi (the slices, differences, global means and average) is one tape
node; ``tests/oracles.py`` keeps it as a composition of primitive ops.
"""

from __future__ import annotations

import numpy as np

from . import tensor as T
from .errors import ProtocolError
from .nn import PhiStack
from .tensor import Tensor


def motion_features(phi: PhiStack, frames: Tensor, train: bool = False) -> Tensor:
    """The aggregated motion sequence of a T x D frame stack.

    Phi runs once over the whole stack (batch-norm statistics, in train
    mode, are taken over all T frames) and both difference streams slice
    that single pass.  A batched (B, T, D) stack yields (B, T-1, D), one
    motion sequence per batch element.
    """
    if frames.ndim < 2:
        raise ProtocolError(f"motion expects a (T, D) or (B, T, D) stack, "
                            f"got shape {frames.shape}")
    axis = frames.ndim - 2
    length = frames.shape[axis]
    if length < 2:
        raise ProtocolError(f"motion needs at least 2 frames, got {length}")
    transformed = phi.forward(frames, train=train)
    fd, td = frames.data, transformed.data
    back = fd[..., :-1, :] - td[..., 1:, :]           # f^t - Phi(f^{t+1})
    fwd = fd[..., 1:, :] - td[..., :-1, :]            # f^{t+1} - Phi(f^t)
    out = ((back + back.mean(axis=axis, keepdims=True))
           + (fwd + fwd.mean(axis=axis, keepdims=True))) * 0.5
    steps = length - 1

    def bwd(g):
        # both streams get the same gradient: half of g plus its share
        # of the global means; Phi's is the frames' with the sign flipped
        half = g * 0.5
        d = half + half.sum(axis=axis, keepdims=True) / steps
        dframes = np.zeros(fd.shape, d.dtype)
        dframes[..., :-1, :] = d
        dframes[..., 1:, :] += d
        return dframes, -dframes

    return T._record(out, (frames, transformed), bwd)
