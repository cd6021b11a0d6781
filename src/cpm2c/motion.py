"""Motion compensation: bidirectional frame differencing through Phi.

Backward and forward difference streams are formed against the
Phi-transformed neighbors, each stream is recentered by adding its own
global mean, and the two streams are averaged into a (T-1) x D motion
sequence for the motion branch of the prototype module.
"""

from __future__ import annotations

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
    head = T.slice_axis(frames, axis, 0, length - 1)     # f^t
    tail = T.slice_axis(frames, axis, 1, length)         # f^{t+1}
    phi_head = T.slice_axis(transformed, axis, 0, length - 1)
    phi_tail = T.slice_axis(transformed, axis, 1, length)
    back = T.sub(head, phi_tail)
    fwd = T.sub(tail, phi_head)
    global_back = T.reduce_mean(back, axis=axis, keepdims=True)
    global_fwd = T.reduce_mean(fwd, axis=axis, keepdims=True)
    return T.scale(T.add(T.add(back, global_back), T.add(fwd, global_fwd)), 0.5)
