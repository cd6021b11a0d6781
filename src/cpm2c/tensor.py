"""Dense tensors with reverse-mode automatic differentiation.

A ``Tensor`` wraps a numpy array plus an optional gradient slot. Operations
executed while a ``Tape`` is active record backward rules onto the tape;
``backward(loss)`` replays them in reverse append order and accumulates
gradients into every ``requires_grad`` leaf that contributed to the loss.
A tape is single-use: backward releases each node's backward closure,
and with it the arrays that closure saved, in reverse order as the walk
passes the node, so a consumed tape holds no activations and a second
``backward`` on it raises GraphError.

The primitive ops here are the building blocks. A composite that runs
often (each layer in ``nn``, the token stack in ``cpm``, the alignment DP
in ``metric``) is recorded instead as one node through ``_record``: a
numpy forward plus a backward closure that maps the output gradient to
one partial per parent (None for a parent that needs none). The closure
must hold arrays only: a Tensor refers to its tape, and that cycle would
keep a finished tape alive until a full garbage collection. A partial
that is not a view must be a fresh array that nothing else keeps, since
a leaf may take it as its ``.grad`` without a copy.

Precision is a per-thread switch: float32 for training and evaluation,
float64 for finite-difference gradient checking (use the ``precision``
context manager). Tapes are per-forward-pass and thread-local; a new
thread starts in float32 with no tape, and independent tapes may run
concurrently on disjoint data.
"""

from __future__ import annotations

import contextlib
import threading
from typing import Callable, Iterable, Optional, Sequence

import numpy as np

from .errors import DomainError, GraphError, ShapeError

_FLOAT_DTYPES = {"float32": np.float32, "float64": np.float64}


class _ThreadState(threading.local):
    """Per-thread open tapes and default dtype; each thread starts with
    no tape and float32."""

    def __init__(self):
        self.tapes: list = []
        self.dtype = np.float32


_state = _ThreadState()


def default_dtype():
    """Currently active float dtype (per thread)."""
    return _state.dtype


@contextlib.contextmanager
def precision(name: str):
    """Temporarily switch the default float dtype ('float32' or 'float64')."""
    if name not in _FLOAT_DTYPES:
        raise ValueError(f"unknown float dtype {name!r}")
    old = _state.dtype
    _state.dtype = _FLOAT_DTYPES[name]
    try:
        yield
    finally:
        _state.dtype = old


class Tensor:
    """Dense n-dimensional array with an optional gradient slot.

    Data is immutable by convention after construction except for ``grad``
    (filled by ``backward``) and in-place parameter updates performed by an
    optimizer holding exclusive access.
    """

    __slots__ = ("data", "requires_grad", "grad", "tape", "node")

    def __init__(self, data, requires_grad: bool = False):
        arr = np.asarray(data, dtype=_state.dtype)
        self.data = arr
        self.requires_grad = requires_grad
        self.grad: Optional[np.ndarray] = None
        self.tape: Optional[Tape] = None
        self.node: Optional[int] = None

    @property
    def shape(self) -> tuple:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        return float(self.data.reshape(-1)[0])

    def zero_grad(self) -> None:
        self.grad = None

    def __repr__(self) -> str:
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"


def tensor(data, requires_grad: bool = False) -> Tensor:
    return Tensor(data, requires_grad=requires_grad)


def zeros(shape, requires_grad: bool = False) -> Tensor:
    return Tensor(np.zeros(shape, dtype=default_dtype()), requires_grad=requires_grad)


def ones(shape, requires_grad: bool = False) -> Tensor:
    return Tensor(np.ones(shape, dtype=default_dtype()), requires_grad=requires_grad)


class _Node:
    __slots__ = ("inputs", "backward")

    def __init__(self, inputs, backward):
        self.inputs = inputs      # tuple of node ids, None for no-grad operands
        self.backward = backward  # grad_out -> tuple of partials aligned with inputs


class Tape:
    """Append-only record of one forward pass.

    Node ids are list indices, so reverse append order is a valid reverse
    topological order. A tape is confined to the thread that opened it and
    is single-use: ``backward`` consumes it, replacing each node with None
    as the walk passes it, so ``len`` still counts the nodes recorded.
    """

    def __init__(self):
        self._nodes: list[Optional[_Node]] = []
        self._leaves: dict[int, Tensor] = {}
        self._leaf_ids: dict[int, int] = {}  # id(tensor) -> node id
        self._consumed = False

    def __enter__(self) -> "Tape":
        _state.tapes.append(self)
        return self

    def __exit__(self, *exc):
        tapes = _state.tapes
        if tapes and tapes[-1] is self:
            tapes.pop()
        return False

    def _ensure(self, t: Tensor) -> int:
        if t.tape is self and t.node is not None:
            return t.node
        # leaves are found by id, not by a back-reference: a leaf pointing
        # at its tape would form a cycle that keeps a finished tape, and
        # every activation it holds, alive until a full garbage collection
        nid = self._leaf_ids.get(id(t))
        if nid is not None:
            return nid
        nid = len(self._nodes)
        self._nodes.append(_Node((), None))
        self._leaves[nid] = t
        self._leaf_ids[id(t)] = nid
        return nid

    def _add(self, inputs, backward) -> int:
        nid = len(self._nodes)
        self._nodes.append(_Node(inputs, backward))
        return nid

    def __len__(self) -> int:
        return len(self._nodes)


def active_tape() -> Optional[Tape]:
    tapes = _state.tapes
    return tapes[-1] if tapes else None


def _record(out_data: np.ndarray, parents: Sequence[Tensor],
            backward: Callable) -> Tensor:
    tapes = _state.tapes
    tape = tapes[-1] if tapes else None
    if tape is None or not any(p.requires_grad for p in parents):
        return Tensor(out_data)
    ids = tuple(tape._ensure(p) if p.requires_grad else None for p in parents)
    out = Tensor(out_data, requires_grad=True)
    out.tape = tape
    out.node = tape._add(ids, backward)
    return out


def backward(loss: Tensor) -> None:
    """Run reverse accumulation from a scalar loss.

    Gradients are added into ``.grad`` of every contributing leaf (so
    repeated calls accumulate, which is what gradient accumulation wants).
    A leaf whose ``.grad`` is empty takes its gradient array without a
    copy when this pass owns the array outright: it is an ndarray, not a
    view, and no other leaf took it in this pass. Otherwise, as when one
    ``add`` feeds two leaves the same array, the leaf gets a copy. So no
    two leaves share a gradient array, no ``.grad`` is a view, and an
    optimizer may update a ``.grad`` in place.

    The tape is single-use. The walk drops each node once it has taken
    the node's partials, or at once if no gradient reaches it, so the
    arrays a backward closure saved are released in reverse order as the
    walk goes; at the end the tape holds no activation. A second
    ``backward`` on any loss of a consumed tape raises GraphError.
    """
    if loss.data.size != 1:
        raise GraphError(f"loss must be scalar, got shape {loss.data.shape}")
    tape = loss.tape
    if tape is None or loss.node is None:
        raise GraphError("loss is not attached to an active tape")
    if tape._consumed:
        raise GraphError("tape already consumed by an earlier backward; "
                         "record a new forward pass")
    tape._consumed = True
    nodes = tape._nodes
    grads: dict[int, np.ndarray] = {
        loss.node: np.ones_like(loss.data)
    }
    taken = set()  # ids of the arrays leaves took without a copy
    for nid in range(len(nodes) - 1, -1, -1):
        node = nodes[nid]
        nodes[nid] = None  # release the closure and the arrays it saved
        g = grads.pop(nid, None)
        if g is None:
            continue
        if node.backward is None:
            # leaf: deposit into the tensor's gradient slot
            leaf = tape._leaves[nid]
            if leaf.grad is not None:
                leaf.grad = np.asarray(leaf.grad + g)
            elif type(g) is np.ndarray and g.base is None \
                    and id(g) not in taken:
                leaf.grad = g
                taken.add(id(g))
            else:
                leaf.grad = np.array(g)
            continue
        partials = node.backward(g)
        for iid, pg in zip(node.inputs, partials):
            if iid is None or pg is None:
                continue
            acc = grads.get(iid)
            grads[iid] = pg if acc is None else acc + pg


def _unbroadcast(grad: np.ndarray, shape: tuple) -> np.ndarray:
    """Reduce a broadcast gradient back to the original operand shape."""
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad


def _broadcast(fn, a: Tensor, b: Tensor, op: str) -> np.ndarray:
    """``fn(a.data, b.data)``, with numpy's broadcasting error reported as
    a ShapeError before anything is recorded."""
    try:
        return fn(a.data, b.data)
    except ValueError:
        raise ShapeError(f"{op}: shapes {a.data.shape} and {b.data.shape} "
                         f"are not broadcast-compatible") from None


# ---------------------------------------------------------------------------
# elementwise ops


def add(a: Tensor, b: Tensor) -> Tensor:
    out = _broadcast(np.add, a, b, "add")
    sa, sb = a.data.shape, b.data.shape

    def bwd(g):
        return _unbroadcast(g, sa), _unbroadcast(g, sb)

    return _record(out, (a, b), bwd)


def sub(a: Tensor, b: Tensor) -> Tensor:
    out = _broadcast(np.subtract, a, b, "sub")
    sa, sb = a.data.shape, b.data.shape

    def bwd(g):
        return _unbroadcast(g, sa), _unbroadcast(-g, sb)

    return _record(out, (a, b), bwd)


def mul(a: Tensor, b: Tensor) -> Tensor:
    out = _broadcast(np.multiply, a, b, "mul")
    ad, bd = a.data, b.data

    def bwd(g):
        return _unbroadcast(g * bd, ad.shape), _unbroadcast(g * ad, bd.shape)

    return _record(out, (a, b), bwd)


def div(a: Tensor, b: Tensor) -> Tensor:
    ad, bd = a.data, b.data
    if (bd == 0).any():
        try:
            np.broadcast_shapes(ad.shape, bd.shape)
        except ValueError:
            raise ShapeError(f"div: shapes {ad.shape} and {bd.shape} "
                             f"are not broadcast-compatible") from None
        idx = tuple(np.argwhere(bd == 0)[0])
        raise DomainError(f"div: zero divisor at index {idx}")
    out = _broadcast(np.divide, a, b, "div")

    def bwd(g):
        return (_unbroadcast(g / bd, ad.shape),
                _unbroadcast(-g * ad / (bd * bd), bd.shape))

    return _record(out, (a, b), bwd)


def exp(a: Tensor) -> Tensor:
    out = np.exp(a.data)

    def bwd(g):
        return (g * out,)

    return _record(out, (a,), bwd)


def log(a: Tensor) -> Tensor:
    if (a.data <= 0).any():
        idx = tuple(np.argwhere(a.data <= 0)[0])
        raise DomainError(f"log: non-positive input at index {idx}")
    ad = a.data

    def bwd(g):
        return (g / ad,)

    return _record(np.log(ad), (a,), bwd)


def relu(a: Tensor) -> Tensor:
    """max(x, 0). A NaN input stays NaN; its gradient there is 0.

    The zero is a row over the last axis rather than a scalar: numpy then
    runs its vectorized two-array loop, 2 to 2.5 times faster on layer
    activations, with the bits of ``np.maximum(x, 0)``."""
    x = a.data
    out = np.maximum(x, np.zeros(x.shape[-1:], x.dtype))

    def bwd(g):
        return (g * (out > 0),)

    return _record(out, (a,), bwd)


def neg(a: Tensor) -> Tensor:
    def bwd(g):
        return (-g,)

    return _record(-a.data, (a,), bwd)


def scale(a: Tensor, c: float) -> Tensor:
    """Multiply by a python constant (no tensor allocated for c)."""
    c = float(c)

    def bwd(g):
        return (g * c,)

    return _record(a.data * c, (a,), bwd)


# ---------------------------------------------------------------------------
# matmul / reductions / softmax


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product. 2-d operands give the standard product; equal-rank
    stacked operands (e.g. heads x L x d) are multiplied batch-wise, and
    their leading axes broadcast, so a size-1 axis pairs one matrix with
    every matrix of the other operand without copying it."""
    ad, bd = a.data, b.data
    if ad.ndim < 2 or bd.ndim < 2 or ad.ndim != bd.ndim:
        raise ShapeError(f"matmul: ranks {ad.ndim} and {bd.ndim} unsupported")
    if ad.shape[-1] != bd.shape[-2] or any(
            x != y and 1 not in (x, y)
            for x, y in zip(ad.shape[:-2], bd.shape[:-2])):
        raise ShapeError(f"matmul: shapes {ad.shape} and {bd.shape} do not agree")
    sa, sb = ad.shape, bd.shape

    def bwd(g):
        return (_unbroadcast(g @ bd.swapaxes(-1, -2), sa),
                _unbroadcast(ad.swapaxes(-1, -2) @ g, sb))

    return _record(ad @ bd, (a, b), bwd)


def reduce_sum(a: Tensor, axis: Optional[int] = None, keepdims: bool = False) -> Tensor:
    if axis is not None and not -a.ndim <= axis < a.ndim:
        raise ShapeError(f"sum: axis {axis} out of range for rank {a.ndim}")
    shape = a.data.shape

    def bwd(g):
        if axis is None:
            return (np.broadcast_to(g, shape).copy(),)
        gg = g if keepdims else np.expand_dims(g, axis)
        return (np.broadcast_to(gg, shape).copy(),)

    return _record(a.data.sum(axis=axis, keepdims=keepdims), (a,), bwd)


def reduce_mean(a: Tensor, axis: Optional[int] = None, keepdims: bool = False) -> Tensor:
    if axis is not None and not -a.ndim <= axis < a.ndim:
        raise ShapeError(f"mean: axis {axis} out of range for rank {a.ndim}")
    shape = a.data.shape
    n = a.data.size if axis is None else shape[axis]

    def bwd(g):
        if axis is None:
            return (np.broadcast_to(g / n, shape).copy(),)
        gg = g if keepdims else np.expand_dims(g, axis)
        return (np.broadcast_to(gg / n, shape).copy(),)

    return _record(a.data.mean(axis=axis, keepdims=keepdims), (a,), bwd)


def softmax(a: Tensor, axis: int = -1) -> Tensor:
    """Numerically stable softmax along ``axis`` (max-subtracted)."""
    if np.isnan(a.data).any():
        raise DomainError("softmax: NaN in input")
    shifted = a.data - a.data.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    out = e / e.sum(axis=axis, keepdims=True)

    def bwd(g):
        dot = (g * out).sum(axis=axis, keepdims=True)
        return ((g - dot) * out,)

    return _record(out, (a,), bwd)


# ---------------------------------------------------------------------------
# structural ops


def concat(parts: Iterable[Tensor], axis: int = 0) -> Tensor:
    parts = list(parts)
    if not parts:
        raise ShapeError("concat: empty input list")
    shapes = [p.data.shape for p in parts]
    base = list(shapes[0])
    for s in shapes[1:]:
        if len(s) != len(base) or any(i != axis and s[i] != base[i]
                                      for i in range(len(s))):
            raise ShapeError(f"concat: incompatible shapes {shapes} on axis {axis}")
    sizes = [s[axis] for s in shapes]
    offsets = np.cumsum([0] + sizes)

    def bwd(g):
        return tuple(np.take(g, range(offsets[i], offsets[i + 1]), axis=axis)
                     for i in range(len(sizes)))

    return _record(np.concatenate([p.data for p in parts], axis=axis), parts, bwd)


def slice_axis(a: Tensor, axis: int, lo: int, hi: int) -> Tensor:
    n = a.data.shape[axis]
    if not (0 <= lo <= hi <= n):
        raise ShapeError(f"slice: range [{lo}, {hi}) invalid for axis {axis} "
                         f"of length {n}")
    index = [slice(None)] * a.ndim
    index[axis] = slice(lo, hi)
    index = tuple(index)
    shape = a.data.shape

    def bwd(g):
        full = np.zeros(shape, dtype=g.dtype)
        full[index] = g
        return (full,)

    return _record(a.data[index], (a,), bwd)


def transpose(a: Tensor, ax1: int, ax2: int) -> Tensor:
    def bwd(g):
        return (g.swapaxes(ax1, ax2),)

    return _record(a.data.swapaxes(ax1, ax2), (a,), bwd)


def reshape(a: Tensor, shape) -> Tensor:
    shape = tuple(shape)
    if int(np.prod(shape)) != a.data.size:
        raise ShapeError(f"reshape: cannot view {a.data.shape} as {shape}")
    old = a.data.shape

    def bwd(g):
        return (g.reshape(old),)

    return _record(a.data.reshape(shape), (a,), bwd)
