"""Neural layers and the Adam optimizer, built on the tensor module.

Every layer is a ``Module`` and names its state once, in checkpoint
order, in its ``_state`` tuple: ``Tensor`` leaves are the trainable
parameters, plain arrays are persistent buffers (batch-norm running
statistics), and sub-modules nest under their attribute names.
``Module.named_state`` walks that tuple and ``named_parameters`` keeps
its ``Tensor`` entries. Checkpoints serialize ``named_state`` into a
flat binary format.

Each layer's forward is one tape op (see ``tensor._record``): plain
numpy forward, one node, and a hand-written backward. The forwards run
the numpy operations of the primitive-op compositions they replace in
the same order, so their outputs are bit-identical to those
compositions; ``tests/oracles.py`` keeps the compositions as references.

A layer draws its initial weights, in the default dtype, from the
``rng`` it is given: a ``data.KeyedStream``, which the model passes and
which fills each array slab by slab in place, or a numpy ``Generator``,
which tests may pass.
"""

from __future__ import annotations

import math
import struct
from typing import Optional

import numpy as np

from . import tensor as T
from .data import KeyedStream
from .errors import CheckpointError, DomainError, NumericalError, ShapeError
from .tensor import Tensor


def _join(prefix: str, name: str) -> str:
    return name if not prefix else f"{prefix}.{name}"


class Module:
    """A layer whose parameters, buffers and sub-modules are the
    attributes its ``_state`` names, in checkpoint order."""

    _state: tuple = ()

    def named_state(self, prefix: str = ""):
        """(name, value) for every parameter and buffer, depth first."""
        out = []
        for attr in self._state:
            value = getattr(self, attr)
            name = _join(prefix, attr)
            if isinstance(value, (Tensor, np.ndarray)):
                out.append((name, value))
            else:
                out.extend(value.named_state(name))
        return out

    def named_parameters(self, prefix: str = ""):
        """The ``Tensor`` entries of ``named_state``, in its order."""
        return [(name, value) for name, value in self.named_state(prefix)
                if isinstance(value, Tensor)]


def _normalize(x: Tensor, gamma: Tensor, beta: Tensor, axis: int,
               eps: float):
    """(x - mean) / sqrt(var + eps) * gamma + beta over ``axis``, one node.

    The moments are biased and taken over ``axis``. The square root is
    exp(0.5 * log(.)), which is what the composition this replaces
    computed. Returns the output and the (mean, var) arrays, which batch
    norm folds into its running statistics.
    """
    xd = x.data
    mean = xd.mean(axis=axis, keepdims=True)
    centered = xd - mean
    var = (centered * centered).mean(axis=axis, keepdims=True)
    shifted = var + np.asarray(eps, dtype=T.default_dtype())
    if (shifted <= 0).any():
        idx = tuple(np.argwhere(shifted <= 0)[0])
        raise DomainError(f"log: non-positive input at index {idx}")
    denom = np.exp(np.log(shifted) * 0.5)
    normed = centered / denom
    gd, bd = gamma.data, beta.data
    out = normed * gd + bd
    count = xd.shape[axis]

    def bwd(g):
        # the composition's chain rule step by step; the textbook closed
        # form doubles the float32 error when the axis is short (4 frames)
        dn = g * gd
        ddenom = -(dn * centered / (denom * denom)).sum(axis=axis,
                                                         keepdims=True)
        dvar = ddenom * denom * 0.5 / shifted / count
        dc = dn / denom + dvar * centered + dvar * centered
        dx = dc - dc.sum(axis=axis, keepdims=True) / count
        return (dx, T._unbroadcast(g * normed, gd.shape),
                T._unbroadcast(g, bd.shape))

    return T._record(out, (x, gamma, beta), bwd), mean, var


def _uniform_init(rng, bound: float, shape) -> np.ndarray:
    """A default-dtype array uniform on [-bound, bound)."""
    out = np.empty(shape, T.default_dtype())
    if isinstance(rng, KeyedStream):
        rng.fill_uniform(out, -bound, bound)
    else:
        out[...] = rng.uniform(-bound, bound, shape)
    return out


def _normal_init(rng, std: float, shape) -> np.ndarray:
    """A default-dtype array of normals with mean 0 and deviation ``std``."""
    out = np.empty(shape, T.default_dtype())
    if isinstance(rng, KeyedStream):
        rng.fill_normal(out, std)
    else:
        out[...] = rng.normal(0.0, std, shape)
    return out


class Linear(Module):
    """Affine map y = x W^T + b over the last axis."""

    _state = ("weight", "bias")

    def __init__(self, in_dim: int, out_dim: int, rng):
        bound = 1.0 / math.sqrt(in_dim)
        self.weight = Tensor(_uniform_init(rng, bound, (out_dim, in_dim)),
                             requires_grad=True)
        self.bias = Tensor(_uniform_init(rng, bound, out_dim),
                           requires_grad=True)

    @classmethod
    def zeros(cls, in_dim: int, out_dim: int) -> "Linear":
        """Zero-initialized layer (used for residual output projections)."""
        layer = cls.__new__(cls)
        layer.weight = T.zeros((out_dim, in_dim), requires_grad=True)
        layer.bias = T.zeros(out_dim, requires_grad=True)
        return layer

    def forward(self, x: Tensor) -> Tensor:
        """(..., in) -> (..., out); leading axes fold into one row axis."""
        if x.ndim < 2:
            raise ShapeError(f"linear: rank {x.ndim} input")
        if x.shape[-1] != self.weight.shape[1]:
            raise ShapeError(f"linear: input dim {x.shape[-1]} != "
                             f"{self.weight.shape[1]}")
        shape = x.shape
        xd = x.data.reshape(-1, shape[-1]) if x.ndim > 2 else x.data
        wd = self.weight.data
        out = xd @ wd.swapaxes(0, 1)
        out += self.bias.data
        need_x = x.requires_grad

        def bwd(g):
            g = g.reshape(-1, g.shape[-1])
            dx = (g @ wd).reshape(shape) if need_x else None
            # g^T x is a fresh C-contiguous array, so the weight leaf
            # takes it without a copy
            return dx, g.swapaxes(0, 1) @ xd, g.sum(axis=0)

        return T._record(out.reshape(shape[:-1] + (wd.shape[0],)),
                         (x, self.weight, self.bias), bwd)


class LayerNorm(Module):
    """Normalization over the last axis with learnable scale and shift."""

    _state = ("gamma", "beta")

    def __init__(self, dim: int, eps: float = 1e-5):
        self.gamma = T.ones(dim, requires_grad=True)
        self.beta = T.zeros(dim, requires_grad=True)
        self.eps = eps

    def forward(self, x: Tensor) -> Tensor:
        return _normalize(x, self.gamma, self.beta, -1, self.eps)[0]


def _row_sum(a: np.ndarray) -> np.ndarray:
    """``a.sum(axis=-1, keepdims=True)`` with the same bits, as column adds
    in numpy's pairwise order, several times faster at short rows: below
    8 columns, one running sum from column 0; from 8 to 128, 8 partial
    sums over the whole blocks of 8, combined as a tree, then the tail
    columns in order. Longer rows, which numpy splits recursively, go
    to ``sum`` itself."""
    n = a.shape[-1]
    if n > 128 or n < 2:
        return a.sum(axis=-1, keepdims=True)
    if n < 8:
        total = a[..., 0] + a[..., 1]
        tail = range(2, n)
    else:
        blocks = n - n % 8
        p = [a[..., j] for j in range(8)]
        for i in range(8, blocks, 8):
            p = [p[j] + a[..., i + j] for j in range(8)]
        total = ((p[0] + p[1]) + (p[2] + p[3])) + ((p[4] + p[5])
                                                   + (p[6] + p[7]))
        tail = range(blocks, n)
    for j in tail:
        total += a[..., j]
    return total[..., None]


def attention(q: Tensor, k: Tensor, v: Tensor, num_heads: int):
    """Multi-head scaled dot-product attention over projected inputs.

    ``q``, ``k`` and ``v`` are (L, D) or (B, L, D). Heads are split off
    the feature axis, each head's scores are scaled by 1/sqrt(D/H) and
    softmaxed over keys, and the per-head contexts are merged back to the
    input's shape. One tape node; returns the context and the softmax
    weights as an array, (B, H, L, L), or (H, L, L) for 2-d input.
    """
    if q.ndim not in (2, 3) or not q.shape == k.shape == v.shape:
        raise ShapeError(f"attention: shapes {q.shape}, {k.shape}, "
                         f"{v.shape} do not agree")
    shape = q.shape
    length, dim = shape[-2], shape[-1]
    batch = shape[0] if q.ndim == 3 else 1
    head_dim = dim // num_heads

    def split(a):
        # (B, L, D) -> (B, H, L, d)
        return a.reshape(batch, length, num_heads, head_dim).swapaxes(1, 2)

    def merge(a):
        return a.swapaxes(1, 2).reshape(shape)

    qh, kh, vh = split(q.data), split(k.data), split(v.data)
    scale = 1.0 / math.sqrt(head_dim)
    scores = (qh @ kh.swapaxes(2, 3)) * scale
    if np.isnan(scores).any():
        raise DomainError("softmax: NaN in input")
    # the row max as a loop over the few key columns: same bits as
    # scores.max(axis=-1), several times faster at these short rows
    top = scores[..., 0].copy()
    for j in range(1, length):
        np.maximum(top, scores[..., j], out=top)
    e = np.exp(scores - top[..., None])
    weights = e / _row_sum(e)
    ctx = weights @ vh

    def bwd(g):
        g = g.reshape(batch, length, num_heads, head_dim).swapaxes(1, 2)
        dw = g @ vh.swapaxes(-1, -2)
        ds = (dw - _row_sum(dw * weights)) * weights
        ds = ds * scale
        return (merge(ds @ kh),
                merge((qh.swapaxes(-1, -2) @ ds).swapaxes(2, 3)),
                merge(weights.swapaxes(-1, -2) @ g))

    out = T._record(merge(ctx), (q, k, v), bwd)
    return out, (weights if q.ndim == 3 else weights[0])


class MultiHeadAttention(Module):
    """Scaled dot-product attention over an L x D sequence.

    The output projection starts at zero so the enclosing residual block
    is the identity at initialization.
    """

    _state = ("query", "key", "value", "out")

    def __init__(self, dim: int, num_heads: int, rng):
        if dim % num_heads != 0:
            raise ShapeError(f"attention: dim {dim} not divisible by "
                             f"{num_heads} heads")
        self.dim = dim
        self.num_heads = num_heads
        self.head_dim = dim // num_heads
        self.query = Linear(dim, dim, rng)
        self.key = Linear(dim, dim, rng)
        self.value = Linear(dim, dim, rng)
        self.out = Linear.zeros(dim, dim)

    def forward(self, x: Tensor, return_weights: bool = False):
        """Self-attention over a (L, D) sequence or a (B, L, D) batch.

        With ``return_weights`` the softmax weights come back too, as a
        Tensor off the tape: (H, L, L) for a sequence, (B, H, L, L) for a
        batch.
        """
        ctx, weights = attention(self.query.forward(x), self.key.forward(x),
                                 self.value.forward(x), self.num_heads)
        out = self.out.forward(ctx)
        if return_weights:
            return out, Tensor(weights)
        return out


class TransformerBlock(Module):
    """Pre-norm residual block: attention then a two-layer ReLU FFN.

    Zero-initialized output projections make the whole block the identity
    map at initialization, so early training is dominated by the token
    and positional signal rather than attention noise.
    """

    _state = ("ln1", "attn", "ln2", "ffn1", "ffn2")

    def __init__(self, dim: int, num_heads: int = 8,
                 ffn_hidden: Optional[int] = None,
                 rng=None):
        rng = rng if rng is not None else KeyedStream(0)
        hidden = ffn_hidden if ffn_hidden is not None else 4 * dim
        self.ln1 = LayerNorm(dim)
        self.attn = MultiHeadAttention(dim, num_heads, rng)
        self.ln2 = LayerNorm(dim)
        self.ffn1 = Linear(dim, hidden, rng)
        self.ffn2 = Linear.zeros(hidden, dim)

    def forward(self, x: Tensor) -> Tensor:
        h = T.add(x, self.attn.forward(self.ln1.forward(x)))
        return T.add(h, self.ffn2.forward(T.relu(self.ffn1.forward(self.ln2.forward(h)))))


class BatchNorm(Module):
    """Batch normalization over the frame axis of a T x D stack.

    Batched (B, T, D) input is normalized per sequence, matching a loop
    over the individual (T, D) stacks; running statistics then track the
    average of the per-sequence moments.
    """

    _state = ("gamma", "beta", "running_mean", "running_var")

    def __init__(self, dim: int, momentum: float = 0.1, eps: float = 1e-5):
        self.gamma = T.ones(dim, requires_grad=True)
        self.beta = T.zeros(dim, requires_grad=True)
        self.momentum = momentum
        self.eps = eps
        self.running_mean = np.zeros(dim, dtype=np.float32)
        self.running_var = np.ones(dim, dtype=np.float32)

    def forward(self, x: Tensor, train: bool = False) -> Tensor:
        if not train:
            return self._eval_forward(x)
        out, mean, var = _normalize(x, self.gamma, self.beta, -2, self.eps)
        n = x.shape[-2]
        correction = n / (n - 1) if n > 1 else 1.0
        m = self.momentum
        dim = self.running_mean.shape[0]
        batch_mean = mean.reshape(-1, dim).mean(axis=0)
        batch_var = var.reshape(-1, dim).mean(axis=0)
        self.running_mean = ((1 - m) * self.running_mean
                             + m * batch_mean).astype(self.running_mean.dtype)
        self.running_var = ((1 - m) * self.running_var
                            + m * correction * batch_var).astype(
            self.running_var.dtype)
        return out

    def _eval_forward(self, x: Tensor) -> Tensor:
        """(x - running mean) / sqrt(running var + eps) * gamma + beta, one
        node: the four numpy ops of the sub/div/mul/add composition it
        replaces, and that composition's gradients bit for bit."""
        dtype = T.default_dtype()
        mean = np.asarray(self.running_mean, dtype=dtype)
        denom = np.asarray(np.sqrt(self.running_var + self.eps), dtype=dtype)
        gd = self.gamma.data
        normed = (x.data - mean) / denom
        out = normed * gd + self.beta.data
        lead = tuple(range(x.ndim - 1))

        def bwd(g):
            return (g * gd) / denom, (g * normed).sum(axis=lead), \
                g.sum(axis=lead)

        return T._record(out, (x, self.gamma, self.beta), bwd)


class PhiStack(Module):
    """Per-frame pointwise transform: (linear, batch-norm, ReLU) blocks.

    Operates on a T x D stack frame-wise; batch statistics are taken over
    the T axis. With zero blocks the stack is the exact identity, in train
    and in eval mode. Block i's entries are named ``block{i}.linear`` and
    ``block{i}.bn``, so the stack lists its state itself.
    """

    def __init__(self, dim: int, blocks: int = 2,
                 rng=None):
        rng = rng if rng is not None else KeyedStream(0)
        self.linears = [Linear(dim, dim, rng) for _ in range(blocks)]
        self.norms = [BatchNorm(dim) for _ in range(blocks)]

    def forward(self, x: Tensor, train: bool = False) -> Tensor:
        for lin, bn in zip(self.linears, self.norms):
            x = T.relu(bn.forward(lin.forward(x), train=train))
        return x

    def named_state(self, prefix: str = ""):
        out = []
        for i, (lin, bn) in enumerate(zip(self.linears, self.norms)):
            out.extend(lin.named_state(_join(prefix, f"block{i}.linear")))
            out.extend(bn.named_state(_join(prefix, f"block{i}.bn")))
        return out


class PositionalEmbedding(Module):
    """Learnable position table added before the transformer."""

    _state = ("table",)

    def __init__(self, length: int, dim: int, rng):
        self.table = Tensor(_normal_init(rng, 0.02, (length, dim)),
                            requires_grad=True)

_ADAM_BLOCK = 1 << 16     # elements; a float32 block is 256 KiB


class Adam:
    """Adam with bias correction over a fixed list of named parameters.

    Updates happen in place: each parameter keeps its array object and
    dtype, and so do the moment estimates. The elementwise operations are
    the textbook formula's, in its order, so results are bit for bit those
    of the out-of-place form (``tests/oracles.py::reference_adam_step``).
    A parameter is updated in blocks of rows of about ``_ADAM_BLOCK``
    elements, so that each block's operations run in cache.
    """

    def __init__(self, named_params, lr: float = 1e-5, beta1: float = 0.9,
                 beta2: float = 0.999, eps: float = 1e-8):
        self.named = list(named_params)
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.step_count = 0
        self._m = {n: np.zeros_like(p.data) for n, p in self.named}
        self._v = {n: np.zeros_like(p.data) for n, p in self.named}

    def step(self) -> None:
        """Apply one update from the gradients currently held by the params.

        The whole step aborts (no parameter or moment touched) if any
        gradient is non-finite, naming the offending parameter. A NaN
        carries into both the maximum and the minimum, and an infinity
        into one of them, so the check needs no boolean array.
        """
        for name, p in self.named:
            g = p.grad
            if g is not None and g.size and not (
                    np.isfinite(g.max()) and np.isfinite(g.min())):
                raise NumericalError(f"non-finite gradient for parameter {name!r}")
        self.step_count += 1
        t = self.step_count
        c1, c2 = 1 - self.beta1 ** t, 1 - self.beta2 ** t
        for name, p in self.named:
            if p.grad is None:
                continue
            # 0-d arrays become 1-element views, so the row blocks below
            # write through to them
            g, m, v, w = np.atleast_1d(p.grad, self._m[name], self._v[name],
                                       p.data)
            rows = max(1, _ADAM_BLOCK // max(1, math.prod(w.shape[1:])))
            s = np.empty((min(rows, len(w)),) + w.shape[1:], w.dtype)
            r = np.empty_like(s)
            for lo in range(0, len(w), rows):
                hi = min(lo + rows, len(w))
                self._update(g[lo:hi], m[lo:hi], v[lo:hi], w[lo:hi],
                             s[:hi - lo], r[:hi - lo], c1, c2)

    def _update(self, g, m, v, w, s, r, c1, c2) -> None:
        """w -= lr * (m / c1) / (sqrt(v / c2) + eps) after the moment
        updates, in place; ``s`` and ``r`` are scratch."""
        b1, b2 = self.beta1, self.beta2
        # m = b1 * m + (1 - b1) * g
        np.multiply(g, 1 - b1, out=s)
        np.multiply(m, b1, out=m)
        np.add(m, s, out=m)
        # v = b2 * v + (1 - b2) * (g * g)
        np.multiply(g, g, out=s)
        np.multiply(s, 1 - b2, out=s)
        np.multiply(v, b2, out=v)
        np.add(v, s, out=v)
        # w = w - lr * (m / c1) / (sqrt(v / c2) + eps)
        np.divide(m, c1, out=s)
        np.multiply(s, self.lr, out=s)
        np.divide(v, c2, out=r)
        np.sqrt(r, out=r)
        np.add(r, self.eps, out=r)
        np.divide(s, r, out=s)
        np.subtract(w, s, out=w)

    def zero_grad(self) -> None:
        for _, p in self.named:
            p.grad = None


# ---------------------------------------------------------------------------
# checkpoint serialization

CHECKPOINT_MAGIC = b"CPM2C\x00"
CHECKPOINT_VERSION = 1


def _entry_array(obj) -> np.ndarray:
    return obj.data if isinstance(obj, Tensor) else np.asarray(obj)


def save_checkpoint(path, named_state) -> None:
    """Write parameters and buffers as a flat little-endian binary file."""
    entries = list(named_state)
    with open(path, "wb") as fh:
        fh.write(CHECKPOINT_MAGIC)
        fh.write(struct.pack("<II", CHECKPOINT_VERSION, len(entries)))
        for name, obj in entries:
            arr = _entry_array(obj)
            encoded = name.encode("utf-8")
            fh.write(struct.pack("<I", len(encoded)))
            fh.write(encoded)
            fh.write(struct.pack("<I", arr.ndim))
            for d in arr.shape:
                fh.write(struct.pack("<I", d))
            fh.write(np.ascontiguousarray(arr, dtype="<f4").tobytes())


def load_checkpoint(path) -> dict:
    """Read a checkpoint file into an ordered name -> float32 array map."""
    try:
        with open(path, "rb") as fh:
            blob = fh.read()
    except OSError as exc:
        raise CheckpointError(f"cannot read checkpoint: {exc}") from None
    if blob[:len(CHECKPOINT_MAGIC)] != CHECKPOINT_MAGIC:
        raise CheckpointError(f"{path}: bad magic, not a checkpoint file")
    off = len(CHECKPOINT_MAGIC)

    def u32():
        nonlocal off
        if off + 4 > len(blob):
            raise CheckpointError(f"{path}: truncated header")
        val = struct.unpack_from("<I", blob, off)[0]
        off += 4
        return val

    version = u32()
    if version != CHECKPOINT_VERSION:
        raise CheckpointError(f"{path}: unsupported version {version}")
    count = u32()
    out = {}
    for _ in range(count):
        name_len = u32()
        try:
            name = blob[off:off + name_len].decode("utf-8")
        except UnicodeDecodeError:
            raise CheckpointError(f"{path}: entry name at byte {off} is not "
                                  f"UTF-8") from None
        off += name_len
        rank = u32()
        shape = tuple(u32() for _ in range(rank))
        # Python integers: a corrupt shape must not wrap around in int64
        n = math.prod(shape)
        end = off + 4 * n
        if end > len(blob):
            raise CheckpointError(f"{path}: truncated payload for {name!r}")
        out[name] = np.frombuffer(blob[off:end], dtype="<f4").reshape(shape).copy()
        off = end
    if off != len(blob):
        raise CheckpointError(f"{path}: {len(blob) - off} trailing bytes")
    return out


def apply_state(named_state, loaded: dict) -> None:
    """Copy loaded arrays into live parameters/buffers, verifying layout.

    All mismatches (missing names, unexpected names, wrong shapes) are
    collected and reported together.
    """
    entries = list(named_state)
    problems = []
    want = {name for name, _ in entries}
    have = set(loaded)
    for name in sorted(want - have):
        problems.append(f"missing from checkpoint: {name}")
    for name in sorted(have - want):
        problems.append(f"unexpected in checkpoint: {name}")
    for name, obj in entries:
        if name not in loaded:
            continue
        arr = loaded[name]
        target = _entry_array(obj)
        if arr.shape != target.shape:
            problems.append(f"shape mismatch for {name}: checkpoint "
                            f"{arr.shape}, model {target.shape}")
    if problems:
        raise CheckpointError("checkpoint incompatible: " + "; ".join(problems))
    for name, obj in entries:
        arr = loaded[name]
        if isinstance(obj, Tensor):
            obj.data = arr.astype(obj.data.dtype)
        else:
            np.copyto(obj, arr.astype(obj.dtype))
