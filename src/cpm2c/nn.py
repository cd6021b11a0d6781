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
A ``TransformerBlock`` is one op as well, not one per layer. Its
backward follows selective activation recomputation (Korthikanti et al.
2022, arXiv:2205.05198): it keeps the matmul outputs its backward needs
and recomputes the layer norms and the attention core, so it keeps 9D
floats per row where its layers' nodes kept about 14D and the softmax
weights, and its gradients keep the composition's bits.

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


def _norm_scale(centered: np.ndarray, axis: int, eps: np.ndarray):
    """The shifted variance var + eps of centred rows over ``axis``, and
    its square root, taken as exp(0.5 * log(.)) as the composition that
    the normalizing layers replace computed it."""
    var = (centered * centered).mean(axis=axis, keepdims=True)
    shifted = var + eps
    if (shifted <= 0).any():
        idx = tuple(np.argwhere(shifted <= 0)[0])
        raise DomainError(f"log: non-positive input at index {idx}")
    return var, shifted, np.exp(np.log(shifted) * 0.5)


def _norm_backward(g, centered, shifted, denom, normed, gd, bshape,
                   axis: int):
    """The (input, gamma, beta) partials of normed * gamma + beta, with
    normed = centered / denom over ``axis``.

    The composition's chain rule step by step; the textbook closed form
    doubles the float32 error when the axis is short (4 frames).
    """
    count = centered.shape[axis]
    dn = g * gd
    t = dn * centered
    t /= denom * denom
    ddenom = -t.sum(axis=axis, keepdims=True)
    dvar = ddenom * denom * 0.5 / shifted / count
    np.multiply(dvar, centered, out=t)
    dc = dn / denom
    del dn
    dc += t
    dc += t
    del t
    dc -= dc.sum(axis=axis, keepdims=True) / count
    return dc, T._unbroadcast(g * normed, gd.shape), T._unbroadcast(g, bshape)


def _normalize(x: Tensor, gamma: Tensor, beta: Tensor, axis: int,
               eps: float):
    """(x - mean) / sqrt(var + eps) * gamma + beta over ``axis``, one node.

    The moments are biased and taken over ``axis``. Returns the output
    and the (mean, var) arrays, which batch norm folds into its running
    statistics.
    """
    xd = x.data
    mean = xd.mean(axis=axis, keepdims=True)
    centered = xd - mean
    var, shifted, denom = _norm_scale(
        centered, axis, np.asarray(eps, dtype=T.default_dtype()))
    gd, bd = gamma.data, beta.data
    out = centered / denom * gd + bd

    def bwd(g):
        return _norm_backward(g, centered, shifted, denom, centered / denom,
                              gd, bd.shape, axis)

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


def _affine(rows: np.ndarray, wd: np.ndarray, bd: np.ndarray) -> np.ndarray:
    """rows W^T + b over a 2-d block of rows, as ``Linear`` computes it."""
    out = rows @ wd.swapaxes(0, 1)
    out += bd
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
        out = _affine(xd, wd, self.bias.data)
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


def _split_heads(a: np.ndarray, batch: int, num_heads: int) -> np.ndarray:
    """(B, L, D) rows, or their (B * L, D) block -> (B, H, L, D/H)."""
    length = a.size // (batch * a.shape[-1])
    return a.reshape(batch, length, num_heads, -1).swapaxes(1, 2)


def _attend(qh, kh, vh, scale: float):
    """Softmax weights (B, H, L, L) and per-head context of split heads.

    Each head's scores are scaled by ``scale`` and softmaxed over keys.
    """
    weights = qh @ kh.swapaxes(2, 3)
    weights *= scale
    if np.isnan(weights).any():
        raise DomainError("softmax: NaN in input")
    # the row max as a loop over the few key columns: same bits as
    # weights.max(axis=-1), several times faster at these short rows
    top = weights[..., 0].copy()
    for j in range(1, weights.shape[-1]):
        np.maximum(top, weights[..., j], out=top)
    # the scores become their softmax weights in place
    weights -= top[..., None]
    np.exp(weights, out=weights)
    weights /= _row_sum(weights)
    return weights, weights @ vh


def _attend_backward(g, qh, kh, vh, weights, scale: float):
    """The split-head (q, k, v) partials of ``_attend``'s context, from
    its split-head gradient ``g``."""
    ds = g @ vh.swapaxes(-1, -2)
    ds -= _row_sum(ds * weights)
    ds *= weights
    ds *= scale
    return (ds @ kh, (qh.swapaxes(-1, -2) @ ds).swapaxes(2, 3),
            weights.swapaxes(-1, -2) @ g)


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
    batch = shape[0] if q.ndim == 3 else 1

    def merge(a):
        return a.swapaxes(1, 2).reshape(shape)

    qh, kh, vh = (_split_heads(a.data, batch, num_heads)
                  for a in (q, k, v))
    scale = 1.0 / math.sqrt(shape[-1] // num_heads)
    weights, ctx = _attend(qh, kh, vh, scale)

    def bwd(g):
        return tuple(merge(d) for d in _attend_backward(
            _split_heads(g, batch, num_heads), qh, kh, vh, weights, scale))

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
        """x + attn(ln1(x)) = h, then h + ffn2(relu(ffn1(ln2(h)))), over a
        (L, D) sequence or a (B, L, D) batch: one tape node.

        The forward runs the numpy operations of the per-layer
        composition (``tests/oracles.py``) in its order, so the output
        and every gradient have its bits. Under a tape the node keeps six
        arrays: the centred inputs of both layer norms, q, k, v and the
        ReLU output; its backward recomputes the layer-norm outputs and
        the attention core (softmax weights and context) from them,
        which runs none of the block's projections again, and drops each
        array once it is done with it. Without a tape nothing is kept, and each
        intermediate is freed no later than in the composition.
        """
        attn, ln1, ln2, ffn1, ffn2 = (self.attn, self.ln1, self.ln2,
                                      self.ffn1, self.ffn2)
        linears = (attn.query, attn.key, attn.value, attn.out, ffn1, ffn2)
        params = (ln1.gamma, ln1.beta, ln2.gamma, ln2.beta) + tuple(
            t for lin in linears for t in (lin.weight, lin.bias))
        dim = ln1.gamma.shape[0]
        if x.ndim not in (2, 3) or x.shape[-1] != dim:
            raise ShapeError(f"transformer block: input {x.shape} for "
                             f"dim {dim}")
        shape = x.shape
        batch = shape[0] if x.ndim == 3 else 1
        heads = attn.num_heads
        scale = 1.0 / math.sqrt(attn.head_dim)
        g1, b1, g2, b2 = (p.data for p in params[:4])
        (wq, bq), (wk, bk), (wv, bv), (wo, bo), (w1, fb1), (w2, fb2) = (
            (lin.weight.data, lin.bias.data) for lin in linears)
        eps1, eps2 = (np.asarray(ln.eps, dtype=T.default_dtype())
                      for ln in (ln1, ln2))
        taping = T.active_tape() is not None and any(
            t.requires_grad for t in (x,) + params)

        xd = x.data
        c1 = xd - xd.mean(axis=-1, keepdims=True)
        a = c1 / _norm_scale(c1, -1, eps1)[2] * g1 + b1
        if not taping:
            del c1
        rows = a.reshape(-1, dim)
        q, k, v = (_affine(rows, w, b)
                   for w, b in ((wq, bq), (wk, bk), (wv, bv)))
        del a, rows
        ctx = _attend(*(_split_heads(t, batch, heads) for t in (q, k, v)),
                      scale)[1]
        if not taping:
            del q, k, v
        ctx = ctx.swapaxes(1, 2).reshape(-1, dim)
        h = xd + _affine(ctx, wo, bo).reshape(shape)
        del ctx
        c2 = h - h.mean(axis=-1, keepdims=True)
        b = c2 / _norm_scale(c2, -1, eps2)[2] * g2 + b2
        if not taping:
            del c2
        r = _affine(b.reshape(-1, dim), w1, fb1)
        del b
        # the ReLU, in place, with the zero row tensor.relu takes
        np.maximum(r, np.zeros(r.shape[-1:], r.dtype), out=r)
        out = h + _affine(r, w2, fb2).reshape(shape)
        del h
        if not taping:
            return Tensor(out)
        keep = [c1, q, k, v, c2, r]
        del c1, q, k, v, c2, r

        def bwd(g):
            c1, q, k, v, c2, r = keep
            keep.clear()
            # ffn2 and the ReLU; the ReLU output goes before its
            # gradient, of the same size, is made
            gr = g.reshape(-1, dim)
            dw2, db2 = gr.swapaxes(0, 1) @ r, gr.sum(axis=0)
            mask = r > 0
            del r
            df1 = gr @ w2
            df1 *= mask
            del gr, mask
            # ffn1, on the recomputed second layer-norm output
            s2, d2 = _norm_scale(c2, -1, eps2)[1:]
            n2 = c2 / d2
            b = n2 * g2 + b2
            dw1, db1 = df1.swapaxes(0, 1) @ b.reshape(-1, dim), \
                df1.sum(axis=0)
            del b
            dn2 = (df1 @ w1).reshape(shape)
            del df1
            dx2, dg2, db2n = _norm_backward(dn2, c2, s2, d2, n2, g2,
                                            b2.shape, -1)
            del dn2, c2, s2, d2, n2
            dh = g + dx2
            del dx2
            # the output projection, on the recomputed attention core
            qh, kh, vh = (_split_heads(t, batch, heads) for t in (q, k, v))
            weights, ctx = _attend(qh, kh, vh, scale)
            ctx = ctx.swapaxes(1, 2).reshape(-1, dim)
            gh = dh.reshape(-1, dim)
            dwo, dbo = gh.swapaxes(0, 1) @ ctx, gh.sum(axis=0)
            del ctx
            dctx = _split_heads(gh @ wo, batch, heads)
            del gh
            dq, dk, dv = (d.swapaxes(1, 2).reshape(-1, dim)
                          for d in _attend_backward(dctx, qh, kh, vh,
                                                    weights, scale))
            del dctx, qh, kh, vh, weights, q, k, v
            # q, k and v, on the recomputed first layer-norm output; the
            # gradient of that output adds v's, k's then q's partial
            s1, d1 = _norm_scale(c1, -1, eps1)[1:]
            n1 = c1 / d1
            rows = (n1 * g1 + b1).reshape(-1, dim)
            da = dv @ wv
            da += dk @ wk
            da += dq @ wq
            dwq, dwk, dwv = (d.swapaxes(0, 1) @ rows for d in (dq, dk, dv))
            dbq, dbk, dbv = (d.sum(axis=0) for d in (dq, dk, dv))
            del rows, dq, dk, dv
            dx, dg1, db1n = _norm_backward(da.reshape(shape), c1, s1, d1,
                                           n1, g1, b1.shape, -1)
            dx += dh
            return (dx, dg1, db1n, dg2, db2n, dwq, dbq, dwk, dbk, dwv, dbv,
                    dwo, dbo, dw1, db1, dw2, db2)

        return T._record(out, (x,) + params, bwd)


class BatchNorm(Module):
    """Batch normalization over the frame axis of a T x D stack.

    Batched (B, T, D) input is normalized per sequence, matching a loop
    over the individual (T, D) stacks; running statistics then track the
    average of the per-sequence moments. An (E, B, T, D) input is the
    batches of E episodes: each episode's moments fold into the running
    statistics in turn, in episode order, as E calls would fold them.
    The running statistics are updated in place.
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
        for ep_mean, ep_var in (zip(mean, var) if x.ndim == 4
                                else [(mean, var)]):
            batch_mean = ep_mean.reshape(-1, dim).mean(axis=0)
            batch_var = ep_var.reshape(-1, dim).mean(axis=0)
            self.running_mean[...] = ((1 - m) * self.running_mean
                                      + m * batch_mean)
            self.running_var[...] = ((1 - m) * self.running_var
                                     + m * correction * batch_var)
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
