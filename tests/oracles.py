"""Reference implementations kept only for the tests to compare against.

The package runs one episode path: batched enhancement
(``cpm.feature_enhance_batch``) into one prototype-to-probability tail
(``model._branch_costs`` per branch, then ``model._outcomes``). Each
function here is an earlier or a per-item form of a piece of that path,
and the tests hold the package to it.

``stack_token_frames``, ``feature_enhance``, ``query_feature``,
``build_prototype``, ``consistency_loss``, ``combined_distance`` and
``classify`` are the episode pipeline one video, and one
prototype/query pair, at a time, built from primitive tape ops
(``broadcast_repeat`` tiles a tensor along a new axis).
``model.score_episodes`` must reproduce their probabilities, and
``model.episode_forward`` their consistency loss, to rounding.
``reverse_sensitivity_check`` runs ``motion.motion_features`` on a clip
and on its time reversal.

The ``taped_*`` glue functions are the per-episode arithmetic between
the fused layers as compositions of primitive tape ops:
``taped_cost_matrix``, ``taped_motion_features`` (everything after Phi),
``taped_branch_pass`` (the real/fake split, consistency sum, prototype
mean and token-row drops), ``taped_similarity`` (the alpha-weighted,
negated branch-cost sum), ``taped_task_loss`` and ``taped_total_loss``;
``list_dam_loss`` pools each video of a list on its own. Each fused op
must reproduce its composition's forward bit for bit and its gradients
to rounding. ``_frame_rows`` drops the token row of enhanced stacks.

``taped_otam_distance`` is the soft-alignment DP recorded cell by cell on
the autodiff tape: every soft-min is built from tape ops, so its gradient
comes from replaying them. ``metric.otam_distance`` must reproduce its
forward bit for bit and its gradient to rounding.
``diagonal_major_dp`` and ``diagonal_major_dp_backward`` are the fused
DP kernel as it stood with the batch on the short axis of each
anti-diagonal, every row of a diagonal computed, and a sentinel-padded
copy of the input. ``metric._soft_dp`` and ``metric._soft_dp_backward``
must reproduce their costs, live-cell weights and gradients bit for bit.

The ``taped_*_forward`` functions are the layers as compositions of
primitive tape ops, with the signatures of the methods they stand in
for; ``taped_stack_token_frames_batch`` is the same for the token stack.
Each fused layer op must reproduce its composition's forward bit for bit
and its gradients to rounding. ``patch_layer_oracles`` swaps them all
in, so a whole model can run on the compositions, and counts their
calls; ``count_layer_calls`` counts the fused layers' calls alike.

``per_episode_scores`` scores one episode without losses the way
evaluation did before it scored episodes in blocks: every video is
enhanced again for every episode, and each episode gets its own
transformer, cost-matrix and DP calls. ``model.score_episodes`` must
reproduce its probabilities bit for bit. ``eval_fake_tokens`` draws an
episode's eval-mode fake tokens one video at a time, each from its own
keyed stream in a call of its own, where the package draws a batch of
videos in one call; ``training_fake_tokens`` draws the training tokens from
the episode's stream and puts them in canonical video order.

``per_episode_losses`` is the loss path as it stood before every episode
pass shared one tail: each branch enhances the videos in two transformer
calls, one under the real and one under the fake tokens,
``pair_distances`` copies each prototype and each query once per pair
with ``broadcast_repeat``, the probability matrix is sliced row by row,
``list_task_loss`` takes the true-class entry of each row in a
per-query loop, and the glue runs on the compositions above. ``model.episode_forward`` must reproduce
its probabilities bit for bit, its loss parts to rounding and its
gradients to rounding.

``transposed_weight_grad``, ``reference_adam_step`` and ``where_relu``
are the out-of-place forms of the linear weight gradient, the Adam
update and relu that the training step used to run. ``nn.Linear``'s
backward, ``nn.Adam.step`` and ``tensor.relu`` must match them bit for
bit (relu on finite input).
"""

import math
from collections import Counter

import numpy as np

from cpm2c import cpm, metric, model, nn, objective, tensor as T
from cpm2c.errors import DomainError, NumericalError, ProtocolError, \
    ShapeError
from cpm2c.metric import BIG
from cpm2c.motion import motion_features
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


def taped_otam_distance(C: Tensor, gamma: float = 0.1) -> Tensor:
    """Same contract as ``metric.otam_distance`` on one matrix or a
    (B, m, n) batch, recorded cell by cell."""
    single = C.ndim == 2
    if single:
        C = T.reshape(C, (1,) + C.shape)
    dist = _soft_dp(C, gamma)
    return T.reshape(dist, ()) if single else dist


def diagonal_major_dp(X: np.ndarray, gamma: float, keep_weights: bool):
    """``metric._soft_dp`` with the table kept diagonal-major: anti-diagonal
    k is a (B, m) slab, every row of it computed, and costs are read from
    a sentinel-padded skewed copy of X. Weights, when kept, are
    (K, 3, B, m); the weights of cells off the matrix are computed too."""
    batch, m, n = X.shape
    diagonals = m + n - 1
    rows, cols = np.indices((m, n))
    # skewed[k, :, i] is cell (i, k - i) of anti-diagonal k
    skewed = np.full((diagonals, batch, m), BIG, X.dtype)
    skewed[rows + cols, :, rows] = X.transpose(1, 2, 0)
    # R[k + 1, :, i + 1] is the path cost of cell (i, k - i); R[0] (a
    # virtual diagonal -1) and column 0 (a virtual row -1) stay sentinels
    R = np.full((diagonals + 1, batch, m + 1), BIG, X.dtype)
    R[1, :, 1:] = skewed[0]
    W = (np.empty((diagonals, 3, batch, m), X.dtype) if keep_weights
         else None)
    inv = 1.0 / gamma
    cand = np.empty((3, batch, m), X.dtype)
    for k in range(1, diagonals):
        cand[0] = R[k, :, 1:]
        cand[1] = R[k, :, :-1]
        cand[2] = R[k - 1, :, :-1]
        z = np.minimum(np.minimum(cand[0], cand[1]), cand[2])
        e = np.exp((z - cand) * inv)
        total = e[0] + e[1] + e[2]
        R[k + 1, :, 1:] = skewed[k] + (z - np.log(total) * gamma)
        if W is not None:
            np.divide(e, total, out=W[k])
    return R[diagonals, :, m].copy(), W


def diagonal_major_dp_backward(W: np.ndarray, g: np.ndarray,
                               shape) -> np.ndarray:
    """``metric._soft_dp_backward`` over ``diagonal_major_dp``'s weights:
    E, laid out like its R, passes E * W from every cell, on the matrix
    or off it, to its three predecessors."""
    batch, m, n = shape
    diagonals = m + n - 1
    E = np.zeros((diagonals + 1, batch, m + 1), W.dtype)
    E[diagonals, :, m] = g
    for k in range(diagonals - 1, 0, -1):
        e = E[k + 1, :, 1:]
        E[k, :, 1:] += e * W[k, 0]
        E[k, :, :-1] += e * W[k, 1]
        E[k - 1, :, :-1] += e * W[k, 2]
    rows, cols = np.indices((m, n))
    return E[rows + cols + 1, :, rows + 1].transpose(2, 0, 1)


# ---------------------------------------------------------------------------
# layers as primitive-op compositions


def _sqrt(x: Tensor) -> Tensor:
    """Differentiable square root of a strictly positive tensor."""
    return T.exp(T.scale(T.log(x), 0.5))


def taped_linear_forward(self: nn.Linear, x: Tensor) -> Tensor:
    if x.shape[-1] != self.weight.shape[1]:
        raise ShapeError(f"linear: input dim {x.shape[-1]} != "
                         f"{self.weight.shape[1]}")
    shape = x.shape
    if len(shape) > 2:
        x = T.reshape(x, (int(np.prod(shape[:-1])), shape[-1]))
    out = T.add(T.matmul(x, T.transpose(self.weight, 0, 1)), self.bias)
    if len(shape) > 2:
        out = T.reshape(out, shape[:-1] + (self.weight.shape[0],))
    return out


def taped_layernorm_forward(self: nn.LayerNorm, x: Tensor) -> Tensor:
    mean = T.reduce_mean(x, axis=-1, keepdims=True)
    centered = T.sub(x, mean)
    var = T.reduce_mean(T.mul(centered, centered), axis=-1, keepdims=True)
    denom = _sqrt(T.add(var, Tensor(self.eps)))
    return T.add(T.mul(T.div(centered, denom), self.gamma), self.beta)


def taped_attention_forward(self: nn.MultiHeadAttention, x: Tensor,
                            return_weights: bool = False):
    single = x.ndim == 2
    if single:
        x = T.reshape(x, (1,) + x.shape)
    batch, length = x.shape[0], x.shape[1]

    def split(t):
        # (B, L, D) -> (B, H, L, d)
        return T.transpose(T.reshape(
            t, (batch, length, self.num_heads, self.head_dim)), 1, 2)

    q = split(self.query.forward(x))
    k = split(self.key.forward(x))
    v = split(self.value.forward(x))
    scores = T.scale(T.matmul(q, T.transpose(k, 2, 3)),
                     1.0 / math.sqrt(self.head_dim))
    weights = T.softmax(scores, axis=-1)
    ctx = T.matmul(weights, v)                       # (B, H, L, d)
    merged = T.reshape(T.transpose(ctx, 1, 2), (batch, length, self.dim))
    out = self.out.forward(merged)
    if single:
        out = T.reshape(out, (length, self.dim))
    if return_weights:
        if single:
            weights = T.reshape(weights, (self.num_heads, length, length))
        return out, weights
    return out


def taped_batchnorm_forward(self: nn.BatchNorm, x: Tensor,
                            train: bool = False) -> Tensor:
    if train:
        mean = T.reduce_mean(x, axis=-2, keepdims=True)
        centered = T.sub(x, mean)
        var = T.reduce_mean(T.mul(centered, centered), axis=-2, keepdims=True)
        n = x.shape[-2]
        correction = n / (n - 1) if n > 1 else 1.0
        m = self.momentum
        dim = self.running_mean.shape[0]
        batch_mean = mean.data.reshape(-1, dim).mean(axis=0)
        batch_var = var.data.reshape(-1, dim).mean(axis=0)
        self.running_mean = ((1 - m) * self.running_mean
                             + m * batch_mean).astype(self.running_mean.dtype)
        self.running_var = ((1 - m) * self.running_var
                            + m * correction * batch_var).astype(
            self.running_var.dtype)
        denom = _sqrt(T.add(var, Tensor(self.eps)))
        normed = T.div(centered, denom)
    else:
        denom = np.sqrt(self.running_var + self.eps)
        normed = T.div(T.sub(x, Tensor(self.running_mean)), Tensor(denom))
    return T.add(T.mul(normed, self.gamma), self.beta)


def broadcast_repeat(a: Tensor, axis: int, n: int) -> Tensor:
    """Insert a new axis at ``axis`` and tile the input ``n`` times along
    it; the gradient sums over the inserted axis."""
    out = np.repeat(np.expand_dims(a.data, axis), n, axis=axis)

    def bwd(g):
        return (g.sum(axis=axis),)

    return T._record(out, (a,), bwd)


def taped_stack_token_frames_batch(tokens: Tensor, frames: Tensor,
                                   table: Tensor) -> Tensor:
    if tokens.ndim != 2 or frames.ndim != 3 or \
            tokens.shape[0] != frames.shape[0] or \
            tokens.shape[1] != frames.shape[2]:
        raise ShapeError(f"tokens {tokens.shape} do not match frames "
                         f"{frames.shape}")
    batch, n, dim = frames.shape
    conditioned = T.add(broadcast_repeat(tokens, 1, n), frames)
    stacked = T.concat([T.reshape(tokens, (batch, 1, dim)), conditioned],
                       axis=1)
    return T.add(stacked, table)


# (name, owner, attribute, composition) of every fused layer entry point
_LAYER_ORACLES = (
    ("linear", nn.Linear, "forward", taped_linear_forward),
    ("layernorm", nn.LayerNorm, "forward", taped_layernorm_forward),
    ("attention", nn.MultiHeadAttention, "forward", taped_attention_forward),
    ("batchnorm", nn.BatchNorm, "forward", taped_batchnorm_forward),
    ("stack", cpm, "stack_token_frames_batch",
     taped_stack_token_frames_batch),
)


def _counted(fn, counts: Counter, name: str):
    def call(*args, **kwargs):
        counts[name] += 1
        return fn(*args, **kwargs)
    return call


def count_layer_calls(monkeypatch) -> Counter:
    """Count the calls of every layer that ``patch_layer_oracles``
    replaces, by layer name, from here on."""
    counts = Counter()
    for name, owner, attr, _ in _LAYER_ORACLES:
        monkeypatch.setattr(owner, attr,
                            _counted(getattr(owner, attr), counts, name))
    return counts


def patch_layer_oracles(monkeypatch) -> Counter:
    """Run every layer on its primitive-op composition from here on.
    Returns the count of each composition's calls by layer name, which
    grows as they run."""
    counts = Counter()
    for name, owner, attr, oracle in _LAYER_ORACLES:
        monkeypatch.setattr(owner, attr, _counted(oracle, counts, name))
    return counts


# ---------------------------------------------------------------------------
# the per-episode glue as primitive-op compositions


def _frame_rows(enhanced: Tensor) -> Tensor:
    """Drop the token row of an (L, D) enhanced sequence or of each
    sequence of a (..., L, D) batch: alignment sees frames only."""
    axis = enhanced.ndim - 2
    return T.slice_axis(enhanced, axis, 1, enhanced.shape[axis])


def taped_cost_matrix(a: Tensor, b: Tensor) -> Tensor:
    """Same contract as ``metric.cost_matrix``, from primitive ops."""
    if a.shape[-1] != b.shape[-1] or a.ndim != b.ndim:
        raise ShapeError(f"cost_matrix: shapes {a.shape} and {b.shape} "
                         f"do not pair")
    for name, x in (("a", a), ("b", b)):
        sq = (np.asarray(x.data) ** 2).sum(axis=-1)
        if (sq == 0).any():
            idx = tuple(np.argwhere(sq == 0)[0])
            raise DomainError(f"cost_matrix: zero-norm row {idx} in {name}")
    dots = T.matmul(a, T.transpose(b, -1, -2))
    na = _sqrt(T.reduce_sum(T.mul(a, a), axis=-1, keepdims=True))
    nb = T.transpose(_sqrt(T.reduce_sum(T.mul(b, b), axis=-1,
                                        keepdims=True)), -1, -2)
    return T.sub(Tensor(1.0), T.div(dots, T.matmul(na, nb)))


def taped_motion_features(phi: nn.PhiStack, frames: Tensor,
                          train: bool = False) -> Tensor:
    """Same contract as ``motion.motion_features``: Phi, then slices,
    differences, global means and the average as primitive ops."""
    axis = frames.ndim - 2
    length = frames.shape[axis]
    transformed = phi.forward(frames, train=train)
    head = T.slice_axis(frames, axis, 0, length - 1)     # f^t
    tail = T.slice_axis(frames, axis, 1, length)         # f^{t+1}
    phi_head = T.slice_axis(transformed, axis, 0, length - 1)
    phi_tail = T.slice_axis(transformed, axis, 1, length)
    back = T.sub(head, phi_tail)
    fwd = T.sub(tail, phi_head)
    global_back = T.reduce_mean(back, axis=axis, keepdims=True)
    global_fwd = T.reduce_mean(fwd, axis=axis, keepdims=True)
    return T.scale(T.add(T.add(back, global_back), T.add(fwd, global_fwd)),
                   0.5)


def taped_branch_pass(branch, frames, tokens, n, k):
    """Same contract as ``model._branch_pass``: the real/fake split, the
    consistency sum, the prototype mean and the token-row drops as
    primitive ops on the one enhancement call."""
    support = n * k
    total = frames.shape[0]
    both = cpm.feature_enhance_batch(branch, T.concat([frames, frames]),
                                     Tensor(tokens))
    real = T.slice_axis(both, 0, 0, total)
    fake = T.slice_axis(both, 0, total, 2 * total)
    diff = T.sub(fake, real)
    con = T.reduce_sum(T.mul(diff, diff))
    real_support = T.slice_axis(real, 0, 0, support)
    fake_query = T.slice_axis(fake, 0, support, total)
    seq, dim = real_support.shape[1], real_support.shape[2]
    protos = T.reduce_mean(T.reshape(real_support, (1, n, k, seq, dim)),
                           axis=2)
    q = total - support
    protos = T.reshape(_frame_rows(protos), (1, 1, n, seq - 1, dim))
    queries = T.reshape(_frame_rows(T.reshape(fake_query, (1, q, seq, dim))),
                        (1, q, 1, seq - 1, dim))
    return protos, queries, con, real.size


def taped_task_loss(probabilities: Tensor, true_indices,
                    floor: float = 1e-12) -> Tensor:
    """Same contract as ``objective.task_loss``: a one-hot product picks
    the true-class entries, and the clamp is relu(p - floor) + floor."""
    queries, num_classes = probabilities.shape
    onehot = np.zeros((queries, num_classes))
    onehot[np.arange(queries), np.asarray(true_indices)] = 1.0
    picked = T.reduce_sum(T.mul(probabilities, Tensor(onehot)), axis=-1)
    clamped = int((picked.data < floor).sum())
    if clamped:
        with objective._clamp_lock:
            objective._clamp_count += clamped
    picked = T.add(T.relu(T.sub(picked, Tensor(floor))), Tensor(floor))
    return T.neg(T.scale(T.reduce_sum(T.log(picked)), 1.0 / queries))


def taped_total_loss(adapt: Tensor, task: Tensor, consistency: Tensor,
                     cfg) -> Tensor:
    """Same contract as ``objective.total_loss``, from scale and add."""
    return T.add(T.add(T.scale(adapt, cfg.lam_adapt),
                       T.scale(task, cfg.lam_task)),
                 T.scale(consistency, cfg.lam_consistency))


def taped_similarity(dists, names, alpha: float) -> Tensor:
    """The negated alpha-weighted sum of the branches' alignment costs
    that ``model._tail`` feeds its softmax, from scale, add and neg."""
    total = None
    for dist, name in zip(dists, names):
        if name == "motion":
            dist = T.scale(dist, alpha)
        total = dist if total is None else T.add(total, dist)
    return T.neg(total)


def list_dam_loss(video_frames, prompt_bank, true_indices,
                  temperature) -> Tensor:
    """``objective.dam_loss`` over a list of (T, D) frame tensors, each
    video pooled by its own mean."""
    videos = list(video_frames)
    if len(videos) != len(true_indices):
        raise ShapeError(f"{len(videos)} videos vs {len(true_indices)} labels")
    bank = np.asarray(prompt_bank)
    reps = T.concat([T.reshape(T.reduce_mean(f, axis=0), (1, bank.shape[1]))
                     for f in videos], axis=0)              # (V, D)
    norms = np.sqrt((bank.astype(np.float64) ** 2).sum(axis=1))
    dots = T.matmul(reps, Tensor(bank.T))
    rep_norm = _sqrt(T.reduce_sum(T.mul(reps, reps), axis=1, keepdims=True))
    cos = T.div(dots, T.matmul(rep_norm, Tensor(norms.reshape(1, -1))))
    temp = temperature if isinstance(temperature, Tensor) \
        else Tensor(float(temperature))
    probs = T.softmax(T.div(cos, temp), axis=-1)
    onehot = np.zeros(probs.shape)
    onehot[np.arange(len(videos)), np.asarray(true_indices)] = 1.0
    picked = T.reduce_sum(T.mul(probs, Tensor(onehot)), axis=-1)
    return T.neg(T.reduce_mean(T.log(picked)))


# ---------------------------------------------------------------------------
# the episode pipeline one video at a time


def stack_token_frames(token: Tensor, frames: Tensor) -> Tensor:
    """One video's token stack: row 0 is the token, row r is
    token + frames[r-1]."""
    conditioned = T.add(broadcast_repeat(token, 0, frames.shape[0]), frames)
    return T.concat([T.reshape(token, (1, token.shape[0])), conditioned],
                    axis=0)


def feature_enhance(branch: cpm.CpmBranch, frames: Tensor,
                    token: Tensor) -> Tensor:
    """One video's enhanced features: the transformer over its token stack
    plus positions."""
    stacked = T.add(stack_token_frames(token, frames), branch.pos.table)
    return branch.transformer.forward(stacked)


def query_feature(branch: cpm.CpmBranch, frames: Tensor,
                  fake: np.ndarray) -> Tensor:
    """Enhancement under a fake token: the query path."""
    return feature_enhance(branch, frames, Tensor(fake))


def consistency_loss(reals, fakes) -> Tensor:
    """Sum over the pairs of the squared-L2 gap between fake and real
    enhanced features."""
    total = None
    for real, fake in zip(reals, fakes):
        diff = T.sub(fake, real)
        term = T.reduce_sum(T.mul(diff, diff))
        total = term if total is None else T.add(total, term)
    return total


def build_prototype(real_supports) -> Tensor:
    """Elementwise mean of the K real-token enhanced support features."""
    feats = list(real_supports)
    total = feats[0]
    for f in feats[1:]:
        total = T.add(total, f)
    return T.scale(total, 1.0 / len(feats))


def combined_distance(normal_s, normal_q, motion_s, motion_q, alpha: float,
                      gamma: float = 0.1) -> Tensor:
    """Similarity of one prototype and one query: the negated sum of the
    normal alignment cost and alpha times the motion one, token rows
    dropped. An absent branch passes None for both its features."""
    total = None
    if normal_s is not None:
        total = metric.otam_distance(metric.cost_matrix(
            _frame_rows(normal_s), _frame_rows(normal_q)), gamma)
    if motion_s is not None:
        dm = T.scale(metric.otam_distance(metric.cost_matrix(
            _frame_rows(motion_s), _frame_rows(motion_q)), gamma), alpha)
        total = dm if total is None else T.add(total, dm)
    return T.neg(total)


def classify(query, prototypes, alpha: float, gamma: float = 0.1) -> Tensor:
    """Class probabilities of one (normal, motion) query: a softmax over
    its similarities to each (normal, motion) prototype."""
    normal_q, motion_q = query
    sims = [combined_distance(proto_n, normal_q, proto_m, motion_q, alpha,
                              gamma)
            for proto_n, proto_m in prototypes]
    stacked = T.concat([T.reshape(s, (1,)) for s in sims], axis=0)
    return T.softmax(stacked, axis=-1)


def reverse_sensitivity_check(phi: nn.PhiStack, frames: Tensor,
                              train: bool = False):
    """Motion of the sequence and of its time reversal."""
    forward = motion_features(phi, frames, train=train)
    backward = motion_features(phi, Tensor(frames.data[::-1].copy()),
                               train=train)
    return forward, backward


# ---------------------------------------------------------------------------
# per-episode scoring and losses


def pair_distances(protos: Tensor, queries: Tensor, gamma: float) -> Tensor:
    """Alignment cost of every query against every prototype -> (Q, N).

    All Q x N cost matrices run through one batched DP; entry (q, c) uses
    prototype rows as the first alignment axis.
    """
    n, lp, dim = protos.shape
    q, lq = queries.shape[0], queries.shape[1]
    pe = T.reshape(broadcast_repeat(protos, 0, q), (q * n, lp, dim))
    qe = T.reshape(broadcast_repeat(queries, 1, n), (q * n, lq, dim))
    dists = metric.otam_distance(taped_cost_matrix(pe, qe), gamma)
    return T.reshape(dists, (q, n))


def eval_fake_tokens(mdl: model.Model, run_seed: int, videos, branch: str):
    """The (V, D) eval-mode fake tokens of ``videos``: one keyed stream
    per video and branch, one row drawn from each."""
    return np.stack([cpm.fake_token(mdl.dim, run_seed,
                                    [cpm.video_key(rec.video_id)], 1,
                                    branch)[0, 0] for rec in videos])


def training_fake_tokens(mdl: model.Model, run_seed: int,
                         episode_index: int, episode, branch: str):
    """The (V, D) training fake tokens of an episode in canonical video
    order: the episode's stream holds the queries' rows first."""
    support = episode.way * episode.shot
    queries = episode.way * episode.queries_per_class
    rows = cpm.fake_token(mdl.dim, run_seed, [episode_index],
                          support + queries, branch)[0]
    return np.concatenate([rows[queries:], rows[:queries]])


def per_episode_scores(mdl: model.Model, episode, cfg):
    """Same contract as ``score_episodes(mdl, [episode], cfg)[0]``, one
    episode at a time: the supports under their real tokens and the
    queries under their fake tokens, one pass each per branch."""
    n, k = episode.way, episode.shot
    used = model.PRESETS[cfg.preset]
    frames_np, prompts_np, labels = model._episode_frames(episode)
    total = frames_np.shape[0]
    support = n * k
    frames = Tensor(frames_np)
    query_videos = [rec for recs in episode.query for rec in recs]

    def branch_cost(branch, branch_frames, name):
        fakes = eval_fake_tokens(mdl, cfg.seed, query_videos, name)
        real = cpm.feature_enhance_batch(
            branch, T.slice_axis(branch_frames, 0, 0, support),
            Tensor(prompts_np[:support]))
        queries = cpm.feature_enhance_batch(
            branch, T.slice_axis(branch_frames, 0, support, total),
            Tensor(fakes))
        seq, dim = real.shape[1], real.shape[2]
        protos = T.reduce_mean(T.reshape(real, (n, k, seq, dim)), axis=1)
        return pair_distances(_frame_rows(protos), _frame_rows(queries),
                              cfg.gamma)

    total_cost = None
    if "normal" in used:
        total_cost = branch_cost(mdl.normal, frames, "normal")
    if "motion" in used:
        dists = T.scale(branch_cost(mdl.motion,
                                    taped_motion_features(mdl.phi, frames),
                                    "motion"), cfg.alpha)
        total_cost = dists if total_cost is None else T.add(total_cost, dists)
    probs = np.asarray(T.softmax(T.neg(total_cost), axis=-1).data).copy()
    predictions = probs.argmax(axis=1)
    return model.EpisodeResult(probs, predictions, labels,
                               int((predictions == labels).sum()))


def list_task_loss(probabilities, true_indices,
                   floor: float = 1e-12) -> Tensor:
    """``objective.task_loss`` over a list of per-query probability
    vectors, one slice, clamp and log per query."""
    probs = list(probabilities)
    if len(probs) != len(true_indices):
        raise ShapeError(f"{len(probs)} probability vectors vs "
                         f"{len(true_indices)} labels")
    if not probs:
        raise ShapeError("task_loss: no queries")
    total = None
    clamped = 0
    for vec, idx in zip(probs, true_indices):
        if not 0 <= idx < vec.shape[0]:
            raise ShapeError(f"label {idx} outside {vec.shape[0]} classes")
        p = T.slice_axis(vec, 0, idx, idx + 1)
        if float(p.data[0]) < floor:
            clamped += 1
        p = T.add(T.relu(T.sub(p, Tensor(floor))), Tensor(floor))
        term = T.log(p)
        total = term if total is None else T.add(total, term)
    if clamped:
        with objective._clamp_lock:
            objective._clamp_count += clamped
    return T.neg(T.scale(T.reshape(total, ()), 1.0 / len(probs)))


def _branch_pass(branch, frames, real_tokens, fake_tokens, n, k):
    """One branch's videos under both tokens: (N, L, D) prototypes and
    (Q, L, D) fake-token queries, token rows kept, and the consistency
    sum and element count."""
    support = n * k
    total = frames.shape[0]
    real = cpm.feature_enhance_batch(branch, frames, Tensor(real_tokens))
    fake = cpm.feature_enhance_batch(branch, frames, Tensor(fake_tokens))
    diff = T.sub(fake, real)
    con = T.reduce_sum(T.mul(diff, diff))
    real_support = T.slice_axis(real, 0, 0, support)
    fake_query = T.slice_axis(fake, 0, support, total)
    seq, dim = real_support.shape[1], real_support.shape[2]
    protos = T.reduce_mean(T.reshape(real_support, (n, k, seq, dim)), axis=1)
    return protos, fake_query, con, real.size


def per_episode_losses(mdl: model.Model, episode, cfg, *,
                       episode_index: int, bank=None, train: bool = False):
    """Same contract as ``model.episode_forward``, on the earlier loss
    path: per-pair copies, a row slice per query and the per-query task
    loss."""
    n, k, p = episode.way, episode.shot, episode.queries_per_class
    used = model.PRESETS[cfg.preset]
    frames_np, prompts_np, labels = model._episode_frames(episode)
    frames = Tensor(frames_np)
    videos = [rec for recs in episode.support + episode.query
              for rec in recs]

    def fake_tokens(branch):
        if train:
            return training_fake_tokens(mdl, cfg.seed, episode_index,
                                        episode, branch)
        return eval_fake_tokens(mdl, cfg.seed, videos, branch)

    total_cost = None
    con_sum, con_numel = None, 0
    if "normal" in used:
        fakes = fake_tokens("normal")
        protos, queries, con_sum, con_numel = _branch_pass(
            mdl.normal, frames, prompts_np, fakes, n, k)
        total_cost = pair_distances(_frame_rows(protos),
                                    _frame_rows(queries), cfg.gamma)
    if "motion" in used:
        motion_frames = taped_motion_features(mdl.phi, frames, train=train)
        fakes = fake_tokens("motion")
        protos, queries, con, numel = _branch_pass(
            mdl.motion, motion_frames, prompts_np, fakes, n, k)
        dists = T.scale(pair_distances(_frame_rows(protos),
                                       _frame_rows(queries), cfg.gamma),
                        cfg.alpha)
        total_cost = dists if total_cost is None else T.add(total_cost, dists)
        con_sum = con if con_sum is None else T.add(con_sum, con)
        con_numel += numel

    probs = T.softmax(T.neg(total_cost), axis=-1)
    probs_np = np.asarray(probs.data)
    predictions = probs_np.argmax(axis=1)
    result = model.EpisodeResult(probs_np.copy(), predictions, labels,
                                 int((predictions == labels).sum()))

    rows = [T.reshape(T.slice_axis(probs, 0, i, i + 1), (n,))
            for i in range(probs.shape[0])]
    task = list_task_loss(rows, labels)
    consistency = con_sum
    if cfg.consistency_reduction == "mean":
        consistency = T.scale(consistency, 1.0 / con_numel)
    if bank is not None:
        bank_ids, bank_matrix = bank
        positions = {cid: i for i, cid in enumerate(bank_ids)}
        try:
            video_truth = [positions[episode.class_ids[c]]
                           for c in range(n) for _ in range(k)]
            video_truth += [positions[episode.class_ids[c]]
                            for c in range(n) for _ in range(p)]
        except KeyError as exc:
            raise ProtocolError(f"episode class {exc.args[0]} missing from "
                                f"the prompt bank") from None
        adapt = list_dam_loss([Tensor(f) for f in frames_np], bank_matrix,
                              video_truth, mdl.temperature())
    else:
        adapt = Tensor(0.0)
    result.loss = taped_total_loss(adapt, task, consistency, cfg)
    result.parts = {"adapt": float(adapt.data),
                    "task": float(task.data),
                    "consistency": float(consistency.data),
                    "total": float(result.loss.data)}
    return result


# ---------------------------------------------------------------------------
# training-step arithmetic in its out-of-place form


def transposed_weight_grad(x: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Linear's weight gradient as (x^T g)^T: an F-ordered view."""
    return (x.swapaxes(0, 1) @ g).swapaxes(0, 1)


def reference_adam_step(opt: nn.Adam) -> None:
    """One Adam step on ``opt``'s parameters, allocating every
    intermediate and rebinding the parameter and moment arrays."""
    for name, p in opt.named:
        if p.grad is not None and not np.isfinite(p.grad).all():
            raise NumericalError(f"non-finite gradient for parameter {name!r}")
    opt.step_count += 1
    t = opt.step_count
    for name, p in opt.named:
        g = p.grad
        if g is None:
            continue
        m = opt._m[name] = opt.beta1 * opt._m[name] + (1 - opt.beta1) * g
        v = opt._v[name] = (opt.beta2 * opt._v[name]
                            + (1 - opt.beta2) * (g * g))
        m_hat = m / (1 - opt.beta1 ** t)
        v_hat = v / (1 - opt.beta2 ** t)
        p.data = p.data - opt.lr * m_hat / (np.sqrt(v_hat) + opt.eps)


def where_relu(a: Tensor) -> Tensor:
    """relu as np.where(x > 0, x, 0): a NaN input becomes 0."""
    mask = a.data > 0

    def bwd(g):
        return (g * mask,)

    return T._record(np.where(mask, a.data, 0), (a,), bwd)
