"""Full few-shot model: two enhancement branches over one episode.

The normal branch enhances raw frame stacks, the motion branch enhances
motion-compensated difference sequences, and both contribute soft
alignment costs to the query-vs-prototype similarity. Every episode
pass ends in one tail, ``_tail``: per branch, one cost-matrix call on
broadcast prototype/query operands and one DP call, then the
alpha-weighted sum, a softmax over classes and the ``EpisodeResult``s.

``episode_forward`` computes the losses of one episode. Each branch
enhances every video under the real and under the fake tokens in one
transformer call over twice the videos, so each shared weight gets its
gradient from one product. Each layer, the DP, the cost matrix, the
motion arithmetic after Phi, each of a branch's three reads of its
enhanced stacks (prototypes, queries, consistency), the branch-cost
sum and each loss record one tape node, so a 5-way 1-shot episode
records under 100.

Fake tokens come from one keyed stream per episode and branch, one row
per video (``cpm.fake_token``). The stream holds the queries' rows
first, so ``score_episodes``, which needs only those, draws a prefix.

``score_episodes`` is the only path that scores without losses, and it
never updates the model. In eval mode a support video's real-token
features depend on nothing but the video and its class prompt, so each
distinct support video is enhanced once per call and per branch. Queries
are scored in fixed blocks of episodes (``map_blocks``, which evaluation
with losses shares): per block and branch, one Phi pass, one fake-token
enhancement pass, one cost-matrix call and one DP call.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import cpm, metric, objective, tensor as T
from .data import EpisodeBatch, keyed_rng
from .errors import ConfigError, ProtocolError
from .motion import motion_features
from .nn import PhiStack, _join
from .objective import LossWeights
from .tensor import Tensor

_INIT_TAG = 8

# the adaptation temperature a model starts from
_INIT_TEMPERATURE = 0.1

# attention heads of each branch's transformer; the feature dim must be a
# multiple of this
HEADS = 8

# Episodes per ``map_blocks`` block, and the most support videos that
# ``score_episodes`` enhances in one pass. On 5-way 5-shot evaluation at
# dim 64, blocks of 8 to 32 episodes and chunks of 32 to 256 videos all
# ran at about the same speed, and a single block of 200 episodes ran
# slower. The smallest of these sizes hold the transient memory of a
# call to about 2 MiB above scoring one episode at a time, most of it
# the kept support features.
_BLOCK_EPISODES = 8
_SUPPORT_CHUNK = 32


@dataclass(frozen=True)
class Ablation:
    """Which distance branches an experiment keeps."""

    use_normal: bool = True
    use_motion: bool = True

    def __post_init__(self):
        if not (self.use_normal or self.use_motion):
            raise ConfigError("at least one branch must stay enabled")


class Model:
    """Both branches, the motion transform, and the learned temperature.

    The normal branch runs on sequences of length ``frames`` plus the
    token row; the motion branch on length ``frames - 1`` plus the token
    row. Each branch's transformer has ``HEADS`` attention heads and a
    4 * dim wide FFN, and Phi has two blocks. The
    adaptation temperature is parameterized in log space so it stays
    positive under unconstrained updates; it starts at
    ``_INIT_TEMPERATURE``.
    """

    def __init__(self, dim: int, frames: int, seed: int = 0):
        if frames < 2:
            raise ConfigError(f"model needs at least 2 frames, got {frames}")
        self.dim = dim
        self.frames = frames
        self.normal = cpm.CpmBranch(frames + 1, dim, HEADS,
                                    rng=keyed_rng(seed, _INIT_TAG, 0))
        self.motion = cpm.CpmBranch(frames, dim, HEADS,
                                    rng=keyed_rng(seed, _INIT_TAG, 1))
        self.phi = PhiStack(dim, 2, rng=keyed_rng(seed, _INIT_TAG, 2))
        self.log_temperature = Tensor(math.log(_INIT_TEMPERATURE),
                                      requires_grad=True)

    def temperature(self) -> Tensor:
        return T.exp(self.log_temperature)

    def named_parameters(self, prefix: str = ""):
        out = self.normal.named_parameters(_join(prefix, "normal"))
        out += self.motion.named_parameters(_join(prefix, "motion"))
        out += self.phi.named_parameters(_join(prefix, "phi"))
        out.append((_join(prefix, "log_temperature"), self.log_temperature))
        return out

    def named_state(self, prefix: str = ""):
        out = self.normal.named_state(_join(prefix, "normal"))
        out += self.motion.named_state(_join(prefix, "motion"))
        out += self.phi.named_state(_join(prefix, "phi"))
        out.append((_join(prefix, "log_temperature"), self.log_temperature))
        return out


@dataclass
class EpisodeResult:
    """Outcome of one episode pass."""

    probabilities: np.ndarray        # (Q, N), each row sums to 1
    predictions: np.ndarray          # (Q,) argmax, ties to lowest index
    true_labels: np.ndarray          # (Q,) episode class indices
    correct: int
    loss: Optional[Tensor] = None    # weighted total, None without losses
    parts: dict = field(default_factory=dict)  # float value per term


def _episode_frames(episode: EpisodeBatch):
    """Stacked frames, class prompts and labels in canonical video order.

    Videos are ordered support-first, class-major: all K supports of
    episode class 0, ..., then all P queries of class 0, ... The position
    in this order is the video index that keys fake tokens.
    """
    frames, prompts = [], []
    for recs in episode.support:
        frames.extend(rec.features() for rec in recs)
    for recs in episode.query:
        frames.extend(rec.features() for rec in recs)
    for c in range(episode.way):
        prompts.extend([episode.prompts[c]] * episode.shot)
    for c in range(episode.way):
        prompts.extend([episode.prompts[c]] * episode.queries_per_class)
    labels = np.repeat(np.arange(episode.way), episode.queries_per_class)
    return np.stack(frames), np.stack(prompts), labels


def _fake_tokens(dim, run_seed, episode_index, support, queries, branch):
    """The (support + queries, dim) fake tokens of one episode and branch
    in canonical video order. The keyed stream holds the queries' rows
    first, so scoring, which needs only those, draws a prefix of it."""
    rows = cpm.fake_token(dim, run_seed, episode_index, support + queries,
                          branch)
    return np.concatenate([rows[queries:], rows[:queries]])


def _branches(model: Model, ablation: Ablation):
    """(name, branch) of every branch the ablation keeps, normal first."""
    return [(name, branch) for name, branch, used in (
        ("normal", model.normal, ablation.use_normal),
        ("motion", model.motion, ablation.use_motion)) if used]


def _similarity(dists, names, alpha: float) -> Tensor:
    """The negated sum of the branches' alignment costs, the motion
    branch's weighted by alpha: one tape node."""
    weights = [alpha if name == "motion" else None for name in names]
    total = None
    for dist, weight in zip(dists, weights):
        term = dist.data if weight is None else dist.data * weight
        total = term if total is None else total + term

    def bwd(g):
        back = -g
        return tuple(back if weight is None else back * weight
                     for weight in weights)

    return T._record(-total, dists, bwd)


def _tail(pairs, gamma: float, alpha: float, way: int,
          queries_per_class: int):
    """(name, prototypes, queries) per used branch, normal first ->
    the (E, Q, N) probability tensor and one EpisodeResult per episode.

    Prototypes are (E, 1, N, L, D) and queries (E, Q, 1, L, D) frame
    rows: the cost call broadcasts them into every pair without copies,
    with prototype rows as the first alignment axis."""
    dists = [metric.otam_distance(metric.cost_matrix(protos, queries), gamma)
             for _, protos, queries in pairs]
    sims = _similarity(dists, [name for name, _, _ in pairs], alpha)
    probs = T.softmax(sims, axis=-1)
    labels = np.repeat(np.arange(way), queries_per_class)
    results = []
    for episode_probs in probs.data:
        predictions = episode_probs.argmax(axis=1)
        results.append(EpisodeResult(
            episode_probs.copy(), predictions, labels,
            int((predictions == labels).sum())))
    return probs, results


def _branch_pass(branch, frames, tokens, n, k, train):
    """Enhance one branch's V videos under both tokens in one call.

    The transformer runs over 2V stacks: the frames under the real
    tokens, then the same frames under the fake tokens (``tokens`` holds
    both, in that order). Three tape nodes read the result: the
    (1, 1, N, L-1, D) prototypes, the mean of each class's real-token
    supports; the (1, Q, 1, L-1, D) fake-token queries; and the sum of
    squared real/fake differences. Token rows are dropped from the
    first two. Returns those three and the consistency element count.
    """
    total = frames.shape[0]
    support = n * k
    both = cpm.feature_enhance_batch(branch, T.concat([frames, frames]),
                                     Tensor(tokens), train=train)
    bd = both.data
    length, dim = bd.shape[1], bd.shape[2]
    rows = (length - 1, dim)

    def protos_bwd(g):
        full = np.zeros(bd.shape, g.dtype)
        full[:support].reshape(n, k, length, dim)[:, :, 1:] = \
            g.reshape((n, 1) + rows) / k
        return (full,)

    # the same mean over the K supports as score_episodes takes
    protos = bd[:support].reshape(n, k, length, dim).mean(axis=1)
    protos = T._record(protos[:, 1:].reshape((1, 1, n) + rows), (both,),
                       protos_bwd)

    def queries_bwd(g):
        full = np.zeros(bd.shape, g.dtype)
        full[total + support:, 1:] = g.reshape((-1,) + rows)
        return (full,)

    queries = bd[total + support:, 1:]
    queries = T._record(queries.reshape((1, len(queries), 1) + rows),
                        (both,), queries_bwd)

    diff = bd[total:] - bd[:total]               # fake minus real

    def con_bwd(g):
        step = g * diff
        step = step + step
        return (np.concatenate([-step, step]),)

    con = T._record((diff * diff).sum(), (both,), con_bwd)
    return protos, queries, con, diff.size


def episode_forward(model: Model, episode: EpisodeBatch, *, run_seed: int,
                    episode_index: int, weights: LossWeights = LossWeights(),
                    gamma: float = 0.1, alpha: float = 1.0,
                    ablation: Ablation = Ablation(), bank=None, train: bool = False,
                    consistency_reduction: str = "sum") -> EpisodeResult:
    """Run one episode through the full pipeline, losses included.

    ``bank`` is the (class ids, prompt matrix) pair from the training
    split; when given, the adaptation loss scores every episode video
    against the whole bank. Queries classify through their fake-token
    features; support prototypes come from real-token features. Scoring
    without losses is ``score_episodes``.
    """
    if alpha < 0:
        raise ConfigError(f"motion weight alpha must be >= 0, got {alpha}")
    if consistency_reduction not in ("sum", "mean"):
        raise ConfigError(f"unknown reduction {consistency_reduction!r}")
    n, k, p = episode.way, episode.shot, episode.queries_per_class
    frames_np, prompts_np, labels = _episode_frames(episode)
    frames = Tensor(frames_np)

    pairs = []
    con_sum, con_numel = None, 0
    for name, branch in _branches(model, ablation):
        branch_frames = frames if name == "normal" else \
            motion_features(model.phi, frames, train=train)
        fakes = _fake_tokens(model.dim, run_seed, episode_index, n * k,
                             n * p, name)
        protos, queries, con, numel = _branch_pass(
            branch, branch_frames, np.concatenate([prompts_np, fakes]), n,
            k, train)
        pairs.append((name, protos, queries))
        con_sum = con if con_sum is None else T.add(con_sum, con)
        con_numel += numel
    probs, (result,) = _tail(pairs, gamma, alpha, n, p)

    task = objective.task_loss(T.reshape(probs, (n * p, n)), labels)
    consistency = con_sum
    if consistency_reduction == "mean":
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
        adapt = objective.dam_loss(frames, bank_matrix, video_truth,
                                   model.temperature())
    else:
        adapt = Tensor(0.0)
    result.loss = objective.total_loss(adapt, task, consistency, weights)
    result.parts = {"adapt": float(adapt.data),
                    "task": float(task.data),
                    "consistency": float(consistency.data),
                    "total": float(result.loss.data)}
    return result


# ---------------------------------------------------------------------------
# scoring without losses


def map_blocks(fn, count: int, workers: int = 1) -> list:
    """The lists ``fn(lo, hi)`` returns for the fixed blocks of
    ``_BLOCK_EPISODES`` covering ``range(count)``, joined in block order.
    ``workers`` threads map over the blocks under the caller's precision;
    the result does not depend on ``workers``."""
    dtype = T.default_dtype().__name__

    def block(lo: int):
        with T.precision(dtype):         # worker threads start in float32
            return fn(lo, min(lo + _BLOCK_EPISODES, count))

    starts = range(0, count, _BLOCK_EPISODES)
    if workers == 1:
        blocks = [block(lo) for lo in starts]
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            blocks = list(pool.map(block, starts))
    return [res for results in blocks for res in results]


def _enhance(model: Model, name: str, branch, frames: np.ndarray,
             tokens: np.ndarray) -> np.ndarray:
    """Eval-mode enhanced features of a video batch, token row dropped;
    the motion branch first runs the frames through ``motion_features``."""
    x = Tensor(frames)
    if name == "motion":
        x = motion_features(model.phi, x)
    return cpm.feature_enhance_batch(branch, x, Tensor(tokens)).data[:, 1:]


def _support_features(model: Model, episodes, branches):
    """Enhance every distinct support video of ``episodes`` once per branch.

    A support video is identified by its class and video id. Returns the
    (E, N*K) row of each episode's supports, in canonical order, and per
    branch name a (V, L-1, D) array of real-token features. The distinct
    videos are split into near-equal chunks of at most
    ``_SUPPORT_CHUNK``, so no pass is much smaller than the others.
    """
    rows: dict = {}
    frames, prompts, index = [], [], []
    for ep in episodes:
        episode_rows = []
        for c in range(ep.way):
            for rec in ep.support[c]:
                key = (ep.class_ids[c], rec.video_id)
                if key not in rows:
                    rows[key] = len(frames)
                    frames.append(rec.features())
                    prompts.append(ep.prompts[c])
                episode_rows.append(rows[key])
        index.append(episode_rows)
    count = len(frames)
    chunks = np.array_split(np.arange(count), -(-count // _SUPPORT_CHUNK))
    features = {}
    for name, branch in branches:
        out = None
        for chunk in chunks:
            lo, hi = chunk[0], chunk[-1] + 1
            feats = _enhance(model, name, branch, np.stack(frames[lo:hi]),
                             np.stack(prompts[lo:hi]))
            if out is None:
                out = np.empty((count,) + feats.shape[1:], feats.dtype)
            out[lo:hi] = feats
        features[name] = out
    return np.asarray(index), features


def _score_block(model: Model, episodes, indices, support_rows,
                 support, branches, run_seed: int, gamma: float,
                 alpha: float):
    """Score a block of same-shaped episodes against their prototypes."""
    n, k, p = episodes[0].way, episodes[0].shot, episodes[0].queries_per_class
    count, q = len(episodes), n * p
    frames = np.stack([rec.features() for ep in episodes
                       for recs in ep.query for rec in recs])
    pairs = []
    for name, branch in branches:
        # the queries' rows lead each episode's token stream
        tokens = np.concatenate([cpm.fake_token(model.dim, run_seed, index,
                                                q, name)
                                 for index in indices])
        queries = _enhance(model, name, branch, frames, tokens)
        length, dim = queries.shape[1], queries.shape[2]
        # the same mean over the K supports as the loss path takes
        protos = support[name][support_rows].reshape(count * n, k, length,
                                                     dim).mean(axis=1)
        pairs.append((name,
                      Tensor(protos.reshape(count, 1, n, length, dim)),
                      Tensor(queries.reshape(count, q, 1, length, dim))))
    return _tail(pairs, gamma, alpha, n, p)[1]


def score_episodes(model: Model, episodes, indices, *, run_seed: int,
                   gamma: float = 0.1, alpha: float = 1.0,
                   ablation: Ablation = Ablation(),
                   workers: int = 1) -> list:
    """Class probabilities of every episode, in eval mode, without losses.

    ``episodes`` share one way/shot/queries shape; ``indices`` are their
    episode indices, which key the queries' fake tokens exactly as
    ``episode_forward`` does. Each distinct support video is enhanced
    once per branch, then ``map_blocks`` scores the episodes in fixed
    blocks on ``workers`` threads. Each episode's probabilities equal
    ``episode_forward``'s in eval mode bit for bit, except where BLAS
    picks another kernel for the block's larger batches, which moves
    only the last bits. Returns one EpisodeResult per episode, in order.
    The model is never updated, and nothing is kept after the call.
    """
    if alpha < 0:
        raise ConfigError(f"motion weight alpha must be >= 0, got {alpha}")
    episodes, indices = list(episodes), list(indices)
    if len(episodes) != len(indices):
        raise ProtocolError(f"{len(episodes)} episodes but "
                            f"{len(indices)} episode indices")
    if not episodes:
        return []
    if len({(ep.way, ep.shot, ep.queries_per_class)
            for ep in episodes}) > 1:
        raise ProtocolError("episodes scored together must share one "
                            "way/shot/queries shape")
    branches = _branches(model, ablation)
    support_rows, support = _support_features(model, episodes, branches)
    return map_blocks(
        lambda lo, hi: _score_block(model, episodes[lo:hi], indices[lo:hi],
                                    support_rows[lo:hi], support, branches,
                                    run_seed, gamma, alpha),
        len(episodes), workers)
