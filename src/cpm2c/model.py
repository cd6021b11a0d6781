"""Full few-shot model: two enhancement branches over one episode.

The normal branch enhances raw frame stacks, the motion branch enhances
motion-compensated difference sequences, and both contribute soft
alignment costs to the query-vs-prototype similarity.

There are two entry points. ``episode_forward`` with losses (training,
and evaluation that reports losses) runs one episode at a time: every
video of the episode goes through each branch under both its real and
its fake token in one transformer call, and every prototype/query
alignment runs in one DP call. Each layer and the DP record one tape
node, so per-node bookkeeping stays a small share of a training step.

``score_episodes`` is the only path that scores without losses, and it
never updates the model. In eval mode a support video's real-token
features depend on nothing but the video and its class prompt, so each
distinct support video is enhanced once per call and per branch, and
every episode of the call builds its prototypes from those features.
Queries are scored in fixed blocks of episodes: per block and branch,
one Phi pass, one fake-token enhancement pass, one cost-matrix call and
one DP call. ``episode_forward`` without losses is this scorer run on
one episode.
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
from .metric import AlignmentConfig, _frame_rows
from .motion import motion_features
from .nn import PhiStack, _join
from .objective import LossWeights
from .tensor import Tensor

_INIT_TAG = 8

# Episodes that ``score_episodes`` scores together, and the most support
# videos it enhances in one pass. On 5-way 5-shot evaluation at dim 64,
# blocks of 8 to 32 episodes and chunks of 32 to 256 videos all ran at
# about the same speed, and a single block of 200 episodes ran slower.
# The smallest of these sizes hold the transient memory of a call to
# about 2 MiB above scoring one episode at a time, most of it the kept
# support features.
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
    row. The adaptation temperature is parameterized in log space so it
    stays positive under unconstrained updates.
    """

    def __init__(self, dim: int, frames: int, num_heads: int = 8,
                 ffn_hidden: Optional[int] = None, phi_blocks: int = 2,
                 temperature: float = 0.1, seed: int = 0):
        if frames < 2:
            raise ConfigError(f"model needs at least 2 frames, got {frames}")
        if not temperature > 0:
            raise ConfigError(f"temperature must be positive, "
                              f"got {temperature}")
        self.dim = dim
        self.frames = frames
        self.normal = cpm.CpmBranch(frames + 1, dim, num_heads, ffn_hidden,
                                    keyed_rng(seed, _INIT_TAG, 0))
        self.motion = cpm.CpmBranch(frames, dim, num_heads, ffn_hidden,
                                    keyed_rng(seed, _INIT_TAG, 1))
        self.phi = PhiStack(dim, phi_blocks,
                            rng=keyed_rng(seed, _INIT_TAG, 2))
        self.log_temperature = Tensor(math.log(temperature),
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


def _fake_tokens(dim, run_seed, episode_index, indices, branch):
    return np.stack([
        cpm.fake_token(dim, run_seed, episode_index, v, branch).vector
        for v in indices])


def _pair_distances(protos: Tensor, queries: Tensor,
                    align: AlignmentConfig) -> Tensor:
    """Alignment cost of every query against every prototype -> (Q, N).

    All Q x N cost matrices run through one batched DP; entry (q, c) uses
    prototype rows as the first alignment axis, matching the one-pair
    reference path.
    """
    n, lp, dim = protos.shape
    q, lq = queries.shape[0], queries.shape[1]
    pe = T.reshape(T.broadcast_repeat(protos, 0, q), (q * n, lp, dim))
    qe = T.reshape(T.broadcast_repeat(queries, 1, n), (q * n, lq, dim))
    dists = metric.otam_distance(metric.cost_matrix(pe, qe), align)
    return T.reshape(dists, (q, n))


def _branch_pass(branch, frames, real_tokens, fake_tokens, n, k, train):
    """Enhance one branch's videos under both tokens.

    Returns the prototypes, the queries' fake-token features, and the
    consistency pieces: the sum of squared real/fake differences and its
    element count.
    """
    support = n * k
    total = frames.shape[0]
    real = cpm.feature_enhance_batch(branch, frames, Tensor(real_tokens),
                                     train=train)
    fake = cpm.feature_enhance_batch(branch, frames, Tensor(fake_tokens),
                                     train=train)
    diff = T.sub(fake, real)
    con = T.reduce_sum(T.mul(diff, diff))
    real_support = T.slice_axis(real, 0, 0, support)
    fake_query = T.slice_axis(fake, 0, support, total)
    seq, dim = real_support.shape[1], real_support.shape[2]
    protos = T.reduce_mean(T.reshape(real_support, (n, k, seq, dim)), axis=1)
    return protos, fake_query, con, real.size


def episode_forward(model: Model, episode: EpisodeBatch, *, run_seed: int,
                    episode_index: int, weights: LossWeights = LossWeights(),
                    align: AlignmentConfig = AlignmentConfig(),
                    alpha: float = 1.0, ablation: Ablation = Ablation(),
                    bank=None, train: bool = False,
                    compute_losses: bool = True,
                    consistency_reduction: str = "sum") -> EpisodeResult:
    """Run one episode through the full pipeline.

    ``bank`` is the (class ids, prompt matrix) pair from the training
    split; when given (and losses are on) the adaptation loss scores
    every episode video against the whole bank. Queries always classify
    through their fake-token features; support prototypes always come
    from real-token features. Without losses this is ``score_episodes``
    on the one episode, which runs in eval mode only.
    """
    if alpha < 0:
        raise ConfigError(f"motion weight alpha must be >= 0, got {alpha}")
    if consistency_reduction not in ("sum", "mean"):
        raise ConfigError(f"unknown reduction {consistency_reduction!r}")
    if not compute_losses:
        if train:
            raise ConfigError("scoring without losses runs in eval mode; "
                              "train=True needs compute_losses=True")
        return score_episodes(model, [episode], [episode_index],
                              run_seed=run_seed, align=align, alpha=alpha,
                              ablation=ablation)[0]
    n, k, p = episode.way, episode.shot, episode.queries_per_class
    frames_np, prompts_np, labels = _episode_frames(episode)
    total = frames_np.shape[0]
    frames = Tensor(frames_np)

    total_cost = None
    con_sum, con_numel = None, 0
    if ablation.use_normal:
        fakes = _fake_tokens(model.dim, run_seed, episode_index,
                             range(total), "normal")
        protos, queries, con_sum, con_numel = _branch_pass(
            model.normal, frames, prompts_np, fakes, n, k, train)
        total_cost = _pair_distances(_frame_rows(protos),
                                     _frame_rows(queries), align)
    if ablation.use_motion:
        motion_frames = motion_features(model.phi, frames, train=train)
        fakes = _fake_tokens(model.dim, run_seed, episode_index,
                             range(total), "motion")
        protos, queries, con, numel = _branch_pass(
            model.motion, motion_frames, prompts_np, fakes, n, k, train)
        dists = T.scale(
            _pair_distances(_frame_rows(protos), _frame_rows(queries),
                            align), alpha)
        total_cost = dists if total_cost is None else T.add(total_cost, dists)
        con_sum = con if con_sum is None else T.add(con_sum, con)
        con_numel += numel

    probs = T.softmax(T.neg(total_cost), axis=-1)
    probs_np = np.asarray(probs.data)
    predictions = probs_np.argmax(axis=1)
    correct = int((predictions == labels).sum())
    result = EpisodeResult(probs_np.copy(), predictions, labels, correct)

    rows = [T.reshape(T.slice_axis(probs, 0, i, i + 1), (n,))
            for i in range(probs.shape[0])]
    task = objective.task_loss(rows, labels)
    consistency = con_sum
    if consistency_reduction == "mean" and con_numel:
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
        adapt = objective.dam_loss([Tensor(f) for f in frames_np],
                                   bank_matrix, video_truth,
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


def _enhance(model: Model, name: str, branch, frames: np.ndarray,
             tokens: np.ndarray) -> np.ndarray:
    """Eval-mode enhanced features of a video batch, token row dropped;
    the motion branch first runs the frames through ``motion_features``."""
    x = Tensor(frames)
    if name == "motion":
        x = motion_features(model.phi, x)
    return _frame_rows(cpm.feature_enhance_batch(branch, x,
                                                 Tensor(tokens))).data


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


def _block_costs(model: Model, name: str, branch, episodes, indices,
                 frames: np.ndarray, support_rows, support: np.ndarray,
                 run_seed: int, align: AlignmentConfig) -> Tensor:
    """One branch's alignment cost of every block query against every
    prototype of its episode -> (E, Q, N)."""
    n, k = episodes[0].way, episodes[0].shot
    count, q = len(episodes), n * episodes[0].queries_per_class
    tokens = np.concatenate([
        _fake_tokens(model.dim, run_seed, index, range(n * k, n * k + q),
                     name) for index in indices])
    queries = _enhance(model, name, branch, frames, tokens)
    length, dim = support.shape[1], support.shape[2]
    # the same mean over the K supports as the per-episode path takes
    protos = support[support_rows].reshape(count * n, k, length, dim)
    protos = protos.mean(axis=1).reshape(count, 1, n, length, dim)
    costs = metric.cost_matrix(
        Tensor(protos), Tensor(queries.reshape(count, q, 1, length, dim)))
    dists = metric.otam_distance(
        T.reshape(costs, (count * q * n, length, length)), align)
    return T.reshape(dists, (count, q, n))


def _score_block(model: Model, episodes, indices, support_rows,
                 support, branches, run_seed: int, align: AlignmentConfig,
                 alpha: float):
    """Score a block of same-shaped episodes against their prototypes."""
    n, p = episodes[0].way, episodes[0].queries_per_class
    frames = np.stack([rec.features() for ep in episodes
                       for recs in ep.query for rec in recs])
    total_cost = None
    for name, branch in branches:
        dists = _block_costs(model, name, branch, episodes, indices, frames,
                             support_rows, support[name], run_seed, align)
        if name == "motion":
            dists = T.scale(dists, alpha)
        total_cost = dists if total_cost is None else T.add(total_cost, dists)
    probs = T.softmax(T.neg(total_cost), axis=-1).data
    labels = np.repeat(np.arange(n), p)
    results = []
    for episode_probs in probs:
        predictions = episode_probs.argmax(axis=1)
        results.append(EpisodeResult(
            episode_probs.copy(), predictions, labels,
            int((predictions == labels).sum())))
    return results


def score_episodes(model: Model, episodes, indices, *, run_seed: int,
                   align: AlignmentConfig = AlignmentConfig(),
                   alpha: float = 1.0, ablation: Ablation = Ablation(),
                   workers: int = 1) -> list:
    """Class probabilities of every episode, in eval mode, without losses.

    ``episodes`` share one way/shot/queries shape; ``indices`` are their
    episode indices, which key the queries' fake tokens exactly as
    ``episode_forward`` does. Each distinct support video is enhanced
    once per branch, then the episodes are scored in fixed blocks of
    ``_BLOCK_EPISODES``; ``workers`` threads map over the blocks and
    share the support features. Block boundaries do not depend on
    ``workers``, so neither do the results. Each episode's probabilities
    equal ``episode_forward``'s on that episode alone bit for bit,
    except where BLAS picks another kernel for the block's larger
    batches, which moves only the last bits. Returns one EpisodeResult
    per episode, in order. The model is never updated, and nothing is
    kept after the call.
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
    branches = [(name, branch) for name, branch, used in (
        ("normal", model.normal, ablation.use_normal),
        ("motion", model.motion, ablation.use_motion)) if used]
    support_rows, support = _support_features(model, episodes, branches)
    dtype = T.default_dtype().__name__

    def block(lo: int):
        hi = lo + _BLOCK_EPISODES
        with T.precision(dtype):         # worker threads start in float32
            return _score_block(model, episodes[lo:hi], indices[lo:hi],
                                support_rows[lo:hi], support, branches,
                                run_seed, align, alpha)

    starts = range(0, len(episodes), _BLOCK_EPISODES)
    if workers == 1:
        blocks = [block(lo) for lo in starts]
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            blocks = list(pool.map(block, starts))
    return [res for results in blocks for res in results]
