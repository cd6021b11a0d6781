"""Full few-shot model: two enhancement branches over one episode.

The normal branch enhances raw frame stacks, the motion branch enhances
motion-compensated difference sequences, and both contribute soft
alignment costs to the query-vs-prototype similarity. The episode
forward pass batches every video of the episode through each branch in
a single transformer call and batches every prototype/query alignment
into a single DP call. Each layer and the DP record one tape node, so
per-node bookkeeping stays a small share of a training step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import cpm, metric, objective, tensor as T
from .data import EpisodeBatch, keyed_rng
from .errors import ConfigError, ProtocolError
from .metric import AlignmentConfig
from .motion import motion_features
from .nn import PhiStack, _join
from .objective import LossWeights
from .tensor import Tensor

_INIT_TAG = 8


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


def _frame_rows(enhanced: Tensor) -> Tensor:
    """Drop the token row of a (B, L, D) enhanced batch."""
    return T.slice_axis(enhanced, 1, 1, enhanced.shape[1])


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


def _branch_pass(branch, frames, real_tokens, fake_tokens, n, k,
                 train, with_losses):
    """Enhance one branch's videos and return (protos, queries, con_parts).

    With losses, every video runs under both its real token and its fake
    token and the consistency pieces (sum of squared differences, element
    count) are returned; without, supports run real-only and queries
    fake-only, and ``fake_tokens`` holds the query videos' tokens only.
    """
    support = n * k
    total = frames.shape[0]
    if with_losses:
        real = cpm.feature_enhance_batch(branch, frames,
                                         Tensor(real_tokens), train=train)
        fake = cpm.feature_enhance_batch(branch, frames,
                                         Tensor(fake_tokens), train=train)
        diff = T.sub(fake, real)
        con = T.reduce_sum(T.mul(diff, diff))
        numel = real.size
        real_support = T.slice_axis(real, 0, 0, support)
        fake_query = T.slice_axis(fake, 0, support, total)
    else:
        real_support = cpm.feature_enhance_batch(
            branch, T.slice_axis(frames, 0, 0, support),
            Tensor(real_tokens[:support]), train=train)
        fake_query = cpm.feature_enhance_batch(
            branch, T.slice_axis(frames, 0, support, total),
            Tensor(fake_tokens), train=train)
        con, numel = None, 0
    seq, dim = real_support.shape[1], real_support.shape[2]
    protos = T.reduce_mean(T.reshape(real_support, (n, k, seq, dim)), axis=1)
    return protos, fake_query, con, numel


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
    from real-token features.
    """
    if alpha < 0:
        raise ConfigError(f"motion weight alpha must be >= 0, got {alpha}")
    if consistency_reduction not in ("sum", "mean"):
        raise ConfigError(f"unknown reduction {consistency_reduction!r}")
    n, k, p = episode.way, episode.shot, episode.queries_per_class
    frames_np, prompts_np, labels = _episode_frames(episode)
    total = frames_np.shape[0]
    frames = Tensor(frames_np)
    # without losses only the queries' fake tokens are ever read
    token_indices = range(0 if compute_losses else n * k, total)

    total_cost = None
    con_sum, con_numel = None, 0
    if ablation.use_normal:
        fakes = _fake_tokens(model.dim, run_seed, episode_index,
                             token_indices, "normal")
        protos, queries, con, numel = _branch_pass(
            model.normal, frames, prompts_np, fakes, n, k,
            train, compute_losses)
        dists = _pair_distances(_frame_rows(protos), _frame_rows(queries),
                                align)
        total_cost = dists
        if con is not None:
            con_sum, con_numel = con, numel
    if ablation.use_motion:
        motion_frames = motion_features(model.phi, frames, train=train)
        fakes = _fake_tokens(model.dim, run_seed, episode_index,
                             token_indices, "motion")
        protos, queries, con, numel = _branch_pass(
            model.motion, motion_frames, prompts_np, fakes, n, k,
            train, compute_losses)
        dists = T.scale(
            _pair_distances(_frame_rows(protos), _frame_rows(queries),
                            align), alpha)
        total_cost = dists if total_cost is None else T.add(total_cost, dists)
        if con is not None:
            con_sum = con if con_sum is None else T.add(con_sum, con)
            con_numel += numel

    probs = T.softmax(T.neg(total_cost), axis=-1)
    probs_np = np.asarray(probs.data)
    predictions = probs_np.argmax(axis=1)
    correct = int((predictions == labels).sum())
    result = EpisodeResult(probs_np.copy(), predictions, labels, correct)
    if not compute_losses:
        return result

    rows = [T.reshape(T.slice_axis(probs, 0, i, i + 1), (n,))
            for i in range(probs.shape[0])]
    task = objective.task_loss(rows, labels)
    consistency = con_sum if con_sum is not None else Tensor(0.0)
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
