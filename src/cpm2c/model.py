"""Full few-shot model: two enhancement branches over one episode.

The normal branch enhances raw frame stacks, the motion branch enhances
motion-compensated difference sequences, and both contribute soft
alignment costs to the query-vs-prototype similarity. Every pass ends in
the same two steps: per branch, ``_branch_costs`` makes one cost-matrix
call on broadcast prototype/query operands and one DP call; then
``_outcomes`` takes the alpha-weighted sum, a softmax over classes and
the ``EpisodeResult``s. Both passes take the run's ``runner.RunConfig``
and read the seed, gamma, alpha, the preset (``PRESETS`` names the
branches each keeps) and the loss settings from it; the config checked
them once, and nothing here defaults or checks them again.

``episode_forward`` computes the losses of one episode, or of a block
of training episodes (``EpisodeBlock``) in one pass. Each branch
enhances every video of the pass under the real and under the fake
tokens in one transformer call over twice the videos, so each shared
weight gets its gradient from one product. Each layer (the transformer
block as a whole), the DP, the cost matrix, the motion arithmetic
after Phi, each of a branch's three reads of its enhanced stacks
(prototypes, queries, consistency), the branch-cost sum and each loss
record one tape node, whatever the number of episodes: a 5-way 1-shot
episode records 76 nodes, 43 of them parameter leaves, and a training
block 78.

Fake (stand-in) tokens depend on the mode. In training they come from
one keyed stream per episode and branch, one row per video
(``_fake_tokens``). In eval mode each video's token comes from its own
stream, keyed by the video and the branch (``cpm.video_key``), so a test
video has one token, and one representation per branch, in every
episode that draws it. The streams are counter-based, so one
``cpm.fake_token`` call draws the tokens of many videos.

``score_episodes`` is the only path that scores without losses, and it
never updates the model. In eval mode a video's enhanced features depend
on nothing but the video and its role: a support under its class
prompt, a query under its own token. So, one branch at a time, each
distinct support and query video of the call is enhanced once, the
episodes' costs are computed in fixed blocks (``map_blocks``, which
evaluation with losses shares), and the branch's features are freed
before the next branch. Eval-mode ``episode_forward`` gives the same
probabilities bit for bit.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import cpm, metric, objective, tensor as T
from .data import EpisodeBatch, KeyedStream
from .errors import ConfigError, ProtocolError
from .motion import motion_features
from .nn import Module, PhiStack
from .tensor import Tensor

_INIT_TAG = 8

# the adaptation temperature a model starts from
_INIT_TEMPERATURE = 0.1

# attention heads of each branch's transformer; the feature dim must be a
# multiple of this
HEADS = 8

# Episodes per ``map_blocks`` block, and the most videos that
# ``score_episodes`` enhances in one pass. The block size is the largest
# at which scoring the blocks allocates no more than enhancing the
# call's videos, so the enhancement phase sets a call's peak memory. On
# 5-way 5-shot evaluation at dim 64 (200-episode calls, seed 7), the
# traced peak of the block phase was 2.24 MiB at blocks of 16 and 2.59
# MiB at blocks of 24, against 2.46 MiB for enhancement; 200-episode
# calls took 27.0 ms at 16 against 29.1 ms at 8 (2-core VM).
# ``tests/test_scoring.py`` holds the block phase under the enhancement
# phase. Chunks of 32 to 256 videos all ran at about the same speed.
_BLOCK_EPISODES = 16
_SUPPORT_CHUNK = 32


# the branches each ablation preset keeps, normal first
PRESETS = {
    "full": ("normal", "motion"),
    "no-motion": ("normal",),
    "motion-only": ("motion",),
}


class Model(Module):
    """Both branches, the motion transform, and the learned temperature.

    The normal branch runs on sequences of length ``frames`` plus the
    token row; the motion branch on length ``frames - 1`` plus the token
    row. Each branch's transformer has ``HEADS`` attention heads and a
    4 * dim wide FFN, and Phi has two blocks. The
    adaptation temperature is parameterized in log space so it stays
    positive under unconstrained updates; it starts at
    ``_INIT_TEMPERATURE``.
    """

    _state = ("normal", "motion", "phi", "log_temperature")

    def __init__(self, dim: int, frames: int, seed: int = 0):
        if frames < 2:
            raise ConfigError(f"model needs at least 2 frames, got {frames}")
        self.dim = dim
        self.frames = frames
        self.normal = cpm.CpmBranch(frames + 1, dim, HEADS,
                                    rng=KeyedStream(seed, _INIT_TAG, 0))
        self.motion = cpm.CpmBranch(frames, dim, HEADS,
                                    rng=KeyedStream(seed, _INIT_TAG, 1))
        self.phi = PhiStack(dim, 2, rng=KeyedStream(seed, _INIT_TAG, 2))
        self.log_temperature = Tensor(math.log(_INIT_TEMPERATURE),
                                      requires_grad=True)

    def temperature(self) -> Tensor:
        return T.exp(self.log_temperature)


@dataclass(frozen=True)
class EpisodeBlock:
    """Training episodes of one way/shot/queries shape that run through
    one ``episode_forward`` call, and the index of each one's stream."""

    episodes: tuple
    indices: tuple

    def __post_init__(self):
        if not self.episodes or len(self.episodes) != len(self.indices):
            raise ProtocolError(f"a block needs one stream index per "
                                f"episode, got {len(self.episodes)} "
                                f"episodes and {len(self.indices)} indices")
        if len({(ep.way, ep.shot, ep.queries_per_class)
                for ep in self.episodes}) > 1:
            raise ProtocolError("episodes of a block must share one "
                                "way/shot/queries shape")

    @property
    def way(self) -> int:
        return self.episodes[0].way

    @property
    def shot(self) -> int:
        return self.episodes[0].shot

    @property
    def queries_per_class(self) -> int:
        return self.episodes[0].queries_per_class


@dataclass
class EpisodeResult:
    """Outcome of one episode pass."""

    probabilities: np.ndarray        # (Q, N), each row sums to 1
    predictions: np.ndarray          # (Q,) argmax, ties to lowest index
    true_labels: np.ndarray          # (Q,) episode class indices
    correct: int
    loss: Optional[Tensor] = None    # weighted total, None without losses
    parts: dict = field(default_factory=dict)  # float value per term


@dataclass
class BlockResult:
    """Outcome of one block pass: the loss a training step backpropagates
    for the block, and each episode's result, with its loss parts."""

    loss: Tensor                     # sum of episode totals / cfg.window
    results: list


def _episode_videos(episode: EpisodeBatch) -> list:
    """The episode's video records in canonical order: support-first,
    class-major (all K supports of episode class 0, ..., then all P
    queries of class 0, ...). The position in this order is the video
    index of the training token stream."""
    return [rec for recs in episode.support + episode.query for rec in recs]


def _block_frames(episodes):
    """Stacked frames and class prompts of every video of ``episodes``,
    episode by episode in canonical video order, and the labels of one
    episode's queries."""
    frames = np.stack([rec.features() for episode in episodes
                       for rec in _episode_videos(episode)])
    prompts = []
    for episode in episodes:
        for c in range(episode.way):
            prompts.extend([episode.prompts[c]] * episode.shot)
        for c in range(episode.way):
            prompts.extend([episode.prompts[c]] * episode.queries_per_class)
    first = episodes[0]
    labels = np.repeat(np.arange(first.way), first.queries_per_class)
    return frames, np.stack(prompts), labels


def _fake_tokens(dim, run_seed, episode_indices, support, queries, branch):
    """The training fake tokens of the episodes of ``episode_indices`` in
    one branch: (E * (support + queries), dim), each episode's rows in
    canonical video order, in one draw. Each episode's keyed stream holds
    its queries' rows first."""
    rows = cpm.fake_token(dim, run_seed, list(episode_indices),
                          support + queries, branch)
    return np.concatenate([rows[:, queries:], rows[:, :queries]],
                          axis=1).reshape(-1, dim)


def _video_tokens(dim, run_seed, videos, branch) -> np.ndarray:
    """The (V, dim) eval-mode fake tokens of distinct ``videos`` in one
    branch, each from its own video's stream, in one draw."""
    keys = [cpm.video_key(rec.video_id) for rec in videos]
    return cpm.fake_token(dim, run_seed, keys, 1, branch)[:, 0]


def _branches(model: Model, preset: str):
    """(name, branch) of every branch the preset keeps, normal first."""
    return [(name, getattr(model, name)) for name in PRESETS[preset]]


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


def _branch_costs(protos, queries, gamma: float) -> Tensor:
    """(E, 1, N, L, D) prototype and (E, Q, 1, L, D) query frame rows ->
    the (E, Q, N) alignment costs of one branch. The cost call broadcasts
    them into every pair without copies, with prototype rows as the
    first alignment axis."""
    return metric.otam_distance(metric.cost_matrix(protos, queries), gamma)


def _outcomes(dists, names, alpha: float, way: int, queries_per_class: int):
    """The (E, Q, N) costs of each used branch, normal first -> the
    (E, Q, N) probability tensor and one EpisodeResult per episode."""
    probs = T.softmax(_similarity(dists, names, alpha), axis=-1)
    labels = np.repeat(np.arange(way), queries_per_class)
    results = []
    for episode_probs in probs.data:
        predictions = episode_probs.argmax(axis=1)
        results.append(EpisodeResult(
            episode_probs.copy(), predictions, labels,
            int((predictions == labels).sum())))
    return probs, results


def _shot_mean(shot, k: int) -> np.ndarray:
    """The mean of K equally shaped shot arrays, ``shot(s)`` giving shot
    s: added one shot at a time in shot order, then divided by K. numpy's
    ``mean`` over a leading axis adds in the same order, so the result
    has the bits of ``.mean(axis=1)`` over the shots stacked on axis 1,
    without the stacked copy."""
    total = shot(0) + shot(1) if k > 1 else shot(0).copy()
    for s in range(2, k):
        total += shot(s)
    total /= k
    return total


def _branch_pass(branch, frames, tokens, n, k):
    """Enhance one branch's videos under both tokens in one call.

    ``frames`` holds the videos of one episode, (V, T, D), or of a block
    of E episodes, (E, V, T, D); ``lead`` below is its leading shape, ()
    or (E,). The transformer runs over 2EV stacks: the frames under the
    real tokens, then the same frames under the fake tokens (``tokens``
    holds both, in that order). Three tape nodes read the result: the
    (E, 1, N, L-1, D) prototypes, the mean of each class's real-token
    supports; the (E, Q, 1, L-1, D) fake-token queries; and each
    episode's sum of squared real/fake differences, shaped ``lead``.
    Token rows are dropped from the first two. Returns those three and
    one episode's consistency element count.
    """
    lead = frames.shape[:-3]
    if lead:
        frames = T.reshape(frames, (math.prod(frames.shape[:-2]),)
                           + frames.shape[-2:])
    total = frames.shape[0]
    support = n * k
    both = cpm.feature_enhance_batch(branch, T.concat([frames, frames]),
                                     Tensor(tokens))
    bd = both.data
    shape = bd.shape
    length, dim = shape[1], shape[2]
    rows = (length - 1, dim)
    count = lead[0] if lead else 1
    videos = total // count

    def episode_rows(a):
        # (E * V, L, D) -> (E, V, L, D)
        return a.reshape(count, videos, length, dim)

    def support_shots(a):
        # one side's (E, N, K, L, D) support stacks, a view into ``a``
        return episode_rows(a[:total])[:, :support].reshape(
            count, n, k, length, dim)

    def protos_bwd(g):
        full = np.zeros(shape, g.dtype)
        support_shots(full)[:, :, :, 1:] = g.reshape((count, n, 1) + rows) / k
        return (full,)

    # the same mean over the K supports as score_episodes takes
    shots = support_shots(bd)[:, :, :, 1:]
    protos = _shot_mean(lambda s: shots[:, :, s], k)
    protos = T._record(protos.reshape((count, 1, n) + rows), (both,),
                       protos_bwd)

    def queries_bwd(g):
        full = np.zeros(shape, g.dtype)
        episode_rows(full[total:])[:, support:, 1:] = g.reshape(
            (count, videos - support) + rows)
        return (full,)

    # a copy, so the costs do not keep the whole enhanced batch alive
    queries = episode_rows(bd[total:])[:, support:, 1:].copy()
    queries = T._record(queries.reshape((count, videos - support, 1) + rows),
                        (both,), queries_bwd)

    flat = (bd[total:] - bd[:total]).reshape(lead + (-1,))  # fake - real

    def con_bwd(g):
        step = g[..., None] * flat
        step += step
        step = step.reshape(total, length, dim)
        return (np.concatenate([-step, step]),)

    con = T._record((flat * flat).sum(axis=-1), (both,), con_bwd)
    return protos, queries, con, flat.size // count


def episode_forward(model: Model, episode, cfg, *,
                    episode_index: Optional[int] = None, bank=None,
                    train: bool = False):
    """Run one episode, or a block of episodes, through the full
    pipeline, losses included.

    ``episode`` is an ``EpisodeBatch``, whose stream ``episode_index``
    names, or an ``EpisodeBlock``, which names each episode's stream.
    ``cfg`` is the run's ``runner.RunConfig``, which checked every setting
    read here: the run seed keys the fake tokens; ``gamma``, ``alpha`` and
    ``preset`` set the alignment and the branches; the loss weights and
    ``consistency_reduction`` set the losses; ``window`` scales a block's
    loss. ``bank`` is the (class ids, prompt matrix) pair from the
    training split; when given, the adaptation loss scores every episode
    video against the whole bank. Queries classify through their
    fake-token features; support prototypes come from real-token
    features. The fake tokens come from the episode's stream in training
    and from each video's own stream in eval mode. Scoring without
    losses is ``score_episodes``.

    A block runs as one pass: one fake-token draw and one transformer
    call per branch over all of its videos, one cost-matrix and one DP
    call over its (E, Q, N) costs, and each loss over all of its
    episodes at once; in train mode Phi's batch norm folds each
    episode's statistics in turn. One episode returns its
    ``EpisodeResult``, whose loss is the episode's weighted total. A
    block returns a ``BlockResult``: the episodes' totals summed and
    divided by ``cfg.window``, which is the block's share of a training
    step's loss, and each episode's result with its parts. A block of
    one episode runs the numpy operations of the lone episode, so its
    loss and gradients have the same bits at window 1.
    """
    if isinstance(episode, EpisodeBlock):
        block, lead = episode, (len(episode.episodes),)
    else:
        if episode_index is None:
            raise ProtocolError("an episode needs its episode_index")
        block, lead = EpisodeBlock((episode,), (episode_index,)), ()
    n, k, p = block.way, block.shot, block.queries_per_class
    videos = [_episode_videos(ep) for ep in block.episodes]
    frames_np, prompts_np, labels = _block_frames(block.episodes)
    frames = Tensor(frames_np.reshape(lead + (-1,) + frames_np.shape[1:]))

    branches = _branches(model, cfg.preset)
    dists = []
    con_sum, con_numel = None, 0
    for name, branch in branches:
        branch_frames = frames if name == "normal" else \
            motion_features(model.phi, frames, train=train)
        if train:
            fakes = _fake_tokens(model.dim, cfg.seed, block.indices, n * k,
                                 n * p, name)
        else:
            fakes = _video_tokens(model.dim, cfg.seed,
                                  [rec for recs in videos for rec in recs],
                                  name)
        protos, queries, con, numel = _branch_pass(
            branch, branch_frames, np.concatenate([prompts_np, fakes]), n,
            k)
        dists.append(_branch_costs(protos, queries, cfg.gamma))
        con_sum = con if con_sum is None else T.add(con_sum, con)
        con_numel += numel
    probs, results = _outcomes(dists, [name for name, _ in branches],
                               cfg.alpha, n, p)

    task = objective.task_loss(T.reshape(probs, lead + (n * p, n)), labels)
    consistency = con_sum
    if cfg.consistency_reduction == "mean":
        consistency = T.scale(consistency, 1.0 / con_numel)
    if bank is not None:
        bank_ids, bank_matrix = bank
        positions = {cid: i for i, cid in enumerate(bank_ids)}
        try:
            video_truth = [[positions[rec.class_id] for rec in recs]
                           for recs in videos]
        except KeyError as exc:
            raise ProtocolError(f"episode class {exc.args[0]} missing from "
                                f"the prompt bank") from None
        adapt = objective.dam_loss(frames, bank_matrix,
                                   video_truth if lead else video_truth[0],
                                   model.temperature())
    else:
        adapt = Tensor(0.0)
    total = objective.total_loss(adapt, task, consistency, cfg)
    terms = {"adapt": adapt, "task": task, "consistency": consistency,
             "total": total}
    for e, result in enumerate(results):
        result.parts = {key: float(np.broadcast_to(t.data, lead)[e]
                                   if lead else t.data)
                        for key, t in terms.items()}
    if not lead:
        results[0].loss = total
        return results[0]
    window = cfg.window

    def block_bwd(g):
        return (np.full(lead, g / window, g.dtype),)

    return BlockResult(T._record(total.data.sum() / window, (total,),
                                 block_bwd), results)


# ---------------------------------------------------------------------------
# scoring without losses


def map_blocks(fn, count: int, workers: int = 1) -> list:
    """The lists ``fn(lo, hi)`` returns for the fixed blocks of
    ``_BLOCK_EPISODES`` (16) episodes covering ``range(count)``, joined in
    block order.
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


def _distinct_videos(episodes):
    """Index every distinct video of ``episodes`` once per role.

    A support video is keyed by its class and video id, a query video by
    its video id. Returns the (record, class prompt) of every distinct
    video in first-seen order, the prompt None for a query, and each
    episode's (N*K) support rows and (Q) query rows into that list, in
    canonical order.
    """
    rows: dict = {}
    videos = []

    def row(key, rec, prompt):
        if key not in rows:
            rows[key] = len(videos)
            videos.append((rec, prompt))
        return rows[key]

    # support keys are (class, id) pairs and query keys bare ids, so the
    # two roles of one video never share a row
    support_rows, query_rows = [], []
    for ep in episodes:
        support_rows.append([row((ep.class_ids[c], rec.video_id), rec,
                                 ep.prompts[c])
                             for c in range(ep.way) for rec in ep.support[c]])
        query_rows.append([row(rec.video_id, rec, None)
                           for recs in ep.query for rec in recs])
    return videos, np.asarray(support_rows), np.asarray(query_rows)


def _video_features(model: Model, name: str, branch, videos, run_seed: int):
    """The (V, L-1, D) eval-mode features of ``videos`` in one branch:
    supports under their class prompts, queries under their fake tokens,
    which are drawn for every query of the branch in one call. The videos
    are split into near-equal chunks of at most ``_SUPPORT_CHUNK``, so no
    pass is much smaller than the others."""
    queries = [rec for rec, prompt in videos if prompt is None]
    fakes = iter(_video_tokens(model.dim, run_seed, queries, name))
    tokens = [prompt if prompt is not None else next(fakes)
              for _, prompt in videos]
    count = len(videos)
    out = None
    for chunk in np.array_split(np.arange(count), -(-count // _SUPPORT_CHUNK)):
        lo, hi = chunk[0], chunk[-1] + 1
        frames = np.stack([rec.features() for rec, _ in videos[lo:hi]])
        feats = _enhance(model, name, branch, frames, np.stack(tokens[lo:hi]))
        if out is None:
            out = np.empty((count,) + feats.shape[1:], feats.dtype)
        out[lo:hi] = feats
    return out


def _block_costs(features, support_rows, query_rows, n: int, k: int,
                 gamma: float) -> list:
    """One branch's (Q, N) costs of each episode of a block, from the
    rows of its support and query videos in ``features``."""
    count, q = query_rows.shape
    length, dim = features.shape[1:]
    # the same mean over the K supports as the loss path takes, gathered
    # one shot at a time
    shots = support_rows.reshape(count, n, k)
    protos = _shot_mean(lambda s: features[shots[:, :, s]], k)
    queries = features[query_rows]
    costs = _branch_costs(Tensor(protos.reshape(count, 1, n, length, dim)),
                          Tensor(queries.reshape(count, q, 1, length, dim)),
                          gamma)
    return list(costs.data)


def score_episodes(model: Model, episodes, cfg) -> list:
    """Class probabilities of every episode, in eval mode, without losses.

    ``cfg`` is the run's ``runner.RunConfig``; its seed, ``gamma``,
    ``alpha``, ``preset`` and ``workers`` are read. ``episodes`` share
    one way/shot/queries shape. For each branch in turn, every distinct
    video of the call is enhanced once per role:
    supports under their class prompts, queries under their eval-mode
    fake tokens, which are keyed by (run, video, branch) exactly as
    ``episode_forward`` keys them in eval mode. ``map_blocks`` then
    computes the episodes' costs in fixed blocks of 16 on ``cfg.workers``
    threads, one cost-matrix and one DP call per block and branch, and
    the branch's features are freed before the next branch. Each
    episode's probabilities equal ``episode_forward``'s in eval mode, and
    scoring the episode alone, bit for bit, except where BLAS picks
    another kernel for larger batches, which moves only the last bits.
    Returns one EpisodeResult per episode, in order. The model is never
    updated, and nothing is kept after the call.
    """
    episodes = list(episodes)
    if not episodes:
        return []
    if len({(ep.way, ep.shot, ep.queries_per_class)
            for ep in episodes}) > 1:
        raise ProtocolError("episodes scored together must share one "
                            "way/shot/queries shape")
    n, k, p = episodes[0].way, episodes[0].shot, episodes[0].queries_per_class
    videos, support_rows, query_rows = _distinct_videos(episodes)
    branches = _branches(model, cfg.preset)
    dists = []
    for name, branch in branches:
        features = _video_features(model, name, branch, videos, cfg.seed)
        costs = map_blocks(
            lambda lo, hi: _block_costs(features, support_rows[lo:hi],
                                        query_rows[lo:hi], n, k, cfg.gamma),
            len(episodes), cfg.workers)
        dists.append(Tensor(np.stack(costs)))
        del features
    names = [name for name, _ in branches]
    return _outcomes(dists, names, cfg.alpha, n, p)[1]
