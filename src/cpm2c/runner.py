"""Episodic training, block evaluation, and the model gradient audit.

Training accumulates gradients over a window of episodes per optimizer
step (the window mean, so window size changes variance but not scale),
logs one metrics row per step, and aborts on a non-finite gradient
without corrupting the run: the optimizer refuses the step before it
touches a parameter, and the BatchNorm running statistics, the only
state the step's forward passes changed, roll back to their values
before the step.
Evaluation samples every episode of the call first. Without losses it
hands them to ``model.score_episodes``, which, one branch at a time,
enhances each distinct video once per role (support or query) and
computes the episodes' costs in fixed blocks. With losses it runs each
episode through ``episode_forward`` in eval mode. Either
way worker threads map over the same fixed blocks of episodes through
``model.map_blocks``, and results are reduced in episode-index order,
so the reported numbers do not depend on the worker count.
``RunConfig`` holds, defaults and checks every run setting once; the
model and the losses read them from the frozen config.
"""

from __future__ import annotations

import ctypes
import json
import math
import os
import sys
import time
from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np

from . import tensor as T
from .data import SPLITS, DatasetManifest, episode_rng, keyed_rng, \
    sample_episode, write_manifest
from .errors import ConfigError, DataError, NumericalError
from .model import HEADS, PRESETS, Model, episode_forward, map_blocks, \
    score_episodes
from .nn import Adam, apply_state, load_checkpoint, save_checkpoint
from .tensor import Tensor

_GRADCHECK_TAG = 9


def _at_least(name: str, value: int, low: int) -> None:
    if value < low:
        raise ConfigError(f"{name} must be >= {low}, got {value}")


@dataclass(frozen=True)
class RunConfig:
    """Every knob of a training or evaluation run.

    The one place that holds, defaults and checks the run settings: the
    model and the losses read them from here and keep no defaults or
    checks of their own. Frozen, so a setting cannot change after its
    check; ``dataclasses.replace`` makes a new, checked config.
    """

    way: int = 5
    shot: int = 1
    queries: int = 1
    steps: int = 100
    window: int = 1                  # episodes accumulated per step
    lr: float = 1e-3
    seed: int = 0
    alpha: float = 1.0
    gamma: float = 0.1
    lam_adapt: float = 1.0
    lam_task: float = 1.0
    lam_consistency: float = 1.0
    consistency_reduction: str = "sum"
    preset: str = "full"
    workers: int = 1
    eval_split: str = "val"
    eval_episodes: int = 200
    eval_start: int = 1_000_000      # index offset keeping eval episodes
                                     # disjoint from training episodes
    log_every: int = 50

    def __post_init__(self):
        for name in ("way", "shot", "queries", "window", "workers",
                     "eval_episodes", "log_every"):
            _at_least(name, getattr(self, name), 1)
        for name in ("steps", "seed", "eval_start"):
            _at_least(name, getattr(self, name), 0)
        if self.consistency_reduction not in ("sum", "mean"):
            raise ConfigError(f"unknown consistency_reduction "
                              f"{self.consistency_reduction!r}; choose from "
                              f"['mean', 'sum']")
        if self.preset not in PRESETS:
            raise ConfigError(f"unknown preset {self.preset!r}; choose from "
                              f"{sorted(PRESETS)}")
        if self.eval_split not in SPLITS:
            raise ConfigError(f"unknown split {self.eval_split!r}; choose "
                              f"from {list(SPLITS)}")
        if not (math.isfinite(self.lr) and self.lr > 0):
            raise ConfigError(f"lr must be positive and finite, "
                              f"got {self.lr}")
        for name in ("alpha", "lam_adapt", "lam_task", "lam_consistency"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value >= 0):
                raise ConfigError(f"{name} must be >= 0 and finite, "
                                  f"got {value}")
        if not (math.isfinite(self.gamma) and self.gamma > 0):
            raise ConfigError(f"gamma must be positive and finite, "
                              f"got {self.gamma}")


def manifest_shape(manifest: DatasetManifest):
    """The common (frames, dim) of every manifest record."""
    shapes = {(rec.frames, rec.dim) for rec in manifest.records}
    if len(shapes) != 1:
        raise DataError(f"manifest mixes feature shapes {sorted(shapes)}")
    return next(iter(shapes))


def build_model(manifest: DatasetManifest, cfg: RunConfig) -> Model:
    frames, dim = manifest_shape(manifest)
    if dim % HEADS:
        raise DataError(f"feature dim {dim} is not a multiple of the "
                        f"model's {HEADS} attention heads")
    return Model(dim=dim, frames=frames, seed=cfg.seed)


def restore_model(mdl: Model, path) -> None:
    apply_state(mdl.named_state(), load_checkpoint(path))


# ---------------------------------------------------------------------------
# training

# glibc's mallopt parameter numbers, and the values training pins them to
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3
_MMAP_THRESHOLD = 32 << 20      # glibc's ceiling for this parameter
_TRIM_THRESHOLD = 64 << 20
_malloc_pinned: Optional[bool] = None


def pin_malloc_thresholds() -> bool:
    """Pin glibc's mmap and trim thresholds for the whole process, once.

    ``backward`` frees an episode's activations as it walks the tape.
    Under glibc's adaptive defaults that empties the top of the heap, the
    allocator hands it back to the kernel, and the next forward pass
    faults every page back in. With blocks under 32 MiB served from the
    heap, and the heap trimmed only when 64 MiB lie free at its top, the
    memory one step frees stays in the process for the next. Returns
    whether both thresholds were set. Where the C library has no
    ``mallopt`` nothing is done; later calls do nothing either and
    return the first call's answer.
    """
    global _malloc_pinned
    if _malloc_pinned is None:
        _malloc_pinned = False
        try:
            mallopt = getattr(ctypes.CDLL(None), "mallopt", None)
        except (OSError, TypeError):
            mallopt = None
        if mallopt is not None:
            mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
            mallopt.restype = ctypes.c_int
            _malloc_pinned = bool(
                mallopt(_M_MMAP_THRESHOLD, _MMAP_THRESHOLD)
                and mallopt(_M_TRIM_THRESHOLD, _TRIM_THRESHOLD))
    return _malloc_pinned


@dataclass
class TrainResult:
    model: Model
    history: list
    wall_time: float
    checkpoint_path: Optional[str] = None
    metrics_path: Optional[str] = None


def _buffers(mdl: Model):
    """Copies of the model's buffers: the BatchNorm running statistics.

    A training forward pass updates them; they are the only state a step
    changes before ``Adam.step`` has checked every gradient.
    """
    return [(name, value.copy()) for name, value in mdl.named_state()
            if not isinstance(value, Tensor)]


def _restore_buffers(mdl: Model, saved) -> None:
    state = dict(saved)
    for name, value in mdl.named_state():
        if not isinstance(value, Tensor):
            value[...] = state[name]


def train(manifest: DatasetManifest, cfg: RunConfig,
          out_dir: Optional[str] = None, mdl: Optional[Model] = None,
          log=None) -> TrainResult:
    """Run cfg.steps optimizer steps of episodic training.

    Episodes, and the adaptation loss's prompt bank, come from the
    ``"train"`` split. Each step averages gradients over ``cfg.window``
    episodes. A non-finite gradient aborts the run and a NumericalError
    names the step. ``Adam.step`` refuses such a gradient before it
    touches any parameter or moment, so only the BatchNorm running
    statistics, which the step's forward passes updated, roll back to the
    end of the last healthy step; the model as it stood then is written to the checkpoint
    when ``out_dir`` is given. Same config plus same seed reproduces the
    run bit for bit. Each metrics row also counts the tape nodes the
    step's episodes recorded. The first call pins the C allocator's
    thresholds for the process (``pin_malloc_thresholds``).
    """
    pin_malloc_thresholds()
    if mdl is None:
        mdl = build_model(manifest, cfg)
    log = log if log is not None else sys.stdout
    optimizer = Adam(mdl.named_parameters(), lr=cfg.lr)
    bank = manifest.prompt_bank("train")
    history = []
    metrics_fh = None
    checkpoint_path = metrics_path = None
    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)
        checkpoint_path = os.path.join(out_dir, "checkpoint.bin")
        metrics_path = os.path.join(out_dir, "metrics.jsonl")
        metrics_fh = open(metrics_path, "w", encoding="utf-8")

    start = time.perf_counter()
    header_done = False
    try:
        for step in range(cfg.steps):
            optimizer.zero_grad()
            buffers = _buffers(mdl)
            sums = {"adapt": 0.0, "task": 0.0, "consistency": 0.0,
                    "total": 0.0}
            nodes = 0
            for j in range(cfg.window):
                index = step * cfg.window + j
                episode = sample_episode(manifest,
                                         episode_rng(cfg.seed, index),
                                         cfg.way, cfg.shot, cfg.queries,
                                         "train")
                with T.Tape() as tape:
                    res = episode_forward(mdl, episode, cfg,
                                          episode_index=index, bank=bank,
                                          train=True)
                T.backward(res.loss)
                nodes += len(tape)
                for key in sums:
                    sums[key] += res.parts[key]
            if cfg.window > 1:
                for _, p in mdl.named_parameters():
                    if p.grad is not None:
                        # backward leaves each .grad to its leaf alone
                        np.divide(p.grad, cfg.window, out=p.grad)
            try:
                optimizer.step()
            except NumericalError as exc:
                _restore_buffers(mdl, buffers)
                if checkpoint_path is not None:
                    save_checkpoint(checkpoint_path, mdl.named_state())
                raise NumericalError(
                    f"aborted at optimizer step {step}: {exc}; the model "
                    f"is as it was at the end of step {step - 1}") from exc
            row = {"step": step + 1,
                   "wall": round(time.perf_counter() - start, 3)}
            row.update((k, sums[k] / cfg.window) for k in sums)
            row["tape_nodes"] = nodes
            history.append(row)
            if metrics_fh is not None:
                metrics_fh.write(json.dumps(row) + "\n")
            if (step + 1) % cfg.log_every == 0 or step + 1 == cfg.steps:
                if not header_done:
                    print(f"{'step':>6} {'total':>12} {'adapt':>10} "
                          f"{'task':>10} {'consist':>12} {'wall':>8}",
                          file=log)
                    header_done = True
                print(f"{row['step']:>6} {row['total']:>12.4f} "
                      f"{row['adapt']:>10.4f} {row['task']:>10.4f} "
                      f"{row['consistency']:>12.4f} {row['wall']:>8.1f}",
                      file=log)
    finally:
        if metrics_fh is not None:
            metrics_fh.close()
    if checkpoint_path is not None:
        save_checkpoint(checkpoint_path, mdl.named_state())
    return TrainResult(mdl, history, time.perf_counter() - start,
                       checkpoint_path, metrics_path)


# ---------------------------------------------------------------------------
# evaluation


@dataclass
class EvalResult:
    episodes: int
    total_queries: int
    correct: int
    accuracy: float
    half_width: float                # 1.96 * sqrt(p * (1 - p) / queries)
    wall_time: float
    parts_mean: Optional[dict] = None
    per_episode_correct: list = field(default_factory=list)


def evaluate(manifest: DatasetManifest, mdl: Model, cfg: RunConfig,
             episodes: Optional[int] = None,
             start_index: Optional[int] = None, compute_losses: bool = False,
             workers: Optional[int] = None, bank=None) -> EvalResult:
    """Score the model over a run of evaluation episodes.

    Episodes are ``cfg.way``-way ``cfg.shot``-shot with ``cfg.queries``
    queries per class, drawn from ``cfg.eval_split``; pass
    ``dataclasses.replace(cfg, ...)`` to score another shape or split.
    Episode i draws from the counter-based stream keyed by (seed,
    start_index + i), so the run is reproducible and disjoint from
    training. All episodes are sampled first. Without losses they are
    scored by ``score_episodes``, which enhances each distinct video once
    per role and branch for this call only and draws all of a branch's
    query tokens in one call; with losses each runs through
    ``episode_forward`` in eval mode. In eval mode a video's fake token is
    keyed by the run, the video and the branch, so it is the same in every
    episode that draws the video, whichever batch it was drawn in. Either
    way ``workers`` threads map over the same fixed blocks
    of episodes. Results are reduced in index order with float64
    accumulators; any worker count gives the same numbers. Parameters
    are never mutated. The ``episodes``, ``start_index`` and ``workers``
    overrides replace ``cfg.eval_episodes``, ``cfg.eval_start`` and
    ``cfg.workers``, so ``RunConfig`` checks them: a ConfigError names a
    bad one before any episode is sampled.
    """
    cfg = replace(cfg, **{name: value for name, value in (
        ("eval_episodes", episodes), ("eval_start", start_index),
        ("workers", workers)) if value is not None})
    episodes = cfg.eval_episodes

    t0 = time.perf_counter()
    indices = [cfg.eval_start + i for i in range(episodes)]
    sampled = [sample_episode(manifest, episode_rng(cfg.seed, index),
                              cfg.way, cfg.shot, cfg.queries, cfg.eval_split)
               for index in indices]

    def with_losses(lo: int, hi: int):
        return [episode_forward(mdl, episode, cfg, episode_index=index,
                                bank=bank)
                for episode, index in zip(sampled[lo:hi], indices[lo:hi])]

    if compute_losses:
        results = map_blocks(with_losses, episodes, cfg.workers)
    else:
        results = score_episodes(mdl, sampled, cfg)

    correct = 0
    total = 0
    per_episode = []
    part_sums: dict = {}
    for res in results:                  # index order: reduction is fixed
        correct += res.correct
        total += len(res.true_labels)
        per_episode.append(res.correct)
        if compute_losses:
            for key, val in res.parts.items():
                part_sums[key] = part_sums.get(key, 0.0) + float(val)
    accuracy = correct / total if total else 0.0
    half = 1.96 * np.sqrt(accuracy * (1.0 - accuracy) / total) if total else 0.0
    parts_mean = ({k: v / episodes for k, v in part_sums.items()}
                  if compute_losses else None)
    return EvalResult(episodes, total, correct, accuracy, float(half),
                      time.perf_counter() - t0, parts_mean, per_episode)


# ---------------------------------------------------------------------------
# gradient audit


@dataclass
class GradcheckEntry:
    name: str
    max_err: float
    worst_coord: int
    checked: int


@dataclass
class GradcheckReport:
    entries: list
    tolerance: float
    wall_time: float

    @property
    def ok(self) -> bool:
        return all(e.max_err <= self.tolerance for e in self.entries)

    @property
    def worst(self) -> GradcheckEntry:
        return max(self.entries, key=lambda e: e.max_err)

    def summary(self) -> str:
        lines = [f"{'parameter':<40} {'max rel err':>12} {'coord':>7} "
                 f"{'status':>7}"]
        for e in self.entries:
            status = "ok" if e.max_err <= self.tolerance else "FAIL"
            lines.append(f"{e.name:<40} {e.max_err:>12.3e} "
                         f"{e.worst_coord:>7} {status:>7}")
        verdict = "PASS" if self.ok else (
            f"FAIL: parameter {self.worst.name!r} coordinate "
            f"{self.worst.worst_coord} rel err {self.worst.max_err:.3e} "
            f"> {self.tolerance}")
        lines.append(verdict)
        return "\n".join(lines)


def gradcheck(manifest: DatasetManifest, cfg: RunConfig,
              coords_per_param: int = 20, h: float = 1e-5,
              tol: float = 1e-4, episode_index: int = 0) -> GradcheckReport:
    """Compare every model parameter's gradient to central differences.

    Runs in float64 on one fixed training episode through the full
    weighted loss. Each parameter tensor is probed at up to
    ``coords_per_param`` random coordinates; the report lists the max
    relative error per parameter and fails if any exceeds ``tol``.
    """
    t0 = time.perf_counter()
    with T.precision("float64"):
        mdl = build_model(manifest, cfg)
        bank = manifest.prompt_bank("train")
        episode = sample_episode(manifest,
                                 episode_rng(cfg.seed, episode_index),
                                 cfg.way, cfg.shot, cfg.queries, "train")

        def loss_value() -> float:
            res = episode_forward(mdl, episode, cfg,
                                  episode_index=episode_index, bank=bank,
                                  train=True)
            return float(res.loss.data)

        for _, p in mdl.named_parameters():
            p.grad = None
        with T.Tape():
            res = episode_forward(mdl, episode, cfg,
                                  episode_index=episode_index, bank=bank,
                                  train=True)
        T.backward(res.loss)

        entries = []
        rng = keyed_rng(cfg.seed, _GRADCHECK_TAG)
        for name, p in mdl.named_parameters():
            analytic = p.grad if p.grad is not None \
                else np.zeros_like(p.data)
            flat = p.data.reshape(-1)
            aflat = np.asarray(analytic).reshape(-1)
            count = min(coords_per_param, flat.size)
            coords = rng.choice(flat.size, size=count, replace=False)
            max_err, worst = 0.0, -1
            for c in coords:
                c = int(c)
                old = flat[c]
                flat[c] = old + h
                hi = loss_value()
                flat[c] = old - h
                lo = loss_value()
                flat[c] = old
                numeric = (hi - lo) / (2.0 * h)
                err = abs(aflat[c] - numeric) / max(1.0, abs(numeric))
                if err > max_err:
                    max_err, worst = err, c
            entries.append(GradcheckEntry(name, max_err, worst, count))
    return GradcheckReport(entries, tol, time.perf_counter() - t0)


# ---------------------------------------------------------------------------
# feature archiving


def dump_features(manifest: DatasetManifest, out_dir: str,
                  split: Optional[str] = None) -> str:
    """Write the manifest (optionally one split) to ``out_dir``.

    Features, prompts and the index land in the standard binary layout;
    loading the result reproduces the input records bit for bit.
    """
    records = [rec for rec in manifest.records
               if split is None or rec.split == split]
    if not records:
        raise DataError(f"no records to dump for split {split!r}")
    keep = {rec.class_id for rec in records}
    prompts = {cid: vec for cid, vec in manifest.prompts.items()
               if cid in keep}
    return write_manifest(out_dir, [(rec, rec.features()) for rec in records],
                          prompts)
