"""Training objectives: prompt-adaptation, episode classification, total.

The adaptation loss matches mean-pooled video features against the
prompt embeddings of every training class through a temperature softmax
over cosine similarity. The task loss is cross-entropy over the
alignment-based episode probabilities. The total is their weighted sum
together with the consistency term, under the three ``lam_*`` weights of
the run's ``runner.RunConfig``, which checks them. The task loss, the
total and the cross-entropy step of the adaptation loss are one tape
node each; ``tests/oracles.py`` keeps their primitive-op compositions.
"""

from __future__ import annotations

import threading

import numpy as np

from . import tensor as T
from .errors import DomainError, ShapeError
from .tensor import Tensor


def dam_probabilities(frames: Tensor, prompt_bank, temperature) -> Tensor:
    """Per-video class probabilities against the whole prompt bank.

    ``frames`` is the (V, T, D) frame stack of V videos. Each video is
    mean-pooled over its frames in one mean, scored by cosine against
    every bank prompt, and the cosines pass through a temperature softmax.
    Returns a (V, C) tensor whose rows sum to 1.
    """
    if frames.ndim != 3:
        raise ShapeError(f"dam_probabilities: frames must be V x T x D, "
                         f"got {frames.shape}")
    if not frames.shape[0]:
        raise ShapeError("dam_probabilities: no videos")
    bank = np.asarray(prompt_bank.data if isinstance(prompt_bank, Tensor)
                      else prompt_bank)
    if bank.ndim != 2 or bank.shape[0] < 1:
        raise ShapeError(f"prompt bank must be C x D, got {bank.shape}")
    norms = np.sqrt((bank.astype(np.float64) ** 2).sum(axis=1))
    if (norms == 0).any():
        raise DomainError(f"zero-norm prompt at row "
                          f"{int(np.flatnonzero(norms == 0)[0])}")

    reps = T.reduce_mean(frames, axis=1)                    # (V, D)
    rep_sq = (np.asarray(reps.data) ** 2).sum(axis=1)
    if (rep_sq == 0).any():
        raise DomainError(f"zero-norm pooled representation for video "
                          f"{int(np.flatnonzero(rep_sq == 0)[0])}")
    dots = T.matmul(reps, Tensor(bank.T))                   # (V, C)
    rep_norm = T.exp(T.scale(T.log(T.reduce_sum(T.mul(reps, reps), axis=1,
                                                keepdims=True)), 0.5))
    denom = T.matmul(rep_norm, Tensor(norms.reshape(1, -1)))
    cos = T.div(dots, denom)
    temp = temperature if isinstance(temperature, Tensor) else Tensor(float(temperature))
    return T.softmax(T.div(cos, temp), axis=-1)


def dam_loss(frames: Tensor, prompt_bank, true_indices, temperature) -> Tensor:
    """Cross-entropy of pooled videos against all training-class prompts.

    ``frames``: the (V, T, D) frame stack of the episode's videos;
    ``prompt_bank``: C x D array of class prompt embeddings, row order
    defining the index space of ``true_indices``; ``temperature`` divides
    the cosine logits and may be a learnable scalar tensor.
    """
    videos = frames.shape[0] if frames.ndim == 3 else 0
    if videos != len(true_indices):
        raise ShapeError(f"{videos} videos vs {len(true_indices)} labels")
    probs = dam_probabilities(frames, prompt_bank, temperature)
    num_classes = probs.shape[1]
    for idx in true_indices:
        if not 0 <= idx < num_classes:
            raise ShapeError(f"label {idx} outside prompt bank of "
                             f"{num_classes} classes")
    rows, labels = np.arange(videos), np.asarray(true_indices)
    picked = probs.data[rows, labels]
    if (picked <= 0).any():
        raise DomainError(f"dam_loss: true-class probability underflows to "
                          f"0 for video {int(np.flatnonzero(picked <= 0)[0])}")
    shape = probs.shape

    def bwd(g):
        dprobs = np.zeros(shape, g.dtype)
        dprobs[rows, labels] = (-g / videos) / picked
        return (dprobs,)

    # the mean negative log of the true-class entries, one tape node
    return T._record(-np.log(picked).mean(), (probs,), bwd)


_clamp_lock = threading.Lock()
_clamp_count = 0


def clamp_count() -> int:
    """How many query probabilities have been clamped at the floor so far."""
    return _clamp_count


def reset_clamp_count() -> None:
    global _clamp_count
    with _clamp_lock:
        _clamp_count = 0


def task_loss(probabilities: Tensor, true_indices,
              floor: float = 1e-12) -> Tensor:
    """Mean negative log probability of the true class over the queries.

    ``probabilities``: the (Q, N) class probabilities of the queries. The
    true-class entries are picked by index; those below ``floor`` are
    clamped there (and counted) so the log stays finite. One tape node,
    whose gradient reaches the picked entries only.
    """
    global _clamp_count
    if probabilities.ndim != 2:
        raise ShapeError(f"task_loss: probabilities must be Q x N, got "
                         f"{probabilities.shape}")
    queries, num_classes = probabilities.shape
    if queries != len(true_indices):
        raise ShapeError(f"{queries} probability rows vs "
                         f"{len(true_indices)} labels")
    if not queries:
        raise ShapeError("task_loss: no queries")
    for idx in true_indices:
        if not 0 <= idx < num_classes:
            raise ShapeError(f"label {idx} outside {num_classes} classes")
    rows = np.arange(queries)
    labels = np.asarray(true_indices)
    picked = probabilities.data[rows, labels]
    clamped = int((picked < floor).sum())
    if clamped:
        with _clamp_lock:
            _clamp_count += clamped
    # clamp_min(p, floor) = relu(p - floor) + floor, as the composition
    # in tests/oracles.py takes it
    low = np.asarray(floor, picked.dtype)
    kept = np.maximum(picked - low, 0)
    safe = kept + low
    scale = 1.0 / queries
    loss = -(np.log(safe).sum() * scale)
    shape = probabilities.shape

    def bwd(g):
        dprobs = np.zeros(shape, g.dtype)
        dprobs[rows, labels] = (-g * scale) / safe * (kept > 0)
        return (dprobs,)

    return T._record(loss, (probabilities,), bwd)


def total_loss(adapt: Tensor, task: Tensor, consistency: Tensor,
               cfg) -> Tensor:
    """Sum of the three terms weighted by ``cfg``'s ``lam_adapt``,
    ``lam_task`` and ``lam_consistency``, one tape node; gradient flows
    into each."""
    la, lt, lc = (float(cfg.lam_adapt), float(cfg.lam_task),
                  float(cfg.lam_consistency))
    total = (adapt.data * la + task.data * lt) + consistency.data * lc

    def bwd(g):
        return g * la, g * lt, g * lc

    return T._record(total, (adapt, task, consistency), bwd)
