"""Consistency prototypes: prompt-conditioned enhancement and its losses.

A branch enhances a frame stack by injecting a class token (real prompt
embedding or a random fake stand-in): the token is added to every frame,
prepended as an extra row, summed with positions, and passed through a
transformer. Class prototypes are means of real-token enhanced supports;
the consistency loss pulls fake-token enhancements toward real-token
ones so the fake path becomes a valid query representation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import tensor as T
from .data import FAKE_TAG, keyed_rng
from .errors import ConfigError, ShapeError
from .nn import PositionalEmbedding, TransformerBlock, _join
from .tensor import Tensor

BRANCH_CODES = {"normal": 0, "motion": 1}


class CpmBranch:
    """Transformer plus positional table for one fixed sequence length."""

    def __init__(self, seq_len: int, dim: int, num_heads: int = 8,
                 ffn_hidden: Optional[int] = None,
                 rng: Optional[np.random.Generator] = None):
        rng = rng if rng is not None else np.random.default_rng(0)
        self.seq_len = seq_len
        self.dim = dim
        self.transformer = TransformerBlock(dim, num_heads, ffn_hidden, rng)
        self.pos = PositionalEmbedding(seq_len, dim, rng)

    def named_parameters(self, prefix: str = ""):
        return (self.transformer.named_parameters(_join(prefix, "transformer"))
                + self.pos.named_parameters(_join(prefix, "pos")))

    named_state = named_parameters


def stack_token_frames(token: Tensor, frames: Tensor) -> Tensor:
    """Token-conditioned stack: row 0 is the token, row r is token + frames[r-1].

    This is the exact pre-transformer tensor; tests assert it bit-level.
    """
    if token.ndim != 1 or frames.ndim != 2 or token.shape[0] != frames.shape[1]:
        raise ShapeError(f"token {token.shape} does not match frames "
                         f"{frames.shape}")
    n = frames.shape[0]
    conditioned = T.add(T.broadcast_repeat(token, 0, n), frames)
    return T.concat([T.reshape(token, (1, token.shape[0])), conditioned], axis=0)


def feature_enhance(branch: CpmBranch, frames: Tensor, token: Tensor,
                    train: bool = False) -> Tensor:
    """Enhanced features: transformer over (token stack + positions)."""
    stacked = stack_token_frames(token, frames)
    if stacked.shape[0] != branch.seq_len:
        raise ShapeError(f"branch expects length {branch.seq_len}, got "
                         f"{stacked.shape[0]}")
    return branch.transformer.forward(T.add(stacked, branch.pos.table),
                                      train=train)


def stack_token_frames_batch(tokens: Tensor, frames: Tensor,
                             table: Tensor) -> Tensor:
    """Batched token stacks plus positions: (B, D) tokens over (B, L-1, D)
    frames and an (L, D) positional table -> (B, L, D), one tape node.

    Row 0 of stack b is tokens[b] and row r is tokens[b] + frames[b, r-1];
    ``table`` is then added to every stack.
    """
    if tokens.ndim != 2 or frames.ndim != 3 or \
            tokens.shape[0] != frames.shape[0] or \
            tokens.shape[1] != frames.shape[2]:
        raise ShapeError(f"tokens {tokens.shape} do not match frames "
                         f"{frames.shape}")
    length, dim = frames.shape[1] + 1, frames.shape[2]
    if table.shape != (length, dim):
        raise ShapeError(f"positional table {table.shape} does not "
                         f"match token stacks of {(length, dim)}")
    head = tokens.data[:, None, :]
    stacked = np.concatenate([head, head + frames.data], axis=1) + table.data

    def bwd(g):
        rows = g[:, 1:]
        return g[:, 0] + rows.sum(axis=1), rows, g.sum(axis=0)

    return T._record(stacked, (tokens, frames, table), bwd)


def feature_enhance_batch(branch: CpmBranch, frames: Tensor, tokens: Tensor,
                          train: bool = False) -> Tensor:
    """One transformer pass over a whole batch of token-conditioned stacks.

    Equivalent to feature_enhance video by video (the per-video loop is the
    test oracle), but every video of an episode shares a single pass.
    """
    stacked = stack_token_frames_batch(tokens, frames, branch.pos.table)
    return branch.transformer.forward(stacked, train=train)


def consistency_loss(reals, fakes, reduction: str = "sum") -> Tensor:
    """Squared-L2 gap between paired fake and real enhanced features.

    Sum reduction adds every squared element over every pair; mean divides
    by pair count times elements per pair. Gradient flows into both paths.
    """
    reals, fakes = list(reals), list(fakes)
    if len(reals) != len(fakes):
        raise ShapeError(f"{len(reals)} real vs {len(fakes)} fake features")
    if reduction not in ("sum", "mean"):
        raise ConfigError(f"unknown reduction {reduction!r}")
    if not reals:
        return Tensor(0.0)
    total = None
    numel = 0
    for real, fake in zip(reals, fakes):
        if real.shape != fake.shape:
            raise ShapeError(f"pair shapes differ: {real.shape} vs {fake.shape}")
        diff = T.sub(fake, real)
        term = T.reduce_sum(T.mul(diff, diff))
        total = term if total is None else T.add(total, term)
        numel += real.size
    if reduction == "mean":
        total = T.scale(total, 1.0 / numel)
    return total


def build_prototype(real_supports) -> Tensor:
    """Elementwise mean of the K real-token enhanced support features."""
    feats = list(real_supports)
    if not feats:
        raise ShapeError("prototype needs at least one support feature")
    total = feats[0]
    for f in feats[1:]:
        total = T.add(total, f)
    return T.scale(total, 1.0 / len(feats))


@dataclass(frozen=True)
class FakeToken:
    """Random stand-in token plus the key that regenerates it exactly."""

    vector: np.ndarray
    provenance: tuple


def fake_token(dim: int, run_seed: int, episode_index: int, video_index: int,
               branch: str) -> FakeToken:
    """Standard-normal token keyed by (run, episode, video, branch).

    The same provenance always regenerates the same vector bit for bit,
    which makes evaluation worker-count-invariant and runs replayable.
    """
    code = BRANCH_CODES[branch]
    rng = keyed_rng(run_seed, FAKE_TAG, episode_index, video_index, code)
    vec = rng.standard_normal(dim).astype(np.float32)
    return FakeToken(vec, (run_seed, episode_index, video_index, branch))


def query_feature(branch: CpmBranch, frames: Tensor, fake: FakeToken,
                  train: bool = False) -> Tensor:
    """Enhancement under the fake token: the only query path used for
    distance computation, at train and at test time alike."""
    return feature_enhance(branch, frames, Tensor(fake.vector), train=train)
