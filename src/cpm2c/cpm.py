"""Consistency prototypes: prompt-conditioned enhancement of video batches.

A branch enhances a frame stack by injecting a class token (real prompt
embedding or a random fake stand-in): the token is added to every frame,
prepended as an extra row, summed with positions, and passed through a
transformer. This module holds the branch, the batched token stack and
enhancement, and the keyed fake tokens: in training one stream per
episode and branch, one row per video; in evaluation one stream per
video and branch (``video_key``), so a test video has one stand-in
wherever it is drawn; one call draws the tokens of many keys. ``model``
builds the class prototypes (means of real-token enhanced supports) and
the consistency loss (pulling fake-token enhancements toward real-token
ones, so the fake path becomes a valid query representation) from whole
batches.
The per-video forms of these steps live in ``tests/oracles.py``, as the
references that the batched code is tested against.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from . import tensor as T
from .data import FAKE_TAG, key_digests, keyed_normals
from .errors import ShapeError
from .nn import Module, PositionalEmbedding, TransformerBlock
from .tensor import Tensor

BRANCH_CODES = {"normal": 0, "motion": 1}


class CpmBranch(Module):
    """Transformer plus positional table for one fixed sequence length."""

    _state = ("transformer", "pos")

    def __init__(self, seq_len: int, dim: int, num_heads: int = 8,
                 ffn_hidden: Optional[int] = None,
                 rng: Optional[np.random.Generator] = None):
        rng = rng if rng is not None else np.random.default_rng(0)
        self.seq_len = seq_len
        self.dim = dim
        self.transformer = TransformerBlock(dim, num_heads, ffn_hidden, rng)
        self.pos = PositionalEmbedding(seq_len, dim, rng)


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


def feature_enhance_batch(branch: CpmBranch, frames: Tensor,
                          tokens: Tensor) -> Tensor:
    """One transformer pass over a whole batch of token-conditioned stacks.

    Equivalent to enhancing each video on its own (the per-video loop is
    the test oracle), but every video of the batch shares a single pass.
    """
    stacked = stack_token_frames_batch(tokens, frames, branch.pos.table)
    return branch.transformer.forward(stacked)


def video_key(video_id: str) -> int:
    """The fake-token key of one video in evaluation.

    Injective in ``video_id`` (the leading byte keeps leading NULs) and at
    least 2**64, so it never equals a training episode index.
    """
    return 2 ** 64 + int.from_bytes(b"\x01" + video_id.encode(), "big")


def fake_token(dim: int, run_seed: int, keys, rows: int,
               branch: str) -> np.ndarray:
    """The (len(keys), rows, dim) standard-normal float32 stand-in tokens
    of each key's stream, keyed by (run, key, branch).

    In training a key is an episode index, and row i of its stream is
    video i of the stream's order, which puts an episode's queries before
    its supports (``model._fake_tokens``). In evaluation the keys are
    ``video_key``s and one row is drawn from each. The draws are
    counter-based (``data.keyed_normals``): a key's rows are the same
    alone or in any batch, fewer rows are a prefix of more rows bit for
    bit, and the same key always regenerates them, which makes
    evaluation worker-count-invariant and runs replayable.
    """
    digests = key_digests(keys, run_seed, FAKE_TAG, BRANCH_CODES[branch])
    return keyed_normals(digests, rows * dim).reshape(len(digests), rows,
                                                      dim)
