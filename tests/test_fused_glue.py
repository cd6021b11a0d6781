"""Fused per-episode glue against its primitive-op compositions.

The cost matrix, the motion arithmetic after Phi, a branch's prototype,
query and consistency reads of its enhanced stacks, the branch-cost
combination, and the task, adaptation and total losses are one tape
node each with a hand-written backward. Each must match its composition
in ``oracles.py`` bit for bit going forward and to rounding going
backward, in float32 and in float64, and pass a float64
finite-difference check.
"""

import gc
import weakref

import numpy as np
import pytest

from cpm2c import cpm, data, metric, model, motion, nn, objective, \
    runner, tensor as T
from cpm2c.tensor import Tensor
from fdcheck import check_grads
from oracles import (list_dam_loss, taped_branch_pass, taped_cost_matrix,
                     taped_motion_features, taped_similarity,
                     taped_task_loss, taped_total_loss)


def _leaf(rng, *shape):
    return Tensor(rng.normal(size=shape), requires_grad=True)


def _probabilities(rng, rows, cols):
    raw = rng.uniform(0.05, 1.0, size=(rows, cols))
    return raw / raw.sum(axis=1, keepdims=True)


def build(name, seed=0):
    """(fused, oracle, leaves, fused nodes) for one op, under the active
    precision. ``fused`` and ``oracle`` take no arguments and return the
    op's outputs as a tuple; ``leaves`` are the tensors that get
    gradients; the fused op records that many nodes beyond its leaves,
    or None where the case also runs layers (Phi, the transformer)."""
    rng = np.random.default_rng(seed)
    if name.startswith("cost"):
        shapes = {"cost": ((4, 6), (5, 6)),
                  "cost_batched": ((3, 4, 6), (3, 2, 6)),
                  "cost_broadcast": ((2, 1, 3, 4, 6), (2, 4, 1, 5, 6))}[name]
        a, b = (_leaf(rng, *shape) for shape in shapes)
        return (lambda: (metric.cost_matrix(a, b),),
                lambda: (taped_cost_matrix(a, b),), [a, b], 1)
    if name.startswith("motion"):
        shape = (5, 6) if name == "motion" else (3, 5, 6)
        phi = nn.PhiStack(6, 2, rng=rng)
        frames = _leaf(rng, *shape)
        params = [p for _, p in phi.named_parameters()]
        # Phi's own nodes are the same on both sides
        return (lambda: (motion.motion_features(phi, frames, train=True),),
                lambda: (taped_motion_features(phi, frames, train=True),),
                [frames] + params, None)
    if name == "branch":
        n, k, q = 2, 2, 3
        branch = cpm.CpmBranch(5, 6, num_heads=2, ffn_hidden=8, rng=rng)
        branch.transformer.attn.out = nn.Linear(6, 6, rng)
        branch.transformer.ffn2 = nn.Linear(8, 6, rng)
        frames = _leaf(rng, n * k + q, 4, 6)
        tokens = rng.normal(size=(2 * (n * k + q), 6))
        params = [p for _, p in branch.named_parameters()]

        def run(fn):
            return lambda: fn(branch, frames, tokens, n, k)[:3]
        return run(model._branch_pass), run(taped_branch_pass), \
            [frames] + params, None
    if name.startswith("similarity"):
        names = ("normal", "motion") if name == "similarity" \
            else ("motion",)
        dists = [_leaf(rng, 2, 3, 4) for _ in names]
        return (lambda: (model._similarity(dists, names, 0.7),),
                lambda: (taped_similarity(dists, names, 0.7),), dists, 1)
    if name in ("task", "task_clamped"):
        raw = _probabilities(rng, 6, 4)
        if name == "task_clamped":
            raw[2] = [0.0, 0.5, 0.5, 0.0]
        probs = Tensor(raw, requires_grad=True)
        labels = [0, 3, 0, 1, 2, 2]
        return (lambda: (objective.task_loss(probs, labels),),
                lambda: (taped_task_loss(probs, labels),), [probs], 1)
    if name == "total":
        parts = [_leaf(rng) for _ in range(3)]
        w = runner.RunConfig(lam_adapt=0.5, lam_task=2.0,
                             lam_consistency=0.25)
        return (lambda: (objective.total_loss(*parts, w),),
                lambda: (taped_total_loss(*parts, w),), parts, 1)
    if name == "dam":
        frames = _leaf(rng, 5, 4, 6)
        bank = rng.normal(size=(3, 6))
        log_t = Tensor(np.log(0.2), requires_grad=True)
        labels = [0, 1, 2, 2, 1]
        return (lambda: (objective.dam_loss(frames, bank, labels,
                                            T.exp(log_t)),),
                lambda: (list_dam_loss([T.reshape(T.slice_axis(frames, 0, v,
                                                               v + 1), (4, 6))
                                        for v in range(5)], bank, labels,
                                       T.exp(log_t)),),
                [frames, log_t], None)
    raise KeyError(name)


NAMES = ["cost", "cost_batched", "cost_broadcast", "motion", "motion_batched",
         "branch", "similarity", "similarity_motion", "task", "task_clamped", "total", "dam"]


def _loss(outputs):
    rng = np.random.default_rng(99)
    total = None
    for out in outputs:
        term = T.reduce_sum(T.mul(out, Tensor(rng.normal(size=out.shape))))
        total = term if total is None else T.add(total, term)
    return total


def _values_and_grads(fn, leaves):
    for leaf in leaves:
        leaf.zero_grad()
    with T.Tape():
        outputs = fn()
        loss = _loss(outputs)
    T.backward(loss)
    return [out.data for out in outputs], [leaf.grad for leaf in leaves]


@pytest.mark.parametrize("dtype", ["float32", "float64"])
@pytest.mark.parametrize("name", NAMES)
def test_fused_glue_matches_taped_oracle(name, dtype):
    with T.precision(dtype):
        fused, oracle, leaves, _ = build(name)
        got, g_fused = _values_and_grads(fused, leaves)
        want, g_taped = _values_and_grads(oracle, leaves)
    for a, b in zip(got, want):
        assert a.dtype == b.dtype == np.dtype(dtype)
        assert a.shape == b.shape
        assert np.array_equal(a, b)
    # the cost matrix's backward is the normalized-row form, not the
    # chain rule through the norms, so it differs in the last bits; every
    # other backward takes the composition's steps in its order
    tol = 0.0 if not name.startswith("cost") else \
        1e-6 if dtype == "float32" else 1e-14
    for a, b in zip(g_fused, g_taped):
        assert a is not None and a.shape == b.shape
        scale = max(1.0, float(np.abs(b).max()))
        assert np.allclose(a, b, rtol=0, atol=tol * scale), \
            np.abs(a - b).max() / scale


# the clamp is a kink at the floor, where central differences disagree
@pytest.mark.parametrize("name", [n for n in NAMES if n != "task_clamped"])
def test_fused_glue_gradcheck_float64(name):
    with T.precision("float64"):
        fused, _, leaves, _ = build(name)
        for leaf in leaves:
            check_grads(lambda: _loss(fused()), leaf, tol=1e-6)


@pytest.mark.parametrize("name", [n for n in NAMES
                                  if build(n)[3] is not None])
def test_fused_glue_records_one_node(name):
    fused, _, leaves, nodes = build(name)
    with T.Tape() as tape:
        fused()
    assert len(tape) == len(leaves) + nodes


def test_training_episode_tape_is_freed_without_garbage_collection():
    # every fused backward holds arrays only: a Tensor in a closure would
    # refer back to its tape and keep it alive until a full collection
    synth = data.SyntheticConfig(num_classes=8, dim=8, frames=4, seed=3)
    manifest = data.build_synthetic_manifest(synth, videos_per_class=3)
    mdl = model.Model(dim=8, frames=4, seed=11)
    episode = data.sample_episode(manifest, data.episode_rng(5, 0), 3, 1, 1,
                                  "train")
    gc.disable()
    try:
        with T.Tape() as tape:
            res = model.episode_forward(mdl, episode,
                                        runner.RunConfig(seed=5),
                                        episode_index=0, train=True,
                                        bank=manifest.prompt_bank())
        T.backward(res.loss)
        freed = weakref.ref(tape)
        del tape, res
        assert freed() is None
    finally:
        gc.enable()
