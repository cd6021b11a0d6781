"""Fused layer ops against their primitive-op compositions.

Every layer forward is one tape node with a hand-written backward. Each
must match its composition in ``oracles.py`` bit for bit going forward
and to rounding going backward, pass a float64 finite-difference check
on every input and parameter, and record exactly one node.
"""

import gc
import tracemalloc
import weakref
from collections import Counter

import numpy as np
import pytest

from cpm2c import cpm, data, model, nn, runner, tensor as T
from cpm2c.tensor import Tensor
from fdcheck import check_grads
from oracles import (count_layer_calls, patch_layer_oracles,
                     taped_attention_forward, taped_batchnorm_forward,
                     taped_layernorm_forward, taped_linear_forward,
                     taped_stack_token_frames_batch,
                     taped_transformer_block_forward)

CASES = [
    ("linear", (5, 6)), ("linear", (3, 4, 6)),
    ("layernorm", (5, 6)), ("layernorm", (3, 4, 6)),
    ("attention", (5, 6)), ("attention", (3, 4, 6)),
    ("batchnorm", (5, 6)), ("batchnorm", (3, 4, 6)),
    ("stack", (3, 4, 6)), ("stack_zero_table", (3, 4, 6)),
    ("batchnorm_eval", (5, 6)), ("batchnorm_eval", (3, 4, 6)),
    ("transformer", (5, 6)), ("transformer", (3, 4, 6)),
]


def _param(rng, *shape):
    return Tensor(rng.normal(size=shape), requires_grad=True)


def build(name, shape, seed=0):
    """(fused, oracle, inputs, params) for one layer on inputs of ``shape``.

    ``fused`` and ``oracle`` take the input tensors. Every parameter is
    random and nonzero, the attention output projection included, so
    each gradient path carries signal. Built under the active precision.
    """
    rng = np.random.default_rng(seed)
    dim = shape[-1]
    inputs = [_param(rng, *shape)]
    if name == "linear":
        layer = nn.Linear(dim, 5, rng)
        return (layer.forward, lambda x: taped_linear_forward(layer, x),
                inputs, [layer.weight, layer.bias])
    if name == "layernorm":
        layer = nn.LayerNorm(dim)
        layer.gamma, layer.beta = _param(rng, dim), _param(rng, dim)
        return (layer.forward, lambda x: taped_layernorm_forward(layer, x),
                inputs, [layer.gamma, layer.beta])
    if name == "attention":
        layer = nn.MultiHeadAttention(dim, 2, rng)
        layer.out = nn.Linear(dim, dim, rng)
        return (layer.forward, lambda x: taped_attention_forward(layer, x),
                inputs, [p for _, p in layer.named_parameters()])
    if name == "transformer":
        layer = nn.TransformerBlock(dim, 2, rng=rng)
        layer.attn.out = nn.Linear(dim, dim, rng)
        layer.ffn2 = nn.Linear(4 * dim, dim, rng)
        for norm in (layer.ln1, layer.ln2):
            norm.gamma, norm.beta = _param(rng, dim), _param(rng, dim)
        return (layer.forward,
                lambda x: taped_transformer_block_forward(layer, x),
                inputs, [p for _, p in layer.named_parameters()])
    if name == "batchnorm":
        layer = nn.BatchNorm(dim)
        layer.gamma, layer.beta = _param(rng, dim), _param(rng, dim)
        return (lambda x: layer.forward(x, train=True),
                lambda x: taped_batchnorm_forward(layer, x, train=True),
                inputs, [layer.gamma, layer.beta])
    if name == "batchnorm_eval":
        layer = nn.BatchNorm(dim)
        layer.gamma, layer.beta = _param(rng, dim), _param(rng, dim)
        layer.running_mean = rng.normal(size=dim).astype(np.float32)
        layer.running_var = rng.uniform(0.5, 2.0, dim).astype(np.float32)
        return (lambda x: layer.forward(x),
                lambda x: taped_batchnorm_forward(layer, x),
                inputs, [layer.gamma, layer.beta])
    batch, rows = shape[0], shape[1]
    inputs = [_param(rng, batch, dim), _param(rng, batch, rows, dim)]
    if name == "stack":
        table = _param(rng, rows + 1, dim)
        params = [table]
    else:  # a constant zero table: only the tokens and frames get gradients
        table = Tensor(np.zeros((rows + 1, dim)))
        params = []
    return (lambda t, f: cpm.stack_token_frames_batch(t, f, table),
            lambda t, f: taped_stack_token_frames_batch(t, f, table),
            inputs, params)


def _loss(out):
    w = np.random.default_rng(99).normal(size=out.shape)
    return T.reduce_sum(T.mul(out, Tensor(w)))


def _value_and_grads(fn, inputs, leaves):
    for leaf in leaves:
        leaf.zero_grad()
    with T.Tape():
        out = fn(*inputs)
        loss = _loss(out)
    T.backward(loss)
    return out.data, [leaf.grad for leaf in leaves]


@pytest.mark.parametrize("name,shape", CASES)
def test_fused_layer_gradcheck_float64(name, shape):
    with T.precision("float64"):
        fused, _, inputs, params = build(name, shape)
        for leaf in inputs + params:
            check_grads(lambda: _loss(fused(*inputs)), leaf, tol=1e-6)


@pytest.mark.parametrize("dtype", ["float32", "float64"])
@pytest.mark.parametrize("name,shape", CASES)
def test_fused_layer_matches_taped_oracle(name, shape, dtype):
    with T.precision(dtype):
        fused, oracle, inputs, params = build(name, shape)
        leaves = inputs + params
        got, g_fused = _value_and_grads(fused, inputs, leaves)
        want, g_taped = _value_and_grads(oracle, inputs, leaves)
    assert got.dtype == want.dtype == np.dtype(dtype)
    assert got.shape == want.shape
    assert np.array_equal(got, want)
    tol = 1e-5 if dtype == "float32" else 1e-12
    for a, b in zip(g_fused, g_taped):
        assert a.shape == b.shape
        assert np.allclose(a, b, rtol=0, atol=tol), np.abs(a - b).max()


@pytest.mark.parametrize("name,shape", CASES)
def test_fused_layer_records_one_node(name, shape):
    # attention is its four projections plus the fused core
    fused, _, inputs, params = build(name, shape)
    with T.Tape() as tape:
        fused(*inputs)
    ops = 5 if name == "attention" else 1
    assert len(tape) == len(inputs) + len(params) + ops


@pytest.mark.parametrize("dtype", ["float32", "float64"])
@pytest.mark.parametrize("shape", [(5, 6), (3, 4, 6), (6, 9, 16)])
def test_transformer_block_equals_its_composition_bitwise(shape, dtype):
    # the fused block recomputes the layer-norm outputs and the attention
    # core in its backward with the composition's own operations, so even
    # the gradients keep their bits; both residual projections are
    # nonzero, as they are once training has moved them
    with T.precision(dtype):
        fused, oracle, inputs, params = build("transformer", shape, seed=4)
        leaves = inputs + params
        got, g_fused = _value_and_grads(fused, inputs, leaves)
        want, g_taped = _value_and_grads(oracle, inputs, leaves)
    assert got.dtype == np.dtype(dtype)
    assert np.array_equal(got, want)
    assert len(g_fused) == 17
    for a, b in zip(g_fused, g_taped):
        assert a.dtype == b.dtype == np.dtype(dtype)
        assert a.shape == b.shape and np.array_equal(a, b)


def test_transformer_block_keeps_nothing_without_a_tape():
    # evaluation runs the block with no tape: nothing outlives the call,
    # and each intermediate is freed no later than in the composition,
    # so the traced peak stays at or under the composition's
    rng = np.random.default_rng(5)
    layer = nn.TransformerBlock(64, 8, rng=rng)
    layer.attn.out = nn.Linear(64, 64, rng)
    layer.ffn2 = nn.Linear(256, 64, rng)
    x = Tensor(rng.normal(size=(40, 9, 64)))

    def traced(fn):
        fn(x)
        gc.collect()
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            out = fn(x)
            now, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert not out.requires_grad
        return now - base - out.data.nbytes, peak - base

    kept, peak = traced(layer.forward)
    _, composed_peak = traced(
        lambda t: taped_transformer_block_forward(layer, t))
    # a few objects' worth of bytes, and none of the six arrays a taped
    # call keeps, each of which is at least 90 KiB here
    assert kept < 4096, kept
    assert peak <= composed_peak, (peak, composed_peak)


@pytest.mark.parametrize("dtype", ["float32", "float64"])
@pytest.mark.parametrize("shape", [(5, 6), (3, 4, 6)])
def test_eval_batchnorm_gradients_equal_oracle_bitwise(shape, dtype):
    # the fused node runs the composition's own backward ops
    with T.precision(dtype):
        fused, oracle, inputs, params = build("batchnorm_eval", shape)
        leaves = inputs + params
        _, g_fused = _value_and_grads(fused, inputs, leaves)
        _, g_taped = _value_and_grads(oracle, inputs, leaves)
    for a, b in zip(g_fused, g_taped):
        assert a.dtype == b.dtype == np.dtype(dtype)
        assert np.array_equal(a, b)


@pytest.mark.parametrize("dtype", ["float32", "float64"])
@pytest.mark.parametrize("shape", [(5, 6), (3, 4, 6)])
def test_batchnorm_running_stats_match_oracle(shape, dtype):
    with T.precision(dtype):
        rng = np.random.default_rng(1)
        x = Tensor(rng.normal(2.0, 3.0, size=shape))
        fused, taped = nn.BatchNorm(shape[-1]), nn.BatchNorm(shape[-1])
        for _ in range(2):
            fused.forward(x, train=True)
            taped_batchnorm_forward(taped, x, train=True)
    assert np.array_equal(fused.running_mean, taped.running_mean)
    assert np.array_equal(fused.running_var, taped.running_var)


@pytest.mark.parametrize("shape", [(5, 6), (3, 4, 6)])
def test_attention_weights_match_oracle_off_the_tape(shape):
    fused, _, inputs, _ = build("attention", shape)
    layer = fused.__self__
    with T.Tape():
        _, weights = layer.forward(inputs[0], return_weights=True)
        _, want = taped_attention_forward(layer, inputs[0],
                                          return_weights=True)
    assert not weights.requires_grad
    assert weights.shape == want.shape
    assert np.array_equal(weights.data, want.data)


def test_fused_layer_tapes_are_freed_without_garbage_collection():
    # a Tensor held by a backward closure refers back to its tape; that
    # cycle keeps each training step's tape alive until a full collection
    rng = np.random.default_rng(2)
    branch = cpm.CpmBranch(5, 6, num_heads=2, ffn_hidden=8, rng=rng)
    phi = nn.PhiStack(6, rng=rng)
    frames = Tensor(rng.normal(size=(3, 4, 6)))
    tokens = Tensor(rng.normal(size=(3, 6)))
    gc.disable()
    try:
        with T.Tape() as tape:
            out = cpm.feature_enhance_batch(branch, phi.forward(frames, True),
                                            tokens)
            loss = T.reduce_sum(T.mul(out, out))
        T.backward(loss)
        freed = weakref.ref(tape)
        del tape, out, loss
        assert freed() is None
    finally:
        gc.enable()


def test_training_episode_is_bit_identical_on_layer_oracles(monkeypatch):
    # float32 is what training runs in, and the precision where a change
    # in operation order would show first; the residual projections get
    # weight so that attention and the FFN reach the probabilities
    with T.precision("float32"):
        synth = data.SyntheticConfig(num_classes=20, dim=16, frames=8,
                                     scale=1.0, sigma=0.3, seed=3)
        manifest = data.build_synthetic_manifest(synth, videos_per_class=2)
        episode = data.sample_episode(manifest, data.episode_rng(5, 0), 5, 1,
                                      1, "train")

        def run():
            mdl = model.Model(dim=16, frames=8, seed=11)
            rng = np.random.default_rng(12)
            for branch in (mdl.normal, mdl.motion):
                block = branch.transformer
                block.attn.out = nn.Linear(16, 16, rng)
                block.ffn2 = nn.Linear(64, 16, rng)
            cfg = runner.RunConfig(seed=5, consistency_reduction="mean")
            with T.Tape() as tape:
                train = model.episode_forward(
                    mdl, episode, cfg, episode_index=0,
                    bank=manifest.prompt_bank(), train=True)
            T.backward(train.loss)
            grads = {n: p.grad for n, p in mdl.named_parameters()}
            evaluated = model.score_episodes(mdl, [episode], cfg)[0]
            return train, evaluated, grads, len(tape)

        fused_calls = count_layer_calls(monkeypatch)
        fused_train, fused_eval, fused_grads, fused_nodes = run()
        taped_calls = patch_layer_oracles(monkeypatch)
        taped_train, taped_eval, taped_grads, taped_nodes = run()
    # the compositions really ran: every layer call of the fused run went
    # to its composition, and every kind of layer was called; the fused
    # transformer block calls no other layer, its composition calls two
    # layer norms, attention with its four projections, and the two FFN
    # linears
    assert set(fused_calls) == {"linear", "transformer", "batchnorm",
                                "stack"}
    blocks = fused_calls["transformer"]
    assert blocks > 0
    assert taped_calls == fused_calls + Counter(
        linear=6 * blocks, layernorm=2 * blocks, attention=blocks)
    assert taped_nodes > fused_nodes
    assert np.array_equal(fused_train.probabilities, taped_train.probabilities)
    assert fused_train.parts == taped_train.parts
    assert np.array_equal(fused_eval.probabilities, taped_eval.probabilities)
    for name, g in fused_grads.items():
        scale = max(1.0, float(np.abs(taped_grads[name]).max()))
        assert np.allclose(g, taped_grads[name], rtol=0, atol=1e-5 * scale), \
            name
