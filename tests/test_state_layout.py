"""The checkpoint layout: entry names, order, shapes and dtypes of
``named_state``, and ``named_parameters`` as its trainable part."""

import numpy as np
import pytest

from cpm2c import cpm, model, nn
from cpm2c.tensor import Tensor


def _branch(prefix: str, length: int, dim: int = 8):
    t = f"{prefix}.transformer"
    return [
        (f"{t}.ln1.gamma", (dim,)), (f"{t}.ln1.beta", (dim,)),
        (f"{t}.attn.query.weight", (dim, dim)), (f"{t}.attn.query.bias", (dim,)),
        (f"{t}.attn.key.weight", (dim, dim)), (f"{t}.attn.key.bias", (dim,)),
        (f"{t}.attn.value.weight", (dim, dim)), (f"{t}.attn.value.bias", (dim,)),
        (f"{t}.attn.out.weight", (dim, dim)), (f"{t}.attn.out.bias", (dim,)),
        (f"{t}.ln2.gamma", (dim,)), (f"{t}.ln2.beta", (dim,)),
        (f"{t}.ffn1.weight", (4 * dim, dim)), (f"{t}.ffn1.bias", (4 * dim,)),
        (f"{t}.ffn2.weight", (dim, 4 * dim)), (f"{t}.ffn2.bias", (dim,)),
        (f"{prefix}.pos.table", (length, dim)),
    ]


def _phi_block(i: int, dim: int = 8):
    b = f"phi.block{i}"
    return [
        (f"{b}.linear.weight", (dim, dim)), (f"{b}.linear.bias", (dim,)),
        (f"{b}.bn.gamma", (dim,)), (f"{b}.bn.beta", (dim,)),
        (f"{b}.bn.running_mean", (dim,)), (f"{b}.bn.running_var", (dim,)),
    ]


MODEL_LAYOUT = (_branch("normal", 5) + _branch("motion", 4)
                + _phi_block(0) + _phi_block(1)
                + [("log_temperature", ())])


def _array(value):
    return value.data if isinstance(value, Tensor) else value


def test_model_state_layout_is_pinned():
    state = model.Model(dim=8, frames=4).named_state()
    assert [(n, _array(v).shape) for n, v in state] == MODEL_LAYOUT
    assert all(_array(v).dtype == np.float32 for _, v in state)


def _layers():
    rng = np.random.default_rng(0)
    return {
        "Linear": nn.Linear(4, 3, rng),
        "LayerNorm": nn.LayerNorm(4),
        "MultiHeadAttention": nn.MultiHeadAttention(8, 2, rng),
        "TransformerBlock": nn.TransformerBlock(8, 2, rng=rng),
        "BatchNorm": nn.BatchNorm(4),
        "PhiStack": nn.PhiStack(4, 2, rng=rng),
        "PositionalEmbedding": nn.PositionalEmbedding(3, 4, rng),
        "CpmBranch": cpm.CpmBranch(3, 8, 2, rng=rng),
        "Model": model.Model(dim=8, frames=4),
    }


@pytest.mark.parametrize("name", sorted(_layers()))
@pytest.mark.parametrize("prefix", ["", "outer"])
def test_parameters_are_the_tensor_entries_of_state(name, prefix):
    layer = _layers()[name]
    params = layer.named_parameters(prefix)
    tensors = [(n, v) for n, v in layer.named_state(prefix)
               if isinstance(v, Tensor)]
    assert [n for n, _ in params] == [n for n, _ in tensors]
    assert all(p is v for (_, p), (_, v) in zip(params, tensors))
    if prefix:
        assert all(n.startswith(prefix + ".") for n, _ in params)
