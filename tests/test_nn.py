"""Layer and optimizer tests: forward oracles, gradient checks, checkpoints."""

import numpy as np
import pytest

from cpm2c import nn, tensor as T
from cpm2c.errors import CheckpointError, NumericalError, ShapeError
from cpm2c.tensor import Tensor
from fdcheck import check_grads
from oracles import reference_adam_step, transposed_weight_grad


@pytest.fixture(autouse=True)
def float64_mode():
    with T.precision("float64"):
        yield


def weighted_sum(out, rng):
    """Reduce a tensor to a scalar with fixed random weights so every
    output coordinate influences the loss."""
    w = rng.normal(size=out.shape)
    return T.reduce_sum(T.mul(out, Tensor(w)))


# ---------------------------------------------------------------------------
# linear


def test_linear_hand_case():
    layer = nn.Linear.zeros(2, 1)
    layer.weight.data = np.array([[1.0, 1.0]])
    out = layer.forward(Tensor([[2.0, 3.0]]))
    assert np.allclose(out.data, [[5.0]])


def test_linear_matches_loop_oracle():
    rng = np.random.default_rng(0)
    layer = nn.Linear(4, 3, rng)
    x = rng.normal(size=(5, 4))
    got = layer.forward(Tensor(x)).data
    for r in range(5):
        for o in range(3):
            acc = layer.bias.data[o]
            for i in range(4):
                acc += x[r, i] * layer.weight.data[o, i]
            assert abs(got[r, o] - acc) < 1e-6


def test_linear_rejects_wrong_input_dim():
    layer = nn.Linear(4, 3, np.random.default_rng(0))
    with pytest.raises(ShapeError):
        layer.forward(Tensor(np.zeros((2, 5))))


def test_linear_grads():
    rng = np.random.default_rng(1)
    layer = nn.Linear(3, 2, rng)
    x = Tensor(rng.normal(size=(4, 3)), requires_grad=True)
    wr = np.random.default_rng(2)

    def f():
        return weighted_sum(layer.forward(x), np.random.default_rng(99))

    check_grads(f, x)
    check_grads(f, layer.weight)
    check_grads(f, layer.bias)
    del wr


@pytest.mark.parametrize("dtype", ["float32", "float64"])
@pytest.mark.parametrize("rows,in_dim,out_dim", [
    ((90,), 64, 64), ((10, 9), 64, 256), ((90,), 256, 64),
    ((630,), 512, 512), ((70, 9), 512, 2048), ((630,), 2048, 512)])
def test_linear_weight_grad_is_contiguous_and_matches_transposed_form(
        rows, in_dim, out_dim, dtype):
    # d64 and d512 shapes of the attention projections and the FFN
    rng = np.random.default_rng(in_dim + out_dim)
    with T.precision(dtype):
        layer = nn.Linear(in_dim, out_dim, rng)
        x = Tensor(rng.normal(size=rows + (in_dim,)), requires_grad=True)
        g = rng.normal(size=rows + (out_dim,)).astype(dtype)
        with T.Tape() as tape:
            out = layer.forward(x)
            loss = T.reduce_sum(T.mul(out, Tensor(g)))
        # the partial the node hands to the weight leaf, before the deposit
        partial = tape._nodes[out.node].backward(g)[1]
        T.backward(loss)
    assert partial.flags.c_contiguous and partial.dtype == np.dtype(dtype)
    want = transposed_weight_grad(x.data.reshape(-1, in_dim),
                                  g.reshape(-1, out_dim))
    assert partial.tobytes() == np.ascontiguousarray(want).tobytes()
    assert layer.weight.grad.tobytes() == partial.tobytes()


# ---------------------------------------------------------------------------
# layer norm


def test_layernorm_matches_numpy_oracle():
    rng = np.random.default_rng(3)
    ln = nn.LayerNorm(5)
    ln.gamma.data = rng.normal(size=5)
    ln.beta.data = rng.normal(size=5)
    x = rng.normal(size=(3, 5))
    got = ln.forward(Tensor(x)).data
    mu = x.mean(axis=-1, keepdims=True)
    var = x.var(axis=-1, keepdims=True)
    want = ln.gamma.data * (x - mu) / np.sqrt(var + 1e-5) + ln.beta.data
    assert np.allclose(got, want, atol=1e-10)


def test_layernorm_grads():
    rng = np.random.default_rng(4)
    ln = nn.LayerNorm(4)
    x = Tensor(rng.normal(size=(3, 4)), requires_grad=True)

    def f():
        return weighted_sum(ln.forward(x), np.random.default_rng(98))

    check_grads(f, x)
    check_grads(f, ln.gamma)
    check_grads(f, ln.beta)


# ---------------------------------------------------------------------------
# attention


def test_mha_single_position_is_projected_value():
    rng = np.random.default_rng(5)
    mha = nn.MultiHeadAttention(8, 2, rng)
    mha.out = nn.Linear(8, 8, rng)  # nonzero so the path is visible
    x = Tensor(rng.normal(size=(1, 8)))
    got = mha.forward(x).data
    want = mha.out.forward(mha.value.forward(x)).data
    assert np.allclose(got, want, atol=1e-10)


def test_mha_identical_rows_give_identical_outputs():
    rng = np.random.default_rng(6)
    mha = nn.MultiHeadAttention(8, 4, rng)
    mha.out = nn.Linear(8, 8, rng)
    row = rng.normal(size=8)
    x = Tensor(np.tile(row, (5, 1)))
    out = mha.forward(x).data
    for r in range(1, 5):
        assert np.allclose(out[r], out[0], atol=1e-10)


def test_mha_single_head_matches_explicit_oracle():
    rng = np.random.default_rng(7)
    d = 6
    mha = nn.MultiHeadAttention(d, 1, rng)
    mha.out = nn.Linear(d, d, rng)
    x = rng.normal(size=(2, d))
    got = mha.forward(Tensor(x)).data

    def lin(layer, v):
        return v @ layer.weight.data.T + layer.bias.data

    q = lin(mha.query, x)
    k = lin(mha.key, x)
    v = lin(mha.value, x)
    scores = q @ k.T / np.sqrt(d)
    e = np.exp(scores - scores.max(axis=-1, keepdims=True))
    attn = e / e.sum(axis=-1, keepdims=True)
    want = lin(mha.out, attn @ v)
    assert np.allclose(got, want, atol=1e-5)


def test_mha_rows_sum_to_one_per_head():
    rng = np.random.default_rng(8)
    mha = nn.MultiHeadAttention(16, 8, rng)
    x = Tensor(rng.normal(size=(5, 16)))
    _, weights = mha.forward(x, return_weights=True)
    sums = weights.data.sum(axis=-1)
    assert np.allclose(sums, 1.0, atol=1e-6)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("length", range(2, 18))
def test_attention_row_sum_equals_numpy_sum_bitwise(length, dtype):
    # softmax denominators and the backward's row sums, at the (B, H, L, L)
    # layout attention feeds them in, positive and mixed-sign
    rng = np.random.default_rng(length)
    scores = rng.normal(scale=4.0, size=(3, 2, length, length))
    for a in (np.exp(scores).astype(dtype), scores.astype(dtype)):
        got = nn._row_sum(a)
        assert got.dtype == dtype
        assert np.array_equal(got, a.sum(axis=-1, keepdims=True))


def test_mha_rejects_indivisible_heads():
    with pytest.raises(ShapeError):
        nn.MultiHeadAttention(10, 4, np.random.default_rng(0))


# ---------------------------------------------------------------------------
# transformer block


def test_transformer_zero_projections_is_identity():
    rng = np.random.default_rng(9)
    block = nn.TransformerBlock(8, num_heads=2, rng=rng)
    x = rng.normal(size=(5, 8))
    out = block.forward(Tensor(x)).data
    assert np.allclose(out, x, atol=1e-12)


def test_transformer_shape_preserved_when_nonidentity():
    rng = np.random.default_rng(10)
    block = nn.TransformerBlock(8, num_heads=2, rng=rng)
    block.attn.out = nn.Linear(8, 8, rng)
    block.ffn2 = nn.Linear(32, 8, rng)
    x = Tensor(rng.normal(size=(5, 8)))
    out = block.forward(x)
    assert out.shape == (5, 8)
    assert not np.allclose(out.data, x.data)


def test_transformer_gradcheck_all_parameters():
    rng = np.random.default_rng(11)
    block = nn.TransformerBlock(6, num_heads=2, ffn_hidden=8, rng=rng)
    # make the residual projections nonzero so their gradients are exercised
    block.attn.out = nn.Linear(6, 6, rng)
    block.ffn2 = nn.Linear(8, 6, rng)
    x = Tensor(rng.normal(size=(4, 6)), requires_grad=True)

    def f():
        return weighted_sum(block.forward(x), np.random.default_rng(97))

    check_grads(f, x, tol=1e-6)
    for name, p in block.named_parameters():
        check_grads(f, p, tol=1e-6)


# ---------------------------------------------------------------------------
# batch norm and phi


def test_batchnorm_train_recenters_to_beta():
    rng = np.random.default_rng(12)
    bn = nn.BatchNorm(4)
    bn.beta.data = np.array([1.0, -1.0, 0.5, 0.0])
    x = Tensor(rng.normal(2.0, 3.0, size=(16, 4)))
    out = bn.forward(x, train=True).data
    assert np.allclose(out.mean(axis=0), bn.beta.data, atol=1e-5)


def test_batchnorm_running_stats_track_batches():
    rng = np.random.default_rng(13)
    bn = nn.BatchNorm(2)
    x = rng.normal(5.0, 2.0, size=(8, 2))
    bn.forward(Tensor(x), train=True)
    m = 0.1
    want_mean = m * x.mean(axis=0)
    want_var = (1 - m) * 1.0 + m * x.var(axis=0, ddof=1)
    assert np.allclose(bn.running_mean, want_mean, atol=1e-6)
    assert np.allclose(bn.running_var, want_var, atol=1e-6)


def test_batchnorm_eval_uses_running_stats_deterministically():
    rng = np.random.default_rng(14)
    bn = nn.BatchNorm(3)
    bn.forward(Tensor(rng.normal(size=(8, 3))), train=True)
    x = Tensor(rng.normal(size=(4, 3)))
    a = bn.forward(x, train=False).data
    b = bn.forward(x, train=False).data
    assert np.array_equal(a, b)


def test_identity_phi_is_exact_identity():
    phi = nn.PhiStack(5, 0)
    rng = np.random.default_rng(15)
    x = Tensor(rng.normal(size=(8, 5)))
    for train in (False, True):
        out = phi.forward(x, train=train)
        assert np.array_equal(out.data, x.data)
    assert phi.named_state() == []


def test_phi_forward_shape_and_gradcheck():
    rng = np.random.default_rng(16)
    phi = nn.PhiStack(4, blocks=2, rng=rng)
    x = Tensor(rng.normal(size=(6, 4)), requires_grad=True)
    out = phi.forward(x, train=True)
    assert out.shape == (6, 4)

    def f():
        return weighted_sum(phi.forward(x, train=True), np.random.default_rng(96))

    check_grads(f, x, tol=1e-6)
    for name, p in phi.named_parameters():
        check_grads(f, p, tol=1e-6)


def test_phi_eval_before_training_uses_unit_stats():
    rng = np.random.default_rng(17)
    phi = nn.PhiStack(3, blocks=1, rng=rng)
    x = Tensor(rng.normal(size=(4, 3)))
    out = phi.forward(x, train=False)  # running stats still (0, 1)
    lin = phi.linears[0].forward(x).data
    want = np.maximum(lin / np.sqrt(1.0 + 1e-5), 0.0)
    assert np.allclose(out.data, want, atol=1e-10)


# ---------------------------------------------------------------------------
# adam


def test_adam_zero_gradients_leave_params_unchanged():
    p = Tensor([1.0, 2.0], requires_grad=True)
    opt = nn.Adam([("p", p)], lr=0.1)
    p.grad = np.zeros(2)
    before = p.data.copy()
    opt.step()
    assert np.array_equal(p.data, before)


def test_adam_first_step_moves_by_lr():
    p = Tensor([1.0], requires_grad=True)
    opt = nn.Adam([("p", p)], lr=0.1)
    p.grad = np.array([1.0])
    opt.step()
    assert abs(p.data[0] - 0.9) < 1e-6


def test_adam_converges_on_quadratic():
    p = Tensor([1.0], requires_grad=True)
    opt = nn.Adam([("p", p)], lr=0.01)
    for _ in range(2000):
        p.grad = 2.0 * p.data
        opt.step()
    assert abs(p.data[0]) < 1e-3


def test_adam_rejects_nonfinite_gradient_by_name():
    p = Tensor([1.0], requires_grad=True)
    q = Tensor([1.0], requires_grad=True)
    opt = nn.Adam([("p", p), ("q", q)], lr=0.1)
    p.grad = np.array([1.0])
    q.grad = np.array([np.nan])
    before = p.data.copy()
    with pytest.raises(NumericalError, match="q"):
        opt.step()
    assert np.array_equal(p.data, before)  # aborted before any update


def test_adam_skips_params_without_grads():
    p = Tensor([1.0], requires_grad=True)
    opt = nn.Adam([("p", p)], lr=0.1)
    opt.step()
    assert np.array_equal(p.data, [1.0])


def _adam_params():
    # a 0-d scalar like log_temperature, a vector and a matrix that span
    # several row blocks with a ragged last one, and two small ones
    rng = np.random.default_rng(5)
    shapes = [(), (7,), (nn._ADAM_BLOCK + 4465,), (300, 512), (9, 64)]
    return [(f"p{i}", Tensor(rng.normal(size=shape), requires_grad=True))
            for i, shape in enumerate(shapes)]


@pytest.mark.parametrize("dtype", ["float32", "float64"])
def test_adam_updates_in_place_bit_identical_to_reference(dtype):
    with T.precision(dtype):
        live, ref = _adam_params(), _adam_params()
    opt = nn.Adam(live, lr=1e-3)
    ref_opt = nn.Adam(ref, lr=1e-3)
    arrays = [p.data for _, p in live]
    moments = [(opt._m[name], opt._v[name]) for name, _ in live]
    rng = np.random.default_rng(6)
    for step in range(5):
        for i, ((_, p), (_, q)) in enumerate(zip(live, ref)):
            g = (rng.normal(size=p.shape)
                 * 10.0 ** rng.integers(-4, 2)).astype(dtype)
            if g.ndim == 0:
                g = g[()]                    # a numpy scalar, not a 0-d array
            if i == 1 and step % 2:
                g = None                     # no gradient: left alone
            p.grad = g
            q.grad = None if g is None else g.copy()
        opt.step()
        reference_adam_step(ref_opt)
        assert opt.step_count == ref_opt.step_count == step + 1
        for (name, p), (_, q), arr, (m, v) in zip(live, ref, arrays,
                                                   moments):
            assert p.data is arr and p.data.dtype == np.dtype(dtype)
            assert opt._m[name] is m and opt._v[name] is v
            for got, want in ((p.data, q.data), (m, ref_opt._m[name]),
                              (v, ref_opt._v[name])):
                assert got.tobytes() == np.asarray(want, dtype).tobytes(), \
                    f"step {step + 1}: {name} differs"


def test_adam_nonfinite_gradient_leaves_moments_untouched():
    p = Tensor(np.ones((3, 4)), requires_grad=True)
    q = Tensor(np.ones(5), requires_grad=True)
    opt = nn.Adam([("p", p), ("q", q)], lr=0.1)
    p.grad, q.grad = np.full((3, 4), 0.5), np.full(5, 0.25)
    opt.step()
    saved = [a.copy() for a in (p.data, q.data, opt._m["p"], opt._v["p"],
                                opt._m["q"], opt._v["q"])]
    q.grad = np.array([0.0, 0.0, np.inf, 0.0, 0.0])
    with pytest.raises(NumericalError, match="'q'"):
        opt.step()
    assert opt.step_count == 1
    for a, b in zip(saved, (p.data, q.data, opt._m["p"], opt._v["p"],
                            opt._m["q"], opt._v["q"])):
        assert np.array_equal(a, b)


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("row", [0, 200, 299])
def test_adam_refuses_one_nonfinite_entry_in_any_row_block(row, value):
    # rows 0, 200 and 299 lie in the first, a middle and the ragged last
    # row block of the (300, 512) parameter
    rows = nn._ADAM_BLOCK // 512
    assert (0 // rows, 200 // rows, 299 // rows) == (0, 1, 2)
    rng = np.random.default_rng(8)
    p = Tensor(rng.normal(size=(300, 512)), requires_grad=True)
    q = Tensor(rng.normal(size=(6,)), requires_grad=True)
    opt = nn.Adam([("p", p), ("q", q)], lr=0.1)
    p.grad, q.grad = rng.normal(size=p.shape), rng.normal(size=q.shape)
    opt.step()
    arrays = (p.data, q.data, opt._m["p"], opt._v["p"], opt._m["q"],
              opt._v["q"])
    saved = [a.tobytes() for a in arrays]
    p.grad = rng.normal(size=p.shape)
    p.grad[row, 37] = value
    with pytest.raises(NumericalError,
                       match="non-finite gradient for parameter 'p'"):
        opt.step()
    assert opt.step_count == 1
    assert [a.tobytes() for a in arrays] == saved


# ---------------------------------------------------------------------------
# checkpoints


def test_checkpoint_round_trip_bit_exact(tmp_path):
    rng = np.random.default_rng(18)
    with T.precision("float32"):
        phi = nn.PhiStack(4, blocks=2, rng=rng)
        phi.forward(Tensor(rng.normal(size=(6, 4))), train=True)
        state = phi.named_state()
        path = tmp_path / "model.ckpt"
        nn.save_checkpoint(path, state)
        loaded = nn.load_checkpoint(path)
        for name, obj in state:
            arr = obj.data if isinstance(obj, Tensor) else obj
            assert np.array_equal(loaded[name], arr), name


def test_checkpoint_apply_restores_values(tmp_path):
    rng = np.random.default_rng(19)
    with T.precision("float32"):
        a = nn.Linear(3, 2, rng)
        path = tmp_path / "lin.ckpt"
        nn.save_checkpoint(path, a.named_state())
        b = nn.Linear(3, 2, np.random.default_rng(20))
        assert not np.array_equal(a.weight.data, b.weight.data)
        nn.apply_state(b.named_state(), nn.load_checkpoint(path))
        assert np.array_equal(a.weight.data, b.weight.data)
        assert np.array_equal(a.bias.data, b.bias.data)


def test_checkpoint_bad_magic_rejected(tmp_path):
    path = tmp_path / "junk.ckpt"
    path.write_bytes(b"NOTCKPT" + b"\x00" * 16)
    with pytest.raises(CheckpointError, match="magic"):
        nn.load_checkpoint(path)


def test_checkpoint_mismatches_listed_together(tmp_path):
    rng = np.random.default_rng(21)
    a = nn.Linear(3, 2, rng)
    path = tmp_path / "lin.ckpt"
    nn.save_checkpoint(path, a.named_state())
    b = nn.Linear(4, 2, rng)  # different shape
    loaded = nn.load_checkpoint(path)
    loaded["extra"] = np.zeros(1, dtype=np.float32)
    with pytest.raises(CheckpointError) as exc:
        nn.apply_state(b.named_state(), loaded)
    msg = str(exc.value)
    assert "shape mismatch" in msg and "extra" in msg


def test_checkpoint_truncation_detected(tmp_path):
    rng = np.random.default_rng(22)
    a = nn.Linear(3, 2, rng)
    path = tmp_path / "lin.ckpt"
    nn.save_checkpoint(path, a.named_state())
    blob = path.read_bytes()
    path.write_bytes(blob[:-3])
    with pytest.raises(CheckpointError):
        nn.load_checkpoint(path)


# ---------------------------------------------------------------------------
# batched input (one pass over a stack of sequences)


def test_attention_batched_matches_per_sequence():
    rng = np.random.default_rng(11)
    attn = nn.MultiHeadAttention(8, 2, rng)
    attn.out = nn.Linear(8, 8, rng)
    batch = rng.normal(size=(5, 6, 8))
    stacked = attn.forward(Tensor(batch)).data
    for i in range(5):
        single = attn.forward(Tensor(batch[i])).data
        assert np.allclose(stacked[i], single, atol=1e-12)


def test_transformer_batched_matches_per_sequence():
    rng = np.random.default_rng(12)
    block = nn.TransformerBlock(8, num_heads=2, rng=rng)
    block.attn.out = nn.Linear(8, 8, rng)
    block.ffn2 = nn.Linear(32, 8, rng)
    batch = rng.normal(size=(4, 5, 8))
    stacked = block.forward(Tensor(batch)).data
    for i in range(4):
        single = block.forward(Tensor(batch[i])).data
        assert np.allclose(stacked[i], single, atol=1e-12)


def test_batchnorm_batched_normalizes_each_sequence():
    rng = np.random.default_rng(13)
    bn = nn.BatchNorm(4)
    batch = rng.normal(loc=3.0, size=(6, 10, 4))
    out = bn.forward(Tensor(batch), train=True).data
    # each sequence is recentered on its own, not against the pooled batch
    assert np.allclose(out.mean(axis=1), 0.0, atol=1e-12)
    assert np.allclose(out.std(axis=1), 1.0, atol=1e-3)


def test_batchnorm_batched_running_stats_average_sequences():
    bn = nn.BatchNorm(2)
    batch = np.stack([np.array([[0.0, 0.0], [2.0, 4.0]]),
                      np.array([[10.0, 20.0], [10.0, 20.0]])])
    bn.forward(Tensor(batch), train=True)
    # per-sequence means (1, 2) and (10, 20) average to (5.5, 11)
    assert np.allclose(bn.running_mean, 0.9 * 0.0 + 0.1 * np.array([5.5, 11.0]))
    # per-sequence biased vars (1, 4) and (0, 0) average to (0.5, 2), x2 unbiased
    assert np.allclose(bn.running_var, 0.9 * 1.0 + 0.1 * np.array([1.0, 4.0]))


def test_phi_batched_matches_per_sequence():
    rng = np.random.default_rng(14)
    phi = nn.PhiStack(4, rng=rng)
    batch = rng.normal(size=(3, 7, 4))
    stacked = phi.forward(Tensor(batch), train=True).data
    for i in range(3):
        fresh = nn.PhiStack(4, rng=np.random.default_rng(14))
        single = fresh.forward(Tensor(batch[i]), train=True).data
        assert np.allclose(stacked[i], single, atol=1e-12)


def test_batched_attention_gradcheck():
    rng = np.random.default_rng(15)
    attn = nn.MultiHeadAttention(4, 2, rng)
    attn.out = nn.Linear(4, 4, rng)
    x = Tensor(rng.normal(size=(3, 4, 4)), requires_grad=True)
    check_grads(lambda: weighted_sum(attn.forward(x), np.random.default_rng(0)),
                x, tol=1e-7)
