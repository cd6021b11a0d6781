"""Autodiff core: forward oracles and finite-difference gradient checks.

Forward values are checked against independent implementations (pure
python loops, math module) rather than the numpy expressions used by the
library. All gradient checks run in float64 with central differences.
"""

import gc
import math
import threading
import weakref

import numpy as np
import pytest

from cpm2c import tensor as T
from cpm2c.errors import DomainError, GraphError, ShapeError
from fdcheck import check_grads
from oracles import broadcast_repeat, where_relu


@pytest.fixture(autouse=True)
def float64_mode():
    with T.precision("float64"):
        yield


def test_matmul_forward_matches_triple_loop():
    rng = np.random.default_rng(0)
    a = rng.normal(size=(4, 5))
    b = rng.normal(size=(5, 3))
    got = T.matmul(T.tensor(a), T.tensor(b)).data
    want = np.zeros((4, 3))
    for i in range(4):
        for j in range(3):
            acc = 0.0
            for k in range(5):
                acc += a[i, k] * b[k, j]
            want[i, j] = acc
    assert np.allclose(got, want, atol=1e-12)


def test_matmul_batched_forward_matches_loop():
    rng = np.random.default_rng(1)
    a = rng.normal(size=(2, 3, 4))
    b = rng.normal(size=(2, 4, 2))
    got = T.matmul(T.tensor(a), T.tensor(b)).data
    for h in range(2):
        assert np.allclose(got[h], a[h] @ b[h], atol=1e-12)


def test_matmul_broadcast_forward_matches_repeated_operands():
    rng = np.random.default_rng(5)
    a = rng.normal(size=(3, 1, 4, 5, 6))
    b = rng.normal(size=(3, 2, 1, 6, 5))
    got = T.matmul(T.tensor(a), T.tensor(b)).data
    want = np.repeat(a, 2, axis=1) @ np.repeat(b, 4, axis=2)
    assert got.shape == (3, 2, 4, 5, 5)
    assert np.array_equal(got, want)


def test_matmul_shape_mismatch_raises():
    a = T.tensor(np.zeros((2, 3)))
    b = T.tensor(np.zeros((4, 2)))
    with pytest.raises(ShapeError):
        T.matmul(a, b)
    with pytest.raises(ShapeError):
        T.matmul(T.tensor(np.zeros((2, 3, 4))), T.tensor(np.zeros((3, 4, 2))))


def test_matmul_grads():
    rng = np.random.default_rng(2)
    a = T.tensor(rng.normal(size=(3, 4)), requires_grad=True)
    b = T.tensor(rng.normal(size=(4, 2)), requires_grad=True)
    w = rng.normal(size=(3, 2))  # fixed weighting so the loss is scalar

    def f():
        return T.reduce_sum(T.mul(T.matmul(a, b), T.tensor(w)))

    check_grads(f, a)
    check_grads(f, b)


def test_matmul_batched_grads():
    rng = np.random.default_rng(3)
    a = T.tensor(rng.normal(size=(2, 3, 4)), requires_grad=True)
    b = T.tensor(rng.normal(size=(2, 4, 3)), requires_grad=True)

    def f():
        return T.reduce_sum(T.matmul(a, b))

    check_grads(f, a)
    check_grads(f, b)


def test_matmul_broadcast_grads():
    rng = np.random.default_rng(6)
    a = T.tensor(rng.normal(size=(2, 1, 3, 4)), requires_grad=True)
    b = T.tensor(rng.normal(size=(1, 3, 4, 2)), requires_grad=True)
    w = rng.normal(size=(2, 3, 3, 2))

    def f():
        return T.reduce_sum(T.mul(T.matmul(a, b), T.tensor(w)))

    check_grads(f, a)
    check_grads(f, b)


def test_exp_log_round_trip():
    rng = np.random.default_rng(4)
    x = rng.normal(size=(3, 5))
    back = T.log(T.exp(T.tensor(x))).data
    assert np.allclose(back, x, atol=1e-12)


def test_log_rejects_non_positive():
    with pytest.raises(DomainError):
        T.log(T.tensor([1.0, 0.0, 2.0]))
    with pytest.raises(DomainError):
        T.log(T.tensor([-1.0]))


def test_div_rejects_zero_divisor():
    with pytest.raises(DomainError):
        T.div(T.tensor([1.0]), T.tensor([0.0]))


@pytest.mark.parametrize("op", ["add", "sub", "mul", "div", "exp", "log",
                                "relu", "neg", "scale"])
def test_elementwise_grads(op):
    rng = np.random.default_rng(hash(op) % 2**31)
    x = rng.normal(size=(3, 4))
    if op == "log":
        x = np.abs(x) + 0.5
    if op == "relu":
        x = x + np.sign(x) * 0.2  # keep clear of the kink
    y = np.abs(rng.normal(size=(3, 4))) + 0.5
    a = T.tensor(x, requires_grad=True)
    b = T.tensor(y, requires_grad=True)
    w = rng.normal(size=(3, 4))

    def f():
        if op == "add":
            r = T.add(a, b)
        elif op == "sub":
            r = T.sub(a, b)
        elif op == "mul":
            r = T.mul(a, b)
        elif op == "div":
            r = T.div(a, b)
        elif op == "exp":
            r = T.exp(a)
        elif op == "log":
            r = T.log(a)
        elif op == "relu":
            r = T.relu(a)
        elif op == "neg":
            r = T.neg(a)
        else:
            r = T.scale(a, 2.5)
        return T.reduce_sum(T.mul(r, T.tensor(w)))

    check_grads(f, a)
    if op in ("add", "sub", "mul", "div"):
        check_grads(f, b)


@pytest.mark.parametrize("dtype", ["float32", "float64"])
def test_relu_matches_where_form_on_non_nan_input(dtype):
    rng = np.random.default_rng(31)
    x = np.concatenate([rng.normal(size=500),
                        [0.0, -0.0, 1e-310, -1e-310, np.inf, -np.inf]])
    with T.precision(dtype):
        a = T.tensor(x, requires_grad=True)
        got, want = T.relu(a).data, where_relu(a).data
    assert got.dtype == want.dtype == np.dtype(dtype)
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("dtype", ["float32", "float64"])
@pytest.mark.parametrize("shape", [(), (13,), (2, 13), (3, 5, 13)])
def test_relu_is_bit_identical_to_scalar_zero_maximum(dtype, shape):
    # NaNs of both signs, signed zeros, infinities and subnormals, from a
    # 0-d value to the 3-d activations the layers pass
    special = np.array([np.nan, -np.nan, 0.0, -0.0, np.inf, -np.inf,
                        1e-310, -1e-310, 1e-45, -1e-45, 1.5, -1.5, 3e38],
                       dtype)
    x = np.resize(np.roll(special, sum(shape)), shape)
    with T.precision(dtype):
        got = T.relu(T.tensor(x)).data
    want = np.maximum(x, 0)
    assert got.dtype == want.dtype == np.dtype(dtype)
    assert got.shape == want.shape and got.tobytes() == want.tobytes()


def test_relu_propagates_nan_and_its_gradient_there_is_zero():
    a = T.tensor([np.nan, -1.0, 2.0, np.nan], requires_grad=True)
    with T.Tape():
        out = T.relu(a)
        loss = T.reduce_sum(T.mul(out, T.tensor([1.0, 1.0, 3.0, 1.0])))
    assert np.isnan(out.data[[0, 3]]).all()
    assert np.array_equal(out.data[1:3], [0.0, 2.0])
    assert np.array_equal(where_relu(a).data, [0.0, 0.0, 2.0, 0.0])
    T.backward(loss)
    assert np.array_equal(a.grad, [0.0, 0.0, 3.0, 0.0])


def test_broadcast_add_grad_is_row_sum():
    rng = np.random.default_rng(7)
    a = T.tensor(rng.normal(size=(3, 4)), requires_grad=True)
    b = T.tensor(rng.normal(size=(4,)), requires_grad=True)
    with T.Tape():
        loss = T.reduce_sum(T.add(a, b))
    T.backward(loss)
    assert np.allclose(a.grad, np.ones((3, 4)))
    assert np.allclose(b.grad, np.full(4, 3.0))

    def f():
        return T.reduce_sum(T.mul(T.add(a, b), T.tensor(np.arange(12.0).reshape(3, 4))))

    check_grads(f, b)


def test_broadcast_mul_scalar_tensor_grad():
    rng = np.random.default_rng(8)
    a = T.tensor(rng.normal(size=(2, 3)), requires_grad=True)
    s = T.tensor(1.7, requires_grad=True)

    def f():
        return T.reduce_sum(T.mul(a, s))

    check_grads(f, s)
    check_grads(f, a)


def test_softmax_matches_pure_python():
    rng = np.random.default_rng(9)
    x = rng.normal(size=(2, 5))
    got = T.softmax(T.tensor(x), axis=-1).data
    for r in range(2):
        exps = [math.exp(v) for v in x[r]]
        z = sum(exps)
        want = [e / z for e in exps]
        assert np.allclose(got[r], want, atol=1e-12)
    assert np.allclose(got.sum(axis=-1), 1.0, atol=1e-12)


def test_softmax_large_inputs_stable():
    x = T.tensor([1000.0, 1001.0, 1002.0])
    out = T.softmax(x, axis=-1).data
    assert np.all(np.isfinite(out))
    assert abs(out.sum() - 1.0) < 1e-12


def test_softmax_rejects_nan():
    with pytest.raises(DomainError):
        T.softmax(T.tensor([1.0, float("nan")]), axis=-1)


def test_softmax_grads():
    rng = np.random.default_rng(10)
    a = T.tensor(rng.normal(size=(3, 4)), requires_grad=True)
    w = rng.normal(size=(3, 4))

    def f():
        return T.reduce_sum(T.mul(T.softmax(a, axis=-1), T.tensor(w)))

    check_grads(f, a)


@pytest.mark.parametrize("axis,keepdims", [(None, False), (0, False), (1, False),
                                           (0, True), (-1, True)])
def test_sum_and_mean_grads(axis, keepdims):
    rng = np.random.default_rng(11)
    a = T.tensor(rng.normal(size=(3, 4)), requires_grad=True)
    w01 = rng.normal(size=(1, 4)) if (axis == 0 and keepdims) else None

    def pick(reduced):
        # weight the reduced tensor so every output position matters
        if reduced.ndim == 0:
            return reduced
        wt = np.arange(1.0, reduced.size + 1.0).reshape(reduced.shape)
        return T.reduce_sum(T.mul(reduced, T.tensor(wt)))

    def fsum():
        return pick(T.reduce_sum(a, axis=axis, keepdims=keepdims))

    def fmean():
        return pick(T.reduce_mean(a, axis=axis, keepdims=keepdims))

    check_grads(fsum, a)
    check_grads(fmean, a)
    del w01


def test_mean_forward_matches_loop():
    rng = np.random.default_rng(12)
    x = rng.normal(size=(3, 4))
    got = T.reduce_mean(T.tensor(x), axis=1).data
    for r in range(3):
        assert abs(got[r] - sum(x[r]) / 4.0) < 1e-12


def test_concat_slice_round_trip():
    rng = np.random.default_rng(13)
    a = rng.normal(size=(2, 3))
    b = rng.normal(size=(4, 3))
    cat = T.concat([T.tensor(a), T.tensor(b)], axis=0)
    assert cat.shape == (6, 3)
    assert np.array_equal(T.slice_axis(cat, 0, 0, 2).data, a)
    assert np.array_equal(T.slice_axis(cat, 0, 2, 6).data, b)


def test_concat_grads():
    rng = np.random.default_rng(14)
    a = T.tensor(rng.normal(size=(2, 3)), requires_grad=True)
    b = T.tensor(rng.normal(size=(1, 3)), requires_grad=True)
    w = rng.normal(size=(3, 3))

    def f():
        return T.reduce_sum(T.mul(T.concat([a, b], axis=0), T.tensor(w)))

    check_grads(f, a)
    check_grads(f, b)


def test_slice_grads_route_to_source_positions():
    rng = np.random.default_rng(15)
    a = T.tensor(rng.normal(size=(4, 3)), requires_grad=True)
    with T.Tape():
        loss = T.reduce_sum(T.slice_axis(a, 0, 1, 3))
    T.backward(loss)
    want = np.zeros((4, 3))
    want[1:3] = 1.0
    assert np.array_equal(a.grad, want)


def test_transpose_reshape_round_trips():
    rng = np.random.default_rng(16)
    a = T.tensor(rng.normal(size=(2, 3, 4)), requires_grad=True)
    tt = T.transpose(T.transpose(a, 0, 2), 0, 2)
    assert np.array_equal(tt.data, a.data)
    rr = T.reshape(T.reshape(a, (6, 4)), (2, 3, 4))
    assert np.array_equal(rr.data, a.data)

    def f():
        return T.reduce_sum(T.mul(T.transpose(a, 1, 2),
                                  T.tensor(np.arange(24.0).reshape(2, 4, 3))))

    check_grads(f, a)


def test_reshape_bad_size_raises():
    with pytest.raises(ShapeError):
        T.reshape(T.tensor(np.zeros((2, 3))), (7,))


def test_broadcast_repeat_forward_and_grad():
    rng = np.random.default_rng(17)
    a = T.tensor(rng.normal(size=(3,)), requires_grad=True)
    out = broadcast_repeat(a, 0, 4)
    assert out.shape == (4, 3)
    for r in range(4):
        assert np.array_equal(out.data[r], a.data)

    def f():
        w = np.arange(12.0).reshape(4, 3)
        return T.reduce_sum(T.mul(broadcast_repeat(a, 0, 4), T.tensor(w)))

    check_grads(f, a)
    with T.Tape():
        loss = T.reduce_sum(broadcast_repeat(a, 0, 4))
    a.zero_grad()
    T.backward(loss)
    assert np.allclose(a.grad, np.full(3, 4.0))


def test_sqrt_composition_from_closed_set():
    # sqrt(x) = exp(0.5 * log(x)) stays inside the op set
    x = T.tensor([4.0, 9.0, 2.0], requires_grad=True)

    def f():
        return T.reduce_sum(T.exp(T.scale(T.log(x), 0.5)))

    with T.Tape():
        r = T.exp(T.scale(T.log(x), 0.5))
    assert np.allclose(r.data, np.sqrt(x.data), atol=1e-12)
    check_grads(f, x)


def test_repeated_backward_accumulates_into_grad():
    a = T.tensor([1.0, 2.0], requires_grad=True)
    for _ in range(2):
        with T.Tape():
            loss = T.reduce_sum(T.mul(a, a))
        T.backward(loss)
    assert np.allclose(a.grad, 2.0 * 2.0 * a.data)


def test_second_backward_adds_out_of_place():
    rng = np.random.default_rng(4)
    x = T.tensor(rng.normal(size=(5, 3)))
    w = T.tensor(rng.normal(size=(3, 4)), requires_grad=True)

    def step():
        with T.Tape():
            loss = T.reduce_sum(T.mul(T.matmul(x, w), T.matmul(x, w)))
        T.backward(loss)

    step()
    first = w.grad
    once = first.copy()
    step()
    assert np.array_equal(w.grad, once + once)
    assert np.array_equal(first, once)  # the first pass's array is kept


def test_leaf_takes_an_owned_gradient_without_a_copy():
    x = T.tensor([1.0, 2.0], requires_grad=True)
    partial = np.array([3.0, 4.0])
    with T.Tape():
        loss = T.reduce_sum(T._record(x.data * 2.0, (x,), lambda g: (partial,)))
    T.backward(loss)
    assert x.grad is partial


def test_leaves_fed_by_one_add_hold_distinct_gradients():
    # add hands its output gradient to both operands as one array
    a = T.tensor([1.0, 2.0], requires_grad=True)
    b = T.tensor([3.0, 4.0], requires_grad=True)
    with T.Tape():
        loss = T.reduce_sum(T.mul(T.add(a, b), T.tensor([5.0, 6.0])))
    T.backward(loss)
    assert not np.shares_memory(a.grad, b.grad)
    a.grad[0] = 100.0
    assert np.array_equal(a.grad, [100.0, 6.0])
    assert np.array_equal(b.grad, [5.0, 6.0])


def test_no_leaf_gradient_is_a_view():
    # reshape, transpose and slices of an add's output hand their
    # operands views of one gradient array
    rng = np.random.default_rng(6)
    a = T.tensor(rng.normal(size=(2, 3)), requires_grad=True)
    b = T.tensor(rng.normal(size=(3, 2)), requires_grad=True)
    c = T.tensor(rng.normal(size=(6,)), requires_grad=True)
    weight = T.tensor(rng.normal(size=(6,)))
    with T.Tape():
        total = T.add(T.add(T.reshape(a, (6,)),
                            T.reshape(T.transpose(b, 0, 1), (6,))), c)
        loss = T.reduce_sum(T.mul(total, weight))
    T.backward(loss)
    for leaf in (a, b, c):
        assert isinstance(leaf.grad, np.ndarray) and leaf.grad.base is None
    assert np.array_equal(a.grad, weight.data.reshape(2, 3))
    assert np.array_equal(b.grad, weight.data.reshape(2, 3).T)
    assert np.array_equal(c.grad, weight.data)
    for x, y in ((a, b), (a, c), (b, c)):
        assert not np.shares_memory(x.grad, y.grad)


def test_shared_subexpression_grad_sums_paths():
    # loss = x*x + x -> dloss/dx = 2x + 1, exercises fan-out accumulation
    x = T.tensor([3.0], requires_grad=True)
    with T.Tape():
        loss = T.reduce_sum(T.add(T.mul(x, x), x))
    T.backward(loss)
    assert np.allclose(x.grad, [7.0])


def test_backward_requires_scalar_and_tape():
    x = T.tensor([1.0, 2.0], requires_grad=True)
    with T.Tape():
        vec = T.mul(x, x)
        loss = T.reduce_sum(vec)
    with pytest.raises(GraphError):
        T.backward(vec)
    T.backward(loss)  # backward after the with-block is fine
    assert x.grad is not None
    with pytest.raises(GraphError):
        T.backward(T.tensor(1.0))  # never taped


def test_finished_tape_is_freed_while_its_leaves_live_on():
    # parameters outlive every tape they were used on; they must not keep
    # one alive, or a dropped model's last tape waits for a full collection
    x = T.tensor(np.ones((3, 4)), requires_grad=True)
    gc.disable()
    try:
        with T.Tape() as tape:
            loss = T.reduce_sum(T.mul(x, x))
        T.backward(loss)
        freed = weakref.ref(tape)
        del tape, loss
        assert freed() is None
        assert np.array_equal(x.grad, 2.0 * np.ones((3, 4)))
    finally:
        gc.enable()


def test_backward_releases_saved_arrays_and_keeps_the_node_count():
    # exp's backward saves its output; once the walk has passed the node
    # (or found that no gradient reaches it) nothing keeps that array
    x = T.tensor(np.ones((3, 4)), requires_grad=True)
    with T.Tape() as tape:
        used = T.exp(x)
        unused = T.exp(x)
        loss = T.reduce_sum(used)
    saved = [weakref.ref(used.data), weakref.ref(unused.data)]
    del used, unused
    assert all(ref() is not None for ref in saved)
    T.backward(loss)
    assert [ref() for ref in saved] == [None, None]
    assert len(tape) == 4                 # the leaf and three ops
    assert np.allclose(x.grad, np.e)


def test_second_backward_on_a_consumed_tape_raises():
    x = T.tensor([1.0, 2.0], requires_grad=True)
    with T.Tape():
        y = T.mul(x, x)
        loss = T.reduce_sum(y)
        other = T.reduce_sum(T.add(y, x))
    T.backward(loss)
    for again in (loss, other):
        with pytest.raises(GraphError, match="consumed"):
            T.backward(again)
    assert np.array_equal(x.grad, [2.0, 4.0])  # refused calls add nothing


def test_untaped_ops_do_not_record():
    x = T.tensor([1.0], requires_grad=True)
    out = T.mul(x, x)
    assert out.tape is None
    with pytest.raises(GraphError):
        T.backward(out)


def test_precision_context_switches_and_restores():
    with T.precision("float32"):
        assert T.tensor([1.0]).data.dtype == np.float32
        with T.precision("float64"):
            assert T.tensor([1.0]).data.dtype == np.float64
        assert T.tensor([1.0]).data.dtype == np.float32
    assert T.tensor([1.0]).data.dtype == np.float64  # fixture-installed mode


def test_precision_rejects_an_unknown_dtype_and_keeps_the_current_one():
    with pytest.raises(ValueError, match="unknown float dtype 'float16'"):
        with T.precision("float16"):
            pass
    assert T.default_dtype() is np.float64


@pytest.mark.parametrize("op", [T.add, T.sub, T.mul, T.div])
def test_broadcast_mismatch_raises_shape_error_before_recording(op):
    a = T.tensor(np.ones((2, 3)), requires_grad=True)
    b = T.tensor(np.zeros((4,)) if op is T.div else np.ones((4,)))
    with T.Tape() as tape:
        with pytest.raises(ShapeError, match="not broadcast-compatible"):
            op(a, b)
    assert len(tape) == 0


def test_fresh_thread_starts_in_float32_with_no_tape():
    seen = {}

    def probe():
        seen["dtype"] = T.tensor([1.0]).data.dtype
        seen["tape"] = T.active_tape()

    with T.Tape() as tape:
        worker = threading.Thread(target=probe)
        worker.start()
        worker.join(timeout=10)
        assert T.active_tape() is tape
    assert not worker.is_alive()
    assert seen == {"dtype": np.float32, "tape": None}
    assert T.tensor([1.0]).data.dtype == np.float64  # fixture-installed mode
