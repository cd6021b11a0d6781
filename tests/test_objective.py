"""Loss term tests: adaptation cross-entropy, task loss, weighted total."""

import math

import numpy as np
import pytest

from cpm2c import objective, tensor as T
from cpm2c.errors import ConfigError, DomainError, ShapeError
from cpm2c.runner import RunConfig
from cpm2c.tensor import Tensor
from fdcheck import check_grads
from oracles import list_task_loss


@pytest.fixture(autouse=True)
def float64_mode():
    with T.precision("float64"):
        yield


def weights(lam_adapt, lam_task, lam_consistency):
    return RunConfig(lam_adapt=lam_adapt, lam_task=lam_task,
                     lam_consistency=lam_consistency)


def test_weights_validation():
    # the run config checks the weights that total_loss reads
    weights(0.0, 0.0, 0.0)
    for name in ("lam_adapt", "lam_task", "lam_consistency"):
        for bad in (-1.0, math.nan, math.inf):
            with pytest.raises(ConfigError, match=name):
                RunConfig(**{name: bad})


# ---------------------------------------------------------------------------
# adaptation loss


def test_dam_single_class_is_zero_loss():
    rng = np.random.default_rng(0)
    frames = Tensor(rng.normal(size=(3, 4, 6)))
    bank = rng.normal(size=(1, 6))
    loss = objective.dam_loss(frames, bank, [0, 0, 0], 0.1)
    assert abs(loss.item()) < 1e-12


def test_dam_equidistant_two_classes_is_ln2():
    # pooled representation orthogonal to the difference of two prompts
    bank = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
    frames = Tensor(np.tile(np.array([1.0, 1.0, 0.0]), (1, 4, 1)))
    loss = objective.dam_loss(frames, bank, [0], 0.07)
    assert abs(loss.item() - math.log(2.0)) < 1e-12


def test_dam_matches_independent_oracle():
    rng = np.random.default_rng(1)
    vids = [rng.normal(size=(5, 4)) for _ in range(6)]
    bank = rng.normal(size=(3, 4))
    labels = [0, 1, 2, 0, 1, 2]
    t = 0.21
    got = objective.dam_loss(Tensor(np.stack(vids)), bank, labels, t).item()
    # straight numpy recomputation
    total = 0.0
    for v, y in zip(vids, labels):
        rep = v.mean(axis=0)
        cos = bank @ rep / (np.linalg.norm(bank, axis=1) * np.linalg.norm(rep))
        logits = cos / t
        p = np.exp(logits - logits.max())
        p /= p.sum()
        total += -math.log(p[y])
    assert abs(got - total / len(vids)) < 1e-8


def test_dam_scale_invariance_of_single_video():
    rng = np.random.default_rng(2)
    v = rng.normal(size=(4, 5))
    bank = rng.normal(size=(3, 5))
    a = objective.dam_loss(Tensor(v[None]), bank, [1], 0.1).item()
    b = objective.dam_loss(Tensor(7.5 * v[None]), bank, [1], 0.1).item()
    assert abs(a - b) < 1e-9


def test_dam_rejects_zero_norm_prompt_and_video():
    rng = np.random.default_rng(3)
    with pytest.raises(DomainError, match="prompt"):
        objective.dam_loss(Tensor(rng.normal(size=(1, 3, 4))),
                           np.zeros((2, 4)), [0], 0.1)
    bank = rng.normal(size=(2, 4))
    with pytest.raises(DomainError, match="video"):
        objective.dam_loss(Tensor(np.zeros((1, 3, 4))), bank, [0], 0.1)


def test_dam_gradient_flows_into_learnable_temperature():
    rng = np.random.default_rng(4)
    frames = Tensor(rng.normal(size=(3, 4, 5)))
    bank = rng.normal(size=(3, 5))
    log_t = Tensor(math.log(0.1), requires_grad=True)

    def f():
        return objective.dam_loss(frames, bank, [0, 1, 2], T.exp(log_t))

    check_grads(f, log_t, tol=1e-7)


def test_dam_label_and_alignment_errors():
    rng = np.random.default_rng(5)
    frames = Tensor(rng.normal(size=(1, 3, 4)))
    bank = rng.normal(size=(2, 4))
    with pytest.raises(ShapeError):
        objective.dam_loss(frames, bank, [5], 0.1)
    with pytest.raises(ShapeError):
        objective.dam_loss(frames, bank, [0, 1], 0.1)
    with pytest.raises(ShapeError):
        objective.dam_loss(Tensor(np.zeros((0, 3, 4))), bank, [], 0.1)


# ---------------------------------------------------------------------------
# task loss


def test_task_loss_perfect_prediction_zero():
    probs = Tensor([[0.0, 1.0, 0.0]])
    assert abs(objective.task_loss(probs, [1]).item()) < 1e-9


def test_task_loss_uniform_is_ln_n():
    probs = Tensor(np.full((3, 5), 0.2))
    loss = objective.task_loss(probs, [0, 3, 4]).item()
    assert abs(loss - math.log(5.0)) < 1e-12


def test_task_loss_matches_hand_oracle():
    rng = np.random.default_rng(6)
    raw = rng.uniform(0.05, 1.0, size=(4, 3))
    raw /= raw.sum(axis=1, keepdims=True)
    labels = [0, 2, 1, 1]
    got = objective.task_loss(Tensor(raw), labels).item()
    want = -sum(math.log(raw[i, y]) for i, y in enumerate(labels)) / 4.0
    assert abs(got - want) < 1e-8


def test_task_loss_clamps_and_counts_zero_probability():
    objective.reset_clamp_count()
    probs = Tensor([[1.0, 0.0]])
    loss = objective.task_loss(probs, [1]).item()
    assert abs(loss - (-math.log(1e-12))) < 1e-6
    assert objective.clamp_count() == 1
    objective.reset_clamp_count()
    assert objective.clamp_count() == 0


def test_task_loss_gradchecks_through_probabilities():
    rng = np.random.default_rng(7)
    logits = Tensor(rng.normal(size=(3, 4)), requires_grad=True)

    def f():
        probs = T.softmax(logits, axis=-1)
        return objective.task_loss(probs, [2, 0, 2])

    check_grads(f, logits, tol=1e-7)


def test_task_loss_validation():
    with pytest.raises(ShapeError):
        objective.task_loss(Tensor(np.zeros((0, 2))), [])
    with pytest.raises(ShapeError):
        objective.task_loss(Tensor([[0.5, 0.5]]), [3])
    with pytest.raises(ShapeError):
        objective.task_loss(Tensor([[0.5, 0.5]]), [0, 1])
    with pytest.raises(ShapeError):
        objective.task_loss(Tensor([0.5, 0.5]), [0])


@pytest.mark.parametrize("dtype", ["float32", "float64"])
def test_task_loss_matches_per_query_oracle(dtype):
    # one row below the floor, so the clamp and its count are compared too
    rng = np.random.default_rng(9)
    with T.precision(dtype):
        raw = rng.uniform(0.05, 1.0, size=(10, 5))
        raw[3, 4] = 0.0
        raw /= raw.sum(axis=1, keepdims=True)
        labels = [0, 4, 2, 4, 1, 1, 3, 0, 2, 4]
        results = []
        for loss_fn, probs_of in ((objective.task_loss, lambda p: p),
                                  (list_task_loss, lambda p: [
                                      T.reshape(T.slice_axis(p, 0, i, i + 1),
                                                (5,)) for i in range(10)])):
            probs = Tensor(raw, requires_grad=True)
            objective.reset_clamp_count()
            with T.Tape():
                loss = loss_fn(probs_of(probs), labels)
            T.backward(loss)
            results.append((loss.item(), probs.grad, objective.clamp_count()))
    (got, got_grad, got_clamps), (ref, ref_grad, ref_clamps) = results
    assert got_clamps == ref_clamps == 1
    assert np.isclose(got, ref, rtol=1e-6 if dtype == "float32" else 1e-14)
    assert np.array_equal(got_grad, ref_grad)


# ---------------------------------------------------------------------------
# total


def test_total_loss_weighted_sum():
    w = weights(1.0, 1.0, 1.0)
    total = objective.total_loss(Tensor(0.5), Tensor(1.0), Tensor(0.25), w)
    assert abs(total.item() - 1.75) < 1e-12
    z = weights(0.0, 0.0, 0.0)
    assert objective.total_loss(Tensor(0.5), Tensor(1.0), Tensor(0.25),
                                z).item() == 0.0


def test_total_loss_gradient_superposition():
    # gradient of the weighted total equals the weighted sum of each
    # term's separate gradient
    rng = np.random.default_rng(8)
    x = Tensor(rng.normal(size=(3,)), requires_grad=True)
    w = weights(0.5, 2.0, 1.5)

    def terms():
        a = T.reduce_sum(T.mul(x, x))
        b = T.reduce_sum(T.exp(T.scale(x, 0.1)))
        c = T.reduce_sum(T.mul(x, Tensor([1.0, -2.0, 3.0])))
        return a, b, c

    grads = []
    for pick in range(3):
        x.zero_grad()
        with T.Tape():
            loss = terms()[pick]
        T.backward(loss)
        grads.append(x.grad.copy())
    x.zero_grad()
    with T.Tape():
        a, b, c = terms()
        loss = objective.total_loss(a, b, c, w)
    T.backward(loss)
    combo = 0.5 * grads[0] + 2.0 * grads[1] + 1.5 * grads[2]
    assert np.allclose(x.grad, combo, atol=1e-6)
