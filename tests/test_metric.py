"""Alignment tests: cost matrices, path-enumeration oracles, classification."""

import gc
import math
import tracemalloc
import weakref

import numpy as np
import pytest

from cpm2c import cpm, metric, model, runner, tensor as T
from cpm2c.errors import ConfigError, DomainError, ShapeError
from cpm2c.tensor import Tensor
from fdcheck import check_grads
from oracles import diagonal_major_dp, diagonal_major_dp_backward, \
    taped_otam_distance


@pytest.fixture(autouse=True)
def float64_mode():
    with T.precision("float64"):
        yield


TIGHT = 1e-3         # soft-min temperature close to the hard minimum


def enumerate_paths(m, n):
    """All monotone paths (right/down/diagonal) from (0,0) to (m-1,n-1)."""
    paths = []

    def walk(i, j, prefix):
        prefix = prefix + [(i, j)]
        if i == m - 1 and j == n - 1:
            paths.append(prefix)
            return
        if j + 1 < n:
            walk(i, j + 1, prefix)
        if i + 1 < m:
            walk(i + 1, j, prefix)
        if i + 1 < m and j + 1 < n:
            walk(i + 1, j + 1, prefix)

    walk(0, 0, [])
    return paths


def path_costs(C):
    return [sum(C[i, j] for i, j in p)
            for p in enumerate_paths(C.shape[0], C.shape[1])]


def hard_min(C):
    return min(path_costs(C))


def soft_min_reference(C, gamma):
    """Exact log-sum-exp over enumerated path costs (pure python floats)."""
    costs = path_costs(C)
    lo = min(costs)
    total = sum(math.exp(-(c - lo) / gamma) for c in costs)
    return lo - gamma * math.log(total)


# ---------------------------------------------------------------------------
# cost matrix


def test_cost_matrix_cosine_extremes():
    a = Tensor([[1.0, 0.0], [0.0, 2.0], [-3.0, 0.0]])
    b = Tensor([[2.0, 0.0]])
    C = metric.cost_matrix(a, b).data
    assert abs(C[0, 0] - 0.0) < 1e-9   # parallel
    assert abs(C[1, 0] - 1.0) < 1e-9   # orthogonal
    assert abs(C[2, 0] - 2.0) < 1e-9   # antiparallel


def test_cost_matrix_range_and_scale_invariance():
    rng = np.random.default_rng(0)
    a, b = rng.normal(size=(4, 6)), rng.normal(size=(5, 6))
    C = metric.cost_matrix(Tensor(a), Tensor(b)).data
    assert C.min() >= -1e-9 and C.max() <= 2.0 + 1e-9
    C2 = metric.cost_matrix(Tensor(3.0 * a), Tensor(0.5 * b)).data
    assert np.allclose(C, C2, atol=1e-9)


def test_cost_matrix_rejects_zero_norm_row():
    a = Tensor([[1.0, 0.0], [0.0, 0.0]])
    b = Tensor([[1.0, 1.0]])
    with pytest.raises(DomainError, match="zero-norm"):
        metric.cost_matrix(a, b)


def test_cost_matrix_batched_matches_loop():
    rng = np.random.default_rng(1)
    a = rng.normal(size=(3, 4, 5))
    b = rng.normal(size=(3, 2, 5))
    got = metric.cost_matrix(Tensor(a), Tensor(b)).data
    for k in range(3):
        single = metric.cost_matrix(Tensor(a[k]), Tensor(b[k])).data
        assert np.allclose(got[k], single, atol=1e-12)


def test_cost_matrix_broadcast_matches_repeated_pairs():
    rng = np.random.default_rng(3)
    protos = rng.normal(size=(2, 1, 3, 4, 5))
    queries = rng.normal(size=(2, 4, 1, 6, 5))
    got = metric.cost_matrix(Tensor(protos), Tensor(queries)).data
    want = metric.cost_matrix(Tensor(np.repeat(protos, 4, axis=1)),
                              Tensor(np.repeat(queries, 3, axis=2))).data
    assert got.shape == (2, 4, 3, 4, 6)
    assert np.array_equal(got, want)


def test_cost_matrix_gradcheck():
    rng = np.random.default_rng(2)
    a = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
    b = Tensor(rng.normal(size=(2, 4)), requires_grad=True)
    w = rng.normal(size=(3, 2))

    def f():
        return T.reduce_sum(T.mul(metric.cost_matrix(a, b), Tensor(w)))

    check_grads(f, a, tol=1e-6)
    check_grads(f, b, tol=1e-6)


# ---------------------------------------------------------------------------
# soft alignment


def test_single_cell_matrix_is_exact():
    d = metric.otam_distance(Tensor([[1.75]]), TIGHT)
    assert d.item() == 1.75


def test_all_zero_matrix_within_soft_bias():
    # every path costs zero; the soft minimum sits below zero by at most
    # gamma * ln(number of paths)
    for gamma in (1e-3, 0.1):
        d = metric.otam_distance(Tensor(np.zeros((3, 3))), gamma).item()
        assert -gamma * math.log(13) - 1e-12 <= d <= 0.0  # 13 = path count


def test_path_count_is_delannoy():
    assert len(enumerate_paths(3, 3)) == 13
    assert len(enumerate_paths(4, 4)) == 63


def test_dp_equals_path_enumeration_lse_exactly():
    # the DP computes the same log-sum-exp as explicit path enumeration
    rng = np.random.default_rng(3)
    for trial in range(30):
        m, n = rng.integers(1, 5, size=2)
        C = rng.uniform(0.0, 2.0, size=(m, n))
        for gamma in (1e-2, 0.3):
            got = metric.otam_distance(Tensor(C), gamma).item()
            want = soft_min_reference(C, gamma)
            assert abs(got - want) < 1e-9, (m, n, gamma)


def test_soft_vs_hard_min_bound_200_instances():
    rng = np.random.default_rng(4)
    for trial in range(200):
        m, n = rng.integers(1, 5, size=2)
        C = rng.uniform(0.0, 2.0, size=(m, n))
        got = metric.otam_distance(Tensor(C), TIGHT).item()
        bound = 1e-3 * math.log(len(enumerate_paths(m, n)))
        assert abs(got - hard_min(C)) <= bound + 1e-12


def test_monotone_in_every_entry():
    rng = np.random.default_rng(5)
    C = rng.uniform(0.0, 2.0, size=(3, 4))
    base = metric.otam_distance(Tensor(C), 0.1).item()
    for i in range(3):
        for j in range(4):
            bumped = C.copy()
            bumped[i, j] += 0.5
            assert metric.otam_distance(Tensor(bumped), 0.1).item() >= base - 1e-12


def test_gamma_shrinks_toward_hard_min():
    rng = np.random.default_rng(6)
    C = rng.uniform(0.0, 2.0, size=(4, 4))
    errs = [abs(metric.otam_distance(Tensor(C), g).item() - hard_min(C))
            for g in (0.3, 0.03, 0.003)]
    assert errs[0] >= errs[1] >= errs[2]
    assert errs[2] < 1e-2


def test_batched_dp_matches_per_matrix():
    rng = np.random.default_rng(7)
    batch = rng.uniform(0.0, 2.0, size=(6, 3, 4))
    got = metric.otam_distance(Tensor(batch), 0.05).data
    for k in range(6):
        single = metric.otam_distance(Tensor(batch[k]), 0.05).item()
        assert abs(got[k] - single) < 1e-12


@pytest.mark.parametrize("dtype", ["float32", "float64"])
def test_transposed_matrix_costs_the_same_bits(dtype):
    # the move set is symmetric under transpose, and each soft-min adds
    # its left and up candidates in either order to the same bits, so one
    # orientation is the whole score
    rng = np.random.default_rng(8)
    with T.precision(dtype):
        for shape in [(5, 8, 8), (3, 8, 6), (4, 2, 7), (1, 1, 5), (2, 3, 3),
                      (8, 7)]:
            C = rng.uniform(0.0, 2.0, size=shape)
            for gamma in (1e-3, 0.1, 1.0):
                got = metric.otam_distance(Tensor(C), gamma).data
                want = metric.otam_distance(Tensor(C.swapaxes(-1, -2)),
                                            gamma).data
                assert got.dtype == np.dtype(dtype)
                assert np.array_equal(got, want), (shape, gamma)


def test_one_dp_run_over_the_batch_per_call(monkeypatch):
    # one orientation: each call runs the DP once, over B matrices, not 2B
    calls = []
    original = metric._soft_dp

    def counting(X, gamma, keep_weights):
        calls.append(X.shape)
        return original(X, gamma, keep_weights)

    monkeypatch.setattr(metric, "_soft_dp", counting)
    C = Tensor(np.random.default_rng(9).uniform(0.0, 2.0, size=(2, 3, 3, 5)),
               requires_grad=True)
    with T.Tape():
        d = metric.otam_distance(C)
        loss = T.reduce_sum(d)
    T.backward(loss)
    assert calls == [(6, 3, 5)]
    assert d.shape == (2, 3) and C.grad.shape == C.shape


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("gamma", [1e-3, 0.1, 1.0])
def test_dp_kernel_is_bit_identical_to_diagonal_major_oracle(dtype, gamma):
    # costs with and without weights, every live cell's three weights,
    # and gradients, with upstream gradients of both signs; the shapes
    # take in single rows, single columns and single cells
    rng = np.random.default_rng(22)
    for shape in [(5, 8, 8), (3, 8, 6), (4, 2, 7), (1, 1, 5), (2, 1, 1),
                  (3, 6, 1), (7, 5, 9)]:
        batch, m, n = shape
        X = rng.uniform(0.0, 2.0, size=shape).astype(dtype)
        want, want_w = diagonal_major_dp(X, gamma, True)
        got, got_w = metric._soft_dp(X, gamma, True)
        bare, no_w = metric._soft_dp(X, gamma, False)
        assert no_w is None
        assert got_w.shape == (m + n - 1, 3, m, batch)
        for cost in (got, bare):
            assert cost.dtype == want.dtype and np.array_equal(cost, want)
        for k in range(1, m + n - 1):
            live = slice(max(0, k - n + 1), min(k, m - 1) + 1)
            assert np.array_equal(got_w[k, :, live],
                                  want_w[k, :, :, live].swapaxes(1, 2)), (
                shape, k)
        g = rng.normal(size=batch).astype(dtype)
        grad = metric._soft_dp_backward(got_w, g, shape)
        ref = diagonal_major_dp_backward(want_w, g, shape)
        assert grad.shape == ref.shape and grad.dtype == ref.dtype
        assert np.array_equal(grad, ref), shape
        assert np.array_equal(np.signbit(grad), np.signbit(ref)), shape


def test_dp_forward_memory_stays_near_its_input():
    # the forward keeps two anti-diagonals of R and one diagonal's
    # temporaries; the diagonal-major table and its padded, skewed copy
    # of X took 5.9 times X at this batch
    X = np.random.default_rng(23).uniform(0.0, 2.0, size=(600, 8, 8)).astype(
        np.float32)
    metric._soft_dp(X, 0.1, keep_weights=False)      # warm the index plan
    tracemalloc.start()
    try:
        metric._soft_dp(X, 0.1, keep_weights=False)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2.5 * X.nbytes, (peak, X.nbytes)


def test_empty_matrix_rejected():
    with pytest.raises(ShapeError):
        metric.otam_distance(Tensor(np.zeros((0, 3))), TIGHT)


def test_alignment_config_validation():
    # gamma is the alignment's one setting; an infinite soft-min
    # temperature made otam_distance return nan
    for gamma in (0.0, -0.1, math.inf, math.nan):
        with pytest.raises(ConfigError, match="gamma"):
            metric.otam_distance(Tensor(np.ones((2, 3))), gamma)


def test_otam_gradcheck():
    rng = np.random.default_rng(10)
    C = Tensor(rng.uniform(0.1, 1.9, size=(4, 3)), requires_grad=True)

    def f():
        return metric.otam_distance(C, 0.1)

    check_grads(f, C, tol=1e-6)


@pytest.mark.parametrize("shape", [(1, 1), (1, 4), (4, 1), (4, 3), (3, 3),
                                   (3, 4, 3)])
@pytest.mark.parametrize("through_costs", [False, True])
@pytest.mark.parametrize("transposed", [False, True])
def test_otam_gradcheck_orientations_ends_and_shapes(shape, through_costs,
                                                      transposed):
    # edge rows and columns, degenerate single-row/column tables, square,
    # non-square and batched tables, each in both orientations; the
    # gradient is checked at the table itself or at the frame features
    # on either end of the cost matrix it is built from
    rng = np.random.default_rng(21)
    w = Tensor(rng.normal(size=shape[:-2]))
    if through_costs:
        a = Tensor(rng.normal(size=shape[:-1] + (3,)), requires_grad=True)
        b = Tensor(rng.normal(size=shape[:-2] + shape[-1:] + (3,)),
                   requires_grad=True)
        leaves = (a, b)

        def table():
            return (metric.cost_matrix(b, a) if transposed
                    else metric.cost_matrix(a, b))
    else:
        C = rng.uniform(0.1, 1.9, size=shape)
        C = np.ascontiguousarray(C.swapaxes(-1, -2)) if transposed else C
        leaves = (Tensor(C, requires_grad=True),)

        def table():
            return leaves[0]

    def f():
        return T.reduce_sum(T.mul(metric.otam_distance(table(), 0.1), w))

    for x in leaves:
        check_grads(f, x, tol=1e-6)


def _value_and_grad(otam, C, gamma, dtype):
    with T.precision(dtype):
        t = Tensor(C, requires_grad=True)
        with T.Tape():
            d = otam(t, gamma)
            loss = T.reduce_sum(d)
        T.backward(loss)
        return d.data, t.grad


@pytest.mark.parametrize("dtype", ["float32", "float64"])
def test_fused_forward_is_bit_identical_to_taped_oracle(dtype):
    rng = np.random.default_rng(18)
    for shape in [(5, 8, 8), (3, 8, 6), (4, 2, 7), (1, 1, 5), (2, 3, 3),
                  (8, 7)]:
        C = rng.uniform(0.0, 2.0, size=shape)
        for gamma in (0.01, 0.1):
            got, g_fused = _value_and_grad(metric.otam_distance, C, gamma,
                                           dtype)
            want, g_taped = _value_and_grad(taped_otam_distance, C, gamma,
                                            dtype)
            assert got.dtype == want.dtype == np.dtype(dtype)
            assert got.shape == want.shape
            assert np.array_equal(got, want), (shape, gamma)
            tol = 1e-5 if dtype == "float32" else 1e-12
            assert np.allclose(g_fused, g_taped, rtol=0, atol=tol), (shape,
                                                                      gamma)


def test_fused_float32_gradient_error_within_2x_of_taped():
    # the stored soft-min weights keep float32 gradients as accurate as
    # replaying the taped DP; recomputing them from R would not
    rng = np.random.default_rng(19)
    errs = {"fused": 0.0, "taped": 0.0}
    for _ in range(10):
        C = rng.uniform(0.0, 2.0, size=(25, 8, 8))
        C = C.astype(np.float32).astype(np.float64)  # exact in both dtypes
        _, ref = _value_and_grad(taped_otam_distance, C, 0.1, "float64")
        for name, otam in (("fused", metric.otam_distance),
                           ("taped", taped_otam_distance)):
            _, g32 = _value_and_grad(otam, C, 0.1, "float32")
            errs[name] = max(errs[name], float(np.abs(g32 - ref).max()))
    assert 0.0 < errs["fused"] <= 2.0 * errs["taped"], errs


def test_otam_tape_is_freed_without_garbage_collection():
    # a Tensor held by the backward closure refers back to its tape; that
    # cycle keeps each training step's tape alive until a full collection
    leaf = Tensor(np.random.default_rng(20).uniform(0, 2, size=(2, 3, 3)),
                  requires_grad=True)
    gc.disable()
    try:
        with T.Tape() as tape:
            d = metric.otam_distance(T.scale(leaf, 1.0))
        freed = weakref.ref(tape)
        del tape, d
        assert freed() is None
    finally:
        gc.enable()


def test_otam_gradient_is_soft_argmin_weights():
    # at tiny gamma the gradient concentrates on the single cheapest path
    C = np.full((3, 3), 1.0)
    C[0, 0] = C[1, 1] = C[2, 2] = 0.01  # cheap diagonal
    t = Tensor(C, requires_grad=True)
    with T.Tape():
        loss = metric.otam_distance(t, TIGHT)
    T.backward(loss)
    diag = np.diag(t.grad)
    assert np.all(diag > 0.99)
    off = t.grad - np.diag(diag)
    assert np.all(np.abs(off) < 0.01)


# ---------------------------------------------------------------------------
# the combined cost and classification (model._branch_costs and
# model._outcomes)


def tail(protos, queries, alpha=0.0, gamma=0.1, motion=None):
    """``model._branch_costs`` and ``model._outcomes`` over one episode of
    (N, L, D) prototype and (Q, L, D) query frame rows, Q a multiple of N;
    ``motion`` is an optional (prototypes, queries) pair for the motion
    branch. Returns the (Q, N) probabilities and the EpisodeResult."""
    pairs = [("normal", protos, queries)]
    if motion is not None:
        pairs.append(("motion",) + motion)
    dists = [model._branch_costs(Tensor(p[None, None]),
                                 Tensor(q[None, :, None]), gamma)
             for _, p, q in pairs]
    way = protos.shape[0]
    probs, (result,) = model._outcomes(dists, [name for name, _, _ in pairs],
                                       alpha, way, queries.shape[0] // way)
    return probs.data[0], result


def pair_cost(proto, query, gamma):
    return metric.otam_distance(metric.cost_matrix(Tensor(proto),
                                                   Tensor(query)),
                                gamma).item()


def test_combined_alpha_zero_is_normal_only():
    rng = np.random.default_rng(11)
    ns, nq = rng.normal(size=(3, 4, 6)), rng.normal(size=(3, 4, 6))
    ms, mq = rng.normal(size=(3, 3, 6)), rng.normal(size=(3, 3, 6))
    full, _ = tail(ns, nq, 0.0, motion=(ms, mq))
    normal_only, _ = tail(ns, nq, 0.0)
    assert np.allclose(full, normal_only, atol=1e-12)


def test_combined_recomposition_oracle():
    rng = np.random.default_rng(12)
    ns, nq = rng.normal(size=(2, 4, 6)), rng.normal(size=(2, 4, 6))
    ms, mq = rng.normal(size=(2, 3, 6)), rng.normal(size=(2, 3, 6))
    alpha = 0.7
    got, _ = tail(ns, nq, alpha, 0.1, motion=(ms, mq))
    sims = np.array([[-(pair_cost(ns[c], nq[i], 0.1)
                        + alpha * pair_cost(ms[c], mq[i], 0.1))
                      for c in range(2)] for i in range(2)])
    want = np.exp(sims) / np.exp(sims).sum(axis=1, keepdims=True)
    assert np.allclose(got, want, atol=1e-6)


def test_combined_rejects_negative_alpha_and_empty():
    # the run config checks alpha and the preset once; every preset
    # keeps at least one branch
    with pytest.raises(ConfigError, match="alpha"):
        runner.RunConfig(alpha=-1.0)
    assert all(model.PRESETS.values())
    with pytest.raises(ConfigError, match="preset"):
        runner.RunConfig(preset="none")
    mdl = model.Model(dim=8, frames=4, seed=11)
    assert model.score_episodes(mdl, [], runner.RunConfig(seed=5)) == []


def test_token_row_excluded_from_alignment():
    # the scoring and the loss path both hand alignment the frame rows of
    # the enhanced stacks, never the token row
    rng = np.random.default_rng(14)
    mdl = model.Model(dim=8, frames=3, seed=0)
    frames = rng.normal(size=(2, 3, 8))
    tokens = rng.normal(size=(2, 8))
    full = cpm.feature_enhance_batch(mdl.normal, Tensor(frames),
                                     Tensor(tokens)).data
    scored = model._enhance(mdl, "normal", mdl.normal, frames, tokens)
    assert np.array_equal(scored, full[:, 1:])
    protos, queries, _, _ = model._branch_pass(
        mdl.normal, Tensor(frames), np.concatenate([tokens, tokens]), 1, 1)
    assert np.allclose(protos.data[0, 0, 0], full[0, 1:], atol=1e-12)
    assert np.allclose(queries.data[0, 0, 0], full[1, 1:], atol=1e-12)


def test_classify_identical_prototypes_uniform():
    rng = np.random.default_rng(15)
    proto = rng.normal(size=(3, 6))
    probs, _ = tail(np.stack([proto] * 5), rng.normal(size=(5, 3, 6)))
    assert np.allclose(probs, 0.2, atol=1e-9)
    assert np.allclose(probs.sum(axis=1), 1.0, atol=1e-6)


def test_classify_single_class_certain():
    rng = np.random.default_rng(16)
    probs, _ = tail(rng.normal(size=(1, 3, 6)), rng.normal(size=(1, 3, 6)))
    assert abs(probs[0, 0] - 1.0) < 1e-12


def test_classify_picks_matching_class():
    # query i shares its frame directions with class i's prototype; the
    # other prototypes are orthogonal to it
    eye = np.eye(8)
    stacks = np.stack([eye[2 * c:2 * c + 2] for c in range(4)])
    probs, result = tail(stacks, stacks.copy(), gamma=0.05)
    assert np.array_equal(result.predictions, np.arange(4))
    assert result.correct == 4
    assert np.allclose(probs.sum(axis=1), 1.0, atol=1e-6)


def test_classify_shift_invariance_of_probabilities():
    rng = np.random.default_rng(17)
    protos, queries = rng.normal(size=(4, 3, 6)), rng.normal(size=(4, 3, 6))
    probs, _ = tail(protos, queries)
    sims = np.array([[-pair_cost(p, q, 0.1) for p in protos]
                     for q in queries])
    shifted = np.exp(sims + 5.0) / np.exp(sims + 5.0).sum(axis=1,
                                                         keepdims=True)
    assert np.allclose(probs, shifted, atol=1e-6)


def test_classify_argmax_tie_breaks_low_index():
    # classes 1 and 2 share the prototype nearest every query
    rng = np.random.default_rng(18)
    near = rng.normal(size=(3, 6))
    protos = np.stack([rng.normal(size=(3, 6)), near, near])
    queries = near + 0.01 * rng.normal(size=(3, 3, 6))
    probs, result = tail(protos, queries)
    assert np.array_equal(probs[:, 1], probs[:, 2])
    assert np.all(probs[:, 1] > probs[:, 0])
    assert np.array_equal(result.predictions, [1, 1, 1])
