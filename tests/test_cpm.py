"""Feature enhancement, consistency loss, prototypes, fake tokens."""

import numpy as np
import pytest

from cpm2c import cpm, model, nn, tensor as T
from cpm2c.errors import ShapeError
from cpm2c.tensor import Tensor
from fdcheck import check_grads
from oracles import (build_prototype, consistency_loss, feature_enhance,
                     stack_token_frames)


@pytest.fixture(autouse=True)
def float64_mode():
    with T.precision("float64"):
        yield


def make_branch(seq_len=4, dim=6, seed=0):
    return cpm.CpmBranch(seq_len, dim, num_heads=2, ffn_hidden=8,
                         rng=np.random.default_rng(seed))


# ---------------------------------------------------------------------------
# token stacking (pre-transformer structure)


def test_stack_rows_are_token_plus_frames_bitwise():
    rng = np.random.default_rng(0)
    tokens = rng.normal(size=(2, 5))
    frames = rng.normal(size=(2, 3, 5))
    stacked = cpm.stack_token_frames_batch(Tensor(tokens), Tensor(frames),
                                           Tensor(np.zeros((4, 5)))).data
    assert stacked.shape == (2, 4, 5)
    for b in range(2):
        assert np.array_equal(stacked[b, 0], tokens[b])
        for r in range(3):
            assert np.array_equal(stacked[b, r + 1], tokens[b] + frames[b, r])


def test_stack_rejects_mismatched_shapes():
    with pytest.raises(ShapeError):      # tokens narrower than the frames
        cpm.stack_token_frames_batch(Tensor(np.zeros((3, 4))),
                                     Tensor(np.zeros((3, 2, 5))),
                                     Tensor(np.zeros((3, 5))))
    with pytest.raises(ShapeError):      # table shorter than the stacks
        cpm.stack_token_frames_batch(Tensor(np.zeros((3, 5))),
                                     Tensor(np.zeros((3, 2, 5))),
                                     Tensor(np.zeros((2, 5))))


# ---------------------------------------------------------------------------
# feature enhancement


def test_enhance_collapses_to_passthrough_at_zero_init():
    branch = make_branch()
    branch.pos.table.data[:] = 0.0
    frames = np.random.default_rng(1).normal(size=(2, 3, 6))
    out = cpm.feature_enhance_batch(branch, Tensor(frames),
                                    Tensor(np.zeros((2, 6)))).data
    assert np.allclose(out[:, 0], 0.0, atol=1e-12)
    assert np.allclose(out[:, 1:], frames, atol=1e-12)


def test_enhance_rejects_wrong_length():
    branch = make_branch(seq_len=4)
    with pytest.raises(ShapeError):      # 5 frames stack to 6 rows, not 4
        cpm.feature_enhance_batch(branch, Tensor(np.zeros((2, 5, 6))),
                                  Tensor(np.zeros((2, 6))))


def test_enhance_gradcheck_token_and_frames():
    branch = make_branch()
    # give the residual projections weight so attention actually mixes
    rng = np.random.default_rng(2)
    branch.transformer.attn.out = nn.Linear(6, 6, rng)
    branch.transformer.ffn2 = nn.Linear(8, 6, rng)
    tokens = Tensor(rng.normal(size=(2, 6)), requires_grad=True)
    frames = Tensor(rng.normal(size=(2, 3, 6)), requires_grad=True)
    w = rng.normal(size=(2, 4, 6))

    def f():
        out = cpm.feature_enhance_batch(branch, frames, tokens)
        return T.reduce_sum(T.mul(out, Tensor(w)))

    check_grads(f, tokens, tol=1e-6)
    check_grads(f, frames, tol=1e-6)


# ---------------------------------------------------------------------------
# consistency loss


def test_consistency_zero_when_identical():
    rng = np.random.default_rng(4)
    feats = [Tensor(rng.normal(size=(3, 4))) for _ in range(3)]
    loss = consistency_loss(feats, feats)
    assert loss.item() == 0.0


def test_consistency_hand_case():
    real = Tensor(np.zeros((2, 2)))
    fake = Tensor(np.ones((2, 2)))
    assert consistency_loss([real], [fake]).item() == 4.0


def test_consistency_matches_numpy_oracle_and_is_symmetric():
    rng = np.random.default_rng(5)
    reals = [rng.normal(size=(3, 4)) for _ in range(4)]
    fakes = [rng.normal(size=(3, 4)) for _ in range(4)]
    got = consistency_loss([Tensor(r) for r in reals],
                           [Tensor(f) for f in fakes]).item()
    want = sum(((f - r) ** 2).sum() for r, f in zip(reals, fakes))
    assert abs(got - want) < 1e-5
    assert got >= 0.0
    flipped = consistency_loss([Tensor(f) for f in fakes],
                               [Tensor(r) for r in reals]).item()
    assert abs(got - flipped) < 1e-12


def test_consistency_grads_flow_to_both_paths():
    rng = np.random.default_rng(7)
    real = Tensor(rng.normal(size=(2, 3)), requires_grad=True)
    fake = Tensor(rng.normal(size=(2, 3)), requires_grad=True)

    def f():
        return consistency_loss([real], [fake])

    check_grads(f, real)
    check_grads(f, fake)


# ---------------------------------------------------------------------------
# prototypes


def test_prototype_single_support_is_identity():
    x = Tensor(np.random.default_rng(8).normal(size=(3, 4)))
    proto = build_prototype([x])
    assert np.allclose(proto.data, x.data, atol=1e-12)


def test_prototype_hand_case():
    a = Tensor([[0.0, 2.0]])
    b = Tensor([[2.0, 0.0]])
    assert np.allclose(build_prototype([a, b]).data, [[1.0, 1.0]])


def test_prototype_matches_running_sum_oracle():
    rng = np.random.default_rng(9)
    feats = [rng.normal(size=(4, 3)) for _ in range(5)]
    got = build_prototype([Tensor(f) for f in feats]).data
    acc = np.zeros((4, 3))
    for f in feats:
        acc += f
    assert np.allclose(got, acc / 5.0, atol=1e-6)


def test_prototype_linearity():
    rng = np.random.default_rng(10)
    a, b = rng.normal(size=(2, 3)), rng.normal(size=(2, 3))
    alpha = 2.75
    base = build_prototype([Tensor(a), Tensor(b)]).data
    scaled = build_prototype([Tensor(alpha * a), Tensor(alpha * b)]).data
    assert np.allclose(scaled, alpha * base, atol=1e-10)


# ---------------------------------------------------------------------------
# fake tokens


def test_fake_token_provenance_regenerates_bitwise():
    a = cpm.fake_token(16, 3, [14], 5, "normal")
    b = cpm.fake_token(16, 3, [14], 5, "normal")
    assert a.dtype == np.float32 and a.shape == (1, 5, 16)
    assert np.array_equal(a, b)


def test_fake_token_varies_with_every_key_part():
    base = cpm.fake_token(8, 0, [0], 4, "normal")[0]
    for other in [cpm.fake_token(8, 1, [0], 4, "normal")[0],
                  cpm.fake_token(8, 0, [1], 4, "normal")[0],
                  cpm.fake_token(8, 0, [0], 4, "motion")[0]]:
        assert not (base == other).any(axis=1).any()
    # each video of an episode gets its own row
    assert len({row.tobytes() for row in base}) == 4


def test_fake_token_tells_ids_apart_by_leading_nul_bytes():
    ids = ["a", "\0a", "\0\0a", "\0", "", "a\0"]
    keys = [cpm.video_key(video) for video in ids]
    assert len(set(keys)) == len(ids)
    rows = cpm.fake_token(8, 0, keys, 1, "normal")[:, 0]
    assert len({row.tobytes() for row in rows}) == len(ids)
    # and a video key never meets an episode index of the same run
    assert min(keys) >= 2 ** 64


@pytest.mark.parametrize("dim", [7, 64])
def test_fake_token_rows_of_a_key_do_not_depend_on_the_batch(dim):
    # 150 keys fill several slabs; an odd dim puts a key's elements at
    # other offsets of every vector loop
    keys = [cpm.video_key(f"c{i:03d}_v000") for i in range(150)] + [3, 0]
    batch = cpm.fake_token(dim, 5, keys, 2, "motion")
    assert batch.shape == (len(keys), 2, dim)
    for i in (0, 1, 63, 64, 65, 149, 150, 151):
        alone = cpm.fake_token(dim, 5, [keys[i]], 2, "motion")[0]
        assert np.array_equal(batch[i], alone)
    assert np.array_equal(cpm.fake_token(dim, 5, keys[::-1], 2, "motion"),
                          batch[::-1])


@pytest.mark.parametrize("dim", [8, 64, 512])
def test_fake_token_prefix_equals_full_draw(dim):
    # scoring draws only the queries' leading rows of the stream
    full = cpm.fake_token(dim, 7, [3], 35, "motion")[0]
    for videos in (1, 5, 10, 34):
        assert np.array_equal(cpm.fake_token(dim, 7, [3], videos,
                                             "motion")[0],
                              full[:videos])


def test_fake_token_distribution_is_standard_normal():
    vecs = cpm.fake_token(64, 0, list(range(5000)), 1, "normal")[:, 0]
    assert vecs.shape == (5000, 64)
    z = vecs.astype(np.float64).ravel()
    # sampling sd of the moments over 320000 draws: mean 0.0018, variance
    # 0.0025, third moment 0.0068, fourth 0.0173; the bounds are 5 sd
    assert abs(z.mean()) < 0.009
    assert abs(z.var() - 1.0) < 0.0125
    assert abs((z ** 3).mean()) < 0.034
    assert abs((z ** 4).mean() - 3.0) < 0.087
    assert np.abs(z).max() < 6.0
    # rows are not correlated with each other
    corr = np.corrcoef(vecs[:200])[np.triu_indices(200, 1)]
    assert abs(corr.mean()) < 0.01


def test_fake_tokens_put_queries_first_in_the_stream():
    rows = cpm.fake_token(6, 5, [2], 7, "normal")[0]
    canonical = model._fake_tokens(6, 5, 2, 4, 3, "normal")
    assert np.array_equal(canonical[4:], rows[:3])
    assert np.array_equal(canonical[:4], rows[3:])


def test_query_feature_eval_deterministic():
    branch = make_branch()
    frames = Tensor(np.random.default_rng(11).normal(size=(2, 3, 6)))

    def queries():
        fakes = model._fake_tokens(6, 5, 2, 1, 2, "normal")[1:]
        return cpm.feature_enhance_batch(branch, frames, Tensor(fakes)).data

    assert np.array_equal(queries(), queries())


def test_stack_token_frames_batch_matches_single():
    rng = np.random.default_rng(40)
    tokens = rng.normal(size=(3, 4))
    frames = rng.normal(size=(3, 5, 4))
    batched = cpm.stack_token_frames_batch(Tensor(tokens), Tensor(frames),
                                           Tensor(np.zeros((6, 4)))).data
    for i in range(3):
        single = stack_token_frames(Tensor(tokens[i]), Tensor(frames[i])).data
        assert np.array_equal(batched[i], single)


def test_stack_token_frames_batch_shape_mismatch():
    with pytest.raises(ShapeError):
        cpm.stack_token_frames_batch(Tensor(np.zeros((3, 4))),
                                     Tensor(np.zeros((2, 5, 4))),
                                     Tensor(np.zeros((6, 4))))


def test_feature_enhance_batch_matches_per_video():
    rng = np.random.default_rng(41)
    branch = cpm.CpmBranch(6, 4, num_heads=2, rng=rng)
    branch.transformer.attn.out = nn.Linear(4, 4, rng)
    branch.transformer.ffn2 = nn.Linear(16, 4, rng)
    tokens = rng.normal(size=(3, 4))
    frames = rng.normal(size=(3, 5, 4))
    batched = cpm.feature_enhance_batch(branch, Tensor(frames),
                                        Tensor(tokens)).data
    for i in range(3):
        single = feature_enhance(branch, Tensor(frames[i]),
                                 Tensor(tokens[i])).data
        assert np.allclose(batched[i], single, atol=1e-12)


def test_feature_enhance_batch_wrong_length():
    branch = cpm.CpmBranch(6, 4, num_heads=2, rng=np.random.default_rng(0))
    with pytest.raises(ShapeError):
        cpm.feature_enhance_batch(branch, Tensor(np.zeros((2, 3, 4))),
                                  Tensor(np.zeros((2, 4))))
