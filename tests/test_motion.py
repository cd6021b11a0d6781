"""Motion compensation: difference algebra, oracles, gradient checks."""

import numpy as np
import pytest

from cpm2c import motion, nn, tensor as T
from cpm2c.errors import ProtocolError
from cpm2c.tensor import Tensor
from fdcheck import check_grads
from oracles import reverse_sensitivity_check


@pytest.fixture(autouse=True)
def float64_mode():
    with T.precision("float64"):
        yield


def motion_oracle(frames, transformed):
    """Straight-line recomputation of the difference/mean/average chain."""
    length = frames.shape[0]
    back = frames[:length - 1] - transformed[1:]
    fwd = frames[1:] - transformed[:length - 1]
    g_back = back.mean(axis=0, keepdims=True)
    g_fwd = fwd.mean(axis=0, keepdims=True)
    return 0.5 * ((back + g_back) + (fwd + g_fwd))


def test_identity_phi_static_video_gives_zero():
    phi = nn.PhiStack(4, 0)
    frames = Tensor(np.tile(np.array([1.5, -2.0, 0.25, 3.0]), (6, 1)))
    out = motion.motion_features(phi, frames).data
    assert out.shape == (5, 4)
    assert np.max(np.abs(out)) == 0.0


def test_identity_phi_hand_case_cancels():
    phi = nn.PhiStack(1, 0)
    out = motion.motion_features(phi, Tensor([[0.0], [2.0]])).data
    assert out.shape == (1, 1)
    assert out[0, 0] == 0.0


def test_identity_phi_any_input_cancels():
    # with Phi = id the forward and backward streams are exact negations,
    # so the aggregate vanishes for every input, not just static ones
    phi = nn.PhiStack(3, 0)
    frames = Tensor(np.random.default_rng(0).normal(size=(5, 3)))
    out = motion.motion_features(phi, frames).data
    assert np.max(np.abs(out)) < 1e-12


def test_matches_straight_line_oracle_with_real_phi():
    rng = np.random.default_rng(1)
    phi = nn.PhiStack(4, blocks=2, rng=rng)
    frames = rng.normal(size=(6, 4))
    got = motion.motion_features(phi, Tensor(frames), train=False).data
    transformed = phi.forward(Tensor(frames), train=False).data
    want = motion_oracle(frames, transformed)
    assert np.allclose(got, want, atol=1e-5)


def test_constant_offset_invariance_exact():
    # integer-valued frames and offset keep every addition exact, so the
    # difference algebra must return bit-identical motion
    phi = nn.PhiStack(3, 0)
    rng = np.random.default_rng(2)
    frames = rng.integers(-8, 8, size=(5, 3)).astype(float)
    offset = np.array([4.0, -2.0, 8.0])
    a = motion.motion_features(phi, Tensor(frames)).data
    b = motion.motion_features(phi, Tensor(frames + offset)).data
    assert np.array_equal(a, b)


def test_output_length_is_frames_minus_one():
    phi = nn.PhiStack(2, 0)
    for length in (2, 3, 5, 8):
        frames = Tensor(np.random.default_rng(length).normal(size=(length, 2)))
        assert motion.motion_features(phi, frames).shape == (length - 1, 2)


def test_too_few_frames_rejected():
    phi = nn.PhiStack(2, 0)
    with pytest.raises(ProtocolError):
        motion.motion_features(phi, Tensor(np.zeros((1, 2))))


def test_palindrome_reversal_relation_under_identity_phi():
    phi = nn.PhiStack(2, 0)
    seq = np.array([[0.0, 1.0], [2.0, -1.0], [5.0, 0.5], [2.0, -1.0],
                    [0.0, 1.0]])
    fwd, rev = reverse_sensitivity_check(phi, Tensor(seq))
    # both vanish, so the reversal-negation relation holds exactly
    assert np.max(np.abs(fwd.data)) == 0.0
    assert np.array_equal(rev.data, -fwd.data[::-1])


def test_reversal_covariance_with_nontrivial_phi():
    # aggregated motion of the reversed clip is the reversed motion of the
    # original clip, because each step mixes its two frames symmetrically
    rng = np.random.default_rng(3)
    phi = nn.PhiStack(3, blocks=1, rng=rng)
    frames = Tensor(rng.normal(size=(6, 3)))
    fwd, rev = reverse_sensitivity_check(phi, frames)
    assert np.allclose(rev.data, fwd.data[::-1], atol=1e-6)


def test_permuted_classes_distinct_motion_identical_means():
    from cpm2c import data
    cfg = data.SyntheticConfig(num_classes=3, dim=5, frames=6, scale=1.0,
                               sigma=0.0, mode="permuted", seed=11)
    rng = np.random.default_rng(4)
    phi = nn.PhiStack(5, blocks=1, rng=rng)  # random Phi breaks the identity cancellation
    stacks = [data.synth_encode(cfg, c, 0) for c in range(3)]
    motions = [motion.motion_features(phi, Tensor(s)).data for s in stacks]
    means = [s.mean(axis=0) for s in stacks]
    for c in range(1, 3):
        assert np.allclose(means[c], means[0], atol=1e-6)
        assert not np.allclose(motions[c], motions[0], atol=1e-4)


def test_gradcheck_through_motion_and_phi():
    rng = np.random.default_rng(5)
    phi = nn.PhiStack(3, blocks=2, rng=rng)
    frames = Tensor(rng.normal(size=(4, 3)), requires_grad=True)
    w = rng.normal(size=(3, 3))

    def f():
        out = motion.motion_features(phi, frames, train=True)
        return T.reduce_sum(T.mul(out, Tensor(w)))

    check_grads(f, frames, tol=1e-6)
    for name, p in phi.named_parameters():
        check_grads(f, p, tol=1e-6)


def test_motion_batched_matches_per_sequence():
    rng = np.random.default_rng(30)
    frames = rng.normal(size=(4, 6, 5))
    phi = nn.PhiStack(5, rng=np.random.default_rng(31))
    batched = motion.motion_features(phi, Tensor(frames), train=True).data
    assert batched.shape == (4, 5, 5)
    for i in range(4):
        fresh = nn.PhiStack(5, rng=np.random.default_rng(31))
        single = motion.motion_features(fresh, Tensor(frames[i]), train=True).data
        assert np.allclose(batched[i], single, atol=1e-12)
