"""Episode-level model assembly: batched pass vs per-video reference."""

import gc
import tracemalloc

import numpy as np
import pytest

from cpm2c import cpm, data, model, motion, nn, objective, \
    runner, tensor as T
from cpm2c.errors import ConfigError, ProtocolError
from cpm2c.tensor import Tensor
from oracles import (build_prototype, classify, consistency_loss,
                     eval_fake_tokens, feature_enhance, per_episode_losses,
                     query_feature)


@pytest.fixture(autouse=True)
def float64_mode():
    with T.precision("float64"):
        yield


GAMMA = 0.1


def run_cfg(**over):
    """The run settings of these tests: seed 5, gamma GAMMA, and the
    RunConfig defaults (alpha 1, every branch, summed consistency)."""
    return runner.RunConfig(**{"seed": 5, "gamma": GAMMA, **over})


def tiny_setup(way=2, shot=2, queries=1, seed=3):
    cfg = data.SyntheticConfig(num_classes=4, dim=8, frames=4, scale=1.0,
                               sigma=0.3, seed=seed)
    manifest = data.build_synthetic_manifest(cfg, videos_per_class=4)
    mdl = model.Model(dim=8, frames=4, seed=11)
    episode = data.sample_episode(manifest, data.episode_rng(5, 0), way,
                                  shot, queries, "train")
    return manifest, mdl, episode


def eval_token(mdl, run_seed, rec, branch):
    return eval_fake_tokens(mdl, run_seed, [rec], branch)[0]


def reference_probs(mdl, episode, run_seed, alpha, use_normal=True,
                    use_motion=True):
    """Per-video, per-pair recomputation through the oracles."""
    n = episode.way
    protos = []
    for c in range(n):
        token = Tensor(episode.prompts[c])
        pn = pm = None
        if use_normal:
            pn = build_prototype([
                feature_enhance(mdl.normal, Tensor(r.features()), token)
                for r in episode.support[c]])
        if use_motion:
            pm = build_prototype([
                feature_enhance(
                    mdl.motion,
                    motion.motion_features(mdl.phi, Tensor(r.features())),
                    token)
                for r in episode.support[c]])
        protos.append((pn, pm))
    rows = []
    for c in range(n):
        for rec in episode.query[c]:
            frames = Tensor(rec.features())
            qn = qm = None
            if use_normal:
                qn = query_feature(mdl.normal, frames,
                                   eval_token(mdl, run_seed, rec, "normal"))
            if use_motion:
                fake = eval_token(mdl, run_seed, rec, "motion")
                qm = query_feature(
                    mdl.motion, motion.motion_features(mdl.phi, frames), fake)
            rows.append(classify((qn, qm), protos, alpha, GAMMA).data)
    return np.stack(rows)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("k", [1, 2, 5, 9])
def test_shot_mean_has_the_bits_of_numpy_mean(dtype, k):
    # prototypes add their K shots one at a time instead of stacking them;
    # magnitudes spread over six decades make every rounding visible
    rng = np.random.default_rng(40 + k)
    x = (rng.normal(size=(3, k, 9, 64))
         * 10.0 ** rng.uniform(-3, 3, size=(3, k, 9, 64))).astype(dtype)
    got = model._shot_mean(lambda s: x[:, s], k)
    want = x.mean(axis=1)
    assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


def test_probability_rows_sum_to_one():
    manifest, mdl, episode = tiny_setup()
    res = model.episode_forward(mdl, episode, run_cfg(), episode_index=0,
                                bank=manifest.prompt_bank())
    assert res.probabilities.shape == (2, 2)
    assert np.allclose(res.probabilities.sum(axis=1), 1.0, atol=1e-6)
    assert res.loss is not None
    assert set(res.parts) == {"adapt", "task", "consistency", "total"}


def test_batched_probabilities_match_per_pair_reference():
    _, mdl, episode = tiny_setup()
    res = model.score_episodes(mdl, [episode], run_cfg(alpha=0.7))[0]
    ref = reference_probs(mdl, episode, 5, 0.7)
    assert np.allclose(res.probabilities, ref, atol=1e-8)


def test_normal_only_matches_reference():
    _, mdl, episode = tiny_setup()
    res = model.score_episodes(mdl, [episode],
                               run_cfg(preset="no-motion"))[0]
    ref = reference_probs(mdl, episode, 5, 1.0, use_motion=False)
    assert np.allclose(res.probabilities, ref, atol=1e-8)


def test_motion_only_matches_reference():
    _, mdl, episode = tiny_setup()
    res = model.score_episodes(mdl, [episode],
                               run_cfg(preset="motion-only"))[0]
    ref = reference_probs(mdl, episode, 5, 1.0, use_normal=False)
    assert np.allclose(res.probabilities, ref, atol=1e-8)


def test_alpha_zero_ignores_motion_distances():
    _, mdl, episode = tiny_setup()
    both = model.score_episodes(mdl, [episode], run_cfg(alpha=0.0))[0]
    ref = reference_probs(mdl, episode, 5, 1.0, use_motion=False)
    assert np.allclose(both.probabilities, ref, atol=1e-8)


def test_losses_flag_does_not_change_probabilities():
    manifest, mdl, episode = tiny_setup()
    with_l = model.episode_forward(mdl, episode, run_cfg(), episode_index=0,
                                   bank=manifest.prompt_bank())
    without = model.score_episodes(mdl, [episode], run_cfg())[0]
    assert np.allclose(with_l.probabilities, without.probabilities, atol=1e-10)
    assert without.loss is None and without.parts == {}


def test_consistency_part_matches_single_pair_loss():
    manifest, mdl, episode = tiny_setup()
    res = model.episode_forward(mdl, episode, run_cfg(), episode_index=0,
                                bank=manifest.prompt_bank())
    n = episode.way
    reals, fakes = [], []
    order = [(c, rec) for c in range(n) for rec in episode.support[c]]
    order += [(c, rec) for c in range(n) for rec in episode.query[c]]
    for c, rec in order:
        frames = Tensor(rec.features())
        token = Tensor(episode.prompts[c])
        mot = motion.motion_features(mdl.phi, frames)
        for branch, seq in (("normal", frames), ("motion", mot)):
            arm = mdl.normal if branch == "normal" else mdl.motion
            reals.append(feature_enhance(arm, seq, token))
            fakes.append(query_feature(arm, seq,
                                       eval_token(mdl, 5, rec, branch)))
    expected = consistency_loss(reals, fakes)
    assert np.allclose(res.parts["consistency"], expected.data, atol=1e-8)


def test_task_part_is_cross_entropy_of_probabilities():
    manifest, mdl, episode = tiny_setup()
    res = model.episode_forward(mdl, episode, run_cfg(), episode_index=0,
                                bank=manifest.prompt_bank())
    picked = res.probabilities[np.arange(len(res.true_labels)),
                               res.true_labels]
    assert np.allclose(res.parts["task"], -np.log(picked).mean(), atol=1e-10)


def test_adapt_part_matches_direct_dam_loss():
    manifest, mdl, episode = tiny_setup()
    res = model.episode_forward(mdl, episode, run_cfg(), episode_index=0,
                                bank=manifest.prompt_bank())
    ids, bank = manifest.prompt_bank()
    frames, truth = [], []
    for c in range(episode.way):
        for rec in episode.support[c]:
            frames.append(rec.features())
            truth.append(ids.index(episode.class_ids[c]))
    for c in range(episode.way):
        for rec in episode.query[c]:
            frames.append(rec.features())
            truth.append(ids.index(episode.class_ids[c]))
    expected = objective.dam_loss(Tensor(np.stack(frames)), bank, truth,
                                  mdl.temperature())
    assert np.allclose(res.parts["adapt"], expected.data, atol=1e-10)


def test_total_combines_parts_with_weights():
    manifest, mdl, episode = tiny_setup()
    cfg = run_cfg(lam_adapt=0.5, lam_task=2.0, lam_consistency=0.25)
    res = model.episode_forward(mdl, episode, cfg, episode_index=0,
                                bank=manifest.prompt_bank())
    expect = (0.5 * res.parts["adapt"] + 2.0 * res.parts["task"]
              + 0.25 * res.parts["consistency"])
    assert np.allclose(res.parts["total"], expect, atol=1e-10)


def test_mean_consistency_reduction_rescales():
    manifest, mdl, episode = tiny_setup()
    kw = dict(episode_index=0, bank=manifest.prompt_bank())
    by_sum = model.episode_forward(mdl, episode, run_cfg(), **kw)
    by_mean = model.episode_forward(
        mdl, episode, run_cfg(consistency_reduction="mean"), **kw)
    videos = episode.way * (episode.shot + episode.queries_per_class)
    numel = videos * (5 * 8 + 4 * 8)  # both branches' enhanced elements
    assert np.allclose(by_mean.parts["consistency"],
                       by_sum.parts["consistency"] / numel, atol=1e-10)


def test_gradients_reach_every_parameter():
    manifest, mdl, episode = tiny_setup()
    with T.Tape():
        res = model.episode_forward(mdl, episode, run_cfg(),
                                    episode_index=0,
                                    bank=manifest.prompt_bank(), train=True)
    T.backward(res.loss)
    for name, p in mdl.named_parameters():
        assert p.grad is not None, f"no gradient for {name}"
    assert abs(float(mdl.log_temperature.grad)) > 0


def test_disabled_motion_leaves_phi_untouched():
    manifest, mdl, episode = tiny_setup()
    with T.Tape():
        res = model.episode_forward(mdl, episode, run_cfg(preset="no-motion"),
                                    episode_index=0,
                                    bank=manifest.prompt_bank(), train=True)
    T.backward(res.loss)
    for name, p in mdl.named_parameters():
        if name.startswith(("phi.", "motion.")):
            assert p.grad is None, f"unexpected gradient for {name}"


@pytest.mark.parametrize("train", [True, False])
@pytest.mark.parametrize("dim,way,shot,queries",
                         [(64, 5, 1, 1), (512, 5, 5, 2), (64, 5, 5, 1)])
def test_loss_path_matches_per_episode_oracle(dim, way, shot, queries,
                                              train):
    # the benchmark's shapes in float32, with output projections given
    # weight so that attention and the FFN reach the probabilities
    with T.precision("float32"):
        synth = data.SyntheticConfig(num_classes=20, dim=dim, frames=8,
                                     scale=1.0, sigma=0.3, seed=7)
        manifest = data.build_synthetic_manifest(synth, videos_per_class=10)
        episode = data.sample_episode(manifest, data.episode_rng(7, 0), way,
                                      shot, queries, "train")
        cfg = runner.RunConfig(seed=7, gamma=GAMMA, alpha=0.7,
                               consistency_reduction="mean")
        kw = dict(episode_index=0, bank=manifest.prompt_bank("train"),
                  train=train)

        def run(forward):
            mdl = model.Model(dim=dim, frames=8, seed=11)
            rng = np.random.default_rng(12)
            for branch in (mdl.normal, mdl.motion):
                branch.transformer.attn.out = nn.Linear(dim, dim, rng)
                branch.transformer.ffn2 = nn.Linear(4 * dim, dim, rng)
            with T.Tape():
                res = forward(mdl, episode, cfg, **kw)
            T.backward(res.loss)
            return res, {n: p.grad for n, p in mdl.named_parameters()}

        got, got_grads = run(model.episode_forward)
        ref, ref_grads = run(per_episode_losses)
    assert got.probabilities.dtype == np.float32
    assert np.array_equal(got.probabilities, ref.probabilities)
    assert np.array_equal(got.predictions, ref.predictions)
    assert got.correct == ref.correct
    assert got.parts.keys() == ref.parts.keys()
    for key, value in ref.parts.items():
        assert np.isclose(got.parts[key], value, rtol=1e-6, atol=0), key
    for name, g in ref_grads.items():
        scale = max(1.0, float(np.abs(g).max()))
        assert np.allclose(got_grads[name], g, rtol=0, atol=1e-5 * scale), \
            name


def test_training_episode_tape_stays_small():
    # the soft-alignment DP, every layer and each transformer block as a
    # whole, the cost matrix, the motion arithmetic after Phi, each
    # branch's prototype/query/consistency reads and the losses are fused
    # nodes, and each branch enhances under both tokens in one call;
    # taping the DP cell by cell put about 1650 nodes on a 5-way 1-shot
    # episode at T=8, taping the layers op by op about 490, slicing the
    # probabilities row by row 234, a transformer call per token kind
    # 202, the glue between the fused layers as primitive ops 180, and
    # each transformer block as its layers' twelve nodes 98; 43 of the
    # nodes are parameter leaves
    cfg = data.SyntheticConfig(num_classes=20, dim=8, frames=8, scale=1.0,
                               sigma=0.3, seed=3)
    manifest = data.build_synthetic_manifest(cfg, videos_per_class=2)
    mdl = model.Model(dim=8, frames=8, seed=11)
    episode = data.sample_episode(manifest, data.episode_rng(5, 0), 5, 1, 1,
                                  "train")
    with T.Tape() as tape:
        res = model.episode_forward(mdl, episode, run_cfg(),
                                    episode_index=0,
                                    bank=manifest.prompt_bank(), train=True)
    assert res.loss.tape is tape
    assert len(tape) < 80, len(tape)


@pytest.mark.parametrize("train", [True, False])
def test_a_block_scores_each_episode_as_its_lone_pass(train):
    # a block of one is the lone episode bit for bit; in a block of
    # three, each episode's probabilities and losses are its lone pass's
    # up to the rounding of larger batched products. In train mode the
    # batch norm normalizes each sequence by its own moments, so the
    # block's folding of the running statistics moves no output
    manifest, mdl, _ = tiny_setup(way=2, shot=1, queries=2)
    cfg = run_cfg()
    bank = manifest.prompt_bank()
    episodes = [data.sample_episode(manifest, data.episode_rng(5, i), 2, 1,
                                    2, "train") for i in range(3)]
    lone = [model.episode_forward(mdl, ep, cfg, episode_index=i, bank=bank,
                                  train=train)
            for i, ep in enumerate(episodes)]
    one = model.episode_forward(
        mdl, model.EpisodeBlock((episodes[1],), (1,)), cfg, bank=bank,
        train=train)
    (res,) = one.results
    assert np.array_equal(res.probabilities, lone[1].probabilities)
    assert res.parts == lone[1].parts
    assert float(one.loss.data) == lone[1].parts["total"]
    block = model.episode_forward(
        mdl, model.EpisodeBlock(tuple(episodes), (0, 1, 2)),
        run_cfg(window=4), bank=bank, train=train)
    assert len(block.results) == 3
    for got, want in zip(block.results, lone):
        assert got.loss is None
        assert np.allclose(got.probabilities, want.probabilities,
                           rtol=0, atol=1e-12)
        assert got.correct == want.correct
        for key, value in want.parts.items():
            assert np.isclose(got.parts[key], value, rtol=1e-12), key
    # the block's loss is its share of a window of 4
    assert np.isclose(float(block.loss.data),
                      sum(r.parts["total"] for r in lone) / 4, rtol=1e-12)


def test_a_block_takes_episodes_of_one_shape():
    manifest, _, _ = tiny_setup()
    a = data.sample_episode(manifest, data.episode_rng(5, 0), 2, 1, 1,
                            "train")
    b = data.sample_episode(manifest, data.episode_rng(5, 1), 2, 2, 1,
                            "train")
    with pytest.raises(ProtocolError, match="one way/shot/queries shape"):
        model.EpisodeBlock((a, b), (0, 1))
    with pytest.raises(ProtocolError, match="one stream index"):
        model.EpisodeBlock((a,), (0, 1))


def test_backward_frees_the_episode_while_its_result_lives():
    # runner.train keeps an episode's result, and through its loss the
    # tape, until the next episode_forward returns; backward must leave
    # that tape holding no activation, only the new gradients
    cfg = data.SyntheticConfig(num_classes=20, dim=32, frames=8, scale=1.0,
                               sigma=0.3, seed=3)
    manifest = data.build_synthetic_manifest(cfg, videos_per_class=2)
    mdl = model.Model(dim=32, frames=8, seed=11)
    bank = manifest.prompt_bank()
    episode = data.sample_episode(manifest, data.episode_rng(5, 0), 5, 1, 1,
                                  "train")
    params = [p for _, p in mdl.named_parameters()]

    def forward():
        with T.Tape():
            return model.episode_forward(mdl, episode, run_cfg(),
                                         episode_index=0, bank=bank,
                                         train=True)

    T.backward(forward().loss)           # warm every cache first
    for p in params:
        p.grad = None
    gc.collect()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        res = forward()
        added = tracemalloc.get_traced_memory()[0] - base
        T.backward(res.loss)
        grads = sum(p.grad.nbytes for p in params if p.grad is not None)
        left = tracemalloc.get_traced_memory()[0] - base - grads
    finally:
        tracemalloc.stop()
    assert res.loss.tape is not None     # the result is still referenced
    assert left < 0.05 * added, (left, added)


@pytest.mark.parametrize("preset", ["full", "no-motion", "motion-only"])
def test_training_episode_enhances_once_per_branch(monkeypatch, preset):
    # every video under its real and then its fake token, in one call
    manifest, mdl, episode = tiny_setup(way=2, shot=2, queries=1)
    enhance = cpm.feature_enhance_batch
    calls = []

    def counted(branch, frames, tokens):
        calls.append((branch, frames.shape[0], tokens.shape[0]))
        return enhance(branch, frames, tokens)

    monkeypatch.setattr(cpm, "feature_enhance_batch", counted)
    with T.Tape():
        res = model.episode_forward(mdl, episode, run_cfg(preset=preset),
                                    episode_index=0,
                                    bank=manifest.prompt_bank(), train=True)
    T.backward(res.loss)
    stacks = 2 * (2 * 2 + 2 * 1)
    used = [getattr(mdl, name) for name in model.PRESETS[preset]]
    assert calls == [(branch, stacks, stacks) for branch in used]


def test_training_gradients_are_owned_and_distinct():
    manifest, mdl, episode = tiny_setup()
    with T.Tape():
        res = model.episode_forward(mdl, episode, run_cfg(),
                                    episode_index=0,
                                    bank=manifest.prompt_bank(), train=True)
    T.backward(res.loss)
    grads = [p.grad for _, p in mdl.named_parameters()]
    for g in grads:
        assert isinstance(g, np.ndarray) and g.base is None
    for i, g in enumerate(grads):
        for h in grads[i + 1:]:
            assert not np.shares_memory(g, h)


def test_same_inputs_reproduce_bitwise():
    manifest, mdl, episode = tiny_setup()
    kw = dict(episode_index=0, bank=manifest.prompt_bank())
    a = model.episode_forward(mdl, episode, run_cfg(), **kw)
    b = model.episode_forward(mdl, episode, run_cfg(), **kw)
    assert np.array_equal(a.probabilities, b.probabilities)
    assert a.parts == b.parts


def test_run_seed_changes_fake_tokens_and_probabilities():
    _, mdl, episode = tiny_setup()
    a = model.score_episodes(mdl, [episode], run_cfg())[0]
    b = model.score_episodes(mdl, [episode], run_cfg(seed=6))[0]
    assert not np.array_equal(a.probabilities, b.probabilities)


def test_predictions_and_correct_count_agree():
    manifest, mdl, episode = tiny_setup(way=2, shot=1, queries=2)
    res = model.score_episodes(mdl, [episode], run_cfg())[0]
    assert np.array_equal(res.predictions, res.probabilities.argmax(axis=1))
    assert res.correct == int((res.predictions == res.true_labels).sum())


def test_named_parameters_unique_and_complete():
    mdl = model.Model(dim=8, frames=4, seed=0)
    names = [n for n, _ in mdl.named_parameters()]
    assert len(names) == len(set(names))
    assert "log_temperature" in names
    assert any(n.startswith("normal.transformer.") for n in names)
    assert any(n.startswith("motion.pos.") for n in names)
    state_names = [n for n, _ in mdl.named_state()]
    assert "phi.block0.bn.running_mean" in state_names
    assert set(names) <= set(state_names)


def test_temperature_is_exp_of_log():
    mdl = model.Model(dim=8, frames=4)
    assert np.allclose(mdl.temperature().data, 0.1, atol=1e-12)
    mdl.log_temperature.data = np.log(np.asarray(0.25))
    assert np.allclose(mdl.temperature().data, 0.25, atol=1e-12)


def test_config_validation():
    with pytest.raises(ConfigError):
        model.Model(dim=8, frames=1)
    # the settings episode_forward reads are checked once, in RunConfig
    assert all(model.PRESETS.values())
    for bad in (dict(alpha=-1.0), dict(consistency_reduction="median"),
                dict(preset="none")):
        with pytest.raises(ConfigError):
            run_cfg(**bad)


def test_episode_class_missing_from_bank():
    manifest, mdl, _ = tiny_setup()
    episode = data.sample_episode(manifest, data.episode_rng(5, 1), 1, 1, 1,
                                  "test")
    with pytest.raises(ProtocolError):
        model.episode_forward(mdl, episode, run_cfg(), episode_index=1,
                              bank=manifest.prompt_bank("train"))
