"""Scoring without losses: blocks of episodes against the per-episode oracle.

``model.score_episodes`` enhances each distinct video of a call once per
role and branch, and computes the episodes' costs in fixed blocks. Its
probabilities must be bit-identical to ``per_episode_scores``, which
scores one episode at a time, at every episode count and worker count.
The shapes here match the 5-way 5-shot evaluation workload at dim 64,
where every matrix product of either path is large enough for BLAS to
take the same kernel whatever the batch size.
"""

import sys
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from cpm2c import cpm, data, model, nn, runner, tensor as T
from cpm2c.errors import ConfigError, ProtocolError
from oracles import per_episode_scores

DIM = 64
BLOCK = model._BLOCK_EPISODES


@pytest.fixture(scope="module")
def manifest():
    synth = data.SyntheticConfig(num_classes=12, dim=DIM, frames=8,
                                 scale=1.0, sigma=0.3, mode="permuted",
                                 common_ratio=12.0, seed=4)
    return data.build_synthetic_manifest(synth, videos_per_class=8,
                                         fractions=(0.25, 0.25, 0.5))


def eval_config(**over):
    base = dict(way=5, shot=5, queries=1, seed=11, alpha=0.7,
                eval_split="test")
    base.update(over)
    return runner.RunConfig(**base)


def scrambled_model(manifest, cfg):
    """A model whose transformers are not the identity and whose Phi
    running statistics are not the defaults."""
    mdl = runner.build_model(manifest, cfg)
    rng = np.random.default_rng(12)
    for branch in (mdl.normal, mdl.motion):
        block = branch.transformer
        block.attn.out = nn.Linear(DIM, DIM, rng)
        block.ffn2 = nn.Linear(4 * DIM, DIM, rng)
    for bn in mdl.phi.norms:
        bn.running_mean = rng.normal(0.0, 0.1, DIM).astype(np.float32)
        bn.running_var = rng.uniform(0.5, 2.0, DIM).astype(np.float32)
    return mdl


def sample(manifest, cfg, count):
    """The first ``count`` episodes that ``runner.evaluate`` scores."""
    return [data.sample_episode(manifest, data.episode_rng(cfg.seed, i),
                                cfg.way, cfg.shot, cfg.queries,
                                cfg.eval_split)
            for i in range(cfg.eval_start, cfg.eval_start + count)]


def assert_same_result(got, ref):
    assert got.probabilities.dtype == ref.probabilities.dtype
    assert np.array_equal(got.probabilities, ref.probabilities)
    assert np.array_equal(got.predictions, ref.predictions)
    assert np.array_equal(got.true_labels, ref.true_labels)
    assert got.correct == ref.correct
    assert got.loss is None and got.parts == {}


@pytest.mark.parametrize("dtype", ["float32", "float64"])
@pytest.mark.parametrize("preset", ["full", "no-motion", "motion-only"])
@pytest.mark.parametrize("two_queries", [False, True])
@pytest.mark.parametrize("scrambled", [False, True])
def test_blocks_are_bit_identical_to_per_episode_scoring(
        manifest, dtype, preset, scrambled, two_queries):
    # the model as built and a scrambled one; one and two queries a class
    with T.precision(dtype):
        cfg = eval_config(preset=preset, queries=2 if two_queries else 1)
        mdl = (scrambled_model(manifest, cfg) if scrambled
               else runner.build_model(manifest, cfg))
        episodes = sample(manifest, cfg, BLOCK + 3)
        ref = [per_episode_scores(mdl, ep, cfg) for ep in episodes]
        # the loss path shares the scorer's tail: same probabilities
        with_losses = model.episode_forward(mdl, episodes[0], cfg,
                                            episode_index=cfg.eval_start)
        assert np.array_equal(with_losses.probabilities,
                              ref[0].probabilities)
        for count in (0, 1, BLOCK - 1, BLOCK + 3):   # the last is ragged
            for workers in (1, 2, 4):
                got = model.score_episodes(mdl, episodes[:count],
                                           replace(cfg, workers=workers))
                assert len(got) == count
                for g, r in zip(got, ref):
                    assert_same_result(g, r)
                if count == 0:
                    # an evaluation over no episodes has no accuracy
                    with pytest.raises(ConfigError, match="episodes"):
                        runner.evaluate(manifest, mdl, cfg, episodes=count,
                                        workers=workers)
                    continue
                res = runner.evaluate(manifest, mdl, cfg, episodes=count,
                                      workers=workers)
                assert res.per_episode_correct == [r.correct
                                                   for r in ref[:count]]


def test_more_threads_than_cores_with_fast_switching_match_serial(manifest):
    cfg = eval_config()
    mdl = scrambled_model(manifest, cfg)
    episodes = sample(manifest, cfg, 4 * BLOCK + 1)
    serial = model.score_episodes(mdl, episodes, cfg)
    serial_losses = runner.evaluate(manifest, mdl, cfg, episodes=2 * BLOCK + 1,
                                    compute_losses=True, workers=1)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threaded = model.score_episodes(mdl, episodes,
                                        replace(cfg, workers=8))
        threaded_losses = runner.evaluate(manifest, mdl, cfg,
                                          episodes=2 * BLOCK + 1,
                                          compute_losses=True, workers=8)
    finally:
        sys.setswitchinterval(interval)
    assert len(threaded) == len(serial)
    for got, ref in zip(threaded, serial):
        assert_same_result(got, ref)
    assert threaded_losses == replace(serial_losses,
                                      wall_time=threaded_losses.wall_time)


@pytest.mark.parametrize("dtype,tol", [("float32", 1e-6),
                                       ("float64", 1e-14)])
def test_small_models_match_per_episode_scoring_to_rounding(dtype, tol):
    # at dim 8 a batch of more rows can take another BLAS kernel, so only
    # the last bits of the probabilities may move
    synth = data.SyntheticConfig(num_classes=12, dim=8, frames=4, seed=1,
                                 mode="permuted")
    small = data.build_synthetic_manifest(synth, videos_per_class=8,
                                          fractions=(0.25, 0.25, 0.5))
    with T.precision(dtype):
        cfg = eval_config()
        mdl = runner.build_model(small, cfg)
        episodes = sample(small, cfg, 2 * BLOCK + 3)
        got = model.score_episodes(mdl, episodes, cfg)
        for g, ep in zip(got, episodes):
            ref = per_episode_scores(mdl, ep, cfg)
            assert np.allclose(g.probabilities, ref.probabilities, rtol=0,
                               atol=tol)
            assert g.correct == ref.correct


def test_one_call_enhances_each_support_video_once_per_branch(manifest,
                                                              monkeypatch):
    # and each query video once per branch, under its own fake token
    cfg = eval_config(seed=3)
    mdl = runner.build_model(manifest, cfg)
    calls = []
    original = cpm.feature_enhance_batch

    def recording(branch, frames, tokens):
        calls.append((branch, frames.data.copy(), tokens.data.copy()))
        return original(branch, frames, tokens)

    monkeypatch.setattr(cpm, "feature_enhance_batch", recording)
    count = 2 * BLOCK + 3
    episodes = sample(manifest, cfg, count)
    distinct = {(ep.class_ids[c], rec.video_id): rec
                for ep in episodes for c in range(ep.way)
                for rec in ep.support[c]}
    assert len(distinct) < count * cfg.way * cfg.shot   # reuse is possible
    distinct_queries = {rec.video_id: rec for ep in episodes
                        for recs in ep.query for rec in recs}
    assert len(distinct_queries) < count * cfg.way * cfg.queries
    prompts = {manifest.prompts[c].tobytes()
               for c in manifest.classes_in("test")}

    def rows_per_branch():
        # sorted: worker threads append their blocks' rows in any order
        out = {}
        for branch, frames, tokens in calls:
            support, queries = out.setdefault(id(branch), ([], []))
            for video, token in zip(frames, tokens):
                (support if token.tobytes() in prompts else queries).append(
                    video.tobytes())
        return {key: (sorted(support), sorted(queries))
                for key, (support, queries) in out.items()}

    runner.evaluate(manifest, mdl, cfg, episodes=count, workers=2)
    first = rows_per_branch()
    assert set(first) == {id(mdl.normal), id(mdl.motion)}
    for support, queries in first.values():
        assert len(support) == len(set(support)) == len(distinct)
        assert len(queries) == len(set(queries)) == len(distinct_queries)
    normal_support, normal_queries = first[id(mdl.normal)]
    assert set(normal_support) == {rec.features().tobytes()
                                   for rec in distinct.values()}
    assert set(normal_queries) == {rec.features().tobytes()
                                   for rec in distinct_queries.values()}

    # nothing is kept between calls: the next call enhances them again
    calls.clear()
    runner.evaluate(manifest, mdl, cfg, episodes=count)
    assert rows_per_branch() == first


def test_an_episode_scores_the_same_alone_and_in_a_full_call(manifest):
    # at the evaluation benchmark's shapes and call size: a query's token
    # and enhanced features do not depend on the other episodes
    cfg = eval_config()
    mdl = scrambled_model(manifest, cfg)
    count = 200
    episodes = sample(manifest, cfg, count)
    together = model.score_episodes(mdl, episodes, cfg)
    alone = [model.score_episodes(mdl, [ep], cfg)[0] for ep in episodes]
    for got, ref in zip(together, alone):
        assert_same_result(got, ref)
    res = runner.evaluate(manifest, mdl, cfg, episodes=count)
    assert res.per_episode_correct == [r.correct for r in alone]


def test_block_phase_allocates_no_more_than_enhancement(monkeypatch):
    # at the evaluation benchmark's shapes and call size, the traced peak
    # while a call scores its blocks stays under the peak while it
    # enhances its videos, so the block size does not set a call's peak
    # memory; blocks of 24 episodes would break this
    synth = data.SyntheticConfig(num_classes=20, dim=DIM, frames=8,
                                 scale=1.0, sigma=0.3, mode="permuted",
                                 common_ratio=12.0, seed=7)
    bench = data.build_synthetic_manifest(synth, videos_per_class=30,
                                          fractions=(0.3, 0.2, 0.5))
    cfg = runner.RunConfig(seed=7, way=5, shot=5, queries=1,
                           eval_split="test")
    mdl = runner.build_model(bench, cfg)
    peaks = {}

    def traced(name):
        original = getattr(model, name)

        def run(*args, **kwargs):
            tracemalloc.reset_peak()
            try:
                return original(*args, **kwargs)
            finally:
                peaks[name] = max(peaks.get(name, 0),
                                  tracemalloc.get_traced_memory()[1])

        monkeypatch.setattr(model, name, run)

    traced("_video_features")
    traced("_block_costs")
    tracemalloc.start()
    try:
        runner.evaluate(bench, mdl, cfg, episodes=200)
    finally:
        tracemalloc.stop()
    assert peaks["_block_costs"] <= peaks["_video_features"], peaks


def test_a_shared_video_gets_one_eval_stand_in_and_two_training_ones(
        manifest, monkeypatch):
    cfg = eval_config()
    mdl = runner.build_model(manifest, cfg)
    episodes = sample(manifest, cfg, 10)

    def videos(ep):
        return [rec for recs in ep.support + ep.query for rec in recs]

    first, second, shared = next(
        (i, j, rec) for i in range(len(episodes))
        for j in range(i + 1, len(episodes)) for rec in videos(episodes[i])
        if rec.video_id in {r.video_id for r in videos(episodes[j])})
    original = cpm.feature_enhance_batch
    calls = []

    def recording(branch, frames, tokens):
        if branch is mdl.normal:
            calls.append((frames.data, tokens.data))
        return original(branch, frames, tokens)

    monkeypatch.setattr(cpm, "feature_enhance_batch", recording)

    def stand_in(index, train):
        # the loss path enhances every video under its real token and
        # then under its fake token: the fake half holds the stand-ins
        calls.clear()
        with T.Tape():
            model.episode_forward(mdl, episodes[index], cfg,
                                  episode_index=index, train=train)
        (frames, tokens), = calls
        fake = len(frames) // 2
        row = next(i for i in range(fake, len(frames))
                   if np.array_equal(frames[i], shared.features()))
        return tokens[row]

    assert np.array_equal(stand_in(first, False), stand_in(second, False))
    assert not np.array_equal(stand_in(first, True), stand_in(second, True))


def test_scoring_rejects_mismatched_inputs(manifest):
    cfg = eval_config()
    mdl = runner.build_model(manifest, cfg)
    episodes = sample(manifest, cfg, 2)
    other = data.sample_episode(manifest, data.episode_rng(cfg.seed, 0),
                                4, 5, 1, "test")
    with pytest.raises(ProtocolError, match="shape"):
        model.score_episodes(mdl, episodes + [other], cfg)
