"""Training loop, parallel evaluation, gradient audit, feature dumps."""

import dataclasses
import gc
import io
import json
import os
import subprocess
import sys
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

from cpm2c import data, nn, runner, tensor as T
from cpm2c.errors import ConfigError, DataError, NumericalError
from cpm2c.tensor import Tensor
from oracles import per_episode_losses


def tiny_manifest(seed=3):
    cfg = data.SyntheticConfig(num_classes=4, dim=8, frames=4, scale=1.0,
                               sigma=0.3, seed=seed)
    return data.build_synthetic_manifest(cfg, videos_per_class=4)


def tiny_config(**over):
    base = dict(way=2, shot=1, queries=1, steps=2, window=1, lr=1e-3,
                seed=0, log_every=1000)
    base.update(over)
    return runner.RunConfig(**base)


def state_arrays(mdl):
    return [(name, np.array(v.data if isinstance(v, Tensor) else v,
                            copy=True))
            for name, v in mdl.named_state()]


def assert_states_equal(a, b):
    assert [n for n, _ in a] == [n for n, _ in b]
    for (name, x), (_, y) in zip(a, b):
        assert np.array_equal(x, y), f"state differs at {name}"


# ---------------------------------------------------------------------------
# config


def test_config_validation():
    with pytest.raises(ConfigError):
        tiny_config(way=0)
    with pytest.raises(ConfigError):
        tiny_config(steps=-1)
    with pytest.raises(ConfigError):
        tiny_config(lr=0.0)
    with pytest.raises(ConfigError):
        tiny_config(preset="everything")
    with pytest.raises(ConfigError, match="unknown split 'bogus'"):
        tiny_config(eval_split="bogus")


def test_no_consistency_is_an_unknown_preset():
    # --lam-consistency 0 is how a run drops the consistency term
    with pytest.raises(ConfigError, match="unknown preset 'no-consistency'"):
        tiny_config(preset="no-consistency")
    assert tiny_config(lam_consistency=0.0).lam_consistency == 0.0


def test_config_is_frozen_and_checked_on_replace():
    # every run setting is checked once, in RunConfig, and cannot change
    # after the check
    cfg = tiny_config()
    with pytest.raises(dataclasses.FrozenInstanceError):
        cfg.alpha = -1.0
    for bad, name in ((dict(alpha=-1.0), "alpha"),
                      (dict(lam_task=float("nan")), "lam_task"),
                      (dict(preset="x"), "preset")):
        with pytest.raises(ConfigError, match=name):
            dataclasses.replace(cfg, **bad)
    assert cfg == tiny_config()


def test_manifest_shape_rejects_mixed_dims():
    rec = lambda vid, dim: data.VideoRecord(vid, 0, "train", 4, dim, None,
                                            np.zeros((4, dim), np.float32))
    manifest = data.DatasetManifest([rec("a", 8), rec("b", 6)],
                                    {0: np.ones(8, np.float32)})
    with pytest.raises(DataError):
        runner.manifest_shape(manifest)


# ---------------------------------------------------------------------------
# training


def test_zero_steps_checkpoint_is_the_initial_model(tmp_path):
    manifest = tiny_manifest()
    cfg = tiny_config(steps=0)
    result = runner.train(manifest, cfg, out_dir=str(tmp_path))
    assert result.history == []
    fresh = runner.build_model(manifest, cfg)
    restored = runner.build_model(manifest, cfg)
    runner.restore_model(restored, result.checkpoint_path)
    assert_states_equal(state_arrays(fresh), state_arrays(restored))


@pytest.mark.parametrize("dtype", ["float32", "float64"])
def test_window_gradients_match_the_mean_of_per_episode_gradients(
        monkeypatch, dtype):
    # a window runs as one block under one tape, its loss the sum of the
    # episode losses over the window, so its gradients are the window
    # mean up to the rounding of the batched weight sums: bias gradients
    # of about 7e-3 sum hundreds of rows that cancel, and move by up to
    # 1.1e-5 in float32
    tol = {"float32": 5e-5, "float64": 1e-12}[dtype]
    manifest = tiny_manifest()
    cfg = tiny_config(steps=1, window=3)
    stepped = []

    class Recording(nn.Adam):
        def step(self):
            stepped.append({name: p.grad.copy() for name, p in self.named
                            if p.grad is not None})
            return super().step()

    monkeypatch.setattr(runner, "Adam", Recording)
    with T.precision(dtype):
        result = runner.train(manifest, cfg, log=io.StringIO())
        mdl = runner.build_model(manifest, cfg)
        bank = manifest.prompt_bank("train")
        parts = []
        for index in range(3):
            episode = data.sample_episode(manifest,
                                          data.episode_rng(0, index), 2, 1,
                                          1, "train")
            with T.Tape():
                res = per_episode_losses(mdl, episode, cfg,
                                         episode_index=index, bank=bank,
                                         train=True)
            T.backward(res.loss)
            parts.append(res.parts)
    (got,) = stepped
    want = {name: p.grad / 3 for name, p in mdl.named_parameters()}
    assert set(got) == set(want)
    for name, g in want.items():
        assert got[name].dtype == np.dtype(dtype)
        scale = max(1.0, float(np.abs(g).max()))
        assert np.allclose(got[name], g, rtol=0, atol=tol * scale), name
    # the batch norm statistics folded in once per episode, in order
    for (name, a), (_, b) in zip(state_arrays(result.model),
                                 state_arrays(mdl)):
        if "running" in name:
            assert np.allclose(a, b, rtol=0, atol=1e-6), name
    (row,) = result.history
    for key in ("adapt", "task", "consistency", "total"):
        assert np.isclose(row[key], sum(p[key] for p in parts) / 3,
                          rtol=max(tol, 1e-6), atol=0), key


def test_window_one_training_equals_the_per_episode_loop_bitwise():
    # a block of one episode runs the lone episode's numpy operations, so
    # a window-1 run is the loop of episode passes, backwards and steps
    manifest = tiny_manifest()
    cfg = tiny_config(steps=3, window=1)
    result = runner.train(manifest, cfg, log=io.StringIO())

    mdl = runner.build_model(manifest, cfg)
    bank = manifest.prompt_bank("train")
    opt = nn.Adam(mdl.named_parameters(), lr=cfg.lr)
    totals = []
    for index in range(3):
        opt.zero_grad()
        episode = data.sample_episode(manifest, data.episode_rng(0, index),
                                      2, 1, 1, "train")
        with T.Tape():
            res = runner.episode_forward(mdl, episode, cfg,
                                         episode_index=index, bank=bank,
                                         train=True)
        T.backward(res.loss)
        opt.step()
        totals.append(res.parts["total"])
    assert_states_equal(state_arrays(result.model), state_arrays(mdl))
    assert [row["total"] for row in result.history] == totals


def test_same_seed_training_is_bit_identical():
    manifest = tiny_manifest()
    a = runner.train(manifest, tiny_config(steps=3), log=io.StringIO())
    b = runner.train(manifest, tiny_config(steps=3), log=io.StringIO())
    assert_states_equal(state_arrays(a.model), state_arrays(b.model))
    strip = lambda h: [{k: v for k, v in row.items() if k != "wall"}
                       for row in h]
    assert strip(a.history) == strip(b.history)


def test_initial_temperature_changes_nothing_but_itself():
    # the adaptation loss reaches only log_temperature, and nothing else
    # reads it, so its starting value cannot move a prediction
    manifest = tiny_manifest()
    cfg = tiny_config(steps=10, window=2, eval_split="train")
    runs = []
    for temperature in (None, 0.5):
        mdl = runner.build_model(manifest, cfg)
        if temperature is not None:
            mdl.log_temperature.data = np.asarray(
                np.log(temperature), mdl.log_temperature.data.dtype)
        tr = runner.train(manifest, cfg, mdl=mdl, log=io.StringIO())
        ev = runner.evaluate(manifest, tr.model, cfg, episodes=20)
        runs.append((tr, ev))
    (a, ev_a), (b, ev_b) = runs
    others = lambda mdl: [(name, value) for name, value in state_arrays(mdl)
                          if name != "log_temperature"]
    assert_states_equal(others(a.model), others(b.model))
    assert [row["task"] for row in a.history] == \
        [row["task"] for row in b.history]
    assert [row["adapt"] for row in a.history] != \
        [row["adapt"] for row in b.history]
    assert ev_a.per_episode_correct == ev_b.per_episode_correct


def test_history_and_metrics_file_agree(tmp_path):
    manifest = tiny_manifest()
    result = runner.train(manifest, tiny_config(steps=3),
                          out_dir=str(tmp_path), log=io.StringIO())
    with open(result.metrics_path, encoding="utf-8") as fh:
        rows = [json.loads(line) for line in fh]
    assert rows == result.history
    assert [row["step"] for row in rows] == [1, 2, 3]
    for row in rows:
        assert set(row) >= {"step", "wall", "adapt", "task", "consistency",
                            "total", "tape_nodes"}


def test_metrics_count_the_tape_nodes_of_each_window(monkeypatch):
    # blocks of at most 8 videos: a window of 3 four-video episodes runs
    # as blocks of 2 and 1, one tape each
    manifest = tiny_manifest()
    counted = []
    original = T.backward

    def counting(loss):
        counted.append(len(loss.tape))
        return original(loss)

    monkeypatch.setattr(runner, "_BLOCK_VIDEOS", 8)
    monkeypatch.setattr(T, "backward", counting)
    result = runner.train(manifest, tiny_config(steps=2, window=3),
                          log=io.StringIO())
    assert len(counted) == 4 and min(counted) > 0
    assert [row["tape_nodes"] for row in result.history] == \
        [sum(counted[:2]), sum(counted[2:])]
    # a block records each parameter leaf once, whatever its size
    assert counted[0] == counted[2] < 2 * counted[1]


def test_a_window_in_blocks_peaks_under_twice_a_one_episode_step(
        monkeypatch):
    # the memory plan of a 5-way 1-shot d64 window of 4: two blocks of 2
    # episodes, whose transformer blocks keep six arrays per row for
    # their backward. The traced peak of a step stays under twice that of
    # a one-episode window, where one block of 4 would not. tracemalloc
    # does not see the copies numpy makes inside ``reshape`` (CHANGES.md),
    # so this holds the traced heap only.
    synth = data.SyntheticConfig(num_classes=20, dim=64, frames=8,
                                 scale=1.0, sigma=0.3, seed=1)
    manifest = data.build_synthetic_manifest(synth, videos_per_class=10)

    def step_peak(window: int) -> int:
        cfg = runner.RunConfig(way=5, shot=1, queries=1, window=window,
                               steps=1, seed=1, log_every=1000,
                               consistency_reduction="mean")
        mdl = runner.build_model(manifest, cfg)
        runner.train(manifest, cfg, mdl=mdl, log=io.StringIO())  # warm up
        gc.collect()
        tracemalloc.start()
        try:
            runner.train(manifest, cfg, mdl=mdl, log=io.StringIO())
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    one, window = step_peak(1), step_peak(4)
    assert window <= 2 * one, (window, one)
    monkeypatch.setattr(runner, "_BLOCK_VIDEOS", 40)
    assert step_peak(4) > 2 * one


class _FakeMallopt:
    def __init__(self):
        self.calls = []

    def __call__(self, param, value):
        self.calls.append((param, value))
        return 1


def _fake_libc(monkeypatch, libc):
    monkeypatch.setattr(runner, "_malloc_pinned", None)
    monkeypatch.setattr(runner.ctypes, "CDLL", lambda name: libc)


def test_malloc_thresholds_are_pinned_once_by_training(monkeypatch):
    mallopt = _FakeMallopt()
    _fake_libc(monkeypatch, SimpleNamespace(mallopt=mallopt))
    manifest = tiny_manifest()
    cfg = tiny_config(eval_split="train")
    runner.evaluate(manifest, runner.build_model(manifest, cfg), cfg,
                    episodes=2)
    assert mallopt.calls == []           # evaluation leaves malloc alone
    runner.train(manifest, cfg, log=io.StringIO())
    pinned = [(-3, 32 << 20), (-1, 64 << 20)]   # M_MMAP_, M_TRIM_THRESHOLD
    assert mallopt.calls == pinned
    assert runner.pin_malloc_thresholds() is True
    runner.train(manifest, cfg, log=io.StringIO())
    assert mallopt.calls == pinned


def test_missing_mallopt_pins_nothing(monkeypatch):
    _fake_libc(monkeypatch, SimpleNamespace())
    assert runner.pin_malloc_thresholds() is False
    assert runner.pin_malloc_thresholds() is False
    manifest = tiny_manifest()
    result = runner.train(manifest, tiny_config(), log=io.StringIO())
    assert len(result.history) == 2


def test_nan_gradient_aborts_and_rolls_back(tmp_path, monkeypatch):
    manifest = tiny_manifest()
    calls = {"n": 0}
    original = runner.episode_forward

    def sabotage(*args, **kwargs):
        res = original(*args, **kwargs)
        calls["n"] += 1
        if calls["n"] == 3:
            res.loss = T.scale(res.loss, float("nan"))
        return res

    monkeypatch.setattr(runner, "episode_forward", sabotage)
    with pytest.raises(NumericalError, match="step 2"):
        runner.train(manifest, tiny_config(steps=5), out_dir=str(tmp_path),
                     log=io.StringIO())
    monkeypatch.undo()

    clean = runner.train(manifest, tiny_config(steps=2), log=io.StringIO())
    restored = runner.build_model(manifest, tiny_config())
    runner.restore_model(restored, os.path.join(str(tmp_path),
                                                "checkpoint.bin"))
    assert_states_equal(state_arrays(clean.model), state_arrays(restored))


def test_nan_in_second_block_of_a_window_rolls_back_batchnorm_only(
        tmp_path, monkeypatch):
    # blocks of at most 8 videos: a window of 4 four-video episodes runs
    # as two blocks of 2
    manifest = tiny_manifest()
    calls = {"n": 0}
    original = runner.episode_forward
    monkeypatch.setattr(runner, "_BLOCK_VIDEOS", 8)

    def sabotage(*args, **kwargs):
        res = original(*args, **kwargs)
        calls["n"] += 1
        if calls["n"] == 6:              # step 2, second block
            res.loss = T.scale(res.loss, float("nan"))
        return res

    optimizers, buffers_at_step = [], []

    class Recording(nn.Adam):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            optimizers.append(self)

        def step(self):
            buffers_at_step.append([v.copy() for _, v in
                                    aborted.named_state()
                                    if not isinstance(v, Tensor)])
            return super().step()

    monkeypatch.setattr(runner, "Adam", Recording)
    monkeypatch.setattr(runner, "episode_forward", sabotage)
    aborted = runner.build_model(manifest, tiny_config())
    with pytest.raises(NumericalError, match="step 2"):
        runner.train(manifest, tiny_config(steps=5, window=4), mdl=aborted,
                     out_dir=str(tmp_path), log=io.StringIO())
    assert calls["n"] == 6 and len(buffers_at_step) == 3
    monkeypatch.setattr(runner, "episode_forward", original)
    clean = runner.train(manifest, tiny_config(steps=2, window=4),
                         log=io.StringIO())
    broken, healthy = optimizers

    # parameters, BatchNorm running statistics and the checkpoint are
    # those of the clean run that stopped one step earlier
    assert_states_equal(state_arrays(clean.model), state_arrays(aborted))
    restored = runner.build_model(manifest, tiny_config())
    runner.restore_model(restored, os.path.join(str(tmp_path),
                                                "checkpoint.bin"))
    assert_states_equal(state_arrays(clean.model), state_arrays(restored))
    # the aborted step's two block passes had moved the statistics
    current = [v for _, v in aborted.named_state()
               if not isinstance(v, Tensor)]
    assert current and any(not np.array_equal(a, b) for a, b in
                           zip(buffers_at_step[2], current))
    # the optimizer refused the step before touching its moments
    assert broken.step_count == healthy.step_count == 2
    for name, _ in aborted.named_parameters():
        assert np.array_equal(broken._m[name], healthy._m[name]), name
        assert np.array_equal(broken._v[name], healthy._v[name]), name


def test_training_reduces_loss_on_easy_data():
    # the mean total loss of the same 16 train-split episodes, before and
    # after 12 steps: two steps' windows are different episodes, whose
    # totals alone swing by about 15%
    manifest = tiny_manifest()
    cfg = tiny_config(steps=12, window=2, lr=3e-3,
                      consistency_reduction="mean", eval_split="train")
    bank = manifest.prompt_bank("train")
    mdl = runner.build_model(manifest, cfg)

    def mean_total():
        res = runner.evaluate(manifest, mdl, cfg, episodes=16,
                              compute_losses=True, bank=bank)
        return res.parts_mean["total"]

    before = mean_total()
    runner.train(manifest, cfg, mdl=mdl, log=io.StringIO())
    assert mean_total() < before


def test_a_run_never_loads_numpy_random():
    # every draw is counter-based: a run that builds a manifest and a
    # model, trains a step and evaluates a block has no use for it
    code = """if True:
        import io, sys
        from cpm2c import data, runner
        synth = data.SyntheticConfig(num_classes=10, dim=16, frames=4,
                                     mode="permuted", seed=3)
        manifest = data.build_synthetic_manifest(synth, videos_per_class=6)
        cfg = runner.RunConfig(way=2, shot=2, queries=1, steps=1, seed=3,
                               eval_split="test", eval_episodes=16)
        mdl = runner.train(manifest, cfg, log=io.StringIO()).model
        runner.evaluate(manifest, mdl, cfg)
        print(sorted(m for m in sys.modules if m.startswith("numpy.random")))
    """
    src = os.path.dirname(os.path.dirname(os.path.abspath(data.__file__)))
    proc = subprocess.run([sys.executable, "-c", code],
                          env=dict(os.environ, PYTHONPATH=src),
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


# ---------------------------------------------------------------------------
# evaluation


def test_evaluate_counts_and_interval():
    manifest = tiny_manifest()
    cfg = tiny_config(eval_split="train")
    mdl = runner.build_model(manifest, cfg)
    res = runner.evaluate(manifest, mdl, cfg, episodes=8)
    assert res.episodes == 8
    assert res.total_queries == 8 * 2 * 1
    assert 0.0 <= res.accuracy <= 1.0
    assert res.correct == sum(res.per_episode_correct)
    expect = 1.96 * np.sqrt(res.accuracy * (1 - res.accuracy)
                            / res.total_queries)
    assert np.isclose(res.half_width, expect)


def test_evaluate_single_class_probabilities_are_certain():
    manifest = tiny_manifest()
    cfg = tiny_config(way=1, shot=1, queries=2, eval_split="val")
    mdl = runner.build_model(manifest, cfg)
    res = runner.evaluate(manifest, mdl, cfg, episodes=4)
    assert res.accuracy == 1.0 and res.half_width == 0.0


def test_worker_count_does_not_change_results():
    # 20 episodes span two full blocks and a ragged third
    manifest = tiny_manifest()
    cfg = tiny_config(eval_split="train")
    with T.precision("float64"):
        mdl = runner.build_model(manifest, cfg)
        runs = {(losses, workers): runner.evaluate(
                    manifest, mdl, cfg, episodes=20,
                    compute_losses=losses, workers=workers)
                for losses in (True, False) for workers in (1, 2, 4)}
    one = runs[True, 1]
    assert one.per_episode_correct == runs[False, 1].per_episode_correct
    for (losses, workers), res in runs.items():
        assert res.correct == one.correct, (losses, workers)
        assert res.per_episode_correct == one.per_episode_correct
        if losses:
            for key in one.parts_mean:
                assert np.isclose(res.parts_mean[key], one.parts_mean[key],
                                  atol=1e-12, rtol=0.0)
        else:
            assert res.parts_mean is None


@pytest.mark.parametrize("override", [dict(way=0), dict(shot=0),
                                      dict(queries=0), dict(shot=-1),
                                      dict(episodes=0), dict(workers=0)])
@pytest.mark.parametrize("compute_losses", [False, True])
def test_evaluate_rejects_overrides_below_one(monkeypatch, override,
                                              compute_losses):
    # an episode shape other than the config's is a replaced RunConfig,
    # which checks it; the episode and worker counts are arguments
    manifest = tiny_manifest()
    cfg = tiny_config(eval_split="train")
    mdl = runner.build_model(manifest, cfg)
    sampled = []
    monkeypatch.setattr(runner, "sample_episode",
                        lambda *a, **k: sampled.append(a))
    shape = dict(override)
    name = next(iter(shape))
    kwargs = dict(episodes=2, compute_losses=compute_losses)
    kwargs.update((k, shape.pop(k)) for k in ("episodes", "workers")
                  if k in shape)
    with pytest.raises(ConfigError, match=f"{name} must be >= 1"):
        runner.evaluate(manifest, mdl, dataclasses.replace(cfg, **shape),
                        **kwargs)
    assert not sampled


@pytest.mark.parametrize("compute_losses", [False, True])
def test_evaluate_rejects_a_negative_start_index(monkeypatch,
                                                 compute_losses):
    # the override replaces cfg.eval_start, which RunConfig checks
    manifest = tiny_manifest()
    cfg = tiny_config(eval_split="train")
    mdl = runner.build_model(manifest, cfg)
    sampled = []
    monkeypatch.setattr(runner, "sample_episode",
                        lambda *a, **k: sampled.append(a))
    with pytest.raises(ConfigError, match="eval_start must be >= 0"):
        runner.evaluate(manifest, mdl, cfg, episodes=2, start_index=-1,
                        compute_losses=compute_losses)
    assert not sampled


@pytest.mark.parametrize("compute_losses", [False, True])
def test_evaluate_rejects_an_unknown_split(monkeypatch, compute_losses):
    manifest = tiny_manifest()
    cfg = tiny_config()
    mdl = runner.build_model(manifest, cfg)
    sampled = []
    monkeypatch.setattr(runner, "sample_episode",
                        lambda *a, **k: sampled.append(a))
    with pytest.raises(ConfigError, match="unknown split 'bogus'"):
        runner.evaluate(manifest, mdl,
                        dataclasses.replace(cfg, eval_split="bogus"),
                        episodes=2, compute_losses=compute_losses)
    assert not sampled


def test_evaluate_never_mutates_the_model():
    manifest = tiny_manifest()
    cfg = tiny_config(eval_split="train")
    mdl = runner.build_model(manifest, cfg)
    before = state_arrays(mdl)
    assert any(name.endswith("running_var") for name, _ in before)
    runner.evaluate(manifest, mdl, cfg, episodes=4, compute_losses=True,
                    workers=2)
    assert_states_equal(before, state_arrays(mdl))
    runner.evaluate(manifest, mdl, cfg, episodes=4, compute_losses=False,
                    workers=2)
    assert_states_equal(before, state_arrays(mdl))


def test_evaluate_is_reproducible_across_calls():
    manifest = tiny_manifest()
    cfg = tiny_config(eval_split="train")
    mdl = runner.build_model(manifest, cfg)
    a = runner.evaluate(manifest, mdl, cfg, episodes=6)
    b = runner.evaluate(manifest, mdl, cfg, episodes=6)
    assert a.per_episode_correct == b.per_episode_correct


# ---------------------------------------------------------------------------
# gradient audit


def test_gradcheck_passes_on_healthy_model():
    manifest = tiny_manifest()
    cfg = tiny_config()
    report = runner.gradcheck(manifest, cfg, coords_per_param=3)
    assert report.ok, report.summary()
    names = {e.name for e in report.entries}
    assert "log_temperature" in names
    assert any(n.startswith("phi.") for n in names)
    mdl = runner.build_model(manifest, cfg)
    assert names == {n for n, _ in mdl.named_parameters()}


def test_gradcheck_flags_a_corrupted_backward(monkeypatch):
    real_relu = T.relu

    def skewed_relu(x):
        out = np.maximum(np.asarray(x.data), 0.0)

        def backward(g):
            return (g * (np.asarray(x.data) > 0) * 1.05,)

        return T._record(out, (x,), backward)

    monkeypatch.setattr(T, "relu", skewed_relu)
    try:
        report = runner.gradcheck(tiny_manifest(), tiny_config(),
                                  coords_per_param=6)
    finally:
        monkeypatch.setattr(T, "relu", real_relu)
    assert not report.ok
    summary = report.summary()
    assert "FAIL" in summary and report.worst.worst_coord >= 0


# ---------------------------------------------------------------------------
# feature dumps


def test_dump_features_round_trip(tmp_path):
    manifest = tiny_manifest()
    index = runner.dump_features(manifest, str(tmp_path))
    loaded = data.load_manifest(index)
    assert len(loaded.records) == len(manifest.records)
    by_id = {rec.video_id: rec for rec in loaded.records}
    for rec in manifest.records:
        twin = by_id[rec.video_id]
        assert twin.class_id == rec.class_id and twin.split == rec.split
        assert np.array_equal(twin.features(), rec.features())
    for cid, vec in manifest.prompts.items():
        assert np.array_equal(loaded.prompts[cid], vec)


def test_dump_features_split_filter(tmp_path):
    manifest = tiny_manifest()
    index = runner.dump_features(manifest, str(tmp_path), split="val")
    loaded = data.load_manifest(index)
    assert {rec.split for rec in loaded.records} == {"val"}
    with pytest.raises(DataError):
        runner.dump_features(manifest, str(tmp_path / "x"), split="nope")
