"""The benchmark's tracing contract, checked on one training step and
on one evaluation call.

``perfbench/`` lies outside the test paths, yet its span tracer wraps
functions at the names their callers bind (``runner.episode_forward``,
``model.motion_features``, ...), and some of its hooks read their
arguments by position. A refactor that stops calling one of them through
that name leaves a layer silently unmeasured. These tests load
``perfbench/spans.py`` and ``perfbench/run.py`` by path, unchanged,
install the tracer's layer table on one ``runner.train`` step and on one
``runner.evaluate`` call without losses, and check that every layer the
workloads expect is reached. Evaluation without losses has not called
``model.episode_forward`` since it scores episodes in blocks, so the
eval check leaves that one entry out.
"""

import importlib.util
import io
import sys
from pathlib import Path

import pytest

import cpm2c
from cpm2c import data, runner

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture
def perfbench(monkeypatch):
    """perfbench's ``spans`` and ``run`` modules, registered while the
    test runs: run.py imports spans, and its dataclasses look their
    module up."""

    def load(name: str, path: Path):
        spec = importlib.util.spec_from_file_location(name, path)
        module = importlib.util.module_from_spec(spec)
        monkeypatch.setitem(sys.modules, name, module)
        spec.loader.exec_module(module)
        return module

    return (load("spans", PERFBENCH / "spans.py"),
            load("perfbench_run", PERFBENCH / "run.py"))


def test_training_step_reaches_every_traced_layer(perfbench):
    spans, run = perfbench
    expected = {name for wl in run.WORKLOADS.values() if wl.kind == "train"
                for name in wl.expected}
    assert "model.episode_forward" in expected
    synth = data.SyntheticConfig(num_classes=12, dim=8, frames=4, seed=3)
    manifest = data.build_synthetic_manifest(synth, videos_per_class=2)
    cfg = runner.RunConfig(way=5, shot=1, queries=1, steps=1, window=2,
                           seed=7, log_every=1,
                           consistency_reduction="mean")
    tracer = spans.Tracer()
    episodes = []
    try:
        for owner, attr, name, hook in spans.layer_table(cpm2c):
            tracer.wrap(owner, attr, name, hook)
        tracer.wrap(runner, "episode_forward", "episode argument",
                    lambda tr, args, kwargs: episodes.append(args[1]))
        runner.train(manifest, cfg, log=io.StringIO())
    finally:
        tracer.remove()
    _, calls, _ = tracer.summary()
    missing = sorted(name for name in expected if not calls[name])
    assert not missing, f"traced layers not reached: {missing}"
    assert calls["model.episode_forward"] == cfg.window
    assert len(episodes) == cfg.window
    assert all(isinstance(ep, data.EpisodeBatch) for ep in episodes)
    assert tracer.counters["tape_nodes"] > 0


def test_evaluation_reaches_every_traced_layer(perfbench):
    spans, run = perfbench
    expected = set(run._EVAL_LAYERS) - {"model.episode_forward"}
    synth = data.SyntheticConfig(num_classes=12, dim=8, frames=4, seed=3)
    manifest = data.build_synthetic_manifest(synth, videos_per_class=3)
    cfg = runner.RunConfig(way=3, shot=2, queries=1, seed=7,
                           eval_split="train", workers=1)
    mdl = runner.build_model(manifest, cfg)
    tracer = spans.Tracer()
    tokens = []
    try:
        for owner, attr, name, hook in spans.layer_table(cpm2c):
            tracer.wrap(owner, attr, name, hook)
        # around the benchmark's fake-token wrapper, whose hook reads
        # args[3] (the rows drawn) by position
        tracer.wrap(cpm2c.cpm, "fake_token", "fake-token arguments",
                    lambda tr, args, kwargs: tokens.append(args))
        res = runner.evaluate(manifest, mdl, cfg, episodes=3,
                              compute_losses=False)
    finally:
        tracer.remove()
    _, calls, _ = tracer.summary()
    missing = sorted(name for name in expected if not calls[name])
    assert not missing, f"traced layers not reached: {missing}"
    assert res.episodes == 3
    # one call per branch, drawing one row for each distinct query video
    queries = {rec.video_id
               for index in range(cfg.eval_start, cfg.eval_start + 3)
               for recs in data.sample_episode(
                   manifest, data.episode_rng(cfg.seed, index), cfg.way,
                   cfg.shot, cfg.queries, cfg.eval_split).query
               for rec in recs}
    keys = {cpm2c.cpm.video_key(video) for video in queries}
    assert calls["cpm.fake_token"] == 2
    assert len(tokens) == 2
    for args in tokens:
        assert len(args[2]) == len(keys) and set(args[2]) == keys
        assert args[3] == 1
    assert tracer.counters["fake_token.useful"] == 2
