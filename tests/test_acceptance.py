"""Release gate: nine acceptance checks over the whole pipeline.

Each test prints one PASS or FAIL line tagged [criterion N] with the
measured numbers, then asserts the stated bound. Slow shared artifacts
(trained models, the large manifests) live in module fixtures so the
gate fits a desk budget end to end.
"""

import dataclasses
import io
import math
import time
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from cpm2c import data, metric, motion, nn, objective, runner
from cpm2c import tensor as T
from cpm2c.cpm import stack_token_frames_batch
from cpm2c.model import score_episodes
from cpm2c.tensor import Tensor

STATIC_DATA = data.SyntheticConfig(num_classes=20, dim=64, frames=8,
                                   scale=1.0, sigma=0.3, mode="static",
                                   seed=0)


def _emit(capsys, num, ok, detail):
    with capsys.disabled():
        print(f"\n[criterion {num}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {num}: {detail}"


@pytest.fixture(scope="module")
def static_manifest():
    return data.build_synthetic_manifest(STATIC_DATA, videos_per_class=10)


@pytest.fixture(scope="module")
def trained_static(static_manifest):
    """One 500-step run shared by the convergence and accuracy checks."""
    cfg = runner.RunConfig(way=5, shot=1, queries=1, steps=500, window=4,
                           lr=1e-3, seed=0, consistency_reduction="mean",
                           log_every=10 ** 9)
    bank = static_manifest.prompt_bank("val")
    fresh = runner.build_model(static_manifest, cfg)
    before = runner.evaluate(static_manifest, fresh, cfg, episodes=200,
                             compute_losses=True, bank=bank)
    result = runner.train(static_manifest, cfg, log=io.StringIO())
    after = runner.evaluate(static_manifest, result.model, cfg, episodes=200,
                            compute_losses=True, bank=bank)
    return SimpleNamespace(cfg=cfg, result=result, before=before, after=after)


def test_every_parameter_matches_finite_differences(static_manifest, capsys):
    cfg = runner.RunConfig(way=5, shot=1, queries=1, seed=0)
    t0 = time.perf_counter()
    rep = runner.gradcheck(static_manifest, cfg, coords_per_param=20,
                           h=1e-5, tol=1e-4)
    wall = time.perf_counter() - t0
    ok = rep.ok and wall <= 120.0
    _emit(capsys, 1, ok,
          f"{len(rep.entries)} parameter tensors, 64-bit central "
          f"differences h=1e-5: worst rel err {rep.worst.max_err:.2e} "
          f"({rep.worst.name}), tol 1e-4; {wall:.1f}s of 120s budget")


def _enumerate_path_costs(costs):
    """Total cost of every monotone path from (0,0) to the far corner."""
    m, n = costs.shape
    totals = []

    def walk(i, j, acc):
        acc += costs[i, j]
        if i == m - 1 and j == n - 1:
            totals.append(acc)
            return
        if i + 1 < m:
            walk(i + 1, j, acc)
        if j + 1 < n:
            walk(i, j + 1, acc)
        if i + 1 < m and j + 1 < n:
            walk(i + 1, j + 1, acc)

    walk(0, 0, 0.0)
    return totals


def test_soft_alignment_tracks_enumerated_minimum(capsys):
    rng = np.random.default_rng(7)
    worst_excess = -np.inf
    worst_gap = 0.0
    with T.precision("float64"):
        for case in range(200):
            if case == 0:
                m, n = 4, 4
            else:
                m, n = (int(v) for v in rng.integers(1, 5, size=2))
            costs = rng.uniform(0.0, 2.0, size=(m, n))
            soft = float(metric.otam_distance(Tensor(costs), 1e-3).data)
            totals = _enumerate_path_costs(costs)
            gap = abs(soft - min(totals))
            bound = 1e-3 * math.log(len(totals)) + 1e-12  # float slack
            worst_excess = max(worst_excess, gap - bound)
            worst_gap = max(worst_gap, gap)
    ok = worst_excess <= 0.0
    _emit(capsys, 2, ok,
          f"200 random matrices up to 4x4 at gamma=1e-3: max "
          f"|soft - hard path min| {worst_gap:.2e}, always within "
          f"1e-3*ln(paths) (worst slack {-worst_excess:.2e})")


def test_probability_rows_normalize_and_ties_break_low(static_manifest,
                                                       capsys):
    cfg = runner.RunConfig(way=5, shot=1, queries=1, seed=0)
    mdl = runner.build_model(static_manifest, cfg)
    _, bank_mat = static_manifest.prompt_bank("train")
    worst_cls = 0.0
    worst_dam = 0.0
    for i in range(1000):
        rng = data.episode_rng(cfg.seed, i)
        ep = data.sample_episode(static_manifest, rng, 5, 1, 1, "test")
        res = score_episodes(mdl, [ep], cfg)[0]
        worst_cls = max(worst_cls, float(
            np.abs(res.probabilities.sum(axis=1) - 1.0).max()))
        videos = [rec.features() for group in ep.support for rec in group]
        videos += [rec.features() for group in ep.query for rec in group]
        dam = objective.dam_probabilities(Tensor(np.stack(videos)), bank_mat,
                                          mdl.temperature())
        worst_dam = max(worst_dam, float(
            np.abs(dam.data.sum(axis=1) - 1.0).max()))

    # identical videos and prompts: per-class scores tie, argmax picks 0
    rng = np.random.default_rng(1)
    feats = rng.standard_normal((8, 64)).astype(np.float32)
    prompt_vec = rng.standard_normal(64).astype(np.float32)
    records = [data.VideoRecord(video_id=f"c{c}_v{v}", class_id=c,
                                split="test", frames=8, dim=64,
                                _features=feats)
               for c in range(5) for v in range(2)]
    prompts = {c: prompt_vec for c in range(5)}
    tie_man = data.DatasetManifest(records, prompts)
    ep = data.sample_episode(tie_man, data.episode_rng(0, 0), 5, 1, 1, "test")
    tie = score_episodes(mdl, [ep], cfg)[0]
    ties_low = bool((tie.predictions == 0).all())
    uniform = float(np.abs(tie.probabilities - 0.2).max())

    ok = worst_cls <= 1e-6 and worst_dam <= 1e-6 and ties_low \
        and uniform <= 1e-6
    _emit(capsys, 3, ok,
          f"1000 episodes: class-probability rows off by <= "
          f"{worst_cls:.1e}, prompt-bank rows by <= {worst_dam:.1e} "
          f"(tol 1e-6); identical-video ties predict class 0 "
          f"(uniform to {uniform:.1e})")


def test_consistency_loss_halves_on_held_out_episodes(trained_static,
                                                      capsys):
    before = trained_static.before.parts_mean["consistency"]
    after = trained_static.after.parts_mean["consistency"]
    wall = trained_static.result.wall_time
    ok = after <= 0.5 * before and wall <= 600.0
    _emit(capsys, 4, ok,
          f"500 accumulated steps at weights (1,1,1): held-out "
          f"consistency loss {after:.4f} vs {before:.4f} at init "
          f"(ratio {after / before:.3f}, need <= 0.5); trained in "
          f"{wall:.0f}s of 600s budget")


@pytest.fixture(scope="module")
def symmetric_baseline():
    """Untrained run on class-free data: accuracy must sit at chance."""
    cfg_data = data.SyntheticConfig(num_classes=20, dim=64, frames=8,
                                    scale=1.0, sigma=10_000.0, mode="static",
                                    seed=0)
    man = data.build_synthetic_manifest(cfg_data, videos_per_class=100,
                                        fractions=(0.3, 0.2, 0.5))
    cfg = runner.RunConfig(way=5, shot=5, queries=1, seed=0,
                           eval_split="test", log_every=10 ** 9)
    mdl = runner.build_model(man, cfg)
    return runner.evaluate(man, mdl, cfg, episodes=1000, workers=4)


def test_separable_accuracy_high_and_baseline_at_chance(trained_static,
                                                        static_manifest,
                                                        symmetric_baseline,
                                                        capsys):
    cfg = dataclasses.replace(trained_static.cfg, eval_split="test", shot=5)
    res = runner.evaluate(static_manifest, trained_static.result.model, cfg,
                          episodes=1000, workers=4)
    base = symmetric_baseline
    half = 2.576 * math.sqrt(0.2 * 0.8 / base.total_queries)  # 99% band
    in_band = abs(base.accuracy - 0.2) <= half
    ok = res.accuracy >= 0.95 and in_band
    _emit(capsys, 5, ok,
          f"trained 5-way 5-shot accuracy {res.accuracy:.4f} over 1000 "
          f"episodes (need >= 0.95); untrained symmetric baseline "
          f"{base.accuracy:.4f} within 0.2 +/- {half:.4f}")


@pytest.fixture(scope="module")
def motion_ablation():
    """Three presets trained on order-only classes, scored on new classes."""
    cfg_data = data.SyntheticConfig(num_classes=20, dim=64, frames=8,
                                    scale=1.0, sigma=0.3, mode="permuted",
                                    seed=0, common_ratio=12.0)
    man = data.build_synthetic_manifest(cfg_data, videos_per_class=30,
                                        fractions=(0.3, 0.2, 0.5))
    accs = {}
    for preset in ("full", "no-motion", "motion-only"):
        cfg = runner.RunConfig(way=5, shot=1, queries=1, seed=0,
                               preset=preset, steps=300, window=4, lr=1e-3,
                               consistency_reduction="mean",
                               log_every=10 ** 9)
        tr = runner.train(man, cfg, log=io.StringIO())
        res = runner.evaluate(man, tr.model,
                              dataclasses.replace(cfg, eval_split="test",
                                                  shot=5),
                              episodes=1000, workers=4)
        accs[preset] = res.accuracy
    return accs


def test_motion_pathway_carries_the_order_signal(motion_ablation, capsys):
    accs = motion_ablation
    gap = accs["full"] - accs["no-motion"]
    over_chance = accs["motion-only"] - 0.2
    ok = gap >= 0.10 and over_chance >= 0.30
    _emit(capsys, 6, ok,
          f"1000 episodes on order-only classes: full {accs['full']:.4f}, "
          f"no-motion {accs['no-motion']:.4f} (gap {gap:+.4f}, need >= "
          f"+0.10); motion-only {accs['motion-only']:.4f} "
          f"({over_chance:+.4f} over chance, need >= +0.30)")


def test_identity_phi_motion_nullity_and_offset_invariance(capsys):
    with T.precision("float64"):
        phi = nn.PhiStack(6, 0)
        rng = np.random.default_rng(3)
        static = np.tile(rng.standard_normal(6), (5, 1))
        peak = float(np.abs(motion.motion_features(phi,
                                                   Tensor(static)).data).max())
        # integer-valued frames keep every difference exact in binary
        frames = rng.integers(-8, 9, size=(5, 6)).astype(np.float64)
        offset = rng.integers(-8, 9, size=6).astype(np.float64)
        plain = motion.motion_features(phi, Tensor(frames))
        shifted = motion.motion_features(phi, Tensor(frames + offset))
        exact = bool(np.array_equal(plain.data, shifted.data))
    ok = peak <= 1e-6 and exact
    _emit(capsys, 7, ok,
          f"identity stack on a static video: max |motion| {peak:.1e} "
          f"(tol 1e-6); constant frame offset leaves motion bit-identical: "
          f"{exact}")


@pytest.fixture(scope="module")
def determinism_runs(static_manifest, tmp_path_factory):
    cfg = runner.RunConfig(way=5, shot=1, queries=1, steps=60, window=2,
                           lr=1e-3, seed=9, consistency_reduction="mean",
                           eval_split="test", log_every=10 ** 9)
    runs = []
    for name in ("det_a", "det_b"):
        out = tmp_path_factory.mktemp(name)
        tr = runner.train(static_manifest, cfg, out_dir=str(out),
                          log=io.StringIO())
        ev = runner.evaluate(static_manifest, tr.model, cfg, episodes=200,
                             workers=1)
        runs.append((tr, ev))
    return cfg, runs


def test_same_seed_is_bit_identical_and_worker_invariant(static_manifest,
                                                         determinism_runs,
                                                         capsys):
    cfg, ((tr1, ev1), (tr2, ev2)) = determinism_runs
    same_ckpt = (Path(tr1.checkpoint_path).read_bytes()
                 == Path(tr2.checkpoint_path).read_bytes())
    same_acc = ev1.accuracy == ev2.accuracy
    w4 = runner.evaluate(static_manifest, tr1.model, cfg, episodes=200,
                         workers=4)
    numerator_diff = abs(float(ev1.correct) - float(w4.correct))
    ok = same_ckpt and same_acc and numerator_diff <= 1e-9
    _emit(capsys, 8, ok,
          f"repeated train+eval at one seed: checkpoints bit-identical "
          f"{same_ckpt}, accuracies equal {same_acc} "
          f"({ev1.accuracy:.4f}); 1 vs 4 eval workers numerator diff "
          f"{numerator_diff:.1e} (tol 1e-9)")


def test_pre_transformer_stack_layout_is_exact(capsys):
    with T.precision("float64"):
        rng = np.random.default_rng(5)
        token = rng.standard_normal(16)
        frames = rng.standard_normal((7, 16))
        stacked = stack_token_frames_batch(Tensor(token[None]),
                                           Tensor(frames[None]),
                                           Tensor(np.zeros((8, 16))))
        oracle = np.concatenate([token[None, :], token[None, :] + frames])
        ok = bool(np.array_equal(stacked.data, oracle[None]))
    _emit(capsys, 9, ok,
          "stacked input equals [token; token+frame_t rows] bit-exactly "
          "in 64-bit mode")
