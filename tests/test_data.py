"""Manifest I/O, synthetic encoder, and episode sampler tests."""

import numpy as np
import pytest

from cpm2c import data
from cpm2c.errors import ConfigError, DataError, ManifestError, ProtocolError


def small_cfg(**kw):
    base = dict(num_classes=4, dim=6, frames=5, scale=1.0, sigma=0.3,
                mode="static", seed=7)
    base.update(kw)
    return data.SyntheticConfig(**base)


# ---------------------------------------------------------------------------
# rng streams


def test_keyed_stream_normals_are_keyed_normals_however_split():
    # a run of draws across several slabs and a ragged tail, split into
    # calls of every kind, is the key's keyed_normals row
    slab = data._SLAB
    n = 3 * slab + 5
    whole = data.keyed_normals(data.key_digests([3], 1, 2), n)[0]
    assert whole.dtype == np.float32
    stream = data.KeyedStream(1, 2, 3)
    parts = [stream.normal(k) for k in (1, 0, 7, slab, slab - 9)]
    tail = np.empty(n - 2 * slab + 1, np.float32)
    stream.fill_normal(tail, 1.0)
    assert np.array_equal(np.concatenate(parts + [tail]), whole)
    # fewer draws are a prefix of more
    assert np.array_equal(data.KeyedStream(1, 2, 3).normal(10), whole[:10])
    assert not np.array_equal(data.KeyedStream(1, 2, 4).normal(10),
                              whole[:10])


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_keyed_stream_fills_write_the_scaled_draws_in_any_shape(dtype):
    # uniforms and normals share one counter; a fill writes the draws of
    # its positions, scaled in float64 (uniform) or in the array's dtype
    # (normal), into an array of any shape, a slab at a time
    slab = data._SLAB
    uniforms = data.KeyedStream(4, 9).uniform(5 * slab)
    normals = data.keyed_normals(data.key_digests([9], 4), 5 * slab)[0]
    stream = data.KeyedStream(4, 9)
    assert np.array_equal(stream.uniform(5), uniforms[:5])
    weights = np.empty((3, slab // 2 + 1), dtype)
    stream.fill_uniform(weights, -0.25, 0.25)
    stop = 5 + weights.size
    want = (uniforms[5:stop] * 0.5 + -0.25).astype(dtype)
    assert np.array_equal(weights.ravel(), want)
    assert weights.min() >= -0.25 and weights.max() < 0.25
    table = np.empty((7, slab // 3), dtype)
    stream.fill_normal(table, 0.02)
    want = normals[stop:stop + table.size].astype(dtype) * dtype(0.02)
    assert np.array_equal(table.ravel(), want)
    assert np.array_equal(stream.normal(3),
                          normals[stop + table.size:stop + table.size + 3])


def test_keyed_stream_fills_refuse_a_strided_array():
    out = np.empty((4, 6))[:, ::2]
    with pytest.raises(ValueError, match="C-contiguous"):
        data.KeyedStream(1).fill_uniform(out, 0.0, 1.0)
    with pytest.raises(ValueError, match="C-contiguous"):
        data.KeyedStream(1).fill_normal(out, 1.0)


def test_keyed_stream_draws_are_a_function_of_key_and_counter():
    whole = data.KeyedStream(1, 2, 3).uniform(40)
    stream = data.KeyedStream(1, 2, 3)
    parts = [stream.uniform(n) for n in (1, 0, 7, 32)]
    assert np.array_equal(np.concatenate(parts), whole)
    assert whole.dtype == np.float64
    assert ((whole >= 0) & (whole < 1)).all()
    for other in [(0, 2, 3), (1, 0, 3), (1, 2, 4), (1, 2, 3 + 2 ** 64),
                  (1, 2, 3, 0), (1, 23)]:
        assert not np.isin(data.KeyedStream(*other).uniform(40), whole).any()


def test_key_digests_refuse_negative_parts():
    with pytest.raises(ValueError, match=">= 0"):
        data.key_digests([-1], 0)
    with pytest.raises(ValueError, match=">= 0"):
        data.KeyedStream(-3, 1)


def test_keyed_uniforms_are_uniform():
    u = data.KeyedStream(0, 1).uniform(100_000)
    counts = np.bincount((u * 10).astype(int), minlength=10)
    # 5 sd of a bin count of 10000
    assert np.abs(counts - 10_000).max() < 5 * 94.9
    assert abs(np.corrcoef(u[:-1], u[1:])[0, 1]) < 0.016


# ---------------------------------------------------------------------------
# synthetic encoder


def test_synth_static_sigma_zero_rows_equal_prototype():
    cfg = small_cfg(sigma=0.0)
    feats = data.synth_encode(cfg, 2, 0)
    proto = data.class_prototype(cfg, 2)
    for t in range(cfg.frames):
        assert np.array_equal(feats[t], proto)


def test_synth_encode_deterministic():
    cfg = small_cfg()
    a = data.synth_encode(cfg, 1, 5)
    b = data.synth_encode(cfg, 1, 5)
    c = data.synth_encode(cfg, 1, 6)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_synth_encode_rejects_bad_class():
    with pytest.raises(DataError):
        data.synth_encode(small_cfg(), 99, 0)


def test_permuted_mode_classes_share_frame_multiset():
    cfg = small_cfg(mode="permuted", sigma=0.0, num_classes=4)
    stacks = [data.synth_encode(cfg, c, 0) for c in range(4)]
    means = np.stack([s.mean(axis=0) for s in stacks])
    for c in range(1, 4):
        assert np.allclose(means[c], means[0], atol=1e-6)
    # sorting frames removes the order signal entirely
    sorted_stacks = [s[np.lexsort(s.T[::-1])] for s in stacks]
    for c in range(1, 4):
        assert np.allclose(sorted_stacks[c], sorted_stacks[0], atol=1e-7)
    # but the sequences themselves differ
    for c in range(1, 4):
        assert not np.array_equal(stacks[c], stacks[0])


def test_permuted_mode_orders_are_distinct():
    cfg = small_cfg(mode="permuted", num_classes=4)
    perms = data._permutations(cfg)
    as_tuples = {tuple(p) for p in perms}
    assert len(as_tuples) == 4


def test_synthetic_caches_are_read_only():
    # the caches hand the same arrays to every caller, so a caller's
    # write would change every later manifest built from the config
    cfg = small_cfg(mode="permuted", num_classes=4)
    frames, perms = data._base_frames(cfg), data._permutations(cfg)
    assert isinstance(perms, tuple)
    with pytest.raises(ValueError):
        frames[0, 0] = 1.0
    for order in perms:
        with pytest.raises(ValueError):
            order[0] = order[-1]
    assert data._base_frames(cfg) is frames
    assert data._permutations(cfg) is perms


def test_class_prompts_pairwise_distinct():
    for mode in ("static", "permuted"):
        cfg = small_cfg(mode=mode)
        prompts = [data.class_prompt(cfg, c) for c in range(cfg.num_classes)]
        for i in range(len(prompts)):
            for j in range(i + 1, len(prompts)):
                assert not np.array_equal(prompts[i], prompts[j])


def test_static_prompt_is_prototype():
    cfg = small_cfg()
    assert np.array_equal(data.class_prompt(cfg, 3),
                          data.class_prototype(cfg, 3))


def test_synthetic_config_validation():
    with pytest.raises(ConfigError):
        small_cfg(mode="fancy")
    with pytest.raises(ConfigError):
        small_cfg(sigma=-0.1)
    with pytest.raises(ConfigError):
        small_cfg(num_classes=0)
    for name in ("scale", "sigma", "common_ratio"):
        for value in (float("nan"), float("inf"), -float("inf")):
            with pytest.raises(ConfigError, match=f"{name} must be finite"):
                small_cfg(**{name: value})


# ---------------------------------------------------------------------------
# manifests


def test_split_classes_partition():
    splits = data.split_classes(20)
    assert len(splits["train"]) == 10
    assert len(splits["val"]) == 5
    assert len(splits["test"]) == 5
    joined = splits["train"] + splits["val"] + splits["test"]
    assert sorted(joined) == list(range(20))


def test_build_synthetic_manifest_counts_and_prompts():
    cfg = small_cfg(num_classes=8)
    man = data.build_synthetic_manifest(cfg, videos_per_class=3)
    assert len(man.records) == 24
    assert len(man.classes_in("train")) == 4
    assert len(man.classes_in("val")) == 2
    assert len(man.classes_in("test")) == 2
    for cid in range(8):
        assert np.array_equal(man.prompts[cid], data.class_prompt(cfg, cid))


@pytest.mark.parametrize("mode", ["static", "permuted"])
def test_manifest_features_equal_per_video_synth_encode(mode):
    # a class's videos are drawn in one call; at dim 512 it spans slabs
    for dim, videos in ((6, 3), (512, 5)):
        cfg = small_cfg(mode=mode, num_classes=6, dim=dim)
        manifest = data.build_synthetic_manifest(cfg, videos_per_class=videos)
        assert len(manifest.records) == 6 * videos
        for rec in manifest.records:
            instance = int(rec.video_id.split("_v")[1])
            want = data.synth_encode(cfg, rec.class_id, instance)
            assert rec.features().tobytes() == want.tobytes(), rec.video_id
        for cid in range(cfg.num_classes):
            assert manifest.prompts[cid].tobytes() == \
                data.class_prompt(cfg, cid).tobytes()


def test_manifest_round_trip_bit_exact(tmp_path):
    cfg = small_cfg(num_classes=4)
    man = data.build_synthetic_manifest(cfg, videos_per_class=2)
    pairs = [(rec, rec.features()) for rec in man.records]
    index = data.write_manifest(tmp_path / "ds", pairs, man.prompts)
    loaded = data.load_manifest(index)
    by_id = {r.video_id: r for r in loaded.records}
    assert len(by_id) == len(man.records)
    for rec in man.records:
        other = by_id[rec.video_id]
        assert other.class_id == rec.class_id
        assert other.split == rec.split
        assert np.array_equal(other.features(), rec.features())
    for cid, vec in man.prompts.items():
        assert np.array_equal(loaded.prompts[cid], vec)


def test_empty_index_loads_empty_manifest(tmp_path):
    index = tmp_path / "index.jsonl"
    index.write_text("")
    man = data.load_manifest(index)
    assert man.records == []


def test_load_manifest_reports_missing_and_short_files(tmp_path):
    good = np.zeros((3, 2), dtype="<f4")
    good.tofile(tmp_path / "ok.bin")
    np.zeros(5, dtype="<f4").tofile(tmp_path / "short.bin")
    lines = [
        {"video_id": "a", "class_id": 0, "split": "train",
         "feature_file": "ok.bin", "T": 3, "D": 2},
        {"video_id": "b", "class_id": 0, "split": "train",
         "feature_file": "gone.bin", "T": 3, "D": 2},
        {"video_id": "c", "class_id": 0, "split": "train",
         "feature_file": "short.bin", "T": 3, "D": 2},
    ]
    import json
    index = tmp_path / "index.jsonl"
    index.write_text("\n".join(json.dumps(x) for x in lines) + "\n")
    with pytest.raises(ManifestError) as exc:
        data.load_manifest(index)
    msg = str(exc.value)
    assert "b" in msg and "missing" in msg
    assert "c" in msg and "20 bytes" in msg and "24" in msg


def test_load_manifest_lists_bad_field_values(tmp_path):
    import json
    np.zeros((3, 2), dtype="<f4").tofile(tmp_path / "ok.bin")
    row = {"video_id": "a", "class_id": 0, "split": "train",
           "feature_file": "ok.bin", "T": 3, "D": 2}
    lines = [dict(row, class_id="abc"), dict(row, video_id="b", T=3.5),
             dict(row, video_id="c", D=float("inf")),
             dict(row, video_id="d", feature_file=7), [1, 2],
             dict(row, video_id="e", class_id="1", T=3.0)]
    index = tmp_path / "index.jsonl"
    index.write_text("\n".join(json.dumps(x) for x in lines) + "\n")
    with pytest.raises(ManifestError) as exc:
        data.load_manifest(index)
    msg = str(exc.value)
    for part in ("line 1: bad field values class_id='abc'",
                 "line 2: bad field values T=3.5",
                 "line 3: bad field values D=inf",
                 "line 4: bad field values feature_file=7",
                 "line 5: not a JSON object"):
        assert part in msg
    assert "line 6" not in msg           # "1" and 3.0 name integers exactly


def test_manifest_rejects_split_overlap():
    recs = [
        data.VideoRecord("x", 0, "train", 2, 2, _features=np.zeros((2, 2))),
        data.VideoRecord("y", 0, "test", 2, 2, _features=np.zeros((2, 2))),
    ]
    with pytest.raises(ManifestError, match="multiple splits"):
        data.DatasetManifest(recs, {0: np.zeros(2)})


def test_manifest_rejects_missing_prompt_and_duplicate_id():
    recs = [
        data.VideoRecord("x", 0, "train", 2, 2, _features=np.zeros((2, 2))),
        data.VideoRecord("x", 1, "train", 2, 2, _features=np.zeros((2, 2))),
    ]
    with pytest.raises(ManifestError) as exc:
        data.DatasetManifest(recs, {0: np.zeros(2)})
    msg = str(exc.value)
    assert "duplicate" in msg
    assert "class 1 has no prompt" in msg


def test_prompts_sidecar_round_trip(tmp_path):
    rng = np.random.default_rng(0)
    prompts = {3: rng.normal(size=4).astype(np.float32),
               7: rng.normal(size=4).astype(np.float32)}
    path = tmp_path / "prompts.bin"
    data.write_prompts(path, prompts)
    loaded = data.load_prompts(path)
    assert set(loaded) == {3, 7}
    for cid in prompts:
        assert np.array_equal(loaded[cid], prompts[cid])


def test_prompts_sidecar_truncation_detected(tmp_path):
    path = tmp_path / "prompts.bin"
    data.write_prompts(path, {0: np.zeros(4, dtype=np.float32)})
    blob = path.read_bytes()
    path.write_bytes(blob[:-2])
    with pytest.raises(ManifestError):
        data.load_prompts(path)


# ---------------------------------------------------------------------------
# episodes


def test_one_class_two_videos_split_across_support_query():
    cfg = small_cfg(num_classes=4)
    man = data.build_synthetic_manifest(cfg, videos_per_class=2)
    ep = data.sample_episode(man, data.episode_rng(0, 0), 1, 1, 1, "train")
    ids = {ep.support[0][0].video_id, ep.query[0][0].video_id}
    assert len(ids) == 2


def test_sample_episode_insufficient_classes_or_videos():
    man = data.build_synthetic_manifest(small_cfg(num_classes=4),
                                        videos_per_class=2)
    with pytest.raises(ProtocolError, match="classes"):
        data.sample_episode(man, data.episode_rng(0, 0), 5, 1, 1, "train")
    with pytest.raises(ProtocolError, match="videos"):
        data.sample_episode(man, data.episode_rng(0, 0), 1, 2, 1, "train")


def test_same_seed_gives_identical_episodes():
    man = data.build_synthetic_manifest(small_cfg(num_classes=8),
                                        videos_per_class=4)
    for i in range(5):
        a = data.sample_episode(man, data.episode_rng(3, i), 2, 1, 2, "train")
        b = data.sample_episode(man, data.episode_rng(3, i), 2, 1, 2, "train")
        assert a.class_ids == b.class_ids
        for c in range(2):
            assert [r.video_id for r in a.support[c]] == \
                   [r.video_id for r in b.support[c]]
            assert [r.video_id for r in a.query[c]] == \
                   [r.video_id for r in b.query[c]]


def test_support_query_disjoint_over_many_episodes():
    man = data.build_synthetic_manifest(small_cfg(num_classes=8),
                                        videos_per_class=4)
    for i in range(10_000):
        ep = data.sample_episode(man, data.episode_rng(1, i), 2, 1, 2, "train")
        sup = {r.video_id for col in ep.support for r in col}
        qry = {r.video_id for col in ep.query for r in col}
        assert not (sup & qry)
        for c, cid in enumerate(ep.class_ids):
            for r in ep.query[c]:
                assert r.class_id == cid


def test_class_frequency_matches_uniform_sampling():
    man = data.build_synthetic_manifest(small_cfg(num_classes=20),
                                        videos_per_class=2)
    train_classes = man.classes_in("train")  # 10 classes
    way = 3
    counts = {c: 0 for c in train_classes}
    n = 10_000
    for i in range(n):
        ep = data.sample_episode(man, data.episode_rng(4, i), way, 1, 1, "train")
        for cid in ep.class_ids:
            counts[cid] += 1
    p = way / len(train_classes)
    sigma = (n * p * (1 - p)) ** 0.5
    for cid, cnt in counts.items():
        assert abs(cnt - n * p) <= 3 * sigma, (cid, cnt)


def test_video_frequency_within_a_class_is_uniform():
    full = data.build_synthetic_manifest(small_cfg(num_classes=4),
                                         videos_per_class=6)
    # one training class keeps 4 of its 6 videos: it ranks them with the
    # start of a row as wide as the other class's 6
    dropped = {"c000_v004", "c000_v005"}
    man = data.DatasetManifest(
        [rec for rec in full.records if rec.video_id not in dropped],
        full.prompts)
    counts = {}
    n = 6000
    for i in range(n):
        ep = data.sample_episode(man, data.episode_rng(2, i), 1, 2, 1,
                                 "train")
        for role, recs in (("support", ep.support[0]), ("query", ep.query[0])):
            for rec in recs:
                key = (ep.class_ids[0], role, rec.video_id)
                counts[key] = counts.get(key, 0) + 1
    classes = man.classes_in("train")
    for cid in classes:
        share = n / len(classes)
        videos = len(man.videos_of("train", cid))
        for role, picks in (("support", 2), ("query", 1)):
            p = picks / videos
            sigma = (share * p * (1 - p)) ** 0.5
            for rec in man.videos_of("train", cid):
                cnt = counts.get((cid, role, rec.video_id), 0)
                assert abs(cnt - share * p) <= 4 * sigma, (cid, role, cnt)


def test_episode_draws_classes_and_videos_without_replacement():
    man = data.build_synthetic_manifest(small_cfg(num_classes=12),
                                        videos_per_class=5)
    for i in range(2000):
        ep = data.sample_episode(man, data.episode_rng(6, i), 6, 2, 3,
                                 "train")
        assert len(set(ep.class_ids)) == 6
        ids = [rec.video_id for recs in ep.support + ep.query for rec in recs]
        assert len(set(ids)) == len(ids) == 6 * 5
