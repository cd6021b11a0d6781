"""Command line behavior: merging of settings, exit codes, round trips."""

import json
import os
import struct

import numpy as np
import pytest

from cpm2c import cli, data, nn


def make_tiny_manifest(tmp_path, **over):
    args = ["make-synth", "--out", str(tmp_path / "synth"), "--classes", "4",
            "--dim", "8", "--frames", "4", "--videos-per-class", "4"]
    for key, val in over.items():
        args += [f"--{key}", str(val)]
    assert cli.main(args) == 0
    return str(tmp_path / "synth" / "index.jsonl")


def run_args(extra):
    return cli.build_parser().parse_args(extra)


# ---------------------------------------------------------------------------
# settings merge


def test_flag_overrides_config_file_overrides_env(tmp_path, monkeypatch):
    cfile = tmp_path / "run.cfg"
    cfile.write_text("steps = 7\nseed = 5  # comment\n\n# full line comment\n")
    monkeypatch.setenv("CPM2C_SEED", "9")
    args = run_args(["train", "--manifest", "x", "--config", str(cfile)])
    cfg = cli.build_run_config(args)
    assert cfg.steps == 7 and cfg.seed == 5
    args = run_args(["train", "--manifest", "x", "--config", str(cfile),
                     "--seed", "3", "--steps", "2"])
    cfg = cli.build_run_config(args)
    assert cfg.steps == 2 and cfg.seed == 3


def test_env_seed_fallback(monkeypatch):
    monkeypatch.setenv("CPM2C_SEED", "42")
    cfg = cli.build_run_config(run_args(["train", "--manifest", "x"]))
    assert cfg.seed == 42
    monkeypatch.setenv("CPM2C_SEED", "nope")
    with pytest.raises(cli.ConfigError):
        cli.build_run_config(run_args(["train", "--manifest", "x"]))


def test_unknown_config_key_rejected(tmp_path):
    cfile = tmp_path / "bad.cfg"
    cfile.write_text("warp_factor = 9\n")
    args = run_args(["train", "--manifest", "x", "--config", str(cfile)])
    with pytest.raises(cli.ConfigError, match="warp_factor"):
        cli.build_run_config(args)


@pytest.mark.parametrize("flag", ["--temperature", "--phi-blocks",
                                  "--ffn-hidden", "--train-split"])
def test_removed_run_flag_is_a_usage_error(flag, capsys):
    with pytest.raises(SystemExit) as err:
        cli.main(["train", "--manifest", "x", flag, "1"])
    assert err.value.code == 1
    stderr = capsys.readouterr().err
    assert "usage:" in stderr and f"unrecognized arguments: {flag}" in stderr
    assert "Traceback" not in stderr


def test_removed_config_key_is_unknown(tmp_path, capsys):
    cfile = tmp_path / "old.cfg"
    cfile.write_text("temperature = 0.5\n")
    code = cli.main(["train", "--manifest", "x", "--config", str(cfile)])
    assert code == 1
    assert "unknown setting 'temperature'" in capsys.readouterr().err


def test_alignment_and_head_settings_are_gone(tmp_path, capsys):
    # one alignment orientation, fixed ends and 8 heads are built in
    for flag in ("--bidirectional", "--relaxed-ends", "--num-heads"):
        with pytest.raises(SystemExit) as err:
            cli.main(["train", "--manifest", "x", flag, "1"])
        assert err.value.code == 1
        stderr = capsys.readouterr().err
        assert f"unrecognized arguments: {flag}" in stderr
        assert "Traceback" not in stderr
        key = flag[2:].replace("-", "_")
        cfile = tmp_path / f"{key}.cfg"
        cfile.write_text(f"{key} = 1\n")
        code = cli.main(["train", "--manifest", "x", "--config", str(cfile)])
        assert code == 1
        assert f"unknown setting {key!r}" in capsys.readouterr().err


def test_malformed_config_line_rejected(tmp_path):
    cfile = tmp_path / "bad.cfg"
    cfile.write_text("steps 7\n")
    args = run_args(["train", "--manifest", "x", "--config", str(cfile)])
    with pytest.raises(cli.ConfigError, match="key = value"):
        cli.build_run_config(args)


# ---------------------------------------------------------------------------
# exit codes


def test_missing_subcommand_exits_one(capsys):
    with pytest.raises(SystemExit) as err:
        cli.main([])
    assert err.value.code == 1


def test_bad_flag_value_exits_one(tmp_path):
    index = make_tiny_manifest(tmp_path)
    code = cli.main(["train", "--manifest", index, "--steps", "banana"])
    assert code == 1


def test_missing_manifest_exits_two(capsys):
    code = cli.main(["eval", "--manifest", "/nonexistent/index.jsonl",
                     "--way", "2"])
    assert code == 2
    assert "data error" in capsys.readouterr().err


def test_corrupt_checkpoint_exits_two(tmp_path):
    index = make_tiny_manifest(tmp_path)
    bad = tmp_path / "bad.bin"
    bad.write_bytes(b"not a checkpoint")
    code = cli.main(["eval", "--manifest", index, "--checkpoint", str(bad),
                     "--way", "2"])
    assert code == 2


def test_non_utf8_checkpoint_entry_name_exits_two(tmp_path, capsys):
    index = make_tiny_manifest(tmp_path)
    out = str(tmp_path / "run")
    assert cli.main(["train", "--manifest", index, "--out", out,
                     "--steps", "0", "--way", "2"]) == 0
    path = os.path.join(out, "checkpoint.bin")
    blob = bytearray(open(path, "rb").read())
    blob[len(nn.CHECKPOINT_MAGIC) + 12] = 0xFF   # first byte of entry 0's name
    with open(path, "wb") as fh:
        fh.write(blob)
    capsys.readouterr()
    code = cli.main(["eval", "--manifest", index, "--checkpoint", path,
                     "--way", "2"])
    assert code == 2
    assert "not UTF-8" in capsys.readouterr().err


def _oversized_query_weight(blob: bytes) -> bytes:
    """Both dims of one checkpoint entry set to 0xFFFFFFFF, a shape whose
    element count overflows int64."""
    blob = bytearray(blob)
    name = b"normal.transformer.attn.query.weight"
    off = blob.index(name) + len(name)
    assert struct.unpack_from("<I", blob, off)[0] == 2
    struct.pack_into("<II", blob, off + 4, 0xFFFFFFFF, 0xFFFFFFFF)
    return bytes(blob)


@pytest.mark.parametrize("target,corrupt,message", [
    ("checkpoint.bin", _oversized_query_weight, "truncated payload"),
    ("prompts.bin", lambda blob: blob[:-1], "truncated prompt sidecar"),
    ("index.jsonl", lambda blob: bytes([blob[0] ^ 0x80]) + blob[1:],
     "line 1: not UTF-8"),
])
def test_corrupt_file_exits_two(tmp_path, capsys, target, corrupt, message):
    index = make_tiny_manifest(tmp_path)
    run_dir = str(tmp_path / "run")
    assert cli.main(["train", "--manifest", index, "--out", run_dir,
                     "--steps", "0", "--way", "2"]) == 0
    checkpoint = os.path.join(run_dir, "checkpoint.bin")
    path = checkpoint if target == "checkpoint.bin" else \
        os.path.join(os.path.dirname(index), target)
    with open(path, "rb") as fh:
        blob = fh.read()
    with open(path, "wb") as fh:
        fh.write(corrupt(blob))
    capsys.readouterr()
    code = cli.main(["eval", "--manifest", index, "--checkpoint", checkpoint,
                     "--way", "2"])
    assert code == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("field,value", [("class_id", "abc"), ("T", 2.5),
                                         ("D", None), ("class_id", True)])
def test_non_integer_index_field_exits_two(tmp_path, capsys, field, value):
    index = make_tiny_manifest(tmp_path)
    with open(index, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    row = json.loads(lines[0])
    row[field] = value
    lines[0] = json.dumps(row)
    with open(index, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
    code = cli.main(["eval", "--manifest", index, "--way", "2"])
    assert code == 2
    err = capsys.readouterr().err
    assert "line 1" in err and f"{field}={value!r}" in err


def _rewrite_first_row(index, **fields):
    with open(index, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    row = json.loads(lines[0])
    row.update(fields)
    lines[0] = json.dumps(row)
    with open(index, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
    return row


@pytest.mark.parametrize("absolute", [False, True])
def test_feature_file_outside_data_directory_exits_two(tmp_path, capsys,
                                                       absolute):
    # a well-formed feature file that the index reaches from outside
    index = make_tiny_manifest(tmp_path)
    with open(index, encoding="utf-8") as fh:
        first = json.loads(fh.readline())
    outside = tmp_path / "outside.bin"
    outside.write_bytes(
        (tmp_path / "synth" / first["feature_file"]).read_bytes())
    target = str(outside) if absolute else "../outside.bin"
    _rewrite_first_row(index, feature_file=target)
    code = cli.main(["eval", "--manifest", index, "--way", "2"])
    assert code == 2
    err = capsys.readouterr().err
    assert "line 1" in err and "not inside the data directory" in err
    assert repr(target) in err


@pytest.mark.parametrize("video_id", ["../escaped", "nul\0byte"])
def test_video_id_escaping_output_directory_exits_two(tmp_path, capsys,
                                                      video_id):
    index = make_tiny_manifest(tmp_path)
    _rewrite_first_row(index, video_id=video_id)
    out = tmp_path / "dumped"
    code = cli.main(["dump-features", "--manifest", index, "--out", str(out)])
    assert code == 2
    assert repr(video_id) in capsys.readouterr().err
    assert not (tmp_path / "escaped.bin").exists()
    assert not out.exists()


def test_video_id_naming_the_prompt_sidecar_exits_two(tmp_path, capsys):
    # the video's features would go to prompts.bin, which the prompt
    # sidecar then overwrites
    index = make_tiny_manifest(tmp_path)
    _rewrite_first_row(index, video_id="prompts")
    out = tmp_path / "dumped"
    code = cli.main(["dump-features", "--manifest", index, "--out", str(out)])
    assert code == 2
    err = capsys.readouterr().err
    assert "'prompts'" in err and "prompts.bin" in err
    assert not out.exists()


def test_feature_dim_the_heads_cannot_split_exits_two(tmp_path, capsys):
    index = make_tiny_manifest(tmp_path, dim=12)
    for argv in (["train", "--steps", "1"], ["eval"], ["gradcheck"]):
        code = cli.main(argv[:1] + ["--manifest", index, "--way", "2"]
                        + argv[1:])
        assert code == 2
        err = capsys.readouterr().err
        assert "data error" in err and "Traceback" not in err
        assert "dim 12" in err and "8 attention heads" in err


def test_unknown_consistency_reduction_exits_one_before_loading(capsys):
    # scoring without losses never reads the reduction, so only the
    # config check can catch it; a missing manifest would exit 2
    code = cli.main(["eval", "--manifest", "/nonexistent/index.jsonl",
                     "--consistency-reduction", "median"])
    assert code == 1
    err = capsys.readouterr().err
    assert "configuration error" in err and "'median'" in err


def test_gradcheck_impossible_tolerance_exits_three(tmp_path, capsys):
    index = make_tiny_manifest(tmp_path)
    code = cli.main(["gradcheck", "--manifest", index, "--coords", "1",
                     "--tolerance", "0", "--way", "2"])
    assert code == 3
    assert "FAIL" in capsys.readouterr().out


# ---------------------------------------------------------------------------
# full command round trips


def test_train_eval_gradcheck_roundtrip(tmp_path, capsys):
    index = make_tiny_manifest(tmp_path)
    out = str(tmp_path / "run")
    code = cli.main(["train", "--manifest", index, "--out", out,
                     "--steps", "2", "--way", "2", "--log-every", "1"])
    assert code == 0
    shown = capsys.readouterr().out
    assert "checkpoint" in shown and "step" in shown
    assert os.path.exists(os.path.join(out, "checkpoint.bin"))
    assert os.path.exists(os.path.join(out, "metrics.jsonl"))

    code = cli.main(["eval", "--manifest", index, "--checkpoint",
                     os.path.join(out, "checkpoint.bin"), "--way", "2",
                     "--eval-episodes", "4",
                     "--eval-split", "train", "--losses"])
    assert code == 0
    shown = capsys.readouterr().out
    assert "accuracy" in shown and "mean losses" in shown

    code = cli.main(["gradcheck", "--manifest", index, "--coords", "2",
                     "--way", "2"])
    assert code == 0
    assert "PASS" in capsys.readouterr().out


def test_dump_features_cli_roundtrip(tmp_path):
    index = make_tiny_manifest(tmp_path)
    out = str(tmp_path / "dumped")
    assert cli.main(["dump-features", "--manifest", index,
                     "--out", out, "--split", "train"]) == 0
    loaded = data.load_manifest(os.path.join(out, "index.jsonl"))
    original = data.load_manifest(index)
    assert {r.split for r in loaded.records} == {"train"}
    by_id = {r.video_id: r for r in original.records}
    for rec in loaded.records:
        assert np.array_equal(rec.features(), by_id[rec.video_id].features())


def test_make_synth_env_seed(tmp_path, monkeypatch):
    monkeypatch.setenv("CPM2C_SEED", "11")
    a = make_tiny_manifest(tmp_path)
    manifest_a = data.load_manifest(a)
    monkeypatch.delenv("CPM2C_SEED")
    out_b = str(tmp_path / "b")
    assert cli.main(["make-synth", "--out", out_b, "--classes", "4",
                     "--dim", "8", "--frames", "4",
                     "--videos-per-class", "4", "--seed", "11"]) == 0
    manifest_b = data.load_manifest(os.path.join(out_b, "index.jsonl"))
    for ra, rb in zip(manifest_a.records, manifest_b.records):
        assert ra.video_id == rb.video_id
        assert np.array_equal(ra.features(), rb.features())


@pytest.fixture(scope="module")
def tiny_index(tmp_path_factory):
    return make_tiny_manifest(tmp_path_factory.mktemp("tiny"))


_OUT_OF_RANGE = [
    (["train", "--seed", "-1"], None),
    (["eval", "--seed", "-1"], None),
    (["eval", "--eval-start", "-1"], None),
    (["train"], "-1"),
    (["make-synth", "--seed", "-1"], None),
    (["make-synth"], "-1"),
    (["train", "--log-every", "0"], None),
    (["eval", "--eval-episodes", "0"], None),
    (["eval", "--eval-episodes", "-3"], None),
    (["eval", "--eval-split", "bogus"], None),
    (["train", "--alpha", "nan"], None),
    (["train", "--lr", "inf"], None),
    (["train", "--gamma", "inf"], None),
]


@pytest.mark.parametrize(
    "argv, env", _OUT_OF_RANGE,
    ids=[" ".join(argv) + ("" if env is None else f" CPM2C_SEED={env}")
         for argv, env in _OUT_OF_RANGE])
def test_out_of_range_setting_exits_one(tiny_index, tmp_path, monkeypatch,
                                        capsys, argv, env):
    if env is None:
        monkeypatch.delenv("CPM2C_SEED", raising=False)
    else:
        monkeypatch.setenv("CPM2C_SEED", env)
    # a flag given twice takes its last value, so the case's flags go last
    if argv[0] == "make-synth":
        base = ["--out", str(tmp_path / "synth"), "--classes", "4",
                "--dim", "8", "--frames", "4"]
    else:
        base = ["--manifest", tiny_index, "--way", "2", "--steps", "1",
                "--eval-episodes", "2"]
    assert cli.main(argv[:1] + base + argv[1:]) == 1
    err = capsys.readouterr().err
    assert "configuration error" in err
    assert "Traceback" not in err


def test_bad_fractions_exit_one(tmp_path):
    assert cli.main(["make-synth", "--out", str(tmp_path / "x"),
                     "--fractions", "0.5,0.5"]) == 1


@pytest.mark.parametrize("fractions", ["0.5,nan,0.25", "0.5,-0.5,0.25",
                                       "0.5,0.25,inf"])
def test_non_finite_or_negative_fractions_exit_one(tmp_path, capsys,
                                                   fractions):
    out = tmp_path / "x"
    assert cli.main(["make-synth", "--out", str(out),
                     "--fractions", fractions]) == 1
    err = capsys.readouterr().err
    assert "configuration error" in err and "fractions" in err
    assert "Traceback" not in err
    assert not out.exists()


def test_non_utf8_config_file_exits_one(tmp_path, capsys):
    cfile = tmp_path / "latin1.cfg"
    cfile.write_bytes(b"steps = 1  # caf\xe9\n")
    code = cli.main(["train", "--manifest", "x", "--config", str(cfile)])
    assert code == 1
    err = capsys.readouterr().err
    assert "configuration error" in err and str(cfile) in err
    assert "Traceback" not in err


@pytest.mark.parametrize("command", ["train", "make-synth", "dump-features"])
def test_unwritable_output_path_exits_two(tiny_index, tmp_path, capsys,
                                          command):
    # --out names a file, or a path under one
    blocker = tmp_path / "file"
    blocker.write_text("")
    out = blocker / "x" if command == "dump-features" else blocker
    argv = {"train": ["--manifest", tiny_index, "--way", "2", "--steps", "1"],
            "make-synth": ["--classes", "4", "--dim", "8", "--frames", "4"],
            "dump-features": ["--manifest", tiny_index]}[command]
    assert cli.main([command, "--out", str(out)] + argv) == 2
    err = capsys.readouterr().err
    assert "data error" in err and str(out) in err
    assert "Traceback" not in err
    assert len(err.strip().splitlines()) == 1
