"""Corrupt input files: every truncation and single-bit flip of a tiny
checkpoint, prompt sidecar and index either loads or raises a DataError,
which the command line reports with exit code 2 (tests/test_cli.py)."""

import numpy as np

from cpm2c import data, nn
from cpm2c.errors import DataError


def sweep(path, blob: bytes, load, bits) -> list:
    """Write every truncation of ``blob`` and each flip of the given bit
    indices to ``path``, load each, and return a line for every mutation
    that raised anything other than a DataError."""
    escaped = []

    def attempt(label, mutated):
        path.write_bytes(mutated)
        try:
            load(path)
        except DataError:
            pass
        except Exception as exc:    # an escape is what this test looks for
            escaped.append(f"{label}: {exc!r}")

    for end in range(len(blob)):
        attempt(f"truncated to {end} bytes", blob[:end])
    for bit in bits:
        mutated = bytearray(blob)
        mutated[bit // 8] ^= 1 << (bit % 8)
        attempt(f"bit {bit} flipped", bytes(mutated))
    return escaped


def test_checkpoint_truncations_and_bit_flips_raise_data_errors(tmp_path):
    rng = np.random.default_rng(0)
    path = tmp_path / "tiny.ckpt"
    nn.save_checkpoint(path, [("w", rng.normal(size=(2, 3))),
                              ("b", rng.normal(size=3)),
                              ("s", np.ones(()))])
    blob = path.read_bytes()
    escaped = sweep(path, blob, nn.load_checkpoint, range(8 * len(blob)))
    assert not escaped, escaped[:5]


def test_prompt_sidecar_truncations_and_bit_flips_raise_data_errors(tmp_path):
    rng = np.random.default_rng(1)
    path = tmp_path / "prompts.bin"
    data.write_prompts(path, {c: rng.normal(size=4).astype(np.float32)
                              for c in (0, 3)})
    blob = path.read_bytes()
    escaped = sweep(path, blob, data.load_prompts, range(8 * len(blob)))
    assert not escaped, escaped[:5]


def test_index_truncations_and_sampled_bit_flips_raise_data_errors(tmp_path):
    synth = data.SyntheticConfig(num_classes=4, dim=4, frames=3, seed=2)
    manifest = data.build_synthetic_manifest(synth, videos_per_class=1)
    index = data.write_manifest(
        tmp_path, [(rec, rec.features()) for rec in manifest.records],
        manifest.prompts)
    blob = open(index, "rb").read()
    bits = np.random.default_rng(3).choice(8 * len(blob), 512, replace=False)
    escaped = sweep(tmp_path / "index.jsonl", blob, data.load_manifest,
                    [7] + sorted(bits.tolist()))
    assert not escaped, escaped[:5]
