"""Dataset manifests, precomputed-embedding I/O, synthetic videos, episodes.

A dataset is an index of video records plus one prompt embedding per
class. Frame features arrive as precomputed T x D embeddings (any
external extractor can produce them); the synthetic encoder generates
them deterministically for verification. The episodic sampler draws
N-way K-shot P-query tasks from class-disjoint splits.

File formats:
  index:   JSON-lines, fields {video_id, class_id, split, feature_file, T, D}
  feature: raw little-endian float32, row-major T x D, no header
  prompts: header (class count u32, D u32) then per class
           (class_id u32, D little-endian float32)
"""

from __future__ import annotations

import functools
import hashlib
import json
import math
import operator
import os
import struct
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import ConfigError, DataError, ManifestError, ProtocolError

SPLITS = ("train", "val", "test")

# stream tags keeping every derived random stream disjoint under one run seed
_PROTO_TAG = 1
_FRAME_TAG = 2
_BASE_TAG = 3
_PERM_TAG = 4
_PROMPT_TAG = 5
_EPISODE_TAG = 6
FAKE_TAG = 7


# SplitMix64 (Steele et al. 2014): the Weyl increment of the counter and
# the two multipliers of the output finalizer
_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)
# elements per slab of a keyed draw: a slab's uint64 words take 32 KiB,
# so no temporary reaches glibc's 128 KiB mmap threshold
_SLAB = 4096


def _encode(part) -> bytes:
    """Self-delimiting bytes of one nonnegative integer key part: its
    minimal little-endian bytes after their 4-byte count."""
    part = operator.index(part)
    if part < 0:
        raise ValueError(f"key parts must be >= 0, got {part}")
    raw = part.to_bytes((part.bit_length() + 7) // 8, "little")
    return len(raw).to_bytes(4, "little") + raw


def key_digests(keys, *prefix) -> np.ndarray:
    """The uint64 digests of the key tuples (*prefix, key), one per key.

    A digest is BLAKE2b, cut to 64 bits, of the parts' self-delimiting
    encodings, so distinct tuples (integers of any size, such as
    ``cpm.video_key``'s) collide only with hash-collision odds.
    """
    head = b"".join(_encode(part) for part in prefix)
    blob = b"".join(hashlib.blake2b(head + _encode(key),
                                    digest_size=8).digest() for key in keys)
    return np.frombuffer(blob, dtype="<u8")


def _words(digests: np.ndarray, start: int, stop: int) -> np.ndarray:
    """(len(digests), stop - start) uint64 words: element (i, j) is output
    start + j of the SplitMix64 stream seeded with ``digests[i]``, a pure
    function of that digest and its counter."""
    x = np.arange(start + 1, stop + 1, dtype=np.uint64)
    x *= _GOLDEN
    x = x + digests[:, None]
    x ^= x >> np.uint64(30)
    x *= _MIX1
    x ^= x >> np.uint64(27)
    x *= _MIX2
    x ^= x >> np.uint64(31)
    return x


def _box_muller(words: np.ndarray, out: np.ndarray) -> None:
    """Standard normals into the float array ``out``, one per word: its
    top 24 bits give the radius and its low 24 bits the angle of a
    Box-Muller pair, whose cosine half is kept."""
    radius = (words >> np.uint64(40)).astype(np.float32)
    radius += np.float32(0.5)                # in (0, 1) after the scale
    radius *= np.float32(2.0 ** -24)
    np.log(radius, out=radius)
    radius *= np.float32(-2.0)
    np.sqrt(radius, out=radius)
    angle = (words & np.uint64(0xFFFFFF)).astype(np.float32)
    angle *= np.float32(2.0 * np.pi * 2.0 ** -24)
    np.cos(angle, out=angle)
    np.multiply(radius, angle, out=out)


def _uniforms(words: np.ndarray) -> np.ndarray:
    """Float64 uniforms in [0, 1), one per word: its top 53 bits."""
    return (words >> np.uint64(11)) * 2.0 ** -53


def _normals_into(digests: np.ndarray, start: int, out: np.ndarray) -> None:
    """Standard normals at counter positions start .. start + n of each
    digest's stream into row i of the (len(digests), n) float array
    ``out``, in slabs of about ``_SLAB`` elements (whole rows where they
    fit), so temporaries stay small."""
    count = out.shape[1]
    rows = max(1, _SLAB // max(count, 1))
    width = max(1, min(count, _SLAB))
    for lo in range(0, len(digests), rows):
        slab = digests[lo:lo + rows]
        for first in range(0, count, width):
            stop = min(first + width, count)
            _box_muller(_words(slab, start + first, start + stop),
                        out[lo:lo + rows, first:stop])


def keyed_normals(digests: np.ndarray, count: int) -> np.ndarray:
    """(len(digests), count) float32 standard normals, row i from the
    stream seeded with ``digests[i]``.

    Element j of a row is a pure function of (digest, j), so a key's row
    is the same whether drawn alone or in a batch, and fewer elements
    are a prefix of more.
    """
    out = np.empty((len(digests), count), np.float32)
    _normals_into(digests, 0, out)
    return out


def _flat(out: np.ndarray) -> np.ndarray:
    if not out.flags.c_contiguous:
        raise ValueError("keyed draws fill C-contiguous arrays only")
    return out.reshape(-1)


class KeyedStream:
    """Uniform and normal draws from one integer key tuple, counter-based.

    The stream hands out its counter positions in order, one per draw,
    and the draw at position j is a pure function of (key, j). So a
    stream costs one digest to make, its draws vectorize, and any split
    of a run of draws into calls or slabs gives the same numbers. Its
    normals are those of ``keyed_normals`` for the key's digest. Same
    key, same draws, bit for bit.
    """

    __slots__ = ("_digest", "_drawn")

    def __init__(self, *key):
        self._digest = key_digests(key[-1:], *key[:-1])
        self._drawn = 0

    def _take(self, count: int) -> int:
        """Claim the next ``count`` counter positions; returns the first."""
        start = self._drawn
        self._drawn += count
        return start

    def uniform(self, count: int) -> np.ndarray:
        """The stream's next ``count`` float64 uniforms in [0, 1), each
        with 53 random bits."""
        start = self._take(count)
        return _uniforms(_words(self._digest, start, start + count)[0])

    def normal(self, count: int) -> np.ndarray:
        """The stream's next ``count`` float32 standard normals."""
        out = np.empty((1, count), np.float32)
        _normals_into(self._digest, self._take(count), out)
        return out[0]

    def fill_uniform(self, out: np.ndarray, low: float, high: float) -> None:
        """Fill the C-contiguous float array ``out`` with the stream's next
        ``out.size`` uniforms on [low, high): low + (high - low) * u in
        float64, rounded to ``out``'s dtype, a slab at a time."""
        flat = _flat(out)
        start = self._take(flat.size)
        for lo in range(0, flat.size, _SLAB):
            hi = min(lo + _SLAB, flat.size)
            u = _uniforms(_words(self._digest, start + lo, start + hi)[0])
            u *= high - low
            np.add(u, low, out=flat[lo:hi])

    def fill_normal(self, out: np.ndarray, scale: float) -> None:
        """Fill the C-contiguous float array ``out`` with the stream's next
        ``out.size`` normals of mean 0 and standard deviation ``scale``:
        the float32 standard normals, written a slab at a time, then
        multiplied by ``scale`` in ``out``'s dtype."""
        flat = _flat(out)
        _normals_into(self._digest, self._take(flat.size), flat[None, :])
        flat *= scale


def episode_rng(run_seed: int, episode_index: int) -> KeyedStream:
    """The sampling stream of one episode of one run, keyed by (run,
    episode); ``sample_episode`` draws the whole episode from it."""
    return KeyedStream(run_seed, _EPISODE_TAG, episode_index)


@dataclass
class VideoRecord:
    """One video: identity, label, split, and lazily loaded features."""

    video_id: str
    class_id: int
    split: str
    frames: int
    dim: int
    feature_file: Optional[str] = None
    _features: Optional[np.ndarray] = field(default=None, repr=False)

    def features(self) -> np.ndarray:
        """The T x D float32 feature stack, loaded on first access.

        Caching is an idempotent write, so concurrent readers are safe.
        """
        if self._features is None:
            raw = np.fromfile(self.feature_file, dtype="<f4")
            self._features = raw.reshape(self.frames, self.dim)
        return self._features


class DatasetManifest:
    """Immutable view of a validated dataset.

    Construction enforces the protocol invariants: unique video ids,
    class-disjoint splits, and a prompt embedding for every referenced
    class.
    """

    def __init__(self, records, prompts):
        records = list(records)
        problems = []
        seen = set()
        for rec in records:
            if rec.video_id in seen:
                problems.append(f"duplicate video_id {rec.video_id!r}")
            seen.add(rec.video_id)
            if rec.split not in SPLITS:
                problems.append(f"{rec.video_id}: unknown split {rec.split!r}")
        class_splits: dict[int, set] = {}
        for rec in records:
            class_splits.setdefault(rec.class_id, set()).add(rec.split)
        for cid, splits in sorted(class_splits.items()):
            if len(splits) > 1:
                problems.append(f"class {cid} appears in multiple splits: "
                                f"{sorted(splits)}")
            if cid not in prompts:
                problems.append(f"class {cid} has no prompt embedding")
        if problems:
            raise ManifestError("invalid manifest: " + "; ".join(problems))
        self.records = records
        self.prompts = {int(c): np.asarray(v, dtype=np.float32)
                        for c, v in prompts.items()}
        self._by_split: dict[str, dict[int, list]] = {s: {} for s in SPLITS}
        for rec in records:
            self._by_split[rec.split].setdefault(rec.class_id, []).append(rec)
        for groups in self._by_split.values():
            for vids in groups.values():
                vids.sort(key=lambda r: r.video_id)
        # the most videos of any class, per split: the row width of
        # ``sample_episode``'s draw
        self._widest = {split: max(map(len, groups.values()), default=0)
                        for split, groups in self._by_split.items()}

    def classes_in(self, split: str) -> list:
        return sorted(self._by_split[split])

    def videos_of(self, split: str, class_id: int) -> list:
        return self._by_split[split][class_id]

    def prompt_bank(self, split: str = "train"):
        """(class ids, stacked prompt matrix) for every class of a split."""
        ids = self.classes_in(split)
        return ids, np.stack([self.prompts[c] for c in ids])


# ---------------------------------------------------------------------------
# manifest files


def load_prompts(path) -> dict:
    try:
        with open(path, "rb") as fh:
            blob = fh.read()
    except OSError as exc:
        raise ManifestError(f"cannot read prompt sidecar: {exc}") from None
    if len(blob) < 8:
        raise ManifestError(f"{path}: truncated prompt sidecar")
    count, dim = struct.unpack_from("<II", blob, 0)
    out = {}
    off = 8
    for _ in range(count):
        if off + 4 + 4 * dim > len(blob):
            raise ManifestError(f"{path}: truncated prompt sidecar")
        cid = struct.unpack_from("<I", blob, off)[0]
        off += 4
        out[cid] = np.frombuffer(blob[off:off + 4 * dim], dtype="<f4").copy()
        off += 4 * dim
    if off != len(blob):
        raise ManifestError(f"{path}: {len(blob) - off} trailing bytes")
    return out


def write_prompts(path, prompts: dict) -> None:
    ids = sorted(prompts)
    dim = len(next(iter(prompts.values()))) if ids else 0
    with open(path, "wb") as fh:
        fh.write(struct.pack("<II", len(ids), dim))
        for cid in ids:
            vec = np.asarray(prompts[cid], dtype="<f4")
            if vec.shape != (dim,):
                raise ManifestError(f"prompt for class {cid} has shape "
                                    f"{vec.shape}, expected ({dim},)")
            fh.write(struct.pack("<I", cid))
            fh.write(vec.tobytes())


def _as_int(value) -> Optional[int]:
    """An index field as an int, or None unless it names one exactly.

    Accepts JSON integers and strings of decimal digits; refuses booleans,
    fractional or non-finite numbers, and anything else.
    """
    if isinstance(value, bool):
        return None
    if isinstance(value, int):
        return value
    if isinstance(value, float):
        return int(value) if value.is_integer() else None
    if isinstance(value, str):
        try:
            return int(value)
        except ValueError:
            return None
    return None


def load_manifest(index_path, prompts_path=None) -> DatasetManifest:
    """Read and validate a JSON-lines index plus its prompt sidecar.

    Every ``feature_file`` must lie inside the index's directory: an
    absolute path or one that climbs out with ``..`` is a problem. All
    problems are collected and reported together rather than failing on
    the first.
    """
    base = os.path.dirname(os.path.abspath(index_path))
    if prompts_path is None:
        prompts_path = os.path.join(base, "prompts.bin")
    records = []
    problems = []
    try:
        fh = open(index_path, "rb")
    except OSError as exc:
        raise ManifestError(f"cannot read index: {exc}") from None
    with fh:
        for lineno, raw in enumerate(fh, 1):
            try:
                line = raw.decode("utf-8").strip()
            except UnicodeDecodeError as exc:
                problems.append(f"line {lineno}: not UTF-8 (byte "
                                f"{exc.start})")
                continue
            if not line:
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as exc:
                problems.append(f"line {lineno}: bad JSON ({exc.msg})")
                continue
            if not isinstance(obj, dict):
                problems.append(f"line {lineno}: not a JSON object")
                continue
            missing = [k for k in ("video_id", "class_id", "split",
                                   "feature_file", "T", "D") if k not in obj]
            if missing:
                problems.append(f"line {lineno}: missing fields {missing}")
                continue
            ints = {k: _as_int(obj[k]) for k in ("class_id", "T", "D")}
            bad = [f"{k}={obj[k]!r}" for k, val in ints.items() if val is None]
            if not isinstance(obj["feature_file"], str):
                bad.append(f"feature_file={obj['feature_file']!r}")
            if bad:
                problems.append(f"line {lineno}: bad field values "
                                f"{', '.join(bad)}")
                continue
            feature_file = os.path.normpath(
                os.path.join(base, obj["feature_file"]))
            if os.path.isabs(obj["feature_file"]) or \
                    os.path.commonpath([base, feature_file]) != base:
                problems.append(f"line {lineno}: feature_file "
                                f"{obj['feature_file']!r} is not inside "
                                f"the data directory")
                continue
            rec = VideoRecord(video_id=str(obj["video_id"]),
                              class_id=ints["class_id"],
                              split=str(obj["split"]),
                              frames=ints["T"], dim=ints["D"],
                              feature_file=feature_file)
            if rec.frames < 1 or rec.dim < 1:
                problems.append(f"{rec.video_id}: non-positive T or D")
                continue
            if not os.path.isfile(rec.feature_file):
                problems.append(f"{rec.video_id}: feature file "
                                f"{obj['feature_file']!r} missing")
                continue
            expect = 4 * rec.frames * rec.dim
            actual = os.path.getsize(rec.feature_file)
            if actual != expect:
                problems.append(f"{rec.video_id}: feature file holds {actual} "
                                f"bytes, expected {expect} for "
                                f"{rec.frames}x{rec.dim}")
                continue
            records.append(rec)
    if problems:
        raise ManifestError(f"{index_path}: " + "; ".join(problems))
    prompts = load_prompts(prompts_path) if os.path.isfile(prompts_path) else {}
    if records and not prompts:
        raise ManifestError(f"{index_path}: prompt sidecar {prompts_path} "
                            f"missing or empty")
    return DatasetManifest(records, prompts)


def write_manifest(out_dir, records_features, prompts, index_name="index.jsonl"):
    """Write feature binaries, prompt sidecar, and the JSON-lines index.

    ``records_features`` is an iterable of (VideoRecord, T x D array).
    Video ids that are not plain file names, and ids whose feature file
    would be the prompt sidecar or the index, are refused, all together,
    before anything is written. Returns the index path.
    """
    records_features = list(records_features)
    reserved = {"prompts.bin", index_name}
    refused = []
    for rec, _ in records_features:
        fname = f"{rec.video_id}.bin"
        if os.path.basename(fname) != fname or "\0" in rec.video_id:
            refused.append(repr(rec.video_id))
        elif fname in reserved:
            refused.append(f"{rec.video_id!r} (its file {fname} holds "
                           f"the dump's own data)")
    if refused:
        raise ManifestError("video ids are not plain file names inside "
                            "the output directory: " + "; ".join(refused))
    os.makedirs(out_dir, exist_ok=True)
    index_path = os.path.join(out_dir, index_name)
    with open(index_path, "w", encoding="utf-8") as fh:
        for rec, feats in records_features:
            feats = np.ascontiguousarray(feats, dtype="<f4")
            if feats.shape != (rec.frames, rec.dim):
                raise ManifestError(f"{rec.video_id}: features {feats.shape} "
                                    f"vs declared ({rec.frames}, {rec.dim})")
            fname = f"{rec.video_id}.bin"
            feats.tofile(os.path.join(out_dir, fname))
            fh.write(json.dumps({"video_id": rec.video_id,
                                 "class_id": rec.class_id,
                                 "split": rec.split,
                                 "feature_file": fname,
                                 "T": rec.frames, "D": rec.dim}) + "\n")
    write_prompts(os.path.join(out_dir, "prompts.bin"), prompts)
    return index_path


# ---------------------------------------------------------------------------
# synthetic encoder


@dataclass(frozen=True)
class SyntheticConfig:
    """Deterministic stand-in for a frozen visual/text encoder pair.

    static mode: every video of a class is the class prototype plus frame
    noise, and the prompt IS the prototype, so classes are linearly
    separable and prompt-aligned.

    permuted mode: all classes share one multiset of base frames (a large
    common component plus per-slot deltas) arranged in a class-specific
    order. Frame means are identical across classes; only temporal order
    distinguishes them, which isolates the motion pathway.
    """

    num_classes: int
    dim: int
    frames: int = 8
    scale: float = 1.0
    sigma: float = 0.3
    mode: str = "static"
    seed: int = 0
    common_ratio: float = 8.0

    def __post_init__(self):
        if self.mode not in ("static", "permuted"):
            raise ConfigError(f"unknown synthetic mode {self.mode!r}")
        for name in ("scale", "sigma", "common_ratio"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ConfigError(f"{name} must be finite, got {value}")
        if self.sigma < 0:
            raise ConfigError(f"negative noise sigma {self.sigma}")
        if self.num_classes < 1 or self.dim < 1 or self.frames < 1:
            raise ConfigError("num_classes, dim, frames must be positive")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")


def _prototypes(cfg: SyntheticConfig, class_ids) -> np.ndarray:
    """(len(class_ids), D) float32 prototypes, row i drawn from the
    stream keyed by (seed, prototype tag, ``class_ids[i]``)."""
    protos = keyed_normals(key_digests(class_ids, cfg.seed, _PROTO_TAG),
                           cfg.dim)
    protos *= cfg.scale
    return protos


def class_prototype(cfg: SyntheticConfig, class_id: int) -> np.ndarray:
    return _prototypes(cfg, [class_id])[0]


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


@functools.lru_cache(maxsize=32)
def _base_frames(cfg: SyntheticConfig) -> np.ndarray:
    """The (T, D) clean frames of permuted mode, read-only: the cache
    hands the one array to every caller."""
    frames = KeyedStream(cfg.seed, _BASE_TAG, 1).normal(cfg.frames * cfg.dim)
    frames *= cfg.scale
    common = KeyedStream(cfg.seed, _BASE_TAG, 0).normal(cfg.dim)
    common *= cfg.common_ratio * cfg.scale
    return _read_only(frames.reshape(cfg.frames, cfg.dim) + common)


@functools.lru_cache(maxsize=32)
def _permutations(cfg: SyntheticConfig) -> tuple:
    """Distinct frame orders per class, a deterministic walk of adjacent
    transpositions from a random base order, as a tuple of read-only
    arrays: the cache hands them to every caller.

    Keeping class orders a few swaps apart makes raw-frame margins between
    classes narrow while the corresponding frame differences flip hard,
    which is exactly the regime the motion pathway is meant for."""
    if cfg.frames == 1 and cfg.num_classes > 1:
        raise ConfigError(f"cannot find {cfg.num_classes} distinct orders "
                          f"of 1 frame")
    current = np.argsort(KeyedStream(cfg.seed, _PERM_TAG, 0).uniform(
        cfg.frames), kind="stable")
    seen = {tuple(current)}
    orders = [current.copy()]
    for cid in range(1, cfg.num_classes):
        stream = KeyedStream(cfg.seed, _PERM_TAG, cid)
        for attempt in range(10_000):
            pos = int(stream.uniform(1)[0] * (cfg.frames - 1))
            current[[pos, pos + 1]] = current[[pos + 1, pos]]
            if tuple(current) not in seen:
                break
        else:
            raise ConfigError(f"cannot find {cfg.num_classes} distinct orders "
                              f"of {cfg.frames} frames")
        seen.add(tuple(current))
        orders.append(current.copy())
    return tuple(_read_only(order) for order in orders)


def _prompts(cfg: SyntheticConfig, class_ids) -> np.ndarray:
    """(len(class_ids), D) float32 class prompts: the prototypes in static
    mode, else row i drawn from the stream keyed by (seed, prompt tag,
    ``class_ids[i]``)."""
    if cfg.mode == "static":
        return _prototypes(cfg, class_ids)
    return keyed_normals(key_digests(class_ids, cfg.seed, _PROMPT_TAG),
                         cfg.dim)


def class_prompt(cfg: SyntheticConfig, class_id: int) -> np.ndarray:
    return _prompts(cfg, [class_id])[0]


def _class_videos(cfg: SyntheticConfig, class_id: int, instances,
                  prompt: np.ndarray) -> np.ndarray:
    """(len(instances), T, D) float32 features of a class's videos: sigma
    times each video's noise, drawn from the stream keyed by (seed, frame
    tag, class, ``instances[v]``), all in one ``keyed_normals`` call, plus
    the clean frames every video of the class shares. Those are the
    prompt, which is the prototype, in every frame in static mode, and
    the base frames in the class's order in permuted mode."""
    digests = key_digests(instances, cfg.seed, _FRAME_TAG, class_id)
    feats = keyed_normals(digests, cfg.frames * cfg.dim).reshape(
        len(digests), cfg.frames, cfg.dim)
    feats *= cfg.sigma
    if cfg.mode == "static":
        feats += prompt
    else:
        feats += _base_frames(cfg)[_permutations(cfg)[class_id]]
    return feats


def synth_encode(cfg: SyntheticConfig, class_id: int,
                 instance_seed: int) -> np.ndarray:
    """Features of one synthetic video, deterministic in all arguments."""
    if not 0 <= class_id < cfg.num_classes:
        raise DataError(f"class {class_id} outside 0..{cfg.num_classes - 1}")
    return _class_videos(cfg, class_id, [instance_seed],
                         class_prompt(cfg, class_id))[0]


def split_classes(num_classes: int, fractions=(0.5, 0.25, 0.25)) -> dict:
    """Partition class ids into train/val/test by fraction (train gets the
    rounding remainder)."""
    if not all(math.isfinite(f) and f >= 0 for f in fractions):
        raise ConfigError(f"split fractions must be finite and >= 0, "
                          f"got {fractions}")
    n_val = round(num_classes * fractions[1])
    n_test = round(num_classes * fractions[2])
    n_train = num_classes - n_val - n_test
    if n_train < 1:
        raise ConfigError(f"split fractions {fractions} leave no training "
                          f"classes out of {num_classes}")
    ids = list(range(num_classes))
    return {"train": ids[:n_train],
            "val": ids[n_train:n_train + n_val],
            "test": ids[n_train + n_val:]}


def build_synthetic_manifest(cfg: SyntheticConfig, videos_per_class: int,
                             fractions=(0.5, 0.25, 0.25)) -> DatasetManifest:
    """In-memory manifest over the synthetic encoder.

    Video v of a class has instance seed v, and its features equal
    ``synth_encode``'s; a class's videos are drawn together.
    """
    splits = split_classes(cfg.num_classes, fractions)
    prompts = _prompts(cfg, range(cfg.num_classes))
    records = []
    for split, ids in splits.items():
        for cid in ids:
            feats = _class_videos(cfg, cid, range(videos_per_class),
                                  prompts[cid])
            for v in range(videos_per_class):
                records.append(VideoRecord(
                    video_id=f"c{cid:03d}_v{v:03d}", class_id=cid, split=split,
                    frames=cfg.frames, dim=cfg.dim, _features=feats[v]))
    return DatasetManifest(records, dict(enumerate(prompts)))


# ---------------------------------------------------------------------------
# episodes


@dataclass
class EpisodeBatch:
    """One N-way K-shot P-query task.

    ``support[c]`` holds K records and ``query[c]`` holds P records for
    episode class index c; ``class_ids[c]`` is the global class id and
    ``prompts[c]`` its prompt embedding.
    """

    way: int
    shot: int
    queries_per_class: int
    class_ids: list
    support: list
    query: list
    prompts: list


def sample_episode(manifest: DatasetManifest, rng: KeyedStream,
                   way: int, shot: int, queries_per_class: int,
                   split: str) -> EpisodeBatch:
    """Uniform episode draw: classes without replacement, then K+P videos
    without replacement per class (first K support, rest query).

    One draw of iid uniforms from ``rng`` decides the episode, each pick
    being the first positions of a stable argsort: the first C uniforms
    rank the split's C classes, and row c of the next ``way`` rows of W
    (W the most videos of any class in the split) ranks the videos of
    picked class c, a class with fewer videos using the start of its
    row. A split with fewer than ``way`` classes, or a picked class with
    fewer than K+P videos, raises ProtocolError.
    """
    classes = manifest.classes_in(split)
    if len(classes) < way:
        raise ProtocolError(f"need {way} classes in split {split!r}, "
                            f"have {len(classes)}")
    width = manifest._widest[split]
    draws = rng.uniform(len(classes) + way * width)
    order = np.argsort(draws[:len(classes)], kind="stable")
    picked = [classes[i] for i in order[:way].tolist()]
    need = shot + queries_per_class
    pools = [manifest.videos_of(split, cid) for cid in picked]
    rows = draws[len(classes):].reshape(way, width)
    for c, (cid, vids) in enumerate(zip(picked, pools)):
        if len(vids) < need:
            raise ProtocolError(f"class {cid} has {len(vids)} videos in "
                                f"{split!r}, need {need}")
        if len(vids) < width:
            rows[c, len(vids):] = 2.0        # past every uniform
    ranks = np.argsort(rows, axis=1, kind="stable")[:, :need].tolist()
    support, query, prompts = [], [], []
    for cid, vids, rank in zip(picked, pools, ranks):
        chosen = [vids[i] for i in rank]
        support.append(chosen[:shot])
        query.append(chosen[shot:])
        prompts.append(manifest.prompts[cid])
    return EpisodeBatch(way=way, shot=shot, queries_per_class=queries_per_class,
                        class_ids=picked, support=support, query=query,
                        prompts=prompts)
