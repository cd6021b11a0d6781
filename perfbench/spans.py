"""In-memory span tracing around the public functions of cpm2c.

A ``Tracer`` replaces a function at the name its caller binds (for
example ``cpm2c.model.motion_features``, not ``cpm2c.motion``'s own
name) with a wrapper that records one span per call: name, start, end
and the enclosing span. Spans stay in memory until the run ends. A
layer's self time is the duration of its spans minus the time their
child spans cover. The tracer assumes one thread: the benchmark runs
evaluation with ``workers=1``.

``install_layers`` wraps every layer the benchmark reports; each layer
may also bump counters before the call (matrices aligned, videos
enhanced, tape nodes, fake tokens drawn and used).
"""

from __future__ import annotations

import functools
import json
import time
from collections import Counter, defaultdict


class Tracer:
    """Span lists (parallel by index), counters and the patches to undo."""

    def __init__(self):
        self.names: list = []
        self.starts: list = []
        self.ends: list = []
        self.parents: list = []
        self.counters: Counter = Counter()
        self.episode = (0, True)     # (support videos, losses computed)
        self._stack: list = []
        self._patches: list = []

    def wrap(self, owner, attr: str, name: str, before=None) -> None:
        """Replace ``owner.attr`` with a span-recording wrapper."""
        original = getattr(owner, attr)
        names, starts, ends, parents = (self.names, self.starts, self.ends,
                                        self.parents)
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            if before is not None:
                before(self, args, kwargs)
            idx = len(names)
            names.append(name)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                return original(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()

        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def remove(self) -> None:
        """Put every wrapped name back as it was."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def summary(self):
        """(self seconds, calls) per span name, and the root spans' total."""
        durations = [e - s for s, e in zip(self.starts, self.ends)]
        self_s = list(durations)
        root_s = 0.0
        for i, parent in enumerate(self.parents):
            if parent < 0:
                root_s += durations[i]
            else:
                self_s[parent] -= durations[i]
        totals: dict = defaultdict(float)
        calls: Counter = Counter(self.names)
        for name, value in zip(self.names, self_s):
            totals[name] += value
        return totals, calls, root_s

    def write(self, path) -> None:
        """Dump the spans: start and end in microseconds from the first."""
        ids = {name: i for i, name in enumerate(dict.fromkeys(self.names))}
        t0 = self.starts[0] if self.starts else 0.0
        rows = [[ids[n], round((s - t0) * 1e6, 1), round((e - t0) * 1e6, 1), p]
                for n, s, e, p in zip(self.names, self.starts, self.ends,
                                      self.parents)]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"names": list(ids), "fields": ["name", "start_us",
                                                      "end_us", "parent"],
                       "spans": rows}, fh, separators=(",", ":"))


# ---------------------------------------------------------------------------
# the layers of cpm2c, at the names their callers bind


def _episode(tr, args, kwargs):
    episode = args[1]
    tr.episode = (episode.way * episode.shot,
                  kwargs.get("compute_losses", True))


def _fake_token(tr, args, kwargs):
    support, with_losses = tr.episode
    video_index = args[3] if len(args) > 3 else kwargs["video_index"]
    # with losses every video runs under its fake token; without, only
    # the queries (video index past the supports) reach a distance
    tr.counters["fake_token.useful"] += with_losses or video_index >= support


def _otam(tr, args, kwargs):
    C = args[0]
    tr.counters["otam_distance.matrices"] += C.shape[0] if C.ndim == 3 else 1


def _enhance(tr, args, kwargs):
    tr.counters["feature_enhance_batch.videos"] += args[1].shape[0]


def _backward(tr, args, kwargs):
    tr.counters["tape_nodes"] += len(args[0].tape)


def layer_table(cpm2c):
    """(owner, attribute, span name, counter hook) for every traced layer."""
    cpm, metric, model, nn, objective, runner, tensor = (
        cpm2c.cpm, cpm2c.metric, cpm2c.model, cpm2c.nn, cpm2c.objective,
        cpm2c.runner, cpm2c.tensor)
    return [
        (runner, "train", "runner.train", None),
        (runner, "evaluate", "runner.evaluate", None),
        (runner, "sample_episode", "data.sample_episode", None),
        (runner, "episode_forward", "model.episode_forward", _episode),
        (cpm, "fake_token", "cpm.fake_token", _fake_token),
        (cpm, "feature_enhance_batch", "cpm.feature_enhance_batch", _enhance),
        (model, "motion_features", "motion.motion_features", None),
        (metric, "cost_matrix", "metric.cost_matrix", None),
        (metric, "otam_distance", "metric.otam_distance", _otam),
        (objective, "task_loss", "objective.task_loss", None),
        (objective, "dam_loss", "objective.dam_loss", None),
        (tensor, "backward", "tensor.backward", _backward),
        (nn.Adam, "step", "nn.Adam.step", None),
    ]


def install_layers(tracer: Tracer, cpm2c) -> list:
    """Wrap every layer; returns the span names in table order."""
    table = layer_table(cpm2c)
    for owner, attr, name, hook in table:
        tracer.wrap(owner, attr, name, hook)
    return [name for _, _, name, _ in table]
