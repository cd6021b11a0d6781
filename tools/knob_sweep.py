"""Accuracy and step-time sweep over run settings.

Trains 5-way 1-shot on order-only (permuted) synthetic data at D=64
(window 4, mean consistency reduction, lr 1e-3), once per seed and per
setting, then scores the trained model on 5-way 5-shot episodes of the
test split's unseen classes. A setting is a set of ``RunConfig`` field
overrides, so the script runs on whatever fields the checkout has. The
default setting (no overrides) always runs first.

Run from the root of a checkout:

    PYTHONPATH=src python3 tools/knob_sweep.py --out tools/knob_sweep.json \
        --steps 500 --seeds 0,1,2 --setting gamma=0.05 \
        --setting window=2,lr=2e-3

Each ``--setting`` is a comma-separated list of ``field=value``
overrides; values are read as JSON where they parse (``true``, ``4``,
``0.05``) and as strings otherwise. Each call appends one sweep record
to ``--out``: the checkout's commit, the machine's core count, the data
and base run settings, and per seed and setting the 5w5s accuracy with
its 95% interval and the median wall time of a training step.
"""

from __future__ import annotations

import argparse
import dataclasses
import io
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from cpm2c import data, runner

DATA = dict(num_classes=20, dim=64, frames=8, scale=1.0, sigma=0.3,
            mode="permuted", seed=0, common_ratio=12.0)
VIDEOS_PER_CLASS = 30
FRACTIONS = (0.3, 0.2, 0.5)
BASE_RUN = dict(way=5, shot=1, queries=1, window=4, lr=1e-3,
                consistency_reduction="mean", log_every=10 ** 9)
EVAL_SHOT = 5


def parse_setting(text: str) -> dict:
    overrides = {}
    for item in text.split(","):
        key, sep, raw = item.partition("=")
        if not sep:
            raise SystemExit(f"setting {text!r}: expected field=value")
        try:
            overrides[key.strip()] = json.loads(raw)
        except json.JSONDecodeError:
            overrides[key.strip()] = raw.strip()
    return overrides


def setting_name(overrides: dict) -> str:
    if not overrides:
        return "default"
    return ",".join(f"{k}={json.dumps(v)}" for k, v in overrides.items())


def checkout_commit() -> str:
    """HEAD of the checkout that provides ``cpm2c``, marked if src/ is dirty."""
    src = Path(runner.__file__).resolve().parent
    try:
        head = subprocess.run(["git", "rev-parse", "HEAD"], cwd=src,
                              capture_output=True, text=True, check=True)
        dirty = subprocess.run(["git", "status", "--porcelain", "."],
                               cwd=src, capture_output=True, text=True,
                               check=True)
    except (OSError, subprocess.CalledProcessError):
        return "unknown"
    return head.stdout.strip() + ("+dirty" if dirty.stdout.strip() else "")


def run_one(manifest, overrides: dict, seed: int, steps: int,
            episodes: int) -> dict:
    cfg = runner.RunConfig(**{**BASE_RUN, **overrides, "seed": seed,
                              "steps": steps})
    result = runner.train(manifest, cfg, log=io.StringIO())
    walls = [0.0] + [row["wall"] for row in result.history]
    step_ms = statistics.median(b - a for a, b in zip(walls, walls[1:])) \
        * 1e3
    scoring = dataclasses.replace(cfg, eval_split="test", shot=EVAL_SHOT)
    res = runner.evaluate(manifest, result.model, scoring, episodes=episodes,
                          workers=1)
    return {"seed": seed, "accuracy": round(res.accuracy, 4),
            "ci95": [round(res.accuracy - res.half_width, 4),
                     round(res.accuracy + res.half_width, 4)],
            "correct": res.correct, "queries": res.total_queries,
            "step_ms": round(step_ms, 2),
            "eval_ms_per_episode": round(res.wall_time / episodes * 1e3, 3)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", required=True, metavar="JSON")
    parser.add_argument("--steps", type=int, default=500)
    parser.add_argument("--seeds", default="0,1,2")
    parser.add_argument("--episodes", type=int, default=600,
                        help="5w5s test episodes scored per run")
    parser.add_argument("--setting", action="append", default=[],
                        metavar="FIELD=VALUE[,...]")
    args = parser.parse_args(argv)
    seeds = [int(s) for s in args.seeds.split(",")]
    settings = [{}] + [parse_setting(s) for s in args.setting]

    manifest = data.build_synthetic_manifest(
        data.SyntheticConfig(**DATA), videos_per_class=VIDEOS_PER_CLASS,
        fractions=FRACTIONS)
    rows = []
    for overrides in settings:
        runs = []
        for seed in seeds:
            t0 = time.perf_counter()
            run = run_one(manifest, overrides, seed, args.steps,
                          args.episodes)
            runs.append(run)
            print(f"{setting_name(overrides):<28} seed {seed}: accuracy "
                  f"{run['accuracy']:.4f} {run['ci95']}, step "
                  f"{run['step_ms']:.1f} ms ({time.perf_counter() - t0:.0f}"
                  f" s)", flush=True)
        rows.append({"setting": setting_name(overrides),
                     "overrides": overrides,
                     "mean_accuracy": round(float(np.mean(
                         [r["accuracy"] for r in runs])), 4),
                     "median_step_ms": round(statistics.median(
                         r["step_ms"] for r in runs), 2),
                     "runs": runs})

    record = {"commit": checkout_commit(), "nproc": os.cpu_count(),
              "numpy": np.__version__, "command": sys.argv[1:],
              "data": {**DATA, "videos_per_class": VIDEOS_PER_CLASS,
                       "fractions": list(FRACTIONS)},
              "train": {**BASE_RUN, "steps": args.steps},
              "eval": {"split": "test", "way": BASE_RUN["way"],
                       "shot": EVAL_SHOT, "queries": BASE_RUN["queries"],
                       "episodes": args.episodes},
              "seeds": seeds, "settings": rows}
    out = Path(args.out)
    sweeps = json.loads(out.read_text())["sweeps"] if out.exists() else []
    out.write_text(json.dumps({"sweeps": sweeps + [record]}, indent=1)
                   + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
