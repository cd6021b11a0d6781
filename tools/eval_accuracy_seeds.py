"""Init-model evaluation accuracy of the eval-5w5s-d64 workload per seed.

``perfbench/run.py`` checks that the accuracy of an untrained model on
the ``eval-5w5s-d64`` workload lies in a band: within 3.29 seed standard
deviations of a reference mean, widened by the run's own 95% sampling
interval. This script reads the workload, the reference and the band
rule from ``perfbench/run.py`` by path, unchanged, and applies them to a
range of seeds. For each seed it builds the manifest, run config and
initial model as the benchmark does (``setup``), scores ``--blocks``
blocks of 200 episodes as the benchmark's evaluation segment does
(``eval_segment``), and applies the benchmark's own accuracy check
(``eval_checks``).

Run from the root of a checkout:

    python3 tools/eval_accuracy_seeds.py --seeds 0-119 --blocks 20 \
        --out scan.json

The JSON holds the commit, the band (reference, seed sd, the rule, and
its limits for a run of many blocks, where the sampling term vanishes),
the number of blocks and queries per seed, the accuracy of every seed,
their mean and standard deviation, the seeds outside the band at this
scan's query count, each with its accuracy and the check's message, and
the seeds outside the limits. A 35-second benchmark run scores hundreds
of blocks, so its band is close to the limits.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PERFBENCH = ROOT / "perfbench"
WORKLOAD = "eval-5w5s-d64"


def load_perfbench():
    """perfbench's run module, loaded by path. run.py imports ``spans``
    and its dataclasses look their module up, so both are registered."""
    modules = {}
    for name, path in (("spans", PERFBENCH / "spans.py"),
                       ("perfbench_run", PERFBENCH / "run.py")):
        spec = importlib.util.spec_from_file_location(name, path)
        modules[name] = importlib.util.module_from_spec(spec)
        sys.modules[name] = modules[name]
        spec.loader.exec_module(modules[name])
    return modules["perfbench_run"]


def parse_seeds(text: str) -> list:
    """"0-119" or "3,7,19" (or a mix) as a sorted list of seeds."""
    seeds = set()
    for item in text.split(","):
        lo, sep, hi = item.partition("-")
        seeds.update(range(int(lo), int(hi) + 1) if sep else [int(lo)])
    return sorted(seeds)


def commit() -> str | None:
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                          capture_output=True, text=True)
    return proc.stdout.strip() or None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seeds", default="0-119",
                        help='seed range and list, e.g. "0-119" or "3,19"')
    parser.add_argument("--blocks", type=int, default=20,
                        help="blocks of 200 episodes scored per seed")
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    if args.blocks < 1:
        parser.error("--blocks must be >= 1")

    run = load_perfbench()
    cpm2c = run.load_cpm2c()
    wl = run.WORKLOADS[WORKLOAD]
    per_seed, outside = {}, []
    for seed in parse_seeds(args.seeds):
        manifest, cfg, mdl = run.setup(cpm2c, wl, seed)
        seg = run.eval_segment(cpm2c, manifest, cfg, mdl, blocks=args.blocks)
        if seg.failed:
            raise SystemExit(f"seed {seed}: {seg.failed} episodes failed")
        metrics = {}
        (ok, message), = [check for check in run.eval_checks(seg, seg,
                                                              metrics)
                          if "eval accuracy" in check[1]]
        acc = metrics["eval_accuracy"][0]
        per_seed[seed] = acc
        if not ok:
            outside.append({"seed": seed, "accuracy": acc,
                            "check": message})
        print(f"seed {seed}: {acc:.4f}{'' if ok else '  OUTSIDE'}",
              flush=True)

    values = list(per_seed.values())
    sd = run.EVAL_ACCURACY_SEED_SD
    limits = (run.EVAL_ACCURACY_REF - 3.29 * sd,
              run.EVAL_ACCURACY_REF + 3.29 * sd)
    record = {
        "commit": commit(),
        "workload": WORKLOAD,
        "band": {"reference": run.EVAL_ACCURACY_REF,
                 "seed_sd": sd,
                 "rule": "|accuracy - reference| <= 3.29 * seed_sd + "
                         "1.96 * sqrt(accuracy * (1 - accuracy) / "
                         "queries)",
                 "limits": list(limits)},
        "blocks": args.blocks,
        "queries_per_seed": seg.queries,
        "accuracy": {str(seed): acc for seed, acc in per_seed.items()},
        "mean": statistics.fmean(values),
        "sd": statistics.stdev(values) if len(values) > 1 else 0.0,
        "outside": outside,
        "outside_limits": [seed for seed, acc in per_seed.items()
                           if not limits[0] <= acc <= limits[1]],
    }
    Path(args.out).write_text(json.dumps(record, indent=1) + "\n",
                              encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
