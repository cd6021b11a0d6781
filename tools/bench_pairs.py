"""Paired benchmark runs of a parent commit against the working tree.

For each workload, runs ``perfbench/run.py`` (unchanged, ``--trace 0``)
alternately on a copy of the parent commit's files and on the working
tree, ``--pairs`` times at ``--seconds`` each. Pair i runs both sides at
seed ``--seed + i``; even pairs run the parent first and odd pairs the
working tree first, so a drift in machine load does not favour one side.
The parent's files are extracted with ``git archive`` into ``--workdir``,
and each side runs the ``perfbench/`` and ``src/`` of its own tree.

Run from the root of a checkout:

    python3 tools/bench_pairs.py --parent HEAD --workdir /tmp/bench \
        --pairs 10 --seconds 35 --out BENCH.json

The output JSON holds the machine (``nproc``, the BLAS vendor and
thread count that perfbench reports), the parent commit, and per
workload and end-to-end metric: the per-pair values of both sides, each
side's median and quartiles, the parent's interquartile range, and how
many pairs the working tree won, lost and tied. Every run's output
checks are kept as well. A run whose checks fail, or which fails to
report, is recorded and counted in ``failed_runs``.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def extract(rev: str, dest: Path) -> str:
    """Write the files of ``rev`` to ``dest``; returns its full hash."""
    commit = subprocess.run(["git", "rev-parse", rev], cwd=ROOT, check=True,
                            capture_output=True, text=True).stdout.strip()
    if dest.exists():
        shutil.rmtree(dest)
    dest.mkdir(parents=True)
    archive = subprocess.run(["git", "archive", commit], cwd=ROOT,
                             check=True, capture_output=True).stdout
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive, check=True)
    return commit


def run_once(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """One untraced perfbench run: its environment line, checks and
    end-to-end metrics."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, capture_output=True, text=True)
    lines = proc.stdout.splitlines()
    env = next((json.loads(line[4:]) for line in lines
                if line.startswith("env ")), None)
    checks = [line for line in lines if line.startswith("check ")]
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        return {"seed": seed, "env": env, "checks": checks,
                "correct": False, "returncode": proc.returncode,
                "stderr": proc.stderr[-2000:], "metrics": {}}
    return {"seed": seed, "env": env, "checks": checks,
            "correct": bool(result["correct"]) and proc.returncode == 0,
            "metrics": {name: m["value"]
                        for name, m in result["metrics"].items()}}


def quartiles(values: list) -> tuple:
    if len(values) < 2:
        return (values[0], values[0]) if values else (None, None)
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q3


def summarize(pairs: list, metric: dict) -> dict:
    """Per-pair values, medians, quartiles and wins of one metric."""
    name, lower = metric["name"], metric["better"] == "lower"
    parent = [p["parent"]["metrics"].get(name) for p in pairs]
    change = [p["change"]["metrics"].get(name) for p in pairs]
    both = [(a, b) for a, b in zip(parent, change)
            if a is not None and b is not None]
    wins = sum((b < a) if lower else (b > a) for a, b in both)
    ties = sum(b == a for a, b in both)
    out = {"unit": metric["unit"], "better": metric["better"],
           "bound": metric.get("bound"), "parent": parent, "change": change,
           "wins": wins, "losses": len(both) - wins - ties, "ties": ties}
    for side, values in (("parent", [a for a, _ in both]),
                         ("change", [b for _, b in both])):
        if values:
            q1, q3 = quartiles(values)
            out[f"{side}_median"] = statistics.median(values)
            out[f"{side}_q1"], out[f"{side}_q3"] = q1, q3
    if both:
        out["parent_iqr"] = out["parent_q3"] - out["parent_q1"]
        out["median_change_pct"] = (
            (out["change_median"] / out["parent_median"] - 1.0) * 100.0
            if out["parent_median"] else None)
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--parent", default="HEAD",
                        help="git revision to compare against")
    parser.add_argument("--workdir", required=True,
                        help="directory for the parent's files")
    parser.add_argument("--workload", action="append",
                        help="workload name (repeatable; default: all)")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    if args.pairs < 1 or not args.seconds > 0:
        parser.error("--pairs must be >= 1 and --seconds positive")

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    parent_tree = Path(args.workdir).resolve() / "parent"
    commit = extract(args.parent, parent_tree)
    sides = {"parent": parent_tree, "change": ROOT}

    record = {"parent": commit, "pairs": args.pairs,
              "seconds": args.seconds, "seed": args.seed, "workloads": {}}
    env = None
    for workload in workloads:
        pairs = []
        for i in range(args.pairs):
            order = ("parent", "change") if i % 2 == 0 else ("change",
                                                            "parent")
            pair = {"seed": args.seed + i, "first": order[0]}
            for side in order:
                t0 = time.perf_counter()
                pair[side] = run_once(sides[side], workload, args.seed + i,
                                      args.seconds)
                env = env or pair[side]["env"]
                print(f"{workload} pair {i} {side}: "
                      f"{pair[side]['metrics']} correct="
                      f"{pair[side]['correct']} "
                      f"({time.perf_counter() - t0:.0f} s)", flush=True)
            pairs.append(pair)
        record["workloads"][workload] = {
            "metrics": {m["name"]: summarize(pairs, m)
                        for m in spec["end_to_end"]},
            "failed_runs": {side: sum(not p[side]["correct"] for p in pairs)
                            for side in sides},
            "checks": {side: [p[side]["checks"] for p in pairs]
                       for side in sides},
        }
    env = env or {}
    record["environment"] = {key: env.get(key) for key in (
        "nproc", "affinity_cpus", "blas", "blas_threads", "numpy", "python",
        "machine")}
    Path(args.out).write_text(json.dumps(record, indent=1) + "\n",
                              encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
