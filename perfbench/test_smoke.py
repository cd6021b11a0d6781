"""Smoke test of the benchmark: a one-second run of every workload.

Checks that each run exits cleanly, passes its own output checks, and
reports every metric named in BENCHMARK.json and in perfbench/README.md
with a unit. Run from the repository root:

    python3 -m pytest -q perfbench/test_smoke.py
"""

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

# metrics printed on the workloads where they exist
NAMED = {
    "train": ["setup_s", "train_step_ms.p50", "train_step_ms.p90",
              "peak_rss_mb", "error_rate", "train_loss_end"],
    "eval": ["setup_s", "eval_episodes_per_s", "peak_rss_mb", "error_rate",
             "eval_accuracy"],
}
LINE = re.compile(r"^(\S+)\s+(\S+)\s+(\S+)$")


def run(workload: str, trace: int):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    printed = {m.group(1): m.group(3) for m in map(LINE.match, lines[:-1])
               if m}
    return json.loads(lines[-1]), printed, proc.stdout


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_metric_present_with_unit(workload, trace):
    result, printed, stdout = run(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, stdout
    assert result["failed"] == 0 and result["attempted"] >= 1
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in wanted}
    for m in wanted:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"], m["name"]
        assert isinstance(got["value"], (int, float)), m["name"]
    for name in NAMED["train" if workload.startswith("train") else "eval"]:
        assert printed.get(name), f"{name} not printed with a unit"
    assert "not reached" not in stdout


def test_bare_directory_fails_without_result(tmp_path):
    """Without the program's sources the benchmark refuses to run."""
    (tmp_path / "perfbench").mkdir()
    for path in HERE.glob("*.py"):
        (tmp_path / "perfbench" / path.name).write_bytes(path.read_bytes())
    (tmp_path / "BENCHMARK.json").write_bytes(
        (ROOT / "BENCHMARK.json").read_bytes())
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload",
         SPEC["workloads"][0]["name"], "--seed", "1", "--seconds", "1",
         "--trace", "0"], cwd=tmp_path, capture_output=True, text=True,
        timeout=170)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
