"""The quick demos run to completion as scripts and print what they claim.

Demo 05 trains for about a minute and is left to be run by hand.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = ["01_autodiff_tape.py", "02_consistency_prototypes.py",
         "03_motion_compensation.py", "04_temporal_alignment.py"]
# a line each demo must print: the outcome of the check it narrates
CLAIMS = {"02_consistency_prototypes.py": "prototype == mean   True",
          "03_motion_compensation.py": "rows reversed = True",
          "04_temporal_alignment.py": "same bits = True"}


@pytest.mark.parametrize("name", DEMOS)
def test_demo_exits_cleanly(name):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, str(ROOT / "demos" / name)],
                          cwd=ROOT, env=env, capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert CLAIMS.get(name, "") in proc.stdout, proc.stdout[-2000:]
