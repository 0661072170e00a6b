"""Every demo script runs to the end, a top-level name it imports can't
vanish, and each prints what it printed before, byte for byte."""
import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

# sha256 of each demo's stdout; a change that means to move a demo's
# output updates its digest and states the drift
STDOUT_DIGESTS = {
    "01_projection_geometry": "825d12520daf9b5e0c68764a313c7f865794f1c106c310f27b4f2e9016d44e12",
    "02_queueing_validation": "5052ddd6d154a97c6744c99b4e6ff961f1d8cb50c155609fe694bfb4b32b8b39",
    "03_reconfiguration_run": "364e4c909f31a7ebc960d929b4bd198f4855885eea1ff66137539f1a2d4b6212",
    "04_baseline_comparison": "e594eec14fc9f43a4fa7f6b7dbd3e6283a4c3acc47df065b6e3b175da3572cde",
}


@pytest.mark.parametrize("demo", sorted((ROOT / "demos").glob("*.py")), ids=lambda p: p.stem)
def test_demo_exits_0(demo):
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, str(demo)], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": path}, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip()
    assert hashlib.sha256(proc.stdout.encode()).hexdigest() == STDOUT_DIGESTS[demo.stem]
