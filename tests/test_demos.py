import os
import subprocess
import sys
from pathlib import Path

import pytest

import fanokit

DEMOS = sorted((Path(__file__).parents[1] / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=[d.stem for d in DEMOS])
def test_demo_runs(demo):
    # the demos import fanokit from wherever this test run found it
    package_root = str(Path(fanokit.__file__).parents[1])
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=package_root + (os.pathsep + path if path else ""))
    proc = subprocess.run([sys.executable, str(demo)], capture_output=True, text=True,
                          timeout=120, env=env)
    assert proc.returncode == 0, proc.stderr
