"""The scripts under scripts/ still run against the package API."""
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("argv, first_line", [
    (["channel_sizing.py"], "arrival peak at 8.396 ms, minimum usable slot 13.016 ms"),
    (["isi_profile.py", "--samples", "100000"], "memory 3, oracle on 100000 stream bits"),
], ids=["channel_sizing", "isi_profile"])
def test_script_runs(argv, first_line):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / argv[0]), *argv[1:]],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[0] == first_line
