import csv
import os
import subprocess
import sys
from pathlib import Path

_ROOT = Path(__file__).resolve().parents[1]


def test_run_verification_prints_every_constant(tmp_path):
    out = tmp_path / "verification"
    env = dict(os.environ, PYTHONPATH=str(_ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, str(_ROOT / "scripts" / "run_verification.py"),
         "--levels", "1", "--out", str(out)],
        env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    with open(out / "constants.csv", newline="") as fh:
        names = {row["inequality"] for row in csv.DictReader(fh)}
    table = {line.split()[0] for line in proc.stdout.splitlines()[1:]}
    assert names and names <= table
