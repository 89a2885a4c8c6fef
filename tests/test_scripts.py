import csv
import importlib.util
import os
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

from sthdg.adapt import StudyRecord

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


def test_ladder_records_each_cycle_in_run_order(monkeypatch):
    # run_ladder.py imports perfbench/child.py through a sys.path entry
    monkeypatch.setattr(sys, "path", list(sys.path))
    spec = importlib.util.spec_from_file_location(
        "run_ladder", _ROOT / "scripts" / "run_ladder.py")
    run_ladder = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(run_ladder)
    records = run_ladder.ladder("h", 3)
    assert [rec["cycle"] for rec in records] == [0, 1, 2]
    phases = ["assemble", "solve", "estimate", "norms", "refine"]
    for rec in records:
        assert list(rec) == [f.name for f in fields(StudyRecord)]
        assert list(rec["phase_s"]) == list(rec["phase_maxrss_mb"]) == phases
        rss = list(rec["phase_maxrss_mb"].values())
        assert rss == sorted(rss) and rec["maxrss_mb"] == rss[-1]
