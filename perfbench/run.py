"""End-to-end and per-layer benchmark of the sthdg command line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Each measured run is one `sthdg study` or
`sthdg verify` command in a fresh single-threaded child process
(`child.py`), started one after another until S seconds are used.  Every
run's outputs are checked against the references in `perfbench/refs`.
The last line of standard output is one JSON object:

- `--trace 0`: median `run_s`, `setup_s` and `peak_rss_mb` over the runs;
- `--trace 1`: untraced and traced runs alternate; the per-layer metrics
  are medians over the traced runs, `trace.overhead_s` is the traced minus
  the untraced median `run_s`, and `host.probe_s` is the median host-speed
  probe of all runs (`child.py`), so that runs made in different phases of
  the host's speed can be told apart.

`attempted` and `failed` count runs; `failed_frac` = failed / attempted is
printed with the summary.  A run fails when the child exits non-zero or is
killed (for example by the OOM killer), when an output file is missing, or
when an output disagrees with its reference.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import check
from child import THREAD_VARS

HERE = Path(__file__).resolve().parent
REFS = HERE / "refs"
OUT = Path(".perfbench_out")
HARD_LIMIT_S = 165.0  # the whole benchmark must end within 180 s
RECORD_KEYS = ("run_id", "traced", "ok", "wall_s", "run_s", "setup_s",
               "peak_rss_mb", "host_probe_s", "probe_before_s", "probe_after_s")
MIN_RUNS = 2  # children per benchmark run, whatever --seconds says


@dataclass(frozen=True)
class Workload:
    args: tuple[str, ...]
    output: str  # the CSV checked against the reference

    @property
    def seeded(self) -> bool:
        """Whether --seed reaches the program (only `verify` samples)."""
        return self.args[0] == "verify"

    @property
    def vtk_cycles(self) -> int:
        """cycle_XX.vtk files the command writes: one per study cycle."""
        if self.args[0] != "study":
            return 0
        return int(self.args[self.args.index("--cycles") + 1])

    def argv(self, seed: int, out: Path) -> list[str]:
        extra = ["--seed", str(seed)] if self.seeded else []
        return list(self.args) + extra + ["--out", str(out)]

    def ref_path(self, name: str, seed: int) -> Path:
        return REFS / name / f"seed-{seed}.csv" if self.seeded else REFS / f"{name}.csv"

    def reference(self, name: str, seed: int) -> tuple[list[list[str]], set]:
        """Reference table for this seed, and its cells checked for finiteness only.

        A seed without a stored reference is compared with seed 0 in every
        cell that is the same in all stored seeds; the cells that differ
        between stored seeds depend on the seed and must only be finite
        where seed 0's are.
        """
        path = self.ref_path(name, seed)
        if path.exists() or not self.seeded:
            return check.read_csv(path), set()
        stored = [check.read_csv(p) for p in sorted(path.parent.glob("seed-*.csv"))]
        return (check.read_csv(self.ref_path(name, 0)),
                check.differing_cells(stored))


WORKLOADS = {
    # adaptive rotating pulse, policy h: the paper's headline problem and
    # the workload where the slab LU solve weighs most
    "pulse-amr-h": Workload(
        ("study", "--problem", "rotating-pulse", "--eps", "1e-3", "--dim", "2",
         "--ps", "1", "--slabs", "2", "--cells", "2", "--mode", "amr",
         "--dt-policy", "h", "--cycles", "6"),
        "study.csv"),
    # verification: two-level subgrid systems, Oswald averaging, inequality
    # and bubble constants; the only workload whose output depends on --seed
    "verify-sine1d": Workload(
        ("verify", "--problem", "sine", "--eps", "1e-2", "--dim", "1",
         "--cycles", "4"),
        "constants.csv"),
}


def environment() -> dict:
    """Machine and version facts recorded with the results."""
    import numpy
    import scipy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    commit = "unknown (not a git checkout)"
    if Path(".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], capture_output=True, text=True,
                timeout=10, check=True).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "commit": commit,
    }


def child_env() -> dict:
    env = dict(os.environ)
    env.update(dict.fromkeys(THREAD_VARS, "1"))
    src = str(Path("src").resolve())
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    return env


def run_child(name: str, wl: Workload, seed: int, trace: bool, run_id: str,
              deadline: float) -> dict:
    """One command in a fresh process; returns its record, ok or not."""
    run_dir = OUT / name / "run"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    result = run_dir / "child.json"
    cmd = [sys.executable, str(HERE / "child.py"), str(result),
           "1" if trace else "0", run_id, "--"] + wl.argv(seed, run_dir)
    rec: dict = {"run_id": run_id, "traced": trace, "ok": False}
    t0 = time.perf_counter()
    with open(run_dir / "stdout.txt", "wb") as out, \
            open(run_dir / "stderr.txt", "wb") as err:
        proc = subprocess.Popen(cmd, stdout=out, stderr=err, env=child_env())
        try:
            status = rusage = None
            while status is None:
                pid, st, ru = os.wait4(proc.pid, os.WNOHANG)
                if pid:
                    status, rusage = st, ru
                elif time.perf_counter() > deadline:
                    proc.kill()
                    _, status, rusage = os.wait4(proc.pid, 0)
                    rec["error"] = "killed at the benchmark's time limit"
                else:
                    time.sleep(0.02)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        proc.returncode = os.waitstatus_to_exitcode(status)  # reaped by wait4
    rec["wall_s"] = time.perf_counter() - t0
    rec["peak_rss_mb"] = rusage.ru_maxrss / 1024.0
    if os.WIFSIGNALED(status):
        rec.setdefault("error", f"killed by {signal.Signals(os.WTERMSIG(status)).name}")
        return rec
    if os.WEXITSTATUS(status) != 0:
        rec["error"] = f"exit code {os.WEXITSTATUS(status)}"
        return rec
    rec.update(json.loads(result.read_text()))
    if trace:
        rec["trace"]["metrics"]["vtk_io.bytes"] = sum(
            f.stat().st_size for f in run_dir.glob("*.vtk"))
    rec["error"] = check_outputs(name, wl, seed, run_dir)
    rec["ok"] = rec["error"] is None
    return rec


def check_outputs(name: str, wl: Workload, seed: int, run_dir: Path):
    """None when every output exists and matches; else the first problem."""
    expected = [wl.output, "run.json"] + [f"cycle_{c:02d}.vtk"
                                          for c in range(wl.vtk_cycles)]
    missing = [f for f in expected if not (run_dir / f).is_file()]
    if missing:
        return f"missing outputs: {missing}"
    if json.loads((run_dir / "run.json").read_text()).get("status") != "ok":
        return "run.json status is not ok"
    if not wl.ref_path(name, 0).is_file():
        return f"no reference output for {name}"
    ref, loose = wl.reference(name, seed)
    errors = check.compare(check.read_csv(run_dir / wl.output), ref, loose)
    return f"{wl.output} vs reference: {errors[:3]}" if errors else None


def median(values: list[float]) -> float:
    return statistics.median(values) if values else float("nan")


def measure(name: str, wl: Workload, seed: int, seconds: float,
            trace: bool) -> list[dict]:
    """Children one after another until `seconds` are used.

    A child starts only if the median child so far would end within the
    budget, so runs are whole, but every run makes at least MIN_RUNS
    children.  A traced run alternates untraced and traced children and
    makes at least three, starting and ending untraced, so that a steady
    drift of host speed cancels out of the overhead.
    """
    start = time.perf_counter()
    deadline = start + HARD_LIMIT_S
    records: list[dict] = []
    while True:
        traced = trace and len(records) % 2 == 1
        records.append(run_child(name, wl, seed, traced,
                                 f"{name}-{seed}-{len(records)}", deadline))
        elapsed = time.perf_counter() - start
        typical = median([r["wall_s"] for r in records])
        if elapsed + 1.2 * typical > HARD_LIMIT_S:
            return records
        if len(records) >= MIN_RUNS + trace and elapsed + typical > seconds:
            return records


def layer_metrics(records: list[dict]) -> tuple[dict, dict]:
    """Median per-layer metrics over traced children, and the last trace."""
    traced = [r for r in records if r["traced"] and "trace" in r]
    plain = [r["run_s"] for r in records if not r["traced"] and "run_s" in r]
    names = traced[-1]["trace"]["metrics"].keys()
    metrics = {k: median([r["trace"]["metrics"][k] for r in traced]) for k in names}
    metrics["trace.overhead_s"] = median([r["run_s"] for r in traced]) - median(plain)
    metrics["host.probe_s"] = median([r["host_probe_s"] for r in records
                                      if "host_probe_s" in r])
    return metrics, traced[-1]["trace"]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not Path("src/sthdg/cli.py").is_file():
        print("error: run from the root of an sthdg checkout (src/sthdg missing)",
              file=sys.stderr)
        return 2
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"]
             for m in bench["per_layer" if args.trace else "end_to_end"]}

    name, wl = args.workload, WORKLOADS[args.workload]
    env = environment()
    records = measure(name, wl, args.seed, args.seconds, bool(args.trace))
    failed = sum(not r["ok"] for r in records)
    timed = [r for r in records if "run_s" in r and not r["traced"]]
    ok = [r for r in timed if r["ok"]] or timed
    if not ok or (args.trace and not any("trace" in r for r in records)):
        print(f"error: no run of {name} completed; first error: "
              f"{records[0].get('error')}", file=sys.stderr)
        return 1

    env["threads"] = ok[0]["threads"]  # as the child saw them
    summary = {"workload": name, "seed": args.seed, "seed_used": wl.seeded,
               "env": env, "failed": failed,
               "failed_frac": failed / len(records),
               "errors": [r["error"] for r in records if not r["ok"]],
               "runs": [{k: r.get(k) for k in RECORD_KEYS} for r in records]}
    if args.trace:
        values, last = layer_metrics(records)
        summary["busy_s"] = last["busy_s"]
        summary["coverage"] = last["coverage"]
        summary["cycles"] = last["cycles"]
        spans = [s for r in records if "trace" in r for s in r["trace"]["spans"]]
        (OUT / name / "spans.json").write_text(json.dumps(spans))
    else:
        values = {"run_s": median([r["run_s"] for r in ok]),
                  "setup_s": median([r["setup_s"] for r in ok]),
                  "peak_rss_mb": median([r["peak_rss_mb"] for r in ok])}
    (OUT / name / "summary.json").write_text(json.dumps(summary, indent=1))

    print(f"workload {name}  seed {args.seed}"
          f"{'' if wl.seeded else ' (recorded; the study has no random input)'}"
          f"  runs {len(records)}")
    print("env " + json.dumps(env, sort_keys=True))
    for err in summary["errors"]:
        print(f"failed run: {err}")
    for row in summary.get("cycles", []):
        layers = " ".join(f"{k}={v:.3f}" for k, v in row["layers_s"].items())
        print(f"cycle {row['cycle']} elements {row['elements']} dofs {row['dofs']} {layers}")
    if args.trace:
        print(f"trace coverage of run_s {summary['coverage']:.4f}")
    values = {k: values[k] for k in units}
    for k, v in values.items():
        print(f"{k} {v:.6g} {units[k]}")
    print(f"failed_frac {summary['failed_frac']:.6g} ratio")
    if not args.trace:
        print(f"host_probe_s {median([r['host_probe_s'] for r in ok]):.6g} s")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(records),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
