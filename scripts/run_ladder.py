#!/usr/bin/env python3
"""Per-cycle cost ladder of the adaptive rotating pulse.

Runs `rotating-pulse`, eps = 1e-3, d = 2, p_s = 1, 2 slabs, 2 cells, AMR
cycles 0-7 under the time-step policy `h` and cycles 0-4 under `h2`, each
policy in a fresh single-threaded child process so that its peak RSS is its
own.  For every cycle it records the cycle's `StudyRecord` as the `cycles`
list of a study's run.json stores it (elements, dofs, the solver's
`SolveReport` with the dofs, factored dofs and LU fill of each level, the
seconds of each phase and the peak RSS after each).  Right
before and right after each child it times the host probe of
`perfbench/child.py` (`host_probe_s`, seconds of a fixed pure-Python loop),
so a ladder that ran in a slow phase of the host can be told apart.

    PYTHONPATH=src python3 scripts/run_ladder.py --out ladder.json

The JSON goes to --out (default: standard output).  `--policy h` or
`--policy h2` runs one ladder in the current process.
"""

import argparse
import json
import os
import platform
import subprocess
import sys
from dataclasses import asdict
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
from child import THREAD_VARS, host_probe_s  # noqa: E402

CYCLES = {"h": 8, "h2": 5}


def ladder(policy: str, cycles: int) -> list[dict]:
    from sthdg.adapt import run_study
    from sthdg.problem import get_problem

    def on_cycle(cycle, mesh, sys_, x, est, rec):
        print(f"{policy} cycle {cycle}: {rec.n_dofs} dofs", file=sys.stderr, flush=True)

    spec = get_problem("rotating-pulse", eps=1e-3, d=2)
    records, _ = run_study(spec, "amr", cycles, p_s=1, n_slabs=2, n_cells=2,
                           policy=policy, on_cycle=on_cycle)
    return [asdict(rec) for rec in records]


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--policy", choices=sorted(CYCLES), default=None,
                    help="run one ladder in this process (default: both, in children)")
    ap.add_argument("--out", default=None, help="JSON output file (default: stdout)")
    args = ap.parse_args()
    if args.policy is not None:
        result = ladder(args.policy, CYCLES[args.policy])
    else:
        env = dict(os.environ, **{v: "1" for v in THREAD_VARS})
        result = {"host": {"python": platform.python_version(), "machine": platform.machine()},
                  "host_probe_s": {}, "ladders": {}}
        for policy in CYCLES:
            probe = {"before": host_probe_s()}
            child = subprocess.run([sys.executable, __file__, "--policy", policy],
                                   env=env, stdout=subprocess.PIPE, check=True, text=True)
            probe["after"] = host_probe_s()
            result["host_probe_s"][policy] = probe
            result["ladders"][policy] = json.loads(child.stdout)
    text = json.dumps(result, indent=1)
    if args.out is None:
        print(text)
    else:
        with open(args.out, "w") as fh:
            fh.write(text + "\n")


if __name__ == "__main__":
    main()
