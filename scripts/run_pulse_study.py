#!/usr/bin/env python3
"""Rotating-pulse convergence study: AMR vs uniform refinement.

Writes study.csv + per-cycle VTK into results/pulse_<mode>_<policy>/ and
prints the log-log error slope over the trailing cycles.  The dt ~ h^2
policy multiplies element counts by ~16 per uniform cycle and by at
least 4.75 per adaptive cycle, so --cycles defaults to 5 under h2 (about
100k dofs) and to 8 under h.  The uniform leg runs at most 4 cycles under
h and at most 3 under h2 (2,048 elements); a fourth uniform h2 cycle would
have 32,768 elements, about 700k dofs, well past the 280k dofs the
acceptance tests allow.
"""

import argparse
import sys
from pathlib import Path

from sthdg.adapt import loglog_slope
from sthdg.cli import main as cli_main


def run(mode: str, policy: str, cycles: int, out_root: Path, eps: float) -> None:
    out = out_root / f"pulse_{mode}_{policy}"
    rc = cli_main([
        "study", "--problem", "rotating-pulse", "--eps", str(eps),
        "--dim", "2", "--ps", "1", "--cycles", str(cycles),
        "--mode", mode, "--dt-policy", policy,
        "--slabs", "2", "--cells", "2", "--out", str(out),
    ])
    if rc != 0:
        sys.exit(rc)
    rows = [ln.split(",") for ln in
            (out / "study.csv").read_text().splitlines()[1:]]
    ns = [int(r[2]) for r in rows]
    errs = [float(r[4]) for r in rows]
    # h2 fits its last 3 cycles: the same ~21x dof range as h's last 4
    k = min(3 if policy == "h2" else 4, len(rows))
    print(f"{out.name}: slope over last {k} cycles "
          f"{loglog_slope(ns, errs, k):.4f}")


if __name__ == "__main__":
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--cycles", type=int, default=None,
                    help="adaptive cycles (default: 8 under h, 5 under h2)")
    ap.add_argument("--eps", type=float, default=1e-3)
    ap.add_argument("--mode", choices=("amr", "uniform", "both"), default="both")
    ap.add_argument("--dt-policy", choices=("h", "h2"), default="h")
    ap.add_argument("--out", type=Path, default=Path("results"))
    args = ap.parse_args()
    if args.cycles is None:
        args.cycles = 5 if args.dt_policy == "h2" else 8
    modes = ("amr", "uniform") if args.mode == "both" else (args.mode,)
    uniform_cap = 3 if args.dt_policy == "h2" else 4
    for mode in modes:
        cycles = args.cycles if mode == "amr" else min(args.cycles, uniform_cap)
        run(mode, args.dt_policy, cycles, args.out, args.eps)
