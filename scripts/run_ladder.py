#!/usr/bin/env python3
"""Per-cycle cost ladder of the adaptive rotating pulse.

Runs `rotating-pulse`, eps = 1e-3, d = 2, p_s = 1, 2 slabs, 2 cells, AMR
cycles 0-7 under the time-step policy `h` and cycles 0-4 under `h2`, each
policy in a fresh single-threaded child process so that its peak RSS is its
own.  For every cycle it records what the `cycles` list of a study's
run.json records (elements, dofs, solver levels, LU fill, the seconds of
each phase and the peak RSS after the cycle), plus the number of matrix
entries that `assemble` hands to scipy's sparse constructor, the nonzeros
of the result and their ratio.

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

CYCLES = {"h": 8, "h2": 5}
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


class CountingSparse:
    """`scipy.sparse` as `sthdg.assembly` sees it: counts the entries passed
    to the COO or CSR constructor while `active`."""

    def __init__(self, sparse):
        self.sparse = sparse
        self.active = False
        self.entries = 0

    def __getattr__(self, name):
        return getattr(self.sparse, name)

    def _count(self, arg):
        if self.active and isinstance(arg, tuple):
            self.entries += len(arg[0])

    def coo_matrix(self, arg, *args, **kwargs):
        self._count(arg)
        return self.sparse.coo_matrix(arg, *args, **kwargs)

    def csr_matrix(self, arg, *args, **kwargs):
        self._count(arg)
        return self.sparse.csr_matrix(arg, *args, **kwargs)


def ladder(policy: str, cycles: int) -> list[dict]:
    import scipy.sparse

    from sthdg import adapt, assembly
    from sthdg.problem import get_problem

    counter = CountingSparse(scipy.sparse)
    assembly.sp = counter
    counts = []

    def counted_assemble(*args, **kwargs):
        counter.active, counter.entries = True, 0
        try:
            sys_ = assembly.assemble(*args, **kwargs)
        finally:
            counter.active = False
        counts.append((counter.entries, sys_.A.nnz))
        return sys_

    adapt.assemble = counted_assemble
    spec = get_problem("rotating-pulse", eps=1e-3, d=2)
    out = []

    def on_cycle(cycle, mesh, sys_, x, est, rec):
        print(f"{policy} cycle {cycle}: {rec.n_dofs} dofs", file=sys.stderr, flush=True)

    records, _ = adapt.run_study(spec, "amr", cycles, p_s=1, n_slabs=2, n_cells=2,
                                 policy=policy, on_cycle=on_cycle)
    for rec, (entries, nnz) in zip(records, counts):
        out.append({
            "cycle": rec.cycle, "n_elements": rec.n_elements, "n_dofs": rec.n_dofs,
            "solver_blocks": rec.solver_blocks, "max_block_dofs": rec.max_block_dofs,
            "lu_fill": rec.lu_fill,
            "phase_s": {k: round(v, 4) for k, v in rec.phase_s.items()},
            "maxrss_mb": round(rec.maxrss_mb, 1),
            "entries": entries, "nnz": nnz, "entries_per_nnz": round(entries / nnz, 3),
        })
    return out


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
                  "ladders": {}}
        for policy in CYCLES:
            child = subprocess.run([sys.executable, __file__, "--policy", policy],
                                   env=env, stdout=subprocess.PIPE, check=True, text=True)
            result["ladders"][policy] = json.loads(child.stdout)
    text = json.dumps(result, indent=1)
    if args.out is None:
        print(text)
    else:
        with open(args.out, "w") as fh:
            fh.write(text + "\n")


if __name__ == "__main__":
    main()
