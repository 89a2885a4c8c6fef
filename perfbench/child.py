"""One measured `sthdg` command in a fresh process.

    python3 perfbench/child.py RESULT_JSON TRACE RUN_ID -- CLI_ARGS...

Runs `sthdg.cli.main(CLI_ARGS)` from the checkout's `src` (the parent puts it
on PYTHONPATH and pins the BLAS thread variables) and writes RESULT_JSON:

- setup_s: import of every sthdg module plus all time inside
  `problem.get_problem` (the sympy lambdas),
- run_s: wall time of `cli.main` minus the time inside `get_problem`,
- host_probe_s: seconds of a fixed pure-Python loop, the mean of its
  timings right before and right after `cli.main`; it moves with the host's
  speed, not with the program, so runs made in a slow phase of the host
  can be told apart,
- with TRACE=1, the span summary of `tracer.Tracer`.

`get_problem` is always wrapped so that the two can be told apart; with
TRACE=0 it is the only wrapped function.
"""

from __future__ import annotations

import importlib
import json
import os
import statistics
import sys
import time

from tracer import Tracer

MODULES = ("adapt", "assembly", "cli", "estimator", "fe", "mesh", "problem",
           "solver", "verify", "vtk_io")
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
PROBE_LOOPS = 1_000_000  # about 0.12 s on a 2-vCPU Intel Xeon VM
PROBE_REPEATS = 3


def host_probe_s() -> float:
    """Median seconds of a fixed pure-Python loop: how fast the host runs now."""
    times = []
    for _ in range(PROBE_REPEATS):
        t0 = time.perf_counter()
        s = 0
        for i in range(PROBE_LOOPS):
            s += i * i % 7
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def main(argv: list[str]) -> int:
    result_path, trace, run_id = argv[0], argv[1] == "1", argv[2]
    cli_args = argv[argv.index("--") + 1:]
    threads = {v: os.environ.get(v) for v in THREAD_VARS}
    if any(n != "1" for n in threads.values()):
        raise SystemExit(f"thread variables not pinned to 1: {threads}")

    t0 = time.perf_counter()
    for name in MODULES:
        importlib.import_module(f"sthdg.{name}")
    import_s = time.perf_counter() - t0
    cli = sys.modules["sthdg.cli"]

    tracer = Tracer(run_id, layers=None if trace else ["problem.get_problem"])
    tracer.install()
    probe_before = host_probe_s()
    t0 = time.perf_counter()
    code = cli.main(cli_args)
    cli_s = time.perf_counter() - t0
    probe_after = host_probe_s()
    problem_s = tracer.seconds_in("problem.get_problem")
    run_s = cli_s - problem_s

    out = {
        "exit": code,
        "setup_s": import_s + problem_s,
        "import_s": import_s,
        "get_problem_s": problem_s,
        "run_s": run_s,
        "host_probe_s": (probe_before + probe_after) / 2,
        "probe_before_s": probe_before,
        "probe_after_s": probe_after,
        "threads": threads,
    }
    if trace:
        out["trace"] = tracer.summarise(run_s)
    with open(result_path, "w") as fh:
        json.dump(out, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
