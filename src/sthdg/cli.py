"""Command line front end.

Two subcommands: `study` (uniform or adaptive refinement loop writing
study.csv and per-cycle VTK; one solve is `study --cycles 1`) and `verify`
(measured analysis constants written to constants.csv).

`_parser` declares every option once, with its type, default and allowed
values (`sthdg <cmd> --help` prints them), and gives each command only the
options its code reads; the parsed namespace is the run's config.  Any
argument that starts with `@` names a file whose lines replace it where it
stands, one argument per line (`--eps=0.2`, or `--eps` and `0.2` on two
lines), so a later flag overrides the file.  Where the environment leaves the BLAS and
OpenMP thread variables unset they are pinned to 1.
A run.json manifest with the resolved config, the thread variables, package
versions and wall-clock seconds (the problem's set-up under `problem`, then
the command or its phases) is written next to the artifacts; for `study`
its `cycles` list holds each cycle's `adapt.StudyRecord` as stored.  Exit
codes: 0 success, 2 invalid configuration, an unknown problem, a missing
`@file` and an `--out` that names a file or a path below one included
(nothing written), 3 solver failure or out of memory (partial outputs
kept, run.json status `solver_failure` or `out_of_memory`).
"""

from __future__ import annotations

import argparse
import json
import logging
import math
import os
import sys
import time
from dataclasses import asdict
from pathlib import Path

log = logging.getLogger("sthdg")


class ConfigError(ValueError):
    pass


def _checked(convert, ok, expected: str):
    """An argparse `type`: `convert` the text and require `ok` of the value."""
    def parse(text: str):
        try:
            value = convert(text)
            if ok(value):
                return value
        except ValueError:
            pass
        raise argparse.ArgumentTypeError(f"expected {expected}, got {text!r}")
    return parse


_positive = _checked(float, lambda v: 0 < v < math.inf, "a finite number > 0")
_count = _checked(int, lambda v: v >= 1, "an integer >= 1")
_seed = _checked(int, lambda v: v >= 0, "an integer >= 0")


def _parser() -> argparse.ArgumentParser:
    """The `sthdg` parser; it reads each `@file` argument in place."""
    ap = argparse.ArgumentParser(
        prog="sthdg",
        description="space-time hybrid DG solver for advection-diffusion",
        fromfile_prefix_chars="@",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--problem", default="rotating-pulse", help="problem name")
    common.add_argument("--eps", type=_positive, default=1e-2,
                        help="diffusion coefficient, finite and > 0")
    common.add_argument("--dim", type=int, choices=(1, 2), default=2,
                        help="spatial dimension")
    common.add_argument("--ps", type=_count, default=1,
                        help="spatial polynomial degree, >= 1")
    common.add_argument("--out", default=".", help="output directory")
    common.add_argument("--cycles", type=_count, default=3,
                        help="refinement cycles / verification levels, >= 1")

    sub = ap.add_subparsers(dest="command", required=True)
    fmt = argparse.ArgumentDefaultsHelpFormatter
    study = sub.add_parser("study", parents=[common], formatter_class=fmt,
                           help="refinement study writing study.csv and per-cycle VTK")
    study.add_argument("--dt-policy", choices=("h", "h2"), default="h",
                       help="slab height under refinement: dt ~ h or dt ~ h^2")
    study.add_argument("--slabs", type=_count, default=2,
                       help="initial number of time slabs, >= 1")
    study.add_argument("--cells", type=_count, default=2,
                       help="initial spatial cells per axis, >= 1")
    study.add_argument("--mode", choices=("uniform", "amr"), default="amr",
                       help="study mode")
    verify = sub.add_parser("verify", parents=[common], formatter_class=fmt,
                            help="measure analysis constants into constants.csv")
    verify.add_argument("--seed", type=_seed, default=0,
                        help="random seed for sampled measurements, >= 0")
    return ap


def _setup_logging() -> None:
    level_name = os.environ.get("STHDG_LOG", "WARNING").upper()
    level = getattr(logging, level_name, None)
    if not isinstance(level, int):
        try:
            level = int(level_name)
        except ValueError:
            level = logging.WARNING
    logging.basicConfig(
        level=level, stream=sys.stderr,
        format="%(asctime)s %(name)s %(levelname)s %(message)s",
    )


_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")


def _cap_threads() -> None:
    # must run before numpy is imported anywhere in this process; an
    # inherited value wins, so run.json records what actually applies
    for var in _THREAD_VARS:
        os.environ.setdefault(var, "1")


def _versions() -> dict:
    import numpy
    import scipy

    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }


def _write_manifest(out: Path, cfg: argparse.Namespace, timings: dict, status: str,
                    cycles: list | None = None) -> None:
    manifest = {
        "config": vars(cfg),
        "versions": _versions(),
        "threads": {var: os.environ.get(var) for var in _THREAD_VARS},
        "timings_s": {k: round(v, 6) for k, v in timings.items()},
        "status": status,
    }
    if cycles is not None:
        manifest["cycles"] = [asdict(rec) for rec in cycles]  # StudyRecords
    with open(out / "run.json", "w", newline="\n") as fh:
        json.dump(manifest, fh, indent=2)
        fh.write("\n")


def _get_spec(cfg: argparse.Namespace, timings: dict):
    """The configured problem; its set-up seconds go to timings["problem"]."""
    from .problem import get_problem

    t0 = time.perf_counter()
    try:
        spec = get_problem(cfg.problem, eps=cfg.eps, d=cfg.dim)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    timings["problem"] = time.perf_counter() - t0
    log.info("problem %s: %.3f s", spec.name, timings["problem"])
    return spec


def _fail(out: Path, cfg: argparse.Namespace, timings: dict, exc: Exception,
          kept: str, cycles: list | None = None) -> int:
    """End a run that failed in the solver or ran out of memory: exit code 3,
    with run.json and whatever partial outputs the caller kept."""
    if isinstance(exc, MemoryError):
        status, msg = "out_of_memory", "out of memory"
    else:
        status, msg = "solver_failure", str(exc)
    log.error("run failed: %s", msg)
    _write_manifest(out, cfg, timings, status, cycles)
    print(f"error: {msg}{kept}", file=sys.stderr)
    return 3


def _write_vtk(path: Path, sys_, x, est) -> None:
    """Write the mesh with eta_K and the center value u of every element."""
    from . import vtk_io

    values = {"eta_K": est.eta_K, "u": vtk_io.center_values(sys_.dofmap, x)}
    vtk_io.write_mesh_vtk(path, sys_.dofmap.mesh, values)


def _cmd_study(cfg: argparse.Namespace, spec, out: Path, timings: dict) -> int:
    """Run the refinement study: study.csv, one VTK per cycle and run.json."""
    from .adapt import maxrss_mb, run_study
    from .solver import SolverError

    seen: list = []  # the StudyRecord of every cycle that reached the hook

    def on_cycle(cycle, mesh, sys_, x, est, rec):
        seen.append(rec)
        t0 = time.perf_counter()
        _write_vtk(out / f"cycle_{cycle:02d}.vtk", sys_, x, est)
        rec.phase_s["vtk"], rec.phase_maxrss_mb["vtk"] = time.perf_counter() - t0, maxrss_mb()
        log.info("cycle %d: %s", cycle, rec)

    t0 = time.perf_counter()
    try:
        run_study(spec, cfg.mode, cfg.cycles, cfg.ps, cfg.slabs, cfg.cells,
                  policy=cfg.dt_policy, csv_path=out / "study.csv", on_cycle=on_cycle)
    except (SolverError, MemoryError) as exc:
        timings["study"] = time.perf_counter() - t0
        return _fail(out, cfg, timings, exc, f" (partial outputs in {out})", seen)
    timings["study"] = time.perf_counter() - t0
    _write_manifest(out, cfg, timings, "ok", seen)
    for rec in seen:
        print(rec.csv_row())
    return 0


def _measure_constants(cfg: argparse.Namespace, spec, reports: list, timings: dict) -> None:
    """Append the verify constants to `reports` and the phase times to
    `timings`, so that both hold the finished part if a phase fails."""
    import numpy as np

    from .assembly import build_dofmap
    from .mesh import SpaceTimeMesh
    from . import verify

    d, p_s, L = cfg.dim, cfg.ps, cfg.cycles

    # bubble constants on boxes shrunk by half per level
    t0 = time.perf_counter()
    for level in range(L):
        s = 0.5 ** level
        box = (np.zeros(d + 1), np.full(d + 1, s))
        reports += verify.bubble_constants(p_s, d=d, seed=cfg.seed, level=level, box=box)
    timings["bubbles"] = time.perf_counter() - t0

    # inverse/trace/projection constants: dt = h^2 family so the
    # quasi-interpolation rows stay in regime on every level
    t0 = time.perf_counter()
    for level in range(L):
        n = 2 * 2 ** level
        mesh = SpaceTimeMesh.build(d, n * n, n)
        reports += verify.inequality_constants(
            mesh, p_s, seed=cfg.seed, level=level)
    timings["inequalities"] = time.perf_counter() - t0

    # averaging defect vs jump bound on random piecewise fields
    t0 = time.perf_counter()
    rng = np.random.default_rng(cfg.seed + 7)
    for level in range(L):
        n = 2 * 2 ** level
        mesh = SpaceTimeMesh.build(d, n, n)
        coeffs = rng.standard_normal(build_dofmap(mesh, p_s).n_elem_dofs)
        rep = verify.oswald_constant(mesh, p_s, coeffs)
        reports.append(verify.ConstantReport(
            "oswald_averaging", level, mesh.n_elements, rep.constant))
    timings["oswald"] = time.perf_counter() - t0

    # two-level saturation of the time-derivative error on the benchmark
    t0 = time.perf_counter()
    for level in range(2, 2 + L):
        n = 2 ** level
        mesh = SpaceTimeMesh.build(
            d, n, n, t_final=spec.t_final, x_lo=spec.x_lo,
            x_hi=spec.x_hi, dirichlet_lateral=spec.dirichlet_lateral,
        )
        rep = verify.measure_saturation(spec, mesh, p_s)
        reports.append(verify.ConstantReport(
            "saturation_rho", level, mesh.n_elements, rep.rho))
        log.info("saturation level %d: rho=%s flagged=%s",
                 level, rep.rho, rep.flagged)
    timings["saturation"] = time.perf_counter() - t0


def _cmd_verify(cfg: argparse.Namespace, spec, out: Path, timings: dict) -> int:
    from .solver import SolverError
    from . import verify

    reports: list = []
    try:
        _measure_constants(cfg, spec, reports, timings)
    except (SolverError, MemoryError) as exc:
        verify.write_constants_csv(out / "constants.csv", reports)
        return _fail(out, cfg, timings, exc, " (partial constants.csv kept)")
    verify.write_constants_csv(out / "constants.csv", reports)
    _write_manifest(out, cfg, timings, "ok")
    for r in reports:
        print(f"{r.inequality},{r.level},{r.samples},{r.constant:.12g}")
    return 0


def main(argv=None) -> int:
    _setup_logging()
    timings: dict = {}
    try:
        cfg = _parser().parse_args(argv)
        log.info("config: %s", vars(cfg))
        _cap_threads()
        spec = _get_spec(cfg, timings)
    except SystemExit as exc:
        # argparse exits 2 on bad flags, matching the invalid-config code
        return int(exc.code or 0)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    out = Path(cfg.out)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:  # --out names a file or a path below one
        print(f"error: cannot use --out {cfg.out}: {exc}", file=sys.stderr)
        return 2
    if cfg.command == "verify":
        return _cmd_verify(cfg, spec, out, timings)
    return _cmd_study(cfg, spec, out, timings)


if __name__ == "__main__":
    sys.exit(main())
