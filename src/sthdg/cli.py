"""Command line front end.

Three subcommands: `study` (uniform or adaptive refinement loop writing
study.csv and per-cycle VTK), `solve` (the first cycle of a study: one
discrete solve dumped to solution.vtk, no CSV) and `verify` (measured
analysis constants written to constants.csv).

`_parser` declares every option once, with its type, default and allowed
values (`sthdg <cmd> --help` prints them), and gives each command only the
options its code reads; the parsed namespace is the run's config.  An
optional INI file (key = value under any section) sets options too, and
flags override it; a key of another command's option is dropped.
A run.json manifest with the resolved config, package versions and
wall-clock seconds (the problem's set-up under `problem`, then the command
or its phases) is written next to the artifacts; for `solve` and `study`
its `cycles` list holds each cycle's `adapt.StudyRecord` as stored.  Exit
codes: 0 success, 2 invalid configuration, an unknown problem or a missing
or malformed INI file included (nothing written), 3 solver failure or out
of memory (partial outputs kept, run.json status `solver_failure` or
`out_of_memory`).
"""

from __future__ import annotations

import argparse
import configparser
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


def _parser() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    """The top-level parser and the parser of each subcommand."""
    ap = argparse.ArgumentParser(
        prog="sthdg",
        description="space-time hybrid DG solver for advection-diffusion",
    )
    common, mesh, cycles = (argparse.ArgumentParser(add_help=False) for _ in range(3))
    common.add_argument("config", nargs="?",
                        help="optional INI config file (flags override it)")
    common.add_argument("--problem", default="rotating-pulse", help="problem name")
    common.add_argument("--eps", type=_positive, default=1e-2,
                        help="diffusion coefficient, finite and > 0")
    common.add_argument("--dim", type=int, choices=(1, 2), default=2,
                        help="spatial dimension")
    common.add_argument("--ps", type=_count, default=1,
                        help="spatial polynomial degree, >= 1")
    common.add_argument("--out", default=".", help="output directory")
    common.add_argument("--threads", type=_count, default=1,
                        help="value for OMP_NUM_THREADS, OPENBLAS_NUM_THREADS, "
                             "MKL_NUM_THREADS and NUMEXPR_NUM_THREADS where the "
                             "environment leaves them unset (an inherited value "
                             "wins); the solver itself starts no threads")
    mesh.add_argument("--dt-policy", choices=("h", "h2"), default="h",
                      help="slab height under refinement: dt ~ h or dt ~ h^2")
    mesh.add_argument("--slabs", type=_count, default=2,
                      help="initial number of time slabs, >= 1")
    mesh.add_argument("--cells", type=_count, default=2,
                      help="initial spatial cells per axis, >= 1")
    cycles.add_argument("--cycles", type=_count, default=3,
                        help="refinement cycles / verification levels, >= 1")

    sub = ap.add_subparsers(dest="command", required=True)
    fmt = argparse.ArgumentDefaultsHelpFormatter
    solve = sub.add_parser("solve", parents=[common, mesh], formatter_class=fmt,
                           help="single solve with error estimate and VTK dump")
    solve.set_defaults(cycles=1, mode="amr")  # solve is the first cycle of a study
    study = sub.add_parser("study", parents=[common, mesh, cycles], formatter_class=fmt,
                           help="refinement study writing study.csv and per-cycle VTK")
    study.add_argument("--mode", choices=("uniform", "amr"), default="amr",
                       help="study mode")
    verify = sub.add_parser("verify", parents=[common, cycles], formatter_class=fmt,
                            help="measure analysis constants into constants.csv")
    verify.add_argument("--seed", type=_seed, default=0,
                        help="random seed for sampled measurements, >= 0")
    return ap, sub.choices


def _ini_argv(path: str, commands: dict[str, argparse.ArgumentParser]) -> list[str]:
    """The INI file's pairs as `--key=value` flags; a key no command has
    is an error."""
    known = set().union(*(vars(p.parse_args([])) for p in commands.values()))
    known.discard("config")
    cp = configparser.ConfigParser()
    try:
        if not cp.read(path):
            raise ConfigError(f"config file not found: {path}")
        pairs = [(section, key, raw) for section in cp.sections()
                 for key, raw in cp.items(section)]
    except configparser.Error as exc:
        raise ConfigError(f"malformed config file {path}: {exc}") from None
    flags = []
    for section, key, raw in pairs:
        norm = key.replace("-", "_")
        if norm not in known:
            raise ConfigError(f"unknown config key {key!r} in [{section}]")
        flags.append(f"--{norm.replace('_', '-')}={raw}")
    return flags


def _parse_config(argv: list[str]) -> argparse.Namespace:
    """Defaults, then the INI file, then flags.  The INI pairs go through the
    command's parser as flags placed before the user's, so they are checked
    the same way and the user's win; a pair for an option the command does
    not take (`seed` under `solve`, `slabs` under `verify`) is dropped."""
    ap, commands = _parser()
    args = ap.parse_args(argv)
    if args.config is not None:
        ini = _ini_argv(args.config, commands)
        args, _dropped = ap.parse_known_args(argv[:1] + ini + argv[1:])
    del args.config
    return args


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


def _cap_threads(n: int) -> None:
    # must run before numpy is imported anywhere in this process; an
    # inherited value wins, so run.json records what actually applies
    for var in _THREAD_VARS:
        os.environ.setdefault(var, str(n))


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
          cycles: list | None = None, kept: str = "") -> int:
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
    """Run `study`, or `solve` as its one cycle without study.csv."""
    from .adapt import maxrss_mb, run_study
    from .solver import SolverError

    study = cfg.command == "study"
    seen: list = []  # the StudyRecord of every cycle that reached the hook

    def on_cycle(cycle, mesh, sys_, x, est, rec):
        seen.append(rec)
        t0 = time.perf_counter()
        _write_vtk(out / (f"cycle_{cycle:02d}.vtk" if study else "solution.vtk"),
                   sys_, x, est)
        rec.phase_s["vtk"], rec.phase_maxrss_mb["vtk"] = time.perf_counter() - t0, maxrss_mb()
        log.info("cycle %d: %s", cycle, rec)

    t0 = time.perf_counter()
    try:
        run_study(spec, cfg.mode, cfg.cycles, cfg.ps, cfg.slabs, cfg.cells,
                  policy=cfg.dt_policy, csv_path=out / "study.csv" if study else None,
                  on_cycle=on_cycle)
    except (SolverError, MemoryError) as exc:
        timings[cfg.command] = time.perf_counter() - t0
        return _fail(out, cfg, timings, exc, seen,
                     f" (partial outputs in {out})" if study else "")
    timings[cfg.command] = time.perf_counter() - t0
    _write_manifest(out, cfg, timings, "ok", seen)
    if study:
        for rec in seen:
            print(rec.csv_row())
        return 0
    [rec] = seen
    line = f"n_elements={rec.n_elements} n_dofs={rec.n_dofs} eta={rec.eta:.6g}"
    if spec.exact_jet is not None:
        line += f" error={rec.true_error:.6g} eff={rec.eff_index:.4g}"
    print(line)
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
    if spec.exact_jet is not None:
        for level in range(2, 2 + L):
            n = 2 ** level
            mesh = SpaceTimeMesh.build(
                d, n, n, t_final=spec.t_final, x_lo=spec.x_lo,
                x_hi=spec.x_hi, dirichlet_lateral=spec.dirichlet_lateral,
            )
            rep = verify.measure_saturation(spec, mesh, p_s)
            rho = float("nan") if rep.flagged else rep.rho
            reports.append(verify.ConstantReport(
                "saturation_rho", level, mesh.n_elements, rho))
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
        return _fail(out, cfg, timings, exc, kept=" (partial constants.csv kept)")
    verify.write_constants_csv(out / "constants.csv", reports)
    _write_manifest(out, cfg, timings, "ok")
    for r in reports:
        print(f"{r.inequality},{r.level},{r.samples},{r.constant:.12g}")
    return 0


def main(argv=None) -> int:
    _setup_logging()
    argv = sys.argv[1:] if argv is None else list(argv)
    timings: dict = {}
    try:
        cfg = _parse_config(argv)
        log.info("config: %s", vars(cfg))
        _cap_threads(cfg.threads)
        spec = _get_spec(cfg, timings)
    except SystemExit as exc:
        # argparse exits 2 on bad flags, matching the invalid-config code
        return int(exc.code or 0)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    out = Path(cfg.out)
    out.mkdir(parents=True, exist_ok=True)
    if cfg.command == "verify":
        return _cmd_verify(cfg, spec, out, timings)
    return _cmd_study(cfg, spec, out, timings)


if __name__ == "__main__":
    sys.exit(main())
