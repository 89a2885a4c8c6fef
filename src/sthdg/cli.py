"""Command line front end.

Three subcommands: `study` (uniform or adaptive refinement loop writing
study.csv and per-cycle VTK), `solve` (the first cycle of a study: one
discrete solve dumped to solution.vtk, no CSV) and `verify` (measured
analysis constants written to constants.csv).

Configuration comes from an optional INI file (key = value under any
section) overridden by command-line flags; flags win.  A run.json manifest
with the resolved config, package versions and wall-clock seconds (the
problem's set-up under `problem`, then the command or its phases) is
written next to the artifacts; for `solve` and `study` its `cycles` list
holds each cycle's `adapt.StudyRecord` as stored.  Exit codes: 0 success,
2 invalid configuration, an unknown problem included (nothing written), 3
solver failure or out of memory (partial outputs kept, run.json status
`solver_failure` or `out_of_memory`).
"""

from __future__ import annotations

import argparse
import configparser
import json
import logging
import os
import sys
import time
from dataclasses import asdict, dataclass
from pathlib import Path

log = logging.getLogger("sthdg")

_DEFAULTS = dict(
    problem="rotating-pulse", eps=1e-2, dim=2, ps=1, cycles=3, mode="amr",
    dt_policy="h", slabs=2, cells=2, out=".", seed=0, threads=1,
)

_INT_KEYS = ("dim", "ps", "cycles", "slabs", "cells", "seed", "threads")
_FLOAT_KEYS = ("eps",)


@dataclass
class RunConfig:
    command: str
    problem: str
    eps: float
    dim: int
    ps: int
    cycles: int
    mode: str
    dt_policy: str
    slabs: int
    cells: int
    out: str
    seed: int
    threads: int


class ConfigError(ValueError):
    pass


def _load_ini(path: str) -> dict:
    cp = configparser.ConfigParser()
    read = cp.read(path)
    if not read:
        raise ConfigError(f"config file not found: {path}")
    values: dict = {}
    for section in cp.sections():
        for key, raw in cp.items(section):
            norm = key.replace("-", "_")
            if norm not in _DEFAULTS:
                raise ConfigError(f"unknown config key {key!r} in [{section}]")
            values[norm] = raw
    return values


def _coerce(key: str, raw):
    if not isinstance(raw, str):
        return raw
    try:
        if key in _INT_KEYS:
            return int(raw)
        if key in _FLOAT_KEYS:
            return float(raw)
    except ValueError:
        raise ConfigError(f"invalid value for {key}: {raw!r}") from None
    return raw


def build_config(command: str, args: argparse.Namespace) -> RunConfig:
    """Merge defaults, INI file and flags (flags win) into a validated config."""
    values = dict(_DEFAULTS)
    if args.config is not None:
        values.update(_load_ini(args.config))
    for key in _DEFAULTS:
        flag = getattr(args, key, None)
        if flag is not None:
            values[key] = flag
    if command == "solve":
        values["cycles"] = 1  # solve is the first cycle of a study
    values = {k: _coerce(k, v) for k, v in values.items()}
    cfg = RunConfig(command=command, **values)

    if cfg.eps <= 0:
        raise ConfigError(f"eps must be positive, got {cfg.eps}")
    if cfg.dim not in (1, 2):
        raise ConfigError(f"dim must be 1 or 2, got {cfg.dim}")
    if cfg.ps < 1:
        raise ConfigError(f"ps must be >= 1, got {cfg.ps}")
    if cfg.cycles < 1:
        raise ConfigError(f"cycles must be >= 1, got {cfg.cycles}")
    if cfg.mode not in ("uniform", "amr"):
        raise ConfigError(f"mode must be 'uniform' or 'amr', got {cfg.mode!r}")
    if cfg.dt_policy not in ("h", "h2"):
        raise ConfigError(f"dt-policy must be 'h' or 'h2', got {cfg.dt_policy!r}")
    if cfg.slabs < 1 or cfg.cells < 1:
        raise ConfigError("slabs and cells must be >= 1")
    if cfg.seed < 0:
        raise ConfigError("seed must be >= 0")
    if cfg.threads < 1:
        raise ConfigError("threads must be >= 1")
    return cfg


def _parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="sthdg",
        description="space-time hybrid DG solver for advection-diffusion",
    )
    sub = ap.add_subparsers(dest="command", required=True)
    for name, help_ in (
        ("solve", "single solve with error estimate and VTK dump"),
        ("study", "refinement study writing study.csv and per-cycle VTK"),
        ("verify", "measure analysis constants into constants.csv"),
    ):
        p = sub.add_parser(name, help=help_)
        p.add_argument("config", nargs="?", default=None,
                       help="optional INI config file (flags override it)")
        p.add_argument("--problem", help="problem name")
        p.add_argument("--eps", help="diffusion coefficient")
        p.add_argument("--dim", help="spatial dimension (1 or 2)")
        p.add_argument("--ps", help="spatial polynomial degree")
        if name != "solve":
            p.add_argument("--cycles", help="refinement cycles / verification levels")
        if name == "study":
            p.add_argument("--mode", help="study mode: uniform or amr")
        p.add_argument("--dt-policy", dest="dt_policy", choices=("h", "h2"),
                       help="slab height under refinement: dt ~ h or dt ~ h^2")
        p.add_argument("--slabs", help="initial number of time slabs")
        p.add_argument("--cells", help="initial spatial cells per axis")
        p.add_argument("--out", help="output directory")
        p.add_argument("--seed", help="random seed for sampled measurements")
        p.add_argument("--threads", help="cap on BLAS/solver worker threads")
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


def _write_manifest(out: Path, cfg: RunConfig, timings: dict, status: str,
                    cycles: list | None = None) -> None:
    manifest = {
        "config": asdict(cfg),
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


def _get_spec(cfg: RunConfig, timings: dict):
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


def _fail(out: Path, cfg: RunConfig, timings: dict, exc: Exception,
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


def _cmd_study(cfg: RunConfig, spec, out: Path, timings: dict) -> int:
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


def _measure_constants(cfg: RunConfig, spec, reports: list, timings: dict) -> None:
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


def _cmd_verify(cfg: RunConfig, spec, out: Path, timings: dict) -> int:
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
    ap = _parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on bad flags, matching the invalid-config code
        return int(exc.code or 0)
    timings: dict = {}
    try:
        cfg = build_config(args.command, args)
        log.info("config: %s", asdict(cfg))
        _cap_threads(cfg.threads)
        spec = _get_spec(cfg, timings)
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
