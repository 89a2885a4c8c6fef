"""Command line front end.

Three subcommands: `solve` (one discrete solve plus a VTK dump), `study`
(uniform or adaptive refinement loop writing study.csv and per-cycle VTK),
and `verify` (measured analysis constants written to constants.csv).

Configuration comes from an optional INI file (key = value under any
section) overridden by command-line flags; flags win.  A run.json manifest
with the resolved config, package versions and wall-clock timings is
written next to the artifacts.  Exit codes: 0 success, 2 invalid
configuration (nothing written), 3 solver failure or out of memory (partial
outputs kept, run.json status `solver_failure` or `out_of_memory`).
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
        p.add_argument("--cycles", help="refinement cycles / verification levels")
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
                    cycles: list[dict] | None = None) -> None:
    manifest = {
        "config": asdict(cfg),
        "versions": _versions(),
        "threads": {var: os.environ.get(var) for var in _THREAD_VARS},
        "timings_s": {k: round(v, 6) for k, v in timings.items()},
        "status": status,
    }
    if cycles is not None:
        manifest["cycles"] = cycles
    with open(out / "run.json", "w", newline="\n") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _get_spec(cfg: RunConfig):
    from .problem import get_problem

    try:
        return get_problem(cfg.problem, eps=cfg.eps, d=cfg.dim)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


def _fail(out: Path, cfg: RunConfig, timings: dict, exc: Exception,
          cycles: list[dict] | None = None, kept: str = "") -> int:
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


def _cmd_solve(cfg: RunConfig, out: Path) -> int:
    from .assembly import FieldEval, assemble
    from .estimator import efficiency_index, error_norms, estimate
    from .mesh import SpaceTimeMesh
    from .solver import SolverError, solve
    from . import vtk_io

    spec = _get_spec(cfg)
    timings: dict = {}
    try:
        t0 = time.perf_counter()
        mesh = SpaceTimeMesh.build(
            cfg.dim, cfg.slabs, cfg.cells, t_final=spec.t_final,
            x_lo=spec.x_lo, x_hi=spec.x_hi, policy=cfg.dt_policy,
            dirichlet_lateral=spec.dirichlet_lateral,
        )
        sys_ = assemble(spec, mesh, cfg.ps)
        timings["assemble"] = time.perf_counter() - t0

        t0 = time.perf_counter()
        x, rep = solve(sys_)
        timings["solve"] = time.perf_counter() - t0

        t0 = time.perf_counter()
        est = estimate(sys_, x)
        ev = FieldEval(sys_.dofmap, x)
        values = {
            "eta_K": {e: est.eta_K(e) for e in mesh.element_ids()},
            "u": vtk_io.center_values(mesh, ev),
        }
        vtk_io.write_mesh_vtk(out / "solution.vtk", mesh, values)
        timings["estimate_and_dump"] = time.perf_counter() - t0

        line = f"n_elements={mesh.n_elements} n_dofs={sys_.n_dofs} eta={est.eta:.6g}"
        if spec.has_exact():
            err = error_norms(sys_, x).sT_norm()
            line += f" error={err:.6g} eff={efficiency_index(est.eta, err):.4g}"
    except (SolverError, MemoryError) as exc:
        return _fail(out, cfg, timings, exc)
    print(line)
    _write_manifest(out, cfg, timings, "ok")
    return 0


def _cmd_study(cfg: RunConfig, out: Path) -> int:
    from .adapt import run_study
    from .assembly import FieldEval
    from .solver import SolverError
    from . import vtk_io

    spec = _get_spec(cfg)
    csv_path = out / "study.csv"
    cycles: list[dict] = []

    def on_cycle(cycle, mesh, sys_, x, est, rec):
        cycles.append({"cycle": rec.cycle, "n_elements": rec.n_elements,
                       "n_dofs": rec.n_dofs, "wall_ms": round(rec.wall_ms, 3),
                       "solver_blocks": rec.solver_blocks,
                       "max_block_dofs": rec.max_block_dofs,
                       "residual": rec.residual})
        ev = FieldEval(sys_.dofmap, x)
        values = {
            "eta_K": {e: est.eta_K(e) for e in mesh.element_ids()},
            "u": vtk_io.center_values(mesh, ev),
        }
        vtk_io.write_mesh_vtk(out / f"cycle_{cycle:02d}.vtk", mesh, values)
        log.info("cycle %d: %s", cycle, rec)

    t0 = time.perf_counter()
    try:
        records, _ = run_study(
            spec, cfg.mode, cfg.cycles, cfg.ps, cfg.slabs, cfg.cells,
            policy=cfg.dt_policy, csv_path=csv_path, on_cycle=on_cycle,
        )
    except (SolverError, MemoryError) as exc:
        return _fail(out, cfg, {"study": time.perf_counter() - t0}, exc, cycles,
                     f" (partial outputs in {out})")
    _write_manifest(out, cfg, {"study": time.perf_counter() - t0}, "ok", cycles)
    for rec in records:
        print(rec.csv_row())
    return 0


def _measure_constants(cfg: RunConfig, reports: list, timings: dict) -> None:
    """Append the verify constants to `reports` and the phase times to
    `timings`, so that both hold the finished part if a phase fails."""
    import numpy as np

    from .mesh import SpaceTimeMesh
    from . import verify

    d, p_s, L = cfg.dim, cfg.ps, cfg.cycles

    # bubble constants on boxes shrunk by half per level
    t0 = time.perf_counter()
    for level in range(L):
        s = 0.5 ** level
        box = (np.zeros(d + 1), np.full(d + 1, s))
        reports += verify.bubble_constants(
            p_s, "element", d=d, seed=cfg.seed, level=level, box=box)
        reports += verify.bubble_constants(
            p_s, "facet", d=d, seed=cfg.seed, level=level, box=box)
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
        block = 2 * (p_s + 1) ** d
        coeffs = rng.standard_normal(mesh.n_elements * block)
        rep = verify.oswald_constant(mesh, p_s, coeffs)
        reports.append(verify.ConstantReport(
            "oswald_averaging", level, mesh.n_elements, rep.constant))
    timings["oswald"] = time.perf_counter() - t0

    # two-level saturation of the time-derivative error on the benchmark
    t0 = time.perf_counter()
    spec = _get_spec(cfg)
    if spec.has_exact():
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


def _cmd_verify(cfg: RunConfig, out: Path) -> int:
    from .solver import SolverError
    from . import verify

    timings: dict = {}
    reports: list = []
    try:
        _measure_constants(cfg, reports, timings)
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
    try:
        cfg = build_config(args.command, args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    _cap_threads(cfg.threads)
    out = Path(cfg.out)
    out.mkdir(parents=True, exist_ok=True)

    log.info("config: %s", asdict(cfg))
    if cfg.command == "solve":
        return _cmd_solve(cfg, out)
    if cfg.command == "study":
        return _cmd_study(cfg, out)
    return _cmd_verify(cfg, out)


if __name__ == "__main__":
    sys.exit(main())
