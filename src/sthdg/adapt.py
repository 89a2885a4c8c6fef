"""Fixed-fraction marking and the solve-estimate-mark-refine loop.

Marking sorts elements by their estimator value eta_K, rounded to 12
significant digits, descending (ties broken by ascending element id), so
mirror-image elements whose eta_K differ only in the last bits do not
depend on summation order; it refines the top 25% while coarsening
the bottom 10% by element count.  Coarsening only takes effect for
complete sibling groups; the mesh layer drops partial groups.

`run_study` drives uniform or adaptive cycles and records one StudyRecord
per solve, with the solver's `SolveReport` as it returned it, the seconds
of each phase (assemble, solve, estimate, norms, then the refine that
follows the cycle; a hook may add its own) and the peak RSS after each of
them.  CSV output is deterministic: the wall_ms column is written as 0 and
the solver report is left out (timings vary run to run and the table must
be byte-identical across reruns); they go into the run manifest instead.

`StudyRecord` is the one definition of a cycle's record: the run.json
`cycles` list of `sthdg study` and of `sthdg solve` (a study's first cycle)
and the cost ladder of `scripts/run_ladder.py` store `dataclasses.asdict`
of it as it is, so a field added to `SolveReport` reaches them uncopied.
"""

from __future__ import annotations

import math
import resource
import time
from dataclasses import dataclass, field

import numpy as np

from .assembly import assemble
from .estimator import efficiency_index, error_norms, estimate
from .mesh import SpaceTimeMesh
from .problem import ProblemSpec
from .solver import SolveReport, solve

CSV_HEADER = "cycle,n_elements,n_dofs,eta,true_error,eff_index,wall_ms"


@dataclass
class StudyRecord:
    cycle: int
    n_elements: int
    n_dofs: int
    eta: float
    true_error: float  # nan when the problem has no exact solution
    eff_index: float
    # what the solver did and the phase timings: kept out of the CSV,
    # reported in run.json
    solve: SolveReport
    phase_s: dict[str, float] = field(default_factory=dict)
    phase_maxrss_mb: dict[str, float] = field(default_factory=dict)  # after each phase

    def csv_row(self) -> str:
        def num(v: float) -> str:
            if math.isnan(v):
                return "nan"
            return f"{v:.12g}"

        return (
            f"{self.cycle},{self.n_elements},{self.n_dofs},"
            f"{num(self.eta)},{num(self.true_error)},{num(self.eff_index)},0"
        )


def _round_12(v: np.ndarray) -> np.ndarray:
    """v rounded to 12 significant decimal digits; 0, inf and nan kept."""
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        scale = 10.0 ** (11 - np.floor(np.log10(np.abs(v))))
        r = np.round(v * scale) / scale
    return np.where(np.isfinite(r), r, v)


def mark(
    eta_K: np.ndarray,
    ids: np.ndarray,
    refine_fraction: float = 0.25,
    coarsen_fraction: float = 0.10,
) -> tuple[list[int], list[int]]:
    """Ids to refine (top fraction by eta_K) and to coarsen (bottom fraction),
    where eta_K[i] is the indicator of element ids[i].

    Equal rounded indicators keep the order of `ids`, which is ascending in
    `mesh.etab.id`, so ties go to the lower id."""
    if not len(eta_K):
        raise ValueError("cannot mark an empty estimate")
    if not (0 <= refine_fraction <= 1 and 0 <= coarsen_fraction <= 1):
        raise ValueError("fractions must lie in [0, 1]")
    if refine_fraction + coarsen_fraction > 1:
        raise ValueError("refine and coarsen fractions overlap")
    order = ids[np.argsort(-_round_12(eta_K), kind="stable")].tolist()
    n = len(order)
    n_ref = math.ceil(refine_fraction * n)
    n_coar = math.floor(coarsen_fraction * n)
    refine = order[:n_ref]
    coarsen = order[n - n_coar:] if n_coar else []
    return refine, coarsen


def write_csv(records: list[StudyRecord], path) -> None:
    lines = [CSV_HEADER] + [r.csv_row() for r in records]
    with open(path, "w", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def run_study(
    spec: ProblemSpec,
    mode: str,
    cycles: int,
    p_s: int,
    n_slabs: int,
    n_cells,
    policy: str = "h",
    csv_path=None,
    on_cycle=None,
) -> tuple[list[StudyRecord], SpaceTimeMesh]:
    """Run an AMR or uniform refinement study.

    When csv_path is given, the CSV is written before the first cycle and
    rewritten after every cycle, so it holds each completed cycle whatever
    exception ends the study.
    """
    if mode not in ("amr", "uniform"):
        raise ValueError(f"mode must be 'amr' or 'uniform', got {mode!r}")
    if cycles < 1:
        raise ValueError("need at least one cycle")
    mesh = SpaceTimeMesh.build(
        spec.d, n_slabs, n_cells, t_final=spec.t_final,
        x_lo=spec.x_lo, x_hi=spec.x_hi, policy=policy,
        dirichlet_lateral=spec.dirichlet_lateral,
    )
    records: list[StudyRecord] = []
    if csv_path is not None:
        write_csv(records, csv_path)
    for cycle in range(cycles):
        phase: dict[str, float] = {}
        rss: dict[str, float] = {}
        t = time.perf_counter()

        def lap(name: str) -> None:
            nonlocal t
            now = time.perf_counter()
            phase[name], rss[name] = now - t, maxrss_mb()
            t = now

        sys = assemble(spec, mesh, p_s)
        lap("assemble")
        x, rep = solve(sys)
        lap("solve")
        est = estimate(sys, x)
        lap("estimate")
        if spec.exact_jet is not None:
            nb = error_norms(sys, x, est)
            err = nb.sT_norm()
            eff = efficiency_index(est.eta, err)
        else:
            err = math.nan
            eff = math.nan
        lap("norms")
        rec = StudyRecord(
            cycle=cycle, n_elements=mesh.n_elements, n_dofs=sys.n_dofs,
            eta=est.eta, true_error=err, eff_index=eff, solve=rep,
            phase_s=phase, phase_maxrss_mb=rss,
        )
        records.append(rec)
        if csv_path is not None:
            write_csv(records, csv_path)
        if on_cycle is not None:
            on_cycle(cycle, mesh, sys, x, est, rec)
        t = time.perf_counter()
        if cycle < cycles - 1:
            if mode == "amr":
                refine, coarsen = mark(est.eta_K, mesh.etab.id)
                mesh.refine_and_coarsen(refine, coarsen)
            else:
                mesh.refine_uniform(1)
        del sys, x, est  # free this cycle's system before the next assemble
        lap("refine")
    return records, mesh


def maxrss_mb() -> float:
    """Peak resident set size of this process so far, in MB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def loglog_slope(ns: list[int], errs: list[float], last: int) -> float:
    """Least-squares slope of log(err) vs log(N) over the last `last` points."""
    x = np.log(np.array(ns[-last:], dtype=float))
    y = np.log(np.array(errs[-last:], dtype=float))
    A = np.vstack([x, np.ones_like(x)]).T
    sl, _ = np.linalg.lstsq(A, y, rcond=None)[0]
    return float(sl)
