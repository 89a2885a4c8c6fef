"""Fixed-fraction marking and the solve-estimate-mark-refine loop.

Marking sorts elements by their estimator value eta_K, rounded to 12
significant digits, descending (ties broken by ascending element id), so
mirror-image elements whose eta_K differ only in the last bits do not
depend on summation order; it refines the top 25% (`REFINE_FRACTION`)
and coarsens the bottom 10% (`COARSEN_FRACTION`) by element count.
Coarsening only takes effect for complete sibling groups; the mesh layer
leaves partial groups as they are.

`run_study` drives uniform or adaptive cycles on a problem with an exact
solution and records one StudyRecord per solve, with the solver's
`SolveReport` as it returned it, the seconds of each phase (assemble,
solve, estimate, norms, then the refine that follows the cycle; a hook may
add its own) and the peak RSS after each of them.  CSV output is deterministic: the wall_ms column is written as 0 and
the solver report is left out (timings vary run to run and the table must
be byte-identical across reruns); they go into the run manifest instead.

`StudyRecord` is the one definition of a cycle's record: the run.json
`cycles` list of `sthdg study` and the cost ladder of
`scripts/run_ladder.py` store `dataclasses.asdict` of it as it is, so a
field added to `SolveReport` reaches them uncopied.
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
REFINE_FRACTION = 0.25
COARSEN_FRACTION = 0.10


@dataclass
class StudyRecord:
    cycle: int
    n_elements: int
    n_dofs: int
    eta: float
    true_error: float  # sT,h norm of u - u_h against the exact solution
    eff_index: float
    # what the solver did and the phase timings: kept out of the CSV,
    # reported in run.json
    solve: SolveReport
    phase_s: dict[str, float] = field(default_factory=dict)
    phase_maxrss_mb: dict[str, float] = field(default_factory=dict)  # after each phase

    def csv_row(self) -> str:
        return (
            f"{self.cycle},{self.n_elements},{self.n_dofs},"
            f"{self.eta:.12g},{self.true_error:.12g},{self.eff_index:.12g},0"
        )


def _round_12(v: np.ndarray) -> np.ndarray:
    """v rounded to 12 significant decimal digits; 0, inf and nan kept.
    Below about 1e-297 the scale 10^e overflows, so 10^(e - 308) of it is
    applied in a second step."""
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        e = 11 - np.floor(np.log10(np.abs(v)))
        e2 = np.maximum(e - 308, 0)
        r = np.round(v * 10.0 ** (e - e2) * 10.0 ** e2) / 10.0 ** e2 / 10.0 ** (e - e2)
    return np.where(np.isfinite(r), r, v)


def mark(eta_K: np.ndarray, ids: np.ndarray) -> tuple[list[int], list[int]]:
    """Ids to refine (the top `REFINE_FRACTION` by eta_K) and to coarsen
    (the bottom `COARSEN_FRACTION`), where eta_K[i] is the indicator of
    element ids[i].

    Equal rounded indicators keep the order of `ids`, which is ascending in
    `mesh.etab.id`, so ties go to the lower id."""
    if not len(eta_K):
        raise ValueError("cannot mark an empty estimate")
    order = ids[np.argsort(-_round_12(eta_K), kind="stable")].tolist()
    n = len(order)
    return order[:math.ceil(REFINE_FRACTION * n)], order[n - math.floor(COARSEN_FRACTION * n):]


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
        err = error_norms(sys, x, est).sT_norm()
        eff = efficiency_index(est.eta, err)
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
                mesh.refine_uniform()
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
