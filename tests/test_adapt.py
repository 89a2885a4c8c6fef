import math

import numpy as np
import pytest

from sthdg.adapt import (
    CSV_HEADER,
    StudyRecord,
    loglog_slope,
    mark,
    run_study,
    write_csv,
)
from sthdg.estimator import ElementEstimate, EstimateResult
from sthdg.problem import get_problem
from sthdg.solver import SolverError


def _fake_estimate(etas: dict[int, float]) -> EstimateResult:
    per = {eid: ElementEstimate(eta_R=v) for eid, v in etas.items()}
    eta = math.sqrt(sum(v**2 for v in etas.values()))
    return EstimateResult(per_element=per, eta=eta)


def test_mark_fractions_and_tie_breaking():
    # ten equal indicators: refine ceil(0.25*10)=3 lowest ids, coarsen
    # floor(0.10*10)=1 highest id
    est = _fake_estimate({eid: 1.0 for eid in range(10)})
    refine, coarsen = mark(est)
    assert refine == [0, 1, 2]
    assert coarsen == [9]


def test_mark_orders_by_indicator():
    est = _fake_estimate({1: 0.1, 2: 5.0, 3: 0.2, 4: 4.0})
    refine, coarsen = mark(est, refine_fraction=0.5, coarsen_fraction=0.25)
    assert refine == [2, 4]
    assert coarsen == [1]


def test_mark_validates_inputs():
    est = _fake_estimate({1: 1.0})
    with pytest.raises(ValueError):
        mark(est, refine_fraction=0.7, coarsen_fraction=0.5)
    with pytest.raises(ValueError):
        mark(est, refine_fraction=-0.1)
    with pytest.raises(ValueError):
        mark(EstimateResult(per_element={}, eta=0.0))


def test_csv_rows_are_deterministic(tmp_path):
    rec = StudyRecord(cycle=0, n_elements=4, n_dofs=100, eta=0.5,
                      true_error=math.nan, eff_index=math.nan, wall_ms=123.4,
                      solver_blocks=3, max_block_dofs=40, residual=1e-16)
    assert rec.csv_row() == "0,4,100,0.5,nan,nan,0"
    p = tmp_path / "study.csv"
    write_csv([rec], p)
    text = p.read_text()
    assert text.splitlines()[0] == CSV_HEADER
    assert text.endswith("0,4,100,0.5,nan,nan,0\n")


def test_run_study_amr_reduces_error(tmp_path):
    spec = get_problem("sine", eps=0.1, d=1)
    csv = tmp_path / "study.csv"
    records, mesh = run_study(
        spec, "amr", cycles=3, p_s=1, n_slabs=2, n_cells=2, csv_path=csv)
    assert len(records) == 3
    assert records[-1].n_elements > records[0].n_elements
    assert records[-1].true_error < records[0].true_error
    assert all(np.isfinite(r.eff_index) for r in records)
    lines = csv.read_text().splitlines()
    assert lines[0] == CSV_HEADER
    assert len(lines) == 4
    assert all(line.endswith(",0") for line in lines[1:])


def test_run_study_uniform_growth():
    spec = get_problem("linear", eps=1.0, d=1)
    records, mesh = run_study(
        spec, "uniform", cycles=2, p_s=1, n_slabs=1, n_cells=2)
    assert records[0].n_elements == 2
    assert records[1].n_elements == 2 * mesh.n_children()
    # linear exact solution: zero error on every cycle
    assert all(r.true_error <= 1e-9 for r in records)


def test_run_study_without_exact_solution(tmp_path):
    from sthdg.problem import from_symbolic

    spec = from_symbolic("noexact", 1, 0.5, "t*x1", ["1"], [0.0], [1.0])
    spec.g_initial = spec.exact
    spec.g_dirichlet = spec.exact
    spec.exact = None
    records, _ = run_study(spec, "amr", cycles=2, p_s=1, n_slabs=1, n_cells=2)
    assert all(math.isnan(r.true_error) for r in records)
    assert all(math.isnan(r.eff_index) for r in records)


def test_run_study_flushes_partial_csv_on_failure(tmp_path, monkeypatch):
    import sthdg.adapt as adapt_mod

    spec = get_problem("sine", eps=0.1, d=1)
    csv = tmp_path / "study.csv"
    calls = {"n": 0}
    real_solve = adapt_mod.solve

    def failing_solve(sys):
        calls["n"] += 1
        if calls["n"] >= 2:
            raise SolverError("synthetic failure")
        return real_solve(sys)

    monkeypatch.setattr(adapt_mod, "solve", failing_solve)
    with pytest.raises(SolverError):
        run_study(spec, "amr", cycles=3, p_s=1, n_slabs=2, n_cells=2,
                  csv_path=csv)
    lines = csv.read_text().splitlines()
    assert lines[0] == CSV_HEADER
    assert len(lines) == 2  # the one completed cycle survived


def test_run_study_on_cycle_hook():
    spec = get_problem("linear", eps=1.0, d=1)
    seen = []

    def hook(cycle, mesh, sys, x, est, rec):
        seen.append((cycle, mesh.n_elements, len(x)))

    run_study(spec, "uniform", cycles=2, p_s=1, n_slabs=1, n_cells=1,
              on_cycle=hook)
    assert [s[0] for s in seen] == [0, 1]
    assert seen[1][1] > seen[0][1]


def test_run_study_validates_arguments():
    spec = get_problem("linear", eps=1.0, d=1)
    with pytest.raises(ValueError):
        run_study(spec, "bisect", cycles=1, p_s=1, n_slabs=1, n_cells=1)
    with pytest.raises(ValueError):
        run_study(spec, "amr", cycles=0, p_s=1, n_slabs=1, n_cells=1)


def test_loglog_slope_recovers_power_law():
    ns = [10, 20, 40, 80, 160]
    errs = [3.0 * n**-0.5 for n in ns]
    assert abs(loglog_slope(ns, errs, 4) - (-0.5)) < 1e-12
    # only the last points enter
    errs[0] = 1e6
    assert abs(loglog_slope(ns, errs, 4) - (-0.5)) < 1e-12
