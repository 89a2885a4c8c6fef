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
from sthdg.problem import ProblemSpec, get_problem
from sthdg.solver import SolveReport, SolverError

from oracles import from_symbolic


def _fake_estimate(etas: dict[int, float]) -> tuple[np.ndarray, np.ndarray]:
    """(eta_K, ids) as `mark` takes them."""
    return np.array(list(etas.values()), dtype=float), np.array(list(etas), dtype=int)


def test_mark_fractions_and_tie_breaking():
    # ten equal indicators: refine ceil(0.25*10)=3 lowest ids, coarsen
    # floor(0.10*10)=1 highest id
    est = _fake_estimate({eid: 1.0 for eid in range(10)})
    refine, coarsen = mark(*est)
    assert refine == [0, 1, 2]
    assert coarsen == [9]


def test_mark_orders_by_indicator():
    est = _fake_estimate({1: 0.1, 2: 5.0, 3: 0.2, 4: 4.0})
    refine, coarsen = mark(*est, refine_fraction=0.5, coarsen_fraction=0.25)
    assert refine == [2, 4]
    assert coarsen == [1]


def test_mark_ignores_last_bit_differences_at_the_cut():
    # mirror-image elements whose eta_K differ by 1 ulp straddle the cut:
    # the lower id is refined whichever of the two sums came out larger
    e = 0.5083427265643041
    up = np.nextafter(e, 1.0)
    for a, b in ((e, up), (up, e)):
        est = _fake_estimate({0: 0.1, 3: 2.0, 5: a, 7: b})
        refine, _ = mark(*est, refine_fraction=0.5, coarsen_fraction=0.0)
        assert refine == [3, 5]


def test_mark_keeps_zero_and_tiny_indicators_ordered():
    est = _fake_estimate({1: 0.0, 2: 1e-300, 3: 5e-324, 4: 1e-3})
    refine, coarsen = mark(*est, refine_fraction=0.75, coarsen_fraction=0.25)
    assert refine == [4, 2, 3]
    assert coarsen == [1]


def test_mark_validates_inputs():
    est = _fake_estimate({1: 1.0})
    with pytest.raises(ValueError):
        mark(*est, refine_fraction=0.7, coarsen_fraction=0.5)
    with pytest.raises(ValueError):
        mark(*est, refine_fraction=-0.1)
    with pytest.raises(ValueError):
        mark(*_fake_estimate({}))


def test_csv_rows_are_deterministic(tmp_path):
    rec = StudyRecord(cycle=0, n_elements=4, n_dofs=100, eta=0.5,
                      true_error=math.nan, eff_index=math.nan,
                      solve=SolveReport(n_dofs=100, nnz=2000, residual=1e-16,
                                        block_sizes=[40, 30, 30], fill=[300, 300, 300],
                                        factored=[40, 30, 30]))
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
    # the data of u = t*x1, from a spec that states no exact solution
    base = from_symbolic("noexact", 1, 0.5, "t*x1", ["1"], [0.0], [1.0])

    class DataOnly(ProblemSpec):
        def initial_data(self, pts):
            return base.exact(pts)

        dirichlet_data = initial_data

    spec = DataOnly(**{**vars(base), "exact_jet": None})
    assert spec.exact_jet is None
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
