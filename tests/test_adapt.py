import math
import sys
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sthdg.adapt import (
    CSV_HEADER,
    StudyRecord,
    loglog_slope,
    mark,
    run_study,
    write_csv,
)
from sthdg.problem import get_problem
from sthdg.solver import SolveReport, SolverError


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
    # ten elements: the three largest eta_K are refined, largest first,
    # and the smallest is coarsened, whatever their ids
    est = _fake_estimate({0: 0.3, 1: 3.0, 2: 0.2, 3: 4.0, 4: 0.05,
                          5: 5.0, 6: 0.7, 7: 0.9, 8: 0.6, 9: 0.4})
    refine, coarsen = mark(*est)
    assert refine == [5, 3, 1]
    assert coarsen == [4]


def test_mark_ignores_last_bit_differences_at_the_cut():
    # mirror-image elements whose eta_K differ by 1 ulp straddle the cut
    # (ceil(0.25*8)=2 refined): the lower id is refined whichever of the two
    # sums came out larger, also where the indicators are tiny
    for scale in (1.0, 1e-300):
        e = 0.5083427265643041 * scale
        up = np.nextafter(e, 1.0)
        for a, b in ((e, up), (up, e)):
            est = _fake_estimate({0: 0.1 * scale, 1: 0.2 * scale, 2: 0.3 * scale,
                                  3: 2.0 * scale, 4: 0.05 * scale, 5: a, 6: 0.4 * scale, 7: b})
            refine, _ = mark(*est)
            assert refine == [3, 5], scale


def test_mark_keeps_zero_and_tiny_indicators_ordered():
    # 1e-3 > 1e-300 > 5e-324 (subnormal) > 0: the three nonzero indicators
    # are refined in that order, ahead of every zero, and the zero with the
    # highest id is coarsened
    est = _fake_estimate({1: 0.0, 2: 1e-300, 3: 5e-324, 4: 1e-3,
                          **{eid: 0.0 for eid in range(5, 11)}})
    refine, coarsen = mark(*est)
    assert refine == [4, 2, 3]
    assert coarsen == [10]


@st.composite
def _estimates(draw):
    """(eta_K, ids) as `mark` takes them, ids ascending as in `mesh.etab.id`.

    Indicators come from a few bases k * 10^j, down to tiny normal values,
    and their neighbours up to two ulps away, which round to the same 12
    digits, plus zeros, 1e-300 and two distinct subnormal values."""
    nice = st.builds(lambda k, j: k * 10.0**j, st.integers(1, 999), st.integers(-307, 5))
    pool = draw(st.lists(nice, min_size=1, max_size=4)) + [0.0, 5e-324, 1e-320, 1e-300]
    n = draw(st.integers(1, 40))
    eta = []
    for _ in range(n):
        v = draw(st.sampled_from(pool))
        ulps = draw(st.integers(-2, 2)) if v >= sys.float_info.min else 0
        for _ in range(abs(ulps)):
            v = np.nextafter(v, math.copysign(math.inf, ulps))
        eta.append(v)
    ids = sorted(draw(st.sets(st.integers(1, 2**63 - 1), min_size=n, max_size=n)))
    return np.array(eta), np.array(ids, dtype=np.int64)


@settings(max_examples=200, deadline=None)
@given(_estimates())
def test_mark_refines_top_quarter_and_coarsens_bottom_tenth(est):
    eta, ids = est
    refine, coarsen = mark(eta, ids)
    n = len(ids)
    assert len(refine) == math.ceil(0.25 * n)
    assert len(coarsen) == math.floor(0.10 * n)
    assert not set(refine) & set(coarsen)
    # descending by eta rounded to 12 significant digits, then ascending id,
    # so indicators an ulp apart tie
    rank = {i: (-float(f"{v:.12g}"), i) for i, v in zip(ids.tolist(), eta.tolist())}
    order = sorted(rank, key=rank.get)
    assert refine == order[:len(refine)]
    assert coarsen == order[n - len(coarsen):]


def test_mark_validates_inputs():
    with pytest.raises(ValueError, match="empty estimate"):
        mark(*_fake_estimate({}))


def test_csv_rows_are_deterministic(tmp_path):
    rec = StudyRecord(cycle=0, n_elements=4, n_dofs=100, eta=0.5,
                      true_error=math.nan, eff_index=math.nan,
                      solve=SolveReport(n_dofs=100, nnz=2000, residual=1e-16,
                                        block_sizes=[40, 30, 30], fill=[300, 300, 300],
                                        factored=[40, 30, 30]))
    assert rec.csv_row() == "0,4,100,0.5,nan,nan,0"
    assert replace(rec, eff_index=math.inf).csv_row() == "0,4,100,0.5,nan,inf,0"
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
    assert records[1].n_elements == 2 * math.prod(mesh.split)
    # linear exact solution: zero error on every cycle
    assert all(r.true_error <= 1e-9 for r in records)


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
