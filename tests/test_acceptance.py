"""End-to-end acceptance suite: one test per advertised guarantee.

Each test states its tolerance and wall budget inline.  The expensive
adaptive studies are module-scoped fixtures shared by the convergence,
efficiency, and comparison tests, so the whole module costs one run of
each study.

The two legs of criterion 05 run different cycle counts.  Under the
quadratic time-step policy (h2) a refined element has 4 x 2^d = 16
children, and the marker refines the top 25% of elements, so one cycle
multiplies the element count by at least 0.75 + 0.25 * 16 = 4.75 before
closure (measured 4.75x-5.34x on the pulse; the halving policy's floor
is 2.75x).  Eight h2 cycles would need about 8M dofs, so the h2 leg runs
five, the largest of them 101k dofs, and fits its slope over the last
3 cycles.  That window spans a 21x dof range and drops the leading
pre-asymptotic half of the study, as the h leg's last-4-of-8 window does
(20.6x).  A projected-size guard still stops the h2 study before it
assembles a system past 280k dofs; see README.md.
"""

import csv
import json
import time

import numpy as np
import pytest

from conftest import poly_problem, regression_systems, small_meshes
from oracles import oracle_estimate, oracle_norms, oracle_system
from sthdg.adapt import loglog_slope, run_study
from sthdg.assembly import assemble
from sthdg.cli import main
from sthdg.estimator import error_norms, estimate
from sthdg.mesh import SpaceTimeMesh
from sthdg.problem import get_problem
from sthdg.solver import solve
from sthdg.verify import check_galerkin_orthogonality

_ESTIMATOR_TERMS = ("eta_R", "eta_J1", "eta_J21", "eta_J22", "eta_J3Q",
                    "eta_J3R", "eta_BC1", "eta_BC2", "osc_K", "osc_N")
_NORM_KEYS = {"l2": "l2", "jump_adv": "jump_adv", "neumann_trace": "neumann",
              "grad": "grad", "jump_Q": "jump_Q", "dt": "dt"}


def _close(a, b, rtol=1e-8):
    return abs(a - b) <= rtol * max(abs(a), abs(b), 1.0)


# ---------------------------------------------------------------------------
# shared expensive runs

@pytest.fixture(scope="module")
def pulse_amr_h():
    spec = get_problem("rotating-pulse", eps=1e-3)
    t0 = time.perf_counter()
    records, _ = run_study(spec, "amr", 8, 1, 2, 2, policy="h")
    return records, time.perf_counter() - t0


@pytest.fixture(scope="module")
def pulse_uniform():
    spec = get_problem("rotating-pulse", eps=1e-3)
    records, _ = run_study(spec, "uniform", 4, 1, 2, 2, policy="h")
    return records


@pytest.fixture(scope="module")
def blayer_amr():
    spec = get_problem("boundary-layer", eps=1e-2)
    t0 = time.perf_counter()
    records, _ = run_study(spec, "amr", 8, 1, 2, 2, policy="h")
    return records, time.perf_counter() - t0


@pytest.fixture(scope="module")
def ilayer_records():
    out = {}
    for eps in (1e-2, 1e-3):
        spec = get_problem("interior-layer", eps=eps)
        out[eps], _ = run_study(spec, "amr", 7, 1, 2, 2, policy="h")
    return out


@pytest.fixture(scope="module")
def verify_run(tmp_path_factory):
    """CLI verify on the pulse problem; criteria 8 and 9 both read it."""
    out = tmp_path_factory.mktemp("verify")
    rc = main(["verify", "--problem", "rotating-pulse", "--eps", "1e-3",
               "--dim", "2", "--ps", "1", "--cycles", "3", "--out", str(out)])
    assert rc == 0
    rows = []
    with open(out / "constants.csv", newline="") as fh:
        for rec in csv.DictReader(fh):
            rows.append((rec["inequality"], int(rec["level"]),
                         float(rec["constant"])))
    manifest = json.loads((out / "run.json").read_text())
    return rows, manifest


# ---------------------------------------------------------------------------
# criteria

def test_criterion_01_linear_exactness():
    # u = t + x1 (+ x2) lies in the trial space for p_s = 1, so the
    # sT-norm error must be roundoff.  Tolerance 1e-9, budget 1 s for
    # both dimensions together (symbolic problem setup not counted).
    specs = [(d, get_problem("linear", eps=1.0, d=d)) for d in (1, 2)]
    t0 = time.perf_counter()
    for d, spec in specs:
        sys = assemble(spec, SpaceTimeMesh.build(d, 2, 2), 1)
        x, _ = solve(sys)
        err = error_norms(sys, x, estimate(sys, x)).sT_norm()
        assert err <= 1e-9, f"d={d}: |||u - u_h|||_sT = {err:.3e}"
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0, f"exactness check took {elapsed:.2f}s"


def test_criterion_02_oracle_equivalence():
    # Dense monomial reassembly agrees with the production pipeline on
    # the system tensors and, for 20 random coefficient vectors, on every
    # estimator term and error-norm term to 1e-8 relative (floored at 1).
    # Single- and two-element meshes, both dimensions.  Budget 10 s.
    rng = np.random.default_rng(202)
    t0 = time.perf_counter()
    n_solutions = 0
    for d in (1, 2):
        spec = poly_problem(d)
        for i, mesh in enumerate(small_meshes(d)):
            p_s = 2 if i == 2 else 1
            sys = assemble(spec, mesh, p_s)
            A_ref, b_ref = oracle_system(spec, mesh, p_s)
            assert np.abs(sys.A.toarray() - A_ref).max() <= \
                1e-8 * max(1.0, np.abs(A_ref).max())
            assert np.abs(sys.b - b_ref).max() <= \
                1e-8 * max(1.0, np.abs(b_ref).max())
            for _ in range(4 if i == 0 else 3):
                x = rng.standard_normal(sys.n_dofs)
                n_solutions += 1
                est = estimate(sys, x)
                ref = oracle_estimate(sys, x)
                for k, eid in enumerate(est.elem_ids.tolist()):
                    for term in _ESTIMATOR_TERMS:
                        a, b = getattr(est, term)[k], ref[eid][term]
                        assert _close(a, b), \
                            f"d={d} mesh{i} {term}: {a!r} vs {b!r}"
                nb = error_norms(sys, x, est)
                refn = oracle_norms(sys, x)["per_element"]
                for k, eid in enumerate(est.elem_ids.tolist()):
                    for ours, theirs in _NORM_KEYS.items():
                        a = getattr(nb, ours)[k]
                        assert _close(a, refn[eid][theirs]), \
                            f"d={d} mesh{i} norm {ours}"
    elapsed = time.perf_counter() - t0
    assert n_solutions == 20
    assert elapsed < 10.0, f"oracle sweep took {elapsed:.2f}s"


def test_criterion_03_residuals_and_orthogonality():
    # (a) relative algebraic residual <= 1e-9 on every regression config;
    # (b) subgrid Galerkin orthogonality <= 1e-9 for the pulse on two
    # mesh levels.  Budget 30 s.
    t0 = time.perf_counter()
    for spec, mesh, p_s in regression_systems():
        sys = assemble(spec, mesh, p_s)
        _, rep = solve(sys)
        assert rep.residual <= 1e-9, f"{spec.name}: residual {rep.residual:.3e}"
    pulse = get_problem("rotating-pulse", eps=1e-3)
    for n in (2, 4):
        mesh = SpaceTimeMesh.build(2, n, n, t_final=pulse.t_final,
                                   x_lo=pulse.x_lo, x_hi=pulse.x_hi)
        rep = check_galerkin_orthogonality(pulse, mesh, 1)
        assert rep.relative <= 1e-9, \
            f"{n}x{n}: orthogonality defect {rep.relative:.3e}"
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0, f"orthogonality checks took {elapsed:.2f}s"


def test_criterion_04_estimator_decomposition():
    # The global estimator must equal the sum of its local squares to
    # 1e-12 relative, on every regression config's actual solution.
    for spec, mesh, p_s in regression_systems():
        sys = assemble(spec, mesh, p_s)
        x, _ = solve(sys)
        est = estimate(sys, x)
        total_sq = sum(v ** 2 for v in est.eta_K.tolist())
        assert abs(est.eta ** 2 - total_sq) <= 1e-12 * est.eta ** 2, spec.name


def test_criterion_05_pulse_amr_h(pulse_amr_h, pulse_uniform):
    # Rotating pulse, eps = 1e-3, halving time-step policy: at least 8
    # adaptive cycles, error-vs-dofs slope over the last 4 cycles within
    # -0.5 +/- 0.15, and the adaptive error no worse than uniform
    # refinement at the nearest dof count.  Budget 10 min.
    records, elapsed = pulse_amr_h
    assert len(records) >= 8
    slope = loglog_slope([r.n_dofs for r in records],
                         [r.true_error for r in records], 4)
    assert -0.65 <= slope <= -0.35, f"slope {slope:.4f}"
    finest = pulse_uniform[-1]
    nearest = min(records, key=lambda r: abs(r.n_dofs - finest.n_dofs))
    assert nearest.true_error <= finest.true_error, (
        f"amr {nearest.true_error:.4e} at {nearest.n_dofs} dofs vs uniform "
        f"{finest.true_error:.4e} at {finest.n_dofs}")
    assert elapsed <= 600.0, f"study took {elapsed:.0f}s"


def test_criterion_05_pulse_amr_h2():
    # Same study under the quadratic time-step policy: 5 adaptive cycles,
    # slope over the last 3 within -0.5 +/- 0.15.  Refining an element
    # produces 16 children (4 temporal x 4 spatial), so the element count
    # grows by at least 4.75x per cycle and cycle 7 would need ~8M dofs.
    # Five cycles reach 101k dofs; the last 3 of them span 4.7k-101k dofs,
    # the same ~21x range as the h leg's last 4 of 8, and the first two
    # cycles are pre-asymptotic (local slopes -0.08, -0.05).  The guard
    # stops the study before it assembles a system projected past the
    # cap; the last cycle assembles nothing further.  Budget 10 min.
    n_cycles = 5
    cap = 280_000  # dofs; ~1.8 GB assembled is the most this box affords

    class _OutOfBudget(Exception):
        pass

    seen = []

    def guard(cycle, mesh, sys, x, est, rec):
        seen.append(rec)
        if cycle == n_cycles - 1:
            return
        growth = seen[-1].n_dofs / seen[-2].n_dofs if len(seen) > 1 else 4.0
        if rec.n_dofs * max(growth, 2.0) > cap:
            raise _OutOfBudget

    spec = get_problem("rotating-pulse", eps=1e-3)
    t0 = time.perf_counter()
    try:
        records, _ = run_study(spec, "amr", n_cycles, 1, 2, 2, policy="h2",
                               on_cycle=guard)
    except _OutOfBudget:
        growths = ", ".join(f"{b.n_elements / a.n_elements:.2f}x"
                            for a, b in zip(seen, seen[1:]))
        pytest.fail(
            f"quadratic time-step policy: stopped after {len(seen)} of "
            f"{n_cycles} cycles at {seen[-1].n_dofs} dofs "
            f"({seen[-1].n_elements} elements); measured per-cycle element "
            f"growth {growths} projects the next system beyond the "
            f"{cap}-dof guard")
    elapsed = time.perf_counter() - t0
    assert len(records) == n_cycles == len(seen)
    slope = loglog_slope([r.n_dofs for r in records],
                         [r.true_error for r in records], 3)
    assert -0.65 <= slope <= -0.35, f"slope {slope:.4f}"
    assert elapsed <= 600.0, f"study took {elapsed:.0f}s"


def test_criterion_06_boundary_layer_convergence(blayer_amr):
    # Boundary layer, eps = 1e-2: slope over the last 3 cycles within
    # -1/3 +/- 0.1.  Budget 10 min.
    records, elapsed = blayer_amr
    slope = loglog_slope([r.n_dofs for r in records],
                         [r.true_error for r in records], 3)
    assert -1 / 3 - 0.1 <= slope <= -1 / 3 + 0.1, f"slope {slope:.4f}"
    assert elapsed <= 600.0, f"study took {elapsed:.0f}s"


def test_criterion_07_efficiency_index(pulse_amr_h, pulse_uniform,
                                       blayer_amr, ilayer_records):
    # Every study cycle keeps eta / |||e|||_sT inside
    # [1e-2 sqrt(eps), 1e2 / eps]; the interior-layer studies stay
    # below 30 outright.
    sweeps = [(1e-3, pulse_amr_h[0]), (1e-3, pulse_uniform),
              (1e-2, blayer_amr[0]),
              (1e-2, ilayer_records[1e-2]), (1e-3, ilayer_records[1e-3])]
    for eps, records in sweeps:
        lo, hi = 1e-2 * np.sqrt(eps), 1e2 / eps
        for r in records:
            assert lo <= r.eff_index <= hi, \
                f"eps={eps} cycle {r.cycle}: eff {r.eff_index:.3f}"
    for eps, records in ilayer_records.items():
        worst = max(r.eff_index for r in records)
        assert worst <= 30.0, f"interior layer eps={eps}: eff {worst:.2f}"


def test_criterion_08_saturation_below_one(verify_run):
    # The two-level contraction factor for the pulse must be < 1 on
    # refinement levels 2..4 and land in constants.csv.
    rows, _ = verify_run
    rhos = {lvl: val for name, lvl, val in rows if name == "saturation_rho"}
    assert set(rhos) == {2, 3, 4}
    for lvl in (2, 3, 4):
        assert rhos[lvl] < 1.0, f"level {lvl}: rho = {rhos[lvl]:.6f}"


def test_criterion_09_constants_stable(verify_run):
    # Bubble c2 constants positive and level-stable to 1%; every other
    # measured inequality family drifts by at most 2x across the three
    # uniform levels; the constants pass itself fits in 2 minutes.
    rows, manifest = verify_run
    series = {}
    for name, lvl, val in rows:
        series.setdefault(name, {})[lvl] = val
    for name in ("bubble_elem_c2", "bubble_face_c2"):
        vals = list(series[name].values())
        assert len(vals) == 3 and min(vals) > 0.0
        assert max(vals) / min(vals) <= 1.01, f"{name}: {vals}"
    for name, by_level in series.items():
        if name.startswith("bubble_") or name == "saturation_rho":
            continue
        vals = list(by_level.values())
        assert len(vals) == 3 and min(vals) > 0.0, name
        assert max(vals) / min(vals) <= 2.0, f"{name}: {vals}"
    t = manifest["timings_s"]
    core = t["bubbles"] + t["inequalities"] + t["oswald"]
    assert core <= 120.0, f"constants pass took {core:.1f}s"


def test_criterion_10_reruns_byte_identical(tmp_path):
    # Two identical CLI study invocations must produce byte-identical
    # study.csv files.
    args = ["study", "--problem", "rotating-pulse", "--eps", "1e-3",
            "--dim", "2", "--ps", "1", "--cycles", "3", "--mode", "amr",
            "--seed", "0"]
    blobs = []
    for sub in ("a", "b"):
        out = tmp_path / sub
        assert main(args + ["--out", str(out)]) == 0
        blobs.append((out / "study.csv").read_bytes())
    assert blobs[0] == blobs[1]
    assert b"cycle,n_elements,n_dofs" in blobs[0]
