import dataclasses
import math

import numpy as np
import pytest

from sthdg import estimator
from sthdg.adapt import run_study
from sthdg.assembly import assemble, build_dofmap
from sthdg.estimator import (
    efficiency_index,
    error_norms,
    estimate,
    local_efficiency,
    regime_weights,
)
from sthdg.mesh import SpaceTimeMesh
from sthdg.problem import get_problem
from sthdg.solver import solve

from conftest import hanging_mesh, poly_problem, problem_mesh, regression_systems
from oracles import (
    Element, elements, oracle_estimate, oracle_eta_J1, oracle_local_efficiency, oracle_norms,
    regime_and_weights, s_norm, slab_height,
)

_TERMS = ("eta_R", "eta_J1", "eta_J21", "eta_J22", "eta_J3Q", "eta_J3R",
          "eta_BC1", "eta_BC2", "osc_K", "osc_N")


def _element(dt, h, d=2):
    lo = np.zeros(d + 1)
    hi = np.concatenate(([dt], np.full(d, h)))
    return Element(eid=1, level=0, lo=lo, hi=hi, slab=0)


def test_regime_classification():
    eps = 1e-2
    rw = regime_and_weights(_element(5e-3, 5e-3), 0.25, eps)
    assert rw.regime == "d" and rw.eps_tilde == 1.0
    assert rw.tau_eps == 0.25

    rw = regime_and_weights(_element(5e-3, 0.1), 0.25, eps)
    assert rw.regime == "x" and abs(rw.eps_tilde - 0.1) < 1e-15

    rw = regime_and_weights(_element(0.1, 0.1), 0.25, eps)
    assert rw.regime == "c" and rw.eps_tilde == eps

    # lambda caps at one in the diffusion dominated limit
    assert regime_and_weights(_element(0.1, 0.5), 0.25, 1.0).lambda_K == 0.5
    assert regime_and_weights(_element(0.1, 2.0), 0.25, 1.0).lambda_K == 1.0


def test_slab_height_uses_slab_not_element():
    mesh = SpaceTimeMesh.build(1, 2, 2)
    eid = int(mesh.etab.id[0])
    mesh.refine_and_coarsen([eid])
    kid = next(el for el in elements(mesh).values() if el.level == 1)
    assert abs(slab_height(mesh, kid) - 0.5) < 1e-14
    assert kid.dt < 0.5


def _assert_regime_weights_match_reference(mesh, eps) -> set[str]:
    dm = build_dofmap(mesh, 1)
    els = elements(mesh)
    weights = [regime_and_weights(els[eid], slab_height(mesh, els[eid]), eps)
               for eid in dm.mesh.etab.id.tolist()]
    eps_tilde, tau = regime_weights(dm, eps)
    assert eps_tilde.tolist() == [w.eps_tilde for w in weights]
    assert tau.tolist() == [w.tau_eps for w in weights]
    return {w.regime for w in weights}


def test_tau_eps_matches_regime_weights():
    # level 0: dt = h = 0.5; level 1 under h2: dt = 0.125, h = 0.25, so the
    # sweep meets all three regimes and both ties h == eps
    mesh = hanging_mesh(2, policy="h2")
    regimes = set()
    for eps in (1e-3, 0.2, 0.25, 0.3, 0.5, 1.0):
        regimes |= _assert_regime_weights_match_reference(mesh, eps)
    assert regimes == {"d", "x", "c"}


@pytest.mark.parametrize("dt,h,eps,regime", [
    (5e-3, 5e-3, 1e-2, "d"), (5e-3, 0.1, 1e-2, "x"), (0.1, 0.1, 1e-2, "c"),
    (0.1, 0.5, 1.0, "d"), (0.1, 2.0, 1.0, "x"),
])
def test_regime_weights_match_scalar_reference(dt, h, eps, regime):
    # the cases of test_regime_classification, on a one-slab 2x2 mesh
    mesh = SpaceTimeMesh.build(2, 1, 2, t_final=dt, x_hi=[2 * h, 2 * h])
    assert _assert_regime_weights_match_reference(mesh, eps) == {regime}


def test_estimator_matches_dense_oracle(rng):
    # polynomial problems are integrated exactly at both orders, so the
    # oracle runs at its double-order default; for transcendental data the
    # two must instead be evaluated on the same rule
    for spec, mesh, p_s in regression_systems():
        poly = spec.name.startswith(("poly", "linear"))
        sys = assemble(spec, mesh, p_s)
        for _ in range(2):
            x = rng.standard_normal(sys.n_dofs)
            est = estimate(sys, x)
            want = oracle_estimate(sys, x, npts=None if poly else sys.quad_n + 2)
            for i, eid in enumerate(mesh.etab.id.tolist()):
                for k in _TERMS:
                    a, b = getattr(est, k)[i], want[eid][k]
                    assert abs(a - b) <= 1e-8 * max(abs(a), abs(b), 1.0), (
                        f"{spec.name} {k}")


def test_norms_match_dense_oracle(rng):
    for spec, mesh, p_s in regression_systems():
        poly = spec.name.startswith(("poly", "linear"))
        sys = assemble(spec, mesh, p_s)
        x = rng.standard_normal(sys.n_dofs)
        nb = error_norms(sys, x, estimate(sys, x))
        want = oracle_norms(sys, x, npts=None if poly else sys.quad_n + 2)
        keymap = dict(l2="l2", jump_adv="jump_adv", neumann_trace="neumann",
                      grad="grad", jump_Q="jump_Q", dt="dt")
        for i, eid in enumerate(mesh.etab.id.tolist()):
            for ours, theirs in keymap.items():
                a = getattr(nb, ours)[i]
                b = want["per_element"][eid][theirs]
                assert abs(a - b) <= 1e-8 * max(abs(a), abs(b), 1.0), (
                    f"{spec.name} {ours}")
        assert abs(s_norm(nb) - want["s_norm"]) <= 1e-8 * max(want["s_norm"], 1.0)
        assert abs(nb.sT_norm() - want["sT_norm"]) <= 1e-8 * max(want["sT_norm"], 1.0)


def test_eta_decomposition_is_exact(rng):
    spec, mesh, p_s = regression_systems()[1]
    sys = assemble(spec, mesh, p_s)
    x = rng.standard_normal(sys.n_dofs)
    est = estimate(sys, x)
    total_sq = float(np.sum(est.eta_K ** 2))
    assert abs(est.eta**2 - total_sq) <= 1e-12 * est.eta**2


def test_estimator_vanishes_on_reproduced_solution():
    spec = get_problem("linear", eps=1.0, d=2)
    mesh = SpaceTimeMesh.build(2, 2, 2)
    sys = assemble(spec, mesh, 1)
    x, _ = solve(sys)
    est = estimate(sys, x)
    assert est.eta <= 1e-8
    nb = error_norms(sys, x, est)
    assert nb.sT_norm() <= 1e-9


def test_norms_positive_on_wrong_solution(rng):
    spec = get_problem("sine", eps=0.1, d=1)
    mesh = SpaceTimeMesh.build(1, 2, 2)
    sys = assemble(spec, mesh, 1)
    x = rng.standard_normal(sys.n_dofs)
    est = estimate(sys, x)
    nb = error_norms(sys, x, est)
    assert s_norm(nb) > 0
    assert nb.sT_norm() > 0
    assert est.eta > 0


def test_sT_weighting_identity():
    # with t_final = 2 the sT norm adds (T - 1) x (neumann + grad) to s^2
    spec = poly_problem(1)
    spec.t_final = 2.0
    mesh = SpaceTimeMesh.build(1, 2, 2, t_final=2.0)
    sys = assemble(spec, mesh, 1)
    x, _ = solve(sys)
    nb = error_norms(sys, x, estimate(sys, x))
    lhs = nb.sT_norm() ** 2 - s_norm(nb) ** 2
    rhs = (nb.T - 1.0) * float(nb.neumann_trace.sum() + nb.grad.sum())
    assert nb.T == 2.0
    assert abs(lhs - rhs) <= 1e-12 * max(1.0, nb.sT_norm() ** 2)


def test_efficiency_index_guards():
    assert efficiency_index(1.0, 0.5) == 2.0
    assert math.isnan(efficiency_index(0.0, 0.0))
    assert math.isinf(efficiency_index(1.0, 0.0))


def test_local_efficiency_finite():
    spec = get_problem("sine", eps=0.1, d=1)
    mesh = problem_mesh(spec, 2, 2)
    sys = assemble(spec, mesh, 1)
    x, _ = solve(sys)
    est = estimate(sys, x)
    nb = error_norms(sys, x, est)
    le = local_efficiency(sys, est, nb)
    assert le.shape == (len(sys.dofmap.mesh.etab),)
    assert np.all(np.isfinite(le) & (le > 0))


@pytest.mark.parametrize("d", [1, 2])
@pytest.mark.parametrize("policy", ["h", "h2"])
def test_local_efficiency_matches_patch_loop(d, policy):
    spec = poly_problem(d)
    sys = assemble(spec, hanging_mesh(d, policy=policy), 1)
    x, _ = solve(sys)
    est = estimate(sys, x)
    nb = error_norms(sys, x, est)
    got = local_efficiency(sys, est, nb)
    want = oracle_local_efficiency(sys, est, nb)
    assert got.tolist() == pytest.approx([want[e] for e in sys.dofmap.mesh.etab.id.tolist()],
                                         rel=1e-12, abs=0)


def _j1_systems():
    for d in (1, 2):
        for policy in ("h", "h2"):
            sys = assemble(poly_problem(d), hanging_mesh(d, policy=policy), 1)
            yield f"hanging d={d} {policy}", sys, solve(sys)[0]
    yield "pulse amr cycle 4", *_pulse_cycle_4()


def _pulse_cycle_4():
    """The system and solution of cycle 4 of the pulse `h` AMR study."""
    pulse = get_problem("rotating-pulse", eps=1e-3, d=2)
    seen = {}
    run_study(pulse, "amr", cycles=5, p_s=1, n_slabs=2, n_cells=2,
              on_cycle=lambda cycle, mesh, sys, x, est, rec: seen.update(sys=sys, x=x))
    return seen["sys"], seen["x"]


def test_eta_J1_matches_per_facet_walk_bitwise():
    # eta_J1 pairs facet sides with arrays; the per-facet walk with one
    # np.dot per facet must give the same bits, or marking could change
    for name, sys, x in _j1_systems():
        est = estimate(sys, x)
        want = oracle_eta_J1(sys, x)
        assert np.any(want > 0), name
        assert est.eta_J1.tobytes() == want.tobytes(), name
        eta_K = np.sqrt(sum(np.float_power(want if k == "eta_J1" else getattr(est, k), 2.0)
                            for k in _TERMS[:8]))
        assert est.eta_K.tobytes() == eta_K.tobytes(), name


def test_volume_sums_do_not_depend_on_the_chunk(monkeypatch):
    # estimate and error_norms sum each element's quadrature in chunks of
    # elements; byte-identical outputs rely on those sums being the same
    # bits as with one chunk per element class
    sys, x = _pulse_cycle_4()
    est = estimate(sys, x)
    norms = error_norms(sys, x, est)
    # the volume loops cut at least one class into several chunks
    step = estimator._elem_chunk((sys.quad_n + 2) ** 3)
    assert max(len(c.elem) for c in sys.dofmap.elem_classes) > step
    monkeypatch.setattr(estimator, "_elem_chunk", lambda n_points: len(sys.dofmap.mesh.etab))
    for got, want in ((estimate(sys, x), est), (error_norms(sys, x, est), norms)):
        for f in dataclasses.fields(want):
            assert (np.asarray(getattr(got, f.name)).tobytes()
                    == np.asarray(getattr(want, f.name)).tobytes()), f.name
