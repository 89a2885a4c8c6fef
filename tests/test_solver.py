import warnings

import numpy as np
import pytest
import scipy.sparse.linalg as spla
from scipy.sparse import csgraph

from sthdg.adapt import run_study
from sthdg.assembly import FieldEval, apply_dirichlet, assemble
from sthdg.mesh import SpaceTimeMesh
from sthdg.problem import get_problem
from sthdg.solver import SolverError, causal_levels, solve

from conftest import poly_problem, regression_systems


def test_solve_reports():
    spec = poly_problem(1)
    mesh = SpaceTimeMesh.build(1, 3, 2)
    sys = assemble(spec, mesh, 1)

    _, rep = solve(sys)
    assert rep.method == "block-lu"
    assert rep.n_blocks == len(rep.block_sizes) >= 3
    assert sum(rep.block_sizes) == sys.n_dofs
    assert rep.residual <= 1e-10

    single = assemble(spec, SpaceTimeMesh.build(1, 1, 2), 1)
    _, rep = solve(single)
    assert rep.method == "block-lu"
    assert sum(rep.block_sizes) == single.n_dofs


def _causal_systems():
    for spec, mesh, p_s in regression_systems():
        yield spec.name, assemble(spec, mesh, p_s)
    for d in (1, 2):
        spec = poly_problem(d)
        for policy in ("h", "h2"):  # h2 hangs facets in time
            mesh = SpaceTimeMesh.build(d, 2, 2, policy=policy)
            mesh.refine_and_coarsen([mesh.element_ids()[0]])
            yield f"hanging d={d} {policy}", assemble(spec, mesh, 1)
    pulse = get_problem("rotating-pulse", eps=1e-3, d=2)
    _, mesh = run_study(pulse, "amr", cycles=2, p_s=1, n_slabs=2, n_cells=2)
    yield "pulse amr cycle 1", assemble(pulse, mesh, 1)


def test_levels_partition_dofs_and_are_causal():
    for name, sys in _causal_systems():
        A_bc, _ = apply_dirichlet(sys)
        level = causal_levels(A_bc)
        # every dof has one level and every level is used
        assert level.shape == (sys.n_dofs,), name
        assert np.array_equal(np.unique(level), np.arange(level.max() + 1)), name
        # sorted by level, no row has a nonzero in a later level ...
        coo = A_bc.tocoo()
        assert np.all(level[coo.row] >= level[coo.col]), name
        # ... and within a level only unknowns of one block are coupled
        _, comp = csgraph.connected_components(A_bc, directed=True, connection="strong")
        same = level[coo.row] == level[coo.col]
        assert np.array_equal(comp[coo.row[same]], comp[coo.col[same]]), name


def test_refined_slabs_split_into_time_layers():
    # two slabs, each refined once in time: the system splits by time layer,
    # so no level holds a whole slab
    spec = poly_problem(1)
    mesh = SpaceTimeMesh.build(1, 2, 2)
    mesh.refine_uniform(1)
    sys = assemble(spec, mesh, 1)
    _, rep = solve(sys)
    assert rep.n_blocks > 2
    assert max(rep.block_sizes) <= sys.n_dofs // 4


def test_solve_matches_whole_system_lu_on_regressions():
    for spec, mesh, p_s in regression_systems():
        sys = assemble(spec, mesh, p_s)
        x, _ = solve(sys)
        A_bc, b_bc = apply_dirichlet(sys)
        x_lu = spla.spsolve(A_bc.tocsc(), b_bc)
        scale = max(1.0, float(np.max(np.abs(x_lu))))
        assert np.max(np.abs(x - x_lu)) <= 1e-8 * scale, spec.name


def test_solve_is_deterministic():
    spec = poly_problem(2)
    mesh = SpaceTimeMesh.build(2, 2, 2)
    sys1 = assemble(spec, mesh, 1)
    sys2 = assemble(spec, mesh, 1)
    x1, _ = solve(sys1)
    x2, _ = solve(sys2)
    assert x1.tobytes() == x2.tobytes()


def test_linear_solution_is_reproduced_exactly():
    # u = t + x1 lies in the trial space for any p_s >= 1
    spec = get_problem("linear", eps=1.0, d=1)
    mesh = SpaceTimeMesh.build(1, 2, 2)
    sys = assemble(spec, mesh, 1)
    x, _ = solve(sys)
    ev = FieldEval(sys.dofmap, x)
    for eid in sys.dofmap.elem_ids:
        el = mesh.elements[eid]
        ref = np.array([[0.0, 0.0], [-0.5, 0.3], [1.0, -1.0]])
        pts = el.lo + 0.5 * (ref + 1) * (el.hi - el.lo)
        vals, grad, dt = ev.element_at(eid, ref)
        assert np.allclose(vals, pts[:, 0] + pts[:, 1], atol=1e-10)
        assert np.allclose(grad[:, 0], 1.0, atol=1e-9)
        assert np.allclose(dt, 1.0, atol=1e-9)


def test_singular_system_raises_solver_error():
    spec = poly_problem(1)
    sys = assemble(spec, SpaceTimeMesh.build(1, 1, 2), 1)
    free = np.flatnonzero(sys.free_mask())
    A = sys.A.tolil()
    A[free[0], :] = 0.0
    A[:, free[0]] = 0.0
    sys.A = A.tocsr()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        with pytest.raises(SolverError):
            solve(sys)
