import tracemalloc
import warnings

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.sparse import csgraph

from sthdg.adapt import run_study
from sthdg.assembly import AssembledSystem, apply_dirichlet, assemble
from sthdg.mesh import SpaceTimeMesh
from sthdg.problem import get_problem
from sthdg import solver
from sthdg.solver import SolverError, _lu_solve, causal_levels, solve

from conftest import poly_problem, regression_systems
from oracles import (element_at, elements, oracle_apply_dirichlet, oracle_block_solve,
                     oracle_levels)


def test_solve_reports():
    spec = poly_problem(1)
    mesh = SpaceTimeMesh.build(1, 3, 2)
    sys = assemble(spec, mesh, 1)

    _, rep = solve(sys)
    assert rep.n_blocks == len(rep.block_sizes) >= 3
    assert sum(rep.block_sizes) == sys.n_dofs - len(sys.dirichlet_idx)
    assert rep.residual <= 1e-10

    single = assemble(spec, SpaceTimeMesh.build(1, 1, 2), 1)
    _, rep = solve(single)
    assert sum(rep.block_sizes) == single.n_dofs - len(single.dirichlet_idx)


def _causal_systems():
    for spec, mesh, p_s in regression_systems():
        yield spec.name, assemble(spec, mesh, p_s)
    for d in (1, 2):
        spec = poly_problem(d)
        for policy in ("h", "h2"):  # h2 hangs facets in time
            mesh = SpaceTimeMesh.build(d, 2, 2, policy=policy)
            mesh.refine_and_coarsen(mesh.etab.id[:1].tolist())
            yield f"hanging d={d} {policy}", assemble(spec, mesh, 1)
    pulse = get_problem("rotating-pulse", eps=1e-3, d=2)
    _, mesh = run_study(pulse, "amr", cycles=2, p_s=1, n_slabs=2, n_cells=2)
    yield "pulse amr cycle 1", assemble(pulse, mesh, 1)


def _nonzero(A: sp.csr_matrix) -> sp.csr_matrix:
    """A without its stored zeros: the graph the levels are taken from."""
    A = A.copy()
    A.eliminate_zeros()
    return A


def test_levels_partition_dofs_and_are_causal():
    for name, sys in _causal_systems():
        level = causal_levels(sys.A)
        free = sys.free_mask()
        # every dof has one level and the free dofs use every level
        assert level.shape == (sys.n_dofs,), name
        assert np.array_equal(np.unique(level[free]), np.arange(level.max() + 1)), name
        # sorted by level, no free row of A has a nonzero in a later level ...
        A = _nonzero(sys.A)
        coo = A.tocoo()
        row, col = coo.row[free[coo.row]], coo.col[free[coo.row]]
        assert np.all(level[row] >= level[col]), name
        # ... and within a level only unknowns of one block are coupled
        _, comp = csgraph.connected_components(A, directed=True, connection="strong")
        same = level[row] == level[col]
        assert np.array_equal(comp[row[same]], comp[col[same]]), name


def test_levels_match_networkx_condensation():
    for name, sys in _causal_systems():
        want = oracle_levels(_nonzero(sys.A))
        assert np.array_equal(causal_levels(sys.A), want), name


def test_level_rows_match_the_whole_dirichlet_system():
    # apply_dirichlet(sys, rows) builds those free rows of the whole Dirichlet
    # system with the same arrays, byte for byte, in any order
    rng = np.random.default_rng(1)
    for name, sys in _causal_systems():
        A_bc, b_bc = oracle_apply_dirichlet(sys)
        free = sys.free_mask()
        level = causal_levels(sys.A)
        subsets = [np.flatnonzero((level == k) & free) for k in range(level.max() + 1)]
        some = rng.choice(np.flatnonzero(free), size=free.sum() // 3, replace=False)
        subsets.append(rng.permutation(some))
        for rows in subsets:
            got, b_got = apply_dirichlet(sys, rows)
            want = A_bc[rows]
            assert got.shape == want.shape, name
            for key in ("data", "indices", "indptr"):
                a, b = getattr(got, key), getattr(want, key)
                assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), (name, key)
            assert b_got.tobytes() == b_bc[rows].tobytes(), name


def _solve_systems():
    yield "sine d=1", assemble(get_problem("sine", eps=0.1, d=1),
                               SpaceTimeMesh.build(1, 4, 4), 1)
    yield next((name, sys) for name, sys in _causal_systems() if name == "pulse amr cycle 1")


def test_dirichlet_values_are_data_not_unknowns(monkeypatch):
    # solve writes the projected values into x as they are and gathers the
    # rows of free dofs only, one level at a time; the free dofs' levels are
    # those of the whole Dirichlet system less one, since its level 0 held
    # only the Dirichlet dofs, which read nothing
    gathered = []
    monkeypatch.setattr(solver, "apply_dirichlet",
                        lambda sys, rows: gathered.append(rows) or apply_dirichlet(sys, rows))
    for name, sys in _solve_systems():
        assert len(sys.dirichlet_idx) > 0, name
        gathered.clear()
        x, rep = solve(sys)
        assert x[sys.dirichlet_idx].tobytes() == sys.dirichlet_values.tobytes(), name
        assert sum(rep.block_sizes) == sys.n_dofs - len(sys.dirichlet_idx), name
        assert [len(rows) for rows in gathered] == rep.block_sizes, name
        free = sys.free_mask()
        assert np.array_equal(np.sort(np.concatenate(gathered)), np.flatnonzero(free)), name
        whole = oracle_levels(oracle_apply_dirichlet(sys)[0])
        assert np.all(whole[~free] == 0) and np.all(whole[free] >= 1), name
        assert np.array_equal(causal_levels(sys.A)[free], whole[free] - 1), name


def test_solve_is_the_permuted_copy_substitution_bit_for_bit():
    # gathering each level's rows from A_bc changes no sum and no LU input
    for name, sys in _causal_systems():
        assert solve(sys)[0].tobytes() == oracle_block_solve(sys).tobytes(), name


@pytest.fixture
def condense_all(monkeypatch):
    """Factor every p_s = 1 level that holds element and facet dofs on its
    element Schur complement, whatever its size."""
    monkeypatch.setattr(solver, "_CONDENSE_MIN", 0)


def _condensed_systems():
    yield from _causal_systems()
    # p_s = 2 in d = 2: facet blocks of 6 (lateral) and 9 (time) dofs
    mesh = SpaceTimeMesh.build(2, 2, 2, policy="h2")
    mesh.refine_and_coarsen(mesh.etab.id[:1].tolist())
    yield "hanging d=2 h2 p_s=2", assemble(poly_problem(2), mesh, 2)


def test_condensed_levels_match_the_oracle(condense_all):
    for name, sys in _condensed_systems():
        x, rep = solve(sys)  # passes _check_residual
        want = oracle_block_solve(sys)
        assert np.max(np.abs(x - want)) <= 1e-12 * np.max(np.abs(want)), name
        assert rep.residual <= 1e-10, name
        # at p_s = 1 some level was condensed: SuperLU factored its element
        # dofs alone; at p_s = 2 every level is factored whole
        condensed = any(f < n for f, n in zip(rep.factored, rep.block_sizes))
        assert condensed == (sys.dofmap.p_s == 1), name


def test_small_levels_are_factored_whole():
    for name, sys in _condensed_systems():
        _, rep = solve(sys)
        assert rep.factored == rep.block_sizes, name


def _hanging_poly_system():
    return assemble(poly_problem(2), SpaceTimeMesh.build(2, 2, 2, policy="h2"), 1)


def test_singular_facet_block_raises_solver_error(condense_all):
    sys = _hanging_poly_system()
    dm = sys.dofmap
    # zero the own block of a free facet that the elements on both sides read
    f0 = next(f for f in dm.facet_dof.tolist()
              if sys.free_mask()[f] and np.any(sys.A[:dm.n_elem_dofs, f].toarray()))
    k = np.diff(dm.facet_dof, append=dm.n_dofs)[np.searchsorted(dm.facet_dof, f0)]
    A = sys.A.tolil()
    A[f0:f0 + k, f0:f0 + k] = 0.0
    sys.A = A.tocsr()
    with pytest.raises(SolverError, match="singular facet block"):
        solve(sys)


def test_singular_element_schur_complement_raises_solver_error(condense_all, monkeypatch):
    # two equal rows of one element make two equal rows of S; with unequal
    # right-hand sides the system has no solution.  SuperLU meets no exactly
    # zero pivot here, so the residual check is what stops it
    sys = _hanging_poly_system()
    A = sys.A
    i, j = 0, 1
    assert np.array_equal(A.indices[A.indptr[i]:A.indptr[i + 1]],
                          A.indices[A.indptr[j]:A.indptr[j + 1]])
    A.data[A.indptr[j]:A.indptr[j + 1]] = A.data[A.indptr[i]:A.indptr[i + 1]]
    assert sys.b[i] != sys.b[j]
    facet_inverse, calls = solver._facet_inverse, []
    monkeypatch.setattr(solver, "_facet_inverse",
                        lambda *a: calls.append(a) or facet_inverse(*a))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        with pytest.raises(SolverError):
            solve(sys)
    assert calls


@pytest.fixture(scope="module")
def pulse_cycle4():
    pulse = get_problem("rotating-pulse", eps=1e-3, d=2)
    _, mesh = run_study(pulse, "amr", cycles=4, p_s=1, n_slabs=2, n_cells=2)
    sys = assemble(pulse, mesh, 1)
    assert sys.n_dofs == 4728
    return sys


def _traced_peak(fn, *args) -> int:
    """Peak bytes that fn(*args) allocates above what is alive before it."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        fn(*args)
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


def _nbytes(A: sp.csr_matrix) -> int:
    return sum(a.nbytes for a in (A.data, A.indices, A.indptr))


def test_solve_holds_no_second_copy_of_the_matrix(pulse_cycle4):
    # traced peak of the solve over the bytes of the raw matrix: 2.87 with a
    # permuted copy of A_bc alive through the LUs, 1.86 with level row gathers
    sys = pulse_cycle4
    assert _traced_peak(solve, sys) <= 2.0 * _nbytes(sys.A)


def test_solve_builds_no_whole_dirichlet_matrix(pulse_cycle4):
    # 1.86 with the whole A_bc alive through the LUs, 1.09 with each level's
    # Dirichlet rows cut from the raw matrix
    sys = pulse_cycle4
    assert _traced_peak(solve, sys) <= 1.4 * _nbytes(sys.A)


def test_condensed_solve_builds_no_whole_dirichlet_matrix(pulse_cycle4, condense_all):
    # the same bound with every level of two or more kinds of dofs condensed
    sys = pulse_cycle4
    assert _traced_peak(solve, sys) <= 1.4 * _nbytes(sys.A)


def test_condensed_level_inverts_its_facet_blocks_once(pulse_cycle4, condense_all,
                                                       monkeypatch):
    # one call of _facet_inverse, and one batched inverse in it, per
    # condensed level: z_F reuses the D^-1 that formed S
    facet_inverse, inv, calls, invs = solver._facet_inverse, np.linalg.inv, [], []
    monkeypatch.setattr(solver, "_facet_inverse",
                        lambda *a: calls.append(a[1]) or facet_inverse(*a))
    monkeypatch.setattr(np.linalg, "inv", lambda D: invs.append(D.shape) or inv(D))
    _, rep = solve(pulse_cycle4)
    n_condensed = sum(f < n for f, n in zip(rep.factored, rep.block_sizes))
    assert n_condensed >= 2
    assert calls == [4] * n_condensed  # 2^d dofs on every facet at p_s = 1
    assert len(invs) == n_condensed and all(shape[1:] == (4, 4) for shape in invs)


def test_causal_levels_makes_no_copy_of_the_matrix(pulse_cycle4):
    # traced peak over the bytes of A_bc: 1.21 with a COO copy of A_bc, 0.88
    # with the component pairs read from the CSR arrays, 0.68 on the raw
    # matrix's own arrays with the pairs taken in chunks
    sys = pulse_cycle4
    A_bc, _ = oracle_apply_dirichlet(sys)
    limit = 1.0 * _nbytes(A_bc)
    del A_bc
    assert _traced_peak(causal_levels, sys.A) <= limit


def test_solve_builds_the_free_mask_once(monkeypatch):
    # the free mask is built once per system, not once per causal level,
    # and nothing can write to it
    built = []
    prop = AssembledSystem._free_mask
    monkeypatch.setattr(prop, "func", lambda s, f=prop.func: built.append(1) or f(s))
    sys = assemble(get_problem("sine", eps=0.1, d=1), SpaceTimeMesh.build(1, 8, 4), 1)
    _, rep = solve(sys)
    assert rep.n_blocks > 8
    assert built == [1]
    assert not sys.free_mask().flags.writeable


def test_refined_slabs_split_into_time_layers():
    # two slabs, each refined once in time: the system splits by time layer,
    # so no level holds a whole slab
    spec = poly_problem(1)
    mesh = SpaceTimeMesh.build(1, 2, 2)
    mesh.refine_uniform()
    sys = assemble(spec, mesh, 1)
    _, rep = solve(sys)
    assert rep.n_blocks > 2
    assert max(rep.block_sizes) <= sys.n_dofs // 4


def test_solve_matches_whole_system_lu_on_regressions():
    for spec, mesh, p_s in regression_systems():
        sys = assemble(spec, mesh, p_s)
        x, _ = solve(sys)
        A_bc, b_bc = oracle_apply_dirichlet(sys)
        x_lu = spla.spsolve(A_bc.tocsc(), b_bc)
        scale = max(1.0, float(np.max(np.abs(x_lu))))
        assert np.max(np.abs(x - x_lu)) <= 1e-8 * scale, spec.name


def test_level_lu_pivots_off_a_tiny_diagonal():
    # swapped 2x2 pairs [[d, 1], [1, d]] with d = 0 or 1e-14, weakly coupled:
    # taking the diagonal as pivot regardless of its size (threshold 0)
    # leaves a residual of order 1 or worse, so the LU must still pivot
    rng = np.random.default_rng(0)
    n_pairs = 100
    d = np.where(rng.random(2 * n_pairs) < 0.5, 0.0, 1e-14).reshape(n_pairs, 2)
    pairs = sp.block_diag([np.array([[a, 1.0], [1.0, c]]) for a, c in d])
    weak = sp.random(2 * n_pairs, 2 * n_pairs, density=0.02, random_state=rng,
                     data_rvs=lambda m: 1e-2 * rng.standard_normal(m))
    A = (pairs + weak).tocsr()
    b = rng.standard_normal(2 * n_pairs)
    x, fill = _lu_solve(A, b)
    assert np.linalg.norm(A @ x - b) <= 1e-12 * np.linalg.norm(b)
    assert fill >= A.shape[0]


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
    for el in elements(mesh).values():
        eid = el.eid
        ref = np.array([[0.0, 0.0], [-0.5, 0.3], [1.0, -1.0]])
        pts = el.lo + 0.5 * (ref + 1) * (el.hi - el.lo)
        vals, grad, dt = element_at(sys.dofmap, x, eid, ref)
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


def test_wrong_level_solution_fails_the_residual_check(monkeypatch):
    # a level LU that is off by 1e-6 must not pass: the residual is checked
    # on the raw matrix, with x - g on the Dirichlet rows
    lu_solve = solver._lu_solve

    def off(A, b):
        x, fill = lu_solve(A, b)
        return x + 1e-6, fill

    spec = poly_problem(1)
    sys = assemble(spec, SpaceTimeMesh.build(1, 2, 2), 1)
    monkeypatch.setattr(solver, "_lu_solve", off)
    with pytest.raises(SolverError, match="relative residual"):
        solve(sys)
