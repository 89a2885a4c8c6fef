import numpy as np
import pytest

from sthdg import fe
from sthdg.assembly import (
    FieldEval,
    apply_dirichlet,
    assemble,
    build_dofmap,
    compute_beta_sup,
    default_quad_n,
    penalty_alpha,
    trace_map,
)
from sthdg.mesh import SpaceTimeMesh

from conftest import hanging_mesh, poly_problem, small_meshes
from oracles import box_quad, oracle_beta_sup, oracle_system


def _compare(sys, A2, b2, tag):
    A1 = sys.A.toarray()
    sA = max(1.0, float(np.max(np.abs(A1))))
    sb = max(1.0, float(np.max(np.abs(sys.b))))
    assert np.max(np.abs(A1 - A2)) <= 1e-10 * sA, tag
    assert np.max(np.abs(sys.b - b2)) <= 1e-10 * sb, tag


@pytest.mark.parametrize("d", [1, 2])
@pytest.mark.parametrize("dirichlet", [True, False])
@pytest.mark.parametrize("p_s", [1, 2])
def test_matrix_matches_dense_oracle(d, dirichlet, p_s):
    spec = poly_problem(d, dirichlet=dirichlet)
    for i, mesh in enumerate(small_meshes(d, dirichlet)):
        sys = assemble(spec, mesh, p_s)
        A2, b2 = oracle_system(spec, mesh, p_s)
        _compare(sys, A2, b2, f"d={d} dir={dirichlet} p={p_s} mesh#{i}")


@pytest.mark.parametrize("d", [1, 2])
def test_matrix_matches_oracle_on_hanging_mesh(d):
    spec = poly_problem(d)
    mesh = hanging_mesh(d)
    sys = assemble(spec, mesh, 1)
    A2, b2 = oracle_system(spec, mesh, 1)
    _compare(sys, A2, b2, f"hanging d={d}")


def test_dofmap_layout():
    mesh = SpaceTimeMesh.build(2, 2, 2)
    dm = build_dofmap(mesh, 2)
    assert dm.n_elem_basis == 2 * 3**2
    assert dm.n_elem_dofs == mesh.n_elements * dm.n_elem_basis
    seen = []
    for eid in dm.elem_ids:
        seen.extend(dm.elem_dofs(eid).tolist())
    for fid in dm.facet_ids:
        seen.extend(dm.facet_dofs(fid).tolist())
    assert sorted(seen) == list(range(dm.n_dofs))
    # element block comes first and follows element_ids() order
    assert dm.elem_offset[dm.elem_ids[0]] == 0
    assert all(dm.facet_offset[f] >= dm.n_elem_dofs for f in dm.facet_ids)


def test_beta_sup_matches_oracle():
    spec = poly_problem(2)
    mesh = hanging_mesh(2)
    nq = default_quad_n(1) + 2
    got = compute_beta_sup(spec, build_dofmap(mesh, 1), nq)
    for fid, f in mesh.facets.items():
        if f.is_R:
            assert got[fid] == 1.0
        else:
            want = oracle_beta_sup(spec, mesh, f, nq)
            assert abs(got[fid] - want) < 1e-12


def test_penalty_and_quadrature_defaults():
    assert penalty_alpha(1) == 8.0
    assert penalty_alpha(3) == 72.0
    assert default_quad_n(1) == 3
    assert default_quad_n(4) == 6


def test_dirichlet_rows_are_projections():
    spec = poly_problem(1)
    mesh = SpaceTimeMesh.build(1, 1, 2)
    sys = assemble(spec, mesh, 2)
    A_bc, b_bc = apply_dirichlet(sys)
    A = A_bc.toarray()
    for k, idx in enumerate(sys.dirichlet_idx):
        row = np.zeros(sys.n_dofs)
        row[idx] = 1.0
        assert np.allclose(A[idx], row)
        assert b_bc[idx] == sys.dirichlet_values[k]

    # the stored values are the facet-wise L2 projection of the boundary data
    dm = sys.dofmap
    val_of = dict(zip(sys.dirichlet_idx.tolist(), sys.dirichlet_values))
    checked = 0
    for fid, f in mesh.facets.items():
        if f.boundary != "dirichlet":
            continue
        dofs = dm.facet_dofs(fid)
        if dofs[0] not in val_of:
            continue
        free = f.free_axes()
        pts, w = box_quad(f.lo[free], f.hi[free], 12)
        full = np.empty((pts.shape[0], mesh.d + 1))
        full[:, free] = pts
        full[:, f.axis] = f.coord
        fb = fe.get_basis(dm.facet_degrees(f))
        lo, hi = f.lo[free], f.hi[free]
        ref = 2 * (pts - lo) / (hi - lo) - 1
        Fv = fb.eval(ref).values
        gram = Fv.T @ (Fv * w[:, None])
        want = np.linalg.solve(gram, Fv.T @ (w * spec.dirichlet_data(full)))
        got = np.array([val_of[i] for i in dofs.tolist()])
        assert np.allclose(got, want, atol=1e-12)
        checked += 1
    assert checked >= 2


def test_neumann_mesh_has_no_constraints():
    spec = poly_problem(1, dirichlet=False)
    mesh = SpaceTimeMesh.build(1, 1, 2, dirichlet_lateral=False)
    sys = assemble(spec, mesh, 1)
    assert sys.dirichlet_idx.size == 0
    assert sys.free_mask().all()


def test_assemble_rejects_mismatched_inputs():
    spec = poly_problem(1)
    with pytest.raises(ValueError):
        assemble(spec, SpaceTimeMesh.build(2, 1, 1), 1)
    with pytest.raises(ValueError):
        assemble(spec, SpaceTimeMesh.build(1, 1, 1, dirichlet_lateral=False), 1)


def test_field_eval_is_nodal(rng):
    mesh = SpaceTimeMesh.build(2, 1, 2)
    dm = build_dofmap(mesh, 2)
    x = rng.standard_normal(dm.n_dofs)
    ev = FieldEval(dm, x)
    basis = fe.get_basis(dm.elem_degrees)
    for eid in dm.elem_ids[:2]:
        vals, grad, dt = ev.element_at(eid, basis.nodes)
        assert np.allclose(vals, ev.elem_coeffs(eid), atol=1e-12)
        assert grad.shape == (basis.n_basis, 2)
        assert dt.shape == (basis.n_basis,)
    fid = dm.facet_ids[0]
    f = mesh.facets[fid]
    fb = fe.get_basis(dm.facet_degrees(f))
    fvals = ev.facet_at(fid, fb.nodes)
    assert np.allclose(fvals, ev.facet_coeffs(fid), atol=1e-12)


def test_field_eval_gradient_scaling(rng):
    # on a stretched element the chain rule factors differ per axis
    mesh = SpaceTimeMesh.build(1, 1, 1, t_final=2.0, x_lo=[0.0], x_hi=[4.0])
    dm = build_dofmap(mesh, 1)
    x = np.zeros(dm.n_dofs)
    eid = dm.elem_ids[0]
    el = mesh.elements[eid]
    # u = t + x1 in physical coordinates, nodal values at GL points
    basis = fe.get_basis(dm.elem_degrees)
    phys = fe.map_to_box(el.lo, el.hi, basis.nodes)
    x[dm.elem_dofs(eid)] = phys[:, 0] + phys[:, 1]
    ev = FieldEval(dm, x)
    pts = rng.uniform(-1, 1, size=(7, 2))
    vals, grad, dt = ev.element_at(eid, pts)
    assert np.allclose(dt, 1.0, atol=1e-12)
    assert np.allclose(grad[:, 0], 1.0, atol=1e-12)


def test_beta_sup_override_changes_system():
    spec = poly_problem(1)
    mesh = SpaceTimeMesh.build(1, 1, 2)
    sys0 = assemble(spec, mesh, 1)
    qfid = next(fid for fid, f in mesh.facets.items() if f.is_Q)
    sys1 = assemble(spec, mesh, 1, beta_sup_override={qfid: sys0.beta_sup[qfid]})
    assert np.max(np.abs((sys0.A - sys1.A).toarray())) < 1e-14
    sys2 = assemble(spec, mesh, 1, beta_sup_override={qfid: 5.0})
    assert np.max(np.abs((sys0.A - sys2.A).toarray())) > 1e-3


def _refined_meshes():
    """1-irregular meshes with hanging facets; under h2 facets also hang in time."""
    for d in (1, 2):
        for policy in ("h", "h2"):
            mesh = SpaceTimeMesh.build(d, 2, 2, policy=policy)
            mesh.refine_and_coarsen([mesh.element_ids()[0]])
            ids = mesh.element_ids()
            mesh.refine_and_coarsen([ids[len(ids) // 2], ids[-1]], ids[:4])
            yield d, policy, mesh


@pytest.mark.parametrize("d,policy,mesh", list(_refined_meshes()))
def test_facet_side_table_matches_per_facet_walk(d, policy, mesh):
    assert any(f.neighbor is not None
               and mesh.elements[f.owner].level != mesh.elements[f.neighbor].level
               for f in mesh.facets.values())
    dm = build_dofmap(mesh, 1)
    # reference: the owner-then-neighbor walk in facet-id order, keyed by trace_map
    ref: dict[tuple, list[tuple[int, int, int]]] = {}
    for fid in dm.facet_ids:
        f = mesh.facets[fid]
        sides = [(f.owner, f.owner_side)]
        if f.neighbor is not None:
            sides.append((f.neighbor, -f.owner_side))
        for eid, sign in sides:
            fixed, alphas, betas = trace_map(f, mesh.elements[eid])
            key = (f.axis, sign, fixed, alphas, betas, f.boundary, dm.facet_degrees(f))
            ref.setdefault(key, []).append((fid, eid, sign))

    groups = dm.facet_sides.groups
    keys = [(g.axis, g.sign, g.fixed, g.alphas, g.betas, g.boundary, g.fdeg) for g in groups]
    assert keys == list(ref)
    nq = default_quad_n(1)
    rule = fe.tensor_rule((nq,) * d)
    for g, want in zip(groups, ref.values()):
        got = [(dm.facet_ids[fp], dm.elem_ids[ep], g.sign)
               for fp, ep in zip(g.facet.tolist(), g.elem.tolist())]
        assert got == want
        pts = dm.facet_sides.points(g.facet, rule.points)
        for i, (fid, eid, _) in enumerate(want):
            f = mesh.facets[fid]
            el = mesh.elements[eid]
            free = f.free_axes()
            assert g.jacF[i] == 0.5 ** d * np.prod(np.delete(f.hi - f.lo, f.axis))
            assert g.s_ax[i] == 0.5 * (el.hi[g.axis] - el.lo[g.axis])
            assert g.h_owner[i] == mesh.elements[f.owner].h
            assert g.edof[i] == dm.elem_offset[eid]
            assert g.fdof[i] == dm.facet_offset[fid]
            phys = np.empty((rule.points.shape[0], d + 1))
            phys[:, f.axis] = f.coord
            mid = 0.5 * (f.lo + f.hi)
            half = 0.5 * (f.hi - f.lo)
            for k, a in enumerate(free):
                phys[:, a] = mid[a] + half[a] * rule.points[:, k]
            assert np.array_equal(pts[i], phys)
