import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sthdg import fe
from sthdg.assembly import (
    apply_dirichlet,
    assemble,
    build_dofmap,
    compute_beta_sup,
    default_quad_n,
    first_occurrence_labels,
    penalty_alpha,
)
from sthdg.mesh import SpaceTimeMesh
from sthdg.problem import ProblemSpec
from sthdg.verify import assemble_two_level, build_subgrid

from conftest import hanging_mesh, poly_problem, regression_systems, small_meshes
from oracles import (
    box_quad, elem_coeffs, elem_dofs, element_at, elements, facet_at, facet_coeffs, facet_dofs,
    facets, map_to_box, oracle_apply_dirichlet, oracle_beta_sup, oracle_system, trace_map,
)


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


def _dof_entities(dm) -> np.ndarray:
    """Entity of every dof: elements 0 .. n_elem - 1, then the facets."""
    return np.concatenate((np.arange(dm.n_elem_dofs) // dm.n_elem_basis,
                           len(dm.mesh.etab) + np.searchsorted(
                               dm.facet_dof, np.arange(dm.n_elem_dofs, dm.n_dofs),
                               side="right") - 1))


def _assert_nonzero_block_pattern(sys, tag):
    """Every stored entry of A is nonzero and couples an entity with itself
    or an element with a facet on its boundary; A is canonical CSR with
    32-bit indices."""
    A, dm = sys.A, sys.dofmap
    assert A.indices.dtype == np.int32 and A.indptr.dtype == np.int32, tag
    # canonical: column keys strictly increase along the rows
    rows = np.repeat(np.arange(sys.n_dofs), np.diff(A.indptr))
    assert np.all(np.diff(rows * sys.n_dofs + A.indices) > 0), tag
    assert A.has_canonical_format, tag
    assert np.all(A.data != 0), tag
    ent = _dof_entities(dm)
    er, ec = ent[rows], ent[A.indices]
    side = er != ec
    elem, facet = np.minimum(er[side], ec[side]), np.maximum(er[side], ec[side])
    n_elem, ft = len(dm.mesh.etab), dm.mesh.ftab
    assert np.all(elem < n_elem) and np.all(facet >= n_elem), tag
    facet -= n_elem
    assert np.all((ft.owner[facet] == elem) | (ft.neighbor[facet] == elem)), tag


@pytest.mark.parametrize("policy", ["h", "h2"])
@pytest.mark.parametrize("p_s", [1, 2])
@pytest.mark.parametrize("d", [1, 2])
def test_matrix_is_the_block_pattern(d, p_s, policy):
    """A stores its nonzeros only, each inside the HDG block pattern, in
    sorted rows with 32-bit indices; so does the fine system of the
    two-level pair, whose facets inherit beta_s."""
    spec = poly_problem(d)
    for name, mesh in (("regular", SpaceTimeMesh.build(d, 2, 2, policy=policy)),
                       ("hanging", hanging_mesh(d, policy=policy))):
        sys = assemble(spec, mesh, p_s)
        tag = f"d={d} p={p_s} {policy} {name}"
        _assert_nonzero_block_pattern(sys, tag)
        A2, b2 = oracle_system(spec, mesh, p_s)
        _compare(sys, A2, b2, tag)
        _, fine = assemble_two_level(spec, build_subgrid(mesh), p_s)
        _assert_nonzero_block_pattern(fine, tag + " two-level fine")


def _dirichlet_systems():
    for spec, mesh, p_s in regression_systems():
        yield spec.name, assemble(spec, mesh, p_s)
    for d in (1, 2):
        for policy in ("h", "h2"):
            for dirichlet in (True, False):
                mesh = hanging_mesh(d, dirichlet=dirichlet, policy=policy)
                yield f"hanging d={d} {policy} {dirichlet}", assemble(
                    poly_problem(d, dirichlet=dirichlet), mesh, 1 + (d == 1))


def test_dirichlet_rows_match_sparse_product_construction():
    for name, sys in _dirichlet_systems():
        free = np.flatnonzero(sys.free_mask())
        A_bc, b_bc = apply_dirichlet(sys, free)
        want, b_want = oracle_apply_dirichlet(sys)
        want, b_want = want[free], b_want[free]
        for key in ("indptr", "indices", "data"):
            got, ref = getattr(A_bc, key), getattr(want, key)
            assert got.dtype == ref.dtype and np.array_equal(got, ref), (name, key)
        assert np.array_equal(b_bc, b_want), name
        # neither the raw matrix nor its free rows store a zero
        assert np.all(sys.A.data != 0) and np.all(A_bc.data != 0), name


def test_facets_and_elements_couple_only_through_each_other():
    """The premise of the solver's element Schur complement: no entry of A
    couples two facets or two elements, and every facet's own block is SPD."""
    block_sizes = set()
    for name, sys in _dirichlet_systems():
        A, dm = sys.A.tocoo(), sys.dofmap
        n_elem = len(dm.mesh.etab)
        ent = _dof_entities(dm)
        er, ec = ent[A.row], ent[A.col]
        same_kind = (er >= n_elem) == (ec >= n_elem)
        assert np.array_equal(er[same_kind], ec[same_kind]), name
        dense = sys.A.toarray()
        sizes = np.diff(dm.facet_dof, append=dm.n_dofs)
        block_sizes.add(frozenset(sizes.tolist()))
        for f0, k in zip(dm.facet_dof.tolist(), sizes.tolist()):
            B = dense[f0:f0 + k, f0:f0 + k]
            assert np.max(np.abs(B - B.T)) <= 1e-13 * np.max(np.abs(B)), (name, f0)
            assert np.linalg.eigvalsh(B)[0] > 0, (name, f0)
    assert frozenset({6, 9}) in block_sizes  # p_s = 2 in d = 2: lateral and time facets


def test_dofmap_layout():
    mesh = SpaceTimeMesh.build(2, 2, 2)
    dm = build_dofmap(mesh, 2)
    assert dm.n_elem_basis == 2 * 3**2
    assert dm.n_elem_dofs == mesh.n_elements * dm.n_elem_basis
    seen = []
    for eid in dm.mesh.etab.id.tolist():
        seen.extend(elem_dofs(dm, eid).tolist())
    for fid in dm.mesh.ftab.id.tolist():
        seen.extend(facet_dofs(dm, fid).tolist())
    assert sorted(seen) == list(range(dm.n_dofs))
    # the element block comes first
    assert elem_dofs(dm, dm.mesh.etab.id[0])[0] == 0
    assert np.all(dm.facet_dof >= dm.n_elem_dofs)


def test_beta_sup_matches_oracle():
    spec = poly_problem(2)
    mesh = hanging_mesh(2)
    nq = default_quad_n(1) + 2
    dm = build_dofmap(mesh, 1)
    got = compute_beta_sup(spec, dm, nq)
    assert got.shape == (len(dm.mesh.ftab),)
    fcs = facets(mesh)
    for i, fid in enumerate(dm.mesh.ftab.id.tolist()):
        f = fcs[fid]
        if f.is_R:
            assert got[i] == 1.0
        else:
            want = oracle_beta_sup(spec, mesh, f, nq)
            assert abs(got[i] - want) < 1e-12


def test_penalty_and_quadrature_defaults():
    assert penalty_alpha(1) == 8.0
    assert penalty_alpha(3) == 72.0
    assert default_quad_n(1) == 3
    assert default_quad_n(4) == 6


def test_dirichlet_rows_are_projections():
    spec = poly_problem(1)
    mesh = SpaceTimeMesh.build(1, 1, 2)
    sys = assemble(spec, mesh, 2)
    A_bc, b_bc = oracle_apply_dirichlet(sys)
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
    for fid, f in facets(mesh).items():
        if f.boundary != "dirichlet":
            continue
        dofs = facet_dofs(dm, fid)
        if dofs[0] not in val_of:
            continue
        free = f.free_axes()
        pts, w = box_quad(f.lo[free], f.hi[free], 12)
        full = np.empty((pts.shape[0], mesh.d + 1))
        full[:, free] = pts
        full[:, f.axis] = f.coord
        fb = fe.get_basis(dm.facet_degrees(f.axis))
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


def test_assemble_asks_each_boundary_kind_for_its_data():
    # initial data at initial-plane points, lateral Neumann data on the face
    # that its axis and sign name, and no data (source, exact solution or
    # boundary data) at final-plane points, where g = 0; beta_bar is a
    # field, sampled up to the facet corners for beta_s
    base = poly_problem(2, dirichlet=False)
    calls = []

    def spy(kind, fn):
        def call(pts, *args):
            calls.append((kind, np.array(pts, dtype=float), args))
            return fn(pts, *args)
        return call

    class Spy(ProblemSpec):
        def initial_data(self, pts):
            return spy("initial", super().initial_data)(pts)

        def neumann_data(self, pts, *args):
            return spy("neumann", super().neumann_data)(pts, *args)

    fields = {k: spy(k, getattr(base, k)) for k in ("exact_jet", "f")}
    spec = Spy(**{**vars(base), **fields})
    assemble(spec, hanging_mesh(2, dirichlet=False), 1)
    assert calls
    kinds = {kind for kind, _, _ in calls}
    assert {"initial", "neumann", "f", "exact_jet"} <= kinds
    for kind, pts, _ in calls:
        assert np.all(pts[:, 0] < spec.t_final), kind
    for kind, pts, args in calls:
        if kind == "initial":
            assert np.all(pts[:, 0] == 0.0)
        if kind == "neumann":
            axis, sign = args
            face = (spec.x_hi if sign > 0 else spec.x_lo)[axis - 1]
            assert axis >= 1 and np.all(pts[:, axis] == face), args
    assert {args for kind, _, args in calls if kind == "neumann"} == {
        (a, s) for a in (1, 2) for s in (-1, 1)}


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
    basis = fe.get_basis(dm.elem_degrees)
    for eid in dm.mesh.etab.id[:2].tolist():
        vals, grad, dt = element_at(dm, x, eid, basis.nodes)
        assert np.allclose(vals, elem_coeffs(dm, x, eid), atol=1e-12)
        assert grad.shape == (basis.n_basis, 2)
        assert dt.shape == (basis.n_basis,)
    fid = dm.mesh.ftab.id[0]
    fb = fe.get_basis(dm.facet_degrees(int(mesh.ftab.axis[0])))
    fvals = facet_at(dm, x, fid, fb.nodes)
    assert np.allclose(fvals, facet_coeffs(dm, x, fid), atol=1e-12)


def test_field_eval_gradient_scaling(rng):
    # on a stretched element the chain rule factors differ per axis
    mesh = SpaceTimeMesh.build(1, 1, 1, t_final=2.0, x_lo=[0.0], x_hi=[4.0])
    dm = build_dofmap(mesh, 1)
    x = np.zeros(dm.n_dofs)
    eid = dm.mesh.etab.id[0]
    el = elements(mesh)[eid]
    # u = t + x1 in physical coordinates, nodal values at GL points
    basis = fe.get_basis(dm.elem_degrees)
    phys = map_to_box(el.lo, el.hi, basis.nodes)
    x[elem_dofs(dm, eid)] = phys[:, 0] + phys[:, 1]
    pts = rng.uniform(-1, 1, size=(7, 2))
    vals, grad, dt = element_at(dm, x, eid, pts)
    assert np.allclose(dt, 1.0, atol=1e-12)
    assert np.allclose(grad[:, 0], 1.0, atol=1e-12)


def test_beta_sup_override_changes_system():
    spec = poly_problem(1)
    mesh = SpaceTimeMesh.build(1, 1, 2)
    sys0 = assemble(spec, mesh, 1)
    sys1 = assemble(spec, mesh, 1, beta_sup=sys0.beta_sup.copy())
    assert np.max(np.abs((sys0.A - sys1.A).toarray())) < 1e-14
    beta_sup = sys0.beta_sup.copy()
    beta_sup[np.flatnonzero(mesh.ftab.axis >= 1)[0]] = 5.0
    sys2 = assemble(spec, mesh, 1, beta_sup=beta_sup)
    assert np.max(np.abs((sys0.A - sys2.A).toarray())) > 1e-3
    with pytest.raises(ValueError):
        assemble(spec, mesh, 1, beta_sup=beta_sup[1:])


def _refined_meshes():
    """1-irregular meshes with hanging facets; under h2 facets also hang in time."""
    for d in (1, 2):
        for policy in ("h", "h2"):
            mesh = SpaceTimeMesh.build(d, 2, 2, policy=policy)
            mesh.refine_and_coarsen(mesh.etab.id[:1].tolist())
            ids = mesh.etab.id.tolist()
            mesh.refine_and_coarsen([ids[len(ids) // 2], ids[-1]], ids[:4])
            yield d, policy, mesh


@pytest.mark.parametrize("d,policy,mesh", list(_refined_meshes()))
def test_facet_side_table_matches_per_facet_walk(d, policy, mesh):
    els, fcs = elements(mesh), facets(mesh)
    assert any(f.neighbor is not None and els[f.owner].level != els[f.neighbor].level
               for f in fcs.values())
    dm = build_dofmap(mesh, 1)
    # reference: the owner-then-neighbor walk in facet-id order, keyed by
    # trace_map; its geometric `fixed` must be the side's outward sign
    ref: dict[tuple, list[tuple[int, int, float]]] = {}
    for fid in dm.mesh.ftab.id.tolist():
        f = fcs[fid]
        sides = [(f.owner, f.owner_side)]
        if f.neighbor is not None:
            sides.append((f.neighbor, -f.owner_side))
        for eid, sign in sides:
            fixed, alphas, betas = trace_map(f, els[eid])
            key = (f.axis, sign, alphas, betas, f.boundary, dm.facet_degrees(f.axis))
            ref.setdefault(key, []).append((fid, eid, fixed))

    groups = dm.facet_sides.groups
    keys = [(g.axis, g.sign, g.alphas, g.betas, g.boundary, g.fdeg) for g in groups]
    assert keys == list(ref)
    nq = default_quad_n(1)
    rule = fe.tensor_rule((nq,) * d)
    for g, want in zip(groups, ref.values()):
        got = [(dm.mesh.ftab.id[fp], dm.mesh.etab.id[ep], float(g.sign))
               for fp, ep in zip(g.facet.tolist(), g.elem.tolist())]
        assert got == want
        pts = dm.facet_sides.points(g.facet, rule.points)
        for i, (fid, eid, _) in enumerate(want):
            f = fcs[fid]
            el = els[eid]
            free = f.free_axes()
            assert g.jacF[i] == 0.5 ** d * np.prod(np.delete(f.hi - f.lo, f.axis))
            assert g.s_ax[i] == 0.5 * (el.hi[g.axis] - el.lo[g.axis])
            assert g.h_owner[i] == els[f.owner].h
            assert g.fdof[i] == facet_dofs(dm, fid)[0]
            phys = np.empty((rule.points.shape[0], d + 1))
            phys[:, f.axis] = f.coord
            mid = 0.5 * (f.lo + f.hi)
            half = 0.5 * (f.hi - f.lo)
            for k, a in enumerate(free):
                phys[:, a] = mid[a] + half[a] * rule.points[:, k]
            assert np.array_equal(pts[i], phys)


def _unique_labels(keys):
    """The np.unique(axis=0) labelling that first_occurrence_labels replaced."""
    _, first, inv = np.unique(keys, axis=0, return_index=True, return_inverse=True)
    return np.argsort(np.argsort(first))[inv.reshape(-1)]


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_first_occurrence_labels_match_np_unique(data):
    # few distinct values, so rows repeat; 0.0 and -0.0 must share a label,
    # rows with a NaN must each get their own, and one row is one label
    n = data.draw(st.integers(1, 12))
    k = data.draw(st.integers(1, 4))
    vals = data.draw(st.sampled_from([
        st.sampled_from([0.0, -0.0, np.nan, 1.0, -1.0, 0.5]), st.integers(-2, 2)]))
    keys = np.array(data.draw(st.lists(st.lists(vals, min_size=k, max_size=k),
                                       min_size=n, max_size=n)))
    assert np.array_equal(first_occurrence_labels(keys), _unique_labels(keys))
