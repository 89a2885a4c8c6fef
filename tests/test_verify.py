import itertools
import math

import numpy as np
import pytest

from sthdg import fe
from sthdg.assembly import assemble, build_dofmap
from sthdg.mesh import SpaceTimeMesh
from sthdg.problem import get_problem
from sthdg.solver import solve
from sthdg.verify import (
    ConstantReport,
    assemble_two_level,
    averaging_operator,
    bubble_constants,
    build_subgrid,
    check_galerkin_orthogonality,
    element_bubble,
    facet_bubble_profile,
    inequality_constants,
    measure_saturation,
    oswald_constant,
    restriction_matrix,
    write_constants_csv,
)

from conftest import hanging_mesh, poly_problem, problem_mesh
from oracles import (
    element_at,
    elements,
    facet_at,
    facets,
    from_symbolic,
    map_to_box,
    oracle_saturation,
)


# ----------------------------------------------------------------------
# temporal subgrid
# ----------------------------------------------------------------------

def _random_adapted_mesh(d, policy, seed=0):
    """A few dozen elements after four rounds of random refine-and-coarsen
    marks: hanging facets of several levels, some of them left by merges."""
    rng = np.random.default_rng(seed)
    mesh = SpaceTimeMesh.build(d, 2, 2, policy=policy)
    for _ in range(4):
        ids = mesh.etab.id
        mesh.refine_and_coarsen(rng.choice(ids, 2 * (len(ids) < 30), replace=False).tolist(),
                                rng.choice(ids, 9 * len(ids) // 10, replace=False).tolist())
    return mesh


# one refined element, and a random adapted mesh, for d = 1, 2 under both policies
_MESHES = pytest.mark.parametrize("d,policy,mesh_of", [
    pytest.param(d, policy, mesh_of, id=f"{d}-{policy}{suffix}")
    for mesh_of, suffix in ((hanging_mesh, ""), (_random_adapted_mesh, "-adapted"))
    for d in (1, 2) for policy in ("h", "h2")])


@_MESHES
def test_subgrid_structure(d, policy, mesh_of):
    mesh = mesh_of(d, policy=policy)
    pair = build_subgrid(mesh)
    assert pair.fine.n_elements == 2 * mesh.n_elements
    coarse_ids, fine_ids = mesh.etab.id.tolist(), pair.fine.etab.id.tolist()
    els, fine_els = elements(mesh), elements(pair.fine)
    # each coarse element holds two fine rows, its lower and upper halves
    halves = {}
    for fid, row in zip(fine_ids, pair.elem_parent.tolist()):
        halves.setdefault(coarse_ids[row], []).append(fine_els[fid])
    assert sorted(halves) == sorted(coarse_ids)
    for eid, kids in halves.items():
        el = els[eid]
        lo_el, hi_el = sorted(kids, key=lambda k: k.lo[0])
        m = 0.5 * (el.lo[0] + el.hi[0])
        assert lo_el.lo[0] == el.lo[0] and abs(lo_el.hi[0] - m) < 1e-15
        assert abs(hi_el.lo[0] - m) < 1e-15 and hi_el.hi[0] == el.hi[0]
        assert np.all(lo_el.lo[1:] == el.lo[1:]) and np.all(hi_el.hi[1:] == el.hi[1:])
        assert lo_el.parent == hi_el.parent == eid
    # the lineage agrees with a search over all coarse facets: a fine facet
    # descends from the one coarse facet on its plane containing it; new
    # horizontal facets lie inside an element, so no coarse facet contains
    # them, and there is one per coarse element
    coarse_facets = list(facets(mesh).values())
    expected = []
    for f in facets(pair.fine).values():
        hosts = [k for k, g in enumerate(coarse_facets)
                 if g.axis == f.axis and np.all(g.lo <= f.lo) and np.all(f.hi <= g.hi)]
        assert len(hosts) <= 1
        expected.append(hosts[0] if hosts else -1)
        if not hosts:
            el = els[fine_els[f.owner].parent]
            assert f.is_R and el.lo[0] < f.coord < el.hi[0]
    assert pair.facet_parent.tolist() == expected
    assert expected.count(-1) == mesh.n_elements


def test_subgrid_handles_hanging_meshes():
    mesh = hanging_mesh(2)
    pair = build_subgrid(mesh)
    pair.fine.validate()
    assert pair.fine.n_elements == 2 * mesh.n_elements


def test_restriction_reproduces_fields(rng):
    for mesh_of, d, policy in itertools.product((hanging_mesh, _random_adapted_mesh), (1, 2),
                                                ("h", "h2")):
        mesh = mesh_of(d, policy=policy)
        for p_s in (1, 2):
            _check_restriction(mesh, p_s, rng)


def _check_restriction(mesh, p_s, rng):
    d = mesh.d
    pair = build_subgrid(mesh)
    dm_c = build_dofmap(mesh, p_s)
    dm_f = build_dofmap(pair.fine, p_s)
    x_c = rng.standard_normal(dm_c.n_dofs)
    x_f = restriction_matrix(pair, dm_c, dm_f) @ x_c
    els, fine_els = elements(mesh), elements(pair.fine)
    coarse_facets = list(facets(mesh).values())

    def coarse_field(eid, phys):
        el = els[eid]
        return element_at(dm_c, x_c, eid, 2 * (phys - el.lo) / (el.hi - el.lo) - 1)[0]

    # every fine element carries its coarse element's field
    ref = rng.uniform(-1, 1, size=(5, d + 1))
    for ch in fine_els.values():
        got = element_at(dm_f, x_f, ch.eid, ref)[0]
        assert np.allclose(got, coarse_field(ch.parent, map_to_box(ch.lo, ch.hi, ref)),
                           rtol=0, atol=1e-12)
    # a descended facet carries its coarse facet's field; a new facet, which
    # lies inside a coarse element, carries that element's trace
    ref = ref[:, :d]
    for f, parent in zip(facets(pair.fine).values(), pair.facet_parent.tolist()):
        phys = map_to_box(f.lo, f.hi, np.insert(ref, f.axis, 0.0, axis=1))
        if parent < 0:
            want = coarse_field(fine_els[f.owner].parent, phys)
        else:
            g = coarse_facets[parent]
            free = g.free_axes()
            want = facet_at(dm_c, x_c, g.fid,
                            2 * (phys[:, free] - g.lo[free]) / (g.hi[free] - g.lo[free]) - 1)
        assert np.allclose(facet_at(dm_f, x_f, f.fid, ref), want, rtol=0, atol=1e-12)


def test_beta_sup_inheritance_is_needed():
    # a time dependent advective field makes the child facet suprema differ
    # from the parent's; without inheritance the restricted form drifts
    spec = from_symbolic(
        "tbeta", 1, 0.4, "(1+t)*(x1**2+1)", ["1 + 0.5*t"], [0.0], [1.0])
    mesh = SpaceTimeMesh.build(1, 2, 2)
    pair = build_subgrid(mesh)
    sys_c, sys_f = assemble_two_level(spec, pair, 1)
    G = restriction_matrix(pair, sys_c.dofmap, sys_f.dofmap)
    assert abs((G.T @ sys_f.A @ G) - sys_c.A).max() <= 1e-12
    sys_plain = assemble(spec, pair.fine, 1)
    assert abs((G.T @ sys_plain.A @ G) - sys_c.A).max() > 1e-3
    # descended facets carry their parent's value; the new horizontal
    # facets keep the computed one (1 on every horizontal facet)
    parent = pair.facet_parent
    assert np.array_equal(sys_f.beta_sup[parent >= 0], sys_c.beta_sup[parent[parent >= 0]])
    assert np.array_equal(sys_f.beta_sup[parent < 0], sys_plain.beta_sup[parent < 0])
    assert np.all(sys_f.beta_sup[parent < 0] == 1.0)
    # G^T A_f G = A_c also for a time independent field, relative to the form's size
    poly_c, poly_f = assemble_two_level(poly_problem(1), pair, 1)
    G = restriction_matrix(pair, poly_c.dofmap, poly_f.dofmap)
    assert abs((G.T @ poly_f.A @ G) - poly_c.A).max() <= 1e-12 * abs(poly_c.A).max()


def test_galerkin_orthogonality_single_and_hanging():
    spec = poly_problem(2)
    rep = check_galerkin_orthogonality(spec, SpaceTimeMesh.build(2, 2, 2), 1)
    assert rep.relative <= 1e-11
    rep = check_galerkin_orthogonality(spec, hanging_mesh(2), 1)
    assert rep.relative <= 1e-10
    assert rep.n_fine_dofs > rep.n_coarse_dofs


def test_galerkin_orthogonality_transcendental_data():
    # f = 0 for the pulse, so the rhs restricts exactly and the defect is
    # pure roundoff even though the data is a Gaussian
    spec = get_problem("rotating-pulse", 1e-3)
    rep = check_galerkin_orthogonality(spec, problem_mesh(spec, 2, 2), 1)
    assert rep.relative <= 1e-12


def test_saturation_flags_reproduced_solutions():
    spec = get_problem("linear", eps=1.0, d=1)
    rep = measure_saturation(spec, SpaceTimeMesh.build(1, 2, 2), 1)
    assert rep.flagged
    assert math.isnan(rep.rho)


@_MESHES
def test_saturation_matches_the_fine_element_oracle(d, policy, mesh_of):
    # at eps = 0.3 coarse elements of different levels fall in different
    # regimes, so tau tells which coarse element a fine integral lands in
    spec = get_problem("sine", 0.3, d=d)
    mesh = mesh_of(d, policy=policy)
    rep = measure_saturation(spec, mesh, 1)
    assert not rep.flagged
    pair = build_subgrid(mesh)
    sys_c, sys_f = assemble_two_level(spec, pair, 1)
    want = oracle_saturation(spec, sys_c.dofmap, solve(sys_c)[0], sys_f.dofmap,
                             solve(sys_f)[0], sys_c.quad_n + 2)
    assert (rep.rho, rep.numerator, rep.denominator) == pytest.approx(want, rel=1e-12, abs=0)


def test_saturation_contracts_on_smooth_problem():
    # needs genuine temporal nonlinearity: a solution linear in t is
    # captured exactly and would only show the saturated spatial error
    spec = from_symbolic(
        "decay", 1, 0.1, "exp(-2*t)*sin(pi*x1)", ["1"], [0.0], [1.0])
    rep = measure_saturation(spec, SpaceTimeMesh.build(1, 4, 4), 1)
    assert not rep.flagged
    assert 0.0 < rep.rho < 1.0
    assert rep.numerator < rep.denominator


# ----------------------------------------------------------------------
# vertex averaging
# ----------------------------------------------------------------------

def _nodal_coeffs(mesh, p_s, fn):
    dm = build_dofmap(mesh, p_s)
    basis = fe.get_basis(dm.elem_degrees)
    out = np.empty(dm.n_elem_dofs)
    lo, hi = mesh.etab.lo, mesh.etab.hi
    for i in range(len(mesh.etab)):
        phys = map_to_box(lo[i], hi[i], basis.nodes)
        out[i * dm.n_elem_basis:(i + 1) * dm.n_elem_basis] = fn(phys)
    return out


def test_averaging_fixes_continuous_fields():
    mesh = SpaceTimeMesh.build(1, 2, 2, dirichlet_lateral=False)
    mesh.refine_and_coarsen(mesh.etab.id[:1].tolist())
    coeffs = _nodal_coeffs(mesh, 1, lambda p: p[:, 0] + 2 * p[:, 1])
    res = averaging_operator(mesh, 1, coeffs)
    assert res.defect.max() <= 1e-12
    assert res.continuity <= 1e-12


def test_averaging_of_a_step():
    # element-wise constants 0 | 1 jumping across the interior facet
    mesh = SpaceTimeMesh.build(1, 1, 2, dirichlet_lateral=False)
    dm = build_dofmap(mesh, 1)
    coeffs = np.repeat(np.where(mesh.etab.lo[:, 1] < 0.25, 0.0, 1.0), dm.n_elem_basis)
    res = averaging_operator(mesh, 1, coeffs)
    assert res.continuity <= 1e-12
    assert res.defect.min() > 0
    # interface nodes carry the two-sided mean
    interface_vals = set()
    basis = fe.get_basis((1, 1))
    for lo, hi, values in zip(res.cell_lo, res.cell_hi, res.cell_values):
        phys = map_to_box(lo, hi, basis.nodes)
        for p, v in zip(phys, values):
            if abs(p[1] - 0.5) < 1e-12:
                interface_vals.add(round(float(v), 12))
    assert interface_vals == {0.5}


def test_averaging_zeroes_dirichlet_walls():
    mesh = SpaceTimeMesh.build(1, 1, 2, dirichlet_lateral=True)
    coeffs = _nodal_coeffs(mesh, 1, lambda p: np.ones(p.shape[0]))
    res = averaging_operator(mesh, 1, coeffs)
    basis = fe.get_basis((1, 1))
    for lo, hi, values in zip(res.cell_lo, res.cell_hi, res.cell_values):
        phys = map_to_box(lo, hi, basis.nodes)
        for p, v in zip(phys, values):
            if abs(p[1]) < 1e-12 or abs(p[1] - 1.0) < 1e-12:
                assert v == 0.0
            else:
                assert v == 1.0
    assert res.defect.max() > 0.1


def test_averaging_validates_input():
    mesh = SpaceTimeMesh.build(1, 1, 1)
    with pytest.raises(ValueError):
        averaging_operator(mesh, 1, np.zeros(3))


@pytest.mark.parametrize("mesh_of,p_s,n_nodes", [
    (lambda: SpaceTimeMesh.build(1, 2, 3, dirichlet_lateral=False), 2, 3 * 7),
    (lambda: SpaceTimeMesh.build(2, 2, 3, dirichlet_lateral=False), 2, 3 * 7 * 7),
    (lambda: SpaceTimeMesh.build(1, 2, 3, dirichlet_lateral=False), 3, 3 * 10),
    # one element refined: the conforming lattice has 4 time cells and 4
    # cells in space
    (lambda: hanging_mesh(1, dirichlet=False), 2, 5 * 9),
], ids=["d1-ps2", "d2-ps2", "d1-ps3", "hanging-d1-ps2"])
def test_averaging_node_count(mesh_of, p_s, n_nodes):
    mesh = mesh_of()
    # a continuous field in the element space: averaging must reproduce it,
    # so merging two distinct nodes would show up as a defect
    coeffs = _nodal_coeffs(mesh, p_s, lambda p: p[:, 0] + p[:, 1] ** 2 - p[:, -1])
    res = averaging_operator(mesh, p_s, coeffs)
    assert res.n_nodes == n_nodes
    assert res.defect.max() <= 1e-12
    assert res.continuity <= 1e-12


def test_oswald_constant_zero_for_continuous(rng):
    mesh = SpaceTimeMesh.build(1, 2, 2, dirichlet_lateral=False)
    coeffs = _nodal_coeffs(mesh, 1, lambda p: p[:, 0] - p[:, 1])
    rep = oswald_constant(mesh, 1, coeffs)
    assert rep.constant == 0.0


def test_oswald_constant_bounded_on_random_fields(rng):
    mesh = hanging_mesh(1, dirichlet=False)
    dm = build_dofmap(mesh, 1)
    worst = 0.0
    for _ in range(3):
        coeffs = rng.standard_normal(dm.n_elem_dofs)
        rep = oswald_constant(mesh, 1, coeffs)
        assert rep.defect.shape == rep.bound.shape == (mesh.n_elements,)
        assert np.all(rep.defect <= rep.constant * rep.bound + 1e-9)
        worst = max(worst, rep.constant)
    assert 0 < worst < 10.0

    # a field constant on each element: the gap on a facet is the constant
    # |c_K - c_K'|, so each bound is a sum of w |c_K - c_K'| sqrt(|F|) over
    # the interior facets whose closure touches the element
    const = rng.standard_normal(mesh.n_elements)
    c_of = dict(zip(dm.mesh.etab.id.tolist(), const))
    rep = oswald_constant(mesh, 1, np.repeat(const, dm.n_elem_basis))
    els, fcs = elements(mesh), facets(mesh)
    for i, eid in enumerate(dm.mesh.etab.id.tolist()):
        el = els[eid]
        want = 0.0
        for f in fcs.values():
            if f.neighbor is None or not np.all((f.lo <= el.hi) & (el.lo <= f.hi)):
                continue
            w = np.sqrt(el.h) if f.is_Q else np.sqrt(el.dt)
            want += w * abs(c_of[f.owner] - c_of[f.neighbor]) * np.sqrt(f.measure)
        assert want > 0
        assert rep.bound[i] == pytest.approx(want, rel=1e-12, abs=0)


@pytest.mark.parametrize("make", [
    lambda: SpaceTimeMesh.build(1, 4, 4),
    lambda: SpaceTimeMesh.build(2, 4, 4),
    lambda: hanging_mesh(2, policy="h"),
    lambda: hanging_mesh(1, policy="h2"),
], ids=["d1", "d2", "d2-hanging-h", "d1-hanging-h2"])
def test_oswald_constant_does_not_depend_on_the_field_scale(make):
    # defect and bound are both linear in the field, so their ratio is too
    mesh = make()
    coeffs = np.random.default_rng(7).standard_normal(build_dofmap(mesh, 1).n_elem_dofs)
    ref = oswald_constant(mesh, 1, coeffs).constant
    assert ref > 0
    for scale in (1e-12, 1e12):
        got = oswald_constant(mesh, 1, scale * coeffs).constant
        assert got == pytest.approx(ref, rel=1e-12, abs=0), scale


# ----------------------------------------------------------------------
# bubbles
# ----------------------------------------------------------------------

def test_element_bubble_shape(rng):
    for d in (1, 2):
        psi = element_bubble(d)
        assert psi(np.zeros((1, d + 1)))[0] == 1.0
        edge = np.zeros((1, d + 1)); edge[0, 0] = 1.0
        assert psi(edge)[0] == 0.0
        pts = rng.uniform(-1, 1, size=(50, d + 1))
        vals = psi(pts)
        assert np.all(vals >= 0) and np.all(vals <= 1)
        assert np.allclose(psi(-pts), vals)


def test_facet_bubble_profile_shape():
    for d in (1, 2):
        for kappa in (1.0, 0.4):
            prof, trans = facet_bubble_profile(d, kappa)
            assert prof(np.array([-1.0]))[0] == 1.0  # sup on the face
            assert prof(np.array([2 * kappa - 1.0]))[0] == 0.0
            assert prof(np.array([0.99]))[0] == 0.0 or kappa == 1.0
            s = np.linspace(-1, 2 * kappa - 1, 11)
            v = prof(s)
            assert np.all(np.diff(v) <= 1e-15)  # decays off the face
    with pytest.raises(ValueError):
        facet_bubble_profile(1, 0.0)
    with pytest.raises(ValueError):
        facet_bubble_profile(1, 1.5)


def test_element_bubble_constants_positive_and_scale_invariant():
    for d in (1, 2):
        reps = [r for r in bubble_constants(1, d=d, samples=60)
                if r.inequality.startswith("bubble_elem_")]
        by = {r.inequality: r.constant for r in reps}
        assert by["bubble_elem_c2"] > 0
        assert by["bubble_elem_c1"] >= by["bubble_elem_c2"]
        box = (np.zeros(d + 1), np.array([0.125] + [2.0] * d))
        reps_box = [r for r in bubble_constants(1, d=d, samples=60, box=box)
                    if r.inequality.startswith("bubble_elem_")]
        for a, b in zip(reps, reps_box):
            assert a.inequality == b.inequality
            assert abs(a.constant - b.constant) <= 1e-12 * max(1.0, a.constant)


def test_facet_bubble_constants_uniform_in_squeeze():
    rows = {}
    for kappa in (1.0, 0.5, 0.1):
        for r in bubble_constants(1, kappa=kappa, d=2, samples=60):
            if r.inequality.startswith("bubble_face_"):
                rows.setdefault(r.inequality, []).append(r.constant)
    assert set(rows) == {"bubble_face_c1", "bubble_face_c2",
                         "bubble_face_volume", "bubble_face_gradient"}
    for name, vals in rows.items():
        assert all(v > 0 for v in vals)
        assert max(vals) / min(vals) < 2.0, name


# ----------------------------------------------------------------------
# inequality constants
# ----------------------------------------------------------------------

def test_inequality_constants_rows_and_determinism():
    mesh = SpaceTimeMesh.build(1, 4, 2)
    reps = inequality_constants(mesh, 1, samples=80, level=3)
    by = {r.inequality: r for r in reps}
    base = {"inv_time_deriv", "inv_space_grad", "trace_lateral",
            "trace_temporal", "facet_time_deriv", "facet_grad_horizontal",
            "edge_trace_lateral", "edge_trace_horizontal",
            "local_trace_lateral", "local_trace_horizontal",
            "proj_gap_lateral", "proj_gap_horizontal"}
    quasi = {"quasi_interp_volume", "quasi_interp_lateral",
             "quasi_interp_horizontal"}
    assert base | quasi <= set(by)  # dt = 0.25 <= 4 h^2 = 1: quasi included
    for r in reps:
        assert r.level == 3 and r.samples == 80
        assert np.isfinite(r.constant) and r.constant > 0
    again = inequality_constants(mesh, 1, samples=80, level=3)
    assert [(r.inequality, r.constant) for r in again] == [
        (r.inequality, r.constant) for r in reps]


def test_inequality_quasi_gating():
    mesh = SpaceTimeMesh.build(1, 1, 4)  # dt = 1 > 4 h^2 = 0.25
    names = {r.inequality for r in inequality_constants(mesh, 1, samples=40)}
    assert not any(n.startswith("quasi") for n in names)


def test_inequality_constants_stable_under_refinement():
    # dt = h^2 family: measured constants must not drift as the mesh shrinks
    rows = {}
    for lev, n in enumerate((2, 4, 8)):
        for r in inequality_constants(
                SpaceTimeMesh.build(1, n * n, n), 1, samples=60, level=lev):
            rows.setdefault(r.inequality, []).append(r.constant)
    for name, vals in rows.items():
        assert len(vals) == 3, name
        assert max(vals) / min(vals) <= 2.0, name


# inequality_constants(hanging_mesh(d, policy=policy), 1, samples=40) as
# computed when each element shape was measured from its own bases; keyed by
# (d, policy), rows in name order
_HANGING_ROWS = {
    (1, "h"): dict(
        edge_trace_horizontal=1.9990924281421198, edge_trace_lateral=1.999863086052843,
        facet_grad_horizontal=3.4577499037516977, facet_time_deriv=3.4640126645008396,
        inv_space_grad=3.429700201750156, inv_time_deriv=3.3937649900746316,
        local_trace_horizontal=1.267156443825242, local_trace_lateral=1.2863343230029216,
        proj_gap_horizontal=0.28501329758042926, proj_gap_lateral=0.2836526990676776,
        quasi_interp_horizontal=0.2515204475779644, quasi_interp_lateral=0.4144055250935796,
        quasi_interp_volume=0.7811930365572292, trace_lateral=2.43329978108501,
        trace_temporal=2.4164464824652656),
    (1, "h2"): dict(
        edge_trace_horizontal=1.9990924281421198, edge_trace_lateral=1.999863086052843,
        facet_grad_horizontal=3.4577499037516977, facet_time_deriv=3.4640126645008396,
        inv_space_grad=3.429700201750156, inv_time_deriv=3.3937649900746316,
        local_trace_horizontal=1.267156443825242, local_trace_lateral=1.286334323002922,
        proj_gap_horizontal=0.28501329758042926, proj_gap_lateral=0.2836526990676776,
        quasi_interp_horizontal=0.24836683164446213, quasi_interp_lateral=0.3092950082080103,
        quasi_interp_volume=0.7811930365572292, trace_lateral=2.43329978108501,
        trace_temporal=2.4164464824652656),
    (2, "h"): dict(
        edge_trace_horizontal=1.984521204774863, edge_trace_lateral=1.9890062578646144,
        facet_grad_horizontal=4.275479444631688, facet_time_deriv=3.30824184545246,
        inv_space_grad=3.606371115147964, inv_time_deriv=3.084588225893922,
        local_trace_horizontal=0.9581844541800256, local_trace_lateral=0.748108793326635,
        proj_gap_horizontal=0.28220153696237604, proj_gap_lateral=0.25076422961506883,
        quasi_interp_horizontal=0.15923816942414232, quasi_interp_lateral=0.2593211008961964,
        quasi_interp_volume=0.7264413369031801, trace_lateral=2.887092691051766,
        trace_temporal=2.2741067494237104),
    (2, "h2"): dict(
        edge_trace_horizontal=1.984521204774863, edge_trace_lateral=1.9890062578646144,
        facet_grad_horizontal=4.275479444631688, facet_time_deriv=3.30824184545246,
        inv_space_grad=3.606371115147964, inv_time_deriv=3.084588225893922,
        local_trace_horizontal=0.9581844541800254, local_trace_lateral=0.748108793326635,
        proj_gap_horizontal=0.28220153696237604, proj_gap_lateral=0.2507642296150688,
        quasi_interp_horizontal=0.15923816942414232, quasi_interp_lateral=0.23150507155869823,
        quasi_interp_volume=0.7264413369031801, trace_lateral=2.887092691051766,
        trace_temporal=2.2741067494237104),
}


@pytest.mark.parametrize("d,policy", sorted(_HANGING_ROWS))
def test_inequality_constants_on_hanging_meshes(d, policy):
    # several element and facet shapes: every shape scales the same
    # reference tables, and the maxima over shapes must not move
    mesh = hanging_mesh(d, policy=policy)
    assert len(np.unique(mesh.etab.hi - mesh.etab.lo, axis=0)) > 1
    reps = inequality_constants(mesh, 1, samples=40)
    assert [r.inequality for r in reps] == list(_HANGING_ROWS[d, policy])
    for r in reps:
        assert r.level == 0 and r.samples == 40
        assert r.constant == pytest.approx(_HANGING_ROWS[d, policy][r.inequality],
                                           rel=1e-12, abs=0.0)


def test_write_constants_csv(tmp_path):
    reps = [ConstantReport("inv_time_deriv", 0, 10, 3.25),
            ConstantReport("oswald_averaging", 1, 10, 0.5)]
    p = tmp_path / "constants.csv"
    write_constants_csv(p, reps)
    lines = p.read_text().splitlines()
    assert lines[0] == "inequality,level,samples,constant"
    assert lines[1] == "inv_time_deriv,0,10,3.25"
    assert lines[2] == "oswald_averaging,1,10,0.5"
