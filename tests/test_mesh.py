import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sthdg.mesh import SpaceTimeMesh, child_boxes, child_id, splitmix64
from sthdg.verify import build_subgrid

from conftest import hanging_mesh
from oracles import _mix64, reference_facets


def _max_facet_jump(mesh):
    j = 0
    for f in mesh.facets.values():
        if f.neighbor is not None:
            j = max(j, abs(mesh.elements[f.owner].level - mesh.elements[f.neighbor].level))
    return j


def test_build_counts_and_geometry():
    mesh = SpaceTimeMesh.build(2, 3, 4, t_final=2.0, x_lo=[-1, 0], x_hi=[1, 3])
    assert mesh.n_elements == 3 * 16
    assert mesh.element_ids() == sorted(mesh.element_ids())
    for el in mesh.elements.values():
        assert el.level == 0
        assert abs(el.dt - 2.0 / 3) < 1e-14
        t0, t1 = mesh.slab_interval(el.slab)
        assert t0 <= el.lo[0] and el.hi[0] <= t1
    vol = sum(el.volume for el in mesh.elements.values())
    assert abs(vol - 2.0 * 2.0 * 3.0) < 1e-12
    mesh.validate()


def test_build_rejects_bad_arguments():
    with pytest.raises(ValueError):
        SpaceTimeMesh.build(3, 1, 1)
    with pytest.raises(ValueError):
        SpaceTimeMesh.build(1, 1, 1, policy="h3")


def test_boundary_facet_labels():
    mesh = SpaceTimeMesh.build(1, 1, 1)
    labels = sorted(f.boundary for f in mesh.facets.values())
    assert labels == ["dirichlet", "dirichlet", "final", "initial"]

    mesh = SpaceTimeMesh.build(1, 1, 1, dirichlet_lateral=False)
    labels = sorted(f.boundary for f in mesh.facets.values())
    assert labels == ["final", "initial", "neumann", "neumann"]


def test_facet_geometry_consistency():
    mesh = SpaceTimeMesh.build(2, 2, 2)
    for f in mesh.facets.values():
        assert f.lo[f.axis] == f.hi[f.axis] == f.coord
        assert f.is_R == (f.axis == 0)
        el = mesh.elements[f.owner]
        side = el.hi[f.axis] if f.owner_side > 0 else el.lo[f.axis]
        assert abs(side - f.coord) < 1e-14
        if f.neighbor is not None:
            nb = mesh.elements[f.neighbor]
            # facet box contained in both closures
            assert np.all(f.lo >= np.minimum(el.lo, nb.lo) - 1e-14)
            assert np.all(f.hi <= np.maximum(el.hi, nb.hi) + 1e-14)


def test_refine_single_element():
    mesh = SpaceTimeMesh.build(1, 2, 2)
    target = mesh.element_ids()[0]
    rep = mesh.refine_and_coarsen([target])
    assert rep.refined == [target]
    assert rep.closure_refined == []
    assert mesh.n_elements == 3 + mesh.n_children()
    assert target not in mesh.elements
    mesh.validate()
    assert _max_facet_jump(mesh) <= 1


def test_children_tile_parent():
    for policy, kt in (("h", 2), ("h2", 4)):
        mesh = SpaceTimeMesh.build(2, 1, 1, policy=policy)
        assert mesh.n_children() == kt * 4
        parent = next(iter(mesh.elements.values()))
        boxes = list(zip(*child_boxes(parent.lo[None], parent.hi[None], mesh.k_t)))
        assert len(boxes) == mesh.n_children()
        vol = sum(np.prod(hi - lo) for lo, hi in boxes)
        assert abs(vol - parent.volume) < 1e-14
        for lo, hi in boxes:
            assert abs((hi[0] - lo[0]) - parent.dt / kt) < 1e-14


def test_closure_enforces_one_irregularity():
    mesh = SpaceTimeMesh.build(1, 1, 2)
    left = min(mesh.element_ids(), key=lambda e: mesh.elements[e].lo[1])
    mesh.refine_and_coarsen([left])
    # refine a left child sitting on the interface: the coarse right
    # neighbor must be pulled in by closure
    kid = next(
        e for e, el in mesh.elements.items()
        if el.level == 1 and abs(el.hi[1] - 0.5) < 1e-14
    )
    rep = mesh.refine_and_coarsen([kid])
    assert len(rep.closure_refined) >= 1
    assert _max_facet_jump(mesh) <= 1
    mesh.validate()


def test_coarsen_restores_parent():
    mesh = SpaceTimeMesh.build(1, 2, 2)
    target = mesh.element_ids()[0]
    el0 = mesh.elements[target]
    lo0, hi0 = el0.lo.copy(), el0.hi.copy()
    mesh.refine_and_coarsen([target])
    kids = [e for e, el in mesh.elements.items() if el.parent == target]
    rep = mesh.refine_and_coarsen([], kids)
    assert rep.coarsened_parents == [target]
    assert mesh.n_elements == 4
    assert np.allclose(mesh.elements[target].lo, lo0)
    assert np.allclose(mesh.elements[target].hi, hi0)
    mesh.validate()


def test_partial_sibling_group_is_skipped():
    mesh = SpaceTimeMesh.build(1, 2, 2)
    target = mesh.element_ids()[0]
    mesh.refine_and_coarsen([target])
    kids = sorted(e for e, el in mesh.elements.items() if el.parent == target)
    rep = mesh.refine_and_coarsen([], kids[:-1])
    assert rep.coarsened_parents == []
    assert rep.skipped_coarsen == kids[:-1]
    assert target not in mesh.elements


def test_coarsen_blocked_by_level_jump():
    mesh = SpaceTimeMesh.build(1, 1, 2)
    a, b = sorted(mesh.element_ids(), key=lambda e: mesh.elements[e].lo[1])
    mesh.refine_and_coarsen([a, b])
    # refine b's child on the interface so a's children would face level 2
    kid_b = next(
        e for e, el in mesh.elements.items()
        if el.parent == b and abs(el.lo[1] - 0.5) < 1e-14
    )
    mesh.refine_and_coarsen([kid_b])
    kids_a = [e for e, el in mesh.elements.items() if el.parent == a]
    rep = mesh.refine_and_coarsen([], kids_a)
    assert rep.coarsened_parents == []
    assert sorted(rep.skipped_coarsen) == sorted(kids_a)
    assert _max_facet_jump(mesh) <= 1


def test_refinement_wins_over_coarsening():
    mesh = SpaceTimeMesh.build(1, 2, 2)
    target = mesh.element_ids()[0]
    mesh.refine_and_coarsen([target])
    kids = [e for e, el in mesh.elements.items() if el.parent == target]
    rep = mesh.refine_and_coarsen(kids[:1], kids)
    assert rep.coarsened_parents == []
    assert kids[0] not in mesh.elements  # it was refined


def test_refine_uniform_counts():
    mesh = SpaceTimeMesh.build(2, 1, 1)
    n0 = mesh.n_elements
    mesh.refine_uniform(2)
    assert mesh.n_elements == n0 * mesh.n_children() ** 2
    mesh.validate()


def test_element_ids_deterministic():
    m1 = SpaceTimeMesh.build(2, 2, 2)
    m2 = SpaceTimeMesh.build(2, 2, 2)
    assert m1.element_ids() == m2.element_ids()
    t = m1.element_ids()[3]
    m1.refine_and_coarsen([t])
    m2.refine_and_coarsen([t])
    assert m1.element_ids() == m2.element_ids()
    assert child_id(t, 0) == child_id(t, 0)
    assert child_id(t, 0) != child_id(t, 1)


def test_neighborhood_queries():
    mesh = SpaceTimeMesh.build(1, 2, 2)
    corner = min(
        mesh.element_ids(),
        key=lambda e: (mesh.elements[e].lo[0], mesh.elements[e].lo[1]),
    )
    assert len(mesh.omega_K(corner)) == 2


@settings(max_examples=20, deadline=None)
@given(st.data())
def test_random_adaptivity_keeps_invariants(data):
    d = data.draw(st.sampled_from([1, 2]))
    policy = data.draw(st.sampled_from(["h", "h2"]))
    mesh = SpaceTimeMesh.build(d, 2, 2, policy=policy)
    for _ in range(data.draw(st.integers(min_value=1, max_value=3))):
        if mesh.n_elements > 400:
            break
        ids = mesh.element_ids()
        refs = data.draw(st.sets(st.sampled_from(ids), max_size=3))
        coars = data.draw(st.sets(st.sampled_from(ids), max_size=8))
        mesh.refine_and_coarsen(refs, coars)
        mesh.validate()
        assert _max_facet_jump(mesh) <= 1
        for el in mesh.elements.values():
            t0, t1 = mesh.slab_interval(el.slab)
            assert t0 - 1e-14 <= el.lo[0] and el.hi[0] <= t1 + 1e-14


def test_splitmix64_matches_scalar_reference():
    rng = np.random.default_rng(7)
    words = [0, 1, 2**63 - 1, 2**64 - 1]
    words += rng.integers(0, 2**64, size=10**5, dtype=np.uint64).tolist()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        mixed = splitmix64(np.array(words, dtype=np.uint64))
        kids = child_id(np.array(words[:1000], dtype=np.uint64) >> np.uint64(1), 5, salt=101)
    assert mixed.tolist() == [_mix64(w) for w in words]
    assert kids.tolist() == [_mix64((w >> 1) ^ _mix64(6 ^ _mix64(112))) for w in words[:1000]]


def test_entity_views_are_read_only():
    mesh = hanging_mesh(2)
    el = next(iter(mesh.elements.values()))
    f = next(iter(mesh.facets.values()))
    for a in (el.lo, f.hi, mesh.etab.lo, mesh.ftab.owner):
        with pytest.raises(ValueError):
            a[0] = 0
    with pytest.raises(TypeError):
        mesh.elements[el.eid] = el


def _assert_facets_match_reference(mesh):
    ref, ref_sides = reference_facets(mesh)
    assert set(mesh.facets) == set(ref)
    for fid, r in ref.items():
        f = mesh.facets[fid]
        assert f.lo.tobytes() == r.lo.tobytes() and f.hi.tobytes() == r.hi.tobytes()
        assert (f.axis, f.coord, f.owner, f.neighbor, f.owner_side, f.boundary) == (
            r.axis, r.coord, r.owner, r.neighbor, r.owner_side, r.boundary)
    assert set(mesh.elem_facets) == set(ref_sides) == set(mesh.elements)
    for eid, sides in ref_sides.items():
        assert set(mesh.elem_facets[eid]) == set(sides)


@settings(max_examples=25, deadline=None)
@given(st.data())
def test_facet_tables_match_reference_builder(data):
    d = data.draw(st.sampled_from([1, 2]))
    policy = data.draw(st.sampled_from(["h", "h2"]))
    mesh = hanging_mesh(d, data.draw(st.booleans()), policy)
    _assert_facets_match_reference(mesh)
    for _ in range(data.draw(st.integers(min_value=1, max_value=3))):
        if mesh.n_elements > 300:
            break
        ids = mesh.element_ids()
        refs = data.draw(st.sets(st.sampled_from(ids), max_size=4))
        # whole sibling groups, so that coarsening happens, plus single ids
        parents = sorted({el.parent for el in mesh.elements.values() if el.parent})
        groups = data.draw(st.sets(st.sampled_from(parents), max_size=3)) if parents else set()
        coars = [e for e, el in mesh.elements.items() if el.parent in groups]
        coars += data.draw(st.sets(st.sampled_from(ids), max_size=4))
        mesh.refine_and_coarsen(refs, coars)
        _assert_facets_match_reference(mesh)
    _assert_facets_match_reference(build_subgrid(mesh).fine)
