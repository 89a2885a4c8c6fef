import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sthdg import mesh as mesh_mod
from sthdg.mesh import BOUNDARIES, ElementTable, SpaceTimeMesh, child_boxes, child_id, splitmix64
from sthdg.verify import build_subgrid

from conftest import hanging_mesh
from oracles import _mix64, elements, facets, omega_K, oracle_all_pairs, reference_facets


def _max_facet_jump(mesh):
    e, f = mesh.etab, mesh.ftab
    inner = f.neighbor >= 0
    return int(np.max(np.abs(e.level[f.owner[inner]] - e.level[f.neighbor[inner]]), initial=0))


def _children(mesh, parent):
    return mesh.etab.id[mesh.etab.parent == parent].tolist()


def _was_refined(mesh, eid):
    """eid is gone and all of its children are in the mesh."""
    kids = child_id(eid, np.arange(math.prod(mesh.split))).tolist()
    return eid not in mesh.etab.id and sorted(_children(mesh, eid)) == sorted(kids)


def test_build_counts_and_geometry():
    mesh = SpaceTimeMesh.build(2, 3, 4, t_final=2.0, x_lo=[-1, 0], x_hi=[1, 3])
    assert mesh.n_elements == 3 * 16
    assert mesh.etab.id.tolist() == sorted(mesh.etab.id.tolist())
    els = elements(mesh)
    for el in els.values():
        assert el.level == 0
        assert abs(el.dt - 2.0 / 3) < 1e-14
        t0, t1 = mesh.slab_times[el.slab], mesh.slab_times[el.slab + 1]
        assert t0 <= el.lo[0] and el.hi[0] <= t1
    vol = sum(el.volume for el in els.values())
    assert abs(vol - 2.0 * 2.0 * 3.0) < 1e-12
    mesh.validate()


def test_build_rejects_bad_arguments():
    with pytest.raises(ValueError):
        SpaceTimeMesh.build(3, 1, 1)
    with pytest.raises(ValueError):
        SpaceTimeMesh.build(1, 1, 1, policy="h3")


def test_boundary_facet_labels():
    mesh = SpaceTimeMesh.build(1, 1, 1)
    labels = sorted(f.boundary for f in facets(mesh).values())
    assert labels == ["dirichlet", "dirichlet", "final", "initial"]

    mesh = SpaceTimeMesh.build(1, 1, 1, dirichlet_lateral=False)
    labels = sorted(f.boundary for f in facets(mesh).values())
    assert labels == ["final", "initial", "neumann", "neumann"]


def test_facet_geometry_consistency():
    mesh = SpaceTimeMesh.build(2, 2, 2)
    els = elements(mesh)
    for f in facets(mesh).values():
        assert f.lo[f.axis] == f.hi[f.axis] == f.coord
        assert f.is_R == (f.axis == 0)
        el = els[f.owner]
        side = el.hi[f.axis] if f.owner_side > 0 else el.lo[f.axis]
        assert abs(side - f.coord) < 1e-14
        if f.neighbor is not None:
            nb = els[f.neighbor]
            # facet box contained in both closures
            assert np.all(f.lo >= np.minimum(el.lo, nb.lo) - 1e-14)
            assert np.all(f.hi <= np.maximum(el.hi, nb.hi) + 1e-14)


def test_refine_single_element():
    mesh = SpaceTimeMesh.build(1, 2, 2)
    target = int(mesh.etab.id[0])
    mesh.refine_and_coarsen([target])
    assert _was_refined(mesh, target)
    assert mesh.n_elements == 3 + math.prod(mesh.split)  # no closure
    mesh.validate()
    assert _max_facet_jump(mesh) <= 1


def test_children_tile_parent(rng):
    for policy, kt in (("h", 2), ("h2", 4)):
        mesh = SpaceTimeMesh.build(2, 1, 1, policy=policy)
        assert mesh.split == (kt, 2, 2)
        parent = next(iter(elements(mesh).values()))
        boxes = list(zip(*child_boxes(parent.lo[None], parent.hi[None], mesh.split)))
        assert len(boxes) == kt * 4
        vol = sum(np.prod(hi - lo) for lo, hi in boxes)
        assert abs(vol - parent.volume) < 1e-14
        for lo, hi in boxes:
            assert abs((hi[0] - lo[0]) - parent.dt / kt) < 1e-14

    # bit for bit the cuts of the former per-policy code, on random boxes,
    # where another order of the midpoint sums shows in the last bits
    lo = rng.uniform(-1, 0, size=(64, 3))
    hi = lo + rng.uniform(0.1, 1, size=(64, 3))
    mid = 0.5 * (lo + hi)
    # (2, 1, 1): the lower and upper time halves of the temporal subgrid
    clo, chi = child_boxes(lo, hi, (2, 1, 1))
    want_lo, want_hi = np.repeat(lo, 2, axis=0), np.repeat(hi, 2, axis=0)
    want_lo[1::2, 0] = want_hi[::2, 0] = mid[:, 0]
    assert clo.tobytes() == want_lo.tobytes() and chi.tobytes() == want_hi.tobytes()
    # (4, 2, 2): quarters in time from the halves, np.ndindex order
    t0, tm, t1 = lo[:, 0], mid[:, 0], hi[:, 0]
    cuts = [np.column_stack((t0, 0.5 * (t0 + tm), tm, 0.5 * (tm + t1), t1))]
    cuts += [np.column_stack((lo[:, a], mid[:, a], hi[:, a])) for a in (1, 2)]
    clo, chi = child_boxes(lo, hi, (4, 2, 2))
    for i, index in enumerate(np.ndindex(4, 2, 2)):
        for got, k in ((clo, 0), (chi, 1)):
            want = np.column_stack([c[:, j + k] for c, j in zip(cuts, index)])
            assert got[i::16].tobytes() == want.tobytes()
    with pytest.raises(ValueError, match="3 parts"):
        child_boxes(lo, hi, (3, 2, 2))


def test_validate_rejects_repeated_facet_keys():
    mesh = SpaceTimeMesh.build(1, 2, 2)
    f = mesh.ftab
    inner, outer = np.flatnonzero(f.neighbor >= 0)[0], np.flatnonzero(f.neighbor < 0)[0]
    for row, message in ((inner, "same pair of elements"), (outer, "boundary facets on one face")):
        mesh.ftab = f.take(np.r_[np.arange(len(f)), row])
        with pytest.raises(AssertionError, match=message):
            mesh.validate()


def test_closure_enforces_one_irregularity():
    mesh = SpaceTimeMesh.build(1, 1, 2)
    left, right = mesh.etab.id[np.argsort(mesh.etab.lo[:, 1])].tolist()
    mesh.refine_and_coarsen([left])
    # refine a left child sitting on the interface: the coarse right
    # neighbor must be pulled in by closure
    e = mesh.etab
    kid = int(e.id[(e.level == 1) & (np.abs(e.hi[:, 1] - 0.5) < 1e-14)][0])
    mesh.refine_and_coarsen([kid])
    assert _was_refined(mesh, kid)
    assert _was_refined(mesh, right)
    assert _max_facet_jump(mesh) <= 1
    mesh.validate()


def test_coarsen_restores_parent():
    mesh = SpaceTimeMesh.build(1, 2, 2)
    target = int(mesh.etab.id[0])
    el0 = elements(mesh)[target]
    mesh.refine_and_coarsen([target])
    mesh.refine_and_coarsen([], _children(mesh, target))
    assert target in mesh.etab.id and _children(mesh, target) == []
    assert mesh.n_elements == 4
    el = elements(mesh)[target]
    assert np.allclose(el.lo, el0.lo)
    assert np.allclose(el.hi, el0.hi)
    mesh.validate()


def test_partial_sibling_group_is_skipped():
    mesh = SpaceTimeMesh.build(1, 2, 2)
    target = int(mesh.etab.id[0])
    mesh.refine_and_coarsen([target])
    kids = sorted(_children(mesh, target))
    mesh.refine_and_coarsen([], kids[:-1])
    assert sorted(_children(mesh, target)) == kids
    assert target not in mesh.etab.id


def test_coarsen_blocked_by_level_jump():
    mesh = SpaceTimeMesh.build(1, 1, 2)
    a, b = mesh.etab.id[np.argsort(mesh.etab.lo[:, 1])].tolist()
    mesh.refine_and_coarsen([a, b])
    # refine b's child on the interface so a's children would face level 2
    e = mesh.etab
    kid_b = e.id[(e.parent == b) & (np.abs(e.lo[:, 1] - 0.5) < 1e-14)][0]
    mesh.refine_and_coarsen([kid_b])
    kids_a = _children(mesh, a)
    mesh.refine_and_coarsen([], kids_a)
    assert sorted(_children(mesh, a)) == sorted(kids_a)
    assert a not in mesh.etab.id
    assert _max_facet_jump(mesh) <= 1


def test_refinement_wins_over_coarsening():
    mesh = SpaceTimeMesh.build(1, 2, 2)
    target = int(mesh.etab.id[0])
    mesh.refine_and_coarsen([target])
    kids = _children(mesh, target)
    mesh.refine_and_coarsen(kids[:1], kids)
    assert target not in mesh.etab.id
    assert _was_refined(mesh, kids[0])
    assert _children(mesh, target) == kids[1:]


def test_refine_uniform_counts():
    mesh = SpaceTimeMesh.build(2, 1, 1)
    n0 = mesh.n_elements
    mesh.refine_uniform()
    mesh.refine_uniform()
    assert mesh.n_elements == n0 * math.prod(mesh.split) ** 2
    mesh.validate()


def test_unknown_ids_are_rejected_before_any_change():
    mesh = SpaceTimeMesh.build(1, 2, 2)
    target = int(mesh.etab.id[0])
    mesh.refine_and_coarsen([target])
    etab, ftab = mesh.etab, mesh.ftab
    kids = _children(mesh, target)
    for marks in (([target], []), ([kids[0]], [target]), ([], kids + [target])):
        with pytest.raises(ValueError, match=f"no element with id {target}"):
            mesh.refine_and_coarsen(*marks)
        assert mesh.etab is etab and mesh.ftab is ftab
    with pytest.raises(ValueError, match="no element with id"):
        mesh.refine_and_coarsen({int(mesh.etab.id.max()) + 1})


def test_element_ids_deterministic():
    m1 = SpaceTimeMesh.build(2, 2, 2)
    m2 = SpaceTimeMesh.build(2, 2, 2)
    assert m1.etab.id.tolist() == m2.etab.id.tolist()
    t = int(m1.etab.id[3])
    m1.refine_and_coarsen([t])
    m2.refine_and_coarsen([t])
    assert m1.etab.id.tolist() == m2.etab.id.tolist()
    assert child_id(t, 0) == child_id(t, 0)
    assert child_id(t, 0) != child_id(t, 1)


def test_element_rows_are_in_ascending_id_order():
    # an element's table row is its position in the dof order
    def ascending(mesh):
        return bool(np.all(np.diff(mesh.etab.id) > 0))

    mesh = SpaceTimeMesh.build(2, 2, 2)
    assert ascending(mesh)
    target = int(mesh.etab.id[0])
    mesh.refine_and_coarsen([target, int(mesh.etab.id[-1])])
    assert ascending(mesh)
    mesh.refine_and_coarsen([], _children(mesh, target))
    assert target in mesh.etab.id
    assert ascending(mesh)
    assert ascending(build_subgrid(mesh).fine)
    for policy in ("h", "h2"):
        mesh = SpaceTimeMesh.build(1, 2, 2, policy=policy)
        mesh.refine_uniform()
        assert ascending(mesh)
        assert ascending(build_subgrid(mesh).fine)


def test_element_id_collision_is_rejected():
    mesh = SpaceTimeMesh.build(1, 2, 2)
    with pytest.raises(RuntimeError, match="element id collision"):
        mesh._set_elements(ElementTable.concat([mesh.etab, mesh.etab.take([2])]))


def test_neighborhood_queries():
    mesh = SpaceTimeMesh.build(1, 2, 2)
    corner = mesh.etab.id[np.lexsort((mesh.etab.lo[:, 1], mesh.etab.lo[:, 0]))[0]]
    assert len(omega_K(mesh, corner)) == 2


@settings(max_examples=20, deadline=None)
@given(st.data())
def test_random_adaptivity_keeps_invariants(data):
    d = data.draw(st.sampled_from([1, 2]))
    policy = data.draw(st.sampled_from(["h", "h2"]))
    mesh = SpaceTimeMesh.build(d, 2, 2, policy=policy)
    for _ in range(data.draw(st.integers(min_value=1, max_value=3))):
        if mesh.n_elements > 400:
            break
        ids = mesh.etab.id.tolist()
        refs = data.draw(st.sets(st.sampled_from(ids), max_size=3))
        coars = data.draw(st.sets(st.sampled_from(ids), max_size=8))
        mesh.refine_and_coarsen(refs, coars)
        mesh.validate()
        assert _max_facet_jump(mesh) <= 1
        e = mesh.etab
        assert np.all(mesh.slab_times[e.slab] - 1e-14 <= e.lo[:, 0])
        assert np.all(e.hi[:, 0] <= mesh.slab_times[e.slab + 1] + 1e-14)


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


def test_table_arrays_are_read_only():
    mesh = hanging_mesh(2)
    for table in (mesh.etab, mesh.ftab):
        for name in vars(table):
            a = getattr(table, name)
            with pytest.raises(ValueError):
                a[0] = a[0]
    with pytest.raises(AttributeError):
        mesh.ftab.owner = mesh.ftab.neighbor


def _assert_facets_match_reference(mesh):
    ref, ref_sides = reference_facets(mesh)
    f, ids = mesh.ftab, mesh.etab.id
    assert f.id.tolist() == sorted(ref)
    for i, fid in enumerate(f.id.tolist()):
        r = ref[fid]
        ax = int(f.axis[i])
        assert f.lo[i].tobytes() == r.lo.tobytes() and f.hi[i].tobytes() == r.hi.tobytes()
        nb = int(ids[f.neighbor[i]]) if f.neighbor[i] >= 0 else None
        assert (ax, float(f.lo[i, ax]), int(ids[f.owner[i]]), nb, int(f.side[i]),
                BOUNDARIES[f.boundary[i]]) == (
            r.axis, r.coord, r.owner, r.neighbor, r.owner_side, r.boundary)
    # each element's sides: the rows that name it as owner or neighbor
    inner = f.neighbor >= 0
    side_elem = ids[np.concatenate((f.owner, f.neighbor[inner]))].tolist()
    side = zip(np.concatenate((f.id, f.id[inner])).tolist(),
               np.concatenate((f.side, -f.side[inner])).tolist())
    sides: dict[int, set] = {eid: set() for eid in ids.tolist()}
    for eid, s in zip(side_elem, side):
        sides[eid].add(s)
    assert sides == {eid: set(s) for eid, s in ref_sides.items()}


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
        ids = mesh.etab.id.tolist()
        refs = data.draw(st.sets(st.sampled_from(ids), max_size=4))
        # whole sibling groups, so that coarsening happens, plus single ids
        parents = sorted(set(mesh.etab.parent.tolist()) - {0})
        groups = data.draw(st.sets(st.sampled_from(parents), max_size=3)) if parents else set()
        coars = mesh.etab.id[np.isin(mesh.etab.parent, list(groups))].tolist()
        coars += data.draw(st.sets(st.sampled_from(ids), max_size=4))
        mesh.refine_and_coarsen(refs, coars)
        _assert_facets_match_reference(mesh)
    _assert_facets_match_reference(build_subgrid(mesh).fine)


def test_hanging_pairs_match_all_pairs_oracle(monkeypatch):
    # pairing only faces that overlap along a free axis finds the same
    # hanging facets as pairing every hi face of a plane with every lo face
    for d in (1, 2):
        for policy in ("h", "h2"):
            mesh = hanging_mesh(d, policy=policy)
            for step in range(3):
                if step:  # planes with faces of more levels
                    mesh.refine_and_coarsen(mesh.etab.id[::3].tolist())
                got = mesh.ftab
                with monkeypatch.context() as m:
                    m.setattr(mesh_mod, "_nested_pairs", oracle_all_pairs)
                    mesh._rebuild_facets()
                for name in vars(got):
                    a, b = getattr(got, name), getattr(mesh.ftab, name)
                    assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), (d, policy, name)
