"""Space-time meshes of axis-aligned boxes with 1-irregular hanging nodes.

Axis 0 is time; axes 1..d are space.  The time interval is partitioned into
slabs at construction and the slab planes never move; refinement subdivides
elements inside their slab.  Facets come in two kinds:

* Q-facets: lateral faces (normal has no time component),
* R-facets: horizontal faces at constant time (normal is +-e_t).

Each stored facet is the *fine-side* face of its owner element; the coarse
neighbor of a hanging facet sees that part of its boundary as several facet
entities.  Faces of equal-level neighbors coincide, and the owner is then the
element below/left of the plane.

Refinement splits an element in two per spatial axis and in ``k_t`` equal
parts in time, where k_t = 2 for the proportional time-step policy ("h",
dt/h invariant) and k_t = 4 for the quadratic policy ("h2", dt/h^2
invariant).  Coordinates of children are produced exclusively by exact
binary-float midpoint halving of parent coordinates, so boxes that touch
geometrically compare bitwise equal and facet matching needs no tolerances.

Element and facet ids are 64-bit values derived deterministically (splitmix
mixing) from the parent id and child index, so identical construction
histories give identical ids across runs.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

_MASK63 = (1 << 63) - 1
_MASK64 = (1 << 64) - 1


def _mix64(z: int) -> int:
    """splitmix64 finalizer; deterministic 64-bit scrambling."""
    z = (z + 0x9E3779B97F4A7C15) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (z ^ (z >> 31)) & _MASK63


def child_id(parent: int, child_index: int, salt: int = 0) -> int:
    return _mix64(int(parent) ^ _mix64((int(child_index) + 1) ^ _mix64(int(salt) + 11)))


@dataclass
class Element:
    eid: int
    level: int
    lo: np.ndarray  # (d+1,), [t, x1, .., xd]
    hi: np.ndarray
    slab: int
    parent: int = 0  # 0: root
    child_index: int = -1

    @property
    def dt(self) -> float:
        return float(self.hi[0] - self.lo[0])

    @property
    def h(self) -> float:
        return float(np.max(self.hi[1:] - self.lo[1:]))

    @property
    def volume(self) -> float:
        return float(np.prod(self.hi - self.lo))

    def center(self) -> np.ndarray:
        return 0.5 * (self.lo + self.hi)


@dataclass
class Facet:
    fid: int
    axis: int  # frozen axis: 0 -> R-facet, >=1 -> Q-facet
    coord: float  # plane position along `axis`
    lo: np.ndarray  # (d+1,) box with lo[axis] == hi[axis] == coord
    hi: np.ndarray
    owner: int  # element whose face coincides with this facet
    owner_side: int  # +1 if the facet is on the owner's hi side
    neighbor: int | None  # element on the other side (None on the boundary)
    boundary: str | None  # None | 'dirichlet' | 'neumann' | 'initial' | 'final'

    @property
    def is_Q(self) -> bool:
        return self.axis >= 1

    @property
    def is_R(self) -> bool:
        return self.axis == 0

    @property
    def measure(self) -> float:
        ext = self.hi - self.lo
        return float(np.prod(np.delete(ext, self.axis)))

    def free_axes(self) -> np.ndarray:
        k = self.lo.shape[0]
        return np.array([a for a in range(k) if a != self.axis])


@dataclass
class ApplyReport:
    """What refine_and_coarsen actually did."""

    refined: list[int] = field(default_factory=list)
    closure_refined: list[int] = field(default_factory=list)
    coarsened_parents: list[int] = field(default_factory=list)
    skipped_coarsen: list[int] = field(default_factory=list)


def _midpoint(a: float, b: float) -> float:
    return 0.5 * (a + b)


def _time_cuts(t0: float, t1: float, k_t: int) -> list[float]:
    """k_t + 1 cut points, built only from exact midpoint halving."""
    m = _midpoint(t0, t1)
    if k_t == 2:
        return [t0, m, t1]
    if k_t == 4:
        return [t0, _midpoint(t0, m), m, _midpoint(m, t1), t1]
    raise ValueError(f"unsupported temporal split {k_t}")


class SpaceTimeMesh:
    def __init__(
        self,
        d: int,
        t_final: float,
        x_lo: np.ndarray,
        x_hi: np.ndarray,
        slab_times: np.ndarray,
        policy: str,
        dirichlet_lateral: bool = True,
    ):
        if d not in (1, 2):
            raise ValueError(f"spatial dimension must be 1 or 2, got {d}")
        if policy not in ("h", "h2"):
            raise ValueError(f"dt policy must be 'h' or 'h2', got {policy!r}")
        self.d = d
        self.t_final = float(t_final)
        self.x_lo = np.asarray(x_lo, dtype=float)
        self.x_hi = np.asarray(x_hi, dtype=float)
        self.slab_times = np.asarray(slab_times, dtype=float)
        self.policy = policy
        self.k_t = 2 if policy == "h" else 4
        self.dirichlet_lateral = dirichlet_lateral
        self.elements: dict[int, Element] = {}
        self.facets: dict[int, Facet] = {}
        self.elem_facets: dict[int, list[tuple[int, int]]] = {}
        # id -> (parent, child_index, level, lo, hi, slab); kept for every
        # element ever created so coarsening can restore ancestors
        self.genealogy: dict[int, tuple] = {}

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------

    @classmethod
    def build(
        cls,
        d: int,
        n_slabs: int,
        n_cells,
        t_final: float = 1.0,
        x_lo=None,
        x_hi=None,
        policy: str = "h",
        dirichlet_lateral: bool = True,
    ) -> "SpaceTimeMesh":
        """Uniform initial mesh: n_slabs time slabs x n_cells^d spatial grid."""
        x_lo = np.zeros(d) if x_lo is None else np.asarray(x_lo, dtype=float)
        x_hi = np.ones(d) if x_hi is None else np.asarray(x_hi, dtype=float)
        if np.isscalar(n_cells):
            n_cells = (int(n_cells),) * d
        slab_times = np.linspace(0.0, t_final, n_slabs + 1)
        mesh = cls(d, t_final, x_lo, x_hi, slab_times, policy, dirichlet_lateral)
        axes_pts = [slab_times] + [
            np.linspace(x_lo[i], x_hi[i], n_cells[i] + 1) for i in range(d)
        ]
        shape = (n_slabs,) + tuple(n_cells)
        lin = 0
        for multi in np.ndindex(*shape):
            lo = np.array([axes_pts[a][multi[a]] for a in range(d + 1)])
            hi = np.array([axes_pts[a][multi[a] + 1] for a in range(d + 1)])
            eid = _mix64(lin + 1)
            el = Element(eid=eid, level=0, lo=lo, hi=hi, slab=multi[0])
            mesh._register(el)
            lin += 1
        mesh._rebuild_facets()
        return mesh

    def _register(self, el: Element) -> None:
        if el.eid in self.elements:
            raise RuntimeError(f"element id collision: {el.eid}")
        self.elements[el.eid] = el
        self.genealogy[el.eid] = (
            el.parent,
            el.child_index,
            el.level,
            el.lo.copy(),
            el.hi.copy(),
            el.slab,
        )

    def element_ids(self) -> list[int]:
        return sorted(self.elements.keys())

    def facet_ids(self) -> list[int]:
        return sorted(self.facets.keys())

    @property
    def n_elements(self) -> int:
        return len(self.elements)

    def slab_interval(self, n: int) -> tuple[float, float]:
        return float(self.slab_times[n]), float(self.slab_times[n + 1])

    # ------------------------------------------------------------------
    # refinement / coarsening
    # ------------------------------------------------------------------

    def _children_boxes(self, el: Element) -> list[tuple[np.ndarray, np.ndarray]]:
        cuts_t = _time_cuts(float(el.lo[0]), float(el.hi[0]), self.k_t)
        cuts_x = [
            [float(el.lo[a]), _midpoint(float(el.lo[a]), float(el.hi[a])), float(el.hi[a])]
            for a in range(1, self.d + 1)
        ]
        boxes = []
        shape = (self.k_t,) + (2,) * self.d
        for multi in np.ndindex(*shape):
            lo = np.empty(self.d + 1)
            hi = np.empty(self.d + 1)
            lo[0], hi[0] = cuts_t[multi[0]], cuts_t[multi[0] + 1]
            for a in range(1, self.d + 1):
                lo[a], hi[a] = cuts_x[a - 1][multi[a]], cuts_x[a - 1][multi[a] + 1]
            boxes.append((lo, hi))
        return boxes

    def n_children(self) -> int:
        return self.k_t * 2**self.d

    def _face_adjacency(self) -> dict[int, set[int]]:
        adj: dict[int, set[int]] = {eid: set() for eid in self.elements}
        for f in self.facets.values():
            if f.neighbor is not None:
                adj[f.owner].add(f.neighbor)
                adj[f.neighbor].add(f.owner)
        return adj

    def refine_and_coarsen(self, refine_ids, coarsen_ids=()) -> ApplyReport:
        """Apply marks; refinement wins conflicts and closure keeps the mesh
        1-irregular.  Coarsening merges only complete sibling groups whose
        merge cannot create a level jump > 1 (checked against post-refinement
        levels, conservatively for concurrent merges)."""
        report = ApplyReport()
        refine = {int(eid) for eid in refine_ids if int(eid) in self.elements}
        coarsen_ids = [int(eid) for eid in coarsen_ids]
        report.refined = sorted(refine)

        # 1-irregularity closure: a neighbor one level coarser than a refined
        # element must be refined as well.
        adj = self._face_adjacency()
        queue = list(refine)
        while queue:
            k = queue.pop()
            lk = self.elements[k].level
            for m in adj[k]:
                if m in refine:
                    continue
                if self.elements[m].level == lk - 1:
                    refine.add(m)
                    queue.append(m)
                    report.closure_refined.append(m)
        report.closure_refined.sort()

        post_level = {
            eid: el.level + (1 if eid in refine else 0)
            for eid, el in self.elements.items()
        }

        # group coarsening candidates into complete sibling sets
        coarsen = {eid for eid in coarsen_ids if eid in self.elements and eid not in refine}
        by_parent: dict[int, list[int]] = {}
        for eid in coarsen:
            p = self.elements[eid].parent
            if p != 0:
                by_parent.setdefault(p, []).append(eid)
        n_kids = self.n_children()
        merges: list[tuple[int, list[int]]] = []
        for p in sorted(by_parent):
            kids = by_parent[p]
            if len(kids) != n_kids:
                report.skipped_coarsen.extend(kids)
                continue
            lvl = self.elements[kids[0]].level
            blocked = False
            for c in kids:
                for m in adj[c]:
                    if m in coarsen and self.elements[m].parent == p:
                        continue
                    if post_level[m] > lvl:
                        blocked = True
                        break
                if blocked:
                    break
            if blocked:
                report.skipped_coarsen.extend(kids)
            else:
                merges.append((p, kids))
        report.skipped_coarsen.sort()

        for p, kids in merges:
            for c in kids:
                del self.elements[c]
            parent, child_index, level, lo, hi, slab = self.genealogy[p]
            self.elements[p] = Element(
                eid=p, level=level, lo=lo.copy(), hi=hi.copy(), slab=slab,
                parent=parent, child_index=child_index,
            )
            report.coarsened_parents.append(p)
        report.coarsened_parents.sort()

        for eid in sorted(refine):
            el = self.elements.pop(eid)
            for ci, (lo, hi) in enumerate(self._children_boxes(el)):
                cid = child_id(eid, ci)
                child = Element(
                    eid=cid, level=el.level + 1, lo=lo, hi=hi, slab=el.slab,
                    parent=eid, child_index=ci,
                )
                self._register(child)

        self._rebuild_facets()
        return report

    def refine_uniform(self, times: int = 1) -> None:
        for _ in range(times):
            self.refine_and_coarsen(list(self.elements.keys()))

    # ------------------------------------------------------------------
    # facet construction
    # ------------------------------------------------------------------

    def _facet_id(self, owner: int, axis: int, side: int, lo, hi) -> int:
        # owner + which face is not unique for hanging-in-time sub-facets of
        # the subgrid, so fold the box bits in as well; mix sequentially
        # (xor of two already-mixed ids can self-cancel)
        key = _mix64(int(owner))
        key = _mix64(key ^ (2 * axis + (1 if side > 0 else 0) + 3))
        for v in lo:
            key = _mix64(key ^ int(np.float64(v).view(np.uint64)))
        for v in hi:
            key = _mix64(key ^ int(np.float64(v).view(np.uint64)))
        return key

    def _rebuild_facets(self) -> None:
        d1 = self.d + 1
        self.facets = {}
        self.elem_facets = {eid: [] for eid in self.elements}

        # collect faces grouped by (axis, plane coordinate)
        planes: dict[tuple[int, float], list[tuple[int, int, np.ndarray, np.ndarray]]] = {}
        for eid, el in self.elements.items():
            for axis in range(d1):
                rest = [a for a in range(d1) if a != axis]
                lo_r = el.lo[rest]
                hi_r = el.hi[rest]
                planes.setdefault((axis, float(el.lo[axis])), []).append((eid, -1, lo_r, hi_r))
                planes.setdefault((axis, float(el.hi[axis])), []).append((eid, +1, lo_r, hi_r))

        t0_dom = float(self.slab_times[0])
        t1_dom = float(self.slab_times[-1])

        for (axis, coord), faces in planes.items():
            plus = [f for f in faces if f[1] > 0]   # elements below the plane
            minus = [f for f in faces if f[1] < 0]  # elements above the plane

            if axis == 0 and coord == t0_dom:
                boundary = "initial"
            elif axis == 0 and coord == t1_dom:
                boundary = "final"
            elif axis >= 1 and (
                coord == float(self.x_lo[axis - 1]) or coord == float(self.x_hi[axis - 1])
            ):
                boundary = "dirichlet" if self.dirichlet_lateral else "neumann"
            else:
                boundary = None

            if boundary is not None:
                # all faces on a boundary plane are boundary facets
                for eid, side, lo_r, hi_r in faces:
                    self._add_facet(eid, axis, coord, side, lo_r, hi_r, None, boundary)
                continue

            by_box: dict[bytes, list[int]] = {}
            for i, (eid, side, lo_r, hi_r) in enumerate(faces):
                by_box.setdefault(lo_r.tobytes() + hi_r.tobytes(), []).append(i)

            matched = np.zeros(len(faces), dtype=bool)
            # equal faces: conforming interface, owner = plus (below/left) side
            for idxs in by_box.values():
                if len(idxs) == 2:
                    i, j = idxs
                    if faces[i][1] == faces[j][1]:
                        raise RuntimeError("two element faces coincide on the same side")
                    ip = i if faces[i][1] > 0 else j
                    im = j if ip == i else i
                    self._add_facet(
                        faces[ip][0], axis, coord, +1, faces[ip][2], faces[ip][3],
                        faces[im][0], None,
                    )
                    matched[i] = matched[j] = True
                elif len(idxs) > 2:
                    raise RuntimeError("more than two coincident element faces")

            rem_plus = [i for i in np.where(~matched)[0] if faces[i][1] > 0]
            rem_minus = [i for i in np.where(~matched)[0] if faces[i][1] < 0]
            if (len(rem_plus) == 0) != (len(rem_minus) == 0):
                raise RuntimeError(f"unmatched interior faces on plane {axis}={coord}")
            if not rem_plus:
                continue

            P_lo = np.array([faces[i][2] for i in rem_plus])
            P_hi = np.array([faces[i][3] for i in rem_plus])
            M_lo = np.array([faces[i][2] for i in rem_minus])
            M_hi = np.array([faces[i][3] for i in rem_minus])
            # containment matrices (closed boxes)
            p_in_m = np.all(
                (P_lo[:, None, :] >= M_lo[None, :, :]) & (P_hi[:, None, :] <= M_hi[None, :, :]),
                axis=2,
            )
            m_in_p = np.all(
                (M_lo[:, None, :] >= P_lo[None, :, :]) & (M_hi[:, None, :] <= P_hi[None, :, :]),
                axis=2,
            )
            consumed_p = np.zeros(len(rem_plus), dtype=bool)
            consumed_m = np.zeros(len(rem_minus), dtype=bool)
            for pi in range(len(rem_plus)):
                js = np.where(p_in_m[pi])[0]
                if len(js) == 1:
                    i = rem_plus[pi]
                    j = rem_minus[js[0]]
                    self._add_facet(
                        faces[i][0], axis, coord, +1, faces[i][2], faces[i][3],
                        faces[j][0], None,
                    )
                    consumed_p[pi] = True
                    consumed_m[js[0]] = True
                elif len(js) > 1:
                    raise RuntimeError("face contained in several opposite faces")
            for mi in range(len(rem_minus)):
                js = np.where(m_in_p[mi])[0]
                if len(js) == 1:
                    if consumed_m[mi]:
                        # equal boxes were already handled; containment both
                        # ways would mean equality
                        raise RuntimeError("ambiguous face matching")
                    i = rem_minus[mi]
                    j = rem_plus[js[0]]
                    self._add_facet(
                        faces[i][0], axis, coord, -1, faces[i][2], faces[i][3],
                        faces[j][0], None,
                    )
                    consumed_m[mi] = True
                    consumed_p[js[0]] = True
                elif len(js) > 1:
                    raise RuntimeError("face contained in several opposite faces")
            # coarse container faces are consumed implicitly; verify coverage
            for pi in np.where(~consumed_p)[0]:
                if not m_in_p[:, pi].any():
                    raise RuntimeError(f"uncovered interior face on plane {axis}={coord}")
            for mi in np.where(~consumed_m)[0]:
                if not p_in_m[:, mi].any():
                    raise RuntimeError(f"uncovered interior face on plane {axis}={coord}")

    def _add_facet(self, owner, axis, coord, side, lo_r, hi_r, neighbor, boundary):
        d1 = self.d + 1
        rest = [a for a in range(d1) if a != axis]
        lo = np.empty(d1)
        hi = np.empty(d1)
        lo[axis] = hi[axis] = coord
        lo[rest] = lo_r
        hi[rest] = hi_r
        fid = self._facet_id(owner, axis, side, lo, hi)
        if fid in self.facets:
            raise RuntimeError("facet id collision")
        f = Facet(
            fid=fid, axis=axis, coord=coord, lo=lo, hi=hi,
            owner=owner, owner_side=side, neighbor=neighbor, boundary=boundary,
        )
        self.facets[fid] = f
        self.elem_facets[owner].append((fid, side))
        if neighbor is not None:
            self.elem_facets[neighbor].append((fid, -side))

    # ------------------------------------------------------------------
    # patches
    # ------------------------------------------------------------------

    def omega_K(self, eid: int) -> set[int]:
        """Face neighbors: elements sharing a whole facet with K."""
        out = set()
        for fid, _ in self.elem_facets[eid]:
            f = self.facets[fid]
            other = f.neighbor if f.owner == eid else f.owner
            if other is not None and other != eid:
                out.add(other)
        return out

    # ------------------------------------------------------------------
    # validation
    # ------------------------------------------------------------------

    def validate(self) -> None:
        d1 = self.d + 1
        vol = sum(el.volume for el in self.elements.values())
        dom = (self.t_final - float(self.slab_times[0])) * float(
            np.prod(self.x_hi - self.x_lo)
        )
        if not np.isclose(vol, dom, rtol=1e-12, atol=0.0):
            raise AssertionError(f"element volumes {vol} != domain volume {dom}")

        for eid, el in self.elements.items():
            t0, t1 = self.slab_interval(el.slab)
            if not (t0 <= el.lo[0] and el.hi[0] <= t1):
                raise AssertionError(f"element {eid} leaves its slab")
            # boundary tiled by facets, each side exactly once
            area = {(a, s): 0.0 for a in range(d1) for s in (-1, +1)}
            for fid, sign in self.elem_facets[eid]:
                f = self.facets[fid]
                if not np.all((f.lo >= el.lo - 0.0) & (f.hi <= el.hi + 0.0)):
                    raise AssertionError(f"facet {fid} outside element {eid}")
                area[(f.axis, sign)] += f.measure
            for a in range(d1):
                face = float(np.prod(np.delete(el.hi - el.lo, a)))
                for s in (-1, +1):
                    if not np.isclose(area[(a, s)], face, rtol=1e-12):
                        raise AssertionError(
                            f"element {eid} axis {a} side {s}: facet area "
                            f"{area[(a, s)]} != face area {face}"
                        )

        for f in self.facets.values():
            if f.neighbor is not None:
                lo_n = self.elements[f.neighbor].lo
                hi_n = self.elements[f.neighbor].hi
                if not (np.all(f.lo >= lo_n) and np.all(f.hi <= hi_n)):
                    raise AssertionError(f"facet {f.fid} not on its neighbor's face")
                dl = abs(self.elements[f.owner].level - self.elements[f.neighbor].level)
                if dl > 1:
                    raise AssertionError("1-irregularity violated")
            else:
                if f.boundary is None:
                    raise AssertionError(f"interior facet {f.fid} without neighbor")
