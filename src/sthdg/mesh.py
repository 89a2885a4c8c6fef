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

Refinement splits an element into ``split[a]`` equal parts along axis a,
where ``split = (k_t, 2, .., 2)``, k_t = 2 for the proportional time-step
policy ("h", dt/h invariant) and k_t = 4 for the quadratic policy ("h2",
dt/h^2 invariant).  Children are built only by exact binary-float midpoint
halving, so boxes that touch geometrically compare bitwise equal and facet
matching needs no tolerances.

Storage.  Elements and facets are struct-of-arrays tables with read-only
arrays, and a table row is the only handle on an entity: there are no
per-entity objects.  `ElementTable` rows are in ascending id order, like
`FacetTable` rows, so an element's row is its position in the dof order;
`owner` and `neighbor` are element rows (-1 on the boundary) and
`boundary` is an index into `BOUNDARIES`.  The elements sharing a facet
with K are the other sides of K's rows in `owner`/`neighbor`.

Ids are 63-bit splitmix64 values computed over uint64 arrays (wrapping mod
2^64): a root element mixes its grid position, a child mixes its parent id
and child index (`child_id`), and a facet mixes its owner id, face (axis,
side) and the bit patterns of its 2(d+1) coordinates, so identical
construction histories give identical ids across runs.

Matching.  `_rebuild_facets` lists the 2(d+1) faces of every element and
labels those on the domain boundary.  One lexsort of the interior faces by
(axis, box, side) puts equal boxes side by side: an equal pair is a
conforming facet owned by the element below/left.  Every other face is
paired with the opposite faces of its plane that overlap it along one free
axis (a sort and a `searchsorted`, `_nested_pairs`); a face inside exactly
one of them is a hanging facet owned by its own element.

Refinement.  `refine_and_coarsen` takes the ids to refine and to coarsen
(an id that is not in the mesh raises ValueError before anything changes)
and returns nothing; the new tables show what it did.  It closes the
refinement marks over the facet owner/neighbor/level arrays until no
marked element has an unmarked neighbor one level coarser, and builds all
children at once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

BOUNDARIES = (None, "dirichlet", "neumann", "initial", "final")

_U64 = np.uint64
_MASK63 = _U64((1 << 63) - 1)


def splitmix64(z) -> np.ndarray:
    """splitmix64 finalizer over uint64 arrays, top bit cleared.

    Array arithmetic wraps mod 2^64 without a warning, unlike numpy scalar
    arithmetic, so the input is always made at least one-dimensional."""
    z = np.atleast_1d(np.asarray(z, dtype=_U64)) + _U64(0x9E3779B97F4A7C15)
    z = (z ^ (z >> _U64(30))) * _U64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> _U64(27))) * _U64(0x94D049BB133111EB)
    return (z ^ (z >> _U64(31))) & _MASK63


def child_id(parent, child_index, salt: int = 0) -> np.ndarray:
    """Ids (int64 array) of children `child_index` of elements `parent`."""
    inner = splitmix64((np.asarray(child_index, dtype=_U64) + _U64(1)) ^ splitmix64(salt + 11))
    return splitmix64(np.asarray(parent, dtype=_U64) ^ inner).astype(np.int64)


class _Table:
    """Struct-of-arrays storage, one row per entity; the arrays are read-only."""

    def __post_init__(self):
        for f in fields(self):
            a = np.ascontiguousarray(getattr(self, f.name))
            a.flags.writeable = False
            object.__setattr__(self, f.name, a)

    def __len__(self) -> int:
        return len(self.id)

    def take(self, rows):
        return type(self)(*(getattr(self, f.name)[rows] for f in fields(self)))

    @classmethod
    def concat(cls, parts: list):
        return cls(*(np.concatenate([getattr(p, f.name) for p in parts]) for f in fields(cls)))


@dataclass(frozen=True)
class ElementTable(_Table):
    """Elements; `lo`, `hi` are (n, d+1) arrays [t, x1, .., xd]."""

    id: np.ndarray  # int64
    level: np.ndarray
    slab: np.ndarray
    parent: np.ndarray  # parent id, 0 for a root
    lo: np.ndarray
    hi: np.ndarray

    @staticmethod
    def empty(d: int) -> ElementTable:
        ints = np.empty(0, dtype=np.int64)
        box = np.empty((0, d + 1))
        return ElementTable(ints, ints, ints, ints, box, box)


@dataclass(frozen=True)
class FacetTable(_Table):
    """Facets, ids ascending; lo[axis] == hi[axis] is the facet's plane."""

    id: np.ndarray  # int64
    axis: np.ndarray  # frozen axis: 0 -> R-facet, >= 1 -> Q-facet
    side: np.ndarray  # +1 if the facet is on the owner's hi face
    owner: np.ndarray  # element row
    neighbor: np.ndarray  # element row, -1 on the boundary
    boundary: np.ndarray  # index into BOUNDARIES
    lo: np.ndarray
    hi: np.ndarray


def child_boxes(lo: np.ndarray, hi: np.ndarray, parts) -> tuple[np.ndarray, np.ndarray]:
    """Children of the boxes (n, d+1): parts[a] equal parts along axis a,
    built only from exact midpoint halving, so each part count is a power
    of two (ValueError otherwise).  Rows are parent-major; children follow
    np.ndindex order of `parts`."""
    n, d1 = lo.shape
    cuts = []
    for a, k in enumerate(parts):
        if k < 1 or k & (k - 1):
            raise ValueError(f"cannot halve an axis into {k} parts")
        c = np.column_stack((lo[:, a], hi[:, a]))
        while c.shape[1] <= k:
            c = np.insert(c, range(1, c.shape[1]), 0.5 * (c[:, :-1] + c[:, 1:]), axis=1)
        cuts.append(c)
    multi = np.indices(parts).reshape(d1, -1)
    clo = np.stack([cuts[a][:, multi[a]] for a in range(d1)], axis=-1)
    chi = np.stack([cuts[a][:, multi[a] + 1] for a in range(d1)], axis=-1)
    return clo.reshape(-1, d1), chi.reshape(-1, d1)


def _nested_pairs(plane: np.ndarray, plus: np.ndarray, lo: np.ndarray,
                  hi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Positions (i, j) of a plus face i and a minus face j of the same plane
    such that one of the intervals [lo, hi) along a free axis starts inside
    the other.  Every pair of faces in which one contains the other is
    among them.  A plane's minus faces are sorted by the start of their
    interval and each plus face takes those that start inside its own with
    one `searchsorted`; the plus faces that start strictly inside a minus
    face are found the same way."""
    vals, rank = np.unique(np.concatenate((lo, hi)), return_inverse=True)
    # (plane, value) pairs as one sortable integer
    key_lo, key_hi = np.split(np.tile(plane.astype(np.int64), 2) * len(vals) + rank, 2)
    pairs = []
    for a, b, first_side in ((plus, ~plus, "left"), (~plus, plus, "right")):
        ia, ib = np.flatnonzero(a), np.flatnonzero(b)
        ib = ib[np.argsort(key_lo[ib], kind="stable")]
        first = np.searchsorted(key_lo[ib], key_lo[ia], side=first_side)
        n = np.searchsorted(key_lo[ib], key_hi[ia], side="left") - first
        pairs.append((np.repeat(ia, n),
                      ib[np.repeat(first - np.cumsum(n) + n, n) + np.arange(n.sum())]))
    (p1, m1), (m2, p2) = pairs
    return np.concatenate((p1, p2)), np.concatenate((m1, m2))


class SpaceTimeMesh:
    def __init__(
        self,
        d: int,
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
        self.x_lo = np.asarray(x_lo, dtype=float)
        self.x_hi = np.asarray(x_hi, dtype=float)
        self.slab_times = np.asarray(slab_times, dtype=float)
        self.policy = policy
        self.split = (2 if policy == "h" else 4,) + (2,) * d
        self.dirichlet_lateral = dirichlet_lateral
        self.etab = ElementTable.empty(d)
        self.ftab: FacetTable | None = None
        # every element ever refined, so that coarsening can restore it
        self._refined = ElementTable.empty(d)

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
        mesh = cls(d, x_lo, x_hi, slab_times, policy, dirichlet_lateral)
        axes_pts = [slab_times] + [
            np.linspace(x_lo[i], x_hi[i], n_cells[i] + 1) for i in range(d)
        ]
        # np.indices enumerates the grid in np.ndindex (C) order
        multi = np.indices((n_slabs,) + tuple(n_cells)).reshape(d + 1, -1)
        n = multi.shape[1]
        zeros = np.zeros(n, dtype=np.int64)
        mesh._set_elements(ElementTable(
            id=splitmix64(np.arange(1, n + 1)).astype(np.int64),
            level=zeros, slab=multi[0], parent=zeros,
            lo=np.column_stack([axes_pts[a][multi[a]] for a in range(d + 1)]),
            hi=np.column_stack([axes_pts[a][multi[a] + 1] for a in range(d + 1)]),
        ))
        return mesh

    def _set_elements(self, etab: ElementTable) -> None:
        etab = etab.take(np.argsort(etab.id))
        if np.any(etab.id[1:] == etab.id[:-1]):
            raise RuntimeError("element id collision")
        self.etab = etab
        self._rebuild_facets()

    @property
    def n_elements(self) -> int:
        return len(self.etab)

    # ------------------------------------------------------------------
    # refinement / coarsening
    # ------------------------------------------------------------------

    def _rows_of(self, ids) -> np.ndarray:
        """Mask of the element rows whose id is in the iterable `ids`;
        ValueError if one of them is not in the mesh."""
        ids = np.fromiter(map(int, ids), dtype=np.int64)
        rows = np.minimum(np.searchsorted(self.etab.id, ids), len(self.etab) - 1)
        unknown = ids[self.etab.id[rows] != ids]
        if unknown.size:
            raise ValueError(f"no element with id {int(unknown[0])}")
        mask = np.zeros(len(self.etab), dtype=bool)
        mask[rows] = True
        return mask

    def refine_and_coarsen(self, refine_ids, coarsen_ids=()) -> None:
        """Apply marks, given as element ids; an id that is not in the mesh
        raises ValueError before anything changes.  Refinement wins
        conflicts and closure keeps the mesh 1-irregular.  Coarsening merges
        only complete sibling groups whose merge cannot create a level jump
        > 1 (checked against post-refinement levels, conservatively for
        concurrent merges); other coarsening marks are left as they are."""
        e, f = self.etab, self.ftab
        ids = e.id
        nc = math.prod(self.split)
        refine = self._rows_of(refine_ids)
        coarsen = self._rows_of(coarsen_ids)

        # 1-irregularity closure: a neighbor one level coarser than a refined
        # element must be refined as well; sweep over the element pairs that
        # share a facet (both orders) until nothing changes
        inner = f.neighbor >= 0
        a = np.concatenate((f.owner[inner], f.neighbor[inner]))
        b = np.concatenate((f.neighbor[inner], f.owner[inner]))
        coarser = e.level[b] == e.level[a] - 1
        up, down = a[coarser], b[coarser]
        while True:
            pulled = down[refine[up] & ~refine[down]]
            if not pulled.size:
                break
            refine[pulled] = True
        post_level = e.level + refine

        # complete sibling groups among the coarsening candidates, unless a
        # face neighbor outside the group ends up finer than the group
        coarsen &= ~refine
        grouped = coarsen & (e.parent != 0)
        parents, counts = np.unique(e.parent[grouped], return_counts=True)
        complete = parents[counts == nc]
        in_group = grouped[a] & np.isin(e.parent[a], complete)
        sibling = coarsen[b] & (e.parent[b] == e.parent[a])
        blocked = in_group & ~sibling & (post_level[b] > e.level[a])
        merged = complete[~np.isin(complete, e.parent[a[blocked]])]
        kids = grouped & np.isin(e.parent, merged)

        # restored parents come from the refined-element record
        known, first = np.unique(self._refined.id, return_index=True)
        restored = self._refined.take(first[np.searchsorted(known, merged)])

        # children of the refined elements, by ascending parent id
        rows = np.flatnonzero(refine)
        clo, chi = child_boxes(e.lo[rows], e.hi[rows], self.split)
        parent = np.repeat(ids[rows], nc)
        index = np.tile(np.arange(nc), len(rows))
        children = ElementTable(
            id=child_id(parent, index), level=np.repeat(e.level[rows] + 1, nc),
            slab=np.repeat(e.slab[rows], nc), parent=parent, lo=clo, hi=chi,
        )
        self._refined = ElementTable.concat([self._refined, e.take(rows)])
        self._set_elements(ElementTable.concat(
            [e.take(~(refine | kids)), restored, children]))

    def refine_uniform(self) -> None:
        """Refine every element once."""
        self.refine_and_coarsen(self.etab.id)

    # ------------------------------------------------------------------
    # facet construction
    # ------------------------------------------------------------------

    def _rebuild_facets(self) -> None:
        e = self.etab
        n, d1 = e.lo.shape
        # every element face: axis-major blocks of (lo faces, hi faces)
        ax = np.repeat(np.arange(d1), 2 * n)
        side = np.tile(np.repeat([-1, 1], n), d1)
        row = np.tile(np.arange(n), 2 * d1)
        i = np.arange(len(row))
        coord = np.where(side < 0, e.lo[row, ax], e.hi[row, ax])
        flo, fhi = e.lo[row], e.hi[row]
        flo[i, ax] = coord
        fhi[i, ax] = coord

        bnd = np.zeros(len(row), dtype=np.int64)
        lateral = BOUNDARIES.index("dirichlet" if self.dirichlet_lateral else "neumann")
        x_lo = np.concatenate(([np.nan], self.x_lo))[ax]
        x_hi = np.concatenate(([np.nan], self.x_hi))[ax]
        bnd[(ax >= 1) & ((coord == x_lo) | (coord == x_hi))] = lateral
        bnd[(ax == 0) & (coord == self.slab_times[-1])] = BOUNDARIES.index("final")
        bnd[(ax == 0) & (coord == self.slab_times[0])] = BOUNDARIES.index("initial")

        # conforming pairs: equal boxes (bitwise) next to each other after
        # one sort, lo face (element above) before hi face (element below)
        inner = np.flatnonzero(bnd == 0)
        bits = np.hstack((flo, fhi)).view(np.uint64)
        s = inner[np.lexsort((side[inner], *bits[inner].T, ax[inner]))]
        same = (ax[s][1:] == ax[s][:-1]) & np.all(bits[s][1:] == bits[s][:-1], axis=1)
        if np.any(same[1:] & same[:-1]):
            raise RuntimeError("more than two coincident element faces")
        below, above = s[1:][same], s[:-1][same]
        if np.any(side[below] == side[above]):
            raise RuntimeError("two element faces coincide on the same side")
        unmatched = np.ones(len(s), dtype=bool)
        unmatched[:-1] &= ~same
        unmatched[1:] &= ~same

        # hanging faces: the hi and lo faces of a plane that overlap along
        # its first free axis, matched by containment of closed boxes
        u = s[unmatched]
        u = u[np.lexsort((side[u], coord[u], ax[u]))]
        new_plane = np.ones(len(u), dtype=bool)
        new_plane[1:] = (ax[u][1:] != ax[u][:-1]) | (coord[u][1:] != coord[u][:-1])
        start = np.flatnonzero(new_plane)
        plane = np.cumsum(new_plane) - 1
        plus = side[u] > 0
        n_minus = np.bincount(plane[~plus], minlength=len(start))
        if np.any((n_minus == 0) | (n_minus == np.diff(np.r_[start, len(u)]))):
            raise RuntimeError("unmatched interior faces")
        free_ax = (ax[u] == 0).astype(np.intp)
        pi, mi = _nested_pairs(plane, plus, flo[u, free_ax], fhi[u, free_ax])
        fp, fm = u[pi], u[mi]
        p_in_m = np.all((flo[fp] >= flo[fm]) & (fhi[fp] <= fhi[fm]), axis=1)
        m_in_p = np.all((flo[fm] >= flo[fp]) & (fhi[fm] <= fhi[fp]), axis=1)
        inside = np.bincount(np.r_[pi[p_in_m], mi[m_in_p]], minlength=len(u))
        holds = np.bincount(np.r_[mi[p_in_m], pi[m_in_p]], minlength=len(u))
        if np.any(inside > 1):
            raise RuntimeError("face contained in several opposite faces")
        if np.any((inside == 1) & (holds > 0)):
            raise RuntimeError("ambiguous face matching")
        if np.any((inside == 0) & (holds == 0)):
            raise RuntimeError("uncovered interior face")

        # boundary faces, conforming pairs (owned by the hi face), fine
        # hanging faces (owned by themselves)
        bface = np.flatnonzero(bnd)
        face = np.concatenate((bface, below, fp[p_in_m], fm[m_in_p]))
        neighbor = np.concatenate((np.full(len(bface), -1), row[above], row[fm[p_in_m]],
                                   row[fp[m_in_p]]))
        lo, hi = flo[face], fhi[face]
        owner, axis, fside = row[face], ax[face], side[face]
        key = splitmix64(e.id[owner])
        key = splitmix64(key ^ (2 * axis + (fside > 0) + 3).astype(np.uint64))
        for col in np.hstack((lo, hi)).view(np.uint64).T:
            key = splitmix64(key ^ col)
        fid = key.astype(np.int64)
        o = np.argsort(fid)
        if np.any(fid[o][1:] == fid[o][:-1]):
            raise RuntimeError("facet id collision")
        self.ftab = FacetTable(id=fid[o], axis=axis[o], side=fside[o], owner=owner[o],
                               neighbor=neighbor[o], boundary=bnd[face][o], lo=lo[o], hi=hi[o])

    # ------------------------------------------------------------------
    # validation
    # ------------------------------------------------------------------

    def validate(self) -> None:
        e, f = self.etab, self.ftab
        d1 = self.d + 1
        ext = e.hi - e.lo
        vol = float(np.prod(ext, axis=1).sum())
        dom = float(self.slab_times[-1] - self.slab_times[0]) * float(
            np.prod(self.x_hi - self.x_lo)
        )
        if not np.isclose(vol, dom, rtol=1e-12, atol=0.0):
            raise AssertionError(f"element volumes {vol} != domain volume {dom}")
        if np.any((e.lo[:, 0] < self.slab_times[e.slab])
                  | (e.hi[:, 0] > self.slab_times[e.slab + 1])):
            raise AssertionError("an element leaves its slab")

        # every facet side lies on its element's face, and the facets tile
        # each face of each element exactly once
        inner = f.neighbor >= 0
        fs = np.concatenate((np.arange(len(f)), np.flatnonzero(inner)))
        el = np.concatenate((f.owner, f.neighbor[inner]))
        sign = np.concatenate((f.side, -f.side[inner]))
        if np.any((f.lo[fs] < e.lo[el]) | (f.hi[fs] > e.hi[el])):
            raise AssertionError("a facet lies outside its owner or neighbor")
        # two boxes share at most one facet; a boundary facet is its element's whole face
        if len(np.unique(np.sort(np.c_[f.owner, f.neighbor][inner], axis=1), axis=0)) < inner.sum():
            raise AssertionError("two facets join the same pair of elements")
        if len(np.unique(np.c_[f.owner, f.axis, f.side][~inner], axis=0)) < (~inner).sum():
            raise AssertionError("an element has two boundary facets on one face")
        free = ~np.eye(d1, dtype=bool)
        measure = np.prod(np.where(free[f.axis], f.hi - f.lo, 1.0), axis=1)
        area = np.zeros((len(e), d1, 2))
        np.add.at(area, (el, f.axis[fs], (sign > 0).astype(int)), measure[fs])
        face = np.prod(np.where(free[None], ext[:, None, :], 1.0), axis=2)
        if not np.all(np.isclose(area, face[:, :, None], rtol=1e-12)):
            raise AssertionError("facet areas do not tile the element faces")

        if np.any(np.abs(e.level[f.owner[inner]] - e.level[f.neighbor[inner]]) > 1):
            raise AssertionError("1-irregularity violated")
        if np.any(~inner & (f.boundary == 0)):
            raise AssertionError("interior facet without neighbor")
