"""Assembly of the space-time HDG system.

Unknowns are element fields (tensor-product polynomials, degree p_t = 1 in
time and p_s per spatial axis) plus single-valued facet fields.  With the
HDG jump [[v]] := v - mu (element trace minus facet value) the bilinear form
is the sum of a diffusive part

    a_d(u,v) = (eps grad u, grad v)_T
             + <eps alpha h^-1 [[u]], [[v]]>_Q
             - <eps [[u]], grad_n v>_Q - <eps grad_n u, [[v]]>_Q

with grad the spatial gradient, alpha = 8 p_s^2 the interior-penalty weight
(h taken from the facet's owning, i.e. fine, side), and an advective part

    a_c(u,v) = -(beta u, grad_st v)_T
             + <zeta+ (beta.n) lambda, mu>_bdyN
             + <(beta.n) lambda + beta_s [[u]], [[v]]>_dT

where beta_s := sup_F |beta.n| per facet and zeta+ is the pointwise outflow
indicator.  The right-hand side is (f, v)_T + <g, mu>_bdyN.  Dirichlet facet
unknowns are constrained to the facet-wise L2 projection of the boundary
data; `apply_dirichlet` replaces their rows by the identity.

Dof ordering: all element dofs first (elements sorted by id), then facet
dofs (facets sorted by id).  Entities are addressed by position in these
two orders, `DofMap.elem_ids` and `DofMap.facet_ids`; per-entity results
(beta_s, estimator terms, cell data) are arrays in the same order.

Everything is batched over groups of entities that share the same reference
data, so the per-entity work is pure numpy.  The `DofMap` reads the mesh's
element and facet tables (`SpaceTimeMesh.etab`, `.ftab`) directly, builds
both group tables once, and assembly, the estimator and the error norms all
read them:

* `elem_classes`: elements of equal extent (hence equal reference-to-physical
  scaling), in order of first occurrence in element-id order.
* `facet_sides`: one row per (facet, adjacent element) side, with the
  element and facet positions and first dofs, the facet Jacobian jacF, the
  element half-width s_ax along the facet normal and the owner's h, plus the
  facet midpoints and half-widths from which quadrature points are built
  per chunk.  Sides are grouped by their trace-map key (axis, sign, fixed,
  alphas, betas, boundary, facet degrees): the element reference coordinate
  along the facet's frozen axis is `fixed` (+-1), and along its i-th free
  axis it is alphas[i] + betas[i] * xhat_facet[i].

The order is fixed: sides are walked in facet-id order, owner side before
neighbor side; groups come in order of first occurrence in that walk, sides
inside a group keep it, and groups are cut into chunks of `_CHUNK` sides.
Every einsum, `np.add.at` and COO concatenation therefore sees the same
arrays whatever consumer reads the table, so the assembled system and the
estimator are reproducible bit for bit; a last-bit change to eta_K could
reorder elements of equal eta_K in marking and change the adapted mesh.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import math

import numpy as np
import scipy.sparse as sp

from . import fe
from .mesh import BOUNDARIES, SpaceTimeMesh
from .problem import ProblemSpec

P_T = 1  # temporal degree is fixed by the method

_CHUNK = 4096


def penalty_alpha(p_s: int) -> float:
    return 8.0 * p_s * p_s


# ----------------------------------------------------------------------
# dof map
# ----------------------------------------------------------------------


def _facet_degrees(p_s: int, d: int, axis: int) -> tuple[int, ...]:
    """Degrees of the facet basis on a facet frozen along `axis`: free axes
    ascending, so time (degree P_T) comes first on a lateral facet."""
    return tuple(P_T if a == 0 else p_s for a in range(d + 1) if a != axis)


@dataclass
class DofMap:
    mesh: SpaceTimeMesh
    p_s: int
    elem_rows: np.ndarray  # element-table row of each element, ids ascending
    elem_ids: np.ndarray
    facet_ids: np.ndarray  # facet-table order, ids ascending
    facet_dof: np.ndarray  # first dof of each facet
    n_elem_dofs: int
    n_dofs: int

    @property
    def d(self) -> int:
        return self.mesh.d

    @property
    def elem_degrees(self) -> tuple[int, ...]:
        return (P_T,) + (self.p_s,) * self.d

    def facet_degrees(self, axis: int) -> tuple[int, ...]:
        return _facet_degrees(self.p_s, self.d, axis)

    @property
    def n_elem_basis(self) -> int:
        return (P_T + 1) * (self.p_s + 1) ** self.d

    @cached_property
    def elem_pos(self) -> np.ndarray:
        """Position in elem_ids of every element-table row."""
        pos = np.empty(len(self.elem_rows), dtype=np.intp)
        pos[self.elem_rows] = np.arange(len(self.elem_rows))
        return pos

    @cached_property
    def elem_box(self) -> tuple[np.ndarray, np.ndarray]:
        """(lo, hi) of every element, rows in elem_ids order."""
        return self.mesh.etab.lo[self.elem_rows], self.mesh.etab.hi[self.elem_rows]

    @cached_property
    def elem_h(self) -> np.ndarray:
        """Largest spatial extent h of every element."""
        lo, hi = self.elem_box
        return np.max(hi[:, 1:] - lo[:, 1:], axis=1)

    @cached_property
    def elem_classes(self) -> list[ElemClass]:
        lo, hi = self.elem_box
        ext = hi - lo
        return [ElemClass(half=0.5 * ext[rows[0]], elem=rows, mid=0.5 * (lo[rows] + hi[rows]))
                for rows in _groups_of_equal_rows(ext)]

    @cached_property
    def facet_sides(self) -> FacetSides:
        return _build_facet_sides(self)


def first_occurrence_labels(keys: np.ndarray) -> np.ndarray:
    """Label of every row of `keys`: equal rows share a label, and labels
    count the distinct rows in order of first occurrence."""
    _, first, inv = np.unique(keys, axis=0, return_index=True, return_inverse=True)
    rank = np.empty(len(first), dtype=np.intp)
    rank[np.argsort(first)] = np.arange(len(first))
    return rank[inv.reshape(-1)]


def _groups_of_equal_rows(keys: np.ndarray) -> list[np.ndarray]:
    """Row indices grouped by equal rows of `keys`: groups in order of first
    occurrence, indices ascending inside each group."""
    r = first_occurrence_labels(keys)
    order = np.argsort(r, kind="stable")
    return np.split(order, np.cumsum(np.bincount(r))[:-1])


def _chunks(n: int):
    for start in range(0, n, _CHUNK):
        yield slice(start, start + _CHUNK)


@dataclass
class ElemClass:
    """Elements of one extent: positions in elem_ids order and midpoints."""

    half: np.ndarray  # (d+1,) half-widths shared by the class
    elem: np.ndarray  # positions in elem_ids
    mid: np.ndarray  # (m, d+1)

    def chunks(self):
        return _chunks(len(self.elem))

    def points(self, sl: slice, ref: np.ndarray) -> np.ndarray:
        """Physical points (m, nq, d+1) of reference points `ref` (nq, d+1)."""
        return self.mid[sl, None, :] + self.half[None, None, :] * ref[None, :, :]


@dataclass
class SideGroup:
    """The facet sides sharing one trace-map key, in facet-side walk order."""

    axis: int
    sign: int  # outward normal sign of the element along axis
    fixed: float
    alphas: tuple[float, ...]
    betas: tuple[float, ...]
    boundary: str | None
    fdeg: tuple[int, ...]
    facet: np.ndarray  # positions in facet_ids
    elem: np.ndarray  # positions in elem_ids
    edof: np.ndarray  # first element dof
    fdof: np.ndarray  # first facet dof
    jacF: np.ndarray  # facet reference-to-physical Jacobian
    s_ax: np.ndarray  # element half-width along axis
    h_owner: np.ndarray  # h of the facet's owner element

    def chunks(self):
        return _chunks(len(self.facet))


@dataclass
class FacetSides:
    """Per-facet arrays (rows in facet_ids order) and the side groups."""

    axis: np.ndarray
    boundary: np.ndarray  # index into mesh.BOUNDARIES
    mid: np.ndarray  # (nf, d+1)
    half: np.ndarray  # (nf, d+1), zero along the frozen axis
    dof: np.ndarray  # first facet dof
    groups: list[SideGroup]

    def points(self, facets: np.ndarray, ref: np.ndarray) -> np.ndarray:
        """Physical points (m, nq, d+1) of facet-reference points `ref`
        (nq, d) on the given facets; free axes ascending.
        The half-width along the frozen axis is zero, so that coordinate is
        the facet plane."""
        d1 = ref.shape[1] + 1
        ref_full = np.zeros((d1, ref.shape[0], d1))
        for a in range(d1):
            ref_full[a][:, [b for b in range(d1) if b != a]] = ref
        return (self.mid[facets][:, None, :]
                + self.half[facets][:, None, :] * ref_full[self.axis[facets]])


def _build_facet_sides(dm: DofMap) -> FacetSides:
    mesh = dm.mesh
    d = mesh.d
    d1 = d + 1
    ft = mesh.ftab
    axis = ft.axis.astype(np.intp)
    flo, fhi = ft.lo, ft.hi
    owner = dm.elem_pos[ft.owner]
    neighbor = np.where(ft.neighbor >= 0, dm.elem_pos[ft.neighbor], -1)
    owner_side = ft.side
    bcode = ft.boundary
    fdof = dm.facet_dof
    fmid = 0.5 * (flo + fhi)
    fhalf = 0.5 * (fhi - flo)
    free = np.array([[b for b in range(d1) if b != a] for a in range(d1)], dtype=np.intp)
    jacF = 0.5 ** d * np.prod(np.take_along_axis(fhi - flo, free[axis], 1), axis=1)

    # the walk: facet-id order, owner side then neighbor side
    sf = np.repeat(np.arange(len(ft)), 1 + (neighbor >= 0))
    is_nb = np.zeros(len(sf), dtype=bool)
    is_nb[1:] = sf[1:] == sf[:-1]
    se = np.where(is_nb, neighbor[sf], owner[sf])
    sign = np.where(is_nb, -owner_side[sf], owner_side[sf])

    # trace map of every side: (facet midpoint - element midpoint) and the
    # facet half-width over the element half-width on the free axes; along
    # the frozen axis the facet midpoint is the plane coordinate, so that
    # column of `rel` gives the sign `fixed`
    elo, ehi = dm.elem_box
    half_el = (0.5 * (ehi - elo))[se]
    rel = (fmid[sf] - (0.5 * (ehi + elo))[se]) / half_el
    sa = axis[sf]
    ix = np.arange(len(sf))
    alphas = np.take_along_axis(rel, free[sa], 1)
    betas = np.take_along_axis(fhalf[sf] / half_el, free[sa], 1)
    fixed = np.sign(rel[ix, sa])
    keys = np.column_stack([sa, sign, fixed, alphas, betas, bcode[sf]])
    s_ax = half_el[ix, sa]
    nb = dm.n_elem_basis

    groups = []
    for rows in _groups_of_equal_rows(keys):
        k = rows[0]
        a = int(sa[k])
        fp = sf[rows]
        groups.append(SideGroup(
            axis=a, sign=int(sign[k]), fixed=float(fixed[k]),
            alphas=tuple(alphas[k].tolist()), betas=tuple(betas[k].tolist()),
            boundary=BOUNDARIES[bcode[sf[k]]],
            fdeg=dm.facet_degrees(a),
            facet=fp, elem=se[rows], edof=se[rows] * nb, fdof=fdof[fp],
            jacF=jacF[fp], s_ax=s_ax[rows], h_owner=dm.elem_h[owner[fp]],
        ))
    return FacetSides(axis=axis, boundary=bcode, mid=fmid, half=fhalf, dof=fdof,
                      groups=groups)


def build_dofmap(mesh: SpaceTimeMesh, p_s: int) -> DofMap:
    if p_s < 1:
        raise ValueError(f"spatial degree must be >= 1, got {p_s}")
    rows = np.argsort(mesh.etab.id)
    d = mesh.d
    n_elem = (P_T + 1) * (p_s + 1) ** d * len(rows)
    per_axis = [math.prod(k + 1 for k in _facet_degrees(p_s, d, a)) for a in range(d + 1)]
    n_basis = np.array(per_axis)[mesh.ftab.axis]
    ends = n_elem + np.cumsum(n_basis)
    return DofMap(
        mesh=mesh, p_s=p_s, elem_rows=rows, elem_ids=mesh.etab.id[rows],
        facet_ids=mesh.ftab.id, facet_dof=ends - n_basis,
        n_elem_dofs=n_elem, n_dofs=int(ends[-1]) if len(ends) else n_elem,
    )


# ----------------------------------------------------------------------
# reference data caches
# ----------------------------------------------------------------------

_trace_cache: dict[tuple, fe.BasisValues] = {}


def elem_trace_basis(
    degrees: tuple[int, ...], axis: int, fixed: float,
    alphas: tuple[float, ...], betas: tuple[float, ...], nq: int,
) -> fe.BasisValues:
    """The element basis evaluated at facet quadrature points (reference level)."""
    key = (degrees, axis, fixed, alphas, betas, nq)
    hit = _trace_cache.get(key)
    if hit is not None:
        return hit
    k = len(degrees)
    rule = fe.tensor_rule((nq,) * (k - 1)) if k > 1 else fe.tensor_rule(())
    pts = np.empty((rule.points.shape[0] if k > 1 else 1, k))
    free = [a for a in range(k) if a != axis]
    pts[:, axis] = fixed
    for i, a in enumerate(free):
        pts[:, a] = alphas[i] + betas[i] * rule.points[:, i]
    out = fe.get_basis(degrees).eval(pts)
    _trace_cache[key] = out
    return out


_facet_basis_cache: dict[tuple, fe.BasisValues] = {}


def facet_basis_at_rule(degrees: tuple[int, ...], nq: int) -> fe.BasisValues:
    key = (degrees, nq)
    hit = _facet_basis_cache.get(key)
    if hit is None:
        rule = fe.tensor_rule((nq,) * len(degrees))
        hit = fe.get_basis(degrees).eval(rule.points)
        _facet_basis_cache[key] = hit
    return hit


def facet_rule(n_free_axes: int, nq: int) -> fe.TensorRule:
    return fe.tensor_rule((nq,) * n_free_axes)


# ----------------------------------------------------------------------
# facet beta_s (sup |beta.n|, one value per facet shared by both sides)
# ----------------------------------------------------------------------


def compute_beta_sup(spec: ProblemSpec, dm: DofMap, nq: int) -> np.ndarray:
    """sup |beta.n| of every facet, in facet_ids order, sampled at the facet
    quadrature points and corners."""
    d = dm.d
    fs = dm.facet_sides
    out = np.ones(len(dm.facet_ids))  # beta.n = +-1 exactly on horizontal facets
    grid = np.array(np.meshgrid(*([[-1.0, 1.0]] * d), indexing="ij"))
    ref = np.vstack([facet_rule(d, nq).points, grid.reshape(d, -1).T])
    for axis in range(1, d + 1):
        facets = np.flatnonzero(fs.axis == axis)
        if facets.size:
            pts = fs.points(facets, ref).reshape(-1, d + 1)
            bvals = spec.beta(pts)[:, axis].reshape(len(facets), -1)
            out[facets] = np.max(np.abs(bvals), axis=1)
    return out


# ----------------------------------------------------------------------
# assembled system
# ----------------------------------------------------------------------


@dataclass
class AssembledSystem:
    A: sp.csr_matrix  # raw bilinear form, no boundary-row replacement
    b: np.ndarray
    dofmap: DofMap
    dirichlet_idx: np.ndarray  # constrained dof indices
    dirichlet_values: np.ndarray
    beta_sup: np.ndarray  # per facet, facet_ids order
    spec: ProblemSpec
    quad_n: int

    @property
    def n_dofs(self) -> int:
        return self.dofmap.n_dofs

    def free_mask(self) -> np.ndarray:
        mask = np.ones(self.n_dofs, dtype=bool)
        mask[self.dirichlet_idx] = False
        return mask


def apply_dirichlet(sys: AssembledSystem) -> tuple[sp.csr_matrix, np.ndarray]:
    """Replace constrained rows by identity with projected boundary values."""
    n = sys.n_dofs
    free = sys.free_mask().astype(float)
    D_free = sp.diags(free)
    dir_ind = np.zeros(n)
    dir_ind[sys.dirichlet_idx] = 1.0
    A_bc = (D_free @ sys.A + sp.diags(dir_ind)).tocsr()
    b_bc = free * sys.b
    b_bc[sys.dirichlet_idx] = sys.dirichlet_values
    return A_bc, b_bc


def default_quad_n(p_s: int) -> int:
    return max(P_T, p_s) + 2


def assemble(
    spec: ProblemSpec, mesh: SpaceTimeMesh, p_s: int, quad_n: int | None = None,
    beta_sup: np.ndarray | None = None,
) -> AssembledSystem:
    """Assemble the raw system.

    beta_sup, when given, is the per-facet upwind constant in facet_ids
    order and replaces `compute_beta_sup`.  The subgrid construction uses it
    to inherit beta_s from the parent facet so the refined form agrees
    exactly with the coarse one on restricted fields.
    """
    if spec.d != mesh.d:
        raise ValueError("problem and mesh dimensions differ")
    if (mesh.dirichlet_lateral != spec.dirichlet_lateral):
        raise ValueError("mesh and problem disagree on lateral boundary type")
    dm = build_dofmap(mesh, p_s)
    nq = default_quad_n(p_s) if quad_n is None else quad_n
    d = mesh.d
    d1 = d + 1
    eps = spec.eps
    alpha = penalty_alpha(p_s)
    if beta_sup is None:
        beta_sup = compute_beta_sup(spec, dm, nq + 2)
    elif beta_sup.shape != (len(dm.facet_ids),):
        raise ValueError("beta_sup needs one value per facet")
    fs = dm.facet_sides

    rows: list[np.ndarray] = []
    cols: list[np.ndarray] = []
    vals: list[np.ndarray] = []
    b = np.zeros(dm.n_dofs)

    def scatter(r2d: np.ndarray, c2d: np.ndarray, block: np.ndarray):
        m, nr, nc = block.shape
        rows.append(np.repeat(r2d[:, :, None], nc, axis=2).reshape(-1))
        cols.append(np.repeat(c2d[:, None, :], nr, axis=1).reshape(-1))
        vals.append(block.reshape(-1))

    # ---------------- volume terms ---------------------------------
    vol_rule = fe.tensor_rule((nq,) * d1)
    wq = vol_rule.weights
    basis = fe.get_basis(dm.elem_degrees)
    BV = basis.eval(vol_rule.points)
    V, G = BV.values, BV.grad  # (nqv, nb), (nqv, nb, d1)
    nb = dm.n_elem_basis

    for cls in dm.elem_classes:
        half = cls.half
        jac = float(np.prod(half))
        # diffusion: eps sum_a (1/s_a^2) int dGa_j dGa_i   (spatial axes)
        Ad = np.zeros((nb, nb))
        for a in range(1, d1):
            Ga = G[:, :, a]
            Ad += (eps / half[a] ** 2) * np.einsum("q,qi,qj->ij", wq, Ga, Ga)
        for sl in cls.chunks():
            pts = cls.points(sl, vol_rule.points)
            m = pts.shape[0]
            flat = pts.reshape(-1, d1)
            fv = spec.f(flat).reshape(m, -1)
            bbar = spec.beta_bar(flat).reshape(m, -1, d)

            # advection: -(beta u, grad_st v): -int phi_j (beta . grad phi_i)
            Bdot = np.broadcast_to((G[:, :, 0] / half[0])[None], (m, len(wq), nb)).copy()
            for a in range(1, d1):
                Bdot += bbar[:, :, a - 1, None] * (G[None, :, :, a] / half[a])
            Aa = -np.einsum("q,qj,mqi->mij", wq, V, Bdot)
            block = jac * (Ad[None, :, :] + Aa)
            dof2d = (cls.elem[sl] * nb)[:, None] + np.arange(nb)[None, :]
            scatter(dof2d, dof2d, block)
            np.add.at(b, dof2d.reshape(-1), (jac * np.einsum("q,mq,qi->mi", wq, fv, V)).reshape(-1))

    # ---------------- facet terms -----------------------------------
    frule = facet_rule(d, nq)
    wfq = frule.weights
    nqf = len(wfq)

    for g in fs.groups:
        axis, sign = g.axis, g.sign
        EB = elem_trace_basis(dm.elem_degrees, axis, g.fixed, g.alphas, g.betas, nq)
        FB = facet_basis_at_rule(g.fdeg, nq)
        E = EB.values  # (nqf, nb)
        Fb = FB.values  # (nqf, nbf)
        nbf = Fb.shape[1]
        is_Q = axis >= 1
        neumann_bdy = g.boundary in ("initial", "final", "neumann")

        for sl in g.chunks():
            facets = g.facet[sl]
            m = len(facets)
            flat = fs.points(facets, frule.points).reshape(-1, d1)
            bn = sign * spec.beta(flat)[:, axis].reshape(m, nqf)
            bs = beta_sup[facets]
            we = wfq[None, :] * g.jacF[sl][:, None]

            edofs = g.edof[sl][:, None] + np.arange(nb)[None, :]
            fdofs = g.fdof[sl][:, None] + np.arange(nbf)[None, :]

            # advective flux: ((bn) lambda + bs (u - lambda), v - mu)
            w_bs = we * bs[:, None]
            w_mix = we * (bn - bs[:, None])
            scatter(edofs, edofs, np.einsum("mq,qi,qj->mij", w_bs, E, E))
            scatter(edofs, fdofs, np.einsum("mq,qi,qj->mij", w_mix, E, Fb))
            scatter(fdofs, edofs, -np.einsum("mq,qi,qj->mij", w_bs, Fb, E))
            scatter(fdofs, fdofs, -np.einsum("mq,qi,qj->mij", w_mix, Fb, Fb))

            if is_Q:
                wp = we * (eps * alpha / g.h_owner[sl])[:, None]
                scatter(edofs, edofs, np.einsum("mq,qi,qj->mij", wp, E, E))
                scatter(edofs, fdofs, -np.einsum("mq,qi,qj->mij", wp, E, Fb))
                scatter(fdofs, edofs, -np.einsum("mq,qi,qj->mij", wp, Fb, E))
                scatter(fdofs, fdofs, np.einsum("mq,qi,qj->mij", wp, Fb, Fb))

                Gn = EB.grad[:, :, axis]  # (nqf, nb), d/d(ref axis)
                wg = we * (sign * eps / g.s_ax[sl])[:, None]
                # -<eps [[u]], grad_n v>
                scatter(edofs, edofs, -np.einsum("mq,qi,qj->mij", wg, Gn, E))
                scatter(edofs, fdofs, np.einsum("mq,qi,qj->mij", wg, Gn, Fb))
                # -<eps grad_n u, [[v]]>
                scatter(edofs, edofs, -np.einsum("mq,qj,qi->mij", wg, Gn, E))
                scatter(fdofs, edofs, np.einsum("mq,qj,qi->mij", wg, Gn, Fb))

            if neumann_bdy:
                zp = (bn >= 0).astype(float)
                scatter(fdofs, fdofs, np.einsum("mq,qi,qj->mij", we * zp * bn, Fb, Fb))
                normal = np.zeros(d1)
                normal[axis] = sign
                g_n = spec.neumann_data(flat, normal).reshape(m, nqf)
                np.add.at(b, fdofs.reshape(-1), np.einsum("mq,qi->mi", we * g_n, Fb).reshape(-1))

    A = sp.coo_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(dm.n_dofs, dm.n_dofs),
    ).tocsr()

    # ---------------- Dirichlet values ------------------------------
    # Dirichlet facets are lateral, so they share one facet basis
    dir_facets = np.flatnonzero(fs.boundary == BOUNDARIES.index("dirichlet"))
    if dir_facets.size:
        FB = facet_basis_at_rule(dm.facet_degrees(1), nq)
        rule = facet_rule(d, nq)
        Gram = FB.values.T @ (FB.values * rule.weights[:, None])
        pts = fs.points(dir_facets, rule.points).reshape(-1, d1)
        gv = spec.dirichlet_data(pts).reshape(len(dir_facets), -1)
        rhs = np.einsum("q,qi,mq->mi", rule.weights, FB.values, gv)
        coeffs = np.linalg.solve(Gram, rhs.T).T
        dirichlet_idx = (fs.dof[dir_facets][:, None] + np.arange(FB.values.shape[1])).reshape(-1)
        dirichlet_values = coeffs.reshape(-1)
    else:
        dirichlet_idx = np.empty(0, dtype=int)
        dirichlet_values = np.empty(0)

    return AssembledSystem(
        A=A, b=b, dofmap=dm, dirichlet_idx=dirichlet_idx,
        dirichlet_values=dirichlet_values, beta_sup=beta_sup, spec=spec, quad_n=nq,
    )

