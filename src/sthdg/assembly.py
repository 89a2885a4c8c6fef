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
indicator.  The right-hand side is (f, v)_T + <g, mu>_bdyN, where g is the
initial data on the initial plane and 0 on the final one.  Dirichlet facet
unknowns are constrained to the facet-wise L2 projection of the boundary
data; `apply_dirichlet` replaces their rows by the identity, in the whole
system or in a given set of rows only (the solver asks for one causal
level's rows at a time).

Dof ordering: all element dofs first, then facet dofs, each in the row
order of its mesh table (ids ascending).  Entities are addressed by their
row of `mesh.etab` or `mesh.ftab`; per-entity results (beta_s, estimator
terms, cell data) are arrays in the same row order.

Work is batched over groups of entities that share reference data.  The
`DofMap` reads the mesh tables (`SpaceTimeMesh.etab`, `.ftab`) and builds
two group tables once, which assembly, the estimator and the norms read:

* `elem_classes`: elements of equal extent, in order of first occurrence.
* `facet_sides`: one row per (facet, adjacent element) side, with the
  positions, first dofs, facet Jacobian jacF, element half-width s_ax along
  the normal and owner h.  Sides are grouped by their trace-map key (axis,
  sign, fixed, alphas, betas, boundary, facet degrees): the element
  reference coordinate is `fixed` (+-1) along the facet's frozen axis and
  alphas[i] + betas[i] * xhat_facet[i] along its i-th free axis.  An
  element and a facet each occur at most once in a group.
  `FacetSides.beta_n` evaluates beta along each facet's frozen axis once
  per facet; a side's beta.n is its sign times that.

Sides are walked in facet-id order, owner before neighbor; groups come in
order of first occurrence, keep the walk order inside and are cut into
chunks of `_CHUNK` sides.  Every consumer sums the same arrays in the same
order, so the system and the estimator are reproducible bit for bit (a
last-bit change to eta_K could reorder near-ties in marking).

`assemble` sums each block once, in place: the volume terms and every
side's element-element block into one (n_elem, nb, nb) array (A_EE is
block diagonal), a chunk's four flux terms into one element-facet and one
facet-element block per side, facet-facet blocks per facet.  `_BlockCSR`
writes each nonzero once into CSR arrays laid out from the block pattern:
rows sorted, structural zeros kept, 32-bit indices while they fit.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.sparse as sp

from . import fe
from .mesh import BOUNDARIES, SpaceTimeMesh
from .problem import ProblemSpec

P_T = 1  # temporal degree is fixed by the method

_CHUNK = 4096


def penalty_alpha(p_s: int) -> float:
    return 8.0 * p_s * p_s


# ---- dof map ---------------------------------------------------------


def _facet_degrees(p_s: int, d: int, axis: int) -> tuple[int, ...]:
    """Degrees of the facet basis on a facet frozen along `axis`: free axes
    ascending, so time (degree P_T) comes first on a lateral facet."""
    return tuple(P_T if a == 0 else p_s for a in range(d + 1) if a != axis)


@dataclass
class DofMap:
    mesh: SpaceTimeMesh
    p_s: int
    facet_dof: np.ndarray  # first dof of each facet
    n_elem_dofs: int
    n_dofs: int

    @property
    def elem_degrees(self) -> tuple[int, ...]:
        return (P_T,) + (self.p_s,) * self.mesh.d

    def facet_degrees(self, axis: int) -> tuple[int, ...]:
        return _facet_degrees(self.p_s, self.mesh.d, axis)

    @property
    def n_elem_basis(self) -> int:
        return (P_T + 1) * (self.p_s + 1) ** self.mesh.d

    @cached_property
    def elem_h(self) -> np.ndarray:
        """Largest spatial extent h of every element."""
        lo, hi = self.mesh.etab.lo, self.mesh.etab.hi
        return np.max(hi[:, 1:] - lo[:, 1:], axis=1)

    @cached_property
    def elem_classes(self) -> list[ElemClass]:
        lo, hi = self.mesh.etab.lo, self.mesh.etab.hi
        ext = hi - lo
        return [ElemClass(half=0.5 * ext[rows[0]], elem=rows, mid=0.5 * (lo[rows] + hi[rows]))
                for rows in _groups_of_equal_rows(ext)]

    @cached_property
    def facet_sides(self) -> FacetSides:
        return _build_facet_sides(self)


def first_occurrence_labels(keys: np.ndarray) -> np.ndarray:
    """Label of every row of `keys`: equal rows share a label, and labels
    count the distinct rows in order of first occurrence.  Rows are equal
    as `==` says, so 0.0 and -0.0 group together and a row with a NaN is
    its own group."""
    order = np.lexsort(keys.T[::-1])  # stable: a group's first row comes first
    srt = keys[order]
    new = np.ones(len(keys), dtype=bool)
    new[1:] = np.any(srt[1:] != srt[:-1], axis=1)
    first = order[new]
    rank = np.empty(len(first), dtype=np.intp)
    rank[np.argsort(first)] = np.arange(len(first))
    labels = np.empty(len(keys), dtype=np.intp)
    labels[order] = rank[np.cumsum(new) - 1]
    return labels


def _groups_of_equal_rows(keys: np.ndarray) -> list[np.ndarray]:
    """Row indices grouped by equal rows of `keys`: groups in order of first
    occurrence, indices ascending inside each group."""
    r = first_occurrence_labels(keys)
    order = np.argsort(r, kind="stable")
    return np.split(order, np.cumsum(np.bincount(r))[:-1])


def _chunks(n: int, size: int = _CHUNK):
    for start in range(0, n, size):
        yield slice(start, start + size)


@dataclass
class ElemClass:
    """Elements of one extent: element-table rows and midpoints."""

    half: np.ndarray  # (d+1,) half-widths shared by the class
    elem: np.ndarray  # rows of mesh.etab
    mid: np.ndarray  # (m, d+1)

    def chunks(self, size: int = _CHUNK):
        return _chunks(len(self.elem), size)

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
    facet: np.ndarray  # rows of mesh.ftab
    elem: np.ndarray  # rows of mesh.etab
    fdof: np.ndarray  # first facet dof
    jacF: np.ndarray  # facet reference-to-physical Jacobian
    s_ax: np.ndarray  # element half-width along axis
    h_owner: np.ndarray  # h of the facet's owner element

    def chunks(self):
        return _chunks(len(self.facet))


@dataclass
class FacetSides:
    """Per-facet arrays (rows in facet-table order) and the side groups."""

    axis: np.ndarray
    mid: np.ndarray  # (nf, d+1)
    half: np.ndarray  # (nf, d+1), zero along the frozen axis
    groups: list[SideGroup]

    def points(self, facets: np.ndarray, ref: np.ndarray) -> np.ndarray:
        """Physical points (m, nq, d+1) of facet-reference points `ref`
        (nq, d) on the given facets; free axes ascending.
        The half-width along the frozen axis is zero, so that coordinate is
        the facet plane."""
        d1 = ref.shape[1] + 1
        ref_full = np.zeros((d1, len(ref), d1))  # [a]: ref with a zero column at a
        for a in range(d1):
            ref_full[a][:, np.arange(d1) != a] = ref
        pts = ref_full[self.axis[facets]]
        pts *= self.half[facets][:, None, :]
        pts += self.mid[facets][:, None, :]
        return pts

    def beta_n(self, spec: ProblemSpec, ref: np.ndarray) -> np.ndarray:
        """beta along the frozen axis of every facet at the facet-reference
        points `ref` (nq, d), as an (nf, nq) array: beta = (1, beta_bar),
        so it is exactly 1 on time facets.  The outward normal of a side is
        its sign times this axis."""
        d1 = ref.shape[1] + 1
        out = np.ones((len(self.axis), len(ref)))
        for axis in range(1, d1):
            facets = np.flatnonzero(self.axis == axis)
            for sl in _chunks(len(facets)):
                f = facets[sl]
                pts = self.points(f, ref).reshape(-1, d1)
                out[f] = spec.beta_bar(pts)[:, axis - 1].reshape(len(f), -1)
        return out


def _build_facet_sides(dm: DofMap) -> FacetSides:
    mesh = dm.mesh
    d = mesh.d
    d1 = d + 1
    ft = mesh.ftab
    axis = ft.axis.astype(np.intp)
    flo, fhi = ft.lo, ft.hi
    bcode = ft.boundary
    fmid = 0.5 * (flo + fhi)
    fhalf = 0.5 * (fhi - flo)
    free = np.array([[b for b in range(d1) if b != a] for a in range(d1)], dtype=np.intp)
    jacF = 0.5 ** d * np.prod(np.take_along_axis(fhi - flo, free[axis], 1), axis=1)

    # the walk: facet-id order, owner side then neighbor side
    sf = np.repeat(np.arange(len(ft)), 1 + (ft.neighbor >= 0))
    is_nb = np.zeros(len(sf), dtype=bool)
    is_nb[1:] = sf[1:] == sf[:-1]
    se = np.where(is_nb, ft.neighbor[sf], ft.owner[sf])
    sign = np.where(is_nb, -ft.side[sf], ft.side[sf])

    # trace map of every side: (facet midpoint - element midpoint) and the
    # facet half-width over the element half-width on the free axes; along
    # the frozen axis the facet midpoint is the plane coordinate, so that
    # column of `rel` gives the sign `fixed`
    elo, ehi = mesh.etab.lo, mesh.etab.hi
    half_el = (0.5 * (ehi - elo))[se]
    rel = (fmid[sf] - (0.5 * (ehi + elo))[se]) / half_el
    sa = axis[sf]
    ix = np.arange(len(sf))
    alphas = np.take_along_axis(rel, free[sa], 1)
    betas = np.take_along_axis(fhalf[sf] / half_el, free[sa], 1)
    fixed = np.sign(rel[ix, sa])
    keys = np.column_stack([sa, sign, fixed, alphas, betas, bcode[sf]])
    s_ax = half_el[ix, sa]

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
            facet=fp, elem=se[rows], fdof=dm.facet_dof[fp],
            jacF=jacF[fp], s_ax=s_ax[rows], h_owner=dm.elem_h[ft.owner[fp]],
        ))
    return FacetSides(axis=axis, mid=fmid, half=fhalf, groups=groups)


def build_dofmap(mesh: SpaceTimeMesh, p_s: int) -> DofMap:
    if p_s < 1:
        raise ValueError(f"spatial degree must be >= 1, got {p_s}")
    d = mesh.d
    n_elem = (P_T + 1) * (p_s + 1) ** d * len(mesh.etab)
    per_axis = [math.prod(k + 1 for k in _facet_degrees(p_s, d, a)) for a in range(d + 1)]
    n_basis = np.array(per_axis)[mesh.ftab.axis]
    ends = n_elem + np.cumsum(n_basis)
    return DofMap(
        mesh=mesh, p_s=p_s, facet_dof=ends - n_basis,
        n_elem_dofs=n_elem, n_dofs=int(ends[-1]) if len(ends) else n_elem,
    )


# ---- reference data caches -------------------------------------------

@functools.cache
def elem_trace_basis(degrees: tuple[int, ...], axis: int, fixed: float, alphas: tuple[float, ...],
                     betas: tuple[float, ...], nq: int) -> fe.BasisValues:
    """The element basis evaluated at facet quadrature points (reference level)."""
    ref = facet_rule(len(degrees) - 1, nq).points
    pts = np.insert(np.asarray(alphas) + np.asarray(betas) * ref, axis, fixed, axis=1)
    return fe.get_basis(degrees).eval(pts)


@functools.cache
def facet_basis_at_rule(degrees: tuple[int, ...], nq: int) -> fe.BasisValues:
    return fe.get_basis(degrees).eval(facet_rule(len(degrees), nq).points)


def facet_rule(n_free_axes: int, nq: int) -> fe.TensorRule:
    return fe.tensor_rule((nq,) * n_free_axes)


# ---- facet beta_s: sup |beta.n|, one value per facet shared by both sides


def compute_beta_sup(spec: ProblemSpec, dm: DofMap, nq: int) -> np.ndarray:
    """sup |beta.n| of every facet, in facet-table order, sampled at the facet
    quadrature points and corners."""
    d = dm.mesh.d
    grid = np.array(np.meshgrid(*([[-1.0, 1.0]] * d), indexing="ij"))
    ref = np.vstack([facet_rule(d, nq).points, grid.reshape(d, -1).T])
    return np.max(np.abs(dm.facet_sides.beta_n(spec, ref)), axis=1)


# ---- assembled system ------------------------------------------------


@dataclass
class AssembledSystem:
    A: sp.csr_matrix  # raw bilinear form, no boundary-row replacement
    b: np.ndarray
    dofmap: DofMap
    dirichlet_idx: np.ndarray  # constrained dof indices
    dirichlet_values: np.ndarray
    beta_sup: np.ndarray  # per facet, in mesh.ftab row order
    spec: ProblemSpec
    quad_n: int

    @property
    def n_dofs(self) -> int:
        return self.dofmap.n_dofs

    def free_mask(self) -> np.ndarray:
        """True on free rows; read-only, built once per system."""
        return self._free_mask

    def dirichlet_rhs(self) -> np.ndarray:
        """Right-hand side of the Dirichlet system: b on free rows, the
        projected boundary values on constrained rows; read-only, built once
        per system."""
        return self._dirichlet_rhs

    @cached_property
    def _free_mask(self) -> np.ndarray:
        mask = np.ones(self.n_dofs, dtype=bool)
        mask[self.dirichlet_idx] = False
        mask.flags.writeable = False
        return mask

    @cached_property
    def _dirichlet_rhs(self) -> np.ndarray:
        b_bc = self.free_mask() * self.b
        b_bc[self.dirichlet_idx] = self.dirichlet_values
        b_bc.flags.writeable = False
        return b_bc


def apply_dirichlet(sys: AssembledSystem, rows: np.ndarray | None = None,
                    ) -> tuple[sp.csr_matrix, np.ndarray]:
    """Replace constrained rows by identity with projected boundary values;
    explicit zeros are dropped, so each row holds true couplings only.

    With `rows` (an array of dof indices) only those rows of the Dirichlet
    system are built, in that order: the same arrays, byte for byte, as the
    matching rows of the whole system, without a whole copy of the matrix."""
    rows = np.arange(sys.n_dofs) if rows is None else rows
    A, free, b_bc = sys.A[rows], sys.free_mask()[rows], sys.dirichlet_rhs()[rows]
    if free.all():  # nothing to insert: drop the zeros, keeping the order
        A.eliminate_zeros()
        return A, b_bc
    keep = np.repeat(free, np.diff(A.indptr)) & (A.data != 0)
    kept = np.concatenate(([0], np.cumsum(keep)))[A.indptr]  # kept entries before each row
    at = kept[np.flatnonzero(~free)]  # these keep nothing: the 1 is their only entry
    indptr = kept + np.concatenate(([0], np.cumsum(~free)))
    A_bc = sp.csr_matrix((np.insert(A.data[keep], at, 1.0),
                          np.insert(A.indices[keep], at, rows[~free]),
                          indptr.astype(A.indptr.dtype)), shape=A.shape)
    return A_bc, b_bc


def default_quad_n(p_s: int) -> int:
    return max(P_T, p_s) + 2


def _weighted(*terms: np.ndarray) -> np.ndarray:
    """(m, ni, nj) blocks sum_k sum_q w_k[m, q] X_k[q, i] Y_k[q, j] of
    (w_k, X_k, Y_k) triples, as one matrix product."""
    W = np.hstack(terms[0::3])
    P = np.concatenate([X[:, :, None] * Y[:, None, :] for X, Y in zip(terms[1::3], terms[2::3])])
    return (W @ P.reshape(len(P), -1)).reshape(len(W), *P.shape[1:])


class _BlockCSR:
    """CSR arrays of the HDG block pattern, filled block by block.  The
    entities are the elements, then the facets (entity n_elem + f); block k
    couples the dofs of entity row[k] with those of entity col[k]: one
    diagonal block per entity, then an element-facet block per facet side,
    then a facet-element block per side, sides in group order."""

    def __init__(self, dm: DofMap):
        groups, n_elem, nb = dm.facet_sides.groups, len(dm.mesh.etab), dm.n_elem_basis
        side_e, side_f = (np.concatenate([getattr(g, k) for g in groups])
                          for k in ("elem", "facet"))
        self.size = np.concatenate((np.full(n_elem, nb), np.diff(dm.facet_dof, append=dm.n_dofs)))
        first = np.concatenate((np.arange(n_elem) * nb, dm.facet_dof))
        ent, side_f = np.arange(len(self.size)), n_elem + side_f
        row, col = np.concatenate((ent, side_e, side_f)), np.concatenate((ent, side_f, side_e))
        row_len = np.bincount(row, self.size[col]).astype(np.intp)
        idx = sp.get_index_dtype(maxval=max(int(row_len @ self.size), dm.n_dofs))
        self.indptr = np.concatenate(([0], np.cumsum(np.repeat(row_len, self.size)))).astype(idx)
        # a block starts after the blocks of its row with smaller col
        order = np.lexsort((col, row))
        w, r = self.size[col[order]], row[order]
        self.start = np.empty(len(order), dtype=np.intp)
        self.start[order] = (np.cumsum(w) - w - (np.cumsum(row_len) - row_len)[r]
                             + self.indptr[first[r]])
        self.stride, self.col = row_len[row], first[col]
        self.data = np.empty(self.indptr[-1])
        self.indices = np.empty(self.indptr[-1], dtype=idx)
        # the first element-facet block of every group; the facet-element
        # block of a side comes n_side blocks after its element-facet block
        self.n_side = len(side_e)
        self.group_side = len(ent) + np.cumsum([0] + [len(g.facet) for g in groups[:-1]])

    def put(self, k: np.ndarray, block: np.ndarray):
        """Write the (m, ni, nj) values of the blocks numbered k."""
        _, ni, nj = block.shape
        pos = (self.start[k][:, None, None] + np.arange(nj)
               + self.stride[k][:, None, None] * np.arange(ni)[:, None])
        self.data[pos] = block
        self.indices[pos] = self.col[k][:, None, None] + np.arange(nj)


def assemble(
    spec: ProblemSpec, mesh: SpaceTimeMesh, p_s: int, beta_sup: np.ndarray | None = None,
) -> AssembledSystem:
    """Assemble the raw system.

    beta_sup, when given, is the per-facet upwind constant in facet-table
    order and replaces `compute_beta_sup`.  The subgrid construction uses it
    to inherit beta_s from the parent facet so the refined form agrees
    exactly with the coarse one on restricted fields.
    """
    if spec.d != mesh.d:
        raise ValueError("problem and mesh dimensions differ")
    if (mesh.dirichlet_lateral != spec.dirichlet_lateral):
        raise ValueError("mesh and problem disagree on lateral boundary type")
    dm = build_dofmap(mesh, p_s)
    nq = default_quad_n(p_s)
    d = mesh.d
    d1 = d + 1
    eps = spec.eps
    alpha = penalty_alpha(p_s)
    if beta_sup is None:
        beta_sup = compute_beta_sup(spec, dm, nq + 2)
    elif beta_sup.shape != (len(mesh.ftab),):
        raise ValueError("beta_sup needs one value per facet")
    fs = dm.facet_sides
    nb = dm.n_elem_basis
    n_elem = len(mesh.etab)
    csr = _BlockCSR(dm)
    # the diagonal blocks, one array per block size, entities in order; the
    # elements lead the blocks of size nb, so A_EE[e] is element e's block
    diag, in_diag = {}, np.empty(len(csr.size), dtype=np.intp)
    for k in np.unique(csr.size).tolist():
        n_k = np.count_nonzero(csr.size == k)
        diag[k] = np.zeros((n_k, k, k))
        in_diag[csr.size == k] = np.arange(n_k)
    A_EE = diag[nb]
    b = np.zeros(dm.n_dofs)
    b_E = b[: dm.n_elem_dofs].reshape(n_elem, nb)

    # ---------------- volume terms ---------------------------------
    vol_rule = fe.tensor_rule((nq,) * d1)
    wq = vol_rule.weights
    BV = fe.get_basis(dm.elem_degrees).eval(vol_rule.points)
    V, G = BV.values, BV.grad  # (nqv, nb), (nqv, nb, d1)

    for cls in dm.elem_classes:
        half = cls.half
        jac = float(np.prod(half))
        # diffusion: eps sum_a (1/s_a^2) int dGa_j dGa_i   (spatial axes)
        Ad = sum((eps / half[a] ** 2) * np.einsum("q,qi,qj->ij", wq, G[:, :, a], G[:, :, a])
                 for a in range(1, d1))
        for sl in cls.chunks():
            pts = cls.points(sl, vol_rule.points)
            m = pts.shape[0]
            flat = pts.reshape(-1, d1)
            fv = spec.f(flat).reshape(m, -1)
            bbar = spec.beta_bar(flat).reshape(m, -1, d)

            # advection: -(beta u, grad_st v): -int phi_j (beta . grad phi_i)
            terms = [np.broadcast_to(-wq, (m, len(wq))), G[:, :, 0] / half[0], V]
            for a in range(1, d1):
                terms += [-wq * bbar[:, :, a - 1], G[:, :, a] / half[a], V]
            rows = cls.elem[sl]
            A_EE[rows] += jac * (Ad + _weighted(*terms))
            b_E[rows] += jac * np.einsum("q,mq,qi->mi", wq, fv, V)

    # ---------------- facet terms -----------------------------------
    frule = facet_rule(d, nq)
    wfq = frule.weights
    beta_n = fs.beta_n(spec, frule.points)

    for g, k0 in zip(fs.groups, csr.group_side):
        axis, sign = g.axis, g.sign
        EB = elem_trace_basis(dm.elem_degrees, axis, g.fixed, g.alphas, g.betas, nq)
        E = EB.values  # (nqf, nb)
        Gn = EB.grad[:, :, axis]  # (nqf, nb), d/d(ref axis)
        Fb = facet_basis_at_rule(g.fdeg, nq).values  # (nqf, nbf)
        A_FF = diag[Fb.shape[1]]

        for sl in g.chunks():
            facets, elems = g.facet[sl], g.elem[sl]
            m = len(facets)
            bn = sign * beta_n[facets]
            bs = beta_sup[facets]
            we = wfq[None, :] * g.jacF[sl][:, None]

            # advective flux ((bn) lambda + bs (u - lambda), v - mu); on
            # lateral facets also the penalty and the two consistency terms
            # -<eps [[u]], grad_n v> and -<eps grad_n u, [[v]]>
            w_bs = we * bs[:, None]
            w_mix = we * (bn - bs[:, None])
            if axis >= 1:  # lateral facet
                wp = we * (eps * alpha / g.h_owner[sl])[:, None]
                wg = we * (sign * eps / g.s_ax[sl])[:, None]
                A_ee = _weighted(w_bs + wp, E, E, -wg, Gn, E, -wg, E, Gn)
                A_ef = _weighted(w_mix - wp, E, Fb, wg, Gn, Fb)
                A_fe = _weighted(-w_bs - wp, Fb, E, wg, Fb, Gn)
                w_ff = wp - w_mix
            else:
                A_ee, A_ef = _weighted(w_bs, E, E), _weighted(w_mix, E, Fb)
                A_fe, w_ff = _weighted(-w_bs, Fb, E), -w_mix

            if g.boundary in ("initial", "final", "neumann"):
                w_ff = w_ff + we * (bn >= 0) * bn
            if g.boundary in ("initial", "neumann"):  # the final plane's g is 0
                flat = fs.points(facets, frule.points).reshape(-1, d1)
                g_n = (spec.initial_data(flat) if g.boundary == "initial"
                       else spec.neumann_data(flat, axis, sign)).reshape(m, -1)
                b_F = np.einsum("mq,qi->mi", we * g_n, Fb)
                b[g.fdof[sl][:, None] + np.arange(Fb.shape[1])] += b_F

            # an element and a facet occur at most once in a group
            A_EE[elems] += A_ee
            A_FF[in_diag[n_elem + facets]] += _weighted(w_ff, Fb, Fb)
            k = k0 + np.arange(sl.start, sl.start + m)
            csr.put(k, A_ef)
            csr.put(k + csr.n_side, A_fe)

    for k, blocks in diag.items():
        csr.put(np.flatnonzero(csr.size == k), blocks)
    A = sp.csr_matrix((csr.data, csr.indices, csr.indptr), shape=(dm.n_dofs, dm.n_dofs))

    # ---------------- Dirichlet values ------------------------------
    # Dirichlet facets are lateral, so they share one facet basis
    dir_facets = np.flatnonzero(mesh.ftab.boundary == BOUNDARIES.index("dirichlet"))
    if dir_facets.size:
        FB = facet_basis_at_rule(dm.facet_degrees(1), nq)
        Gram = FB.values.T @ (FB.values * wfq[:, None])
        pts = fs.points(dir_facets, frule.points).reshape(-1, d1)
        gv = spec.dirichlet_data(pts).reshape(len(dir_facets), -1)
        rhs = np.einsum("q,qi,mq->mi", wfq, FB.values, gv)
        dirichlet_idx = (dm.facet_dof[dir_facets, None] + np.arange(len(Gram))).reshape(-1)
        dirichlet_values = np.linalg.solve(Gram, rhs.T).T.reshape(-1)
    else:
        dirichlet_idx = np.empty(0, dtype=int)
        dirichlet_values = np.empty(0)

    return AssembledSystem(
        A=A, b=b, dofmap=dm, dirichlet_idx=dirichlet_idx,
        dirichlet_values=dirichlet_values, beta_sup=beta_sup, spec=spec, quad_n=nq,
    )

