"""Numerical verification of the analysis machinery.

Everything in this module measures; nothing proves.  It covers

* the temporal subgrid (every element split once in time) with the
  restriction of a coarse discrete solution onto it,
* Galerkin orthogonality of the two-level pair,
* the saturation factor of the weighted time-derivative error,
* the vertex-averaging (Oswald) operator and its jump-based defect bound,
* element and facet bubble functions with their norm-equivalence constants,
* measured best constants of the anisotropic inverse, trace,
  quasi-interpolation and projection-gap inequalities.

Measured constants are reported as `ConstantReport` rows and can be dumped
to a CSV with schema ``inequality,level,samples,constant``.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp

from . import fe
from .assembly import (
    P_T,
    AssembledSystem,
    DofMap,
    FieldEval,
    assemble,
    build_dofmap,
    elem_trace_basis,
    facet_rule,
    trace_map,
)
from .estimator import regime_and_weights, slab_height
from .mesh import Element, Facet, SpaceTimeMesh, _midpoint, child_id
from .problem import ProblemSpec
from .solver import solve

SUBGRID_SALT = 101  # keeps subgrid child ids away from refinement child ids


# ----------------------------------------------------------------------
# temporal subgrid
# ----------------------------------------------------------------------


@dataclass
class SubgridPair:
    """A mesh and its temporal refinement (each element halved in time).

    children maps a coarse element to its (lower, upper) halves; facet_parent
    maps every subgrid facet that descends from a coarse facet (split lateral
    facets, surviving horizontal facets) to that facet; new_R maps each newly
    created horizontal facet to the coarse element it bisects.
    """

    coarse: SpaceTimeMesh
    fine: SpaceTimeMesh
    children: dict[int, tuple[int, int]]
    parent_elem: dict[int, int]
    facet_parent: dict[int, int]
    new_R: dict[int, int]


def build_subgrid(mesh: SpaceTimeMesh) -> SubgridPair:
    fine = SpaceTimeMesh(
        mesh.d, mesh.t_final, mesh.x_lo, mesh.x_hi, mesh.slab_times,
        mesh.policy, mesh.dirichlet_lateral,
    )
    children: dict[int, tuple[int, int]] = {}
    parent_elem: dict[int, int] = {}
    for eid in mesh.element_ids():
        el = mesh.elements[eid]
        m = _midpoint(float(el.lo[0]), float(el.hi[0]))
        pair = []
        for ci, (t0, t1) in enumerate(((float(el.lo[0]), m), (m, float(el.hi[0])))):
            lo = el.lo.copy()
            hi = el.hi.copy()
            lo[0], hi[0] = t0, t1
            cid = child_id(eid, ci, salt=SUBGRID_SALT)
            fine._register(
                Element(eid=cid, level=el.level, lo=lo, hi=hi, slab=el.slab,
                        parent=eid, child_index=ci)
            )
            parent_elem[cid] = eid
            pair.append(cid)
        children[eid] = (pair[0], pair[1])
    fine._rebuild_facets()

    # facet lineage: surviving horizontal facets match coarse boxes exactly,
    # split lateral facets sit inside a unique coarse facet on their plane,
    # and the rest are new horizontal facets bisecting a coarse element
    r_by_box: dict[bytes, int] = {}
    q_by_plane: dict[tuple[int, float], list[Facet]] = {}
    for f in mesh.facets.values():
        if f.is_R:
            r_by_box[f.lo.tobytes() + f.hi.tobytes()] = f.fid
        else:
            q_by_plane.setdefault((f.axis, f.coord), []).append(f)
    facet_parent: dict[int, int] = {}
    new_R: dict[int, int] = {}
    for f in fine.facets.values():
        if f.is_R:
            pf = r_by_box.get(f.lo.tobytes() + f.hi.tobytes())
            if pf is not None:
                facet_parent[f.fid] = pf
                continue
            pe = parent_elem[f.owner]
            if f.neighbor is None or parent_elem[f.neighbor] != pe:
                raise RuntimeError("new horizontal facet does not bisect a single parent")
            new_R[f.fid] = pe
        else:
            hosts = [
                g.fid
                for g in q_by_plane.get((f.axis, float(f.coord)), ())
                if np.all(g.lo <= f.lo) and np.all(f.hi <= g.hi)
            ]
            if len(hosts) != 1:
                raise RuntimeError("split lateral facet lacks a unique parent facet")
            facet_parent[f.fid] = hosts[0]

    if len(fine.elements) != 2 * len(mesh.elements):
        raise RuntimeError("subgrid element count mismatch")
    if len(new_R) != len(mesh.elements):
        raise RuntimeError("expected exactly one new horizontal facet per element")
    return SubgridPair(mesh, fine, children, parent_elem, facet_parent, new_R)


def _box_affine(parent_lo, parent_hi, child_lo, child_hi):
    """Per-axis affine map child-reference -> parent-reference (x_p = a x_c + b)."""
    hp = 0.5 * (np.asarray(parent_hi) - np.asarray(parent_lo))
    mp = 0.5 * (np.asarray(parent_hi) + np.asarray(parent_lo))
    hc = 0.5 * (np.asarray(child_hi) - np.asarray(child_lo))
    mc = 0.5 * (np.asarray(child_hi) + np.asarray(child_lo))
    return hc / hp, (mc - mp) / hp


def restriction_matrix(pair: SubgridPair, dm_c: DofMap, dm_f: DofMap) -> sp.csr_matrix:
    """Transfer of a coarse solution vector onto the subgrid.

    Element fields are carried over unchanged (re-expressed on the halves),
    facet fields are carried over on split lateral and surviving horizontal
    facets, and the new horizontal facets receive the trace of the coarse
    element polynomial at the bisection plane.
    """
    ebasis = fe.get_basis(dm_c.elem_degrees)
    rows, cols, vals = [], [], []

    def put(block, rdofs, cdofs):
        block = np.asarray(block)
        rows.append(np.repeat(rdofs, len(cdofs)))
        cols.append(np.tile(cdofs, len(rdofs)))
        vals.append(block.reshape(-1))

    for eid, kids in pair.children.items():
        el = pair.coarse.elements[eid]
        for cid in kids:
            ch = pair.fine.elements[cid]
            a, b = _box_affine(el.lo, el.hi, ch.lo, ch.hi)
            vals_at = ebasis.eval(ebasis.nodes * a + b).values
            put(vals_at, dm_f.elem_dofs(cid), dm_c.elem_dofs(eid))
    for fid, pfid in pair.facet_parent.items():
        ff = pair.fine.facets[fid]
        cf = pair.coarse.facets[pfid]
        fb = fe.get_basis(dm_f.facet_degrees(ff))
        free = ff.free_axes()
        a, b = _box_affine(cf.lo[free], cf.hi[free], ff.lo[free], ff.hi[free])
        put(fb.eval(fb.nodes * a + b).values, dm_f.facet_dofs(fid), dm_c.facet_dofs(pfid))
    for fid, eid in pair.new_R.items():
        ff = pair.fine.facets[fid]
        el = pair.coarse.elements[eid]
        fb = fe.get_basis(dm_f.facet_degrees(ff))
        half = 0.5 * (el.hi - el.lo)
        mid = 0.5 * (el.hi + el.lo)
        pts = np.empty((fb.n_basis, pair.coarse.d + 1))
        pts[:, 0] = (ff.coord - mid[0]) / half[0]
        for i, ax in enumerate(ff.free_axes()):
            a = (0.5 * (ff.hi[ax] - ff.lo[ax])) / half[ax]
            b = (0.5 * (ff.hi[ax] + ff.lo[ax]) - mid[ax]) / half[ax]
            pts[:, ax] = fb.nodes[:, i] * a + b
        put(ebasis.eval(pts).values, dm_f.facet_dofs(fid), dm_c.elem_dofs(eid))

    G = sp.coo_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(dm_f.n_dofs, dm_c.n_dofs),
    )
    return G.tocsr()


def subgrid_restrict(pair: SubgridPair, x_coarse: np.ndarray, p_s: int) -> np.ndarray:
    """Restrict a coarse solution vector to the subgrid."""
    dm_c = build_dofmap(pair.coarse, p_s)
    dm_f = build_dofmap(pair.fine, p_s)
    if x_coarse.shape != (dm_c.n_dofs,):
        raise ValueError("solution vector does not match the coarse mesh")
    return restriction_matrix(pair, dm_c, dm_f) @ x_coarse


def _inherited_beta_sup(pair: SubgridPair, sys_c: AssembledSystem) -> dict[int, float]:
    # split lateral facets inherit the parent's upwind constant so the
    # subgrid form restricted to coarse fields agrees exactly with the
    # coarse form; horizontal facets have unit temporal normal regardless
    out = {fid: sys_c.beta_sup[pfid] for fid, pfid in pair.facet_parent.items()}
    for fid in pair.new_R:
        out[fid] = 1.0
    return out


def assemble_two_level(
    spec: ProblemSpec, pair: SubgridPair, p_s: int, quad_n: int | None = None
) -> tuple[AssembledSystem, AssembledSystem]:
    sys_c = assemble(spec, pair.coarse, p_s, quad_n)
    sys_f = assemble(
        spec, pair.fine, p_s, quad_n,
        beta_sup_override=_inherited_beta_sup(pair, sys_c),
    )
    return sys_c, sys_f


@dataclass
class FormEquivalenceReport:
    matrix_defect: float  # max |restricted fine form - coarse form| entrywise, relative
    pair_defect: float  # worst normalized defect over random trial/test pairs
    n_pairs: int


def form_equivalence(
    spec: ProblemSpec, mesh: SpaceTimeMesh, p_s: int,
    n_pairs: int = 20, seed: int = 0, quad_n: int | None = None,
) -> FormEquivalenceReport:
    """Check a_fine(restricted u, restricted v) == a_coarse(u, v)."""
    pair = build_subgrid(mesh)
    sys_c, sys_f = assemble_two_level(spec, pair, p_s, quad_n)
    G = restriction_matrix(pair, sys_c.dofmap, sys_f.dofmap)
    B = (G.T @ sys_f.A @ G).tocsr()
    scale = max(abs(sys_c.A).max(), 1e-300)
    D = B - sys_c.A
    mat_defect = float(abs(D).max() / scale) if D.nnz else 0.0
    rng = np.random.default_rng(seed)
    worst = 0.0
    n = sys_c.n_dofs
    for _ in range(n_pairs):
        u = rng.standard_normal(n)
        v = rng.standard_normal(n)
        qf = float(v @ (B @ u))
        qc = float(v @ (sys_c.A @ u))
        denom = max(abs(qc), scale * np.linalg.norm(u) * np.linalg.norm(v))
        worst = max(worst, abs(qf - qc) / denom)
    return FormEquivalenceReport(mat_defect, worst, n_pairs)


@dataclass
class OrthogonalityReport:
    residual: float  # max over coarse test dofs of the two-level form defect
    scale: float
    relative: float
    n_coarse_dofs: int
    n_fine_dofs: int


def check_galerkin_orthogonality(
    spec: ProblemSpec, mesh: SpaceTimeMesh, p_s: int,
    quad_n: int | None = None,
) -> OrthogonalityReport:
    """Measure a(u_fine - restricted u_coarse, restricted test) over all
    unconstrained coarse test functions; zero up to roundoff when the
    restriction reproduces the coarse form."""
    pair = build_subgrid(mesh)
    sys_c, sys_f = assemble_two_level(spec, pair, p_s, quad_n)
    x_c, _ = solve(sys_c)
    x_f, _ = solve(sys_f)
    G = restriction_matrix(pair, sys_c.dofmap, sys_f.dofmap)
    s = G.T @ (sys_f.A @ (x_f - G @ x_c))
    free = sys_c.free_mask()
    residual = float(np.max(np.abs(s[free]))) if free.any() else 0.0
    scale = max(
        float(np.abs(sys_c.b).max()),
        float(abs(sys_c.A).max()) * float(np.abs(x_c).max()),
        1e-300,
    )
    return OrthogonalityReport(
        residual=residual, scale=scale, relative=residual / scale,
        n_coarse_dofs=sys_c.n_dofs, n_fine_dofs=sys_f.n_dofs,
    )


# ----------------------------------------------------------------------
# saturation of the weighted time-derivative error
# ----------------------------------------------------------------------


@dataclass
class SaturationReport:
    rho: float  # fine-to-coarse ratio of weighted time-derivative errors
    numerator: float
    denominator: float
    flagged: bool  # denominator below resolution; ratio meaningless


def measure_saturation(
    spec: ProblemSpec, mesh: SpaceTimeMesh, p_s: int,
    quad_n: int | None = None,
) -> SaturationReport:
    """rho = sqrt(sum_K tau ||dt(u - u_fine)||^2 / sum_K tau ||dt(u - u_coarse)||^2),
    both sums over the coarse elements with the coarse regime weights."""
    if spec.exact_dt is None:
        raise ValueError("saturation measurement needs the exact time derivative")
    pair = build_subgrid(mesh)
    sys_c, sys_f = assemble_two_level(spec, pair, p_s, quad_n)
    x_c, _ = solve(sys_c)
    x_f, _ = solve(sys_f)
    ev_c = FieldEval(sys_c.dofmap, x_c)
    ev_f = FieldEval(sys_f.dofmap, x_f)
    nq = sys_c.quad_n + 2
    rule = fe.tensor_rule((nq,) * (mesh.d + 1))
    num = den = ref = 0.0
    for eid in mesh.element_ids():
        el = mesh.elements[eid]
        w = regime_and_weights(el, slab_height(mesh, el), spec.eps)
        sq_c = sq_f = sq_e = 0.0
        for cid in pair.children[eid]:
            ch = pair.fine.elements[cid]
            jac = fe.box_jacobian(ch.lo, ch.hi)
            phys = fe.map_to_box(ch.lo, ch.hi, rule.points)
            dt_ex = spec.exact_dt(phys)
            a, b = _box_affine(el.lo, el.hi, ch.lo, ch.hi)
            _, _, dt_c = ev_c.element_at(eid, rule.points * a + b)
            _, _, dt_f = ev_f.element_at(cid, rule.points)
            sq_c += jac * float(np.sum(rule.weights * (dt_ex - dt_c) ** 2))
            sq_f += jac * float(np.sum(rule.weights * (dt_ex - dt_f) ** 2))
            sq_e += jac * float(np.sum(rule.weights * dt_ex**2))
        num += w.tau_eps * sq_f
        den += w.tau_eps * sq_c
        ref += w.tau_eps * sq_e
    flagged = den <= 1e-20 * max(1.0, ref)
    rho = float("nan") if flagged else float(np.sqrt(num / den))
    return SaturationReport(
        rho=rho, numerator=float(np.sqrt(num)), denominator=float(np.sqrt(den)),
        flagged=flagged,
    )


# ----------------------------------------------------------------------
# vertex averaging and its jump-based defect bound
# ----------------------------------------------------------------------


@dataclass
class ConformingCell:
    parent: int  # element of the original mesh the cell lives in
    lo: np.ndarray
    hi: np.ndarray
    values: np.ndarray  # nodal coefficients of the averaged field


@dataclass
class AveragingResult:
    cells: list[ConformingCell]
    defect: dict[int, float]  # per original element: ||v - averaged v||_K
    continuity: float  # max trace mismatch sampled across shared cell faces
    n_nodes: int


def _node_key(coords: np.ndarray) -> tuple:
    # merge float twins of the same geometric node; resolution 2^-40 per unit
    return tuple(int(v) for v in np.rint(np.asarray(coords) * 2.0**40))


def averaging_operator(mesh: SpaceTimeMesh, p_s: int, elem_coeffs: np.ndarray) -> AveragingResult:
    """Continuous reconstruction of a discontinuous element field.

    The field is first re-expressed on the coarsest conforming refinement
    (every element subdivided to the globally finest level; face conformity
    propagates through the whole connected box mesh), then each node of that
    refinement receives the arithmetic mean of the values from its incident
    cells.  Nodes on the Dirichlet part of the lateral boundary are set to
    zero.  elem_coeffs holds the per-element nodal coefficients laid out in
    element_ids() order.
    """
    dm = build_dofmap(mesh, p_s)
    if elem_coeffs.shape != (dm.n_elem_dofs,):
        raise ValueError("element coefficient vector has wrong length")
    basis = fe.get_basis(dm.elem_degrees)
    max_level = max(el.level for el in mesh.elements.values())

    # subdivide every element down to the common finest level
    cells: list[tuple[int, np.ndarray, np.ndarray]] = []
    for eid in mesh.element_ids():
        el = mesh.elements[eid]
        stack = [(el.level, el.lo, el.hi)]
        while stack:
            lev, lo, hi = stack.pop()
            if lev == max_level:
                cells.append((eid, lo, hi))
                continue
            tmp = Element(eid=0, level=lev, lo=lo, hi=hi, slab=el.slab)
            for clo, chi in mesh._children_boxes(tmp):
                stack.append((lev + 1, clo, chi))

    # node-averaged values
    sums: dict[tuple, float] = {}
    counts: dict[tuple, int] = {}
    phys_cache: list[np.ndarray] = []
    for eid, lo, hi in cells:
        el = mesh.elements[eid]
        a, b = _box_affine(el.lo, el.hi, lo, hi)
        vals = basis.eval(basis.nodes * a + b).values @ (
            elem_coeffs[dm.elem_offset[eid] : dm.elem_offset[eid] + dm.n_elem_basis]
        )
        phys = fe.map_to_box(lo, hi, basis.nodes)
        phys_cache.append(phys)
        for i in range(basis.n_basis):
            key = _node_key(phys[i])
            sums[key] = sums.get(key, 0.0) + float(vals[i])
            counts[key] = counts.get(key, 0) + 1
    node_val = {k: sums[k] / counts[k] for k in sums}

    if mesh.dirichlet_lateral:
        tol = 1e-12 * max(1.0, float(np.max(np.abs(mesh.x_hi - mesh.x_lo))))
        for i, (eid, lo, hi) in enumerate(cells):
            phys = phys_cache[i]
            on_wall = np.zeros(phys.shape[0], dtype=bool)
            for a in range(1, mesh.d + 1):
                on_wall |= np.abs(phys[:, a] - mesh.x_lo[a - 1]) <= tol
                on_wall |= np.abs(phys[:, a] - mesh.x_hi[a - 1]) <= tol
            for j in np.where(on_wall)[0]:
                node_val[_node_key(phys[j])] = 0.0

    out_cells = []
    for i, (eid, lo, hi) in enumerate(cells):
        vals = np.array([node_val[_node_key(p)] for p in phys_cache[i]])
        out_cells.append(ConformingCell(parent=eid, lo=lo, hi=hi, values=vals))

    # sanity: the conforming refinement tiles the domain, so the node count
    # is a tensor grid and any key mismatch shows up here
    n_t = (len(mesh.slab_times) - 1) * mesh.k_t**max_level * P_T
    dims = [n_t + 1]
    for a in range(mesh.d):
        n_x = round((mesh.x_hi[a] - mesh.x_lo[a]) / (cells[0][2][a + 1] - cells[0][1][a + 1]))
        dims.append(n_x * p_s + 1)
    expected = int(np.prod(dims))
    if len(node_val) != expected:
        raise RuntimeError(
            f"conforming node identification failed: {len(node_val)} != {expected}"
        )

    # measured continuity across shared cell faces (exercises the node merge)
    cell_size = cells[0][2] - cells[0][1]
    index_of = {}
    for i, (eid, lo, hi) in enumerate(cells):
        key = tuple(int(v) for v in np.rint((lo - np.concatenate(([mesh.slab_times[0]], mesh.x_lo))) / cell_size))
        index_of[key] = i
    nq_f = p_s + 2
    continuity = 0.0
    for key, i in index_of.items():
        for axis in range(mesh.d + 1):
            nb_key = tuple(k + (1 if a == axis else 0) for a, k in enumerate(key))
            j = index_of.get(nb_key)
            if j is None:
                continue
            rule = facet_rule(mesh.d, nq_f)
            pts_i = np.empty((rule.points.shape[0], mesh.d + 1))
            pts_j = np.empty_like(pts_i)
            free = [a for a in range(mesh.d + 1) if a != axis]
            pts_i[:, axis] = 1.0
            pts_j[:, axis] = -1.0
            for k_ax, a in enumerate(free):
                pts_i[:, a] = rule.points[:, k_ax]
                pts_j[:, a] = rule.points[:, k_ax]
            tr_i = basis.eval(pts_i).values @ out_cells[i].values
            tr_j = basis.eval(pts_j).values @ out_cells[j].values
            continuity = max(continuity, float(np.max(np.abs(tr_i - tr_j))))

    # defect per original element
    nq = p_s + 2
    rule = fe.tensor_rule((nq,) * (mesh.d + 1))
    BV = basis.eval(rule.points).values
    defect_sq: dict[int, float] = {eid: 0.0 for eid in mesh.element_ids()}
    for i, (eid, lo, hi) in enumerate(cells):
        el = mesh.elements[eid]
        a, b = _box_affine(el.lo, el.hi, lo, hi)
        v_orig = basis.eval(rule.points * a + b).values @ (
            elem_coeffs[dm.elem_offset[eid] : dm.elem_offset[eid] + dm.n_elem_basis]
        )
        v_avg = BV @ out_cells[i].values
        defect_sq[eid] += fe.box_jacobian(lo, hi) * float(
            np.sum(rule.weights * (v_orig - v_avg) ** 2)
        )
    defect = {eid: float(np.sqrt(s)) for eid, s in defect_sq.items()}
    return AveragingResult(cells=out_cells, defect=defect, continuity=continuity,
                           n_nodes=len(node_val))


def _dg_jump_norm(mesh: SpaceTimeMesh, dm: DofMap, elem_coeffs: np.ndarray,
                  f: Facet, nq: int) -> float:
    """L2 norm over an interior facet of the two-sided element value gap."""
    basis_deg = dm.elem_degrees
    rule = facet_rule(mesh.d, nq)
    jac = float(np.prod(0.5 * (f.hi - f.lo)[f.free_axes()]))
    vals = []
    for eid in (f.owner, f.neighbor):
        el = mesh.elements[eid]
        fixed, alphas, betas = trace_map(f, el)
        tb = elem_trace_basis(basis_deg, f.axis, fixed, alphas, betas, nq)
        c = elem_coeffs[dm.elem_offset[eid] : dm.elem_offset[eid] + dm.n_elem_basis]
        vals.append(tb.values @ c)
    gap = vals[0] - vals[1]
    return float(np.sqrt(jac * np.sum(rule.weights * gap**2)))


@dataclass
class OswaldReport:
    per_element: dict[int, tuple[float, float]]  # eid -> (defect, jump bound)
    constant: float  # max defect / bound over elements with a resolvable bound


def oswald_constant(mesh: SpaceTimeMesh, p_s: int, elem_coeffs: np.ndarray,
                    avg: AveragingResult | None = None) -> OswaldReport:
    """Measured constant of the averaging defect bound: per element, the
    defect is compared against sqrt(h)-weighted lateral jumps plus
    sqrt(dt)-weighted horizontal jumps over the interior facets whose
    closure touches the element."""
    if avg is None:
        avg = averaging_operator(mesh, p_s, elem_coeffs)
    dm = build_dofmap(mesh, p_s)
    nq = p_s + 2
    interior = [f for f in mesh.facets.values() if f.neighbor is not None]
    jump_norm = {f.fid: _dg_jump_norm(mesh, dm, elem_coeffs, f, nq) for f in interior}
    scale = 1.0 + float(np.max(np.abs(elem_coeffs))) if elem_coeffs.size else 1.0
    tol = 1e-12 * scale
    per: dict[int, tuple[float, float]] = {}
    worst = 0.0
    for eid in mesh.element_ids():
        el = mesh.elements[eid]
        bound = 0.0
        for f in interior:
            touches = np.all((f.lo <= el.hi + tol) & (el.lo - tol <= f.hi))
            if not touches:
                continue
            w = np.sqrt(el.h) if f.is_Q else np.sqrt(el.dt)
            bound += w * jump_norm[f.fid]
        per[eid] = (avg.defect[eid], bound)
        if bound > tol:
            worst = max(worst, avg.defect[eid] / bound)
    return OswaldReport(per_element=per, constant=worst)


# ----------------------------------------------------------------------
# bubble functions
# ----------------------------------------------------------------------


@dataclass
class ConstantReport:
    inequality: str
    level: int
    samples: int
    constant: float


def element_bubble(d: int):
    """Reference element bubble: the product of all 2^(d+1) vertex hat
    functions, normalized to unit sup (attained at the center).  Reduces to
    prod_j (1 - x_j^2)^(2^d) over the d+1 reference axes."""
    e = 2**d

    def psi(pts: np.ndarray) -> np.ndarray:
        pts = np.atleast_2d(pts)
        return np.prod((1.0 - pts**2) ** e, axis=-1)

    return psi


def facet_bubble_profile(d: int, kappa: float):
    """Reference facet bubble for a lateral face, squeezed toward it.

    The element is compressed along the face normal onto [-1, 2*kappa - 1];
    the bubble is the product of the hat functions of the compressed
    element's vertices lying on the face, sup-normalized on the face, and
    zero outside the compressed band.  Returns (normal_profile, transverse)
    callables: the bubble is their product, with `transverse` acting on the
    d remaining axes (time plus d-1 spatial).
    """
    if not (0.0 < kappa <= 1.0):
        raise ValueError(f"squeeze factor must lie in (0, 1], got {kappa}")
    en = 2**d
    et = 2 ** (d - 1)

    def normal_profile(s: np.ndarray) -> np.ndarray:
        s = np.asarray(s, dtype=float)
        band = s <= 2.0 * kappa - 1.0
        out = np.zeros_like(s)
        out[band] = ((2.0 * kappa - 1.0 - s[band]) / (2.0 * kappa)) ** en
        return out

    def transverse(pts: np.ndarray) -> np.ndarray:
        pts = np.atleast_2d(pts)
        return np.prod((1.0 - pts**2) ** et, axis=-1)

    return normal_profile, transverse


def _sym_eig_bounds(A: np.ndarray, M: np.ndarray) -> tuple[float, float]:
    w = sla.eigh(A, M, eigvals_only=True)
    return float(w[0]), float(w[-1])


def bubble_constants(
    p_s: int, kind: str, kappa: float = 1.0, samples: int = 200,
    d: int = 2, seed: int = 0, level: int = 0,
    box: tuple[np.ndarray, np.ndarray] | None = None,
) -> list[ConstantReport]:
    """Norm-equivalence constants of the bubble-weighted inner products.

    kind='element': c1 with ||psi v|| <= c1 ||v|| and c2 with
    c2 ||v||^2 <= (v, psi v), over the element polynomial space.
    kind='facet': the face-norm analogues plus the volume and gradient
    bounds of the squeezed bubble against sqrt(kappa)-scaled face norms.

    The reported constants are the exact extremes of the corresponding
    Rayleigh quotients (generalized eigenvalues); `samples` random fields
    are drawn as a cross-check and must fall inside the eigenvalue range.
    """
    rng = np.random.default_rng(seed)
    reports: list[ConstantReport] = []
    if kind == "element":
        degrees = (P_T,) + (p_s,) * d
        nq = max(degrees) + 2 ** (d + 1) + 2
        rule = fe.tensor_rule((nq,) * (d + 1))
        basis = fe.get_basis(degrees)
        BV = basis.eval(rule.points).values
        psi = element_bubble(d)(rule.points)
        w = rule.weights
        if box is not None:
            w = w * fe.box_jacobian(*box)
        M = np.einsum("q,qa,qb->ab", w, BV, BV)
        Mpsi = np.einsum("q,qa,qb->ab", w * psi, BV, BV)
        Mpsi2 = np.einsum("q,qa,qb->ab", w * psi**2, BV, BV)
        c2_lo, c2_hi = _sym_eig_bounds(Mpsi, M)
        c1_lo, c1_hi = _sym_eig_bounds(Mpsi2, M)
        Z = rng.standard_normal((samples, basis.n_basis))
        r_c2 = np.einsum("ia,ab,ib->i", Z, Mpsi, Z) / np.einsum("ia,ab,ib->i", Z, M, Z)
        if np.any(r_c2 < c2_lo - 1e-10) or np.any(r_c2 > c2_hi + 1e-10):
            raise RuntimeError("sampled bubble ratios escape the eigenvalue range")
        reports.append(ConstantReport("bubble_elem_c1", level, samples, np.sqrt(c1_hi)))
        reports.append(ConstantReport("bubble_elem_c2", level, samples, c2_lo))
        return reports
    if kind != "facet":
        raise ValueError(f"kind must be 'element' or 'facet', got {kind!r}")

    # facet bubble: transverse axes are (time, spatial others); the normal
    # axis is integrated separately over the squeezed band
    tdeg = (P_T,) + (p_s,) * (d - 1)
    tb = fe.get_basis(tdeg)
    nq = max(tdeg) + 2 ** (d + 1) + 2
    frule = fe.tensor_rule((nq,) * d)
    FB = tb.eval(frule.points)
    profile, transverse = facet_bubble_profile(d, kappa)
    psiF = transverse(frule.points)
    w = frule.weights
    MF = np.einsum("q,qa,qb->ab", w, FB.values, FB.values)
    MpsiF = np.einsum("q,qa,qb->ab", w * psiF, FB.values, FB.values)
    Mpsi2F = np.einsum("q,qa,qb->ab", w * psiF**2, FB.values, FB.values)
    c2_lo, _ = _sym_eig_bounds(MpsiF, MF)
    c1_lo, c1_hi = _sym_eig_bounds(Mpsi2F, MF)

    # normal-direction Gauss rule mapped onto the squeezed band
    nn = 2**d + 3
    xg, wg = fe.gauss_1d(nn)
    s = (xg + 1.0) * kappa - 1.0
    wn = wg * kappa
    prof = profile(s)
    dprof = -(2**d) * ((2.0 * kappa - 1.0 - s) ** (2**d - 1)) / (2.0 * kappa) ** (2**d)
    int_p2 = float(np.sum(wn * prof**2))
    int_dp2 = float(np.sum(wn * dprof**2))

    # transverse gradient of (bubble * extended facet function): spatial
    # transverse axes only (time derivatives do not enter the gradient)
    grad_form = int_dp2 * Mpsi2F
    for j in range(1, d):  # transverse axis 0 is time
        dpsi = psiF * (-2 ** (d - 1) * 2.0 * frule.points[:, j] / (1.0 - frule.points[:, j] ** 2))
        U = psiF[:, None] * FB.grad[:, :, j] + dpsi[:, None] * FB.values
        grad_form = grad_form + int_p2 * np.einsum("q,qa,qb->ab", w, U, U)
    vol_form = int_p2 * Mpsi2F
    _, vol_hi = _sym_eig_bounds(vol_form, MF)
    _, grad_hi = _sym_eig_bounds(grad_form, MF)

    Z = rng.standard_normal((samples, tb.n_basis))
    r_c2 = np.einsum("ia,ab,ib->i", Z, MpsiF, Z) / np.einsum("ia,ab,ib->i", Z, MF, Z)
    if np.any(r_c2 < c2_lo - 1e-10):
        raise RuntimeError("sampled facet bubble ratios escape the eigenvalue range")

    reports.append(ConstantReport("bubble_face_c1", level, samples, np.sqrt(c1_hi)))
    reports.append(ConstantReport("bubble_face_c2", level, samples, c2_lo))
    reports.append(ConstantReport("bubble_face_volume", level, samples,
                                  float(np.sqrt(vol_hi / kappa))))
    reports.append(ConstantReport("bubble_face_gradient", level, samples,
                                  float(np.sqrt(grad_hi * kappa))))
    return reports


# ----------------------------------------------------------------------
# measured inequality constants
# ----------------------------------------------------------------------


def _ratio_max(num_form: np.ndarray, den_form: np.ndarray, Z: np.ndarray) -> float:
    num = np.einsum("ia,ab,ib->i", Z, num_form, Z)
    den = np.einsum("ia,ab,ib->i", Z, den_form, Z)
    return float(np.sqrt(np.max(num / den)))


def _face_items(dims: np.ndarray, kinds: str) -> list[tuple[int, float]]:
    axes = range(1, len(dims)) if kinds == "Q" else (0,)
    return [(a, s) for a in axes for s in (-1.0, 1.0)]


def inequality_constants(
    mesh: SpaceTimeMesh, p_s: int, samples: int = 200, seed: int = 0,
    include_quasi: bool | None = None, level: int = 0,
    eps_grid: tuple[float, ...] = (1.0, 1e-2, 1e-4),
) -> list[ConstantReport]:
    """Measured best constants of the anisotropic inverse/trace inequalities,
    the local trace bounds, the quasi-interpolation estimates and the
    element-vs-facet projection gap, maximized over random fields and all
    element and facet shapes of the mesh.

    Quasi-interpolation rows appear only when the mesh satisfies the
    parabolic scaling dt <= 4 h^2 elementwise (or when forced).
    """
    d = mesh.d
    d1 = d + 1
    rng = np.random.default_rng(seed)
    degrees = (P_T,) + (p_s,) * d
    degrees_hi = (P_T + 1,) + (p_s + 1,) * d
    basis = fe.get_basis(degrees)
    basis_hi = fe.get_basis(degrees_hi)
    qdeg = (P_T,) + (p_s,) * (d - 1)
    rdeg = (p_s,) * d
    qb = fe.get_basis(qdeg)
    rb = fe.get_basis(rdeg)

    # one deterministic batch per space, shared across shapes and levels
    Z = rng.standard_normal((samples, basis.n_basis))
    Zhi = rng.standard_normal((samples, basis_hi.n_basis))
    Zq = rng.standard_normal((samples, qb.n_basis))
    Zr = rng.standard_normal((samples, rb.n_basis))

    if include_quasi is None:
        include_quasi = all(
            el.dt <= 4.0 * el.h**2 + 1e-14 for el in mesh.elements.values()
        )

    nq = max(P_T + 1, p_s + 1) + 2
    vol_rule = fe.tensor_rule((nq,) * d1)
    BV = basis.eval(vol_rule.points)
    BH = basis_hi.eval(vol_rule.points)
    frule = fe.tensor_rule((nq,) * d) if d1 > 1 else None
    wq = vol_rule.weights

    # element-space projection of the enriched space, reference level
    M_ref = np.einsum("q,qa,qb->ab", wq, BV.values, BV.values)
    C_ref = np.einsum("q,qa,qb->ab", wq, BV.values, BH.values)
    P_hi = np.linalg.solve(M_ref, C_ref)  # (nb, nb_hi)

    best: dict[str, float] = {}

    def hit(name: str, value: float):
        if np.isfinite(value):
            best[name] = max(best.get(name, 0.0), value)

    elem_shapes = {}
    for el in mesh.elements.values():
        elem_shapes.setdefault(tuple(np.round(el.hi - el.lo, 14)), el)
    q_shapes = {}
    r_shapes = {}
    for f in mesh.facets.values():
        el = mesh.elements[f.owner]
        key = (tuple(np.round((f.hi - f.lo)[f.free_axes()], 14)),
               round(el.h, 14), round(el.dt, 14))
        (q_shapes if f.is_Q else r_shapes).setdefault(key, (f, el))

    for dims_key, el in elem_shapes.items():
        dims = np.asarray(dims_key)
        half = 0.5 * dims
        jac = float(np.prod(half))
        dt_K, h_K = el.dt, el.h

        M = jac * M_ref
        Mdt = jac * np.einsum("q,qa,qb->ab", wq, BV.grad[:, :, 0], BV.grad[:, :, 0]) / half[0] ** 2
        Mgr = sum(
            jac * np.einsum("q,qa,qb->ab", wq, BV.grad[:, :, a], BV.grad[:, :, a]) / half[a] ** 2
            for a in range(1, d1)
        )
        hit("inv_time_deriv", dt_K * _ratio_max(Mdt, M, Z))
        hit("inv_space_grad", h_K * _ratio_max(Mgr, M, Z))

        # whole lateral / horizontal boundary of the element
        def face_mass(vals_list, which_basis):
            out = np.zeros((which_basis.n_basis,) * 2)
            for axis, side, tbv, fjac in vals_list:
                out += fjac * np.einsum("q,qa,qb->ab", frule.weights, tbv, tbv)
            return out

        def face_traces(which_deg, kinds):
            items = []
            for axis, side in _face_items(dims, kinds):
                free = [a for a in range(d1) if a != axis]
                tbv = elem_trace_basis(which_deg, axis, side,
                                       (0.0,) * d, (1.0,) * d, nq).values
                fjac = float(np.prod(half[free]))
                items.append((axis, side, tbv, fjac))
            return items

        q_traces = face_traces(degrees, "Q")
        r_traces = face_traces(degrees, "R")
        Mq = face_mass(q_traces, basis)
        Mr = face_mass(r_traces, basis)
        hit("trace_lateral", np.sqrt(h_K) * _ratio_max(Mq, M, Z))
        hit("trace_temporal", np.sqrt(dt_K) * _ratio_max(Mr, M, Z))

        # enriched-space quantities for the H1-style bounds
        Mh = jac * np.einsum("q,qa,qb->ab", wq, BH.values, BH.values)
        Mh_dt = jac * np.einsum("q,qa,qb->ab", wq, BH.grad[:, :, 0], BH.grad[:, :, 0]) / half[0] ** 2
        Mh_gr = sum(
            jac * np.einsum("q,qa,qb->ab", wq, BH.grad[:, :, a], BH.grad[:, :, a]) / half[a] ** 2
            for a in range(1, d1)
        )
        v_n = np.sqrt(np.einsum("ia,ab,ib->i", Zhi, Mh, Zhi))
        dt_n = np.sqrt(np.einsum("ia,ab,ib->i", Zhi, Mh_dt, Zhi))
        gr_n = np.sqrt(np.einsum("ia,ab,ib->i", Zhi, Mh_gr, Zhi))

        q_traces_hi = face_traces(degrees_hi, "Q")
        r_traces_hi = face_traces(degrees_hi, "R")
        for (axis, side, tbv, fjac), hi_item in zip(q_traces + r_traces,
                                                    q_traces_hi + r_traces_hi):
            _, _, tbv_hi, _ = hi_item
            tr_sq = fjac * np.einsum("q,iq->i", frule.weights, (Zhi @ tbv_hi.T) ** 2)
            # these bounds are stated on squared norms, so no square root
            if axis >= 1:
                hit("local_trace_lateral",
                    float(np.max(tr_sq / (v_n**2 / h_K + v_n * gr_n))))
            else:
                hit("local_trace_horizontal",
                    float(np.max(tr_sq / (v_n**2 / dt_K + v_n * dt_n))))

        # quasi-interpolation and projection-gap bounds use the residual of
        # the element-space projection applied to enriched fields
        W = Zhi @ P_hi.T  # projected coefficients in the element space
        res_vol = Zhi @ BH.values.T - W @ BV.values.T  # (ns, nqv)
        res_norm = np.sqrt(jac * np.einsum("q,iq->i", wq, res_vol**2))
        if include_quasi:
            for eps in eps_grid:
                lam = min(1.0, h_K / np.sqrt(eps))
                den = lam * (h_K * np.sqrt(eps) * dt_n + np.sqrt(eps) * gr_n + v_n)
                hit("quasi_interp_volume", float(np.max(res_norm / den)))
            den_g = h_K * dt_n + gr_n  # the eps factors cancel on the faces
            for (axis, side, tbv, fjac), hi_item in zip(q_traces + r_traces,
                                                        q_traces_hi + r_traces_hi):
                _, _, tbv_hi, _ = hi_item
                res_f = Zhi @ tbv_hi.T - W @ tbv.T
                fn = np.sqrt(fjac * np.einsum("q,iq->i", frule.weights, res_f**2))
                if axis >= 1:
                    hit("quasi_interp_lateral", float(np.max(fn / (np.sqrt(h_K) * den_g))))
                else:
                    hit("quasi_interp_horizontal", float(np.max(fn / den_g)))

        # gap between the element projection and the facet projection
        for (axis, side, tbv, fjac), hi_item in zip(q_traces + r_traces,
                                                    q_traces_hi + r_traces_hi):
            _, _, tbv_hi, _ = hi_item
            fb_deg = qdeg if axis >= 1 else rdeg
            fbasis = qb if axis >= 1 else rb
            FBv = fe.get_basis(fb_deg).eval(frule.points).values
            MFf = np.einsum("q,qa,qb->ab", frule.weights, FBv, FBv)
            CF = np.einsum("q,qa,qb->ab", frule.weights, FBv, tbv_hi)
            PF = np.linalg.solve(MFf, CF)  # facet projection of the trace
            gap = W @ tbv.T - (Zhi @ PF.T) @ FBv.T
            gn = np.sqrt(fjac * np.einsum("q,iq->i", frule.weights, gap**2))
            if axis >= 1:
                hit("proj_gap_lateral", float(np.max(gn / (np.sqrt(h_K) * gr_n))))
            else:
                hit("proj_gap_horizontal", float(np.max(gn / (np.sqrt(dt_K) * dt_n))))

    # facet-space inequalities
    for (ext_key, h_key, dt_key), (f, el) in q_shapes.items():
        ext = np.asarray(ext_key)
        half = 0.5 * ext
        jac = float(np.prod(half))
        rule_q = fe.tensor_rule((nq,) * d)
        FB = qb.eval(rule_q.points)
        w = rule_q.weights
        MF = jac * np.einsum("q,qa,qb->ab", w, FB.values, FB.values)
        MFdt = jac * np.einsum("q,qa,qb->ab", w, FB.grad[:, :, 0], FB.grad[:, :, 0]) / half[0] ** 2
        dt_F = float(ext[0])
        hit("facet_time_deriv", dt_F * _ratio_max(MFdt, MF, Zq))
        # edges at the temporal ends of the lateral facet
        for side in (-1.0, 1.0):
            tbv = elem_trace_basis(qdeg, 0, side, (0.0,) * (d - 1), (1.0,) * (d - 1), nq).values
            ejac = float(np.prod(half[1:])) if d > 1 else 1.0
            ew = fe.tensor_rule((nq,) * (d - 1)).weights if d > 1 else np.ones(1)
            Me = ejac * np.einsum("q,qa,qb->ab", ew, tbv, tbv)
            hit("edge_trace_lateral", np.sqrt(dt_F) * _ratio_max(Me, MF, Zq))

    for (ext_key, h_key, dt_key), (f, el) in r_shapes.items():
        ext = np.asarray(ext_key)
        half = 0.5 * ext
        jac = float(np.prod(half))
        rule_f = fe.tensor_rule((nq,) * d)
        FB = rb.eval(rule_f.points)
        w = rule_f.weights
        MF = jac * np.einsum("q,qa,qb->ab", w, FB.values, FB.values)
        MFgr = sum(
            jac * np.einsum("q,qa,qb->ab", w, FB.grad[:, :, a], FB.grad[:, :, a]) / half[a] ** 2
            for a in range(d)
        )
        h_K = float(h_key)
        hit("facet_grad_horizontal", h_K * _ratio_max(MFgr, MF, Zr))
        for a in range(d):
            for side in (-1.0, 1.0):
                tbv = elem_trace_basis(rdeg, a, side, (0.0,) * (d - 1), (1.0,) * (d - 1), nq).values
                free = [ax for ax in range(d) if ax != a]
                ejac = float(np.prod(half[free])) if d > 1 else 1.0
                ew = fe.tensor_rule((nq,) * (d - 1)).weights if d > 1 else np.ones(1)
                Me = ejac * np.einsum("q,qa,qb->ab", ew, tbv, tbv)
                hit("edge_trace_horizontal", np.sqrt(h_K) * _ratio_max(Me, MF, Zr))

    return [ConstantReport(name, level, samples, best[name]) for name in sorted(best)]


def write_constants_csv(path, reports: list[ConstantReport]) -> None:
    with open(path, "w", newline="\n") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(["inequality", "level", "samples", "constant"])
        for r in reports:
            w.writerow([r.inequality, r.level, r.samples, "%.12g" % r.constant])
