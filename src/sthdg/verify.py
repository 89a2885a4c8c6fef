"""Numerical verification of the analysis machinery.

Everything in this module measures; nothing proves.  It covers

* the temporal subgrid (every element split once in time) with the
  restriction of a coarse discrete solution onto it, and the two-level
  assembly, whose fine form restricted to coarse fields is the coarse
  form,
* Galerkin orthogonality of the two-level pair,
* the saturation factor of the weighted time-derivative error,
* the vertex-averaging (Oswald) operator and its jump-based defect bound,
* element and facet bubble functions with their norm-equivalence constants,
* measured best constants of the anisotropic inverse, trace,
  quasi-interpolation and projection-gap inequalities.

Measured constants are reported as `ConstantReport` rows and can be dumped
to a CSV with schema ``inequality,level,samples,constant``.

Entities are addressed by their row of the mesh's element or facet table
(`mesh.etab`, `mesh.ftab`), and per-element results are arrays in that row
order.  The passes read tables that are already built instead of searching
the geometry: the subgrid halves the elements with the mesh's `child_boxes`
and fills the fine mesh's element table directly, a fine element finds its
parent's row by its parent id among the sorted coarse ids (`elem_parent`),
and a fine facet's parent is the coarse facet with the same key over its
elements' parents (its two element rows, or its element and face on the
boundary; one sorted key over the coarse facet table).  Only
`build_subgrid` (its split shape) and `assemble_two_level` (the upwind
constant of its new facets) know that the subgrid halves in time; the
restriction and the saturation pass map each fine element to its coarse
element in one step, evaluating the coarse basis once per distinct
fine-to-coarse affine map, and the saturation pass sums its fine-element
integrals into the coarse elements with `np.bincount`.  Averaging splits
each level's elements into their cells of the finest level with one
`child_boxes` call and numbers the nodes on an integer lattice (per axis,
cell index x degree + local index, with cells placed by the cut coordinates
that touching cells share bitwise); facet jumps take both sides of each
facet from `DofMap.facet_sides`; and the inequality pass tabulates its Gram
matrices and residual norms once on the reference element, face and edge,
and only scales them for each distinct extent that `np.unique` finds in the
element and facet tables.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp

from . import fe
from .assembly import (
    P_T,
    AssembledSystem,
    DofMap,
    _chunks,
    assemble,
    build_dofmap,
    elem_trace_basis,
    facet_rule,
)
from .estimator import regime_weights
from .mesh import ElementTable, SpaceTimeMesh, child_boxes, child_id
from .problem import ProblemSpec
from .solver import solve

# subgrid ids never meet refinement ids; they fix the fine row order, and so the bits of rho
SUBGRID_SALT = 101
QUASI_EPS = (1.0, 1e-2, 1e-4)  # diffusion values of the quasi-interpolation rows


# ----------------------------------------------------------------------
# temporal subgrid
# ----------------------------------------------------------------------


@dataclass
class SubgridPair:
    """A mesh and a refinement of it in which every element is split once.

    For every fine element (fine element-table row), elem_parent is the
    coarse element row it lies in.  For every fine facet (fine facet-table
    row), facet_parent is the coarse facet row it descends from, or -1 for
    a new facet, which lies inside a coarse element.  `build_subgrid` halves
    every element in time, so its new facets are horizontal.
    """

    coarse: SpaceTimeMesh
    fine: SpaceTimeMesh
    elem_parent: np.ndarray  # (n_fine_elements,)
    facet_parent: np.ndarray  # (n_fine_facets,)


def build_subgrid(mesh: SpaceTimeMesh) -> SubgridPair:
    fine = SpaceTimeMesh(
        mesh.d, mesh.x_lo, mesh.x_hi, mesh.slab_times,
        mesh.policy, mesh.dirichlet_lateral,
    )
    # the two halves of every coarse element, coarse ids ascending
    e = mesh.etab
    rows = np.repeat(np.arange(len(e)), 2)
    lo, hi = child_boxes(e.lo, e.hi, (2,) + (1,) * mesh.d)
    ids = child_id(e.id[rows], np.tile([0, 1], len(e)), salt=SUBGRID_SALT)
    fine._set_elements(ElementTable(
        id=ids, level=e.level[rows], slab=e.slab[rows], parent=e.id[rows],
        lo=lo, hi=hi,
    ))

    # facet lineage: two boxes share at most one facet, and a boundary facet
    # is its element's whole face, so a facet's key is its two element rows,
    # or its element and face (axis, side) on the boundary.  A fine facet
    # between the halves of one coarse element is new; any other descends
    # from the coarse facet with its key over its elements' parents
    n = len(e)

    def key(f, owner, neighbor):
        other = np.where(f.neighbor >= 0, neighbor, n + 2 * f.axis + (f.side > 0))
        return np.minimum(owner, other) * (n + 2 * f.lo.shape[1]) + np.maximum(owner, other)

    ff, cf = fine.ftab, mesh.ftab
    parent_row = np.searchsorted(e.id, fine.etab.parent)  # coarse row of each fine row
    po, pn = parent_row[ff.owner], parent_row[ff.neighbor]
    is_new = (ff.neighbor >= 0) & (po == pn)
    if np.count_nonzero(is_new) != n:
        raise RuntimeError("expected exactly one new facet per element")
    coarse_key = key(cf, cf.owner, cf.neighbor)
    order = np.argsort(coarse_key)
    coarse_key = coarse_key[order]
    if np.any(coarse_key[1:] == coarse_key[:-1]):
        raise RuntimeError("two coarse facets share a key")
    fine_key = key(ff, po, pn)
    at = np.minimum(np.searchsorted(coarse_key, fine_key), len(cf) - 1)
    if np.any((coarse_key[at] != fine_key) & ~is_new):
        raise RuntimeError("subgrid facet lacks a parent facet")
    return SubgridPair(mesh, fine, elem_parent=parent_row,
                       facet_parent=np.where(is_new, -1, order[at]))


def _box_affine(parent_lo, parent_hi, child_lo, child_hi):
    """Per-axis affine map child-reference -> parent-reference (x_p = a x_c + b)."""
    hp = 0.5 * (np.asarray(parent_hi) - np.asarray(parent_lo))
    mp = 0.5 * (np.asarray(parent_hi) + np.asarray(parent_lo))
    hc = 0.5 * (np.asarray(child_hi) - np.asarray(child_lo))
    mc = 0.5 * (np.asarray(child_hi) + np.asarray(child_lo))
    return hc / hp, (mc - mp) / hp


def _by_affine_map(scale: np.ndarray, shift: np.ndarray):
    """(rows, scale, shift) of each distinct per-axis affine map among the
    rows of `scale` and `shift`, so that each map is evaluated once."""
    k = scale.shape[1]
    maps, which = np.unique(np.hstack((scale, shift)), axis=0, return_inverse=True)
    which = which.reshape(-1)
    for j, m in enumerate(maps):
        yield np.flatnonzero(which == j), m[:k], m[k:]


def restriction_matrix(pair: SubgridPair, dm_c: DofMap, dm_f: DofMap) -> sp.csr_matrix:
    """Transfer of a coarse solution vector onto the subgrid.

    Each fine element takes the field of its coarse element, re-expressed
    on itself; a descended facet takes the field of its coarse facet, and a
    new facet the trace of its coarse element's field, the facet's frozen
    coordinate held fixed along the facet's own axis.
    """
    rows, cols, vals = [], [], []

    def put(basis, ref, scale, shift, row_dof, col_dof):
        # one block per row of scale/shift, `basis` at ref * scale + shift,
        # into rows row_dof + [0, len(ref)) and columns col_dof + [0, n_basis)
        for sel, a, b in _by_affine_map(scale, shift):
            block = basis.eval(ref * a + b).values
            r, c, v = np.broadcast_arrays(row_dof[sel, None, None] + np.arange(len(ref))[:, None],
                                          col_dof[sel, None, None] + np.arange(block.shape[1]),
                                          block)
            rows.append(r.ravel())
            cols.append(c.ravel())
            vals.append(v.ravel())

    ebasis = fe.get_basis(dm_c.elem_degrees)
    nb = dm_c.n_elem_basis
    d1 = pair.coarse.d + 1
    clo, chi = pair.coarse.etab.lo, pair.coarse.etab.hi
    up = pair.elem_parent
    put(ebasis, ebasis.nodes, *_box_affine(clo[up], chi[up], pair.fine.etab.lo, pair.fine.etab.hi),
        np.arange(len(up)) * nb, up * nb)

    ff, cf = pair.fine.ftab, pair.coarse.ftab
    parent = pair.facet_parent
    for axis in range(d1):
        fb = fe.get_basis(dm_f.facet_degrees(axis))
        fine = np.flatnonzero((ff.axis == axis) & (parent >= 0))
        free = [a for a in range(d1) if a != axis]
        p = parent[fine]
        scale, shift = _box_affine(cf.lo[p][:, free], cf.hi[p][:, free],
                                   ff.lo[fine][:, free], ff.hi[fine][:, free])
        put(fb, fb.nodes, scale, shift, dm_f.facet_dof[fine], dm_c.facet_dof[p])
        # the coarse element's trace: the facet is flat along `axis`, so
        # its frozen reference coordinate is the shift
        new = np.flatnonzero((ff.axis == axis) & (parent < 0))
        host = up[ff.owner[new]]
        put(ebasis, np.insert(fb.nodes, axis, 0.0, axis=1),
            *_box_affine(clo[host], chi[host], ff.lo[new], ff.hi[new]),
            dm_f.facet_dof[new], host * nb)

    G = sp.coo_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(dm_f.n_dofs, dm_c.n_dofs),
    )
    return G.tocsr()


def assemble_two_level(
    spec: ProblemSpec, pair: SubgridPair, p_s: int
) -> tuple[AssembledSystem, AssembledSystem]:
    sys_c = assemble(spec, pair.coarse, p_s)
    # descended facets inherit the parent's upwind constant so the subgrid
    # form restricted to coarse fields agrees exactly with the coarse form;
    # the new horizontal facets have unit temporal normal
    inherited = np.where(pair.facet_parent >= 0, sys_c.beta_sup[pair.facet_parent], 1.0)
    sys_f = assemble(spec, pair.fine, p_s, beta_sup=inherited)
    return sys_c, sys_f


@dataclass
class OrthogonalityReport:
    residual: float  # max over coarse test dofs of the two-level form defect
    relative: float  # residual over the larger of max |b| and max |A| max |x|
    n_coarse_dofs: int
    n_fine_dofs: int


def check_galerkin_orthogonality(
    spec: ProblemSpec, mesh: SpaceTimeMesh, p_s: int,
) -> OrthogonalityReport:
    """Measure a(u_fine - restricted u_coarse, restricted test) over all
    unconstrained coarse test functions; zero up to roundoff when the
    restriction reproduces the coarse form."""
    pair = build_subgrid(mesh)
    sys_c, sys_f = assemble_two_level(spec, pair, p_s)
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
        residual=residual, relative=residual / scale,
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
) -> SaturationReport:
    """rho = sqrt(sum_K tau ||dt(u - u_fine)||^2 / sum_K tau ||dt(u - u_coarse)||^2),
    both sums over the coarse elements with the coarse regime weights.  Both
    errors are integrated on the fine elements (one coarse basis evaluation
    per distinct fine-to-coarse affine map) and added to their coarse ones."""
    pair = build_subgrid(mesh)
    sys_c, sys_f = assemble_two_level(spec, pair, p_s)
    x_c, _ = solve(sys_c)
    x_f, _ = solve(sys_f)
    dm_c, dm_f = sys_c.dofmap, sys_f.dofmap
    nb = dm_c.n_elem_basis
    coef_c = x_c[: dm_c.n_elem_dofs].reshape(-1, nb)
    coef_f = x_f[: dm_f.n_elem_dofs].reshape(-1, nb)
    _, tau = regime_weights(dm_c, spec.eps)
    d1 = mesh.d + 1
    rule = fe.tensor_rule((sys_c.quad_n + 2,) * d1)
    basis = fe.get_basis(dm_c.elem_degrees)
    dt_ref = basis.eval(rule.points).grad[:, :, 0]
    up = pair.elem_parent
    clo, chi = mesh.etab.lo[up], mesh.etab.hi[up]
    flo, fhi = pair.fine.etab.lo, pair.fine.etab.hi
    sq = np.empty((3, len(up)))  # fine error, coarse error, exact, per fine element
    for group, a, b in _by_affine_map(*_box_affine(clo, chi, flo, fhi)):
        dt_ref_c = basis.eval(rule.points * a + b).grad[:, :, 0]
        for sl in _chunks(len(group)):  # keeps the point arrays of large meshes small
            rows = group[sl]
            half = 0.5 * (fhi[rows] - flo[rows])
            phys = 0.5 * (flo[rows] + fhi[rows])[:, None, :] + half[:, None, :] * rule.points
            dt_ex = spec.exact_jet(phys.reshape(-1, d1))[1].reshape(len(rows), -1)
            dt_c = coef_c[up[rows]] @ dt_ref_c.T / (0.5 * (chi[rows, :1] - clo[rows, :1]))
            dt_f = coef_f[rows] @ dt_ref.T / half[:, :1]
            jac = np.prod(half, axis=1)
            for k, v in enumerate((dt_ex - dt_f, dt_ex - dt_c, dt_ex)):
                sq[k, rows] = jac * (v**2 @ rule.weights)
    sq = np.array([np.bincount(up, weights=w, minlength=len(mesh.etab)) for w in sq])
    num, den, ref = sq @ tau
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
class AveragingResult:
    """The averaged field on the conforming cells, and its defect per
    original element (element-table order)."""

    cell_lo: np.ndarray  # (n_cells, d+1)
    cell_hi: np.ndarray
    cell_values: np.ndarray  # nodal coefficients of the averaged field
    defect: np.ndarray  # ||v - averaged v||_K
    continuity: float  # max trace mismatch sampled across shared cell faces
    n_nodes: int


def averaging_operator(mesh: SpaceTimeMesh, p_s: int, elem_coeffs: np.ndarray) -> AveragingResult:
    """Continuous reconstruction of a discontinuous element field.

    The field is first re-expressed on the coarsest conforming refinement
    (every element split into its cells of the globally finest level, by
    the power of `mesh.split` that spans the levels between; face
    conformity propagates through the whole connected box mesh), then each
    node of that refinement receives the arithmetic mean of the values from
    its incident cells.  Nodes on the Dirichlet part of the lateral boundary
    are set to zero.  elem_coeffs holds the per-element nodal coefficients
    laid out in the row order of `mesh.etab`; the cells come grouped by
    their element's level.
    """
    dm = build_dofmap(mesh, p_s)
    if elem_coeffs.shape != (dm.n_elem_dofs,):
        raise ValueError("element coefficient vector has wrong length")
    basis = fe.get_basis(dm.elem_degrees)
    coef = elem_coeffs.reshape(-1, dm.n_elem_basis)
    d1 = mesh.d + 1

    # every element's cells at the common finest level: an element `n`
    # levels above it splits by the n-th power of the mesh's split shape
    level = mesh.etab.level
    cells = []
    for lev in np.unique(level):
        rows = np.flatnonzero(level == lev)
        parts = [s ** int(level.max() - lev) for s in mesh.split]
        cells.append((np.repeat(rows, math.prod(parts)),
                      *child_boxes(mesh.etab.lo[rows], mesh.etab.hi[rows], parts)))
    parent, lo, hi = (np.concatenate(c) for c in zip(*cells))

    # lattice index of every cell: refinement only halves coordinates, so
    # touching cells share their cut coordinates bitwise
    index = np.empty(lo.shape, dtype=np.intp)
    shape = []
    for a in range(d1):
        cuts = np.unique(np.concatenate((lo[:, a], hi[:, a])))
        index[:, a] = np.searchsorted(cuts, lo[:, a])
        if np.any(np.searchsorted(cuts, hi[:, a]) != index[:, a] + 1):
            raise RuntimeError("conforming cell spans several lattice intervals")
        shape.append(len(cuts) - 1)
    cell_hits = np.bincount(np.ravel_multi_index(index.T, shape),
                            minlength=int(np.prod(shape)))
    if np.any(cell_hits != 1):
        raise RuntimeError("conforming cells do not tile the lattice once")

    # node index per axis: cell lattice index x degree + local index
    deg = np.array(dm.elem_degrees)
    node_shape = tuple(np.array(shape) * deg + 1)
    local = index[:, None, :] * deg + basis.multi_indices[None, :, :]
    nodes = np.ravel_multi_index(local.reshape(-1, d1).T, node_shape).reshape(len(parent), -1)

    # the parent polynomial at each cell's nodes and at volume quadrature
    # points, one basis evaluation per distinct parent-to-cell map
    rule = fe.tensor_rule((p_s + 2,) * d1)
    elo, ehi = mesh.etab.lo, mesh.etab.hi
    vals = np.empty(nodes.shape)
    v_orig = np.empty((len(parent), len(rule.weights)))
    for rows, a, b in _by_affine_map(*_box_affine(elo[parent], ehi[parent], lo, hi)):
        c = coef[parent[rows]]
        vals[rows] = c @ basis.eval(basis.nodes * a + b).values.T
        v_orig[rows] = c @ basis.eval(rule.points * a + b).values.T

    n_nodes = int(np.prod(node_shape))
    counts = np.bincount(nodes.reshape(-1), minlength=n_nodes)
    if np.any(counts == 0):
        raise RuntimeError("conforming node identification failed: lattice node without a cell")
    node_val = np.bincount(nodes.reshape(-1), weights=vals.reshape(-1),
                           minlength=n_nodes) / counts
    if mesh.dirichlet_lateral:
        wall = np.zeros(node_shape, dtype=bool)
        for a in range(1, d1):
            wall[(slice(None),) * a + (0,)] = True
            wall[(slice(None),) * a + (-1,)] = True
        node_val[wall.reshape(-1)] = 0.0
    cell_vals = node_val[nodes]

    # measured continuity across shared cell faces (exercises the node merge)
    grid = np.empty(shape, dtype=np.intp)
    grid[tuple(index.T)] = np.arange(len(parent))
    frule = facet_rule(mesh.d, p_s + 2)
    continuity = 0.0
    for axis in range(d1):
        if shape[axis] < 2:
            continue
        pts = np.insert(frule.points, axis, 1.0, axis=1)
        on_hi_face = basis.eval(pts).values
        pts[:, axis] = -1.0
        on_lo_face = basis.eval(pts).values
        below = np.take(grid, range(shape[axis] - 1), axis=axis).reshape(-1)
        above = np.take(grid, range(1, shape[axis]), axis=axis).reshape(-1)
        gap = cell_vals[below] @ on_hi_face.T - cell_vals[above] @ on_lo_face.T
        continuity = max(continuity, float(np.max(np.abs(gap))))

    # defect per original element
    v_avg = cell_vals @ basis.eval(rule.points).values.T
    jac = np.prod(0.5 * (hi - lo), axis=1)
    defect_sq = np.bincount(parent, weights=jac * ((v_orig - v_avg) ** 2 @ rule.weights),
                            minlength=len(mesh.etab))
    return AveragingResult(cell_lo=lo, cell_hi=hi, cell_values=cell_vals,
                           defect=np.sqrt(defect_sq), continuity=continuity, n_nodes=n_nodes)


@dataclass
class OswaldReport:
    """Averaging defect and jump bound per element (element-table order)."""

    defect: np.ndarray
    bound: np.ndarray
    constant: float  # max defect / bound over elements with a resolvable bound


def oswald_constant(mesh: SpaceTimeMesh, p_s: int, elem_coeffs: np.ndarray) -> OswaldReport:
    """Measured constant of the averaging defect bound: per element, the
    defect is compared against sqrt(h)-weighted lateral jumps plus
    sqrt(dt)-weighted horizontal jumps over the interior facets whose
    closure touches the element."""
    avg = averaging_operator(mesh, p_s, elem_coeffs)
    dm = build_dofmap(mesh, p_s)
    fs = dm.facet_sides
    nq = p_s + 2
    coef = elem_coeffs.reshape(-1, dm.n_elem_basis)

    # L2 norm over each interior facet of the two-sided element value gap:
    # the two sides of a facet have opposite normal signs
    rule = facet_rule(mesh.d, nq)
    nf = len(mesh.ftab)
    gap = np.zeros((nf, len(rule.weights)))
    jac = np.zeros(nf)
    interior = np.zeros(nf, dtype=bool)
    for g in fs.groups:
        if g.boundary is None:
            tb = elem_trace_basis(dm.elem_degrees, g.axis, g.sign, g.alphas, g.betas, nq)
            np.add.at(gap, g.facet, g.sign * (coef[g.elem] @ tb.values.T))
            jac[g.facet] = g.jacF
            interior[g.facet] = True
    jump = np.sqrt(jac[interior] * (gap[interior] ** 2 @ rule.weights))
    is_Q = fs.axis[interior] >= 1
    flo, fhi = mesh.ftab.lo[interior], mesh.ftab.hi[interior]

    elo, ehi = mesh.etab.lo, mesh.etab.hi
    bound = np.zeros(len(mesh.etab))
    step = max(1, (1 << 20) // max(1, len(jump)))  # about 1M element-facet pairs a chunk
    for s in range(0, len(bound), step):
        sl = slice(s, s + step)
        # coordinates are shared bitwise, so closures touch exactly
        touch = np.all((flo <= ehi[sl, None]) & (elo[sl, None] <= fhi), axis=2)
        bound[sl] = (np.sqrt(dm.elem_h[sl]) * (touch[:, is_Q] @ jump[is_Q])
                     + np.sqrt(ehi[sl, 0] - elo[sl, 0]) * (touch[:, ~is_Q] @ jump[~is_Q]))
    # bounds at roundoff of the field's size are not resolvable; a relative
    # cut keeps the measured ratio independent of the field's scale
    ok = bound > 1e-12 * float(np.max(np.abs(elem_coeffs), initial=0.0))
    worst = float(np.max(avg.defect[ok] / bound[ok])) if ok.any() else 0.0
    return OswaldReport(defect=avg.defect, bound=bound, constant=worst)


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


def _gram(w: np.ndarray, A: np.ndarray, B: np.ndarray | None = None) -> np.ndarray:
    """sum_q w_q A_qa B_qb: the weighted Gram matrix of the columns of A
    against those of B (default A)."""
    return np.einsum("q,qa,qb->ab", w, A, A if B is None else B)


def _qform(Z: np.ndarray, A: np.ndarray) -> np.ndarray:
    """z^T A z for every row z of Z."""
    return np.einsum("ia,ab,ib->i", Z, A, Z)


def bubble_constants(
    p_s: int, kappa: float = 1.0, samples: int = 200,
    d: int = 2, seed: int = 0, level: int = 0,
    box: tuple[np.ndarray, np.ndarray] | None = None,
) -> list[ConstantReport]:
    """Norm-equivalence constants of the bubble-weighted inner products.

    The element rows come first: c1 with ||psi v|| <= c1 ||v|| and c2 with
    c2 ||v||^2 <= (v, psi v), over the element polynomial space on `box`
    (default the reference element).  The facet rows follow: the face-norm
    analogues plus the volume and gradient bounds of the squeezed bubble
    against sqrt(kappa)-scaled face norms.

    The reported constants are the exact extremes of the corresponding
    Rayleigh quotients (generalized eigenvalues); `samples` random fields
    are drawn as a cross-check and must fall inside the eigenvalue range.
    The element and the facet draws each start afresh from `seed`.
    """
    reports: list[ConstantReport] = []
    degrees = (P_T,) + (p_s,) * d
    nq = max(degrees) + 2 ** (d + 1) + 2
    rule = fe.tensor_rule((nq,) * (d + 1))
    basis = fe.get_basis(degrees)
    BV = basis.eval(rule.points).values
    psi = element_bubble(d)(rule.points)
    w = rule.weights
    if box is not None:
        w = w * fe.box_jacobian(*box)
    M, Mpsi, Mpsi2 = _gram(w, BV), _gram(w * psi, BV), _gram(w * psi**2, BV)
    c2_lo, c2_hi = _sym_eig_bounds(Mpsi, M)
    c1_lo, c1_hi = _sym_eig_bounds(Mpsi2, M)
    Z = np.random.default_rng(seed).standard_normal((samples, basis.n_basis))
    r_c2 = _qform(Z, Mpsi) / _qform(Z, M)
    if np.any(r_c2 < c2_lo - 1e-10) or np.any(r_c2 > c2_hi + 1e-10):
        raise RuntimeError("sampled bubble ratios escape the eigenvalue range")
    reports.append(ConstantReport("bubble_elem_c1", level, samples, np.sqrt(c1_hi)))
    reports.append(ConstantReport("bubble_elem_c2", level, samples, c2_lo))

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
    MF, MpsiF = _gram(w, FB.values), _gram(w * psiF, FB.values)
    Mpsi2F = _gram(w * psiF**2, FB.values)
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
        grad_form = grad_form + int_p2 * _gram(w, U)
    vol_form = int_p2 * Mpsi2F
    _, vol_hi = _sym_eig_bounds(vol_form, MF)
    _, grad_hi = _sym_eig_bounds(grad_form, MF)

    Z = np.random.default_rng(seed).standard_normal((samples, tb.n_basis))
    r_c2 = _qform(Z, MpsiF) / _qform(Z, MF)
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
    return float(np.sqrt(np.max(_qform(Z, num_form) / _qform(Z, den_form))))


def _sq_norms(w: np.ndarray, V: np.ndarray) -> np.ndarray:
    """sum_q w_q V_iq^2 for every row i of V."""
    return np.einsum("q,iq->i", w, V**2)


def _box_faces(degrees: tuple[int, ...], axes, nq: int) -> list[tuple[int, np.ndarray]]:
    """(axis, basis values) on the two faces of the reference box normal to
    each of `axes`, side -1 first, at the face Gauss points of `nq` per axis."""
    n = len(degrees) - 1
    return [(a, elem_trace_basis(degrees, a, side, (0.0,) * n, (1.0,) * n, nq).values)
            for a in axes for side in (-1.0, 1.0)]


def inequality_constants(
    mesh: SpaceTimeMesh, p_s: int, samples: int = 200, seed: int = 0, level: int = 0,
) -> list[ConstantReport]:
    """Measured best constants of the anisotropic inverse/trace inequalities,
    the local trace bounds, the quasi-interpolation estimates and the
    element-vs-facet projection gap, maximized over random fields and all
    element and facet shapes of the mesh.

    Everything that does not depend on the shape is tabulated once on the
    reference element, face and edge: the Gram matrices of the bases and
    their traces, and the squared norms of the random fields' traces and
    projection residuals.  Each shape only scales these by its
    half-extents.  Quasi-interpolation rows appear only when the mesh
    satisfies the parabolic scaling dt <= 4 h^2 elementwise.
    """
    d = mesh.d
    d1 = d + 1
    degrees = (P_T,) + (p_s,) * d
    degrees_hi = (P_T + 1,) + (p_s + 1,) * d
    qdeg = (P_T,) + (p_s,) * (d - 1)  # lateral facets
    rdeg = (p_s,) * d  # horizontal facets

    # one deterministic batch per space, shared across shapes and levels
    rng = np.random.default_rng(seed)
    Z, Zhi, Zq, Zr = [rng.standard_normal((samples, fe.get_basis(g).n_basis))
                      for g in (degrees, degrees_hi, qdeg, rdeg)]

    nq = max(P_T + 1, p_s + 1) + 2
    vol = fe.tensor_rule((nq,) * d1)
    face = fe.tensor_rule((nq,) * d)
    w_edge = fe.tensor_rule((nq,) * (d - 1)).weights
    wv, wf = vol.weights, face.weights

    # reference element: Gram matrices of the element space (values and each
    # derivative), of the enriched space, and the residual of the
    # element-space projection applied to the enriched fields
    BV = fe.get_basis(degrees).eval(vol.points)
    BH = fe.get_basis(degrees_hi).eval(vol.points)
    M_ref, H_ref = _gram(wv, BV.values), _gram(wv, BH.values)
    G = [_gram(wv, BV.grad[:, :, a]) for a in range(d1)]
    GH = [_gram(wv, BH.grad[:, :, a]) for a in range(d1)]
    P_hi = np.linalg.solve(M_ref, _gram(wv, BV.values, BH.values))  # (nb, nb_hi)
    W = Zhi @ P_hi.T  # projected coefficients in the element space
    res_sq = _sq_norms(wv, Zhi @ BH.values.T - W @ BV.values.T)

    # reference faces: the trace Gram matrix, and per enriched field the
    # squared norms of its trace, of its projection residual and of the gap
    # between the element projection and the facet projection of its trace
    faces = []
    for (axis, tr), (_, tr_hi) in zip(_box_faces(degrees, range(d1), nq),
                                      _box_faces(degrees_hi, range(d1), nq)):
        FBv = fe.get_basis(qdeg if axis >= 1 else rdeg).eval(face.points).values
        PF = np.linalg.solve(_gram(wf, FBv), _gram(wf, FBv, tr_hi))
        T_hi, T_W = Zhi @ tr_hi.T, W @ tr.T  # traces of the fields and of their projections
        faces.append((axis, _gram(wf, tr), _sq_norms(wf, T_hi), _sq_norms(wf, T_hi - T_W),
                      _sq_norms(wf, T_W - (Zhi @ PF.T) @ FBv.T)))

    best: dict[str, float] = {}

    def hit(name: str, value: float):
        if np.isfinite(value):
            best[name] = max(best.get(name, 0.0), value)

    # an element shape is its extents rounded to 14 decimals, with dt and h
    # taken from the first element row that has it
    e = mesh.etab
    ext = e.hi - e.lo
    h_el = np.max(ext[:, 1:], axis=1)
    quasi = bool(np.all(ext[:, 0] <= 4.0 * h_el**2 + 1e-14))
    shapes, first = np.unique(np.round(ext, 14), axis=0, return_index=True)
    for dims, row in zip(shapes, first):
        half = 0.5 * dims
        jac = float(np.prod(half))
        dt_K, h_K = float(ext[row, 0]), float(h_el[row])
        fjac = [float(np.prod(np.delete(half, axis))) for axis, *_ in faces]

        M = jac * M_ref
        Mdt = jac * G[0] / half[0] ** 2
        Mgr = sum(jac * G[a] / half[a] ** 2 for a in range(1, d1))
        hit("inv_time_deriv", dt_K * _ratio_max(Mdt, M, Z))
        hit("inv_space_grad", h_K * _ratio_max(Mgr, M, Z))

        # whole lateral / horizontal boundary of the element
        Mq = sum(fj * gram for fj, (axis, gram, *_) in zip(fjac, faces) if axis >= 1)
        Mr = sum(fj * gram for fj, (axis, gram, *_) in zip(fjac, faces) if axis == 0)
        hit("trace_lateral", np.sqrt(h_K) * _ratio_max(Mq, M, Z))
        hit("trace_temporal", np.sqrt(dt_K) * _ratio_max(Mr, M, Z))

        # enriched-space norms for the H1-style bounds
        v_n = np.sqrt(_qform(Zhi, jac * H_ref))
        dt_n = np.sqrt(_qform(Zhi, jac * GH[0] / half[0] ** 2))
        gr_n = np.sqrt(_qform(Zhi, sum(jac * GH[a] / half[a] ** 2 for a in range(1, d1))))
        if quasi:
            res_norm = np.sqrt(jac * res_sq)
            for eps in QUASI_EPS:
                lam = min(1.0, h_K / np.sqrt(eps))
                den = lam * (h_K * np.sqrt(eps) * dt_n + np.sqrt(eps) * gr_n + v_n)
                hit("quasi_interp_volume", float(np.max(res_norm / den)))
        den_g = h_K * dt_n + gr_n  # the eps factors cancel on the faces

        # the trace bounds are stated on squared norms, so no square root
        for fj, (axis, _, tr_sq, quasi_sq, gap_sq) in zip(fjac, faces):
            where, s, s_n, q_scale = (("lateral", h_K, gr_n, np.sqrt(h_K)) if axis >= 1
                                      else ("horizontal", dt_K, dt_n, 1.0))
            hit(f"local_trace_{where}", float(np.max(fj * tr_sq / (v_n**2 / s + v_n * s_n))))
            if quasi:
                hit(f"quasi_interp_{where}",
                    float(np.max(np.sqrt(fj * quasi_sq) / (q_scale * den_g))))
            hit(f"proj_gap_{where}", float(np.max(np.sqrt(fj * gap_sq) / (np.sqrt(s) * s_n))))

    # a facet shape is its free extents rounded to 14 decimals, and for a
    # horizontal facet also its owner's h (rounded alike)
    f = mesh.ftab
    free = np.array([[b for b in range(d1) if b != a] for a in range(d1)])
    f_ext = np.round(np.take_along_axis(f.hi - f.lo, free[f.axis], 1), 14)

    # lateral facets: time derivative and the edges at their temporal ends
    FQ = fe.get_basis(qdeg).eval(face.points)
    MQ_ref, GQ_dt = _gram(wf, FQ.values), _gram(wf, FQ.grad[:, :, 0])
    q_edges = [_gram(w_edge, tr) for _, tr in _box_faces(qdeg, (0,), nq)]
    for dims in np.unique(f_ext[f.axis >= 1], axis=0):
        half = 0.5 * dims
        jac = float(np.prod(half))
        MF = jac * MQ_ref
        dt_F = float(dims[0])
        hit("facet_time_deriv", dt_F * _ratio_max(jac * GQ_dt / half[0] ** 2, MF, Zq))
        for Me in q_edges:
            hit("edge_trace_lateral",
                np.sqrt(dt_F) * _ratio_max(float(np.prod(half[1:])) * Me, MF, Zq))

    # horizontal facets: spatial gradient and the edges of every spatial axis
    FR = fe.get_basis(rdeg).eval(face.points)
    MR_ref = _gram(wf, FR.values)
    GR = [_gram(wf, FR.grad[:, :, a]) for a in range(d)]
    r_edges = [(a, _gram(w_edge, tr)) for a, tr in _box_faces(rdeg, range(d), nq)]
    hor = np.unique(np.column_stack((f_ext, h_el[f.owner]))[f.axis == 0], axis=0)
    for dims, h in zip(hor[:, :d], hor[:, d]):
        half = 0.5 * dims
        jac = float(np.prod(half))
        MF = jac * MR_ref
        h_K = round(float(h), 14)
        hit("facet_grad_horizontal",
            h_K * _ratio_max(sum(jac * GR[a] / half[a] ** 2 for a in range(d)), MF, Zr))
        for a, Me in r_edges:
            hit("edge_trace_horizontal",
                np.sqrt(h_K) * _ratio_max(float(np.prod(np.delete(half, a))) * Me, MF, Zr))

    return [ConstantReport(name, level, samples, best[name]) for name in sorted(best)]


def write_constants_csv(path, reports: list[ConstantReport]) -> None:
    with open(path, "w", newline="\n") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(["inequality", "level", "samples", "constant"])
        for r in reports:
            w.writerow([r.inequality, r.level, r.samples, "%.12g" % r.constant])
