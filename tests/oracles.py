"""Independent reference implementations used only by the tests.

Everything here reimplements the discrete operators with a different
numerical path than the package: nodal basis functions are evaluated by
solving monomial Vandermonde systems (the package uses Lagrange polynomial
objects), quadrature runs at double order, assembly is plain dense loops
with no batching, and facet data (sup |beta.n|, normals, jacobians) is
recomputed from the geometry.  Problem data come from sympy derivatives of
an exact solution (`from_symbolic`) or from finite differences.  Agreement
is therefore evidence, not tautology.

The package addresses elements and facets by table row; the oracles build
their own per-entity records (`Element`, `Facet`, keyed by id) from the
mesh tables and look dofs up by id.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import networkx as nx
import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from sthdg.assembly import P_T, build_dofmap, elem_trace_basis, facet_rule
from sthdg.fe import get_basis, lobatto_nodes
from sthdg.mesh import BOUNDARIES, SpaceTimeMesh
from sthdg.problem import _JET_BLOCK, ProblemSpec


# ----------------------------------------------------------------------
# per-entity records built from the mesh tables
# ----------------------------------------------------------------------


@dataclass(frozen=True)
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


@dataclass(frozen=True)
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


def elements(mesh: SpaceTimeMesh) -> dict[int, Element]:
    e = mesh.etab
    return {
        eid: Element(eid, lev, lo, hi, slab, par, ci)
        for eid, lev, lo, hi, slab, par, ci in zip(
            e.id.tolist(), e.level.tolist(), e.lo, e.hi, e.slab.tolist(),
            e.parent.tolist(), e.child_index.tolist())
    }


def facets(mesh: SpaceTimeMesh) -> dict[int, Facet]:
    f, ids = mesh.ftab, mesh.etab.id.tolist()
    return {
        fid: Facet(fid, ax, float(lo[ax]), lo, hi, ids[own], side,
                   None if nb < 0 else ids[nb], BOUNDARIES[b])
        for fid, ax, lo, hi, own, side, nb, b in zip(
            f.id.tolist(), f.axis.tolist(), f.lo, f.hi, f.owner.tolist(),
            f.side.tolist(), f.neighbor.tolist(), f.boundary.tolist())
    }


def omega_K(mesh: SpaceTimeMesh, eid: int) -> set[int]:
    """Face neighbors: elements sharing a facet with K."""
    return {k for f in facets(mesh).values() if eid in (f.owner, f.neighbor)
            for k in (f.owner, f.neighbor)} - {eid, None}


def elem_dofs(dm, eid: int) -> np.ndarray:
    i = int(np.searchsorted(dm.mesh.etab.id, eid))
    assert dm.mesh.etab.id[i] == eid
    return np.arange(i * dm.n_elem_basis, (i + 1) * dm.n_elem_basis)


def facet_dofs(dm, fid: int) -> np.ndarray:
    i = int(np.searchsorted(dm.mesh.ftab.id, fid))
    assert dm.mesh.ftab.id[i] == fid
    end = dm.facet_dof[i + 1] if i + 1 < len(dm.facet_dof) else dm.n_dofs
    return np.arange(dm.facet_dof[i], end)


def trace_map(f: Facet, el: Element) -> tuple[float, tuple[float, ...], tuple[float, ...]]:
    """Affine map from facet reference coords to element reference coords.

    Returns (fixed, alphas, betas): the element ref coordinate along the
    facet's frozen axis is `fixed` (+-1), and along the i-th free axis it is
    alphas[i] + betas[i] * xhat_facet[i].
    """
    free = f.free_axes()
    half_el = 0.5 * (el.hi - el.lo)
    mid_el = 0.5 * (el.hi + el.lo)
    half_f = 0.5 * (f.hi - f.lo)
    mid_f = 0.5 * (f.hi + f.lo)
    alphas = tuple((mid_f[a] - mid_el[a]) / half_el[a] for a in free)
    betas = tuple(half_f[a] / half_el[a] for a in free)
    fixed = (f.coord - mid_el[f.axis]) / half_el[f.axis]
    return float(np.sign(fixed)), alphas, betas


# ----------------------------------------------------------------------
# scalar regime weights and the per-entity local efficiency
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class RegimeWeights:
    regime: str  # 'd' (diffusive), 'x' (mixed), 'c' (convective)
    eps_tilde: float
    tau_eps: float
    lambda_K: float


def regime_and_weights(el: Element, slab_height: float, eps: float) -> RegimeWeights:
    """Classify an element against eps and return the norm weights."""
    dt, h = el.dt, el.h
    if dt <= eps and h <= eps:
        regime, et = "d", 1.0
    elif dt <= eps < h:
        regime, et = "x", math.sqrt(eps)
    else:
        regime, et = "c", eps
    return RegimeWeights(
        regime=regime, eps_tilde=et, tau_eps=slab_height * et,
        lambda_K=min(1.0, el.h / math.sqrt(eps)),
    )


def slab_height(mesh: SpaceTimeMesh, el: Element) -> float:
    return mesh.slab_times[el.slab + 1] - mesh.slab_times[el.slab]


def oracle_local_efficiency(sys, est, nb) -> dict[int, float]:
    """Per-element ratio of eta^K to the patch-weighted local error norm,
    one patch (K and omega_K) at a time."""
    mesh = sys.dofmap.mesh
    eps = sys.spec.eps
    els = elements(mesh)
    eidx = {eid: i for i, eid in enumerate(mesh.etab.id.tolist())}
    local_sT = nb.local_sT()
    out = {}
    for eid, i in eidx.items():
        patch = set(omega_K(mesh, eid)) | {eid}
        denom = 0.0
        for pid in patch:
            el = els[pid]
            rw = regime_and_weights(el, slab_height(mesh, el), eps)
            denom += eps ** -0.5 * rw.eps_tilde ** -0.5 * local_sT[eidx[pid]]
        denom += est.osc_K[i] + est.osc_N[i]
        out[eid] = est.eta_K[i] / denom if denom > 0 else math.nan
    return out


def gauss(n: int) -> tuple[np.ndarray, np.ndarray]:
    return np.polynomial.legendre.leggauss(n)


# ----------------------------------------------------------------------
# monomial-path nodal basis evaluation
# ----------------------------------------------------------------------


def _axis_matrices(p: int, lo: float, hi: float, coords: np.ndarray):
    """Value/derivative/second matrices of the 1d nodal basis at physical
    coordinates, via monomial coefficients from a Vandermonde solve."""
    nodes = lobatto_nodes(p) if p >= 1 else np.array([0.0])
    C = np.linalg.solve(np.vander(nodes, p + 1, increasing=True), np.eye(p + 1))
    half = 0.5 * (hi - lo)
    r = (coords - 0.5 * (hi + lo)) / half
    V = np.vander(r, p + 1, increasing=True)
    j = np.arange(p + 1)
    D = np.zeros_like(V)
    D[:, 1:] = V[:, :-1] * j[1:]
    S = np.zeros_like(V)
    S[:, 2:] = V[:, :-2] * (j[2:] * (j[2:] - 1))
    return V @ C, (D @ C) / half, (S @ C) / half**2


def _rowkron(mats: list[np.ndarray]) -> np.ndarray:
    out = mats[0]
    for m in mats[1:]:
        out = (out[:, :, None] * m[:, None, :]).reshape(out.shape[0], -1)
    return out


def box_basis(lo, hi, degrees, pts):
    """values, d/dx_a, d2/dx_a^2 of the tensor nodal basis at physical pts.

    Multi-index enumeration is C order with axis 0 slowest, matching the
    package's coefficient layout.
    """
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    k = len(degrees)
    per_axis = [_axis_matrices(degrees[a], lo[a], hi[a], pts[:, a]) for a in range(k)]
    vals = _rowkron([per_axis[a][0] for a in range(k)])
    grads = []
    seconds = []
    for a in range(k):
        grads.append(_rowkron(
            [per_axis[c][1] if c == a else per_axis[c][0] for c in range(k)]))
        seconds.append(_rowkron(
            [per_axis[c][2] if c == a else per_axis[c][0] for c in range(k)]))
    return vals, grads, seconds


def box_quad(lo, hi, npts: int):
    """Tensor Gauss rule mapped to the physical box; C-order points."""
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    k = len(lo)
    xs, ws = [], []
    for a in range(k):
        x, w = gauss(npts)
        half = 0.5 * (hi[a] - lo[a])
        xs.append(0.5 * (hi[a] + lo[a]) + half * x)
        ws.append(half * w)
    grids = np.meshgrid(*xs, indexing="ij")
    pts = np.column_stack([g.reshape(-1) for g in grids])
    w = np.ones(1)
    for w1 in ws:
        w = np.multiply.outer(w, w1).reshape(-1)
    return pts, w


def _facet_geometry(mesh: SpaceTimeMesh, f, npts: int):
    """Quadrature on a facet plane plus its corner points (for sup beta.n)."""
    free = [a for a in range(mesh.d + 1) if a != f.axis]
    if free:
        pts_f, w = box_quad(f.lo[free], f.hi[free], npts)
    else:
        pts_f, w = np.zeros((1, 0)), np.ones(1)
    pts = np.empty((pts_f.shape[0], mesh.d + 1))
    pts[:, f.axis] = f.coord
    for i, a in enumerate(free):
        pts[:, a] = pts_f[:, i]
    corners_1d = [np.array([f.lo[a], f.hi[a]]) for a in free]
    if corners_1d:
        grid = np.meshgrid(*corners_1d, indexing="ij")
        corners_f = np.column_stack([g.reshape(-1) for g in grid])
    else:
        corners_f = np.zeros((1, 0))
    corners = np.empty((corners_f.shape[0], mesh.d + 1))
    corners[:, f.axis] = f.coord
    for i, a in enumerate(free):
        corners[:, a] = corners_f[:, i]
    return free, pts, w, corners


def oracle_beta_sup(spec, mesh: SpaceTimeMesh, f, npts: int) -> float:
    _, pts, _, corners = _facet_geometry(mesh, f, npts)
    allpts = np.vstack([pts, corners])
    return float(np.max(np.abs(spec.beta(allpts)[:, f.axis])))


def _facet_sides(els: dict[int, Element], f: Facet):
    sides = [(els[f.owner], f.owner_side)]
    if f.neighbor is not None:
        sides.append((els[f.neighbor], -f.owner_side))
    return sides


# ----------------------------------------------------------------------
# dense assembly of the bilinear form
# ----------------------------------------------------------------------


def oracle_system(spec, mesh: SpaceTimeMesh, p_s: int, npts: int | None = None):
    """Dense (A, b) of the raw discrete form, dof layout shared with the
    package so the matrices are directly comparable."""
    dm = build_dofmap(mesh, p_s)
    els, fcs = elements(mesh), facets(mesh)
    d = mesh.d
    eps = spec.eps
    alpha = 8.0 * p_s * p_s
    nq = npts if npts is not None else 2 * (max(P_T, p_s) + 4)
    n = dm.n_dofs
    A = np.zeros((n, n))
    b = np.zeros(n)
    edeg = dm.elem_degrees

    for eid in dm.mesh.etab.id.tolist():
        el = els[eid]
        pts, w = box_quad(el.lo, el.hi, nq)
        V, G, _ = box_basis(el.lo, el.hi, edeg, pts)
        dofs = elem_dofs(dm, eid)
        loc = np.zeros((len(dofs), len(dofs)))
        for a in range(1, d + 1):
            loc += eps * G[a].T @ (G[a] * w[:, None])
        bbar = spec.beta_bar(pts)
        conv = G[0].copy()
        for a in range(1, d + 1):
            conv += bbar[:, a - 1 : a] * G[a]
        loc -= conv.T @ (V * w[:, None])  # row: test derivative, col: trial
        A[np.ix_(dofs, dofs)] += loc
        b[dofs] += V.T @ (w * spec.f(pts))

    for fid in dm.mesh.ftab.id.tolist():
        f = fcs[fid]
        free, pts, w, _ = _facet_geometry(mesh, f, nq)
        fdeg = dm.facet_degrees(f.axis)
        Fv, _, _ = box_basis(f.lo[free], f.hi[free], fdeg, pts[:, free])
        fdofs = facet_dofs(dm, fid)
        bs = oracle_beta_sup(spec, mesh, f, nq)
        neumann = f.boundary in ("initial", "final", "neumann")

        for el, sign in _facet_sides(els, f):
            E, G, _ = box_basis(el.lo, el.hi, edeg, pts)
            edofs = elem_dofs(dm, el.eid)
            bn = sign * spec.beta(pts)[:, f.axis]
            # <bn lambda + bs (u - lambda), v - mu>
            A[np.ix_(edofs, edofs)] += E.T @ (E * (w * bs)[:, None])
            A[np.ix_(edofs, fdofs)] += E.T @ (Fv * (w * (bn - bs))[:, None])
            A[np.ix_(fdofs, edofs)] -= Fv.T @ (E * (w * bs)[:, None])
            A[np.ix_(fdofs, fdofs)] -= Fv.T @ (Fv * (w * (bn - bs))[:, None])
            if f.is_Q:
                h_F = els[f.owner].h
                wp = w * (eps * alpha / h_F)
                A[np.ix_(edofs, edofs)] += E.T @ (E * wp[:, None])
                A[np.ix_(edofs, fdofs)] -= E.T @ (Fv * wp[:, None])
                A[np.ix_(fdofs, edofs)] -= Fv.T @ (E * wp[:, None])
                A[np.ix_(fdofs, fdofs)] += Fv.T @ (Fv * wp[:, None])
                Gn = sign * G[f.axis]
                wg = w * eps
                A[np.ix_(edofs, edofs)] -= Gn.T @ (E * wg[:, None])
                A[np.ix_(edofs, fdofs)] += Gn.T @ (Fv * wg[:, None])
                A[np.ix_(edofs, edofs)] -= E.T @ (Gn * wg[:, None])
                A[np.ix_(fdofs, edofs)] += Fv.T @ (Gn * wg[:, None])
            if neumann:
                zp = (bn >= 0).astype(float)
                A[np.ix_(fdofs, fdofs)] += Fv.T @ (Fv * (w * zp * bn)[:, None])
                normal = np.zeros(d + 1)
                normal[f.axis] = sign
                b[fdofs] += Fv.T @ (w * spec.neumann_data(pts, normal))
    return A, b


# ----------------------------------------------------------------------
# dense estimator and norm recomputation
# ----------------------------------------------------------------------


def _l2_project(Fv: np.ndarray, w: np.ndarray, vals: np.ndarray) -> np.ndarray:
    gram = Fv.T @ (Fv * w[:, None])
    return Fv @ np.linalg.solve(gram, Fv.T @ (w * vals))


def oracle_estimate(sys, x: np.ndarray, npts: int | None = None) -> dict[int, dict]:
    """Per-element estimator terms recomputed densely at double order."""
    dm = sys.dofmap
    mesh = dm.mesh
    els, fcs = elements(mesh), facets(mesh)
    spec = sys.spec
    d = mesh.d
    eps = spec.eps
    nq = npts if npts is not None else 2 * (sys.quad_n + 2)
    edeg = dm.elem_degrees
    terms = {
        eid: dict(eta_R=0.0, eta_J1=0.0, J2sq=0.0, J3Qsq=0.0, J3Rsq=0.0,
                  BC1sq=0.0, BC2sq=0.0, osc_K=0.0, oscNsq=0.0)
        for eid in dm.mesh.etab.id.tolist()
    }

    for eid in dm.mesh.etab.id.tolist():
        el = els[eid]
        lam = min(1.0, el.h / math.sqrt(eps))
        pts, w = box_quad(el.lo, el.hi, nq)
        V, G, S = box_basis(el.lo, el.hi, edeg, pts)
        c = x[elem_dofs(dm, eid)]
        lap = sum(S[a] @ c for a in range(1, d + 1))
        adv = sum(spec.beta_bar(pts)[:, a - 1] * (G[a] @ c) for a in range(1, d + 1))
        R = spec.f(pts) + eps * lap - G[0] @ c - adv
        terms[eid]["eta_R"] = lam * math.sqrt(float(w @ (R * R)))
        R0 = R - _l2_project(V, w, R)
        terms[eid]["osc_K"] = lam * math.sqrt(float(w @ (R0 * R0)))

    gradn_acc: dict[int, np.ndarray] = {}
    for fid in dm.mesh.ftab.id.tolist():
        f = fcs[fid]
        free, pts, w, _ = _facet_geometry(mesh, f, nq)
        fdeg = dm.facet_degrees(f.axis)
        Fv, _, _ = box_basis(f.lo[free], f.hi[free], fdeg, pts[:, free])
        lamv = Fv @ x[facet_dofs(dm, fid)]
        bs = oracle_beta_sup(spec, mesh, f, nq)

        for el, sign in _facet_sides(els, f):
            E, G, _ = box_basis(el.lo, el.hi, edeg, pts)
            c = x[elem_dofs(dm, el.eid)]
            utr = E @ c
            jump = utr - lamv
            bn = sign * spec.beta(pts)[:, f.axis]
            w3 = np.abs(bs - 0.5 * bn)
            jsq = float(w @ (w3 * jump * jump))
            t = terms[el.eid]
            if f.is_Q:
                t["J3Qsq"] += jsq
                t["J2sq"] += float(w @ (jump * jump))
            else:
                t["J3Rsq"] += jsq
            if f.is_Q and f.boundary is None:
                gn = sign * (G[f.axis] @ c)
                if fid in gradn_acc:
                    gj = gradn_acc.pop(fid) + gn
                    val = eps * els[f.owner].h * float(w @ (gj * gj))
                    terms[f.owner]["eta_J1"] += val
                    terms[f.neighbor]["eta_J1"] += val
                else:
                    gradn_acc[fid] = gn
            if f.is_Q and f.boundary == "neumann":
                normal = np.zeros(d + 1)
                normal[f.axis] = sign
                g = spec.neumann_data(pts, normal)
                zm = (bn < 0).astype(float)
                RN = g - eps * sign * (G[f.axis] @ c) + zm * utr * bn
                t["BC1sq"] += float(w @ (RN * RN))
                RN0 = RN - _l2_project(Fv, w, RN)
                t["oscNsq"] += float(w @ (RN0 * RN0))
            if f.boundary == "initial":
                RN = spec.initial_data(pts) - utr
                t["BC2sq"] += float(w @ (RN * RN))
                RN0 = RN - _l2_project(Fv, w, RN)
                t["oscNsq"] += float(w @ (RN0 * RN0))

    out = {}
    for eid in dm.mesh.etab.id.tolist():
        el = els[eid]
        t = terms[eid]
        out[eid] = dict(
            eta_R=t["eta_R"],
            eta_J1=math.sqrt(t["eta_J1"]),
            eta_J21=math.sqrt(eps / el.h * t["J2sq"]),
            eta_J22=math.sqrt(math.sqrt(el.h) / eps * t["J2sq"]),
            eta_J3Q=math.sqrt(t["J3Qsq"]),
            eta_J3R=math.sqrt(t["J3Rsq"]),
            eta_BC1=math.sqrt(el.h / eps * t["BC1sq"]),
            eta_BC2=math.sqrt(t["BC2sq"]),
            osc_K=t["osc_K"],
            osc_N=math.sqrt(el.h / eps * t["oscNsq"]),
        )
    return out


def oracle_norms(sys, x: np.ndarray, npts: int | None = None) -> dict:
    """Triple-norm pieces of u - u_h recomputed densely; returns the same
    sums of squares as the package breakdown plus the two norms."""
    dm = sys.dofmap
    mesh = dm.mesh
    els, fcs = elements(mesh), facets(mesh)
    spec = sys.spec
    d = mesh.d
    eps = spec.eps
    nq = npts if npts is not None else 2 * (sys.quad_n + 2)
    edeg = dm.elem_degrees
    T = float(mesh.slab_times[-1] - mesh.slab_times[0])
    acc = {eid: dict(l2=0.0, jump_adv=0.0, neumann=0.0, grad=0.0,
                     jump_Q=0.0, dt=0.0) for eid in dm.mesh.etab.id.tolist()}

    for eid in dm.mesh.etab.id.tolist():
        el = els[eid]
        tau = regime_and_weights(el, slab_height(mesh, el), eps).tau_eps
        pts, w = box_quad(el.lo, el.hi, nq)
        V, G, _ = box_basis(el.lo, el.hi, edeg, pts)
        c = x[elem_dofs(dm, eid)]
        u, u_t, eg = spec.exact_jet(pts)
        ev = u - V @ c
        acc[eid]["l2"] = float(w @ (ev * ev))
        edt = u_t - G[0] @ c
        acc[eid]["dt"] = tau * float(w @ (edt * edt))
        gsq = 0.0
        for a in range(1, d + 1):
            ga = eg[:, a - 1] - G[a] @ c
            gsq += float(w @ (ga * ga))
        acc[eid]["grad"] = eps * gsq

    for fid in dm.mesh.ftab.id.tolist():
        f = fcs[fid]
        free, pts, w, _ = _facet_geometry(mesh, f, nq)
        Fv, _, _ = box_basis(f.lo[free], f.hi[free], dm.facet_degrees(f.axis), pts[:, free])
        lamv = Fv @ x[facet_dofs(dm, fid)]
        bs = oracle_beta_sup(spec, mesh, f, nq)
        for el, sign in _facet_sides(els, f):
            E, _, _ = box_basis(el.lo, el.hi, edeg, pts)
            ejump = lamv - E @ x[elem_dofs(dm, el.eid)]
            bn = sign * spec.beta(pts)[:, f.axis]
            acc[el.eid]["jump_adv"] += float(
                w @ (np.abs(bs - 0.5 * bn) * ejump * ejump))
            if f.is_Q:
                acc[el.eid]["jump_Q"] += (eps / el.h) * float(w @ (ejump * ejump))
            if f.boundary in ("initial", "final", "neumann"):
                mu = spec.exact(pts) - lamv
                acc[el.eid]["neumann"] += float(w @ (0.5 * np.abs(bn) * mu * mu))

    tot = {k: sum(a[k] for a in acc.values())
           for k in ("l2", "jump_adv", "neumann", "grad", "jump_Q", "dt")}
    s = math.sqrt(tot["l2"] + tot["jump_adv"] + tot["neumann"]
                  + tot["grad"] + tot["jump_Q"] + tot["dt"])
    sT = math.sqrt(tot["l2"] + tot["jump_adv"] + T * tot["neumann"]
                   + T * tot["grad"] + tot["jump_Q"] + tot["dt"])
    return dict(per_element=acc, totals=tot, s_norm=s, sT_norm=sT)


# ----------------------------------------------------------------------
# symbolic problems: sympy derivatives of an exact solution
# ----------------------------------------------------------------------


def _vectorize(fn, width: int | None = None):
    """Wrap a sympy-lambdified function of (t, x1[, x2]) for (n, k) input."""

    def wrapped(pts: np.ndarray) -> np.ndarray:
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        args = [pts[:, j] for j in range(pts.shape[1])]
        out = fn(*args)
        if width is None:
            return np.broadcast_to(np.asarray(out, dtype=float), (pts.shape[0],)).copy()
        cols = [
            np.broadcast_to(np.asarray(c, dtype=float), (pts.shape[0],))
            for c in out
        ]
        return np.column_stack(cols)

    return wrapped


def _jet(fn, d: int):
    """(n, d+1) points -> (u, u_t, grad u) from a lambdified [u, u_t, *grad],
    called on blocks of contiguous coordinate columns."""

    def jet(pts: np.ndarray):
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        out = np.empty((d + 2, pts.shape[0]))
        for start in range(0, pts.shape[0], _JET_BLOCK):
            blk = slice(start, start + _JET_BLOCK)
            for row, v in zip(out[:, blk], fn(*np.ascontiguousarray(pts[blk].T))):
                row[:] = v
        return out[0], out[1], out[2:].T

    return jet


def from_symbolic(
    name: str,
    d: int,
    eps: float,
    u_expr,
    beta_exprs,
    x_lo,
    x_hi,
    t_final: float = 1.0,
    dirichlet_lateral: bool = True,
    source=None,
) -> ProblemSpec:
    """Build a ProblemSpec from a sympy exact solution and advective field.

    Unless `source` gives f as a sympy expression (lambdified as it is), the
    source is manufactured as f = du/dt + div(beta_bar u) - eps lap(u) and
    simplified; beta_bar need not be divergence-free for the source to be
    consistent, but the discretization assumes it is.
    """
    import sympy as sp

    syms = sp.symbols("t x1 x2")[: d + 1]
    u = sp.sympify(u_expr)
    beta = [sp.sympify(b) for b in beta_exprs]
    grad = [sp.diff(u, syms[1 + i]) for i in range(d)]
    u_t = sp.diff(u, syms[0])
    if source is None:
        lap = sum(sp.diff(u, syms[1 + i], 2) for i in range(d))
        f = sp.simplify(
            u_t + sum(sp.diff(beta[i] * u, syms[1 + i]) for i in range(d)) - eps * lap
        )
    else:
        f = sp.sympify(source)

    lam = lambda e, **kw: sp.lambdify(syms, e, "numpy", **kw)
    return ProblemSpec(
        name=name,
        d=d,
        eps=eps,
        t_final=t_final,
        x_lo=np.asarray(x_lo, dtype=float),
        x_hi=np.asarray(x_hi, dtype=float),
        beta_bar=_vectorize(lam(sp.Matrix(beta).T.tolist()[0]), width=d),
        f=_vectorize(lam(f)),
        exact_jet=_jet(lam([u, u_t, *grad], cse=True), d),
        dirichlet_lateral=dirichlet_lateral,
    )


# ----------------------------------------------------------------------
# finite-difference oracles for problem data
# ----------------------------------------------------------------------

_FD4 = (np.array([-2, -1, 1, 2]), np.array([1.0, -8.0, 8.0, -1.0]) / 12.0)
_FD4_2 = (np.array([-2, -1, 0, 1, 2]),
          np.array([-1.0, 16.0, -30.0, 16.0, -1.0]) / 12.0)


def fd_source(spec, pts: np.ndarray, h: float = 1e-3) -> np.ndarray:
    """f = du/dt + bbar.grad u - eps lap u via 4th-order differences."""
    d = pts.shape[1] - 1
    off, cw = _FD4
    off2, cw2 = _FD4_2

    def du(axis):
        acc = np.zeros(pts.shape[0])
        for o, c in zip(off, cw):
            q = pts.copy()
            q[:, axis] += o * h
            acc += c * spec.exact(q)
        return acc / h

    def d2u(axis):
        acc = np.zeros(pts.shape[0])
        for o, c in zip(off2, cw2):
            q = pts.copy()
            q[:, axis] += o * h
            acc += c * spec.exact(q)
        return acc / h**2

    bbar = spec.beta_bar(pts)
    out = du(0)
    for a in range(1, d + 1):
        out += bbar[:, a - 1] * du(a) - spec.eps * d2u(a)
    return out


def fd_gradient(fn, pts: np.ndarray, h: float = 1e-6) -> np.ndarray:
    """Central differences of a scalar field, one column per axis."""
    cols = []
    for a in range(pts.shape[1]):
        qp = pts.copy(); qp[:, a] += h
        qm = pts.copy(); qm[:, a] -= h
        cols.append((fn(qp) - fn(qm)) / (2 * h))
    return np.column_stack(cols)


# ----------------------------------------------------------------------
# reference facet builder: the per-plane matcher with scalar splitmix ids
# ----------------------------------------------------------------------

_MASK63 = (1 << 63) - 1
_MASK64 = (1 << 64) - 1


def _mix64(z: int) -> int:
    """splitmix64 finalizer; deterministic 64-bit scrambling."""
    z = (z + 0x9E3779B97F4A7C15) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (z ^ (z >> 31)) & _MASK63


def _facet_id(owner: int, axis: int, side: int, lo, hi) -> int:
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


def oracle_all_pairs(plane, plus, lo, hi):
    """Every (plus face, minus face) pair of each plane, the pairing that
    `SpaceTimeMesh._rebuild_facets` used before it paired only faces that
    overlap along a free axis (`mesh._nested_pairs`, whose signature this
    shares; `lo` and `hi` are not read).  Faces are sorted by plane, minus
    faces first within a plane."""
    start = np.searchsorted(plane, np.arange(plane.max() + 1))
    n_minus = np.bincount(plane[~plus], minlength=len(start))
    ps = np.flatnonzero(plus)
    reps = n_minus[plane[ps]]
    pi = np.repeat(ps, reps)
    mi = np.repeat(start[plane[ps]] - np.cumsum(reps) + reps, reps) + np.arange(len(pi))
    return pi, mi


def reference_facets(mesh: SpaceTimeMesh):
    """Facets of `mesh` from its elements, one plane at a time.

    Returns (facets, elem_facets): fid -> Facet and element id ->
    [(fid, outward sign)], as `facets` and `elem_facets` build them from
    the mesh tables."""
    d1 = mesh.d + 1
    els = elements(mesh)
    facets: dict[int, Facet] = {}
    elem_facets: dict[int, list[tuple[int, int]]] = {eid: [] for eid in els}

    def _add_facet(owner, axis, coord, side, lo_r, hi_r, neighbor, boundary):
        rest = [a for a in range(d1) if a != axis]
        lo = np.empty(d1)
        hi = np.empty(d1)
        lo[axis] = hi[axis] = coord
        lo[rest] = lo_r
        hi[rest] = hi_r
        fid = _facet_id(owner, axis, side, lo, hi)
        if fid in facets:
            raise RuntimeError("facet id collision")
        facets[fid] = Facet(
            fid=fid, axis=axis, coord=coord, lo=lo, hi=hi,
            owner=owner, owner_side=side, neighbor=neighbor, boundary=boundary,
        )
        elem_facets[owner].append((fid, side))
        if neighbor is not None:
            elem_facets[neighbor].append((fid, -side))

    # collect faces grouped by (axis, plane coordinate)
    planes: dict[tuple[int, float], list[tuple[int, int, np.ndarray, np.ndarray]]] = {}
    for eid, el in els.items():
        for axis in range(d1):
            rest = [a for a in range(d1) if a != axis]
            lo_r = el.lo[rest]
            hi_r = el.hi[rest]
            planes.setdefault((axis, float(el.lo[axis])), []).append((eid, -1, lo_r, hi_r))
            planes.setdefault((axis, float(el.hi[axis])), []).append((eid, +1, lo_r, hi_r))

    t0_dom = float(mesh.slab_times[0])
    t1_dom = float(mesh.slab_times[-1])

    for (axis, coord), faces in planes.items():
        if axis == 0 and coord == t0_dom:
            boundary = "initial"
        elif axis == 0 and coord == t1_dom:
            boundary = "final"
        elif axis >= 1 and (
            coord == float(mesh.x_lo[axis - 1]) or coord == float(mesh.x_hi[axis - 1])
        ):
            boundary = "dirichlet" if mesh.dirichlet_lateral else "neumann"
        else:
            boundary = None

        if boundary is not None:
            # all faces on a boundary plane are boundary facets
            for eid, side, lo_r, hi_r in faces:
                _add_facet(eid, axis, coord, side, lo_r, hi_r, None, boundary)
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
                _add_facet(
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
                _add_facet(
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
                _add_facet(
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
    return facets, elem_facets


# ----------------------------------------------------------------------
# reference VTK grid: one dict lookup per rounded cell corner
# ----------------------------------------------------------------------


def _corner_loop(lo: np.ndarray, hi: np.ndarray, d: int) -> list[tuple]:
    """Cell corner coordinates in VTK connectivity order, as (x.., t)."""
    t0, t1 = lo[0], hi[0]
    if d == 1:
        x0, x1 = lo[1], hi[1]
        return [(x0, t0, 0.0), (x1, t0, 0.0), (x1, t1, 0.0), (x0, t1, 0.0)]
    x0, x1 = lo[1], hi[1]
    y0, y1 = lo[2], hi[2]
    return [
        (x0, y0, t0), (x1, y0, t0), (x1, y1, t0), (x0, y1, t0),
        (x0, y0, t1), (x1, y0, t1), (x1, y1, t1), (x0, y1, t1),
    ]


def reference_grid(mesh: SpaceTimeMesh) -> tuple[list[str], list[str]]:
    """POINTS and CELLS lines of the mesh's VTK grid, cells in id order."""
    points: list[tuple] = []
    index: dict[tuple, int] = {}
    cells: list[str] = []
    for eid in mesh.etab.id.tolist():
        row = int(np.flatnonzero(mesh.etab.id == eid)[0])
        conn = []
        for c in _corner_loop(mesh.etab.lo[row], mesh.etab.hi[row], mesh.d):
            key = tuple(round(float(v), 12) for v in c)
            if key not in index:
                index[key] = len(points)
                points.append(key)
            conn.append(index[key])
        cells.append(" ".join(str(v) for v in [len(conn)] + conn))
    return ["%.9g %.9g %.9g" % p for p in points], cells


# ----------------------------------------------------------------------
# point evaluation of a discrete solution (dof map and vector) per entity
# ----------------------------------------------------------------------


def elem_coeffs(dm, x, eid: int) -> np.ndarray:
    return x[elem_dofs(dm, eid)]


def facet_coeffs(dm, x, fid: int) -> np.ndarray:
    return x[facet_dofs(dm, fid)]


def element_at(dm, x, eid: int, ref_pts: np.ndarray):
    """values, spatial gradient, time derivative at element ref points."""
    e = dm.mesh.etab
    row = int(np.flatnonzero(e.id == eid)[0])
    bv = get_basis(dm.elem_degrees).eval(ref_pts)
    c = elem_coeffs(dm, x, eid)
    half = 0.5 * (e.hi[row] - e.lo[row])
    vals = bv.values @ c
    dt = (bv.grad[:, :, 0] @ c) / half[0]
    grad = np.stack([(bv.grad[:, :, a] @ c) / half[a] for a in range(1, dm.mesh.d + 1)], axis=-1)
    return vals, grad, dt


def facet_at(dm, x, fid: int, ref_pts: np.ndarray) -> np.ndarray:
    axis = int(dm.mesh.ftab.axis[np.searchsorted(dm.mesh.ftab.id, fid)])
    fb = get_basis(dm.facet_degrees(axis))
    return fb.eval(ref_pts).values @ facet_coeffs(dm, x, fid)


# ----------------------------------------------------------------------
# the sparse-product Dirichlet rows and the per-facet eta_J1 walk
# ----------------------------------------------------------------------


def oracle_apply_dirichlet(sys):
    """A_bc = D_free A + D_dir by sparse products, which drop exact zeros,
    and the matching right-hand side."""
    free = sys.free_mask().astype(float)
    dir_ind = np.zeros(sys.n_dofs)
    dir_ind[sys.dirichlet_idx] = 1.0
    A_bc = (sp.diags(free) @ sys.A + sp.diags(dir_ind)).tocsr()
    b_bc = free * sys.b
    b_bc[sys.dirichlet_idx] = sys.dirichlet_values
    return A_bc, b_bc


def oracle_levels(A_bc) -> np.ndarray:
    """Causal level of every unknown by networkx: the condensation of the
    graph with an edge i -> j for every stored entry A_bc[i, j], and for each
    strong component the length of the longest chain of components it reads
    through (0 for a component that reads no other)."""
    coo = A_bc.tocoo()
    G = nx.DiGraph()
    G.add_nodes_from(range(A_bc.shape[0]))
    G.add_edges_from(zip(coo.row.tolist(), coo.col.tolist()))
    C = nx.condensation(G)
    level = np.empty(A_bc.shape[0], dtype=np.intp)
    # generation k of the reversed condensation: the longest chain below it is k
    for k, gen in enumerate(nx.topological_generations(C.reverse(copy=False))):
        for c in gen:
            level[list(C.nodes[c]["members"])] = k
    return level


def oracle_block_solve(sys) -> np.ndarray:
    """x of the Dirichlet system by forward substitution over the permuted
    copy A_bc[perm][:, perm], one SuperLU per causal level (`oracle_levels`)
    with the package's settings, un-permuted at the end."""
    A_bc, b_bc = oracle_apply_dirichlet(sys)
    level = oracle_levels(A_bc)
    perm = np.argsort(level, kind="stable")
    A_p, b_p = A_bc[perm][:, perm], b_bc[perm]
    bounds = np.concatenate(([0], np.cumsum(np.bincount(level))))
    x_p = np.zeros(sys.n_dofs)
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        rows = A_p[lo:hi]
        lu = spla.splu(rows[:, lo:hi].tocsc(), permc_spec="MMD_AT_PLUS_A",
                       diag_pivot_thresh=0.1, options=dict(SymmetricMode=True))
        x_p[lo:hi] = lu.solve(b_p[lo:hi] - rows @ x_p)
    x = np.empty_like(x_p)
    x[perm] = x_p
    return x


def oracle_eta_J1(sys, x: np.ndarray) -> np.ndarray:
    """eta_J1 of every element (element-table order) by the side walk: the
    first side of an interior lateral facet is stored in a dict, and at the
    second the facet's value, one np.dot, goes to the first side's element,
    then to the second's."""
    dm = sys.dofmap
    nq = sys.quad_n + 2
    wfq = facet_rule(dm.mesh.d, nq).weights
    xe = np.asarray(x)[: dm.n_elem_dofs].reshape(len(dm.mesh.etab), dm.n_elem_basis)
    sq = np.zeros(len(dm.mesh.etab))
    stored: dict[int, tuple[np.ndarray, int]] = {}
    for g in dm.facet_sides.groups:
        if g.axis == 0 or g.boundary is not None:
            continue
        EB = elem_trace_basis(dm.elem_degrees, g.axis, g.fixed, g.alphas, g.betas, nq)
        for sl in g.chunks():
            gradn = (g.sign / g.s_ax[sl])[:, None] * (xe[g.elem[sl]] @ EB.grad[:, :, g.axis].T)
            h_own, jacF = g.h_owner[sl], g.jacF[sl]
            for i, (fp, row) in enumerate(zip(g.facet[sl].tolist(), g.elem[sl].tolist())):
                first = stored.pop(fp, None)
                if first is None:
                    stored[fp] = (gradn[i], row)
                    continue
                gj = first[0] + gradn[i]
                val = sys.spec.eps * h_own[i] * float(np.dot(wfq, gj * gj)) * jacF[i]
                sq[first[1]] += val
                sq[row] += val
    return np.sqrt(sq)
