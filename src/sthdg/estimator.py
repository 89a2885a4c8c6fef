"""Residual a posteriori error estimator and the associated mesh norms.

Per element K the estimator collects: the weighted interior residual
eta_R = lambda_K ||f + eps lap u_h - du_h/dt - bbar.grad u_h||_K with
lambda_K = min(1, h_K eps^-1/2); the normal-gradient jump across interior
lateral facets eta_J1; two weightings of the element/facet mismatch
u_h - lambda_h on lateral facets (eta_J21, eta_J22); the advective jump
terms eta_J3 on lateral and horizontal facets; and boundary data residuals
eta_BC1 (lateral Neumann) and eta_BC2 (initial plane).  (eta^K)^2 is the
sum of squares and eta^2 = sum_K (eta^K)^2.

The error norms implemented here are the mesh-dependent triple norms: the
s,h norm and its T-weighted sT,h variant (T multiplies the Neumann trace
term and the spatial gradient term).  The time-derivative term carries
tau_eps = Dt_K * eps_tilde where eps_tilde switches between diffusive,
mixed and convective regimes by comparing delta t_K and h_K with eps.

Oscillation terms osc_K, osc_N and the local efficiency ratio
eta^K / (sum_{K' in omega_K} eps^-1/2 eps_tilde^-1/2 |||u-u_h|||_{sT,h,K'}
+ osc) are provided for the verification studies.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import fe
from .assembly import (
    AssembledSystem,
    DofMap,
    elem_trace_basis,
    facet_basis_at_rule,
    facet_rule,
)
from .mesh import Element, SpaceTimeMesh


# ----------------------------------------------------------------------
# regime weights
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class RegimeWeights:
    regime: str  # 'd' (diffusive), 'x' (mixed), 'c' (convective)
    eps_tilde: float
    tau_eps: float
    lambda_K: float


def regime_and_weights(el: Element, slab_height: float, eps: float) -> RegimeWeights:
    """Classify an element against eps and return the norm weights.

    The three published regimes cover delta_t <= h.  Elements with
    h < delta_t (possible under the pure-spatial refinement policy) fall
    through the same eps-vs-delta_t comparison: delta_t and h both small
    relative to eps is diffusive, delta_t small but h large is mixed, and
    delta_t exceeding eps is convective.
    """
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


def tau_eps(dm: DofMap, eps: float) -> np.ndarray:
    """`regime_and_weights(el, slab_height(mesh, el), eps).tau_eps` of every
    element, in elem_ids order, from the mesh tables."""
    lo, hi = dm.elem_box
    dt, h = hi[:, 0] - lo[:, 0], dm.elem_h
    et = np.where(dt <= eps, np.where(h <= eps, 1.0, math.sqrt(eps)), eps)
    slab = dm.mesh.etab.slab[dm.elem_rows]
    return np.diff(dm.mesh.slab_times)[slab] * et


# ----------------------------------------------------------------------
# element estimates
# ----------------------------------------------------------------------


@dataclass
class ElementEstimate:
    eta_R: float = 0.0
    eta_J1: float = 0.0
    eta_J21: float = 0.0
    eta_J22: float = 0.0
    eta_J3Q: float = 0.0
    eta_J3R: float = 0.0
    eta_BC1: float = 0.0
    eta_BC2: float = 0.0
    osc_K: float = 0.0
    osc_N: float = 0.0

    @property
    def eta_K(self) -> float:
        return math.sqrt(
            self.eta_R**2 + self.eta_J1**2
            + self.eta_J21**2 + self.eta_J22**2
            + self.eta_J3Q**2 + self.eta_J3R**2
            + self.eta_BC1**2 + self.eta_BC2**2
        )


@dataclass
class EstimateResult:
    per_element: dict[int, ElementEstimate]
    eta: float

    def eta_K(self, eid: int) -> float:
        return self.per_element[eid].eta_K


def estimate(sys: AssembledSystem, x: np.ndarray, quad_n: int | None = None) -> EstimateResult:
    dm = sys.dofmap
    spec = sys.spec
    eps = spec.eps
    d = dm.d
    d1 = d + 1
    nq = (sys.quad_n + 2) if quad_n is None else quad_n
    x = np.asarray(x)
    n = len(dm.elem_ids)
    nb = dm.n_elem_basis
    xe = x[: dm.n_elem_dofs].reshape(n, nb)
    sq_R = np.zeros(n); sq_osc = np.zeros(n)
    sq_J1 = np.zeros(n); sq_J2 = np.zeros(n)
    sq_J3Q = np.zeros(n); sq_J3R = np.zeros(n)
    sq_BC1 = np.zeros(n); sq_BC2 = np.zeros(n); sq_oscN = np.zeros(n)

    h_K = dm.elem_h
    lam_K = np.minimum(1.0, h_K / math.sqrt(eps))

    # ---- interior residual ----------------------------------------
    vrule = fe.tensor_rule((nq,) * d1)
    wq = vrule.weights
    basis = fe.get_basis(dm.elem_degrees)
    BV = basis.eval(vrule.points)
    Gram = BV.values.T @ (BV.values * wq[:, None])

    for cls in dm.elem_classes:
        half = cls.half
        jac = float(np.prod(half))
        lap = sum(BV.second[:, :, a] / half[a] ** 2 for a in range(1, d1))
        for sl in cls.chunks():
            pts = cls.points(sl, vrule.points).reshape(-1, d1)
            rows = cls.elem[sl]
            m = len(rows)
            coeffs = xe[rows]
            ut = coeffs @ (BV.grad[:, :, 0].T / half[0])
            bbar = spec.beta_bar(pts).reshape(m, -1, d)
            adv = np.zeros_like(ut)
            for a in range(1, d1):
                adv += bbar[:, :, a - 1] * (coeffs @ (BV.grad[:, :, a].T / half[a]))
            R = spec.f(pts).reshape(m, -1) + eps * (coeffs @ lap.T) - ut - adv
            sq_R[rows] += jac * (R * R) @ wq
            proj = np.linalg.solve(Gram, np.einsum("q,qi,mq->im", wq, BV.values, R)).T
            R0 = R - proj @ BV.values.T
            sq_osc[rows] += jac * (R0 * R0) @ wq

    # ---- facet terms ------------------------------------------------
    frule = facet_rule(d, nq)
    wfq = frule.weights
    fs = dm.facet_sides
    bs_all = dm.per_facet(sys.beta_sup)
    # facet position -> (normal gradient, element) of the side seen first
    gradn_store: dict[int, tuple[np.ndarray, int]] = {}

    for g in fs.groups:
        axis, sign, boundary = g.axis, g.sign, g.boundary
        EB = elem_trace_basis(dm.elem_degrees, axis, g.fixed, g.alphas, g.betas, nq)
        FB = facet_basis_at_rule(g.fdeg, nq)
        GramF = FB.values.T @ (FB.values * wfq[:, None])
        nbf = FB.values.shape[1]
        is_Q = axis >= 1
        interior = boundary is None

        for sl in g.chunks():
            facets = g.facet[sl]
            m = len(facets)
            jacF = g.jacF[sl]
            pts = fs.points(facets, frule.points).reshape(-1, d1)
            bn = sign * spec.beta(pts)[:, axis].reshape(m, -1)
            bs = bs_all[facets]
            rows = g.elem[sl]
            ec = xe[rows]
            fc = x[g.fdof[sl][:, None] + np.arange(nbf)]
            utr = ec @ EB.values.T
            lam = fc @ FB.values.T
            jump = utr - lam
            we = wfq[None, :] * jacF[:, None]

            w3 = np.abs(bs[:, None] - 0.5 * bn)
            jsq = (jump * jump * w3 * we).sum(axis=1)
            if is_Q:
                np.add.at(sq_J3Q, rows, jsq)
                np.add.at(sq_J2, rows, (jump * jump * we).sum(axis=1))
            else:
                np.add.at(sq_J3R, rows, jsq)

            if is_Q and (interior or boundary == "neumann"):
                gradn = (sign / g.s_ax[sl])[:, None] * (ec @ EB.grad[:, :, axis].T)
                if interior:
                    # DG jump: sum of outward normal gradients of both sides
                    h_own = g.h_owner[sl]
                    for i, (fp, row) in enumerate(zip(facets.tolist(), rows.tolist())):
                        first = gradn_store.pop(fp, None)
                        if first is None:
                            gradn_store[fp] = (gradn[i], row)
                            continue
                        gj = first[0] + gradn[i]
                        val = eps * h_own[i] * float(np.dot(wfq, gj * gj)) * jacF[i]
                        sq_J1[first[1]] += val
                        sq_J1[row] += val
                else:
                    normal = np.zeros(d1); normal[axis] = sign
                    g_n = spec.neumann_data(pts, normal).reshape(m, -1)
                    zm = (bn < 0).astype(float)
                    RN = g_n - eps * gradn + zm * utr * bn
                    np.add.at(sq_BC1, rows, (RN * RN * we).sum(axis=1))
                    proj = np.linalg.solve(GramF, np.einsum("q,qi,mq->im", wfq, FB.values, RN)).T
                    RN0 = RN - proj @ FB.values.T
                    np.add.at(sq_oscN, rows, (RN0 * RN0 * we).sum(axis=1))

            if boundary == "initial":
                g_0 = spec.initial_data(pts).reshape(m, -1)
                RN = g_0 - utr
                np.add.at(sq_BC2, rows, (RN * RN * we).sum(axis=1))
                proj = np.linalg.solve(GramF, np.einsum("q,qi,mq->im", wfq, FB.values, RN)).T
                RN0 = RN - proj @ FB.values.T
                np.add.at(sq_oscN, rows, (RN0 * RN0 * we).sum(axis=1))

    per: dict[int, ElementEstimate] = {}
    total = 0.0
    for i, eid in enumerate(dm.elem_ids):
        est = ElementEstimate(
            eta_R=lam_K[i] * math.sqrt(sq_R[i]),
            eta_J1=math.sqrt(sq_J1[i]),
            eta_J21=math.sqrt(eps / h_K[i] * sq_J2[i]),
            eta_J22=math.sqrt(math.sqrt(h_K[i]) / eps * sq_J2[i]),
            eta_J3Q=math.sqrt(sq_J3Q[i]),
            eta_J3R=math.sqrt(sq_J3R[i]),
            eta_BC1=math.sqrt(h_K[i] / eps * sq_BC1[i]),
            eta_BC2=math.sqrt(sq_BC2[i]),
            osc_K=lam_K[i] * math.sqrt(sq_osc[i]),
            osc_N=math.sqrt(h_K[i] / eps * sq_oscN[i]),
        )
        per[eid] = est
        total += est.eta_K**2
    return EstimateResult(per_element=per, eta=math.sqrt(total))


# ----------------------------------------------------------------------
# error norms
# ----------------------------------------------------------------------


@dataclass
class NormBreakdown:
    """Per-element squared contributions to the triple norms.

    Fields hold sums of squares; `neumann_trace` and `grad` receive the
    extra factor T in the sT,h norm.
    """
    elem_ids: list[int]
    l2: np.ndarray
    jump_adv: np.ndarray  # |beta_s - beta.n/2|-weighted jump over dK
    neumann_trace: np.ndarray
    grad: np.ndarray  # eps ||grad v||^2
    jump_Q: np.ndarray  # eps/h_K ||[[v]]||^2 over Q_K
    dt: np.ndarray  # tau_eps ||dv/dt||^2
    T: float

    def s_norm(self) -> float:
        return math.sqrt(float(
            self.l2.sum() + self.jump_adv.sum() + self.neumann_trace.sum()
            + self.grad.sum() + self.jump_Q.sum() + self.dt.sum()))

    def sT_norm(self) -> float:
        return math.sqrt(float(
            self.l2.sum() + self.jump_adv.sum() + self.T * self.neumann_trace.sum()
            + self.T * self.grad.sum() + self.jump_Q.sum() + self.dt.sum()))

    def local_sT(self, i: int) -> float:
        return math.sqrt(float(
            self.l2[i] + self.jump_adv[i] + self.T * self.neumann_trace[i]
            + self.T * self.grad[i] + self.jump_Q[i] + self.dt[i]))


def error_norms(sys: AssembledSystem, x: np.ndarray, quad_n: int | None = None) -> NormBreakdown:
    """Triple-norm breakdown of u - u_h against the problem's exact solution."""
    dm = sys.dofmap
    mesh = dm.mesh
    spec = sys.spec
    if not spec.has_exact():
        raise ValueError("error norms require a problem with an exact solution")
    eps = spec.eps
    d = mesh.d
    d1 = d + 1
    nq = (sys.quad_n + 2) if quad_n is None else quad_n
    x = np.asarray(x)
    n = len(dm.elem_ids)
    xe = x[: dm.n_elem_dofs].reshape(n, dm.n_elem_basis)
    T = mesh.slab_times[-1] - mesh.slab_times[0]

    l2 = np.zeros(n); jump_adv = np.zeros(n); neu = np.zeros(n)
    grad_t = np.zeros(n); jump_Q = np.zeros(n); dterm = np.zeros(n)

    h_K = dm.elem_h
    tau = tau_eps(dm, eps)

    vrule = fe.tensor_rule((nq,) * d1)
    wq = vrule.weights
    basis = fe.get_basis(dm.elem_degrees)
    BV = basis.eval(vrule.points)

    for cls in dm.elem_classes:
        half = cls.half
        jac = float(np.prod(half))
        for sl in cls.chunks():
            pts = cls.points(sl, vrule.points).reshape(-1, d1)
            rows = cls.elem[sl]
            m = len(rows)
            coeffs = xe[rows]

            ev = spec.exact(pts).reshape(m, -1) - coeffs @ BV.values.T
            l2[rows] += jac * (ev * ev) @ wq
            edt = spec.exact_dt(pts).reshape(m, -1) - coeffs @ (BV.grad[:, :, 0].T / half[0])
            dterm[rows] += tau[rows] * jac * ((edt * edt) @ wq)
            eg = spec.exact_grad(pts).reshape(m, -1, d)
            gsq = np.zeros((m, len(wq)))
            for a in range(1, d1):
                ga = eg[:, :, a - 1] - coeffs @ (BV.grad[:, :, a].T / half[a])
                gsq += ga * ga
            grad_t[rows] += eps * jac * (gsq @ wq)

    frule = facet_rule(d, nq)
    wfq = frule.weights
    fs = dm.facet_sides
    bs_all = dm.per_facet(sys.beta_sup)

    for g in fs.groups:
        axis, sign = g.axis, g.sign
        EB = elem_trace_basis(dm.elem_degrees, axis, g.fixed, g.alphas, g.betas, nq)
        FB = facet_basis_at_rule(g.fdeg, nq)
        nbf = FB.values.shape[1]
        is_Q = axis >= 1
        for sl in g.chunks():
            facets = g.facet[sl]
            m = len(facets)
            pts = fs.points(facets, frule.points).reshape(-1, d1)
            bn = sign * spec.beta(pts)[:, axis].reshape(m, -1)
            bs = bs_all[facets]
            rows = g.elem[sl]
            ec = xe[rows]
            fc = x[g.fdof[sl][:, None] + np.arange(nbf)]
            # [[u - u_h]] = lambda_h - u_h|K on dK (exact trace single valued)
            ejump = fc @ FB.values.T - ec @ EB.values.T
            we = wfq[None, :] * g.jacF[sl][:, None]
            np.add.at(jump_adv, rows,
                      (np.abs(bs[:, None] - 0.5 * bn) * ejump * ejump * we).sum(axis=1))
            if is_Q:
                np.add.at(jump_Q, rows,
                          (eps / h_K[rows]) * (ejump * ejump * we).sum(axis=1))
            if g.boundary in ("initial", "final", "neumann"):
                # Neumann trace error mu = u|_F - lambda_h
                mu = spec.exact(pts).reshape(m, -1) - fc @ FB.values.T
                np.add.at(neu, rows, (0.5 * np.abs(bn) * mu * mu * we).sum(axis=1))

    return NormBreakdown(
        elem_ids=list(dm.elem_ids), l2=l2, jump_adv=jump_adv, neumann_trace=neu,
        grad=grad_t, jump_Q=jump_Q, dt=dterm, T=T,
    )


def efficiency_index(eta: float, err_sT: float) -> float:
    """eta / |||u - u_h|||_{sT,h} with a 0/0 guard."""
    if err_sT == 0.0:
        return math.nan if eta == 0.0 else math.inf
    return eta / err_sT


def local_efficiency(
    sys: AssembledSystem, est: EstimateResult, nb: NormBreakdown
) -> dict[int, float]:
    """Per-element ratio of eta^K to the patch-weighted local error norm."""
    mesh = sys.dofmap.mesh
    eps = sys.spec.eps
    eidx = {eid: i for i, eid in enumerate(nb.elem_ids)}
    out = {}
    for eid in nb.elem_ids:
        patch = set(mesh.omega_K(eid)) | {eid}
        denom = 0.0
        for pid in patch:
            el = mesh.elements[pid]
            rw = regime_and_weights(el, slab_height(mesh, el), eps)
            denom += eps ** -0.5 * rw.eps_tilde ** -0.5 * nb.local_sT(eidx[pid])
        e = est.per_element[eid]
        denom += e.osc_K + e.osc_N
        out[eid] = est.per_element[eid].eta_K / denom if denom > 0 else math.nan
    return out
