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
The two jump terms of the norms depend on u_h alone, because the exact
trace is single valued, and the estimate sums them on the same quadrature
rule (eta_J3Q^2 + eta_J3R^2 and eta_J21^2), so the norms read them from
the estimate and walk only the boundary facet sides themselves.

Oscillation terms osc_K, osc_N and the local efficiency ratio
eta^K / (sum_{K' in patch(K)} eps^-1/2 eps_tilde^-1/2 |||u-u_h|||_{sT,h,K'}
+ osc) are provided for the verification studies; the face patch of K is
K with the elements that share a facet with it, read from the facet
table's interior (owner, neighbor) pairs.

Every per-element result is an array in the row order of the element table
`mesh.etab`, so the facet table's `owner` and `neighbor` index these arrays
directly.  The squares in eta_K and eta are taken with `np.float_power`
(libm pow, which can differ from x*x in the last bit) and eta sums the
eta_K^2 sequentially: marking breaks near-ties on these last bits, so they
must not depend on how the arrays are reduced.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import fe
from .assembly import (
    AssembledSystem,
    DofMap,
    elem_trace_basis,
    facet_basis_at_rule,
    facet_rule,
)
from .problem import _JET_BLOCK


# ----------------------------------------------------------------------
# regime weights
# ----------------------------------------------------------------------


def regime_weights(dm: DofMap, eps: float) -> tuple[np.ndarray, np.ndarray]:
    """eps_tilde and tau_eps = (slab height) * eps_tilde of every element,
    in element-table order.

    eps_tilde is 1 in the diffusive regime (dt <= eps and h <= eps),
    sqrt(eps) in the mixed regime (dt <= eps < h) and eps in the convective
    regime (eps < dt).  The three published regimes cover delta_t <= h.
    Elements with h < delta_t come from an initial mesh with delta_t > h
    (for example `--slabs 1 --cells 4`) under either refinement policy,
    since refinement keeps delta_t/h or delta_t/h^2.  They fall through the
    same eps-vs-delta_t comparison: delta_t and h both small relative to
    eps is diffusive, delta_t small but h large is mixed, and delta_t
    exceeding eps is convective.
    """
    lo, hi = dm.mesh.etab.lo, dm.mesh.etab.hi
    dt, h = hi[:, 0] - lo[:, 0], dm.elem_h
    et = np.where(dt <= eps, np.where(h <= eps, 1.0, math.sqrt(eps)), eps)
    return et, np.diff(dm.mesh.slab_times)[dm.mesh.etab.slab] * et


def _elem_chunk(n_points: int) -> int:
    """Elements per chunk of a volume loop with n_points quadrature points
    per element: about one closed-form block of points (`_JET_BLOCK`), in
    whole multiples of 64 elements.  With OpenBLAS, chunks cut at such
    multiples give each element the sums, bit for bit, of one call over its
    whole class; chunks of 131 elements did not."""
    return 64 * max(1, _JET_BLOCK // (64 * n_points))


# ----------------------------------------------------------------------
# element estimates
# ----------------------------------------------------------------------


@dataclass
class EstimateResult:
    """Estimator terms of every element, arrays in element-table order
    (`mesh.etab.id` ascending); eta_K combines the eight eta terms (not the
    oscillations)."""

    eta_R: np.ndarray
    eta_J1: np.ndarray
    eta_J21: np.ndarray
    eta_J22: np.ndarray
    eta_J3Q: np.ndarray
    eta_J3R: np.ndarray
    eta_BC1: np.ndarray
    eta_BC2: np.ndarray
    osc_K: np.ndarray
    osc_N: np.ndarray
    eta_K: np.ndarray
    eta: float


ETA_TERMS = ("eta_R", "eta_J1", "eta_J21", "eta_J22", "eta_J3Q", "eta_J3R",
             "eta_BC1", "eta_BC2")


def estimate(sys: AssembledSystem, x: np.ndarray) -> EstimateResult:
    dm = sys.dofmap
    spec = sys.spec
    eps = spec.eps
    d = dm.mesh.d
    d1 = d + 1
    nq = sys.quad_n + 2
    x = np.asarray(x)
    n = len(dm.mesh.etab)
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
    step = _elem_chunk(len(wq))
    basis = fe.get_basis(dm.elem_degrees)
    BV = basis.eval(vrule.points)
    Gram = BV.values.T @ (BV.values * wq[:, None])

    for cls in dm.elem_classes:
        half = cls.half
        jac = float(np.prod(half))
        lap = sum(BV.second[:, :, a] / half[a] ** 2 for a in range(1, d1))
        for sl in cls.chunks(step):
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
    beta_n = fs.beta_n(spec, frule.points)
    # DG jump of an interior lateral facet: the sum of the outward normal
    # gradients of its two sides, paired as the walk meets the second side
    gsum = np.zeros_like(beta_n)  # the first side's normal gradient
    first_elem = np.full(len(beta_n), -1)  # the first side's element

    for g in fs.groups:
        axis, sign, boundary = g.axis, g.sign, g.boundary
        EB = elem_trace_basis(dm.elem_degrees, axis, sign, g.alphas, g.betas, nq)
        FB = facet_basis_at_rule(g.fdeg, nq)
        GramF = FB.values.T @ (FB.values * wfq[:, None])
        nbf = FB.values.shape[1]
        is_Q = axis >= 1
        interior = boundary is None

        for sl in g.chunks():
            facets = g.facet[sl]
            m = len(facets)
            jacF = g.jacF[sl]
            bn = sign * beta_n[facets]
            bs = sys.beta_sup[facets]
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

            if is_Q and boundary in (None, "neumann"):
                gradn = (sign / g.s_ax[sl])[:, None] * (ec @ EB.grad[:, :, axis].T)
            if is_Q and interior:
                met = first_elem[facets] >= 0
                f1, f2 = facets[~met], facets[met]
                gsum[f1], first_elem[f1] = gradn[~met], rows[~met]
                gj = gsum[f2] + gradn[met]
                # np.vecdot runs np.dot per facet, so the sums do not depend
                # on the chunking; the first side's element gets val first
                val = eps * g.h_owner[sl][met] * np.vecdot(wfq, gj * gj) * jacF[met]
                np.add.at(sq_J1, np.column_stack((first_elem[f2], rows[met])).reshape(-1),
                          np.repeat(val, 2))
            elif boundary in ("neumann", "initial"):
                # boundary data residual: Neumann on lateral, initial on the
                # first time plane
                pts = fs.points(facets, frule.points).reshape(-1, d1)
                if boundary == "neumann":
                    g_n = spec.neumann_data(pts, axis, sign).reshape(m, -1)
                    RN, sq_BC = g_n - eps * gradn + (bn < 0) * utr * bn, sq_BC1
                else:
                    RN, sq_BC = spec.initial_data(pts).reshape(m, -1) - utr, sq_BC2
                np.add.at(sq_BC, rows, (RN * RN * we).sum(axis=1))
                proj = np.linalg.solve(GramF, np.einsum("q,qi,mq->im", wfq, FB.values, RN)).T
                RN0 = RN - proj @ FB.values.T
                np.add.at(sq_oscN, rows, (RN0 * RN0 * we).sum(axis=1))

    terms = dict(
        eta_R=lam_K * np.sqrt(sq_R),
        eta_J1=np.sqrt(sq_J1),
        eta_J21=np.sqrt(eps / h_K * sq_J2),
        eta_J22=np.sqrt(np.sqrt(h_K) / eps * sq_J2),
        eta_J3Q=np.sqrt(sq_J3Q),
        eta_J3R=np.sqrt(sq_J3R),
        eta_BC1=np.sqrt(h_K / eps * sq_BC1),
        eta_BC2=np.sqrt(sq_BC2),
    )
    eta_K = np.sqrt(sum(np.float_power(terms[k], 2.0) for k in ETA_TERMS))
    eta = math.sqrt(np.cumsum(np.float_power(eta_K, 2.0))[-1]) if n else 0.0
    return EstimateResult(
        **terms, osc_K=lam_K * np.sqrt(sq_osc),
        osc_N=np.sqrt(h_K / eps * sq_oscN), eta_K=eta_K, eta=eta,
    )


# ----------------------------------------------------------------------
# error norms
# ----------------------------------------------------------------------


@dataclass
class NormBreakdown:
    """Per-element squared contributions to the triple norms.

    Fields hold sums of squares; `neumann_trace` and `grad` receive the
    extra factor T in the sT,h norm.
    """
    l2: np.ndarray
    jump_adv: np.ndarray  # |beta_s - beta.n/2|-weighted jump over dK
    neumann_trace: np.ndarray
    grad: np.ndarray  # eps ||grad v||^2
    jump_Q: np.ndarray  # eps/h_K ||[[v]]||^2 over Q_K
    dt: np.ndarray  # tau_eps ||dv/dt||^2
    T: float

    def sT_norm(self) -> float:
        return math.sqrt(float(
            self.l2.sum() + self.jump_adv.sum() + self.T * self.neumann_trace.sum()
            + self.T * self.grad.sum() + self.jump_Q.sum() + self.dt.sum()))

    def local_sT(self) -> np.ndarray:
        """sT,h norm restricted to each element."""
        return np.sqrt(self.l2 + self.jump_adv + self.T * self.neumann_trace
                       + self.T * self.grad + self.jump_Q + self.dt)


def error_norms(sys: AssembledSystem, x: np.ndarray, est: EstimateResult) -> NormBreakdown:
    """Triple-norm breakdown of u - u_h against the problem's exact solution.

    `est` is the estimate of the same x: jump_adv is its eta_J3Q^2 +
    eta_J3R^2 and jump_Q its eta_J21^2, since [[u - u_h]] = lambda_h - u_h|K.
    """
    dm = sys.dofmap
    mesh = dm.mesh
    spec = sys.spec
    eps = spec.eps
    d = mesh.d
    d1 = d + 1
    nq = sys.quad_n + 2
    x = np.asarray(x)
    n = len(mesh.etab)
    xe = x[: dm.n_elem_dofs].reshape(n, dm.n_elem_basis)
    T = mesh.slab_times[-1] - mesh.slab_times[0]

    l2 = np.zeros(n); neu = np.zeros(n)
    grad_t = np.zeros(n); dterm = np.zeros(n)

    _, tau = regime_weights(dm, eps)

    vrule = fe.tensor_rule((nq,) * d1)
    wq = vrule.weights
    step = _elem_chunk(len(wq))
    basis = fe.get_basis(dm.elem_degrees)
    BV = basis.eval(vrule.points)

    for cls in dm.elem_classes:
        half = cls.half
        jac = float(np.prod(half))
        for sl in cls.chunks(step):
            pts = cls.points(sl, vrule.points).reshape(-1, d1)
            rows = cls.elem[sl]
            m = len(rows)
            coeffs = xe[rows]

            u, u_t, eg = spec.exact_jet(pts)
            ev = u.reshape(m, -1) - coeffs @ BV.values.T
            l2[rows] += jac * (ev * ev) @ wq
            edt = u_t.reshape(m, -1) - coeffs @ (BV.grad[:, :, 0].T / half[0])
            dterm[rows] += tau[rows] * jac * ((edt * edt) @ wq)
            gsq = np.zeros((m, len(wq)))
            for a in range(1, d1):
                ga = eg[:, a - 1].reshape(m, -1) - coeffs @ (BV.grad[:, :, a].T / half[a])
                gsq += ga * ga
            grad_t[rows] += eps * jac * (gsq @ wq)

    frule = facet_rule(d, nq)
    wfq = frule.weights
    fs = dm.facet_sides

    for g in fs.groups:
        if g.boundary not in ("initial", "final", "neumann"):
            continue
        FB = facet_basis_at_rule(g.fdeg, nq)
        nbf = FB.values.shape[1]
        for sl in g.chunks():
            facets = g.facet[sl]
            m = len(facets)
            pts = fs.points(facets, frule.points).reshape(-1, d1)
            abs_bn = np.abs(spec.beta_bar(pts)[:, g.axis - 1].reshape(m, -1)) if g.axis else 1.0
            fc = x[g.fdof[sl][:, None] + np.arange(nbf)]
            we = wfq[None, :] * g.jacF[sl][:, None]
            # Neumann trace error mu = u|_F - lambda_h
            mu = spec.exact(pts).reshape(m, -1) - fc @ FB.values.T
            np.add.at(neu, g.elem[sl], (0.5 * abs_bn * mu * mu * we).sum(axis=1))

    return NormBreakdown(
        l2=l2, jump_adv=est.eta_J3Q**2 + est.eta_J3R**2, neumann_trace=neu,
        grad=grad_t, jump_Q=est.eta_J21**2, dt=dterm, T=T,
    )


def efficiency_index(eta: float, err_sT: float) -> float:
    """eta / |||u - u_h|||_{sT,h} with a 0/0 guard."""
    if err_sT == 0.0:
        return math.nan if eta == 0.0 else math.inf
    return eta / err_sT


def local_efficiency(
    sys: AssembledSystem, est: EstimateResult, nb: NormBreakdown
) -> np.ndarray:
    """Per-element ratio of eta^K to the patch-weighted local error norm,
    in element-table order; the patch is K and every element sharing a facet
    with K."""
    dm = sys.dofmap
    eps = sys.spec.eps
    eps_tilde, _ = regime_weights(dm, eps)
    weighted = eps ** -0.5 * eps_tilde ** -0.5 * nb.local_sT()
    # face-neighbor pairs in both orders; distinct, as two elements share at most one facet
    f = dm.mesh.ftab
    inner = f.neighbor >= 0
    a, b = f.owner[inner], f.neighbor[inner]
    n = len(dm.mesh.etab)
    denom = weighted + np.bincount(np.r_[a, b], weights=weighted[np.r_[b, a]], minlength=n)
    denom += est.osc_K + est.osc_N
    out = np.full(n, math.nan)
    np.divide(est.eta_K, denom, out=out, where=denom > 0)
    return out
