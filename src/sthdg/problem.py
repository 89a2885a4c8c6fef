"""Problem definitions for the advection-diffusion model.

The PDE on the space-time domain E = (0,T) x Omega is

    div(beta u) - eps * lap_x(u) = f,     beta = (1, beta_bar),

with beta_bar divergence-free in space.  Boundary conditions: u = g_D on the
Dirichlet part of the lateral boundary, and

    -zeta^- u (beta . n) + eps grad_x(u) . n_x = g

on the Neumann part, which always contains the initial plane (where the
relation reduces to u = g, i.e. the initial condition) and the final plane
(g = 0 there).  A `ProblemSpec` hands out each kind's data by name:
`initial_data` on the initial plane, `dirichlet_data` on Dirichlet faces
and `neumann_data` on lateral Neumann faces; the final plane needs none.

All field callbacks are vectorized: they take an (n, d+1) array of points
[t, x_1, .., x_d] and return (n,) or (n, d) arrays.  Each built-in problem
is one closed form in numpy that gives (u, u_t, grad u, lap u) of its exact
solution.  The derivatives are written by hand and checked in the tests,
with the sources built from them, against sympy's derivatives of the same
expressions (`from_symbolic` in tests/oracles.py) and against finite
differences.  The source is f = u_t + beta_bar . grad u - eps lap u (every
built-in beta_bar is divergence-free), except for the rotating pulse, an
exact solution of the homogeneous equation, whose f is 0.

Every problem has an exact solution: `exact_jet`, a required field, maps
the points to (u, u_t, grad u), shapes (n,), (n,) and (n, d), so the error
norms, the lateral Neumann data and the saturation measurement evaluate it
once per point; `exact` is its u alone, which is the initial and the
Dirichlet data.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

Field = Callable[[np.ndarray], np.ndarray]


@dataclass
class ProblemSpec:
    """The fields of one problem and its boundary data by facet kind."""

    name: str
    d: int
    eps: float
    t_final: float
    x_lo: np.ndarray
    x_hi: np.ndarray
    beta_bar: Field  # (n, d+1) -> (n, d)
    f: Field  # (n, d+1) -> (n,)
    exact_jet: Callable[[np.ndarray], tuple[np.ndarray, np.ndarray, np.ndarray]]
    dirichlet_lateral: bool = True

    def exact(self, pts: np.ndarray) -> np.ndarray:
        """u of the exact solution at the points."""
        return self.exact_jet(pts)[0]

    def initial_data(self, pts: np.ndarray) -> np.ndarray:
        return self.exact(pts)

    def dirichlet_data(self, pts: np.ndarray) -> np.ndarray:
        return self.exact(pts)

    def neumann_data(self, pts: np.ndarray, axis: int, sign: int) -> np.ndarray:
        """Lateral Neumann data g = -zeta^- u (beta.n) + eps grad(u).n_x at
        points of a face whose outward normal is `sign` times spatial axis
        `axis` (1..d), so beta.n = sign * beta_bar[:, axis - 1]."""
        pts = np.atleast_2d(pts)
        bn = sign * self.beta_bar(pts)[:, axis - 1]
        u, _, grad = self.exact_jet(pts)
        return -(bn < 0).astype(float) * u * bn + self.eps * (sign * grad[:, axis - 1])


# ----------------------------------------------------------------------
# built-in problems from closed forms
# ----------------------------------------------------------------------


_JET_BLOCK = 16384  # points per call of a closed form: its temporaries stay in cache

# (t, x_1, .., x_d) coordinate columns -> (u, u_t, [du/dx_1, ..], lap u);
# any entry may be a scalar
ClosedForm = Callable[..., tuple]


def _unit_diagonal(pts: np.ndarray) -> np.ndarray:
    """beta_bar = (1, .., 1)."""
    return np.ones((pts.shape[0], pts.shape[1] - 1))


def _rotation(pts: np.ndarray) -> np.ndarray:
    """beta_bar = (-4 x_2, 4 x_1): rotation about the origin at angular speed 4."""
    return np.column_stack((-4 * pts[:, 2], 4 * pts[:, 1]))


def from_closed_form(
    name: str,
    d: int,
    eps: float,
    closed_form: ClosedForm,
    beta_bar: Field,
    x_lo,
    x_hi,
    homogeneous: bool = False,
) -> ProblemSpec:
    """Build a ProblemSpec from a closed form of the exact solution.

    The closed form is called on blocks of contiguous coordinate columns.
    f = u_t + beta_bar . grad u - eps lap u, or 0 when the problem is
    `homogeneous`; beta_bar must be divergence-free for the first to be the
    source of the conservative equation.
    """

    def rows(pts: np.ndarray) -> np.ndarray:
        """(d+3, n) rows u, u_t, du/dx_1 .. du/dx_d, lap u at the points."""
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        out = np.empty((d + 3, pts.shape[0]))
        for start in range(0, pts.shape[0], _JET_BLOCK):
            blk = slice(start, start + _JET_BLOCK)
            u, u_t, grad, lap = closed_form(*np.ascontiguousarray(pts[blk].T))
            for row, v in zip(out[:, blk], (u, u_t, *grad, lap)):
                row[:] = v
        return out

    def exact_jet(pts):
        r = rows(pts)
        return r[0], r[1], r[2:-1].T

    def f(pts):
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        if homogeneous:
            return np.zeros(pts.shape[0])
        r = rows(pts)
        return r[1] + np.sum(beta_bar(pts).T * r[2:-1], axis=0) - eps * r[-1]

    return ProblemSpec(
        name=name, d=d, eps=eps, t_final=1.0,
        x_lo=np.asarray(x_lo, dtype=float), x_hi=np.asarray(x_hi, dtype=float),
        beta_bar=beta_bar, f=f, exact_jet=exact_jet,
    )


def rotating_pulse(eps: float) -> ProblemSpec:
    """Gaussian pulse rotating around the origin; f = 0.

    u = s^2 / (s^2 + 2 eps t) exp(-r^2 / D) with s = 1/10, D = 2 s^2 + 4 eps t
    and r the distance of the rotated point R(4t) x from (-1/5, 1/10).
    """

    def closed_form(t, x1, x2):
        c, s = np.cos(4 * t), np.sin(4 * t)
        X1, X2 = x1 * c + x2 * s, x2 * c - x1 * s  # R(4t) x
        a, b = X1 + 0.2, X2 - 0.1
        r2, D = a * a + b * b, 4 * eps * t + 0.02
        u = 0.01 * np.exp(-r2 / D) / (2 * eps * t + 0.01)
        g = u / D
        lap = 4 * g * (r2 / D - 1)
        # d/dt (a, b) = 4 (X2, -X1): the rotation's share of u_t is the
        # advection term -beta_bar . grad u, and the rest is eps lap u
        u_t = eps * lap - 8 * g * (a * X2 - b * X1)
        return u, u_t, (2 * g * (b * s - a * c), -2 * g * (a * s + b * c)), lap

    # the pulse is an exact solution of the homogeneous equation
    return from_closed_form(
        "rotating-pulse", 2, eps, closed_form, _rotation,
        x_lo=[-0.5, -0.5], x_hi=[0.5, 0.5], homogeneous=True,
    )


def boundary_layer(eps: float) -> ProblemSpec:
    """Outflow boundary layers of width O(eps) on the unit square.

    u = (1 - e^-t) r(x_1) r(x_2), r(z) = z - (e^((z-1)/eps) - c) / (1 - c)
    with c = e^(-1/eps), so r(0) = r(1) = 0.
    """
    c = math.exp(-1 / eps)

    def ramp(z):
        e = np.exp((z - 1) / eps) / (1 - c)
        return z - (e - c / (1 - c)), 1 - e / eps, -e / eps**2

    def closed_form(t, x1, x2):
        (r1, d1, dd1), (r2, d2, dd2) = ramp(x1), ramp(x2)
        et = np.exp(-t)
        T = 1 - et
        return T * r1 * r2, et * r1 * r2, (T * d1 * r2, T * r1 * d2), T * (dd1 * r2 + r1 * dd2)

    return from_closed_form(
        "boundary-layer", 2, eps, closed_form, _unit_diagonal,
        x_lo=[0.0, 0.0], x_hi=[1.0, 1.0],
    )


def interior_layer(eps: float) -> ProblemSpec:
    """Diagonal interior layer driven by constant advection.

    u = (1 - e^-t) atan((x_2 - x_1) / (sqrt(2) eps)) (1 - (x_1 + x_2)^2 / 2).
    """
    k = 1 / (math.sqrt(2) * eps)

    def closed_form(t, x1, x2):
        w, s = x2 - x1, x1 + x2
        at = np.arctan(k * w)
        da = k / (1 + (k * w) ** 2)  # d atan / dx_2 = -d atan / dx_1
        q = 1 - s * s / 2  # grad q = (-s, -s), lap q = -2
        et = np.exp(-t)
        T = 1 - et
        lap = T * (-4 * k * w * da * da * q - 2 * at)
        return T * at * q, et * at * q, (T * (-da * q - at * s), T * (da * q - at * s)), lap

    return from_closed_form(
        "interior-layer", 2, eps, closed_form, _unit_diagonal,
        x_lo=[-0.5, -0.5], x_hi=[0.5, 0.5],
    )


def linear_exact(d: int, eps: float = 1.0) -> ProblemSpec:
    """u = t + x_1 (+ x_2): reproduced exactly by any discretization order."""

    def closed_form(t, *xs):
        return sum(xs, t), 1.0, (1.0,) * d, 0.0

    return from_closed_form(
        f"linear-{d}d", d, eps, closed_form, _unit_diagonal,
        x_lo=[0.0] * d, x_hi=[1.0] * d,
    )


def sine_product(d: int, eps: float) -> ProblemSpec:
    """Smooth manufactured solution, homogeneous on the lateral boundary.

    u = (1 + t/2) sin(pi x_1) .. sin(pi x_d).
    """

    def closed_form(t, *xs):
        amp = 0.5 * t + 1
        sines = [np.sin(np.pi * x) for x in xs]
        # rest[i]: the product of the sines other than the i-th
        rest = [np.prod(sines[:i] + sines[i + 1:], axis=0) for i in range(d)]
        u = amp * sines[0] * rest[0]
        grad = [np.pi * amp * np.cos(np.pi * x) * r for x, r in zip(xs, rest)]
        return u, 0.5 * sines[0] * rest[0], grad, -d * np.pi**2 * u

    return from_closed_form(
        f"sine-{d}d", d, eps, closed_form, _unit_diagonal,
        x_lo=[0.0] * d, x_hi=[1.0] * d,
    )


BUILTINS: dict[str, Callable[..., ProblemSpec]] = {
    "rotating-pulse": rotating_pulse,
    "boundary-layer": boundary_layer,
    "interior-layer": interior_layer,
}


def get_problem(name: str, eps: float, d: int = 2) -> ProblemSpec:
    if name in BUILTINS:
        spec = BUILTINS[name](eps)
        if spec.d != d:
            raise ValueError(f"problem {name} is defined for d={spec.d}")
        return spec
    if name == "linear":
        return linear_exact(d, eps)
    if name == "sine":
        return sine_product(d, eps)
    raise ValueError(f"unknown problem {name!r}; builtins: {sorted(BUILTINS)} + linear, sine")
