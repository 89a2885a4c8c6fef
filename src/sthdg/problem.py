"""Problem definitions for the advection-diffusion model.

The PDE on the space-time domain E = (0,T) x Omega is

    div(beta u) - eps * lap_x(u) = f,     beta = (1, beta_bar),

with beta_bar divergence-free in space.  Boundary conditions: u = g_D on the
Dirichlet part of the lateral boundary, and

    -zeta^- u (beta . n) + eps grad_x(u) . n_x = g

on the Neumann part, which always contains the initial plane (where the
relation reduces to u = g, i.e. the initial condition) and the final plane
(g = 0 there).

All field callbacks are vectorized: they take an (n, d+1) array of points
[t, x_1, .., x_d] and return (n,) or (n, d) arrays.  Built-in problems are
defined symbolically and their derivatives and (unless a problem states
its own, as the rotating pulse does with f = 0) source terms generated with
sympy, so manufactured data is consistent with the stated exact solution by
construction (and cross-checked by finite differences in the tests).

`exact` is u alone (initial and Dirichlet data).  `exact_jet` maps the
points to (u, u_t, grad u), shapes (n,), (n,) and (n, d), from one
lambdify with common subexpressions shared, so the error norms, the
lateral Neumann data and the saturation measurement evaluate the exact
solution once per point; its u agrees with `exact` to rounding.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

Field = Callable[[np.ndarray], np.ndarray]


@dataclass
class ProblemSpec:
    name: str
    d: int
    eps: float
    t_final: float
    x_lo: np.ndarray
    x_hi: np.ndarray
    beta_bar: Field  # (n, d+1) -> (n, d)
    f: Field  # (n, d+1) -> (n,)
    exact: Optional[Field] = None
    exact_jet: Optional[Callable[[np.ndarray], tuple[np.ndarray, np.ndarray, np.ndarray]]] = None
    g_initial: Optional[Field] = None  # defaults to exact at t = 0
    g_dirichlet: Optional[Field] = None  # defaults to exact trace / zero
    g_neumann_lateral: Optional[Callable[[np.ndarray, np.ndarray], np.ndarray]] = None
    dirichlet_lateral: bool = True

    def beta(self, pts: np.ndarray) -> np.ndarray:
        """Full space-time advective field (1, beta_bar)."""
        pts = np.atleast_2d(pts)
        out = np.empty((pts.shape[0], self.d + 1))
        out[:, 0] = 1.0
        out[:, 1:] = self.beta_bar(pts)
        return out

    def initial_data(self, pts: np.ndarray) -> np.ndarray:
        if self.g_initial is not None:
            return self.g_initial(pts)
        if self.exact is not None:
            return self.exact(pts)
        raise ValueError(f"problem {self.name} has no initial data")

    def dirichlet_data(self, pts: np.ndarray) -> np.ndarray:
        if self.g_dirichlet is not None:
            return self.g_dirichlet(pts)
        if self.exact is not None:
            return self.exact(pts)
        return np.zeros(np.atleast_2d(pts).shape[0])

    def neumann_data(self, pts: np.ndarray, normal: np.ndarray) -> np.ndarray:
        """Boundary data g = -zeta^- u (beta.n) + eps grad(u).n_x at pts.

        `normal` is the outward space-time unit normal (d+1,).  On the
        initial plane this is the initial condition, on the final plane it
        vanishes identically.
        """
        pts = np.atleast_2d(pts)
        normal = np.asarray(normal, dtype=float)
        if normal[0] < 0 and np.all(normal[1:] == 0):
            return self.initial_data(pts)
        if normal[0] > 0 and np.all(normal[1:] == 0):
            return np.zeros(pts.shape[0])
        if self.g_neumann_lateral is not None:
            return self.g_neumann_lateral(pts, normal)
        if self.exact is None:
            raise ValueError(f"problem {self.name} has no lateral Neumann data")
        bn = self.beta(pts) @ normal
        zminus = (bn < 0).astype(float)
        u, _, grad = self.exact_jet(pts)
        return -zminus * u * bn + self.eps * (grad @ normal[1:])

    def has_exact(self) -> bool:
        return self.exact is not None


# ----------------------------------------------------------------------
# symbolic construction of built-in problems
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


_JET_BLOCK = 16384  # points per call of the jet: its temporaries stay in cache


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
        exact=_vectorize(lam(u)),
        exact_jet=_jet(lam([u, u_t, *grad], cse=True), d),
        dirichlet_lateral=dirichlet_lateral,
    )


def rotating_pulse(eps: float) -> ProblemSpec:
    """Gaussian pulse rotating around the origin; f = 0."""
    import sympy as sp

    t, x1, x2 = sp.symbols("t x1 x2")
    sigma = sp.Rational(1, 10)
    x1c, x2c = -sp.Rational(1, 5), sp.Rational(1, 10)
    xt1 = x1 * sp.cos(4 * t) + x2 * sp.sin(4 * t)
    xt2 = -x1 * sp.sin(4 * t) + x2 * sp.cos(4 * t)
    u = (
        sigma**2
        / (sigma**2 + 2 * eps * t)
        * sp.exp(-((xt1 - x1c) ** 2 + (xt2 - x2c) ** 2) / (2 * sigma**2 + 4 * eps * t))
    )
    # the pulse is an exact solution of the homogeneous equation
    return from_symbolic(
        "rotating-pulse", 2, eps, u, [-4 * x2, 4 * x1],
        x_lo=[-0.5, -0.5], x_hi=[0.5, 0.5], source=0,
    )


def boundary_layer(eps: float) -> ProblemSpec:
    """Outflow boundary layers of width O(eps) on the unit square."""
    import sympy as sp

    t, x1, x2 = sp.symbols("t x1 x2")

    def ramp(z):
        return (sp.exp((z - 1) / eps) - 1) / (sp.exp(-1 / sp.Float(eps)) - 1) + z - 1

    u = (1 - sp.exp(-t)) * ramp(x1) * ramp(x2)
    return from_symbolic(
        "boundary-layer", 2, eps, u, [1, 1], x_lo=[0.0, 0.0], x_hi=[1.0, 1.0]
    )


def interior_layer(eps: float) -> ProblemSpec:
    """Diagonal interior layer driven by constant advection."""
    import sympy as sp

    t, x1, x2 = sp.symbols("t x1 x2")
    u = (
        (1 - sp.exp(-t))
        * sp.atan((x2 - x1) / (sp.sqrt(2) * eps))
        * (1 - (x1 + x2) ** 2 / 2)
    )
    return from_symbolic(
        "interior-layer", 2, eps, u, [1, 1], x_lo=[-0.5, -0.5], x_hi=[0.5, 0.5]
    )


def linear_exact(d: int, eps: float = 1.0, beta_const=None) -> ProblemSpec:
    """u = t + x_1 (+ x_2): reproduced exactly by any discretization order."""
    import sympy as sp

    if beta_const is None:
        beta_const = (1.0,) * d
    syms = sp.symbols("t x1 x2")[: d + 1]
    u = syms[0] + sum(syms[1 + i] for i in range(d))
    return from_symbolic(
        f"linear-{d}d", d, eps, u, list(beta_const), x_lo=[0.0] * d, x_hi=[1.0] * d
    )


def sine_product(d: int, eps: float, dirichlet_lateral: bool = True) -> ProblemSpec:
    """Smooth manufactured solution, homogeneous on the lateral boundary."""
    import sympy as sp

    syms = sp.symbols("t x1 x2")[: d + 1]
    u = (1 + syms[0] / 2)
    for i in range(d):
        u = u * sp.sin(sp.pi * syms[1 + i])
    return from_symbolic(
        f"sine-{d}d", d, eps, u, [1] * d, x_lo=[0.0] * d, x_hi=[1.0] * d,
        dirichlet_lateral=dirichlet_lateral,
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
