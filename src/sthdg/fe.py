"""Reference-element machinery: tensor-product Lagrange bases and Gauss rules.

Everything lives on the reference box [-1, 1]^k.  Physical elements are
axis-aligned boxes, so all maps are affine with diagonal Jacobians and basis
calculus transfers by per-axis scalings.

Conventions
-----------
* Axis 0 is time for space-time element and lateral-facet bases; horizontal
  (constant-time) facets carry purely spatial bases.
* Basis functions are nodal Lagrange polynomials at Gauss-Lobatto points,
  tensorized over axes.  Multi-indices are enumerated in C order (axis 0
  slowest), and ``TensorBasis.nodes`` lists the node coordinates in the same
  order, so coefficient vectors are point values at those nodes.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from numpy.polynomial import legendre as npleg
from numpy.polynomial.polynomial import Polynomial


@lru_cache(maxsize=None)
def gauss_1d(n: int) -> tuple[np.ndarray, np.ndarray]:
    """n-point Gauss-Legendre rule on [-1, 1]; exact for degree 2n - 1."""
    if n < 1:
        raise ValueError(f"need at least one quadrature point, got {n}")
    x, w = npleg.leggauss(n)
    return x, w


@lru_cache(maxsize=None)
def lobatto_nodes(p: int) -> np.ndarray:
    """The p + 1 Gauss-Lobatto points on [-1, 1] (endpoints included)."""
    if p < 1:
        raise ValueError(f"nodal degree must be >= 1, got {p}")
    if p == 1:
        return np.array([-1.0, 1.0])
    # interior nodes are the roots of P_p'
    dcoef = npleg.legder(np.eye(p + 1)[p])
    interior = npleg.legroots(dcoef)
    return np.concatenate(([-1.0], np.sort(interior.real), [1.0]))


@dataclass(frozen=True)
class TensorRule:
    """Tensorized quadrature rule on [-1, 1]^k."""

    points: np.ndarray  # (nq, k)
    weights: np.ndarray  # (nq,)


@lru_cache(maxsize=None)
def tensor_rule(npts: tuple[int, ...]) -> TensorRule:
    """Tensor-product Gauss rule with npts[a] points along axis a.

    The empty tuple gives the zero-dimensional rule: one point, weight one
    (integration over a point is evaluation).
    """
    if not npts:
        return TensorRule(points=np.zeros((1, 0)), weights=np.ones(1))
    axes = [gauss_1d(n) for n in npts]
    grids = np.meshgrid(*[x for x, _ in axes], indexing="ij")
    pts = np.column_stack([g.reshape(-1) for g in grids])
    w = np.ones(1)
    for _, w1 in axes:
        w = np.multiply.outer(w, w1).reshape(-1)
    return TensorRule(points=pts, weights=w)


@dataclass(frozen=True)
class BasisValues:
    """Basis evaluation at a batch of reference points.

    values : (nq, nb)
    grad   : (nq, nb, k)   d(phi)/d(ref axis)
    second : (nq, nb, k)   d2(phi)/d(ref axis)^2  (diagonal only; cross terms
                           are never needed because only the Laplacian enters)
    """

    values: np.ndarray
    grad: np.ndarray
    second: np.ndarray


class TensorBasis:
    """Nodal tensor-product Lagrange basis on [-1, 1]^k.

    degrees[a] is the polynomial degree along axis a.
    """

    def __init__(self, degrees: tuple[int, ...]):
        self.degrees = tuple(int(p) for p in degrees)
        if any(p < 0 for p in self.degrees):
            raise ValueError(f"degrees must be nonnegative, got {degrees}")
        self.dim = len(self.degrees)
        self.nodes_1d = [
            lobatto_nodes(p) if p >= 1 else np.array([0.0]) for p in self.degrees
        ]
        self._polys: list[list[tuple[Polynomial, Polynomial, Polynomial]]] = []
        for nodes in self.nodes_1d:
            axis_polys = []
            for i, xi in enumerate(nodes):
                others = np.delete(nodes, i)
                if others.size:
                    P = Polynomial.fromroots(others) / np.prod(xi - others)
                else:
                    P = Polynomial([1.0])
                axis_polys.append((P, P.deriv(1), P.deriv(2) if P.degree() >= 2 else Polynomial([0.0])))
            self._polys.append(axis_polys)
        shape = tuple(p + 1 for p in self.degrees)
        self.n_basis = int(np.prod(shape))
        self.multi_indices = np.stack(
            np.meshgrid(*[np.arange(s) for s in shape], indexing="ij"), axis=-1
        ).reshape(-1, self.dim)
        self.nodes = np.column_stack(
            [self.nodes_1d[a][self.multi_indices[:, a]] for a in range(self.dim)]
        )

    def eval(self, pts: np.ndarray) -> BasisValues:
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        if pts.shape[1] != self.dim:
            raise ValueError(f"points have dim {pts.shape[1]}, basis has {self.dim}")
        nq = pts.shape[0]
        # per-axis tables: (nq, p_a + 1) for value / first / second derivative
        V, D, D2 = [], [], []
        for a in range(self.dim):
            x = pts[:, a]
            va = np.column_stack([P(x) for P, _, _ in self._polys[a]])
            da = np.column_stack([dP(x) for _, dP, _ in self._polys[a]])
            dda = np.column_stack([ddP(x) for _, _, ddP in self._polys[a]])
            V.append(va)
            D.append(da)
            D2.append(dda)
        nb = self.n_basis
        values = np.ones((nq, nb))
        grad = np.empty((nq, nb, self.dim))
        second = np.empty((nq, nb, self.dim))
        idx = self.multi_indices
        for a in range(self.dim):
            values *= V[a][:, idx[:, a]]
        for a in range(self.dim):
            g = D[a][:, idx[:, a]].copy()
            s = D2[a][:, idx[:, a]].copy()
            for b in range(self.dim):
                if b != a:
                    vb = V[b][:, idx[:, b]]
                    g *= vb
                    s *= vb
            grad[:, :, a] = g
            second[:, :, a] = s
        return BasisValues(values=values, grad=grad, second=second)


@lru_cache(maxsize=None)
def get_basis(degrees: tuple[int, ...]) -> TensorBasis:
    return TensorBasis(degrees)


def box_jacobian(lo: np.ndarray, hi: np.ndarray) -> float:
    """Constant Jacobian determinant of the affine map onto [lo, hi]."""
    return float(np.prod(0.5 * (np.asarray(hi) - np.asarray(lo))))
