import numpy as np
import pytest

from sthdg.mesh import SpaceTimeMesh
from sthdg.problem import ProblemSpec, get_problem

from oracles import from_symbolic


def poly_problem(d: int, dirichlet: bool = True, eps: float = 0.3) -> ProblemSpec:
    """Manufactured problem with polynomial data everywhere.

    All integrands the discretization and estimator see are then polynomials
    below the exactness degree of both the production quadrature and the
    double-order oracle, so the two must agree to roundoff.  The d=2
    advective field is divergence free with both components positive, which
    keeps beta.n sign-definite on every lateral facet (the upwind indicator
    would otherwise make integrands discontinuous and quadrature-order
    dependent).
    """
    if d == 1:
        return from_symbolic(
            "poly1", 1, eps, "(1+t)*(x1**2 - x1 + 2)", ["0.7"],
            [0.0], [1.0], dirichlet_lateral=dirichlet)
    return from_symbolic(
        "poly2", 2, eps, "(1+t)*(x1**2 - x1 + 2)*(1 + x2)",
        ["1 + 0.25*(0.5 - x2)", "1 + 0.25*(x1 - 0.5)"],
        [0.0, 0.0], [1.0, 1.0], dirichlet_lateral=dirichlet)


def small_meshes(d: int, dirichlet: bool = True):
    """single element, two slabs (interior R-facet), two cells (interior Q)."""
    return [
        SpaceTimeMesh.build(d, 1, 1, dirichlet_lateral=dirichlet),
        SpaceTimeMesh.build(d, 2, 1, dirichlet_lateral=dirichlet),
        SpaceTimeMesh.build(d, 1, 2, dirichlet_lateral=dirichlet),
    ]


def hanging_mesh(d: int, dirichlet: bool = True, policy: str = "h") -> SpaceTimeMesh:
    """2x2^d grid with one element refined: exercises hanging facets."""
    mesh = SpaceTimeMesh.build(d, 2, 2, policy=policy, dirichlet_lateral=dirichlet)
    mesh.refine_and_coarsen(mesh.etab.id[:1].tolist())
    return mesh


def regression_systems():
    """(spec, mesh, p_s) triples the solver tests sweep over."""
    configs = []
    for d in (1, 2):
        configs.append((get_problem("linear", eps=1.0, d=d),
                        SpaceTimeMesh.build(d, 2, 2), 1))
        configs.append((get_problem("sine", eps=0.1, d=d), hanging_mesh(d), 1))
        configs.append((poly_problem(d, dirichlet=False),
                        SpaceTimeMesh.build(d, 2, 2, dirichlet_lateral=False), 2))
    pulse = get_problem("rotating-pulse", eps=1e-3, d=2)
    configs.append((pulse, SpaceTimeMesh.build(
        2, 2, 2, t_final=pulse.t_final, x_lo=pulse.x_lo, x_hi=pulse.x_hi), 1))
    return configs


def problem_mesh(spec: ProblemSpec, n_slabs: int, n_cells) -> SpaceTimeMesh:
    return SpaceTimeMesh.build(
        spec.d, n_slabs, n_cells, t_final=spec.t_final, x_lo=spec.x_lo,
        x_hi=spec.x_hi, dirichlet_lateral=spec.dirichlet_lateral)


@pytest.fixture
def rng():
    return np.random.default_rng(1234)
