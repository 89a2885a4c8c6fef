import functools
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from sthdg.assembly import build_dofmap, facet_rule
from sthdg.mesh import SpaceTimeMesh
from sthdg.problem import get_problem

from oracles import fd_source, fd_gradient, from_symbolic


def _interior_points(spec, n, rng, margin=0.08):
    lo = np.concatenate(([0.0], spec.x_lo))
    hi = np.concatenate(([spec.t_final], spec.x_hi))
    span = hi - lo
    return lo + span * (margin + (1 - 2 * margin) * rng.random((n, spec.d + 1)))


def test_get_problem_dispatch():
    assert get_problem("linear", 1.0, d=1).name == "linear-1d"
    assert get_problem("sine", 0.1, d=2).name == "sine-2d"
    assert get_problem("rotating-pulse", 1e-3).name == "rotating-pulse"
    with pytest.raises(ValueError):
        get_problem("rotating-pulse", 1e-3, d=1)
    with pytest.raises(ValueError):
        get_problem("no-such-problem", 1.0)


def test_spacetime_beta_has_unit_time_component(rng):
    # beta = (1, beta_bar): the spatial columns are beta_bar's, and along a
    # facet's frozen axis `FacetSides.beta_n` is exactly 1 on time facets
    # and the beta_bar column of the axis on lateral ones
    spec = get_problem("rotating-pulse", 1e-2)
    pts = _interior_points(spec, 17, rng)
    b = spec.beta_bar(pts)
    assert b.shape == (17, 2)
    assert np.allclose(b[:, 0], -4 * pts[:, 2])
    assert np.allclose(b[:, 1], 4 * pts[:, 1])

    mesh = SpaceTimeMesh.build(2, 2, 3, x_lo=spec.x_lo, x_hi=spec.x_hi)
    mesh.refine_and_coarsen(mesh.etab.id[:1].tolist())
    fs = build_dofmap(mesh, 1).facet_sides
    ref = facet_rule(2, 3).points
    beta_n = fs.beta_n(spec, ref)
    assert beta_n.shape == (len(mesh.ftab), len(ref))
    assert np.all(beta_n[fs.axis == 0] == 1.0)
    for axis in (1, 2):
        facets = np.flatnonzero(fs.axis == axis)
        at = fs.points(facets, ref).reshape(-1, 3)
        want = spec.beta_bar(at)[:, axis - 1].reshape(len(facets), -1)
        assert np.array_equal(beta_n[facets], want)


def check_divergence_free(spec, n_boxes=10, seed=0):
    """Max |div beta_bar| sampled by quadrature over random boxes in E."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(n_boxes):
        lo = np.concatenate(([0.0], spec.x_lo))
        hi = np.concatenate(([spec.t_final], spec.x_hi))
        a = lo + rng.random(spec.d + 1) * (hi - lo) * 0.5
        b = a + rng.random(spec.d + 1) * (hi - a)
        pts = a + rng.random((32, spec.d + 1)) * (b - a)
        div = np.zeros(pts.shape[0])
        fd = 1e-6
        for i in range(spec.d):
            dp = pts.copy()
            dm = pts.copy()
            dp[:, 1 + i] += fd
            dm[:, 1 + i] -= fd
            div += (spec.beta_bar(dp)[:, i] - spec.beta_bar(dm)[:, i]) / (2 * fd)
        worst = max(worst, float(np.max(np.abs(div))))
    return worst


def test_builtin_advection_is_divergence_free():
    for name in ("rotating-pulse", "boundary-layer", "interior-layer"):
        assert check_divergence_free(get_problem(name, 1e-2)) < 1e-8
    skew = from_symbolic(
        "skew", 1, 1.0, "t + x1", ["x1"], x_lo=[0.0], x_hi=[1.0]
    )
    assert check_divergence_free(skew) > 0.9


def test_manufactured_source_matches_finite_differences(rng):
    cases = [
        ("linear", 1.0, 1, 1e-9),
        ("linear", 1.0, 2, 1e-9),
        ("sine", 0.1, 2, 1e-8),
        ("boundary-layer", 0.2, 2, 1e-6),
        ("interior-layer", 0.2, 2, 1e-6),
    ]
    for name, eps, d, tol in cases:
        spec = get_problem(name, eps, d=d)
        pts = _interior_points(spec, 25, rng)
        fd = fd_source(spec, pts, h=1e-3)
        scale = max(1.0, np.max(np.abs(fd)))
        assert np.max(np.abs(spec.f(pts) - fd)) < tol * scale, name


def test_pulse_solves_homogeneous_equation(rng):
    # the source is identically zero and the exact solution really does
    # satisfy the equation with f = 0
    spec = get_problem("rotating-pulse", 1e-3)
    pts = _interior_points(spec, 30, rng)
    assert np.all(spec.f(pts) == 0.0)
    assert np.max(np.abs(fd_source(spec, pts, h=2e-3))) < 1e-5


JET_CASES = [
    ("rotating-pulse", 1e-3, 2), ("boundary-layer", 1e-2, 2), ("interior-layer", 1e-2, 2),
    ("linear", 0.5, 1), ("linear", 0.5, 2), ("sine", 0.3, 1), ("sine", 0.3, 2),
]


def test_exact_gradient_and_dt(rng):
    # the jet of every builtin and generated problem against `exact`, which
    # is its u byte for byte, and against central differences of `exact`
    for name, eps, d in JET_CASES:
        spec = get_problem(name, eps, d=d)
        pts = _interior_points(spec, 40, rng)
        u, u_t, grad = spec.exact_jet(pts)
        assert u.shape == u_t.shape == (40,) and grad.shape == (40, d)
        want = spec.exact(pts)
        assert want.tobytes() == u.tobytes(), name
        assert np.allclose(u, want, rtol=1e-14, atol=1e-14 * np.abs(want).max()), name
        g = fd_gradient(spec.exact, pts)
        scale = np.abs(g).max()
        assert np.allclose(grad, g[:, 1:], rtol=1e-6, atol=1e-8 * scale), name
        assert np.allclose(u_t, g[:, 0], rtol=1e-6, atol=1e-8 * scale), name


def _symbolic(name, eps, d):
    """The exact solution and beta_bar of a builtin as sympy expressions."""
    import sympy as sp

    t, x1, x2 = sp.symbols("t x1 x2")
    eps = sp.nsimplify(eps)
    if name == "rotating-pulse":
        sigma = sp.Rational(1, 10)
        xt1 = x1 * sp.cos(4 * t) + x2 * sp.sin(4 * t)
        xt2 = -x1 * sp.sin(4 * t) + x2 * sp.cos(4 * t)
        r2 = (xt1 + sp.Rational(1, 5)) ** 2 + (xt2 - sp.Rational(1, 10)) ** 2
        u = sigma**2 / (sigma**2 + 2 * eps * t) * sp.exp(-r2 / (2 * sigma**2 + 4 * eps * t))
        return u, [-4 * x2, 4 * x1]
    if name == "boundary-layer":
        def ramp(z):
            return (sp.exp((z - 1) / eps) - 1) / (sp.exp(-1 / eps) - 1) + z - 1

        return (1 - sp.exp(-t)) * ramp(x1) * ramp(x2), [1, 1]
    if name == "interior-layer":
        u = (1 - sp.exp(-t)) * sp.atan((x2 - x1) / (sp.sqrt(2) * eps)) * (1 - (x1 + x2) ** 2 / 2)
        return u, [1, 1]
    xs = (x1, x2)[:d]
    if name == "linear":
        return t + sum(xs), [1] * d
    assert name == "sine"
    return (1 + t / 2) * sp.prod([sp.sin(sp.pi * x) for x in xs]), [1] * d


@functools.cache
def _sympy_oracle(name, eps, d):
    """`from_symbolic` of the builtin's expression.  The source is sympy's
    derivative of the conservative form, not simplified: simplifying the
    boundary layer at eps = 1e-3 splits exp(1000 (x - 1)) into exp(1000 x)
    and exp(1000), which overflow in numpy.  The pulse states f = 0."""
    import sympy as sp

    u, beta = _symbolic(name, eps, d)
    t, *xs = sp.symbols("t x1 x2")[: d + 1]
    source = 0 if name == "rotating-pulse" else sp.diff(u, t) + sum(
        sp.diff(b * u, x) - sp.nsimplify(eps) * sp.diff(u, x, 2) for b, x in zip(beta, xs))
    spec = get_problem(name, eps, d=d)
    return from_symbolic(name, d, eps, u, beta, spec.x_lo, spec.x_hi, source=source)


CROSS_CASES = JET_CASES + [("boundary-layer", 1e-3, 2), ("interior-layer", 1e-3, 2)]


@pytest.mark.parametrize("name,eps,d", CROSS_CASES)
def test_closed_forms_match_sympy(name, eps, d):
    # every field of the hand-derived closed form against sympy's
    # derivatives of the same expression, anywhere in the domain (the
    # layers included), to 1e-12 of the field's largest value
    spec, ref = get_problem(name, eps, d=d), _sympy_oracle(name, eps, d)
    pts = _interior_points(spec, 4000, np.random.default_rng(7), margin=0.0)
    with np.errstate(under="ignore"):
        got = dict(zip(("u", "u_t", "grad"), spec.exact_jet(pts)),
                   f=spec.f(pts), beta_bar=spec.beta_bar(pts))
        want = dict(zip(("u", "u_t", "grad"), ref.exact_jet(pts)),
                    f=ref.f(pts), beta_bar=ref.beta_bar(pts))
    for key, w in want.items():
        assert got[key].shape == w.shape, key
        err, scale = np.abs(got[key] - w).max(), np.abs(w).max()
        assert err <= 1e-12 * scale, f"{name} eps={eps} d={d} {key}: {err:.3g} of {scale:.3g}"


def test_runtime_path_imports_no_sympy(tmp_path):
    # sympy is a test dependency only: importing every module, building and
    # evaluating every builtin and running a one-cycle study leave it unloaded
    import sthdg

    code = f"""
import importlib, pkgutil, sys
import numpy as np
import sthdg
for mod in pkgutil.iter_modules(sthdg.__path__):
    importlib.import_module("sthdg." + mod.name)
from sthdg.cli import main
from sthdg.problem import get_problem
for name, eps, d in {JET_CASES!r}:
    spec = get_problem(name, eps, d=d)
    pts = np.full((3, d + 1), 0.25)
    spec.f(pts), spec.exact_jet(pts), spec.beta_bar(pts)
assert main(["study", "--problem", "linear", "--dim", "1", "--eps", "1", "--cycles", "1",
             "--mode", "uniform", "--slabs", "1", "--cells", "1", "--out", {str(tmp_path)!r}]) == 0
assert "sympy" not in sys.modules, sorted(m for m in sys.modules if m.startswith("sympy"))[:5]
"""
    env = dict(os.environ, PYTHONPATH=str(Path(sthdg.__file__).parents[1]),
               OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert (tmp_path / "study.csv").is_file()


def test_boundary_data_defaults(rng):
    spec = get_problem("sine", 0.1, d=1)
    pts = _interior_points(spec, 12, rng)
    pts[:, 0] = 0.0
    assert np.allclose(spec.initial_data(pts), spec.exact(pts))
    assert np.allclose(spec.dirichlet_data(pts), spec.exact(pts))


def test_neumann_data_on_lateral_faces(rng):
    # g = -zeta^- u (beta.n) + eps grad u . n_x on every face x_axis = lo
    # (sign -1) and x_axis = hi (sign +1), with beta.n = sign * beta_bar
    # column axis - 1; the pulse's rotation gives both signs of beta.n on
    # one face, sine's unit field inflow at lo and outflow at hi
    for name, d in (("sine", 1), ("sine", 2), ("rotating-pulse", 2)):
        spec = get_problem(name, 0.2, d=d)
        pts = _interior_points(spec, 40, rng)
        for axis in range(1, d + 1):
            for sign, plane in ((-1, spec.x_lo), (1, spec.x_hi)):
                face = pts.copy()
                face[:, axis] = plane[axis - 1]
                u, _, grad = spec.exact_jet(face)
                bn = sign * spec.beta_bar(face)[:, axis - 1]
                flux = spec.eps * sign * grad[:, axis - 1]
                got = spec.neumann_data(face, axis, sign)
                tag = (name, d, axis, sign)
                assert np.allclose(got, np.where(bn < 0, -u * bn, 0.0) + flux,
                                   rtol=1e-14, atol=1e-14), tag
                if name == "sine":  # inflow at lo adds u, outflow at hi nothing
                    assert np.allclose(got, flux + (u if sign < 0 else 0.0),
                                       rtol=1e-14, atol=1e-14), tag


def test_from_symbolic_nondivfree_source(rng):
    # manufactured source uses the conservative form, so a compressible
    # field needs the u * div(beta) correction relative to fd_source;
    # div(1 + x1) = 1
    spec = from_symbolic(
        "compress", 1, 0.5, "t*t + x1", ["1 + x1"], x_lo=[0.0], x_hi=[1.0]
    )
    pts = _interior_points(spec, 15, rng)
    fd = fd_source(spec, pts, h=1e-4) + spec.exact(pts) * 1.0
    assert np.allclose(spec.f(pts), fd, atol=1e-7)


def test_problem_domains():
    pulse = get_problem("rotating-pulse", 1e-2)
    assert np.allclose(pulse.x_lo, [-0.5, -0.5])
    assert np.allclose(pulse.x_hi, [0.5, 0.5])
    layer = get_problem("boundary-layer", 1e-2)
    assert np.allclose(layer.x_lo, [0.0, 0.0])
    assert layer.t_final == 1.0
    assert layer.dirichlet_lateral
