"""Sparse direct solution of the assembled system.

Two drivers: a monolithic LU factorization, and a slab-sequential forward
substitution.  The latter exploits causality: with the upwind flux, element
rows never couple to facet unknowns on their top face beyond the local
identity that cancels against the inter-slab facet row, so ordering
unknowns by slab (inter-slab facets assigned to the slab above their plane)
makes the system block lower triangular.  The slab mode factorizes one
diagonal block at a time, which keeps memory flat for long time intervals.
Both modes verify the relative residual of the full system to 1e-10.
Running out of memory or a failed factorization is reported as SolverError.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .assembly import AssembledSystem, apply_dirichlet

RESIDUAL_TOL = 1e-10


class SolverError(RuntimeError):
    pass


@dataclass
class SolveReport:
    n_dofs: int
    nnz: int
    residual: float
    method: str
    elapsed: float
    n_blocks: int = 1
    block_sizes: list[int] = field(default_factory=list)


def _check_residual(A: sp.csr_matrix, b: np.ndarray, x: np.ndarray, method: str) -> float:
    r = A @ x - b
    denom = np.linalg.norm(b)
    resid = np.linalg.norm(r) / (denom if denom > 0 else 1.0)
    if not np.isfinite(resid) or resid > RESIDUAL_TOL:
        raise SolverError(
            f"{method} solve failed: relative residual {resid:.3e} exceeds {RESIDUAL_TOL:.1e}"
        )
    return float(resid)


def _lu_solve(A: sp.spmatrix, b: np.ndarray) -> np.ndarray:
    try:
        return spla.spsolve(A.tocsc(), b)
    except (MemoryError, RuntimeError) as exc:
        raise SolverError(f"sparse LU failed: {type(exc).__name__}: {exc}") from exc


def solve_monolithic(A_bc: sp.csr_matrix, b_bc: np.ndarray) -> tuple[np.ndarray, SolveReport]:
    t0 = time.perf_counter()
    x = _lu_solve(A_bc, b_bc)
    resid = _check_residual(A_bc, b_bc, x, "monolithic")
    return x, SolveReport(
        n_dofs=A_bc.shape[0], nnz=A_bc.nnz, residual=resid,
        method="lu", elapsed=time.perf_counter() - t0,
    )


def _facet_slab(mesh, f) -> int:
    """Slab owning a facet's unknowns: the slab above the plane for
    inter-slab horizontal facets, the containing slab otherwise."""
    if f.is_Q:
        return mesh.elements[f.owner].slab
    own = mesh.elements[f.owner]
    if f.coord == own.lo[0]:  # owner sits above the plane
        return own.slab
    if f.neighbor is not None:
        nb = mesh.elements[f.neighbor]
        if f.coord == nb.lo[0]:
            return nb.slab
    return own.slab  # final-time boundary


def slab_index_sets(sys: AssembledSystem) -> list[np.ndarray]:
    mesh = sys.dofmap.mesh
    n_slabs = len(mesh.slab_times) - 1
    buckets: list[list[np.ndarray]] = [[] for _ in range(n_slabs)]
    for eid in sys.dofmap.elem_ids:
        buckets[mesh.elements[eid].slab].append(sys.dofmap.elem_dofs(eid))
    for fid in sys.dofmap.facet_ids:
        buckets[_facet_slab(mesh, mesh.facets[fid])].append(sys.dofmap.facet_dofs(fid))
    return [np.sort(np.concatenate(bk)) for bk in buckets if bk]


def solve_slabwise(sys: AssembledSystem) -> tuple[np.ndarray, SolveReport]:
    A_bc, b_bc = apply_dirichlet(sys)
    t0 = time.perf_counter()
    x = np.zeros(sys.n_dofs)
    blocks = slab_index_sets(sys)
    sizes = []
    for idx in blocks:
        sub = A_bc[idx, :]
        rhs = b_bc[idx] - sub @ x  # x is zero on this and later slabs
        x[idx] = _lu_solve(sub[:, idx], rhs)
        sizes.append(len(idx))
    resid = _check_residual(A_bc, b_bc, x, "slabwise")
    return x, SolveReport(
        n_dofs=sys.n_dofs, nnz=A_bc.nnz, residual=resid, method="slab-lu",
        elapsed=time.perf_counter() - t0, n_blocks=len(blocks), block_sizes=sizes,
    )


def solve(sys: AssembledSystem, mode: str = "auto") -> tuple[np.ndarray, SolveReport]:
    """Solve the bilinear system with Dirichlet rows applied.

    mode 'auto' picks slab substitution when there is more than one slab,
    'monolithic' and 'slab' force the respective driver.
    """
    if mode == "auto":
        n_slabs = len(sys.dofmap.mesh.slab_times) - 1
        mode = "slab" if n_slabs > 1 else "monolithic"
    if mode == "slab":
        return solve_slabwise(sys)
    if mode == "monolithic":
        A_bc, b_bc = apply_dirichlet(sys)
        return solve_monolithic(A_bc, b_bc)
    raise ValueError(f"unknown solver mode {mode!r}")
