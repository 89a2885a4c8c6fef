"""Sparse direct solution of the assembled system by causal block substitution.

With the upwind flux in time an unknown depends only on unknowns at the same
or earlier times, so some symmetric permutation makes the system matrix
block lower triangular (the Duff-Reid block-triangular form).  The solver
finds that order from the sparsity graph of the matrix, with an edge i -> j
for every stored entry A[i, j], and assumes nothing about the mesh:

* a block is a strongly connected component of that graph; its unknowns
  are coupled both ways and must be solved together;
* the blocks form an acyclic graph.  A block's level is 0 when it depends
  on no other block and otherwise one more than the highest level it
  depends on.  Blocks of one level do not depend on each other, so the
  diagonal submatrix of a level is block diagonal.

The matrix is permuted once so that every level is a contiguous range of
rows, and the levels are forward-substituted in order with one sparse LU
each.  Causality keeps the blocks small: later time slabs, and after
temporal refinement later time layers of a slab, depend only on earlier
ones.  A system without such structure is solved as a single block; there
is no mode to choose.  The relative residual of the full system is checked
to 1e-10.  Running out of memory or a failed factorization is reported as
SolverError.
"""

from __future__ import annotations

import logging
import time
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.sparse import csgraph

from .assembly import AssembledSystem, apply_dirichlet

RESIDUAL_TOL = 1e-10

log = logging.getLogger(__name__)


class SolverError(RuntimeError):
    pass


@dataclass
class SolveReport:
    n_dofs: int
    nnz: int
    residual: float
    method: str
    elapsed: float
    block_sizes: list[int]  # dofs of each level, in solve order

    @property
    def n_blocks(self) -> int:
        """Number of sparse LU factorizations, one per level."""
        return len(self.block_sizes)


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


def causal_levels(A: sp.csr_matrix) -> np.ndarray:
    """Level of every unknown in the block-triangular order of A."""
    n_comp, comp = csgraph.connected_components(A, directed=True, connection="strong")
    coo = A.tocoo()
    ci, cj = comp[coo.row], comp[coo.col]
    cross = ci != cj
    # row j of `dependents` lists the blocks that read block j's unknowns
    dependents = sp.csr_matrix(
        (np.ones(np.count_nonzero(cross)), (cj[cross], ci[cross])), shape=(n_comp, n_comp))
    waiting = np.bincount(dependents.indices, minlength=n_comp)
    level = np.empty(n_comp, dtype=np.intp)
    ready = np.flatnonzero(waiting == 0)
    k = 0
    while ready.size:  # level-synchronous Kahn sweep: each edge is visited once
        level[ready] = k
        hit, n_hit = np.unique(dependents[ready].indices, return_counts=True)
        waiting[hit] -= n_hit
        ready = hit[waiting[hit] == 0]
        k += 1
    return level[comp]


def _permuted(A: sp.csr_matrix, perm: np.ndarray) -> sp.csr_matrix:
    """A[perm][:, perm] in one copy: row i is row perm[i] of A, entries in
    their order in A, columns renumbered."""
    inv = np.empty_like(perm)
    inv[perm] = np.arange(len(perm))
    lens = np.diff(A.indptr)[perm]
    indptr = np.concatenate(([0], np.cumsum(lens))).astype(A.indptr.dtype)
    src = np.repeat(A.indptr[perm] - indptr[:-1], lens) + np.arange(indptr[-1])
    return sp.csr_matrix((A.data[src], inv[A.indices[src]].astype(A.indices.dtype), indptr),
                         shape=A.shape)


def solve(sys: AssembledSystem) -> tuple[np.ndarray, SolveReport]:
    """Solve the bilinear system with Dirichlet rows applied."""
    A_bc, b_bc = apply_dirichlet(sys)
    t0 = time.perf_counter()
    level = causal_levels(A_bc)
    perm = np.argsort(level, kind="stable")
    A_p = _permuted(A_bc, perm)
    b_p = b_bc[perm]
    bounds = np.concatenate(([0], np.cumsum(np.bincount(level))))
    x_p = np.zeros(sys.n_dofs)
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        rows = A_p[lo:hi]
        rhs = b_p[lo:hi] - rows @ x_p  # x_p is zero on this and later levels
        x_p[lo:hi] = _lu_solve(rows[:, lo:hi], rhs)
    x = np.empty_like(x_p)
    x[perm] = x_p
    resid = _check_residual(A_bc, b_bc, x, "block-lu")
    rep = SolveReport(
        n_dofs=sys.n_dofs, nnz=A_bc.nnz, residual=resid, method="block-lu",
        elapsed=time.perf_counter() - t0, block_sizes=np.diff(bounds).tolist(),
    )
    log.info("solve: %d dofs, %d levels, largest %d dofs, residual %.2e, %.3f s",
             rep.n_dofs, rep.n_blocks, max(rep.block_sizes), rep.residual, rep.elapsed)
    return x, rep
