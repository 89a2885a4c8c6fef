"""Sparse direct solution of the assembled system by causal block substitution.

With the upwind flux in time an unknown depends only on unknowns at the same
or earlier times, so some symmetric permutation makes the system matrix
block lower triangular (the Duff-Reid block-triangular form).  The solver
finds that order from the sparsity graph of the Dirichlet system, with an
edge i -> j where row i reads unknown j, and assumes nothing about the mesh:

* a block is a strongly connected component of that graph; its unknowns
  are coupled both ways and must be solved together;
* the blocks form an acyclic graph.  A block's level is 0 when it depends
  on no other block and otherwise one more than the highest level it
  depends on.  Blocks of one level do not depend on each other, so the
  diagonal submatrix of a level is block diagonal.

The solver reads the assembled matrix `sys.A` as it is, with its stored
zeros and its raw Dirichlet rows.  Its graph has an edge i -> j for every
nonzero A[i, j] in a free row; a constrained row reads nothing, since its
unknown is the projected boundary value.  The levels are
forward-substituted in order with one sparse LU each.  A level's rows of
the Dirichlet system are cut from `sys.A` by `apply_dirichlet(sys, rows)`,
in ascending dof order, and its diagonal block is cut from them.  No whole
Dirichlet copy of the matrix and no permuted copy are made, and the
solution keeps the original numbering.  Causality keeps the blocks small:
later time slabs, and after temporal refinement later time layers of a
slab, depend only on earlier ones.  A system without such structure is
solved as a single block; there is no mode to choose.

Each level is factored by SuperLU in its symmetric mode (X. S. Li, "An
overview of SuperLU", ACM TOMS 31(3), 2005): columns ordered by minimum
degree on the pattern of A + A^T, and the diagonal taken as pivot while it
is at least 0.1 times the largest entry of its column.  The HDG level
matrices are nearly structurally symmetric, so this keeps a half to a third
of the fill of COLAMD with full partial pivoting, and the threshold still
lets SuperLU pivot off a small or zero diagonal.  The relative residual of the
full Dirichlet system, A x - b on free rows and x - g on constrained rows, is
checked to 1e-10.  Running out of memory or a failed factorization is
reported as SolverError.
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
_CHUNK = 1 << 14  # entries per pass over the matrix in `causal_levels`

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
    fill: list[int]  # entries stored for each level's L and U, in solve order

    @property
    def n_blocks(self) -> int:
        """Number of sparse LU factorizations, one per level."""
        return len(self.block_sizes)

    @property
    def lu_fill(self) -> int:
        """Entries stored for all LU factors together."""
        return sum(self.fill)


def _check_residual(sys: AssembledSystem, x: np.ndarray, method: str) -> float:
    """Relative residual of the Dirichlet system, from the raw matrix: A x - b
    on free rows and x - g on constrained rows."""
    b_bc = sys.dirichlet_rhs()
    r = sys.A @ x - b_bc
    r[sys.dirichlet_idx] = x[sys.dirichlet_idx] - sys.dirichlet_values
    denom = np.linalg.norm(b_bc)
    resid = np.linalg.norm(r) / (denom if denom > 0 else 1.0)
    if not np.isfinite(resid) or resid > RESIDUAL_TOL:
        raise SolverError(
            f"{method} solve failed: relative residual {resid:.3e} exceeds {RESIDUAL_TOL:.1e}"
        )
    return float(resid)


def _lu_solve(A: sp.spmatrix, b: np.ndarray) -> tuple[np.ndarray, int]:
    """Solution of A x = b and the fill of the LU of A: the entries SuperLU
    stores for L and U, zeros inside its supernodes included.  Counting
    `lu.L.nnz + lu.U.nnz` instead would copy both factors into scipy
    matrices, which adds about 40 % to the LU time of levels of a few
    hundred dofs."""
    try:
        lu = spla.splu(A.tocsc(), permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.1,
                       options=dict(SymmetricMode=True))
        return lu.solve(b), lu.nnz
    except (MemoryError, RuntimeError) as exc:
        raise SolverError(f"sparse LU failed: {type(exc).__name__}: {exc}") from exc


def causal_levels(A: sp.csr_matrix, free: np.ndarray) -> np.ndarray:
    """Level of every unknown in the block-triangular order of the Dirichlet
    system of A: a free row i reads unknown j where A[i, j] != 0, and a
    constrained row reads nothing."""
    n, ptr = A.shape[0], A.indptr
    cuts = np.unique(np.r_[0, np.searchsorted(ptr, np.arange(_CHUNK, ptr[-1], _CHUNK)), n])
    chunks = list(zip(cuts[:-1], cuts[1:]))  # row ranges of about _CHUNK entries each
    # an entry that couples nothing becomes a self loop on its row, which no
    # strong component sees; the graph shares A's data and indptr
    cols = A.indices.copy()
    for r0, r1 in chunks:
        row = np.repeat(np.arange(r0, r1, dtype=cols.dtype), np.diff(ptr[r0:r1 + 1]))
        idle = ~free[row] | (A.data[ptr[r0]:ptr[r1]] == 0)
        cols[ptr[r0]:ptr[r1]][idle] = row[idle]
    graph = sp.csr_matrix((A.data, cols, ptr), shape=A.shape, copy=False)
    n_comp, comp = csgraph.connected_components(graph, directed=True, connection="strong")
    # distinct block pairs (j, i) where block i reads block j, as j * n_comp + i
    pairs = []
    for r0, r1 in chunks:
        ci = np.repeat(comp[r0:r1], np.diff(ptr[r0:r1 + 1]))
        cj = comp[cols[ptr[r0]:ptr[r1]]]
        cross = ci != cj
        pairs.append(np.unique(cj[cross].astype(np.int64) * n_comp + ci[cross]))
    del cols
    src, dependents = np.divmod(np.unique(np.concatenate(pairs)), n_comp)
    # dependents[start[j]:start[j + 1]] are the blocks that read block j
    start = np.concatenate(([0], np.cumsum(np.bincount(src, minlength=n_comp))))
    waiting = np.bincount(dependents, minlength=n_comp)
    level = np.empty(n_comp, dtype=np.intp)
    ready = np.flatnonzero(waiting == 0)
    k = 0
    while ready.size:  # level-synchronous Kahn sweep: each edge is visited once
        level[ready] = k
        lo, cnt = start[ready], start[ready + 1] - start[ready]
        at = np.repeat(lo - np.cumsum(cnt) + cnt, cnt) + np.arange(cnt.sum())
        hit, n_hit = np.unique(dependents[at], return_counts=True)
        waiting[hit] -= n_hit
        ready = hit[waiting[hit] == 0]
        k += 1
    return level[comp]


def solve(sys: AssembledSystem) -> tuple[np.ndarray, SolveReport]:
    """Solve the bilinear system with Dirichlet rows applied."""
    t0 = time.perf_counter()
    level = causal_levels(sys.A, sys.free_mask())
    order = np.argsort(level, kind="stable")  # ascending dof ids within each level
    bounds = np.concatenate(([0], np.cumsum(np.bincount(level))))
    x = np.zeros(sys.n_dofs)
    nnz, fill = 0, []
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        idx = order[lo:hi]
        rows, b_lvl = apply_dirichlet(sys, idx)
        nnz += rows.nnz
        rhs = b_lvl - rows @ x  # x is zero on this and later levels
        block = rows[:, idx].tocsc()
        del rows  # free the level's rows before its LU ...
        x[idx], nnz_lu = _lu_solve(block, rhs)
        del block  # ... and its block before the next level's gathers
        fill.append(nnz_lu)
    resid = _check_residual(sys, x, "block-lu")
    rep = SolveReport(
        n_dofs=sys.n_dofs, nnz=nnz, residual=resid, method="block-lu",
        elapsed=time.perf_counter() - t0, block_sizes=np.diff(bounds).tolist(), fill=fill,
    )
    log.info("solve: %d dofs, %d levels, largest %d dofs, LU fill %d, residual %.2e, %.3f s",
             rep.n_dofs, rep.n_blocks, max(rep.block_sizes), rep.lu_fill, rep.residual,
             rep.elapsed)
    return x, rep
