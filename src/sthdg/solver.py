"""Sparse direct solution of the assembled system by causal block substitution.

With the upwind flux in time an unknown depends only on unknowns at the same
or earlier times, so some symmetric permutation makes the system matrix
block lower triangular (the Duff-Reid block-triangular form).  The solver
finds that order from the sparsity graph of the assembled matrix, with an
edge i -> j where row i reads unknown j, and assumes nothing about the mesh:

* a block is a strongly connected component of that graph; its unknowns
  are coupled both ways and must be solved together;
* the blocks form an acyclic graph.  A block's level is 0 when it depends
  on no other block and otherwise one more than the highest level it
  depends on.  Blocks of one level do not depend on each other, so the
  diagonal submatrix of a level is block diagonal.

The projected Dirichlet values are data, not unknowns: `solve` writes them
into x first and solves for the free unknowns only.  The graph is that of
`sys.A` as it is, with its stored zeros and its Dirichlet rows: an edge
i -> j for every nonzero A[i, j].  A Dirichlet facet couples only with its
one owner element, so it joins that element's block and merges no others,
and `solve` drops the constrained dofs from the level order.  The levels
are forward-substituted in order with one sparse LU each.  A level's rows
are cut from `sys.A` by `apply_dirichlet(sys, rows)`, in ascending dof
order, and its diagonal block is cut from them.  No whole copy of the
matrix and no permuted copy are made, and the solution keeps the original
numbering.  Causality keeps the blocks small: later time slabs, and after
temporal refinement later time layers of a slab, depend only on earlier
ones.  A system without such structure is solved as a single block; there
is no mode to choose.

The solver reads one thing of the discretization beyond the matrix: the
dof numbering of `DofMap`, element dofs first and then the dofs of each
facet in one run.  A facet's unknowns couple only with each other and with
the elements on its two sides, so the facet-facet block of a level, D =
B_FF, is block diagonal with one small SPD block per facet.  At p_s = 1
every facet carries 2^d dofs, and a level of at least `_CONDENSE_MIN` dofs
that holds element and facet dofs inverts those blocks in one batch of
equal dense blocks and factors the element Schur complement

    S = B_EE - B_EF D^-1 B_FE,   S z_E = rhs_E - B_EF D^-1 rhs_F,

then takes z_F = D^-1 (rhs_F - B_FE z_E) with the same D^-1 from its facet
rows, gathered again after the LU so that only S, its factors and D^-1 are
alive through it.  The reverse, condensing the element dofs onto the
facets, gives a Schur complement with about 11 times the nonzeros of B_FF
and was rejected.  On the p_s = 1 pulse ladder S stores 2-24 % less fill
than the whole level and, with the cost of forming it, is not slower from
about 7,000 dofs.  At p_s = 2 it was slower on all but two of the levels
measured (3.5k-51k dofs), so levels of p_s >= 2, like all smaller ones,
are factored whole.

Each level, or its S, is factored by SuperLU in its symmetric mode (X. S.
Li, "An overview of SuperLU", ACM TOMS 31(3), 2005): columns ordered by minimum
degree on the pattern of A + A^T, and the diagonal taken as pivot while it
is at least 0.1 times the largest entry of its column.  The HDG level
matrices are nearly structurally symmetric, so this keeps a half to a third
of the fill of COLAMD with full partial pivoting, and the threshold still
lets SuperLU pivot off a small or zero diagonal.  The relative residual of the
full Dirichlet system, A x - b on free rows and x - g on constrained rows, is
checked to 1e-10.  Running out of memory or a failed factorization is
reported as SolverError, and so is a singular facet block.

`solve` returns a `SolveReport`: the dofs, the nnz of the free rows and the
residual, and for each level in solve order its free dofs, the entries
SuperLU stored for its factors and the dofs it factored; the constrained
dofs are in no level.  A level was factored on its Schur complement exactly
where it factored fewer dofs than it holds, so the report names no method;
it holds no time either, since its callers time the call (the `solve:` log
line times it on its own).
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
# dofs from which a p_s = 1 level is factored on its element Schur complement
# (measured on the pulse ladder); levels of higher degree are factored whole
_CONDENSE_MIN = 7000

log = logging.getLogger(__name__)


class SolverError(RuntimeError):
    pass


@dataclass
class SolveReport:
    n_dofs: int
    nnz: int
    residual: float
    block_sizes: list[int]  # free dofs of each level, in solve order
    fill: list[int]  # entries stored for each level's L and U, in solve order
    factored: list[int]  # dofs SuperLU factored for each level, in solve order

    @property
    def n_blocks(self) -> int:
        """Number of sparse LU factorizations, one per level."""
        return len(self.block_sizes)


def _check_residual(sys: AssembledSystem, x: np.ndarray) -> float:
    """Relative residual of the Dirichlet system, from the raw matrix: A x - b
    on free rows and x - g on constrained rows."""
    b_bc = sys.b.copy()  # b on free rows, g on constrained rows
    b_bc[sys.dirichlet_idx] = sys.dirichlet_values
    r = sys.A @ x - b_bc
    r[sys.dirichlet_idx] = x[sys.dirichlet_idx] - sys.dirichlet_values
    denom = np.linalg.norm(b_bc)
    resid = np.linalg.norm(r) / (denom if denom > 0 else 1.0)
    if not np.isfinite(resid) or resid > RESIDUAL_TOL:
        raise SolverError(
            f"solve failed: relative residual {resid:.3e} exceeds {RESIDUAL_TOL:.1e}"
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


def causal_levels(A: sp.csr_matrix) -> np.ndarray:
    """Level of every unknown in the block-triangular order of A: row i
    reads unknown j where A[i, j] != 0."""
    n, ptr = A.shape[0], A.indptr
    cuts = np.unique(np.r_[0, np.searchsorted(ptr, np.arange(_CHUNK, ptr[-1], _CHUNK)), n])
    chunks = list(zip(cuts[:-1], cuts[1:]))  # row ranges of about _CHUNK entries each
    # an entry that couples nothing becomes a self loop on its row, which no
    # strong component sees; the graph shares A's data and indptr
    cols = A.indices.copy()
    for r0, r1 in chunks:
        row = np.repeat(np.arange(r0, r1, dtype=cols.dtype), np.diff(ptr[r0:r1 + 1]))
        idle = A.data[ptr[r0]:ptr[r1]] == 0
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


def _facet_inverse(B_FF: sp.csr_matrix, k: int) -> sp.csr_matrix:
    """Inverse of B_FF, whose dofs are runs of k, one run per facet, coupled
    only within their run: one batch of dense k x k inverses."""
    n = B_FF.shape[0]
    coo = B_FF.tocoo()
    D = np.zeros((n // k, k, k))
    D[coo.row // k, coo.row % k, coo.col % k] = coo.data
    try:
        D_inv = np.linalg.inv(D)
    except np.linalg.LinAlgError as exc:
        raise SolverError(f"singular facet block: {exc}") from exc
    cols = np.repeat(np.arange(n).reshape(-1, k), k, axis=0)  # its facet's dofs, per row
    return sp.csr_matrix((D_inv.reshape(-1), cols.reshape(-1), np.arange(0, n * k + 1, k)),
                         shape=(n, n))


def solve(sys: AssembledSystem) -> tuple[np.ndarray, SolveReport]:
    """Solve the bilinear system for the free unknowns, with the constrained
    ones fixed to their projected boundary values."""
    t0 = time.perf_counter()
    dm = sys.dofmap
    level = causal_levels(sys.A)
    order = np.argsort(level, kind="stable")  # ascending dof ids within each level
    order = order[sys.free_mask()[order]]
    bounds = np.concatenate(([0], np.cumsum(np.unique(level[order], return_counts=True)[1])))
    x = np.zeros(sys.n_dofs)
    x[sys.dirichlet_idx] = sys.dirichlet_values
    k = 2 ** dm.mesh.d  # dofs of every facet at p_s = 1
    nnz, fill, factored = 0, [], []
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        idx = order[lo:hi]
        m_e = int(np.searchsorted(idx, dm.n_elem_dofs))  # element dofs come first
        rows, b_lvl = apply_dirichlet(sys, idx)
        nnz += rows.nnz
        rhs = b_lvl - rows @ x  # x is zero on the free dofs of this and later levels
        block = rows[:, idx].tocsc()
        del rows  # free the level's rows before its LU ...
        if dm.p_s > 1 or len(idx) < _CONDENSE_MIN or m_e in (0, len(idx)):
            x[idx], nnz_lu = _lu_solve(block, rhs)
            del block  # ... and its block before the next level's gathers
            factored.append(len(idx))
        else:
            # S = B_EE - B_EF D^-1 B_FE, taken as [B_EE B_EF] [I; -D^-1 B_FE]
            # so that B_EF D^-1 B_FE is never held beside S
            D_inv = _facet_inverse(block[m_e:, m_e:], k)
            top = block[:m_e]
            r_E = rhs[:m_e] - top[:, m_e:] @ (D_inv @ rhs[m_e:])
            S = top @ sp.vstack((sp.identity(m_e, format="csc"),
                                 -(D_inv @ block[m_e:, :m_e])), format="csc")
            del block, top  # only S and D^-1 are alive through its LU
            x[idx[:m_e]], nnz_lu = _lu_solve(S, r_E)
            del S
            # z_F = D^-1 (rhs_F - B_FE z_E), from the facet rows gathered again
            rows, b_F = apply_dirichlet(sys, idx[m_e:])
            x[idx[m_e:]] = D_inv @ (b_F - rows @ x)
            del rows, D_inv
            factored.append(m_e)
        fill.append(nnz_lu)
    rep = SolveReport(n_dofs=sys.n_dofs, nnz=nnz, residual=_check_residual(sys, x),
                      block_sizes=np.diff(bounds).tolist(), fill=fill, factored=factored)
    log.info("solve: %d dofs, %d levels, largest %d dofs, largest LU %d dofs, LU fill %d, "
             "residual %.2e, %.3f s", rep.n_dofs, rep.n_blocks, max(rep.block_sizes),
             max(factored), sum(fill), rep.residual, time.perf_counter() - t0)
    return x, rep
