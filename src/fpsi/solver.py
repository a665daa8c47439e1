"""Sparse direct solve with a mandatory residual check, and LU reuse.

The monolithic matrix is unsymmetric (advection, interface coupling) and can
be badly scaled when the permeability is small, so every solve verifies the
relative residual ||Ax - b|| / max(||b||, eps).

The LU is of P A P^T for the elimination order of the matrix's record
(`fem.SparsePattern.order`, built by `fem.entity_order`).  SuperLU factors
it with its columns as given (permc_spec NATURAL) and threshold pivoting at
DIAG_PIVOT_THRESH: the diagonal entry is kept as pivot when it is at least
that fraction of the largest entry below it in its column.  The saddle-point
pressure rows have zero diagonals until their entity's velocity rows are
eliminated, so a threshold near 1 trades the order's diagonal pivots for
row swaps that undo it.  On steady Stokes n = 64 the LU fill was 6.97M at
thresholds 1e-6, 1e-4 and 1e-3 and 28.6M at 3e-3.  1e-4 sits a factor 30
below that cliff and still caps the growth one pivot may bring at 1e4; the
refinement below and the residual check catch what that costs in accuracy.

A fresh LU solve runs one pass of iterative refinement when the first
residual is above the tolerance, then gives up.

Every solve takes the record of its matrix: the assembly pattern
(`fem.SparsePattern`), or any object with an `order` and an `lu`, which is
None until the first factorization.  A sequence of nearby matrices (one per
time step) shares one record, so a solve with a held LU starts from
x = lu.solve(b) and repeats x += lu.solve(b - A x) until the true residual
is at the tolerance.  It stops reusing when a pass fails to halve the
residual, when the residual is not finite, or after MAX_REUSE_PASSES
passes; it then drops the held LU, factors A fresh and keeps the new LU in
the record.  At most one LU per record is ever alive.  The held LU keeps
its order: a reused LU solves in the order it was made in.  A caller that
solves its matrix once (`stepping.solve_steady`) drops the LU afterwards.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import sparse
from scipy.sparse.linalg import splu

from .errors import SolverError

RESIDUAL_TOL = 1e-9
MAX_REUSE_PASSES = 12
DIAG_PIVOT_THRESH = 1e-4
_EPS = 1e-30


@dataclass
class SolveReport:
    residual: float
    refined: bool          # the fresh-LU path needed its refinement pass
    n: int
    iterations: int        # refinement passes spent in this call
    factored: bool         # a fresh LU was made
    nnz: int               # nonzeros of A
    fill: int              # nonzeros SuperLU stored in L and U; 0 when reused


class OrderedLU:
    """LU of P A P^T, where row and column order[i] of A become row and
    column i; `solve` takes and returns vectors in A's numbering."""

    def __init__(self, A: sparse.spmatrix, order: np.ndarray):
        n = A.shape[0]
        self.shape = A.shape
        self.order = order
        rows = sparse.csr_matrix(A)[self.order]
        position = np.empty(n, dtype=rows.indices.dtype)
        position[self.order] = np.arange(n)
        PA = sparse.csr_matrix((rows.data, position[rows.indices], rows.indptr), shape=A.shape)
        try:
            self.lu = splu(PA.tocsc(), permc_spec="NATURAL",
                           diag_pivot_thresh=DIAG_PIVOT_THRESH)
        except RuntimeError as exc:
            raise SolverError("sparse LU factorization failed: %s" % exc)

    @property
    def fill(self) -> int:
        return int(self.lu.nnz)

    def solve(self, b: np.ndarray) -> np.ndarray:
        x = np.empty(self.shape[0])
        x[self.order] = self.lu.solve(b[self.order])
        return x


def _refine(A, b: np.ndarray, lu, bnorm: float, rtol: float, max_passes: int):
    """x = lu.solve(b), then x += lu.solve(b - A x) until the residual is at
    rtol, a pass fails to halve it, it is not finite, or max_passes ran.
    Returns (x, relative residual, passes)."""
    x = lu.solve(b)
    r = b - A @ x
    res = float(np.linalg.norm(r)) / bnorm
    passes = 0
    while passes < max_passes and np.isfinite(res) and res > rtol:
        x = x + lu.solve(r)
        r = b - A @ x
        last, res = res, float(np.linalg.norm(r)) / bnorm
        passes += 1
        if not res <= 0.5 * last:
            break
    return x, res, passes


def solve(A: sparse.spmatrix, b: np.ndarray, record, rtol: float = RESIDUAL_TOL):
    """Solve Ax = b by sparse LU; returns (x, SolveReport).

    `record` is the matrix's `fem.SparsePattern` (any object with `order`
    and `lu`).  A held `record.lu` of the same shape is tried first by
    iterative refinement; otherwise A is factored afresh in `record.order`
    and the new LU is left in `record.lu`.
    """
    if A.shape[0] != A.shape[1]:
        raise SolverError("matrix is not square: %s" % (A.shape,))
    if A.shape[0] != b.shape[0]:
        raise SolverError("matrix/vector size mismatch: %s vs %d" % (A.shape, b.shape[0]))
    if not np.all(np.isfinite(b)):
        raise SolverError("right-hand side contains non-finite entries")
    if not np.all(np.isfinite(A.data)):
        raise SolverError("matrix contains non-finite entries")
    n = A.shape[0]
    bnorm = max(float(np.linalg.norm(b)), _EPS)

    spent = 0
    if record.lu is not None and record.lu.shape == A.shape:
        x, res, spent = _refine(A, b, record.lu, bnorm, rtol, MAX_REUSE_PASSES)
        if res <= rtol:
            return x, SolveReport(residual=res, refined=False, n=n, iterations=spent,
                                  factored=False, nnz=A.nnz, fill=0)
    record.lu = None               # free the old factors before making new ones
    lu = OrderedLU(A, record.order)
    # one pass of iterative refinement recovers the last digits when the
    # factorization is fine but the matrix is badly scaled
    x, res, passes = _refine(A, b, lu, bnorm, rtol, 1)
    if not np.isfinite(res) or res > rtol:
        raise SolverError(
            "linear solve did not reach the residual tolerance "
            "(%.3e > %.3e)" % (res, rtol),
            residual=res,
        )
    record.lu = lu
    return x, SolveReport(residual=res, refined=passes > 0, n=n, iterations=spent + passes,
                          factored=True, nnz=A.nnz, fill=lu.fill)
