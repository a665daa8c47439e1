"""Sparse direct solve with a mandatory residual check, and LU reuse.

The monolithic matrix is unsymmetric (advection, interface coupling) and can
be badly scaled when the permeability is small, so every solve verifies the
relative residual ||Ax - b|| / max(||b||, eps) against RESIDUAL_TOL.

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

Precision split: the LU is made and applied in single precision and
everything around it stays in double.  `OrderedLU` casts P A P^T to float32
once and factors it with SuperLU's single-precision path; its `solve` takes
a float64 right-hand side, scales it to unit max-norm, casts it to float32
and returns the correction in float64.  The products A x, the residuals and
their norms, and the tolerance are float64, so iterative refinement with
the float32 factors reaches the same 1e-9 residual as a float64 LU would
(mixed-precision refinement: Langou et al., SC'06; Carson & Higham, SISC
40, 2018).  L and U take half the memory of float64 factors, with the same
fill, and each factor and triangular solve streams half the bytes.

Each pass cuts the error by about cond(A) times float32's unit roundoff, so
refinement stalls on a matrix too ill-conditioned for single precision.
The solve sees the stall itself: when the float32 factor fails, or its
refinement stops above the tolerance, A is factored again in float64 and
that LU is refined by the same rule.  So every matrix a float64 LU solves
is still solved, and nothing needs setting.

A fresh LU is refined: x = lu.solve(b), then passes x += lu.solve(b - A x),
until one pass after the residual first reaches the tolerance, so every
fresh LU runs at least one pass and ends with some margin below it.  It
also stops when a pass fails to halve the residual, when the residual is
not finite, or after MAX_REUSE_PASSES passes, and a pass that raises the
residual is undone, so refinement returns the best iterate it made.  A
fresh float64 LU that ends above the tolerance raises SolverError.  The
LU of A itself needs no more than plain refinement: on a channel step a
fresh float32 LU is done after two passes, and keeping this path keeps
every fresh solve as it was.

A held LU is of an older matrix, and what it lacks is that matrix's drift,
not precision: the LU of step 2 of a BDF2 `channel:16` run, refining on
step 10's matrix, gains only about a factor 10 per pass (8e-3 to 7e-10 in
eight LU solves), and in float64 its residual history is the same.  So the
held LU preconditions flexible GMRES instead (Saad, SISC 14, 1993;
GMRES-based mixed-precision refinement: Carson & Higham, SISC 40, 2018),
whose steps minimize the residual over all the preconditioned directions
made so far; it spends 6 LU solves on a held `channel:16` step where
refinement spent 8.  Its loop (`_fgmres`), from the caller's initial guess
`x0` (zero when None):

  - each Arnoldi step costs one LU solve z = lu.solve(v) and one product
    A z, orthogonalized against the basis by one classical Gram-Schmidt
    pass; the z are kept, since the scaled float32 solve is not exactly
    linear, and the least-squares problem is reduced by Givens rotations;
  - a cycle ends when the Arnoldi residual estimate is half the
    tolerance, RESIDUAL_TOL ||b|| / 2.  x is updated and its true
    residual checked once; at or below the tolerance the solve returns,
    otherwise the next cycle restarts from that residual.  The estimate
    has matched the true residual to two digits on every cycle measured,
    so the half is for the solution, not the check: a held solve's error
    adds up over the steps, and at the tolerance itself v_s drifted
    1.75e-8 (relative) from the fresh-LU solution in six BDF2 steps on
    `channel:4`, against 4.9e-9 at the half (6.1e-9 with refinement), for
    2 more LU solves over the 18 held steps of a `channel:16` run;
  - the attempt stalls when one step cuts the estimate by less than
    STALL_CUT, when a residual is not finite, or after MAX_REUSE_PASSES LU
    solves.  On criterion 9's stiff slip run (`channel:16`, K = 5e-13),
    whose held LU never suffices, a cut of 4x stops the attempt after as
    many wasted solves as refinement spent (186 LU solves over 30 steps
    against 187), where requiring 2x spent 273 and no rule 470.  A 10x
    rule spent 157 there, but made a third fresh factor on the BDF2 run
    at K = 1e-5, which the 4x rule does not.

Every solve takes the record of its matrix: the assembly pattern
(`fem.SparsePattern`), or any object with an `order` and an `lu`, which is
None until the first factorization.  A sequence of nearby matrices (one per
time step) shares one record, so a solve with a held LU runs the Krylov
loop with it first.  When that attempt stalls, the solve drops the held
LU, factors A fresh (ignoring x0) and keeps the new LU in the record.  At
most one LU per record is ever alive.  The held LU keeps its order: a
reused LU solves in the order it was made in.  A caller that solves its
matrix once (`stepping.solve_steady`) drops the LU afterwards.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import sparse
from scipy.sparse.linalg import splu

from .errors import SolverError

RESIDUAL_TOL = 1e-9
MAX_REUSE_PASSES = 12
STALL_CUT = 4.0
DIAG_PIVOT_THRESH = 1e-4
_EPS = 1e-30


@dataclass
class SolveReport:
    residual: float
    refined: bool          # a fresh LU was refined (every fresh LU runs a pass)
    n: int
    iterations: int        # refinement passes and Krylov iterations of this call
    factored: bool         # a fresh LU was made
    nnz: int               # nonzeros of A
    fill: int              # nonzeros SuperLU stored in L and U; 0 when reused


class OrderedLU:
    """LU of P A P^T in `dtype` (float32 or float64), where row and column
    order[i] of A become row and column i; `solve` takes and returns float64
    vectors in A's numbering."""

    def __init__(self, A: sparse.spmatrix, order: np.ndarray, dtype=np.float32):
        n = A.shape[0]
        self.shape = A.shape
        self.order = order
        self.dtype = dtype
        rows = sparse.csr_matrix(A)[self.order]
        if np.max(np.abs(rows.data), initial=0.0) > np.finfo(dtype).max:
            raise SolverError("matrix entries overflow %s" % np.dtype(dtype).name)
        position = np.empty(n, dtype=rows.indices.dtype)
        position[self.order] = np.arange(n)
        PA = sparse.csr_matrix((rows.data.astype(dtype), position[rows.indices],
                                rows.indptr), shape=A.shape)
        try:
            self.lu = splu(PA.tocsc(), permc_spec="NATURAL",
                           diag_pivot_thresh=DIAG_PIVOT_THRESH)
        except RuntimeError as exc:
            raise SolverError("sparse LU factorization failed: %s" % exc)

    @property
    def fill(self) -> int:
        return int(self.lu.nnz)

    def solve(self, b: np.ndarray) -> np.ndarray:
        x = np.zeros(self.shape[0])
        pb = b[self.order]
        scale = float(np.max(np.abs(pb), initial=0.0))
        if scale > 0.0:             # unit max-norm: no float32 underflow or overflow
            x[self.order] = self.lu.solve((pb / scale).astype(self.dtype))
            x *= scale
        return x


def _refine(A, b: np.ndarray, lu, bnorm: float):
    """Refine x = lu.solve(b) by passes x += lu.solve(b - A x).  Stops
    when a pass fails to halve the residual, when it is not finite, after
    MAX_REUSE_PASSES passes, or one pass after the residual first reaches
    RESIDUAL_TOL.  A pass that raised the residual is undone.
    Returns (x, relative residual, passes)."""
    x = lu.solve(b)
    r = b - A @ x
    res = float(np.linalg.norm(r)) / bnorm
    passes = 0
    past_tol = False
    while passes < MAX_REUSE_PASSES and np.isfinite(res):
        if res <= RESIDUAL_TOL:
            if past_tol:
                break
            past_tol = True
        x_next = x + lu.solve(r)
        r_next = b - A @ x_next
        res_next = float(np.linalg.norm(r_next)) / bnorm
        passes += 1
        if not res_next <= res:
            break
        x, r, last, res = x_next, r_next, res, res_next
        if not res <= 0.5 * last:
            break
    return x, res, passes


def _fgmres(A, b: np.ndarray, lu, bnorm: float, x0):
    """Flexible GMRES for Ax = b, right-preconditioned by the held `lu`,
    from x0 (zero when None).  A cycle runs Arnoldi steps z_j = lu.solve(v_j)
    until the residual estimate is half of RESIDUAL_TOL ||b||, then updates
    x and checks its true residual; above the tolerance, the next cycle
    restarts from it.  The attempt ends when
    a step cuts the estimate by less than STALL_CUT, when a residual is not
    finite, or after MAX_REUSE_PASSES LU solves.  Returns (x, relative
    residual of x, LU solves)."""
    x = np.zeros(len(b)) if x0 is None else x0.copy()
    r = b if x0 is None else b - A @ x
    res = float(np.linalg.norm(r)) / bnorm
    target = 0.5 * RESIDUAL_TOL * bnorm
    solves = 0
    while res > RESIDUAL_TOL and math.isfinite(res):
        basis = [r / (res * bnorm)]
        precond = []            # z_j: kept, since the float32 solve is not exactly linear
        cols = []               # columns of R, the rotated Hessenberg matrix
        rotations = []
        g = [res * bnorm]       # rotated right-hand side; |g[-1]| is the estimate
        while True:
            if solves == MAX_REUSE_PASSES:
                return x, res, solves
            z = lu.solve(basis[-1])
            solves += 1
            w = A @ z
            h = [float(v @ w) for v in basis]       # one classical Gram-Schmidt pass
            for hi, v in zip(h, basis):
                w -= hi * v
            h_next = float(np.linalg.norm(w))
            for i, (c, s) in enumerate(rotations):
                h[i], h[i + 1] = c * h[i] + s * h[i + 1], c * h[i + 1] - s * h[i]
            rho = math.hypot(h[-1], h_next)
            if not (math.isfinite(rho) and rho > 0.0):
                return x, res, solves
            c, s = h[-1] / rho, h_next / rho
            h[-1] = rho
            rotations.append((c, s))
            cols.append(h)
            precond.append(z)
            last = abs(g[-1])
            g[-1], estimate = c * g[-1], -s * g[-1]
            g.append(estimate)
            if abs(estimate) <= target:
                break
            if not abs(estimate) * STALL_CUT <= last:
                return x, res, solves
            basis.append(w / h_next)
        y = g[:-1]
        for i in reversed(range(len(y))):
            y[i] = (y[i] - sum(cols[k][i] * y[k] for k in range(i + 1, len(y)))) / cols[i][i]
        for yi, z in zip(y, precond):
            x += yi * z
        r = b - A @ x
        res = float(np.linalg.norm(r)) / bnorm
    return x, res, solves


def _fresh_lu(A, b: np.ndarray, order: np.ndarray, bnorm: float):
    """Factor A afresh and refine: in float32, or in float64 when the
    float32 factor fails or its refinement stops above RESIDUAL_TOL.
    Returns (lu, x, relative residual, passes)."""
    try:
        lu = OrderedLU(A, order, np.float32)
        x, res, passes = _refine(A, b, lu, bnorm)
    except SolverError:
        res, passes = np.inf, 0
    if not res <= RESIDUAL_TOL:
        lu = None                  # free the float32 factors first
        lu = OrderedLU(A, order, np.float64)
        x, res, more = _refine(A, b, lu, bnorm)
        passes += more
    return lu, x, res, passes


def solve(A: sparse.spmatrix, b: np.ndarray, record, x0: np.ndarray | None = None):
    """Solve Ax = b by sparse LU; returns (x, SolveReport).

    `record` is the matrix's `fem.SparsePattern` (any object with `order`
    and `lu`).  A held `record.lu` of the same shape is tried first, as the
    preconditioner of flexible GMRES from `x0` (zero when None); when that
    stalls, or no LU of the shape is held, A is factored afresh in
    `record.order`, in float32 or, when its refinement stalls, in float64,
    and the new LU is left in `record.lu`.
    """
    if A.shape[0] != A.shape[1]:
        raise SolverError("matrix is not square: %s" % (A.shape,))
    if A.shape[0] != b.shape[0]:
        raise SolverError("matrix/vector size mismatch: %s vs %d" % (A.shape, b.shape[0]))
    if x0 is not None and x0.shape != b.shape:
        raise SolverError("initial guess/vector size mismatch: %s vs %s" % (x0.shape, b.shape))
    if not np.all(np.isfinite(b)):
        raise SolverError("right-hand side contains non-finite entries")
    if x0 is not None and not np.all(np.isfinite(x0)):
        raise SolverError("initial guess contains non-finite entries")
    if not np.all(np.isfinite(A.data)):
        raise SolverError("matrix contains non-finite entries")
    n = A.shape[0]
    bnorm = max(float(np.linalg.norm(b)), _EPS)

    spent = 0
    if record.lu is not None and record.lu.shape == A.shape:
        x, res, spent = _fgmres(A, b, record.lu, bnorm, x0)
        if res <= RESIDUAL_TOL:
            return x, SolveReport(residual=res, refined=False, n=n, iterations=spent,
                                  factored=False, nnz=A.nnz, fill=0)
    record.lu = None               # free the old factors before making new ones
    lu, x, res, passes = _fresh_lu(A, b, record.order, bnorm)
    if not np.isfinite(res) or res > RESIDUAL_TOL:
        raise SolverError(
            "linear solve did not reach the residual tolerance "
            "(%.3e > %.3e)" % (res, RESIDUAL_TOL),
            residual=res,
        )
    record.lu = lu
    return x, SolveReport(residual=res, refined=passes > 0, n=n, iterations=spent + passes,
                          factored=True, nnz=A.nnz, fill=lu.fill)
