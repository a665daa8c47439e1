"""Sparse direct solve with a mandatory residual check, and LU reuse.

The monolithic matrix is unsymmetric (advection, interface coupling) and can
be badly scaled when the permeability is small, so every solve verifies the
relative residual ||Ax - b|| / max(||b||, eps).

A fresh LU solve runs one pass of iterative refinement when the first
residual is above the tolerance, then gives up.

A caller that solves a sequence of nearby matrices (one per time step) can
hand in a `LaggedLU` holding the last LU of that family.  The solve then
starts from x = lu.solve(b) and repeats x += lu.solve(b - A x) until the
true residual is at the tolerance.  It stops reusing when a pass fails to
halve the residual, when the residual is not finite, or after
MAX_REUSE_PASSES passes; it then drops the held LU, factors A fresh and
keeps the new LU in the holder.  At most one LU per holder is ever alive.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy import sparse
from scipy.sparse.linalg import splu

from .errors import SolverError

RESIDUAL_TOL = 1e-9
MAX_REUSE_PASSES = 12
_EPS = 1e-30


@dataclass
class SolveReport:
    residual: float
    refined: bool          # the fresh-LU path needed its refinement pass
    n: int
    iterations: int        # refinement passes spent in this call
    factored: bool         # a fresh LU was made


@dataclass
class LaggedLU:
    """The last LU of one matrix family, kept for the next solve."""

    lu: Optional[object] = None


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


def solve(A: sparse.spmatrix, b: np.ndarray, rtol: float = RESIDUAL_TOL,
          lagged: Optional[LaggedLU] = None):
    """Solve Ax = b by sparse LU; returns (x, SolveReport).

    With `lagged`, a held LU of the same shape is tried first by iterative
    refinement, and the LU of a fresh factorization is left in the holder.
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
    if lagged is not None and lagged.lu is not None and lagged.lu.shape == A.shape:
        x, res, spent = _refine(A, b, lagged.lu, bnorm, rtol, MAX_REUSE_PASSES)
        if res <= rtol:
            return x, SolveReport(residual=res, refined=False, n=n,
                                  iterations=spent, factored=False)
    if lagged is not None:
        lagged.lu = None           # free the old factors before making new ones
    try:
        lu = splu(A.tocsc())
    except RuntimeError as exc:
        raise SolverError("sparse LU factorization failed: %s" % exc)
    # one pass of iterative refinement recovers the last digits when the
    # factorization is fine but the matrix is badly scaled
    x, res, passes = _refine(A, b, lu, bnorm, rtol, 1)
    if not np.isfinite(res) or res > rtol:
        raise SolverError(
            "linear solve did not reach the residual tolerance "
            "(%.3e > %.3e)" % (res, rtol),
            residual=res,
        )
    if lagged is not None:
        lagged.lu = lu
    return x, SolveReport(residual=res, refined=passes > 0, n=n,
                          iterations=spent + passes, factored=True)
