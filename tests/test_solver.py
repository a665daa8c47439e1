"""Direct solver wrapper: exactness, residual guard, input validation, and
reuse of a held LU.

Every solve takes its matrix's record; here a stand-in with an `order`
(the identity unless given) and no LU yet."""

from types import SimpleNamespace

import numpy as np
import pytest
from scipy import sparse
from scipy.sparse.linalg import spsolve

from fpsi.errors import SolverError
from fpsi.solver import RESIDUAL_TOL, solve


def record(n, order=None):
    """A matrix record: the elimination order and the held LU."""
    return SimpleNamespace(order=np.arange(n) if order is None else order, lu=None)


def test_solves_small_system_exactly():
    A = sparse.csr_matrix(np.array([[4.0, 1.0], [1.0, 3.0]]))
    b = np.array([1.0, 2.0])
    x, rep = solve(A, b, record(2))
    assert np.allclose(A @ x, b, atol=1e-14)
    assert rep.n == 2 and rep.residual < 1e-12


def test_rejects_non_square():
    A = sparse.csr_matrix(np.ones((2, 3)))
    with pytest.raises(SolverError, match="not square"):
        solve(A, np.ones(2), record(2))


def test_rejects_size_mismatch():
    A = sparse.identity(3, format="csr")
    with pytest.raises(SolverError, match="mismatch"):
        solve(A, np.ones(2), record(3))


def test_rejects_non_finite_inputs():
    A = sparse.identity(2, format="csr")
    with pytest.raises(SolverError, match="right-hand side"):
        solve(A, np.array([1.0, np.nan]), record(2))
    B = sparse.csr_matrix(np.array([[1.0, 0.0], [0.0, np.inf]]))
    with pytest.raises(SolverError, match="matrix contains"):
        solve(B, np.ones(2), record(2))


def test_singular_matrix_raises():
    A = sparse.csr_matrix(np.array([[1.0, 2.0], [2.0, 4.0]]))
    held = record(2)
    with pytest.raises(SolverError):
        solve(A, np.ones(2), held)
    assert held.lu is None


def test_unreachable_tolerance_reports_residual():
    # ill conditioned, so the residual is nonzero even after refinement
    from scipy.linalg import hilbert
    A = sparse.csr_matrix(hilbert(12))
    with pytest.raises(SolverError) as exc:
        solve(A, np.ones(12), record(12), rtol=1e-300)
    assert exc.value.residual is not None and exc.value.residual > 0.0


# ---------------------------------------------------------------------------
# reuse of a held LU
# ---------------------------------------------------------------------------

def sample_system(n=120, seed=0):
    """Unsymmetric, diagonally dominant sparse matrix and a right-hand side."""
    rng = np.random.default_rng(seed)
    R = sparse.random(n, n, density=0.05, random_state=rng, format="csr")
    A = (R - R.T * 0.5 + sparse.identity(n) * 4.0).tocsr()
    return A, rng.standard_normal(n)


def perturbed(A, eps, seed=1):
    rng = np.random.default_rng(seed)
    B = A.copy()
    B.data *= 1.0 + eps * rng.standard_normal(B.nnz)
    return B


def test_fresh_solve_fills_the_holder():
    A, b = sample_system()
    held = record(A.shape[0])
    x, rep = solve(A, b, held)
    assert rep.factored and held.lu is not None and held.lu.shape == A.shape
    assert rep.residual <= RESIDUAL_TOL and rep.iterations == 0


def test_held_lu_solves_a_nearby_matrix():
    A, b = sample_system()
    held = record(A.shape[0])
    solve(A, b, held)
    first = held.lu
    B = perturbed(A, 1e-3)
    x, rep = solve(B, b, held)
    assert not rep.factored and rep.iterations >= 1 and not rep.refined
    assert rep.residual <= RESIDUAL_TOL
    assert np.linalg.norm(B @ x - b) <= RESIDUAL_TOL * np.linalg.norm(b)
    assert held.lu is first
    assert np.allclose(x, spsolve(B.tocsc(), b), rtol=1e-8, atol=0.0)


def test_distant_matrix_falls_back_to_a_fresh_factor():
    A, b = sample_system()
    held = record(A.shape[0])
    solve(A, b, held)
    first = held.lu
    x, rep = solve(A * 10.0, b, held)
    assert rep.factored and rep.residual <= RESIDUAL_TOL
    assert held.lu is not first
    # the new LU is the one of the scaled matrix: the next solve reuses it
    x2, rep2 = solve(A * 10.0, b, held)
    assert not rep2.factored and rep2.iterations == 0
    assert np.array_equal(x, x2)


def test_held_lu_of_another_shape_is_not_used():
    A, b = sample_system(n=120)
    small = record(7)
    solve(sparse.identity(7, format="csr"), np.ones(7), small)
    held = record(A.shape[0])
    held.lu = small.lu         # an LU of another shape
    x, rep = solve(A, b, held)
    assert rep.factored and rep.iterations == 0
    assert held.lu.shape == A.shape


def test_reuse_path_rejects_non_finite_inputs():
    A, b = sample_system()
    held = record(A.shape[0])
    solve(A, b, held)
    bad_b = b.copy()
    bad_b[3] = np.nan
    with pytest.raises(SolverError, match="right-hand side"):
        solve(A, bad_b, held)
    bad_A = A.copy()
    bad_A.data[5] = np.inf
    with pytest.raises(SolverError, match="matrix contains"):
        solve(bad_A, b, held)


def test_unreachable_tolerance_with_a_held_lu_reports_residual():
    from scipy.linalg import hilbert
    A = sparse.csr_matrix(hilbert(12))
    held = record(12)
    solve(sparse.csr_matrix(np.eye(12) + 1e-3 * hilbert(12)), np.ones(12), held)
    with pytest.raises(SolverError) as exc:
        solve(A, np.ones(12), held, rtol=1e-300)
    assert exc.value.residual is not None and exc.value.residual > 0.0
    assert held.lu is None           # the old LU was dropped, no failed one kept


# ---------------------------------------------------------------------------
# elimination order and the fill report
# ---------------------------------------------------------------------------

def test_ordered_solve_matches_the_natural_one():
    A, b = sample_system()
    order = np.random.default_rng(3).permutation(A.shape[0])
    x, rep = solve(A, b, record(A.shape[0], order))
    x0, rep0 = solve(A, b, record(A.shape[0]))
    assert rep.residual <= RESIDUAL_TOL and rep0.residual <= RESIDUAL_TOL
    assert np.allclose(x, x0, rtol=1e-10, atol=0.0)
    assert rep.nnz == rep0.nnz == A.nnz
    assert rep.fill > 0 and rep0.fill > 0


def test_reuse_reports_no_fill_and_keeps_the_order():
    A, b = sample_system()
    order = np.random.default_rng(4).permutation(A.shape[0])
    held = record(A.shape[0], order)
    _, fresh = solve(A, b, held)
    assert fresh.factored and fresh.fill == held.lu.fill > 0
    assert np.array_equal(held.lu.order, order)
    B = perturbed(A, 1e-3)
    x, rep = solve(B, b, held)
    assert not rep.factored and rep.iterations >= 1 and rep.fill == 0 and rep.nnz == B.nnz
    assert np.allclose(x, spsolve(B.tocsc(), b), rtol=1e-8, atol=0.0)
