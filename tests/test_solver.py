"""Direct solver wrapper: exactness, residual guard, input validation, and
reuse of a held LU.

Every solve takes its matrix's record; here a stand-in with an `order`
(the identity unless given) and no LU yet."""

from types import SimpleNamespace

import numpy as np
import pytest
from scipy import sparse
from scipy.linalg import hilbert
from scipy.sparse.linalg import spsolve

import fpsi.solver as solver
from fpsi.errors import SolverError
from fpsi.solver import MAX_REUSE_PASSES, RESIDUAL_TOL, OrderedLU, solve


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


def test_unreachable_tolerance_reports_residual(monkeypatch):
    # ill conditioned, so the residual is nonzero even after refinement
    A = sparse.csr_matrix(hilbert(12))
    monkeypatch.setattr(solver, "RESIDUAL_TOL", 1e-300)
    with pytest.raises(SolverError) as exc:
        solve(A, np.ones(12), record(12))
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
    # a fresh LU always refines: at least one pass, and one past the tolerance
    assert rep.residual <= RESIDUAL_TOL and rep.iterations >= 1 and rep.refined


def test_factors_are_single_precision():
    A, b = sample_system()
    held = record(A.shape[0])
    x, _ = solve(A, b, held)
    assert held.lu.lu.L.dtype == held.lu.lu.U.dtype == np.float32
    assert x.dtype == np.float64
    # the refined solution is a double-precision one, not a float32 one
    ref = spsolve(A.tocsc(), b)
    assert np.linalg.norm(x - ref) <= 1e-12 * np.linalg.norm(ref)


def test_entries_beyond_single_precision_are_factored_in_double():
    A = sparse.csr_matrix(np.array([[1e39, 1.0], [1.0, 3.0]]))
    held = record(2)
    x, rep = solve(A, np.ones(2), held)
    assert rep.factored and rep.residual <= RESIDUAL_TOL
    assert held.lu.lu.L.dtype == np.float64
    with pytest.raises(SolverError, match="overflow float32"):
        OrderedLU(A, np.arange(2), np.float32)


def test_refinement_that_stalls_in_single_precision_refactors_in_double():
    # cond(hilbert(8)) = 1.5e10: float32's roundoff times that is above 1,
    # so refinement with float32 factors stops short of the tolerance
    A = sparse.csr_matrix(hilbert(8))
    b = A @ np.ones(8)
    single = OrderedLU(A, np.arange(8), np.float32)
    assert min(refinement_residuals(A, b, single, MAX_REUSE_PASSES)) > RESIDUAL_TOL
    held = record(8)
    x, rep = solve(A, b, held)
    assert rep.factored and rep.residual <= RESIDUAL_TOL
    assert held.lu.lu.L.dtype == held.lu.lu.U.dtype == np.float64
    assert np.allclose(x, 1.0, rtol=1e-5, atol=0.0)
    # the float64 LU is held and reused like a float32 one
    x2, rep2 = solve(A, b, held)
    assert not rep2.factored and rep2.residual <= RESIDUAL_TOL


def test_a_pass_that_raises_the_residual_is_undone(monkeypatch):
    A, b = sample_system()
    exact = spsolve(A.tocsc(), b)
    calls = []

    def exact_then_far_off(self, rhs):
        calls.append(rhs)
        return exact.copy() if len(calls) == 1 else 1e3 * rhs

    monkeypatch.setattr(OrderedLU, "solve", exact_then_far_off)
    held = record(A.shape[0])
    x, rep = solve(A, b, held)
    # the pass one past the tolerance ran, raised the residual and was undone
    assert len(calls) == 2 and rep.iterations == 1
    assert np.array_equal(x, exact) and rep.residual <= 1e-14
    assert held.lu.dtype == np.float32


@pytest.mark.parametrize("size", [1e-40, 1e37])
def test_right_hand_sides_outside_float32_range_are_scaled(size):
    # 1e-40 is below float32's smallest normal number, and A^-1 b at 1e37
    # overflows float32; the solve scales b to unit max-norm first
    A, b = sample_system()
    x, rep = solve(A * 0.01, b * size, record(A.shape[0]))
    ref = spsolve(A.tocsc() * 0.01, b * size)
    assert rep.residual <= RESIDUAL_TOL
    assert np.linalg.norm(x - ref) <= 1e-12 * np.linalg.norm(ref)


def test_refinement_stops_when_a_pass_fails_to_halve_the_residual():
    # an LU that solves only 30 % of each right-hand side: the first pass
    # cuts the residual to 0.7 of its value, which is no halving
    A = sparse.identity(4, format="csr")
    b = np.array([1.0, -2.0, 3.0, 0.5])
    bnorm = np.linalg.norm(b)
    lu = SimpleNamespace(solve=lambda rhs: 0.3 * rhs)
    x, res, passes = solver._refine(A, b, lu, bnorm)
    # the pass ran and its iterate, better than the one before, was kept
    assert passes == 1
    assert np.allclose(x, 0.51 * b, rtol=1e-15, atol=0.0)
    assert res == pytest.approx(0.49, rel=1e-14)


def refinement_residuals(A, b, lu, passes):
    """Relative residual after 0..passes plain refinement passes with lu."""
    x = lu.solve(b)
    out = [np.linalg.norm(b - A @ x) / np.linalg.norm(b)]
    for _ in range(passes):
        x = x + lu.solve(b - A @ x)
        out.append(np.linalg.norm(b - A @ x) / np.linalg.norm(b))
    return out


def test_fresh_lu_ends_below_the_tolerance_one_pass_past_it(monkeypatch):
    A, b = sample_system()
    for rtol in (RESIDUAL_TOL, 1e-4):
        monkeypatch.setattr(solver, "RESIDUAL_TOL", rtol)
        held = record(A.shape[0])
        x, rep = solve(A, b, held)
        assert rep.factored and rep.iterations >= 1
        res = refinement_residuals(A, b, held.lu, rep.iterations)
        assert rep.residual == pytest.approx(res[-1], rel=1e-12) and res[-1] <= rtol
        # the tolerance was first reached one pass before the last
        assert res[-2] <= rtol and all(r > rtol for r in res[:-2])


def recorded_solves(monkeypatch):
    """(lu, right-hand side, result) of every LU solve from here on."""
    calls = []
    real = OrderedLU.solve

    def recording(self, rhs):
        z = real(self, rhs)
        calls.append((self, rhs.copy(), z))
        return z

    monkeypatch.setattr(OrderedLU, "solve", recording)
    return calls


def least_squares_residual(B, b, Z):
    """Relative residual of the best x in the span of the columns of Z."""
    BZ = B @ Z
    y = np.linalg.lstsq(BZ, b, rcond=None)[0]
    return np.linalg.norm(b - BZ @ y) / np.linalg.norm(b)


def test_held_lu_stops_at_the_tolerance(monkeypatch):
    A, b = sample_system()
    held = record(A.shape[0])
    solve(A, b, held)
    B = perturbed(A, 1e-2)
    calls = recorded_solves(monkeypatch)
    x, rep = solve(B, b, held)
    assert not rep.factored and not rep.refined and rep.iterations == len(calls) >= 2
    assert all(lu is held.lu for lu, _, _ in calls)
    V = np.column_stack([v for _, v, _ in calls])
    Z = np.column_stack([z for _, _, z in calls])
    # one Arnoldi cycle from x = 0: a basis that starts at b/|b|, orthonormal
    # up to what one classical Gram-Schmidt pass loses
    assert np.allclose(V.T @ V, np.eye(len(calls)), rtol=0.0, atol=1e-6)
    assert np.allclose(V[:, 0], b / np.linalg.norm(b), rtol=0.0, atol=1e-15)
    # x is the least-residual combination of the preconditioned vectors, and
    # the last of them is the first with which that residual is at half the
    # tolerance, where a cycle ends: no Krylov step past it
    best = [least_squares_residual(B, b, Z[:, :j]) for j in range(1, len(calls) + 1)]
    assert best[-1] <= 0.5 * RESIDUAL_TOL < best[-2]
    assert rep.residual == pytest.approx(np.linalg.norm(B @ x - b) / np.linalg.norm(b),
                                         rel=1e-12)
    assert rep.residual == pytest.approx(best[-1], rel=1e-3)


def test_held_lu_needs_fewer_solves_than_refinement_under_block_drift(monkeypatch):
    # the rows of one block drift by 10 %, as the Darcy block of a channel
    # step does: refinement with the held LU gains a factor 10 per pass,
    # the Krylov solve is exact in about as many steps as the drift has rank
    A, b = sample_system()
    held = record(A.shape[0])
    solve(A, b, held)
    scale = np.ones(A.shape[0])
    scale[:20] = 1.1
    B = (sparse.diags(scale) @ A).tocsr()
    res = refinement_residuals(B, b, held.lu, MAX_REUSE_PASSES)
    richardson = next(i for i, r in enumerate(res) if r <= RESIDUAL_TOL) + 1
    calls = recorded_solves(monkeypatch)
    x, rep = solve(B, b, held)
    assert not rep.factored and rep.residual <= RESIDUAL_TOL
    assert len(calls) < richardson
    assert np.linalg.norm(B @ x - b) <= RESIDUAL_TOL * np.linalg.norm(b)


def test_held_lu_from_an_exact_start_spends_no_solve(monkeypatch):
    A, b = sample_system()
    held = record(A.shape[0])
    solve(A, b, held)
    B = perturbed(A, 1e-3)
    exact = spsolve(B.tocsc(), b)
    calls = recorded_solves(monkeypatch)
    x, rep = solve(B, b, held, x0=exact)
    assert not calls and rep.iterations == 0 and not rep.factored
    assert rep.residual <= RESIDUAL_TOL and np.array_equal(x, exact)


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


def test_distant_matrix_falls_back_to_a_fresh_factor(monkeypatch):
    # a matrix with other entries: the held LU does not precondition it
    # (a multiple of A would be one Krylov step away)
    A, b = sample_system()
    far, _ = sample_system(seed=9)
    held = record(A.shape[0])
    solve(A, b, held)
    first = held.lu
    calls = recorded_solves(monkeypatch)
    x, rep = solve(far, b, held, x0=np.zeros_like(b))
    assert rep.factored and rep.residual <= RESIDUAL_TOL
    assert held.lu is not first
    # its first Krylov step cut the estimate by less than STALL_CUT, which
    # ended the attempt
    assert sum(lu is first for lu, _, _ in calls) == 1
    # the new LU is the one of that matrix: the next solve reuses it
    second = held.lu
    x2, rep2 = solve(far, b, held)
    assert not rep2.factored and held.lu is second
    assert rep2.residual <= RESIDUAL_TOL
    assert np.allclose(x2, x, rtol=1e-8, atol=0.0)


def test_held_attempt_ends_after_max_reuse_passes_lu_solves(monkeypatch):
    # perturbed(A, 1e-2) takes 5 held LU solves, each cutting the estimate
    # by more than STALL_CUT; capped at 2, the attempt ends there and the
    # solve factors afresh
    monkeypatch.setattr(solver, "MAX_REUSE_PASSES", 2)
    A, b = sample_system()
    held = record(A.shape[0])
    solve(A, b, held)
    first = held.lu
    calls = recorded_solves(monkeypatch)
    B = perturbed(A, 1e-2)
    x, rep = solve(B, b, held)
    assert sum(lu is first for lu, _, _ in calls) == 2
    assert rep.factored and held.lu is not first and rep.residual <= RESIDUAL_TOL
    assert all(lu is held.lu for lu, _, _ in calls[2:])
    assert np.linalg.norm(B @ x - b) <= RESIDUAL_TOL * np.linalg.norm(b)


def test_held_lu_of_another_shape_is_not_used():
    A, b = sample_system(n=120)
    small = record(7)
    solve(sparse.identity(7, format="csr"), np.ones(7), small)
    held = record(A.shape[0])
    held.lu = small.lu         # an LU of another shape
    x, rep = solve(A, b, held)
    _, fresh = solve(A, b, record(A.shape[0]))
    # no pass was spent on the wrong LU: the passes are the fresh path's own
    assert rep.factored and rep.iterations == fresh.iterations
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
    with pytest.raises(SolverError, match="initial guess contains"):
        solve(A, b, held, x0=np.where(np.isnan(bad_b), np.inf, b))
    with pytest.raises(SolverError, match="initial guess/vector size mismatch"):
        solve(A, b, held, x0=b[:-1])


def test_unreachable_tolerance_with_a_held_lu_reports_residual(monkeypatch):
    A = sparse.csr_matrix(hilbert(12))
    held = record(12)
    solve(sparse.csr_matrix(np.eye(12) + 1e-3 * hilbert(12)), np.ones(12), held)
    monkeypatch.setattr(solver, "RESIDUAL_TOL", 1e-300)
    with pytest.raises(SolverError) as exc:
        solve(A, np.ones(12), held)
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
