"""Pointwise kinematics against hand-computed values and a cofactor oracle."""

import numpy as np
import pytest

from fpsi.errors import DegenerateDeformationError
from fpsi.kinematics import (MaterialParams, deformation_state, fluid_rate_of_strain,
                             green_lagrange, inv_sqrt_spd, lame_from_E_nu,
                             mixture_density, pushforward_normal, svk_stress)


def det_cofactor(A):
    """Determinant by cofactor expansion along the first row (oracle)."""
    A = np.asarray(A, dtype=float)
    n = A.shape[0]
    if n == 1:
        return A[0, 0]
    out = 0.0
    for j in range(n):
        minor = np.delete(np.delete(A, 0, axis=0), j, axis=1)
        out += (-1.0) ** j * A[0, j] * det_cofactor(minor)
    return out


# ---------------------------------------------------------------------------
# deformation_state
# ---------------------------------------------------------------------------

def test_deformation_identity():
    F, J, Finv, FinvT = deformation_state(np.zeros((2, 2)))
    assert np.allclose(F, np.eye(2), atol=1e-15)
    assert J == pytest.approx(1.0, abs=1e-15)
    assert np.allclose(Finv, np.eye(2), atol=1e-15)


def test_deformation_simple_shear():
    gu = np.array([[0.0, 0.3], [0.0, 0.0]])
    F, J, _, _ = deformation_state(gu)
    assert np.allclose(F, [[1.0, 0.3], [0.0, 1.0]], atol=1e-15)
    assert J == pytest.approx(1.0, abs=1e-14)   # shear preserves volume


def test_deformation_dilation():
    F, J, _, _ = deformation_state(0.1 * np.eye(2))
    assert np.allclose(F, 1.1 * np.eye(2), atol=1e-15)
    assert J == pytest.approx(1.21, abs=1e-12)


def test_deformation_batched_and_inverse_consistency():
    rng = np.random.default_rng(7)
    gu = rng.uniform(-0.3, 0.3, size=(5, 4, 2, 2))
    F, J, Finv, FinvT = deformation_state(gu)
    assert F.shape == gu.shape and J.shape == (5, 4)
    eye = np.broadcast_to(np.eye(2), F.shape)
    assert np.max(np.abs(F @ Finv - eye)) < 1e-12
    assert np.allclose(FinvT, np.swapaxes(Finv, -1, -2))


def test_deformation_rejects_inverted():
    with pytest.raises(DegenerateDeformationError):
        deformation_state(-np.eye(2))
    # the error carries the offending cell id when given one
    gu = np.zeros((3, 1, 2, 2))
    gu[2, 0] = np.diag([-2.0, 0.0])   # F = diag(-1, 1), det = -1
    with pytest.raises(DegenerateDeformationError) as err:
        deformation_state(gu, cell_ids=np.array([10, 11, 12]))
    assert err.value.cell == 12
    assert err.value.value < 0.0


def test_determinant_cofactor_oracle():
    rng = np.random.default_rng(2024)
    for _ in range(1000):
        gu = rng.uniform(-0.3, 0.3, size=(2, 2))
        _, J, _, _ = deformation_state(gu)
        ref = det_cofactor(np.eye(2) + gu)
        assert abs(J - ref) <= 1e-12 * abs(ref)


# ---------------------------------------------------------------------------
# strain and stress
# ---------------------------------------------------------------------------

def test_green_lagrange_undeformed():
    assert np.allclose(green_lagrange(np.eye(2), np.eye(2)), 0.0, atol=1e-15)


def test_green_lagrange_uniaxial():
    F = np.diag([1.1, 1.0])
    E = green_lagrange(F, F)
    assert np.allclose(E, np.diag([0.105, 0.0]), atol=1e-14)


def test_green_lagrange_two_argument_shear():
    # E(u1, u2) = 1/2 sym(F1^T F2 - I); with F1 = I this is half the
    # symmetrized displacement gradient, consistent with the single-argument
    # reduction E(u, u) = 1/2 (F^T F - I).
    F2 = np.eye(2) + np.array([[0.0, 0.3], [0.0, 0.0]])
    E = green_lagrange(np.eye(2), F2)
    assert np.allclose(E, [[0.0, 0.075], [0.075, 0.0]], atol=1e-15)


def test_green_lagrange_reduces_to_single_argument():
    rng = np.random.default_rng(3)
    for _ in range(20):
        F = np.eye(2) + rng.uniform(-0.3, 0.3, size=(2, 2))
        E = green_lagrange(F, F)
        ref = 0.5 * (F.T @ F - np.eye(2))
        assert np.max(np.abs(E - ref)) < 1e-13


def test_rigid_rotation_is_stress_free():
    for th in (0.3, 1.2, -2.0):
        R = np.array([[np.cos(th), -np.sin(th)], [np.sin(th), np.cos(th)]])
        E = green_lagrange(R, R)
        assert np.max(np.abs(E)) < 1e-12
        assert np.max(np.abs(svk_stress(E, 2.0, 1.0))) < 1e-12


def test_svk_stress_values():
    assert np.allclose(svk_stress(np.zeros((2, 2)), 3.0, 2.0), 0.0, atol=1e-15)
    S = svk_stress(np.diag([0.105, 0.0]), 2.0, 1.0)
    assert np.allclose(S, np.diag([0.42, 0.21]), atol=1e-14)
    E = np.array([[0.0, 0.15], [0.15, 0.0]])    # traceless
    assert np.allclose(svk_stress(E, 5.0, 3.0), 6.0 * E, atol=1e-14)


def test_svk_stress_symmetric_on_random_input():
    rng = np.random.default_rng(4)
    for _ in range(50):
        A = rng.normal(size=(2, 2))
        E = 0.5 * (A + A.T)
        S = svk_stress(E, rng.uniform(0, 5), rng.uniform(0.1, 5))
        assert np.allclose(S, S.T, atol=0.0)


# ---------------------------------------------------------------------------
# rate of strain and normal pushforward
# ---------------------------------------------------------------------------

def test_rate_of_strain():
    assert np.allclose(fluid_rate_of_strain(np.zeros((2, 2)), np.eye(2)), 0.0)
    D = fluid_rate_of_strain(np.array([[0.0, 1.0], [0.0, 0.0]]), np.eye(2))
    assert np.allclose(D, [[0.0, 0.5], [0.5, 0.0]], atol=1e-15)
    D = fluid_rate_of_strain(np.diag([2.0, 4.0]), np.diag([0.5, 1.0]))
    assert np.allclose(D, np.diag([1.0, 4.0]), atol=1e-15)


def test_pushforward_normal_values():
    n, Js = pushforward_normal(np.eye(2), np.array([1.0, 0.0]))
    assert np.allclose(n, [1.0, 0.0]) and Js == pytest.approx(1.0)
    n, Js = pushforward_normal(2.0 * np.eye(2), np.array([1.0, 0.0]))
    assert np.allclose(n, [1.0, 0.0]) and Js == pytest.approx(2.0)
    n, Js = pushforward_normal(np.diag([1.0, 2.0]), np.array([0.0, 1.0]))
    assert np.allclose(n, [0.0, 1.0]) and Js == pytest.approx(1.0)


def test_pushforward_normal_properties():
    rng = np.random.default_rng(5)
    for _ in range(100):
        F = np.eye(2) + rng.uniform(-0.3, 0.3, size=(2, 2))
        if np.linalg.det(F) <= 0.1:
            continue
        th = rng.uniform(0, 2 * np.pi)
        nref = np.array([np.cos(th), np.sin(th)])
        n, Js = pushforward_normal(F, nref)
        assert np.linalg.norm(n) == pytest.approx(1.0, abs=1e-12)
        assert Js > 0.0


# ---------------------------------------------------------------------------
# material parameters
# ---------------------------------------------------------------------------

def test_mixture_density():
    assert mixture_density(2.0, 1.0, 1e-12) == pytest.approx(2.0, rel=1e-9)
    assert mixture_density(1.5, 1.5, 0.37) == pytest.approx(1.5, abs=1e-15)
    assert mixture_density(1.2e-3, 1e-3, 0.3) == pytest.approx(1.14e-3, rel=1e-12)


def test_lame_from_E_nu():
    lam, mu = lame_from_E_nu(3.0e5, 0.3)
    assert mu == pytest.approx(3.0e5 / 2.6, rel=1e-14)
    assert lam == pytest.approx(3.0e5 * 0.3 / (1.3 * 0.4), rel=1e-14)
    # inverted relation E = mu (3 lam + 2 mu) / (lam + mu)
    assert mu * (3 * lam + 2 * mu) / (lam + mu) == pytest.approx(3.0e5, rel=1e-12)
    with pytest.raises(ValueError, match="Poisson"):
        lame_from_E_nu(1.0, 0.5)
    with pytest.raises(ValueError, match="Poisson"):
        lame_from_E_nu(1.0, -1.0)
    with pytest.raises(ValueError, match="modulus"):
        lame_from_E_nu(0.0, 0.3)


def _params(**kw):
    base = dict(rho_f=1.0, rho_s=1.0, mu_f=1.0, lam_s=1.0, mu_s=1.0,
                phi=0.5, s0=1.0, K=1.0)
    base.update(kw)
    return MaterialParams(**base)


def test_material_params_validation():
    p = _params(rho_s=1.2e-3, rho_f=1e-3, phi=0.3)
    assert p.rho_p == pytest.approx(1.14e-3, rel=1e-12)
    with pytest.raises(ValueError):
        _params(rho_f=-1.0)
    with pytest.raises(ValueError):
        _params(phi=1.0)
    with pytest.raises(ValueError):
        _params(lam_s=-0.1)
    with pytest.raises(ValueError):
        _params(K=np.array([[1.0, 2.0], [0.0, 1.0]]))   # not symmetric
    with pytest.raises(ValueError):
        _params(K=np.array([[1.0, 0.0], [0.0, -1.0]]))  # not positive definite
    with pytest.raises(ValueError):
        _params(K=np.eye(3))                            # not 2x2
    with pytest.raises(ValueError):
        _params(K=0.0)
    with pytest.raises(ValueError):
        _params(gamma=-1.0)


def test_permeability_inverse_helpers():
    p = _params(K=4.0)
    assert np.array_equal(p.K, 4.0 * np.eye(2))          # a scalar K is stored as K I
    assert np.array_equal(p.K_inv, np.eye(2) / 4.0)
    assert np.array_equal(p.K_inv_sqrt, np.eye(2) / 2.0)
    Kmat = np.array([[2.0, 1.0], [1.0, 2.0]])
    p = _params(K=Kmat)
    assert np.allclose(p.K_inv @ Kmat, np.eye(2), atol=1e-14)
    R = p.K_inv_sqrt
    assert np.allclose(R @ Kmat @ R, np.eye(2), atol=1e-13)
    with pytest.raises(ValueError):
        inv_sqrt_spd(np.array([[1.0, 0.0], [0.0, 0.0]]))
