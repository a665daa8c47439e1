"""Deformation kinematics and material parameters (mm-g-s units).

All integrals run on the reference mesh, so the only geometric inputs are
displacement gradients taken in reference coordinates.  Every function here
broadcasts over leading axes: grad_u may be (d,d) or (ncells, nq, d, d).

Conventions (all discrete-form normative):
    F = I + grad u,  J = det F > 0
    E(u1,u2) = 1/2 {F(u1)^T F(u2) - I}_s,   {A}_s = (A + A^T)/2
    S(E) = lam_s tr(E) I + 2 mu_s E                     (St. Venant-Kirchhoff)
    D_u(v) = {grad v F(u)^-1}_s                         (rate of strain)
    sigma_f = -p I + 2 mu_f D                           (fluid Cauchy stress)
    n = F^-T n_ref / |F^-T n_ref|,  Js = J |F^-T n_ref| (Nanson pushforward)
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Tuple

import numpy as np

from .errors import DegenerateDeformationError


# smallest admissible det F; a configuration at or below it counts as inverted
J_MIN = 1e-10


def tensor2(A00, A01, A10, A11) -> np.ndarray:
    """The 2x2 tensors of the given components, (..., 2, 2).

    The result is a view of one array that stores each component as a whole
    block, so every A[..., a, b] of it is contiguous and the componentwise
    products below run on plain blocks.
    """
    A00, A01, A10, A11 = np.broadcast_arrays(A00, A01, A10, A11)
    out = np.empty((2, 2) + A00.shape)
    out[0, 0], out[0, 1], out[1, 0], out[1, 1] = A00, A01, A10, A11
    return np.moveaxis(out, (0, 1), (-2, -1))


def matmul2(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """A B of 2x2 tensors at quadrature points, componentwise; broadcasts."""
    return tensor2(*(A[..., a, 0] * B[..., 0, b] + A[..., a, 1] * B[..., 1, b]
                     for a in (0, 1) for b in (0, 1)))


def matvec2(A: np.ndarray, x: np.ndarray) -> np.ndarray:
    """A x of 2x2 tensors and 2-vectors, componentwise: (..., 2)."""
    return np.stack([A[..., a, 0] * x[..., 0] + A[..., a, 1] * x[..., 1] for a in (0, 1)],
                    axis=-1)


def _det(A: np.ndarray) -> np.ndarray:
    """Determinant of 2x2 matrices, closed form."""
    return A[..., 0, 0] * A[..., 1, 1] - A[..., 0, 1] * A[..., 1, 0]


def _inverse(A: np.ndarray, det: np.ndarray) -> np.ndarray:
    """Inverse of 2x2 matrices of nonzero determinant `det`, closed form,
    in the memory layout of A."""
    inv = np.empty_like(A)
    inv[..., 0, 0] = A[..., 1, 1] / det
    inv[..., 0, 1] = -A[..., 0, 1] / det
    inv[..., 1, 0] = -A[..., 1, 0] / det
    inv[..., 1, 1] = A[..., 0, 0] / det
    return inv


def deformation_state(grad_u: np.ndarray, cell_ids: Optional[np.ndarray] = None):
    """F, J, F^-1, F^-T from a displacement gradient.

    Rejects J <= J_MIN before anything divides by J; when the caller passes
    per-entry cell ids the error reports which cell degenerated.  The
    gradients are 2x2: closed-form determinant and inverse, componentwise,
    with F and F^-1 stored as `tensor2` stores them.
    """
    grad_u = np.asarray(grad_u, dtype=float)
    F = tensor2(grad_u[..., 0, 0] + 1.0, grad_u[..., 0, 1], grad_u[..., 1, 0],
                grad_u[..., 1, 1] + 1.0)
    J = _det(F)
    if np.any(J <= J_MIN):
        flat = np.argmin(J)
        idx = np.unravel_index(flat, J.shape) if J.ndim else ()
        cell = None
        if cell_ids is not None and len(idx) > 0:
            cell = int(np.asarray(cell_ids)[idx[0]])
        raise DegenerateDeformationError(
            "deformation degenerate: det F = %g at %s (threshold %g)"
            % (float(np.min(J)), "cell %s" % cell if cell is not None else str(idx), J_MIN),
            cell=cell, value=float(np.min(J)),
        )
    Finv = _inverse(F, J)
    FinvT = np.swapaxes(Finv, -1, -2)
    return F, J, Finv, FinvT


def green_lagrange(F1: np.ndarray, F2: np.ndarray) -> np.ndarray:
    """Two-field Green-Lagrange strain 1/2 {F1^T F2 - I}_s, componentwise.

    Bilinear in the gradients; F1 = F2 = F recovers 1/2 (F^T F - I).
    """
    F1 = np.asarray(F1, dtype=float)
    F2 = np.asarray(F2, dtype=float)

    def m(a, b):            # (F1^T F2)_ab
        return F1[..., 0, a] * F2[..., 0, b] + F1[..., 1, a] * F2[..., 1, b]

    off = 0.25 * (m(0, 1) + m(1, 0))
    return tensor2(0.5 * m(0, 0) - 0.5, off, off, 0.5 * m(1, 1) - 0.5)


def svk_stress(E: np.ndarray, lam_s: float, mu_s: float) -> np.ndarray:
    """Second Piola-Kirchhoff stress of the St. Venant-Kirchhoff law, componentwise."""
    E = np.asarray(E, dtype=float)
    ltr = lam_s * (E[..., 0, 0] + E[..., 1, 1])
    return tensor2(ltr + 2.0 * mu_s * E[..., 0, 0], 2.0 * mu_s * E[..., 0, 1],
                   2.0 * mu_s * E[..., 1, 0], ltr + 2.0 * mu_s * E[..., 1, 1])


def fluid_rate_of_strain(grad_v: np.ndarray, Finv: np.ndarray) -> np.ndarray:
    """D_u(v) = {grad v F^-1}_s, the ALE rate-of-strain tensor."""
    M = matmul2(np.asarray(grad_v, dtype=float), np.asarray(Finv, dtype=float))
    return 0.5 * (M + np.swapaxes(M, -1, -2))


def pushforward_normal(F: np.ndarray, n_ref: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Deformed unit normal and area scaling Js = J |F^-T n_ref| (Nanson);
    n_ref broadcasts against the leading axes of the invertible F."""
    F = np.asarray(F, dtype=float)
    J = _det(F)
    v = matvec2(np.swapaxes(_inverse(F, J), -1, -2), np.asarray(n_ref, dtype=float))
    mag = np.sqrt(v[..., 0] ** 2 + v[..., 1] ** 2)
    return v / mag[..., None], J * mag


def mixture_density(rho_s: float, rho_f: float, phi: float) -> float:
    """rho_p = (1 - phi) rho_s + phi rho_f."""
    return (1.0 - phi) * rho_s + phi * rho_f


def lame_from_E_nu(E: float, nu: float) -> Tuple[float, float]:
    """(lam_s, mu_s) from Young's modulus and Poisson ratio."""
    if E <= 0.0:
        raise ValueError("Young's modulus must be positive, got %g" % E)
    if not (-1.0 < nu < 0.5):
        raise ValueError("Poisson ratio must lie in (-1, 0.5), got %g" % nu)
    mu = E / (2.0 * (1.0 + nu))
    lam = E * nu / ((1.0 + nu) * (1.0 - 2.0 * nu))
    return lam, mu


def inv_sqrt_spd(K: np.ndarray) -> np.ndarray:
    """K^(-1/2) of an SPD matrix via eigendecomposition."""
    w, V = np.linalg.eigh(np.asarray(K, dtype=float))
    if np.any(w <= 0.0):
        raise ValueError("permeability matrix is not positive definite")
    return (V * (1.0 / np.sqrt(w))) @ V.T


@dataclass
class MaterialParams:
    """Physical parameters of the coupled problem (mm-g-s units).

    K is the permeability, given as a scalar (isotropic) or an SPD 2x2
    matrix and stored as the matrix (a scalar K as K I).  The Darcy and
    interface coefficients use K^-1 and K^-1/2 exactly as they appear in the
    discrete forms; both are computed once, as `K_inv` and `K_inv_sqrt`.
    """

    rho_f: float      # fluid density, g/mm^3
    rho_s: float      # skeleton density, g/mm^3
    mu_f: float       # dynamic viscosity, g/(mm s)
    lam_s: float      # Lame lambda, g/(mm s^2)
    mu_s: float       # Lame mu, g/(mm s^2)
    phi: float        # porosity
    s0: float         # storage coefficient, mm s^2 / g
    K: np.ndarray                 # permeability, mm^2
    gamma: float = 1.0            # interface slip coefficient
    K_inv: np.ndarray = field(init=False, repr=False)
    K_inv_sqrt: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        for name in ("rho_f", "rho_s", "mu_f", "mu_s", "s0"):
            if getattr(self, name) <= 0.0:
                raise ValueError("%s must be positive" % name)
        if self.lam_s < 0.0:
            raise ValueError("lam_s must be nonnegative")
        if not 0.0 < self.phi < 1.0:
            raise ValueError("phi must lie in (0, 1)")
        if self.gamma < 0.0:
            raise ValueError("gamma must be nonnegative")
        K = np.asarray(self.K, dtype=float)
        if K.ndim == 0:
            K = K * np.eye(2)
        if K.shape != (2, 2):
            raise ValueError("permeability must be a scalar or a 2x2 matrix")
        if not np.allclose(K, K.T):
            raise ValueError("permeability matrix must be symmetric")
        self.K = K
        self.K_inv_sqrt = inv_sqrt_spd(K)      # rejects a K that is not positive definite
        self.K_inv = _inverse(K, _det(K))

    @property
    def rho_p(self) -> float:
        return mixture_density(self.rho_s, self.rho_f, self.phi)
