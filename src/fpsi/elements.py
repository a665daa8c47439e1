"""Reference triangle elements (P1/P2 Lagrange) and quadrature rules.

The reference triangle has vertices (0, 0), (1, 0) and (0, 1), area 1/2.
P2 nodes are the vertices followed by the edge midpoints in the fixed local
edge order below, which the mesh's edge table and every function space
share.

Quadrature is a conical (Duffy) product of Gauss-Legendre and Gauss-Jacobi
rules, exact to any requested polynomial degree.  The facet rule is the
dimension-1 rule: Gauss-Legendre on the unit interval.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np
from scipy.special import roots_jacobi, roots_legendre

LOCAL_EDGES = ((0, 1), (0, 2), (1, 2))


@dataclass(frozen=True)
class QuadratureRule:
    points: np.ndarray   # (nq, dim)
    weights: np.ndarray  # (nq,)


def _gauss01(n: int) -> Tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre on [0,1]."""
    x, w = roots_legendre(n)
    return (x + 1.0) / 2.0, w / 2.0


def _jacobi01(n: int, alpha: int) -> Tuple[np.ndarray, np.ndarray]:
    """Gauss-Jacobi on [0,1] with weight (1-t)^alpha."""
    x, w = roots_jacobi(n, alpha, 0.0)
    return (x + 1.0) / 2.0, w / 2.0 ** (alpha + 1)


def simplex_quadrature(dim: int, degree: int) -> QuadratureRule:
    """Rule on the unit interval (dim 1) or triangle (dim 2), exact up to `degree`."""
    if degree < 0:
        raise ValueError("quadrature degree must be nonnegative")
    n = max(1, (degree + 2) // 2)  # 2n-1 >= degree
    if dim == 1:
        x, w = _gauss01(n)
        return QuadratureRule(x[:, None].copy(), w.copy())
    if dim == 2:
        # x = xi*(1-eta), y = eta; Jacobian (1-eta) absorbed by the Jacobi weight.
        xi, wxi = _gauss01(n)
        eta, weta = _jacobi01(n, 1)
        X = np.outer(1.0 - eta, xi).ravel()
        Y = np.repeat(eta, n)
        W = np.outer(weta, wxi).ravel()
        return QuadratureRule(np.column_stack([X, Y]), W)
    raise ValueError("unsupported dimension %d" % dim)


def eval_basis(dim: int, degree: int, points: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Evaluate P1/P2 basis values and gradients at reference points.

    Rejects points outside the closed simplex (tolerance 1e-12); quadrature
    and facet-trace callers only ever ask for interior/boundary points.
    """
    if dim != 2:
        raise ValueError("elements are triangles: dimension must be 2, got %d" % dim)
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    if pts.shape[1] != dim:
        raise ValueError("points have dimension %d, element has %d" % (pts.shape[1], dim))
    lam = np.empty((pts.shape[0], dim + 1))           # barycentric coordinates
    lam[:, 0] = 1.0 - pts.sum(axis=1)
    lam[:, 1:] = pts
    if lam.min() < -1e-12:
        bad = np.unravel_index(np.argmin(lam), lam.shape)[0]
        raise ValueError("point %s lies outside the closed reference simplex" % (pts[bad],))
    dlam = np.zeros((dim + 1, dim))
    dlam[0, :] = -1.0
    dlam[1:, :] = np.eye(dim)

    if degree == 1:
        vals = lam.copy()
        grads = np.broadcast_to(dlam, (pts.shape[0], dim + 1, dim)).copy()
        return vals, grads
    if degree != 2:
        raise ValueError("only P1 and P2 elements are provided")

    nb = (dim + 1) + len(LOCAL_EDGES)
    nq = pts.shape[0]
    vals = np.empty((nq, nb))
    grads = np.empty((nq, nb, dim))
    for i in range(dim + 1):
        vals[:, i] = lam[:, i] * (2.0 * lam[:, i] - 1.0)
        grads[:, i, :] = (4.0 * lam[:, i] - 1.0)[:, None] * dlam[i]
    for e, (a, b) in enumerate(LOCAL_EDGES):
        j = dim + 1 + e
        vals[:, j] = 4.0 * lam[:, a] * lam[:, b]
        grads[:, j, :] = 4.0 * (lam[:, a][:, None] * dlam[b] + lam[:, b][:, None] * dlam[a])
    return vals, grads

