"""Reference elements and quadrature rules."""

import math

import numpy as np
import pytest

from fpsi.elements import eval_basis, simplex_quadrature

# P2 nodes of the reference triangle: the vertices, then the midpoints of
# the local edges (0, 1), (0, 2), (1, 2)
P2_NODES = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0],
                     [0.5, 0.0], [0.0, 0.5], [0.5, 0.5]])


def monomial_integral_triangle(i, j):
    """Exact integral of x^i y^j over the unit triangle: i! j! / (i+j+2)!."""
    return math.factorial(i) * math.factorial(j) / math.factorial(i + j + 2)


# ---------------------------------------------------------------------------
# quadrature
# ---------------------------------------------------------------------------

def test_quadrature_measures():
    rule = simplex_quadrature(2, 2)
    assert rule.weights.sum() == pytest.approx(0.5, rel=1e-14)
    rule = simplex_quadrature(1, 6)
    assert rule.points.shape[1] == 1
    assert rule.weights.sum() == pytest.approx(1.0, rel=1e-14)


def test_quadrature_low_degree_values():
    rule = simplex_quadrature(2, 2)
    x2 = (rule.weights * rule.points[:, 0] ** 2).sum()
    xy = (rule.weights * rule.points[:, 0] * rule.points[:, 1]).sum()
    assert x2 == pytest.approx(1.0 / 12.0, rel=1e-14)
    assert xy == pytest.approx(1.0 / 24.0, rel=1e-14)


@pytest.mark.parametrize("degree", [1, 2, 4, 6, 8, 12])
def test_quadrature_monomial_exactness(degree):
    rule = simplex_quadrature(2, degree)
    for i in range(degree + 1):
        for j in range(degree + 1 - i):
            val = (rule.weights * rule.points[:, 0] ** i * rule.points[:, 1] ** j).sum()
            ref = monomial_integral_triangle(i, j)
            assert val == pytest.approx(ref, rel=1e-12)


def test_quadrature_rejects_negative_degree():
    with pytest.raises(ValueError):
        simplex_quadrature(2, -1)
    with pytest.raises(ValueError):
        simplex_quadrature(4, 2)


# ---------------------------------------------------------------------------
# basis evaluation
# ---------------------------------------------------------------------------

def test_p1_barycenter():
    vals, _ = eval_basis(2, 1, np.array([[1.0 / 3.0, 1.0 / 3.0]]))
    assert np.allclose(vals, 1.0 / 3.0, atol=1e-14)


def test_p2_nodal_property():
    vals, _ = eval_basis(2, 2, P2_NODES)
    assert vals.shape == (6, 6)
    assert np.allclose(vals, np.eye(6), atol=1e-14)
    # spot checks from the node layout: vertex (0,0) and midpoint (1/2, 0)
    v, _ = eval_basis(2, 2, np.array([[0.0, 0.0]]))
    assert v[0, 0] == pytest.approx(1.0) and np.allclose(v[0, 1:], 0.0, atol=1e-15)
    v, _ = eval_basis(2, 2, np.array([[0.5, 0.0]]))
    mid01 = 3  # first midpoint node follows the three vertices
    assert v[0, mid01] == pytest.approx(1.0)
    others = np.delete(v[0], mid01)
    assert np.allclose(others, 0.0, atol=1e-15)


def test_point_outside_simplex_rejected():
    with pytest.raises(ValueError):
        eval_basis(2, 1, np.array([[0.7, 0.7]]))
    with pytest.raises(ValueError):
        eval_basis(2, 2, np.array([[-0.1, 0.2]]))


def _random_simplex_points(rng, n):
    # rejection sampling keeps the distribution simple and points strictly inside
    pts = []
    while len(pts) < n:
        p = rng.uniform(0.0, 1.0, size=2)
        if p.sum() <= 1.0:
            pts.append(p)
    return np.asarray(pts)


@pytest.mark.parametrize("degree", [1, 2])
def test_partition_of_unity(degree):
    rng = np.random.default_rng(11)
    pts = _random_simplex_points(rng, 100)
    vals, grads = eval_basis(2, degree, pts)
    assert np.allclose(vals.sum(axis=1), 1.0, atol=1e-13)
    assert np.allclose(grads.sum(axis=1), 0.0, atol=1e-13)


@pytest.mark.parametrize("degree", [1, 2])
def test_gradients_match_finite_differences(degree):
    rng = np.random.default_rng(12)
    pts = _random_simplex_points(rng, 20) * 0.8 + 0.05   # keep FD stencil inside
    eps = 1e-6
    vals, grads = eval_basis(2, degree, pts)
    for axis in range(2):
        step = np.zeros(2)
        step[axis] = eps
        vp, _ = eval_basis(2, degree, pts + step)
        vm, _ = eval_basis(2, degree, pts - step)
        fd = (vp - vm) / (2 * eps)
        assert np.max(np.abs(fd - grads[:, :, axis])) < 1e-4


def test_p2_reproduces_quadratics():
    rng = np.random.default_rng(13)
    coef = rng.normal(size=6)

    def poly(p):
        x, y = p[..., 0], p[..., 1]
        return (coef[0] + coef[1] * x + coef[2] * y + coef[3] * x * x
                + coef[4] * x * y + coef[5] * y * y)

    dofs = poly(P2_NODES)
    pts = _random_simplex_points(rng, 50)
    vals, _ = eval_basis(2, 2, pts)
    assert np.max(np.abs(vals @ dofs - poly(pts))) < 1e-12


def test_reference_element_validation():
    with pytest.raises(ValueError):
        eval_basis(1, 1, np.array([[0.5]]))
    with pytest.raises(ValueError):
        eval_basis(2, 3, np.array([[0.2, 0.2]]))
    with pytest.raises(ValueError, match="points have dimension 3, element has 2"):
        eval_basis(2, 1, np.array([[0.2, 0.2, 0.2]]))
