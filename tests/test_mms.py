"""Manufactured-solution cases and the verification driver.

The symbolic forcing terms are re-derived here by finite differences of the
exact fields (4th-order stencils at interior points), so a sign slip or a
dropped term in the sympy pipeline cannot cancel against the solver.
"""

import numpy as np
import pytest
import sympy as sp

import fpsi.mms as mms
from fpsi.errors import FpsiError
from fpsi.mms import CASES, MmsCase, _wrap, biot_trig, stokes_polynomial, \
    stokes_trig, unsteady_fluid
from fpsi.scenarios import mms_problem, mms_temporal_study, solve_mms_steady, \
    solve_mms_time

_H = 2e-3


def _d1(f, X, ax, h=_H):
    """4th-order first derivative of a pointwise callable along axis ax."""
    e = np.zeros(2)
    e[ax] = 1.0
    return (-f(X + 2 * h * e) + 8 * f(X + h * e)
            - 8 * f(X - h * e) + f(X - 2 * h * e)) / (12 * h)


def _d2(f, X, a, b, h=_H):
    if a == b:
        e = np.zeros(2)
        e[a] = 1.0
        return (-f(X + 2 * h * e) + 16 * f(X + h * e) - 30 * f(X)
                + 16 * f(X - h * e) - f(X - 2 * h * e)) / (12 * h * h)
    return _d1(lambda Y: _d1(f, Y, b, h), X, a, h)


def _interior_points(rng, n=12):
    return 0.25 + 0.5 * rng.random((n, 2))


def _comp(fn, i, t=None):
    if t is None:
        return lambda X: fn(X)[:, i]
    return lambda X: fn(X, t)[:, i]


def test_wrap_shapes():
    v = _wrap([sp.Symbol("x") ** 2, sp.Symbol("y")], False)
    out = v(np.array([[2.0, 3.0], [1.0, 1.0]]))
    assert out.shape == (2, 2)
    assert np.allclose(out, [[4.0, 3.0], [1.0, 1.0]])

    s = _wrap(sp.Symbol("x") + 1, False)
    assert s(np.array([[0.5, 0.0]])).shape == (1,)

    # constants must broadcast to the number of points
    c = _wrap(sp.Integer(7), False)
    assert np.array_equal(c(np.zeros((3, 2))), [7.0, 7.0, 7.0])

    g = _wrap(sp.Symbol("t") * sp.Symbol("x"), True)
    assert g(np.array([[2.0, 0.0]]), 1.5) == pytest.approx(3.0)


def _simplified_wrap(exprs, tdep):
    """_wrap of the sp.simplify'd expressions: the forcing as it was derived
    before simplification was dropped."""
    return _wrap([sp.simplify(sp.sympify(e)) for e in np.atleast_1d(exprs)], tdep)


@pytest.mark.parametrize("name", sorted(CASES))
def test_forcing_matches_simplified_derivation(name, monkeypatch):
    case = CASES[name]()
    monkeypatch.setattr(mms, "_wrap", _simplified_wrap)
    ref = CASES[name]()
    X = np.random.default_rng(11).uniform(-0.5, 1.5, (64, 2))
    assert set(case.forcing) == set(ref.forcing)
    for key, fn in case.forcing.items():
        got, want = fn(X, 0.7), ref.forcing[key](X, 0.7)     # steady cases ignore t
        assert got.shape == want.shape
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want)), key


def test_divergence_check_rejects_a_source():
    x, y = sp.symbols("x y")
    with pytest.raises(FpsiError, match="div v of source"):
        mms._stokes_case("source", [x, y], sp.Integer(0), mms.UNIT_PARAMS)


def test_zero_check_falls_back_to_simplify():
    x = sp.Symbol("x")
    mms._require_zero(sp.sin(x) ** 2 + sp.cos(x) ** 2 - 1, "identity")
    mms._require_zero((x + 1) ** 2 - x ** 2 - 2 * x - 1, "expanded")
    with pytest.raises(FpsiError, match="identity"):
        mms._require_zero(sp.sin(x) ** 2 - sp.cos(x) ** 2, "identity")


def test_case_registry():
    assert set(CASES) == {"stokes_polynomial", "stokes_trig", "biot_trig",
                          "unsteady_fluid"}
    for name, factory in CASES.items():
        case = factory()
        assert isinstance(case, MmsCase)
        assert case.name == name


@pytest.mark.parametrize("factory", [stokes_polynomial, stokes_trig])
def test_stokes_forcing_matches_finite_differences(factory):
    case = factory()
    mu = case.params.mu_f
    rng = np.random.default_rng(11)
    X = _interior_points(rng)
    f = case.forcing["v_f"](X)
    p = case.exact["p_f"]
    for i in range(2):
        vi = _comp(case.exact["v_f"], i)
        lap = _d2(vi, X, 0, 0) + _d2(vi, X, 1, 1)
        # div D(v) = (lap v + grad div v) / 2; div v = 0 for both cases
        expect = -mu * lap + _d1(p, X, i)
        assert np.allclose(f[:, i], expect, rtol=1e-6, atol=1e-8)


def test_biot_forcing_matches_finite_differences():
    case = biot_trig()
    prm = case.params
    rng = np.random.default_rng(12)
    X = _interior_points(rng)
    w, q, p = case.exact["v_s"], case.exact["q"], case.exact["p_d"]
    div_w = _d1(_comp(w, 0), X, 0) + _d1(_comp(w, 1), X, 1)
    div_q = _d1(_comp(q, 0), X, 0) + _d1(_comp(q, 1), X, 1)

    f_s = case.forcing["v_s"](X)
    f_d = case.forcing["q"](X)
    g_s = case.forcing["mass_s"](X)
    assert np.allclose(g_s, div_w + div_q, rtol=1e-6, atol=1e-8)
    for i in range(2):
        wi = _comp(w, i)
        lap_wi = _d2(wi, X, 0, 0) + _d2(wi, X, 1, 1)
        # grad(div w) component i
        gdiv = (_d2(_comp(w, 0), X, i, 0) + _d2(_comp(w, 1), X, i, 1))
        # stress acts on the half strain: S = (lam/2) div w I + (mu/2)(G + G^T)
        div_S = 0.5 * prm.lam_s * gdiv + 0.5 * prm.mu_s * (lap_wi + gdiv)
        assert np.allclose(f_s[:, i], -div_S + _d1(p, X, i),
                           rtol=1e-6, atol=1e-8)
        assert np.allclose(f_d[:, i], q(X)[:, i] / prm.K[i, i] + _d1(p, X, i),
                           rtol=1e-6, atol=1e-8)


def test_unsteady_forcing_matches_finite_differences():
    case = unsteady_fluid()
    prm = case.params
    rng = np.random.default_rng(13)
    X = _interior_points(rng, 8)
    t = 0.37
    f = case.forcing["v_f"](X, t)
    v = case.exact["v_f"](X, t)
    h = 1e-3
    vf = case.exact["v_f"]
    dv_dt = (-vf(X, t + 2 * h) + 8 * vf(X, t + h)
             - 8 * vf(X, t - h) + vf(X, t - 2 * h)) / (12 * h)
    p_at_t = lambda Y: case.exact["p_f"](Y, t)
    for i in range(2):
        vi = _comp(case.exact["v_f"], i, t)
        lap = _d2(vi, X, 0, 0) + _d2(vi, X, 1, 1)
        conv = (v[:, 0] * _d1(vi, X, 0) + v[:, 1] * _d1(vi, X, 1))
        expect = (prm.rho_f * (dv_dt[:, i] + conv) - prm.mu_f * lap
                  + _d1(p_at_t, X, i))
        assert np.allclose(f[:, i], expect, rtol=1e-5, atol=1e-7)


def test_mms_problem_pins_pressure_to_exact_value():
    case = stokes_polynomial()
    prob = mms_problem(case, 2)
    dofs, values = prob.fixed[-1]             # the pin comes after the conditions
    assert dofs.tolist() == [prob.layout.offsets["p_f"]]       # p_f node 0
    coord = prob.spaces["p_f"].node_coords[0:1]
    assert values(0.0).tolist() == pytest.approx([float(case.exact["p_f"](coord)[0])])


def test_stokes_polynomial_is_reproduced_exactly():
    errs = solve_mms_steady(stokes_polynomial(), 3)
    assert errs["v_f"] < 1e-10
    assert errs["p_f"] < 1e-10


def test_trig_errors_shrink_under_refinement():
    e4 = solve_mms_steady(stokes_trig(), 4)
    e8 = solve_mms_steady(stokes_trig(), 8)
    assert e8["v_f"] < 0.25 * e4["v_f"]
    assert e8["p_f"] < 0.5 * e4["p_f"]

    b4 = solve_mms_steady(biot_trig(), 4)
    b8 = solve_mms_steady(biot_trig(), 8)
    for name in ("v_s", "q", "p_d"):
        assert b8[name] < 0.5 * b4[name]


def test_temporal_error_halves_with_dt_bdf1():
    e1 = solve_mms_time(unsteady_fluid(), 4, 0.02, 8, order=1)
    e2 = solve_mms_time(unsteady_fluid(), 4, 0.01, 16, order=1)
    assert 1.6 < e1 / e2 < 2.5


def test_temporal_study_returns_matching_lengths():
    dts, errs = mms_temporal_study(unsteady_fluid(), 1, levels=2)
    assert dts == [0.02, 0.01]
    assert len(errs) == 2 and all(e > 0 for e in errs)
