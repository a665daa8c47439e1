"""Manufactured solutions for the verification harness.

Forcing terms are derived symbolically from the chosen exact fields and
injected as right-hand sides on the undeformed reference geometry (u frozen
at zero), so the discrete operators are tested in isolation:

  stokes_polynomial   steady Stokes, v = (x^2, -2xy), p = x + 2y - 3/2;
                      both fields lie in the Taylor-Hood space, so the solver
                      must reproduce them to roundoff.
  stokes_trig         steady Stokes, v = curl(sin^2(pi x) sin^2(pi y)),
                      p = sin(3 pi x) cos(3 pi y); expected L2 orders 3 / 2.
  biot_trig           steady poroelastic system on the solid: displacement,
                      filtration flux and pore pressure all smooth trig
                      fields with p = 0 on the whole boundary so the flux
                      needs no boundary condition.
  unsteady_fluid      Navier-Stokes with inertia, v and p polynomial in
                      space (inside the FE space) times a smooth factor in
                      time: the spatial error vanishes and the measured
                      error is purely the BDF truncation error.

The steady elastic operator linearizes around zero history with beta = 1,
which makes the assembled stress S(E(w, 0)) act on the half strain eps(w)/2;
the biot forcing is manufactured against exactly that operator.

Each forcing term is built from `sp.diff` and arithmetic only and lambdified
as derived; it is never simplified, which would cost seconds per case and
change the values only by roundoff.  The identity div v = 0 of the fluid
cases is proved by `_require_zero`: structurally, then by `sp.expand`, and
by `sp.simplify` only if both fail.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict

import numpy as np
import sympy as sp

from .errors import FpsiError
from .kinematics import MaterialParams

_x, _y, _t = sp.symbols("x y t")

# the materials of every case: unit coefficients, porosity 1/2
UNIT_PARAMS = MaterialParams(rho_f=1.0, rho_s=1.0, mu_f=1.0, lam_s=1.0, mu_s=1.0,
                             phi=0.5, s0=1.0, K=1.0)


@dataclass
class MmsCase:
    name: str
    subdomain: str                       # "fluid" or "solid"
    params: MaterialParams
    exact: Dict[str, Callable]
    forcing: Dict[str, Callable]


def _wrap(exprs, tdep: bool) -> Callable:
    """Vectorized callable fn(X, t=None) from sympy expressions; without
    tdep it ignores t, so every case's fields take (X, t) alike."""
    exprs = [sp.sympify(e) for e in np.atleast_1d(exprs)]
    syms = (_x, _y, _t) if tdep else (_x, _y)
    fns = [sp.lambdify(syms, e, "numpy") for e in exprs]
    scalar = len(exprs) == 1

    def fn(X, t=None):
        X = np.atleast_2d(np.asarray(X, dtype=float))
        args = (X[:, 0], X[:, 1])
        if tdep:
            args = args + (float(t),)
        cols = [np.broadcast_to(np.asarray(f(*args), dtype=float),
                                (X.shape[0],)).astype(float) for f in fns]
        return cols[0] if scalar else np.column_stack(cols)

    return fn


def _grad(v):
    return sp.Matrix([[sp.diff(v[i], s) for s in (_x, _y)] for i in range(2)])


def _div_vec(v):
    return sp.diff(v[0], _x) + sp.diff(v[1], _y)


def _div_mat(S):
    return [sp.diff(S[i, 0], _x) + sp.diff(S[i, 1], _y) for i in range(2)]


def _sym(A):
    return (A + A.T) / 2


def _require_zero(expr, what: str) -> None:
    """Prove a sympy expression identically zero, cheapest proof first."""
    expr = sp.sympify(expr)
    if expr == 0 or sp.expand(expr) == 0 or sp.simplify(expr) == 0:
        return
    raise FpsiError("%s is not identically zero: %s" % (what, expr))


def _stokes_case(name: str, v, p, prm: MaterialParams) -> MmsCase:
    D = _sym(_grad(v))
    gp = [sp.diff(p, _x), sp.diff(p, _y)]
    f = [-e + g for e, g in zip(_div_mat(2 * prm.mu_f * D), gp)]
    _require_zero(_div_vec(v), "div v of %s" % name)
    return MmsCase(
        name=name, subdomain="fluid", params=prm,
        exact={"v_f": _wrap(v, False), "p_f": _wrap(p, False)},
        forcing={"v_f": _wrap(f, False)},
    )


def stokes_polynomial() -> MmsCase:
    v = [_x ** 2, -2 * _x * _y]
    p = _x + 2 * _y - sp.Rational(3, 2)
    return _stokes_case("stokes_polynomial", v, p, UNIT_PARAMS)


def stokes_trig() -> MmsCase:
    psi = sp.sin(sp.pi * _x) ** 2 * sp.sin(sp.pi * _y) ** 2
    v = [sp.diff(psi, _y), -sp.diff(psi, _x)]  # divergence-free by construction
    # Higher frequency than the velocity so the pressure's own approximation
    # error dominates early and the asymptotic rate shows on coarse meshes.
    p = sp.sin(3 * sp.pi * _x) * sp.cos(3 * sp.pi * _y)
    return _stokes_case("stokes_trig", v, p, UNIT_PARAMS)


def biot_trig() -> MmsCase:
    prm = UNIT_PARAMS
    s = sp.sin(sp.pi * _x) * sp.sin(sp.pi * _y)
    w = [sp.Rational(1, 10) * s, sp.Rational(1, 10) * s]
    q = [sp.Rational(3, 10) * sp.sin(2 * sp.pi * _x) * sp.sin(sp.pi * _y),
         sp.Rational(3, 10) * sp.sin(sp.pi * _x) * sp.sin(2 * sp.pi * _y)]
    p = s  # zero on the boundary: the flux equation needs no boundary term

    # steady operator acts on the half strain (linearization about zero)
    E = _sym(_grad(w)) / 2
    S = prm.lam_s * E.trace() * sp.eye(2) + 2 * prm.mu_s * E
    gp = [sp.diff(p, _x), sp.diff(p, _y)]
    f_s = [-e + g for e, g in zip(_div_mat(S), gp)]
    kinv = float(prm.K_inv[0, 0])
    f_d = [kinv * q[i] + gp[i] for i in range(2)]
    g_s = _div_vec([w[0] + q[0], w[1] + q[1]])
    return MmsCase(
        name="biot_trig", subdomain="solid", params=prm,
        exact={"v_s": _wrap(w, False), "q": _wrap(q, False), "p_d": _wrap(p, False)},
        forcing={"v_s": _wrap(f_s, False), "q": _wrap(f_d, False),
                 "mass_s": _wrap(g_s, False)},
    )


def unsteady_fluid() -> MmsCase:
    prm = UNIT_PARAMS
    g = 1 + sp.sin(3 * _t) / 2
    v = [g * _x ** 2, -2 * g * _x * _y]
    p = g * (_x + 2 * _y - sp.Rational(3, 2))
    Gv = _grad(v)
    conv = Gv * sp.Matrix(v)
    D = _sym(Gv)
    visc = _div_mat(2 * prm.mu_f * D)
    gp = [sp.diff(p, _x), sp.diff(p, _y)]
    f = [prm.rho_f * (sp.diff(v[i], _t) + conv[i]) - visc[i] + gp[i] for i in range(2)]
    _require_zero(_div_vec(v), "div v of unsteady_fluid")
    return MmsCase(
        name="unsteady_fluid", subdomain="fluid", params=prm,
        exact={"v_f": _wrap(v, True), "p_f": _wrap(p, True)},
        forcing={"v_f": _wrap(f, True)},
    )


CASES = {
    "stokes_polynomial": stokes_polynomial,
    "stokes_trig": stokes_trig,
    "biot_trig": biot_trig,
    "unsteady_fluid": unsteady_fluid,
}
