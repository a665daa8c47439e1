"""Form-by-form assembly checks against an independent quadrature oracle.

Each discrete form is evaluated two ways on single elements / single
interface facets: through the assembled block matrix (x^T A_block y with the
trial/test fields interpolated onto the FE spaces), and through a freshly
written integrand integrated with an independent high-order rule (tensor
Gauss-Legendre collapsed onto the triangle, plain Gauss on facets).  Trial
fields are random polynomials of the space's own degree, so both routes are
exact up to roundoff and must agree to 1e-8 relative.

Isolation of individual forms uses the block structure where a block is
pure, and controlled differences otherwise: transient minus steady for the
masses, penalty_const on/off for the penalty, gamma on/off for the slip
term, extrapolated-velocity on/off for advection and the kinetic interface
correction.
"""

import numpy as np
import pytest
from scipy import sparse
from scipy.linalg import sqrtm

from fpsi.assembly import StepInputs, assemble_system, build_geometry, build_problem
from fpsi.kinematics import MaterialParams
from fpsi.mesh import FLUID, SOLID
from fpsi.spaces import interpolate
from tests.test_mesh import two_triangle_mesh

TRIALS = 50
REL_TOL = 1e-8

PARAMS = MaterialParams(rho_f=1.1, rho_s=2.3, mu_f=0.7, lam_s=1.9, mu_s=1.3,
                        phi=0.4, s0=0.8, K=np.array([[2.0, 0.3], [0.3, 1.0]]),
                        gamma=1.3)


# ---------------------------------------------------------------------------
# independent quadrature and polynomial fields
# ---------------------------------------------------------------------------

def gauss01(ng):
    s, w = np.polynomial.legendre.leggauss(ng)
    return 0.5 * (s + 1.0), 0.5 * w


def tri_quad(verts, ng=10):
    """Tensor Gauss rule collapsed onto a triangle; exact to degree 2*ng-2."""
    s, w = gauss01(ng)
    a, b = np.meshgrid(s, s, indexing="ij")
    wts = np.outer(w, w) * (1.0 - a)              # Jacobian of the collapse
    xi = np.stack([a, b * (1.0 - a)], axis=-1).reshape(-1, 2)
    v = np.asarray(verts, dtype=float)
    B = np.column_stack([v[1] - v[0], v[2] - v[0]])
    X = v[0] + xi @ B.T
    return X, wts.ravel() * abs(np.linalg.det(B))


def seg_quad(p0, p1, ng=10):
    s, w = gauss01(ng)
    p0, p1 = np.asarray(p0, float), np.asarray(p1, float)
    X = p0 + s[:, None] * (p1 - p0)
    return X, w * np.linalg.norm(p1 - p0)


def test_oracle_quadrature_is_exact():
    # x^i y^j over the reference triangle is i! j! / (i + j + 2)!
    from math import factorial
    X, w = tri_quad([[0, 0], [1, 0], [0, 1]])
    for i, j in ((0, 0), (3, 2), (6, 6), (12, 0)):
        exact = factorial(i) * factorial(j) / factorial(i + j + 2)
        assert np.dot(w, X[:, 0] ** i * X[:, 1] ** j) == pytest.approx(exact, rel=1e-13)
    Xs, ws = seg_quad([0.0, 0.0], [2.0, 0.0])
    assert np.dot(ws, Xs[:, 0] ** 7) == pytest.approx(2.0 ** 8 / 8.0, rel=1e-13)


class Poly:
    """Random scalar polynomial with analytic gradient (monomials to xy^2...y^2)."""

    def __init__(self, rng, deg):
        c = rng.uniform(-1.0, 1.0, 6)
        if deg < 2:
            c[3:] = 0.0
        self.c = c

    def __call__(self, X):
        x, y = X[..., 0], X[..., 1]
        c = self.c
        return c[0] + c[1] * x + c[2] * y + c[3] * x * x + c[4] * x * y + c[5] * y * y

    def grad(self, X):
        x, y = X[..., 0], X[..., 1]
        c = self.c
        gx = c[1] + 2.0 * c[3] * x + c[4] * y
        gy = c[2] + c[4] * x + 2.0 * c[5] * y
        return np.stack([gx, gy], axis=-1)


class VecPoly:
    def __init__(self, rng, deg):
        self.comp = (Poly(rng, deg), Poly(rng, deg))

    def __call__(self, X):
        return np.stack([p(X) for p in self.comp], axis=-1)

    def grad(self, X):
        """(..., a, e) = d v_a / d X_e."""
        return np.stack([p.grad(X) for p in self.comp], axis=-2)


def linear_map(rng, scale=0.15):
    """Affine displacement u = shift + G X with a well-conditioned F = I + G."""
    G = rng.uniform(-scale, scale, (2, 2))
    shift = rng.uniform(-0.1, 0.1, 2)

    def u(X):
        return shift + X @ G.T

    F = np.eye(2) + G
    J = F[0, 0] * F[1, 1] - F[0, 1] * F[1, 0]
    Finv = np.array([[F[1, 1], -F[0, 1]], [-F[1, 0], F[0, 0]]]) / J
    return u, F, J, Finv


# ---------------------------------------------------------------------------
# meshes, problems, helpers
# ---------------------------------------------------------------------------

TRI_VERTS = np.array([[0.0, 0.0], [1.2, 0.1], [0.3, 1.0]])


def one_triangle_mesh(tag):
    from fpsi.mesh import GAMMA_F0, GAMMA_S0, Mesh, validate_mesh
    marker = GAMMA_F0 if tag == FLUID else GAMMA_S0
    return validate_mesh(Mesh(
        TRI_VERTS.copy(), np.array([[0, 1, 2]], dtype=np.int64),
        np.array([tag], dtype=np.int64),
        np.array([[0, 1], [1, 2], [2, 0]], dtype=np.int64),
        np.full(3, marker, dtype=np.int64)))


def make_problem(mesh, **kw):
    kw.setdefault("pin_pf", None)       # raw blocks: no pinned row
    return build_problem(mesh, kw.pop("params", PARAMS), **kw)


def steady_inputs(problem, ufield, a0=1.0, dt=None, **kw):
    ut = interpolate(problem.spaces["u"], ufield)
    return StepInputs(t=0.0, dt=dt, a0=a0, geo=build_geometry(problem, ut),
                      u_impl_hist=np.zeros_like(ut), **kw)


def block_value(system, row, col, x, y):
    lay = system.layout
    return float(x @ (system.A[lay.slice_of(row), lay.slice_of(col)] @ y))


def rel_err(impl, oracle):
    return abs(impl - oracle) / max(abs(oracle), 1e-10)


# ---------------------------------------------------------------------------
# the seven forms
# ---------------------------------------------------------------------------

def check_mass_form(trials=TRIALS, seed=101):
    """rho-weighted J masses from the BDF derivative: transient minus steady."""
    rng = np.random.default_rng(seed)
    prm = PARAMS
    pf = make_problem(one_triangle_mesh(FLUID))
    ps = make_problem(one_triangle_mesh(SOLID))
    a0, dt = 1.5, 0.25
    c = a0 / dt
    worst = 0.0
    for _ in range(trials):
        ufield, _, J, _ = linear_map(rng)
        for prob, blocks in (
            (pf, [("v_f", "v_f", prm.rho_f)]),
            (ps, [("v_s", "v_s", prm.rho_p), ("v_s", "q", prm.rho_f),
                  ("q", "v_s", prm.rho_f), ("q", "q", prm.rho_f / prm.phi)]),
        ):
            A_tr = assemble_system(prob, steady_inputs(prob, ufield, a0=a0, dt=dt))
            A_st = assemble_system(prob, steady_inputs(prob, ufield))
            # the elastic v_s block scales with beta = dt/a0; the steady one has beta = 1
            lay = A_st.layout
            vs = np.zeros(lay.total)
            if "v_s" in lay.offsets:
                vs[lay.slice_of("v_s")] = 1.0
            S = sparse.diags(vs)
            D = A_tr.A - A_st.A - (dt / a0 - 1.0) * (S @ A_st.A @ S)
            sysd = type(A_tr)(D, A_tr.b, A_tr.layout)
            tag = FLUID if prob is pf else SOLID
            X, w = tri_quad(TRI_VERTS)
            for row, col, rho in blocks:
                xp, yp = VecPoly(rng, 2), VecPoly(rng, 2)
                x = interpolate(prob.spaces[row], xp)
                y = interpolate(prob.spaces[col], yp)
                impl = block_value(sysd, row, col, x, y)
                oracle = rho * c * J * np.dot(w, np.sum(xp(X) * yp(X), axis=-1))
                worst = max(worst, rel_err(impl, oracle))
            if tag == SOLID:
                xp, yp = Poly(rng, 1), Poly(rng, 1)
                x = interpolate(prob.spaces["p_d"], xp)
                y = interpolate(prob.spaces["p_d"], yp)
                impl = block_value(sysd, "p_d", "p_d", x, y)
                oracle = prm.s0 * c * J * np.dot(w, xp(X) * yp(X))
                worst = max(worst, rel_err(impl, oracle))
    return worst


def check_elastic_form(trials=TRIALS, seed=102):
    """a_s: int F S(E_lin) : grad(psi), E_lin = 1/4 (F^T grad v + grad v^T F), at
    beta = 1 (steady; the mass check covers the transient beta = dt/a0).

    The two-argument strain E(u_k, u~) = 1/2 sym(F~^T F_k - I) carries its own
    1/2, so the trial derivative is half the symmetrized product; at F~ = I the
    block is the half-strain operator (the other half sits in the history).
    """
    rng = np.random.default_rng(seed)
    prm = PARAMS
    prob = make_problem(one_triangle_mesh(SOLID))
    worst = 0.0
    for _ in range(trials):
        ufield, F, _, _ = linear_map(rng)
        sysm = assemble_system(prob, steady_inputs(prob, ufield))
        xp, yp = VecPoly(rng, 2), VecPoly(rng, 2)
        x = interpolate(prob.spaces["v_s"], xp)
        y = interpolate(prob.spaces["v_s"], yp)
        impl = block_value(sysm, "v_s", "v_s", x, y)

        X, w = tri_quad(TRI_VERTS)
        gy = yp.grad(X)                               # (n, a, e)
        FtGy = np.einsum("am,nae->nme", F, gy)        # F^T grad y
        E = 0.25 * (FtGy + np.transpose(FtGy, (0, 2, 1)))
        S = 2.0 * prm.mu_s * E
        tr = np.trace(E, axis1=1, axis2=2)
        S[:, 0, 0] += prm.lam_s * tr
        S[:, 1, 1] += prm.lam_s * tr
        FS = np.einsum("am,nmk->nak", F, S)
        oracle = np.dot(w, np.einsum("nak,nak->n", FS, xp.grad(X)))
        worst = max(worst, rel_err(impl, oracle))
    return worst


def check_darcy_form(trials=TRIALS, seed=103):
    """a_d: int J (K^-1 q) . psi_d."""
    rng = np.random.default_rng(seed)
    Kinv = np.linalg.inv(PARAMS.K)
    prob = make_problem(one_triangle_mesh(SOLID))
    worst = 0.0
    for _ in range(trials):
        ufield, _, J, _ = linear_map(rng)
        sysm = assemble_system(prob, steady_inputs(prob, ufield))
        xp, yp = VecPoly(rng, 2), VecPoly(rng, 2)
        x = interpolate(prob.spaces["q"], xp)
        y = interpolate(prob.spaces["q"], yp)
        impl = block_value(sysm, "q", "q", x, y)
        X, w = tri_quad(TRI_VERTS)
        oracle = J * np.dot(w, np.einsum("na,ab,nb->n", xp(X), Kinv, yp(X)))
        worst = max(worst, rel_err(impl, oracle))
    return worst


def check_viscous_form(trials=TRIALS, seed=104):
    """a_f: int 2 mu J D(x) : D(y), D(v) = sym(grad v F^-1)."""
    rng = np.random.default_rng(seed)
    prob = make_problem(one_triangle_mesh(FLUID))
    worst = 0.0
    for _ in range(trials):
        ufield, _, J, Finv = linear_map(rng)
        sysm = assemble_system(prob, steady_inputs(prob, ufield))
        xp, yp = VecPoly(rng, 2), VecPoly(rng, 2)
        x = interpolate(prob.spaces["v_f"], xp)
        y = interpolate(prob.spaces["v_f"], yp)
        impl = block_value(sysm, "v_f", "v_f", x, y)
        X, w = tri_quad(TRI_VERTS)

        def D(p):
            g = np.einsum("nae,ep->nap", p.grad(X), Finv)
            return 0.5 * (g + np.transpose(g, (0, 2, 1)))

        oracle = 2.0 * PARAMS.mu_f * J * np.dot(w, np.einsum("nap,nap->n", D(xp), D(yp)))
        worst = max(worst, rel_err(impl, oracle))
    return worst


def check_advection_form(trials=TRIALS, seed=105):
    """c_f: int rho_f J x . (grad y F^-1 (v~ - w~)), on/off differences."""
    rng = np.random.default_rng(seed)
    prob = make_problem(one_triangle_mesh(FLUID))
    nvf = prob.spaces["v_f"].num_dofs
    worst = 0.0
    for _ in range(trials):
        ufield, _, J, Finv = linear_map(rng)
        vtp = VecPoly(rng, 2)
        wtp = VecPoly(rng, 2)
        vt = interpolate(prob.spaces["v_f"], vtp)
        wt = interpolate(prob.spaces["u"], wtp)
        common = dict(a0=1.0, dt=0.2)
        A_v = assemble_system(prob, steady_inputs(prob, ufield, vf_tilde=vt, **common))
        A_0 = assemble_system(prob, steady_inputs(prob, ufield,
                                                     vf_tilde=np.zeros(nvf), **common))
        A_vw = assemble_system(prob, steady_inputs(prob, ufield, vf_tilde=vt,
                                                      w_tilde=wt, **common))
        xp, yp = VecPoly(rng, 2), VecPoly(rng, 2)
        x = interpolate(prob.spaces["v_f"], xp)
        y = interpolate(prob.spaces["v_f"], yp)
        X, w = tri_quad(TRI_VERTS)

        def cf_oracle(adv_vals):
            gy = np.einsum("nae,ep->nap", yp.grad(X), Finv)
            return PARAMS.rho_f * J * np.dot(
                w, np.einsum("na,nap,np->n", xp(X), gy, adv_vals))

        lay = A_v.layout
        D1 = type(A_v)(A_v.A - A_0.A, A_v.b, lay)
        worst = max(worst, rel_err(block_value(D1, "v_f", "v_f", x, y),
                                   cf_oracle(vtp(X))))
        D2 = type(A_v)(A_vw.A - A_v.A, A_v.b, lay)
        worst = max(worst, rel_err(block_value(D2, "v_f", "v_f", x, y),
                                   cf_oracle(-wtp(X))))
    return worst


def check_pressure_form(trials=TRIALS, seed=106):
    """b: int p J F^-T : grad(psi) blocks and their transposed constraints."""
    rng = np.random.default_rng(seed)
    pf = make_problem(one_triangle_mesh(FLUID))
    ps = make_problem(one_triangle_mesh(SOLID))
    worst = 0.0
    for _ in range(trials):
        ufield, _, J, Finv = linear_map(rng)
        X, w = tri_quad(TRI_VERTS)

        def div_oracle(vecp, scalp):
            # int J p tr(grad v F^-1)
            div = np.einsum("nae,ea->n", vecp.grad(X), Finv)
            return J * np.dot(w, scalp(X) * div)

        for prob, vname, pname in ((pf, "v_f", "p_f"), (ps, "v_s", "p_d"),
                                   (ps, "q", "p_d")):
            sysm = assemble_system(prob, steady_inputs(prob, ufield))
            vp, sp = VecPoly(rng, 2), Poly(rng, 1)
            v = interpolate(prob.spaces[vname], vp)
            s = interpolate(prob.spaces[pname], sp)
            impl_con = block_value(sysm, pname, vname, s, v)    # +b(q, v)
            impl_prs = block_value(sysm, vname, pname, v, s)    # -b(p, psi)
            oracle = div_oracle(vp, sp)
            worst = max(worst, rel_err(impl_con, oracle))
            worst = max(worst, rel_err(impl_prs, -oracle))
    return worst


def _iface_setup(rng, **kw):
    """Mixed two-triangle problem plus oracle geometry for its single facet."""
    mesh = two_triangle_mesh((FLUID, SOLID))
    prob = make_problem(mesh, **kw)
    ufield, F, J, Finv = linear_map(rng)
    # facet (0,0)-(1,1); unit reference normal oriented fluid -> solid
    nref = np.array([-1.0, 1.0]) / np.sqrt(2.0)
    nu = Finv.T @ nref
    mag = np.linalg.norm(nu)
    n = nu / mag
    Js = J * mag
    Xs, ws = seg_quad([0.0, 0.0], [1.0, 1.0])
    return prob, ufield, dict(F=F, J=J, Finv=Finv, n=n, Js=Js, Xs=Xs, ws=ws)


def _pack(lay, pieces):
    x = np.zeros(lay.total)
    for name, vec in pieces.items():
        x[lay.slice_of(name)] = vec
    return x


def check_interface_form(trials=TRIALS, seed=107):
    """d: penalty, pressure coupling, kinetic correction and tangential slip."""
    rng = np.random.default_rng(seed)
    prm = PARAMS
    Kis = np.real(sqrtm(np.linalg.inv(prm.K)))
    worst = 0.0
    for _ in range(trials):
        # --- penalty: difference in penalty_const, all field combinations
        tau = 2.7
        prob, ufield, g = _iface_setup(rng, penalty_const=tau)
        prob0 = make_problem(prob.mesh, penalty_const=0.0)
        inp = steady_inputs(prob, ufield)
        A_t = assemble_system(prob, inp)
        A_0 = assemble_system(prob0, inp)
        lay = A_t.layout
        D = A_t.A - A_0.A
        Xs, ws, n, Js = g["Xs"], g["ws"], g["n"], g["Js"]

        xps = {f: VecPoly(rng, 2) for f in ("v_f", "v_s", "q")}
        yps = {f: VecPoly(rng, 2) for f in ("v_f", "v_s", "q")}
        xvec = _pack(lay, {f: interpolate(prob.spaces[f], p) for f, p in xps.items()})
        yvec = _pack(lay, {f: interpolate(prob.spaces[f], p) for f, p in yps.items()})

        def jump_n(ps):
            return ((ps["v_f"](Xs) - ps["v_s"](Xs) - ps["q"](Xs)) * n).sum(axis=-1)

        impl = float(xvec @ (D @ yvec))
        oracle = tau * Js * np.dot(ws, jump_n(xps) * jump_n(yps))
        worst = max(worst, rel_err(impl, oracle))

        # --- pressure coupling (+ solid constraint part where blocks combine)
        sysm = A_0   # penalty off keeps the blocks minimal
        pp = Poly(rng, 1)
        pvec = interpolate(prob.spaces["p_d"], pp)
        xf = interpolate(prob.spaces["v_f"], xps["v_f"])
        impl = block_value(sysm, "v_f", "p_d", xf, pvec)
        oracle = Js * np.dot(ws, (xps["v_f"](Xs) * n).sum(axis=-1) * pp(Xs))
        worst = max(worst, rel_err(impl, oracle))

        # solid rows carry -b_s^T minus the same interface coupling
        Xc, wc = tri_quad(prob.mesh.vertices[[0, 2, 3]])   # the solid cell
        for fname in ("v_s", "q"):
            xv = interpolate(prob.spaces[fname], xps[fname])
            impl = block_value(sysm, fname, "p_d", xv, pvec)
            div = np.einsum("nae,ea->n", xps[fname].grad(Xc), g["Finv"])
            oracle = (-g["J"] * np.dot(wc, pp(Xc) * div)
                      - Js * np.dot(ws, (xps[fname](Xs) * n).sum(axis=-1) * pp(Xs)))
            worst = max(worst, rel_err(impl, oracle))

        # --- kinetic correction (and advection riding along on v_f, v_f)
        vtp = VecPoly(rng, 2)
        vt = interpolate(prob.spaces["v_f"], vtp)
        tr_kw = dict(a0=1.0, dt=0.2)
        A_v = assemble_system(prob0, steady_inputs(prob0, ufield, vf_tilde=vt, **tr_kw))
        A_z = assemble_system(prob0, steady_inputs(
            prob0, ufield, vf_tilde=np.zeros(prob0.spaces["v_f"].num_dofs), **tr_kw))
        Dk = A_v.A - A_z.A
        sysd = type(A_v)(Dk, A_v.b, lay)
        yf = interpolate(prob.spaces["v_f"], yps["v_f"])
        xs = interpolate(prob.spaces["v_s"], xps["v_s"])
        kin = 0.5 * prm.rho_f * Js
        impl = block_value(sysd, "v_s", "v_f", xs, yf)
        oracle = kin * np.dot(ws, (xps["v_s"](Xs) * n).sum(axis=-1)
                              * (yps["v_f"](Xs) * vtp(Xs)).sum(axis=-1))
        worst = max(worst, rel_err(impl, oracle))

        Xf, wf = tri_quad(prob.mesh.vertices[[0, 1, 2]])   # the fluid cell
        gy = np.einsum("nae,ep->nap", yps["v_f"].grad(Xf), g["Finv"])
        adv = prm.rho_f * g["J"] * np.dot(
            wf, np.einsum("na,nap,np->n", xps["v_f"](Xf), gy, vtp(Xf)))
        impl = block_value(sysd, "v_f", "v_f", xf, yf)
        oracle = adv - kin * np.dot(ws, (xps["v_f"](Xs) * n).sum(axis=-1)
                                    * (yps["v_f"](Xs) * vtp(Xs)).sum(axis=-1))
        worst = max(worst, rel_err(impl, oracle))

        # --- tangential slip: gamma on/off difference, packed (v_f, v_s)
        prm0 = MaterialParams(rho_f=prm.rho_f, rho_s=prm.rho_s, mu_f=prm.mu_f,
                              lam_s=prm.lam_s, mu_s=prm.mu_s, phi=prm.phi,
                              s0=prm.s0, K=prm.K, gamma=0.0)
        prob_g0 = make_problem(prob.mesh, params=prm0, penalty_const=0.0)
        A_g0 = assemble_system(prob_g0, steady_inputs(prob_g0, ufield))
        Ds = type(A_0)(A_0.A - A_g0.A, A_0.b, lay)
        P = np.eye(2) - np.outer(n, n)
        # the block signs already encode the jump: pack plain field values
        xj = _pack(lay, {"v_f": xf, "v_s": xs})
        ysv = interpolate(prob.spaces["v_s"], yps["v_s"])
        yj = _pack(lay, {"v_f": yf, "v_s": ysv})
        impl = float(xj @ (Ds.A @ yj))
        dx = np.einsum("ab,nb->na", P, xps["v_f"](Xs) - xps["v_s"](Xs))
        dy = np.einsum("ab,nb->na", P, yps["v_f"](Xs) - yps["v_s"](Xs))
        oracle = prm.gamma * Js * np.dot(ws, np.einsum("na,ab,nb->n", dx, Kis, dy))
        worst = max(worst, rel_err(impl, oracle))
    return worst


ALL_FORM_CHECKS = (
    ("mass", check_mass_form),
    ("elastic", check_elastic_form),
    ("darcy", check_darcy_form),
    ("viscous", check_viscous_form),
    ("advection", check_advection_form),
    ("pressure", check_pressure_form),
    ("interface", check_interface_form),
)


@pytest.mark.parametrize("name,fn", ALL_FORM_CHECKS, ids=[n for n, _ in ALL_FORM_CHECKS])
def test_form_matches_oracle(name, fn):
    assert fn(TRIALS) < REL_TOL
