"""System-level assembly invariants: geometry, block structure,
symmetry/PSD properties, closed-form element values, Dirichlet handling,
inf-sup sanity, sparsity and determinism."""

import numpy as np
import pytest
from scipy.sparse.linalg import spsolve

from fpsi.assembly import (QUAD_DEGREE, DirichletBC, PressureLoad, StepInputs,
                           assemble_system, build_geometry, build_problem)
from fpsi.elements import eval_basis, simplex_quadrature
from fpsi.errors import AssemblyError, DegenerateDeformationError
from fpsi.fem import grads_at_qp
from fpsi.kinematics import MaterialParams, pushforward_normal
from fpsi.mesh import (FLUID, GAMMA_F0, GAMMA_FS, GAMMA_OUT, GAMMA_S0, SOLID, Mesh, extract_interface,
                       validate_mesh)
from fpsi.reporting import write_matrix
from fpsi.scenarios import benchmark_params, channel_mesh, channel_problem, unit_square_mesh
from fpsi.spaces import cell_geometry, interpolate
from fpsi.stepping import BDF1, State, step_inputs
from tests.test_assembly_forms import PARAMS, make_problem, one_triangle_mesh
from tests.test_mesh import two_triangle_mesh


def mixed_problem(**kw):
    return make_problem(two_triangle_mesh((FLUID, SOLID)), **kw)


def steady(problem, ufield=None, **kw):
    inp = StepInputs.steady(problem)
    if ufield is not None:
        inp.geo = build_geometry(problem, interpolate(problem.spaces["u"], ufield))
    for k, v in kw.items():
        setattr(inp, k, v)
    return inp


def const_field(space, vec):
    return interpolate(space, lambda X: np.tile(vec, (X.shape[0], 1)))


def wavy(X):
    return 0.08 * np.stack([np.sin(X[:, 0] + 0.3 * X[:, 1]),
                            X[:, 0] * X[:, 1]], axis=1)


# ---------------------------------------------------------------------------
# geometry
# ---------------------------------------------------------------------------

def test_geometry_cache_invariants():
    prob = mixed_problem()
    u = interpolate(prob.spaces["u"], wavy)
    geo = build_geometry(prob, u)
    for batch, sub in ((prob.fluid, geo.fluid), (prob.solid, geo.solid)):
        assert np.all(sub["J"] > 0.0)
        # G holds the P2 gradients pushed forward, grad(phi) F^-1, in the
        # product layout (nb, n, d, nq) of the batch's gradients
        F = np.eye(2) + grads_at_qp(batch.dphi2, batch.nodes_u, u, 2)
        assert np.allclose(np.linalg.det(F), sub["J"], rtol=1e-13, atol=0.0)
        pushed = np.moveaxis(batch.dphi2, 3, 1) @ np.linalg.inv(F)
        assert np.allclose(np.moveaxis(sub["G"], 3, 1), pushed, atol=1e-12)
    # the fluid keeps neither F nor the Gram of its pushed gradients
    assert "F" in geo.solid and "F" not in geo.fluid and "gram" not in geo.fluid
    for batch, sub in ((prob.fluid, geo.fluid), (prob.solid, geo.solid)):
        assert np.array_equal(sub["wJ"], batch.w * sub["J"])
    n, wJs = geo.iface["n"], geo.iface["wJs"]
    assert np.allclose(np.linalg.norm(n, axis=-1), 1.0, atol=1e-12)
    assert np.all(wJs > 0.0)
    # the slip tensor is P K^-1/2 P with the tangential projector P = I - n n
    P = np.eye(2) - np.einsum("fqa,fqb->fqab", n, n)
    assert np.allclose(np.einsum("fqab,fqb->fqa", P, n), 0.0, atol=1e-12)
    slip = P @ prob.params.K_inv_sqrt @ P
    assert np.allclose(geo.iface["slip"], slip, rtol=0.0, atol=1e-13 * np.abs(slip).max())
    assert set(geo.iface) == {"n", "wJs", "slip"}


def sheared_channel():
    """channel:4 and a displacement that shears and stretches every cell and
    facet differently."""
    prob = channel_problem(channel_mesh(4), benchmark_params(K=1e-5))
    u = interpolate(prob.spaces["u"], lambda X: np.stack(
        [0.04 * X[:, 1] + 0.002 * X[:, 0] * X[:, 1],
         0.01 * np.sin(X[:, 0] / 7.0) - 0.003 * X[:, 1]], axis=1))
    return prob, u


def test_every_facet_batch_gets_the_pushed_normal_and_area_weights():
    prob, u = sheared_channel()
    geo = build_geometry(prob, u)
    facets = {"iface": (prob.iface.fluid, geo.iface)}
    facets.update((m, (prob.natural[m], geo.loads[m])) for m in prob.natural)
    assert set(facets) == {"iface", GAMMA_F0, GAMMA_OUT}
    for tr, g in facets.values():
        F = np.eye(2) + grads_at_qp(tr.dphi2, tr.nodes_u, u, 2)
        assert np.abs(F[..., 0, 1]).max() > 0.03          # sheared
        n, Js = pushforward_normal(F, tr.nref[:, None, :])
        assert np.array_equal(g["n"], n) and np.array_equal(g["wJs"], tr.w * Js)
        # Nanson: Js n = J F^-T n_ref
        nanson = np.linalg.det(F)[..., None] * np.einsum(
            "fqba,fb->fqa", np.linalg.inv(F), tr.nref)
        assert np.allclose(Js[..., None] * n, nanson, rtol=0.0, atol=1e-13)
    assert all(set(g) == {"n", "wJs"} for g in geo.loads.values())


def test_viscous_operator_is_two_D_colon_D():
    # visc[i,a,j,b] = sum_q w J 2 D(phi_i e_a) : D(phi_j e_b), D(v) = {grad v F^-1}_s
    prob, u = sheared_channel()
    geo = build_geometry(prob, u)
    G = geo.fluid["G"]                                         # (nc, n, d, nq)
    D = 0.5 * (np.einsum("ac,xibq->xiacbq", np.eye(2), G)
               + np.einsum("bc,xiaq->xicabq", np.eye(2), G))    # D[x,i,c, a,b, q]
    want = 2.0 * np.einsum("xq,xicabq,xjeabq->xicje", geo.fluid["wJ"], D, D)
    got = geo.fluid["visc"]
    assert got.shape == want.shape
    assert np.allclose(got, want, rtol=0.0, atol=1e-13 * np.abs(want).max())


def test_every_batch_goes_through_batch_deformation(monkeypatch):
    import fpsi.assembly as assembly

    prob, u = sheared_channel()
    seen = []
    real = assembly.batch_deformation

    def counting(batch, disp):
        seen.append(batch)
        return real(batch, disp)

    monkeypatch.setattr(assembly, "batch_deformation", counting)
    build_geometry(prob, u)
    # fluid, solid, the interface's fluid trace, the inlet and the outlet
    want = [prob.fluid, prob.solid, prob.iface.fluid, *prob.natural.values()]
    assert len(seen) == 5 and all(a is b for a, b in zip(seen, want))


def test_every_batch_takes_its_vector_dofs_from_its_space():
    prob = channel_problem(channel_mesh(4), benchmark_params(K=1e-5))
    vf, vs = prob.spaces["v_f"], prob.spaces["v_s"]
    batches = [(prob.fluid, vf), (prob.solid, vs), (prob.iface.fluid, vf), (prob.iface.solid, vs)]
    batches += [(tr, vf) for tr in prob.natural.values()]
    assert len(batches) == 6
    for batch, space in batches:
        assert batch.vdofs.shape == (len(batch.cells), 2 * batch.nodes2.shape[1])
        assert np.array_equal(batch.vdofs, space.dofs_of_nodes(batch.nodes2))


def test_geometry_rejects_degenerate_displacement():
    prob = mixed_problem()
    flip = interpolate(prob.spaces["u"], lambda X: np.stack(
        [-2.0 * X[:, 0], np.zeros(X.shape[0])], axis=1))   # F = diag(-1, 1)
    with pytest.raises(DegenerateDeformationError):
        build_geometry(prob, flip)


def test_solid_less_problem_assembles_in_the_given_geometry():
    # a solid-less problem never moves its mesh, yet it assembles in the
    # geometry its inputs carry, whatever configuration that is
    prob = make_problem(one_triangle_mesh(FLUID))
    A_ref = assemble_system(prob, steady(prob))
    A_0 = assemble_system(prob, steady(prob, lambda X: np.zeros_like(X)))
    A_w = assemble_system(prob, steady(prob, wavy))
    assert np.array_equal(A_ref.A.toarray(), A_0.A.toarray())
    assert not np.array_equal(A_0.A.toarray(), A_w.A.toarray())
    A_again = assemble_system(prob, steady(prob, wavy))
    assert np.array_equal(A_again.A.toarray(), A_w.A.toarray())


def test_negative_p_ext_loads_with_the_opposite_sign():
    mesh, dt = channel_mesh(2), 1e-4
    systems = []
    for p_ext in (1.333e3, -1.333e3):
        prob = channel_problem(mesh, benchmark_params(K=1e-5), p_ext=p_ext)
        # the first step from rest lies inside the pulse: b is the load alone
        inp = step_inputs(prob, State.initial(prob), BDF1, dt)
        systems.append(assemble_system(prob, inp))
    plus, minus = systems
    assert np.any(plus.b != 0.0)
    assert np.array_equal(minus.b, -plus.b)
    assert np.array_equal(minus.A.data, plus.A.data)


def test_quadrature_batches_match_per_entity_loop():
    mesh = channel_mesh(4)
    q = QUAD_DEGREE
    prob = channel_problem(mesh, benchmark_params(K=1e-5))

    def affine(c):
        cv = mesh.vertices[mesh.cells[c]]
        B = (cv[1:] - cv[0]).T
        return cv[0], B, np.linalg.inv(B)

    rule = simplex_quadrature(2, q)
    v2, g2hat = eval_basis(2, 2, rule.points)
    for sub in (prob.fluid, prob.solid):
        assert sub.val2.shape == v2.shape and sub.val1.shape == (len(rule.weights), 3)
        assert np.array_equal(sub.val2, v2)
        for c, X, grad in zip(sub.cells, sub.X, np.moveaxis(sub.dphi2, 3, 1)):
            x0, B, Binv = affine(c)
            assert np.allclose(X, x0 + rule.points @ B.T, rtol=0.0, atol=1e-13)
            assert np.allclose(grad, g2hat @ Binv, rtol=0.0, atol=1e-13)

    iface = extract_interface(mesh)
    facet_sets = {"iface": (iface.vertices, prob.iface.fluid)}
    for m in (GAMMA_F0, GAMMA_OUT):
        facet_sets[m] = (mesh.facets[mesh.facets_with_marker(m)], prob.natural[m])
    # open-boundary normals point out of the channel: -x at the inlet, +x at the outlet
    assert prob.open_markers == (GAMMA_F0, GAMMA_OUT)
    assert np.allclose(prob.natural[GAMMA_F0].nref, [-1.0, 0.0], rtol=0.0, atol=1e-15)
    assert np.allclose(prob.natural[GAMMA_OUT].nref, [1.0, 0.0], rtol=0.0, atol=1e-15)
    # each interface trace's normal points out of its own cells; the fluid lies
    # between the two interface lines, so the normal out of it has the sign of y
    y = mesh.vertices[iface.vertices][:, :, 1].mean(axis=1)
    assert np.array_equal(np.sign(prob.iface.fluid.nref[:, 1]), np.sign(y))
    assert np.array_equal(prob.iface.solid.nref, -prob.iface.fluid.nref)
    frule = simplex_quadrature(1, q)
    v_f, p_f = prob.spaces["v_f"], prob.spaces["p_f"]
    for name, (fverts, tr) in facet_sets.items():
        assert tr.val2.shape[2] == 3 and tr.val1.shape[2] == 2
        assert len(tr.cells) == len(fverts) > 0
        for f, (a, b) in enumerate(fverts):
            x0, B, Binv = affine(tr.cells[f])
            pa, pb = mesh.vertices[a], mesh.vertices[b]
            # the facet's own nodes: its vertices in its order, then its midpoint
            assert np.array_equal(v_f.node_coords[tr.nodes2[f]], [pa, pb, (pa + pb) / 2.0])
            assert np.array_equal(p_f.node_coords[tr.nodes1[f]], [pa, pb])
            cell = v_f.cell_nodes[np.searchsorted(v_f.cells, tr.cells[f])].tolist()
            own = [cell.index(node) for node in tr.nodes2[f]]
            for k, s in enumerate(frule.points[:, 0]):
                x = pa + s * (pb - pa)
                xi = np.clip(Binv @ (x - x0), 0.0, 1.0)
                vals, grads = eval_basis(2, 2, xi[None])
                assert np.allclose(tr.X[f, k], x, rtol=0.0, atol=1e-13), name
                assert np.allclose(tr.val2[f, k], vals[0, own], rtol=0.0, atol=1e-13), name
                assert np.allclose(tr.dphi2[f, :, :, k], grads[0] @ Binv, rtol=0.0, atol=1e-13), \
                    name


def jittered(mesh, scale, seed=3):
    """The mesh with every vertex moved by up to `scale` times the shortest
    edge in each coordinate: no facet is axis-aligned any more."""
    ends = mesh.vertices[mesh.edge_table.edges]
    h = np.linalg.norm(ends[:, 1] - ends[:, 0], axis=1).min()
    move = scale * h * np.random.default_rng(seed).uniform(-1.0, 1.0, mesh.vertices.shape)
    return validate_mesh(Mesh(mesh.vertices + move, mesh.cells, mesh.cell_tags,
                              mesh.facets, mesh.facet_markers))


@pytest.mark.parametrize("scale,tol", [(0.0, 0.0), (0.2, 1e-14)])
def test_facet_batches_drop_only_nodes_without_a_trace(scale, tol):
    # A facet batch keeps the cell's 3 P2 and 2 P1 nodes on the facet.  The
    # others vanish there for any geometry: exactly on the channel's
    # axis-aligned facets, and to the roundoff of mapping coordinates up to
    # 50 onto cells about 1 wide on a jittered copy (4.5e-15 measured).
    mesh = channel_mesh(4)
    if scale:
        mesh = jittered(mesh, scale)
    prob = channel_problem(mesh, benchmark_params(K=1e-5))
    sides = {"fluid": (prob.iface.fluid, "v_f", "p_f"), "solid": (prob.iface.solid, "v_s", "p_d")}
    sides.update((m, (tr, "v_f", "p_f")) for m, tr in prob.natural.items())
    for name, (tr, f2, f1) in sides.items():
        x0, _, _, Binv = cell_geometry(mesh, tr.cells)
        xi = np.clip((tr.X - x0[:, None, :]) @ np.swapaxes(Binv, 1, 2), 0.0, 1.0)
        for space, kept, degree in ((prob.spaces[f2], tr.nodes2, 2), (prob.spaces[f1], tr.nodes1, 1)):
            cell = space.cell_nodes[np.searchsorted(space.cells, tr.cells)]
            full = eval_basis(2, degree, xi.reshape(-1, 2))[0].reshape(xi.shape[:2] + (-1,))
            on = (cell[:, :, None] == kept[:, None, :]).any(axis=2)        # (nb, n)
            assert on.sum(axis=1).tolist() == [kept.shape[1]] * len(cell)
            assert np.abs(full.transpose(0, 2, 1)[~on]).max() <= tol, name


# ---------------------------------------------------------------------------
# mass form closed values and coefficient structure
# ---------------------------------------------------------------------------

REF_TRI = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])


def reference_solid_problem(params):
    from fpsi.mesh import Mesh, validate_mesh
    mesh = validate_mesh(Mesh(
        REF_TRI.copy(), np.array([[0, 1, 2]], dtype=np.int64),
        np.array([SOLID], dtype=np.int64),
        np.array([[0, 1], [1, 2], [2, 0]], dtype=np.int64),
        np.full(3, GAMMA_S0, dtype=np.int64)))
    return build_problem(mesh, params, pin_pf=None)


def mass_difference(prob, dt=1.0, a0=1.0):
    tr = StepInputs(t=0.0, dt=dt, a0=a0,
                    geo=build_geometry(prob, np.zeros(prob.spaces["u"].num_dofs)),
                    u_impl_hist=np.zeros(prob.spaces["u"].num_dofs))
    A_tr = assemble_system(prob, tr)
    A_st = assemble_system(prob, StepInputs.steady(prob))
    return A_tr.A - A_st.A, A_tr.layout


def test_p1_mass_matrix_closed_form():
    # s0 * (a0/dt) * P1 mass on the reference triangle, J = 1
    prm = MaterialParams(rho_f=1.0, rho_s=1.0, mu_f=1.0, lam_s=1.0, mu_s=1.0,
                         phi=0.5, s0=1.0, K=1.0)
    prob = reference_solid_problem(prm)
    D, lay = mass_difference(prob)
    M = D[lay.slice_of("p_d"), lay.slice_of("p_d")].toarray()
    exact = np.array([[2, 1, 1], [1, 2, 1], [1, 1, 2]]) / 24.0
    assert np.allclose(M, exact, atol=1e-14)


def test_mass_coefficient_structure():
    # block weights rho_p, rho_f, rho_f/phi, s0 scale as stated
    def blocks(phi, s0):
        prm = MaterialParams(rho_f=1.1, rho_s=2.0, mu_f=1.0, lam_s=1.0,
                             mu_s=1.0, phi=phi, s0=s0, K=1.0)
        prob = reference_solid_problem(prm)
        D, lay = mass_difference(prob)
        pick = lambda r, c: D[lay.slice_of(r), lay.slice_of(c)].toarray()
        return prm, pick

    prm, pick = blocks(0.5, 0.8)
    Mv = pick("v_s", "q") / prm.rho_f            # plain vector mass
    assert np.allclose(pick("q", "v_s"), prm.rho_f * Mv, atol=1e-14)
    assert np.allclose(pick("v_s", "v_s"), prm.rho_p * Mv, atol=1e-13)
    assert np.allclose(pick("q", "q"), prm.rho_f / prm.phi * Mv, atol=1e-13)

    _, pick_b = blocks(0.25, 0.4)
    assert np.allclose(pick_b("q", "q"), prm.rho_f / 0.25 * Mv, atol=1e-13)
    assert np.allclose(pick_b("p_d", "p_d"), 0.5 * pick("p_d", "p_d"), atol=1e-14)


def test_fluid_mass_scales_with_density_and_dt():
    prob = make_problem(one_triangle_mesh(FLUID))
    D1, lay = mass_difference(prob, dt=1.0)
    D2, _ = mass_difference(prob, dt=0.25)
    b1 = D1[lay.slice_of("v_f"), lay.slice_of("v_f")].toarray()
    b2 = D2[lay.slice_of("v_f"), lay.slice_of("v_f")].toarray()
    assert np.allclose(b2, 4.0 * b1, atol=1e-12)
    assert np.allclose(b1, b1.T, atol=1e-14)


# ---------------------------------------------------------------------------
# elastic and darcy element values
# ---------------------------------------------------------------------------

def test_elastic_rigid_translation_is_zero():
    prob = make_problem(one_triangle_mesh(SOLID))
    sysm = assemble_system(prob, steady(prob, wavy))
    lay = sysm.layout
    A = sysm.A[lay.slice_of("v_s"), lay.slice_of("v_s")]
    y = const_field(prob.spaces["v_s"], [0.7, -0.3])
    assert np.max(np.abs(A @ y)) < 1e-13


def test_elastic_patch_value():
    # lam = 0, mu = 1, u~ = 0, trial/test u = (x, 0): the linearized strain is
    # half of eps(u), so the form value is area * S(eps/2):grad(u) = area
    prm = MaterialParams(rho_f=1.0, rho_s=1.0, mu_f=1.0, lam_s=0.0, mu_s=1.0,
                         phi=0.5, s0=1.0, K=1.0)
    prob = reference_solid_problem(prm)
    sysm = assemble_system(prob, StepInputs.steady(prob))
    lay = sysm.layout
    A = sysm.A[lay.slice_of("v_s"), lay.slice_of("v_s")]
    y = interpolate(prob.spaces["v_s"], lambda X: np.stack(
        [X[:, 0], np.zeros(X.shape[0])], axis=1))
    assert float(y @ (A @ y)) == pytest.approx(0.5, abs=1e-13)


def test_darcy_block_structure():
    def qq_block(K):
        prm = MaterialParams(rho_f=1.0, rho_s=1.0, mu_f=1.0, lam_s=1.0,
                             mu_s=1.0, phi=0.5, s0=1.0, K=K)
        prob = reference_solid_problem(prm)
        sysm = assemble_system(prob, StepInputs.steady(prob))
        lay = sysm.layout
        return sysm.A[lay.slice_of("q"), lay.slice_of("q")].toarray()

    A1 = qq_block(1.0)
    assert np.allclose(qq_block(4.0), A1 / 4.0, atol=1e-14)
    Ad = qq_block(np.diag([2.0, 5.0]))
    assert np.allclose(Ad[0::2, 0::2], A1[0::2, 0::2] / 2.0, atol=1e-14)
    assert np.allclose(Ad[1::2, 1::2], A1[1::2, 1::2] / 5.0, atol=1e-14)
    assert np.max(np.abs(Ad[0::2, 1::2])) == 0.0
    # x/y sub-blocks of the isotropic case are the scalar P2 mass
    assert np.allclose(A1[0::2, 0::2], A1[1::2, 1::2], atol=1e-14)


# ---------------------------------------------------------------------------
# symmetry, PSD, transpose structure
# ---------------------------------------------------------------------------

def test_viscous_and_darcy_blocks_symmetric():
    prob = mixed_problem()
    sysm = assemble_system(prob, steady(prob, wavy))
    lay = sysm.layout
    for name in ("v_f", "q"):
        A = sysm.A[lay.slice_of(name), lay.slice_of(name)].toarray()
        assert np.max(np.abs(A - A.T)) < 1e-12


def test_viscous_constant_field_in_kernel():
    prob = make_problem(one_triangle_mesh(FLUID))
    sysm = assemble_system(prob, steady(prob, wavy))
    lay = sysm.layout
    A = sysm.A[lay.slice_of("v_f"), lay.slice_of("v_f")]
    y = const_field(prob.spaces["v_f"], [1.0, -2.0])
    assert np.max(np.abs(A @ y)) < 1e-13


def test_penalty_block_symmetric_psd():
    prob_t = mixed_problem(penalty_const=3.0)
    prob_0 = mixed_problem(penalty_const=0.0)
    inp = steady(prob_t, wavy)
    A_t = assemble_system(prob_t, inp)
    A_0 = assemble_system(prob_0, inp)
    D = (A_t.A - A_0.A).toarray()
    assert np.max(np.abs(D - D.T)) < 1e-12
    assert np.linalg.eigvalsh(0.5 * (D + D.T)).min() >= -1e-10


def test_pressure_constraint_transpose_relation():
    prob = mixed_problem()
    sysm = assemble_system(prob, steady(prob, wavy))
    lay = sysm.layout
    # volume parts only: compare on the fluid pair and solid pairs with the
    # interface coupling removed via a fluid-only / solid-only rebuild
    for mesh, v, p in ((one_triangle_mesh(FLUID), "v_f", "p_f"),
                       (one_triangle_mesh(SOLID), "v_s", "p_d"),
                       (one_triangle_mesh(SOLID), "q", "p_d")):
        pr = make_problem(mesh)
        sm = assemble_system(pr, steady(pr, wavy))
        ly = sm.layout
        B = sm.A[ly.slice_of(p), ly.slice_of(v)].toarray()
        BT = sm.A[ly.slice_of(v), ly.slice_of(p)].toarray()
        assert np.max(np.abs(B + BT.T)) < 1e-12


def test_pressure_div_closed_form():
    # u~ = 0: b(q, psi) = int q div(psi); q = 1, psi = (x, 0) -> cell area
    prob = make_problem(one_triangle_mesh(FLUID))
    sysm = assemble_system(prob, StepInputs.steady(prob))
    lay = sysm.layout
    B = sysm.A[lay.slice_of("p_f"), lay.slice_of("v_f")]
    one = np.ones(prob.spaces["p_f"].num_dofs)
    psi = interpolate(prob.spaces["v_f"], lambda X: np.stack(
        [X[:, 0], np.zeros(X.shape[0])], axis=1))
    area = cell_geometry(prob.mesh, np.array([0]))[2][0] / 2.0     # |det B| / 2
    assert float(one @ (B @ psi)) == pytest.approx(area, abs=1e-13)
    const = const_field(prob.spaces["v_f"], [0.4, 0.9])
    assert np.max(np.abs(B @ const)) < 1e-14


# ---------------------------------------------------------------------------
# interface closed forms on the unit-square diagonal (F = I)
# ---------------------------------------------------------------------------

SQRT2 = np.sqrt(2.0)


def packed(prob, lay, **fields):
    x = np.zeros(lay.total)
    for name, vec in fields.items():
        x[lay.slice_of(name)] = const_field(prob.spaces[name], vec) \
            if np.ndim(vec) else np.full(lay.sizes[name], vec)
    return x


def test_interface_penalty_closed_form_and_kernel():
    tau = 3.0
    prob_t = mixed_problem(penalty_const=tau)
    prob_0 = mixed_problem(penalty_const=0.0)
    inp = StepInputs.steady(prob_t)
    D = assemble_system(prob_t, inp).A - assemble_system(prob_0, inp).A
    lay = prob_t.layout
    # constant fields: value = tau * L * ((c_f - c_s - c_q).n)^2, n = (-1,1)/sqrt(2)
    x = packed(prob_t, lay, v_f=np.array([1.0, 0.0]))
    assert float(x @ (D @ x)) == pytest.approx(tau * SQRT2 * 0.5, abs=1e-12)
    # flux-continuous tuple w_f = w_s + w_d on the facet is in the kernel
    ws = np.array([0.3, 0.5])
    wd = np.array([-0.2, 0.4])
    xk = packed(prob_t, lay, v_f=ws + wd, v_s=ws, q=wd)
    assert np.max(np.abs(D @ xk)) < 1e-12


def test_interface_pressure_coupling_closed_form():
    prob = mixed_problem(penalty_const=0.0)
    sysm = assemble_system(prob, StepInputs.steady(prob))
    lay = sysm.layout
    xf = packed(prob, lay, v_f=np.array([1.0, 0.0]))
    yp = packed(prob, lay, p_d=1.0)
    # int_G (x_f . n) p = L * (-1/sqrt(2)) = -1
    assert float(xf @ (sysm.A @ yp)) == pytest.approx(-1.0, abs=1e-12)


def test_interface_kinetic_closed_form():
    prob = mixed_problem(penalty_const=0.0)
    vt = const_field(prob.spaces["v_f"], [0.0, 2.0])
    zero = np.zeros_like(vt)
    kw = dict(t=0.0, dt=0.5, a0=1.0,
              geo=build_geometry(prob, np.zeros(prob.spaces["u"].num_dofs)),
              u_impl_hist=np.zeros(prob.spaces["u"].num_dofs))
    D = assemble_system(prob, StepInputs(vf_tilde=vt, **kw)).A \
        - assemble_system(prob, StepInputs(vf_tilde=zero, **kw)).A
    lay = prob.layout
    xs = packed(prob, lay, v_s=np.array([0.0, 1.0]))
    yf = packed(prob, lay, v_f=np.array([1.0, 1.0]))
    # (rho_f/2) * L * (x_s.n) * (y_f.v~) = (rho_f/2) * sqrt(2) * (1/sqrt(2)) * 2
    assert float(xs @ (D @ yf)) == pytest.approx(PARAMS.rho_f, abs=1e-12)


def test_interface_slip_closed_form_and_kernel():
    base = dict(rho_f=1.0, rho_s=1.0, mu_f=1.0, lam_s=1.0, mu_s=1.0,
                phi=0.5, s0=1.0, K=4.0)
    prm_g = MaterialParams(gamma=1.3, **base)
    prm_0 = MaterialParams(gamma=0.0, **base)
    prob_g = mixed_problem(params=prm_g, penalty_const=0.0)
    prob_0 = mixed_problem(params=prm_0, penalty_const=0.0)
    inp = StepInputs.steady(prob_g)
    D = assemble_system(prob_g, inp).A - assemble_system(prob_0, inp).A
    lay = prob_g.layout
    # K^-1/2 = I/2, P projects onto the diagonal direction (1,1)/sqrt(2):
    # P(1,0) = (1/2, 1/2), so (P x).K^-1/2 (P x) = |P x|^2 / 2 = 1/4
    x = packed(prob_g, lay, v_f=np.array([1.0, 0.0]))
    assert float(x @ (D @ x)) == pytest.approx(1.3 * SQRT2 * 0.25, abs=1e-12)
    # equal tangential velocities are in the kernel
    xk = packed(prob_g, lay, v_f=np.array([0.6, -0.2]), v_s=np.array([0.6, -0.2]))
    assert np.max(np.abs(D @ xk)) < 1e-12


# ---------------------------------------------------------------------------
# whole-system properties
# ---------------------------------------------------------------------------

def zero_bc(field, markers):
    return DirichletBC(field, markers, lambda X, t: np.zeros_like(X))


def test_rest_state_system():
    # the pinned p_f dof keeps the all-Dirichlet fluid pressure nonsingular
    prob = mixed_problem(
        pin_pf=(0, lambda t: 0.0),
        dirichlet=[zero_bc("v_f", (GAMMA_F0,)), zero_bc("v_s", (GAMMA_S0,)),
                   DirichletBC("p_d", (GAMMA_S0,), lambda X, t: np.zeros(len(X)))])
    nu = prob.spaces["u"].num_dofs
    inp = StepInputs(t=0.0, dt=0.1, a0=1.0,
                     geo=build_geometry(prob, np.zeros(nu)), u_impl_hist=np.zeros(nu),
                     vf_tilde=np.zeros(prob.spaces["v_f"].num_dofs))
    sysm = assemble_system(prob, inp)
    assert np.max(np.abs(sysm.b)) == 0.0
    x = spsolve(sysm.A.tocsc(), sysm.b)
    assert np.max(np.abs(x)) < 1e-14


def test_layout_and_dirichlet_rows():
    prob = mixed_problem(dirichlet=[DirichletBC(
        "v_f", (GAMMA_F0,), lambda X, t: np.stack([X[:, 1], 0 * X[:, 0]], axis=1))])
    lay = prob.layout
    assert lay.total == sum(prob.spaces[n].num_dofs for n in lay.names)
    assert lay.names == ("v_f", "v_s", "q", "p_f", "p_d")
    sysm = assemble_system(prob, steady(prob, wavy))
    space = prob.spaces["v_f"]
    nodes = space.nodes_on_markers((GAMMA_F0,))
    dofs = space.dofs_of_nodes(nodes) + lay.offsets["v_f"]
    for dof, node in zip(dofs[0::2], nodes):       # x components
        row = sysm.A[int(dof)].toarray().ravel()
        assert row[int(dof)] == 1.0
        assert np.count_nonzero(row) == 1
        assert sysm.b[int(dof)] == pytest.approx(space.node_coords[node][1])


def test_assembly_error_paths():
    fluid_mesh = one_triangle_mesh(FLUID)
    flat = one_triangle_mesh(FLUID)
    flat.vertices = np.column_stack([flat.vertices, np.zeros(3)])
    with pytest.raises(AssemblyError, match="assembly is implemented for 2D meshes only"):
        make_problem(flat)
    # refused when the problem is built, not at its first assembly
    with pytest.raises(AssemblyError, match="Dirichlet condition on absent field 'v_s'"):
        make_problem(fluid_mesh, dirichlet=[zero_bc("v_s", (GAMMA_S0,))])
    with pytest.raises(AssemblyError, match="pinned pressure node 0 is not a node of p_f"):
        make_problem(one_triangle_mesh(SOLID), pin_pf=(0, lambda t: 0.0))
    # one past the last of the 3 p_f nodes would pin the first dof of the next field
    with pytest.raises(AssemblyError, match="pinned pressure node 3 is not a node of p_f"):
        make_problem(fluid_mesh, pin_pf=(3, lambda t: 0.0))
    with pytest.raises(AssemblyError, match="without fluid cells"):
        make_problem(one_triangle_mesh(SOLID),
                     loads=[PressureLoad(GAMMA_S0, lambda t: 1.0)])
    with pytest.raises(AssemblyError, match="open boundary marker GAMMA_FS has no facets"):
        make_problem(fluid_mesh, open_markers=(GAMMA_FS,))
    # a fluid mass source has no form: refused, not dropped
    with pytest.raises(AssemblyError, match=r"no form reads the forcing term\(s\) mass_f$"):
        make_problem(fluid_mesh, forcing={"mass_f": lambda X, t: np.zeros(len(X))})


def test_stokes_pressure_nullspace():
    # reference geometry, velocity Dirichlet everywhere: the only singular
    # mode is the constant pressure, and pinning one DOF removes it
    def nullity(pin):
        prob = build_problem(unit_square_mesh(2), PARAMS,
                             dirichlet=[zero_bc("v_f", (GAMMA_F0,))], pin_pf=pin)
        sysm = assemble_system(prob, StepInputs.steady(prob))
        s = np.linalg.svd(sysm.A.toarray(), compute_uv=False)
        return int(np.sum(s < 1e-10 * s.max()))

    assert nullity(None) == 1
    assert nullity((0, lambda t: 0.0)) == 0


def test_sparsity_pattern():
    mesh = channel_mesh(2)
    prob = build_problem(mesh, PARAMS)
    sysm = assemble_system(prob, steady(prob, wavy, vf_tilde=np.zeros(
        prob.spaces["v_f"].num_dofs)))
    lay = sysm.layout

    def cell_dofs(sub, fields):
        v, p = fields
        per = [sub.vdofs + lay.offsets[name] for name in v]
        per.append(sub.nodes1 + lay.offsets[p])
        return np.hstack(per)

    allowed = [set() for _ in range(lay.total)]
    groups = []
    if prob.fluid is not None:
        groups.append(cell_dofs(prob.fluid, (("v_f",), "p_f")))
    if prob.solid is not None:
        groups.append(cell_dofs(prob.solid, (("v_s", "q"), "p_d")))
    if prob.iface is not None:
        fl = cell_dofs(prob.iface.fluid, (("v_f",), "p_f"))
        so = cell_dofs(prob.iface.solid, (("v_s", "q"), "p_d"))
        groups.append(np.hstack([fl, so]))
    for grp in groups:
        for row in grp:
            s = set(int(i) for i in row)
            for i in s:
                allowed[i] |= s
    rows, cols = sysm.A.nonzero()
    for i, j in zip(rows, cols):
        assert int(j) in allowed[int(i)] or i == j


def test_assembly_is_deterministic():
    prob = build_problem(channel_mesh(2), PARAMS)
    inp = steady(prob, wavy)
    A1 = assemble_system(prob, inp)
    A2 = assemble_system(prob, inp)
    assert np.array_equal(A1.A.indptr, A2.A.indptr)
    assert np.array_equal(A1.A.indices, A2.A.indices)
    assert np.array_equal(A1.A.data, A2.A.data)
    assert np.array_equal(A1.b, A2.b)


def test_matrix_dump(tmp_path):
    prob = make_problem(one_triangle_mesh(FLUID))
    path = tmp_path / "A.mtx"
    write_matrix(str(path), assemble_system(prob, StepInputs.steady(prob)).A)
    text = path.read_text()
    assert "MatrixMarket" in text.splitlines()[0]


def test_matrix_dump_at_an_extensionless_path(tmp_path):
    # written through a handle: the file has exactly the given name
    prob = make_problem(one_triangle_mesh(FLUID))
    write_matrix(str(tmp_path / "A"), assemble_system(prob, StepInputs.steady(prob)).A)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["A"]
    assert "MatrixMarket" in (tmp_path / "A").read_text().splitlines()[0]
