"""Quadrature-point kernels against their plain einsum / matmul definitions.

Every kernel that assembly, geometry, the mesh extension and the energy
monitor run per step is checked on random batches, including broadcast
shapes and the per-entry tables of facet batches, to 1e-14 of the largest
entry.  The element blocks that the forms build from these kernels are
checked the same way against the per-point definitions of the forms.
"""

from dataclasses import replace

import numpy as np
import pytest
from scipy import sparse

from fpsi import assembly
from fpsi.fem import (component_trace, gradient_gram, gradient_moment, grads_at_qp, transposed,
                      weighted_gram, weighted_moment)
from fpsi.kinematics import (deformation_state, fluid_rate_of_strain, green_lagrange,
                             matmul2, matvec2, pushforward_normal, svk_stress, tensor2)
from fpsi.scenarios import State, benchmark_params, channel_mesh, channel_problem
from fpsi.spaces import interpolate
from fpsi.stepping import BDF2, extension_stiffness, step_inputs

TOL = 1e-14
RNG = np.random.default_rng(20211)
NB, NQ, N, D = 5, 7, 6, 2


def close(got, want, tol=TOL):
    got, want = np.broadcast_arrays(np.asarray(got, dtype=float), np.asarray(want, dtype=float))
    scale = max(np.abs(want).max(), 1e-300)
    return np.abs(got - want).max() <= tol * scale


def rand(*shape):
    return RNG.standard_normal(shape)


def near_identity(*shape):
    return np.eye(2) + 0.3 * rand(*shape, 2, 2)


# ---------------------------------------------------------------------------
# 2x2 algebra at quadrature points
# ---------------------------------------------------------------------------

def test_tensor2_stores_each_component_as_one_block():
    comps = [rand(NB, NQ) for _ in range(4)]
    T = tensor2(*comps)
    assert T.shape == (NB, NQ, 2, 2)
    for (a, b), c in zip(((0, 0), (0, 1), (1, 0), (1, 1)), comps):
        assert np.array_equal(T[..., a, b], c) and T[..., a, b].flags.c_contiguous
    assert np.array_equal(tensor2(1.0, 2.0, 3.0, 4.0), [[1.0, 2.0], [3.0, 4.0]])


@pytest.mark.parametrize("sa,sb", [((NB, NQ), (NB, NQ)), ((NB, NQ), ()), ((), (NB, NQ)),
                                   ((NB, 1), (NB, NQ)), ((), ())])
def test_matmul2_and_matvec2(sa, sb):
    A, B, x = rand(*sa, 2, 2), rand(*sb, 2, 2), rand(*sb, 2)
    assert close(matmul2(A, B), A @ B)
    assert close(matvec2(A, x), (A @ x[..., None])[..., 0])


def test_deformation_state():
    grad = 0.3 * rand(NB, NQ, 2, 2)
    F, J, Finv, FinvT = deformation_state(grad)
    assert close(F, np.eye(2) + grad)
    assert close(J, np.linalg.det(np.eye(2) + grad))
    assert close(Finv, np.linalg.inv(np.eye(2) + grad))
    assert close(FinvT, np.swapaxes(np.linalg.inv(np.eye(2) + grad), -1, -2))


@pytest.mark.parametrize("s1,s2", [((NB, NQ), (NB, NQ)), ((), (NB, NQ)), ((NB, 1), (NB, NQ))])
def test_green_lagrange_and_svk_stress(s1, s2):
    F1, F2 = near_identity(*s1), near_identity(*s2)
    M = np.einsum("...ka,...kb->...ab", F1, F2)
    E_want = 0.25 * (M + np.swapaxes(M, -1, -2)) - 0.5 * np.eye(2)
    E = green_lagrange(F1, F2)
    assert close(E, E_want)
    lam, mu = 2.5, 0.7
    S_want = lam * np.trace(E_want, axis1=-2, axis2=-1)[..., None, None] * np.eye(2) \
        + 2.0 * mu * E_want
    assert close(svk_stress(E, lam, mu), S_want)
    assert close(matmul2(F2, svk_stress(E, lam, mu)), F2 @ S_want)


def test_fluid_rate_of_strain():
    grad_v, Finv = rand(NB, NQ, 2, 2), np.linalg.inv(near_identity(NB, NQ))
    M = grad_v @ Finv
    assert close(fluid_rate_of_strain(grad_v, Finv), 0.5 * (M + np.swapaxes(M, -1, -2)))


@pytest.mark.parametrize("nshape", [(NB, 1), (NB, NQ), ()])
def test_pushforward_normal(nshape):
    F = near_identity(NB, NQ)
    n_ref = rand(*nshape, 2)
    n_ref /= np.linalg.norm(n_ref, axis=-1, keepdims=True)
    n_b = np.broadcast_to(n_ref, (NB, NQ, 2))
    v = (np.swapaxes(np.linalg.inv(F), -1, -2) @ n_b[..., None])[..., 0]
    mag = np.linalg.norm(v, axis=-1)
    n, Js = pushforward_normal(F, n_ref)
    assert close(n, v / mag[..., None]) and close(Js, np.linalg.det(F) * mag)


# ---------------------------------------------------------------------------
# gradients in product layout (nb, n, d, nq)
# ---------------------------------------------------------------------------

def test_grads_at_qp():
    grad = rand(NB, N, D, NQ)
    nodes = RNG.integers(0, 20, size=(NB, N))
    vec = rand(20 * D)
    want = np.einsum("bim,bieq->bqme", vec.reshape(-1, D)[nodes], grad)
    assert close(grads_at_qp(grad, nodes, vec, D), want)


@pytest.mark.parametrize("stored", ["deformation_state", "plain"])
def test_pushed_gradients_match_the_per_point_product(stored):
    # G = grad(phi) F^-1 and h = grad(phi) F~^T, as the geometry and the
    # elastic block contract them, against one (n x d)(d x d) product per point
    grad = rand(NB, N, D, NQ)
    if stored == "deformation_state":        # F, F^-1 stored as `tensor2` stores them
        F, _, Finv, _ = deformation_state(0.3 * rand(NB, NQ, D, D))
    else:
        F = near_identity(NB, NQ)
        Finv = np.linalg.inv(F)
    G = np.einsum("bieq,bqek->bikq", grad, Finv)
    assert close(G, np.moveaxis(np.moveaxis(grad, 3, 1) @ Finv, 1, 3))
    h = np.einsum("bieq,bqke->bikq", grad, F)
    assert close(h, np.moveaxis(np.moveaxis(grad, 3, 1) @ np.swapaxes(F, -1, -2), 1, 3))


@pytest.mark.parametrize("nb", [1, NB])
@pytest.mark.parametrize("per_entry_A", [False, True])
@pytest.mark.parametrize("shared_grad", [False, True])
def test_push_gradients(nb, per_entry_A, shared_grad):
    # the geometry's two contractions, grad(phi) A and grad(phi) A^T, on
    # broadcast operands: a shared (stride-0) gradient table, one tensor per
    # entry, and a batch of a single entry
    grad = np.broadcast_to(rand(N, D, NQ), (nb, N, D, NQ)) if shared_grad else rand(nb, N, D, NQ)
    A = rand(nb, 1, D, D) if per_entry_A else rand(nb, NQ, D, D)
    per_point = np.moveaxis(grad, 3, 1)                # (nb, nq, n, d)
    want = np.moveaxis(per_point @ A, 1, 3)
    assert close(np.einsum("bieq,bqek->bikq", grad, A), want)
    want_t = np.moveaxis(per_point @ np.swapaxes(A, -1, -2), 1, 3)
    assert close(np.einsum("bieq,bqke->bikq", grad, A), want_t)


def test_geometry_pushes_each_cell_batch_like_the_per_point_product():
    prob = channel_problem(channel_mesh(2), benchmark_params(K=1e-5))
    u = interpolate(prob.spaces["u"], lambda X: 0.05 * np.sin(X[:, ::-1]))
    for sub in (prob.fluid, prob.solid):
        geo = assembly.batch_deformation(sub, u)
        Finv = deformation_state(grads_at_qp(sub.dphi2, sub.nodes_u, u, D))[2]
        # in the product layout of dphi2, which the Grams and moments reshape
        assert geo["G"].flags.c_contiguous
        assert close(geo["G"], np.moveaxis(np.moveaxis(sub.dphi2, 3, 1) @ Finv, 1, 3))


def test_gradient_gram_and_moment():
    G, w, X = rand(NB, N, D, NQ), rand(NB, NQ), rand(NQ, 3)
    assert close(gradient_gram(w, G), np.einsum("bq,biaq,bjeq->biaje", w, G, G))
    assert close(gradient_moment(w, G, X),
                 np.einsum("bq,biaq,qj->biaj", w, G, X).reshape(NB, N * D, 3))


@pytest.mark.parametrize("axes", [(0, 1, 4, 3, 2), (0, 3, 1, 4, 2), (0, 1, 2, 3, 4)])
def test_transposed_and_component_trace(axes):
    P = rand(NB, N, D, N, D)
    assert close(component_trace(P), np.einsum("biaja->bij", P))
    got = transposed(P, axes)
    assert got.flags.c_contiguous and np.array_equal(got, P.transpose(axes))


@pytest.mark.parametrize("per_entry", [False, True])
def test_weighted_gram_and_moment_with_shared_and_per_entry_tables(per_entry):
    shape = (NB, NQ) if per_entry else (NQ,)
    X, Y, w, f = rand(*shape, N), rand(*shape, 3), rand(NB, NQ), rand(NB, NQ, D)
    Xb, Yb = np.broadcast_to(X, (NB, NQ, N)), np.broadcast_to(Y, (NB, NQ, 3))
    assert close(weighted_gram(w, X, Y), np.einsum("bq,bqi,bqj->bij", w, Xb, Yb))
    assert close(weighted_moment(w, X, f), np.einsum("bq,bqi,bqa->bia", w, Xb, f))


def test_facet_batch_gradients_in_product_layout():
    prob = channel_problem(channel_mesh(2), benchmark_params(K=1e-5))
    u = interpolate(prob.spaces["u"], lambda X: 0.05 * np.sin(X[:, ::-1]))
    for tr in (prob.iface.fluid, prob.iface.solid, *prob.natural.values()):
        assert tr.val2.ndim == 3 and tr.dphi2.shape[1:3] == (N, D)
        vloc = u.reshape(-1, D)[tr.nodes_u]
        want = np.einsum("bim,bqie->bqme", vloc, np.moveaxis(tr.dphi2, 3, 1))
        assert close(grads_at_qp(tr.dphi2, tr.nodes_u, u, D), want)


# ---------------------------------------------------------------------------
# element blocks of the forms, against their per-point definitions
# ---------------------------------------------------------------------------

def assembled_blocks(prob, inp):
    """The element blocks and right-hand side of one assembly, taken where
    the assembler hands them to the Dirichlet elimination (`apply_dirichlet`)
    and to the right-hand side's boundary values (`dirichlet_rhs`)."""
    captured = {}

    def capture_blocks(pattern, blocks):
        captured.update(blocks=blocks)
        return None, None

    def capture_b(pattern, lift, b, values):
        captured.update(b=b)
        raise StopIteration

    originals = assembly.apply_dirichlet, assembly.dirichlet_rhs
    assembly.apply_dirichlet, assembly.dirichlet_rhs = capture_blocks, capture_b
    try:
        with pytest.raises(StopIteration):
            assembly.assemble_system(prob, inp)
    finally:
        assembly.apply_dirichlet, assembly.dirichlet_rhs = originals
    return captured["blocks"], captured["b"]


def moving_step(K):
    """A BDF2 step from a deformed, moving state of channel:2 with
    permeability K, and the displacement of its geometry."""
    prob = channel_problem(channel_mesh(2), benchmark_params(K=K))
    state = State.initial(prob)
    for name in ("u", "w", "v_f", "v_s", "q"):
        space = prob.spaces["u" if name in ("u", "w") else name]
        state.fields[name] = interpolate(space, lambda X: 0.02 * np.stack(
            [np.sin(X[:, 1]), np.cos(X[:, 0] / 5.0)], axis=1))
        state.prev[name] = 0.5 * state.fields[name]
    return prob, step_inputs(prob, state, BDF2, 1e-4), state.fields["u"]


@pytest.fixture(scope="module")
def channel_step():
    return moving_step(1e-5)


def plain_geometry(batch, u):
    """F, J, the P2 gradients g and the pushed ones G = g F^-1 at the
    batch's points, each (nb, nq, ...), by matmul and np.linalg."""
    g = np.moveaxis(batch.dphi2, 3, 1)                                # (nb, nq, n, d)
    F = np.eye(2) + np.einsum("xim,xqie->xqme", u.reshape(-1, 2)[batch.nodes_u], g)
    return F, np.linalg.det(F), g @ np.linalg.inv(F), g


def test_fluid_blocks_match_their_definition(channel_step):
    prob, inp, u = channel_step
    sub, prm = prob.fluid, prob.params
    _, J, G, _ = plain_geometry(sub, u)
    wJ = sub.w * J

    def at_qp(vec, nodes):
        return np.einsum("qi,xia->xqa", sub.val2, vec.reshape(-1, 2)[nodes])

    adv = at_qp(inp.vf_tilde, sub.nodes2) - at_qp(inp.w_tilde, sub.nodes_u)
    visc = prm.mu_f * (np.einsum("xq,xqic,xqja->xiajc", wJ, G, G)
                       + np.einsum("xq,xqie,xqje,ac->xiajc", wJ, G, G, np.eye(2)))
    scalar = np.einsum("xq,qi,qj->xij", wJ * prm.rho_f * inp.a0 / inp.dt, sub.val2, sub.val2) \
        + np.einsum("xq,qi,xqje,xqe->xij", wJ * prm.rho_f, sub.val2, G, adv)
    want = visc + np.einsum("xij,ac->xiajc", scalar, np.eye(2))
    blocks, _ = assembled_blocks(prob, inp)
    nc = len(sub.cells)
    assert close(blocks[0][2], want.reshape(nc, 12, 12))
    B = np.einsum("xq,qj,xqia->xjia", wJ, sub.val1, G).reshape(nc, 3, 12)
    assert close(blocks[1][2], B) and close(blocks[2][2], -np.swapaxes(B, 1, 2))


def test_solid_blocks_match_their_definition(channel_step):
    prob, inp, u = channel_step
    sub, prm = prob.solid, prob.params
    Ft, J, G, g = plain_geometry(sub, u)
    nc = len(sub.cells)
    # strain of the unit trial field phi_j e_c linearized about u~,
    # 1/4 (M + M^T) with M_ab = g_j,a F~_c,b, tested against phi_i e_a
    M = np.einsum("xqja,xqcb->xqjcab", g, Ft)
    dE = 0.25 * (M + np.swapaxes(M, -1, -2))
    dS = prm.lam_s * np.trace(dE, axis1=-2, axis2=-1)[..., None, None] * np.eye(2) \
        + 2.0 * prm.mu_s * dE
    elastic = inp.beta * np.einsum("xq,xqak,xqjcke,xqie->xiajc", sub.w, Ft, dS, g)
    Ms = np.einsum("xq,qi,qj->xij", sub.w * J, sub.val2, sub.val2)
    mass = prm.rho_p * inp.a0 / inp.dt * np.einsum("xij,ac->xiajc", Ms, np.eye(2))
    blocks, _ = assembled_blocks(prob, inp)
    assert close(blocks[3][2], (elastic + mass).reshape(nc, 12, 12))
    B = np.einsum("xq,qj,xqia->xjia", sub.w * J, sub.val1, G).reshape(nc, 3, 12)
    assert close(blocks[8][2], B) and close(blocks[10][2], -np.swapaxes(B, 1, 2))


def summed(n, blocks):
    """The sparse n x n sum of element blocks (rows, cols, values)."""
    rows = [np.broadcast_to(r[:, :, None], v.shape).ravel() for r, _, v in blocks]
    cols = [np.broadcast_to(c[:, None, :], v.shape).ravel() for _, c, v in blocks]
    vals = [v.ravel() for *_, v in blocks]
    return sparse.coo_matrix((np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
                             shape=(n, n)).tocsr()


@pytest.mark.parametrize("K", [1e-5, np.array([[2.0, 0.3], [0.3, 1.0]]) * 1e-5])
def test_solid_mass_and_darcy_blocks_match_their_definition(K):
    # the (v_s, q), (q, v_s) and (q, q) blocks of the solid, scalar blocks on
    # one component each, summed against the full d x d element blocks
    # rho_f c Ms (x) I and Ms (x) (K^-1 + rho_f / phi c I)
    prob, inp, u = moving_step(K)
    sub, prm, lay = prob.solid, prob.params, prob.layout
    _, J, _, _ = plain_geometry(sub, u)
    nc, c = len(sub.cells), inp.a0 / inp.dt
    Ms = np.einsum("xq,qi,qj->xij", sub.w * J, sub.val2, sub.val2)
    vsd, qd = sub.vdofs + lay.offsets["v_s"], sub.vdofs + lay.offsets["q"]
    want = {("v_s", "q"): [(vsd, qd, prm.rho_f * c * np.einsum("xij,ac->xiajc", Ms, np.eye(2)))],
            ("q", "v_s"): [(qd, vsd, prm.rho_f * c * np.einsum("xij,ac->xiajc", Ms, np.eye(2)))],
            ("q", "q"): [(qd, qd, np.einsum("xij,ac->xiajc", Ms,
                                            prm.K_inv + prm.rho_f / prm.phi * c * np.eye(2)))]}
    blocks, _ = assembled_blocks(prob, inp)

    def within(dofs, name):
        span = lay.slice_of(name)
        return span.start <= dofs.min() and dofs.max() < span.stop

    for (rf, cf), expected in want.items():
        got = [blk for blk in blocks if within(blk[0], rf) and within(blk[1], cf)]
        A = summed(lay.total, got)
        W = summed(lay.total, [(r, cc, v.reshape(nc, 12, 12)) for r, cc, v in expected])
        assert abs(A - W).max() <= TOL * abs(W).max()
        # the same entries, without the zeros of the full blocks
        W.eliminate_zeros()
        assert np.all(A.data != 0.0) and A.nnz == W.nnz
    # the off-diagonal K^-1 coupling is its own block, present only when K^-1 has one
    iso_prob, iso_inp, _ = moving_step(1e-5)
    assert len(blocks) == len(assembled_blocks(iso_prob, iso_inp)[0]) + (not np.isscalar(K))


def test_elastic_history_load_matches_its_definition(channel_step):
    # F~ S(E(u_h, u~)) : grad(psi) of the history u_h moves to the right-hand
    # side; the difference of two histories isolates it
    prob, inp, u = channel_step
    sub, prm = prob.solid, prob.params
    Ft, _, _, g = plain_geometry(sub, u)
    loads, work = [], []
    for hist in (inp.u_impl_hist, np.zeros_like(inp.u_impl_hist)):
        loads.append(assembled_blocks(prob, replace(inp, u_impl_hist=hist))[1])
        F1 = np.eye(2) + np.einsum("xim,xqie->xqme", hist.reshape(-1, 2)[sub.nodes_u], g)
        M = np.swapaxes(F1, -1, -2) @ Ft
        E = 0.25 * (M + np.swapaxes(M, -1, -2)) - 0.5 * np.eye(2)
        S = prm.lam_s * np.trace(E, axis1=-2, axis2=-1)[..., None, None] * np.eye(2) \
            + 2.0 * prm.mu_s * E
        work.append(np.einsum("xq,xqae,xqie->xia", sub.w, Ft @ S, g))
    want = np.zeros(prob.layout.total)
    np.add.at(want, sub.vdofs + prob.layout.offsets["v_s"], -(work[0] - work[1]).reshape(
        len(sub.cells), -1))
    assert np.abs(want).max() > 0.0 and close(loads[0] - loads[1], want)


def test_extension_stiffness_is_the_shared_fluid_gram_rescaled(channel_step):
    prob, inp, _ = channel_step
    geo, sub = inp.geo, prob.fluid
    wJ = sub.w * geo.fluid["J"]
    mu_m = prob.params.mu_s * wJ.sum(axis=1) ** -1.2
    P = gradient_gram(wJ * mu_m[:, None], geo.fluid["G"])
    want = P.transpose(0, 1, 4, 3, 2) + 16.0 * P \
        + np.einsum("xij,ac->xiajc", component_trace(P), np.eye(2))
    (rows, cols, got), = extension_stiffness(prob, geo.fluid)
    assert close(got, want.reshape(len(sub.cells), 12, 12))
