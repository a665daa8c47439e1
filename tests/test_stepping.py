"""Time stepping: BDF algebra, state handling, the mesh-velocity extension,
and checkpointing."""

import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import fpsi.assembly as assembly
import fpsi.solver as solver
from fpsi.assembly import DirichletBC, StepInputs, build_geometry
from fpsi.errors import AssemblyError, DegenerateDeformationError, FpsiError, SolverError
from fpsi.fem import SparsePattern
from fpsi.mesh import FLUID, GAMMA_F0, GAMMA_FS, GAMMA_OUT, GAMMA_S0, SOLID
from fpsi.mms import biot_trig, unsteady_fluid
from fpsi.reporting import load_checkpoint, save_checkpoint
from fpsi.scenarios import benchmark_params, channel_mesh, channel_problem, mms_problem
from fpsi.spaces import interpolate, transfer_nodes
from fpsi.stepping import (BDF1, BDF2, State, advance_step, check_deformation, extrapolate,
                           run_transient, scheme_for_step, solve_extension, solve_steady,
                           step_inputs)
from tests.test_assembly_forms import PARAMS, make_problem
from tests.test_assembly_system import zero_bc
from tests.test_mesh import two_triangle_mesh


def rest_problem(**kw):
    kw.setdefault("pin_pf", (0, lambda t: 0.0))
    return make_problem(
        two_triangle_mesh((FLUID, SOLID)),
        dirichlet=[zero_bc("v_f", (GAMMA_F0,)), zero_bc("v_s", (GAMMA_S0,)),
                   DirichletBC("p_d", (GAMMA_S0,), lambda X, t: np.zeros(len(X)))],
        **kw)


# ---------------------------------------------------------------------------
# BDF algebra
# ---------------------------------------------------------------------------

def test_scheme_selection():
    assert scheme_for_step(1, 1) is BDF1
    assert scheme_for_step(1, 50) is BDF1
    assert scheme_for_step(2, 1) is BDF1       # self-starting
    assert scheme_for_step(2, 2) is BDF2
    assert scheme_for_step(2, 9) is BDF2
    with pytest.raises(FpsiError):
        scheme_for_step(3, 1)


def test_scheme_coefficients():
    assert (BDF1.a0, BDF1.a1, BDF1.a2) == (1.0, -1.0, 0.0)
    assert (BDF2.a0, BDF2.a1, BDF2.a2) == (1.5, -2.0, 0.5)
    assert (BDF1.e1, BDF1.e2) == (1.0, 0.0)
    assert (BDF2.e1, BDF2.e2) == (2.0, -1.0)


def bdf_rate(sch, dt, f0, f1, f2):
    """The discrete time derivative (a0 f^k + a1 f^(k-1) + a2 f^(k-2)) / dt."""
    return (sch.a0 * f0 + sch.a1 * f1 + sch.a2 * f2) / dt


def test_bdf_rate_exactness():
    # the BDF identity [du/dt]^k = v: BDF1 is exact for linears, BDF2 for
    # quadratics, so u(t) at three levels gives the exact rate
    dt, t = 0.1, 2.0
    lin = lambda s: 3.0 - 2.0 * s
    assert bdf_rate(BDF1, dt, lin(t), lin(t - dt), lin(t - 2 * dt)) == pytest.approx(-2.0)
    quad = lambda s: s * s
    assert bdf_rate(BDF2, dt, quad(t), quad(t - dt), quad(t - 2 * dt)) \
        == pytest.approx(2.0 * t)
    assert np.allclose(bdf_rate(BDF1, 0.5, np.array([1.0, 2.0]), np.array([0.0, 4.0]),
                                np.array([9.0, 9.0])), [2.0, -4.0])


def test_extrapolate():
    assert extrapolate(BDF1, 3.0, -7.0) == 3.0
    assert extrapolate(BDF2, 3.0, 1.0) == 5.0
    lin = lambda t: 1.0 + 4.0 * t
    assert extrapolate(BDF2, lin(1.0), lin(0.9)) == pytest.approx(lin(1.1))


# ---------------------------------------------------------------------------
# state
# ---------------------------------------------------------------------------

def test_state_initial_and_validation():
    prob = rest_problem()
    st = State.initial(prob)
    assert st.k == 0 and st.t == 0.0
    assert set(st.fields) == {"v_f", "v_s", "q", "p_f", "p_d", "u", "w"}
    assert all(np.all(v == 0.0) for v in st.fields.values())
    vs = np.ones(prob.spaces["v_s"].num_dofs)
    st2 = State.initial(prob, fields={"v_s": vs})
    assert np.all(st2.fields["v_s"] == 1.0) and np.all(st2.prev["v_s"] == 1.0)
    with pytest.raises(FpsiError, match="unknown initial field"):
        State.initial(prob, fields={"v_x": vs})
    with pytest.raises(FpsiError, match="wrong size"):
        State.initial(prob, fields={"v_s": np.ones(3)})


def test_check_deformation():
    prob = rest_problem()
    nu = prob.spaces["u"].num_dofs
    assert check_deformation(prob, np.zeros(nu))[1] == pytest.approx(1.0)
    shrink = interpolate(prob.spaces["u"], lambda X: -0.5 * X)   # F = I/2
    geo, jmin = check_deformation(prob, shrink)
    assert jmin == pytest.approx(0.25)
    assert np.allclose(geo.iface["wJs"], 0.5 * prob.iface.fluid.w, rtol=0.0, atol=1e-15)
    flip = interpolate(prob.spaces["u"], lambda X: np.stack(
        [-2.0 * X[:, 0], np.zeros(len(X))], axis=1))
    with pytest.raises(DegenerateDeformationError):
        check_deformation(prob, flip)


def test_check_deformation_covers_facets():
    # F_xx = -0.001 + 0.2 x is negative only on the inlet x = 0: every cell
    # quadrature point is positive (smallest J 0.00385), the facets are not
    prob = channel_problem(channel_mesh(4), benchmark_params(K=1e-5))
    u = interpolate(prob.spaces["u"], lambda X: np.stack(
        [-1.001 * X[:, 0] + 0.1 * X[:, 0] ** 2, np.zeros(len(X))], axis=1))
    cells = min(float(assembly.batch_deformation(sub, u)["J"].min())
                for sub in (prob.fluid, prob.solid))
    assert cells == pytest.approx(0.00385, abs=1e-5)
    with pytest.raises(DegenerateDeformationError, match="at cell 41") as err:
        check_deformation(prob, u)
    assert err.value.cell == 41 and err.value.value == pytest.approx(-0.001)


def inverting_displacement(prob, cells):
    """A displacement that mirrors each of the given cells in x about its
    centroid (F = diag(-1, 1) inside it) and is zero on every other node."""
    space = prob.spaces["u"]
    u = np.zeros(space.num_dofs)
    for c in cells:
        nodes = space.cell_nodes[c]
        X = space.node_coords[nodes]
        u[2 * nodes] = -2.0 * (X[:, 0] - X[:, 0].mean())
    return u


def test_inverting_a_fluid_and_a_solid_cell_names_the_fluid_cell():
    prob = channel_problem(channel_mesh(4), benchmark_params(K=1e-5))
    u = inverting_displacement(prob, (prob.fluid.cells[7], prob.solid.cells[3]))
    with pytest.raises(DegenerateDeformationError) as solid:     # the solid alone fails
        assembly.batch_deformation(prob.solid, u)
    assert solid.value.cell in prob.solid.cells
    with pytest.raises(DegenerateDeformationError) as want:
        assembly.batch_deformation(prob.fluid, u)
    with pytest.raises(DegenerateDeformationError) as got:       # the fluid is checked first
        check_deformation(prob, u)
    assert type(got.value) is type(want.value)
    assert got.value.cell == want.value.cell and got.value.cell in prob.fluid.cells
    assert str(got.value) == str(want.value)


def test_a_solid_terms_error_reaches_the_step_with_its_prefix(monkeypatch):
    prob = channel_problem(channel_mesh(2), benchmark_params(K=1e-5))

    def failing_solid_terms(*args):
        raise AssemblyError("solid terms failed")

    monkeypatch.setattr(assembly, "_solid_terms", failing_solid_terms)
    with pytest.raises(AssemblyError, match=r"^step 1 failed: solid terms failed$"):
        advance_step(prob, State.initial(prob), 1e-4, 2)


def test_a_fluid_terms_error_surfaces_before_the_solid_terms_run(monkeypatch):
    prob = channel_problem(channel_mesh(2), benchmark_params(K=1e-5))
    inp = step_inputs(prob, State.initial(prob), BDF2, 1e-4)
    solid_calls = []

    def failing_solid_terms(*args):
        solid_calls.append(args)
        raise AssemblyError("solid terms failed")

    def failing_fluid_terms(*args):
        raise AssemblyError("fluid terms failed")

    monkeypatch.setattr(assembly, "_solid_terms", failing_solid_terms)
    monkeypatch.setattr(assembly, "_fluid_terms", failing_fluid_terms)
    with pytest.raises(AssemblyError, match=r"^fluid terms failed$"):
        assembly.assemble_system(prob, inp)
    assert solid_calls == []


ONE_STEP = """
import threading
before = threading.active_count()
from fpsi.scenarios import benchmark_params, channel_mesh, channel_problem
from fpsi.stepping import State, advance_step
prob = channel_problem(channel_mesh(2), benchmark_params(K=1e-5))
advance_step(prob, State.initial(prob), 1e-4, 2)
print(before, threading.active_count())
"""


def test_importing_fpsi_and_taking_a_step_starts_no_thread():
    # in a fresh interpreter, so no earlier test has started a thread
    src = Path(assembly.__file__).resolve().parents[1]
    out = subprocess.run([sys.executable, "-c", ONE_STEP],
                         env=dict(os.environ, PYTHONPATH=str(src)), check=True,
                         stdout=subprocess.PIPE, text=True).stdout.split()
    assert out == ["1", "1"]


def count_geometry_builds(monkeypatch):
    calls = []
    build = assembly.build_geometry

    def counting(problem, u):
        calls.append(problem)
        return build(problem, u)

    monkeypatch.setattr(assembly, "build_geometry", counting)
    return calls


def test_step_failure_keeps_its_type_and_names_the_step():
    # an inlet pulse of 1e8 inverts cell 161 of channel:4 in the first step
    prob = channel_problem(channel_mesh(4), benchmark_params(K=1e-5), p_ext=1e8)
    with pytest.raises(DegenerateDeformationError,
                       match=r"^step 1 failed: deformation degenerate: det F = ") as err:
        run_transient(prob, 1e-4, 1, 5)
    assert err.value.cell == 161 and err.value.value < 0.0
    assert "at cell 161" in str(err.value)


def test_solver_failure_keeps_its_residual_and_names_the_step(monkeypatch):
    import fpsi.stepping as stepping

    prob = channel_problem(channel_mesh(2), benchmark_params(K=1e-5))
    state = run_transient(prob, 1e-4, 1, 1)

    def failing_solve(*args, **kwargs):
        raise SolverError("residual 3.0e-02 above tolerance", residual=3e-2)

    monkeypatch.setattr(stepping, "solve", failing_solve)
    with pytest.raises(SolverError, match=r"^step 2 failed: residual 3\.0e-02 above") as err:
        advance_step(prob, state, 1e-4, 1)
    assert err.value.residual == 3e-2


@pytest.mark.parametrize("frozen", [True, False])
def test_frozen_geometry_is_built_once(monkeypatch, frozen):
    # one build per configuration: u^0 ... u^steps of a moving mesh, the
    # reference configuration alone of a mesh without a solid; a moving mesh
    # builds its reference configuration once more, for the extension operator
    calls = count_geometry_builds(monkeypatch)
    if frozen:
        case = unsteady_fluid()
        prob, dt, steps = mms_problem(case, 8), 1e-2, 5
    else:
        prob, dt, steps = channel_problem(channel_mesh(4), benchmark_params(K=1e-5)), 1e-4, 3
    state = run_transient(prob, dt, 2, steps)
    assert len(calls) == (1 if frozen else steps + 1)
    if frozen:
        # the same fields as with the geometry rebuilt on every step
        again = mms_problem(case, 8)
        fresh = State.initial(again)
        for _ in range(steps):
            fresh.geo = None
            fresh, _ = advance_step(again, fresh, dt, 2)
        assert all(np.array_equal(fresh.fields[n], state.fields[n]) for n in state.fields)


def test_steady_solve_builds_one_geometry(monkeypatch):
    calls = count_geometry_builds(monkeypatch)
    solve_steady(rest_problem())
    assert len(calls) == 1


def geometry_arrays(geo):
    parts = {"fluid": geo.fluid, "solid": geo.solid, "iface": geo.iface}
    parts.update(("load %d" % m, g) for m, g in geo.loads.items())
    return {(part, key): arr for part, g in parts.items() if g is not None
            for key, arr in g.items()}


def test_restart_assembles_in_the_uninterrupted_geometry(tmp_path):
    prob = channel_problem(channel_mesh(4), benchmark_params(K=1e-5))
    state = run_transient(prob, 1e-4, 2, 3)
    path = str(tmp_path / "chk")
    save_checkpoint(path, state)
    back, _ = load_checkpoint(path, prob)
    assert back.geo is None             # rebuilt and checked at its first step
    _, straight = advance_step(prob, state, 1e-4, 2)
    _, resumed = advance_step(prob, back, 1e-4, 2)
    assert resumed.geo is not straight.geo
    ref, got = geometry_arrays(straight.geo), geometry_arrays(resumed.geo)
    assert sorted(got) == sorted(ref) and len(ref) == 15
    assert all(np.array_equal(got[key], ref[key]) for key in ref)


# ---------------------------------------------------------------------------
# extension and domain velocity
# ---------------------------------------------------------------------------

def test_solve_extension_boundary_values():
    prob = channel_problem(channel_mesh(2), benchmark_params(K=1e-5))
    uspace, vs_space = prob.spaces["u"], prob.spaces["v_s"]
    v_s = interpolate(vs_space, lambda X: np.stack(
        [0.003 + 0.01 * X[:, 0], 0.02 * np.ones(len(X))], axis=1))
    # every step's v_s is zero on the clamped wall, as the system's condition makes it
    wall = vs_space.dofs_of_nodes(vs_space.nodes_on_markers((GAMMA_S0,)))
    clamped = v_s.copy()
    clamped[wall] = 0.0
    w, _ = solve_extension(prob, clamped)
    assert w.shape == (uspace.num_dofs,)
    assert prob.patterns["extension"].A.shape == (uspace.num_dofs, uspace.num_dofs)
    w = w.reshape(-1, 2)

    # the solid velocity on every solid node, the interface included, bitwise
    src, solid_nodes = transfer_nodes(vs_space, uspace)
    iface = uspace.nodes_on_markers((GAMMA_FS,))
    assert np.isin(iface, solid_nodes).all()
    assert np.array_equal(w[solid_nodes], clamped.reshape(-1, 2)[src])
    # zero on the outer fluid boundary; it meets the solid only at the corners
    # of the clamped wall, where the outer zero is applied last and wins
    outer = uspace.nodes_on_markers((GAMMA_F0, GAMMA_OUT))
    corners = np.intersect1d(outer, solid_nodes)
    assert len(corners) == 4 and np.isin(corners, uspace.nodes_on_markers((GAMMA_S0,))).all()
    assert np.array_equal(w[outer], np.zeros((len(outer), 2)))
    # a v_s that is not zero at the corners: the held LU's solve keeps v_s
    # elsewhere on the solid, and the zero at the corners
    loose, _ = solve_extension(prob, v_s)
    loose, at_corner = loose.reshape(-1, 2), np.isin(solid_nodes, corners)
    assert np.abs(v_s.reshape(-1, 2)[src][at_corner]).min() > 0.0
    assert np.array_equal(loose[corners], np.zeros((4, 2)))
    assert np.array_equal(loose[solid_nodes[~at_corner]], v_s.reshape(-1, 2)[src[~at_corner]])
    # the lift stays bounded by the data
    assert np.max(np.abs(w)) <= np.max(np.abs(clamped)) * 5.0


def record_extension(monkeypatch, n):
    """Counts the extension operator's assemblies and keeps every n x n
    matrix solved, the extension's on a channel: (builds, matrices)."""
    import fpsi.stepping as stepping

    builds, matrices = [], []
    real_stiffness, real_solve = stepping.extension_stiffness, stepping.solve

    def stiffness(problem, fluid):
        builds.append(fluid)
        return real_stiffness(problem, fluid)

    def solve(A, b, record, **kwargs):
        if A.shape[0] == n:
            matrices.append(A)
        return real_solve(A, b, record, **kwargs)

    monkeypatch.setattr(stepping, "extension_stiffness", stiffness)
    monkeypatch.setattr(stepping, "solve", solve)
    return builds, matrices


def same_matrix(A, B):
    return (np.array_equal(A.indptr, B.indptr) and np.array_equal(A.indices, B.indices)
            and np.array_equal(A.data, B.data))


def new_extension_record(prob, blocks):
    """A new record of the extension's blocks with the held record's fixed
    dofs: unlike the held one, it can eliminate them again."""
    held = prob.patterns["extension"]
    return SparsePattern(held.n, blocks, prob.entity_keys(("u",)), held.dofs, held.take)


def test_extension_record_drops_its_scatter_after_its_one_assembly(monkeypatch):
    import fpsi.stepping as stepping

    prob = channel_problem(channel_mesh(2), benchmark_params(K=1e-5))
    eliminations = []
    real_dirichlet = stepping.apply_dirichlet

    def dirichlet(pattern, blocks):
        eliminations.append(blocks)
        return real_dirichlet(pattern, blocks)

    monkeypatch.setattr(stepping, "apply_dirichlet", dirichlet)
    advance_step(prob, State.initial(prob), 1e-4, 2)
    system, extension = prob.patterns["system"], prob.patterns["extension"]
    assert system.scatter is not None and system.indices is not None
    assert extension.scatter is None and extension.indices is None and extension.indptr is None
    assert extension.A is not None and len(eliminations) == 1
    with pytest.raises(AssemblyError, match=r"^the %d-dof matrix was assembled once"
                       % extension.n):
        real_dirichlet(extension, eliminations[0])


def test_extension_operator_is_assembled_once_in_the_reference_configuration(monkeypatch):
    import fpsi.stepping as stepping

    prob = channel_problem(channel_mesh(4), benchmark_params(K=1e-5))
    builds, matrices = record_extension(monkeypatch, prob.spaces["u"].num_dofs)
    state = State.initial(prob)
    factored = []
    for _ in range(3):
        state, diag = advance_step(prob, state, 1e-4, 2)
        factored.append(diag.extension.factored)
        assert diag.extension.residual <= 1e-9
    assert np.abs(state.fields["u"]).max() > 0.0          # the mesh has moved
    assert len(builds) == 1 and factored == [True, False, False]
    assert len(matrices) == 3 and all(same_matrix(A, matrices[0]) for A in matrices)
    # the blocks of the reference configuration u = 0, on a new record
    nu = prob.spaces["u"].num_dofs
    blocks = stepping.extension_stiffness(prob, build_geometry(prob, np.zeros(nu)).fluid)
    assert same_matrix(matrices[0], stepping.apply_dirichlet(new_extension_record(prob, blocks),
                                                             blocks)[0])


def test_extension_forms_each_right_hand_side_from_its_held_lift(monkeypatch):
    import fpsi.stepping as stepping

    prob = channel_problem(channel_mesh(4), benchmark_params(K=1e-5))
    eliminations, handed = [], []
    real_dirichlet, real_solve = stepping.apply_dirichlet, stepping.solve

    def dirichlet(pattern, blocks):
        eliminations.append(blocks)
        return real_dirichlet(pattern, blocks)

    def solve(A, b, record, **kwargs):
        if record is prob.patterns.get("extension"):
            handed.append(b)
        return real_solve(A, b, record, **kwargs)

    monkeypatch.setattr(stepping, "apply_dirichlet", dirichlet)
    monkeypatch.setattr(stepping, "solve", solve)
    state = State.initial(prob)
    for _ in range(3):
        state, _ = advance_step(prob, state, 1e-4, 2)
    # the blocks are eliminated at the first solve only; every later b is
    # the held lift's
    assert len(eliminations) == 1 and len(handed) == 3
    pattern = prob.patterns["extension"]
    v_s = state.fields["v_s"]
    assert np.abs(v_s).max() > 0.0 and np.array_equal(
        handed[-1], stepping.dirichlet_rhs(pattern, pattern.lift, np.zeros(pattern.n),
                                           np.append(v_s, 0.0)))
    # for any v_s, the held lift's b is the one a new elimination makes
    A, lift = real_dirichlet(new_extension_record(prob, eliminations[0]), eliminations[0])
    assert np.array_equal(lift, pattern.lift) and same_matrix(A, pattern.A)
    rng = np.random.default_rng(5)
    for _ in range(3):
        values = np.append(rng.standard_normal(len(v_s)), 0.0)
        held = stepping.dirichlet_rhs(pattern, pattern.lift, np.zeros(pattern.n), values)
        full = stepping.dirichlet_rhs(pattern, lift, np.zeros(pattern.n), values)
        assert np.array_equal(held, full) and np.abs(held).max() > 0.0


def test_restart_solves_the_uninterrupted_extension_matrix(monkeypatch, tmp_path):
    def channel():
        return channel_problem(channel_mesh(4), benchmark_params(K=1e-5))

    first = channel()
    path = str(tmp_path / "chk")
    save_checkpoint(path, run_transient(first, 1e-4, 2, 2))
    n = first.spaces["u"].num_dofs
    with monkeypatch.context() as mp:
        _, straight = record_extension(mp, n)
        run_transient(channel(), 1e-4, 2, 3)
    with monkeypatch.context() as mp:
        _, resumed = record_extension(mp, n)
        prob = channel()                     # fresh: no extension record yet
        run_transient(prob, 1e-4, 2, 1, state=load_checkpoint(path, prob)[0])
    assert len(straight) == 3 and len(resumed) == 1
    assert same_matrix(resumed[0], straight[-1])


def test_domain_velocity_placement():
    prob = rest_problem()
    d = 2
    uspace = prob.spaces["u"]
    v_s = np.tile([1.0, 2.0], prob.spaces["v_s"].num_scalar_nodes)
    w, _ = solve_extension(prob, v_s)
    assert w.shape == (uspace.num_dofs,)
    w = w.reshape(-1, d)
    _, solid_nodes = transfer_nodes(prob.spaces["v_s"], uspace)
    _, fluid_nodes = transfer_nodes(prob.spaces["v_f"], uspace)
    outer = uspace.nodes_on_markers((GAMMA_F0, GAMMA_OUT))
    iface = uspace.nodes_on_markers((GAMMA_FS,))
    inner_solid = np.setdiff1d(solid_nodes, outer)
    assert np.isin(np.setdiff1d(iface, outer), inner_solid).all() and len(inner_solid)
    for node in inner_solid:
        assert np.array_equal(w[node], [1.0, 2.0])  # solid (and interface) take v_s
    for node in outer:
        assert np.array_equal(w[node], [0.0, 0.0])  # the outer fluid zero wins
    assert len(set(solid_nodes.tolist()) | set(fluid_nodes.tolist())) == uspace.num_scalar_nodes


def test_step_displacement_is_the_implicit_one_of_its_elastic_form():
    # over three BDF2 steps of a moving channel, the new u is the displacement
    # beta w + u_impl_hist that the step's elastic form was linearized in, to
    # the bit; u and w satisfy the BDF identity [du/dt]^k = w^k
    prob = channel_problem(channel_mesh(4), benchmark_params(K=1e-5))
    src, dst = (prob.spaces["v_s"].dofs_of_nodes(nodes)
                for nodes in transfer_nodes(prob.spaces["v_s"], prob.spaces["u"]))
    dt = 1e-4
    state = State.initial(prob)
    for k in range(1, 4):
        sch = scheme_for_step(2, k)
        inp = step_inputs(prob, state, sch, dt)
        new, _ = advance_step(prob, state, dt, 2)
        u, w = new.fields["u"], new.fields["w"]
        assert np.abs(w).max() > 0.0
        assert np.array_equal(w[dst], new.fields["v_s"][src])       # w is v_s on the solid
        assert np.array_equal(u, inp.beta * w + inp.u_impl_hist)
        rate = bdf_rate(sch, dt, u, state.fields["u"], state.prev["u"])
        assert np.abs(rate - w).max() <= 1e-13 * np.abs(w).max()
        state = new


def test_solid_only_step_moves_with_the_solid_velocity():
    # with no fluid cells the solid fills the mesh: v_s and u number the same
    # nodes, and a step's w is its v_s
    prob = mms_problem(biot_trig(), 4)
    assert prob.fluid is None
    src, dst = transfer_nodes(prob.spaces["v_s"], prob.spaces["u"])
    nodes = np.arange(prob.spaces["u"].num_scalar_nodes)
    assert np.array_equal(src, nodes) and np.array_equal(dst, nodes)
    state, diag = advance_step(prob, State.initial(prob), 1e-3, 1)
    assert diag.extension is None and "extension" not in prob.patterns
    assert np.abs(state.fields["v_s"]).max() > 0.0
    assert np.array_equal(state.fields["w"], state.fields["v_s"])


# ---------------------------------------------------------------------------
# stepping
# ---------------------------------------------------------------------------

def test_rest_state_stays_zero():
    prob = rest_problem()
    state = State.initial(prob)
    for k in range(1, 6):
        state, diag = advance_step(prob, state, 0.01, order=2)
        assert diag.scheme.order == (1 if k == 1 else 2)
        assert max(np.max(np.abs(v)) for v in state.fields.values()) < 1e-12
    assert state.k == 5
    assert state.t == pytest.approx(0.05)


def test_steady_rest_solve():
    prob = rest_problem()
    fields, rep = solve_steady(prob)
    assert max(np.max(np.abs(v)) for v in fields.values()) < 1e-12
    assert rep.residual < 1e-9


def test_transient_is_deterministic():
    def run():
        mesh = channel_mesh(2)
        prob = channel_problem(mesh, benchmark_params(K=1e-5))
        return run_transient(prob, 1e-4, 2, 3)

    s1, s2 = run(), run()
    for name in s1.fields:
        assert np.array_equal(s1.fields[name], s2.fields[name])
    assert s1.t == s2.t


def test_step_reports_min_jacobian_of_new_configuration():
    prob = channel_problem(channel_mesh(2), benchmark_params(K=1e-5))
    state = State.initial(prob)
    for _ in range(3):
        state, diag = advance_step(prob, state, 1e-4, 2)
        geo = build_geometry(prob, state.fields["u"])
        jmin = min(geo.fluid["J"].min(), geo.solid["J"].min())
        assert diag.jmin == jmin
        assert np.array_equal(state.geo.iface["wJs"], geo.iface["wJs"])
        assert 0.0 < diag.jmin != 1.0


def _six_bdf2_steps(clear_factors):
    prob = channel_problem(channel_mesh(4), benchmark_params(K=1e-5))
    state = State.initial(prob)
    diags = []
    for _ in range(6):
        if clear_factors:
            for pattern in prob.patterns.values():
                pattern.lu = None
        state, diag = advance_step(prob, state, 1e-4, 2)
        diags.append((diag.system, diag.extension))
    return state, diags


def test_lu_reuse_matches_fresh_factors():
    reused, diags = _six_bdf2_steps(clear_factors=False)
    fresh, fresh_diags = _six_bdf2_steps(clear_factors=True)
    for name, ref in fresh.fields.items():
        scale = max(np.linalg.norm(ref), 1e-300)
        assert np.linalg.norm(reused.fields[name] - ref) <= 1e-8 * scale, name
    system = [s for s, _ in diags]
    assert system[0].factored
    assert sum(not s.factored for s in system) >= 3
    assert all(s.refined == s.factored for s in system)     # only a fresh LU is refined
    for sys_rep, ext_rep in diags:
        assert sys_rep.residual <= 1e-9 and ext_rep.residual <= 1e-9
        assert sys_rep.factored or sys_rep.iterations >= 1
    assert all(s.factored and e.factored for s, e in fresh_diags)


def test_bdf2_step_after_the_bdf1_start_factors_afresh():
    prob = channel_problem(channel_mesh(4), benchmark_params(K=1e-5))
    state = State.initial(prob)
    state, _ = advance_step(prob, state, 1e-4, 2)
    assert prob.patterns["system"].lu is not None          # the BDF1 LU is held
    after_bdf1 = state
    state, diag = advance_step(prob, state, 1e-4, 2)
    step2 = diag.system
    # step 2 is the first BDF2 step: the BDF1 LU is not tried on its matrix,
    # so every pass spent is the fresh path's own, as with no LU held
    prob.patterns["system"].lu = None
    _, alone = advance_step(prob, after_bdf1, 1e-4, 2)
    assert step2.factored and step2.refined and step2.iterations >= 1
    assert step2.iterations == alone.system.iterations
    _, diag = advance_step(prob, state, 1e-4, 2)
    assert not diag.system.factored      # BDF2 -> BDF2 reuses again


def test_stiff_slip_step_refactors_and_meets_the_tolerance():
    # K = 5e-13 (criterion 9's first run): on channel:4 the Krylov solve
    # with the lagged LU stalls at steps 2-4 and 6, which factor afresh
    # after their failed held attempt, and the float32 LU still reaches 1e-9
    # there
    prob = channel_problem(channel_mesh(4), benchmark_params(K=5e-13))
    state = State.initial(prob)
    reports = []
    for _ in range(7):
        state, diag = advance_step(prob, state, 1e-4, 1)
        reports.append(diag.system)
        assert diag.system.residual <= 1e-9 and diag.extension.residual <= 1e-9
    refactored = [rep for rep in reports[1:] if rep.factored]
    assert refactored
    for rep in refactored:
        assert rep.refined and rep.iterations >= 2 and rep.fill > 0


def test_held_steps_spend_fewer_system_lu_solves(monkeypatch):
    # ten BDF2 steps on channel:4 at K = 1e-5 factor the system at steps 1
    # and 2; its eight held steps took 49 LU solves with refinement passes
    # from LU^-1 b and take 38 with the Krylov solve from the BDF predictor
    prob = channel_problem(channel_mesh(4), benchmark_params(K=1e-5))
    sizes = []
    real = solver.OrderedLU.solve

    def counting(self, rhs):
        sizes.append(self.shape[0])
        return real(self, rhs)

    monkeypatch.setattr(solver.OrderedLU, "solve", counting)
    state = State.initial(prob)
    held = []
    for _ in range(10):
        sizes.clear()
        state, diag = advance_step(prob, state, 1e-4, 2)
        if not diag.system.factored:
            held.append(sizes.count(diag.system.n))
            assert held[-1] == diag.system.iterations
        assert diag.system.residual <= 1e-9
    assert len(held) == 8 and sum(held) < 49


def test_system_solve_starts_from_the_bdf_predictor(monkeypatch):
    import fpsi.stepping as stepping

    prob = channel_problem(channel_mesh(4), benchmark_params(K=1e-5))
    state = run_transient(prob, 1e-4, 2, 3)
    starts = []
    real = stepping.solve

    def recording(A, b, record, **kwargs):
        starts.append((b, record, kwargs.get("x0")))
        return real(A, b, record, **kwargs)

    monkeypatch.setattr(stepping, "solve", recording)
    advance_step(prob, state, 1e-4, 2)
    (b, system, x0), (_, extension, none) = starts
    assert system is prob.patterns["system"] and extension is prob.patterns["extension"]
    assert none is None                 # the extension starts from zero
    lay = prob.layout
    for name in lay.names:
        expect = extrapolate(BDF2, state.fields[name], state.prev[name])
        free = np.setdiff1d(np.arange(lay.sizes[name]), system.dofs - lay.offsets[name])
        assert np.array_equal(x0[lay.slice_of(name)][free], expect[free]), name
    # at the fixed dofs it holds the step's boundary values
    assert np.array_equal(x0[system.dofs], b[system.dofs])


def test_steady_solve_keeps_no_factors():
    prob = rest_problem()
    solve_steady(prob)
    assert prob.patterns["system"].lu is None


def test_moving_geometry_updates_displacement():
    mesh = channel_mesh(2)
    prob = channel_problem(mesh, benchmark_params(K=1e-5))
    state = run_transient(prob, 1e-4, 1, 3)
    assert np.max(np.abs(state.fields["u"])) > 0.0
    assert np.max(np.abs(state.fields["w"])) > 0.0
    # displacement follows the BDF identity for the domain velocity
    rate = (state.fields["u"] - state.prev["u"]) / 1e-4
    assert np.allclose(rate, state.fields["w"], atol=1e-10)


# ---------------------------------------------------------------------------
# checkpointing
# ---------------------------------------------------------------------------

def test_checkpoint_round_trip(tmp_path):
    prob = channel_problem(channel_mesh(2), benchmark_params(K=1e-5))
    state = run_transient(prob, 1e-4, 2, 3)
    path = str(tmp_path / "chk.npz")
    save_checkpoint(path, state, meta={"note": "after three"})
    back, meta = load_checkpoint(path, prob)
    assert meta == {"note": "after three"}
    assert back.k == state.k and back.t == state.t
    for name in state.fields:
        assert np.array_equal(back.fields[name], state.fields[name])
        assert np.array_equal(back.prev[name], state.prev[name])
    # resuming produces the same trajectory as running straight through
    cont = run_transient(prob, 1e-4, 2, 2, state=back)
    ref = run_transient(prob, 1e-4, 2, 5)
    for name in ref.fields:
        assert np.allclose(cont.fields[name], ref.fields[name], atol=1e-12)


def test_checkpoint_errors(tmp_path):
    prob = rest_problem()
    state = State.initial(prob)
    path = str(tmp_path / "chk.npz")
    save_checkpoint(path, state)

    other = make_problem(one_triangle_mesh_fluid())
    with pytest.raises(FpsiError, match="^checkpoint %s(: field '.*' has size| is missing field)"
                       % re.escape(path)):
        load_checkpoint(path, other)

    data = dict(np.load(path, allow_pickle=False))
    del data["cur_v_s"]
    np.savez(path, **data)
    with pytest.raises(FpsiError, match="^checkpoint %s is missing field 'cur_v_s'$"
                       % re.escape(path)):
        load_checkpoint(path, prob)


def test_checkpoint_at_an_extensionless_path(tmp_path):
    prob = rest_problem()
    state = run_transient(prob, 1e-4, 1, 2)
    path = tmp_path / "final"
    save_checkpoint(str(path), state)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["final"]
    back, meta = load_checkpoint(str(path), prob)
    assert meta == {} and (back.k, back.t) == (state.k, state.t)
    for name in state.fields:
        assert np.array_equal(back.fields[name], state.fields[name])


def rewritten_checkpoint(tmp_path, prob, key, replace):
    """Path of a checkpoint of the problem's initial state whose entry `key`
    is replaced by replace(entry), or deleted when replace is None."""
    path = tmp_path / "chk"
    save_checkpoint(str(path), State.initial(prob))
    with np.load(path, allow_pickle=False) as npz:
        data = dict(npz)
    if replace is None:
        del data[key]
    else:
        data[key] = replace(data[key])
    with open(path, "wb") as fh:
        np.savez(fh, **data)
    return str(path)


@pytest.mark.parametrize("key", ["step_index", "time"])
def test_checkpoint_without_step_or_time(tmp_path, key):
    prob = rest_problem()
    path = rewritten_checkpoint(tmp_path, prob, key, None)
    with pytest.raises(FpsiError, match="^checkpoint %s is missing '%s'$"
                       % (re.escape(path), key)):
        load_checkpoint(path, prob)


# (key, replacement of its saved entry, what the error says)
MALFORMED = {
    "meta-not-utf8": ("meta", lambda old: np.bytes_(b"\xff\xfe{}"), "not UTF-8 JSON"),
    "meta-not-json": ("meta", lambda old: np.bytes_(b"{note: 1"), "not UTF-8 JSON"),
    "meta-not-an-object": ("meta", lambda old: np.bytes_(b"[1, 2]"), "not a JSON object"),
    "step_index-not-a-number": ("step_index", lambda old: np.str_("three"),
                                "not a finite integer scalar"),
    "step_index-fractional": ("step_index", lambda old: np.float64(2.5),
                              "not a finite integer scalar"),
    "time-two-values": ("time", lambda old: np.array([old, old]), "not a finite real scalar"),
    "time-nan": ("time", lambda old: np.float64(np.nan), "not a finite real scalar"),
    "field-nan": ("cur_v_s", lambda old: np.full_like(old, np.nan), "not a finite real array"),
    "field-text": ("prev_v_s", lambda old: np.full(old.shape, "x"), "not a finite real array"),
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_checkpoint_entry(tmp_path, case):
    key, replace, message = MALFORMED[case]
    prob = rest_problem()
    path = rewritten_checkpoint(tmp_path, prob, key, replace)
    with pytest.raises(FpsiError, match="^checkpoint %s: (field )?'%s' .*%s"
                       % (re.escape(path), key, message)):
        load_checkpoint(path, prob)


def test_checkpoint_that_is_no_npz_archive(tmp_path):
    prob = rest_problem()
    text = tmp_path / "chk.npz"
    text.write_text("not an archive\n")
    array = tmp_path / "chk.npy"
    np.save(array, np.zeros(3))
    for path in (text, array, tmp_path / "absent.npz"):
        with pytest.raises(FpsiError, match="is not an npz archive"):
            load_checkpoint(str(path), prob)


def one_triangle_mesh_fluid():
    from tests.test_assembly_forms import one_triangle_mesh
    return one_triangle_mesh(FLUID)
