"""Time stepping: BDF algebra, state handling, the mesh-velocity extension,
and checkpointing."""

import numpy as np
import pytest

import fpsi.assembly as assembly
from fpsi.assembly import DirichletBC, StepInputs, build_geometry
from fpsi.errors import DegenerateDeformationError, FpsiError, SolverError
from fpsi.mesh import FLUID, GAMMA_F0, GAMMA_FS, GAMMA_OUT, GAMMA_S0, SOLID
from fpsi.mms import unsteady_fluid
from fpsi.scenarios import benchmark_params, channel_mesh, channel_problem, mms_problem
from fpsi.spaces import interpolate
from fpsi.stepping import (BDF1, BDF2, State, advance_step, check_deformation,
                           domain_velocity, extrapolate, kinematic_update,
                           load_checkpoint, run_transient, save_checkpoint,
                           scheme_for_step, solve_extension, solve_steady)
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
    # quadratics, so the update lands on u(t) given the exact rate
    dt, t = 0.1, 2.0
    lin = lambda s: 3.0 - 2.0 * s
    assert kinematic_update(BDF1, dt, -2.0, lin(t - dt)) == pytest.approx(lin(t))
    quad = lambda s: s * s
    assert kinematic_update(BDF2, dt, 2.0 * t, quad(t - dt), quad(t - 2 * dt)) \
        == pytest.approx(quad(t))
    assert np.allclose(kinematic_update(BDF1, 0.5, np.array([2.0, -4.0]),
                                        np.array([0.0, 4.0])), [1.0, 2.0])


def test_extrapolate():
    assert extrapolate(BDF1, 3.0, -7.0) == 3.0
    assert extrapolate(BDF2, 3.0, 1.0) == 5.0
    lin = lambda t: 1.0 + 4.0 * t
    assert extrapolate(BDF2, lin(1.0), lin(0.9)) == pytest.approx(lin(1.1))


def test_kinematic_update_inverts_rate():
    rng = np.random.default_rng(3)
    u1, u2, v = rng.standard_normal((3, 8))
    dt = 0.05
    for sch in (BDF1, BDF2):
        u0 = kinematic_update(sch, dt, v, u1, u2)
        assert np.allclose(bdf_rate(sch, dt, u0, u1, u2), v, atol=1e-13)


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
    assert np.allclose(geo.iface["Js"], 0.5, rtol=0.0, atol=1e-15)
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
    # reference configuration alone of a mesh without a solid
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
    assert sorted(got) == sorted(ref) and len(ref) == 13
    assert all(np.array_equal(got[key], ref[key]) for key in ref)


# ---------------------------------------------------------------------------
# extension and domain velocity
# ---------------------------------------------------------------------------

def test_solve_extension_boundary_values():
    mesh = channel_mesh(2)
    prob = channel_problem(mesh, benchmark_params(K=1e-5))
    nu = prob.spaces["u"].num_dofs
    geo = build_geometry(prob, np.zeros(nu))
    vs_space, vf_space = prob.spaces["v_s"], prob.spaces["v_f"]
    v_s = interpolate(vs_space, lambda X: np.stack(
        [0.01 * X[:, 0], 0.02 * np.ones(len(X))], axis=1))
    ext, _ = solve_extension(prob, geo, v_s)
    ext = ext.reshape(-1, 2)

    # trace on the interface equals the solid velocity there; the outer
    # pinning is applied last, so inlet/outlet corner nodes stay zero
    src, dst = prob.map_vs_to_vf
    vs_nodes = v_s.reshape(-1, 2)
    iface = vf_space.nodes_on_markers((GAMMA_FS,))
    outer = set(vf_space.nodes_on_markers((GAMMA_F0, GAMMA_OUT)).tolist())
    trace = dict(zip(dst.tolist(), src.tolist()))
    for node in iface:
        if node not in outer:
            assert np.allclose(ext[node], vs_nodes[trace[node]], atol=1e-12)
    for node in outer:
        assert np.allclose(ext[node], 0.0, atol=1e-13)
    # the lift stays bounded by the data
    assert np.max(np.abs(ext)) <= np.max(np.abs(vs_nodes)) * 5.0


def test_domain_velocity_placement():
    prob = rest_problem()
    d = 2
    v_s = np.tile([1.0, 2.0], prob.spaces["v_s"].num_scalar_nodes)
    w_f = np.tile([3.0, 4.0], prob.spaces["v_f"].num_scalar_nodes)
    w = domain_velocity(prob, v_s, w_f).reshape(-1, d)
    uspace = prob.spaces["u"]
    _, solid_nodes = prob.map_vs_to_u
    _, fluid_nodes = prob.map_vf_to_u
    solid_set = set(solid_nodes.tolist())
    for node in solid_nodes:
        assert np.allclose(w[node], [1.0, 2.0])     # solid (and interface) win
    for node in fluid_nodes:
        if node not in solid_set:
            assert np.allclose(w[node], [3.0, 4.0])
    assert len(solid_set | set(fluid_nodes.tolist())) == uspace.num_scalar_nodes


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
        assert np.array_equal(state.geo.iface["Js"], geo.iface["Js"])
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
    assert all(not s.refined for s in system)
    for sys_rep, ext_rep in diags:
        assert sys_rep.residual <= 1e-9 and ext_rep.residual <= 1e-9
        assert sys_rep.factored or sys_rep.iterations >= 1
    assert all(s.factored and e.factored for s, e in fresh_diags)


def test_bdf2_step_after_the_bdf1_start_factors_afresh():
    prob = channel_problem(channel_mesh(4), benchmark_params(K=1e-5))
    state = State.initial(prob)
    reports = []
    for _ in range(3):
        state, diag = advance_step(prob, state, 1e-4, 2)
        reports.append(diag.system)
    # step 2 is the first BDF2 step: the BDF1 LU is not tried on its matrix,
    # so any pass spent is the fresh path's own refinement
    step2 = reports[1]
    assert step2.factored and step2.iterations <= 1
    assert step2.iterations == int(step2.refined)
    assert not reports[2].factored       # BDF2 -> BDF2 reuses again


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
    with pytest.raises(FpsiError, match="missing field|size"):
        load_checkpoint(path, other)

    data = dict(np.load(path, allow_pickle=False))
    del data["cur_v_s"]
    np.savez(path, **data)
    with pytest.raises(FpsiError, match="missing field"):
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


@pytest.mark.parametrize("key", ["step_index", "time"])
def test_checkpoint_without_step_or_time(tmp_path, key):
    prob = rest_problem()
    path = tmp_path / "chk"
    save_checkpoint(str(path), State.initial(prob))
    with np.load(path, allow_pickle=False) as npz:
        data = dict(npz)
    del data[key]
    with open(path, "wb") as fh:
        np.savez(fh, **data)
    with pytest.raises(FpsiError, match="checkpoint is missing '%s'" % key):
        load_checkpoint(str(path), prob)


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
