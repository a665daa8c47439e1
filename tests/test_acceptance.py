"""Acceptance gate: nine end-to-end checks with fixed tolerances and budgets.

Each test covers one numbered criterion, prints a single summary line
(visible with pytest -s, or in the report on failure) and enforces a wall
clock budget.  Protocols are frozen: changing a resolution, step count or
tolerance here is a contract change, not a tuning knob.
"""

import time

import numpy as np
import pytest

from fpsi.energy import evaluate_energy
from fpsi.kinematics import (MaterialParams, deformation_state,
                             fluid_rate_of_strain, green_lagrange,
                             lame_from_E_nu, mixture_density,
                             pushforward_normal, svk_stress)
from fpsi.mesh import GAMMA_S0
from fpsi.mms import biot_trig, stokes_polynomial, stokes_trig, unsteady_fluid
from fpsi.reporting import observed_orders
from fpsi.scenarios import (PROBE_POINT, benchmark_params, channel_mesh,
                            channel_problem, mms_spatial_study,
                            mms_temporal_study, solve_mms_steady)
from fpsi.spaces import eval_at_point, locate_cell
from fpsi.stepping import State, advance_step
from tests.test_assembly_forms import ALL_FORM_CHECKS


def _done(num: int, t0: float, budget: float, detail: str = "") -> None:
    elapsed = time.perf_counter() - t0
    assert elapsed < budget, (
        "criterion %d exceeded its %.0f s budget (%.1f s)" % (num, budget, elapsed))
    print("criterion %d: PASS (%.1f s)%s" % (num, elapsed,
                                             "  " + detail if detail else ""))


def test_criterion_1_kinematics_oracle():
    t0 = time.perf_counter()
    tol = 1e-12

    F, J, Finv, _ = deformation_state(np.zeros((2, 2)))
    assert np.abs(F - np.eye(2)).max() < tol and abs(J - 1.0) < tol
    F, J, _, _ = deformation_state(np.array([[0.0, 0.3], [0.0, 0.0]]))
    assert np.abs(F - [[1.0, 0.3], [0.0, 1.0]]).max() < tol and abs(J - 1.0) < tol
    _, J, _, _ = deformation_state(0.1 * np.eye(2))
    assert abs(J - 1.21) < tol

    assert np.abs(green_lagrange(np.eye(2), np.eye(2))).max() < tol
    Fd = np.diag([1.1, 1.0])
    assert np.abs(green_lagrange(Fd, Fd) - np.diag([0.105, 0.0])).max() < tol
    # 1/2 sym(F1^T F2 - I) halves the off-diagonal shear entry
    Fsh = np.eye(2) + np.array([[0.0, 0.3], [0.0, 0.0]])
    assert np.abs(green_lagrange(np.eye(2), Fsh)
                  - [[0.0, 0.075], [0.075, 0.0]]).max() < tol

    assert np.abs(svk_stress(np.zeros((2, 2)), 2.0, 1.0)).max() < tol
    assert np.abs(svk_stress(np.diag([0.105, 0.0]), 2.0, 1.0)
                  - np.diag([0.42, 0.21])).max() < tol
    Esh = np.array([[0.0, 0.15], [0.15, 0.0]])
    assert np.abs(svk_stress(Esh, 5.0, 3.0) - 6.0 * Esh).max() < tol

    assert np.abs(fluid_rate_of_strain(np.zeros((2, 2)), np.eye(2))).max() < tol
    assert np.abs(fluid_rate_of_strain(np.array([[0.0, 1.0], [0.0, 0.0]]),
                                       np.eye(2))
                  - [[0.0, 0.5], [0.5, 0.0]]).max() < tol
    assert np.abs(fluid_rate_of_strain(np.diag([2.0, 4.0]), np.diag([0.5, 1.0]))
                  - np.diag([1.0, 4.0])).max() < tol

    n, Js = pushforward_normal(np.eye(2), np.array([1.0, 0.0]))
    assert np.abs(n - [1.0, 0.0]).max() < tol and abs(Js - 1.0) < tol
    n, Js = pushforward_normal(2.0 * np.eye(2), np.array([1.0, 0.0]))
    assert np.abs(n - [1.0, 0.0]).max() < tol and abs(Js - 2.0) < tol
    n, Js = pushforward_normal(np.diag([1.0, 2.0]), np.array([0.0, 1.0]))
    assert np.abs(n - [0.0, 1.0]).max() < tol and abs(Js - 1.0) < tol

    assert abs(mixture_density(1.2e-3, 1e-3, 0.3) - 1.14e-3) < tol

    # 1000 random displacement gradients: J against 2x2 cofactor expansion
    rng = np.random.default_rng(2024)
    G = rng.uniform(-0.3, 0.3, size=(1000, 2, 2))
    F, J, Finv, _ = deformation_state(G)
    Fm = G + np.eye(2)
    J_cof = Fm[:, 0, 0] * Fm[:, 1, 1] - Fm[:, 0, 1] * Fm[:, 1, 0]
    rel = np.abs(J - J_cof) / np.abs(J_cof)
    assert rel.max() < 1e-12
    assert np.abs(F @ Finv - np.eye(2)).max() < 1e-12
    _done(1, t0, 5.0, "1000 dets, worst rel %.1e" % rel.max())


def test_criterion_2_assembly_forms_vs_quadrature_oracle():
    t0 = time.perf_counter()
    worst = {name: fn(50) for name, fn in ALL_FORM_CHECKS}
    assert len(worst) == 7
    offenders = {k: v for k, v in worst.items() if not v < 1e-8}
    assert not offenders, offenders
    _done(2, t0, 60.0, "worst rel err %.1e (%s)"
          % (max(worst.values()), max(worst, key=worst.get)))


def test_criterion_3_stokes_mms():
    t0 = time.perf_counter()
    exact = solve_mms_steady(stokes_polynomial(), 8)
    assert exact["v_f"] < 1e-9 and exact["p_f"] < 1e-9

    hs, errs = mms_spatial_study(stokes_trig(), ns=(8, 16, 32, 64))
    assert all(np.diff(errs["v_f"]) < 0) and all(np.diff(errs["p_f"]) < 0)
    order_v = observed_orders(hs, errs["v_f"])[-1]
    order_p = observed_orders(hs, errs["p_f"])[-1]
    assert abs(order_v - 3.0) <= 0.3
    assert abs(order_p - 2.0) <= 0.3
    _done(3, t0, 120.0, "exact %.1e/%.1e, orders v %.2f p %.2f"
          % (exact["v_f"], exact["p_f"], order_v, order_p))


def test_criterion_4_biot_mms():
    t0 = time.perf_counter()
    hs, errs = mms_spatial_study(biot_trig(), ns=(4, 8, 16, 32))
    order_q = observed_orders(hs, errs["q"])[-1]
    order_p = observed_orders(hs, errs["p_d"])[-1]
    assert order_q >= 1.5
    assert order_p >= 1.5
    _done(4, t0, 120.0, "orders q %.2f p_d %.2f" % (order_q, order_p))


def test_criterion_5_temporal_order():
    t0 = time.perf_counter()
    case = unsteady_fluid()
    orders = {}
    for order, target in ((1, 1.0), (2, 2.0)):
        dts, errs = mms_temporal_study(case, order)
        measured = observed_orders(dts, errs)[-1]
        assert abs(measured - target) <= 0.3, (order, measured)
        orders[order] = measured
    _done(5, t0, 300.0, "BDF1 %.2f BDF2 %.2f" % (orders[1], orders[2]))


def test_criterion_6_energy_dissipation_after_pulse():
    t0 = time.perf_counter()
    mesh = channel_mesh(16)
    params = benchmark_params(K=1e-5)
    detail = []
    for order in (1, 2):
        problem = channel_problem(mesh, params)
        state = State.initial(problem)
        totals = []
        for _ in range(80):
            state, diag = advance_step(problem, state, 1e-4, order=order)
            rep = evaluate_energy(problem, state.fields, diag.geo)
            totals.append((state.t, rep.total))
        totals = np.array(totals)
        post = totals[totals[:, 0] > 3e-3 + 1e-12, 1]
        e_ref = post[0]
        worst = np.diff(post).max()
        assert worst <= 1e-3 * e_ref, (order, worst, e_ref)
        detail.append("BDF%d worst dE %.2e (tol %.2e)" % (order, worst, 1e-3 * e_ref))
    _done(6, t0, 600.0, "; ".join(detail))


def test_criterion_7_penalty_consistency():
    t0 = time.perf_counter()
    lam, mu = lame_from_E_nu(100.0, 0.3)
    params = MaterialParams(rho_f=1e-3, rho_s=1.2e-3, mu_f=3e-3,
                            lam_s=lam, mu_s=mu, phi=0.3, s0=5e-5,
                            K=1e-5, gamma=1.0)
    mesh = channel_mesh(16)
    defects = []
    for scale in (1.0, 10.0, 100.0, 1000.0):
        problem = channel_problem(mesh, params, p_ext=1.0, t_pulse=1e9,
                                  penalty_scale=scale)
        state = State.initial(problem)
        for _ in range(5):
            state, diag = advance_step(problem, state, 1e-3, order=1)
        rep = evaluate_energy(problem, state.fields, diag.geo)
        defects.append(rep.penalty_defect)
    ratios = [defects[i] / defects[i + 1] for i in range(len(defects) - 1)]
    assert all(5.0 <= r <= 20.0 for r in ratios), ratios
    _done(7, t0, 600.0, "defect ratios per decade " +
          "/".join("%.2f" % r for r in ratios))


def test_criterion_8_rest_state_fixed_point():
    t0 = time.perf_counter()
    problem = channel_problem(channel_mesh(8), benchmark_params(), p_ext=0.0)
    state = State.initial(problem)
    worst = 0.0
    for _ in range(10):
        state, _ = advance_step(problem, state, 1e-4, order=2)
        worst = max(worst, max(float(np.abs(v).max())
                               for v in state.fields.values()))
    assert worst < 1e-12
    _done(8, t0, 10.0, "max |dof| %.1e" % worst)


def test_criterion_9_pressure_pulse_qualitative():
    t0 = time.perf_counter()
    mesh = channel_mesh(16)
    dt, n_steps = 1e-4, 120
    probe = np.array(PROBE_POINT)
    wall_x = (10.0, 25.0, 40.0)
    wall_probes = [np.array([x, 5.0]) for x in wall_x]

    curves = {}
    reports = []
    for K in (5e-13, 1e-5):
        problem = channel_problem(mesh, benchmark_params(K=K))
        uspace = problem.spaces["u"]
        pd_space = problem.spaces["p_d"]
        probe_cell = locate_cell(uspace, probe)
        wall_cells = [locate_cell(uspace, p) for p in wall_probes]
        outer = np.asarray(sorted(pd_space.nodes_on_markers((GAMMA_S0,))))
        inner = np.setdiff1d(np.arange(pd_space.num_dofs), outer)

        state = State.initial(problem)
        traj, wall = [], []
        pd_interior_max = -np.inf
        pd_outer_max = 0.0
        for _ in range(n_steps):
            state, _ = advance_step(problem, state, dt, order=1)
            up = eval_at_point(uspace, state.fields["u"], probe,
                               cell_index=probe_cell)
            traj.append([float(up[0]), float(up[1])])
            wall.append([float(eval_at_point(uspace, state.fields["u"], p,
                                             cell_index=c)[1])
                         for p, c in zip(wall_probes, wall_cells)])
            if state.t < 3e-3 + 1e-12:
                pd_interior_max = max(pd_interior_max,
                                      float(state.fields["p_d"][inner].max()))
            pd_outer_max = max(pd_outer_max,
                               float(np.abs(state.fields["p_d"][outer]).max()))
        curves[K] = np.asarray(traj)
        wall = np.asarray(wall)

        # the wall bulge must peak later the further right the probe sits;
        # the pulse attenuates along the way, so only resolvable motion is
        # required at each station (~3e-5 mm measured at x = 40)
        peak_steps = [int(np.argmax(np.abs(wall[:, j]))) for j in range(3)]
        amps = [float(np.abs(wall[:, j]).max()) for j in range(3)]
        assert peak_steps[0] < peak_steps[1] < peak_steps[2], peak_steps
        assert min(amps) > 1e-5, amps

        # drained outer boundary is enforced exactly; interior sign reported
        assert pd_outer_max < 1e-12
        reports.append("K=%g: peaks at steps %s, max interior p_d %.3e %s"
                       % (K, peak_steps, pd_interior_max,
                          "(<= 0)" if pd_interior_max <= 0.0 else "(> 0)"))

    a, b = curves[5e-13], curves[1e-5]
    rel_l2 = np.linalg.norm(a - b) / np.linalg.norm(a)
    reports.append("two-permeability probe relative L2 difference %.3e" % rel_l2)
    _done(9, t0, 1200.0, "; ".join(reports))
