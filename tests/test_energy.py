"""Energy monitor: closed-form values for uniform fields and the step checker."""

from dataclasses import astuple

import numpy as np
import pytest

from fpsi.assembly import build_geometry
from fpsi.energy import evaluate_energy
from fpsi.kinematics import MaterialParams
from fpsi.mesh import FLUID, SOLID
from fpsi.scenarios import benchmark_params, channel_mesh, channel_problem
from fpsi.spaces import interpolate
from fpsi.stepping import State
from tests.test_assembly_forms import make_problem
from tests.test_mesh import two_triangle_mesh

PRM = MaterialParams(rho_f=2.0, rho_s=3.0, mu_f=0.5, lam_s=1.0, mu_s=1.0,
                     phi=0.5, s0=4.0, K=0.25, gamma=2.0)


def uniform_state(prob, **values):
    fields = State.initial(prob).fields
    for name, vec in values.items():
        space = prob.spaces[name if name != "u" and name != "w" else "u"]
        if space.rank == 1:
            fields[name] = np.tile(vec, space.num_scalar_nodes).astype(float)
        else:
            fields[name] = np.full(space.num_dofs, float(vec))
    return fields


def test_uniform_field_closed_forms():
    # unit square split along the diagonal: fluid and solid areas are 1/2,
    # interface length sqrt(2), reference geometry (u~ = 0, J = 1)
    prob = make_problem(two_triangle_mesh((FLUID, SOLID)), params=PRM)
    nu = prob.spaces["u"].num_dofs
    geo = build_geometry(prob, np.zeros(nu))
    fields = uniform_state(prob, v_f=[2.0, 0.0], v_s=[1.0, 0.0], q=[0.0, 3.0],
                           p_d=5.0)
    rep = evaluate_energy(prob, fields, geo)

    area = 0.5
    assert rep.kinetic_fluid == pytest.approx(0.5 * PRM.rho_f * 4.0 * area)
    assert rep.kinetic_solid == pytest.approx(
        0.5 * (1 - PRM.phi) * PRM.rho_s * 1.0 * area)
    # 1/2 phi rho_f |v_s + q/phi|^2 with v_s = (1,0), q/phi = (0,6)
    assert rep.kinetic_mixture == pytest.approx(0.5 * PRM.phi * PRM.rho_f * 37.0 * area)
    assert rep.pressure_storage == pytest.approx(0.5 * PRM.s0 * 25.0 * area)
    assert rep.total == pytest.approx(rep.kinetic_fluid + rep.kinetic_solid
                                      + rep.kinetic_mixture + rep.pressure_storage)
    # uniform velocities: no viscous dissipation, no elastic power
    assert rep.viscous_dissipation == pytest.approx(0.0, abs=1e-14)
    assert rep.elastic_power == pytest.approx(0.0, abs=1e-14)
    assert rep.darcy_dissipation == pytest.approx(9.0 / PRM.K[0, 0] * area)

    # interface: n = (-1,1)/sqrt(2), L = sqrt(2)
    L = np.sqrt(2.0)
    # BJS: P(v_f - v_s) = P(1,0) = (1/2,1/2); quadratic form with K^-1/2 = 2I
    assert rep.bjs_dissipation == pytest.approx(PRM.gamma * L * 2.0 * 0.5)
    # penalty defect: |(v_f - v_s - q).n| = |(1,-3).(-1,1)|/sqrt(2) = 4/sqrt(2)
    assert rep.penalty_defect == pytest.approx(L * 4.0 / np.sqrt(2.0))


def test_zero_state_zero_energy():
    prob = make_problem(two_triangle_mesh((FLUID, SOLID)), params=PRM)
    nu = prob.spaces["u"].num_dofs
    geo = build_geometry(prob, np.zeros(nu))
    rep = evaluate_energy(prob, State.initial(prob).fields, geo)
    assert all(v == 0.0 for v in astuple(rep)) and rep.total == 0.0


def test_viscous_dissipation_linear_shear():
    # v = (y, 0) on the unit fluid square: D = [[0,1/2],[1/2,0]], 2 mu D:D = mu
    from fpsi.scenarios import unit_square_mesh
    prob = make_problem(unit_square_mesh(2), params=PRM)
    nu = prob.spaces["u"].num_dofs
    geo = build_geometry(prob, np.zeros(nu))
    fields = State.initial(prob).fields
    fields["v_f"] = interpolate(prob.spaces["v_f"], lambda X: np.stack(
        [X[:, 1], np.zeros(len(X))], axis=1))
    rep = evaluate_energy(prob, fields, geo)
    assert rep.viscous_dissipation == pytest.approx(PRM.mu_f, rel=1e-12)
    assert rep.kinetic_fluid == pytest.approx(0.5 * PRM.rho_f / 3.0, rel=1e-12)


def test_energy_uses_deformed_volume():
    # a uniform dilation u~ = alpha X scales J by (1+alpha)^2
    prob = make_problem(two_triangle_mesh((FLUID, SOLID)), params=PRM)
    uspace = prob.spaces["u"]
    alpha = 0.3
    ut = interpolate(uspace, lambda X: alpha * X)
    geo = build_geometry(prob, ut)
    fields = uniform_state(prob, v_f=[1.0, 0.0])
    rep = evaluate_energy(prob, fields, geo)
    assert rep.kinetic_fluid == pytest.approx(
        0.5 * PRM.rho_f * 0.5 * (1 + alpha) ** 2, rel=1e-12)


def test_penalty_defect_on_channel():
    # v_f = (0,1), everything else zero: defect = |n_y| integrated over both
    # interface lines = 2 * channel length
    prob = channel_problem(channel_mesh(2), benchmark_params(K=1e-5))
    nu = prob.spaces["u"].num_dofs
    geo = build_geometry(prob, np.zeros(nu))
    fields = uniform_state(prob, v_f=[0.0, 1.0])
    rep = evaluate_energy(prob, fields, geo)
    assert rep.penalty_defect == pytest.approx(100.0, rel=1e-12)
