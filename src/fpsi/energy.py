"""Discrete energy bookkeeping.

All integrals reuse the geometric weights of the step that produced the
state (J~, F~, interface normal and area scaling at the lagged
displacement u~ = u^{k-1}), so the monitor measures the energy the scheme
actually sees, not a reinterpolated one.  The stored energy splits the solid kinetic part
into skeleton and mixture contributions:

    1/2 rho_p |v_s|^2 + rho_f q.v_s + rho_f/(2 phi) |q|^2
        = 1/2 (1-phi) rho_s |v_s|^2 + 1/2 phi rho_f |v_s + q/phi|^2

Dissipation terms are instantaneous rates (Darcy, viscous, slip); the
elastic power is the rate of working of the effective stress; the penalty
defect integrates |(v_f - v_s - q).n| over the interface and measures how
strongly the normal-flux constraint is violated.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

import numpy as np

from .assembly import Geometry, Problem, lagged_stress
from .fem import field_at_qp, grads_at_qp, scalar_at_qp
from .kinematics import matvec2


def _integral(w: np.ndarray, f: np.ndarray) -> float:
    """sum over batches and quadrature points of w[b,q] f[b,q]."""
    return float(np.vdot(w, f))


def _dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """sum of a * b over the component axes after (batch, point), componentwise."""
    return sum(a[(...,) + c] * b[(...,) + c] for c in np.ndindex(a.shape[2:]))


@dataclass
class EnergyReport:
    kinetic_fluid: float = 0.0
    kinetic_solid: float = 0.0
    kinetic_mixture: float = 0.0
    pressure_storage: float = 0.0
    viscous_dissipation: float = 0.0
    darcy_dissipation: float = 0.0
    bjs_dissipation: float = 0.0
    elastic_power: float = 0.0
    penalty_defect: float = 0.0

    @property
    def total(self) -> float:
        return (self.kinetic_fluid + self.kinetic_solid
                + self.kinetic_mixture + self.pressure_storage)


def evaluate_energy(problem: Problem, fields: Dict[str, np.ndarray],
                    geo: Geometry) -> EnergyReport:
    prm = problem.params
    d = problem.dim
    rep = EnergyReport()

    if problem.fluid is not None:
        sub = problem.fluid
        wJ = geo.fluid["wJ"]
        vf = fields["v_f"]
        vq = field_at_qp(sub.val2, sub.nodes2, vf, d)
        rep.kinetic_fluid = 0.5 * prm.rho_f * _integral(wJ, _dot(vq, vq))
        # D = {grad v F~^-1}_s with grad(phi) F~^-1 = G from the geometry
        M = grads_at_qp(geo.fluid["G"], sub.nodes2, vf, d)
        off = 0.5 * (M[..., 0, 1] + M[..., 1, 0])
        DD = M[..., 0, 0] ** 2 + M[..., 1, 1] ** 2 + 2.0 * off ** 2      # D:D, componentwise
        rep.viscous_dissipation = 2.0 * prm.mu_f * _integral(wJ, DD)

    if problem.solid is not None:
        sub = problem.solid
        wJ = geo.solid["wJ"]
        vs = fields["v_s"]
        vsq = field_at_qp(sub.val2, sub.nodes2, vs, d)
        qq = field_at_qp(sub.val2, sub.nodes2, fields["q"], d)
        rep.kinetic_solid = 0.5 * (1.0 - prm.phi) * prm.rho_s * _integral(wJ, _dot(vsq, vsq))
        mix = vsq + qq / prm.phi
        rep.kinetic_mixture = 0.5 * prm.phi * prm.rho_f * _integral(wJ, _dot(mix, mix))
        pdq = scalar_at_qp(sub.val1, sub.nodes1, fields["p_d"])
        rep.pressure_storage = 0.5 * prm.s0 * _integral(wJ, pdq * pdq)
        rep.darcy_dissipation = _integral(wJ, _dot(matvec2(prm.K_inv.T, qq), qq))
        # rate of elastic working: F~ S(E(u_k, u~)) : grad(v_s)
        FS = lagged_stress(problem, geo, fields["u"])
        gvs = grads_at_qp(sub.dphi2, sub.nodes2, vs, d)
        rep.elastic_power = _integral(sub.w, _dot(FS, gvs))

    if problem.iface is not None:
        ftr = problem.iface.fluid
        strc = problem.iface.solid
        wJs = geo.iface["wJs"]
        vfq = field_at_qp(ftr.val2, ftr.nodes2, fields["v_f"], d)
        vsq = field_at_qp(strc.val2, strc.nodes2, fields["v_s"], d)
        qq = field_at_qp(strc.val2, strc.nodes2, fields["q"], d)
        rel = vfq - vsq
        Mrel = matvec2(geo.iface["slip"], rel)
        rep.bjs_dissipation = prm.gamma * _integral(wJs, _dot(rel, Mrel))
        jump = _dot(vfq - vsq - qq, geo.iface["n"])
        rep.penalty_defect = _integral(wJs, np.abs(jump))

    return rep
