"""Semi-implicit BDF stepping with explicit geometry.

Each step k:
  1. take the geometry from the displacement at level k-1 and extrapolate the
     fluid and domain velocities from levels k-1, k-2 (first order for BDF1,
     second order for BDF2),
  2. assemble and solve the monolithic system for (v_f, v_s, q, p_f, p_d),
  3. solve for the domain velocity w on the displacement space: v_s on
     every solid node, zero on the outer fluid boundary, and one Lame-type
     operator per problem, assembled in the reference configuration, on the
     fluid cells (`extension_stiffness`),
  4. take the displacement u^k = beta w^k + the BDF history of u
     (`StepInputs.u_impl_hist`): the BDF identity  [du/dt]^k = w^k, and on
     the solid, where w = v_s, the very displacement of the step's elastic
     form,
  5. build the geometry of the updated configuration, which rejects the
     step if any cell or facet inverts, and carry it on the new state into
     the next step's item 1 (`State.geo`).

A problem without a solid has nothing to move its mesh: it skips items 3-5
and hands the geometry of its reference configuration on from state to
state.  A problem without fluid cells skips item 3's solve: its w is v_s.
BDF2 takes its first step with BDF1 (no older history exists).

Each matrix of items 2 and 3 has one record, its assembly pattern
(`Problem.patterns`, a `fem.SparsePattern`), built whole at its first
assembly: the structure with its Dirichlet dofs eliminated, the scatter of
the element entries into it and the LU elimination order
(`fem.entity_order`).  It also holds the previous step's LU: a solve
(`solver.solve(A, b, record, x0)`) preconditions flexible GMRES with that
LU and factors afresh only when the Krylov steps stop contracting.  The
system solve starts from the BDF predictor of the unknowns (`extrapolate`
of levels k-1, k-2) with the step's boundary values at the fixed dofs.  The
system LU is dropped when the scheme changes (BDF2's first BDF2 step),
whose matrix differs in its mass terms.

The extension's record also keeps its eliminated matrix (`A`) and the lift
values of its Dirichlet columns (`lift`), assembled at the first step in
the reference configuration.  The fluid mesh motion is a free choice of
the method: any extension of the interface trace that keeps the cells valid
gives the same continuous problem, so one operator serves every step.  Each
step, the first included, forms the right-hand side of its solid velocity
from the lift (`fem.dirichlet_rhs`) and solves from zero, so the held LU is
the LU of that very matrix, factored once.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

import numpy as np

from .assembly import (Geometry, Problem, StepInputs, assemble_system, check_deformation,
                       fluid_geometry)
from .errors import FpsiError
from .fem import SparsePattern, apply_dirichlet, dirichlet_rhs, gradient_gram, last_set
from .mesh import GAMMA_F0, GAMMA_OUT
from .solver import SolveReport, solve
from .spaces import transfer_nodes


@dataclass(frozen=True)
class Scheme:
    order: int
    a0: float
    a1: float
    a2: float
    e1: float
    e2: float


BDF1 = Scheme(1, 1.0, -1.0, 0.0, 1.0, 0.0)
BDF2 = Scheme(2, 1.5, -2.0, 0.5, 2.0, -1.0)


def scheme_for_step(order: int, k: int) -> Scheme:
    """BDF scheme at step k (1-based); BDF2 starts itself with one BDF1 step."""
    if order not in (1, 2):
        raise FpsiError("order must be 1 or 2, got %r" % order)
    if order == 2 and k >= 2:
        return BDF2
    return BDF1


def extrapolate(sch: Scheme, f1, f2):
    """Predicted value at level k from the two previous levels."""
    return sch.e1 * np.asarray(f1, dtype=float) + sch.e2 * np.asarray(f2, dtype=float)


# ---------------------------------------------------------------------------
# State
# ---------------------------------------------------------------------------

@dataclass
class State:
    """Solution at level k (`fields`) plus level k-1 (`prev`) for BDF2.

    geo is the geometry of fields["u"]; None until the first step from this
    state builds it, so a new or restored state builds nothing up front."""

    k: int
    t: float
    fields: Dict[str, np.ndarray]
    prev: Dict[str, np.ndarray]
    geo: Optional[Geometry] = None

    @classmethod
    def initial(cls, problem: Problem, fields: Optional[Dict[str, np.ndarray]] = None) -> "State":
        base = problem.zero_fields()
        if fields:
            for name, vec in fields.items():
                if name not in base:
                    raise FpsiError("unknown initial field %r" % name)
                if vec.shape != base[name].shape:
                    raise FpsiError("initial field %r has wrong size" % name)
                base[name] = np.asarray(vec, dtype=float).copy()
        return cls(k=0, t=0.0, fields=base, prev={n: v.copy() for n, v in base.items()})


@dataclass
class StepDiagnostics:
    scheme: Scheme
    system: SolveReport               # monolithic solve: residual, passes, fresh LU
    extension: Optional[SolveReport]  # mesh-extension solve; None if the mesh is fixed
    geo: Geometry                     # geometry the step assembled in
    jmin: float                       # smallest cell J of the new configuration


def step_inputs(problem: Problem, state: State, sch: Scheme, dt: float) -> StepInputs:
    """The assembler's inputs for the step from `state`, in its geometry,
    which is built here if the state has none yet."""
    if state.geo is None:
        state.geo = check_deformation(problem, state.fields["u"])[0]
    f1, f2 = state.fields, state.prev
    hist = {name: sch.a1 * f1[name] + sch.a2 * f2[name] for name in problem.layout.names}
    nu = problem.spaces["u"].num_dofs
    if problem.solid is None:
        u_impl_hist = np.zeros(nu)
        w_tilde = None
    else:
        # The displacement is never extrapolated past level k-1: the step's
        # geometry is that of u~ = u1.  The elastic stress is linearized
        # about u~, so only half the strain is implicit; with the two-level
        # predictor 2u1 - u2 the stiff elastic limit amplifies by
        # |z| = 1 + sqrt(2) per step regardless of dt.  With u~ = u1 the same
        # limit is neutral and viscosity damps it.
        u_impl_hist = -(sch.a1 * f1["u"] + sch.a2 * f2["u"]) / sch.a0
        w_tilde = extrapolate(sch, f1["w"], f2["w"])
    vf_tilde = extrapolate(sch, f1["v_f"], f2["v_f"]) if "v_f" in f1 else None
    return StepInputs(t=state.t + dt, dt=dt, a0=sch.a0,
                      geo=state.geo, u_impl_hist=u_impl_hist, hist=hist,
                      vf_tilde=vf_tilde, w_tilde=w_tilde)


# ---------------------------------------------------------------------------
# Mesh extension: a fixed Lame-type lift of the solid velocity
# ---------------------------------------------------------------------------

def extension_stiffness(problem: Problem, fluid: dict):
    """Lame-type extension operator on the fluid cells' dofs of the
    displacement space, as the list of element blocks (rows, cols, values)
    of the "extension" matrix.

    Element moduli are mu_m = mu_s |cell|^-1.2, with the cell volume taken
    in the configuration of the fluid geometry `fluid`
    (`assembly.fluid_geometry`), and lambda_m = 16 mu_m, so small cells
    are stiffer.  The operator is
    mu_m [delta_ab Gi.Gj + Gj_a Gi_b] + lambda_m Gi_a Gj_b.  Its moduli are
    constant per cell, so it is mu_m (visc + 16 gram) from the geometry's
    viscous operator (the viscous block's too) and the gradient Gram
    (`fem.gradient_gram`) formed here.  `solve_extension` builds it once per
    problem, in the reference configuration.
    """
    sub = problem.fluid
    d = problem.dim
    wJ, G = fluid["wJ"], fluid["G"]
    nc, nloc = G.shape[:2]
    mu_m = problem.params.mu_s * wJ.sum(axis=1) ** -1.2

    elem = 16.0 * gradient_gram(wJ, G)
    elem += fluid["visc"]
    elem *= mu_m[:, None, None, None, None]

    dofs = (sub.nodes_u[:, :, None] * d + np.arange(d)).reshape(nc, -1)
    return [(dofs, dofs, elem.reshape(nc, nloc * d, nloc * d))]


def _extension_dofs(problem: Problem):
    """Dirichlet dofs of the extension and their positions in the step's
    value list, found at its first assembly.

    The value list is v_s followed by one zero, so `take` gathers v_s on
    every solid node of the displacement space, the interface included,
    and the zero for the outer fluid boundary."""
    u_space, vs_space = problem.spaces["u"], problem.spaces["v_s"]
    src, dst = transfer_nodes(vs_space, u_space)
    # Outer fluid boundary is clamped; corners shared with the solid are
    # clamped too (the solid is clamped there, so v_s is zero anyway).
    outer = u_space.dofs_of_nodes(u_space.nodes_on_markers((GAMMA_F0, GAMMA_OUT)))
    dofs, last = last_set(np.concatenate([u_space.dofs_of_nodes(dst), outer]))
    take = np.concatenate([vs_space.dofs_of_nodes(src),
                           np.full(len(outer), vs_space.num_dofs, dtype=np.int64)])[last]
    return dofs, take


def solve_extension(problem: Problem, v_s: np.ndarray):
    """Domain velocity w on the displacement space: v_s on every solid
    node, zero on the outer fluid boundary, the extension operator on the
    fluid cells in between.  Returns (w, SolveReport); w takes its fixed
    values exactly.

    The operator is assembled and its Dirichlet dofs eliminated once per
    problem, at its first call, in the reference configuration of the fluid
    cells alone (`assembly.fluid_geometry`).  The record keeps the
    eliminated matrix (`A`) and its lift values (`lift`), so every call,
    the first included, only forms the right-hand side of the step's
    boundary values (`fem.dirichlet_rhs`) and solves.  It drops what only
    an assembly reads: the scatter and its own CSR structure."""
    pattern = problem.patterns.get("extension")
    if pattern is None:
        nu = problem.spaces["u"].num_dofs
        blocks = extension_stiffness(problem, fluid_geometry(problem, np.zeros(nu)))
        pattern = SparsePattern(nu, blocks, problem.entity_keys(("u",)),
                                *_extension_dofs(problem))
        pattern.A, pattern.lift = apply_dirichlet(pattern, blocks)
        pattern.scatter = pattern.indices = pattern.indptr = None
        problem.patterns["extension"] = pattern
    b = dirichlet_rhs(pattern, pattern.lift, np.zeros(pattern.n), np.append(v_s, 0.0))
    w, rep = solve(pattern.A, b, pattern)
    w[pattern.dofs] = b[pattern.dofs]
    return w, rep


# ---------------------------------------------------------------------------
# Stepping
# ---------------------------------------------------------------------------

def advance_step(problem: Problem, state: State, dt: float, order: int):
    """One semi-implicit step; returns (new_state, diagnostics).  An
    FpsiError raised in it keeps its type and attributes (cell, residual),
    and its message gains the prefix "step k failed: "."""
    k = state.k + 1
    try:
        sch = scheme_for_step(order, k)
        inp = step_inputs(problem, state, sch, dt)
        system = assemble_system(problem, inp)
        pattern = problem.patterns["system"]
        if state.k >= 1 and scheme_for_step(order, state.k) != sch:
            # the mass terms change with the scheme: the held LU is of another matrix
            pattern.lu = None
        # the BDF predictor, at the step's boundary values, starts a held LU's solve
        x0 = np.concatenate([extrapolate(sch, state.fields[name], state.prev[name])
                             for name in system.layout.names])
        x0[pattern.dofs] = system.b[pattern.dofs]
        x, rep = solve(system.A, system.b, pattern, x0=x0)
        fields = system.layout.split(x)
        system = None              # the step matrix is not held next to the new geometry

        ext = None
        if problem.solid is None:
            nu = problem.spaces["u"].num_dofs
            fields["u"], fields["w"] = np.zeros(nu), np.zeros(nu)
            geo, jmin = inp.geo, 1.0   # u = 0: the reference configuration, F = I
        else:
            if problem.fluid is None:
                # the solid fills the mesh: v_s numbers its nodes as u does
                w = fields["v_s"].copy()
            else:
                w, ext = solve_extension(problem, fields["v_s"])
            fields["u"], fields["w"] = inp.beta * w + inp.u_impl_hist, w
            geo, jmin = check_deformation(problem, fields["u"])

        new_state = State(k=k, t=state.t + dt, fields=fields, prev=state.fields, geo=geo)
        diag = StepDiagnostics(scheme=sch, system=rep, extension=ext, geo=inp.geo, jmin=jmin)
        return new_state, diag
    except FpsiError as exc:
        exc.args = ("step %d failed: %s" % (k, exc),) + exc.args[1:]
        raise


def run_transient(problem: Problem, dt: float, order: int, n_steps: int,
                  state: Optional[State] = None) -> State:
    if state is None:
        state = State.initial(problem)
    for _ in range(n_steps):
        state = advance_step(problem, state, dt, order)[0]
    return state


def solve_steady(problem: Problem):
    """One steady solve at t = 0 (no mass terms, beta = 1, reference geometry).

    The matrix is solved once, so its LU is not kept."""
    system = assemble_system(problem, StepInputs.steady(problem))
    pattern = problem.patterns["system"]
    x, rep = solve(system.A, system.b, pattern)
    pattern.lu = None
    return system.layout.split(x), rep
