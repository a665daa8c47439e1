"""Built-in meshes and scenario setup.

The channel scenario is a 2D analogue of flow in a compliant tube: a fluid
rectangle 50 x 10 mm with 1 mm poroelastic strips on top and bottom.  The
left fluid edge carries the external pressure pulse as a natural boundary
term, the right edge is a do-nothing outlet, the outer strip edges and strip
ends are clamped and drained (v_s = 0, p_d = 0), and the two horizontal lines
y = +-5 form the coupling interface.  Default material parameters are the
mm-g-s values of the tube benchmark; note 1 Pa = 1 g/(mm s^2) in this system.

Manufactured-solution problems run on a unit square occupied by a single
subdomain with the geometry frozen (u = 0), loading forcing terms from
mms.MmsCase.
"""

from __future__ import annotations

from typing import Dict, Optional

import numpy as np

from .assembly import DirichletBC, PressureLoad, Problem, build_problem
from .errors import MeshError
from .kinematics import MaterialParams, lame_from_E_nu
from .mesh import (FLUID, GAMMA_F0, GAMMA_FS, GAMMA_OUT, GAMMA_S0, SOLID, Mesh,
                   validate_mesh)
from .mms import MmsCase
from .spaces import error_L2, interpolate
from .stepping import State, run_transient, solve_steady

PROBE_POINT = (25.0, 5.0)   # inner wall, half the channel length

# channel benchmark materials (mm-g-s): E = 3e5, nu = 0.3
_LAM_S, _MU_S = lame_from_E_nu(3.0e5, 0.3)


def benchmark_params(K=5e-13, gamma: float = 1.0) -> MaterialParams:
    return MaterialParams(rho_f=1e-3, rho_s=1.2e-3, mu_f=3e-3,
                          lam_s=_LAM_S, mu_s=_MU_S,
                          phi=0.3, s0=5e-5, K=K, gamma=gamma)


# ---------------------------------------------------------------------------
# Mesh generators
# ---------------------------------------------------------------------------

def unit_square_mesh(n: int, subdomain: str = "fluid") -> Mesh:
    """Structured unit square, single subdomain, whole boundary marked."""
    if n < 1:
        raise MeshError("resolution must be at least 1")
    if subdomain == "fluid":
        tag, marker = FLUID, GAMMA_F0
    elif subdomain == "solid":
        tag, marker = SOLID, GAMMA_S0
    else:
        raise MeshError("subdomain must be 'fluid' or 'solid'")
    xs = np.linspace(0.0, 1.0, n + 1)
    V = np.array([(x, y) for y in xs for x in xs])

    def vid(i, j):
        return j * (n + 1) + i

    cells, facets = [], []
    for j in range(n):
        for i in range(n):
            v00, v10 = vid(i, j), vid(i + 1, j)
            v01, v11 = vid(i, j + 1), vid(i + 1, j + 1)
            cells.append((v00, v10, v11))
            cells.append((v00, v11, v01))
    for i in range(n):
        facets.append((vid(i, 0), vid(i + 1, 0)))
        facets.append((vid(i, n), vid(i + 1, n)))
    for j in range(n):
        facets.append((vid(0, j), vid(0, j + 1)))
        facets.append((vid(n, j), vid(n, j + 1)))
    mesh = Mesh(vertices=V,
                cells=np.array(cells, dtype=np.int64),
                cell_tags=np.full(len(cells), tag, dtype=np.int64),
                facets=np.array(facets, dtype=np.int64),
                facet_markers=np.full(len(facets), marker, dtype=np.int64))
    validate_mesh(mesh)
    return mesh


def channel_mesh(n: int) -> Mesh:
    """The 2D channel: fluid 50 x 10 mm, poroelastic strips 1 mm thick.

    n counts cell rows across the fluid height; the strips get
    m = max(1, round(n/10)) rows so cells stay close to isotropic.
    """
    if not (2 <= n <= 128):
        raise MeshError("channel resolution n must lie in [2, 128], got %d" % n)
    m = max(1, int(round(n / 10)))
    nx = 5 * n
    xs = np.linspace(0.0, 50.0, nx + 1)
    ys = np.concatenate([
        np.linspace(-6.0, -5.0, m + 1)[:-1],
        np.linspace(-5.0, 5.0, n + 1)[:-1],
        np.linspace(5.0, 6.0, m + 1),
    ])
    ny = len(ys) - 1       # = 2m + n rows

    V = np.empty(((ny + 1) * (nx + 1), 2))
    for j, y in enumerate(ys):
        V[j * (nx + 1):(j + 1) * (nx + 1), 0] = xs
        V[j * (nx + 1):(j + 1) * (nx + 1), 1] = y

    def vid(i, j):
        return j * (nx + 1) + i

    def row_tag(j):
        return SOLID if (j < m or j >= m + n) else FLUID

    cells, tags = [], []
    for j in range(ny):
        for i in range(nx):
            v00, v10 = vid(i, j), vid(i + 1, j)
            v01, v11 = vid(i, j + 1), vid(i + 1, j + 1)
            cells.append((v00, v10, v11))
            cells.append((v00, v11, v01))
            tags.extend((row_tag(j), row_tag(j)))

    facets, markers = [], []
    for i in range(nx):                      # outer strip edges
        facets.append((vid(i, 0), vid(i + 1, 0)))
        markers.append(GAMMA_S0)
        facets.append((vid(i, ny), vid(i + 1, ny)))
        markers.append(GAMMA_S0)
        for j in (m, m + n):                 # interface lines y = -5, +5
            facets.append((vid(i, j), vid(i + 1, j)))
            markers.append(GAMMA_FS)
    for j in range(ny):                      # vertical boundary segments
        solid = row_tag(j) == SOLID
        facets.append((vid(0, j), vid(0, j + 1)))
        markers.append(GAMMA_S0 if solid else GAMMA_F0)
        facets.append((vid(nx, j), vid(nx, j + 1)))
        markers.append(GAMMA_S0 if solid else GAMMA_OUT)

    mesh = Mesh(vertices=V,
                cells=np.array(cells, dtype=np.int64),
                cell_tags=np.array(tags, dtype=np.int64),
                facets=np.array(facets, dtype=np.int64),
                facet_markers=np.array(markers, dtype=np.int64))
    validate_mesh(mesh)
    return mesh


# ---------------------------------------------------------------------------
# Channel scenarios
# ---------------------------------------------------------------------------

def pulse_schedule(p_ext: float, t_pulse: float):
    """Inlet pressure: p_ext on the open interval (0, t_pulse), zero after."""
    def pulse(t: float) -> float:
        return p_ext if 0.0 < t < t_pulse else 0.0
    return pulse


def _zero_vec(X, t=None):
    return np.zeros((np.atleast_2d(X).shape[0], 2))


def _zero_scalar(X, t=None):
    return np.zeros(np.atleast_2d(X).shape[0])


def channel_problem(mesh: Mesh, params: MaterialParams, *,
                    p_ext: float = 1.333e3, t_pulse: float = 3e-3,
                    sign_pext: float = 1.0,
                    penalty_scale: float = 1.0,
                    penalty_const: Optional[float] = None,
                    quad_degree: int = 6) -> Problem:
    """Pressure-wave (or, with p_ext = 0, decay) problem on a channel mesh."""
    bcs = [DirichletBC("v_s", (GAMMA_S0,), _zero_vec),
           DirichletBC("p_d", (GAMMA_S0,), _zero_scalar)]
    loads = []
    if p_ext != 0.0:
        loads.append(PressureLoad(GAMMA_F0, pulse_schedule(p_ext, t_pulse), sign_pext))
    return build_problem(mesh, params, quad_degree=quad_degree,
                         penalty_scale=penalty_scale, penalty_const=penalty_const,
                         dirichlet=bcs, loads=loads,
                         open_markers=(GAMMA_F0, GAMMA_OUT))


# ---------------------------------------------------------------------------
# Manufactured-solution problems and studies
# ---------------------------------------------------------------------------

def mms_problem(case: MmsCase, n: int, quad_degree: int = 6) -> Problem:
    if case.subdomain == "fluid":
        mesh = unit_square_mesh(n, "fluid")
        bcs = [DirichletBC("v_f", (GAMMA_F0,), case.exact["v_f"])]
        prob = build_problem(mesh, case.params, quad_degree=quad_degree,
                             include_inertia=case.time_dependent,
                             frozen_geometry=True, dirichlet=bcs,
                             forcing=case.forcing, pin_pf=None)
        coord = prob.spaces["p_f"].node_coords[0:1]
        exact_p = case.exact["p_f"]
        prob.pin_pf = (0, lambda t: float(np.atleast_1d(exact_p(coord, t))[0]))
    else:
        mesh = unit_square_mesh(n, "solid")
        bcs = [DirichletBC("v_s", (GAMMA_S0,), case.exact["v_s"]),
               DirichletBC("p_d", (GAMMA_S0,), case.exact["p_d"])]
        prob = build_problem(mesh, case.params, quad_degree=quad_degree,
                             frozen_geometry=True, dirichlet=bcs,
                             forcing=case.forcing)
    return prob


def solve_mms_steady(case: MmsCase, n: int, quad_degree: int = 6) -> Dict[str, float]:
    """One steady MMS solve; returns L2 errors keyed by field."""
    prob = mms_problem(case, n, quad_degree)
    fields, _ = solve_steady(prob)
    return {name: error_L2(prob.spaces[name], fields[name], fn)
            for name, fn in case.exact.items()}


def mms_spatial_study(case: MmsCase, ns=(4, 8, 16, 32), quad_degree: int = 6):
    """L2 errors per field over a sequence of mesh resolutions."""
    errors: Dict[str, list] = {name: [] for name in case.exact}
    for n in ns:
        errs = solve_mms_steady(case, n, quad_degree)
        for name, e in errs.items():
            errors[name].append(e)
    hs = [1.0 / n for n in ns]
    return hs, errors


def solve_mms_time(case: MmsCase, n: int, dt: float, n_steps: int,
                   order: int, quad_degree: int = 6) -> float:
    """Velocity L2 error at T = n_steps * dt for the unsteady case."""
    prob = mms_problem(case, n, quad_degree)
    init = {
        "v_f": interpolate(prob.spaces["v_f"], lambda X: case.exact["v_f"](X, 0.0)),
        "p_f": interpolate(prob.spaces["p_f"], lambda X: case.exact["p_f"](X, 0.0)),
    }
    state = State.initial(prob, fields=init)
    state = run_transient(prob, dt, order, n_steps, state=state)
    t_end = state.t
    return error_L2(prob.spaces["v_f"], state.fields["v_f"],
                    lambda X: case.exact["v_f"](X, t_end))


def mms_temporal_study(case: MmsCase, order: int, n: int = 8,
                       dt0: float = 0.02, n_steps0: int = 16, levels: int = 4):
    """Errors over dt halvings at fixed mesh and fixed end time."""
    dts, errors = [], []
    for lev in range(levels):
        dt = dt0 / 2 ** lev
        errors.append(solve_mms_time(case, n, dt, n_steps0 * 2 ** lev, order))
        dts.append(dt)
    return dts, errors
