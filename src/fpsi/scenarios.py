"""Built-in meshes and scenario setup.

The channel scenario is a 2D analogue of flow in a compliant tube: a fluid
rectangle 50 x 10 mm with 1 mm poroelastic strips on top and bottom.  The
left fluid edge carries the external pressure pulse as a natural boundary
term, the right edge is a do-nothing outlet, the outer strip edges and strip
ends are clamped and drained (v_s = 0, p_d = 0), and the two horizontal lines
y = +-5 form the coupling interface.  The benchmark's materials, pulse,
penalty and probe are the defaults of `config.RunConfig`, the run `fpsi run`
makes; they are mm-g-s values, and 1 Pa = 1 g/(mm s^2) in this system.

Manufactured-solution problems run on a unit square occupied by a single
subdomain, loading forcing terms from mms.MmsCase.  They stay in the
reference configuration (u = 0): the fluid case has no solid to move its
mesh, and the steady solves take the reference geometry.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Dict

import numpy as np

from .assembly import DirichletBC, PressureLoad, Problem, build_problem
from .config import RunConfig, material_params
from .errors import MeshError
from .kinematics import MaterialParams
from .mesh import (FLUID, GAMMA_F0, GAMMA_FS, GAMMA_OUT, GAMMA_S0, SOLID, Mesh,
                   validate_mesh)
from .mms import MmsCase
from .spaces import error_L2, interpolate
from .stepping import State, run_transient, solve_steady

# inner wall, half the channel length
PROBE_POINT = (RunConfig.probe_x, RunConfig.probe_y)


def benchmark_params(K=float(RunConfig.K)) -> MaterialParams:
    """The channel benchmark's materials, `RunConfig`'s defaults, with permeability K."""
    return replace(material_params(RunConfig()), K=K)


# ---------------------------------------------------------------------------
# Mesh generators
# ---------------------------------------------------------------------------

def _structured_grid(xs: np.ndarray, ys: np.ndarray, rows, cols):
    """Triangulated tensor grid xs x ys and its facets on whole grid lines.

    Vertex (i, j) sits at (xs[i], ys[j]) and has id j * len(xs) + i.  Each
    grid cell, in row-major order, splits along its diagonal into
    (v00, v10, v11) and (v00, v11, v01).  The facets on the horizontal lines
    j in `rows` are listed column by column, the lines in the given order
    within a column; then the facets on the vertical lines i in `cols`,
    row by row the same way.  Returns (vertices, cells, facets).
    """
    nx, ny = len(xs) - 1, len(ys) - 1
    ids = np.arange((ny + 1) * (nx + 1), dtype=np.int64).reshape(ny + 1, nx + 1)
    X, Y = np.meshgrid(xs, ys)
    v00, v10, v01, v11 = ids[:-1, :-1], ids[:-1, 1:], ids[1:, :-1], ids[1:, 1:]
    cells = np.stack([v00, v10, v11, v00, v11, v01], axis=-1).reshape(-1, 3)
    row_facets = np.stack([ids[rows, :-1], ids[rows, 1:]], axis=-1).transpose(1, 0, 2)
    col_facets = np.stack([ids[:-1, cols], ids[1:, cols]], axis=-1)
    facets = np.concatenate([row_facets.reshape(-1, 2), col_facets.reshape(-1, 2)])
    return np.column_stack([X.ravel(), Y.ravel()]), cells, facets


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
    V, cells, facets = _structured_grid(xs, xs, [0, n], [0, n])
    mesh = Mesh(vertices=V, cells=cells,
                cell_tags=np.full(len(cells), tag, dtype=np.int64),
                facets=facets,
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
    # per column: outer strip edges y = -6, +6, then the interface lines y = -5, +5;
    # per row: the left and right ends
    V, cells, facets = _structured_grid(xs, ys, [0, ny, m, m + n], [0, nx])
    rows = np.arange(ny)
    solid = (rows < m) | (rows >= m + n)
    ends = np.column_stack([np.where(solid, GAMMA_S0, GAMMA_F0),
                            np.where(solid, GAMMA_S0, GAMMA_OUT)])
    mesh = Mesh(vertices=V, cells=cells,
                cell_tags=np.repeat(np.where(solid, SOLID, FLUID), 2 * nx).astype(np.int64),
                facets=facets,
                facet_markers=np.concatenate([
                    np.tile([GAMMA_S0, GAMMA_S0, GAMMA_FS, GAMMA_FS], nx),
                    ends.ravel()]).astype(np.int64))
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


def _zero_vec(X, _t=None):
    return np.zeros((np.atleast_2d(X).shape[0], 2))


def _zero_scalar(X, _t=None):
    return np.zeros(np.atleast_2d(X).shape[0])


def channel_problem(mesh: Mesh, params: MaterialParams, *,
                    p_ext: float = RunConfig.p_ext, t_pulse: float = RunConfig.t_pulse,
                    penalty_scale: float = RunConfig.penalty_scale) -> Problem:
    """Pressure-wave problem on a channel mesh.

    A negative p_ext gives a suction pulse; with p_ext = 0 nothing loads
    the channel, and a run from rest stays at rest."""
    bcs = [DirichletBC("v_s", (GAMMA_S0,), _zero_vec),
           DirichletBC("p_d", (GAMMA_S0,), _zero_scalar)]
    loads = [PressureLoad(GAMMA_F0, pulse_schedule(p_ext, t_pulse))]
    return build_problem(mesh, params, penalty_scale=penalty_scale,
                         dirichlet=bcs, loads=loads,
                         open_markers=(GAMMA_F0, GAMMA_OUT))


# ---------------------------------------------------------------------------
# Manufactured-solution problems and studies
# ---------------------------------------------------------------------------

def mms_problem(case: MmsCase, n: int) -> Problem:
    if case.subdomain == "fluid":
        mesh = unit_square_mesh(n, "fluid")
        bcs = [DirichletBC("v_f", (GAMMA_F0,), case.exact["v_f"])]
        # p_f node 0 is vertex 0: a P1 space numbers its vertices in ascending order
        coord = mesh.vertices[0:1]
        exact_p = case.exact["p_f"]
        return build_problem(mesh, case.params, dirichlet=bcs, forcing=case.forcing,
                             pin_pf=(0, lambda t: float(np.atleast_1d(exact_p(coord, t))[0])))
    mesh = unit_square_mesh(n, "solid")
    bcs = [DirichletBC("v_s", (GAMMA_S0,), case.exact["v_s"]),
           DirichletBC("p_d", (GAMMA_S0,), case.exact["p_d"])]
    return build_problem(mesh, case.params, dirichlet=bcs, forcing=case.forcing)


def solve_mms_steady(case: MmsCase, n: int) -> Dict[str, float]:
    """One steady MMS solve; returns L2 errors keyed by field."""
    prob = mms_problem(case, n)
    fields, _ = solve_steady(prob)
    return {name: error_L2(prob.spaces[name], fields[name], fn)
            for name, fn in case.exact.items()}


def mms_spatial_study(case: MmsCase, ns):
    """L2 errors per field over a sequence of mesh resolutions."""
    errors: Dict[str, list] = {name: [] for name in case.exact}
    for n in ns:
        errs = solve_mms_steady(case, n)
        for name, e in errs.items():
            errors[name].append(e)
    hs = [1.0 / n for n in ns]
    return hs, errors


def solve_mms_time(case: MmsCase, n: int, dt: float, n_steps: int,
                   order: int) -> float:
    """Velocity L2 error at T = n_steps * dt for the unsteady case."""
    prob = mms_problem(case, n)
    init = {
        "v_f": interpolate(prob.spaces["v_f"], lambda X: case.exact["v_f"](X, 0.0)),
        "p_f": interpolate(prob.spaces["p_f"], lambda X: case.exact["p_f"](X, 0.0)),
    }
    state = State.initial(prob, fields=init)
    state = run_transient(prob, dt, order, n_steps, state=state)
    t_end = state.t
    return error_L2(prob.spaces["v_f"], state.fields["v_f"],
                    lambda X: case.exact["v_f"](X, t_end))


def mms_temporal_study(case: MmsCase, order: int, levels: int = 4):
    """Errors over dt halvings from 0.02 on the 8 x 8 mesh, to T = 0.32."""
    dts, errors = [], []
    for lev in range(levels):
        dt = 0.02 / 2 ** lev
        errors.append(solve_mms_time(case, 8, dt, 16 * 2 ** lev, order))
        dts.append(dt)
    return dts, errors
