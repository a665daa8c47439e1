"""Command-line front end: one way into each job.

    fpsi run <config>          the channel pressure pulse from a config file
    fpsi mms <case> ...        convergence study (stokes, biot, time)
    fpsi check-mesh <path>     load and validate a mesh file
    fpsi version

Exit codes: 0 success, 1 configuration error, 2 runtime/solver error or
usage error (argparse, e.g. `--levels` below 3 or an `--output` below a file).
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import Optional

import numpy as np

from . import __version__
from .assembly import assemble_system
from .config import (RunConfig, load_config, material_params, parse_physical_map,
                     serialize_config)
from .energy import evaluate_energy
from .errors import ConfigError, FpsiError, MeshError
from .mesh import GAMMA_F0, GAMMA_OUT, GAMMA_S0, MARKER_TO_NAME, SOLID, TAG_TO_NAME, load_mesh
from .mms import biot_trig, stokes_polynomial, stokes_trig, unsteady_fluid
from .reporting import (TimeSeries, convergence_table, save_checkpoint, write_matrix,
                        write_state)
from .scenarios import (channel_mesh, channel_problem, mms_spatial_study,
                        mms_temporal_study, solve_mms_steady)
from .spaces import eval_at_point, locate_cell
from .stepping import State, advance_step, scheme_for_step, step_inputs


def _scenario_mesh(cfg: RunConfig):
    src = cfg.source.strip()
    if src.startswith("channel:"):
        try:
            n = int(src.split(":", 1)[1])
        except ValueError:
            raise ConfigError("bad channel resolution in mesh source %r" % src)
        return channel_mesh(n)
    try:
        mesh = load_mesh(src, parse_physical_map(cfg.physical_map))
    except MeshError as exc:
        raise ConfigError("[mesh] source %r is not accepted (%s): use 'channel:<n>' or the "
                          "path of a mesh file (native text or MSH 2.2)" % (src, exc))
    missing = [] if len(mesh.cells_with_tag(SOLID)) else ["SOLID cells"]
    missing += ["%s facets" % MARKER_TO_NAME[m] for m in (GAMMA_F0, GAMMA_OUT, GAMMA_S0)
                if not len(mesh.facets_with_marker(m))]
    if missing:       # the channel run loads GAMMA_F0, opens GAMMA_OUT and clamps GAMMA_S0
        raise ConfigError("[mesh] source %s has no %s" % (src, ", ".join(missing)))
    return mesh


def run_scenario(cfg: RunConfig, quiet: bool = False) -> None:
    """The channel run of `cfg`: the inlet pulse p_ext over (0, t_pulse)."""
    mesh = _scenario_mesh(cfg)
    params = material_params(cfg)
    problem = channel_problem(mesh, params, p_ext=cfg.p_ext, t_pulse=cfg.t_pulse,
                              penalty_scale=cfg.penalty_scale)

    probe = np.array([cfg.probe_x, cfg.probe_y])
    uspace = problem.spaces["u"]
    try:
        probe_cell = locate_cell(uspace, probe)
    except ValueError:
        raise ConfigError("probe point (probe_x, probe_y) = (%g, %g) lies outside the mesh"
                          % (cfg.probe_x, cfg.probe_y))
    try:
        os.makedirs(cfg.output_dir, exist_ok=True)
    except OSError as exc:      # a file is in the way
        raise ConfigError("output_dir = %s: cannot make the directory: %s"
                          % (cfg.output_dir, exc.strerror))
    # relative output paths lie under output_dir
    checkpoint = cfg.checkpoint and os.path.join(cfg.output_dir, cfg.checkpoint)
    dump_matrix = cfg.dump_matrix and os.path.join(cfg.output_dir, cfg.dump_matrix)
    for key, path in (("checkpoint", checkpoint), ("dump_matrix", dump_matrix)):
        if path and not os.path.isdir(os.path.dirname(path) or "."):
            raise ConfigError("%s = %s: directory %s does not exist"
                              % (key, getattr(cfg, key), os.path.dirname(path)))
        if path and os.path.isdir(path):
            raise ConfigError("%s = %s: %s is a directory" % (key, getattr(cfg, key), path))
    series = TimeSeries()
    state = State.initial(problem)
    n_steps = int(round(cfg.t_end / cfg.dt))

    def snapshot(k):
        write_state(os.path.join(cfg.output_dir, "step_%06d.vtk" % k),
                    problem, state.fields, title="t=%.6e" % state.t)

    if cfg.output_every > 0:
        snapshot(0)
    if dump_matrix:
        # the matrix of step 1, which reuses the record this assembly builds
        inp = step_inputs(problem, state, scheme_for_step(cfg.order, 1), cfg.dt)
        write_matrix(dump_matrix, assemble_system(problem, inp).A)
    for k in range(1, n_steps + 1):
        state, diag = advance_step(problem, state, cfg.dt, cfg.order)
        rep = evaluate_energy(problem, state.fields, diag.geo)
        diag = None            # release the step's geometry before the next step
        up = eval_at_point(uspace, state.fields["u"], probe, cell_index=probe_cell)
        series.append(state.t, float(up[0]), float(up[1]), rep)
        if cfg.output_every > 0 and k % cfg.output_every == 0:
            snapshot(k)
        if not quiet and (k % max(1, n_steps // 10) == 0 or k == n_steps):
            print("step %d/%d  t=%.4e  E=%.6e" % (k, n_steps, state.t, rep.total))

    series.save(os.path.join(cfg.output_dir, "timeseries.csv"))
    if checkpoint:
        save_checkpoint(checkpoint, state,
                        meta={"scenario": cfg.scenario, "dt": cfg.dt, "order": cfg.order})
    if not quiet:
        print("wrote %s" % os.path.join(cfg.output_dir, "timeseries.csv"))


def stokes_report(levels: int) -> str:
    exact = solve_mms_steady(stokes_polynomial(), 8)
    lines = ["Stokes, solution inside the FE space (n=8):"]
    lines.append("  v_f error %.3e   p_f error %.3e" % (exact["v_f"], exact["p_f"]))
    lines.append("")
    ns = [4 * 2 ** i for i in range(levels)]
    hs, errors = mms_spatial_study(stokes_trig(), ns)
    lines.append("Stokes, trig solution, velocity:")
    lines.append(convergence_table(hs, errors["v_f"]))
    lines.append("")
    lines.append("Stokes, trig solution, pressure:")
    lines.append(convergence_table(hs, errors["p_f"]))
    return "\n".join(lines)


def biot_report(levels: int) -> str:
    ns = [4 * 2 ** i for i in range(levels)]
    hs, errors = mms_spatial_study(biot_trig(), ns)
    lines = []
    for field, label in (("v_s", "displacement"), ("q", "filtration flux"),
                         ("p_d", "pore pressure")):
        lines.append("Poroelastic system, %s:" % label)
        lines.append(convergence_table(hs, errors[field]))
        lines.append("")
    return "\n".join(lines).rstrip()


def time_report(levels: int, orders) -> str:
    case = unsteady_fluid()
    lines = []
    for order in orders:
        dts, errors = mms_temporal_study(case, order, levels=levels)
        lines.append("BDF%d temporal convergence (velocity L2 at T):" % order)
        lines.append(convergence_table(dts, errors, step_label="dt"))
        lines.append("")
    return "\n".join(lines).rstrip()


def cmd_mms(args) -> None:
    """Run one convergence study and write it to <output>/convergence.txt;
    the time study runs BDF1 and BDF2."""
    if args.case == "stokes":
        text = stokes_report(args.levels)
    elif args.case == "biot":
        text = biot_report(args.levels)
    else:
        text = time_report(args.levels, (1, 2))
    os.makedirs(args.output, exist_ok=True)
    path = os.path.join(args.output, "convergence.txt")
    with open(path, "w") as fh:
        fh.write(text + "\n")
    print(text)
    print("wrote %s" % path)


def level_count(text: str) -> int:
    """`--levels`: an observed order needs three levels or more."""
    levels = int(text)
    if levels < 3:
        raise argparse.ArgumentTypeError("need >= 3 levels for observed orders, got %d" % levels)
    return levels


def output_directory(text: str) -> str:
    """`--output`: a directory, or a path below one where one can be made."""
    path = os.path.abspath(text)
    while not os.path.exists(path):
        path = os.path.dirname(path)
    if not os.path.isdir(path):
        raise argparse.ArgumentTypeError("%s is not a directory" % path)
    return text


def cmd_check_mesh(args) -> None:
    mesh = load_mesh(args.path, parse_physical_map(args.physical_map))
    tags = {TAG_TO_NAME[int(t)]: int((mesh.cell_tags == t).sum())
            for t in np.unique(mesh.cell_tags)}
    marks = {MARKER_TO_NAME[int(m)]: int((mesh.facet_markers == m).sum())
             for m in np.unique(mesh.facet_markers)}
    print("mesh ok: %d vertices, %d cells (dim %d)"
          % (mesh.num_vertices, mesh.num_cells, mesh.dim))
    print("  cells per subdomain: %s" % tags)
    print("  marked facets: %s" % marks)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fpsi",
        description="Monolithic fluid / poroelastic-structure interaction solver")
    sub = parser.add_subparsers(dest="command")

    p_run = sub.add_parser("run", help="run a scenario from a config file")
    p_run.add_argument("config", help="path to the config file")
    p_run.add_argument("--quiet", action="store_true")

    p_mms = sub.add_parser("mms", help="manufactured-solution convergence study")
    p_mms.add_argument("case", choices=("stokes", "biot", "time"))
    p_mms.add_argument("--levels", type=level_count, default=3,
                       help="number of refinement levels (>= 3)")
    p_mms.add_argument("--output", type=output_directory, default=".")

    p_chk = sub.add_parser("check-mesh", help="validate a mesh file")
    p_chk.add_argument("path")
    p_chk.add_argument("--physical-map", default="",
                       help="'1:FLUID,2:SOLID,...' for .msh files")

    sub.add_parser("version", help="print the package version")

    sub.add_parser("config-template", help="print a default config file")
    return parser


def main(argv: Optional[list] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command is None:
        parser.print_help()
        return 1
    try:
        if args.command == "run":
            run_scenario(load_config(args.config), quiet=args.quiet)
        elif args.command == "mms":
            cmd_mms(args)
        elif args.command == "check-mesh":
            cmd_check_mesh(args)
        elif args.command == "version":
            print(__version__)
        elif args.command == "config-template":
            print(serialize_config(RunConfig()))
    except ConfigError as exc:
        print("config error: %s" % exc, file=sys.stderr)
        return 1
    except FpsiError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
