"""Command-line front end: one way into each job.

    fpsi run <config>          the channel pressure pulse from a config file
    fpsi mms <case> ...        convergence study (stokes, biot, time)
    fpsi check-mesh <path>     load and validate a mesh file
    fpsi version

Exit codes: 0 success, 1 configuration error, 2 runtime/solver error or
usage error (argparse, e.g. `--levels` below 3).
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import Optional

import numpy as np

from . import __version__
from .config import (RunConfig, default_config_text, load_config, material_params,
                     parse_physical_map)
from .energy import evaluate_energy
from .errors import ConfigError, FpsiError
from .mesh import TAG_TO_NAME, MARKER_TO_NAME, load_mesh
from .mms import biot_trig, stokes_polynomial, stokes_trig, unsteady_fluid
from .reporting import TimeSeries, convergence_table
from .scenarios import (channel_mesh, channel_problem, mms_spatial_study,
                        mms_temporal_study, solve_mms_steady)
from .spaces import eval_at_point, locate_cell
from .stepping import State, advance_step, save_checkpoint
from .vtk_io import write_state


def _scenario_mesh(cfg: RunConfig):
    src = cfg.source.strip()
    if src.startswith("channel:"):
        try:
            n = int(src.split(":", 1)[1])
        except ValueError:
            raise ConfigError("bad channel resolution in mesh source %r" % src)
        return channel_mesh(n)
    if src.startswith("square:"):
        raise ConfigError("mesh source %r is not accepted: use 'channel:<n>' or the "
                          "path of a mesh file (native text or MSH 2.2)" % src)
    return load_mesh(src, parse_physical_map(cfg.physical_map))


def run_scenario(cfg: RunConfig, quiet: bool = False) -> None:
    """The channel run of `cfg`: the inlet pulse p_ext over (0, t_pulse)."""
    mesh = _scenario_mesh(cfg)
    params = material_params(cfg)
    problem = channel_problem(mesh, params, p_ext=cfg.p_ext, t_pulse=cfg.t_pulse,
                              penalty_scale=cfg.penalty_scale)
    problem.solver_rtol = cfg.residual_tol

    probe = np.array([cfg.probe_x, cfg.probe_y])
    uspace = problem.spaces["u"]
    try:
        probe_cell = locate_cell(uspace, probe)
    except ValueError:
        raise ConfigError("probe point (probe_x, probe_y) = (%g, %g) lies outside the mesh"
                          % (cfg.probe_x, cfg.probe_y))
    os.makedirs(cfg.output_dir, exist_ok=True)
    # relative output paths lie under output_dir
    checkpoint = cfg.checkpoint and os.path.join(cfg.output_dir, cfg.checkpoint)
    dump_matrix = cfg.dump_matrix and os.path.join(cfg.output_dir, cfg.dump_matrix)
    for key, path in (("checkpoint", checkpoint), ("dump_matrix", dump_matrix)):
        if path and not os.path.isdir(os.path.dirname(path) or "."):
            raise ConfigError("%s = %s: directory %s does not exist"
                              % (key, getattr(cfg, key), os.path.dirname(path)))
    series = TimeSeries()
    state = State.initial(problem)
    n_steps = int(round(cfg.t_end / cfg.dt))

    def snapshot(k):
        write_state(os.path.join(cfg.output_dir, "step_%06d.vtk" % k),
                    problem, state.fields, title="t=%.6e" % state.t)

    if cfg.output_every > 0:
        snapshot(0)
    for k in range(1, n_steps + 1):
        dump = dump_matrix if k == 1 else None
        state, diag = advance_step(problem, state, cfg.dt, cfg.order, dump_matrix=dump)
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


def cmd_check_mesh(args) -> None:
    pm = parse_physical_map(args.physical_map) if args.physical_map else None
    mesh = load_mesh(args.path, pm)
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
    p_mms.add_argument("--output", default=".")

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
            print(default_config_text())
    except ConfigError as exc:
        print("config error: %s" % exc, file=sys.stderr)
        return 1
    except FpsiError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
