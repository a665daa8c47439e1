"""One benchmark workload, run in its own process by run.py.

    python3 perfbench/workload.py --workload NAME --seed N --seconds S \
        --trace 0|1 --out RESULT.json

Each workload is a closed loop over "units": one call of a public entry point
of fpsi (`cli.run_scenario`, `cli.time_report`, or the pair of
`scenarios.mms_spatial_study` calls), started when the previous one returned.
Units repeat while at least half of another one fits in `--seconds`.

Untraced runs (`--trace 0`) wrap only what the end-to-end metrics need: the
step function (step times, set-up boundary, failures), `solve` (residuals for
the output check) and, for the MMS studies, case derivation and
`build_problem` (set-up time).  Set-up is also sampled several times outside
the measured loop, and `setup_s` is the median of all samples.

Traced runs (`--trace 1`) run one untraced unit and then one unit with a span
around every layer entry point, and report per-layer self times, counts and
the tracing overhead.  Spans are written to the result file at the end.

Every span is timed with one `speed.SpeedClock` and its times are then mapped
onto the clock's reference-speed axis, so all reported times are seconds at
the reference speed of the host (see speed.py); raw seconds and the measured
speed go to the result file.
"""

from __future__ import annotations

import argparse
import glob
import json
import math
import os
import random
import re
import resource
import shutil
import statistics
import sys
import time
from collections import defaultdict

import numpy as np
import scipy
import sympy

import fpsi
from fpsi import cli, config, mms, reporting, scenarios
from fpsi.errors import FpsiError
from fpsi.solver import RESIDUAL_TOL

from speed import SpeedClock
from tracer import Span, Tracer, qualified_name, self_times, summarize

HERE = os.path.dirname(os.path.abspath(__file__))
DT = 1e-4
P_EXT_RANGE = (1.0e3, 1.6e3)        # g/(mm s^2); the scenario default is 1.333e3
REFERENCE_SEED = 0
MAX_ENERGY_RISE = 1e-3              # acceptance criterion 6, per step, of E_ref

SOLVE = "solver.solve"
BUILD = "assembly.build_problem"
CASE = "mms.case"

# Span roles by parent: the same entry point serves the monolithic system
# and the mesh extension.
ROLES = {
    SOLVE: {"stepping.advance_step": "system", "stepping.solve_steady": "system",
            "stepping.solve_extension": "extension"},
    "assembly.apply_dirichlet": {"assembly.assemble_system": "system",
                                 "stepping.solve_extension": "extension"},
}

# Targets are the names as the calling module looks them up.
STEP_LAYERS = [
    ("fpsi.stepping.assemble_system", "assembly.assemble_system"),
    ("fpsi.assembly.build_geometry", "assembly.build_geometry"),
    ("fpsi.assembly.apply_dirichlet", "assembly.apply_dirichlet"),
    ("fpsi.stepping.apply_dirichlet", "assembly.apply_dirichlet"),
    ("fpsi.stepping.solve", SOLVE),
    ("fpsi.stepping.solve_extension", "stepping.solve_extension"),
    ("fpsi.stepping.extension_stiffness", "stepping.extension_stiffness"),
    ("fpsi.stepping.check_deformation", "stepping.check_deformation"),
]
CHANNEL_LAYERS = [
    ("fpsi.cli.advance_step", "stepping.advance_step"),
    ("fpsi.cli.channel_mesh", "mesh.generate"),
    ("fpsi.scenarios.build_problem", BUILD),
    ("fpsi.cli.evaluate_energy", "energy.evaluate_energy"),
    ("fpsi.cli.eval_at_point", "spaces.eval_at_point"),
    ("fpsi.cli.write_state", "vtk_io.write_state"),
    ("fpsi.reporting.TimeSeries.save", "reporting.timeseries_save"),
] + STEP_LAYERS
MMS_LAYERS = [
    ("fpsi.scenarios.unit_square_mesh", "mesh.generate"),
    ("fpsi.scenarios.build_problem", BUILD),
    ("fpsi.scenarios.error_L2", "spaces.error_L2"),
] + STEP_LAYERS


def _observe_solve(span, args, result):
    A = args[0]
    rep = result[1]
    span.meta.update(n=int(A.shape[0]), nnz=int(A.nnz),
                     residual=float(rep.residual), refined=float(rep.refined))


def _observe_vtk(span, args, result):
    span.meta["bytes"] = float(os.path.getsize(args[0]))


OBSERVERS = {SOLVE: _observe_solve, "vtk_io.write_state": _observe_vtk}


class SetupDone(Exception):
    """Raised in place of the first step to time set-up alone."""


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------

class Workload:
    name = ""
    step = "stepping.advance_step"
    layers: list = []
    setup_spans: tuple = ()         # empty: set-up ends where the first step starts
    setup_reps = 0
    mean_step = False               # one step sample per unit: its mean step time

    def __init__(self, seed: int, work: str, clock: SpeedClock = None):
        self.seed = seed
        self.work = work
        self.clock = clock or SpeedClock()
        self.inputs = self.make_inputs(random.Random(seed))

    def make_inputs(self, rng) -> dict:
        return {"seed_used": False}

    def untraced_layers(self):
        keep = {self.step, SOLVE, BUILD, CASE}
        return [(t, n) for t, n in self.layers if n in keep]

    def unit(self, tracer: Tracer, k: int) -> dict:
        raise NotImplementedError

    def setup_only(self) -> float:
        """Set-up alone, once, in seconds at the reference speed."""
        raise NotImplementedError

    def check(self, out: dict) -> list:
        raise NotImplementedError


class Channel16Pulse(Workload):
    """`cli.run_scenario` on a generated pressure-wave config."""

    name = "channel16_pulse"
    mesh = "channel:16"
    order = 2
    K = 1e-5
    n_steps = 20
    output_every = 10
    pulse_steps = (2, 3, 4)         # whole steps under load, drawn by the seed
    layers = CHANNEL_LAYERS
    setup_reps = 8

    def make_inputs(self, rng) -> dict:
        k = rng.choice(self.pulse_steps)
        return {"seed_used": True,
                "p_ext": rng.uniform(*P_EXT_RANGE),
                # off-grid so no step time sits on the switch-off instant
                "t_pulse": DT * (k + rng.uniform(0.2, 0.8))}

    def config_text(self, outdir: str) -> str:
        lines = ["[run]", "scenario = pressure_wave_2d", "order = %d" % self.order,
                 "dt = %r" % DT, "t_end = %r" % (self.n_steps * DT),
                 "output_dir = %s" % outdir, "output_every = %d" % self.output_every,
                 "[mesh]", "source = %s" % self.mesh,
                 "[material]", "K = %r" % self.K,
                 "[forcing]", "p_ext = %r" % self.inputs["p_ext"],
                 "t_pulse = %r" % self.inputs["t_pulse"]]
        return "\n".join(lines) + "\n"

    def _load(self, k: int):
        outdir = os.path.join(self.work, "unit%d" % k)
        os.makedirs(outdir, exist_ok=True)
        path = os.path.join(outdir, "run.ini")
        with open(path, "w") as fh:
            fh.write(self.config_text(outdir))
        return config.load_config(path), outdir

    def unit(self, tracer, k):
        cfg, outdir = self._load(k)
        tracer.call("cli.run_scenario", cli.run_scenario, cfg, quiet=True)
        series = reporting.TimeSeries.load(os.path.join(outdir, "timeseries.csv"))
        vtk = sorted(glob.glob(os.path.join(outdir, "step_*.vtk")))
        out = {"t": series.column("t").tolist(),
               "total_energy": series.column("total_energy").tolist(),
               "ux_probe": series.column("ux_probe").tolist(),
               "ur_probe": series.column("ur_probe").tolist(),
               "vtk_files": len(vtk),
               "residual_tol": cfg.residual_tol}
        shutil.rmtree(outdir)
        return out

    def setup_only(self):
        cfg, outdir = self._load(-1)
        original = cli.advance_step

        def stop(*args, **kwargs):
            raise SetupDone(self.clock())

        cli.advance_step = stop
        try:
            t0 = self.clock()
            cli.run_scenario(cfg, quiet=True)
        except SetupDone as done:
            span = Span("setup", t0, done.args[0])
            to_reference_speed(self.clock, [span])
            return span.duration
        finally:
            cli.advance_step = original
            shutil.rmtree(outdir)
        raise RuntimeError("run_scenario returned without taking a step")

    def check(self, out):
        checks = []
        n = len(out["t"])
        checks.append(("csv_rows", n == self.n_steps, "%d rows, %d steps" % (n, self.n_steps)))
        want_vtk = self.n_steps // self.output_every + 1
        checks.append(("vtk_files", out["vtk_files"] == want_vtk,
                       "%d files, expected %d" % (out["vtk_files"], want_vtk)))
        finite = all(math.isfinite(v) for key in ("total_energy", "ux_probe", "ur_probe")
                     for v in out[key])
        checks.append(("finite", finite, "energy and probe series finite"))
        post = [e for t, e in zip(out["t"], out["total_energy"])
                if t > self.inputs["t_pulse"] + 1e-12]
        if len(post) < 2:
            checks.append(("energy_decay", False, "fewer than 2 post-pulse steps"))
        else:
            worst = max(b - a for a, b in zip(post, post[1:]))
            tol = MAX_ENERGY_RISE * post[0]
            checks.append(("energy_decay", worst <= tol,
                           "worst post-pulse rise %.3e, allowed %.3e" % (worst, tol)))
        if self.seed == REFERENCE_SEED:
            ref = load_reference()[self.name]
            for key in ("total_energy", "ux_probe", "ur_probe"):
                checks.append(compare_series(key, out[key], ref[key]))
        return checks


class MmsTime(Workload):
    """`cli.time_report(levels=4, orders=(1, 2))`; the seed is not used."""

    name = "mms_time"
    layers = [("fpsi.cli.unsteady_fluid", CASE),
              ("fpsi.stepping.advance_step", "stepping.advance_step")] + MMS_LAYERS
    setup_spans = (CASE, BUILD)
    setup_reps = 8
    levels = 4
    orders = (1, 2)

    def unit(self, tracer, k):
        sympy.core.cache.clear_cache()
        text = tracer.call("cli.time_report", cli.time_report,
                           levels=self.levels, orders=self.orders)
        return {"tables": parse_tables(text), "residual_tol": RESIDUAL_TOL}

    def setup_only(self):
        # the set-up calls time_report makes: one case, one problem per run
        sympy.core.cache.clear_cache()
        with Tracer(clock=self.clock) as tr:
            tr.patch("fpsi.scenarios.build_problem", BUILD)
            case = tr.call(CASE, mms.unsteady_fluid)
            for _ in range(self.levels * len(self.orders)):
                scenarios.mms_problem(case, 8)
        to_reference_speed(self.clock, tr.spans)
        return sum(s.duration for s in tr.spans)

    def check(self, out):
        checks = []
        for order, (dts, errs) in zip(self.orders, out["tables"]):
            got = reporting.observed_orders(dts, errs)[-1]
            checks.append(("bdf%d_order" % order, abs(got - order) <= 0.3,
                           "observed %.3f, band %d +- 0.3" % (got, order)))
        ref = load_reference()[self.name]
        for order, (_, errs) in zip(self.orders, out["tables"]):
            key = "bdf%d" % order
            checks.append(compare_series(key, errs, ref[key]))
        return checks


class MmsSteady(Workload):
    """`scenarios.mms_spatial_study` for the Stokes and Biot trig cases."""

    name = "mms_steady"
    step = "stepping.solve_steady"
    layers = [("fpsi.scenarios.solve_steady", "stepping.solve_steady")] + MMS_LAYERS
    setup_spans = (CASE, BUILD)
    setup_reps = 1
    # Criterion 3 goes on to n = 64, whose single LU (21M fill) took 2.7-3.4 s
    # between identical runs; the orders are already in band at 16 -> 32.
    studies = (("stokes_trig", (8, 16, 32)), ("biot_trig", (4, 8, 16, 32)))
    # The solves differ in size, so a per-solve median lands on whichever
    # mid-size solve sorts into the middle; sample the mean solve instead.
    mean_step = True

    def _study(self, tracer):
        errors = {}
        for case_name, ns in self.studies:
            case = tracer.call(CASE, mms.CASES[case_name])
            hs, errs = scenarios.mms_spatial_study(case, ns)
            errors[case_name] = {"h": hs, "errors": errs,
                                 "orders": {f: reporting.observed_orders(hs, e)
                                            for f, e in errs.items()}}
        return errors

    def unit(self, tracer, k):
        sympy.core.cache.clear_cache()
        errors = tracer.call("mms_steady.study", self._study, tracer)
        return {"studies": errors, "residual_tol": RESIDUAL_TOL}

    def setup_only(self):
        sympy.core.cache.clear_cache()
        with Tracer(clock=self.clock) as tr:
            tr.patch("fpsi.scenarios.build_problem", BUILD)
            for case_name, ns in self.studies:
                case = tr.call(CASE, mms.CASES[case_name])
                for n in ns:
                    scenarios.mms_problem(case, n)
        to_reference_speed(self.clock, tr.spans)
        return sum(s.duration for s in tr.spans)

    def check(self, out):
        st = out["studies"]
        checks = []
        stokes = st["stokes_trig"]
        for f, target, band in (("v_f", 3.0, 0.3), ("p_f", 2.0, 0.3)):
            errs = stokes["errors"][f]
            got = stokes["orders"][f][-1]
            mono = all(b < a for a, b in zip(errs, errs[1:]))
            checks.append(("stokes_%s_order" % f, mono and abs(got - target) <= band,
                           "observed %.3f, band %.0f +- %.1f, decreasing %s"
                           % (got, target, band, mono)))
        biot = st["biot_trig"]
        for f in ("q", "p_d"):
            got = biot["orders"][f][-1]
            checks.append(("biot_%s_order" % f, got >= 1.5, "observed %.3f, band >= 1.5" % got))
        ref = load_reference()[self.name]
        for case_name, _ in self.studies:
            for f, errs in st[case_name]["errors"].items():
                key = "%s.%s" % (case_name, f)
                checks.append(compare_series(key, errs, ref[key]))
        return checks


WORKLOADS = {w.name: w for w in (Channel16Pulse, MmsTime, MmsSteady)}


# ---------------------------------------------------------------------------
# Output checks
# ---------------------------------------------------------------------------

def load_reference() -> dict:
    with open(os.path.join(HERE, "reference.json")) as fh:
        return json.load(fh)


def compare_series(key, got, ref):
    """Agreement with a reference series, relative to its largest magnitude.

    Each reference tolerance is 20-100x the deviation seen when every solve is
    replaced by one whose relative residual is 0.9e-9 in a random direction,
    so any solve meeting the 1e-9 residual bound in that way passes.
    """
    rtol = ref["rtol"]
    got = np.asarray(got, dtype=float)
    ref = np.asarray(ref["values"], dtype=float)
    if got.shape != ref.shape:
        return ("ref_" + key, False, "shape %s vs reference %s" % (got.shape, ref.shape))
    scale = float(np.abs(ref).max())
    err = float(np.abs(got - ref).max()) / scale if scale > 0 else float(np.abs(got).max())
    return ("ref_" + key, err <= rtol, "max rel deviation %.2e, allowed %.1e" % (err, rtol))


_ROW = re.compile(r"^\s*([0-9.eE+-]+)\s+([0-9.eE+-]+)\s+(\S+)\s*$")


def parse_tables(text: str):
    """(steps, errors) of each convergence table in a report."""
    tables = []
    for block in text.strip().split("\n\n"):
        rows = [_ROW.match(line) for line in block.splitlines()[2:]]
        tables.append(([float(m.group(1)) for m in rows],
                       [float(m.group(2)) for m in rows]))
    return tables


def solve_checks(spans, tol) -> list:
    res = [s.meta["residual"] for s in spans if s.name == SOLVE and "residual" in s.meta]
    worst = max(res) if res else math.nan
    return [("solve_residuals", bool(res) and worst <= tol,
             "%d solves, worst residual %.2e, allowed %.1e" % (len(res), worst, tol))]


# ---------------------------------------------------------------------------
# Running units and reducing spans to metrics
# ---------------------------------------------------------------------------

def to_reference_speed(clock: SpeedClock, spans) -> None:
    """Move span times from the raw clock onto its reference-speed axis."""
    clock.calibrate()               # bound the last interval
    for s in spans:
        s.start, s.end = clock.normal(s.start), clock.normal(s.end)


def run_unit(wl: Workload, layers, k: int):
    """One unit under a fresh tracer; returns (unit record, tracer)."""
    tracer = Tracer(step_names=(wl.step,), observers=OBSERVERS, clock=wl.clock)
    with tracer:
        for target, name in layers:
            tracer.patch(target, name)
        error = None
        try:
            out = wl.unit(tracer, k)
        except FpsiError as exc:
            if not tracer.spans:        # failed before reaching fpsi's entry point
                raise
            out, error = None, "%s: %s" % (type(exc).__name__, exc)
    spans = tracer.spans
    root = spans[0]
    raw_wall = root.duration
    raw_step = [s.duration for s in spans if s.name == wl.step and not s.failed]
    to_reference_speed(wl.clock, spans)
    steps = [s for s in spans if s.name == wl.step]
    if wl.setup_spans:
        setup = sum(s.duration for s in spans if s.name in wl.setup_spans)
    else:
        setup = (steps[0].start if steps else root.end) - root.start
    checks = [("unit_completed", error is None, error or "ok")]
    if out is not None:
        checks += solve_checks(spans, out["residual_tol"]) + wl.check(out)
    step_s = [s.duration for s in steps if not s.failed]
    if wl.mean_step and step_s:
        step_s = [sum(step_s) / len(step_s)]
        raw_step = [sum(raw_step) / len(raw_step)]
    record = {"wall_s": root.duration, "setup_s": setup, "step_s": step_s,
              "raw_wall_s": raw_wall, "raw_step_s": raw_step,
              "attempted": len(steps), "failed": sum(s.failed for s in steps),
              "outputs": out,
              "checks": [{"name": n, "ok": bool(ok), "detail": d} for n, ok, d in checks]}
    return record, tracer


def end_to_end(units, setups) -> dict:
    st = summarize([d for u in units for d in u["step_s"]])
    done = sum(u["attempted"] - u["failed"] for u in units)
    busy = sum(u["wall_s"] - u["setup_s"] for u in units)
    return {"wall_s": statistics.median(u["wall_s"] for u in units),
            "setup_s": statistics.median(setups),
            "step_s.p50": st["p50"], "step_s.tail": st["tail"],
            "steps_per_s": done / busy}, st


def layer_metrics(wl: Workload, tracer: Tracer) -> dict:
    spans = tracer.spans
    selfs = self_times(spans)
    total, own = defaultdict(float), defaultdict(float)
    for i, s in enumerate(spans):
        q = qualified_name(spans, i, ROLES)
        total[q] += s.duration
        own[q] += selfs[i]
    steps = max(sum(s.name == wl.step for s in spans), 1)
    solves = {role: [s.meta for i, s in enumerate(spans)
                     if qualified_name(spans, i, ROLES) == "%s.%s" % (SOLVE, role)]
              for role in ("system", "extension")}
    all_solves = solves["system"] + solves["extension"]
    per_step = lambda key: total[key] / steps
    return {
        "assembly.build_geometry_s": per_step("assembly.build_geometry"),
        "assembly.assemble_system.self_s": own["assembly.assemble_system"] / steps,
        "assembly.apply_dirichlet.system_s": per_step("assembly.apply_dirichlet.system"),
        "assembly.apply_dirichlet.extension_s": per_step("assembly.apply_dirichlet.extension"),
        "assembly.build_problem_s": total[BUILD],
        "mesh.generate_s": total["mesh.generate"],
        "mms.case_s": total[CASE],
        "assembly.ndof": max((m["n"] for m in solves["system"]), default=0),
        "assembly.nnz": max((m["nnz"] for m in solves["system"]), default=0),
        "stepping.extension_nnz": max((m["nnz"] for m in solves["extension"]), default=0),
        "solver.solve.system_s": per_step(SOLVE + ".system"),
        "solver.solve.extension_s": per_step(SOLVE + ".extension"),
        "solver.calls": len(all_solves),
        "solver.refined_frac": (sum(m["refined"] for m in all_solves) / len(all_solves)
                                if all_solves else 0.0),
        "solver.residual_max": max((m["residual"] for m in all_solves), default=0.0),
        "stepping.extension_stiffness_s": per_step("stepping.extension_stiffness"),
        "stepping.solve_extension.self_s": own["stepping.solve_extension"] / steps,
        "stepping.check_deformation_s": per_step("stepping.check_deformation"),
        "stepping.advance_step.self_s": own["stepping.advance_step"] / steps,
        "stepping.solve_steady.self_s": own["stepping.solve_steady"] / steps,
        "energy.evaluate_energy_s": per_step("energy.evaluate_energy"),
        "spaces.eval_at_point_s": per_step("spaces.eval_at_point"),
        "spaces.error_L2_s": per_step("spaces.error_L2"),
        "vtk_io.write_state_s": per_step("vtk_io.write_state"),
        "vtk_io.bytes": sum(s.meta.get("bytes", 0.0) for s in spans),
        "reporting.timeseries_save_s": per_step("reporting.timeseries_save"),
        "trace.layer_share": 1.0 - own[wl.step] / max(total[wl.step], 1e-300),
    }


def step_accounting(wl: Workload, tracer: Tracer) -> float:
    """Largest |step duration - sum of self times in its subtree|."""
    spans = tracer.spans
    selfs = self_times(spans)
    inside = defaultdict(float)
    for i, s in enumerate(spans):
        j = i
        while j is not None:
            if spans[j].name == wl.step:
                inside[j] += selfs[i]
                break
            j = spans[j].parent
    return max((abs(spans[j].duration - v) for j, v in inside.items()), default=0.0)


def measure(wl: Workload, seconds: float, trace: bool) -> dict:
    setups, units, tracers = [], [], []
    if trace:
        # one untraced unit as the overhead reference, then one traced unit
        for layers in (wl.untraced_layers(), wl.layers):
            rec, tr = run_unit(wl, layers, len(units))
            units.append(rec)
            tracers.append(tr)
    else:
        setups = [wl.setup_only() for _ in range(wl.setup_reps)]
        t0 = time.perf_counter()
        while True:
            rec, tr = run_unit(wl, wl.untraced_layers(), len(units))
            units.append(rec)
            elapsed = time.perf_counter() - t0
            if not rec["checks"][0]["ok"]:
                break
            if elapsed + 0.5 * elapsed / len(units) > seconds:
                break
        setups += [u["setup_s"] for u in units]
    checks = [c for u in units for c in u["checks"]]
    result = {"units": units, "setup_samples": setups,
              "attempted": sum(u["attempted"] for u in units),
              "failed": sum(u["failed"] for u in units)}
    if all(u["step_s"] for u in units):
        if trace:
            plain, traced = units
            metrics = layer_metrics(wl, tracers[1])
            metrics["trace.step_s"] = summarize(traced["step_s"])["p50"]
            metrics["trace.overhead_s"] = (metrics["trace.step_s"]
                                           - summarize(plain["step_s"])["p50"])
            gap = step_accounting(wl, tracers[1])
            checks.append({"name": "self_times_cover_steps", "ok": gap <= 1e-9,
                           "detail": "worst gap %.2e s" % gap})
            result["spans"] = [vars(s) for s in tracers[1].spans]
        else:
            metrics, steps = end_to_end(units, setups)
            result["steps"] = steps
            result["raw"] = {
                "wall_s": statistics.median(u["raw_wall_s"] for u in units),
                "step_s.p50": summarize([d for u in units for d in u["raw_step_s"]])["p50"]}
        result["metrics"] = metrics
    result["checks"] = checks
    result["correct"] = bool(checks) and all(c["ok"] for c in checks) and "metrics" in result
    return result


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--out", required=True)
    args = ap.parse_args(argv)

    work = os.path.join(os.path.dirname(os.path.abspath(args.out)),
                        "work_%s_%d" % (args.workload, os.getpid()))
    os.makedirs(work, exist_ok=True)
    clock = SpeedClock()
    wl = WORKLOADS[args.workload](args.seed, work, clock)
    try:
        result = measure(wl, args.seconds, bool(args.trace))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    result.update({
        "speed": {"relative": clock.speed(), "calibrations": len(clock.kernel_s),
                  "kernel_s_median": statistics.median(clock.kernel_s),
                  "calibration_s": clock.hidden},
        "workload": wl.name, "seed": args.seed, "inputs": wl.inputs,
        "trace": args.trace, "fpsi_file": fpsi.__file__,
        "versions": {"python": sys.version.split()[0], "numpy": np.__version__,
                     "scipy": scipy.__version__, "sympy": sympy.__version__,
                     "fpsi": fpsi.__version__},
        "child_maxrss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    })
    with open(args.out, "w") as fh:
        json.dump(result, fh, indent=1, default=float)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
