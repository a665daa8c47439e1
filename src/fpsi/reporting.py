"""Convergence tables and probe time series."""

from __future__ import annotations

from typing import List, Sequence

import numpy as np

from .energy import EnergyReport
from .errors import FpsiError

TIMESERIES_COLUMNS = (
    "t", "ux_probe", "ur_probe",
    "kinetic_fluid", "kinetic_solid", "kinetic_mixture", "pressure_storage",
    "viscous_dissipation", "darcy_dissipation", "bjs_dissipation",
    "elastic_power", "total_energy", "penalty_defect",
)


def observed_orders(steps: Sequence[float], errors: Sequence[float]) -> List[float]:
    """Orders log(e_i/e_{i+1}) / log(h_i/h_{i+1}); needs >= 3 levels."""
    steps = np.asarray(steps, dtype=float)
    errors = np.asarray(errors, dtype=float)
    if steps.shape != errors.shape:
        raise FpsiError("steps and errors differ in length")
    if len(steps) < 3:
        raise FpsiError("need >= 3 levels for observed orders, got %d" % len(steps))
    if np.any(np.diff(steps) >= 0.0):
        raise FpsiError("refinement input must be strictly decreasing")
    ratios = steps[:-1] / steps[1:]
    with np.errstate(divide="ignore"):
        orders = np.log(errors[:-1] / errors[1:]) / np.log(ratios)
    return [float(o) for o in orders]


def convergence_table(steps: Sequence[float], errors: Sequence[float],
                      step_label: str = "h") -> str:
    orders = observed_orders(steps, errors)
    lines = ["%-14s %-12s %s" % (step_label, "L2 error", "order")]
    for i, (s, e) in enumerate(zip(steps, errors)):
        tail = "-" if i == 0 else "%.2f" % orders[i - 1]
        lines.append("%-14.6e %-12.6e %s" % (s, e, tail))
    return "\n".join(lines)


class TimeSeries:
    """Per-step probe displacement and energy budget, saved as CSV."""

    def __init__(self):
        self.rows: List[tuple] = []

    def append(self, t: float, ux: float, ur: float, report: EnergyReport) -> None:
        self.rows.append((
            t, ux, ur,
            report.kinetic_fluid, report.kinetic_solid, report.kinetic_mixture,
            report.pressure_storage, report.viscous_dissipation,
            report.darcy_dissipation, report.bjs_dissipation,
            report.elastic_power, report.total, report.penalty_defect,
        ))

    def column(self, name: str) -> np.ndarray:
        idx = TIMESERIES_COLUMNS.index(name)
        return np.array([row[idx] for row in self.rows])

    def save(self, path: str) -> None:
        with open(path, "w") as fh:
            fh.write(",".join(TIMESERIES_COLUMNS) + "\n")
            for row in self.rows:
                fh.write(",".join("%.17g" % v for v in row) + "\n")

    @classmethod
    def load(cls, path: str) -> "TimeSeries":
        out = cls()
        with open(path) as fh:
            header = fh.readline().strip().split(",")
            if tuple(header) != TIMESERIES_COLUMNS:
                raise FpsiError("unexpected time-series header in %s" % path)
            for line in fh:
                if line.strip():
                    out.rows.append(tuple(float(v) for v in line.split(",")))
        return out
