"""Run output: legacy VTK snapshots, probe time series, convergence tables,
Matrix Market dumps and npz checkpoints.

A snapshot is legacy VTK (ASCII, version 3.0).  Points are written at
deformed positions x + u.  Every field is exported as vertex data (the P1
view of the quadratic fields), zero-extended outside its subdomain so one
array spans the whole mesh.  Cells are written as VTK triangles; points and
vectors get a zero z component.
"""

from __future__ import annotations

import json
import zipfile
from typing import Dict, List, Optional, Sequence

import numpy as np
from scipy.io import mmwrite

from .energy import EnergyReport
from .errors import FpsiError
from .spaces import FunctionSpace
from .stepping import State

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


def vertex_values(space: FunctionSpace, vec: np.ndarray) -> np.ndarray:
    """Field at mesh vertices, zero outside the space's subdomain."""
    mesh = space.mesh
    ncomp = space.ncomp
    out = np.zeros((mesh.num_vertices, ncomp))
    data = np.asarray(vec, dtype=float).reshape(-1, ncomp)
    nverts = np.searchsorted(space.entity_keys, mesh.num_vertices)   # vertex nodes come first
    out[space.entity_keys[:nverts]] = data[:nverts]
    return out[:, 0] if ncomp == 1 else out


def _formatted(fmt: str, arr: np.ndarray):
    """Each row of a 2-D array (or each value of a 1-D one) through `fmt`,
    formatted from Python numbers: the same text as formatting the numpy
    scalars one by one, in about half the time."""
    values = arr.tolist()
    return map(fmt.__mod__, map(tuple, values) if arr.ndim == 2 else values)


def write_state(path: str, problem, fields: Dict[str, np.ndarray],
                title: str = "state") -> None:
    """Snapshot of the displacement and every unknown on the deformed mesh,
    with each cell's subdomain tag."""
    mesh = problem.mesh
    nv, nc = mesh.num_vertices, mesh.num_cells
    points = mesh.vertices + vertex_values(problem.spaces["u"], fields["u"])
    lines = ["# vtk DataFile Version 3.0", title, "ASCII",
             "DATASET UNSTRUCTURED_GRID", "POINTS %d double" % nv]
    lines.extend(_formatted("%.17g %.17g 0", points))
    lines.append("CELLS %d %d" % (nc, nc * 4))
    lines.extend(_formatted("3 %d %d %d", mesh.cells))
    lines.append("CELL_TYPES %d" % nc)
    lines.extend(["5"] * nc)         # VTK_TRIANGLE
    lines += ["CELL_DATA %d" % nc, "SCALARS subdomain int 1", "LOOKUP_TABLE default"]
    lines.extend(_formatted("%d", mesh.cell_tags))

    lines.append("POINT_DATA %d" % nv)
    for name in ("u",) + problem.layout.names:
        arr = vertex_values(problem.spaces[name], fields[name])
        if arr.ndim == 1:
            lines += ["SCALARS %s double 1" % name, "LOOKUP_TABLE default"]
            lines.extend(_formatted("%.17g", arr))
        else:
            lines.append("VECTORS %s double" % name)
            lines.extend(_formatted("%.17g %.17g 0", arr))

    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def write_matrix(path: str, A) -> None:
    """The sparse matrix A in Matrix Market coordinate format."""
    # through a handle: mmwrite appends ".mtx" to a name without it and
    # writes nothing, silently, into a directory that does not exist
    with open(path, "wb") as fh:
        mmwrite(fh, A.tocoo())


def save_checkpoint(path: str, state: State, meta: Optional[dict] = None) -> None:
    arrays = {"cur_" + n: v for n, v in state.fields.items()}
    arrays.update({"prev_" + n: v for n, v in state.prev.items()})
    arrays["step_index"] = np.int64(state.k)
    arrays["time"] = np.float64(state.t)
    arrays["meta"] = np.bytes_(json.dumps(meta or {}).encode())
    # through a handle: np.savez would append ".npz" to a path without it
    with open(path, "wb") as fh:
        np.savez(fh, **arrays)


def _checkpoint_number(path: str, data: dict, key: str, kinds: str):
    """The scalar entry `key` of a checkpoint, of a numpy kind in `kinds`
    and finite."""
    arr = np.asarray(data[key])
    if arr.shape != () or arr.dtype.kind not in kinds or not np.isfinite(arr):
        raise FpsiError("checkpoint %s: %r is not a finite %s scalar"
                        % (path, key, "integer" if kinds == "iu" else "real"))
    return arr[()]


def load_checkpoint(path: str, problem):
    """Restore a State; field sizes must match the problem.  A missing or
    malformed entry (meta that is not UTF-8 JSON, a step index or time that
    is not one finite number, a field that is not finite or has the wrong
    size) raises FpsiError naming the path and the key."""
    if not zipfile.is_zipfile(path):
        raise FpsiError("checkpoint %s is not an npz archive" % path)
    with np.load(path, allow_pickle=False) as npz:
        data = dict(npz)
    for key in ("step_index", "time"):
        if key not in data:
            raise FpsiError("checkpoint %s is missing %r" % (path, key))
    k = int(_checkpoint_number(path, data, "step_index", "iu"))
    t = float(_checkpoint_number(path, data, "time", "iuf"))
    want = problem.zero_fields()
    fields = {}
    prev = {}
    for name, ref in want.items():
        for prefix, target in (("cur_", fields), ("prev_", prev)):
            key = prefix + name
            if key not in data:
                raise FpsiError("checkpoint %s is missing field %r" % (path, key))
            vec = data[key]
            if vec.shape != ref.shape:
                raise FpsiError("checkpoint %s: field %r has size %d, expected %d"
                                % (path, key, vec.size, ref.size))
            if vec.dtype.kind not in "iuf" or not np.all(np.isfinite(vec)):
                raise FpsiError("checkpoint %s: field %r is not a finite real array"
                                % (path, key))
            target[name] = np.asarray(vec, dtype=float)
    meta = {}
    if "meta" in data:
        try:
            meta = json.loads(bytes(data["meta"]).decode())
        except ValueError as exc:      # UnicodeDecodeError and JSONDecodeError alike
            raise FpsiError("checkpoint %s: 'meta' is not UTF-8 JSON: %s" % (path, exc))
        if not isinstance(meta, dict):
            raise FpsiError("checkpoint %s: 'meta' is not a JSON object" % path)
    return State(k=k, t=t, fields=fields, prev=prev), meta
