"""Legacy VTK (ASCII, version 3.0) output of solution snapshots.

Points are written at deformed positions x + u.  Every field is exported as
vertex data (the P1 view of the quadratic fields), zero-extended outside its
subdomain so one array spans the whole mesh.  Cells are written as VTK
triangles; points and vectors get a zero z component.
"""

from __future__ import annotations

from typing import Dict

import numpy as np

from .mesh import Mesh
from .spaces import FunctionSpace


def vertex_values(space: FunctionSpace, vec: np.ndarray) -> np.ndarray:
    """Field at mesh vertices, zero outside the space's subdomain."""
    mesh = space.mesh
    ncomp = space.ncomp
    out = np.zeros((mesh.num_vertices, ncomp))
    data = np.asarray(vec, dtype=float).reshape(-1, ncomp)
    out[space.vertex_ids] = data[:len(space.vertex_ids)]     # vertex nodes come first
    return out[:, 0] if ncomp == 1 else out


def write_vtk(path: str, mesh: Mesh, points: np.ndarray,
              point_fields: Dict[str, np.ndarray], cell_fields: Dict[str, np.ndarray],
              title: str = "output") -> None:
    """Triangles of `mesh` at `points`; cell fields are integer tags."""
    nv = points.shape[0]
    pts = np.column_stack([points, np.zeros(nv)])
    nc = mesh.num_cells

    lines = ["# vtk DataFile Version 3.0", title, "ASCII",
             "DATASET UNSTRUCTURED_GRID", "POINTS %d double" % nv]
    for p in pts:
        lines.append("%.17g %.17g %.17g" % (p[0], p[1], p[2]))
    lines.append("CELLS %d %d" % (nc, nc * 4))
    for cell in mesh.cells:
        lines.append("3 " + " ".join(str(int(v)) for v in cell))
    lines.append("CELL_TYPES %d" % nc)
    lines.extend(["5"] * nc)         # VTK_TRIANGLE

    lines.append("CELL_DATA %d" % nc)
    for name, arr in cell_fields.items():
        lines.append("SCALARS %s int 1" % name)
        lines.append("LOOKUP_TABLE default")
        lines.extend(str(int(v)) for v in arr)

    lines.append("POINT_DATA %d" % nv)
    for name, arr in point_fields.items():
        arr = np.asarray(arr, dtype=float)
        if arr.ndim == 1:
            lines.append("SCALARS %s double 1" % name)
            lines.append("LOOKUP_TABLE default")
            lines.extend("%.17g" % v for v in arr)
        else:
            arr = np.column_stack([arr, np.zeros(nv)])
            lines.append("VECTORS %s double" % name)
            lines.extend("%.17g %.17g %.17g" % (v[0], v[1], v[2]) for v in arr)

    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def write_state(path: str, problem, fields: Dict[str, np.ndarray],
                title: str = "state") -> None:
    """Standard snapshot: deformed points, all unknowns plus displacement."""
    mesh = problem.mesh
    uvert = vertex_values(problem.spaces["u"], fields["u"])
    point_fields = {"u": uvert}
    for name in ("v_f", "v_s", "q", "p_f", "p_d"):
        if name in problem.layout.names:
            point_fields[name] = vertex_values(problem.spaces[name], fields[name])
    write_vtk(path, mesh, points=mesh.vertices + uvert,
              point_fields=point_fields,
              cell_fields={"subdomain": mesh.cell_tags},
              title=title)
