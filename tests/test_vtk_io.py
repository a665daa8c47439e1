"""Snapshot output and reporting helpers."""

import numpy as np
import pytest

from fpsi.errors import FpsiError
from fpsi.mesh import FLUID, SOLID
from fpsi.reporting import (TimeSeries, convergence_table, observed_orders, vertex_values,
                            write_state)
from fpsi.scenarios import benchmark_params, channel_mesh, channel_problem
from fpsi.spaces import interpolate
from fpsi.stepping import State
from tests.test_assembly_forms import make_problem
from tests.test_mesh import two_triangle_mesh


def test_vertex_values_restriction_and_zero_extension():
    prob = make_problem(two_triangle_mesh((FLUID, SOLID)))
    space = prob.spaces["v_s"]
    vec = interpolate(space, lambda X: np.stack([X[:, 0] + 1.0, X[:, 1]], axis=1))
    out = vertex_values(space, vec)
    mesh = prob.mesh
    assert out.shape == (mesh.num_vertices, 2)
    # solid triangle is (0,0),(1,1),(0,1); vertex 1 = (1,0) is fluid only
    assert np.allclose(out[0], [1.0, 0.0])
    assert np.allclose(out[2], [2.0, 1.0])
    assert np.allclose(out[1], [0.0, 0.0])


def test_write_state_header_and_counts(tmp_path):
    prob = make_problem(two_triangle_mesh((FLUID, SOLID)))
    fields = State.initial(prob).fields
    fields["v_f"] = np.ones_like(fields["v_f"])
    path = tmp_path / "plain.vtk"
    write_state(str(path), prob, fields, title="check")
    text = path.read_text().splitlines()
    assert text[0] == "# vtk DataFile Version 3.0"
    assert text[1] == "check"
    assert text[2] == "ASCII"
    assert text[3] == "DATASET UNSTRUCTURED_GRID"
    assert text[4] == "POINTS 4 double"
    assert "CELLS 2 8" in text
    assert "CELL_TYPES 2" in text
    assert "CELL_DATA 2" in text
    assert "SCALARS subdomain int 1" in text
    assert "POINT_DATA 4" in text
    assert "SCALARS p_f double 1" in text
    assert "VECTORS v_f double" in text
    # 2D vectors gain a zero z component; the fluid triangle holds vertex 0
    vec_at = text.index("VECTORS v_f double")
    assert text[vec_at + 1].split() == ["1", "1", "0"]


def per_value_snapshot(prob, fields, title):
    """The snapshot text written the plain way: each number on its own
    through "%.17g" or "%d", straight from the numpy arrays."""
    mesh = prob.mesh
    points = mesh.vertices + vertex_values(prob.spaces["u"], fields["u"])
    lines = ["# vtk DataFile Version 3.0", title, "ASCII", "DATASET UNSTRUCTURED_GRID",
             "POINTS %d double" % mesh.num_vertices]
    lines += [" ".join("%.17g" % v for v in p) + " 0" for p in points]
    lines.append("CELLS %d %d" % (mesh.num_cells, 4 * mesh.num_cells))
    lines += ["3 " + " ".join("%d" % v for v in cell) for cell in mesh.cells]
    lines.append("CELL_TYPES %d" % mesh.num_cells)
    lines += ["5"] * mesh.num_cells
    lines += ["CELL_DATA %d" % mesh.num_cells, "SCALARS subdomain int 1", "LOOKUP_TABLE default"]
    lines += ["%d" % v for v in mesh.cell_tags]
    lines.append("POINT_DATA %d" % mesh.num_vertices)
    for name in ("u",) + prob.layout.names:
        arr = vertex_values(prob.spaces[name], fields[name])
        if arr.ndim == 1:
            lines += ["SCALARS %s double 1" % name, "LOOKUP_TABLE default"]
            lines += ["%.17g" % v for v in arr]
        else:
            lines.append("VECTORS %s double" % name)
            lines += [" ".join("%.17g" % v for v in row) + " 0" for row in arr]
    return "\n".join(lines) + "\n"


def test_write_state_matches_per_value_formatting(tmp_path):
    prob = channel_problem(channel_mesh(2), benchmark_params(K=1e-5))
    rng = np.random.default_rng(0)
    fields = {}
    for name, zero in State.initial(prob).fields.items():
        # signs, magnitudes from 1e-300 to 1e300, exact zeros and -0.0
        vals = rng.standard_normal(len(zero)) * 10.0 ** rng.integers(-300, 300, len(zero))
        vals[::7] = 0.0
        vals[3::11] = -0.0
        fields[name] = vals
    fields["u"] *= 1e-300                 # keep the deformed points finite
    path = tmp_path / "state.vtk"
    write_state(str(path), prob, fields, title="t = 0.25")
    assert path.read_text() == per_value_snapshot(prob, fields, "t = 0.25")


def test_write_state_uses_deformed_points(tmp_path):
    prob = make_problem(two_triangle_mesh((FLUID, SOLID)))
    fields = State.initial(prob).fields
    shift = np.array([0.25, -0.5])
    fields["u"] = np.tile(shift, prob.spaces["u"].num_scalar_nodes)
    path = tmp_path / "state.vtk"
    write_state(str(path), prob, fields)
    text = path.read_text().splitlines()
    start = text.index("POINTS 4 double") + 1
    pts = np.array([[float(v) for v in text[start + k].split()] for k in range(4)])
    assert np.allclose(pts[:, :2], prob.mesh.vertices + shift)
    assert np.allclose(pts[:, 2], 0.0)
    # every unknown present as point data
    for name in ("u", "v_f", "v_s", "q", "p_f", "p_d"):
        assert any(name in ln and ln.startswith(("SCALARS", "VECTORS"))
                   for ln in text), name


def test_observed_orders_closed_form():
    hs = [1.0, 0.5, 0.25]
    errs = [1.0, 0.25, 0.0625]
    assert observed_orders(hs, errs) == pytest.approx([2.0, 2.0])
    with pytest.raises(FpsiError, match=">= 3 levels"):
        observed_orders([1.0, 0.5], [1.0, 0.5])
    with pytest.raises(FpsiError, match="strictly decreasing"):
        observed_orders([1.0, 1.0, 0.5], [1.0, 0.5, 0.25])
    with pytest.raises(FpsiError, match="differ in length"):
        observed_orders([1.0, 0.5, 0.25], [1.0, 0.5])


def test_convergence_table_format():
    table = convergence_table([1.0, 0.5, 0.25], [1.0, 0.25, 0.0625],
                              step_label="dt")
    lines = table.splitlines()
    assert lines[0].startswith("dt")
    assert lines[1].endswith("-")
    assert lines[2].endswith("2.00") and lines[3].endswith("2.00")


def test_timeseries_roundtrip(tmp_path):
    from fpsi.energy import EnergyReport
    ts = TimeSeries()
    rep = EnergyReport(kinetic_fluid=1.0, kinetic_solid=2.0, kinetic_mixture=3.0,
                       pressure_storage=4.0, viscous_dissipation=5.0,
                       darcy_dissipation=6.0, bjs_dissipation=7.0,
                       elastic_power=8.0, penalty_defect=9.0)
    ts.append(0.1, 0.01, 0.02, rep)
    ts.append(0.2, 0.03, 0.04, rep)
    assert np.allclose(ts.column("total_energy"), 10.0)
    assert np.allclose(ts.column("t"), [0.1, 0.2])

    path = tmp_path / "series.csv"
    ts.save(str(path))
    back = TimeSeries.load(str(path))
    assert back.rows == ts.rows

    bad = tmp_path / "bad.csv"
    bad.write_text("nope\n")
    with pytest.raises(FpsiError, match="header"):
        TimeSeries.load(str(bad))
