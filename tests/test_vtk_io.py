"""Snapshot output and reporting helpers."""

import numpy as np
import pytest

from fpsi.errors import FpsiError
from fpsi.mesh import FLUID, SOLID
from fpsi.reporting import TimeSeries, convergence_table, observed_orders
from fpsi.spaces import interpolate
from fpsi.stepping import State
from fpsi.vtk_io import vertex_values, write_state, write_vtk
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


def test_write_vtk_header_and_counts(tmp_path):
    mesh = two_triangle_mesh()
    path = tmp_path / "plain.vtk"
    write_vtk(str(path), mesh, mesh.vertices,
              point_fields={"s": np.arange(4.0),
                            "vec": np.ones((4, 2))},
              cell_fields={"tag": mesh.cell_tags},
              title="check")
    text = path.read_text().splitlines()
    assert text[0] == "# vtk DataFile Version 3.0"
    assert text[1] == "check"
    assert text[2] == "ASCII"
    assert text[3] == "DATASET UNSTRUCTURED_GRID"
    assert text[4] == "POINTS 4 double"
    assert "CELLS 2 8" in text
    assert "CELL_TYPES 2" in text
    assert "CELL_DATA 2" in text
    assert "SCALARS tag int 1" in text
    assert "POINT_DATA 4" in text
    assert "SCALARS s double 1" in text
    assert "VECTORS vec double" in text
    # 2D vectors gain a zero z component
    vec_at = text.index("VECTORS vec double")
    assert text[vec_at + 1].split() == ["1", "1", "0"]


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
