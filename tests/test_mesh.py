"""Mesh structure, validation, file formats and the built-in generators."""

import re

import numpy as np
import pytest

from fpsi.errors import MeshError
from fpsi.elements import LOCAL_EDGES
from fpsi.mesh import (FLUID, GAMMA_F0, GAMMA_FS, GAMMA_OUT, GAMMA_S0, MARKER_TO_NAME,
                       SOLID, TAG_TO_NAME, Mesh, extract_interface, facet_normals, load_mesh,
                       parse_msh, parse_native, validate_mesh)
from fpsi.scenarios import channel_mesh, unit_square_mesh


def write_native(mesh: Mesh, path: str) -> None:
    """Write the native format with full-precision coordinates."""
    lines = ["VERTICES %d %d" % (mesh.num_vertices, mesh.dim)]
    lines += [" ".join(repr(float(x)) for x in v) for v in mesh.vertices]
    lines.append("CELLS %d" % mesh.num_cells)
    lines += [" ".join(str(int(v)) for v in cell) + " " + TAG_TO_NAME[int(tag)]
              for cell, tag in zip(mesh.cells, mesh.cell_tags)]
    lines.append("FACETS %d" % len(mesh.facets))
    lines += [" ".join(str(int(v)) for v in fac) + " " + MARKER_TO_NAME[int(m)]
              for fac, m in zip(mesh.facets, mesh.facet_markers)]
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def signed_areas(mesh: Mesh) -> np.ndarray:
    """Signed area of each cell, positive for counter-clockwise vertices."""
    p = mesh.vertices[mesh.cells]
    a, b = p[:, 1] - p[:, 0], p[:, 2] - p[:, 0]
    return (a[:, 0] * b[:, 1] - a[:, 1] * b[:, 0]) / 2.0


def two_triangle_mesh(tags=(FLUID, FLUID)):
    """Unit square split along the main diagonal; all edges marked."""
    V = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
    cells = np.array([[0, 1, 2], [0, 2, 3]], dtype=np.int64)
    if tags[0] == tags[1]:
        marker = GAMMA_F0 if tags[0] == FLUID else GAMMA_S0
        facets = np.array([[0, 1], [1, 2], [2, 3], [3, 0]], dtype=np.int64)
        markers = np.full(4, marker, dtype=np.int64)
    else:
        m0 = GAMMA_F0 if tags[0] == FLUID else GAMMA_S0
        m1 = GAMMA_F0 if tags[1] == FLUID else GAMMA_S0
        facets = np.array([[0, 1], [1, 2], [2, 3], [3, 0], [0, 2]], dtype=np.int64)
        markers = np.array([m0, m0, m1, m1, GAMMA_FS], dtype=np.int64)
    return Mesh(V, cells, np.array(tags, dtype=np.int64), facets, markers)


# ---------------------------------------------------------------------------
# structure and validation
# ---------------------------------------------------------------------------

def test_basic_queries():
    mesh = validate_mesh(two_triangle_mesh((FLUID, SOLID)))
    assert mesh.dim == 2 and mesh.num_vertices == 4 and mesh.num_cells == 2
    assert list(mesh.cells_with_tag(FLUID)) == [0]
    assert list(mesh.cells_with_tag(SOLID)) == [1]
    assert len(mesh.facets_with_marker(GAMMA_FS)) == 1
    assert np.allclose(signed_areas(mesh), 0.5)


def test_orientation_repair():
    mesh = two_triangle_mesh()
    mesh.cells[0] = [0, 2, 1]          # inverted
    assert signed_areas(validate_mesh(mesh)).min() > 0.0


def test_validation_rejects_empty_and_bad_refs():
    with pytest.raises(MeshError, match="empty"):
        validate_mesh(Mesh(np.zeros((0, 2)), np.zeros((0, 3), dtype=np.int64),
                           np.zeros(0, dtype=np.int64),
                           np.zeros((0, 2), dtype=np.int64),
                           np.zeros(0, dtype=np.int64)))
    mesh = two_triangle_mesh()
    mesh.cells[0, 0] = 9
    with pytest.raises(MeshError, match="out of range"):
        validate_mesh(mesh)


def test_validation_rejects_degenerate_cell():
    mesh = two_triangle_mesh()
    mesh.vertices[2] = mesh.vertices[1]   # collapses both triangles' shared vertex
    with pytest.raises(MeshError, match="degenerate"):
        validate_mesh(mesh)


def test_validation_rejects_unknown_tags_and_markers():
    mesh = two_triangle_mesh()
    mesh.cell_tags[0] = 99
    with pytest.raises(MeshError, match="unknown cell tag"):
        validate_mesh(mesh)
    mesh = two_triangle_mesh()
    mesh.facet_markers[0] = 99
    with pytest.raises(MeshError, match="unknown facet marker"):
        validate_mesh(mesh)


def test_validation_rejects_contradictory_markers():
    mesh = two_triangle_mesh()
    mesh.facets = np.vstack([mesh.facets, [[1, 0]]])
    mesh.facet_markers = np.append(mesh.facet_markers, GAMMA_OUT)
    with pytest.raises(MeshError, match="contradictory"):
        validate_mesh(mesh)
    mesh = two_triangle_mesh()
    mesh.facets[0] = [1, 3]             # the other diagonal: no cell has it
    with pytest.raises(MeshError, match=r"marked facet \(1, 3\) is not a facet of any cell"):
        validate_mesh(mesh)


def test_validation_rejects_a_facet_of_three_cells():
    mesh = two_triangle_mesh()
    mesh.vertices = np.vstack([mesh.vertices, [[0.5, 2.0]]])
    mesh.cells = np.vstack([mesh.cells, [[0, 2, 4]]])   # a third cell on edge (0, 2)
    mesh.cell_tags = np.append(mesh.cell_tags, FLUID)
    with pytest.raises(MeshError, match=r"facet \(0, 2\) shared by 3 cells"):
        validate_mesh(mesh)


def test_validation_rejects_missing_boundary_marker():
    mesh = two_triangle_mesh()
    mesh.facets = mesh.facets[:3]
    mesh.facet_markers = mesh.facet_markers[:3]
    with pytest.raises(MeshError, match="missing marker"):
        validate_mesh(mesh)


def test_validation_rejects_unmarked_interface():
    # fluid/solid neighbors whose shared facet lacks the interface marker
    mesh = two_triangle_mesh((FLUID, SOLID))
    keep = [i for i, f in enumerate(mesh.facets) if sorted(f) != [0, 2]]
    mesh.facets = mesh.facets[keep]
    mesh.facet_markers = mesh.facet_markers[keep]
    with pytest.raises(MeshError, match="interface facet"):
        validate_mesh(mesh)


def test_validation_rejects_interface_marker_inside_one_subdomain():
    mesh = two_triangle_mesh((FLUID, FLUID))
    mesh.facets = np.vstack([mesh.facets, [[0, 2]]])
    mesh.facet_markers = np.append(mesh.facet_markers, GAMMA_FS)
    # extract_interface refuses it on a mesh that was never validated
    with pytest.raises(MeshError, match=r"facet \[0, 2\] touches cells \[0, 1\]"):
        extract_interface(mesh)
    with pytest.raises(MeshError, match="not between subdomains"):
        validate_mesh(mesh)


def test_validation_rejects_marker_on_wrong_subdomain():
    mesh = two_triangle_mesh((SOLID, SOLID))
    mesh.facet_markers[:] = GAMMA_F0
    with pytest.raises(MeshError, match="FLUID cell"):
        validate_mesh(mesh)


def test_validation_rejects_hanging_node():
    # a refined neighbour: the lower half is split at vertex 4, the midpoint
    # of edge (0, 1) of the upper cell, which stays unsplit; every edge is
    # shared by at most two cells and every boundary edge is marked
    V = np.array([[0.0, 0.0], [2.0, 0.0], [1.0, 1.0], [1.0, -1.0], [1.0, 0.0]])
    cells = np.array([[0, 1, 2], [0, 4, 3], [4, 1, 3]], dtype=np.int64)
    tags = np.full(3, FLUID, dtype=np.int64)
    facets = np.array([[0, 1], [1, 2], [2, 0], [0, 4], [3, 0], [4, 1], [1, 3]], dtype=np.int64)
    markers = np.full(7, GAMMA_F0, dtype=np.int64)
    with pytest.raises(MeshError, match=r"vertex 4 hangs on facet \(0, 1\)"):
        validate_mesh(Mesh(V, cells, tags, facets, markers))


@pytest.mark.parametrize("degrees", range(0, 90, 5))
def test_validation_rejects_hanging_node_on_a_slanted_facet(degrees):
    # two triangles touching at a point: vertex 4 of the lower one sits in
    # the middle of the marked edge (0, 1) of the upper one.  The check must
    # not lose the collinear vertex to roundoff at any rotation.
    a = np.radians(degrees)
    R = np.array([[np.cos(a), -np.sin(a)], [np.sin(a), np.cos(a)]])
    V = np.array([[0.0, 0.0], [1.0, 0.0], [0.5, 1.0],
                  [0.25, -1.0], [0.5, 0.0], [0.75, -1.0]]) @ R.T
    cells = np.array([[0, 1, 2], [3, 5, 4]], dtype=np.int64)
    facets = np.array([[0, 1], [1, 2], [2, 0], [3, 5], [5, 4], [4, 3]], dtype=np.int64)
    mesh = Mesh(V, cells, np.full(2, FLUID, dtype=np.int64), facets,
                np.full(6, GAMMA_F0, dtype=np.int64))
    with pytest.raises(MeshError, match=r"vertex 4 hangs on facet \(0, 1\)"):
        validate_mesh(mesh)


def test_facet_local_size():
    # the facet size h of an interface facet is its length
    mesh = two_triangle_mesh((FLUID, SOLID))
    mesh.vertices *= [3.0, 4.0]
    assert extract_interface(validate_mesh(mesh)).h == pytest.approx([5.0])


def test_extract_interface_orientation():
    mesh = validate_mesh(two_triangle_mesh((FLUID, SOLID)))
    iface = extract_interface(mesh)
    assert len(iface) == 1
    assert iface.fluid_cells.tolist() == [0] and iface.solid_cells.tolist() == [1]
    # the normal out of the fluid cell (below the diagonal) points to the
    # solid cell, and the one out of the solid cell is its opposite
    n, h = facet_normals(mesh, iface.vertices, iface.fluid_cells)
    assert np.dot(n[0], [-1.0, 1.0]) > 0.0
    assert np.linalg.norm(n[0]) == pytest.approx(1.0)
    assert np.array_equal(facet_normals(mesh, iface.vertices, iface.solid_cells)[0], -n)
    assert np.array_equal(h, iface.h)
    assert iface.h[0] == pytest.approx(np.sqrt(2.0))


def facet_walk(mesh):
    """Oracle: sorted vertex pair -> ascending cells, by a per-cell walk."""
    table = {}
    for c, cell in enumerate(mesh.cells):
        for a, b in LOCAL_EDGES:
            table.setdefault(tuple(sorted((int(cell[a]), int(cell[b])))), []).append(c)
    return table


@pytest.mark.parametrize("make", [lambda: channel_mesh(4),
                                  lambda: validate_mesh(two_triangle_mesh((FLUID, SOLID)))],
                         ids=["channel4", "two_triangles"])
def test_edge_table_matches_facet_walk(make):
    mesh = make()
    edges = mesh.edge_table
    table = facet_walk(mesh)
    pairs = sorted(table)
    assert [tuple(e) for e in edges.edges.tolist()] == pairs
    # each edge has one or two cells, -1 filling the second slot on the boundary
    for e, pair in enumerate(pairs):
        cells = table[pair]
        assert len(cells) in (1, 2)
        assert edges.edge_cells[e].tolist() == (cells + [-1])[:2]
    for c, cell in enumerate(mesh.cells):
        assert [pairs[e] for e in edges.cell_edges[c]] == \
            [tuple(sorted((int(cell[a]), int(cell[b])))) for a, b in LOCAL_EDGES]
    # the boundary edges are exactly the marked outer facets
    outer = {tuple(sorted(f)) for f, m in zip(mesh.facets.tolist(), mesh.facet_markers)
             if m != GAMMA_FS}
    assert {p for p in pairs if len(table[p]) == 1} == outer
    assert [pairs[e] for e in edges.facet_edges] == [tuple(sorted(f)) for f in mesh.facets.tolist()]

    # the interface arrays against the walk
    iface = extract_interface(mesh)
    normals = facet_normals(mesh, iface.vertices, iface.fluid_cells)[0]
    idx = mesh.facets_with_marker(GAMMA_FS)
    assert len(iface) == len(idx) > 0
    for k, i in enumerate(idx):
        a, b = mesh.facets[i]
        assert iface.vertices[k].tolist() == [a, b]
        cells = table[tuple(sorted((int(a), int(b))))]
        fluid = [c for c in cells if mesh.cell_tags[c] == FLUID]
        solid = [c for c in cells if mesh.cell_tags[c] == SOLID]
        assert [iface.fluid_cells[k]] == fluid and [iface.solid_cells[k]] == solid
        t = mesh.vertices[b] - mesh.vertices[a]
        h = np.hypot(t[0], t[1])
        normal = np.array([t[1], -t[0]]) / h
        towards_solid = (mesh.vertices[mesh.cells[solid[0]]].mean(axis=0)
                         - mesh.vertices[mesh.cells[fluid[0]]].mean(axis=0))
        if normal @ towards_solid < 0.0:
            normal = -normal
        assert np.allclose(normals[k], normal, rtol=0.0, atol=1e-15)
        assert iface.h[k] == pytest.approx(h, rel=1e-15)


# ---------------------------------------------------------------------------
# native format
# ---------------------------------------------------------------------------

# one tetrahedron: 3D input is rejected by both readers
TET_NATIVE = ("VERTICES 4 3\n0 0 0\n1 0 0\n0 1 0\n0 0 1\n"
              "CELLS 1\n0 1 2 3 FLUID\n"
              "FACETS 4\n0 1 2 GAMMA_F0\n0 1 3 GAMMA_F0\n0 2 3 GAMMA_F0\n1 2 3 GAMMA_F0\n")


def test_native_round_trip(tmp_path):
    mesh = validate_mesh(two_triangle_mesh((FLUID, SOLID)))
    path = tmp_path / "mesh.txt"
    write_native(mesh, str(path))
    back = load_mesh(str(path))
    assert np.array_equal(back.vertices, mesh.vertices)
    assert np.array_equal(back.cells, mesh.cells)
    assert np.array_equal(back.cell_tags, mesh.cell_tags)
    assert np.array_equal(back.facets, mesh.facets)
    assert np.array_equal(back.facet_markers, mesh.facet_markers)


def test_native_parse_errors():
    with pytest.raises(MeshError, match="expected VERTICES"):
        parse_native("CELLS 0\n")
    with pytest.raises(MeshError, match="dimension"):
        parse_native("VERTICES 1 4\n0 0 0 0\nCELLS 0\nFACETS 0\n")
    with pytest.raises(MeshError, match="dimension must be 2"):
        parse_native(TET_NATIVE)
    good = ("VERTICES 4 2\n0 0\n1 0\n1 1\n0 1\n"
            "CELLS 2\n0 1 2 FLUID\n0 2 3 FLUID\n"
            "FACETS 4\n0 1 GAMMA_F0\n1 2 GAMMA_F0\n2 3 GAMMA_F0\n3 0 GAMMA_F0\n")
    mesh = parse_native(good)
    assert mesh.num_cells == 2
    with pytest.raises(MeshError, match="unknown cell tag"):
        parse_native(good.replace("0 1 2 FLUID", "0 1 2 GAS"))
    with pytest.raises(MeshError, match="unknown facet marker"):
        parse_native(good.replace("0 1 GAMMA_F0", "0 1 WALL"))
    with pytest.raises(MeshError, match="trailing"):
        parse_native(good + "extra stuff\n")
    # comments and blank lines are ignored
    assert parse_native("# header\n\n" + good).num_vertices == 4


@pytest.mark.parametrize("old,new,msg", [
    ("VERTICES 4 2", "VERTICES 5 2", "VERTICES section has 4 rows, its header declares 5"),
    ("CELLS 2\n", "CELLS 3\n", "CELLS section has 2 rows, its header declares 3"),
    ("FACETS 4\n", "FACETS 5\n", "FACETS section has 4 rows, its header declares 5"),
    ("VERTICES 4 2", "VERTICES 4", "VERTICES header must be 'VERTICES <count> <dim>'"),
    ("CELLS 2\n", "CELLS\n", "CELLS header must be 'CELLS <count>'"),
    ("FACETS 4\n", "FACETS four\n", "FACETS header must be 'FACETS <count>'"),
    ("CELLS 2\n", "CELLS -1\n", "CELLS header must be"),
    ("\n1 1\n", "\n1 x\n", "VERTICES row 2: cannot read '1 x' as float"),
    ("\n1 1\n", "\n1\n", "VERTICES row 2 has 1 coordinates, expected 2"),
    ("0 2 3 FLUID", "0 2.5 3 FLUID", "CELLS row 1: cannot read '0 2.5 3' as int"),
    ("0 2 3 FLUID", "0 2 FLUID", "CELLS row 1 malformed"),
    ("3 0 GAMMA_F0", "3 zero GAMMA_F0", "FACETS row 3: cannot read '3 zero' as int"),
])
def test_native_malformed_rows(old, new, msg):
    good = ("VERTICES 4 2\n0 0\n1 0\n1 1\n0 1\n"
            "CELLS 2\n0 1 2 FLUID\n0 2 3 FLUID\n"
            "FACETS 4\n0 1 GAMMA_F0\n1 2 GAMMA_F0\n2 3 GAMMA_F0\n3 0 GAMMA_F0\n")
    assert good.count(old) == 1
    with pytest.raises(MeshError, match=re.escape(msg)):
        parse_native(good.replace(old, new))


def test_load_mesh_missing_file():
    with pytest.raises(MeshError, match="not found"):
        load_mesh("/nonexistent/mesh.txt")


# ---------------------------------------------------------------------------
# gmsh MSH 2.2
# ---------------------------------------------------------------------------

MSH_TEXT = """$MeshFormat
2.2 0 8
$EndMeshFormat
$Nodes
4
1 0 0 0
2 1 0 0
3 1 1 0
4 0 1 0
$EndNodes
$Elements
7
1 2 2 101 1 1 2 3
2 2 2 102 1 1 3 4
3 1 2 201 1 1 2
4 1 2 201 1 2 3
5 1 2 202 1 3 4
6 1 2 202 1 4 1
7 1 2 203 1 1 3
$EndElements
"""

MSH_MAP = {101: "FLUID", 102: "SOLID", 201: "GAMMA_F0", 202: "GAMMA_S0",
           203: "GAMMA_FS"}


def test_msh_parse():
    mesh = validate_mesh(parse_msh(MSH_TEXT, MSH_MAP))
    assert mesh.num_vertices == 4 and mesh.num_cells == 2
    assert list(mesh.cell_tags) == [FLUID, SOLID]
    assert len(mesh.facets_with_marker(GAMMA_FS)) == 1


def test_msh_rejects_tetrahedra():
    tet = MSH_TEXT.replace("$Elements\n7\n", "$Elements\n8\n").replace(
        "$EndElements", "8 4 2 101 1 1 2 3 4\n$EndElements")
    with pytest.raises(MeshError, match="element type 4"):
        parse_msh(tet, MSH_MAP)


def test_msh_requires_map_and_version(tmp_path):
    path = tmp_path / "box.msh"
    path.write_text(MSH_TEXT)
    with pytest.raises(MeshError, match="physical tag mapping"):
        load_mesh(str(path))
    assert load_mesh(str(path), MSH_MAP).num_cells == 2
    with pytest.raises(MeshError, match="2.2"):
        parse_msh(MSH_TEXT.replace("2.2 0 8", "4.1 0 8"), MSH_MAP)
    with pytest.raises(MeshError, match="unmapped"):
        parse_msh(MSH_TEXT, {101: "FLUID"})
    with pytest.raises(MeshError, match="unknown name"):
        parse_msh(MSH_TEXT, {**MSH_MAP, 201: "WALL"})
    with pytest.raises(MeshError, match="unterminated"):
        parse_msh(MSH_TEXT.replace("$EndElements", ""), MSH_MAP)
    with pytest.raises(MeshError, match="z coordinates"):
        parse_msh(MSH_TEXT.replace("1 0 0 0", "1 0 0 0.5"), MSH_MAP)


@pytest.mark.parametrize("old,new,msg", [
    ("$Nodes\n4\n", "$Nodes\n5\n", "$Nodes section has 4 rows, its count says 5"),
    ("$Nodes\n4\n", "$Nodes\nfour\n", "$Nodes section must start with its row count"),
    ("$Elements\n7\n", "$Elements\n", "$Elements section must start with its row count"),
    ("$Elements\n7\n", "$Elements\n9\n", "$Elements section has 7 rows, its count says 9"),
    ("2 1 0 0\n", "2 1 y 0\n", "$Nodes row 1: cannot read '1 y 0' as float"),
    ("2 1 0 0\n", "2 1 0\n", "$Nodes row 1 must be 'id x y z'"),
    ("2 1 0 0\n", "2.0 1 0 0\n", "$Nodes row 1: cannot read '2.0' as int"),
    ("7 1 2 203 1 1 3", "7 1 2 203 1 1 9", "$Elements row 6: node 9 is not defined in $Nodes"),
    ("5 1 2 202 1 3 4", "5 1 2 202 1 3 x", "$Elements row 4: cannot read"),
    ("5 1 2 202 1 3 4", "5 1", "$Elements row 4 must start with 'id type ntags'"),
    ("2.2 0 8", "2.2", "only ASCII MSH 2.2 is supported, got 2.2"),
    ("$MeshFormat\n2.2 0 8\n$EndMeshFormat\n", "", "missing $MeshFormat section"),
    ("$Elements\n", "Elements\n", "missing $Nodes or $Elements section"),
    ("7 1 2 203 1 1 3", "7 1 2 203 1 1 3 4", "element 7 has wrong node count"),
    ("$Elements\n7\n1 2 2 101 1 1 2 3\n2 2 2 102 1 1 3 4\n", "$Elements\n5\n",
     "no cells found in MSH file"),
    ("1 2 2 101 1 1 2 3", "1 2 2 201 1 1 2 3", "cell physical tag did not map to FLUID or SOLID"),
    ("3 1 2 201 1 1 2", "3 1 2 101 1 1 2", "facet physical tag mapped to a cell tag name"),
])
def test_msh_malformed_rows(old, new, msg):
    assert MSH_TEXT.count(old) == 1
    with pytest.raises(MeshError, match=re.escape(msg)):
        parse_msh(MSH_TEXT.replace(old, new), MSH_MAP)


# ---------------------------------------------------------------------------
# generators
# ---------------------------------------------------------------------------

def test_unit_square_mesh():
    mesh = unit_square_mesh(3)
    assert mesh.num_vertices == 16 and mesh.num_cells == 18
    assert np.all(mesh.cell_tags == FLUID)
    assert np.all(mesh.facet_markers == GAMMA_F0)
    solid = unit_square_mesh(2, "solid")
    assert np.all(solid.cell_tags == SOLID)
    assert np.all(solid.facet_markers == GAMMA_S0)
    with pytest.raises(MeshError):
        unit_square_mesh(0)
    with pytest.raises(MeshError):
        unit_square_mesh(2, "gas")


@pytest.mark.parametrize("n", [2, 3, 10, 16])
def test_channel_mesh_invariants(n):
    mesh = channel_mesh(n)           # validate_mesh already ran inside
    m = max(1, int(round(n / 10)))
    nx = 5 * n
    assert mesh.num_cells == 2 * nx * (n + 2 * m)
    # two interface lines with nx facets each
    assert len(mesh.facets_with_marker(GAMMA_FS)) == 2 * nx
    # fluid inlet and outlet span the n middle rows
    assert len(mesh.facets_with_marker(GAMMA_F0)) == n
    assert len(mesh.facets_with_marker(GAMMA_OUT)) == n
    # geometry bounds: 50 x 12 box
    assert mesh.vertices[:, 0].min() == 0.0 and mesh.vertices[:, 0].max() == 50.0
    assert mesh.vertices[:, 1].min() == -6.0 and mesh.vertices[:, 1].max() == 6.0
    # interface normals out of the fluid point away from the channel's axis
    iface = extract_interface(mesh)
    y = mesh.vertices[iface.vertices][:, :, 1].mean(axis=1)
    normals = facet_normals(mesh, iface.vertices, iface.fluid_cells)[0]
    assert np.array_equal(np.sign(normals[:, 1]), np.sign(y))


def test_channel_mesh_resolution_limits():
    with pytest.raises(MeshError):
        channel_mesh(1)
    with pytest.raises(MeshError):
        channel_mesh(129)
    assert channel_mesh(2).num_cells > 0


def test_channel_mesh_upper_resolution():
    # the largest supported resolution still passes every validation check
    mesh = channel_mesh(128)
    assert mesh.num_cells == 2 * 640 * (128 + 26)
