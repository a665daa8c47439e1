"""Function spaces: DOF layout, entity keys, interpolation and point evaluation."""

import numpy as np
import pytest

from fpsi.errors import AssemblyError, FpsiError
from fpsi.mesh import FLUID, GAMMA_F0, GAMMA_FS, GAMMA_S0, SOLID, Mesh
from fpsi.elements import LOCAL_EDGES
from fpsi.scenarios import channel_mesh, unit_square_mesh
from fpsi.spaces import (batch_eval, build_space, error_L2, eval_at_point, interpolate,
                         locate_cell)
from tests.test_mesh import two_triangle_mesh


# ---------------------------------------------------------------------------
# DOF counts and layout
# ---------------------------------------------------------------------------

def test_dof_counts_single_triangle():
    mesh = two_triangle_mesh((FLUID, SOLID))
    p1 = build_space(mesh, 1, rank=0, tag=FLUID)
    assert p1.num_scalar_nodes == 3 and p1.num_dofs == 3
    p2v = build_space(mesh, 2, rank=1, tag=FLUID)
    assert p2v.num_scalar_nodes == 6 and p2v.num_dofs == 12


def test_dof_counts_square():
    mesh = two_triangle_mesh()
    # 4 vertices + 5 edges
    p2 = build_space(mesh, 2, rank=0)
    assert p2.num_scalar_nodes == 9
    n = 3
    mesh = unit_square_mesh(n)
    p1 = build_space(mesh, 1)
    assert p1.num_scalar_nodes == (n + 1) ** 2
    p2 = build_space(mesh, 2, rank=1)
    edges = n * n + 2 * n * (n + 1)              # diagonals + axis-aligned
    assert p2.num_scalar_nodes == (n + 1) ** 2 + edges
    assert p2.num_dofs == 2 * p2.num_scalar_nodes


def test_vector_dofs_interleave():
    mesh = two_triangle_mesh()
    v = build_space(mesh, 1, rank=1)
    assert list(v.dofs_of_nodes([2])) == [4, 5]
    assert list(v.dofs_of_nodes([0, 2])) == [0, 1, 4, 5]
    assert list(v.dofs_of_nodes(v.cell_nodes[0])) == [0, 1, 2, 3, 4, 5]
    s = build_space(mesh, 1)
    assert list(s.dofs_of_nodes([0, 2])) == [0, 2]


@pytest.mark.parametrize("rank", [0, 1])
def test_dofs_of_a_2d_node_array_are_the_1d_map_row_by_row(rank):
    space = build_space(channel_mesh(4), 2, rank=rank, tag=FLUID)
    nodes = space.cell_nodes
    got = space.dofs_of_nodes(nodes)
    assert got.dtype == np.int64
    assert got.shape == (len(nodes), nodes.shape[1] * space.ncomp)
    for row, want in zip(nodes, got):
        assert np.array_equal(space.dofs_of_nodes(row), want)
    assert space.dofs_of_nodes(nodes[:0]).shape == (0, nodes.shape[1] * space.ncomp)


def test_empty_subdomain_rejected():
    mesh = two_triangle_mesh((FLUID, FLUID))
    with pytest.raises(AssemblyError, match="empty subdomain"):
        build_space(mesh, 1, tag=SOLID)
    with pytest.raises(ValueError):
        build_space(mesh, 3)
    with pytest.raises(ValueError):
        build_space(mesh, 1, rank=2)


@pytest.mark.parametrize("mesh_name, tag", [("channel4", None), ("channel4", FLUID),
                                           ("channel4", SOLID), ("square6", None),
                                           ("square6", SOLID)])
@pytest.mark.parametrize("degree", [1, 2])
def test_node_numbering(mesh_name, tag, degree):
    mesh = channel_mesh(4) if mesh_name == "channel4" else unit_square_mesh(6, "solid")
    cells = np.arange(mesh.num_cells) if tag is None else mesh.cells_with_tag(tag)
    space = build_space(mesh, degree, rank=1, tag=tag)
    assert np.array_equal(space.cells, cells)

    # vertex nodes first, keyed by their vertex ids in increasing order
    verts = sorted({int(v) for c in cells for v in mesh.cells[c]})
    nv = len(verts)
    assert space.entity_keys.tolist()[:nv] == verts
    assert np.array_equal(space.node_coords[:nv], mesh.vertices[verts])

    # then edge nodes, keyed nv + edge id, in lexicographic order of their
    # sorted vertex pairs; the keys ascend throughout
    edges = LOCAL_EDGES if degree == 2 else ()
    keys = sorted({tuple(sorted((int(mesh.cells[c][a]), int(mesh.cells[c][b]))))
                   for c in cells for a, b in edges})
    assert space.entity_keys.shape == (nv + len(keys),)
    assert np.all(np.diff(space.entity_keys) > 0)
    assert np.all(space.entity_keys[nv:] >= mesh.num_vertices)
    pairs = mesh.edge_table.edges[space.entity_keys[nv:] - mesh.num_vertices]
    assert pairs.shape == (len(keys), 2)
    assert list(map(tuple, pairs.tolist())) == keys
    assert space.num_scalar_nodes == nv + len(keys)
    for i, (a, b) in enumerate(keys):
        assert np.array_equal(space.node_coords[nv + i],
                              (mesh.vertices[a] + mesh.vertices[b]) / 2.0)

    vnode, enode = entity_nodes(space)
    assert space.cell_nodes.dtype == np.int64
    assert space.cell_nodes.shape == (len(cells), mesh.dim + 1 + len(edges))
    for row, c in zip(space.cell_nodes, cells):
        cv = [int(v) for v in mesh.cells[c]]
        assert list(row[:mesh.dim + 1]) == [vnode[v] for v in cv]
        assert list(row[mesh.dim + 1:]) == [enode[tuple(sorted((cv[a], cv[b])))] for a, b in edges]


def entity_nodes(space):
    """Oracle lookup tables: vertex id -> node, sorted vertex pair -> node."""
    mesh = space.mesh
    vnode, enode = {}, {}
    for node, key in enumerate(space.entity_keys.tolist()):
        if key < mesh.num_vertices:
            vnode[key] = node
        else:
            a, b = mesh.edge_table.edges[key - mesh.num_vertices]
            enode[(int(a), int(b))] = node
    return vnode, enode


@pytest.mark.parametrize("degree", [1, 2])
@pytest.mark.parametrize("tag", [None, FLUID, SOLID])
def test_nodes_on_markers_matches_facet_walk(degree, tag):
    mesh = channel_mesh(4)
    space = build_space(mesh, degree, tag=tag)
    vnode, enode = entity_nodes(space)
    markers = sorted(set(mesh.facet_markers.tolist()))
    for query in [(m,) for m in markers] + [tuple(markers), (GAMMA_F0, GAMMA_FS), (-1,), ()]:
        want = set()
        for fverts, m in zip(mesh.facets, mesh.facet_markers):
            if m in query:
                fv = [int(v) for v in fverts]
                want.update(vnode[v] for v in fv if v in vnode)
                key = tuple(sorted(fv))
                if key in enode:
                    want.add(enode[key])
        got = space.nodes_on_markers(query)
        assert got.dtype == np.int64
        assert got.tolist() == sorted(want)


def test_nodes_on_markers_picks_up_edge_nodes():
    mesh = two_triangle_mesh((FLUID, SOLID))
    vf = build_space(mesh, 2, rank=1, tag=FLUID)
    iface = vf.nodes_on_markers([GAMMA_FS])
    # diagonal facet (0, 2): endpoints + its midpoint node
    assert len(iface) == 3
    coords = vf.node_coords[iface]
    assert np.allclose(coords[:, 0], coords[:, 1])
    p1 = build_space(mesh, 1, tag=FLUID)
    assert len(p1.nodes_on_markers([GAMMA_FS])) == 2
    # marker queries act on facet closures: the two solid-wall facets end at
    # the interface corners, which the fluid space also owns
    corners = p1.nodes_on_markers([GAMMA_S0])
    assert np.allclose(sorted(p1.node_coords[corners][:, 0]), [0.0, 1.0])


@pytest.mark.parametrize("degree", [1, 2])
def test_nodes_on_markers_of_a_facet_that_is_no_edge(degree):
    # An unvalidated mesh may mark a facet (1, 3) that is no edge of any
    # cell; its edge id is -1, and nv + (-1) would be the key of vertex
    # nv - 1 = 4, which the space holds.  Only the nodes of 1 and 3 count.
    V = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0], [2.0, 0.0]])
    cells = np.array([[0, 1, 2], [0, 2, 3], [1, 4, 2]], dtype=np.int64)
    facets = np.array([[1, 3], [0, 1]], dtype=np.int64)
    mesh = Mesh(V, cells, np.full(3, FLUID, dtype=np.int64), facets,
                np.array([GAMMA_F0, GAMMA_S0], dtype=np.int64))
    assert mesh.edge_table.facet_edges[0] == -1
    space = build_space(mesh, degree, rank=1)
    assert space.entity_keys[4] == mesh.num_vertices - 1
    assert space.nodes_on_markers([GAMMA_F0]).tolist() == [1, 3]


# ---------------------------------------------------------------------------
# overlapping spaces meet on their shared entity keys
# ---------------------------------------------------------------------------

def shared_nodes(src, dst):
    """Nodes of src and of dst on their shared entities, in ascending key order."""
    _, a, b = np.intersect1d(src.entity_keys, dst.entity_keys,
                             assume_unique=True, return_indices=True)
    return a, b


def test_transfer_fluid_to_global():
    mesh = two_triangle_mesh((FLUID, SOLID))
    vs = build_space(mesh, 2, rank=1, tag=SOLID)
    whole = build_space(mesh, 2, rank=1, tag=None)
    src, dst = shared_nodes(vs, whole)
    assert len(src) == vs.num_scalar_nodes       # solid is a subset of the whole mesh
    assert np.allclose(vs.node_coords[src], whole.node_coords[dst])
    # a P1 space meets a P2 space on its vertices alone
    p1 = build_space(mesh, 1, tag=FLUID)
    src, dst = shared_nodes(p1, whole)
    assert src.tolist() == list(range(p1.num_scalar_nodes))
    assert np.allclose(p1.node_coords[src], whole.node_coords[dst])


def test_transfer_across_interface():
    mesh = two_triangle_mesh((FLUID, SOLID))
    vf = build_space(mesh, 2, tag=FLUID)
    vs = build_space(mesh, 2, tag=SOLID)
    src, dst = shared_nodes(vs, vf)
    # only the interface entities are shared: 2 vertices + 1 edge midpoint
    assert len(src) == 3
    assert np.allclose(vs.node_coords[src], vf.node_coords[dst])


@pytest.mark.parametrize("src_tag, dst_tag", [(SOLID, None), (FLUID, None), (SOLID, FLUID)])
@pytest.mark.parametrize("degree", [1, 2])
def test_transfer_matches_entity_loop(src_tag, dst_tag, degree):
    # channel:4's maps v_s -> u, v_f -> u and v_s -> v_f
    mesh = channel_mesh(4)
    src = build_space(mesh, degree, rank=1, tag=src_tag)
    dst = build_space(mesh, degree, rank=1, tag=dst_tag)
    src_v, src_e = entity_nodes(src)
    dst_v, dst_e = entity_nodes(dst)
    pairs = [(n, dst_v[v]) for v, n in src_v.items() if v in dst_v]
    pairs += [(n, dst_e[k]) for k, n in src_e.items() if k in dst_e]
    want = np.array(sorted(pairs, key=lambda p: p[1]), dtype=np.int64).reshape(-1, 2)
    got_src, got_dst = shared_nodes(src, dst)
    assert got_src.dtype == np.int64 and got_dst.dtype == np.int64
    assert np.array_equal(got_src, want[:, 0])
    assert np.array_equal(got_dst, want[:, 1])
    assert len(want) > 0


# ---------------------------------------------------------------------------
# interpolation, norms, point evaluation
# ---------------------------------------------------------------------------

def test_batch_eval_rejects_results_of_the_wrong_shape():
    X = np.array([[0.1, 0.2], [0.3, 0.4], [0.5, 0.6]])
    assert np.array_equal(batch_eval(lambda x: x[:, ::-1], X, 2), X[:, ::-1])
    assert np.array_equal(batch_eval(lambda x: list(x[:, 0]), X, 1), X[:, 0])
    # points of any leading shape go to the callable flat and come back in that shape
    Y = np.arange(12.0).reshape(2, 3, 2)
    assert np.array_equal(batch_eval(lambda x: x[:, ::-1], Y, 2), Y[..., ::-1])
    assert np.array_equal(batch_eval(lambda x: x[:, 0] * x[:, 1], Y, 1), Y[..., 0] * Y[..., 1])
    with pytest.raises(FpsiError, match=r"shape \(6, 2\) for 6 points, expected \(6,\)"):
        batch_eval(lambda x: x, Y, 1)
    # a per-point callable given the batch: x[0] is the first point, (2,)
    with pytest.raises(FpsiError, match=r"shape \(2,\) for 3 points, expected \(3,\)"):
        batch_eval(lambda x: 2.0 * x[0], X, 1)
    with pytest.raises(FpsiError, match=r"shape \(3, 1\) for 3 points, expected \(3,\)"):
        batch_eval(lambda x: x[:, :1], X, 1)
    with pytest.raises(FpsiError, match=r"shape \(3,\) for 3 points, expected \(3, 2\)"):
        batch_eval(lambda x: x[:, 0], X, 2)
    space = build_space(unit_square_mesh(1), 1, rank=1)
    with pytest.raises(FpsiError, match=r"shape \(2, 2\) for 4 points, expected \(4, 2\)"):
        interpolate(space, lambda x: [x[0] * x[1], x[1] ** 2])


def test_batch_eval_propagates_errors_of_batched_callables():
    calls = []

    def broken(x):
        calls.append(np.shape(x))
        raise RuntimeError("bad field at %d points" % len(x))

    with pytest.raises(RuntimeError, match="bad field at 3 points"):
        batch_eval(broken, np.zeros((3, 2)), 1)
    assert calls == [(3, 2)]            # no per-point retry
    space = build_space(unit_square_mesh(1), 1)
    with pytest.raises(RuntimeError, match="bad field at 4 points"):
        interpolate(space, broken)
    assert calls[1:] == [(4, 2)]

def test_interpolate_exactness():
    mesh = unit_square_mesh(3)
    p2 = build_space(mesh, 2)

    def quad(X):
        return X[:, 0] ** 2 + 2.0 * X[:, 0] * X[:, 1] - X[:, 1]

    vec = interpolate(p2, quad)
    assert error_L2(p2, vec, quad) < 1e-13

    v2 = build_space(mesh, 2, rank=1)

    def vfield(X):
        return np.stack([X[:, 0] * X[:, 1], X[:, 1] ** 2], axis=1)

    vvec = interpolate(v2, vfield)
    assert error_L2(v2, vvec, vfield) < 1e-13


def test_p1_interpolation_error_scales():
    def f(X):
        return np.sin(np.pi * X[:, 0]) * np.sin(np.pi * X[:, 1])

    errs = []
    for n in (4, 8, 16):
        sp = build_space(unit_square_mesh(n), 1)
        errs.append(error_L2(sp, interpolate(sp, f), f))
    rates = np.log2(np.array(errs[:-1]) / errs[1:])
    assert np.all(rates > 1.8)


def test_norm_of_constant():
    sp = build_space(unit_square_mesh(2), 1)
    one = np.ones(sp.num_dofs)
    assert error_L2(sp, one, lambda X: np.zeros(len(X))) == pytest.approx(1.0, rel=1e-12)


def test_locate_and_eval():
    mesh = unit_square_mesh(4)
    p2 = build_space(mesh, 2)
    vec = interpolate(p2, lambda X: X[:, 0] ** 2 - X[:, 1])
    for pt in ([0.3, 0.7], [0.0, 0.0], [1.0, 1.0], [0.25, 0.25]):
        got = eval_at_point(p2, vec, np.array(pt))
        assert got == pytest.approx(pt[0] ** 2 - pt[1], abs=1e-12)
    with pytest.raises(ValueError, match="outside"):
        locate_cell(p2, np.array([2.0, 0.5]))

    v2 = build_space(mesh, 2, rank=1)
    vvec = interpolate(v2, lambda X: np.stack([X[:, 1], -X[:, 0]], axis=1))
    out = eval_at_point(v2, vvec, np.array([0.5, 0.25]))
    assert np.allclose(out, [0.25, -0.5], atol=1e-12)


def test_eval_reuses_given_cell():
    mesh = unit_square_mesh(2)
    p1 = build_space(mesh, 1)
    vec = interpolate(p1, lambda X: X[:, 0])
    idx = locate_cell(p1, np.array([0.5, 0.5]))
    assert eval_at_point(p1, vec, np.array([0.5, 0.5]), cell_index=idx) == pytest.approx(0.5)
