"""Nodal Lagrange function spaces on mesh subdomains.

A space lives on all cells of one subdomain tag (or the whole mesh when the
tag is None, used for the displacement field).  Scalar degrees of freedom sit
on geometric entities: subdomain vertices first (ascending global id), then
for P2 the subdomain edges (ascending id in the mesh's edge table, which is
the order of their sorted vertex pairs).  Vector spaces interleave
components node-major: dof(node, comp) = node * dim + comp.

Each scalar node has one mesh-entity key (`FunctionSpace.entity_keys`): the
vertex id of a vertex node, nv + the edge id of an edge node, so the keys
ascend with the nodes.  Two spaces meet by intersecting their keys, never by
coordinate lookups: the solid velocity lands on the displacement space of
the mesh extension at every solid node.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Optional

import numpy as np

from .elements import eval_basis, simplex_quadrature
from .errors import AssemblyError, FpsiError
from .mesh import Mesh

ERROR_QUAD_DEGREE = 8   # quadrature degree of the L2 error integrals
LOCATE_TOL = 1e-10      # barycentric slack of locate_cell at cell boundaries


@dataclass
class FunctionSpace:
    mesh: Mesh
    degree: int
    rank: int                 # 0 scalar, 1 vector
    cells: np.ndarray         # global cell ids of the subdomain
    cell_nodes: np.ndarray    # (ncells, nloc) scalar node ids
    node_coords: np.ndarray   # (nnodes, dim)
    entity_keys: np.ndarray   # (nnodes,) ascending: vertex id of each vertex node,
                              # then nv + edge id of each edge node

    @property
    def dim(self) -> int:
        return self.mesh.dim

    @property
    def ncomp(self) -> int:
        return self.dim if self.rank == 1 else 1

    @property
    def num_scalar_nodes(self) -> int:
        return self.node_coords.shape[0]

    @property
    def num_dofs(self) -> int:
        return self.num_scalar_nodes * self.ncomp

    def dofs_of_nodes(self, nodes) -> np.ndarray:
        """Interleaved dof ids, all components, of the given scalar nodes:
        a 1-D array of a 1-D node array, one row of dofs per row of a 2-D one."""
        nodes = np.asarray(nodes, dtype=np.int64)
        if self.rank == 0:
            return nodes
        dofs = nodes[..., None] * self.ncomp + np.arange(self.ncomp)
        return dofs.reshape(nodes.shape[:-1] + (nodes.shape[-1] * self.ncomp,))

    def nodes_on_markers(self, markers: Iterable[int]) -> np.ndarray:
        """Scalar nodes lying on facets carrying any of the given markers."""
        mesh = self.mesh
        wanted = np.fromiter((int(m) for m in markers), dtype=np.int64)
        marked = np.isin(mesh.facet_markers, wanted)
        edges = mesh.edge_table.facet_edges[marked]
        edges = edges[edges >= 0]   # -1: no edge (unvalidated mesh); nv - 1 is a vertex key
        keys = np.concatenate([mesh.facets[marked].ravel(), mesh.num_vertices + edges])
        return np.flatnonzero(np.isin(self.entity_keys, keys))


def build_space(mesh: Mesh, degree: int, rank: int = 0, tag: Optional[int] = None) -> FunctionSpace:
    """Build a P1/P2 scalar or vector space on one subdomain (or the whole mesh)."""
    if rank not in (0, 1):
        raise ValueError("rank must be 0 (scalar) or 1 (vector)")
    if tag is None:
        cells = np.arange(mesh.num_cells, dtype=np.int64)
    else:
        cells = mesh.cells_with_tag(tag)
    if len(cells) == 0:
        raise AssemblyError("empty subdomain: no cells with tag %r" % tag)
    if degree not in (1, 2):
        raise ValueError("only degree 1 and 2 spaces are provided")

    cellverts = mesh.cells[cells]
    verts = np.unique(cellverts)
    cell_nodes = np.searchsorted(verts, cellverts).astype(np.int64)
    coords = [mesh.vertices[verts]]
    keys = [verts]
    if degree == 2:
        table = mesh.edge_table
        celledges = table.cell_edges[cells]
        edge_ids = np.unique(celledges)
        ends = table.edges[edge_ids]
        coords.append((mesh.vertices[ends[:, 0]] + mesh.vertices[ends[:, 1]]) / 2.0)
        cell_nodes = np.hstack([cell_nodes, len(verts) + np.searchsorted(edge_ids, celledges)])
        keys.append(mesh.num_vertices + edge_ids)

    return FunctionSpace(
        mesh=mesh,
        degree=degree,
        rank=rank,
        cells=cells,
        cell_nodes=cell_nodes,
        node_coords=np.vstack(coords),
        entity_keys=np.concatenate(keys),
    )


def batch_eval(fn: Callable, X: np.ndarray, ncomp: int) -> np.ndarray:
    """Evaluate a field at points (..., d) in one call of a batched callable:
    (...,) values for a scalar field, (..., ncomp) for a vector field.

    fn takes all N points at once, flattened to (N, d), and returns (N,)
    values for a scalar field or (N, ncomp) for a vector field; any other
    shape raises FpsiError.  Errors raised by fn propagate unchanged.
    """
    flat = X.reshape(-1, X.shape[-1])
    n = flat.shape[0]
    want = (n,) if ncomp == 1 else (n, ncomp)
    out = np.asarray(fn(flat), dtype=float)
    if out.shape != want:
        raise FpsiError("field callable returned shape %s for %d points, expected %s"
                        % (out.shape, n, want))
    return out.reshape(X.shape[:-1] + want[1:])


def interpolate(space: FunctionSpace, fn: Callable) -> np.ndarray:
    """Nodal interpolation; fn maps points to scalars/vectors."""
    vals = batch_eval(fn, space.node_coords, space.ncomp)
    return vals.ravel().astype(float)


def cell_geometry(mesh: Mesh, cells: np.ndarray):
    """Affine maps of the listed cells: origin, Jacobian B, |det B|, inv(B)."""
    cv = mesh.cells[cells]
    x0 = mesh.vertices[cv[:, 0]]
    B = np.transpose(mesh.vertices[cv[:, 1:]] - x0[:, None, :], (0, 2, 1))  # columns = edges
    det = np.linalg.det(B)
    Binv = np.linalg.inv(B)
    return x0, B, np.abs(det), Binv


def error_L2(space: FunctionSpace, vec: np.ndarray, exact: Callable) -> float:
    """L2 norm of (u_h - exact) over the space's subdomain, with the
    degree-ERROR_QUAD_DEGREE rule."""
    rule = simplex_quadrature(space.dim, ERROR_QUAD_DEGREE)
    vals, _ = eval_basis(space.dim, space.degree, rule.points)    # (nq, nloc)
    x0, B, adet, _ = cell_geometry(space.mesh, space.cells)
    # physical quadrature points per cell: (nc, nq, d)
    X = x0[:, None, :] + np.einsum("cde,qe->cqd", B, rule.points)
    ncomp = space.ncomp
    ex = batch_eval(exact, X, ncomp)
    local = vec.reshape(-1, ncomp)[space.cell_nodes]              # (nc, nloc, ncomp)
    uh = vals @ local                                             # (nc, nq, ncomp)
    if ncomp == 1:
        diff2 = (uh[:, :, 0] - ex) ** 2
    else:
        diff2 = ((uh - ex) ** 2).sum(axis=2)
    return float(np.sqrt(adet @ (diff2 @ rule.weights)))


def locate_cell(space: FunctionSpace, x: np.ndarray) -> int:
    """Index (into space.cells) of a cell containing x; nearest match wins.

    x may lie up to LOCATE_TOL outside the cell in barycentric terms."""
    x = np.asarray(x, dtype=float)
    x0, _, _, Binv = cell_geometry(space.mesh, space.cells)
    xi = np.einsum("cde,ce->cd", Binv, x[None, :] - x0)
    lam_min = np.minimum(xi.min(axis=1), 1.0 - xi.sum(axis=1))
    best = int(np.argmax(lam_min))
    if lam_min[best] < -LOCATE_TOL:
        raise ValueError("point %s lies outside the subdomain" % (x,))
    return best


def eval_at_point(space: FunctionSpace, vec: np.ndarray, x: np.ndarray,
                  cell_index: Optional[int] = None):
    """Evaluate the FE field at one physical point."""
    if cell_index is None:
        cell_index = locate_cell(space, x)
    x0, _, _, Binv = cell_geometry(space.mesh, space.cells[cell_index: cell_index + 1])
    xi = Binv[0] @ (np.asarray(x, dtype=float) - x0[0])
    xi = np.clip(xi, 0.0, None)
    s = xi.sum()
    if s > 1.0:
        xi = xi / s
    vals, _ = eval_basis(space.dim, space.degree, xi[None, :])
    local = vec.reshape(-1, space.ncomp)[space.cell_nodes[cell_index]]
    out = vals[0] @ local
    return float(out[0]) if space.rank == 0 else out
