"""Triangle meshes with subdomain tags and boundary/interface markers.

All computations run on the fixed reference mesh; deformation enters through
the displacement field, never by moving vertices.  Units are mm throughout.

Cell tags split the mesh into the fluid and the poroelastic subdomain.
Facet markers identify the Dirichlet/outflow parts of the outer boundary and
the fluid-solid interface:

    FLUID, SOLID           cell tags
    GAMMA_F0               fluid inflow/Dirichlet boundary
    GAMMA_OUT              fluid outflow boundary (natural)
    GAMMA_S0               fixed structure boundary (v_s = 0, p_d = 0)
    GAMMA_FS               fluid-solid interface (internal)

Meshes are 2D: the readers reject any other dimension.  Topology lives in
one edge table (`Mesh.edge_table`, an `EdgeTable`), derived from the cells
once after orientation repair: validation, the interface, the facet traces
of assembly and the P2 edge nodes of every function space all read its
arrays under their one name, `mesh.edge_table.<field>`.

Two file formats are supported: a plain-text native format (sections
VERTICES / CELLS / FACETS, 0-based indices, tag names spelled out) and
ASCII gmsh MSH 2.2, whose integer physical tags are mapped to the names
above through a caller-supplied table.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, NamedTuple, Optional

import numpy as np

from .elements import LOCAL_EDGES
from .errors import MeshError

FLUID = 1
SOLID = 2

GAMMA_F0 = 10
GAMMA_OUT = 11
GAMMA_S0 = 12
GAMMA_FS = 13

CELL_TAG_NAMES = {"FLUID": FLUID, "SOLID": SOLID}
MARKER_NAMES = {
    "GAMMA_F0": GAMMA_F0,
    "GAMMA_OUT": GAMMA_OUT,
    "GAMMA_S0": GAMMA_S0,
    "GAMMA_FS": GAMMA_FS,
}
TAG_TO_NAME = {v: k for k, v in CELL_TAG_NAMES.items()}
MARKER_TO_NAME = {v: k for k, v in MARKER_NAMES.items()}

# All marker names accepted when mapping gmsh physical groups.
_ALL_NAMES = dict(CELL_TAG_NAMES, **MARKER_NAMES)

# (facet, boundary vertex) pairs tested at once by the hanging-node check
_HANGING_BLOCK = 1 << 16


class EdgeTable(NamedTuple):
    """Edges of a triangle mesh, derived from its cells in one pass.

    edges        (ne, 2) sorted vertex pairs, in lexicographic order
    cell_edges   (nc, 3) edge ids of each cell, in LOCAL_EDGES order
    edge_cells   (ne, 2) the cells of each edge, ascending; -1 on the boundary
    facet_edges  (nf,) edge id of each marked facet, -1 where it is no edge
    """

    edges: np.ndarray
    cell_edges: np.ndarray
    edge_cells: np.ndarray
    facet_edges: np.ndarray


@dataclass
class Mesh:
    """Triangle mesh: vertices, cells with subdomain tags, marked facets.

    vertices      (nv, 2) float64
    cells         (nc, 3) int64, positively oriented after validation
    cell_tags     (nc,) int64, FLUID or SOLID
    facets        (nf, 2) int64 vertex ids of marked facets
    facet_markers (nf,) int64
    """

    vertices: np.ndarray
    cells: np.ndarray
    cell_tags: np.ndarray
    facets: np.ndarray
    facet_markers: np.ndarray
    _table: Optional[EdgeTable] = field(default=None, repr=False)

    @property
    def dim(self) -> int:
        return self.vertices.shape[1]

    @property
    def num_vertices(self) -> int:
        return self.vertices.shape[0]

    @property
    def num_cells(self) -> int:
        return self.cells.shape[0]

    def cells_with_tag(self, tag: int) -> np.ndarray:
        return np.flatnonzero(self.cell_tags == tag)

    def facets_with_marker(self, marker: int) -> np.ndarray:
        return np.flatnonzero(self.facet_markers == marker)

    @property
    def edge_table(self) -> EdgeTable:
        """Built at first use; validate_mesh rebuilds it after orientation repair."""
        if self._table is None:
            self._table = _edge_table(self)
        return self._table


def _edge_table(mesh: Mesh) -> EdgeTable:
    """The edge table of the mesh's cells and marked facets.

    Edge ids follow the code a * nv + b of the sorted pair (a, b), so they
    number edges in the lexicographic order of their vertex pairs.
    """
    nv, nc = mesh.num_vertices, mesh.num_cells
    pairs = np.sort(mesh.cells[:, LOCAL_EDGES], axis=2)                    # (nc, 3, 2)
    codes, cell_edges = np.unique((pairs[..., 0] * nv + pairs[..., 1]).ravel(),
                                  return_inverse=True)
    ne = len(codes)
    edges = np.column_stack(np.divmod(codes, nv))
    count = np.bincount(cell_edges, minlength=ne)
    if count.max() > 2:
        e = int(np.argmax(count))
        raise MeshError("non-conforming mesh: facet %s shared by %d cells"
                        % (_key(edges[e]), count[e]))
    # cell slots grouped by edge, each edge's cells ascending
    slots = np.argsort(cell_edges, kind="stable")
    first = np.cumsum(count) - count
    edge_cells = np.full((ne, 2), -1, dtype=np.int64)
    edge_cells[:, 0] = slots[first] // 3
    two = count == 2
    edge_cells[two, 1] = slots[first[two] + 1] // 3

    fpairs = np.sort(mesh.facets, axis=1)
    fcodes = fpairs[:, 0] * nv + fpairs[:, 1]
    pos = np.minimum(np.searchsorted(codes, fcodes), ne - 1)
    real = (fpairs[:, 0] >= 0) & (fpairs[:, 1] < nv) & (codes[pos] == fcodes)
    return EdgeTable(edges, cell_edges.reshape(nc, 3), edge_cells, np.where(real, pos, -1))


def _key(pair) -> tuple:
    """Sorted vertex pair as a tuple of ints, for messages."""
    return tuple(sorted(int(v) for v in pair))


def _signed_volumes(vertices, cells) -> np.ndarray:
    v0 = vertices[cells[:, 0]]
    edges = vertices[cells[:, 1:]] - v0[:, None, :]
    return (edges[:, 0, 0] * edges[:, 1, 1] - edges[:, 0, 1] * edges[:, 1, 0]) / 2.0


@dataclass
class Interface:
    """The GAMMA_FS facets in stored marker order, with their fluid and solid
    cells and their lengths in the reference mesh."""

    vertices: np.ndarray      # (nf, 2) vertex ids, in stored facet order
    fluid_cells: np.ndarray   # (nf,)
    solid_cells: np.ndarray   # (nf,)
    h: np.ndarray             # (nf,) facet lengths

    def __len__(self) -> int:
        return len(self.h)


def facet_normals(mesh: Mesh, facets: np.ndarray, cells: np.ndarray):
    """Unit normals of straight facets pointing out of `cells`, and their lengths.

    A facet from vertex a to vertex b has the normal (t1, -t0) / |t| of
    t = b - a, flipped where it points towards its cell's centroid.
    """
    p = mesh.vertices[facets]
    t = p[:, 1] - p[:, 0]
    h = np.linalg.norm(t, axis=1)
    n = np.column_stack([t[:, 1], -t[:, 0]]) / h[:, None]
    inward = mesh.vertices[mesh.cells[cells]].mean(axis=1) - p[:, 0]
    n[np.einsum("fd,fd->f", n, inward) > 0.0] *= -1.0
    return n, h


def extract_interface(mesh: Mesh) -> Interface:
    """GAMMA_FS facets, each with its fluid and its solid cell."""
    idx = mesh.facets_with_marker(GAMMA_FS)
    fverts = mesh.facets[idx]
    table = mesh.edge_table
    fe = table.facet_edges[idx]
    c0, c1 = table.edge_cells[fe].T
    bad = np.flatnonzero((fe < 0) | (c1 < 0) | (mesh.cell_tags[c0] == mesh.cell_tags[c1]))
    if len(bad):
        k = bad[0]
        cells = [] if fe[k] < 0 else [int(c) for c in (c0[k], c1[k]) if c >= 0]
        raise MeshError("interface facet not between subdomains: facet %s touches cells %s"
                        % (fverts[k].tolist(), cells))
    fluid_first = mesh.cell_tags[c0] == FLUID
    cf = np.where(fluid_first, c0, c1)
    cs = np.where(fluid_first, c1, c0)
    return Interface(fverts.copy(), cf, cs, facet_normals(mesh, fverts, cf)[1])


def validate_mesh(mesh: Mesh) -> Mesh:
    """Run all structural checks; repairs orientation in place.

    Raises MeshError on: empty mesh, invalid vertex references, degenerate
    cells, facets shared by more than two cells, missing/contradictory
    facet markers, marker adjacency violations, boundary hanging nodes.
    """
    if mesh.num_cells == 0 or mesh.num_vertices == 0:
        raise MeshError("empty mesh")
    if mesh.cells.min() < 0 or mesh.cells.max() >= mesh.num_vertices:
        raise MeshError("cell references vertex id out of range")
    for tag in np.unique(mesh.cell_tags):
        if tag not in (FLUID, SOLID):
            raise MeshError("unknown cell tag %r" % tag)

    # Orientation repair: swap the last two vertices of inverted cells.
    vols = _signed_volumes(mesh.vertices, mesh.cells)
    scale = float(np.abs(vols).max())
    if scale == 0.0 or np.any(np.abs(vols) < 1e-12 * scale):
        bad = int(np.argmin(np.abs(vols)))
        raise MeshError("degenerate cell %d with volume %g" % (bad, vols[bad]))
    flip = vols < 0.0
    if np.any(flip):
        mesh.cells[flip, -2:] = mesh.cells[flip, -2:][:, ::-1]

    # Facet sharing: the table rejects an edge of more than two cells.
    mesh._table = None
    edges, _, edge_cells, fe = mesh.edge_table

    # Marker table: every marked facet is a real facet, without contradictions.
    bad = np.flatnonzero(fe < 0)
    if len(bad):
        raise MeshError("marked facet %s is not a facet of any cell" % (_key(mesh.facets[bad[0]]),))
    marker = np.zeros(len(edges), dtype=np.int64)
    marker[fe] = mesh.facet_markers
    bad = np.flatnonzero(marker[fe] != mesh.facet_markers)
    if len(bad):
        raise MeshError("contradictory markers on facet %s" % (_key(mesh.facets[bad[0]]),))
    bad = np.flatnonzero(~np.isin(mesh.facet_markers, list(MARKER_TO_NAME)))
    if len(bad):
        raise MeshError("unknown facet marker %r" % int(mesh.facet_markers[bad[0]]))

    # Every outer-boundary facet needs a marker; every internal fluid/solid
    # facet must be marked GAMMA_FS, otherwise the subdomains silently decouple.
    boundary = edge_cells[:, 1] < 0
    tag0 = mesh.cell_tags[edge_cells[:, 0]]
    tag1 = np.where(boundary, tag0, mesh.cell_tags[edge_cells[:, 1]])
    between = tag0 != tag1
    bad = np.flatnonzero(boundary & (marker == 0))
    if len(bad):
        raise MeshError("facet with missing marker: boundary facet %s" % (_key(edges[bad[0]]),))
    bad = np.flatnonzero(between & (marker != GAMMA_FS))
    if len(bad):
        raise MeshError("facet with missing marker: interface facet %s" % (_key(edges[bad[0]]),))

    # Marker adjacency rules.
    bad = np.flatnonzero((marker == GAMMA_FS) & ~between)
    if len(bad):
        e = bad[0]
        tags = sorted(int(mesh.cell_tags[c]) for c in edge_cells[e] if c >= 0)
        raise MeshError("interface facet not between subdomains: %s (tags %s)"
                        % (_key(edges[e]), tags))
    for m, tag in ((GAMMA_F0, FLUID), (GAMMA_OUT, FLUID), (GAMMA_S0, SOLID)):
        bad = np.flatnonzero((marker == m) & ~(boundary & (tag0 == tag)))
        if len(bad):
            raise MeshError("%s facet %s must belong to exactly one %s cell"
                            % (MARKER_TO_NAME[m], _key(edges[bad[0]]), TAG_TO_NAME[tag]))

    _check_hanging_nodes(mesh, edges[marker > 0])
    return mesh


def _check_hanging_nodes(mesh: Mesh, marked: np.ndarray) -> None:
    """Reject vertices sitting strictly inside a marked facet.

    A hanging node on the boundary is always a vertex of some marked facet,
    so only those vertices need testing.  A vertex hangs on the facet a->b
    when its projection lies strictly between a and b and its distance to
    the line is below 1e-10 |b - a|; with t = b - a and r = p - a that is
    1e-10 |t|^2 < r.t < (1 - 1e-10) |t|^2 and (r x t)^2 < 1e-20 |t|^4.  Each block
    of facets is tested against all of them at once, about _HANGING_BLOCK
    pairs per block, and the first hanging vertex in facet order, then
    vertex order, is reported.
    """
    bverts = np.unique(marked)
    px, py = mesh.vertices[bverts].T
    step = max(1, _HANGING_BLOCK // len(bverts))
    for lo in range(0, len(marked), step):
        fac = marked[lo:lo + step]
        a = mesh.vertices[fac[:, 0]]
        tx, ty = (mesh.vertices[fac[:, 1]] - a).T
        L2 = tx * tx + ty * ty
        rx = px - a[:, :1]                                  # (facets, vertices)
        ry = py - a[:, 1:]
        along = rx * tx[:, None] + ry * ty[:, None]
        # the distance test only where the projection falls inside the facet
        f, k = np.nonzero((along > 1e-10 * L2[:, None]) & (along < (1.0 - 1e-10) * L2[:, None]))
        across = rx[f, k] * ty[f] - ry[f, k] * tx[f]
        hangs = np.flatnonzero((across * across < 1e-20 * L2[f] * L2[f])
                               & (bverts[k] != fac[f, 0]) & (bverts[k] != fac[f, 1]))
        if len(hangs):
            i = hangs[0]
            raise MeshError("non-conforming mesh: vertex %d hangs on facet %s"
                            % (bverts[k[i]], _key(fac[f[i]])))


# ---------------------------------------------------------------------------
# Native plain-text format
# ---------------------------------------------------------------------------

_NATIVE_SECTIONS = ("VERTICES", "CELLS", "FACETS")


def _tokenize(text: str):
    for line in text.splitlines():
        body = line.split("#", 1)[0].strip()
        if body:
            yield body.split()


def _numbers(section: str, row: int, values, convert) -> list:
    """Row `row` of a file section converted by int or float; a value that
    does not convert raises MeshError naming the section and the row."""
    try:
        return [convert(v) for v in values]
    except ValueError:
        raise MeshError("%s row %d: cannot read %r as %s values"
                        % (section, row, " ".join(values), convert.__name__))


def parse_native(text: str) -> Mesh:
    """Parse the native format: VERTICES / CELLS / FACETS sections."""
    rows = list(_tokenize(text))
    pos = 0

    def section(usage):
        """Header numbers and body rows of the next section, `usage` being
        its header line, e.g. 'CELLS <count>'."""
        nonlocal pos
        name, nhead = usage.split()[0], len(usage.split()) - 1
        if pos >= len(rows) or rows[pos][0] != name:
            raise MeshError("expected %s section" % name)
        try:
            head = [int(v) for v in rows[pos][1:]]
        except ValueError:
            head = []
        if len(head) != nhead or head[0] < 0:
            raise MeshError("%s header must be '%s'" % (name, usage))
        body = rows[pos + 1: pos + 1 + head[0]]
        found = next((i for i, row in enumerate(body) if row[0] in _NATIVE_SECTIONS), len(body))
        if found < head[0]:
            raise MeshError("%s section has %d rows, its header declares %d"
                            % (name, found, head[0]))
        pos += 1 + head[0]
        return head, body

    def entities(usage, nids, names, what):
        """Vertex ids and tag of each row of a CELLS or FACETS section."""
        name = usage.split()[0]
        (n,), body = section(usage)
        ids = np.empty((n, nids), dtype=np.int64)
        tags = np.empty(n, dtype=np.int64)
        for i, row in enumerate(body):
            if len(row) != nids + 1:
                raise MeshError("%s row %d malformed: expected %d vertex ids and a name"
                                % (name, i, nids))
            ids[i] = _numbers(name, i, row[:nids], int)
            if row[nids] not in names:
                raise MeshError("unknown %s %r in %s row %d" % (what, row[nids], name, i))
            tags[i] = names[row[nids]]
        return ids, tags

    (nv, dim), body = section("VERTICES <count> <dim>")
    if dim != 2:
        raise MeshError("dimension must be 2, got %d" % dim)
    verts = np.empty((nv, dim))
    for i, row in enumerate(body):
        if len(row) != dim:
            raise MeshError("VERTICES row %d has %d coordinates, expected %d" % (i, len(row), dim))
        verts[i] = _numbers("VERTICES", i, row, float)
    cells, tags = entities("CELLS <count>", dim + 1, CELL_TAG_NAMES, "cell tag")
    facets, markers = entities("FACETS <count>", dim, MARKER_NAMES, "facet marker")
    if pos != len(rows):
        raise MeshError("trailing content after FACETS section")

    return Mesh(verts, cells, tags, facets, markers)


# ---------------------------------------------------------------------------
# gmsh MSH 2.2 (ASCII)
# ---------------------------------------------------------------------------

_MSH_TYPE_NODES = {1: 2, 2: 3, 15: 1}  # line, triangle, point


def _msh_rows(sections: Dict[str, List[str]], name: str) -> List[List[str]]:
    """Token rows of the counted section $Nodes or $Elements; a missing
    count or fewer rows than it states raises MeshError."""
    body = sections[name]
    try:
        n = int(body[0])
    except (IndexError, ValueError):
        n = -1
    if n < 0:
        raise MeshError("$%s section must start with its row count" % name)
    rows = [line.split() for line in body[1:1 + n]]
    if len(rows) < n:
        raise MeshError("$%s section has %d rows, its count says %d" % (name, len(rows), n))
    return rows


def parse_msh(text: str, physical_map: Dict[int, str]) -> Mesh:
    """Parse ASCII MSH 2.2; physical ids resolve through physical_map."""
    lines = text.splitlines()
    sections: Dict[str, List[str]] = {}
    i = 0
    while i < len(lines):
        line = lines[i].strip()
        if line.startswith("$") and not line.startswith("$End"):
            name = line[1:]
            j = i + 1
            body = []
            endtag = "$End" + name
            while j < len(lines) and lines[j].strip() != endtag:
                body.append(lines[j].strip())
                j += 1
            if j == len(lines):
                raise MeshError("unterminated section $%s" % name)
            sections[name] = body
            i = j + 1
        else:
            i += 1

    if "MeshFormat" not in sections:
        raise MeshError("missing $MeshFormat section")
    fmt = (sections["MeshFormat"] or [""])[0].split()
    if len(fmt) < 2 or not fmt[0].startswith("2.2") or fmt[1] != "0":
        raise MeshError("only ASCII MSH 2.2 is supported, got %s" % " ".join(fmt[:2]))

    if "Nodes" not in sections or "Elements" not in sections:
        raise MeshError("missing $Nodes or $Elements section")

    rows = _msh_rows(sections, "Nodes")
    ids = np.empty(len(rows), dtype=np.int64)
    xyz = np.empty((len(rows), 3))
    for k, parts in enumerate(rows):
        if len(parts) != 4:
            raise MeshError("$Nodes row %d must be 'id x y z', got %r" % (k, " ".join(parts)))
        ids[k] = _numbers("$Nodes", k, parts[:1], int)[0]
        xyz[k] = _numbers("$Nodes", k, parts[1:], float)
    id_map = {int(g): k for k, g in enumerate(ids)}

    tris, tri_phys = [], []
    segs, seg_phys = [], []
    for k, parts in enumerate(_msh_rows(sections, "Elements")):
        parts = _numbers("$Elements", k, parts, int)
        if len(parts) < 3:
            raise MeshError("$Elements row %d must start with 'id type ntags'" % k)
        etype, ntags = parts[1], parts[2]
        if etype not in _MSH_TYPE_NODES:
            raise MeshError("unsupported MSH element type %d (meshes are 2D: lines, "
                            "triangles and points only)" % etype)
        nodes = parts[3 + ntags:]
        if len(nodes) != _MSH_TYPE_NODES[etype]:
            raise MeshError("element %d has wrong node count" % parts[0])
        phys = parts[3] if ntags >= 1 else 0
        undefined = [n for n in nodes if n not in id_map]
        if undefined:
            raise MeshError("$Elements row %d: node %d is not defined in $Nodes"
                            % (k, undefined[0]))
        nodes = [id_map[n] for n in nodes]
        if etype == 2:
            tris.append(nodes)
            tri_phys.append(phys)
        elif etype == 1:
            segs.append(nodes)
            seg_phys.append(phys)

    def resolve(phys, kind):
        if phys not in physical_map:
            raise MeshError("unmapped physical tag %d on %s" % (phys, kind))
        name = physical_map[phys]
        if name not in _ALL_NAMES:
            raise MeshError("physical tag %d maps to unknown name %r" % (phys, name))
        return _ALL_NAMES[name]

    if not tris:
        raise MeshError("no cells found in MSH file")
    if np.abs(xyz[:, 2]).max(initial=0.0) > 0.0:
        raise MeshError("2D MSH mesh has nonzero z coordinates")

    verts = xyz[:, :2].copy()
    cells = np.asarray(tris, dtype=np.int64)
    tags = np.array([resolve(p, "cell") for p in tri_phys], dtype=np.int64)
    if np.any((tags != FLUID) & (tags != SOLID)):
        raise MeshError("cell physical tag did not map to FLUID or SOLID")
    facets = np.asarray(segs, dtype=np.int64).reshape(len(segs), 2)
    markers = np.array([resolve(p, "facet") for p in seg_phys], dtype=np.int64)
    if np.any(markers < GAMMA_F0):
        raise MeshError("facet physical tag mapped to a cell tag name")
    return Mesh(verts, cells, tags, facets, markers)


def load_mesh(path: str, physical_map: Optional[Dict[int, str]] = None) -> Mesh:
    """Load and validate a mesh from native text or MSH 2.2 format.

    Format is chosen by extension (.msh) or by a $MeshFormat sniff; MSH needs
    physical_map to translate integer physical groups to tag/marker names.
    """
    try:
        with open(path) as fh:
            text = fh.read()
    except FileNotFoundError:
        raise MeshError("mesh file not found: %s" % path)
    except OSError as exc:
        raise MeshError("cannot read mesh file %s: %s" % (path, exc.strerror))
    except UnicodeDecodeError as exc:
        raise MeshError("cannot read mesh file %s: not text (byte 0x%02x at offset %d)"
                        % (path, exc.object[exc.start], exc.start))
    is_msh = path.endswith(".msh") or text.lstrip().startswith("$MeshFormat")
    if is_msh:
        if physical_map is None:
            raise MeshError("MSH input requires a physical tag mapping")
        mesh = parse_msh(text, physical_map)
    else:
        mesh = parse_native(text)
    return validate_mesh(mesh)
