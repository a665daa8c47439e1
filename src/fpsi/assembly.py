"""Monolithic assembly of the semi-implicit coupled system.

One time step solves a single linear system for (v_f, v_s, q, p_f, p_d) on
the reference mesh.  All geometric weights (J~, F(u~), interface normal and
area scaling) are evaluated at the lagged displacement u~ = u^{k-1}, so
every form is linear in the step-k unknowns:

    mass      m:   rho-weighted J~ masses of the BDF time derivatives
    elastic   a_s: F(u~) S(E(u_k, u~)) : grad(psi_s), with the implicit
                   displacement u_k = beta v_s^k + history (beta = dt/a0)
    darcy     a_d: J~ K^-1 q . psi_d
    viscous   a_f: 2 mu_f J~ D_u(v_f) : D_u(psi_f)
    advection c_f: rho_f J~ (grad v_f F~^-1 (v~_f - w~)) . psi_f
    pressure  b_a: p J~ F~^-T : grad(psi), tested against psi_s, psi_d, psi_f,
                   with transposed constraint rows on (q_f, q_d)
    interface d:   penalty tau ((v_f - v_s - q).n)((...).n), pressure coupling
                   p_d (psi_f - psi_s - psi_d).n, kinetic correction
                   (rho_f/2)(v~_f . v_f)(psi_s - psi_f).n, and the tangential
                   slip term gamma K^-1/2 P(v_f - v_s).P(psi_f - psi_s),
                   all weighted by the deformed area J~_s

Note the pore pressure is tested against both psi_s and psi_d: the momentum
equation of the skeleton carries sigma_p = sigma_s - p_d I, and the energy
balance needs the constraint block to be the exact transpose of the pressure
blocks.

Dirichlet conditions are applied by identity-row replacement with column
symmetrization (known values move to the right-hand side).

Assembly is fixed-pattern (see fem.py): each term appends its element
blocks (rows, cols, values) to one list.  The first assembly of a problem
builds the system's record from that list (`fem.SparsePattern`): the CSR
pattern with its Dirichlet dofs, which `build_problem` resolves
(`Problem.fixed`), eliminated, the scatter of every element entry into it
and the LU elimination order.  Every later step computes element values and
boundary values only.  Terms that the data can switch off (backflow at
outflow, the kinetic correction at rest, slip at gamma = 0, a zero load or
history) are always added, with zero values when inactive, so one pattern
and one path serve every step.

The geometry of u~ (`Geometry`) comes with the step's inputs: the stepper
builds it once per configuration with `check_deformation` and hands it on
to the next step, and a steady solve takes the reference configuration.
It holds each geometric quantity once, for the forms, the mesh extension
(in the reference configuration) and the energy monitor alike
(`build_geometry`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np
from scipy import sparse

from .elements import LOCAL_EDGES, eval_basis, simplex_quadrature
from .errors import AssemblyError
from .fem import (SparsePattern, add_kron_eye, apply_dirichlet, component_dofs, component_trace,
                  dirichlet_rhs, field_at_qp, gradient_gram, gradient_moment, grads_at_qp,
                  last_set, scalar_at_qp, scatter_add, transposed, weighted_gram,
                  weighted_moment)
from .kinematics import (MaterialParams, deformation_state, green_lagrange, matmul2,
                         pushforward_normal, svk_stress)
from .mesh import FLUID, MARKER_TO_NAME, SOLID, Mesh, extract_interface, facet_normals
from .spaces import FunctionSpace, batch_eval, build_space, cell_geometry, transfer_nodes

FIELD_ORDER = ("v_f", "v_s", "q", "p_f", "p_d")
QUAD_DEGREE = 6         # degree of the quadrature rule of every cell and facet batch


# ---------------------------------------------------------------------------
# Block layout and system container
# ---------------------------------------------------------------------------

@dataclass
class BlockLayout:
    names: Tuple[str, ...]
    sizes: Dict[str, int]
    offsets: Dict[str, int]
    total: int

    @classmethod
    def build(cls, sizes: Dict[str, int]) -> "BlockLayout":
        names = tuple(n for n in FIELD_ORDER if n in sizes)
        offsets = {}
        pos = 0
        for n in names:
            offsets[n] = pos
            pos += sizes[n]
        return cls(names, dict(sizes), offsets, pos)

    def slice_of(self, name: str) -> slice:
        off = self.offsets[name]
        return slice(off, off + self.sizes[name])

    def split(self, x: np.ndarray) -> Dict[str, np.ndarray]:
        return {n: x[self.slice_of(n)].copy() for n in self.names}


@dataclass
class BlockSystem:
    A: sparse.csr_matrix
    b: np.ndarray
    layout: BlockLayout


# ---------------------------------------------------------------------------
# Quadrature batches (geometry of the reference mesh only)
# ---------------------------------------------------------------------------

@dataclass
class QuadBatch:
    """Quadrature points and P2/P1 bases of a batch of cells or of facets.

    A facet batch carries the traces of one owning cell per facet.  Cells
    share their quadrature points in reference coordinates, so a cell batch
    keeps one (nq, n) value table for all cells; facets meet their cells at
    different reference points, so a facet batch keeps one table per facet
    (nb, nq, n) and its unit reference normal `nref`.  The value tables,
    nodes and dofs of a facet batch hold the facet's own nodes only
    (`facet_nodes`): its 2 vertices and its edge in P2 (n2 = 3), its 2
    vertices in P1 (n1 = 2).  The cell's other nodes have no trace on the
    facet, so every facet form and the energy monitor's interface terms
    work on these smaller tables as they are.  The P2 gradients are per
    entry in either case and span the whole cell (n = 6), with the
    displacement's nodes `nodes_u`, since F at a facet point needs every
    node of its cell.  They are stored in product layout (nb, n, d, nq):
    the gradient of a field is one (d x n)(n x d nq) product per entry
    (`fem.grads_at_qp`), and the nq values of one basis function and
    component lie next to each other.
    """

    cells: np.ndarray          # (nb,) global ids of the (owning) cells
    w: np.ndarray              # (nb, nq) weights incl. |det B| or facet length
    X: np.ndarray              # (nb, nq, d) reference-domain coordinates
    val2: np.ndarray           # (nq, n2) cells, (nb, nq, n2) facets: P2 values
    dphi2: np.ndarray          # (nb, n, d, nq) P2 gradients of the cell, domain coords
    val1: np.ndarray           # (nq, n1) cells, (nb, nq, n1) facets: P1 values
    nodes2: np.ndarray         # (nb, n2) scalar nodes of the subdomain P2 space
    nodes1: np.ndarray         # (nb, n1) scalar nodes of the subdomain P1 space
    nodes_u: np.ndarray        # (nb, n) the cell's nodes of the global displacement space
    vdofs: np.ndarray          # (nb, n2*d) interleaved vector dofs
    nref: Optional[np.ndarray] = None   # (nb, d) facets only


@dataclass
class InterfaceData:
    fluid: QuadBatch
    solid: QuadBatch
    tau: np.ndarray           # (nf,) penalty weights


@dataclass
class PressureLoad:
    """Natural boundary load  b += p(t) * int J~ (F~^-T n_ref).psi ds."""

    marker: int
    value: Callable[[float], float]


@dataclass
class DirichletBC:
    field: str
    markers: Tuple[int, ...]
    value: Callable[[np.ndarray, float], np.ndarray]


@dataclass
class Geometry:
    """Deformation-dependent weights at quadrature points, one time level."""

    fluid: Optional[dict] = None
    solid: Optional[dict] = None
    iface: Optional[dict] = None
    loads: Dict[int, dict] = field(default_factory=dict)


@dataclass
class StepInputs:
    """Everything the assembler needs about time level k.

    dt None means a steady solve: no mass terms, beta = 1.  geo is the
    geometry of u~ (`build_geometry`).  hist entries hold a1 f^{k-1} +
    a2 f^{k-2}; the extrapolated fields are full dof vectors.
    """

    t: float
    dt: Optional[float]
    a0: float
    geo: Geometry
    u_impl_hist: np.ndarray
    hist: Dict[str, np.ndarray] = field(default_factory=dict)
    vf_tilde: Optional[np.ndarray] = None
    w_tilde: Optional[np.ndarray] = None

    @classmethod
    def steady(cls, problem: "Problem") -> "StepInputs":
        """A steady solve at t = 0 in the reference configuration."""
        zero = np.zeros(problem.spaces["u"].num_dofs)
        return cls(t=0.0, dt=None, a0=1.0, geo=build_geometry(problem, zero),
                   u_impl_hist=zero)

    @property
    def beta(self) -> float:
        """d u_k / d v_s: dt/a0, or 1 for a steady solve."""
        return 1.0 if self.dt is None else self.dt / self.a0


# ---------------------------------------------------------------------------
# Problem container
# ---------------------------------------------------------------------------

@dataclass
class Problem:
    mesh: Mesh
    params: MaterialParams
    spaces: Dict[str, FunctionSpace]
    fluid: Optional[QuadBatch]
    solid: Optional[QuadBatch]
    iface: Optional[InterfaceData]
    natural: Dict[int, QuadBatch]     # facet traces of the loaded and open markers
    open_markers: Tuple[int, ...]     # natural boundaries with backflow treatment
    loads: List[PressureLoad]
    forcing: Dict[str, Callable]
    fixed: List[Tuple[np.ndarray, Callable]]    # (system dofs, values(t)) per condition, pin last
    layout: BlockLayout
    map_vs_to_u: Optional[Tuple[np.ndarray, np.ndarray]] = None
    map_vf_to_u: Optional[Tuple[np.ndarray, np.ndarray]] = None
    map_vs_to_vf: Optional[Tuple[np.ndarray, np.ndarray]] = None
    # one record per matrix ("system", "extension"), built whole at its first
    # assembly: eliminated pattern and its Dirichlet dofs, LU order, held LU;
    # the extension's also keeps its eliminated matrix and lift, assembled once
    patterns: Dict[str, SparsePattern] = field(default_factory=dict, repr=False)

    @property
    def dim(self) -> int:
        return self.mesh.dim

    def entity_keys(self, fields: Sequence[str]) -> np.ndarray:
        """Mesh-entity key (`FunctionSpace.entity_keys`) of each dof of the
        fields, concatenated in the given order."""
        return np.concatenate([np.repeat(self.spaces[f].entity_keys(), self.spaces[f].ncomp)
                               for f in fields])

    def zero_fields(self) -> Dict[str, np.ndarray]:
        out = {n: np.zeros(self.layout.sizes[n]) for n in self.layout.names}
        out["u"] = np.zeros(self.spaces["u"].num_dofs)
        out["w"] = np.zeros(self.spaces["u"].num_dofs)
        return out


def _quad_batch(sub_spaces, cells, facets=None) -> QuadBatch:
    """Quadrature batch of the given cells, or of their traces on `facets`.

    sub_spaces = (P2 space, P1 space) of the subdomain holding the cells,
    then the global displacement space.  facets (nb, d) lists one straight
    facet of each cell; its reference normal is the cell's outward unit
    normal there, and the batch's values, nodes and dofs are those of the
    facet's own nodes (`facet_nodes`).
    """
    space2, space1, space_u = sub_spaces
    mesh = space_u.mesh
    d = mesh.dim
    cells = np.asarray(cells, dtype=np.int64)
    x0, B, adet, Binv = cell_geometry(mesh, cells)
    nref = None
    if facets is None:
        rule = simplex_quadrature(d, QUAD_DEGREE)
        xi = rule.points                                            # (nq, d), shared
        w = rule.weights[None, :] * adet[:, None]
        X = x0[:, None, :] + xi @ np.swapaxes(B, 1, 2)
    else:                                   # straight 2D facets (build_problem is 2D only)
        rule = simplex_quadrature(d - 1, QUAD_DEGREE)
        nref, length = facet_normals(mesh, facets, cells)
        p = mesh.vertices[facets]                                   # (nb, 2, d)
        t = p[:, 1] - p[:, 0]
        X = p[:, None, 0, :] + rule.points[None, :, 0, None] * t[:, None, :]
        w = rule.weights[None, :] * length[:, None]
        xi = np.clip((X - x0[:, None, :]) @ np.swapaxes(Binv, 1, 2), 0.0, 1.0)

    shape = xi.shape[:-1]                                           # (nq,) or (nb, nq)
    v2, g2hat = eval_basis(d, 2, xi.reshape(-1, d))
    v1, _ = eval_basis(d, 1, xi.reshape(-1, d))
    n2 = v2.shape[1]
    # grad(phi) = grad_hat(phi) B^-1 in product layout: B^-T times the
    # reference table (n2, d, nq), or (nb, n2, d, nq) on facets, per basis function
    ghat = np.moveaxis(g2hat.reshape(shape + (n2, d)), -3, -1)
    dphi2 = np.swapaxes(Binv, 1, 2)[:, None] @ ghat

    loc = np.searchsorted(space2.cells, cells)      # both spaces share the subdomain cells
    val2, val1 = v2.reshape(shape + (n2,)), v1.reshape(shape + (d + 1,))
    nodes2, nodes1 = space2.cell_nodes[loc], space1.cell_nodes[loc]
    if facets is not None:
        own2, own1 = facet_nodes(mesh, cells, facets)
        val2 = np.take_along_axis(val2, own2[:, None, :], axis=2)
        val1 = np.take_along_axis(val1, own1[:, None, :], axis=2)
        nodes2 = np.take_along_axis(nodes2, own2, axis=1)
        nodes1 = np.take_along_axis(nodes1, own1, axis=1)
    vdofs = (nodes2[:, :, None] * d + np.arange(d)).reshape(len(cells), -1)
    return QuadBatch(cells, w, X, val2, dphi2, val1, nodes2, nodes1,
                     space_u.cell_nodes[cells], vdofs, nref)


def facet_nodes(mesh: Mesh, cells: np.ndarray, facets: np.ndarray):
    """The local P2 and P1 nodes of each cell that lie on its facet: (nb, 3)
    and (nb, 2), the facet's two vertices in its own order, then the P2 node
    of its edge (`elements.LOCAL_EDGES`).  The cell's other nodes have a
    zero trace on the facet whatever the geometry: the off-facet vertex's
    barycentric coordinate vanishes there, and it is a factor of each of
    their basis functions."""
    own1 = np.argmax(mesh.cells[cells][:, None, :] == facets[:, :, None], axis=2)
    edge = np.zeros((3, 3), dtype=np.int64)
    for e, (a, b) in enumerate(LOCAL_EDGES):
        edge[a, b] = edge[b, a] = 3 + e
    return np.column_stack([own1, edge[own1[:, 0], own1[:, 1]]]), own1


def build_problem(mesh: Mesh, params: MaterialParams, *,
                  penalty_scale: float = 1.0,
                  penalty_const: Optional[float] = None,
                  dirichlet: Optional[Sequence[DirichletBC]] = None,
                  loads: Optional[Sequence[PressureLoad]] = None,
                  open_markers: Sequence[int] = (),
                  forcing: Optional[Dict[str, Callable]] = None,
                  pin_pf: Optional[Tuple[int, Callable[[float], float]]] = None) -> Problem:
    """Build spaces, quadrature caches and the block layout for one mesh.

    Every batch takes the degree-QUAD_DEGREE rule.  The interface penalty is
    tau = penalty_scale * h^-2 per facet; penalty_const replaces it with a
    constant (the form tests switch the penalty off with 0).  pin_pf =
    (node, g) holds p_f node `node` at g(t); a fluid with no natural
    boundary needs it, since p_f is then defined only up to a constant.
    The pin and the `dirichlet` conditions resolve here into `Problem.fixed`.
    open_markers lists natural fluid boundaries that get the directional
    (backflow-stabilized) treatment in transient runs.  forcing holds the
    source terms of the v_f, v_s and q equations and of the pore mass
    balance ("mass_s"); any other key is an error.  A mesh without solid
    cells never moves: its steps assemble in the reference configuration.
    """
    d = mesh.dim
    if d != 2:
        raise AssemblyError("assembly is implemented for 2D meshes only")
    has_fluid = np.any(mesh.cell_tags == FLUID)
    has_solid = np.any(mesh.cell_tags == SOLID)
    loads = list(loads or [])
    forcing = dict(forcing or {})
    unread = sorted(set(forcing) - {"v_f", "v_s", "q", "mass_s"})
    if unread:
        raise AssemblyError("no form reads the forcing term(s) %s" % ", ".join(unread))

    spaces: Dict[str, FunctionSpace] = {}
    sizes: Dict[str, int] = {}
    spaces["u"] = build_space(mesh, 2, rank=1, tag=None)
    if has_fluid:
        spaces["v_f"] = build_space(mesh, 2, rank=1, tag=FLUID)
        spaces["p_f"] = build_space(mesh, 1, rank=0, tag=FLUID)
        sizes["v_f"] = spaces["v_f"].num_dofs
        sizes["p_f"] = spaces["p_f"].num_dofs
    if has_solid:
        spaces["v_s"] = build_space(mesh, 2, rank=1, tag=SOLID)
        spaces["p_d"] = build_space(mesh, 1, rank=0, tag=SOLID)
        spaces["q"] = spaces["v_s"]
        sizes["v_s"] = spaces["v_s"].num_dofs
        sizes["q"] = spaces["v_s"].num_dofs
        sizes["p_d"] = spaces["p_d"].num_dofs
    layout = BlockLayout.build(sizes)

    fluid_spaces = (spaces.get("v_f"), spaces.get("p_f"), spaces["u"])
    solid_spaces = (spaces.get("v_s"), spaces.get("p_d"), spaces["u"])
    fluid = solid = None
    if has_fluid:
        fluid = _quad_batch(fluid_spaces, spaces["v_f"].cells)
    if has_solid:
        solid = _quad_batch(solid_spaces, spaces["v_s"].cells)

    iface = None
    facets = extract_interface(mesh) if (has_fluid and has_solid) else None
    if facets:
        tau = np.full(len(facets), float(penalty_const)) if penalty_const is not None \
            else penalty_scale * facets.h ** -2.0
        # each side's trace carries the normal out of its own cells
        iface = InterfaceData(_quad_batch(fluid_spaces, facets.fluid_cells, facets.vertices),
                              _quad_batch(solid_spaces, facets.solid_cells, facets.vertices),
                              tau)

    def natural_traces(marker: int, what: str) -> QuadBatch:
        if not has_fluid:
            raise AssemblyError("%s on a mesh without fluid cells" % what)
        idx = mesh.facets_with_marker(marker)
        if len(idx) == 0:
            raise AssemblyError("%s marker %s has no facets"
                                % (what, MARKER_TO_NAME.get(marker, marker)))
        table = mesh.edge_table
        cells = table.edge_cells[table.facet_edges[idx], 0]
        return _quad_batch(fluid_spaces, cells, mesh.facets[idx])

    natural: Dict[int, QuadBatch] = {}
    for load in loads:
        natural[load.marker] = natural_traces(load.marker, "pressure load")
    for marker in open_markers:
        if marker not in natural:
            natural[marker] = natural_traces(marker, "open boundary")

    # each condition's system dofs, found once; one without nodes adds nothing
    fixed = []
    for bc in dirichlet or ():
        if bc.field not in layout.offsets:
            raise AssemblyError("Dirichlet condition on absent field %r" % bc.field)
        space = spaces[bc.field]
        at = space.nodes_on_markers(bc.markers)
        if len(at):         # the default arguments bind this condition's own values
            fixed.append((space.dofs_of_nodes(at) + layout.offsets[bc.field],
                          lambda t, f=bc.value, X=space.node_coords[at], n=space.ncomp:
                          batch_eval(lambda Y: f(Y, t), X, n).ravel()))
    if pin_pf is not None:
        if not 0 <= pin_pf[0] < layout.sizes.get("p_f", 0):       # no fluid: no p_f nodes
            raise AssemblyError("pinned pressure node %d is not a node of p_f" % pin_pf[0])
        fixed.append((np.array([layout.offsets["p_f"] + int(pin_pf[0])]),
                      lambda t: np.array([float(pin_pf[1](t))])))

    prob = Problem(mesh=mesh, params=params, spaces=spaces,
                   fluid=fluid, solid=solid, iface=iface, natural=natural,
                   open_markers=tuple(open_markers), loads=loads,
                   forcing=forcing, fixed=fixed, layout=layout)
    if has_solid:
        prob.map_vs_to_u = transfer_nodes(spaces["v_s"], spaces["u"])
    if has_fluid:
        prob.map_vf_to_u = transfer_nodes(spaces["v_f"], spaces["u"])
    if has_fluid and has_solid:
        prob.map_vs_to_vf = transfer_nodes(spaces["v_s"], spaces["v_f"])
    return prob


# ---------------------------------------------------------------------------
# Geometry at the lagged displacement u~ = u^{k-1}
# ---------------------------------------------------------------------------

def batch_deformation(batch: QuadBatch, u: np.ndarray) -> dict:
    """Deformation of the displacement u at a batch's quadrature points.

    Raises DegenerateDeformationError naming the cell if J is not positive.
    A cell batch gets F, J, the weights wJ = w J and G = grad(phi) F^-1,
    the P2 basis gradients pushed to the deformed configuration in the
    product layout of `dphi2`, which every gradient form shares.  A facet
    batch gets the deformed unit normal n and the weights wJs = w Js of the
    deformed area, Js = J |F^-T n_ref| (`kinematics.pushforward_normal`).
    """
    F, J, Finv, _ = deformation_state(
        grads_at_qp(batch.dphi2, batch.nodes_u, u, batch.X.shape[-1]), cell_ids=batch.cells)
    if batch.nref is None:
        return {"F": F, "J": J, "wJ": batch.w * J,
                "G": np.einsum("bieq,bqek->bikq", batch.dphi2, Finv)}
    n, Js = pushforward_normal(F, batch.nref[:, None, :])
    return {"n": n, "wJs": batch.w * Js}


def build_geometry(problem: Problem, u: np.ndarray) -> Geometry:
    """Deformation-dependent weights of the displacement u at every
    quadrature point, checked positive.

    Every batch's deformation is `batch_deformation`'s; the fluid part is
    `fluid_geometry`'s.  The interface adds the slip tensor P K^-1/2 P,
    P = I - n n.
    """
    geo = Geometry()
    if problem.fluid is not None:
        geo.fluid = fluid_geometry(problem, u)
    if problem.solid is not None:
        geo.solid = batch_deformation(problem.solid, u)
    if problem.iface is not None:
        geo.iface = batch_deformation(problem.iface.fluid, u)
        n = geo.iface["n"]
        P = np.eye(problem.dim) - n[..., :, None] * n[..., None, :]
        geo.iface["slip"] = matmul2(matmul2(P, problem.params.K_inv_sqrt), P)
    for marker, tr in problem.natural.items():
        geo.loads[marker] = batch_deformation(tr, u)
    return geo


def fluid_geometry(problem: Problem, u: np.ndarray) -> dict:
    """The fluid part of `build_geometry` in the configuration u, checked
    positive: J, wJ, G and the viscous operator `visc`.

    It keeps neither F nor the gradient Gram P[i,a,j,b] = sum_q w J G_ia G_jb
    (`fem.gradient_gram`), only visc = P[i,b,j,a] + delta_ab sum_c P[i,c,j,c],
    the sum_q w J 2 D:D of phi_i e_a and phi_j e_b: the viscous block reads
    mu_f visc.  The mesh extension takes this part alone, in the reference
    configuration, and forms its own Gram from it once per problem.
    """
    fluid = batch_deformation(problem.fluid, u)
    gram = gradient_gram(fluid["wJ"], fluid["G"])
    visc = add_kron_eye(transposed(gram, (0, 1, 4, 3, 2)), component_trace(gram))
    return {"J": fluid["J"], "wJ": fluid["wJ"], "G": fluid["G"], "visc": visc}


def check_deformation(problem: Problem, u: np.ndarray) -> Tuple[Geometry, float]:
    """The geometry of the configuration u and its smallest cell J.

    Building it checks J > 0 at every cell and facet quadrature point and
    raises DegenerateDeformationError naming the cell if u inverts one.
    """
    geo = build_geometry(problem, u)
    return geo, min(float(g["J"].min()) for g in (geo.fluid, geo.solid) if g is not None)


# ---------------------------------------------------------------------------
# Assembly of the monolithic system
# ---------------------------------------------------------------------------

def assemble_system(problem: Problem, inp: StepInputs) -> BlockSystem:
    """Assemble A, b for one step (or a steady solve when inp.dt is None)
    in the geometry inp.geo."""
    lay = problem.layout
    geo = inp.geo
    transient = inp.dt is not None
    blocks: List[tuple] = []
    b = np.zeros(lay.total)

    if problem.fluid is not None:
        _fluid_terms(problem, inp, geo, blocks, b, transient)
    if problem.solid is not None:
        _solid_terms(problem, inp, geo, blocks, b, transient)
    if problem.iface is not None:
        _interface_terms(problem, inp, geo, blocks)
    _load_terms(problem, inp, geo, b)
    _backflow_terms(problem, inp, geo, blocks)

    # the block sequence depends on these two flags only
    key = (transient, inp.vf_tilde is not None)
    pattern = problem.patterns.get("system")
    if pattern is None or pattern.key != key:
        # the Dirichlet dofs, sorted; where conditions overlap, the later wins
        dofs = np.concatenate([np.empty(0, dtype=np.int64)] + [d for d, _ in problem.fixed])
        pattern = SparsePattern(lay.total, blocks, problem.entity_keys(lay.names),
                                *last_set(dofs), key=key)
        problem.patterns["system"] = pattern
    A, lift = apply_dirichlet(pattern, blocks)
    b = dirichlet_rhs(pattern, lift, b, _dirichlet_values(problem, inp.t))
    return BlockSystem(A, b, lay)


def _fluid_terms(problem, inp, geo, blocks, b, transient):
    sub = problem.fluid
    prm = problem.params
    d = problem.dim
    lay = problem.layout
    wJ = geo.fluid["wJ"]
    G = geo.fluid["G"]                     # grad(phi) F^-1, (nc, nloc, d, nq)
    nc, nloc, _, nq = G.shape
    vd = sub.vdofs + lay.offsets["v_f"]
    pd = sub.nodes1 + lay.offsets["p_f"]

    # a_f: 2 mu J D:D, the geometry's viscous operator times mu
    K = prm.mu_f * geo.fluid["visc"]

    if transient:
        # the scalar part S (times I): the mass block, and c_f with the
        # extrapolated advective field v~_f - w~
        S = weighted_gram(wJ * (prm.rho_f * inp.a0 / inp.dt), sub.val2, sub.val2)
        hist = inp.hist.get("v_f")
        if hist is not None:
            hq = field_at_qp(sub.val2, sub.nodes2, hist, d)
            scatter_add(b, vd, -weighted_moment(wJ * (prm.rho_f / inp.dt), sub.val2, hq))
        if inp.vf_tilde is not None:
            adv = field_at_qp(sub.val2, sub.nodes2, inp.vf_tilde, d)
            if inp.w_tilde is not None:
                adv = adv - field_at_qp(sub.val2, sub.nodes_u, inp.w_tilde, d)
            # S[i,j] += sum_q rho w J phi_i (G_j . adv) = sum_(e,q) Y[i,(e,q)] G[j,(e,q)]
            # with Y = rho w J adv_e phi_i: one (nloc x d nq)(d nq x nloc) product per cell
            a = np.ascontiguousarray(np.moveaxis(adv * (wJ * prm.rho_f)[..., None], -1, 1))
            Y = a[:, None] * np.repeat(sub.val2.T[:, None, :], d, axis=1)   # (nc, nloc, d, nq)
            S += Y.reshape(nc, nloc, d * nq) @ np.swapaxes(G.reshape(nc, nloc, d * nq), 1, 2)
        add_kron_eye(K, S)
    blocks.append((vd, vd, K.reshape(nc, nloc * d, nloc * d)))

    # pressure block and its transposed constraint: B[j,(i,a)] = w J p_j G_i[a]
    BT = gradient_moment(wJ, G, sub.val1)
    blocks.append((pd, vd, np.swapaxes(BT, 1, 2)))          # + b_f(q_f, v_f)
    blocks.append((vd, pd, -BT))                            # - b_f(p_f, psi_f)

    fn = problem.forcing.get("v_f")
    if fn is not None:
        scatter_add(b, vd, weighted_moment(sub.w, sub.val2, _forcing_at(fn, sub.X, inp.t, d)))


def _solid_terms(problem, inp, geo, blocks, b, transient):
    sub = problem.solid
    prm = problem.params
    d = problem.dim
    lay = problem.layout
    Ft = geo.solid["F"]
    wJ = geo.solid["wJ"]
    vsd = sub.vdofs + lay.offsets["v_s"]
    qd = sub.vdofs + lay.offsets["q"]
    pdd = sub.nodes1 + lay.offsets["p_d"]
    g = sub.dphi2                                      # (nc, nloc, d, nq)
    nc, nloc, _, nq = g.shape
    n2d = nloc * d

    # a_s: F~ S(E(u_k, u~)) : grad(psi), linear in v_s through u_k = beta v_s + u_hist.
    # Trial (j,b): E = 1/4 (g_j (x) F~_b + F~_b (x) g_j), tr E = 1/2 g_j.F~_b.  With
    # h_i = F~ g_i, C = F~ F~^T and s_ij = g_i.g_j the test row (i,a) reads
    #   (F~ S g_i)_a = mu/2 (h_ja h_ib + C_ab s_ij) + lam/2 h_ia h_jb.
    h = np.einsum("bieq,bqke->bikq", g, Ft)
    H = gradient_gram(sub.w, h)                        # H[i,a,j,b] = sum w h_ia h_jb
    # CS[a,b,i,j] = sum_q w C_ab s_ij as one (d d nloc x d nq)(d nq x nloc)
    # product per cell
    C = np.moveaxis(matmul2(Ft, np.swapaxes(Ft, -1, -2)), 1, -1).reshape(nc, d * d, nq)
    wCg = (C * sub.w[:, None, :])[:, :, None, None, :] * g[:, None]   # (nc, d d, nloc, d, nq)
    gm = g.reshape(nc, nloc, d * nq)
    CS = (wCg.reshape(nc, d * d * nloc, d * nq) @ np.swapaxes(gm, 1, 2)).reshape(
        nc, d, d, nloc, nloc)
    Ael = transposed(H, (0, 1, 4, 3, 2))
    Ael += transposed(CS, (0, 3, 1, 4, 2))
    Ael *= 0.5 * prm.mu_s
    Ael += (0.5 * prm.lam_s) * H
    Ael *= inp.beta

    # The mass couplings of v_s and q and the Darcy term J K^-1 q . psi_d
    # are scalar blocks on the dofs of one component each (`component_dofs`):
    # v_s and q meet component by component, and component a of q meets
    # component b through K^-1[a, b] Ms, plus the q mass where a = b.
    Ms = weighted_gram(wJ, sub.val2, sub.val2)
    vsc = component_dofs(sub.nodes2, d) + lay.offsets["v_s"]
    qc = component_dofs(sub.nodes2, d) + lay.offsets["q"]
    Dq = Ms[:, None] * np.diagonal(prm.K_inv)[:, None, None]       # (nc, d, nloc, nloc)
    if transient:
        c = inp.a0 / inp.dt
        add_kron_eye(Ael, (prm.rho_p * c) * Ms)
        Dq += ((prm.rho_f / prm.phi * c) * Ms)[:, None]
    blocks.append((vsd, vsd, Ael.reshape(nc, n2d, n2d)))
    if transient:
        Mc = np.repeat((prm.rho_f * c) * Ms, d, axis=0)
        blocks.append((vsc, qc, Mc))
        blocks.append((qc, vsc, Mc))
    blocks.append((qc, qc, Dq.reshape(nc * d, nloc, nloc)))
    ca, cb = np.nonzero(~np.eye(d, dtype=bool) & (prm.K_inv != 0.0))
    if len(ca):         # an anisotropic K couples the components of q
        qcell = qc.reshape(nc, d, nloc)
        blocks.append((qcell[:, ca].reshape(-1, nloc), qcell[:, cb].reshape(-1, nloc),
                       (Ms[:, None] * prm.K_inv[ca, cb][:, None, None]).reshape(-1, nloc, nloc)))

    if transient:
        blocks.append((pdd, pdd, (prm.s0 * c) * weighted_gram(wJ, sub.val1, sub.val1)))
        nv = lay.sizes["v_s"]
        hv = inp.hist.get("v_s", np.zeros(nv))
        hq = inp.hist.get("q", np.zeros(nv))
        comb_s = prm.rho_p * hv + prm.rho_f * hq
        comb_d = prm.rho_f * hv + (prm.rho_f / prm.phi) * hq
        hs = field_at_qp(sub.val2, sub.nodes2, comb_s, d)
        hd = field_at_qp(sub.val2, sub.nodes2, comb_d, d)
        scatter_add(b, vsd, -weighted_moment(wJ / inp.dt, sub.val2, hs))
        scatter_add(b, qd, -weighted_moment(wJ / inp.dt, sub.val2, hd))
        hp = inp.hist.get("p_d")
        if hp is not None:
            hpq = scalar_at_qp(sub.val1, sub.nodes1, hp)
            scatter_add(b, pdd, -weighted_moment(wJ * (prm.s0 / inp.dt), sub.val1, hpq))

    # History part of the elastic stress moves to the right-hand side:
    # sum_q w (F~ S g_i)_a, one (nloc x d nq)(d nq x d) product per cell
    wFS = np.moveaxis(lagged_stress(problem, geo, inp.u_impl_hist) * sub.w[:, :, None, None],
                      1, -1)                                     # (nc, a, e, nq)
    rhs = g.reshape(nc, nloc, d * nq) @ np.swapaxes(wFS.reshape(nc, d, d * nq), 1, 2)
    scatter_add(b, vsd, -rhs)

    # pressure blocks (tested against psi_s and psi_d) and the constraint rows
    BT = gradient_moment(wJ, geo.solid["G"], sub.val1)
    B = np.swapaxes(BT, 1, 2)
    blocks.append((pdd, vsd, B))       # + b_s(q_d, v_s)
    blocks.append((pdd, qd, B))        # + b_s(q_d, q)
    blocks.append((vsd, pdd, -BT))     # - b_s(p_d, psi_s)  (sigma_p = sigma_s - p_d I)
    blocks.append((qd, pdd, -BT))      # - b_s(p_d, psi_d)

    for name, dofs in (("v_s", vsd), ("q", qd)):
        fn = problem.forcing.get(name)
        if fn is not None:
            fq = _forcing_at(fn, sub.X, inp.t, d)
            scatter_add(b, dofs, weighted_moment(sub.w, sub.val2, fq))
    gn = problem.forcing.get("mass_s")
    if gn is not None:
        scatter_add(b, pdd, weighted_moment(sub.w, sub.val1, _forcing_at(gn, sub.X, inp.t, 1)))


def lagged_stress(problem: Problem, geo: Geometry, u: np.ndarray) -> np.ndarray:
    """F~ S(E(u, u~)) at the solid quadrature points: the elastic stress of
    the displacement u, its strain linearized about the geometry's u~
    (F~ = geo.solid["F"]).  The assembler takes it at the step's history,
    the energy monitor at the new displacement."""
    sub = problem.solid
    d = problem.dim
    Ft = geo.solid["F"]
    E = green_lagrange(grads_at_qp(sub.dphi2, sub.nodes_u, u, d) + np.eye(d), Ft)
    return matmul2(Ft, svk_stress(E, problem.params.lam_s, problem.params.mu_s))


def _interface_terms(problem, inp, geo, blocks):
    ifd = problem.iface
    prm = problem.params
    d = problem.dim
    lay = problem.layout
    ftr, str_ = ifd.fluid, ifd.solid
    n = geo.iface["n"]
    wJs = geo.iface["wJs"]
    nf, nq, nloc = ftr.val2.shape

    fd = ftr.vdofs + lay.offsets["v_f"]
    sd = str_.vdofs + lay.offsets["v_s"]
    qd = str_.vdofs + lay.offsets["q"]
    pdd = str_.nodes1 + lay.offsets["p_d"]

    # (value . n) traces, interleaved (node, comp) ordering
    TF = (ftr.val2[..., None] * n[:, :, None, :]).reshape(nf, nq, nloc * d)
    TS = (str_.val2[..., None] * n[:, :, None, :]).reshape(nf, nq, nloc * d)

    # On the stacked facet dofs (fluid, solid, filtration) the trace of
    # (psi_f - psi_s - psi_d).n is `jump`:
    #   penalty tau ((w_f - w_s - w_d).n)((psi_f - psi_s - psi_d).n)
    #   pressure coupling p_d (psi_f - psi_s - psi_d).n
    jdofs = np.hstack([fd, sd, qd])
    jump = np.concatenate([TF, -TS, -TS], axis=2)
    blocks.append((jdofs, jdofs, weighted_gram(wJs * ifd.tau[:, None], jump, jump)))
    blocks.append((jdofs, pdd, weighted_gram(wJs, jump, str_.val1)))

    # kinetic correction (rho_f/2)(v~_f . w_f)(psi_s - psi_f).n, linearized
    if inp.vf_tilde is not None:
        vt = field_at_qp(ftr.val2, ftr.nodes2, inp.vf_tilde, d)     # (nf, nq, d)
        VJ = (ftr.val2[..., None] * vt[:, :, None, :]).reshape(nf, nq, nloc * d)
        kin = weighted_gram(wJs * (0.5 * prm.rho_f), np.concatenate([TS, -TF], axis=2), VJ)
        blocks.append((np.hstack([sd, fd]), fd, kin))

    # slip term gamma K^-1/2 P(w_f - w_s) . P(psi_f - psi_s)
    wM = (wJs * prm.gamma)[..., None, None] * geo.iface["slip"]
    V = np.concatenate([ftr.val2, -str_.val2], axis=2)          # (nf, nq, 2 nloc)
    nv = V.shape[2]
    X = (V[..., None, None] * wM[:, :, None]).reshape(nf, nq, -1)
    K = (np.swapaxes(X, 1, 2) @ V).reshape(nf, nv, d, d, nv)     # [I,a,b,J]
    sdofs = np.hstack([fd, sd])
    blocks.append((sdofs, sdofs, K.transpose(0, 1, 2, 4, 3).reshape(nf, nv * d, nv * d)))


def _backflow_terms(problem, inp, geo, blocks):
    """Directional treatment of open boundaries.

    Where the extrapolated velocity re-enters through an open end
    (v~ . n < 0) the plain traction condition feeds kinetic energy into the
    domain; adding rho_f/2 (v~ . n)_- (w_f . psi_f) on those facets removes
    exactly that inflow and keeps the step energy balance one-sided.
    Inactive (zero weight) at outflow, absent in steady problems.
    """
    if inp.vf_tilde is None:
        return
    prm = problem.params
    d = problem.dim
    lay = problem.layout
    for marker in problem.open_markers:
        tr = problem.natural[marker]
        g = geo.loads[marker]
        vt = field_at_qp(tr.val2, tr.nodes2, inp.vf_tilde, d)       # (nf, nq, d)
        # v~ . n ds on the deformed facet
        flux = g["wJs"] * np.sum(vt * g["n"], axis=-1)
        wq = (-0.5 * prm.rho_f) * np.minimum(flux, 0.0)
        dofs = component_dofs(tr.nodes2, d) + lay.offsets["v_f"]
        blocks.append((dofs, dofs, np.repeat(weighted_gram(wq, tr.val2, tr.val2), d, axis=0)))


def _load_terms(problem, inp, geo, b):
    lay = problem.layout
    for load in problem.loads:
        tr = problem.natural[load.marker]
        g = geo.loads[load.marker]
        coef = load.value(inp.t) * g["wJs"]
        scatter_add(b, tr.vdofs + lay.offsets["v_f"], weighted_moment(coef, tr.val2, g["n"]))


def _forcing_at(fn, X, t, ncomp):
    nc, nq, d = X.shape
    flat = X.reshape(nc * nq, d)
    vals = batch_eval(lambda pts: fn(pts, t), flat, ncomp)
    return vals.reshape((nc, nq) if ncomp == 1 else (nc, nq, ncomp))


# ---------------------------------------------------------------------------
# Dirichlet conditions
# ---------------------------------------------------------------------------

def _dirichlet_values(problem: Problem, t: float) -> np.ndarray:
    """The Dirichlet value list at time t: the values of each entry of
    `Problem.fixed`, in order."""
    return np.concatenate([np.empty(0)] + [values(t) for _, values in problem.fixed])
