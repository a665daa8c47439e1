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
pattern with its Dirichlet dofs, which are found then and only then,
eliminated, the scatter of every element entry into it and the LU
elimination order.  Every later step computes element values and boundary
values only.  Terms that the data can switch off (backflow at outflow, the
kinetic correction at rest) always add their blocks, with zero values when
inactive, so one pattern serves every step.

The geometry of u~ (`Geometry`) comes with the step's inputs: the stepper
builds it once per configuration with `check_deformation` and hands it on
to the next step, and a steady solve takes the reference configuration.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np
from scipy import sparse
from scipy.io import mmwrite

from .elements import eval_basis, facet_quadrature, simplex_quadrature
from .errors import AssemblyError
from .fem import (SparsePattern, add_kron_eye, apply_dirichlet, component_trace,
                  field_at_qp, gradient_gram, grads_at_qp, kron_eye, last_set, scalar_at_qp,
                  scatter_add, weighted_gram, weighted_moment)
from .kinematics import MaterialParams, deformation_state, green_lagrange, svk_stress
from .mesh import FLUID, SOLID, Mesh, extract_interface
from .solver import RESIDUAL_TOL
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
    (nb, nq, n) and its unit reference normal `nref`.
    """

    cells: np.ndarray          # (nb,) global ids of the (owning) cells
    w: np.ndarray              # (nb, nq) weights incl. |det B| or facet length
    X: np.ndarray              # (nb, nq, d) reference-domain coordinates
    val2: np.ndarray           # (nq, n2) cells, (nb, nq, n2) facets: P2 values
    grad2: np.ndarray          # (nb, nq, n2, d) P2 gradients in domain coords
    val1: np.ndarray           # (nq, n1) cells, (nb, nq, n1) facets: P1 values
    nodes2: np.ndarray         # (nb, n2) scalar nodes of the subdomain P2 space
    nodes1: np.ndarray         # (nb, n1) scalar nodes of the subdomain P1 space
    nodes_u: np.ndarray        # (nb, n2) scalar nodes of the global displacement space
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
    dirichlet: List[DirichletBC]
    forcing: Dict[str, Callable]
    pin_pf: Optional[Tuple[int, Callable[[float], float]]]
    layout: BlockLayout
    solver_rtol: float = RESIDUAL_TOL
    map_vs_to_u: Optional[Tuple[np.ndarray, np.ndarray]] = None
    map_vf_to_u: Optional[Tuple[np.ndarray, np.ndarray]] = None
    map_vs_to_vf: Optional[Tuple[np.ndarray, np.ndarray]] = None
    # one record per matrix ("system", "extension"), built whole at its first
    # assembly: eliminated pattern and its Dirichlet dofs, LU order, held LU
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


def _quad_batch(sub_spaces, cells, facets=None, nref=None) -> QuadBatch:
    """Quadrature batch of the given cells, or of their traces on `facets`.

    sub_spaces = (P2 space, P1 space) of the subdomain holding the cells,
    then the global displacement space.  facets (nb, d) lists one straight
    facet of each cell; its reference normal is `nref` or, by default, the
    cell's outward unit normal there.
    """
    space2, space1, space_u = sub_spaces
    mesh = space_u.mesh
    d = mesh.dim
    cells = np.asarray(cells, dtype=np.int64)
    x0, B, adet, Binv = cell_geometry(mesh, cells)
    if facets is None:
        rule = simplex_quadrature(d, QUAD_DEGREE)
        xi = rule.points                                            # (nq, d), shared
        w = rule.weights[None, :] * adet[:, None]
        X = x0[:, None, :] + xi @ np.swapaxes(B, 1, 2)
    else:                                   # straight 2D facets (build_problem is 2D only)
        rule = facet_quadrature(d, QUAD_DEGREE)
        p = mesh.vertices[np.asarray(facets, dtype=np.int64)]      # (nb, 2, d)
        t = p[:, 1] - p[:, 0]
        length = np.linalg.norm(t, axis=1)
        X = p[:, None, 0, :] + rule.points[None, :, 0, None] * t[:, None, :]
        w = rule.weights[None, :] * length[:, None]
        if nref is None:
            nref = np.column_stack([t[:, 1], -t[:, 0]]) / length[:, None]
            inward = mesh.vertices[mesh.cells[cells]].mean(axis=1) - p[:, 0]
            nref[np.einsum("fd,fd->f", nref, inward) > 0.0] *= -1.0
        xi = np.clip((X - x0[:, None, :]) @ np.swapaxes(Binv, 1, 2), 0.0, 1.0)

    shape = xi.shape[:-1]                                           # (nq,) or (nb, nq)
    v2, g2hat = eval_basis(d, 2, xi.reshape(-1, d))
    v1, _ = eval_basis(d, 1, xi.reshape(-1, d))
    n2 = v2.shape[1]
    # grad(phi) = grad_hat(phi) B^-1, one (nq n2, d) x (d, d) product per cell
    grad2 = (g2hat.reshape(shape[:-1] + (-1, d)) @ Binv).reshape(len(cells), shape[-1], n2, d)

    loc = np.searchsorted(space2.cells, cells)      # both spaces share the subdomain cells
    nodes2 = space2.cell_nodes[loc]
    vdofs = (nodes2[:, :, None] * d + np.arange(d)).reshape(len(cells), -1)
    return QuadBatch(cells, w, X, v2.reshape(shape + (n2,)), grad2,
                     v1.reshape(shape + (d + 1,)), nodes2, space1.cell_nodes[loc],
                     space_u.cell_nodes[cells], vdofs, nref)


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
    dirichlet = list(dirichlet or [])
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
        # Both sides' traces share the fluid-oriented normal.
        iface = InterfaceData(
            _quad_batch(fluid_spaces, facets.fluid_cells, facets.vertices, facets.normals),
            _quad_batch(solid_spaces, facets.solid_cells, facets.vertices, facets.normals),
            tau)

    def natural_traces(marker: int, what: str) -> QuadBatch:
        if not has_fluid:
            raise AssemblyError("%s on a mesh without fluid cells" % what)
        idx = mesh.facets_with_marker(marker)
        if len(idx) == 0:
            raise AssemblyError("%s marker %d has no facets" % (what, marker))
        cells = mesh.edge_cells[mesh.facet_edges[idx], 0]
        return _quad_batch(fluid_spaces, cells, mesh.facets[idx])

    natural: Dict[int, QuadBatch] = {}
    for load in loads:
        natural[load.marker] = natural_traces(load.marker, "pressure load")
    for marker in open_markers:
        if marker not in natural:
            natural[marker] = natural_traces(marker, "open boundary")

    prob = Problem(mesh=mesh, params=params, spaces=spaces,
                   fluid=fluid, solid=solid, iface=iface, natural=natural,
                   open_markers=tuple(open_markers), loads=loads, dirichlet=dirichlet,
                   forcing=forcing, pin_pf=pin_pf, layout=layout)
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
    A cell batch gets F, J and G = grad(phi) F^-1, the P2 basis gradients
    pushed to the deformed configuration, which every gradient form shares.
    A facet batch gets J and vn = F^-T n_ref, the unnormalized Nanson
    push-forward of its reference normal.
    """
    F, J, Finv, FinvT = deformation_state(
        grads_at_qp(batch.grad2, batch.nodes_u, u, batch.X.shape[-1]), cell_ids=batch.cells)
    if batch.nref is None:
        return {"F": F, "J": J, "G": batch.grad2 @ Finv}
    return {"J": J, "vn": (FinvT @ batch.nref[:, None, :, None])[..., 0]}


def build_geometry(problem: Problem, u: np.ndarray) -> Geometry:
    """Deformation-dependent weights of the displacement u at every
    quadrature point, checked positive.

    Cells and natural boundaries keep what `batch_deformation` gives them.
    The interface keeps the deformed unit normal n, its tangential
    projector P and the area scaling Js = J |F^-T n_ref|.
    """
    geo = Geometry()
    if problem.fluid is not None:
        geo.fluid = batch_deformation(problem.fluid, u)
    if problem.solid is not None:
        geo.solid = batch_deformation(problem.solid, u)
    if problem.iface is not None:
        g = batch_deformation(problem.iface.fluid, u)
        mag = np.linalg.norm(g["vn"], axis=-1)
        n = g["vn"] / mag[..., None]
        P = np.eye(problem.dim) - n[..., :, None] * n[..., None, :]
        geo.iface = {"Js": g["J"] * mag, "n": n, "P": P}
    for marker, tr in problem.natural.items():
        geo.loads[marker] = batch_deformation(tr, u)
    return geo


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

def assemble_system(problem: Problem, inp: StepInputs,
                    dump_matrix: Optional[str] = None) -> BlockSystem:
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
        pattern = SparsePattern(lay.total, blocks, problem.entity_keys(lay.names),
                                *_dirichlet_dofs(problem), key=key)
        problem.patterns["system"] = pattern
    A, b = apply_dirichlet(pattern, blocks, b, _dirichlet_values(problem, pattern.nodes, inp.t))
    if dump_matrix:
        # through a handle: mmwrite appends ".mtx" to a name without it and
        # writes nothing, silently, into a directory that does not exist
        with open(dump_matrix, "wb") as fh:
            mmwrite(fh, A.tocoo())
    return BlockSystem(A, b, lay)


def _fluid_terms(problem, inp, geo, blocks, b, transient):
    sub = problem.fluid
    prm = problem.params
    d = problem.dim
    lay = problem.layout
    wJ = sub.w * geo.fluid["J"]
    G = geo.fluid["G"]                     # grad(phi) F^-1
    nc, _, nloc, _ = G.shape
    vd = sub.vdofs + lay.offsets["v_f"]
    pd = sub.nodes1 + lay.offsets["p_f"]

    # a_f: 2 mu J D:D = mu J [delta_ab Gi.Gj + Gj_a Gi_b]; the scalar part S
    # (times I) collects the mass and advection blocks as well
    P = gradient_gram(wJ * prm.mu_f, G)    # P[i,a,j,b] = sum mu w J Gi_a Gj_b
    K = P.transpose(0, 1, 4, 3, 2).copy()
    S = component_trace(P)

    if transient:
        S += weighted_gram(wJ * (prm.rho_f * inp.a0 / inp.dt), sub.val2, sub.val2)
        hist = inp.hist.get("v_f")
        if hist is not None and np.any(hist):
            hq = field_at_qp(sub.val2, sub.nodes2, hist, d)
            scatter_add(b, vd, -weighted_moment(wJ * (prm.rho_f / inp.dt), sub.val2, hq))

    # c_f with the extrapolated advective field v~_f - w~
    if transient and inp.vf_tilde is not None:
        adv = field_at_qp(sub.val2, sub.nodes2, inp.vf_tilde, d)
        if inp.w_tilde is not None:
            adv = adv - field_at_qp(sub.val2, sub.nodes_u, inp.w_tilde, d)
        S += weighted_gram(wJ * prm.rho_f, sub.val2, (G @ adv[..., None])[..., 0])
    blocks.append((vd, vd, add_kron_eye(K, S).reshape(nc, nloc * d, nloc * d)))

    # pressure block and its transposed constraint: B[j,(i,a)] = w J p_j G_i[a]
    B = weighted_moment(wJ, sub.val1, G).reshape(nc, -1, nloc * d)
    blocks.append((pd, vd, B))                              # + b_f(q_f, v_f)
    blocks.append((vd, pd, -np.swapaxes(B, 1, 2)))          # - b_f(p_f, psi_f)

    fn = problem.forcing.get("v_f")
    if fn is not None:
        scatter_add(b, vd, weighted_moment(sub.w, sub.val2, _forcing_at(fn, sub.X, inp.t, d)))


def _solid_terms(problem, inp, geo, blocks, b, transient):
    sub = problem.solid
    prm = problem.params
    d = problem.dim
    lay = problem.layout
    Ft = geo.solid["F"]
    wJ = sub.w * geo.solid["J"]
    vsd = sub.vdofs + lay.offsets["v_s"]
    qd = sub.vdofs + lay.offsets["q"]
    pdd = sub.nodes1 + lay.offsets["p_d"]
    g = sub.grad2
    nc, nq, nloc, _ = g.shape
    n2d = nloc * d

    # a_s: F~ S(E(u_k, u~)) : grad(psi), linear in v_s through u_k = beta v_s + u_hist.
    # Trial (j,b): E = 1/4 (g_j (x) F~_b + F~_b (x) g_j), tr E = 1/2 g_j.F~_b.  With
    # h_i = F~ g_i, C = F~ F~^T and s_ij = g_i.g_j the test row (i,a) reads
    #   (F~ S g_i)_a = mu/2 (h_ja h_ib + C_ab s_ij) + lam/2 h_ia h_jb.
    h = g @ np.swapaxes(Ft, -1, -2)
    H = gradient_gram(sub.w, h)                        # H[i,a,j,b] = sum w h_ia h_jb
    C = (Ft @ np.swapaxes(Ft, -1, -2)).reshape(nc, nq, d * d)
    s = (g @ np.swapaxes(g, -1, -2)).reshape(nc, nq, nloc * nloc)
    CS = weighted_gram(sub.w, C, s).reshape(nc, d, d, nloc, nloc)
    Ael = (0.5 * prm.mu_s) * (H.transpose(0, 1, 4, 3, 2) + CS.transpose(0, 3, 1, 4, 2))
    Ael += (0.5 * prm.lam_s) * H
    Ael *= inp.beta

    # a_d: J K^-1 q . psi_d
    Ms = weighted_gram(wJ, sub.val2, sub.val2)
    Ad = Ms[:, :, None, :, None] * prm.K_inv[None, None, :, None, :]

    if transient:
        c = inp.a0 / inp.dt
        Mv = kron_eye(Ms, d)
        blocks.append((vsd, vsd, add_kron_eye(Ael, (prm.rho_p * c) * Ms).reshape(nc, n2d, n2d)))
        blocks.append((vsd, qd, (prm.rho_f * c) * Mv))
        blocks.append((qd, vsd, (prm.rho_f * c) * Mv))
        blocks.append((qd, qd,
                       add_kron_eye(Ad, (prm.rho_f / prm.phi * c) * Ms).reshape(nc, n2d, n2d)))
        blocks.append((pdd, pdd, (prm.s0 * c) * weighted_gram(wJ, sub.val1, sub.val1)))

        nv = lay.sizes["v_s"]
        hv = inp.hist.get("v_s", np.zeros(nv))
        hq = inp.hist.get("q", np.zeros(nv))
        if np.any(hv) or np.any(hq):
            comb_s = prm.rho_p * hv + prm.rho_f * hq
            comb_d = prm.rho_f * hv + (prm.rho_f / prm.phi) * hq
            hs = field_at_qp(sub.val2, sub.nodes2, comb_s, d)
            hd = field_at_qp(sub.val2, sub.nodes2, comb_d, d)
            scatter_add(b, vsd, -weighted_moment(wJ / inp.dt, sub.val2, hs))
            scatter_add(b, qd, -weighted_moment(wJ / inp.dt, sub.val2, hd))
        hp = inp.hist.get("p_d")
        if hp is not None and np.any(hp):
            hpq = scalar_at_qp(sub.val1, sub.nodes1, hp)
            scatter_add(b, pdd, -weighted_moment(wJ * (prm.s0 / inp.dt), sub.val1, hpq))
    else:
        blocks.append((vsd, vsd, Ael.reshape(nc, n2d, n2d)))
        blocks.append((qd, qd, Ad.reshape(nc, n2d, n2d)))

    # History part of the elastic stress moves to the right-hand side.
    FS = lagged_stress(problem, geo, inp.u_impl_hist)
    if np.any(FS):
        scatter_add(b, vsd, -np.einsum("cq,cqia->cia", sub.w, g @ np.swapaxes(FS, -1, -2)))

    # pressure blocks (tested against psi_s and psi_d) and the constraint rows
    B = weighted_moment(wJ, sub.val1, geo.solid["G"]).reshape(nc, -1, n2d)
    BT = np.swapaxes(B, 1, 2)
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
    E = green_lagrange(grads_at_qp(sub.grad2, sub.nodes_u, u, d) + np.eye(d), Ft)
    return Ft @ svk_stress(E, problem.params.lam_s, problem.params.mu_s)


def _interface_terms(problem, inp, geo, blocks):
    ifd = problem.iface
    prm = problem.params
    d = problem.dim
    lay = problem.layout
    ftr, str_ = ifd.fluid, ifd.solid
    n = geo.iface["n"]
    wJs = ftr.w * geo.iface["Js"]
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
    if prm.gamma > 0.0:
        P = geo.iface["P"]
        wM = (wJs * prm.gamma)[..., None, None] * (P @ prm.K_inv_sqrt @ P)
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
        # v~ . n ds on the deformed facet via Nanson: v~ . (J F^-T n_ref) ds_ref
        flux = g["J"] * np.sum(vt * g["vn"], axis=-1)
        wq = (-0.5 * prm.rho_f) * tr.w * np.minimum(flux, 0.0)
        dofs = tr.vdofs + lay.offsets["v_f"]
        blocks.append((dofs, dofs, kron_eye(weighted_gram(wq, tr.val2, tr.val2), d)))


def _load_terms(problem, inp, geo, b):
    lay = problem.layout
    for load in problem.loads:
        tr = problem.natural[load.marker]
        g = geo.loads[load.marker]
        p = load.value(inp.t)
        if p == 0.0:
            continue
        coef = p * tr.w * g["J"]
        scatter_add(b, tr.vdofs + lay.offsets["v_f"], weighted_moment(coef, tr.val2, g["vn"]))


def _forcing_at(fn, X, t, ncomp):
    nc, nq, d = X.shape
    flat = X.reshape(nc * nq, d)
    vals = batch_eval(lambda pts: fn(pts, t), flat, ncomp)
    return vals.reshape((nc, nq) if ncomp == 1 else (nc, nq, ncomp))


# ---------------------------------------------------------------------------
# Dirichlet conditions
# ---------------------------------------------------------------------------

def _dirichlet_dofs(problem: Problem):
    """The system's Dirichlet dofs (sorted), the position of each one's value
    in the list of `_dirichlet_values` (later conditions win) and the nodes
    of each condition; found at the system's first assembly."""
    lay = problem.layout
    nodes: List[np.ndarray] = []
    dofs: List[np.ndarray] = [np.empty(0, dtype=np.int64)]
    for bc in problem.dirichlet:
        if bc.field not in lay.offsets:
            raise AssemblyError("Dirichlet condition on absent field %r" % bc.field)
        space = problem.spaces[bc.field]
        nodes.append(space.nodes_on_markers(bc.markers))
        dofs.append(space.dofs_of_nodes(nodes[-1]) + lay.offsets[bc.field])
    if problem.pin_pf is not None:
        dofs.append(np.array([lay.offsets["p_f"] + int(problem.pin_pf[0])], dtype=np.int64))
    return (*last_set(np.concatenate(dofs)), tuple(nodes))


def _dirichlet_values(problem: Problem, nodes: Tuple[np.ndarray, ...], t: float) -> np.ndarray:
    """The Dirichlet value list at time t: each condition's values at its
    nodes, in condition order, then the pinned pressure."""
    vals: List[np.ndarray] = [np.empty(0)]
    for bc, at in zip(problem.dirichlet, nodes):
        if len(at) == 0:
            continue
        space = problem.spaces[bc.field]
        v = batch_eval(lambda X: bc.value(X, t), space.node_coords[at], space.ncomp)
        vals.append(v.ravel())
    if problem.pin_pf is not None:
        vals.append(np.array([float(problem.pin_pf[1](t))]))
    return np.concatenate(vals)
