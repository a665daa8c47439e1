"""Element-level building blocks shared by assembly, mesh extension and the
energy monitor.

Quadrature-point evaluation: FE fields, their gradients and the weighted
element contractions.  A batch's P2 gradients are stored once in product
layout (nb, n, d, nq), so a field's gradient is one (d x n)(n x d nq)
product per entry (`grads_at_qp`); pushing them through a tensor per point
is one `np.einsum` contraction, done by the geometry.  Gradient Grams and
moments are one product per entry (`gradient_gram`, `gradient_moment`);
the viscous operator made from the fluid's Gram is built once per
configuration with its geometry, and the mesh extension forms the Gram of
the reference configuration once per problem.  Component exchanges of
element blocks are gathers (`transposed`).  The 2x2 tensor algebra at the
points (F, F^-1, strains, stresses, Nanson normals) is componentwise, in
`kinematics`.

Fixed-pattern sparse assembly: a matrix is the sum of a fixed sequence of
dense element blocks (rows, cols, values), kept as a plain list, with its
Dirichlet dofs eliminated.  The first assembly builds the matrix's record,
a `SparsePattern`: the CSR structure of the eliminated matrix, an index
scattering every block entry straight to its slot there, to a slot of the
small lift that moves the known values to the right-hand side, or to a
discard slot for the fixed rows, and the fill-reducing elimination order of
its LU.  Each later assembly computes the block values only; one
`np.add.at` per block, on its slice of the scatter, fills the matrix and the
lift, and the matrix is built as a CSR once (`apply_dirichlet`).  The known
values reach a right-hand side in one place, `dirichlet_rhs`, which takes
the lift values and the step's boundary values, so a matrix that does not
change (the mesh extension) keeps its CSR and lift on its record and forms
each step's right-hand side alone.

The blocks hold only entries that can be nonzero, so the structure is the
true sparsity graph of the matrix and its LU order is taken on that graph:
a facet block spans the facet's own nodes (the other nodes of its cell have
no trace there), and a block that couples each component of a vector field
only with itself is a scalar block per component (`component_dofs`), not a
d x d block with zeros between the components.

The record holds everything about its matrix that stays fixed from step to
step: that structure and scatter, the Dirichlet dofs they were built for,
the LU order, and the last LU, which the next solve reuses or replaces.
"""

from __future__ import annotations

from typing import Hashable, List, Tuple

import numpy as np
from scipy import sparse
from scipy.sparse.linalg import spilu

from .errors import AssemblyError


# ---------------------------------------------------------------------------
# Quadrature-point evaluation
# ---------------------------------------------------------------------------

def field_at_qp(val: np.ndarray, nodes: np.ndarray, vec: np.ndarray, d: int) -> np.ndarray:
    """FE vector field at quadrature points from interleaved dofs: (nb, nq, d).

    val is a shared table (nq, nloc) or one table per batch entry (nb, nq, nloc).
    """
    return val @ vec.reshape(-1, d)[nodes]


def scalar_at_qp(val: np.ndarray, nodes: np.ndarray, vec: np.ndarray) -> np.ndarray:
    """FE scalar field at quadrature points: (nb, nq)."""
    return (val @ vec[nodes][..., None])[..., 0]


def grads_at_qp(grad: np.ndarray, nodes: np.ndarray, vec: np.ndarray, d: int) -> np.ndarray:
    """Gradient of an FE vector field at quadrature points: (nb, nq, d, d), dv_m/dx_e.

    grad holds the basis gradients of the batch in product layout (nb, n, d,
    nq), nodes (nb, n) the scalar nodes of the space the interleaved dofs
    `vec` belong to.  One (d x n)(n x d nq) product per entry; the result is
    a view that keeps the nq values of each entry and component together.
    """
    nb, n, _, nq = grad.shape
    vloc = vec.reshape(-1, d)[nodes]                         # (nb, n, d)
    M = np.swapaxes(vloc, 1, 2) @ grad.reshape(nb, n, d * nq)
    return np.moveaxis(M.reshape(nb, d, d, nq), 3, 1)


def weighted_gram(w: np.ndarray, X: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """sum_q w[b,q] X[q,i] Y[q,j] -> (nb, ni, nj).

    X and Y are shared tables (nq, n) or per-batch tables (nb, nq, n).
    """
    if X.ndim == 2 and Y.ndim == 2:
        nq, ni = X.shape
        outer = (X[:, :, None] * Y[:, None, :]).reshape(nq, -1)
        return (w @ outer).reshape(len(w), ni, Y.shape[1])
    return np.swapaxes(X * w[..., None], -1, -2) @ Y


def weighted_moment(w: np.ndarray, X: np.ndarray, f: np.ndarray) -> np.ndarray:
    """sum_q w[b,q] X[q,i] f[b,q,...] -> (nb, ni, ...), X shared or per batch."""
    nb, nq = w.shape
    wf = (w.reshape(nb, nq, -1) * f.reshape(nb, nq, -1))
    return (np.swapaxes(X, -1, -2) @ wf).reshape((nb, X.shape[-1]) + f.shape[2:])


def gradient_gram(w: np.ndarray, G: np.ndarray) -> np.ndarray:
    """P[b,i,a,j,e] = sum_q w[b,q] G[b,i,a,q] G[b,j,e,q] for G (nb, n, d, nq)."""
    nb, n, d, nq = G.shape
    X = G.reshape(nb, n * d, nq)
    return ((X * w[:, None, :]) @ np.swapaxes(X, 1, 2)).reshape(nb, n, d, n, d)


def gradient_moment(w: np.ndarray, G: np.ndarray, X: np.ndarray) -> np.ndarray:
    """sum_q w[b,q] G[b,i,a,q] X[q,j] -> (nb, n d, nj) for G (nb, n, d, nq)
    and a shared table X (nq, nj): the weight goes on the small table, then
    one (n d x nq)(nq x nj) product per entry."""
    nb, n, d, nq = G.shape
    return G.reshape(nb, n * d, nq) @ np.swapaxes(w[:, None, :] * X.T, 1, 2)


def component_trace(P: np.ndarray) -> np.ndarray:
    """sum_a P[b,i,a,j,a] -> (nb, ni, nj), for the d = 2 components."""
    return P[:, :, 0, :, 0] + P[:, :, 1, :, 1]


def transposed(X: np.ndarray, axes: Tuple[int, ...]) -> np.ndarray:
    """X.transpose(axes) as a new C-ordered array, for axes that keep the
    batch axis first: one gather of each entry's values, where a strided
    copy would step through the small trailing axes one by one."""
    nb = X.shape[0]
    perm = np.arange(X[0].size).reshape(X.shape[1:]).transpose([a - 1 for a in axes[1:]])
    return np.take(X.reshape(nb, -1), perm.ravel(), axis=1).reshape((nb,) + perm.shape)


def add_kron_eye(E: np.ndarray, M: np.ndarray) -> np.ndarray:
    """E[b,i,a,j,a] += M[b,i,j] in place, for E (nb, ni, d, nj, d); returns E."""
    for a in range(E.shape[2]):
        E[:, :, a, :, a] += M
    return E


def component_dofs(nodes: np.ndarray, d: int) -> np.ndarray:
    """The interleaved dofs of each component of a vector field on the
    scalar nodes (nb, n), as (nb d, n): component a of entry k in row
    k d + a.  A scalar element matrix that couples each component only with
    itself (M (x) I_d) is the block of these rows and columns with M
    repeated d times along the batch axis, without the zeros between
    components."""
    return (nodes[:, None, :] * d + np.arange(d)[:, None]).reshape(-1, nodes.shape[1])


def scatter_add(b: np.ndarray, rows: np.ndarray, vals: np.ndarray) -> None:
    """b[rows] += vals, summing repeated rows."""
    b += np.bincount(rows.ravel(), weights=vals.ravel(), minlength=len(b))


# ---------------------------------------------------------------------------
# Fixed-pattern sparse assembly
# ---------------------------------------------------------------------------

def _stable_bucket(keys: np.ndarray, n: int, payload: np.ndarray) -> np.ndarray:
    """payload ordered by keys in [0, n), ties kept in input order.

    A CSR matrix with one entry per row (column = key) transposed to CSC is
    exactly a counting sort, O(len(keys) + n).
    """
    m = len(keys)
    one_per_row = sparse.csr_matrix((payload, keys, np.arange(m + 1, dtype=np.int32)),
                                    shape=(m, n))
    return one_per_row.tocsc().data


class SparsePattern:
    """The record of one matrix across steps: its CSR structure after
    Dirichlet elimination, the scatter of its element-block entries into it,
    its LU elimination order and its last LU.

    The matrix is a sum of element blocks whose fixed dofs `dofs` (sorted,
    unique) are eliminated by identity-row replacement with column
    symmetrization.  Its structure keeps every block entry outside the fixed
    rows and columns and puts a unit diagonal, at `diag`, in each fixed row
    (also where the blocks have none).  `scatter` sends each block entry to
    one of `nslots` slots: the `nnz` entries of that structure, then the
    lift, the free-row entries in fixed columns in (row, column) order at
    rows `lift_rows` and columns `dofs[lift_pos]`, then one slot that
    discards the fixed rows.

    Each step lists its boundary values in one fixed order; the fixed dof
    dofs[i] takes the value at position take[i] of that list.

    `order` is the fill-reducing elimination order of the structure
    (`entity_order`) for `keys`, the mesh-entity key of each dof.  `key`
    names the set of terms the pattern was built for; `sizes` holds the
    entry count of each block, so a different block sequence is caught
    before it is scattered into the wrong slots, and `starts` the position
    of each block's first entry in `scatter`.  `lu` is the last LU of the
    matrix, which `solver.solve(A, b, pattern)` tries first and replaces
    when it factors afresh.  A record whose block values never change (the
    mesh extension's) keeps its eliminated matrix `A` and lift values
    `lift` (`apply_dirichlet`); they are None on every other record.
    """

    def __init__(self, n: int, blocks: List[tuple], keys: np.ndarray,
                 dofs: np.ndarray, take: np.ndarray, key: Hashable = None):
        """The record of the matrix of the blocks (rows (nb, ni), cols
        (nb, nj), values) with the fixed dofs `dofs` eliminated, no global
        sort."""
        self.sizes = tuple(r.shape[0] * r.shape[1] * c.shape[1] for r, c, _ in blocks)
        self.starts = np.cumsum((0,) + self.sizes[:-1]).tolist()
        nt = sum(self.sizes)
        if nt + n >= 2 ** 31 - 1:
            raise AssemblyError("pattern too large for int32 indices")
        self.n = n
        self.dofs = np.asarray(dofs, dtype=np.int64)
        self.take = take
        self.key = key
        self.lu = None
        self.A = None
        self.lift = None

        rows = np.empty(nt, dtype=np.int32)
        cols = np.empty(nt, dtype=np.int32)
        for (r, c, _), pos, size in zip(blocks, self.starts, self.sizes):
            nb, ni = r.shape
            nj = c.shape[1]
            rows[pos:pos + size].reshape(nb, ni, nj)[...] = r[:, :, None]
            cols[pos:pos + size].reshape(nb, ni, nj)[...] = c[:, None, :]
        # two stable counting sorts: by column, then by row -> (row, col) order
        perm = _stable_bucket(cols, n, np.arange(nt, dtype=np.int32))
        perm = _stable_bucket(rows[perm], n, perm)
        r = rows[perm]
        c = cols[perm]
        del rows, cols
        first = np.empty(nt, dtype=bool)
        first[:1] = True
        np.not_equal(c[1:], c[:-1], out=first[1:])
        first[1:] |= r[1:] != r[:-1]
        # the distinct (row, col) entries in order, and the one of each sorted entry
        starts = np.flatnonzero(first)
        slot_row, slot_col = r[starts], c[starts]
        del r, c, starts
        entry_slot = np.cumsum(first, dtype=np.int32) - 1
        del first

        fixed = np.zeros(n, dtype=bool)
        fixed[self.dofs] = True
        in_row, in_col = fixed[slot_row], fixed[slot_col]
        keep = ~(in_row | in_col)
        lift = in_col & ~in_row
        counts = np.bincount(slot_row[keep], minlength=n)
        counts[self.dofs] = 1
        self.indptr = np.zeros(n + 1, dtype=np.int32)
        np.cumsum(counts, out=self.indptr[1:])
        self.nnz = int(self.indptr[-1])
        self.diag = self.indptr[self.dofs]
        off_diag = np.ones(self.nnz, dtype=bool)
        off_diag[self.diag] = False
        off_diag = np.flatnonzero(off_diag).astype(np.int32)
        self.indices = np.empty(self.nnz, dtype=np.int32)
        self.indices[off_diag] = slot_col[keep]
        self.indices[self.diag] = self.dofs
        self.lift_rows = slot_row[lift]
        self.lift_pos = np.searchsorted(self.dofs, slot_col[lift])
        nlift = len(self.lift_rows)
        self.nslots = self.nnz + nlift + 1

        dest = np.full(len(slot_row), self.nslots - 1, dtype=np.int32)
        dest[keep] = off_diag
        dest[lift] = self.nnz + np.arange(nlift, dtype=np.int32)
        # np.add.at runs fastest on intp indices (4.0 ms for a channel:16
        # step's blocks, 4.8 ms with int32)
        self.scatter = np.empty(nt, dtype=np.intp)
        self.scatter[perm] = dest[entry_slot]
        del perm, dest, entry_slot, slot_row, slot_col
        self.order = entity_order(self.indptr, self.indices, keys)


def entity_order(indptr: np.ndarray, indices: np.ndarray, keys: np.ndarray) -> np.ndarray:
    """Elimination order of the dofs of a CSR structure: grouped by mesh
    entity, the groups in minimum-degree order of the entity graph, the dofs
    of one group in ascending index.

    keys[i] names the mesh entity of dof i.  Two entities are adjacent when
    the structure couples a dof of one to a dof of the other.  SuperLU's
    MMD_AT_PLUS_A orders the columns of a matrix on that graph, before and
    apart from the numeric factorization, so an incomplete LU that drops
    every entry of a diagonally dominant matrix is enough to read it.
    `perm_c[e]` is the new position of entity e, not the entity placed at e.
    """
    n = len(keys)
    _, entity = np.unique(keys, return_inverse=True)
    ne = int(entity.max()) + 1
    # dofs x entities: each column of the structure replaced by its entity
    by_col = sparse.csr_matrix((np.ones(len(indices)), entity[indices], indptr), shape=(n, ne))
    # entities x dofs: the dofs of each entity
    members = sparse.csr_matrix(
        (np.ones(n), np.argsort(entity, kind="stable"),
         np.concatenate(([0], np.cumsum(np.bincount(entity, minlength=ne))))), shape=(ne, n))
    # entry counts, plus a diagonal above every row and column sum
    graph = members @ by_col + sparse.identity(ne, format="csr") * (len(indices) + 1.0)
    perm_c = spilu(graph.tocsc(), permc_spec="MMD_AT_PLUS_A", drop_tol=1.0,
                   fill_factor=1.0, panel_size=1, relax=1).perm_c
    return np.argsort(perm_c[entity], kind="stable")


def apply_dirichlet(pattern: SparsePattern, blocks: List[tuple]):
    """The matrix of the blocks' values with its Dirichlet dofs eliminated,
    and the lift values, its free-row entries in fixed columns (see
    `SparsePattern`), which `dirichlet_rhs` turns into each right-hand side.
    Returns (A, lift).  Each block is added into one slot array on its own
    slice of the scatter, in block order, so each slot sums its entries in
    the order one `np.bincount` of all the values would.  Entries whose
    value is exactly zero are left out of the returned CSR."""
    p = pattern
    if tuple(v.size for *_, v in blocks) != p.sizes:
        raise AssemblyError("element blocks of the %d-dof matrix do not match its "
                            "assembly pattern" % p.n)
    slots = np.zeros(p.nslots)
    for (*_, v), start, size in zip(blocks, p.starts, p.sizes):
        np.add.at(slots, p.scatter[start:start + size], v.reshape(-1))
    data = slots[:p.nnz]
    data[p.diag] = 1.0
    # Explicit zeros are dropped, in place, so the record's arrays are
    # copied.  Kept, they change the LU: the steady Stokes matrix of the
    # exact polynomial case on an 8x8 square has 480 of them (13,217 slots,
    # 12,737 nonzeros), and with them the float32 LU refines 2 passes to a
    # residual of 1.0e-13 instead of 3 passes to 6.5e-16, which moves that
    # case's errors from 7.0e-16/2.5e-13 to 1.3e-12/6.8e-10 (bound 1e-9).
    A = sparse.csr_matrix((data, p.indices.copy(), p.indptr.copy()), shape=(p.n, p.n))
    A.eliminate_zeros()
    return A, slots[p.nnz:-1]


def dirichlet_rhs(pattern: SparsePattern, lift: np.ndarray, b: np.ndarray,
                  values: np.ndarray) -> np.ndarray:
    """b with the Dirichlet dofs' entries of the step's value list moved to
    the right-hand side: minus the lift values (`apply_dirichlet`) times
    their columns' values, and the values themselves at the fixed dofs.
    The one place Dirichlet values enter a right-hand side.  A new array;
    b is not changed."""
    p = pattern
    values = values[p.take]
    b = b - np.bincount(p.lift_rows, weights=lift * values[p.lift_pos], minlength=p.n)
    b[p.dofs] = values
    return b


def last_set(dofs: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Sorted unique dofs and the position of each one's last occurrence in
    `dofs`: where conditions overlap, the one set later wins."""
    dofs = np.asarray(dofs, dtype=np.int64)
    unique, first = np.unique(dofs[::-1], return_index=True)
    return unique, len(dofs) - 1 - first
