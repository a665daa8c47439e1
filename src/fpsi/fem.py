"""Element-level building blocks shared by assembly, mesh extension and the
energy monitor.

Quadrature-point evaluation: FE fields, their gradients and the weighted
element contractions, written as batched matrix products.

Fixed-pattern sparse assembly: a matrix is the sum of a fixed sequence of
dense element blocks (rows, cols, values).  The first assembly builds the
CSR pattern of that sum and an int32 index scattering every block entry to
its slot in `data`; each later assembly computes the block values only and
fills `data` with one `np.bincount`.

The pattern is the one record of everything about its matrix that stays
fixed from step to step: the Dirichlet elimination (a gather built on the
pattern at the first assembly, from the matrix's fixed dofs), the
fill-reducing elimination order of the LU (built at the first solve) and
the last LU, which the next solve reuses or replaces.
"""

from __future__ import annotations

from typing import Callable, Hashable, List, Optional, Tuple

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


def grads_at_qp(sub, uvec: np.ndarray, d: int) -> np.ndarray:
    """grad u at the quadrature points of cells or facets: (nb, nq, d, d), du_m/dx_e.

    sub carries `nodes_u` (nb, n2) and the P2 gradients `grad2` (nb, nq, n2, d).
    """
    uloc = uvec.reshape(-1, d)[sub.nodes_u]                  # (nb, n2, d)
    return np.swapaxes(uloc, 1, 2)[:, None] @ sub.grad2


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
    """P[b,i,a,j,e] = sum_q w[b,q] G[b,q,i,a] G[b,q,j,e] for G (nb, nq, n, d)."""
    nb, nq, n, d = G.shape
    X = G.reshape(nb, nq, n * d)
    return (np.swapaxes(X * w[..., None], 1, 2) @ X).reshape(nb, n, d, n, d)


def component_trace(P: np.ndarray) -> np.ndarray:
    """sum_a P[b,i,a,j,a] -> (nb, ni, nj)."""
    return sum(P[:, :, a, :, a] for a in range(P.shape[2]))


def add_kron_eye(E: np.ndarray, M: np.ndarray) -> np.ndarray:
    """E[b,i,a,j,a] += M[b,i,j] in place, for E (nb, ni, d, nj, d); returns E."""
    for a in range(E.shape[2]):
        E[:, :, a, :, a] += M
    return E


def kron_eye(M: np.ndarray, d: int) -> np.ndarray:
    """Embed a scalar element matrix as M (x) I_d with interleaved components."""
    nb, ni, nj = M.shape
    out = np.zeros((nb, ni, d, nj, d))
    return add_kron_eye(out, M).reshape(nb, ni * d, nj * d)


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
    """CSR pattern of a sum of element blocks, and the block -> data scatter.

    `key` names the set of terms the pattern was built for; `sizes` holds the
    entry count of each block, so a different block sequence is caught
    before it is scattered into the wrong slots.

    It also holds what stays fixed for its matrix across steps:
    `elimination` (`dirichlet`), `order` (`elimination_order`) and `lu`, the
    last LU of the matrix, which `solver.solve(..., lagged=pattern)` tries
    first and replaces when it factors afresh.
    """

    def __init__(self, n: int, indptr: np.ndarray, indices: np.ndarray,
                 scatter: np.ndarray, sizes: Tuple[int, ...], key: Hashable = None):
        self.n = n
        self.indptr = indptr
        self.indices = indices
        self.scatter = scatter
        self.sizes = sizes
        self.key = key
        self.elimination: Optional[DirichletElimination] = None
        self.order: Optional[np.ndarray] = None
        self.lu = None

    @property
    def nnz(self) -> int:
        return len(self.indices)

    @classmethod
    def from_blocks(cls, n: int, blocks: List[Tuple[np.ndarray, np.ndarray]],
                    key: Hashable = None) -> "SparsePattern":
        """Pattern of the blocks (rows (nb, ni), cols (nb, nj)), no global sort."""
        sizes = tuple(r.shape[0] * r.shape[1] * c.shape[1] for r, c in blocks)
        nt = sum(sizes)
        if nt >= 2 ** 31 or n >= 2 ** 31:
            raise AssemblyError("pattern too large for int32 indices")
        rows = np.empty(nt, dtype=np.int32)
        cols = np.empty(nt, dtype=np.int32)
        pos = 0
        for (r, c), size in zip(blocks, sizes):
            nb, ni = r.shape
            nj = c.shape[1]
            rows[pos:pos + size].reshape(nb, ni, nj)[...] = r[:, :, None]
            cols[pos:pos + size].reshape(nb, ni, nj)[...] = c[:, None, :]
            pos += size
        if nt == 0:
            return cls(n, np.zeros(n + 1, dtype=np.int32), np.empty(0, dtype=np.int32),
                       np.empty(0, dtype=np.int32), sizes, key)

        # two stable counting sorts: by column, then by row -> (row, col) order
        perm = _stable_bucket(cols, n, np.arange(nt, dtype=np.int32))
        perm = _stable_bucket(rows[perm], n, perm)
        r = rows[perm]
        c = cols[perm]
        del rows, cols
        first = np.empty(nt, dtype=bool)
        first[0] = True
        np.not_equal(c[1:], c[:-1], out=first[1:])
        first[1:] |= r[1:] != r[:-1]
        scatter = np.empty(nt, dtype=np.int32)
        scatter[perm] = np.cumsum(first, dtype=np.int32) - 1
        indices = c[first]
        indptr = np.zeros(n + 1, dtype=np.int32)
        np.cumsum(np.bincount(r[first], minlength=n), out=indptr[1:])
        return cls(n, indptr, indices, scatter, sizes, key)

    def fill(self, vals: np.ndarray) -> sparse.csr_matrix:
        """The summed matrix for block values concatenated in block order."""
        data = np.bincount(self.scatter, weights=vals, minlength=self.nnz)
        return sparse.csr_matrix((data, self.indices, self.indptr), shape=(self.n, self.n))

    def dirichlet(self, fixed: Callable[[], tuple]) -> "DirichletElimination":
        """The Dirichlet elimination of this matrix, built at the first call
        from `fixed()`, the arguments of `DirichletElimination` after the
        pattern: the matrix's Dirichlet dofs do not change in time."""
        if self.elimination is None:
            self.elimination = DirichletElimination(self, *fixed())
        return self.elimination

    def elimination_order(self, entity_keys: Callable[[], np.ndarray]) -> np.ndarray:
        """Fill-reducing order of this pattern's dofs (see `entity_order`),
        built at the first call from `entity_keys()`, the mesh-entity key of
        each dof.  It orders the structure left by the Dirichlet elimination
        when there is one, which is the structure that is factored."""
        if self.order is None:
            rows = self if self.elimination is None else self.elimination
            self.order = entity_order(rows.indptr, rows.indices, entity_keys())
        return self.order


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


class DirichletElimination:
    """Identity-row replacement with column symmetrization, on a fixed pattern.

    The output keeps every entry outside the fixed rows and columns, puts a
    unit diagonal in each fixed row (also where the pattern has no diagonal)
    and drops entries whose value is exactly zero.

    Each step lists its boundary values in one fixed order; the fixed dof
    dofs[i] (sorted, unique) takes the value at position take[i] of that
    list.  `nodes` is kept for the caller that builds the list: the
    constrained nodes of each of its conditions.
    """

    def __init__(self, pattern: SparsePattern, dofs: np.ndarray, take: np.ndarray,
                 nodes: tuple = ()):
        n = pattern.n
        self.dofs = np.asarray(dofs, dtype=np.int64)
        self.take = take
        self.nodes = nodes
        fixed = np.zeros(n, dtype=bool)
        fixed[self.dofs] = True
        counts = np.diff(pattern.indptr)
        entry_row = np.repeat(np.arange(n, dtype=np.int32), counts)
        keep = ~(fixed[entry_row] | fixed[pattern.indices])
        out_counts = np.bincount(entry_row[keep], minlength=n)
        out_counts[self.dofs] = 1
        self.indptr = np.zeros(n + 1, dtype=np.int32)
        np.cumsum(out_counts, out=self.indptr[1:])
        diag = self.indptr[self.dofs]
        # gather from the pattern's data; slot nnz holds the unit diagonal
        self.gather = np.empty(int(self.indptr[-1]), dtype=np.int32)
        self.indices = np.empty(int(self.indptr[-1]), dtype=np.int32)
        is_diag = np.zeros(len(self.gather), dtype=bool)
        is_diag[diag] = True
        self.gather[is_diag] = pattern.nnz
        self.gather[~is_diag] = np.flatnonzero(keep)
        self.indices[~is_diag] = pattern.indices[keep]
        self.indices[diag] = self.dofs

    def apply(self, A: sparse.csr_matrix, b: np.ndarray, values: np.ndarray):
        n = A.shape[0]
        values = values[self.take]
        x0 = np.zeros(n)
        x0[self.dofs] = values
        b = b - A @ x0
        b[self.dofs] = values
        data = np.append(A.data, 1.0)[self.gather]
        nonzero = data != 0.0
        if nonzero.all():
            indices, indptr = self.indices, self.indptr
        else:
            kept = np.concatenate(([0], np.cumsum(nonzero, dtype=np.int32)))
            indices, indptr, data = self.indices[nonzero], kept[self.indptr], data[nonzero]
        return sparse.csr_matrix((data, indices, indptr), shape=(n, n)), b


def apply_dirichlet(A: sparse.csr_matrix, b: np.ndarray, values: np.ndarray,
                    pattern: SparsePattern):
    """Fix the Dirichlet dofs of A x = b, A assembled on `pattern`, to their
    entries of the step's value list (see `DirichletElimination`)."""
    if len(pattern.elimination.dofs) == 0:
        return A, b
    return pattern.elimination.apply(A, b, values)


def last_set(dofs: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Sorted unique dofs and the position of each one's last occurrence in
    `dofs`: where conditions overlap, the one set later wins."""
    dofs = np.asarray(dofs, dtype=np.int64)
    unique, first = np.unique(dofs[::-1], return_index=True)
    return unique, len(dofs) - 1 - first


class Triplets:
    """Element blocks of one matrix, added in the same order every assembly.

    The pattern is looked up in `cache[name]`; it is reused when it was built
    for the same `key`, and otherwise rebuilt from this assembly's blocks and
    stored there, as a new record with no elimination, order or LU yet.  With a pattern in hand only the values are kept.
    """

    def __init__(self, n: int, cache: dict, name: str, key: Hashable = None):
        self.n = n
        self.cache = cache
        self.name = name
        self.key = key
        pattern = cache.get(name)
        self.pattern = pattern if pattern is not None and pattern.key == key else None
        self.blocks: List[Tuple[np.ndarray, np.ndarray]] = []
        self.vals: List[np.ndarray] = []

    def add(self, rows: np.ndarray, cols: np.ndarray, vals: np.ndarray) -> None:
        if self.pattern is None:
            self.blocks.append((rows, cols))
        self.vals.append(vals.reshape(-1))

    def tocsr(self) -> sparse.csr_matrix:
        if self.pattern is None:
            self.pattern = SparsePattern.from_blocks(self.n, self.blocks, self.key)
            self.cache[self.name] = self.pattern
            self.blocks = []
        sizes = tuple(len(v) for v in self.vals)
        if sizes != self.pattern.sizes:
            raise AssemblyError("element blocks of %r do not match its assembly pattern"
                                % self.name)
        return self.pattern.fill(np.concatenate(self.vals) if self.vals else np.empty(0))
