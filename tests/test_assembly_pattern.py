"""Fixed-pattern assembly against a test-local reference assembly.

The reference expands every element block of the list that
`apply_dirichlet` receives into COO triplets, converts to CSR with summed
duplicates and eliminates Dirichlet dofs as D A D + diag, dropping explicit
zeros: the assembly before patterns were reused.  Both paths take the same
blocks (their kernels are checked against oracles elsewhere), so the
comparison isolates the pattern, the scatter and the elimination, step
after step on one problem.
"""

import dataclasses

import numpy as np
import pytest
from scipy import sparse

import fpsi.assembly as assembly
import fpsi.fem as fem
import fpsi.stepping as stepping
from fpsi.assembly import DirichletBC, StepInputs, assemble_system, build_problem
from fpsi.errors import AssemblyError
from fpsi.fem import field_at_qp
from fpsi.mesh import GAMMA_F0, GAMMA_FS, GAMMA_OUT, GAMMA_S0
from fpsi.mms import biot_trig, stokes_trig
from fpsi.scenarios import benchmark_params, channel_mesh, channel_problem, mms_problem
from fpsi.spaces import FunctionSpace, interpolate
from fpsi.stepping import State, advance_step, solve_steady

A_RTOL = 1e-14
B_RTOL = 1e-12
DT = 1e-4


def coo_sum(n, blocks):
    """The matrix of the blocks (rows, cols, values) as COO triplets,
    summed by COO -> CSR."""
    rows, cols = [], []
    for r, c, _ in blocks:
        nb, ni = r.shape
        nj = c.shape[1]
        rows.append(np.repeat(r[:, :, None], nj, axis=2).ravel())
        cols.append(np.repeat(c[:, None, :], ni, axis=1).ravel())
    vals = [v.reshape(-1) for *_, v in blocks]
    A = sparse.coo_matrix((np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
                          shape=(n, n)).tocsr()
    A.sum_duplicates()
    return A


def reference_dirichlet(pattern, blocks, b, values):
    """The summed matrix of the blocks with identity rows and columns by
    D A D + diag(fixed), zeros dropped; the fixed dofs and their positions
    in the value list are those of the pattern under test."""
    A = coo_sum(pattern.n, blocks)
    dofs = pattern.dofs
    values = values[pattern.take]
    n = A.shape[0]
    x0 = np.zeros(n)
    x0[dofs] = values
    b = b - A @ x0
    keep = np.ones(n)
    keep[dofs] = 0.0
    mark = 1.0 - keep
    A = (sparse.diags(keep) @ A @ sparse.diags(keep) + sparse.diags(mark)).tocsr()
    A.eliminate_zeros()
    b[dofs] = values
    return A, b


def rel_dev(A, R):
    return abs(A - R).max() / abs(R).max()


def same_structure(A, R):
    A, R = A.tocsr(), R.tocsr()
    A.sort_indices()
    R.sort_indices()
    return (A.nnz == R.nnz and np.array_equal(A.indptr, R.indptr)
            and np.array_equal(A.indices, R.indices))


def backflow_active(problem, inp):
    """Whether the extrapolated velocity enters through an open boundary."""
    if inp.vf_tilde is None:
        return False
    for marker in problem.open_markers:
        tr = problem.natural[marker]
        g = inp.geo.loads[marker]
        vt = field_at_qp(tr.val2, tr.nodes2, inp.vf_tilde, problem.dim)
        if np.any(np.sum(vt * g["n"], axis=-1) < 0.0):
            return True
    return False


class Recorder:
    """Wraps the step entry points to check each matrix and right-hand side
    against the reference built from the blocks its `apply_dirichlet`
    receives and the values its `dirichlet_rhs` receives.

    The extension eliminates its blocks at its first solve only and holds
    the result; each of its solves is checked against the reference of
    those blocks with that step's v_s."""

    def __init__(self, mp):
        self.system = []          # (scheme a0, a dev, b dev, same structure, backflow)
        self.extension = []       # (a and b dev, same structure) of each extension solve
        self.eliminations = 0     # the extension's calls of apply_dirichlet
        self.handed = []          # matrices handed to the solver
        checked = []              # the system's comparison of this assembly
        current = {}              # the system's blocks and matrix of this assembly
        ext = {}                  # the extension's blocks, and v_s during its solve
        real_assemble = stepping.assemble_system
        real_dirichlet = fem.apply_dirichlet
        real_rhs = fem.dirichlet_rhs
        real_solve = stepping.solve
        real_extension = stepping.solve_extension

        def eliminate(pattern, blocks):
            current["blocks"] = blocks
            current["A"], lift = real_dirichlet(pattern, blocks)
            return current["A"], lift

        def compare(pattern, lift, b, values):
            rhs = real_rhs(pattern, lift, b, values)
            out = current.pop("A")
            expect, expect_b = reference_dirichlet(pattern, current.pop("blocks"), b, values)
            checked.append((rel_dev(out, expect),
                            np.abs(rhs - expect_b).max() / np.abs(expect_b).max(),
                            same_structure(out, expect)))
            return rhs

        def assemble(problem, inp):
            system = real_assemble(problem, inp)
            (a_dev, b_dev, same), = checked
            checked.clear()
            self.system.append((inp.a0, a_dev, b_dev, same, backflow_active(problem, inp)))
            return system

        def extension_blocks(pattern, blocks):
            self.eliminations += 1
            ext["blocks"] = blocks
            return real_dirichlet(pattern, blocks)

        def solve_extension(problem, v_s):
            ext["v_s"] = v_s
            try:
                return real_extension(problem, v_s)
            finally:
                del ext["v_s"]

        def solve(A, b, record, **kwargs):
            self.handed.append((A, b))
            if "v_s" in ext:
                expect, expect_b = reference_dirichlet(record, ext["blocks"], np.zeros(record.n),
                                                       np.append(ext["v_s"], 0.0))
                self.extension.append((max(rel_dev(A, expect), np.abs(b - expect_b).max()
                                           / np.abs(expect_b).max()),
                                       same_structure(A, expect)))
            return real_solve(A, b, record, **kwargs)

        mp.setattr(stepping, "assemble_system", assemble)
        mp.setattr(assembly, "apply_dirichlet", eliminate)
        mp.setattr(assembly, "dirichlet_rhs", compare)
        mp.setattr(stepping, "apply_dirichlet", extension_blocks)
        mp.setattr(stepping, "solve_extension", solve_extension)
        mp.setattr(stepping, "solve", solve)


def channel(p_ext=1.333e3, t_pulse=2.5 * DT):
    return channel_problem(channel_mesh(4), benchmark_params(K=1e-5),
                           p_ext=p_ext, t_pulse=t_pulse)


# the (field, markers) of the Dirichlet conditions each problem is built with
WALL_BCS = (("v_s", (GAMMA_S0,)), ("p_d", (GAMMA_S0,)))      # channel and solid MMS
INLET_BCS = (("v_f", (GAMMA_F0,)),)                          # fluid MMS, p_f node 0 pinned


def system_dofs(problem, conditions, pinned_pf=()):
    """Dirichlet dofs of the monolithic system, found here from the
    conditions' (field, markers) and the pinned p_f nodes, apart from the
    problem's own resolved list."""
    lay = problem.layout
    dofs = [lay.offsets["p_f"] + np.array(pinned_pf, dtype=np.int64)] if pinned_pf else []
    for field, markers in conditions:
        space = problem.spaces[field]
        dofs.append(space.dofs_of_nodes(space.nodes_on_markers(markers)) + lay.offsets[field])
    return np.unique(np.concatenate(dofs)).astype(np.int64)


def assert_unit_rows(A, dofs):
    A = A.tocsr()
    for i in dofs:
        lo, hi = A.indptr[i], A.indptr[i + 1]
        assert hi - lo == 1 and A.indices[lo] == i and A.data[lo] == 1.0


@pytest.mark.parametrize("order", [1, 2])
@pytest.mark.parametrize("p_ext", [1.333e3, 0.0])
def test_channel_steps_match_reference(monkeypatch, order, p_ext):
    prob = channel(p_ext=p_ext)
    rec = Recorder(monkeypatch)
    state = State.initial(prob)
    if p_ext == 0.0:
        # free decay from a swirl, so the open ends see flow both ways
        state = State.initial(prob, fields={"v_f": interpolate(
            prob.spaces["v_f"], lambda X: np.stack(
                [1e-2 * np.sin(X[:, 1] / 2.0), 1e-2 * np.cos(X[:, 0] / 5.0)], axis=1))})
    for _ in range(4):
        state, _ = advance_step(prob, state, DT, order)

    schemes = {a0 for a0, *_ in rec.system}
    assert schemes == ({1.0} if order == 1 else {1.0, 1.5})
    for a0, a_dev, b_dev, same, _ in rec.system:
        assert a_dev <= A_RTOL and b_dev <= B_RTOL and same
    assert {active for *_, active in rec.system} == (
        {False, True} if p_ext != 0.0 else {True})
    assert rec.eliminations == 1 and len(rec.extension) == 4
    for dev, same in rec.extension:
        assert dev <= A_RTOL and same
    dofs = system_dofs(prob, WALL_BCS)
    for k, (A, _) in enumerate(rec.handed):
        assert np.all(A.data != 0.0)
        if k % 2 == 0:                # system solve; odd entries are the extension
            assert_unit_rows(A, dofs)


def test_pulse_switches_off_within_the_run(monkeypatch):
    # t_pulse = 2.5 dt: steps 1-2 loaded, steps 3-4 free; one pattern throughout
    prob = channel()
    rec = Recorder(monkeypatch)
    state = State.initial(prob)
    pulse = prob.loads[0].value
    loaded = []
    for _ in range(4):
        loaded.append(pulse(state.t + DT) != 0.0)
        state, _ = advance_step(prob, state, DT, 2)
    assert loaded == [True, True, False, False]
    assert all(a <= A_RTOL and b <= B_RTOL and s for _, a, b, s, _ in rec.system)
    assert set(prob.patterns) == {"system", "extension"}


@pytest.mark.parametrize("case", [stokes_trig, biot_trig])
def test_steady_mms_matches_reference(monkeypatch, case):
    prob = mms_problem(case(), 4)
    rec = Recorder(monkeypatch)
    solve_steady(prob)
    (_, a_dev, b_dev, same, _), = rec.system
    assert a_dev <= A_RTOL and b_dev <= B_RTOL and same
    (A, _), = rec.handed
    assert np.all(A.data != 0.0)
    fluid = case().subdomain == "fluid"
    assert_unit_rows(A, system_dofs(prob, INLET_BCS, (0,)) if fluid
                     else system_dofs(prob, WALL_BCS))


def moving_state(prob):
    """A deformed, moving state of the problem: no facet of its geometry is
    axis-aligned and no field vanishes, so no entry of a step's matrix is
    zero by accident."""
    state = State.initial(prob)
    for name in ("u", "w", "v_f", "v_s", "q"):
        space = prob.spaces["u" if name in ("u", "w") else name]
        state.fields[name] = interpolate(space, lambda X: 0.02 * np.stack(
            [np.sin(X[:, 1] + 0.3 * X[:, 0]), np.cos(X[:, 0] / 5.0 + 0.7 * X[:, 1])], axis=1))
        state.prev[name] = 0.5 * state.fields[name]
    return state


@pytest.mark.parametrize("order", [1, 2])
def test_structure_holds_only_entries_that_can_be_nonzero(order):
    # every slot of the eliminated structure is nonzero on a generic step:
    # the blocks scatter no entry that is zero whatever the data
    prob = channel()
    state = moving_state(prob)
    for _ in range(3):
        state, diag = advance_step(prob, state, DT, order)
        assert diag.system.nnz == prob.patterns["system"].nnz
        assert diag.extension.nnz == prob.patterns["extension"].nnz


def test_per_block_scatter_equals_one_bincount_bitwise(monkeypatch):
    captured = []
    real = fem.apply_dirichlet

    def capture(pattern, blocks):
        out = real(pattern, blocks)
        captured.append((pattern, blocks, out))
        return out

    monkeypatch.setattr(assembly, "apply_dirichlet", capture)
    prob = channel()
    advance_step(prob, moving_state(prob), DT, 2)
    (p, blocks, (A, lift)), = captured
    slots = np.bincount(p.scatter, weights=np.concatenate([v.reshape(-1) for *_, v in blocks]),
                        minlength=p.nslots)
    slots[p.diag] = 1.0
    assert A.nnz == p.nnz and np.array_equal(A.data, slots[:p.nnz])
    assert len(lift) > 0 and np.array_equal(lift, slots[p.nnz:-1])


def test_each_pattern_is_built_once(monkeypatch):
    builds = []

    class Counting(fem.SparsePattern):
        def __init__(self, n, *args, **kwargs):
            builds.append(n)
            super().__init__(n, *args, **kwargs)

    # the two get-or-build sites: the system's and the extension's
    monkeypatch.setattr(assembly, "SparsePattern", Counting)
    monkeypatch.setattr(stepping, "SparsePattern", Counting)
    prob = channel()
    assert prob.patterns == {}                 # nothing is built with the problem
    state = State.initial(prob)
    seen = []
    for _ in range(6):
        state, _ = advance_step(prob, state, DT, 2)
        seen.append((id(prob.patterns["system"]), id(prob.patterns["extension"])))
    assert builds == [prob.layout.total, prob.spaces["v_f"].num_dofs]
    assert len(set(seen)) == 1


def test_extension_dirichlet_rows(monkeypatch):
    prob = channel()
    rec = Recorder(monkeypatch)
    state = State.initial(prob)
    for _ in range(2):
        state, _ = advance_step(prob, state, DT, 2)
    vf = prob.spaces["v_f"]
    fixed = vf.dofs_of_nodes(np.union1d(vf.nodes_on_markers((GAMMA_FS,)),
                                        vf.nodes_on_markers((GAMMA_F0, GAMMA_OUT))))
    for A, _ in rec.handed[1::2]:
        assert A.shape[0] == vf.num_dofs and np.all(A.data != 0.0)
        assert_unit_rows(A, fixed)


def test_dirichlet_dofs_are_found_once(monkeypatch):
    calls = []
    find = FunctionSpace.nodes_on_markers

    def counting(space, markers):
        calls.append(tuple(markers))
        return find(space, markers)

    monkeypatch.setattr(FunctionSpace, "nodes_on_markers", counting)
    prob = channel()
    # the system's conditions are found with the problem, once each
    assert calls == [markers for _, markers in WALL_BCS] and prob.patterns == {}
    calls.clear()
    state = State.initial(prob)
    for _ in range(4):
        state, _ = advance_step(prob, state, DT, 2)
    # the steps find only the extension's outer boundary, at its first assembly
    assert calls == [(GAMMA_F0, GAMMA_OUT)]
    assert set(prob.patterns) == {"system", "extension"}
    assert np.array_equal(prob.patterns["system"].dofs, system_dofs(prob, WALL_BCS))
    assert len(prob.patterns["extension"].dofs) > 0


def test_later_dirichlet_conditions_win():
    # the v_s wall twice: the second condition's values must be kept; the p_d
    # condition between them keeps its own values
    prob = build_problem(channel_mesh(4), benchmark_params(K=1e-5), dirichlet=[
        DirichletBC("v_s", (GAMMA_S0,), lambda X, t: np.ones_like(X)),
        DirichletBC("p_d", (GAMMA_S0,), lambda X, t: X[:, 0] * t),
        DirichletBC("v_s", (GAMMA_S0,), lambda X, t: X + t)])
    assert len(prob.fixed) == 3
    lay = prob.layout
    vs, pd = prob.spaces["v_s"], prob.spaces["p_d"]
    at_vs, at_pd = vs.nodes_on_markers((GAMMA_S0,)), pd.nodes_on_markers((GAMMA_S0,))
    for t in (0.5, 1.5):
        b = assemble_system(prob, dataclasses.replace(StepInputs.steady(prob), t=t)).b
        assert np.array_equal(b[vs.dofs_of_nodes(at_vs) + lay.offsets["v_s"]],
                              (vs.node_coords[at_vs] + t).ravel())
        assert np.array_equal(b[pd.dofs_of_nodes(at_pd) + lay.offsets["p_d"]],
                              pd.node_coords[at_pd][:, 0] * t)


def test_last_set_keeps_the_last_occurrence():
    dofs, take = fem.last_set(np.array([5, 2, 5, 7, 2, 5]))
    assert dofs.tolist() == [2, 5, 7] and take.tolist() == [4, 5, 3]
    dofs, take = fem.last_set(np.empty(0, dtype=np.int64))
    assert len(dofs) == 0 and len(take) == 0


def eliminate_both(n, blocks, vals, dofs, values, b):
    """The fused elimination of the blocks and the reference one, with the
    fixed dofs `dofs` (repeats allowed: the later wins) set to `values`."""
    blocks = [(r, c, v) for (r, c), v in zip(blocks, vals)]
    pattern = fem.SparsePattern(n, blocks, np.arange(n), *fem.last_set(dofs))
    values = np.asarray(values, dtype=float)
    A, lift = fem.apply_dirichlet(pattern, blocks)
    return ((A, fem.dirichlet_rhs(pattern, lift, b, values)),
            reference_dirichlet(pattern, blocks, b, values), pattern)


def assert_matches(fused, reference):
    (A, b), (R, rb) = fused, reference
    assert same_structure(A, R) and rel_dev(A, R) <= A_RTOL
    assert np.abs(b - rb).max() <= B_RTOL * np.abs(rb).max()
    assert np.all(A.data != 0.0)


def random_blocks(rng, n, shapes):
    blocks = [(rng.integers(0, n, (nb, ni)), rng.integers(0, n, (nb, nj)))
              for nb, ni, nj in shapes]
    vals = [rng.standard_normal((r.shape[0], r.shape[1], c.shape[1])) for r, c in blocks]
    return blocks, vals


def test_fused_elimination_of_overlapping_conditions():
    rng = np.random.default_rng(3)
    n = 30
    blocks, vals = random_blocks(rng, n, [(20, 3, 3), (12, 2, 4)])
    # dofs 3 and 7 are set twice; the later value wins
    dofs = np.array([3, 7, 12, 3, 20, 7])
    values = np.array([1.0, 2.0, 3.0, 4.0, 5.0, 6.0])
    b = rng.standard_normal(n)
    fused, ref, pattern = eliminate_both(n, blocks, vals, dofs, values, b)
    assert_matches(fused, ref)
    A, out = fused
    assert out[[3, 7, 12, 20]].tolist() == [4.0, 6.0, 3.0, 5.0]
    assert_unit_rows(A, [3, 7, 12, 20])
    # the fixed columns of the free rows went to the right-hand side
    assert len(pattern.lift_rows) > 0
    assert A[:, [3, 7, 12, 20]].nnz == 4


def test_fused_elimination_pins_a_dof_without_diagonal():
    # a saddle point: velocity dofs 0..5, pressure dofs 6..8 with no
    # pressure-pressure block; pressure 8 is pinned, velocity 0 is fixed
    rng = np.random.default_rng(5)
    vd = np.array([[0, 1, 2, 3], [2, 3, 4, 5]])
    pd = np.array([[6, 7], [7, 8]])
    Bv = rng.standard_normal((2, 2, 4))
    blocks = [(vd, vd), (pd, vd), (vd, pd)]
    vals = [rng.standard_normal((2, 4, 4)), Bv, -np.swapaxes(Bv, 1, 2)]
    b = rng.standard_normal(9)
    fused, ref, pattern = eliminate_both(9, blocks, vals, np.array([0, 8]), [0.5, 2.0], b)
    assert_matches(fused, ref)
    A, out = fused
    assert_unit_rows(A, [0, 8])
    assert pattern.dofs.tolist() == [0, 8] and len(pattern.lift_rows) > 0
    # b -= A[:, fixed] g for the free rows, from the summed matrix
    dense = coo_sum(9, [(r, c, v) for (r, c), v in zip(blocks, vals)]).toarray()
    free = np.arange(1, 8)
    expect = b[free] - dense[free][:, [0, 8]] @ np.array([0.5, 2.0])
    assert np.allclose(out[free], expect, rtol=1e-14, atol=1e-14)


def test_fused_elimination_drops_a_slot_that_sums_to_zero():
    # (1, 2) gets +v and -v: an exact zero the structure must not keep, in
    # a free row; (1, 4) sums to zero in a fixed column, where it lifts nothing
    rows = np.array([[1], [1]])
    v = np.array([[[0.3, 0.7, -1.1]], [[-0.3, 0.2, 1.1]]])
    blocks = [(rows, np.array([[2, 3, 4], [2, 0, 4]])), (np.array([[0, 3, 4]]),) * 2]
    vals = [v, np.arange(1.0, 10.0).reshape(1, 3, 3)]
    b = np.ones(5)
    fused, ref, pattern = eliminate_both(5, blocks, vals, np.array([4]), [3.0], b)
    assert_matches(fused, ref)
    A, out = fused
    assert A[1, 2] == 0.0 and pattern.nnz == A.nnz + 1
    assert out[1] == 1.0 and out[4] == 3.0


def test_fused_elimination_without_dirichlet_dofs():
    rng = np.random.default_rng(11)
    n = 12
    blocks, vals = random_blocks(rng, n, [(8, 3, 2)])
    b = rng.standard_normal(n)
    fused, ref, pattern = eliminate_both(n, blocks, vals, np.empty(0, dtype=np.int64), [], b)
    assert_matches(fused, ref)
    assert np.array_equal(fused[1], b) and pattern.nslots == pattern.nnz + 1


def test_pattern_of_arbitrary_blocks_matches_coo():
    # random dense blocks with repeated dofs, empty rows, and rows whose only
    # entry shares its column with the next row's first entry
    rng = np.random.default_rng(7)
    n = 40
    blocks = [(rng.integers(0, n - 5, (30, 4)), rng.integers(0, n, (30, 3))),
              (np.array([[n - 4], [n - 3]]), np.array([[5], [5]])),
              (rng.integers(0, n - 5, (10, 2)), rng.integers(0, n, (10, 6)))]
    vals = [rng.standard_normal((r.shape[0], r.shape[1], c.shape[1])) for r, c in blocks]
    none = np.empty(0, dtype=np.int64)
    first = [(r, c, v) for (r, c), v in zip(blocks, vals)]
    pattern = fem.SparsePattern(n, first, np.arange(n), none, none)
    A = fem.apply_dirichlet(pattern, first)[0]
    R = coo_sum(n, first)
    assert same_structure(A, R) and rel_dev(A, R) <= A_RTOL
    assert np.diff(A.indptr)[n - 5:].tolist() == [0, 1, 1, 0, 0]

    # a second fill of the same record with new values
    second = [(r, c, 2.0 * v) for r, c, v in first]
    A2 = fem.apply_dirichlet(pattern, second)[0]
    assert rel_dev(A2, coo_sum(n, second)) <= A_RTOL


def test_blocks_that_differ_from_the_pattern_are_refused():
    n = 6
    block = (np.array([[0, 1]]), np.array([[2, 3]]), np.ones((1, 2, 2)))
    none = np.empty(0, dtype=np.int64)
    pattern = fem.SparsePattern(n, [block], np.arange(n), none, none)
    with pytest.raises(AssemblyError, match="do not match its assembly pattern"):
        fem.apply_dirichlet(pattern, [block, block])
    # the same number of entries split differently is refused too
    half = (np.array([[0]]), np.array([[2, 3]]), np.ones((1, 1, 2)))
    with pytest.raises(AssemblyError, match="do not match its assembly pattern"):
        fem.apply_dirichlet(pattern, [half, half])
