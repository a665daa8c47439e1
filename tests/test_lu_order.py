"""Elimination order of the sparse LU: grouping by mesh entity, one build per
matrix record at its first assembly, fill against SuperLU's default column
order, and the solutions."""

import numpy as np
import pytest
from scipy.sparse.linalg import splu, spsolve

import fpsi.fem as fem
import fpsi.stepping as stepping
from fpsi.mms import biot_trig, stokes_trig
from fpsi.scenarios import (benchmark_params, channel_mesh, channel_problem, mms_problem,
                            solve_mms_steady)
from fpsi.solver import RESIDUAL_TOL
from fpsi.stepping import State, advance_step, solve_steady

DT = 1e-4


class Solves:
    """(A, b, x, report) of every solve the step functions make."""

    def __init__(self, monkeypatch):
        self.calls = []
        real = stepping.solve

        def solve(A, b, record, **kwargs):
            x, rep = real(A, b, record, **kwargs)
            self.calls.append((A, b, x, rep))
            return x, rep

        monkeypatch.setattr(stepping, "solve", solve)


def channel(n):
    return channel_problem(channel_mesh(n), benchmark_params(K=1e-5))


def steps(prob, order, n):
    state = State.initial(prob)
    for _ in range(n):
        state, _ = advance_step(prob, state, DT, order)
    return state


def cached_order(prob, name):
    order = prob.patterns[name].order
    assert order is not None and len(order) == prob.patterns[name].n
    return order


def assert_grouped(order, keys, pressure):
    """order is a permutation; each entity's dofs are contiguous in it, and
    no velocity dof follows a pressure dof of its entity."""
    assert np.array_equal(np.sort(order), np.arange(len(keys)))
    k = keys[order]
    starts = np.flatnonzero(np.diff(k)) + 1
    assert len(starts) + 1 == len(np.unique(keys))
    same = np.diff(k) == 0
    p = pressure[order]
    assert not np.any(same & p[:-1] & ~p[1:])


def test_order_groups_dofs_by_entity_with_pressures_last():
    prob = channel(4)
    steps(prob, 2, 2)
    lay = prob.layout
    pressure = np.zeros(lay.total, dtype=bool)
    for name in ("p_f", "p_d"):
        pressure[lay.slice_of(name)] = True
    keys = prob.entity_keys(lay.names)
    order = cached_order(prob, "system")
    assert_grouped(order, keys, pressure)
    # an interface vertex: v_f, v_s, q (two each), then p_f and p_d
    shared = np.intersect1d(prob.spaces["p_f"].entity_keys, prob.spaces["p_d"].entity_keys)
    v = shared[len(shared) // 2]
    group = order[keys[order] == v]
    pf, pd = (lay.offsets[name] + np.searchsorted(prob.spaces[name].entity_keys, v)
              for name in ("p_f", "p_d"))
    assert len(group) == 8 and list(group[-2:]) == [pf, pd]
    ext_keys = prob.entity_keys(("u",))
    assert_grouped(cached_order(prob, "extension"), ext_keys, np.zeros(len(ext_keys), bool))


def test_order_is_built_once_per_pattern_at_its_first_assembly(monkeypatch):
    builds = []
    build = fem.entity_order

    def counting(indptr, indices, keys):
        builds.append(len(keys))
        return build(indptr, indices, keys)

    monkeypatch.setattr(fem, "entity_order", counting)
    prob = channel(4)
    assert builds == []                        # nothing is ordered with the problem
    state = State.initial(prob)
    # the system's order comes with its record, before anything is solved
    stepping.assemble_system(prob, stepping.step_inputs(prob, state, stepping.BDF1, DT))
    assert builds == [prob.layout.total] and prob.patterns["system"].lu is None
    seen = []
    for _ in range(6):
        state, _ = advance_step(prob, state, DT, 2)
        seen.append((id(cached_order(prob, "system")), id(cached_order(prob, "extension"))))
    assert builds == [prob.layout.total, prob.spaces["u"].num_dofs]
    assert len(set(seen)) == 1


@pytest.mark.parametrize("run", [lambda: steps(channel(8), 1, 1),
                                 lambda: solve_steady(mms_problem(stokes_trig(), 16)),
                                 lambda: solve_steady(mms_problem(biot_trig(), 16))],
                         ids=["channel8", "stokes16", "biot16"])
def test_fresh_lu_fill_is_below_the_default_order(monkeypatch, run):
    rec = Solves(monkeypatch)
    run()
    A, _, _, rep = rec.calls[0]
    assert rep.factored and rep.nnz == A.nnz and rep.n == A.shape[0]
    default = splu(A.tocsc()).nnz
    assert 0 < rep.fill < 0.8 * default


def rel_error(A, b, x):
    ref = spsolve(A.tocsc(), b)
    return np.linalg.norm(x - ref) / np.linalg.norm(ref)


def test_steady_stokes_matches_spsolve(monkeypatch):
    rec = Solves(monkeypatch)
    prob = mms_problem(stokes_trig(), 16)
    solve_steady(prob)
    (A, b, x, rep), = rec.calls
    assert rep.residual <= RESIDUAL_TOL
    assert rel_error(A, b, x) <= 1e-8
    # the record keeps its order, but the steady LU is not kept
    assert prob.patterns["system"].lu is None
    cached_order(prob, "system")


@pytest.mark.parametrize("case", [stokes_trig, biot_trig], ids=["stokes", "biot"])
def test_steady_errors_match_a_double_precision_solve(monkeypatch, case):
    """The float32 LU refined in float64 gives the errors a float64 direct
    solve of the same system gives.  The reference is spsolve refined by
    two more spsolve passes: plain spsolve leaves Stokes' p_f error 4e-10
    (relative) off its refined value, at a residual of 8e-14."""
    errors = solve_mms_steady(case(), 16)

    def direct(A, b, record, **kwargs):
        A = A.tocsc()
        x = spsolve(A, b)
        for _ in range(2):
            x = x + spsolve(A, b - A @ x)
        return x, None

    monkeypatch.setattr(stepping, "solve", direct)
    reference = solve_mms_steady(case(), 16)
    assert errors.keys() == reference.keys()
    for name, ref in reference.items():
        assert abs(errors[name] - ref) <= 1e-10 * ref, name


def test_bdf2_channel_step_matches_spsolve(monkeypatch):
    prob = channel(4)
    state = steps(prob, 2, 1)
    rec = Solves(monkeypatch)
    _, diag = advance_step(prob, state, DT, 2)
    assert diag.scheme.order == 2 and diag.system.factored   # the scheme change refactors
    assert len(rec.calls) == 2                               # system and extension
    for A, b, x, rep in rec.calls:
        assert rep.residual <= RESIDUAL_TOL
        assert rel_error(A, b, x) <= 1e-8


def test_lagged_reuse_goes_through_the_ordered_lu(monkeypatch):
    prob = channel(4)
    state = steps(prob, 1, 1)
    held = prob.patterns["system"].lu
    rec = Solves(monkeypatch)
    _, diag = advance_step(prob, state, DT, 1)
    rep = diag.system
    assert not rep.factored and rep.iterations >= 1 and rep.fill == 0
    assert rep.residual <= RESIDUAL_TOL
    assert prob.patterns["system"].lu is held
    assert np.array_equal(held.order, cached_order(prob, "system"))
    A, b, x, _ = rec.calls[0]
    assert rep.nnz == A.nnz
    assert rel_error(A, b, x) <= 1e-8
