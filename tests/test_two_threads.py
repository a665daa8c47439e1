"""The step's worker thread: a problem with fluid and solid cells assembles
the solid's terms and half of the fluid geometry's per-cell work on it.

A, b and every geometry array equal bitwise what the serial kernels give,
errors keep the serial order and reach the stepper with its prefix, the
worker is idle again before the call that used it returns, and a problem
with one subdomain gives it nothing."""

import threading
import time

import numpy as np
import pytest

import fpsi.assembly as assembly
from fpsi.assembly import assemble_system, build_geometry, check_deformation
from fpsi.errors import AssemblyError, DegenerateDeformationError
from fpsi.fem import (add_kron_eye, apply_dirichlet, component_trace, dirichlet_rhs,
                      gradient_gram, grads_at_qp, transposed)
from fpsi.kinematics import deformation_state, matmul2, pushforward_normal
from fpsi.mms import biot_trig, unsteady_fluid
from fpsi.scenarios import benchmark_params, channel_mesh, channel_problem, mms_problem
from fpsi.stepping import BDF2, State, advance_step, run_transient, step_inputs


class CountingWorker:
    """Stands in for the assembly module's worker: counts the tasks given
    to it and runs each on the real worker thread."""

    def __init__(self, real):
        self.real = real
        self.tasks = 0

    def submit(self, fn, *args, **kwargs):
        self.tasks += 1
        return self.real.submit(fn, *args, **kwargs)


@pytest.fixture
def worker(monkeypatch):
    spy = CountingWorker(assembly._WORKER)
    monkeypatch.setattr(assembly, "_WORKER", spy)
    return spy


@pytest.fixture(scope="module")
def moving_channel():
    """A BDF2 step of channel:4 from the moving state three steps into the
    default pulse."""
    prob = channel_problem(channel_mesh(4), benchmark_params(K=1e-5))
    state = run_transient(prob, 1e-4, 2, 3)
    assert np.abs(state.fields["u"]).max() > 0.0
    return prob, step_inputs(prob, state, BDF2, 1e-4), state.fields["u"]


def serial_deformation(batch, u):
    """`assembly.batch_deformation` over the whole batch in one thread."""
    F, J, Finv, _ = deformation_state(grads_at_qp(batch.dphi2, batch.nodes_u, u, 2),
                                      cell_ids=batch.cells)
    if batch.nref is None:
        return {"F": F, "J": J, "wJ": batch.w * J,
                "G": np.einsum("bieq,bqek->bikq", batch.dphi2, Finv)}
    n, Js = pushforward_normal(F, batch.nref[:, None, :])
    return {"n": n, "wJs": batch.w * Js}


def serial_geometry(prob, u):
    """The parts of `build_geometry`, each from the serial kernels."""
    fluid = serial_deformation(prob.fluid, u)
    gram = gradient_gram(fluid["wJ"], fluid["G"])
    parts = {"fluid": {"J": fluid["J"], "wJ": fluid["wJ"], "G": fluid["G"],
                       "visc": add_kron_eye(transposed(gram, (0, 1, 4, 3, 2)),
                                            component_trace(gram))},
             "solid": serial_deformation(prob.solid, u),
             "iface": serial_deformation(prob.iface.fluid, u)}
    n = parts["iface"]["n"]
    P = np.eye(2) - n[..., :, None] * n[..., None, :]
    parts["iface"]["slip"] = matmul2(matmul2(P, prob.params.K_inv_sqrt), P)
    for marker, tr in prob.natural.items():
        parts[marker] = serial_deformation(tr, u)
    return parts


def same_bits(a, b):
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def test_two_threads_give_the_serial_system_bitwise(moving_channel, worker):
    prob, inp, _ = moving_channel
    system = assemble_system(prob, inp)
    assert worker.tasks == 1                    # the solid's terms

    # the serial order: fluid, solid, interface, load, backflow, one list, one b
    blocks, b = [], np.zeros(prob.layout.total)
    assembly._fluid_terms(prob, inp, blocks, b)
    assembly._solid_terms(prob, inp, blocks, b)
    assembly._interface_terms(prob, inp, blocks)
    assembly._load_terms(prob, inp, b)
    assembly._backflow_terms(prob, inp, blocks)
    pattern = prob.patterns["system"]
    A, lift = apply_dirichlet(pattern, blocks)
    b = dirichlet_rhs(pattern, lift, b, assembly._dirichlet_values(prob, inp.t))
    for got, want in ((system.A.data, A.data), (system.A.indices, A.indices),
                      (system.A.indptr, A.indptr), (system.b, b)):
        assert same_bits(got, want)


def test_two_threads_give_the_serial_geometry_bitwise(moving_channel, worker):
    prob, _, u = moving_channel
    geo = build_geometry(prob, u)
    assert worker.tasks == 2                    # the fluid's G, then its Gram and visc
    want = serial_geometry(prob, u)
    got = {"fluid": geo.fluid, "solid": geo.solid, "iface": geo.iface, **geo.loads}
    assert set(got) == set(want)
    for part, arrays in want.items():
        assert set(got[part]) == set(arrays), part
        for key, value in arrays.items():
            assert same_bits(got[part][key], value), (part, key)


def inverting_displacement(prob, cells):
    """A displacement that mirrors each of the given cells in x about its
    centroid (F = diag(-1, 1) inside it) and is zero on every other node."""
    space = prob.spaces["u"]
    u = np.zeros(space.num_dofs)
    for c in cells:
        nodes = space.cell_nodes[c]
        X = space.node_coords[nodes]
        u[2 * nodes] = -2.0 * (X[:, 0] - X[:, 0].mean())
    return u


def test_inverting_a_fluid_and_a_solid_cell_fails_as_the_serial_order_does(worker):
    prob = channel_problem(channel_mesh(4), benchmark_params(K=1e-5))
    u = inverting_displacement(prob, (prob.fluid.cells[7], prob.solid.cells[3]))
    for batch in (prob.fluid, prob.solid):      # each subdomain alone fails
        with pytest.raises(DegenerateDeformationError):
            serial_deformation(batch, u)
    with pytest.raises(DegenerateDeformationError) as want:
        serial_deformation(prob.fluid, u)       # the serial order checks the fluid first
    with pytest.raises(DegenerateDeformationError) as got:
        check_deformation(prob, u)
    assert type(got.value) is type(want.value)
    assert got.value.cell == want.value.cell and got.value.cell in prob.fluid.cells
    assert str(got.value) == str(want.value)
    assert worker.tasks == 0                    # the J check precedes every task


def test_an_error_on_the_worker_reaches_the_step_with_its_prefix(monkeypatch, worker):
    prob = channel_problem(channel_mesh(2), benchmark_params(K=1e-5))
    threads = []

    def failing_solid_terms(*args):
        threads.append(threading.current_thread())
        raise AssemblyError("solid terms failed")

    monkeypatch.setattr(assembly, "_solid_terms", failing_solid_terms)
    with pytest.raises(AssemblyError, match=r"^step 1 failed: solid terms failed$"):
        advance_step(prob, State.initial(prob), 1e-4, 2)
    assert worker.tasks >= 1 and len(threads) == 1
    assert threads[0] is not threading.main_thread()


def test_the_fluid_error_wins_and_the_worker_is_idle_when_it_surfaces(monkeypatch):
    prob = channel_problem(channel_mesh(2), benchmark_params(K=1e-5))
    inp = step_inputs(prob, State.initial(prob), BDF2, 1e-4)
    finished = []

    def slow_failing_solid_terms(*args):
        time.sleep(0.05)
        finished.append(True)
        raise AssemblyError("solid terms failed")

    def failing_fluid_terms(*args):
        raise AssemblyError("fluid terms failed")

    monkeypatch.setattr(assembly, "_solid_terms", slow_failing_solid_terms)
    monkeypatch.setattr(assembly, "_fluid_terms", failing_fluid_terms)
    with pytest.raises(AssemblyError, match=r"^fluid terms failed$"):
        assemble_system(prob, inp)
    assert finished == [True]


@pytest.mark.parametrize("case,n", [(unsteady_fluid, 8), (biot_trig, 4)],
                         ids=["fluid_only", "solid_only"])
def test_one_subdomain_problems_give_the_worker_nothing(case, n, worker):
    prob = mms_problem(case(), n)
    assert (prob.fluid is None) != (prob.solid is None)
    state = State.initial(prob)
    for _ in range(3):
        state = advance_step(prob, state, 1e-3, 2)[0]
    assert worker.tasks == 0


def test_a_two_subdomain_step_gives_the_worker_its_tasks(worker):
    prob = channel_problem(channel_mesh(2), benchmark_params(K=1e-5))
    advance_step(prob, State.initial(prob), 1e-4, 2)
    # the step's system, the geometry of the rest state and of the new
    # one, and the extension's reference geometry: 1 + 3 x 2 tasks
    assert worker.tasks == 7
