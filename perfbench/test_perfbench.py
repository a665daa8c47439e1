"""Self-tests of the benchmark harness: statistics, span arithmetic, patching.

    python -m pytest -q perfbench
"""

import os
import sys
import types

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import workload as W  # noqa: E402
from speed import SpeedClock  # noqa: E402
from tracer import (Span, Tracer, covered, percentile, qualified_name,  # noqa: E402
                    resolve_owner, self_times, summarize, tail_percentile)


# -- tail-percentile rule ----------------------------------------------------

@pytest.mark.parametrize("n, pct", [
    (1, 50.0), (10, 50.0), (19, 50.0), (20, 50.0), (39, 50.0), (40, 75.0),
    (99, 75.0), (100, 90.0), (199, 90.0), (200, 95.0), (480, 95.0),
    (999, 95.0), (1000, 99.0), (10000, 99.9),
])
def test_tail_percentile_keeps_ten_samples_beyond(n, pct):
    assert tail_percentile(n) == pct
    assert n * (1 - pct / 100.0) >= 10 - 1e-9 or pct == 50.0


def test_summarize_interpolates_like_numpy():
    values = list(range(100, 0, -1))          # 1..100, unsorted
    st = summarize(values)
    assert st["n"] == 100 and st["tail_pct"] == 90.0
    assert st["p50"] == pytest.approx(50.5)
    assert st["tail"] == pytest.approx(90.1)
    assert percentile([3.0], 99.0) == 3.0
    with pytest.raises(ValueError):
        percentile([], 50.0)


# -- self-time arithmetic on synthetic spans --------------------------------

def test_covered_merges_and_clips():
    assert covered([(1, 3), (2, 5), (8, 12)], 0, 10) == pytest.approx(6.0)
    assert covered([], 0, 10) == 0.0
    assert covered([(-5, -1), (11, 12)], 0, 10) == 0.0


def test_self_time_is_duration_minus_child_coverage():
    spans = [
        Span("step", 0.0, 10.0),                      # 0
        Span("assemble", 1.0, 4.0, parent=0),         # 1
        Span("geometry", 1.5, 2.0, parent=1),         # 2 (grandchild of 0)
        Span("solve", 5.0, 9.0, parent=0),            # 3
        Span("energy", 10.0, 10.5),                   # 4, a root
    ]
    st = self_times(spans)
    assert st == pytest.approx([3.0, 2.5, 0.5, 4.0, 0.5])
    # self times of a subtree add up to its root's duration
    assert sum(st[:4]) == pytest.approx(spans[0].duration)


def test_qualified_name_uses_parent_role():
    spans = [Span("step", 0, 4), Span("solve", 0, 1, parent=0),
             Span("ext", 1, 3, parent=0), Span("solve", 1, 2, parent=2),
             Span("solve", 5, 6)]
    roles = {"solve": {"step": "system", "ext": "extension"}}
    names = [qualified_name(spans, i, roles) for i in range(len(spans))]
    assert names == ["step", "solve.system", "ext", "solve.extension", "solve"]


# -- the tracer on a synthetic module ---------------------------------------

@pytest.fixture
def fake_module(monkeypatch):
    mod = types.ModuleType("perfbench_fake")

    def inner(x):
        return x + 1

    def outer(x):
        return mod.inner(x) * 2

    def boom():
        raise KeyError("boom")

    class Obj:
        def method(self, y):
            return y * 3

    mod.inner, mod.outer, mod.boom, mod.Obj = inner, outer, boom, Obj
    monkeypatch.setitem(sys.modules, "perfbench_fake", mod)
    return mod


def test_tracer_records_nesting_steps_and_failures(fake_module):
    ticks = iter(range(1000))
    originals = {k: vars(fake_module)[k] for k in ("inner", "outer", "boom")}
    method = vars(fake_module.Obj)["method"]
    with Tracer(step_names=("outer",), clock=lambda: float(next(ticks))) as tr:
        tr.patch("perfbench_fake.outer", "outer")
        tr.patch("perfbench_fake.inner", "inner")
        tr.patch("perfbench_fake.boom", "boom")
        tr.patch("perfbench_fake.Obj.method", "method")
        assert fake_module.outer(1) == 4
        assert fake_module.outer(2) == 6
        assert fake_module.Obj().method(2) == 6
        with pytest.raises(KeyError):
            fake_module.boom()
    names = [(s.name, s.parent, s.step, s.failed) for s in tr.spans]
    assert names == [("outer", None, 1, False), ("inner", 0, 1, False),
                     ("outer", None, 2, False), ("inner", 2, 2, False),
                     ("method", None, 2, False), ("boom", None, 2, True)]
    assert all(s.end > s.start for s in tr.spans)
    for k, fn in originals.items():
        assert vars(fake_module)[k] is fn
    assert vars(fake_module.Obj)["method"] is method


def test_tracer_refuses_missing_targets(fake_module):
    with Tracer() as tr:
        with pytest.raises(AttributeError):
            tr.patch("perfbench_fake.nothing", "x")
    with pytest.raises(ImportError):
        resolve_owner("no_such_package_xyz.f")


# -- the real entry points --------------------------------------------------

def _all_targets():
    seen = {}
    for wl in W.WORKLOADS.values():
        for target, _ in wl.layers:
            seen[target] = resolve_owner(target)
    return seen


class TinyChannel(W.Channel16Pulse):
    mesh = "channel:4"
    n_steps = 3
    output_every = 1
    pulse_steps = (1,)


def test_wrappers_restore_every_patched_attribute(tmp_path):
    targets = _all_targets()
    before = {t: vars(owner)[attr] for t, (owner, attr) in targets.items()}
    wl = TinyChannel(seed=7, work=str(tmp_path))
    rec, tracer = W.run_unit(wl, wl.layers, 0)
    # channel:4 is too coarse for criterion 6's energy bound; the rest must hold
    assert all(c["ok"] for c in rec["checks"] if c["name"] != "energy_decay"), rec["checks"]
    assert rec["attempted"] == 3 and rec["failed"] == 0
    names = {s.name for s in tracer.spans}
    for _, name in wl.layers:
        assert name in names, "no span recorded for %s" % name
    assert W.step_accounting(wl, tracer) < 1e-9
    assert wl.setup_only() > 0.0
    for t, (owner, attr) in targets.items():
        assert vars(owner)[attr] is before[t], "%s left patched" % t


def test_wrappers_restore_after_a_failing_run(tmp_path):
    targets = _all_targets()
    before = {t: vars(owner)[attr] for t, (owner, attr) in targets.items()}

    class Broken(TinyChannel):
        mesh = "channel:1"          # channel_mesh rejects it inside run_scenario

    wl = Broken(seed=7, work=str(tmp_path))
    rec, tracer = W.run_unit(wl, wl.layers, 0)
    assert rec["checks"][0]["name"] == "unit_completed"
    assert not rec["checks"][0]["ok"] and "MeshError" in rec["checks"][0]["detail"]
    assert tracer.spans[0].failed
    for t, (owner, attr) in targets.items():
        assert vars(owner)[attr] is before[t], "%s left patched" % t


def test_parse_tables_reads_time_report():
    text = ("BDF1 temporal convergence (velocity L2 at T):\n"
            "dt             L2 error     order\n"
            "2.000000e-02   1.614866e-04 -\n"
            "1.000000e-02   8.056813e-05 1.00\n\n"
            "BDF2 temporal convergence (velocity L2 at T):\n"
            "dt             L2 error     order\n"
            "2.000000e-02   2.036293e-06 -\n"
            "1.000000e-02   5.593323e-07 1.86")
    tables = W.parse_tables(text)
    assert tables == [([0.02, 0.01], [1.614866e-04, 8.056813e-05]),
                      ([0.02, 0.01], [2.036293e-06, 5.593323e-07])]


def test_mms_wrappers_see_the_steady_study(tmp_path):
    class TinySteady(W.MmsSteady):
        studies = (("stokes_trig", (2, 3, 4)),)

        def check(self, out):
            return []

    wl = TinySteady(seed=0, work=str(tmp_path))
    rec, tracer = W.run_unit(wl, wl.layers, 0)
    assert rec["checks"][0]["ok"] and rec["attempted"] == 3
    names = {s.name for s in tracer.spans}
    assert {"mms.case", "mesh.generate", "assembly.build_problem",
            "stepping.solve_steady", "assembly.assemble_system",
            "assembly.build_geometry", "assembly.apply_dirichlet",
            "solver.solve", "spaces.error_L2"} <= names
    assert rec["setup_s"] > 0.0


# -- reference-speed clock ---------------------------------------------------

class FakeHost:
    """A timer the test advances; the kernel takes `kernel_s` of it."""

    def __init__(self):
        self.t = 0.0
        self.kernel_s = 1.0

    def timer(self):
        return self.t

    def kernel(self):
        self.t += self.kernel_s


def test_speed_clock_hides_calibration_time():
    host = FakeHost()
    clock = SpeedClock(every=10.0, timer=host.timer, work=host.kernel, nominal=1.0)
    assert clock() == 0.0                    # calibrates first, then reads
    host.t += 4.0
    assert clock() == 4.0                    # not due yet
    host.t += 7.0
    assert clock() == 11.0                   # calibrated, but its second is hidden
    assert clock.marks == [0.0, 11.0] and clock.kernel_s == [1.0, 1.0]
    assert clock.hidden == 2.0


def test_speed_clock_rescales_slow_phases_to_nominal():
    host = FakeHost()
    clock = SpeedClock(every=0.0, timer=host.timer, work=host.kernel, nominal=1.0)
    marks = []
    # ten calibrations at nominal speed, then ten on a host half as fast
    for kernel_s, work_s in [(1.0, 10.0)] * 10 + [(2.0, 20.0)] * 10:
        host.kernel_s = kernel_s
        marks.append(clock())
        host.t += work_s                     # the same work at the current speed
    clock.calibrate()
    done = clock()
    fast = clock.normal(marks[5]) - clock.normal(marks[3])
    slow = clock.normal(marks[17]) - clock.normal(marks[15])
    assert fast == pytest.approx(20.0) and slow == pytest.approx(20.0)
    # monotone and continuous across the whole axis, beyond the marks too
    axis = [clock.normal(t) for t in [-1.0] + marks + [done, done + 1.0]]
    assert all(b > a for a, b in zip(axis, axis[1:]))
    assert clock.speed() == 0.5              # 11 of 21 calibrations ran slow


def test_reference_speed_keeps_self_times_additive(tmp_path):
    host = FakeHost()
    clock = SpeedClock(every=0.0, timer=host.timer, work=host.kernel, nominal=1.0)
    spans = [Span("step", 0.0, 10.0), Span("a", 1.0, 3.0, parent=0),
             Span("b", 3.0, 9.0, parent=0), Span("c", 5.0, 6.0, parent=2)]
    for t in (0.0, 2.5, 5.0, 7.5, 10.0):
        host.t = t + clock.hidden
        host.kernel_s = 1.0 + t / 10.0
        clock.calibrate()
    W.to_reference_speed(clock, spans)
    selfs = self_times(spans)
    assert sum(selfs) == pytest.approx(spans[0].duration)
    assert all(v >= 0.0 for v in selfs)
