"""Config parsing/validation and the command-line front end."""

import dataclasses
import inspect

import numpy as np
import pytest

from fpsi.cli import main, run_scenario
from fpsi.config import (RunConfig, load_config, material_params, parse_config,
                         parse_permeability, parse_physical_map, serialize_config)
from fpsi.errors import ConfigError, DegenerateDeformationError
from fpsi.kinematics import MaterialParams, lame_from_E_nu
from fpsi.mesh import GAMMA_F0, GAMMA_OUT
from fpsi.reporting import TimeSeries, load_checkpoint
from fpsi.scenarios import (PROBE_POINT, benchmark_params, channel_mesh, channel_problem,
                            unit_square_mesh)
from fpsi.solver import RESIDUAL_TOL
from tests.test_mesh import TET_NATIVE, write_native


# ---------------------------------------------------------------------------
# Config
# ---------------------------------------------------------------------------

# keys that name no option (one quadrature rule, one penalty rule, the sign
# of a pulse is the sign of p_ext, one residual tolerance for every solve):
# each is an unknown key
REMOVED_KEYS = {
    "quad_degree": "[numerics]\nquad_degree = 6\n",
    "penalty_rule": "[numerics]\npenalty_rule = h^-2\n",
    "penalty_value": "[numerics]\npenalty_value = 1.0\n",
    "sign_pext": "[forcing]\nsign_pext = -1\n",
    "residual_tol": "[numerics]\nresidual_tol = 1e-2\n",
}


# float keys given a value that is not a finite number: (key, text, value)
NON_FINITE = [
    ("t_end", "[run]\nt_end = inf\n", "inf"),
    ("t_end", "[run]\nt_end = nan\n", "nan"),
    ("dt", "[run]\ndt = nan\n", "nan"),
    ("probe_x", "[run]\nprobe_x = nan\n", "nan"),
    ("E", "[material]\nE = nan\n", "nan"),
    ("mu_f", "[material]\nmu_f = inf\n", "inf"),
    ("p_ext", "[forcing]\np_ext = nan\n", "nan"),
    ("p_ext", "[forcing]\np_ext = -inf\n", "-inf"),
    ("penalty_scale", "[numerics]\npenalty_scale = nan\n", "nan"),
]


def test_default_template_roundtrip():
    assert parse_config(serialize_config(RunConfig())) == RunConfig()
    cfg = RunConfig(p_ext=0.0, dt=2e-4, K="1e-5", source="channel:4")
    assert parse_config(serialize_config(cfg)) == cfg


def test_parse_sets_values_and_renamed_keys():
    cfg = parse_config("""
[run]
scenario = pressure_wave_2d
order = 2
dt = 2e-4            # inline comment
output_every = 0
[mesh]
source = channel:8
physical_map = 1:FLUID,2:SOLID
[material]
K = 1e-5 0 0 2e-5
[numerics]
penalty_scale = 10
""")
    assert cfg.scenario == "pressure_wave_2d" and cfg.order == 2
    assert cfg.dt == pytest.approx(2e-4)
    assert cfg.output_every == 0
    assert cfg.source == "channel:8"
    assert cfg.physical_map == "1:FLUID,2:SOLID"
    assert cfg.penalty_scale == 10.0
    assert np.allclose(parse_permeability(cfg.K), [[1e-5, 0], [0, 2e-5]])


@pytest.mark.parametrize("text,msg", [
    ("[nope]\nx = 1\n", "unknown config section"),
    ("[run]\nbogus = 1\n", "unknown key"),
    ("[run]\ndt = fast\n", "bad value"),
    ("[run]\nscenario = warp\n", "unknown scenario"),
    ("[run]\norder = 3\n", "order must be"),
    ("[run]\ndt = -1e-4\n", "dt must be positive"),
    ("[run]\ndt = 1.0\n", "t_end"),
    ("[run]\nt_end = 2.5e-4\n", "t_end = 0.00025 is not a whole number of steps of dt"),
    ("[run]\nt_end = 3.5e-4\n", "t_end = 0.00035 is not a whole number of steps of dt"),
    ("[run]\noutput_every = -1\n", "output_every"),
    ("[numerics]\npenalty_scale = 0\n", "penalty weights"),
    ("[numerics]\nresidual_tol = 0\n", "residual_tol"),         # now an unknown key
] + [(text, "unknown key '%s'" % key) for key, text in REMOVED_KEYS.items()] + [
    ("[material]\nnu = 0.5\n", "bad material"),
    ("[material]\nK = 1 2\n", "bad material"),
    ("no sections here", "cannot parse"),
] + [(text, "%s must be a finite number, got %s" % (key, value))
     for key, text, value in NON_FINITE] + [
    ("[material]\nK = nan\n", "permeability must be finite, got 'nan'"),
    ("[material]\nK = 1e-5 0 0 inf\n", "permeability must be finite"),
])
def test_invalid_configs_raise(text, msg):
    with pytest.raises(ConfigError, match=msg):
        parse_config(text)


def test_cli_non_finite_value_exits_1_before_writing(tmp_path, capsys):
    # a NaN probe ran to the end and wrote NaN probe columns
    out = tmp_path / "out"
    cfg = tmp_path / "run.ini"
    cfg.write_text("[run]\nt_end = 1e-4\noutput_dir = %s\nprobe_x = nan\n"
                   "[mesh]\nsource = channel:2\n" % out)
    assert main(["run", str(cfg), "--quiet"]) == 1
    assert capsys.readouterr().err == "config error: probe_x must be a finite number, got nan\n"
    assert not out.exists()


@pytest.mark.parametrize("text", REMOVED_KEYS.values())
def test_cli_removed_key_exits_1(tmp_path, capsys, text):
    cfg = tmp_path / "old.ini"
    cfg.write_text(text)
    assert main(["run", str(cfg)]) == 1
    assert "unknown key" in capsys.readouterr().err


def test_parse_permeability():
    assert parse_permeability("5e-13") == 5e-13           # MaterialParams makes it K I
    assert np.array_equal(material_params(RunConfig(K="5e-13")).K, 5e-13 * np.eye(2))
    M = parse_permeability("1 2 3 4")
    assert np.allclose(M, [[1.0, 2.0], [3.0, 4.0]])
    with pytest.raises(ConfigError, match="1 or 4 numbers"):
        parse_permeability("1 2 3")
    with pytest.raises(ConfigError, match="numeric"):
        parse_permeability("soft")


def test_material_params_from_config():
    cfg = RunConfig(E=3e5, nu=0.3)
    prm = material_params(cfg)
    lam, mu = lame_from_E_nu(3e5, 0.3)
    assert prm.lam_s == pytest.approx(lam)
    assert prm.mu_s == pytest.approx(mu)
    assert np.allclose(prm.K, 5e-13 * np.eye(2))


@pytest.mark.parametrize("K", [5e-13, 1e-5])
def test_benchmark_params_are_the_config_defaults(K):
    # the gate's channel is the one `fpsi run` runs, bit for bit
    got, expect = benchmark_params(K), material_params(RunConfig(K=repr(K)))
    for f in dataclasses.fields(MaterialParams):
        assert np.array_equal(getattr(got, f.name), getattr(expect, f.name)), f.name


def test_channel_defaults_are_the_config_defaults():
    cfg = RunConfig()
    assert PROBE_POINT == (cfg.probe_x, cfg.probe_y)
    assert inspect.signature(benchmark_params).parameters["K"].default == float(cfg.K)
    defaults = inspect.signature(channel_problem).parameters
    for name in ("p_ext", "t_pulse", "penalty_scale"):
        assert defaults[name].default == getattr(cfg, name), name
    # the solver's tolerance, readable on the config but not a field of it
    assert cfg.residual_tol == RunConfig.residual_tol == RESIDUAL_TOL
    assert "residual_tol" not in {f.name for f in dataclasses.fields(RunConfig)}


def test_parse_physical_map():
    assert parse_physical_map("") is None
    assert parse_physical_map("1:FLUID, 2:SOLID") == {1: "FLUID", 2: "SOLID"}
    with pytest.raises(ConfigError, match="physical_map entries"):
        parse_physical_map("FLUID")
    with pytest.raises(ConfigError, match="bad physical id"):
        parse_physical_map("x:FLUID")


def test_load_config_missing_file(tmp_path):
    with pytest.raises(ConfigError, match="cannot read"):
        load_config(str(tmp_path / "absent.ini"))


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------

def test_cli_no_command_prints_help(capsys):
    assert main([]) == 1
    assert "usage" in capsys.readouterr().out


def test_cli_version(capsys):
    import fpsi
    assert main(["version"]) == 0
    assert capsys.readouterr().out.strip() == fpsi.__version__


def test_cli_config_template_parses(capsys):
    assert main(["config-template"]) == 0
    assert parse_config(capsys.readouterr().out) == RunConfig()


def test_cli_bad_config_exits_1(tmp_path, capsys):
    cfg = tmp_path / "bad.ini"
    cfg.write_text("[run]\norder = 7\n")
    assert main(["run", str(cfg)]) == 1
    assert "config error" in capsys.readouterr().err


def test_cli_check_mesh(tmp_path, capsys):
    path = tmp_path / "chan.mesh"
    write_native(channel_mesh(2), str(path))
    assert main(["check-mesh", str(path)]) == 0
    out = capsys.readouterr().out
    assert "mesh ok" in out and "FLUID" in out and "GAMMA_FS" in out

    broken = tmp_path / "broken.mesh"
    broken.write_text("not a mesh\n")
    assert main(["check-mesh", str(broken)]) == 2
    assert "error" in capsys.readouterr().err

    assert main(["check-mesh", str(tmp_path)]) == 2
    assert capsys.readouterr().err == \
        "error: cannot read mesh file %s: Is a directory\n" % tmp_path


def test_cli_check_mesh_binary_file_exits_2(tmp_path, capsys):
    path = tmp_path / "bin.mesh"
    path.write_bytes(b"\xff\xfe\x00garbage")
    assert main(["check-mesh", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.err == "error: cannot read mesh file %s: not text (byte 0xff at offset 0)\n" \
        % path
    assert "mesh ok" not in captured.out


def test_cli_check_mesh_malformed_file_exits_2(tmp_path, capsys):
    path = tmp_path / "short.mesh"
    write_native(channel_mesh(2), str(path))
    lines = path.read_text().splitlines()
    del lines[3]                        # one vertex row fewer than declared
    path.write_text("\n".join(lines) + "\n")
    assert main(["check-mesh", str(path)]) == 2
    captured = capsys.readouterr()
    assert "mesh ok" not in captured.out
    assert "error: VERTICES section has" in captured.err
    assert "Traceback" not in captured.err


def test_cli_check_mesh_rejects_3d(tmp_path, capsys):
    path = tmp_path / "tet.mesh"
    path.write_text(TET_NATIVE)
    assert main(["check-mesh", str(path)]) == 2
    captured = capsys.readouterr()
    assert "mesh ok" not in captured.out and "dimension must be 2" in captured.err


def test_cli_decay_run_artifacts(tmp_path, capsys):
    out = tmp_path / "out"
    cfg = tmp_path / "run.ini"
    cfg.write_text("""
[run]
scenario = pressure_wave_2d
dt = 1e-4
t_end = 3e-4
output_dir = %s
output_every = 1
checkpoint = final.npz
dump_matrix = %s
probe_x = 25.0
probe_y = 5.0
[mesh]
source = channel:2
[material]
K = 1e-5
[forcing]
p_ext = 0
""" % (out, tmp_path / "first.mtx"))
    assert main(["run", str(cfg), "--quiet"]) == 0

    series = TimeSeries.load(str(out / "timeseries.csv"))
    assert np.allclose(series.column("t"), [1e-4, 2e-4, 3e-4])
    # no forcing: the state stays at rest and the budget stays zero
    assert np.allclose(series.column("total_energy"), 0.0, atol=1e-20)
    assert np.allclose(series.column("ux_probe"), 0.0, atol=1e-15)

    for k in (0, 1, 2, 3):
        assert (out / ("step_%06d.vtk" % k)).exists()
    first = (out / "step_000000.vtk").read_text().splitlines()
    assert first[0] == "# vtk DataFile Version 3.0"
    # step 0 is written at the reference geometry
    mesh = channel_mesh(2)
    start = first.index("POINTS %d double" % mesh.num_vertices) + 1
    p0 = np.array([float(v) for v in first[start].split()])
    assert np.allclose(p0[:2], mesh.vertices[0])

    mtx = (tmp_path / "first.mtx").read_text()
    assert mtx.startswith("%%MatrixMarket")

    prob = channel_problem(channel_mesh(2), material_params(load_config(str(cfg))),
                           p_ext=0.0)
    state, meta = load_checkpoint(str(out / "final.npz"), prob)
    assert meta["scenario"] == "pressure_wave_2d"
    assert state.t == pytest.approx(3e-4)


def test_cli_probe_outside_the_mesh_exits_1(tmp_path, capsys):
    out = tmp_path / "out"
    cfg = tmp_path / "run.ini"
    cfg.write_text("[run]\nt_end = 1e-4\noutput_dir = %s\n"
                   "probe_x = 100\n[mesh]\nsource = channel:2\n" % out)
    assert main(["run", str(cfg), "--quiet"]) == 1
    err = capsys.readouterr().err
    assert "config error: probe point (probe_x, probe_y) = (100, 5)" in err
    assert "outside the mesh" in err
    assert not out.exists()             # rejected before anything is written


@pytest.mark.parametrize("key,is_dir", [("checkpoint", False), ("dump_matrix", False),
                                        ("checkpoint", True), ("dump_matrix", True)],
                         ids=["checkpoint", "dump_matrix",
                              "checkpoint-is-a-directory", "dump_matrix-is-a-directory"])
def test_cli_output_into_a_missing_directory_exits_1(tmp_path, capsys, monkeypatch, key,
                                                     is_dir):
    import fpsi.cli as cli

    def no_step(*args, **kwargs):
        raise AssertionError("stepped before the output paths were checked")

    monkeypatch.setattr(cli, "advance_step", no_step)
    monkeypatch.setattr(cli, "assemble_system", no_step)
    out = tmp_path / "out"
    if is_dir:                          # an absolute target lies where it names
        target = str(tmp_path)
    else:
        target = "sub/final" if key == "checkpoint" else str(tmp_path / "nodir" / "A.mtx")
    cfg = tmp_path / "run.ini"
    cfg.write_text("[run]\nt_end = 2e-4\noutput_dir = %s\n%s = %s\n"
                   "[mesh]\nsource = channel:2\n" % (out, key, target))
    assert main(["run", str(cfg), "--quiet"]) == 1
    err = capsys.readouterr().err
    if is_dir:
        assert err == "config error: %s = %s: %s is a directory\n" % (key, target, target)
    else:
        assert err.startswith("config error: %s = %s: directory " % (key, target))
        assert "does not exist" in err
    assert sorted(p.name for p in out.iterdir()) == []


@pytest.mark.parametrize("below", [False, True], ids=["file", "below-a-file"])
def test_cli_output_dir_in_the_way_of_a_file_exits_1(tmp_path, capsys, below):
    blocker = tmp_path / "taken"
    blocker.write_text("not a directory\n")
    out = blocker / "out" if below else blocker
    cfg = tmp_path / "run.ini"
    cfg.write_text("[run]\nt_end = 1e-4\noutput_dir = %s\n[mesh]\nsource = channel:2\n" % out)
    assert main(["run", str(cfg), "--quiet"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error: output_dir = %s: cannot make the directory: " % out)
    assert blocker.read_text() == "not a directory\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["run.ini", "taken"]


def test_cli_relative_outputs_lie_under_output_dir(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    cfg = tmp_path / "run.ini"
    cfg.write_text("[run]\nt_end = 1e-4\noutput_dir = out\noutput_every = 0\n"
                   "checkpoint = final.npz\ndump_matrix = A.mtx\n"
                   "[mesh]\nsource = channel:2\n[material]\nK = 1e-5\n"
                   "[forcing]\np_ext = 0\n")
    assert main(["run", str(cfg), "--quiet"]) == 0
    assert (tmp_path / "out" / "A.mtx").read_text().startswith("%%MatrixMarket")
    assert (tmp_path / "out" / "final.npz").exists()
    assert not (tmp_path / "A.mtx").exists()


def run_on_mesh_file(tmp_path, mesh):
    """`fpsi run` on the mesh written as a native file: (exit code, the
    expected start of its mesh-source error, output dir)."""
    path, out = tmp_path / "mesh.txt", tmp_path / "out"
    write_native(mesh, str(path))
    cfg = tmp_path / "run.ini"
    cfg.write_text("[run]\nt_end = 1e-4\noutput_dir = %s\nprobe_x = 0.5\nprobe_y = 0.5\n"
                   "[mesh]\nsource = %s\n" % (out, path))
    return main(["run", str(cfg), "--quiet"]), "[mesh] source %s has no " % path, out


def test_cli_mesh_without_an_outlet_exits_1_before_writing(tmp_path, capsys):
    mesh = channel_mesh(2)
    mesh.facet_markers[mesh.facet_markers == GAMMA_OUT] = GAMMA_F0
    code, prefix, out = run_on_mesh_file(tmp_path, mesh)
    assert code == 1
    assert capsys.readouterr().err == "config error: %sGAMMA_OUT facets\n" % prefix
    assert not out.exists()


def test_cli_fluid_only_mesh_exits_1_before_writing(tmp_path, capsys):
    mesh = unit_square_mesh(2, "fluid")
    right = np.all(mesh.vertices[mesh.facets][:, :, 0] == 1.0, axis=1)
    mesh.facet_markers[right] = GAMMA_OUT
    code, prefix, out = run_on_mesh_file(tmp_path, mesh)
    assert code == 1
    assert capsys.readouterr().err == "config error: %sSOLID cells, GAMMA_S0 facets\n" % prefix
    assert not out.exists()


def test_cli_square_mesh_source_names_the_accepted_ones(tmp_path, capsys):
    cfg = tmp_path / "run.ini"
    cfg.write_text("[run]\nt_end = 1e-4\noutput_dir = %s\n"
                   "[mesh]\nsource = square:4\n" % (tmp_path / "out"))
    assert main(["run", str(cfg), "--quiet"]) == 1
    err = capsys.readouterr().err
    assert "'square:4' is not accepted" in err and "'channel:<n>'" in err
    assert "mesh file" in err


@pytest.mark.parametrize("name,reason", [
    ("absent.mesh", "mesh file not found: "),
    ("channel.msh", "MSH input requires a physical tag mapping"),
    ("folder.mesh", "cannot read mesh file "),
    ("binary.mesh", "cannot read mesh file "),
])
def test_cli_mesh_file_the_reader_rejects_exits_1_before_writing(tmp_path, capsys, name,
                                                                 reason):
    src, out = tmp_path / name, tmp_path / "out"
    if name.endswith(".msh"):
        src.write_text("$MeshFormat\n2.2 0 8\n$EndMeshFormat\n")   # and no physical_map
    if name == "folder.mesh":
        src.mkdir()
    if name == "binary.mesh":
        src.write_bytes(b"\xff\xfe\x00garbage")
    cfg = tmp_path / "run.ini"
    cfg.write_text("[run]\nt_end = 1e-4\noutput_dir = %s\n[mesh]\nsource = %s\n" % (out, src))
    assert main(["run", str(cfg), "--quiet"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error: [mesh] source %r is not accepted (%s" % (str(src), reason))
    assert "'channel:<n>'" in err
    assert not out.exists()


@pytest.mark.parametrize("scenario", ["mms_stokes", "mms_biot", "mms_time", "decay"])
def test_cli_mms_scenario_is_a_config_error(tmp_path, capsys, scenario):
    # the studies run through `fpsi mms` only; an unloaded channel is
    # pressure_wave_2d with p_ext = 0
    out = tmp_path / "out"
    cfg = tmp_path / "mms.ini"
    cfg.write_text("[run]\nscenario = %s\noutput_dir = %s\n" % (scenario, out))
    assert main(["run", str(cfg)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error: unknown scenario %r (choose from "
                          "pressure_wave_2d)" % scenario)
    assert not out.exists()


OVERLOADED_RUN = """[run]
t_end = 5e-4
output_dir = %s
output_every = 0
[mesh]
source = channel:4
[material]
K = 1e-5
[forcing]
p_ext = 1e8
"""


def test_run_step_failure_keeps_its_type_and_names_the_step(tmp_path):
    # an inlet pulse of 1e8 inverts cell 161 of channel:4 in the first step
    with pytest.raises(DegenerateDeformationError,
                       match=r"^step 1 failed: deformation degenerate: ") as err:
        run_scenario(parse_config(OVERLOADED_RUN % (tmp_path / "out")), quiet=True)
    assert err.value.cell == 161


def test_cli_step_failure_exits_2_naming_the_step(tmp_path, capsys):
    cfg = tmp_path / "run.ini"
    cfg.write_text(OVERLOADED_RUN % (tmp_path / "out"))
    assert main(["run", str(cfg), "--quiet"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: step 1 failed: deformation degenerate: det F = ")
    assert "at cell 161" in err and err.count("step 1 failed") == 1


def test_cli_mms_order_is_a_usage_error(tmp_path, capsys, monkeypatch):
    # the time study runs both BDF orders; no case takes --order
    import fpsi.cli as cli

    def no_study(*args, **kwargs):
        raise AssertionError("a study ran despite the usage error")

    monkeypatch.setattr(cli, "biot_report", no_study)
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        main(["mms", "biot", "--order", "2", "--output", str(out)])
    assert exc.value.code == 2
    assert "unrecognized arguments: --order 2" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("levels", ["2", "-1"])
@pytest.mark.parametrize("case", ["stokes", "biot", "time"])
def test_cli_mms_too_few_levels_exits_2_before_any_study(tmp_path, capsys, monkeypatch,
                                                         case, levels):
    import fpsi.cli as cli

    def no_study(*args, **kwargs):
        raise AssertionError("a study ran before --levels was checked")

    for name in ("stokes_report", "biot_report", "time_report"):
        monkeypatch.setattr(cli, name, no_study)
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        main(["mms", case, "--levels", levels, "--output", str(out)])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert ("argument --levels: need >= 3 levels for observed orders, got %s" % levels) in err
    assert not out.exists()


@pytest.mark.parametrize("below", [False, True], ids=["file", "below-a-file"])
def test_cli_mms_output_file_exits_2_before_any_study(tmp_path, capsys, monkeypatch, below):
    import fpsi.cli as cli

    def no_study(*args, **kwargs):
        raise AssertionError("a study ran before --output was checked")

    monkeypatch.setattr(cli, "time_report", no_study)
    blocker = tmp_path / "taken"
    blocker.write_text("")
    out = blocker / "out" if below else blocker
    with pytest.raises(SystemExit) as exc:
        main(["mms", "time", "--output", str(out)])
    assert exc.value.code == 2
    assert ("argument --output: %s is not a directory" % blocker) in capsys.readouterr().err


def test_package_exports_resolve():
    import fpsi
    assert [name for name in fpsi.__all__ if not hasattr(fpsi, name)] == []


def test_cli_mms_stokes_writes_report(tmp_path, capsys):
    assert main(["mms", "stokes", "--levels", "3",
                 "--output", str(tmp_path)]) == 0
    text = (tmp_path / "convergence.txt").read_text()
    assert "order" in text and "velocity" in text
    assert "order" in capsys.readouterr().out


def table_orders(text, heading):
    """The observed orders of the convergence table under `heading`, one per
    level after the first."""
    lines = text.splitlines()
    start = lines.index(heading) + 2          # the heading, then the column names
    orders = []
    for line in lines[start:]:
        fields = line.split()
        if len(fields) != 3:
            break
        orders.append(fields[2])
    assert orders[0] == "-"
    return [float(order) for order in orders[1:]]


@pytest.mark.parametrize("case,headings", [
    ("biot", ["Poroelastic system, %s:" % field
              for field in ("displacement", "filtration flux", "pore pressure")]),
    ("time", ["BDF%d temporal convergence (velocity L2 at T):" % order for order in (1, 2)]),
], ids=["biot", "time"])
def test_cli_mms_writes_finite_orders(tmp_path, capsys, case, headings):
    assert main(["mms", case, "--levels", "3", "--output", str(tmp_path)]) == 0
    text = (tmp_path / "convergence.txt").read_text()
    assert text.rstrip("\n") in capsys.readouterr().out
    for heading in headings:
        orders = table_orders(text, heading)
        assert len(orders) == 2 and np.all(np.isfinite(orders))


def test_cli_run_on_a_mesh_file_completes(tmp_path):
    path, out = tmp_path / "channel4.mesh", tmp_path / "out"
    write_native(channel_mesh(4), str(path))
    cfg = tmp_path / "run.ini"
    cfg.write_text("[run]\norder = 2\ndt = 1e-4\nt_end = 2e-4\noutput_dir = %s\n"
                   "output_every = 1\n[mesh]\nsource = %s\n[material]\nK = 1e-5\n"
                   % (out, path))
    assert main(["run", str(cfg), "--quiet"]) == 0
    series = TimeSeries.load(str(out / "timeseries.csv"))
    assert np.allclose(series.column("t"), [1e-4, 2e-4])
    assert sorted(p.name for p in out.glob("*.vtk")) == [
        "step_%06d.vtk" % k for k in (0, 1, 2)]
