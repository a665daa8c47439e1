"""Run configuration of `fpsi run`: INI-style sections of key = value pairs.

It configures the channel run (`SCENARIOS`); the manufactured-solution
studies take none (`fpsi mms`).  `RunConfig`'s defaults are the channel
benchmark's values, and the one place they are written: `scenarios` reads
its materials, pulse, penalty and probe from here.  Each attribute is named
after its key.  Unknown sections or keys are hard errors so a typo never
silently falls back to a default.
Units are mm-g-s; 1 Pa = 1 g/(mm s^2), so pressures in Pa go in verbatim.
"""

from __future__ import annotations

import configparser
from dataclasses import dataclass, fields as dc_fields

import numpy as np

from .errors import ConfigError
from .kinematics import MaterialParams, lame_from_E_nu
from .solver import RESIDUAL_TOL

SCENARIOS = ("pressure_wave_2d",)


@dataclass
class RunConfig:
    scenario: str = "pressure_wave_2d"
    order: int = 1
    dt: float = 1e-4
    t_end: float = 1.2e-2
    output_dir: str = "out"
    output_every: int = 10           # steps between VTK snapshots; 0 disables
    checkpoint: str = ""             # final-state checkpoint path ('' = none)
    dump_matrix: str = ""            # Matrix Market dump of the first system
    probe_x: float = 25.0
    probe_y: float = 5.0
    source: str = "channel:16"       # channel:<n> | path to a mesh file
    physical_map: str = ""           # '1:FLUID,2:SOLID,...' for .msh input
    rho_f: float = 1e-3
    rho_s: float = 1.2e-3
    mu_f: float = 3e-3
    E: float = 3e5
    nu: float = 0.3
    phi: float = 0.3
    s0: float = 5e-5
    K: str = "5e-13"                 # scalar or 'kxx kxy kyx kyy'
    gamma: float = 1.0
    p_ext: float = 1.333e3           # Pa = g/(mm s^2); negative: suction
    t_pulse: float = 3e-3
    penalty_scale: float = 1.0       # interface penalty tau = penalty_scale * h^-2
    residual_tol: float = RESIDUAL_TOL


# section -> its keys, each the name of a RunConfig attribute
_LAYOUT = {
    "run": ("scenario", "order", "dt", "t_end", "output_dir", "output_every",
            "checkpoint", "dump_matrix", "probe_x", "probe_y"),
    "mesh": ("source", "physical_map"),
    "material": ("rho_f", "rho_s", "mu_f", "E", "nu", "phi", "s0", "K", "gamma"),
    "forcing": ("p_ext", "t_pulse"),
    "numerics": ("penalty_scale", "residual_tol"),
}
_TYPES = {f.name: f.type for f in dc_fields(RunConfig)}


def parse_config(text: str) -> RunConfig:
    cp = configparser.ConfigParser(inline_comment_prefixes=("#",), interpolation=None)
    cp.optionxform = str     # keys are case sensitive ('E' must stay 'E')
    try:
        cp.read_string(text)
    except configparser.Error as exc:
        raise ConfigError("cannot parse config: %s" % exc)

    cfg = RunConfig()
    for sec in cp.sections():
        if sec not in _LAYOUT:
            raise ConfigError("unknown config section [%s]" % sec)
        for key, raw in cp.items(sec):
            if key not in _LAYOUT[sec]:
                raise ConfigError("unknown key %r in section [%s]" % (key, sec))
            typ = _TYPES[key]
            try:
                if typ in ("int", int):
                    val = int(raw)
                elif typ in ("float", float):
                    val = float(raw)
                else:
                    val = raw.strip()
            except ValueError:
                raise ConfigError("bad value for %s.%s: %r" % (sec, key, raw))
            setattr(cfg, key, val)
    validate_config(cfg)
    return cfg


def validate_config(cfg: RunConfig) -> None:
    if cfg.scenario not in SCENARIOS:
        raise ConfigError("unknown scenario %r (choose from %s)"
                          % (cfg.scenario, ", ".join(SCENARIOS)))
    if cfg.order not in (1, 2):
        raise ConfigError("order must be 1 or 2")
    if not (cfg.dt > 0.0):
        raise ConfigError("dt must be positive")
    if cfg.t_end < cfg.dt:
        raise ConfigError("t_end must be at least one step")
    if cfg.output_every < 0:
        raise ConfigError("output_every must be >= 0")
    if cfg.penalty_scale <= 0.0:
        raise ConfigError("penalty weights must be positive")
    if cfg.residual_tol <= 0.0:
        raise ConfigError("residual_tol must be positive")
    try:
        material_params(cfg)
    except (ValueError, ConfigError) as exc:
        raise ConfigError("bad material parameters: %s" % exc)


def serialize_config(cfg: RunConfig) -> str:
    lines = []
    for sec, keys in _LAYOUT.items():
        lines.append("[%s]" % sec)
        for key in keys:
            lines.append("%s = %s" % (key, getattr(cfg, key)))
        lines.append("")
    return "\n".join(lines)


def parse_permeability(text: str) -> np.ndarray:
    parts = str(text).split()
    try:
        vals = [float(p) for p in parts]
    except ValueError:
        raise ConfigError("permeability must be numeric, got %r" % text)
    if len(vals) == 1:
        return np.eye(2) * vals[0]
    if len(vals) == 4:
        return np.array(vals).reshape(2, 2)
    raise ConfigError("permeability takes 1 or 4 numbers, got %d" % len(vals))


def material_params(cfg: RunConfig) -> MaterialParams:
    lam_s, mu_s = lame_from_E_nu(cfg.E, cfg.nu)
    return MaterialParams(rho_f=cfg.rho_f, rho_s=cfg.rho_s, mu_f=cfg.mu_f,
                          lam_s=lam_s, mu_s=mu_s, phi=cfg.phi, s0=cfg.s0,
                          K=parse_permeability(cfg.K), gamma=cfg.gamma)


def parse_physical_map(text: str):
    """'1:FLUID,2:SOLID,...' -> {1: 'FLUID', 2: 'SOLID', ...}."""
    text = text.strip()
    if not text:
        return None
    out = {}
    for item in text.split(","):
        if ":" not in item:
            raise ConfigError("physical_map entries look like '<int>:<NAME>', got %r" % item)
        num, name = item.split(":", 1)
        try:
            out[int(num.strip())] = name.strip()
        except ValueError:
            raise ConfigError("bad physical id %r" % num)
    return out


def load_config(path: str) -> RunConfig:
    try:
        with open(path) as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError("cannot read config file: %s" % exc)
    return parse_config(text)


def default_config_text() -> str:
    return serialize_config(RunConfig())
