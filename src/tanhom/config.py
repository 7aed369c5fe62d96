"""Run-configuration parsing with strict key validation.

Configs are plain JSON objects with a ``command`` key plus one section named
after the command; unknown keys anywhere are rejected with the offending key
path so batch scripts fail loudly instead of silently ignoring typos.  Each
section builds the library objects its command runs.  A key the config leaves
out takes the default of the dataclass it sets, and the dataclasses validate
the values: a bad value met by a key's conversion or by a constructor becomes
a ``ConfigError`` that names the key or the section (``errors.config_value``,
which the ``manifold`` and ``integrand`` builders use too), before any solve
starts.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

from .cell import PERIODIC, CellProblemSpec
from .density import CoefficientLattice, TfOptions, check_angle_count, check_circle
from .errors import (
    ConfigError, DegeneratePoint, as_bool, as_integer, as_list, as_number, as_text, check_keys, config_value
)
from .gamma import GammaExperimentConfig, OptimizerOptions
from .integrand import Integrand, integrand_from_config
from .manifold import EmbeddedManifold, circle_point, manifold_from_config

COMMANDS = ("cell", "density", "verify", "gamma")
VERIFY_SUITES = ("hypotheses", "equivalence", "quasiconvexity", "growth_lipschitz")


def _optional(convert: Callable) -> Callable:
    return lambda value: None if value is None else convert(value)


def _tuple_of(convert: Callable) -> Callable:
    return lambda values: as_list(values, convert)


def _float_array(value: Any) -> np.ndarray:
    return np.asarray(value, dtype=float)


# Config key -> conversion, for the keys that set a TfOptions field of the same name.
TF_KEYS = {
    "t_list": _tuple_of(as_integer),
    "n": as_integer,
    "boundary": as_text,
    "rel_tol": as_number,
    "tol_grad": as_number,
    "max_iters": _optional(as_integer),
    "huber_mu": as_number,
}
# Density sweeps (density, verify, gamma.table) default to one periodic cube.
SWEEP_DEFAULTS = {"t_list": (1,), "boundary": PERIODIC}
# The cell section sets one cube side ``t``; ``n`` is CellProblemSpec.nodes_per_period.
CELL_KEYS = {
    "t": as_integer,
    **{key: TF_KEYS[key] for key in ("n", "boundary", "tol_grad", "max_iters", "huber_mu")},
}
VERIFY_KEYS = {
    "suites": _tuple_of(as_text),
    "sample_count": as_integer,
    "pair_count": as_integer,
    "trial_count": as_integer,
    "sample_points": as_integer,
}
GAMMA_KEYS = {
    "dim": as_integer,
    "mesh_nodes": as_integer,
    "theta0": as_number,
    "theta1": as_number,
    "epsilons": _tuple_of(as_number),
    "run_dp": as_bool,
}
OPTIMIZER_KEYS = {"max_iters": as_integer, "tol": as_number}
LATTICE_KEYS = {"min": as_number, "max": as_number, "count": as_integer}


def _values(section: dict, path: str, conversions: dict[str, Callable]) -> dict:
    """The keys of ``section`` named in ``conversions``, each converted."""
    return {
        key: config_value(f"{path}.{key}" if path else key, convert, section[key])
        for key, convert in conversions.items()
        if key in section
    }


def _parse_point(M: EmbeddedManifold, cfg: Any, path: str) -> np.ndarray:
    check_keys(cfg, path, set(), {"theta", "point"})
    if "theta" in cfg and "point" in cfg:
        raise ConfigError(f"{path}: give either 'theta' or 'point', not both")
    v = _values(cfg, path, {"theta": as_number, "point": _float_array})
    if "theta" in v:
        if M.ambient_dim != 2:
            raise ConfigError(f"{path}.theta only makes sense on the circle")
        return circle_point(v["theta"])
    if "point" in v:
        try:
            return M.check_point(v["point"])
        except DegeneratePoint as exc:
            raise ConfigError(f"{path}.point: {exc}") from None
    raise ConfigError(f"{path} needs 'theta' or 'point'")


def _parse_lattice(cfg: Any, path: str) -> CoefficientLattice:
    check_keys(cfg, path, set(LATTICE_KEYS), set())
    v = _values(cfg, path, LATTICE_KEYS)
    return config_value(path, CoefficientLattice, v["min"], v["max"], v["count"])


def _parse_tf_options(cfg: dict, path: str) -> TfOptions:
    """Sweep TfOptions from the TF_KEYS of an already key-checked section."""
    return config_value(path, TfOptions, **{**SWEEP_DEFAULTS, **_values(cfg, path, TF_KEYS)})


@dataclass
class DensitySection:
    s_count: int
    lattice: CoefficientLattice
    options: TfOptions

    def __post_init__(self):
        check_angle_count(self.s_count)


@dataclass
class VerifySection:
    suites: tuple[str, ...]
    sample_count: int = 1000
    pair_count: int = 50
    trial_count: int = 20
    sample_points: int = 3
    options: TfOptions = TfOptions(**SWEEP_DEFAULTS)

    def __post_init__(self):
        if not self.suites:
            raise ValueError("suites must not be empty")
        for suite in self.suites:
            if suite not in VERIFY_SUITES:
                raise ValueError(f"unknown verify suite {suite!r}")
        for key in ("sample_count", "pair_count", "trial_count", "sample_points"):
            if getattr(self, key) < 1:  # with nothing sampled, a suite passes vacuously
                raise ValueError(f"{key} must be at least 1")


@dataclass
class GammaSection:
    """The experiment, its table still unset, and the source of that table:
    a saved table at ``table_path``, or one built inline from the rest."""

    experiment: GammaExperimentConfig
    table_path: str | None = None
    table_s_count: int = 64
    table_lattice: CoefficientLattice = CoefficientLattice(-3.0, 3.0, 97)
    table_options: TfOptions = TfOptions(**SWEEP_DEFAULTS)
    dump_fields: bool = False

    def __post_init__(self):
        check_angle_count(self.table_s_count)


@dataclass
class RunConfig:
    command: str
    manifold: EmbeddedManifold
    integrand: Integrand
    seed: int
    section: Any = None


def parse_run_config(raw: Any) -> RunConfig:
    """Validate a raw JSON object into a typed run configuration."""
    check_keys(
        raw,
        "",
        {"command", "manifold", "integrand"},
        {"seed", "cell", "density", "verify", "gamma"},
    )
    command = raw["command"]
    if command not in COMMANDS:
        raise ConfigError(f"command must be one of {list(COMMANDS)}, got {command!r}")
    for other in COMMANDS:
        if other != command and other in raw:
            raise ConfigError(f"unknown key {other!r} for command {command!r}")
    M = manifold_from_config(raw["manifold"])
    f = integrand_from_config(raw["integrand"])
    if f.dims[1] != M.ambient_dim:
        raise ConfigError(
            f"integrand: d = {f.dims[1]} does not match the manifold's ambient dimension "
            f"{M.ambient_dim}"
        )
    seed = _values(raw, "", {"seed": as_integer}).get("seed", 0)

    cfg = RunConfig(command=command, manifold=M, integrand=f, seed=seed)
    section = raw.get(command, {})
    if command == "cell":
        cfg.section = _parse_cell(section, M, f)
    elif command == "density":
        cfg.section = _parse_density(section, M)
    elif command == "verify":
        cfg.section = _parse_verify(section)
    else:
        cfg.section = _parse_gamma(section, M, f)
    return cfg


def _parse_cell(section: Any, M: EmbeddedManifold, f: Integrand) -> CellProblemSpec:
    check_keys(section, "cell", {"s", "xi_coeffs"}, set(CELL_KEYS))
    s = _parse_point(M, section["s"], "cell.s")
    coeffs = _values(section, "cell", {"xi_coeffs": _float_array})["xi_coeffs"]
    if coeffs.ndim == 1:
        coeffs = coeffs[None, :]
    N = f.dims[0]
    if coeffs.shape != (M.intrinsic_dim, N):
        raise ConfigError(
            f"cell.xi_coeffs must be a {M.intrinsic_dim} x {N} array, got {coeffs.shape}"
        )
    values = _values(section, "cell", CELL_KEYS)
    if "n" in values:
        values["nodes_per_period"] = values.pop("n")
    xi = M.tangent_from_coeffs(s, coeffs)
    return config_value("cell", CellProblemSpec, manifold=M, s=s, xi=xi, **values)


def _parse_density(section: Any, M: EmbeddedManifold) -> DensitySection:
    check_keys(section, "density", {"s_count", "lattice"}, set(TF_KEYS))
    config_value("density", check_circle, M)
    return config_value(
        "density",
        DensitySection,
        lattice=_parse_lattice(section["lattice"], "density.lattice"),
        options=_parse_tf_options(section, "density"),
        **_values(section, "density", {"s_count": as_integer}),
    )


def _parse_verify(section: Any) -> VerifySection:
    check_keys(section, "verify", {"suites"}, set(VERIFY_KEYS) | set(TF_KEYS))
    return config_value(
        "verify",
        VerifySection,
        options=_parse_tf_options(section, "verify"),
        **_values(section, "verify", VERIFY_KEYS),
    )


def _parse_gamma(section: Any, M: EmbeddedManifold, f: Integrand) -> GammaSection:
    check_keys(
        section, "gamma", {"epsilons"}, set(GAMMA_KEYS) | {"table", "optimizer", "dump_fields"}
    )
    if not f.quadratic:
        kind = f.describe.get("kind", "this integrand")
        raise ConfigError(f"gamma: {kind} is not quadratic, so its table has no tensor")
    opt_cfg = check_keys(section.get("optimizer", {}), "gamma.optimizer", set(), set(OPTIMIZER_KEYS))
    optimizer = config_value(
        "gamma.optimizer", OptimizerOptions, **_values(opt_cfg, "gamma.optimizer", OPTIMIZER_KEYS)
    )
    experiment = config_value(
        "gamma",
        GammaExperimentConfig,
        manifold=M,
        integrand=f,
        optimizer=optimizer,
        **_values(section, "gamma", GAMMA_KEYS),
    )

    table_cfg = check_keys(
        section.get("table", {}), "gamma.table", set(), {"path", "s_count", "lattice"} | set(TF_KEYS)
    )
    if "path" in table_cfg and len(table_cfg) > 1:
        raise ConfigError("gamma.table.path excludes inline table options")
    source = _values(table_cfg, "gamma.table", {"path": as_text, "s_count": as_integer})
    if "lattice" in table_cfg:
        source["lattice"] = _parse_lattice(table_cfg["lattice"], "gamma.table.lattice")
    return config_value(
        "gamma.table",
        GammaSection,
        experiment=experiment,
        table_options=_parse_tf_options(table_cfg, "gamma.table"),
        **{f"table_{key}": value for key, value in source.items()},
        **_values(section, "gamma", {"dump_fields": as_bool}),
    )
