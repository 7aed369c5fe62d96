"""Run-configuration parsing with strict key validation.

Configs are plain JSON objects with a ``command`` key plus one section named
after the command; unknown keys anywhere are rejected with the offending key
path so batch scripts fail loudly instead of silently ignoring typos.  Each
section builds the library objects its command runs.  A key the config leaves
out takes the default of the dataclass it sets, and the dataclasses validate
the values: a ``ValueError`` from a key's conversion or from a constructor
becomes a ``ConfigError`` that names the section, before any solve starts.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

from .cell import PERIODIC, CellProblemSpec
from .density import CoefficientLattice, TfOptions, check_angle_count
from .errors import ConfigError, check_keys
from .gamma import GammaExperimentConfig, OptimizerOptions
from .integrand import Integrand, integrand_from_config
from .manifold import EmbeddedManifold, circle_point, manifold_from_config

COMMANDS = ("cell", "density", "verify", "gamma")
VERIFY_SUITES = ("hypotheses", "equivalence", "quasiconvexity", "growth_lipschitz")


def _optional(convert: Callable) -> Callable:
    return lambda value: None if value is None else convert(value)


def _tuple_of(convert: Callable) -> Callable:
    return lambda values: tuple(convert(v) for v in values)


def _integer(value: Any) -> int:
    """``value`` as an int, refusing what ``int`` would truncate or parse."""
    if isinstance(value, bool) or int(value) != value:
        raise ValueError(f"expected an integer, got {value!r}")
    return int(value)


def _float_array(value: Any) -> np.ndarray:
    return np.asarray(value, dtype=float)


# Config key -> conversion, for the keys that set a TfOptions field of the same name.
TF_KEYS = {
    "t_list": _tuple_of(_integer),
    "n": _integer,
    "boundary": str,
    "rel_tol": float,
    "tol_grad": float,
    "max_iters": _optional(_integer),
    "huber_mu": float,
}
# Density sweeps (density, verify, gamma.table) default to one periodic cube.
SWEEP_DEFAULTS = {"t_list": (1,), "boundary": PERIODIC}
# The cell section sets one cube side ``t``; ``n`` is CellProblemSpec.nodes_per_period.
CELL_KEYS = {
    "t": _integer,
    **{key: TF_KEYS[key] for key in ("n", "boundary", "tol_grad", "max_iters", "huber_mu")},
}
VERIFY_KEYS = {
    "suites": tuple,
    "sample_count": _integer,
    "pair_count": _integer,
    "trial_count": _integer,
    "sample_points": _integer,
    "coeff_radius": float,
    "equivalence_tol": _optional(float),
    "delta0": float,
}
GAMMA_KEYS = {
    "dim": _integer,
    "mesh_nodes": _integer,
    "theta0": float,
    "theta1": float,
    "epsilons": _tuple_of(float),
    "huber_mu": float,
    "run_dp": bool,
}
OPTIMIZER_KEYS = {"max_iters": _integer, "tol": float}
LATTICE_KEYS = {"min": float, "max": float, "count": _integer}


def _values(section: dict, path: str, conversions: dict[str, Callable]) -> dict:
    """The keys of ``section`` named in ``conversions``, each converted."""
    out = {}
    for key, convert in conversions.items():
        if key in section:
            try:
                out[key] = convert(section[key])
            except (TypeError, ValueError, OverflowError) as exc:
                where = f"{path}.{key}" if path else key
                raise ConfigError(f"{where}: {exc}") from None
    return out


def _build(path: str, cls, *args, **kwargs):
    """``cls(*args, **kwargs)``, its ``ValueError`` raised as a ``ConfigError`` naming ``path``."""
    try:
        return cls(*args, **kwargs)
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from None


def _parse_point(M: EmbeddedManifold, cfg: Any, path: str) -> np.ndarray:
    check_keys(cfg, path, set(), {"theta", "point"})
    if "theta" in cfg and "point" in cfg:
        raise ConfigError(f"{path}: give either 'theta' or 'point', not both")
    v = _values(cfg, path, {"theta": float, "point": _float_array})
    if "theta" in v:
        if M.ambient_dim != 2:
            raise ConfigError(f"{path}.theta only makes sense on the circle")
        return circle_point(v["theta"])
    if "point" in v:
        return M.check_point(v["point"], tol=1e-7)
    raise ConfigError(f"{path} needs 'theta' or 'point'")


def _parse_lattice(cfg: Any, path: str) -> CoefficientLattice:
    check_keys(cfg, path, set(LATTICE_KEYS), set())
    v = _values(cfg, path, LATTICE_KEYS)
    return _build(path, CoefficientLattice, v["min"], v["max"], v["count"])


def _parse_tf_options(cfg: dict, path: str) -> TfOptions:
    """Sweep TfOptions from the TF_KEYS of an already key-checked section."""
    return _build(path, TfOptions, **{**SWEEP_DEFAULTS, **_values(cfg, path, TF_KEYS)})


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
    coeff_radius: float = 5.0
    equivalence_tol: float | None = None
    delta0: float = 0.5
    options: TfOptions = TfOptions(**SWEEP_DEFAULTS)

    def __post_init__(self):
        if not self.suites:
            raise ValueError("suites must not be empty")
        for suite in self.suites:
            if suite not in VERIFY_SUITES:
                raise ValueError(f"unknown verify suite {suite!r}")


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
    seed = _values(raw, "", {"seed": _integer}).get("seed", 0)

    cfg = RunConfig(command=command, manifold=M, integrand=f, seed=seed)
    section = raw.get(command, {})
    if command == "cell":
        cfg.section = _parse_cell(section, M, f)
    elif command == "density":
        cfg.section = _parse_density(section)
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
    return _build("cell", CellProblemSpec, manifold=M, s=s, xi=xi, **values)


def _parse_density(section: Any) -> DensitySection:
    check_keys(section, "density", {"s_count", "lattice"}, set(TF_KEYS))
    return _build(
        "density",
        DensitySection,
        lattice=_parse_lattice(section["lattice"], "density.lattice"),
        options=_parse_tf_options(section, "density"),
        **_values(section, "density", {"s_count": _integer}),
    )


def _parse_verify(section: Any) -> VerifySection:
    check_keys(section, "verify", {"suites"}, set(VERIFY_KEYS) | set(TF_KEYS))
    return _build(
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
    optimizer = _build(
        "gamma.optimizer", OptimizerOptions, **_values(opt_cfg, "gamma.optimizer", OPTIMIZER_KEYS)
    )
    experiment = _build(
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
    source = _values(table_cfg, "gamma.table", {"path": str, "s_count": _integer})
    if "lattice" in table_cfg:
        source["lattice"] = _parse_lattice(table_cfg["lattice"], "gamma.table.lattice")
    return _build(
        "gamma.table",
        GammaSection,
        experiment=experiment,
        table_options=_parse_tf_options(table_cfg, "gamma.table"),
        **{f"table_{key}": value for key, value in source.items()},
        **_values(section, "gamma", {"dump_fields": bool}),
    )
