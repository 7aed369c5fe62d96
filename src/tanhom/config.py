"""Run-configuration parsing with strict key validation.

Configs are plain JSON objects with a ``command`` key plus one section named
after the command; unknown keys anywhere are rejected with the offending key
path so batch scripts fail loudly instead of silently ignoring typos.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import Any

import numpy as np

from .cell import BOUNDARIES, PERIODIC
from .density import CoefficientLattice, TfOptions
from .errors import ConfigError, check_keys
from .gamma import OptimizerOptions
from .integrand import Integrand, integrand_from_config
from .manifold import EmbeddedManifold, circle_point, manifold_from_config

COMMANDS = ("cell", "density", "verify", "gamma")
VERIFY_SUITES = ("hypotheses", "equivalence", "quasiconvexity", "growth_lipschitz")

# Config keys that set a TfOptions field of the same name.
TF_KEYS = {f.name for f in fields(TfOptions)}


def _parse_point(M: EmbeddedManifold, cfg: Any, path: str) -> np.ndarray:
    check_keys(cfg, path, set(), {"theta", "point"})
    if "theta" in cfg and "point" in cfg:
        raise ConfigError(f"{path}: give either 'theta' or 'point', not both")
    if "theta" in cfg:
        if M.ambient_dim != 2:
            raise ConfigError(f"{path}.theta only makes sense on the circle")
        return circle_point(float(cfg["theta"]))
    if "point" in cfg:
        return M.check_point(np.asarray(cfg["point"], dtype=float), tol=1e-7)
    raise ConfigError(f"{path} needs 'theta' or 'point'")


def _parse_lattice(cfg: Any, path: str) -> CoefficientLattice:
    check_keys(cfg, path, {"min", "max", "count"}, set())
    return CoefficientLattice(float(cfg["min"]), float(cfg["max"]), int(cfg["count"]))


def _parse_tf_options(cfg: dict, path: str, defaults: TfOptions) -> TfOptions:
    """TfOptions from the TF_KEYS of an already key-checked section."""
    boundary = cfg.get("boundary", defaults.boundary)
    if boundary not in BOUNDARIES:
        raise ConfigError(f"{path}.boundary must be one of {list(BOUNDARIES)}")
    return TfOptions(
        t_list=tuple(int(t) for t in cfg.get("t_list", defaults.t_list)),
        n=int(cfg.get("n", defaults.n)),
        boundary=boundary,
        rel_tol=float(cfg.get("rel_tol", defaults.rel_tol)),
        solver=cfg.get("solver", defaults.solver),
        tol_grad=float(cfg.get("tol_grad", defaults.tol_grad)),
        max_iters=None if cfg.get("max_iters") is None else int(cfg["max_iters"]),
        huber_mu=float(cfg.get("huber_mu", defaults.huber_mu)),
    )


@dataclass
class CellSection:
    s: np.ndarray
    xi_coeffs: np.ndarray
    options: TfOptions


@dataclass
class DensitySection:
    s_count: int
    lattice: CoefficientLattice
    options: TfOptions


@dataclass
class VerifySection:
    suites: tuple[str, ...]
    sample_count: int
    pair_count: int
    trial_count: int
    sample_points: int
    coeff_radius: float
    equivalence_tol: float | None
    delta0: float
    options: TfOptions


@dataclass
class GammaSection:
    dim: int
    mesh_nodes: int
    theta0: float
    theta1: float
    epsilons: tuple[float, ...]
    table_path: str | None
    table_s_count: int
    table_lattice: CoefficientLattice
    table_options: TfOptions
    optimizer: OptimizerOptions
    huber_mu: float
    run_dp: bool
    dp_elements: int
    dp_theta_count: int
    dp_band: int
    dp_margin: float
    dump_fields: bool


@dataclass
class RunConfig:
    command: str
    manifold: EmbeddedManifold
    integrand: Integrand
    seed: int
    section: Any = field(default=None)


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
    seed = int(raw.get("seed", 0))

    cfg = RunConfig(command=command, manifold=M, integrand=f, seed=seed)
    section = raw.get(command, {})
    if command == "cell":
        cfg.section = _parse_cell(section, M, f)
    elif command == "density":
        cfg.section = _parse_density(section)
    elif command == "verify":
        cfg.section = _parse_verify(section)
    else:
        cfg.section = _parse_gamma(section)
    return cfg


def _parse_cell(section: Any, M: EmbeddedManifold, f: Integrand) -> CellSection:
    check_keys(
        section,
        "cell",
        {"s", "xi_coeffs"},
        TF_KEYS - {"t_list", "rel_tol"} | {"t"},
    )
    s = _parse_point(M, section["s"], "cell.s")
    coeffs = np.asarray(section["xi_coeffs"], dtype=float)
    if coeffs.ndim == 1:
        coeffs = coeffs[None, :]
    N = f.dims[0]
    if coeffs.shape != (M.intrinsic_dim, N):
        raise ConfigError(
            f"cell.xi_coeffs must be a {M.intrinsic_dim} x {N} array, got {coeffs.shape}"
        )
    opts = _parse_tf_options(
        {**section, "t_list": [section.get("t", 1)]}, "cell", TfOptions(t_list=(1,), n=16)
    )
    return CellSection(s=s, xi_coeffs=coeffs, options=opts)


def _parse_density(section: Any) -> DensitySection:
    check_keys(
        section,
        "density",
        {"s_count", "lattice"},
        TF_KEYS,
    )
    lattice = _parse_lattice(section["lattice"], "density.lattice")
    opts = _parse_tf_options(section, "density", TfOptions(t_list=(1,), n=16, boundary=PERIODIC))
    return DensitySection(s_count=int(section["s_count"]), lattice=lattice, options=opts)


def _parse_verify(section: Any) -> VerifySection:
    check_keys(
        section,
        "verify",
        {"suites"},
        {
            "sample_count",
            "pair_count",
            "trial_count",
            "sample_points",
            "coeff_radius",
            "equivalence_tol",
            "delta0",
        }
        | TF_KEYS,
    )
    suites = tuple(section["suites"])
    for suite in suites:
        if suite not in VERIFY_SUITES:
            raise ConfigError(f"unknown verify suite {suite!r}")
    if not suites:
        raise ConfigError("verify.suites must not be empty")
    opts = _parse_tf_options(section, "verify", TfOptions(t_list=(1,), n=16, boundary=PERIODIC))
    return VerifySection(
        suites=suites,
        sample_count=int(section.get("sample_count", 1000)),
        pair_count=int(section.get("pair_count", 50)),
        trial_count=int(section.get("trial_count", 20)),
        sample_points=int(section.get("sample_points", 3)),
        coeff_radius=float(section.get("coeff_radius", 5.0)),
        equivalence_tol=(
            None
            if section.get("equivalence_tol") is None
            else float(section["equivalence_tol"])
        ),
        delta0=float(section.get("delta0", 0.5)),
        options=opts,
    )


def _parse_gamma(section: Any) -> GammaSection:
    check_keys(
        section,
        "gamma",
        {"epsilons"},
        {
            "dim",
            "mesh_nodes",
            "theta0",
            "theta1",
            "table",
            "optimizer",
            "huber_mu",
            "run_dp",
            "dp_elements",
            "dp_theta_count",
            "dp_band",
            "dp_margin",
            "dump_fields",
        },
    )
    table_cfg = section.get("table", {})
    table_path = None
    table_s_count = 64
    table_lattice = CoefficientLattice(-3.0, 3.0, 97)
    table_options = TfOptions(t_list=(1,), n=16, boundary=PERIODIC)
    if table_cfg:
        check_keys(
            table_cfg,
            "gamma.table",
            set(),
            {"path", "s_count", "lattice"} | TF_KEYS,
        )
        if "path" in table_cfg:
            if len(table_cfg) > 1:
                raise ConfigError("gamma.table.path excludes inline table options")
            table_path = str(table_cfg["path"])
        else:
            if "s_count" in table_cfg:
                table_s_count = int(table_cfg["s_count"])
            if "lattice" in table_cfg:
                table_lattice = _parse_lattice(table_cfg["lattice"], "gamma.table.lattice")
            table_options = _parse_tf_options(table_cfg, "gamma.table", table_options)

    opt_cfg = section.get("optimizer", {})
    check_keys(
        opt_cfg,
        "gamma.optimizer",
        set(),
        {"step_rule", "init_step", "max_iters", "tol", "stall_iters", "armijo_c", "max_backtracks"},
    )
    optimizer = OptimizerOptions(
        step_rule=opt_cfg.get("step_rule", "bb"),
        init_step=float(opt_cfg.get("init_step", 1.0)),
        max_iters=int(opt_cfg.get("max_iters", 50000)),
        tol=float(opt_cfg.get("tol", 1e-12)),
        stall_iters=int(opt_cfg.get("stall_iters", 10)),
        armijo_c=float(opt_cfg.get("armijo_c", 1e-4)),
        max_backtracks=int(opt_cfg.get("max_backtracks", 30)),
    )
    return GammaSection(
        dim=int(section.get("dim", 1)),
        mesh_nodes=int(section.get("mesh_nodes", 257)),
        theta0=float(section.get("theta0", 0.0)),
        theta1=float(section.get("theta1", np.pi / 2.0)),
        epsilons=tuple(float(e) for e in section["epsilons"]),
        table_path=table_path,
        table_s_count=table_s_count,
        table_lattice=table_lattice,
        table_options=table_options,
        optimizer=optimizer,
        huber_mu=float(section.get("huber_mu", 1e-4)),
        run_dp=bool(section.get("run_dp", True)),
        dp_elements=int(section.get("dp_elements", 128)),
        dp_theta_count=int(section.get("dp_theta_count", 2001)),
        dp_band=int(section.get("dp_band", 80)),
        dp_margin=float(section.get("dp_margin", 0.3)),
        dump_fields=bool(section.get("dump_fields", False)),
    )
