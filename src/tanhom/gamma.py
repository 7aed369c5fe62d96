"""Desk-scale convergence probe for oscillating energies on circle-valued fields.

Minimizes the oscillating functional over discrete manifold-valued fields for
a decreasing sequence of period sizes and compares against the minimum of the
homogenized functional built from a density table.  The optimizer is
projected gradient descent: an ambient gradient step on interior nodes
followed by nodewise retraction, safeguarded by Armijo backtracking, with
Barzilai-Borwein trial steps.  Descent stops on a stall: ``STALL_ITERS``
consecutive steps whose relative decrease is below the optimizer ``tol``.
Minimum-energy convergence, not minimizer convergence, is the reported
statistic.

For one-dimensional domains a dynamic-programming shortest path over an
(x, angle) lattice certifies the homogenized minimum globally within lattice
error; projected descent alone only certifies stationarity.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from .artifacts import fmt, read_csv, write_csv
from .density import DensityTable
from .errors import DegeneratePoint, ShapeMismatch
from .grid import UniformGrid
from .integrand import Integrand
from .manifold import EmbeddedManifold, Sphere, circle_theta


# Projected-descent settings: first trial step, stall length, Armijo line search.
INIT_STEP = 1.0
STALL_ITERS = 10
ARMIJO_C = 1e-4
MAX_BACKTRACKS = 30
# Angle lattice of the DP certificate: how far it reaches beyond the boundary angles.
DP_MARGIN = 0.3


@dataclass(frozen=True)
class OptimizerOptions:
    """Projected-descent controls: iteration cap and stall tolerance."""

    max_iters: int = 50000
    tol: float = 1e-12


@dataclass
class GammaExperimentConfig:
    """Experiment data: domain mesh, boundary angles, period sequence, table.

    The domain is the unit cube in ``dim`` dimensions with ``mesh_nodes``
    nodes per side.  Boundary nodes are pinned to the circle points of the
    affine angle field theta0 + (theta1 - theta0) x_1, whose harmonic
    extension doubles as the deterministic initial field.  Every period 1/eps
    must tile the mesh exactly and the finest period must span at least 8
    elements.
    """

    manifold: EmbeddedManifold
    integrand: Integrand
    epsilons: tuple[float, ...]
    table: DensityTable | None = None
    dim: int = 1
    mesh_nodes: int = 257
    theta0: float = 0.0
    theta1: float = float(np.pi / 2.0)
    optimizer: OptimizerOptions = field(default_factory=OptimizerOptions)
    huber_mu: float = 1e-4
    run_dp: bool = True
    dp_elements: int = 128
    dp_theta_count: int = 2001
    dp_band: int = 80

    def __post_init__(self):
        if not (isinstance(self.manifold, Sphere) and self.manifold.ambient_dim == 2):
            raise ValueError("the experiment drives circle-valued fields (sphere, d=2)")
        if self.dim not in (1, 2):
            raise ValueError("dim must be 1 or 2")
        N, d = self.integrand.dims
        if N != self.dim or d != 2:
            raise ShapeMismatch(
                f"integrand dims {self.integrand.dims} do not match a {self.dim}D circle experiment"
            )
        if self.mesh_nodes < 3:
            raise ValueError("need at least 3 mesh nodes per side")
        self.epsilons = tuple(float(e) for e in self.epsilons)
        if not self.epsilons:
            raise ValueError("need at least one epsilon")
        if any(e <= 0 for e in self.epsilons):
            raise ValueError("epsilons must be positive")
        if any(b >= a for a, b in zip(self.epsilons, self.epsilons[1:])):
            raise ValueError("epsilons must be strictly decreasing")
        elements = self.mesh_nodes - 1
        for e in self.epsilons:
            inv = 1.0 / e
            if abs(inv - round(inv)) > 1e-9:
                raise ValueError(f"1/epsilon must be an integer, got epsilon={e}")
            if elements % round(inv) != 0:
                raise ValueError(
                    f"period 1/{round(inv)} does not tile the {elements}-element mesh"
                )
        if elements * min(self.epsilons) < 8 - 1e-12:
            raise ValueError("the mesh must resolve the finest period with >= 8 elements")

    @property
    def elements(self) -> int:
        return self.mesh_nodes - 1

    def grid(self) -> UniformGrid:
        return UniformGrid(self.dim, self.elements, 1.0 / self.elements, periodic=False)

    def node_angles(self) -> np.ndarray:
        axis = np.linspace(0.0, 1.0, self.mesh_nodes)
        if self.dim == 1:
            x1 = axis
        else:
            x1 = np.broadcast_to(axis[:, None], (self.mesh_nodes,) * 2)
        return self.theta0 + (self.theta1 - self.theta0) * x1

    def initial_field(self) -> np.ndarray:
        theta = self.node_angles()
        return np.stack([np.cos(theta), np.sin(theta)])  # (d, *nodes)


@dataclass
class GammaRunResult:
    energy: float
    field: np.ndarray  # (d, *nodes)
    iterations: int
    converged: bool
    warning: str | None = None
    clamp_count: int = 0


# -- discrete energies ---------------------------------------------------------


class _OscillatingEnergy:
    """Discrete oscillating functional: mean over elements of f(x_c / eps, grad u)."""

    def __init__(self, config: GammaExperimentConfig, eps: float):
        self.grid = config.grid()
        self.f = config.integrand
        self.y = self.grid.centers() / eps
        self.eval_fn, self.grad_fn = self.f.solver_forms(config.huber_mu)

    def _ambient(self, U: np.ndarray) -> np.ndarray:
        G = self.grid.center_gradient(U)  # (d, N, *E)
        return np.moveaxis(G, (0, 1), (-2, -1))

    def value(self, U: np.ndarray) -> float:
        return float(np.mean(self.eval_fn(self.y, self._ambient(U))))

    def exact_value(self, U: np.ndarray) -> tuple[float, int]:
        return float(np.mean(self.f.eval(self.y, self._ambient(U)))), 0

    def value_and_grad(self, U: np.ndarray) -> tuple[float, np.ndarray]:
        amb = self._ambient(U)
        vals = self.eval_fn(self.y, amb)
        df = self.grad_fn(self.y, amb)
        W = np.moveaxis(df, (-2, -1), (0, 1)) / self.grid.n_elements
        return float(np.mean(vals)), self.grid.center_gradient_adjoint(W)


class _TableEnergy:
    """Discrete homogenized functional evaluated through table interpolation.

    Element cost: project the element-center point onto the circle, read the
    tangent coefficients of the center gradient there, and interpolate the
    density table.  The assembled gradient uses central differences on the
    element corners, which keeps the table the single source of truth.  The
    base corners and all 2 * 2**dim * d probes are stacked along one leading
    axis, so a gradient costs one projection and one table lookup.
    """

    # The interpolated energy is piecewise multilinear with slope jumps at
    # every lattice line.  At mesh size h a corner step moves the tangent
    # coefficient by up to FD_STEP / (2**(dim - 1) * h): 0.256 at h = 1/256
    # in 1D, four lattice cells of a 0.0625-spaced table.  The difference
    # quotient averages across the kinks, and the descent relies on that
    # smoothing to keep moving.
    # Backtracking tests true energies, so descent monotonicity is unaffected.
    FD_STEP = 1e-3

    def __init__(self, config: GammaExperimentConfig):
        if config.table is None:
            raise ValueError("a density table is required for the homogenized run")
        self.table = config.table
        self.grid = config.grid()
        self.dim = config.dim
        self.manifold = config.manifold
        self.h = self.grid.h
        self.slots = list(itertools.product((0, 1), repeat=self.dim))
        # Node slice of each element corner, in the order of ``slots``.
        self.slot_slices = [
            tuple(slice(1, None) if b else slice(None, -1) for b in bits)
            for bits in self.slots
        ]

    def _corner_views(self, U_cl: np.ndarray) -> list[np.ndarray]:
        return [U_cl[sl] for sl in self.slot_slices]

    def _cost(self, corners: list[np.ndarray], count_clamped: bool = False):
        """Element costs from corner arrays of shape (..., *elements, d)."""
        center = corners[0].copy()
        for c in corners[1:]:
            center = center + c
        center /= len(corners)
        s = self.manifold.project_batch(center)
        theta = circle_theta(s)
        tau = np.stack([-s[..., 1], s[..., 0]], axis=-1)
        zs = []
        for k in range(self.dim):
            g = None
            for bits, corner in zip(self.slots, corners):
                sign = 1.0 if bits[k] else -1.0
                g = sign * corner if g is None else g + sign * corner
            g /= (2.0 ** (self.dim - 1)) * self.h
            zs.append(np.sum(tau * g, axis=-1))
        z = np.stack(zs, axis=-1)
        return self.table.interpolate(theta, z, count_clamped=count_clamped)

    def value(self, U: np.ndarray) -> float:
        U_cl = np.moveaxis(U, 0, -1)
        return float(np.mean(self._cost(self._corner_views(U_cl))))

    def exact_value(self, U: np.ndarray) -> tuple[float, int]:
        U_cl = np.moveaxis(U, 0, -1)
        vals, clamped = self._cost(self._corner_views(U_cl), count_clamped=True)
        return float(np.mean(vals)), clamped

    def value_and_grad(self, U: np.ndarray) -> tuple[float, np.ndarray]:
        U_cl = np.moveaxis(U, 0, -1)
        d = U_cl.shape[-1]
        probes = list(itertools.product(range(len(self.slots)), range(d)))
        # Row 0 holds the base corners; rows 2k + 1 and 2k + 2 move component
        # a of corner ``slot`` up and down, for the k-th (slot, a) probe.
        rows = 1 + 2 * len(probes)
        corners = [np.repeat(c[None], rows, axis=0) for c in self._corner_views(U_cl)]
        for k, (slot, a) in enumerate(probes):
            saved = corners[slot][0, ..., a]
            corners[slot][2 * k + 1, ..., a] = saved + self.FD_STEP
            corners[slot][2 * k + 2, ..., a] = saved - self.FD_STEP
        costs = self._cost(corners)
        grad_cl = np.zeros_like(U_cl)
        for k, (slot, a) in enumerate(probes):
            up, down = costs[2 * k + 1], costs[2 * k + 2]
            grad_cl[self.slot_slices[slot] + (a,)] += (up - down) / (2.0 * self.FD_STEP)
        grad_cl /= self.grid.n_elements
        return float(np.mean(costs[0])), np.moveaxis(grad_cl, -1, 0)


# -- projected descent ----------------------------------------------------------


def _projected_descent(
    config: GammaExperimentConfig,
    energy,
) -> GammaRunResult:
    opt = config.optimizer
    M = config.manifold
    boundary = config.grid().boundary_mask()
    U = config.initial_field().copy()

    def riemannian(Uc: np.ndarray, G: np.ndarray) -> np.ndarray:
        pts = np.moveaxis(Uc, 0, -1)
        vecs = np.moveaxis(G, 0, -1)
        R = M.tangent_project_batch(pts, vecs)
        R[boundary] = 0.0
        return np.moveaxis(R, -1, 0)

    def retract_field(Uc: np.ndarray, step: float, R: np.ndarray) -> np.ndarray:
        pts = np.moveaxis(Uc, 0, -1) - step * np.moveaxis(R, 0, -1)
        out = M.project_batch(pts)
        out[boundary] = np.moveaxis(Uc, 0, -1)[boundary]
        return np.moveaxis(out, -1, 0)

    E, G = energy.value_and_grad(U)
    R = riemannian(U, G)
    best_E, best_U = E, U.copy()
    step = INIT_STEP
    prev_dU = prev_dR = None
    stall = 0
    iterations = 0
    converged = False
    warning = None

    while iterations < opt.max_iters:
        iterations += 1
        gnorm2 = float(np.sum(R * R))
        if gnorm2 == 0.0:
            converged = True
            break

        if prev_dU is not None:
            denom = float(np.sum(prev_dU * prev_dR))
            if denom > 0.0:
                step = float(np.sum(prev_dU * prev_dU)) / denom
            step = float(np.clip(step, 1e-10, 1e6))
        trial = step

        accepted = False
        halvings = 0
        for _ in range(MAX_BACKTRACKS):
            try:
                U_try = retract_field(U, trial, R)
            except DegeneratePoint:
                halvings += 1
                if halvings >= 30:
                    raise
                trial *= 0.5
                continue
            E_try = energy.value(U_try)
            if E_try <= E - ARMIJO_C * trial * gnorm2:
                accepted = True
                break
            trial *= 0.5
        if not accepted:
            converged = True
            warning = "line search stalled at a stationary point"
            break

        E_new, G_new = energy.value_and_grad(U_try)
        R_new = riemannian(U_try, G_new)
        prev_dU = (U_try - U).ravel()
        prev_dR = (R_new - R).ravel()
        rel_dec = (E - E_new) / max(abs(E_new), 1.0)
        stall = stall + 1 if rel_dec < opt.tol else 0
        U, E, R = U_try, E_new, R_new
        if E < best_E:
            best_E, best_U = E, U.copy()
        if stall >= STALL_ITERS:
            converged = True
            break

    if not converged:
        warning = f"descent hit the iteration cap ({opt.max_iters})"

    exact, clamped = energy.exact_value(best_U)
    return GammaRunResult(
        energy=exact,
        field=best_U,
        iterations=iterations,
        converged=converged,
        warning=warning,
        clamp_count=clamped,
    )


def minimize_f_eps(config: GammaExperimentConfig, eps: float) -> GammaRunResult:
    """Minimize the oscillating functional at one period size.

    Deterministic from the angle-interpolated initial field.  Linear-growth
    densities are minimized through their smoothed forms; the reported energy
    is always the exact one.
    """
    return _projected_descent(config, _OscillatingEnergy(config, eps))


def minimize_f_hom(config: GammaExperimentConfig) -> GammaRunResult:
    """Minimize the homogenized functional through the density table."""
    return _projected_descent(config, _TableEnergy(config))


# -- dynamic-programming certificate ---------------------------------------------


def dp_minimize_hom(
    table: DensityTable,
    theta0: float,
    theta1: float,
    elements: int,
    theta_count: int = 2001,
    band: int = 80,
    margin: float = DP_MARGIN,
) -> float:
    """Global minimum of the 1D homogenized functional over an angle lattice.

    Shortest path on an (x, angle) lattice with the same per-element cost as
    the descent optimizer: the transition theta_a -> theta_b over one element
    of size h scores the table at the angular midpoint with tangent
    coefficient 2 sin((theta_b - theta_a)/2) / h.  Transitions whose
    coefficient leaves the table are forbidden rather than clamped.  The
    result certifies the descent minimum within lattice quantization error.
    """
    if table.n_columns != 1:
        raise ShapeMismatch("the dynamic program drives one gradient column")
    if elements < 2:
        raise ValueError("need at least two elements")
    h = 1.0 / elements
    lo = min(theta0, theta1) - margin
    hi = max(theta0, theta1) + margin
    lattice = np.linspace(lo, hi, theta_count)
    delta = lattice[1] - lattice[0]
    z_lo, z_hi = table.coeff_range()[0]

    def leg_cost(theta_a, theta_b):
        mid = 0.5 * (theta_a + theta_b)
        z = 2.0 * np.sin(0.5 * (theta_b - theta_a)) / h
        vals = table.interpolate(mid, z[..., None])
        return np.where((z < z_lo) | (z > z_hi), np.inf, vals)

    offsets = np.arange(-band, band + 1)
    # Interior transition costs: start angle x offset, x-independent.
    theta_a = lattice[:, None]
    theta_b = lattice[:, None] + offsets[None, :] * delta
    C = leg_cost(theta_a, theta_b)

    dp = leg_cost(np.full_like(lattice, theta0), lattice)
    K = theta_count
    for _ in range(elements - 2):
        best = np.full(K, np.inf)
        for jj, j in enumerate(offsets):
            if j >= 0:
                cand = dp[: K - j] + C[: K - j, jj]
                best[j:] = np.minimum(best[j:], cand)
            else:
                cand = dp[-j:] + C[-j:, jj]
                best[:j] = np.minimum(best[:j], cand)
        dp = best
    total = dp + leg_cost(lattice, np.full_like(lattice, theta1))
    return float(np.min(total) / elements)


# -- experiment driver -----------------------------------------------------------


@dataclass
class GammaReport:
    """Minimum energies across the period sequence versus the homogenized one.

    ``eps_fields`` and ``hom_field`` hold the minimizing fields; they stay out
    of ``to_dict``.
    """

    epsilons: tuple[float, ...]
    eps_energies: list[float]
    hom_energy: float
    gaps: list[float]
    trend_fraction: float
    dp_energy: float | None
    eps_iterations: list[int]
    hom_iterations: int
    eps_converged: list[bool]
    hom_converged: bool
    clamp_count: int
    warnings: list[str]
    eps_fields: list[np.ndarray] = field(default_factory=list, repr=False)
    hom_field: np.ndarray | None = field(default=None, repr=False)

    @property
    def final_gap(self) -> float:
        return self.gaps[-1]

    def to_dict(self) -> dict:
        return {
            "epsilons": list(self.epsilons),
            "eps_energies": self.eps_energies,
            "hom_energy": self.hom_energy,
            "gaps": self.gaps,
            "trend_fraction": self.trend_fraction,
            "dp_energy": self.dp_energy,
            "eps_iterations": self.eps_iterations,
            "hom_iterations": self.hom_iterations,
            "eps_converged": self.eps_converged,
            "hom_converged": self.hom_converged,
            "clamp_count": self.clamp_count,
            "warnings": self.warnings,
        }


def run_gamma_experiment(config: GammaExperimentConfig) -> GammaReport:
    """Minimize the oscillating functional per period size, then the
    homogenized one, and report the gap sequence.

    The trend statistic is the fraction of consecutive gap decreases; per-run
    warnings aggregate instead of aborting the sweep.
    """
    if config.table is None:
        raise ValueError("run_gamma_experiment needs a density table")

    eps_runs = [minimize_f_eps(config, e) for e in config.epsilons]
    hom_run = minimize_f_hom(config)

    gaps = [abs(r.energy - hom_run.energy) for r in eps_runs]
    decreases = [b < a for a, b in zip(gaps, gaps[1:])]
    trend = float(np.mean(decreases)) if decreases else 1.0

    dp_energy = None
    if config.run_dp and config.dim == 1:
        dp_energy = dp_minimize_hom(
            config.table,
            config.theta0,
            config.theta1,
            config.dp_elements,
            config.dp_theta_count,
            config.dp_band,
        )

    warnings = [r.warning for r in eps_runs if r.warning]
    if hom_run.warning:
        warnings.append(hom_run.warning)
    if hom_run.clamp_count:
        warnings.append(
            f"homogenized energy clamped {hom_run.clamp_count} table lookups"
        )

    return GammaReport(
        epsilons=config.epsilons,
        eps_energies=[r.energy for r in eps_runs],
        hom_energy=hom_run.energy,
        gaps=gaps,
        trend_fraction=trend,
        dp_energy=dp_energy,
        eps_iterations=[r.iterations for r in eps_runs],
        hom_iterations=hom_run.iterations,
        eps_converged=[r.converged for r in eps_runs],
        hom_converged=hom_run.converged,
        clamp_count=hom_run.clamp_count,
        warnings=warnings,
        eps_fields=[r.field for r in eps_runs],
        hom_field=hom_run.field,
    )


def write_field_csv(field: np.ndarray, path) -> None:
    """Dump a nodal field: node coordinates then point components per row."""
    d = field.shape[0]
    node_shape = field.shape[1:]
    ndim = len(node_shape)
    axes = [np.linspace(0.0, 1.0, n) for n in node_shape]
    header = [f"x{k}" for k in range(ndim)] + [f"u{k}" for k in range(d)]
    rows = (
        [fmt(axes[k][idx[k]]) for k in range(ndim)]
        + [fmt(field[(c,) + idx]) for c in range(d)]
        for idx in np.ndindex(node_shape)
    )
    write_csv(path, header, rows)


def read_field_csv(path) -> np.ndarray:
    """Read a nodal field dump back into a (d, *nodes) array."""
    header, data = read_csv(path)
    ndim = sum(1 for h in header if h.startswith("x"))
    d = len(header) - ndim
    coords, values = data[:, :ndim], data[:, ndim:]
    counts = [len(np.unique(coords[:, k])) for k in range(ndim)]
    field = values.T.reshape((d, *counts))
    return field
