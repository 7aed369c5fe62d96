"""Desk-scale convergence probe for oscillating energies on circle-valued fields.

Minimizes the oscillating functional for a decreasing sequence of period
sizes and the homogenized functional of a quadratic density's tensor table,
and reports the gaps between the minimum energies.  A field is
``U = (cos theta, sin theta)`` of its nodal angles.  Both minimizations run
``optim.lbfgs`` over the interior angles; the period sizes are the rows of
one descent, stacked on a leading axis of the same grid, and each row stops
on its own.  The descents are preconditioned by the inverse Hessian ``P`` of
``mean |grad theta|^2`` (a Sobolev gradient), and a row stops at
``sqrt(g^T P g) <= sqrt(tol * max(|E0|, 1))`` for its initial energy ``E0``:
near a minimum ``g^T P g`` estimates the remaining decrease, so ``tol`` is a
relative energy accuracy.  For one-dimensional domains the homogenized
minimum has a closed form, the squared geodesic length ``(int A^(1/2) dtheta)^2``
in the metric of the table's tensor ``A``; it certifies the homogenized descent,
and a run that misses it by more than ``CERTIFICATE_REL_TOL`` gets a warning.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .artifacts import read_csv, write_columns
from .density import DensityTable, check_circle
from .errors import ShapeMismatch, UnsupportedGrowth
from .grid import UniformGrid
from .integrand import Integrand
from .manifold import EmbeddedManifold
from .optim import lbfgs


# Trapezoid nodes over [theta0, theta1] of the 1D geodesic certificate.
CERTIFICATE_NODES = 2001
# Criterion 8's tolerance: the homogenized minimum's relative distance to the certificate.
CERTIFICATE_REL_TOL = 1e-2


@dataclass(frozen=True)
class OptimizerOptions:
    """Descent controls: iteration cap and relative energy accuracy."""

    max_iters: int = 50000
    tol: float = 1e-12

    def __post_init__(self):
        if not 0 < self.tol < np.inf:  # an infinite tol passes the initial field; NaN fails
            raise ValueError(f"tol must be positive and finite, got {self.tol}")
        if self.max_iters < 1:
            raise ValueError(f"max_iters must be at least 1, got {self.max_iters}")


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

    def __post_init__(self):
        check_circle(self.manifold)
        if self.dim not in (1, 2):
            raise ValueError("dim must be 1 or 2")
        if not (math.isfinite(self.theta0) and math.isfinite(self.theta1)):
            raise ValueError(f"theta0 and theta1 must be finite, got {self.theta0}, {self.theta1}")
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
            if round(inv) < 1:
                raise ValueError(f"1/epsilon must be at least 1, got epsilon={e}")
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
    # Always 0, as the tensor energy never clamps; perfbench/spans.py still counts it.
    clamp_count: int = 0


# -- discrete energies ---------------------------------------------------------


class _OscillatingEnergy:
    """Discrete oscillating functionals, one row per period size: the mean over
    elements of f(x_c / eps, grad u) for the fields ``U`` (B, d, *nodes)."""

    def __init__(self, config: GammaExperimentConfig, epsilons: tuple[float, ...]):
        self.grid = config.grid()
        self.f = config.integrand
        centers = self.grid.centers()
        self.y = self.f.sample(np.stack([centers / eps for eps in epsilons]))
        self.eval_fn, self.grad_fn = self.f.solver_forms(config.huber_mu)

    def _ambient(self, U: np.ndarray) -> np.ndarray:
        G = self.grid.center_gradient(U)  # (B, d, N, *E)
        return np.moveaxis(G, (1, 2), (-2, -1))

    @staticmethod
    def _row_means(vals: np.ndarray) -> np.ndarray:
        return vals.reshape(len(vals), -1).mean(axis=1)

    def exact_value(self, U: np.ndarray) -> np.ndarray:
        return self._row_means(self.f.eval(self.y, self._ambient(U)))

    def value_and_grad(self, U: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        amb = self._ambient(U)
        vals = self.eval_fn(self.y, amb)
        df = self.grad_fn(self.y, amb)
        W = np.moveaxis(df, (-2, -1), (1, 2)) / self.grid.n_elements
        return self._row_means(vals), self.grid.center_gradient_adjoint(W)


class _TableEnergy:
    """Discrete homogenized functional through the table's effective tensor.

    Element cost ``z^T A(theta_c) z``: ``theta_c`` and the unit tangent ``tau``
    project the element's corner mean ``c`` onto the circle, and
    ``z_k = tau . g_k`` for the center gradients ``g_k`` (in 1D the chord
    coefficient).  The gradient is the exact chain rule.  It is one row: the
    fields ``U`` are (1, 2, *nodes) and the values (1,).
    """

    def __init__(self, config: GammaExperimentConfig):
        if config.table is None or config.table.tensor is None:
            raise UnsupportedGrowth("the homogenized energy needs a quadratic density's table")
        self.table = config.table
        self.grid = config.grid()

    def value_and_grad(self, U: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        grid = self.grid
        U = U[0]
        c = grid.center_value(U)  # (2, *E)
        g = grid.center_gradient(U)  # (2, dim, *E)
        r = np.hypot(c[0], c[1])
        tau = np.stack([-c[1], c[0]]) / r
        z = np.sum(tau[:, None] * g, axis=0)  # (dim, *E)
        vals, d_theta, d_z = self.table.quadratic_form(
            np.arctan2(c[1], c[0]), np.moveaxis(z, 0, -1)
        )
        d_z = np.moveaxis(d_z, -1, 0) / grid.n_elements
        # d theta_c / dc = tau / r, dz_k / dg_k = tau, dz_k / dc = (g_k1, -g_k0) / r - z_k c / r^2.
        perp = np.stack([g[1], -g[0]]) / r
        d_c = d_theta * tau / (r * grid.n_elements) + np.sum(d_z * perp, axis=1)
        d_c -= np.sum(d_z * z, axis=0) * c / r**2
        grad = grid.center_gradient_adjoint(tau[:, None] * d_z) + grid.center_value_adjoint(d_c)
        return np.array([np.mean(vals)]), grad[None]

    def exact_value(self, U: np.ndarray) -> np.ndarray:
        return self.value_and_grad(U)[0]


# -- angle descent -----------------------------------------------------------------


class _AngleProblem:
    """Energies of circle-valued fields as functions of the interior nodal angles.

    One row ``x[b]`` per row of ``energy``; boundary angles keep the config's
    affine data.  For the field gradient ``G``, ``dE/dtheta = U_0 G_1 - U_1 G_0``.
    ``theta`` keeps every row's last angles: ``value_and_grad`` writes the
    rows it is given there and evaluates every row.
    """

    def __init__(self, config: GammaExperimentConfig, energy, rows: int):
        self.energy = energy
        grid = config.grid()
        self.interior = (slice(None), *grid.interior())
        self.theta = np.repeat(config.node_angles()[None], rows, axis=0)
        self.shape = self.theta[self.interior].shape
        self.x0 = self.theta[self.interior].reshape(rows, -1).copy()  # not a view of theta
        self._inverse = grid.stiffness_inverse()

    def field(self, x: np.ndarray, rows: np.ndarray) -> np.ndarray:
        """Every row's field, after the rows ``rows`` take the interior angles ``x``."""
        self.theta[(rows, *self.interior[1:])] = x.reshape((len(x), *self.shape[1:]))
        return np.stack([np.cos(self.theta), np.sin(self.theta)], axis=1)

    def value_and_grad(self, x: np.ndarray, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        U = self.field(x, rows)
        E, G = self.energy.value_and_grad(U)
        grad = (U[:, 0] * G[:, 1] - U[:, 1] * G[:, 0])[self.interior]
        return E[rows], grad[rows].reshape(x.shape)

    def precondition(self, g: np.ndarray) -> np.ndarray:
        return self._inverse(g.reshape((len(g), *self.shape[1:]))).reshape(g.shape)


def _angle_descent(config: GammaExperimentConfig, energy, rows: int) -> list[GammaRunResult]:
    """Minimize the ``rows`` energies of ``energy`` as the rows of one descent."""
    opt = config.optimizer
    problem = _AngleProblem(config, energy, rows)
    every = np.arange(rows)
    E0, g0 = problem.value_and_grad(problem.x0, every)
    target = np.sqrt(opt.tol * np.maximum(np.abs(E0), 1.0))
    res = lbfgs(
        problem.value_and_grad, problem.x0, target, opt.max_iters, problem.precondition,
        start=(E0, g0),
    )
    U = problem.field(res.x, every)
    energies = energy.exact_value(U)
    runs = []
    for b in range(rows):
        iterations, converged = int(res.row_iterations[b]), bool(res.row_converged[b])
        warning = None if converged else (
            f"descent stopped unconverged after {iterations} iterations "
            f"(preconditioned gradient norm {res.row_grad_norms[b]:.3e}, "
            f"target {target[b]:.3e})"
        )
        runs.append(GammaRunResult(
            energy=float(energies[b]),
            field=U[b],
            iterations=iterations,
            converged=converged,
            warning=warning,
        ))
    return runs


def minimize_f_eps_sweep(
    config: GammaExperimentConfig, epsilons: tuple[float, ...]
) -> list[GammaRunResult]:
    """Minimize the oscillating functional at each period size, as the rows of one descent.

    The period sizes share the grid and stack on a leading axis; each row
    stops on its own and equals the lone minimization of its period size bit
    for bit.  Deterministic from the angle-interpolated initial field.
    Linear-growth densities are minimized through their smoothed forms; the
    reported energy is always the exact one.
    """
    return _angle_descent(config, _OscillatingEnergy(config, epsilons), len(epsilons))


def minimize_f_eps(config: GammaExperimentConfig, eps: float) -> GammaRunResult:
    """Minimize the oscillating functional at one period size: the sweep of one."""
    return minimize_f_eps_sweep(config, (eps,))[0]


def minimize_f_hom(config: GammaExperimentConfig) -> GammaRunResult:
    """Minimize the homogenized functional through the table's effective tensor."""
    return _angle_descent(config, _TableEnergy(config), 1)[0]


# -- geodesic certificate ---------------------------------------------------------


def dp_minimize_hom(table: DensityTable, theta0: float, theta1: float) -> float:
    """Exact minimum of the 1D homogenized functional over angle paths.

    With ``f_hom(theta, z) = A(theta) z^2`` the minimum over paths from
    ``theta0`` to ``theta1`` on the unit interval is the squared geodesic
    length ``(int_theta0^theta1 A^(1/2) dtheta)^2``: by Cauchy-Schwarz no path
    does better, and the constant-speed path reaches it.  This is the exact
    value of the shortest-path problem that a dynamic program over an
    (x, angle) lattice approximates.  ``A`` is the trigonometric interpolant
    of the table's tensor, integrated by a ``CERTIFICATE_NODES``-point
    trapezoid rule.
    """
    if table.n_columns != 1:
        raise ShapeMismatch("the geodesic certificate drives one gradient column")
    if table.tensor is None:
        raise UnsupportedGrowth("the geodesic certificate needs a quadratic density's table")
    thetas = np.linspace(theta0, theta1, CERTIFICATE_NODES)
    A = table.quadratic_form(thetas, np.ones((CERTIFICATE_NODES, 1)))[0]
    return float(np.trapezoid(np.sqrt(A), thetas) ** 2)


# -- experiment driver -----------------------------------------------------------


@dataclass
class GammaReport:
    """Minimum energies across the period sequence versus the homogenized one.

    ``dp_energy`` is the geodesic certificate of a 1D run with ``run_dp``, else
    None.  ``eps_fields`` and ``hom_field`` hold the minimizing fields; they
    stay out of ``to_dict``.
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
    warnings: list[str]
    eps_fields: list[np.ndarray] = field(default_factory=list, repr=False)
    hom_field: np.ndarray | None = field(default=None, repr=False)

    @property
    def final_gap(self) -> float:
        return self.gaps[-1]

    @property
    def certificate_missed(self) -> bool:
        """The certificate ran and the homogenized minimum is not within
        ``CERTIFICATE_REL_TOL`` of it (a NaN on either side misses)."""
        if self.dp_energy is None:
            return False
        return not abs(self.dp_energy - self.hom_energy) <= CERTIFICATE_REL_TOL * self.hom_energy

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
            "warnings": self.warnings,
        }


def run_gamma_experiment(config: GammaExperimentConfig) -> GammaReport:
    """Minimize the oscillating functional at every period size as the rows
    of one descent, then the homogenized one, and report the gap sequence.

    The trend statistic is the fraction of consecutive gap decreases; per-run
    warnings aggregate instead of aborting the sweep, and so does a
    homogenized minimum that misses the 1D certificate.
    """
    _TableEnergy(config)  # refuses a table without a tensor before any solve
    eps_runs = minimize_f_eps_sweep(config, config.epsilons)
    hom_run = minimize_f_hom(config)

    gaps = [abs(r.energy - hom_run.energy) for r in eps_runs]
    decreases = [b < a for a, b in zip(gaps, gaps[1:])]
    trend = float(np.mean(decreases)) if decreases else 1.0

    dp_energy = None
    if config.run_dp and config.dim == 1:
        dp_energy = dp_minimize_hom(config.table, config.theta0, config.theta1)

    warnings = [r.warning for r in eps_runs if r.warning]
    if hom_run.warning:
        warnings.append(hom_run.warning)

    report = GammaReport(
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
        warnings=warnings,
        eps_fields=[r.field for r in eps_runs],
        hom_field=hom_run.field,
    )
    if report.certificate_missed:
        warnings.append(
            f"homogenized energy {hom_run.energy:.9g} misses the geodesic certificate "
            f"{dp_energy:.9g} by more than {CERTIFICATE_REL_TOL:g} relative"
        )
    return report


def write_field_csv(field: np.ndarray, path) -> None:
    """Dump a nodal field: node coordinates then point components per row."""
    d = field.shape[0]
    node_shape = field.shape[1:]
    ndim = len(node_shape)
    axes = [np.linspace(0.0, 1.0, n) for n in node_shape]
    header = [f"x{k}" for k in range(ndim)] + [f"u{k}" for k in range(d)]
    coords = [g.ravel() for g in np.meshgrid(*axes, indexing="ij")]
    write_columns(path, header, [*coords, *field.reshape(d, -1)])


def read_field_csv(path) -> np.ndarray:
    """Read a nodal field dump back into a (d, *nodes) array."""
    header, data = read_csv(path)
    ndim = sum(1 for h in header if h.startswith("x"))
    d = len(header) - ndim
    coords, values = data[:, :ndim], data[:, ndim:]
    counts = [len(np.unique(coords[:, k])) for k in range(ndim)]
    field = values.T.reshape((d, *counts))
    return field
