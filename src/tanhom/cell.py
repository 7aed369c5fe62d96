"""Discretize and minimize corrector cell problems on cubes (0, t)^N.

The corrector lives in tangent coordinates: the tangent space at the base
point is a fixed linear subspace, so the manifold-constrained problem is an
unconstrained minimization over m scalar nodal fields, with m the intrinsic
dimension.  Reconstruction uses Q1 elements with one-point quadrature at
element centers; for even nodes-per-period counts the centers never touch
coefficient breakpoints that sit on grid lines.

Conventions: a cube side of t periods is discretized with n elements per
period (spacing h = 1/n).  Zero-boundary correctors store (t n + 1)^N nodes;
periodic correctors store (t n)^N nodes and wrap.  The reported energy is the
cell average, i.e. the mean of the density over element centers.

Quadratic densities are solved by conjugate gradients preconditioned, channel
by channel, with the inverse of the unit-coefficient stiffness
(``UniformGrid.stiffness_inverse``): the iteration count is then bounded by
the coefficient contrast instead of growing with the grid.  The stopping test
is unchanged by the preconditioner: the plain gradient norm must fall below
``tol_grad * (1 + |g0|)``, ``g0`` the gradient at the zero corrector.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .artifacts import read_csv, write_columns
from .errors import NotTangent, ShapeMismatch, UnsupportedBoundary
from .grid import UniformGrid
from .integrand import ExtendedIntegrand, Integrand
from .manifold import EmbeddedManifold
from .optim import cg_quadratic, lbfgs

DIRICHLET = "dirichlet0"
PERIODIC = "periodic"
BOUNDARIES = (DIRICHLET, PERIODIC)

# Per-column tangency tolerance for cell problem data.
TANGENT_TOL = 1e-9


def check_solve_settings(
    nodes_per_period: int, boundary: str, tol_grad: float, max_iters: int | None
) -> None:
    """Raise ``ValueError`` for settings no cell solve accepts."""
    if nodes_per_period < 2:
        raise ValueError("need at least 2 nodes per period")
    if boundary not in BOUNDARIES:
        raise ValueError(f"boundary must be one of {BOUNDARIES}")
    if tol_grad <= 0:
        raise ValueError("tol_grad must be positive")
    if max_iters is not None and max_iters < 1:
        raise ValueError(f"max_iters must be at least 1 (or unset), got {max_iters}")


@dataclass(frozen=True)
class CellProblemSpec:
    """Data of one corrector cell problem.

    ``s`` is the base point on the manifold and ``xi`` a d x N matrix whose
    columns are tangent at ``s`` (checked to 1e-9 per column).  The solver
    follows the integrand: conjugate gradients for densities declared
    quadratic, limited-memory quasi-Newton descent otherwise, with smoothing
    continuation down to ``huber_mu`` for linear growth.
    """

    manifold: EmbeddedManifold
    s: np.ndarray
    xi: np.ndarray
    t: int = 1
    nodes_per_period: int = 16
    boundary: str = DIRICHLET
    tol_grad: float = 1e-8
    max_iters: int | None = None
    huber_mu: float = 1e-4

    def __post_init__(self):
        object.__setattr__(self, "s", np.asarray(self.s, dtype=float))
        object.__setattr__(self, "xi", np.asarray(self.xi, dtype=float))
        if int(self.t) != self.t or self.t < 1:
            raise ValueError("cube side t must be a positive integer")
        object.__setattr__(self, "t", int(self.t))
        check_solve_settings(
            self.nodes_per_period, self.boundary, self.tol_grad, self.max_iters
        )
        self.manifold.check_point(self.s)
        if self.xi.ndim != 2 or self.xi.shape[0] != self.manifold.ambient_dim:
            raise ShapeMismatch(
                f"xi must be a ({self.manifold.ambient_dim}, N) matrix, got {self.xi.shape}"
            )
        res = self.manifold.tangency_residual(self.s, self.xi)
        if res > TANGENT_TOL:
            raise NotTangent(
                f"xi has a normal component of relative size {res:.3e} at s"
            )

    @property
    def ndim(self) -> int:
        return self.xi.shape[1]

    @property
    def elements_per_side(self) -> int:
        return self.t * self.nodes_per_period

    def grid(self) -> UniformGrid:
        return UniformGrid(
            self.ndim,
            self.elements_per_side,
            1.0 / self.nodes_per_period,
            self.boundary == PERIODIC,
        )


@dataclass
class CorrectorField:
    """Nodal corrector coordinates on the cell grid.

    ``coeffs`` has shape (m, *nodes): coordinates in the rows of ``basis``
    (the tangent basis for constrained solves, the identity for unconstrained
    ones).  Zero-boundary fields vanish on every face.
    """

    coeffs: np.ndarray
    basis: np.ndarray
    boundary: str
    t: int
    nodes_per_period: int
    spec: CellProblemSpec | None = field(default=None, repr=False)

    def __post_init__(self):
        self.coeffs = np.asarray(self.coeffs, dtype=float)
        self.basis = np.asarray(self.basis, dtype=float)
        if not np.all(np.isfinite(self.coeffs)):
            raise ValueError("corrector values must be finite")
        if self.coeffs.shape[0] != self.basis.shape[0]:
            raise ShapeMismatch("coefficient channels do not match the basis rows")

    @property
    def ndim(self) -> int:
        return self.coeffs.ndim - 1

    def max_abs(self) -> float:
        return float(np.max(np.abs(self.coeffs))) if self.coeffs.size else 0.0


@dataclass
class CellSolveResult:
    value: float
    corrector: CorrectorField
    iterations: int
    converged: bool
    grad_norm: float
    warning: str | None = None


def zero_corrector(spec: CellProblemSpec, basis: np.ndarray) -> CorrectorField:
    shape = (basis.shape[0],) + spec.grid().node_shape
    return CorrectorField(
        coeffs=np.zeros(shape),
        basis=basis,
        boundary=spec.boundary,
        t=spec.t,
        nodes_per_period=spec.nodes_per_period,
        spec=spec,
    )


def _check_conforms(spec: CellProblemSpec, phi: CorrectorField) -> UniformGrid:
    grid = spec.grid()
    expected = grid.node_shape
    if phi.coeffs.shape[1:] != expected:
        raise ShapeMismatch(
            f"corrector grid {phi.coeffs.shape[1:]} does not match spec grid {expected}"
        )
    if phi.boundary != spec.boundary or phi.t != spec.t:
        raise ShapeMismatch("corrector boundary/size metadata disagrees with the spec")
    if phi.basis.shape[1] != spec.manifold.ambient_dim:
        raise ShapeMismatch("corrector basis does not live in the ambient space")
    if spec.boundary == DIRICHLET:
        mask = grid.boundary_mask()
        if phi.coeffs.size and np.max(np.abs(phi.coeffs[:, mask])) > 0.0:
            raise ShapeMismatch("zero-boundary corrector has nonzero boundary values")
    return grid


class _CellObjective:
    """Discrete cell energy and its assembled gradient over packed unknowns."""

    def __init__(
        self,
        spec: CellProblemSpec,
        basis: np.ndarray,
        eval_fn: Callable,
        grad_fn: Callable,
    ):
        self.spec = spec
        self.grid = spec.grid()
        self.basis = basis
        self.eval_fn = eval_fn
        self.grad_fn = grad_fn
        self.centers = self.grid.centers()
        self.m = basis.shape[0]
        self.node_shape = self.grid.node_shape
        self.dirichlet = spec.boundary == DIRICHLET
        if self.dirichlet:
            self.interior = (slice(None),) + self.grid.interior()
            self.unknown_shape = (self.m,) + tuple(k - 2 for k in self.node_shape)
        else:
            self.unknown_shape = (self.m,) + self.node_shape
        self.n_unknowns = math.prod(self.unknown_shape)

    def unpack(self, x: np.ndarray) -> np.ndarray:
        V = np.zeros((self.m,) + self.node_shape)
        if self.dirichlet:
            V[self.interior] = x.reshape(V[self.interior].shape)
        else:
            V[...] = x.reshape(V.shape)
        return V

    def pack(self, V: np.ndarray) -> np.ndarray:
        if self.dirichlet:
            return V[self.interior].ravel()
        return V.ravel()

    def project_gauge(self, x: np.ndarray) -> np.ndarray:
        """Remove the per-channel nodal mean (periodic translation null space)."""
        if self.dirichlet:
            return x
        V = x.reshape((self.m,) + self.node_shape)
        mean = V.mean(axis=tuple(range(1, V.ndim)), keepdims=True)
        return (V - mean).ravel()

    def ambient_gradient(self, V: np.ndarray) -> np.ndarray:
        G = self.grid.center_gradient(V)
        return self.spec.xi + np.einsum("md,mn...->...dn", self.basis, G)

    def value(self, x: np.ndarray) -> float:
        amb = self.ambient_gradient(self.unpack(x))
        return float(np.mean(self.eval_fn(self.centers, amb)))

    def value_and_grad(self, x: np.ndarray) -> tuple[float, np.ndarray]:
        amb = self.ambient_gradient(self.unpack(x))
        vals = self.eval_fn(self.centers, amb)
        df = self.grad_fn(self.centers, amb)
        W = np.einsum("md,...dn->mn...", self.basis, df) / self.grid.n_elements
        nodal = self.grid.center_gradient_adjoint(W)
        return float(np.mean(vals)), self.pack(nodal)

    def grad(self, x: np.ndarray) -> np.ndarray:
        return self.value_and_grad(x)[1]


def _field_from_packed(
    objective: _CellObjective, spec: CellProblemSpec, x: np.ndarray
) -> CorrectorField:
    V = objective.unpack(x)
    if not objective.dirichlet:
        # Gauge fix: periodic correctors are reported with zero nodal mean.
        V = V - V.mean(axis=tuple(range(1, V.ndim)), keepdims=True)
    return CorrectorField(
        coeffs=V,
        basis=objective.basis,
        boundary=spec.boundary,
        t=spec.t,
        nodes_per_period=spec.nodes_per_period,
        spec=spec,
    )


def _continuation_schedule(mu_target: float) -> list[float]:
    """Smoothing parameters from 1.0 down to the target, one decade per stage."""
    if mu_target >= 1.0:
        return [mu_target]
    mus = []
    mu = 1.0
    while mu > mu_target * 1.0001:
        mus.append(mu)
        mu *= 0.1
    mus.append(mu_target)
    return mus


def _run_solver(
    spec: CellProblemSpec,
    make_objective: Callable[[float], _CellObjective],
    quadratic: bool,
    smoothing: bool,
    exact_value: Callable[[CorrectorField], float],
) -> CellSolveResult:
    """Minimize ``make_objective(spec.huber_mu)`` from the zero corrector.

    Quadratic densities go to preconditioned conjugate gradients.  Everything
    else goes to quasi-Newton descent; with ``smoothing`` (linear growth) it
    first solves the objectives ``make_objective(mu)`` for a decreasing
    sequence of mu, warm starting each stage from the previous one.
    """
    objective = make_objective(spec.huber_mu)
    x = np.zeros(objective.n_unknowns)
    g0 = objective.grad(x)
    if quadratic:
        max_iters = spec.max_iters or max(1000, 2 * objective.n_unknowns)

        def apply_h(v):
            return objective.grad(v) - g0

        # Precondition each channel by the unit-coefficient stiffness: the
        # iteration count then depends on the coefficient contrast, not on n.
        inverse = objective.grid.stiffness_inverse()

        def precondition(v):
            return inverse(v.reshape(objective.unknown_shape)).ravel()

        project = None if objective.dirichlet else objective.project_gauge
        res = cg_quadratic(
            apply_h, g0, spec.tol_grad, max_iters, project=project, precondition=precondition
        )
    else:
        # The stopping target is anchored at the zero corrector of the final
        # objective, the contract of the conjugate-gradient path.
        max_iters = spec.max_iters or 5000
        final_target = spec.tol_grad * (1.0 + float(np.linalg.norm(g0)))
        stage_target = max(100.0 * final_target, 1e-6)
        stages = _continuation_schedule(spec.huber_mu)[:-1] if smoothing else []
        total_iters = 0
        for mu in stages:
            stage_res = lbfgs(
                make_objective(mu).value_and_grad, x, stage_target, min(800, max_iters)
            )
            x = stage_res.x
            total_iters += stage_res.iterations
        res = lbfgs(objective.value_and_grad, x, final_target, max_iters)
        res.iterations += total_iters

    corrector = _field_from_packed(objective, spec, res.x)
    value = exact_value(corrector)
    converged = res.converged and math.isfinite(value)
    warning = None
    if not res.converged:
        warning = (
            f"solver stopped after {res.iterations} iterations with gradient "
            f"norm {res.grad_norm:.3e} above tolerance"
        )
    elif not converged:
        warning = f"cell energy is not finite ({value})"
    return CellSolveResult(
        value=value,
        corrector=corrector,
        iterations=res.iterations,
        converged=converged,
        grad_norm=res.grad_norm,
        warning=warning,
    )


def _field_energy(eval_fn: Callable, spec: CellProblemSpec, phi: CorrectorField) -> float:
    grid = _check_conforms(spec, phi)
    G = grid.center_gradient(phi.coeffs)
    amb = spec.xi + np.einsum("md,mn...->...dn", phi.basis, G)
    return float(np.mean(eval_fn(grid.centers(), amb)))


def energy_of_field(f: Integrand, spec: CellProblemSpec, phi: CorrectorField) -> float:
    """Cell average of f(y, xi + grad phi) over element centers."""
    return _field_energy(f.eval, spec, phi)


def solve_cell(f: Integrand, spec: CellProblemSpec) -> CellSolveResult:
    """Minimize the cell energy over tangent-valued correctors.

    Deterministic: the corrector starts from zero.  The reported value is the
    exact (unsmoothed) energy of the returned corrector, so it is always an
    upper bound for the discrete minimum.  A non-finite value is reported
    unconverged.
    """
    N, d = f.dims
    if spec.xi.shape != (d, N):
        raise ShapeMismatch(
            f"xi has shape {spec.xi.shape}, integrand expects {(d, N)}"
        )
    basis = spec.manifold.tangent_basis(spec.s)
    return _run_solver(
        spec,
        lambda mu: _CellObjective(spec, basis, *f.solver_forms(mu)),
        quadratic=f.quadratic,
        smoothing=f.p == 1,
        exact_value=lambda phi: energy_of_field(f, spec, phi),
    )


def solve_cell_unconstrained(
    fext: ExtendedIntegrand, spec: CellProblemSpec
) -> CellSolveResult:
    """Minimize the extended density over unconstrained ambient correctors.

    The corrector carries full R^d nodal values; the base point is fixed from
    the spec.  Used to verify that tangentially constrained and extended
    minima coincide.
    """
    N, d = fext.dims
    if spec.xi.shape != (d, N):
        raise ShapeMismatch(
            f"xi has shape {spec.xi.shape}, extension expects {(d, N)}"
        )
    basis = np.eye(d)
    s = spec.s

    def fixed_s_objective(mu: float) -> _CellObjective:
        ev, gr = fext.solver_forms(mu)
        return _CellObjective(
            spec, basis, lambda y, xi: ev(y, s, xi), lambda y, xi: gr(y, s, xi)
        )

    return _run_solver(
        spec,
        fixed_s_objective,
        quadratic=fext.quadratic,
        smoothing=fext.p == 1,
        exact_value=lambda phi: _field_energy(lambda y, xi: fext.eval(y, s, xi), spec, phi),
    )


def tile_corrector(phi: CorrectorField, k: int) -> CorrectorField:
    """Repeat a zero-boundary corrector periodically onto the cube (0, k t)^N.

    The tiled field is admissible on the larger cube and reproduces the same
    element set, so its energy matches the original exactly; this certifies
    that the cell value cannot increase when the cube grows.
    """
    if phi.boundary != DIRICHLET:
        raise UnsupportedBoundary("only zero-boundary correctors can be tiled")
    if k < 1:
        raise ValueError("tiling factor must be a positive integer")
    if k == 1:
        return phi
    arr = phi.coeffs
    for ax in range(1, arr.ndim):
        core = [slice(None)] * arr.ndim
        core[ax] = slice(None, -1)
        last = [slice(None)] * arr.ndim
        last[ax] = slice(-1, None)
        arr = np.concatenate([arr[tuple(core)]] * k + [arr[tuple(last)]], axis=ax)
    return CorrectorField(
        coeffs=arr,
        basis=phi.basis,
        boundary=DIRICHLET,
        t=k * phi.t,
        nodes_per_period=phi.nodes_per_period,
        spec=None,
    )


def write_corrector_csv(phi: CorrectorField, path) -> None:
    """Dump nodal values: one row per node, multi-index then coordinates."""
    m = phi.coeffs.shape[0]
    header = [f"i{k}" for k in range(phi.ndim)] + [f"c{k}" for k in range(m)]
    index = np.indices(phi.coeffs.shape[1:]).reshape(phi.ndim, -1)
    write_columns(path, header, [*index, *phi.coeffs.reshape(m, -1)])


def read_corrector_csv(path) -> np.ndarray:
    """Read a corrector dump back into a (m, *nodes) array."""
    header, data = read_csv(path)
    ndim = sum(1 for h in header if h.startswith("i"))
    m = len(header) - ndim
    idx = data[:, :ndim].astype(int)
    vals = data[:, ndim:]
    shape = tuple(idx.max(axis=0) + 1)
    out = np.zeros((m,) + shape)
    for ch in range(m):
        out[(ch,) + tuple(idx.T)] = vals[:, ch]
    return out
