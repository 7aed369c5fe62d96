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
``tol_grad * (1 + |g0|)``, ``g0`` the gradient at the zero corrector.  Every
other density runs quasi-Newton descent with the same preconditioner ``P``
in every smoothing stage; it measures the gradient as ``sqrt(g^T P g)``
against the same target, so linear growth converges in tens of iterations.

Each objective samples the density's coefficients at the element centers
once, when it is built (``Integrand.sample``).  One conjugate-gradient step
then costs one Hessian action ``grad(d) - g0``: a center gradient, one call
of the density gradient ``grad_xi`` and its adjoint, with no coefficient
lookup and no evaluation of the density itself.  The density is evaluated
once per solve, for the reported value.

Problems that share a grid and solver settings but differ in base point and
load form a batch (``solve_cell_batch``): the objective carries a leading
batch axis of tangent bases and loads, and one conjugate-gradient run treats
each problem as a row with its own step length, stopping target and stop
flag.  A row that has stopped stays frozen while the others go on, so every
row ends exactly as a solve of its problem alone; ``solve_cell`` is the batch
of one.
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
# Elements, summed over rows, of one batched run; splitting a batch changes no bits.
BATCH_ELEMENTS = 1 << 16


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
    """Discrete cell energies and assembled gradients of a batch of problems.

    Row ``b`` of the batch has the tangent basis ``bases[b]`` (m x d) and the
    load ``loads[b]`` (d x N, the spec's ``xi`` when None) on the grid that
    ``spec`` describes.  Packed unknowns have shape (B, n); a 1-D ``x`` is a
    batch of one, whose value comes back as a float.  The grid operators and
    integrands broadcast over the leading batch axis, so every row is
    computed as it would be alone.  The forms are evaluated at
    ``sample(centers)``, taken once here (``Integrand.sample``; raw centers
    when ``sample`` is None).
    """

    def __init__(
        self,
        spec: CellProblemSpec,
        bases: np.ndarray,
        eval_fn: Callable,
        grad_fn: Callable | None,
        loads: np.ndarray | None = None,
        sample: Callable | None = None,
    ):
        self.spec = spec
        self.grid = spec.grid()
        bases = np.asarray(bases, dtype=float)
        self.bases = bases.reshape((-1,) + bases.shape[-2:])
        self.batch, self.m = self.bases.shape[:2]
        loads = spec.xi if loads is None else np.asarray(loads, dtype=float)
        # Loads broadcast against the (B, *elements, d, N) ambient gradients.
        self.loads = loads.reshape((self.batch,) + (1,) * spec.ndim + spec.xi.shape)
        self.eval_fn = eval_fn
        self.grad_fn = grad_fn
        centers = self.grid.centers()
        self.y = centers if sample is None else sample(centers)
        self.node_shape = self.grid.node_shape
        self.dirichlet = spec.boundary == DIRICHLET
        if self.dirichlet:
            self.interior = (slice(None), slice(None)) + self.grid.interior()
            nodes = tuple(k - 2 for k in self.node_shape)
        else:
            nodes = self.node_shape
        self.unknown_shape = (self.batch, self.m) + nodes
        self.n_unknowns = math.prod(self.unknown_shape[1:])

    def unpack(self, x: np.ndarray) -> np.ndarray:
        """Nodal fields (B, m, *nodes) of packed unknowns."""
        if not self.dirichlet:
            return x.reshape((self.batch, self.m) + self.node_shape)
        V = np.zeros((self.batch, self.m) + self.node_shape)
        V[self.interior] = x.reshape(self.unknown_shape)
        return V

    def pack(self, V: np.ndarray) -> np.ndarray:
        if self.dirichlet:
            V = V[self.interior]
        return V.reshape(self.batch, -1)

    def project_gauge(self, x: np.ndarray) -> np.ndarray:
        """Remove each row's per-channel nodal mean (periodic translation null space)."""
        if self.dirichlet:
            return x
        V = self.unpack(x)
        mean = V.mean(axis=tuple(range(2, V.ndim)), keepdims=True)
        return (V - mean).reshape(x.shape)

    def ambient_gradient(self, V: np.ndarray) -> np.ndarray:
        amb = np.einsum("bmd,bmn...->b...dn", self.bases, self.grid.center_gradient(V))
        amb += self.loads
        return amb

    def energies(self, V: np.ndarray, eval_fn: Callable | None = None) -> np.ndarray:
        """Cell average of each row's density at the nodal fields ``V``, shape (B,).

        ``eval_fn`` defaults to the solver's density.
        """
        vals = (eval_fn or self.eval_fn)(self.y, self.ambient_gradient(V))
        return vals.reshape(self.batch, -1).mean(axis=1)

    def value(self, x: np.ndarray):
        energies = self.energies(self.unpack(x))
        return float(energies[0]) if x.ndim == 1 else energies

    def _assembled(self, df: np.ndarray, shape: tuple) -> np.ndarray:
        """Gradient in the packed unknowns, of shape ``shape``, of the density gradients ``df``."""
        W = np.einsum("bmd,b...dn->bmn...", self.bases, df)
        del df  # the adjoint's temporaries need not sit beside it
        W /= self.grid.n_elements
        return self.pack(self.grid.center_gradient_adjoint(W)).reshape(shape)

    def value_and_grad(self, x: np.ndarray):
        amb = self.ambient_gradient(self.unpack(x))
        energies = self.eval_fn(self.y, amb).reshape(self.batch, -1).mean(axis=1)
        grad = self._assembled(self.grad_fn(self.y, amb), x.shape)
        return (float(energies[0]) if x.ndim == 1 else energies), grad

    def grad(self, x: np.ndarray) -> np.ndarray:
        """``value_and_grad(x)[1]`` without evaluating the density."""
        return self._assembled(self.grad_fn(self.y, self.ambient_gradient(self.unpack(x))), x.shape)


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


def _check_batch(specs: list[CellProblemSpec], dims: tuple[int, int]) -> None:
    """Raise ``ShapeMismatch`` unless every spec fits ``dims`` and shares the first's grid and settings."""
    N, d = dims

    def settings(spec):
        return (
            spec.manifold, spec.t, spec.nodes_per_period, spec.boundary,
            spec.tol_grad, spec.max_iters, spec.huber_mu,
        )

    for spec in specs:
        if spec.xi.shape != (d, N):
            raise ShapeMismatch(f"xi has shape {spec.xi.shape}, integrand expects {(d, N)}")
        if settings(spec) != settings(specs[0]):
            raise ShapeMismatch("a batch of cell problems must share grid and solver settings")


def _run_solver(
    specs: list[CellProblemSpec],
    make_objective: Callable[[float], _CellObjective],
    quadratic: bool,
    smoothing: bool,
    exact_eval: Callable,
) -> list[CellSolveResult]:
    """Minimize ``make_objective(huber_mu)`` from the zero corrector, one row per spec.

    Quadratic densities go to preconditioned conjugate gradients, all rows in
    one run: each row stops on its own target and then stays frozen, so it
    ends exactly as a solve of that spec alone.  Everything else goes to
    quasi-Newton descent on a single spec, under the same preconditioner;
    with ``smoothing`` (linear growth) it first solves ``make_objective(mu)``
    for decreasing mu, each stage warm started from the last.  Values are the
    exact energies under ``exact_eval``.
    """
    spec = specs[0]
    objective = make_objective(spec.huber_mu)
    x = np.zeros((objective.batch, objective.n_unknowns))
    g0 = objective.grad(x)
    # Precondition each channel by the unit-coefficient stiffness, for rows
    # (B, n) and vectors (n,): iterations then track the contrast, not n.
    inverse = objective.grid.stiffness_inverse()
    channels = (-1,) + objective.unknown_shape[1:]

    def precondition(v):
        return inverse(v.reshape(channels)).reshape(v.shape)

    if quadratic:
        max_iters = spec.max_iters or max(1000, 2 * objective.n_unknowns)

        def apply_h(v):
            return objective.grad(v) - g0

        project = None if objective.dirichlet else objective.project_gauge
        res = cg_quadratic(
            apply_h, g0, spec.tol_grad, max_iters, project=project, precondition=precondition
        )
        solved = res.x
        rows = zip(res.row_iterations, res.row_grad_norms, res.row_converged)
    else:
        # One problem.  The stopping target is anchored at the zero corrector
        # of the final objective, the contract of the conjugate-gradient path.
        max_iters = spec.max_iters or 5000
        final_target = spec.tol_grad * (1.0 + float(np.linalg.norm(g0)))
        stage_target = max(100.0 * final_target, 1e-6)
        stages = _continuation_schedule(spec.huber_mu)[:-1] if smoothing else []
        total_iters = 0
        x = x[0]
        for mu in stages:
            stage_res = lbfgs(
                make_objective(mu).value_and_grad, x, stage_target, min(800, max_iters),
                precondition,
            )
            x = stage_res.x
            total_iters += stage_res.iterations
        res = lbfgs(objective.value_and_grad, x, final_target, max_iters, precondition)
        solved = res.x[None]
        rows = [(res.iterations + total_iters, res.grad_norm, res.converged)]

    V = objective.unpack(solved)
    if not objective.dirichlet:
        # Gauge fix: periodic correctors are reported with zero nodal mean.
        V = V - V.mean(axis=tuple(range(2, V.ndim)), keepdims=True)
    values = objective.energies(V, exact_eval)
    results = []
    for spec_b, basis, coeffs, value, (iterations, grad_norm, solver_ok) in zip(
        specs, objective.bases, V, values, rows
    ):
        value = float(value)
        converged = bool(solver_ok) and math.isfinite(value)
        warning = None
        if not solver_ok:
            warning = (
                f"solver stopped after {iterations} iterations with gradient "
                f"norm {grad_norm:.3e} above tolerance"
            )
        elif not converged:
            warning = f"cell energy is not finite ({value})"
        corrector = CorrectorField(
            coeffs=coeffs,
            basis=basis,
            boundary=spec_b.boundary,
            t=spec_b.t,
            nodes_per_period=spec_b.nodes_per_period,
            spec=spec_b,
        )
        results.append(
            CellSolveResult(
                value=value,
                corrector=corrector,
                iterations=int(iterations),
                converged=converged,
                grad_norm=float(grad_norm),
                warning=warning,
            )
        )
    return results


def energy_of_fields(
    f: Integrand, specs: list[CellProblemSpec], fields: list[CorrectorField]
) -> np.ndarray:
    """Cell averages of f(y, xi + grad phi), one per (spec, field) pair, in one evaluation.

    The specs must share grid and solver settings; each field must conform to its spec.
    """
    _check_batch(specs, f.dims)
    for spec, phi in zip(specs, fields, strict=True):
        _check_conforms(spec, phi)
    bases = np.stack([phi.basis for phi in fields])
    loads = np.stack([spec.xi for spec in specs])
    objective = _CellObjective(specs[0], bases, f.eval, None, loads, f.sample)
    return objective.energies(np.stack([phi.coeffs for phi in fields]))


def energy_of_field(f: Integrand, spec: CellProblemSpec, phi: CorrectorField) -> float:
    """Cell average of f(y, xi + grad phi) over element centers."""
    return float(energy_of_fields(f, [spec], [phi])[0])


def solve_cell_batch(f: Integrand, specs: list[CellProblemSpec]) -> list[CellSolveResult]:
    """Minimize the cell energy of every spec; the specs share grid and solver settings.

    A quadratic density runs the specs in conjugate-gradient solves of up to
    ``BATCH_ELEMENTS`` elements whose rows stop one by one; each result is
    bit-identical to ``solve_cell`` of its spec alone.  Any other density is
    solved one spec at a time.
    """
    specs = list(specs)
    if not specs:
        return []
    _check_batch(specs, f.dims)
    rows = max(1, BATCH_ELEMENTS // specs[0].grid().n_elements) if f.quadratic else 1
    if len(specs) > rows:
        chunks = [specs[k : k + rows] for k in range(0, len(specs), rows)]
        return [res for chunk in chunks for res in solve_cell_batch(f, chunk)]
    bases = np.stack([spec.manifold.tangent_basis(spec.s) for spec in specs])
    loads = np.stack([spec.xi for spec in specs])
    return _run_solver(
        specs,
        lambda mu: _CellObjective(specs[0], bases, *f.solver_forms(mu), loads, f.sample),
        quadratic=f.quadratic,
        smoothing=f.p == 1,
        exact_eval=f.eval,
    )


def solve_cell(f: Integrand, spec: CellProblemSpec) -> CellSolveResult:
    """Minimize the cell energy over tangent-valued correctors.

    Deterministic: the corrector starts from zero.  The reported value is the
    exact (unsmoothed) energy of the returned corrector, so it is always an
    upper bound for the discrete minimum.  A non-finite value is reported
    unconverged.  The batch of one of ``solve_cell_batch``.
    """
    return solve_cell_batch(f, [spec])[0]


def solve_cell_unconstrained(
    fext: ExtendedIntegrand, spec: CellProblemSpec
) -> CellSolveResult:
    """Minimize the extended density over unconstrained ambient correctors.

    The corrector carries full R^d nodal values; the base point is fixed from
    the spec.  Used to verify that tangentially constrained and extended
    minima coincide.
    """
    _check_batch([spec], fext.dims)
    basis = np.eye(fext.dims[1])[None]
    s = spec.s

    def fixed_s_objective(mu: float) -> _CellObjective:
        ev, gr = fext.solver_forms(mu)
        return _CellObjective(
            spec, basis, lambda y, xi: ev(y, s, xi), lambda y, xi: gr(y, s, xi),
            sample=fext.sample,
        )

    return _run_solver(
        [spec],
        fixed_s_objective,
        quadratic=fext.quadratic,
        smoothing=fext.p == 1,
        exact_eval=lambda y, xi: fext.eval(y, s, xi),
    )[0]


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
