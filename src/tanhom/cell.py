"""Discretize and minimize corrector cell problems on cubes (0, t)^N.

The corrector lives in tangent coordinates: the tangent space at the base
point is a fixed linear subspace, so the manifold-constrained problem is an
unconstrained minimization over m scalar nodal fields, m the intrinsic
dimension.  Q1 elements with one-point quadrature at element centers; for
even nodes-per-period counts the centers never touch coefficient breakpoints
on grid lines.  A cube side of t periods has n elements per period (h = 1/n).
Zero-boundary correctors store (t n + 1)^N nodes, periodic ones (t n)^N nodes
and wrap.  The reported energy is the mean of the density over element centers.

Quadratic densities are solved by conjugate gradients preconditioned, channel
by channel, with the inverse unit-coefficient stiffness
(``UniformGrid.stiffness_inverse``), so the iteration count follows the
coefficient contrast, not the grid.  A row stops once its plain gradient norm
is at most ``tol_grad * (1 + |g0|)``, ``g0`` the gradient at the zero
corrector.  Every other density runs quasi-Newton descent under the same
preconditioner ``P`` in every smoothing stage, measuring the gradient as
``sqrt(g^T P g)`` against the same target.  Each objective samples the
density's coefficients once (``Integrand.sample``); a conjugate-gradient step
costs one Hessian action ``grad(d) - g0``, and the density itself is
evaluated once per solve, for the reported value.

Problems that share a manifold, a grid and solver settings form a
``CellBatch``: base points (B, d) and loads (B, d, N), validated once by
array checks.  ``solve_cell_batch`` runs them as the rows of one
conjugate-gradient solve, each with its own step length, stopping target and
stop flag; a row that has stopped stays frozen while the others go on, so
every row ends exactly as a solve of its problem alone.  It returns the rows
as arrays (``CellBatchResult``).  ``CellProblemSpec`` is one problem, the
public type, and ``solve_cell`` its batch of one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
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


def check_rows(manifold: EmbeddedManifold, points: np.ndarray, loads: np.ndarray) -> np.ndarray:
    """Tangent bases (B, m, d) of valid rows; raise at the first invalid one.

    Points (B, d) must lie on the manifold (``check_points``), loads (B, d, N)
    be finite with columns tangent at their row's point, to ``TANGENT_TOL``
    relative to the column size.  Tests read ``not res <= tol``: NaN fails.
    """
    d = manifold.ambient_dim
    if points.ndim != 2 or not len(points):
        raise ShapeMismatch(f"points must be a (B, {d}) array with B >= 1, got {points.shape}")
    if loads.ndim != 3 or loads.shape[:2] != (len(points), d):
        raise ShapeMismatch(f"loads must be a ({len(points)}, {d}, N) array, got {loads.shape}")
    manifold.check_points(points)
    finite = np.isfinite(loads).all(axis=(1, 2))
    if not finite.all():
        raise NotTangent(f"row {np.argmin(finite)}: load is not finite")
    bases = manifold.tangent_bases(points)
    res = manifold.tangency_residuals(points, loads, bases)
    bad = np.flatnonzero(~(res <= TANGENT_TOL))
    if bad.size:
        raise NotTangent(f"row {bad[0]}: load has a normal component of relative size {res[bad[0]]:.3e}")
    return bases


@dataclass(frozen=True)
class CellBatch:
    """Cell problems that share a manifold, a grid and solver settings.

    Row ``b`` has the base point ``points[b]`` of (B, d) and the load
    ``loads[b]`` of (B, d, N), its columns tangent at that point.  Linear
    growth is smoothed down to ``huber_mu``.  Validated once, by array checks
    (``check_rows``); ``bases`` keeps the tangent bases (B, m, d) they made.
    """

    manifold: EmbeddedManifold
    points: np.ndarray
    loads: np.ndarray
    t: int = 1
    nodes_per_period: int = 16
    boundary: str = DIRICHLET
    tol_grad: float = 1e-8
    max_iters: int | None = None
    huber_mu: float = 1e-4
    bases: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if int(self.t) != self.t or self.t < 1:
            raise ValueError("cube side t must be a positive integer")
        object.__setattr__(self, "t", int(self.t))
        check_solve_settings(self.nodes_per_period, self.boundary, self.tol_grad, self.max_iters)
        points = np.asarray(self.points, dtype=float)
        loads = np.asarray(self.loads, dtype=float)
        object.__setattr__(self, "bases", check_rows(self.manifold, points, loads))
        object.__setattr__(self, "points", points)
        object.__setattr__(self, "loads", loads)

    def __len__(self) -> int:
        return len(self.points)

    @property
    def ndim(self) -> int:
        return self.loads.shape[2]

    def grid(self) -> UniformGrid:
        n = self.nodes_per_period
        return UniformGrid(self.ndim, self.t * n, 1.0 / n, self.boundary == PERIODIC)


@dataclass(frozen=True)
class CellProblemSpec:
    """One corrector cell problem: base point ``s`` and a d x N load ``xi`` tangent at it.

    ``batch`` is its validated ``CellBatch`` of one row.
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
    batch: CellBatch = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "s", np.asarray(self.s, dtype=float))
        object.__setattr__(self, "xi", np.asarray(self.xi, dtype=float))
        batch = CellBatch(
            self.manifold, self.s[None], self.xi[None], self.t, self.nodes_per_period,
            self.boundary, self.tol_grad, self.max_iters, self.huber_mu,
        )
        object.__setattr__(self, "t", batch.t)
        object.__setattr__(self, "batch", batch)

    @property
    def ndim(self) -> int:
        return self.xi.shape[1]

    def grid(self) -> UniformGrid:
        return self.batch.grid()


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


@dataclass
class CellBatchResult:
    """The rows of a batched cell solve, as arrays along the batch axis.

    ``coeffs`` (B, m, *nodes) holds the correctors in the rows of the batch's
    tangent bases.  ``converged``: the solver's test passed and the value is finite.
    """

    values: np.ndarray
    iterations: np.ndarray
    grad_norms: np.ndarray
    solver_converged: np.ndarray
    coeffs: np.ndarray

    @property
    def converged(self) -> np.ndarray:
        return self.solver_converged & np.isfinite(self.values)


class _CellObjective:
    """Discrete cell energies and assembled gradients of a batch of problems.

    Row ``b`` has the tangent basis ``bases[b]`` (m x d) and the load
    ``loads[b]`` (d x N; the batch's loads when None) on ``batch``'s grid.
    Packed unknowns are (B, n); a 1-D ``x`` is a batch of one, valued as a
    float.  Every operator broadcasts over the batch axis, so each row is
    computed as it would be alone.  The forms see ``sample(centers)``, taken
    once here (raw centers when ``sample`` is None).
    """

    def __init__(
        self,
        batch: CellBatch,
        bases: np.ndarray,
        eval_fn: Callable,
        grad_fn: Callable | None,
        loads: np.ndarray | None = None,
        sample: Callable | None = None,
    ):
        self.grid = batch.grid()
        bases = np.asarray(bases, dtype=float)
        self.bases = bases.reshape((-1,) + bases.shape[-2:])
        self.batch, self.m = self.bases.shape[:2]
        loads = batch.loads if loads is None else np.asarray(loads, dtype=float)
        # Loads broadcast against the (B, *elements, d, N) ambient gradients.
        self.loads = loads.reshape((self.batch,) + (1,) * batch.ndim + loads.shape[-2:])
        self.eval_fn = eval_fn
        self.grad_fn = grad_fn
        centers = self.grid.centers()
        self.y = centers if sample is None else sample(centers)
        self.node_shape = self.grid.node_shape
        self.dirichlet = batch.boundary == DIRICHLET
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


def _check_dims(batch: CellBatch, dims: tuple[int, int]) -> None:
    """Raise ``ShapeMismatch`` unless the batch's loads are (d, N) matrices for ``dims = (N, d)``."""
    N, d = dims
    if batch.loads.shape[1:] != (d, N):
        raise ShapeMismatch(f"loads have shape {batch.loads.shape[1:]}, integrand expects {(d, N)}")


def _run_solver(
    batch: CellBatch,
    make_objective: Callable[[float], _CellObjective],
    quadratic: bool,
    smoothing: bool,
    exact_eval: Callable,
) -> CellBatchResult:
    """Minimize ``make_objective(huber_mu)`` from the zero corrector, one row per problem.

    Quadratic densities run all rows in one preconditioned conjugate-gradient
    solve, each row frozen once it meets its own target.  Everything else is
    quasi-Newton descent on one problem under the same preconditioner; with
    ``smoothing`` (linear growth) it first solves ``make_objective(mu)`` for
    decreasing mu, warm started.  Values are exact energies under ``exact_eval``.
    """
    objective = make_objective(batch.huber_mu)
    x = np.zeros((objective.batch, objective.n_unknowns))
    g0 = objective.grad(x)
    # Precondition each channel by the unit-coefficient stiffness, for rows
    # (B, n) and vectors (n,): iterations then track the contrast, not n.
    inverse = objective.grid.stiffness_inverse()
    channels = (-1,) + objective.unknown_shape[1:]

    def precondition(v):
        return inverse(v.reshape(channels)).reshape(v.shape)

    if quadratic:
        max_iters = batch.max_iters or max(1000, 2 * objective.n_unknowns)

        def apply_h(v):
            return objective.grad(v) - g0

        project = None if objective.dirichlet else objective.project_gauge
        res = cg_quadratic(
            apply_h, g0, batch.tol_grad, max_iters, project=project, precondition=precondition
        )
        solved = res.x
        rows = (res.row_iterations, res.row_grad_norms, res.row_converged)
    else:
        # One problem.  The stopping target is anchored at the zero corrector
        # of the final objective, the contract of the conjugate-gradient path.
        max_iters = batch.max_iters or 5000
        final_target = batch.tol_grad * (1.0 + float(np.linalg.norm(g0)))
        stage_target = max(100.0 * final_target, 1e-6)
        stages = _continuation_schedule(batch.huber_mu)[:-1] if smoothing else []
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
        rows = ([res.iterations + total_iters], [res.grad_norm], [res.converged])

    V = objective.unpack(solved)
    if not objective.dirichlet:
        # Gauge fix: periodic correctors are reported with zero nodal mean.
        V = V - V.mean(axis=tuple(range(2, V.ndim)), keepdims=True)
    iterations, grad_norms, solver_ok = rows
    return CellBatchResult(
        values=objective.energies(V, exact_eval),
        iterations=np.asarray(iterations, dtype=int),
        grad_norms=np.asarray(grad_norms, dtype=float),
        solver_converged=np.asarray(solver_ok, dtype=bool),
        coeffs=V,
    )


def _lone_result(rows: CellBatchResult, spec: CellProblemSpec, basis: np.ndarray) -> CellSolveResult:
    """The ``CellSolveResult`` of a batch of one, its corrector in the rows of ``basis``."""
    value, grad_norm = float(rows.values[0]), float(rows.grad_norms[0])
    iterations = int(rows.iterations[0])
    warning = None
    if not rows.solver_converged[0]:
        warning = (
            f"solver stopped after {iterations} iterations with gradient "
            f"norm {grad_norm:.3e} above tolerance"
        )
    elif not math.isfinite(value):
        warning = f"cell energy is not finite ({value})"
    corrector = CorrectorField(rows.coeffs[0], basis, spec.boundary, spec.t, spec.nodes_per_period)
    return CellSolveResult(value, corrector, iterations, warning is None, grad_norm, warning)


def energy_of_fields(
    f: Integrand, batch: CellBatch, coeffs: np.ndarray, bases: np.ndarray | None = None
) -> np.ndarray:
    """Cell averages of f(y, loads[b] + grad phi_b), one per row of ``batch``, in one evaluation.

    ``coeffs`` (B, m, *nodes) holds each row's corrector in the rows of
    ``bases`` (B, m, d), the batch's tangent bases when None.  Zero-boundary
    correctors must vanish on every face.
    """
    _check_dims(batch, f.dims)
    bases = batch.bases if bases is None else np.asarray(bases, dtype=float)
    coeffs = np.asarray(coeffs, dtype=float)
    grid = batch.grid()
    expected = (len(batch), bases.shape[1]) + grid.node_shape
    if coeffs.shape != expected:
        raise ShapeMismatch(f"correctors have shape {coeffs.shape}, the batch grid needs {expected}")
    if bases.shape[::2] != (len(batch), batch.manifold.ambient_dim):
        raise ShapeMismatch("corrector bases do not live in the ambient space")
    if batch.boundary == DIRICHLET and np.any(coeffs[:, :, grid.boundary_mask()]):
        raise ShapeMismatch("zero-boundary corrector has nonzero boundary values")
    return _CellObjective(batch, bases, f.eval, None, sample=f.sample).energies(coeffs)


def energy_of_field(f: Integrand, spec: CellProblemSpec, phi: CorrectorField) -> float:
    """Cell average of f(y, xi + grad phi) over element centers."""
    if phi.boundary != spec.boundary or phi.t != spec.t:
        raise ShapeMismatch("corrector boundary/size metadata disagrees with the spec")
    return float(energy_of_fields(f, spec.batch, phi.coeffs[None], phi.basis[None])[0])


def solve_cell_batch(f: Integrand, batch: CellBatch) -> CellBatchResult:
    """Minimize the cell energy of every row of ``batch``.

    A quadratic density runs the rows in conjugate-gradient solves of up to
    ``BATCH_ELEMENTS`` elements whose rows stop one by one; each row is
    bit-identical to ``solve_cell`` of its problem alone.  Any other density
    is solved one row at a time.
    """
    _check_dims(batch, f.dims)
    size = max(1, BATCH_ELEMENTS // batch.grid().n_elements) if f.quadratic else 1
    parts = []
    for k in range(0, len(batch), size):
        bases, loads = batch.bases[k : k + size], batch.loads[k : k + size]
        parts.append(
            _run_solver(
                batch,
                lambda mu: _CellObjective(batch, bases, *f.solver_forms(mu), loads, f.sample),
                quadratic=f.quadratic,
                smoothing=f.p == 1,
                exact_eval=f.eval,
            )
        )
    if len(parts) == 1:
        return parts[0]
    return CellBatchResult(
        *(np.concatenate([getattr(p, a.name) for p in parts]) for a in fields(CellBatchResult))
    )


def solve_cell(f: Integrand, spec: CellProblemSpec) -> CellSolveResult:
    """Minimize the cell energy over tangent-valued correctors.

    Deterministic: the corrector starts from zero.  The reported value is the
    exact (unsmoothed) energy of the returned corrector, so it is always an
    upper bound for the discrete minimum.  A non-finite value is reported
    unconverged.  The batch of one of ``solve_cell_batch``.
    """
    return _lone_result(solve_cell_batch(f, spec.batch), spec, spec.batch.bases[0])


def solve_cell_unconstrained(
    fext: ExtendedIntegrand, spec: CellProblemSpec
) -> CellSolveResult:
    """Minimize the extended density over unconstrained ambient correctors.

    The corrector carries full R^d nodal values; the base point is fixed from
    the spec.  Used to verify that tangentially constrained and extended
    minima coincide.
    """
    _check_dims(spec.batch, fext.dims)
    basis = np.eye(fext.dims[1])[None]
    s = spec.s

    def fixed_s_objective(mu: float) -> _CellObjective:
        ev, gr = fext.solver_forms(mu)
        return _CellObjective(
            spec.batch, basis, lambda y, xi: ev(y, s, xi), lambda y, xi: gr(y, s, xi),
            sample=fext.sample,
        )

    rows = _run_solver(
        spec.batch,
        fixed_s_objective,
        quadratic=fext.quadratic,
        smoothing=fext.p == 1,
        exact_eval=lambda y, xi: fext.eval(y, s, xi),
    )
    return _lone_result(rows, spec, basis[0])


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
