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
corrector.  ``g0`` is read from the loads, which are the ambient gradient of
the zero corrector on every element, so no field gradient is evaluated for
it.  Every other density runs quasi-Newton descent under the same
preconditioner ``P`` in every smoothing stage, measuring the gradient as
``sqrt(g^T P g)`` against the same target.  A solve samples the density's
coefficients once (``Integrand.sample``), for the forms of every stage; a
conjugate-gradient step costs one Hessian action ``grad(d) - g0`` on the rows
still running, and the exact density is evaluated once per solve, for the
reported value.

Problems that share a manifold, a grid and solver settings form a
``CellBatch``: base points (B, d) and loads (B, d, N), validated once by
array checks.  ``solve_cell_batch`` runs them, whatever the density, as the
rows of solves of up to ``BATCH_ELEMENTS`` elements, each row with its own
step length, stopping target and stop flag; a row that has stopped is no
longer evaluated, by either minimizer, while the others go on, so every row
ends exactly as a solve of its problem alone.  It returns
the rows as arrays (``CellBatchResult``).  ``CellProblemSpec`` is one problem,
the public type, and ``solve_cell`` its batch of one.
``solve_cell_unconstrained`` runs an extended density the same way, each row
at its own base point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from functools import partial

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
    nodes_per_period: int, boundary: str, tol_grad: float, max_iters: int | None, huber_mu: float
) -> None:
    """Raise ``ValueError`` for settings no cell solve accepts."""
    if nodes_per_period < 2:
        raise ValueError("need at least 2 nodes per period")
    if boundary not in BOUNDARIES:
        raise ValueError(f"boundary must be one of {BOUNDARIES}")
    for name, value in (("tol_grad", tol_grad), ("huber_mu", huber_mu)):
        if not 0 < value < math.inf:  # NaN fails too
            raise ValueError(f"{name} must be positive and finite, got {value}")
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
        check_solve_settings(
            self.nodes_per_period, self.boundary, self.tol_grad, self.max_iters, self.huber_mu
        )
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
    tangent bases (of the identity for ``solve_cell_unconstrained``).
    ``converged``: the solver's test passed and the value is finite.
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
    """Discrete cell energies and assembled gradients of a batch of problems of density ``f``.

    Row ``b`` has the tangent basis ``bases[b]`` (m x d) and the load
    ``loads[b]`` (d x N; the batch's loads when None) on ``batch``'s grid.
    An extended density's forms take base points as well: ``points`` (B, d)
    gives row ``b`` the point ``points[b]``.  Packed unknowns are (b, n): the
    rows ``rows`` of the batch, given by their indices or a slice (every row
    by default), each computed as it would be alone.  The density's
    coefficients are sampled at the element centers once, here
    (``f.sample``).  ``value_and_grad`` and ``grad`` take the (value,
    gradient) ``forms`` of a solver stage (``f.solver_forms(mu)``);
    ``energies`` evaluates the exact density ``f.eval``.
    """

    def __init__(
        self,
        batch: CellBatch,
        bases: np.ndarray,
        f: Integrand | ExtendedIntegrand,
        loads: np.ndarray | None = None,
        points: np.ndarray | None = None,
    ):
        self.grid = batch.grid()
        bases = np.asarray(bases, dtype=float)
        self.bases = bases.reshape((-1,) + bases.shape[-2:])
        self.batch, self.m = self.bases.shape[:2]
        loads = batch.loads if loads is None else np.asarray(loads, dtype=float)
        # Loads and points broadcast against the (b, *elements, d, N) ambient gradients.
        lead = (self.batch,) + (1,) * batch.ndim
        self.loads = loads.reshape(lead + loads.shape[-2:])
        self.points = None if points is None else points.reshape(lead + points.shape[-1:])
        self.f = f
        self.y = f.sample(self.grid.centers())
        self.node_shape = self.grid.node_shape
        self.dirichlet = batch.boundary == DIRICHLET
        if self.dirichlet:
            self.interior = (slice(None), slice(None)) + self.grid.interior()
            self.nodes = tuple(k - 2 for k in self.node_shape)
        else:
            self.nodes = self.node_shape
        self.n_unknowns = self.m * math.prod(self.nodes)

    def unpack(self, x: np.ndarray) -> np.ndarray:
        """Nodal fields (b, m, *nodes) of packed unknowns."""
        if not self.dirichlet:
            return x.reshape((len(x), self.m) + self.node_shape)
        V = np.zeros((len(x), self.m) + self.node_shape)
        V[self.interior] = x.reshape((len(x), self.m) + self.nodes)
        return V

    def pack(self, V: np.ndarray) -> np.ndarray:
        if self.dirichlet:
            V = V[self.interior]
        return V.reshape(len(V), -1)

    def project_gauge(self, x: np.ndarray) -> np.ndarray:
        """Remove each row's per-channel nodal mean (periodic translation null space)."""
        if self.dirichlet:
            return x
        V = self.unpack(x)
        mean = V.mean(axis=tuple(range(2, V.ndim)), keepdims=True)
        return (V - mean).reshape(x.shape)

    def _forms_args(self, rows) -> tuple:
        """The arguments before the gradient of the forms at ``rows``: centers, and base points."""
        return (self.y,) if self.points is None else (self.y, self.points[rows])

    def ambient_gradient(self, V: np.ndarray, rows=slice(None)) -> np.ndarray:
        # On 2-D grids the einsum returns (b, *elements, d, N) laid out planar,
        # as (b, d, N, *elements) in memory, and the forms' outputs follow that
        # layout.  It is load-bearing: at n = 256 the laminate's grad_xi takes
        # 0.26 ms on it and 2.1 ms on a C-ordered copy (2 vCPUs, numpy 2.4).
        amb = np.einsum("bmd,bmn...->b...dn", self.bases[rows], self.grid.center_gradient(V))
        amb += self.loads[rows]
        return amb

    def energies(self, V: np.ndarray) -> np.ndarray:
        """Cell average of each row's exact density at the nodal fields ``V``, shape (B,)."""
        vals = self.f.eval(*self._forms_args(slice(None)), self.ambient_gradient(V))
        return vals.reshape(len(V), -1).mean(axis=1)

    def _assembled(self, df: np.ndarray, rows) -> np.ndarray:
        """Gradient in the packed unknowns of the density gradients ``df`` at ``rows``."""
        W = np.einsum("bmd,b...dn->bmn...", self.bases[rows], df)
        del df  # the adjoint's temporaries need not sit beside it
        W /= self.grid.n_elements
        return self.pack(self.grid.center_gradient_adjoint(W))

    def load_gradient(self, forms: tuple) -> np.ndarray:
        """``grad(forms, x)`` of every row at the zero corrector ``x``, read from the loads.

        There the einsum of ``ambient_gradient`` adds up +0.0 terms, whatever
        the sign of the bases, so the ambient gradient is exactly ``loads +
        0.0`` (-0.0 entries read +0.0) on every element.  The forms get it as
        a read-only broadcast view.  Its zero strides on the element axes lay
        the arrays the forms make from it out planar, (b, d, N, *elements) in
        memory, as ``ambient_gradient`` does on 2-D grids.
        """
        shape = (self.batch,) + self.grid.element_shape + self.loads.shape[-2:]
        amb = np.broadcast_to(self.loads + 0.0, shape)
        return self._assembled(forms[1](*self._forms_args(slice(None)), amb), slice(None))

    def value_and_grad(self, forms: tuple, x: np.ndarray, rows=slice(None)) -> tuple:
        """Energies and gradients at the packed unknowns ``x`` of ``rows``, under ``forms``."""
        ev, gr = forms
        args = self._forms_args(rows)
        amb = self.ambient_gradient(self.unpack(x), rows)
        energies = ev(*args, amb).reshape(len(x), -1).mean(axis=1)
        return energies, self._assembled(gr(*args, amb), rows)

    def grad(self, forms: tuple, x: np.ndarray, rows=slice(None)) -> np.ndarray:
        """``value_and_grad(forms, x, rows)[1]`` without evaluating the density."""
        amb = self.ambient_gradient(self.unpack(x), rows)
        return self._assembled(forms[1](*self._forms_args(rows), amb), rows)


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


def _run_solver(batch: CellBatch, objective: _CellObjective) -> CellBatchResult:
    """Minimize the cell energy of ``objective.f`` from the zero corrector, one row per problem.

    Every row stops on its own target, ``tol_grad * (1 + |g0|)`` for its
    gradient ``g0`` at the zero corrector under the final forms
    ``f.solver_forms(huber_mu)``, and is no longer evaluated while the other
    rows go on.  ``g0`` is read from the loads (``load_gradient``), bit for
    bit the gradient an evaluation of the zero field gives.  A quadratic
    density runs all rows in one preconditioned conjugate-gradient solve,
    whose Hessian action ``grad(v, rows) - g0[rows]`` covers the rows still
    running.  Every other density runs them as the rows of quasi-Newton
    descents under the same preconditioner; at linear growth (p = 1) the rows
    first solve the forms of decreasing mu, warm started, each to its own
    looser stage target.  Correctors come back gauge fixed
    (``project_gauge``), with their exact energies.
    """
    f = objective.f
    forms = f.solver_forms(batch.huber_mu)
    g0 = objective.load_gradient(forms)
    target = batch.tol_grad * (1.0 + np.sqrt(np.vecdot(g0, g0)))
    # Precondition each channel by the unit-coefficient stiffness, for any
    # stack of rows: iterations then track the contrast, not n.
    inverse = objective.grid.stiffness_inverse()
    channels = (-1, objective.m) + objective.nodes

    def precondition(v):
        return inverse(v.reshape(channels)).reshape(v.shape)

    if f.quadratic:
        max_iters = batch.max_iters or max(1000, 2 * objective.n_unknowns)

        def apply_h(v, rows):
            return objective.grad(forms, v, rows) - g0[rows]

        project = None if objective.dirichlet else objective.project_gauge
        res = cg_quadratic(
            apply_h, g0, target, max_iters, project=project, precondition=precondition
        )
        iterations = res.row_iterations
    else:
        max_iters = batch.max_iters or 5000
        stage_target = np.maximum(100.0 * target, 1e-6)
        stages = _continuation_schedule(batch.huber_mu)[:-1] if f.p == 1 else []
        x = np.zeros(g0.shape)
        iterations = 0
        for mu in stages:
            stage_res = lbfgs(
                partial(objective.value_and_grad, f.solver_forms(mu)), x, stage_target,
                min(800, max_iters), precondition,
            )
            x = stage_res.x
            iterations += stage_res.row_iterations
        res = lbfgs(partial(objective.value_and_grad, forms), x, target, max_iters, precondition)
        iterations += res.row_iterations

    V = objective.unpack(objective.project_gauge(res.x))
    return CellBatchResult(
        values=objective.energies(V),
        iterations=iterations,
        grad_norms=res.row_grad_norms,
        solver_converged=res.row_converged,
        coeffs=V,
    )


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
    return _CellObjective(batch, bases, f).energies(coeffs)


def energy_of_field(f: Integrand, spec: CellProblemSpec, phi: CorrectorField) -> float:
    """Cell average of f(y, xi + grad phi) over element centers."""
    if phi.boundary != spec.boundary or phi.t != spec.t:
        raise ShapeMismatch("corrector boundary/size metadata disagrees with the spec")
    return float(energy_of_fields(f, spec.batch, phi.coeffs[None], phi.basis[None])[0])


def _solve_in_parts(
    f, batch: CellBatch, bases: np.ndarray, points: np.ndarray | None = None
) -> CellBatchResult:
    """Minimize the cell energy of every row of ``batch`` over correctors in ``bases`` (B, m, d).

    The rows run in solves of up to ``BATCH_ELEMENTS`` elements, whose rows
    stop one by one.  ``points`` (B, d), when given, are the base points that
    the forms of an extended density ``f`` take.
    """
    _check_dims(batch, f.dims)
    size = max(1, BATCH_ELEMENTS // batch.grid().n_elements)
    parts = []
    for k in range(0, len(batch), size):
        rows = slice(k, k + size)
        part_points = None if points is None else points[rows]
        objective = _CellObjective(batch, bases[rows], f, batch.loads[rows], part_points)
        parts.append(_run_solver(batch, objective))
    if len(parts) == 1:
        return parts[0]
    return CellBatchResult(
        *(np.concatenate([getattr(p, a.name) for p in parts]) for a in fields(CellBatchResult))
    )


def solve_cell_batch(f: Integrand, batch: CellBatch) -> CellBatchResult:
    """Minimize the cell energy of every row of ``batch`` over tangent-valued correctors.

    Each row is bit-identical to ``solve_cell`` of its problem alone.
    """
    return _solve_in_parts(f, batch, batch.bases)


def solve_cell(f: Integrand, spec: CellProblemSpec) -> CellSolveResult:
    """Minimize the cell energy over tangent-valued correctors.

    Deterministic: the corrector starts from zero.  The reported value is the
    exact (unsmoothed) energy of the returned corrector, so it is always an
    upper bound for the discrete minimum.  A non-finite value is reported
    unconverged.  The batch of one of ``solve_cell_batch``.
    """
    rows = solve_cell_batch(f, spec.batch)
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
    corrector = CorrectorField(
        rows.coeffs[0], spec.batch.bases[0], spec.boundary, spec.t, spec.nodes_per_period
    )
    return CellSolveResult(value, corrector, iterations, warning is None, grad_norm, warning)


def solve_cell_unconstrained(fext: ExtendedIntegrand, batch: CellBatch) -> CellBatchResult:
    """Minimize the extended density of every row over unconstrained ambient correctors.

    Row ``b`` fixes the base point ``batch.points[b]``; its corrector carries
    full R^d nodal values.  The rows split as in ``solve_cell_batch``, each
    bit-identical to a batch of its row alone.  Used to verify that
    tangentially constrained and extended minima coincide.
    """
    d = fext.dims[1]
    return _solve_in_parts(fext, batch, np.broadcast_to(np.eye(d), (len(batch), d, d)), batch.points)


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
