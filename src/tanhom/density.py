"""Homogenized-density evaluation, closed-form references and verifiers.

``tf_hom_batch`` solves many (base point, gradient) pairs as one
``CellBatch`` per cube size and reports each pair's last value with its
convergence trace; ``tf_hom`` is its batch of one, and each verifier puts
every gradient it evaluates into one such query.  For laminate densities on
the circle the effective coefficients are known exactly (harmonic mean in the
oscillation direction, arithmetic mean across it), the independent reference
of the test suite.  Density tables sample the homogenized density on an angle
x coefficient grid.  A quadratic density's table comes from one corrector per
gradient column and angle, each angle a row of one batched solve, and keeps
the effective tensor per angle; every other density's table is one
``tf_hom_batch`` over every (angle, entry) pair.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from functools import cached_property, partial
from typing import Iterable

import numpy as np

from .artifacts import json_field, read_csv, read_json, write_columns, write_json
from .cell import (
    DIRICHLET,
    PERIODIC,
    CellBatch,
    check_rows,
    check_solve_settings,
    energy_of_fields,
    solve_cell_batch,
    solve_cell_unconstrained,
)
from .errors import (
    GrowthViolation, MalformedArtifact, ShapeMismatch, as_integer, as_list, as_number, as_text, of_json_type
)
from .grid import UniformGrid
from .integrand import Integrand, StepProfile, growth_gaps, make_fbar, make_g_extension
from .manifold import EmbeddedManifold, Sphere, circle_point

# Quasiconvexity trials: elements per side of their grid on the unit cube, and
# the residual tolerance relative to 1 + |xi|^2.
TRIAL_GRID = 4
QUASICONVEXITY_TOL = 1e-3


@dataclass(frozen=True)
class TfOptions:
    """Options threaded from the density drivers into the cell solver."""

    t_list: tuple[int, ...] = (1, 2, 4)
    n: int = 16
    boundary: str = DIRICHLET
    rel_tol: float = 5e-3
    tol_grad: float = 1e-8
    max_iters: int | None = None
    huber_mu: float = 1e-4

    def __post_init__(self):
        object.__setattr__(self, "t_list", tuple(int(t) for t in self.t_list))
        if not self.t_list:
            raise ValueError("t_list must not be empty")
        if not 0 <= self.rel_tol < math.inf:  # NaN fails too
            raise ValueError(f"rel_tol must be nonnegative and finite, got {self.rel_tol}")
        check_solve_settings(self.n, self.boundary, self.tol_grad, self.max_iters, self.huber_mu)

    def cell_batch(self, M, points, loads, t) -> CellBatch:
        """``CellBatch(M, points, loads)`` on the cube of side ``t``, with these settings."""
        return CellBatch(
            M, points, loads, t, self.n, self.boundary, self.tol_grad, self.max_iters, self.huber_mu
        )


@dataclass
class TfTraceEntry:
    t: int
    value: float
    iterations: int
    converged: bool


@dataclass
class TfHomResult:
    value: float
    trace: list[TfTraceEntry]
    rel_change: float
    converged: bool
    solver_converged: bool

    @property
    def values(self) -> list[float]:
        return [e.value for e in self.trace]


def tf_hom(
    f: Integrand,
    M: EmbeddedManifold,
    s,
    xi,
    opts: TfOptions | None = None,
) -> TfHomResult:
    """Estimate the tangentially homogenized density at (s, xi).

    Runs the cell solver for every cube size in ``opts.t_list`` and returns
    the last value.  If the relative change between the last two sizes
    exceeds ``rel_tol``, or the value is not finite, the result is flagged
    unconverged but still returned.
    No extrapolation is applied; a flat trace is the expected signature for
    the convex shipped examples.  The batch of one of ``tf_hom_batch``.
    """
    return tf_hom_batch(f, M, [s], [xi], opts)[0]


def tf_hom_batch(
    f: Integrand, M: EmbeddedManifold, points, loads, opts: TfOptions | None = None
) -> list[TfHomResult]:
    """``tf_hom`` at every pair ``(points[b], loads[b])``, one result per pair.

    ``points`` stacks to (B, d) and ``loads`` to (B, d, N).  Each cube size
    in ``opts.t_list`` is one ``solve_cell_batch`` over all pairs, so every
    result has the bits ``tf_hom`` gives its pair alone.
    """
    opts = opts or TfOptions()
    points = np.asarray(points, dtype=float)
    loads = np.asarray(loads, dtype=float)
    if len(points) != len(loads):
        raise ValueError(f"{len(points)} base points but {len(loads)} loads")
    if not len(points):
        return []
    per_size = [solve_cell_batch(f, opts.cell_batch(M, points, loads, t)) for t in opts.t_list]
    rel, ok = _trace_verdict(np.array([rows.values for rows in per_size]), opts.rel_tol)
    per_t = [
        [
            TfTraceEntry(t, *entry)
            for entry in zip(rows.values.tolist(), rows.iterations.tolist(), rows.converged.tolist())
        ]
        for t, rows in zip(opts.t_list, per_size)
    ]
    return [
        TfHomResult(trace[-1].value, list(trace), rel_b, ok_b, all(e.converged for e in trace))
        for trace, rel_b, ok_b in zip(zip(*per_t), rel.tolist(), ok.tolist())
    ]


def _trace_verdict(values, rel_tol: float):
    """(relative change, converged) of values listed by increasing cube size.

    The change is between the last two sizes (0 for a single size), relative
    to 1 + |last|; converged needs it at most ``rel_tol`` and a finite last
    value.  Works elementwise when the values are arrays.
    """
    last = values[-1]
    if len(values) >= 2:
        rel = np.abs(last - values[-2]) / (1.0 + np.abs(last))
    else:
        rel = np.zeros_like(last)
    return rel, (rel <= rel_tol) & np.isfinite(last)


# -- closed-form laminate reference ------------------------------------------


def _merged_weight(a: StepProfile, b: StepProfile, s1sq: float, s2sq: float):
    """Piecewise-constant weight a(t) s2^2 + b(t) s1^2 with exact intervals."""
    edges = np.unique(np.concatenate(([0.0], a.breakpoints, b.breakpoints, [1.0])))
    mids = 0.5 * (edges[:-1] + edges[1:])
    vals = a(mids) * s2sq + b(mids) * s1sq
    lengths = np.diff(edges)
    return vals, lengths


def laminate_oracle(a: StepProfile, b: StepProfile, s, xi) -> float:
    """Exact homogenized value for the circle-valued laminate.

    The weight seen along the oscillation direction is the piecewise-constant
    ``a(t) s2^2 + b(t) s1^2``; the first gradient column feels its harmonic
    mean, every other column its arithmetic mean.  Integrals are evaluated in
    closed form from the step profiles.
    """
    s, xi = np.asarray(s, dtype=float), np.asarray(xi, dtype=float)
    check_rows(Sphere(2), s[None], xi[None])
    vals, lengths = _merged_weight(a, b, s[0] ** 2, s[1] ** 2)
    harmonic = 1.0 / float(np.dot(lengths, 1.0 / vals))
    arithmetic = float(np.dot(lengths, vals))
    col_sq = np.sum(xi * xi, axis=0)
    weights = np.full(xi.shape[1], arithmetic)
    weights[0] = harmonic
    return float(np.dot(weights, col_sq))


# -- verifiers ----------------------------------------------------------------


@dataclass
class EquivalenceEntry:
    s: np.ndarray
    xi: np.ndarray
    constrained: float
    unconstrained: float
    rel_gap: float


@dataclass
class EquivalenceReport:
    extension: str
    entries: list[EquivalenceEntry]

    @property
    def max_rel_gap(self) -> float:
        return max((e.rel_gap for e in self.entries), default=0.0)


def verify_equivalence_fbar(
    f: Integrand,
    M: EmbeddedManifold,
    samples: Iterable[tuple[np.ndarray, np.ndarray]],
    opts: TfOptions | None = None,
    delta0: float = 0.5,
) -> EquivalenceReport:
    """Compare tangentially constrained and extended unconstrained cell minima.

    The constrained values of all samples come from one ``tf_hom_batch``;
    the unconstrained ones from one ``solve_cell_unconstrained`` of the
    matching extension over full ambient correctors, on the grid of the
    largest cube, the one whose value ``tf_hom`` reports.  Superlinear growth
    uses the tangent-projection extension; linear growth uses the ambient
    cutoff extension (solved through its smoothed forms, evaluated unsmoothed).
    """
    opts = opts or TfOptions()
    if f.p == 1:
        ext, ext_name = make_g_extension(f, M, delta0), "ambient_cutoff"
    else:
        ext, ext_name = make_fbar(f, M), "tangent_projection"

    samples = [(np.asarray(s), np.asarray(xi)) for s, xi in samples]
    if not samples:
        return EquivalenceReport(extension=ext_name, entries=[])
    points, loads = zip(*samples)
    constrained = tf_hom_batch(f, M, points, loads, opts)
    unconstrained = solve_cell_unconstrained(ext, opts.cell_batch(M, points, loads, opts.t_list[-1]))
    entries = [
        EquivalenceEntry(s, xi, res.value, value_u, abs(res.value - value_u) / (1.0 + abs(res.value)))
        for (s, xi), res, value_u in zip(samples, constrained, unconstrained.values.tolist())
    ]
    return EquivalenceReport(extension=ext_name, entries=entries)


@dataclass
class QuasiconvexityReport:
    s: np.ndarray
    xi: np.ndarray
    reference: float
    residuals: np.ndarray
    tolerance: float

    @property
    def max_residual(self) -> float:
        return float(np.max(self.residuals)) if self.residuals.size else 0.0

    @property
    def passed(self) -> bool:
        return self.max_residual <= self.tolerance


def check_tangential_quasiconvexity(
    f: Integrand,
    M: EmbeddedManifold,
    s,
    xi,
    trial_count: int,
    seed: int,
    opts: TfOptions | None = None,
) -> QuasiconvexityReport:
    """Jensen-type test of the homogenized density against trial fields.

    Draws compactly supported piecewise-multilinear tangent-valued trials on
    a ``TRIAL_GRID`` grid of the unit cube (interior nodal coordinates uniform
    in [-1, 1]), evaluates the reference and every trial's element-center
    gradients in one ``tf_hom_batch``, and reports each residual reference -
    average.
    Nonpositive residuals, up to ``QUASICONVEXITY_TOL * (1 + |xi|^2)`` of
    solver noise, certify the inequality; the zero trial gives residual
    exactly zero.
    """
    opts = opts or TfOptions()
    s = M.check_point(s)
    xi = np.asarray(xi, dtype=float)
    basis = M.tangent_basis(s)
    grid = UniformGrid(xi.shape[1], TRIAL_GRID, 1.0 / TRIAL_GRID, periodic=False)
    rng = np.random.default_rng(seed)

    # Trial 0 stays zero, an exact identity check; the others draw in trial order.
    V = np.zeros((trial_count, M.intrinsic_dim) + grid.node_shape)
    interior = (slice(1, None), slice(None)) + grid.interior()
    V[interior] = rng.uniform(-1.0, 1.0, size=V[interior].shape)
    amb = xi + np.einsum("md,tmn...->t...dn", basis, grid.center_gradient(V))
    loads = np.concatenate([xi[None], amb.reshape(-1, *xi.shape)])
    points = np.broadcast_to(s, (len(loads), len(s)))
    values = np.array([res.value for res in tf_hom_batch(f, M, points, loads, opts)])
    reference = float(values[0])
    residuals = reference - values[1:].reshape(trial_count, grid.n_elements).mean(axis=1)
    tol = QUASICONVEXITY_TOL * (1.0 + float(np.sum(xi * xi)))
    return QuasiconvexityReport(s, xi, reference, residuals, tol)


@dataclass
class GrowthLipschitzReport:
    samples: int
    fitted_constant: float
    ratios: np.ndarray
    sandwich_lower_margin: float
    sandwich_upper_margin: float


def check_growth_lipschitz(
    f: Integrand,
    M: EmbeddedManifold,
    sample_count: int,
    seed: int,
    opts: TfOptions | None = None,
    coeff_radius: float = 5.0,
) -> GrowthLipschitzReport:
    """Sandwich and Lipschitz-in-xi diagnostics of the homogenized density.

    Every sampled value must lie in the declared growth sandwich, as
    ``integrand.growth_gaps`` decides it (rounding allowance included, a NaN
    value never inside); an escape raises ``GrowthViolation``, since it can
    only come from a solver defect.  The reported margins are the raw gaps,
    without the allowance.  For pairs at a shared base point the ratio
    |dv| / ((1 + |xi|^{p-1} + |xi'|^{p-1}) |xi - xi'|) is collected and its
    maximum reported as the fitted constant.  Samples are drawn one at a
    time, so a longer run extends a shorter one with the same seed; one
    ``tf_hom_batch`` evaluates them all, and the first escaping load in row
    order (pair by pair) raises.
    """
    opts = opts or TfOptions()
    rng = np.random.default_rng(seed)
    shape = (M.intrinsic_dim, f.dims[0])

    samples = []
    for _ in range(sample_count):
        s = M.random_point(rng)
        z = rng.standard_normal(shape)
        z *= rng.uniform(0.0, coeff_radius) / max(float(np.linalg.norm(z)), 1e-12)
        direction = rng.standard_normal(shape)
        direction /= max(float(np.linalg.norm(direction)), 1e-12)
        radius = 10.0 ** rng.uniform(-3.0, np.log10(2.0))
        samples.append((s, z, z + radius * direction))

    # Rows 2i and 2i + 1 are the pair of sample i, at its base point.
    points = np.repeat([s for s, _, _ in samples], 2, axis=0).reshape(-1, M.ambient_dim)
    coeffs = np.array([pair for _, *pair in samples]).reshape((-1,) + shape)
    loads = np.matmul(M.tangent_bases(points).transpose(0, 2, 1), coeffs)
    values = np.array([res.value for res in tf_hom_batch(f, M, points, loads, opts)])
    # Norms and powers one load at a time: an array power may round differently.
    norms = np.array([float(np.linalg.norm(xi)) for xi in loads])
    lower_gap, upper_gap, within = growth_gaps(f, [n**f.p for n in norms.tolist()], values)
    if not within.all():
        first = int(np.argmin(within))
        raise GrowthViolation(
            f"homogenized value {values[first]:.6g} escapes the sandwich at |xi| = {norms[first]:.4g}",
            sample=(points[first], loads[first]),
        )

    dist = np.array([float(np.linalg.norm(step)) for step in loads[0::2] - loads[1::2]])
    growth = np.array([n ** (f.p - 1.0) for n in norms.tolist()])
    moved = dist > 0.0
    denom = (1.0 + growth[0::2] + growth[1::2]) * dist
    ratios = np.abs(values[0::2] - values[1::2])[moved] / denom[moved]
    return GrowthLipschitzReport(
        samples=sample_count,
        fitted_constant=float(np.max(ratios, initial=0.0)),
        ratios=ratios,
        sandwich_lower_margin=float(np.max(lower_gap, initial=-np.inf)),
        sandwich_upper_margin=float(np.max(upper_gap, initial=-np.inf)),
    )


# -- density tables -----------------------------------------------------------

@dataclass(frozen=True)
class CoefficientLattice:
    """Uniform lattice of tangent coefficients applied to every column."""

    minimum: float
    maximum: float
    count: int

    def __post_init__(self):
        if self.count < 0:
            raise ValueError("lattice count must be nonnegative")
        if not (math.isfinite(self.minimum) and math.isfinite(self.maximum)):
            raise ValueError(f"lattice bounds must be finite, got {self.minimum}, {self.maximum}")
        if self.count > 1 and self.maximum <= self.minimum:
            raise ValueError("lattice needs maximum > minimum")

    def values(self) -> np.ndarray:
        return np.linspace(self.minimum, self.maximum, self.count)


@dataclass
class DensityTable:
    """Homogenized-density samples on an angle x coefficient grid of the circle.

    ``values`` has shape (len(thetas), *[len(axis) for each gradient column]).
    Interpolation is multilinear, periodic in the angle, clamping in the
    coefficients.  ``rel_changes`` stores the final trace change per entry;
    the saved files keep only its maximum over the entries that have one
    (NaN when every entry failed), which a loaded table gives to every
    entry.  A quadratic density's table also keeps ``tensor``, shape
    (len(thetas), N, N): the effective tensor ``A(theta_i)`` with entry
    ``z`` equal to ``z^T A(theta_i) z``; every other table has None.
    """

    thetas: np.ndarray
    coeff_axes: tuple[np.ndarray, ...]
    values: np.ndarray
    converged: np.ndarray
    rel_changes: np.ndarray
    p: float
    alpha: float
    beta: float
    integrand_config: dict = field(default_factory=dict)
    manifold_config: dict = field(default_factory=dict)
    t_list: tuple[int, ...] = (1,)
    nodes_per_period: int = 16
    boundary: str = PERIODIC
    entry_errors: list[str] = field(default_factory=list)
    tensor: np.ndarray | None = None

    @property
    def n_columns(self) -> int:
        return len(self.coeff_axes)

    @property
    def failed_entries(self) -> int:
        """Entries whose solve failed: recorded errors or non-finite values."""
        return max(len(self.entry_errors), int(np.count_nonzero(~np.isfinite(self.values))))

    def interpolate(self, theta, coeffs):
        """Multilinear lookup at angles ``theta`` and coefficients ``coeffs``.

        ``coeffs`` has shape (..., n_columns); out-of-range coefficients are
        clamped to the table edge.  Corners of zero weight are skipped, so a
        non-finite entry only reaches the lookups that weigh it.
        """
        theta = np.asarray(theta, dtype=float)
        coeffs = np.asarray(coeffs, dtype=float)
        if coeffs.shape[-1] != self.n_columns:
            raise ShapeMismatch(
                f"expected {self.n_columns} coefficient columns, got {coeffs.shape[-1]}"
            )
        S = len(self.thetas)
        step = 2.0 * np.pi / S
        pos = np.mod(theta, 2.0 * np.pi) / step
        i0 = np.floor(pos).astype(int) % S
        w_theta = pos - np.floor(pos)

        out_shape = np.broadcast(theta, coeffs[..., 0]).shape
        idx_lo: list[np.ndarray] = []
        weights: list[np.ndarray] = []
        for c, axis in enumerate(self.coeff_axes):
            q = np.minimum(np.maximum(coeffs[..., c], axis[0]), axis[-1])
            j = np.searchsorted(axis, q, side="right") - 1
            j = np.minimum(np.maximum(j, 0), max(len(axis) - 2, 0))
            if len(axis) > 1:
                w = (q - axis[j]) / (axis[j + 1] - axis[j])
            else:
                w = np.zeros_like(q)
            idx_lo.append(j)
            weights.append(w)

        # Gather through flat indices; each corner builds its own index and
        # weight arrays, so only one corner's temporaries are alive at a time.
        flat = self.values.reshape(-1)
        strides = [math.prod(self.values.shape[k + 1 :]) for k in range(1 + self.n_columns)]
        out = np.zeros(out_shape)
        for corner in itertools.product((0, 1), repeat=1 + self.n_columns):
            w_total = w_theta if corner[0] else 1.0 - w_theta
            index = (i0 + corner[0]) % S * strides[0]
            for c in range(self.n_columns):
                j = idx_lo[c]
                if corner[1 + c]:
                    j = np.minimum(j + 1, len(self.coeff_axes[c]) - 1)
                    w_total = w_total * weights[c]
                else:
                    w_total = w_total * (1.0 - weights[c])
                index = index + j * strides[1 + c]
            # A zero-weight corner adds nothing, even where its entry is NaN.
            vals = np.asarray(flat.take(index), dtype=float)
            vals *= w_total
            vals[w_total == 0.0] = 0.0
            out += vals
        return out

    @cached_property
    def _tensor_modes(self) -> np.ndarray:
        """Fourier coefficients of ``tensor`` over the angles, one per mode, computed once."""
        S = len(self.thetas)
        modes = np.fft.rfft(self.tensor, axis=0) / S
        # Modes 1 .. ceil(S/2) - 1 stand for conjugate pairs; an even S's Nyquist mode does not.
        modes[1 : (S + 1) // 2] *= 2.0
        return modes

    def quadratic_form(self, theta, z):
        """``z^T A(theta) z`` for ``theta`` (...), ``z`` (..., N), and its derivatives in both.

        Exact in ``z``; ``A`` is the trigonometric interpolant of ``tensor``
        (``np.fft.rfft`` of the samples, taken once per table), summed mode
        by mode, so no points x modes array is formed.
        """
        theta = np.asarray(theta, dtype=float)
        z = np.asarray(z, dtype=float)
        A = np.zeros(theta.shape + self.tensor.shape[1:])
        dA = np.zeros_like(A)
        for k, mode in enumerate(self._tensor_modes):
            cos = np.cos(k * theta)[..., None, None]
            sin = np.sin(k * theta)[..., None, None]
            A += mode.real * cos - mode.imag * sin
            dA -= k * (mode.real * sin + mode.imag * cos)
        Az = np.einsum("...cd,...d->...c", A, z)
        value = np.einsum("...c,...c->...", z, Az)
        d_theta = np.einsum("...c,...cd,...d->...", z, dA, z)
        return value, d_theta, 2.0 * Az

    def check_sandwich(self) -> tuple[bool, float, float]:
        """Sandwich check on every entry, as ``integrand.growth_gaps`` decides it.

        An entry passes when it lies within ``1e-12 * (1 + |bound|)`` of the
        inside of both bounds, which absorbs the last-digit error of the
        table's own arithmetic; a non-finite entry fails.  Returns (ok, worst
        lower margin, worst upper margin) over the finite entries; positive
        margins mean an entry lies outside a bound.
        """
        norm = np.sqrt(np.sum([g**2 for g in np.meshgrid(*self.coeff_axes, indexing="ij")], axis=0))
        lo, hi, within = growth_gaps(self, norm**self.p, self.values)
        finite = np.isfinite(self.values)
        lo_m = float(np.max(lo[finite], initial=-np.inf))
        hi_m = float(np.max(hi[finite], initial=-np.inf))
        return bool(np.all(within)), lo_m, hi_m

    # -- serialization --------------------------------------------------------

    def _max_rel_change(self) -> float:
        """Largest recorded relative change: NaN when every entry failed, 0 for no entries."""
        known = self.rel_changes[~np.isnan(self.rel_changes)]
        if known.size:
            return float(np.max(known))
        return math.nan if self.rel_changes.size else 0.0

    def metadata(self) -> dict:
        return {
            "s_count": int(len(self.thetas)),
            "coeff_axes": [[float(v) for v in ax] for ax in self.coeff_axes],
            "p": self.p,
            "alpha": self.alpha,
            "beta": self.beta,
            "integrand": self.integrand_config,
            "manifold": self.manifold_config,
            "t_list": list(self.t_list),
            "nodes_per_period": self.nodes_per_period,
            "boundary": self.boundary,
            "max_rel_change": self._max_rel_change(),
            "entry_errors": self.entry_errors,
            "tensor": None if self.tensor is None else self.tensor.tolist(),
        }

    def save(self, csv_path, json_path) -> None:
        header = ["s0", "s1"] + [f"z{c}" for c in range(self.n_columns)] + ["value", "converged"]
        points = np.array([circle_point(theta) for theta in self.thetas]).reshape(-1, 2)
        grid = np.meshgrid(np.arange(len(self.thetas)), *self.coeff_axes, indexing="ij")
        angle, *coeffs = (g.ravel() for g in grid)
        columns = [*points[angle].T, *coeffs, self.values.ravel(), self.converged.ravel()]
        write_columns(csv_path, header, columns)
        write_json(json_path, self.metadata())

    @classmethod
    def load(cls, csv_path, json_path) -> "DensityTable":
        """Read a saved table back, checking every CSV row against the metadata grid.

        Raises ``MalformedArtifact`` when the metadata are not JSON, lack a
        key that ``metadata`` writes or hold it with another JSON type, when
        the row count, the column count or any ``s0, s1, z*`` coordinate (to
        1e-12) disagrees with the grid, or when a finite value is off the
        tensor's form by more than ``1e-12 |z|^T |A| |z|``.  Metadata keep
        their JSON types, so load then save reproduces the bytes.
        """
        read = partial(json_field, json_path, read_json(json_path))
        axes = read("coeff_axes", lambda axes: as_list(axes, lambda ax: np.array(as_list(ax, as_number))))
        s_count = read("s_count", as_integer)
        shape = (s_count,) + tuple(len(ax) for ax in axes)
        thetas = 2.0 * np.pi * np.arange(s_count) / s_count
        grids = [g.ravel() for g in np.meshgrid(thetas, *axes, indexing="ij")]
        expected = np.column_stack([np.cos(grids[0]), np.sin(grids[0])] + grids[1:])
        _, data = read_csv(csv_path)
        if data.shape != (expected.shape[0], expected.shape[1] + 2):
            raise MalformedArtifact(
                f"{csv_path}: {data.shape[0]} rows of {data.shape[1]} columns, the "
                f"metadata grid needs {expected.shape[0]} rows of {expected.shape[1] + 2}"
            )
        off_grid = ~np.all(np.abs(data[:, :-2] - expected) <= 1e-12, axis=1)
        if off_grid.any():
            raise MalformedArtifact(
                f"{csv_path}: row {int(np.argmax(off_grid)) + 1} is not at its grid point"
            )
        values = np.ascontiguousarray(data[:, -2].reshape(shape))
        tensor = read("tensor", lambda tensor: None if tensor is None else np.asarray(tensor, dtype=float))
        if tensor is not None:
            if tensor.shape != (s_count, len(axes), len(axes)):
                raise MalformedArtifact(f"{json_path}: tensor shape {tensor.shape} off the grid")
            Z = np.stack(np.meshgrid(*axes, indexing="ij"))
            form = np.einsum("c...,icd,d...->i...", Z, tensor, Z)
            bound = 1e-12 * np.einsum("c...,icd,d...->i...", abs(Z), abs(tensor), abs(Z))
            off = np.isfinite(values) & ~(np.abs(values - form) <= bound)
            if off.any():
                raise MalformedArtifact(f"{csv_path}: row {np.argmax(off) + 1} is off the tensor")
        return cls(
            thetas=thetas,
            coeff_axes=axes,
            values=values,
            converged=(data[:, -1] == 1.0).reshape(shape),
            rel_changes=np.full(shape, read("max_rel_change", as_number)),
            p=read("p", of_json_type((int, float), "a number")),
            alpha=read("alpha", as_number),
            beta=read("beta", as_number),
            integrand_config=read("integrand", of_json_type(dict, "a JSON object")),
            manifold_config=read("manifold", of_json_type(dict, "a JSON object")),
            t_list=read("t_list", lambda ts: as_list(ts, as_integer)),
            nodes_per_period=read("nodes_per_period", as_integer),
            boundary=read("boundary", as_text),
            entry_errors=list(read("entry_errors", lambda errors: as_list(errors, as_text))),
            tensor=tensor,
        )


def check_angle_count(s_count: int) -> None:
    """Raise ``ValueError`` unless a density table gets at least one angle."""
    if s_count < 1:
        raise ValueError("need at least one angle")


def check_circle(M: EmbeddedManifold) -> None:
    """Raise ``ValueError`` unless ``M`` is the circle S^1, where tables and experiments live."""
    if not isinstance(M, Sphere) or M.ambient_dim != 2:
        raise ValueError("density tables and experiments live on the circle S^1 (sphere, d = 2)")


def _column_energies(
    f: Integrand, M: EmbeddedManifold, points: np.ndarray, scale: float, t: int, opts: TfOptions,
) -> tuple[np.ndarray, np.ndarray]:
    """Energy matrices (P, N, N) of a quadratic density's column correctors, and their flags (P, N).

    At every row of ``points`` (P, d), column ``c`` is loaded with tangent
    coefficient ``scale`` in column ``c`` and 0 elsewhere; all ``P * N``
    loads are one ``solve_cell_batch``.  Entry (c, c) is a column corrector's
    exact energy; entry (c, e) follows by polarization from the summed
    corrector under the summed load, all points in one evaluation per pair.
    Each matrix is ``scale**2`` times the effective tensor at its point.
    """
    N = f.dims[0]
    P, d = points.shape
    # loads[p, c] = B_p^T (scale e_c^T): the tangent matrix of coefficients scale e_c.
    unit = scale * np.eye(N)[:, None, :]
    loads = np.matmul(M.tangent_bases(points).transpose(0, 2, 1)[:, None], unit)
    solves = solve_cell_batch(f, opts.cell_batch(M, points.repeat(N, axis=0), loads.reshape(-1, d, N), t))
    energies = np.zeros((P, N, N))
    energies[:, range(N), range(N)] = solves.values.reshape(P, N)
    coeffs = solves.coeffs.reshape((P, N) + solves.coeffs.shape[1:])
    for c, e in itertools.combinations(range(N), 2):
        pair = opts.cell_batch(M, points, loads[:, c] + loads[:, e], t)
        cross = energy_of_fields(f, pair, coeffs[:, c] + coeffs[:, e])
        cross = cross - energies[:, c, c] - energies[:, e, e]
        energies[:, c, e] = energies[:, e, c] = 0.5 * cross
    return energies, solves.converged.reshape(P, N)


def build_density_table(
    f: Integrand,
    M: EmbeddedManifold,
    s_count: int,
    lattice: CoefficientLattice,
    opts: TfOptions | None = None,
) -> DensityTable:
    """Sample the homogenized density on a uniform angle x coefficient grid.

    A quadratic density (``f.quadratic``) has cell minimizers linear in the
    gradient, so at each angle it is the quadratic form of an effective
    tensor.  Per cube size, ``_column_energies`` solves one corrector
    ``phi_c`` per angle and column at the load ``z_max`` (the largest
    |coefficient| on the lattice, or 1 when that is 0), all of them rows of
    one ``solve_cell_batch``.  Entry ``z`` is ``z^T A z / z_max**2``, the
    exact energy of ``sum_c (z_c / z_max) phi_c`` under the load ``z``; the
    table keeps ``A / z_max**2`` of the largest cube size as ``tensor`` (NaN
    at an angle whose solve raised).

    Stopping targets: the CG residual and the load gradient ``g0`` are both
    linear in the load.  For N = 1 the entry's residual is therefore
    ``|z| / z_max`` times the column residual, which keeps it within its own
    target ``tol_grad * (1 + |g0|)``, as a direct ``tf_hom`` solve would be.
    For N > 1 the bound used is the triangle inequality: the entry's residual
    is at most ``sum_c (|z_c| / z_max) * tol_grad * (1 + |g0_c|)``, the
    column targets weighted by ``|z_c| / z_max <= 1``.  That is at most N
    times the largest column target, and it can exceed the entry's own
    target where the column loads cancel in ``g0``.

    Relative changes and convergence flags follow from the per-size values
    as in ``tf_hom``.  An entry also needs the column solves it uses
    (``z_c != 0``) converged at every size; the zero entry uses none, as its
    direct solve stops at once.  If a batched solve raises, every angle is
    solved again as a batch of its own, and each angle whose solve raises
    fails whole.

    Every other density solves every (angle, entry) pair as a row of one
    ``tf_hom_batch``, each with the bits of its own ``tf_hom``.  If that
    raises, every entry is solved again alone, and a failure fails that entry
    alone.  Failures are recorded (value NaN, converged False) without
    aborting the sweep.
    """
    check_circle(M)
    check_angle_count(s_count)
    opts = opts or TfOptions()
    N, d = f.dims

    thetas = 2.0 * np.pi * np.arange(s_count) / s_count
    axis = lattice.values()
    axes = tuple(axis.copy() for _ in range(N))
    shape = (s_count,) + (len(axis),) * N
    values = np.full(shape, np.nan)
    converged = np.zeros(shape, dtype=bool)
    rel_changes = np.full(shape, np.nan)
    tensor = np.full((s_count, N, N), np.nan) if f.quadratic else None
    errors: list[str] = []
    scale = float(np.max(np.abs(axis), initial=0.0)) or 1.0
    weights = np.stack(np.meshgrid(*axes, indexing="ij")) / scale
    points = np.array([circle_point(theta) for theta in thetas])

    def fill(angles: list[int], per_t: list[tuple[np.ndarray, np.ndarray]]) -> None:
        """Write the entries of ``angles`` from their per-size energy matrices and flags."""
        tensor[angles] = per_t[-1][0] / scale**2
        per_size = [np.einsum("c...,icd,d...->i...", weights, A, weights) for A, _ in per_t]
        rel, ok = _trace_verdict(per_size, opts.rel_tol)
        values[angles] = per_size[-1]
        rel_changes[angles] = rel
        solved = np.all([flags for _, flags in per_t], axis=0)
        solved = solved.reshape((len(angles), N) + (1,) * N)
        converged[angles] = ok & np.all(solved | (weights == 0.0), axis=1)

    # An empty lattice has no entry to fill, so nothing is solved.
    if f.quadratic and axis.size:
        try:
            per_t = [_column_energies(f, M, points, scale, t, opts) for t in opts.t_list]
        except Exception:  # isolate the failing angles: each alone, as a batch of one
            for i in range(s_count):
                try:
                    per_t = [
                        _column_energies(f, M, points[i : i + 1], scale, t, opts)
                        for t in opts.t_list
                    ]
                except Exception as exc:  # recorded per angle, sweep continues
                    errors.append(f"angle theta_index={i}: {exc}")
                    continue
                fill([i], per_t)
        else:
            fill(list(range(s_count)), per_t)
    elif axis.size:
        # Entry (i, idx) is row i * count^N + flat(idx): its load is the
        # tangent basis at angle i times the coefficients (1, N) of idx.
        coeffs = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, 1, N)
        tangents = M.tangent_bases(points).transpose(0, 2, 1)[:, None]
        loads = np.matmul(tangents, coeffs).reshape(-1, d, N)
        entry_points = np.repeat(points, len(coeffs), axis=0)
        entries = list(np.ndindex(shape))
        try:
            outcomes = tf_hom_batch(f, M, entry_points, loads, opts)
        except Exception:  # isolate the failing entries: each alone, as a batch of one
            outcomes = []
            for (i, *idx), s, xi in zip(entries, entry_points, loads):
                try:
                    outcomes.append(tf_hom(f, M, s, xi, opts))
                except Exception as exc:  # recorded per entry, sweep continues
                    errors.append(f"entry theta_index={i} idx={tuple(idx)}: {exc}")
                    outcomes.append(None)
        for entry, outcome in zip(entries, outcomes):
            if outcome is not None:
                values[entry] = outcome.value
                converged[entry] = outcome.converged and outcome.solver_converged
                rel_changes[entry] = outcome.rel_change

    return DensityTable(
        thetas=thetas,
        coeff_axes=axes,
        values=values,
        converged=converged,
        rel_changes=rel_changes,
        p=f.p,
        alpha=f.alpha,
        beta=f.beta,
        integrand_config=dict(f.describe),
        manifold_config={"kind": "sphere", "d": 2},
        t_list=opts.t_list,
        nodes_per_period=opts.n,
        boundary=opts.boundary,
        entry_errors=errors,
        tensor=tensor,
    )
