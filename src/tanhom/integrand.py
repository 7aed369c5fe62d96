"""Periodic energy densities with declared growth data, plus their extensions.

An integrand is a callable pair (value, gradient) over (y, xi) together with
its growth exponent p and two-sided growth constants.  All callables are
vectorized: ``y`` has shape (..., N), ``xi`` has shape (..., d, N) and values
come back with shape (...,).  The leading batch axes are what make the cell
solver fast, so custom integrands must follow the same convention.

A solver evaluates a density many times at the same points ``y`` (the element
centers of its grid).  ``Integrand.sample(y)`` reads the density's
y-dependent coefficients there once, and every form of the integrand
(``eval``, ``grad_xi`` and the smoothed pair) accepts the sample in place of
``y`` and reads the stored coefficients instead of looking them up again; the
values are bit for bit those at the raw points.  ``np.asarray`` of a sample
gives the points back, so a form that only knows raw points still reads it
correctly.  A custom integrand built from bare ``(y, xi)`` callables declares
no ``coefficients``, and its sample is ``y`` itself: nothing changes for it.

Two extension constructions are provided for a fixed base point on the
manifold: one that projects the gradient argument onto the tangent space and
penalizes the normal remainder with its p-th power, and a linear-growth
variant defined on the whole ambient space through a cutoff of the
nearest-point projection.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import (
    ConfigError,
    HypothesisViolated,
    InvalidProfile,
    UnsupportedGrowth,
    as_integer,
    as_list,
    as_number,
    check_keys,
    config_value,
)
from .manifold import EmbeddedManifold


@dataclass(frozen=True)
class StepProfile:
    """1-periodic piecewise-constant profile on [0, 1).

    ``breakpoints`` are the interior cut points in (0, 1), strictly increasing;
    ``values`` has one entry per interval, so ``len(values) == len(breakpoints) + 1``.
    """

    breakpoints: tuple[float, ...]
    values: tuple[float, ...]

    def __post_init__(self):
        breaks = tuple(float(b) for b in self.breakpoints)
        vals = tuple(float(v) for v in self.values)
        object.__setattr__(self, "breakpoints", breaks)
        object.__setattr__(self, "values", vals)
        # Lookup arrays, built once; they are not dataclass fields.
        object.__setattr__(self, "_break_array", np.array(breaks, dtype=float))
        object.__setattr__(self, "_value_array", np.array(vals, dtype=float))
        if len(vals) != len(breaks) + 1:
            raise InvalidProfile(
                f"need {len(breaks) + 1} values for {len(breaks)} breakpoints, got {len(vals)}"
            )
        if not all(0 < v < math.inf for v in vals):  # NaN fails too
            raise InvalidProfile("profile values must be positive and finite")
        if any(not (0.0 < b < 1.0) for b in breaks):
            raise InvalidProfile("breakpoints must lie strictly inside (0, 1)")
        if any(b2 <= b1 for b1, b2 in zip(breaks, breaks[1:])):
            raise InvalidProfile("breakpoints must be strictly increasing")

    @classmethod
    def constant(cls, value: float) -> "StepProfile":
        return cls((), (value,))

    def __call__(self, y):
        y = np.asarray(y, dtype=float)
        frac = y - np.floor(y)
        return self._value_array[np.searchsorted(self._break_array, frac, side="right")]

    def min_value(self) -> float:
        return min(self.values)

    def max_value(self) -> float:
        return max(self.values)

    def _interval_lengths(self) -> np.ndarray:
        edges = np.concatenate(([0.0], self.breakpoints, [1.0]))
        return np.diff(edges)

    def integral(self) -> float:
        """Exact value of the integral over one period."""
        return float(np.dot(self._interval_lengths(), self.values))

    def reciprocal_integral(self) -> float:
        """Exact value of the integral of 1/profile over one period."""
        return float(np.dot(self._interval_lengths(), 1.0 / self._value_array))

    def to_config(self) -> dict:
        return {"breaks": list(self.breakpoints), "values": list(self.values)}


class CoefficientSample:
    """Points ``y`` with the coefficients that one ``coefficients`` sampler reads there."""

    __slots__ = ("points", "sampler", "values")

    def __init__(self, points, sampler: Callable):
        self.points = np.asarray(points, dtype=float)
        self.sampler = sampler
        self.values = sampler(self.points)

    def __array__(self, dtype=None, copy=None):
        points = np.asarray(self.points, dtype=dtype)
        return points.copy() if copy else points


def coefficients_at(y, sampler: Callable):
    """``sampler(y)``, read from ``y`` when it is a sample that ``sampler`` took."""
    if isinstance(y, CoefficientSample) and y.sampler is sampler:
        return y.values
    return sampler(np.asarray(y, dtype=float))


@dataclass(frozen=True)
class Integrand:
    """Periodic energy density f(y, xi) with declared growth data.

    ``eval`` and ``grad_xi`` follow the batched convention described in the
    module docstring.  ``smoothed``, when present, maps a regularization
    parameter mu to a (value, gradient) pair usable by gradient-based solvers
    when the exact density is nonsmooth (linear growth).  ``coefficients``,
    when present, maps points y to the y-dependent coefficients that the
    forms read through ``coefficients_at``; see ``sample``.
    """

    eval: Callable
    p: float
    alpha: float
    beta: float
    dims: tuple[int, int]  # (N, d)
    grad_xi: Callable | None = None
    lipschitz_L: float | None = None
    quadratic: bool = False
    smoothed: Callable[[float], tuple[Callable, Callable]] | None = None
    describe: dict = field(default_factory=dict)
    coefficients: Callable | None = None

    def __post_init__(self):
        if min(self.dims) < 1:
            raise ValueError(f"dims (N, d) must be at least 1, got {self.dims}")
        if self.p < 1:
            raise UnsupportedGrowth("growth exponent must satisfy p >= 1")
        if self.alpha <= 0 or self.beta < self.alpha:
            raise ValueError("growth constants must satisfy 0 < alpha <= beta")
        if self.p == 1 and self.lipschitz_L is None:
            raise ValueError("linear-growth integrands must declare lipschitz_L")

    def sample(self, y):
        """``y`` with the coefficients sampled once, for forms evaluated there repeatedly.

        Every form accepts the result in place of ``y``; it is ``y`` itself
        when the integrand declares no ``coefficients``.
        """
        return y if self.coefficients is None else CoefficientSample(y, self.coefficients)

    def gradient(self, y, xi, h: float = 1e-6):
        """Analytic gradient when available, central differences otherwise."""
        if self.grad_xi is not None:
            return self.grad_xi(y, xi)
        return finite_difference_grad(self, y, xi, h)

    def solver_forms(self, mu: float) -> tuple[Callable, Callable]:
        """(value, gradient) pair for minimization; smoothed when declared.

        Without an analytic gradient the pair falls back to ``gradient``'s
        central differences.
        """
        if self.smoothed is not None:
            return self.smoothed(mu)
        return self.eval, self.grad_xi or self.gradient


def finite_difference_grad(f: Integrand, y, xi, h: float = 1e-6) -> np.ndarray:
    """Central-difference gradient of f in xi, entry by entry."""
    if h <= 0:
        raise ValueError("finite difference step must be positive")
    xi = np.asarray(xi, dtype=float)
    grad = np.empty_like(xi)
    d, n = xi.shape[-2:]
    for a in range(d):
        for j in range(n):
            bump = np.zeros_like(xi)
            bump[..., a, j] = h
            grad[..., a, j] = (f.eval(y, xi + bump) - f.eval(y, xi - bump)) / (2.0 * h)
    return grad


def make_isotropic_quadratic(N: int, d: int) -> Integrand:
    """Constant-coefficient density |xi|^2 (squared Frobenius norm)."""

    def ev(y, xi):
        xi = np.asarray(xi, dtype=float)
        return np.sum(xi * xi, axis=(-2, -1))

    def gr(y, xi):
        return 2.0 * np.asarray(xi, dtype=float)

    return Integrand(
        eval=ev,
        grad_xi=gr,
        p=2,
        alpha=1.0,
        beta=1.0,
        dims=(N, d),
        quadratic=True,
        describe={"kind": "isotropic_quadratic", "N": N, "d": d},
    )


def make_laminate_quadratic(a: StepProfile, b: StepProfile, N: int) -> Integrand:
    """Rank-one laminate on R^{2 x N}: sum_j a(y_1) xi_{1j}^2 + b(y_1) xi_{2j}^2.

    The coefficients oscillate in the first coordinate only, which is the
    classical setting where harmonic and arithmetic means give the effective
    behavior in closed form.
    """

    def coefficients(y):
        return a(y[..., 0]), b(y[..., 0])

    def ev(y, xi):
        wa, wb = coefficients_at(y, coefficients)
        xi = np.asarray(xi, dtype=float)
        return wa * np.sum(xi[..., 0, :] ** 2, axis=-1) + wb * np.sum(
            xi[..., 1, :] ** 2, axis=-1
        )

    def gr(y, xi):
        wa, wb = coefficients_at(y, coefficients)
        xi = np.asarray(xi, dtype=float)
        out = np.empty_like(xi)
        np.multiply(2.0 * wa[..., None], xi[..., 0, :], out=out[..., 0, :])
        np.multiply(2.0 * wb[..., None], xi[..., 1, :], out=out[..., 1, :])
        return out

    alpha = min(a.min_value(), b.min_value())
    beta = max(a.max_value(), b.max_value())
    return Integrand(
        eval=ev,
        grad_xi=gr,
        p=2,
        alpha=alpha,
        beta=beta,
        dims=(N, 2),
        quadratic=True,
        describe={"kind": "laminate", "a": a.to_config(), "b": b.to_config(), "N": N},
        coefficients=coefficients,
    )


def _huber(r, mu):
    """C^1 regularization of r -> r for r >= 0; exact beyond mu, bias <= mu/2."""
    r = np.asarray(r, dtype=float)
    return np.where(r <= mu, r * r / (2.0 * mu), r - 0.5 * mu)


def make_norm_linear(c: StepProfile, N: int, d: int = 2) -> Integrand:
    """Linear-growth density c(y_1) |xi| with |.| the Frobenius norm."""

    def coefficients(y):
        return c(y[..., 0])

    def ev(y, xi):
        xi = np.asarray(xi, dtype=float)
        return coefficients_at(y, coefficients) * np.sqrt(np.sum(xi * xi, axis=(-2, -1)))

    def gr(y, xi):
        xi = np.asarray(xi, dtype=float)
        norm = np.sqrt(np.sum(xi * xi, axis=(-2, -1)))
        safe = np.maximum(norm, 1e-300)
        return (coefficients_at(y, coefficients) / safe)[..., None, None] * xi

    def smoothed(mu):
        def ev_mu(y, xi):
            xi = np.asarray(xi, dtype=float)
            norm = np.sqrt(np.sum(xi * xi, axis=(-2, -1)))
            return coefficients_at(y, coefficients) * _huber(norm, mu)

        def gr_mu(y, xi):
            xi = np.asarray(xi, dtype=float)
            norm = np.sqrt(np.sum(xi * xi, axis=(-2, -1)))
            return (coefficients_at(y, coefficients) / np.maximum(norm, mu))[..., None, None] * xi

        return ev_mu, gr_mu

    return Integrand(
        eval=ev,
        grad_xi=gr,
        p=1,
        alpha=c.min_value(),
        beta=c.max_value(),
        dims=(N, d),
        lipschitz_L=c.max_value(),
        smoothed=smoothed,
        describe={"kind": "norm_linear", "c": c.to_config(), "N": N, "d": d},
        coefficients=coefficients,
    )


@dataclass(frozen=True)
class ExtendedIntegrand:
    """Density (y, s, xi) -> value for a base point s, with derived growth data.

    Every form takes stacked base points (..., d), broadcast against y (..., N)
    and xi (..., d, N), each point with the bits it has alone.
    ``alpha`` and ``beta`` are growth constants of the extension itself; they
    are derived from the base integrand, not quoted from anywhere.  The
    optional Lipschitz fields are recorded for the ambient-space extension.
    """

    eval: Callable
    grad_xi: Callable
    p: float
    alpha: float
    beta: float
    dims: tuple[int, int]
    base: Integrand
    manifold: EmbeddedManifold
    quadratic: bool = False
    smoothed: Callable[[float], tuple[Callable, Callable]] | None = None
    s_lipschitz: float | None = None
    xi_lipschitz: float | None = None
    delta0: float | None = None

    def solver_forms(self, mu: float) -> tuple[Callable, Callable]:
        if self.smoothed is not None:
            return self.smoothed(mu)
        return self.eval, self.grad_xi

    def sample(self, y):
        """The base integrand's sample: the extension reads y only through it."""
        return self.base.sample(y)


def make_fbar(f: Integrand, M: EmbeddedManifold) -> ExtendedIntegrand:
    """Extend f to non-tangent arguments at a base point on the manifold.

    The gradient argument is split into its tangent projection, fed to f, and
    the normal remainder, penalized by its p-th power.  On tangent arguments
    the extension coincides with f, and minimizing it over unconstrained
    fields reproduces the tangentially constrained minimum.
    """
    p = f.p

    def _split(s, xi):
        P = M.tangent_projector(np.asarray(s, dtype=float))
        xi = np.asarray(xi, dtype=float)
        tang = np.einsum("...ab,...bn->...an", P, xi)
        return P, tang, xi - tang

    def forms(f_ev, f_gr, pen, pen_grad):
        """(value, gradient) from base forms, a penalty of |perp|^2 and its gradient in perp."""

        def ev(y, s, xi):
            _, tang, perp = _split(s, xi)
            return f_ev(y, tang) + pen(np.sum(perp * perp, axis=(-2, -1)))

        def gr(y, s, xi):
            P, tang, perp = _split(s, xi)
            return np.einsum("...ab,...bn->...an", P, f_gr(y, tang)) + pen_grad(perp)

        return ev, gr

    def norm(perp):
        return np.sqrt(np.sum(perp * perp, axis=(-2, -1)))

    def power_grad(perp):
        if p == 2:
            return 2.0 * perp
        return (p * norm(perp) ** (p - 1.0) / np.maximum(norm(perp), 1e-300))[..., None, None] * perp

    # np.sqrt for p = 1: a power of 0.5 rounds differently for scalars and arrays.
    ev, gr = forms(f.eval, f.gradient, lambda sq: np.sqrt(sq) if p == 1 else sq ** (p / 2.0), power_grad)
    smoothed = None
    if p == 1:

        def smoothed(mu):
            return forms(
                *f.solver_forms(mu),
                lambda sq: _huber(np.sqrt(sq), mu),
                lambda perp: (1.0 / np.maximum(norm(perp), mu))[..., None, None] * perp,
            )

    # Coercivity: splitting |xi|^p across the tangent and normal parts costs a
    # factor 2^(1-p); the penalty term carries constant 1.
    alpha_ext = min(f.alpha, 2.0 ** (1.0 - p) * min(f.alpha, 1.0))
    beta_ext = f.beta + 1.0
    return ExtendedIntegrand(
        eval=ev,
        grad_xi=gr,
        p=p,
        alpha=alpha_ext,
        beta=beta_ext,
        dims=f.dims,
        base=f,
        manifold=M,
        quadratic=bool(f.quadratic and p == 2),
        smoothed=smoothed,
    )


def make_g_extension(
    f: Integrand, M: EmbeddedManifold, delta0: float = 0.5
) -> ExtendedIntegrand:
    """Ambient-space extension of a linear-growth density.

    Defined for every s in R^d through a cutoff of the nearest-point
    projection: the gradient argument is projected onto the tangent space at
    the projected base point, scaled by the cutoff, fed to f, and the
    remainder is penalized by its norm.  Outside the cutoff support the value
    is simply ``f(y, 0) + |xi|``.  The recorded Lipschitz constants are safe
    upper bounds, checked by sampling in the test suite.
    """
    if f.p != 1:
        raise UnsupportedGrowth("ambient extension requires linear growth (p = 1)")
    if not (0.0 < delta0 <= M.tubular_radius):
        raise ValueError("delta0 must lie in (0, tubular_radius]")
    L = float(f.lipschitz_L)

    def _blend(s, xi):
        chi = np.asarray(M.cutoff(s, delta0))[..., None, None]
        # A point outside the cutoff support gets weight 0 and the projector
        # of a stand-in point, as its own may be undefined.
        P = M.tangent_projector(M.project(np.where(chi[..., 0] != 0.0, s, 1.0)))
        return chi, P, chi * np.einsum("...ab,...bn->...an", P, np.asarray(xi, dtype=float))

    def forms(f_ev, f_gr, pen, floor):
        """(value, gradient) from base forms, a penalty of the remainder's norm and a norm floor."""

        def ev(y, s, xi):
            _, _, proj = _blend(s, xi)
            rem = np.asarray(xi, dtype=float) - proj
            return f_ev(y, proj) + pen(np.sqrt(np.sum(rem * rem, axis=(-2, -1))))

        def gr(y, s, xi):
            chi, P, proj = _blend(s, xi)
            rem = np.asarray(xi, dtype=float) - proj
            u = rem / np.maximum(np.sqrt(np.sum(rem * rem, axis=(-2, -1))), floor)[..., None, None]
            return u - chi * np.einsum("...ab,...bn->...an", P, u) + chi * np.einsum(
                "...ab,...bn->...an", P, f_gr(y, proj)
            )

        return ev, gr

    ev, gr = forms(f.eval, f.gradient, lambda r: r, 1e-300)

    def smoothed(mu):
        return forms(*f.solver_forms(mu), lambda r: _huber(r, mu), mu)

    # Cutoff slope 7.5/delta0; the projector field along the nearest-point
    # projection is 2/(1 - 3 delta0/4)-Lipschitz on the cutoff support.
    proj_lip = 7.5 / delta0 + 2.0 / (1.0 - 0.75 * delta0)
    return ExtendedIntegrand(
        eval=ev,
        grad_xi=gr,
        p=1,
        alpha=min(f.alpha, 0.5 * min(f.alpha, 1.0)),
        beta=f.beta + 1.0,
        dims=f.dims,
        base=f,
        manifold=M,
        quadratic=False,
        smoothed=smoothed,
        s_lipschitz=(L + 1.0) * proj_lip,
        xi_lipschitz=L + 1.0,
        delta0=delta0,
    )


@dataclass
class HypothesisReport:
    """Worst-case residuals of the sampled structural checks."""

    samples: int
    periodicity_residual: float
    coercivity_margin: float
    growth_margin: float
    lipschitz_margin: float | None


def growth_gaps(f, norm_p, values) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Gaps of ``values`` to the growth sandwich alpha |xi|^p <= value <= beta (1 + |xi|^p).

    ``f`` has ``alpha`` and ``beta`` (an integrand, an extension or a table);
    ``norm_p`` is the caller's |xi|^p of each value.  Returns the lower gap
    ``alpha |xi|^p - value``, the upper gap ``value - beta (1 + |xi|^p)`` and
    ``within``: both gaps at most ``1e-12 (1 + |bound|)``, the last digits of
    the arithmetic.  A NaN value is never within; an infinite one is outside.
    """
    norm_p = np.asarray(norm_p, dtype=float)
    lower, upper = f.alpha * norm_p, f.beta * (1.0 + norm_p)
    lower_gap, upper_gap = lower - values, values - upper
    within = (lower_gap <= 1e-12 * (1.0 + abs(lower))) & (upper_gap <= 1e-12 * (1.0 + abs(upper)))
    return lower_gap, upper_gap, within


def _require_finite(values, y, xi) -> np.ndarray:
    """``values`` as floats; a non-finite entry raises with its (y, xi) sample.

    Every check below compares with ``>``, which a NaN would pass silently.
    """
    values = np.asarray(values, dtype=float)
    bad = np.flatnonzero(~np.isfinite(values))
    if bad.size:
        i = bad[0]
        sample = (y, xi) if values.ndim == 0 else (y[i], xi[i])
        raise HypothesisViolated(f"non-finite density value {values.flat[i]}", sample=sample)
    return values


def verify_hypotheses(f: Integrand, sample_count: int, seed: int) -> HypothesisReport:
    """Sampled check of periodicity, the growth sandwich and the Lipschitz bound.

    Deterministic for a given seed; the sandwich is ``growth_gaps``'s.  Raises
    ``HypothesisViolated`` with the worst offending (y, xi) pair if any
    declared property fails; otherwise returns the worst-case residuals.
    """
    if sample_count < 1:
        raise ValueError("sample_count must be at least 1")
    N, d = f.dims
    rng = np.random.default_rng(seed)
    y = rng.uniform(-3.0, 3.0, size=(sample_count, N))
    radii = rng.uniform(0.0, 10.0, size=sample_count)
    xi = rng.standard_normal((sample_count, d, N))
    xi_norm = np.maximum(np.sqrt(np.sum(xi * xi, axis=(-2, -1))), 1e-12)
    xi = xi * (radii / xi_norm)[:, None, None]

    vals = _require_finite(f.eval(y, xi), y, xi)
    scale = 1.0 + np.abs(vals)

    per_res = 0.0
    per_worst = 0
    for i in range(N):
        shift = np.zeros(N)
        shift[i] = 1.0
        res = np.abs(_require_finite(f.eval(y + shift, xi), y + shift, xi) - vals) / scale
        if float(res.max()) > per_res:
            per_res = float(res.max())
            per_worst = int(np.argmax(res))
    if per_res > 1e-9:
        raise HypothesisViolated(
            f"periodicity violated: relative residual {per_res:.3e}",
            sample=(y[per_worst], xi[per_worst]),
        )

    xi_p = np.sum(xi * xi, axis=(-2, -1)) ** (f.p / 2.0)
    lower_gap, upper_gap, within = growth_gaps(f, xi_p, vals)
    # beta >= alpha, so a failing value with a positive lower gap fails coercivity.
    if np.any(lower_gap[~within] > 0.0):
        worst = int(np.argmax(lower_gap))
        raise HypothesisViolated(
            f"coercivity violated: f = {vals[worst]:.6g} < "
            f"alpha |xi|^p = {vals[worst] + lower_gap[worst]:.6g}",
            sample=(y[worst], xi[worst]),
        )
    if not within.all():
        worst = int(np.argmax(upper_gap))
        raise HypothesisViolated(
            f"growth violated: f = {vals[worst]:.6g} > "
            f"beta (1 + |xi|^p) = {vals[worst] - upper_gap[worst]:.6g}",
            sample=(y[worst], xi[worst]),
        )

    lip_margin = None
    if f.lipschitz_L is not None:
        xi2 = xi + rng.standard_normal(xi.shape) * rng.uniform(
            0.0, 2.0, size=(sample_count, 1, 1)
        )
        diff = np.abs(_require_finite(f.eval(y, xi2), y, xi2) - vals)
        dist = np.sqrt(np.sum((xi2 - xi) ** 2, axis=(-2, -1)))
        excess = diff - f.lipschitz_L * dist
        lip_margin = float(np.max(excess / (1.0 + diff)))
        if lip_margin > 1e-9:
            worst = int(np.argmax(excess))
            raise HypothesisViolated(
                f"xi-Lipschitz bound violated by {excess[worst]:.3e}",
                sample=(y[worst], xi[worst]),
            )

    return HypothesisReport(
        samples=sample_count,
        periodicity_residual=per_res,
        coercivity_margin=float(np.max(lower_gap / scale)),
        growth_margin=float(np.max(upper_gap / scale)),
        lipschitz_margin=lip_margin,
    )


def verify_extension_bounds(
    ext: ExtendedIntegrand, sample_count: int, seed: int
) -> HypothesisReport:
    """Sampled check that an extension restricts to its base on tangent data,
    satisfies its derived growth sandwich (``growth_gaps``'s), and honors
    declared Lipschitz bounds.
    """
    if sample_count < 1:
        raise ValueError("sample_count must be at least 1")
    M = ext.manifold
    N, d = ext.dims
    rng = np.random.default_rng(seed)

    # Draw every sample first, in the order of a sample-by-sample loop.
    draws = []
    for _ in range(sample_count):
        y = rng.uniform(0.0, 1.0, size=N)
        s = M.random_point(rng)
        coeffs = rng.uniform(-3.0, 3.0, size=(M.intrinsic_dim, N))
        xi = rng.standard_normal((d, N)) * rng.uniform(0.0, 5.0)
        s2, xi2 = s, xi
        if ext.s_lipschitz is not None:
            s2 = s + rng.standard_normal(d) * rng.uniform(0.0, 0.5)
        if ext.xi_lipschitz is not None:
            xi2 = xi + rng.standard_normal((d, N)) * rng.uniform(0.0, 2.0)
        draws.append((y, s, coeffs, xi, s2, xi2))
    y, s, coeffs, xi, s2, xi2 = (np.array(a) for a in zip(*draws))

    def evaluate(s, xi):
        return _require_finite(ext.eval(y, s, xi), y, xi)

    def norms(v):  # per sample, with the bits of np.linalg.norm
        return np.sqrt(np.vecdot(v.reshape(sample_count, -1), v.reshape(sample_count, -1)))

    # Each form is evaluated once over all samples; the margins start at 0.
    xi_t = np.matmul(M.tangent_bases(s).transpose(0, 2, 1), coeffs)
    v_base = _require_finite(ext.base.eval(y, xi_t), y, xi_t)
    restriction = float(np.max(np.abs(evaluate(s, xi_t) - v_base), initial=0.0))
    v = evaluate(s, xi)
    sq = np.sum(xi * xi, axis=(1, 2))
    # Scalar powers: an array power may round differently (np.sqrt for 0.5).
    xi_p = np.array([q ** (ext.p / 2.0) for q in sq.tolist()])
    lower_gap, upper_gap, within = growth_gaps(ext, xi_p, v)
    growth_lo = float(np.max(lower_gap, initial=0.0))
    growth_hi = float(np.max(upper_gap, initial=0.0))
    lip_s = lip_xi = 0.0
    if ext.s_lipschitz is not None:
        bound = ext.s_lipschitz * norms(s2 - s) * np.sqrt(sq)
        lip_s = float(np.max(np.abs(evaluate(s2, xi) - v) - bound, initial=0.0))
    if ext.xi_lipschitz is not None:
        bound = ext.xi_lipschitz * norms(xi2 - xi)
        lip_xi = float(np.max(np.abs(evaluate(s, xi2) - v) - bound, initial=0.0))

    if restriction > 1e-12:
        raise HypothesisViolated(
            f"extension does not restrict to its base: residual {restriction:.3e}"
        )
    if not within.all():
        raise HypothesisViolated(
            f"extension growth sandwich violated (lo {growth_lo:.3e}, hi {growth_hi:.3e})"
        )
    if max(lip_s, lip_xi) > 1e-9:
        raise HypothesisViolated(
            f"extension Lipschitz bound violated (s {lip_s:.3e}, xi {lip_xi:.3e})"
        )
    return HypothesisReport(
        samples=sample_count,
        periodicity_residual=restriction,
        coercivity_margin=growth_lo,
        growth_margin=growth_hi,
        lipschitz_margin=max(lip_s, lip_xi),
    )


def integrand_from_config(cfg: dict) -> Integrand:
    """Build an integrand from its JSON description."""
    kind = check_keys(cfg, "integrand", {"kind"}, {"a", "b", "c", "N", "d"})["kind"]

    def profile(key):
        path = f"integrand.{key}"
        sub = check_keys(cfg[key], path, {"values"}, {"breaks"})
        breaks, values = (
            config_value(path, as_list, sub.get(name, []), as_number)
            for name in ("breaks", "values")
        )
        return config_value(path, StepProfile, breaks, values)

    def size(key, default):
        return config_value(f"integrand.{key}", as_integer, cfg.get(key, default))

    if kind == "laminate":
        check_keys(cfg, "integrand", {"kind", "a", "b"}, {"N"})
        make, args = make_laminate_quadratic, (profile("a"), profile("b"), size("N", 1))
    elif kind == "isotropic_quadratic":
        check_keys(cfg, "integrand", {"kind"}, {"N", "d"})
        make, args = make_isotropic_quadratic, (size("N", 1), size("d", 2))
    elif kind == "norm_linear":
        check_keys(cfg, "integrand", {"kind", "c"}, {"N", "d"})
        make, args = make_norm_linear, (profile("c"), size("N", 1), size("d", 2))
    else:
        raise ConfigError(f"unknown integrand kind {kind!r}")
    return config_value("integrand", make, *args)
