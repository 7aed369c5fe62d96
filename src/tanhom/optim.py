"""Matrix-free minimizers used by the cell solver.

Both stop when the gradient norm falls below a target: ``cg_quadratic``
takes tol * (1 + initial gradient norm), ``lbfgs`` an absolute target that
the caller anchors (the cell solver anchors it the same way, at the zero
corrector).  Both take an optional preconditioner.  The conjugate-gradient
path assumes the objective is an exact quadratic so that the Hessian action
can be read off from gradient differences; its preconditioner only shapes the
search directions, and the stopping test stays on the plain gradient norm.
It also runs a batch of independent quadratics as rows: each row stops on its
own target (or on lost curvature) and is then frozen, untouched while the
other rows iterate.
The limited-memory quasi-Newton path only needs values and gradients, and
measures its gradient in the preconditioner's norm.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

# Quasi-Newton memory (curvature pairs kept) and Armijo line-search settings.
LBFGS_MEMORY = 10
ARMIJO_C = 1e-4
MAX_BACKTRACKS = 40


@dataclass
class MinimizeResult:
    """Outcome of a minimization.

    For a batch of rows (``cg_quadratic`` on a (B, n) input) ``iterations`` is
    the sum over the rows, ``grad_norm`` the largest row norm and
    ``converged`` whether every row converged; the ``row_*`` arrays hold each
    row's own values.  ``cg_quadratic`` fills them for one row too;
    ``lbfgs`` leaves them None.
    """

    x: np.ndarray
    iterations: int
    grad_norm: float
    converged: bool
    row_iterations: np.ndarray | None = None
    row_grad_norms: np.ndarray | None = None
    row_converged: np.ndarray | None = None


def _rows_axpy(y: np.ndarray, a: np.ndarray, v: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """``y + a[b] * v[b]`` on the listed rows; every other row keeps ``y``.  Returns a new array."""
    if len(rows) == len(y):
        return y + a[:, None] * v
    out = y.copy()
    out[rows] = y[rows] + a[rows, None] * v[rows]
    return out


def cg_quadratic(
    apply_hessian: Callable[[np.ndarray], np.ndarray],
    grad0: np.ndarray,
    tol: float,
    max_iters: int,
    project: Callable[[np.ndarray], np.ndarray] | None = None,
    recompute_every: int = 50,
    precondition: Callable[[np.ndarray], np.ndarray] | None = None,
) -> MinimizeResult:
    """Minimize 0.5 x^T H x + g0^T x from x = 0 by (preconditioned) conjugate gradients.

    ``grad0`` is one load, shape (n,), or a batch of B independent loads,
    shape (B, n); the callables map arrays of that shape to arrays of that
    shape, acting on each row alone.  ``project`` (when given) restricts
    iterates to a subspace orthogonal to a known null space of H, e.g.
    constant shifts under periodic boundary conditions.  ``precondition``
    applies a symmetric positive semidefinite ``P`` (identity when None) that
    is positive definite on that subspace and maps into it; it changes the
    search directions only.  The stopping test and the reported ``grad_norm``
    use the unpreconditioned residual ``r = -(g0 + H x)``: a row stops once
    ``|r_b| <= tol * (1 + |g0_b|)``.  Residuals are recomputed from scratch
    periodically to keep round-off in check.

    Every row has its own step length, ``beta``, target and stop flag.  A row
    that meets its target, or whose curvature ``d^T H d`` is lost, is frozen:
    its iterate, residual norm and count stay as they were while the other
    rows go on.  Dot products are taken row by row, so each row's iterates
    are bit-identical to a solve of that row alone.
    """
    single = np.ndim(grad0) == 1
    if single:
        # A 1-D load is a batch of one; the callables still see 1-D vectors.
        def on_the_row(fn):
            return None if fn is None else (lambda v: fn(v[0])[None])

        apply_hessian, project, precondition = map(
            on_the_row, (apply_hessian, project, precondition)
        )
    g0 = np.atleast_2d(grad0)

    def proj(v):
        return project(v) if project is not None else v

    apply_p = precondition or (lambda v: v)
    batch = len(g0)
    x = np.zeros_like(g0)
    r = proj(-g0)
    rnorm = np.array([float(np.linalg.norm(row)) for row in r])
    target = tol * (1.0 + np.array([float(np.linalg.norm(row)) for row in g0]))
    iterations = np.zeros(batch, dtype=int)
    converged = rnorm <= target
    active = ~converged
    rows = np.flatnonzero(active)
    step = np.zeros(batch)
    beta = np.zeros(batch)
    delta = np.zeros(batch)
    if rows.size:
        z = apply_p(r)
        d = z
        for b in rows:
            delta[b] = float(r[b] @ z[b])
    for k in range(1, max_iters + 1):
        if not rows.size:
            break
        hd = proj(apply_hessian(d))
        for b in rows:
            dhd = float(d[b] @ hd[b])
            if not dhd > 0.0:
                # Curvature lost to round-off (or not a number); the current
                # iterate is the row's best answer.
                active[b] = False
                iterations[b] = k
            else:
                step[b] = delta[b] / dhd
        rows = np.flatnonzero(active)
        x = _rows_axpy(x, step, d, rows)
        if k % recompute_every == 0:
            fresh = proj(-(g0 + apply_hessian(x)))
            r = r.copy()
            r[rows] = fresh[rows]
        else:
            r = _rows_axpy(r, -step, hd, rows)
        for b in rows:
            rnorm[b] = float(np.linalg.norm(r[b]))
            if rnorm[b] <= target[b]:
                active[b] = False
                converged[b] = True
                iterations[b] = k
        rows = np.flatnonzero(active)
        if not rows.size:
            break
        z = apply_p(r)
        for b in rows:
            delta_new = float(r[b] @ z[b])
            beta[b] = delta_new / float(delta[b])
            delta[b] = delta_new
        d = _rows_axpy(z, beta, d, rows)
    iterations[active] = max_iters

    return MinimizeResult(
        x[0] if single else x,
        int(iterations.sum()),
        float(np.max(rnorm, initial=0.0)),
        bool(converged.all()),
        iterations,
        rnorm,
        converged,
    )


def lbfgs(
    value_and_grad: Callable[[np.ndarray], tuple[float, np.ndarray]],
    x0: np.ndarray,
    target: float,
    max_iters: int,
    precondition: Callable[[np.ndarray], np.ndarray] | None = None,
) -> MinimizeResult:
    """Limited-memory quasi-Newton descent with Armijo backtracking.

    ``precondition`` applies a symmetric positive definite ``P`` (identity
    when None): the initial inverse Hessian of every update is ``P`` scaled
    by ``s^T y / y^T P y``, and the gradient norm is ``sqrt(g^T P g)``.
    Returns the best iterate seen.  ``converged`` reflects the stopping test
    (gradient norm at most ``target``), not merely running out of iterations;
    a line search that finds no decrease ends the run unconverged.
    """
    apply_p = precondition or (lambda v: v)
    x = np.asarray(x0, dtype=float).copy()
    f, g = value_and_grad(x)

    best_x, best_f = x.copy(), f
    s_list: list[np.ndarray] = []
    y_list: list[np.ndarray] = []
    rho_list: list[float] = []

    for k in range(1, max_iters + 1):
        pg = apply_p(g)
        gnorm = float(np.sqrt(float(g @ pg)))
        if gnorm <= target:
            return MinimizeResult(best_x, k - 1, gnorm, True)

        q = g.copy()
        alphas = []
        for s, y, rho in zip(reversed(s_list), reversed(y_list), reversed(rho_list)):
            a = rho * float(s @ q)
            alphas.append(a)
            q -= a * y
        q = apply_p(q)
        if y_list:
            y_last = y_list[-1]
            gamma = float(s_list[-1] @ y_last) / max(float(y_last @ apply_p(y_last)), 1e-300)
            q *= gamma
        for (s, y, rho), a in zip(zip(s_list, y_list, rho_list), reversed(alphas)):
            b = rho * float(y @ q)
            q += (a - b) * s
        direction = -q

        # Near kinks the curvature pairs can produce astronomically scaled
        # directions; cap them so the line search stays in floating range.
        dnorm = float(np.linalg.norm(direction))
        cap = 1e8 * max(1.0, gnorm)
        if dnorm > cap:
            direction *= cap / dnorm

        slope = float(g @ direction)
        if slope >= 0.0:
            direction = -pg
            slope = -gnorm * gnorm

        step = 1.0 if y_list else 1.0 / max(gnorm, 1.0)
        accepted = False
        for _ in range(MAX_BACKTRACKS):
            x_try = x + step * direction
            f_try, g_try = value_and_grad(x_try)
            if f_try <= f + ARMIJO_C * step * slope:
                accepted = True
                break
            step *= 0.5
        if not accepted:
            return MinimizeResult(best_x, k, gnorm, False)

        s_vec = x_try - x
        y_vec = g_try - g
        x, f, g = x_try, f_try, g_try
        if f < best_f:
            best_x, best_f = x.copy(), f
        sy = float(s_vec @ y_vec)
        if sy > 1e-12 * float(np.linalg.norm(s_vec)) * float(np.linalg.norm(y_vec)):
            s_list.append(s_vec)
            y_list.append(y_vec)
            rho_list.append(1.0 / sy)
            if len(s_list) > LBFGS_MEMORY:
                s_list.pop(0)
                y_list.pop(0)
                rho_list.pop(0)

    return MinimizeResult(best_x, max_iters, float(np.sqrt(float(g @ apply_p(g)))), False)
