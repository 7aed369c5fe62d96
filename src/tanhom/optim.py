"""Matrix-free minimizers used by the cell solver and the angle descents.

Both stop when the gradient norm falls below a target: ``cg_quadratic``
takes tol * (1 + initial gradient norm), ``lbfgs`` an absolute target per
row that the caller anchors (the cell solver anchors it the same way, at the
zero corrector).  Both take an optional preconditioner.  The
conjugate-gradient path assumes the objective is an exact quadratic so that
the Hessian action can be read off from gradient differences; its
preconditioner only shapes the search directions, and the stopping test stays
on the plain gradient norm.  The limited-memory quasi-Newton path only needs
values and gradients, and measures its gradient in the preconditioner's norm.
Both take a batch of independent problems as the rows of a (B, n) array: each
row stops on its own target (or on lost curvature, or a failed line search)
and is then frozen, untouched while the other rows iterate.  ``lbfgs`` asks
its objective only for the rows it still needs, by their batch indices.
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

    ``x`` holds the (B, n) rows; ``iterations`` is the sum over the rows,
    ``grad_norm`` the largest row norm and ``converged`` whether every row
    converged; the ``row_*`` arrays hold each row's own values.
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
    g0: np.ndarray,
    tol: float,
    max_iters: int,
    project: Callable[[np.ndarray], np.ndarray] | None = None,
    recompute_every: int = 50,
    precondition: Callable[[np.ndarray], np.ndarray] | None = None,
) -> MinimizeResult:
    """Minimize 0.5 x^T H x + g0^T x from x = 0 by (preconditioned) conjugate gradients.

    ``g0`` holds B independent loads, shape (B, n); the callables map
    arrays of that shape to arrays of that shape, acting on each row alone.
    ``project`` (when given) restricts iterates to a subspace orthogonal to a
    known null space of H, e.g. constant shifts under periodic boundary
    conditions.  ``precondition`` applies a symmetric positive semidefinite
    ``P`` (identity when None) that is positive definite on that subspace and
    maps into it; it changes the search directions only.  The stopping test and the reported ``grad_norm``
    use the unpreconditioned residual ``r = -(g0 + H x)``: a row stops once
    ``|r_b| <= tol * (1 + |g0_b|)``.  Residuals are recomputed from scratch
    periodically to keep round-off in check.

    Every row has its own step length, ``beta``, target and stop flag.  A row
    that meets its target, or whose curvature ``d^T H d`` is lost, is frozen:
    its iterate, residual norm and count stay as they were while the other
    rows go on.  Row dot products and norms are one ``np.vecdot`` over the
    active rows, with the bits of ``a[b] @ c[b]`` and ``np.linalg.norm``: each
    row's iterates are bit-identical to a solve of that row alone.
    """

    def proj(v):
        return project(v) if project is not None else v

    apply_p = precondition or (lambda v: v)

    def dots(a, c, rows):
        """``a[b] @ c[b]`` for every listed row, in one ``np.vecdot``."""
        return np.vecdot(a, c) if len(rows) == len(a) else np.vecdot(a[rows], c[rows])

    batch = len(g0)
    x = np.zeros_like(g0)
    r = proj(-g0)
    rnorm = np.sqrt(np.vecdot(r, r))
    target = tol * (1.0 + np.sqrt(np.vecdot(g0, g0)))
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
        delta[rows] = dots(r, z, rows)
    for k in range(1, max_iters + 1):
        if not rows.size:
            break
        hd = proj(apply_hessian(d))
        dhd = dots(d, hd, rows)
        # Curvature lost to round-off (or not a number): the current iterate
        # is the row's best answer.
        lost = ~(dhd > 0.0)
        active[rows[lost]] = False
        iterations[rows[lost]] = k
        step[rows[~lost]] = delta[rows[~lost]] / dhd[~lost]
        rows = rows[~lost]
        x = _rows_axpy(x, step, d, rows)
        if k % recompute_every == 0:
            fresh = proj(-(g0 + apply_hessian(x)))
            r = r.copy()
            r[rows] = fresh[rows]
        else:
            r = _rows_axpy(r, -step, hd, rows)
        rnorm[rows] = np.sqrt(dots(r, r, rows))
        done = rnorm[rows] <= target[rows]
        active[rows[done]] = False
        converged[rows[done]] = True
        iterations[rows[done]] = k
        rows = rows[~done]
        if not rows.size:
            break
        z = apply_p(r)
        delta_new = dots(r, z, rows)
        beta[rows] = delta_new / delta[rows]
        delta[rows] = delta_new
        d = _rows_axpy(z, beta, d, rows)
    iterations[active] = max_iters

    return MinimizeResult(
        x,
        int(iterations.sum()),
        float(np.max(rnorm, initial=0.0)),
        bool(converged.all()),
        iterations,
        rnorm,
        converged,
    )


class _DescentRows:
    """The L-BFGS state of the rows still descending, one entry per row.

    ``index`` maps the rows to the batch.  ``s``, ``y`` and ``rho`` hold up
    to ``LBFGS_MEMORY`` curvature pairs per row, newest first; a row has
    ``kept`` of them, and zeros after them.
    """

    def __init__(self, x, f, g, target):
        batch, n = x.shape
        self.index = np.arange(batch)
        self.x, self.f, self.g = x, f, g
        self.best_x, self.best_f = x.copy(), f.copy()
        self.target = target
        self.s = np.zeros((batch, LBFGS_MEMORY, n))
        self.y = np.zeros((batch, LBFGS_MEMORY, n))
        self.rho = np.zeros((batch, LBFGS_MEMORY))
        self.kept = np.zeros(batch, dtype=int)

    def keep(self, mask: np.ndarray) -> None:
        """Drop the rows outside ``mask``."""
        for name, value in list(vars(self).items()):
            setattr(self, name, value[mask])


def lbfgs(
    value_and_grad: Callable[[np.ndarray, np.ndarray], tuple[np.ndarray, np.ndarray]],
    x0: np.ndarray,
    target: float | np.ndarray,
    max_iters: int,
    precondition: Callable[[np.ndarray], np.ndarray] | None = None,
    start: tuple | None = None,
) -> MinimizeResult:
    """Limited-memory quasi-Newton descent with Armijo backtracking.

    ``x0`` holds B independent starts, shape (B, n).  ``value_and_grad(x,
    rows)`` takes the points ``x`` (b, n) of the rows whose batch indices are
    ``rows`` (b,) and returns their values (b,) and gradients (b, n), each row
    computed alone; ``precondition`` maps any stack of rows (b, n) to (b, n),
    row by row.  ``target`` is one gradient-norm target or one per row.
    ``start``, when given, is the value and gradient at ``x0``, which is then
    not evaluated again.

    ``precondition`` applies a symmetric positive definite ``P`` (identity
    when None): the initial inverse Hessian of every update is ``P`` scaled
    by ``s^T y / y^T P y``, and the gradient norm is ``sqrt(g^T P g)``.
    Returns each row's best iterate seen.  A row converges when its gradient
    norm is at most its target, not merely by running out of iterations; a
    line search that finds no decrease ends the row unconverged.

    Every row keeps its own curvature pairs, step, target and stop flag.  The
    objective sees a row only while it needs it: a stopped row is never
    passed again, and a backtracking step passes only the rows still
    searching.  Row dot products and norms are ``np.vecdot`` over the rows,
    with the bits of ``a[b] @ c[b]`` and ``np.linalg.norm``: each row's
    iterates and evaluations are bit-identical to a descent of that row
    alone.  Results aggregate over the rows as in ``cg_quadratic``.
    """
    apply_p = precondition or (lambda v: v)
    x = np.array(x0, dtype=float)
    batch, n = x.shape
    f, g = value_and_grad(x, np.arange(batch)) if start is None else start
    # Own copies: rows are updated in place.
    rows = _DescentRows(
        x, np.array(f, dtype=float), np.array(g, dtype=float),
        np.broadcast_to(np.asarray(target, dtype=float), (batch,)),
    )

    best_x = np.empty((batch, n))
    iterations = np.zeros(batch, dtype=int)
    gnorm = np.zeros(batch)
    converged = np.zeros(batch, dtype=bool)

    def stop(mask, k, norms, ok):
        at = rows.index[mask]
        best_x[at], iterations[at], gnorm[at], converged[at] = rows.best_x[mask], k, norms[mask], ok
        rows.keep(~mask)

    for k in range(1, max_iters + 1):
        g = rows.g
        pg = apply_p(g)
        gn = np.sqrt(np.vecdot(g, pg))
        done = gn <= rows.target
        if done.any():
            stop(done, k - 1, gn, True)
            g, pg, gn = rows.g, pg[~done], gn[~done]
            if not len(g):
                break

        # The two-loop recursion runs on every row; ``has[j]`` masks the
        # updates to the rows with a j-th newest pair (the others hold zeros).
        depth, fewest = rows.kept.max(), rows.kept.min()
        s, y, rho = rows.s, rows.y, rows.rho
        has = [True if j < fewest else (rows.kept > j)[:, None] for j in range(depth)]
        q = g.copy()
        alphas = []
        for j in range(depth):  # newest pair first
            alphas.append(rho[:, j] * np.vecdot(s[:, j], q))
            np.subtract(q, alphas[j][:, None] * y[:, j], out=q, where=has[j])
        if depth:
            # One preconditioner call for the direction and the newest y.
            q, p_y = np.split(apply_p(np.concatenate([q, y[:, 0]])), 2)
            scale = np.vecdot(s[:, 0], y[:, 0]) / np.maximum(np.vecdot(y[:, 0], p_y), 1e-300)
            np.multiply(q, scale[:, None], out=q, where=has[0])
        else:
            q = apply_p(q)
        for j in reversed(range(depth)):
            b = rho[:, j] * np.vecdot(y[:, j], q)
            np.add(q, (alphas[j] - b)[:, None] * s[:, j], out=q, where=has[j])
        direction = -q

        # Near kinks the curvature pairs can produce astronomically scaled
        # directions; cap them so the line search stays in floating range.
        dnorm = np.sqrt(np.vecdot(direction, direction))
        cap = 1e8 * np.fmax(1.0, gn)
        big = dnorm > cap
        if big.any():
            direction[big] *= (cap[big] / dnorm[big])[:, None]

        slope = np.vecdot(g, direction)
        uphill = slope >= 0.0
        if uphill.any():
            direction[uphill] = -pg[uphill]
            slope[uphill] = -gn[uphill] * gn[uphill]

        step = np.where(rows.kept > 0, 1.0, 1.0 / np.maximum(gn, 1.0))
        x_try = rows.x + step[:, None] * direction
        f_new, g_new = value_and_grad(x_try, rows.index)
        searching = ~(f_new <= rows.f + ARMIJO_C * step * slope)
        if searching.any():  # own copies: the searching rows are filled in below
            f_new, g_new = np.array(f_new, dtype=float), np.array(g_new, dtype=float)
        for _ in range(MAX_BACKTRACKS - 1):
            at = np.flatnonzero(searching)
            if not at.size:
                break
            step[at] *= 0.5
            x_try[at] = rows.x[at] + step[at, None] * direction[at]
            f_try, g_try = value_and_grad(x_try[at], rows.index[at])
            ok = f_try <= rows.f[at] + ARMIJO_C * step[at] * slope[at]
            f_new[at[ok]], g_new[at[ok]] = f_try[ok], g_try[ok]
            searching[at[ok]] = False
        if searching.any():
            stop(searching, k, gn, False)
            x_try, f_new, g_new = x_try[~searching], f_new[~searching], g_new[~searching]
            if not len(x_try):
                break

        s_vec = x_try - rows.x
        y_vec = g_new - rows.g
        rows.x, rows.f, rows.g = x_try, f_new, g_new
        better = f_new < rows.best_f
        np.copyto(rows.best_x, x_try, where=better[:, None])
        rows.best_f = np.where(better, f_new, rows.best_f)
        sy = np.vecdot(s_vec, y_vec)
        curved = sy > 1e-12 * np.sqrt(np.vecdot(s_vec, s_vec)) * np.sqrt(np.vecdot(y_vec, y_vec))
        if curved.any():
            # Age the rows' pairs by one, dropping the oldest when memory is
            # full; a plain slice when every row moves.
            moved = slice(None) if curved.all() else curved
            age = min(depth + 1, LBFGS_MEMORY)
            for pairs in (rows.s, rows.y, rows.rho):
                pairs[moved, 1:age] = pairs[moved, : age - 1]
            rows.s[moved, 0], rows.y[moved, 0] = s_vec[moved], y_vec[moved]
            rows.rho[moved, 0] = 1.0 / sy[moved]
            rows.kept = np.minimum(rows.kept + curved, LBFGS_MEMORY)
    if len(rows.index):  # out of iterations
        g = rows.g
        stop(np.ones(len(g), dtype=bool), max_iters, np.sqrt(np.vecdot(g, apply_p(g))), False)

    return MinimizeResult(
        best_x,
        int(iterations.sum()),
        float(np.max(gnorm, initial=0.0)),
        bool(converged.all()),
        iterations,
        gnorm,
        converged,
    )
