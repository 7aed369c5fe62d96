"""Matrix-free minimizers used by the cell solver and the angle descents.

Both stop once the gradient norm is at most an absolute target, one per row,
that the caller anchors (the cell solver at ``tol * (1 + |g0|)``, ``g0`` the
gradient at the zero corrector).  Both take an optional preconditioner.  The
conjugate-gradient path assumes the objective is an exact quadratic so that
the Hessian action can be read off from gradient differences; its
preconditioner only shapes the search directions, and the stopping test stays
on the plain gradient norm.  The limited-memory quasi-Newton path only needs
values and gradients, and measures its gradient in the preconditioner's norm.
Both take a batch of independent problems as the rows of a (B, n) array: each
row stops on its own target (or on lost curvature, or a failed line search).
Both keep the state of the rows still running in one ``_Rows`` holder, and
record a row's outcome and drop it from there as it stops (``_Outcome``), so
the Hessian action of ``cg_quadratic`` and the objective of ``lbfgs`` are
asked only for the rows still running, by their batch indices.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

# Quasi-Newton memory (curvature pairs kept) and Armijo line-search settings.
LBFGS_MEMORY = 10
ARMIJO_C = 1e-4
MAX_BACKTRACKS = 40
# Conjugate-gradient iterations between recomputed residuals.
RECOMPUTE_EVERY = 50


@dataclass
class MinimizeResult:
    """Outcome of a minimization.

    ``x`` holds the (B, n) rows and ``iterations`` the sum over the rows; the
    ``row_*`` arrays hold each row's own count, gradient norm and flag.
    """

    x: np.ndarray
    iterations: int
    row_iterations: np.ndarray
    row_grad_norms: np.ndarray
    row_converged: np.ndarray


class _Rows:
    """Named per-row arrays of the rows still running; ``index`` maps them to the batch."""

    def __init__(self, batch: int, **arrays: np.ndarray):
        self.index = np.arange(batch)
        vars(self).update(arrays)

    def keep(self, mask: np.ndarray) -> None:
        """Drop the rows outside ``mask``."""
        for name, value in list(vars(self).items()):
            setattr(self, name, value[mask])


class _Outcome:
    """Each row's iterate, iteration count, gradient norm and flag, recorded as it stops."""

    def __init__(self, shape: tuple[int, int]):
        batch = shape[0]
        # Allocated when the first row stops, not while every row still runs
        # and the solve's temporaries peak (an empty batch has it at once).
        self.x = None if batch else np.empty(shape)
        self.iterations = np.zeros(batch, dtype=int)
        self.norms = np.zeros(batch)
        self.converged = np.zeros(batch, dtype=bool)

    def stop(
        self, rows: _Rows, mask: np.ndarray, x: np.ndarray, k: int, norms: np.ndarray, ok: bool
    ) -> None:
        """Record the rows of ``rows`` under ``mask`` and drop them from ``rows``.

        ``x`` and ``norms`` hold the iterates and gradient norms of ``rows``;
        ``k`` is the iteration count and ``ok`` the flag of every row stopping.
        """
        at = rows.index[mask]
        if not at.size:
            return
        if self.x is None:
            self.x = np.empty((len(self.converged), x.shape[1]))
        self.x[at] = x[mask]
        self.iterations[at], self.norms[at], self.converged[at] = k, norms[mask], ok
        rows.keep(~mask)

    def result(self) -> MinimizeResult:
        return MinimizeResult(
            self.x, int(self.iterations.sum()), self.iterations, self.norms, self.converged
        )


def cg_quadratic(
    apply_hessian: Callable[[np.ndarray, np.ndarray], np.ndarray],
    g0: np.ndarray,
    target: float | np.ndarray,
    max_iters: int,
    project: Callable[[np.ndarray], np.ndarray] | None = None,
    precondition: Callable[[np.ndarray], np.ndarray] | None = None,
) -> MinimizeResult:
    """Minimize 0.5 x^T H x + g0^T x from x = 0 by (preconditioned) conjugate gradients.

    ``g0`` holds B independent loads, shape (B, n).  ``apply_hessian(v,
    rows)`` takes the directions ``v`` (b, n) of the rows whose batch indices
    are ``rows`` (b,) and returns their Hessian actions (b, n), each row
    computed alone; ``project`` and ``precondition`` map any stack of rows
    (b, n) to (b, n), row by row.  ``project`` (when given) restricts iterates
    to a subspace orthogonal to a known null space of H, e.g. constant shifts
    under periodic boundary conditions.  ``precondition`` applies a symmetric
    positive semidefinite ``P`` (identity when None) that is positive definite
    on that subspace and maps into it; it changes the search directions only.
    The stopping test and the reported gradient norms use the unpreconditioned
    residual ``r = -(g0 + H x)``: a row stops once ``|r_b|`` is at most its
    target, ``target`` being one absolute target or one per row.  Residuals
    are recomputed from scratch every ``RECOMPUTE_EVERY`` iterations to keep
    round-off in check.

    Every row has its own step length, ``beta``, target and stop flag.  A row
    that meets its target, or whose curvature ``d^T H d`` is lost, stops with
    its iterate and residual norm as they were, and is never passed again.
    Row dot products and norms are ``np.vecdot`` over the rows, with the bits
    of ``a[b] @ c[b]`` and ``np.linalg.norm``: each row's iterates are
    bit-identical to a solve of that row alone.
    """
    proj = project or (lambda v: v)
    apply_p = precondition or (lambda v: v)
    out = _Outcome(g0.shape)
    target = np.broadcast_to(np.asarray(target, dtype=float), (len(g0),))
    rows = _Rows(len(g0), x=np.zeros_like(g0), r=proj(-g0), target=target)
    rows.rnorm = np.sqrt(np.vecdot(rows.r, rows.r))
    out.stop(rows, rows.rnorm <= rows.target, rows.x, 0, rows.rnorm, True)
    if len(rows.index):
        rows.d = apply_p(rows.r)
        rows.delta = np.vecdot(rows.r, rows.d)
    for k in range(1, max_iters + 1):
        if not len(rows.index):
            break
        hd = proj(apply_hessian(rows.d, rows.index))
        dhd = np.vecdot(rows.d, hd)
        # Curvature lost to round-off (or not a number): the current iterate
        # is the row's best answer.
        lost = ~(dhd > 0.0)
        if lost.any():
            out.stop(rows, lost, rows.x, k, rows.rnorm, False)
            hd, dhd = hd[~lost], dhd[~lost]
            if not len(rows.index):
                break
        step = (rows.delta / dhd)[:, None]
        rows.x += step * rows.d
        if k % RECOMPUTE_EVERY == 0:
            rows.r = proj(-(g0[rows.index] + apply_hessian(rows.x, rows.index)))
        else:
            rows.r = rows.r - step * hd
        rows.rnorm = np.sqrt(np.vecdot(rows.r, rows.r))
        out.stop(rows, rows.rnorm <= rows.target, rows.x, k, rows.rnorm, True)
        if not len(rows.index):
            break
        z = apply_p(rows.r)
        delta = np.vecdot(rows.r, z)
        rows.d = z + (delta / rows.delta)[:, None] * rows.d
        rows.delta = delta
    out.stop(rows, np.ones(len(rows.index), dtype=bool), rows.x, max_iters, rows.rnorm, False)
    return out.result()


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
    alone.
    """
    apply_p = precondition or (lambda v: v)
    x = np.array(x0, dtype=float)
    batch, n = x.shape
    f, g = value_and_grad(x, np.arange(batch)) if start is None else start
    # Own copies: rows are updated in place.
    f = np.array(f, dtype=float)
    rows = _Rows(
        batch, x=x, f=f, g=np.array(g, dtype=float), best_x=x.copy(), best_f=f.copy(),
        target=np.broadcast_to(np.asarray(target, dtype=float), (batch,)),
        # Up to LBFGS_MEMORY curvature pairs per row, newest first; a row has
        # ``kept`` of them, and zeros after them.
        s=np.zeros((batch, LBFGS_MEMORY, n)), y=np.zeros((batch, LBFGS_MEMORY, n)),
        rho=np.zeros((batch, LBFGS_MEMORY)), kept=np.zeros(batch, dtype=int),
    )
    out = _Outcome(x.shape)

    for k in range(1, max_iters + 1):
        g = rows.g
        pg = apply_p(g)
        gn = np.sqrt(np.vecdot(g, pg))
        done = gn <= rows.target
        if done.any():
            out.stop(rows, done, rows.best_x, k - 1, gn, True)
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
            out.stop(rows, searching, rows.best_x, k, gn, False)
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
        gn = np.sqrt(np.vecdot(g, apply_p(g)))
        out.stop(rows, np.ones(len(g), dtype=bool), rows.best_x, max_iters, gn, False)
    return out.result()
