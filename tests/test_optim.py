"""L-BFGS on rows: every row of a batched descent is its lone descent, bit for bit.

The objectives below act on one row, an (n,) vector; ``stacked`` turns them
into the row contract of ``lbfgs``, and a batch of one is a lone descent.
"""

import numpy as np
import pytest

from tanhom.optim import LBFGS_MEMORY, lbfgs

# The gamma workload's unknown count: np.linalg.norm(axis=-1) differs from the
# 1-D norm there, so row norms must come from np.vecdot.
N = 255
TARGET = 1e-6
MAX_ITERS = 60
DIAG = np.linspace(1.0, 3.0, N)


def _bits(a) -> bytes:
    return np.asarray(a, dtype=float).tobytes()


def quadratic(c):
    def value_and_grad(x):
        return 0.5 * float(np.sum(c * x * x)), c * x

    return value_and_grad


def huber(delta):
    """Linear beyond ``delta``: steps that stay there have y = 0 and keep no pair."""

    def value_and_grad(x):
        a = np.abs(x)
        v = np.where(a <= delta, 0.5 * x * x, delta * (a - 0.5 * delta))
        return float(np.sum(v)), np.clip(x, -delta, delta)

    return value_and_grad


def ascent_gradient(x):
    """The gradient of |x|^2 with the wrong sign: no step decreases the value."""
    return float(x @ x), -2.0 * x


def quartic(x):
    return float(np.sum(x**4 / 4 + x * x / 2 + np.sin(x))), x**3 + x + np.cos(x)


def pendulum(x):
    """Concave within pi / 2 of pi: steps down from there have s^T y < 0 and keep no pair."""
    return float(np.sum(1.0 - np.cos(x))), np.sin(x)


def descent_rows():
    """Objectives and starts of rows that stop in different ways and keep different pairs."""
    rng = np.random.default_rng(3)
    rows = [
        (quadratic(np.logspace(0, 3, N)), rng.standard_normal(N)),  # runs out of iterations
        (quadratic(np.logspace(0, 1, N)), rng.standard_normal(N)),  # converges
        (ascent_gradient, rng.standard_normal(N)),  # line search fails at once
        (quadratic(np.ones(N)), np.zeros(N)),  # starts converged
        (huber(1.0), 1.25 + 0.1 * rng.random(N)),  # skips its first pairs, in the linear part
        (huber(0.3), rng.standard_normal(N)),  # kinked, keeps every pair
        (quartic, rng.standard_normal(N)),
        # Keeps its first pair, from the convex part, then skips the next ones
        # while the rest leaves the top.
        (pendulum, np.concatenate([0.5 + 0.1 * rng.random(50), np.pi - 0.01 - 0.01 * rng.random(N - 50)])),
    ]
    fns, starts = zip(*rows)
    return list(fns), np.stack(starts)


def stacked(fns):
    """``value_and_grad(X, rows)`` of the rows ``rows``: row ``b`` is ``fns[b]``."""

    def value_and_grad(X, rows):
        out = [fns[b](x) for b, x in zip(rows, X)]
        return np.array([v for v, _ in out]), np.stack([g for _, g in out])

    return value_and_grad


def lone(fn, x0, target, *args):
    """The descent of one row alone: a batch of one."""
    return lbfgs(stacked([fn]), x0[None], target, *args)


def recording(fns, calls):
    """``stacked(fns)`` that appends, per call, each row's index and the bytes of its point."""
    value_and_grad = stacked(fns)

    def recorded(X, rows):
        calls.append([(int(b), _bits(x)) for b, x in zip(rows, X)])
        return value_and_grad(X, rows)

    return recorded


@pytest.mark.parametrize("preconditioned", [False, True], ids=["plain", "diagonal"])
def test_lbfgs_rows_equal_lone_descents(preconditioned):
    fns, x0 = descent_rows()
    precondition = (lambda v: v / DIAG) if preconditioned else None
    calls = []
    res = lbfgs(recording(fns, calls), x0, TARGET, MAX_ITERS, precondition)
    for b, fn in enumerate(fns):
        lone_calls = []
        alone = lbfgs(recording([fn], lone_calls), x0[b : b + 1], TARGET, MAX_ITERS, precondition)
        # A stopped row is never passed again: row b is evaluated at exactly
        # the points of its lone descent, in order.
        seen = [x for call in calls for row, x in call if row == b]
        assert seen == [x for call in lone_calls for _, x in call]
        assert _bits(res.x[b]) == _bits(alone.x[0])
        assert _bits(fn(res.x[b])[0]) == _bits(fn(alone.x[0])[0])
        assert res.row_iterations[b] == alone.iterations
        assert _bits(res.row_grad_norms[b]) == _bits(alone.row_grad_norms[0])
        assert res.row_converged[b] == alone.row_converged[0]
    its, ok = res.row_iterations, res.row_converged
    assert its[0] == MAX_ITERS and not ok[0]
    assert its[0] > LBFGS_MEMORY  # the oldest pairs were dropped
    assert its[2] == 1 and not ok[2]
    assert its[3] == 0 and ok[3]
    assert ok[1] and ok[4:].all()
    assert len(set(its[ok])) > 3  # converged rows stop at their own iterations
    assert isinstance(res.iterations, int) and res.iterations == its.sum()
    # Row indices arrive in order, and the last calls pass the capped row alone.
    assert all([b for b, _ in call] == sorted({b for b, _ in call}) for call in calls)
    assert len(calls[0]) == len(fns) and len(calls[-1]) == 1


def test_lbfgs_rows_take_one_target_each():
    fns, x0 = descent_rows()
    fns, x0 = fns[1:2] * 2, np.stack([x0[1]] * 2)
    res = lbfgs(stacked(fns), x0, np.array([1e-2, 1e-8]), MAX_ITERS)
    loose = lone(fns[0], x0[0], 1e-2, MAX_ITERS)
    tight = lone(fns[0], x0[0], 1e-8, MAX_ITERS)
    assert res.row_iterations.tolist() == [loose.iterations, tight.iterations]
    assert loose.iterations < tight.iterations
    assert _bits(res.x) == _bits(np.concatenate([loose.x, tight.x]))


def test_lbfgs_start_skips_the_first_evaluation():
    fn = stacked([quartic])
    x0 = np.random.default_rng(4).standard_normal((1, N))
    calls = []

    def counted(x, rows):
        calls.append(1)
        return fn(x, rows)

    plain = lbfgs(counted, x0, TARGET, MAX_ITERS)
    evaluations = len(calls)
    started = lbfgs(counted, x0, TARGET, MAX_ITERS, start=fn(x0, [0]))
    assert len(calls) - evaluations == evaluations - 1
    assert _bits(started.x) == _bits(plain.x)
    assert started.iterations == plain.iterations


def test_row_norms_are_the_lone_norms_at_255():
    # np.linalg.norm(axis=-1) reduces with other bits than the 1-D norm here.
    a = np.random.default_rng(7).standard_normal((4, N)) * np.array([[0.1], [1.0], [3.0], [1e3]])
    assert _bits(np.sqrt(np.vecdot(a, a))) == _bits([np.linalg.norm(row) for row in a])
