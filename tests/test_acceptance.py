"""Acceptance suite: one pass/fail line per criterion.

Run ``pytest tests/test_acceptance.py -v -s`` to see the lines inline.  Every
tolerance is pinned here; the reference values come from closed forms (step
profile means, geodesic costs) or from independent certificates (tiling
candidates, the geodesic minimum of the table's tensor), never from the code
paths under test.
"""

import time

import numpy as np
import pytest

from tanhom.cell import CellProblemSpec, _CellObjective, solve_cell, solve_cell_unconstrained
from tanhom.density import (
    CoefficientLattice,
    TfOptions,
    build_density_table,
    check_growth_lipschitz,
    check_tangential_quasiconvexity,
    laminate_oracle,
    tf_hom,
)
from tanhom.gamma import (
    GammaExperimentConfig,
    OptimizerOptions,
    run_gamma_experiment,
)
from tanhom.integrand import (
    StepProfile,
    make_fbar,
    make_g_extension,
    make_isotropic_quadratic,
    make_laminate_quadratic,
    make_norm_linear,
)
from tanhom.manifold import Sphere, circle_point

S1 = Sphere(2)
PROFILE_A = StepProfile((0.5,), (1.0, 2.0))
PROFILE_B = StepProfile.constant(1.0)
LAMINATE2 = make_laminate_quadratic(PROFILE_A, PROFILE_B, 2)
LAMINATE1 = make_laminate_quadratic(PROFILE_A, PROFILE_B, 1)

SWEEP_ANGLES = [2.0 * np.pi * k / 8.0 for k in range(8)]
SWEEP_COEFFS = [-2.0, -1.0, 0.0, 1.0, 2.0]


def report(num: int, passed: bool, description: str, detail: str) -> None:
    line = f"[{'PASS' if passed else 'FAIL'}] criterion {num}: {description} ({detail})"
    print(line)
    assert passed, line


def sweep_pairs():
    for theta in SWEEP_ANGLES:
        s = circle_point(theta)
        for c in SWEEP_COEFFS:
            yield s, S1.tangent_from_coeffs(s, np.array([[c, -c]]))


def run_sweep(n: int):
    opts = TfOptions(t_list=(1,), n=n, boundary="periodic")
    values, oracles = [], []
    start = time.time()
    for s, xi in sweep_pairs():
        values.append(tf_hom(LAMINATE2, S1, s, xi, opts).value)
        oracles.append(laminate_oracle(PROFILE_A, PROFILE_B, s, xi))
    return np.asarray(values), np.asarray(oracles), time.time() - start


@pytest.fixture(scope="module")
def sweep64():
    return run_sweep(64)


@pytest.fixture(scope="module")
def sweep128():
    return run_sweep(128)


@pytest.fixture(scope="module")
def gamma_outcome():
    start = time.time()
    table = build_density_table(
        LAMINATE1,
        S1,
        128,
        CoefficientLattice(-2.5, 2.5, 161),
        TfOptions(t_list=(1,), n=16, boundary="periodic"),
    )
    config = GammaExperimentConfig(
        manifold=S1,
        integrand=LAMINATE1,
        epsilons=(0.25, 0.125, 0.0625, 0.03125, 0.015625),
        table=table,
        dim=1,
        mesh_nodes=513,
        theta0=0.0,
        theta1=np.pi / 2.0,
        optimizer=OptimizerOptions(max_iters=40000, tol=1e-12),
    )
    result = run_gamma_experiment(config)
    return result, time.time() - start


def test_criterion_1_laminate_oracle(sweep64, sweep128):
    values64, oracles, elapsed64 = sweep64
    rel64 = np.max(np.abs(values64 - oracles) / (1.0 + oracles))

    values128, _, elapsed128 = sweep128
    rel128 = np.max(np.abs(values128 - oracles) / (1.0 + oracles))

    north = np.array([0.0, 1.0])
    opts = TfOptions(t_list=(1,), n=64, boundary="periodic")
    spot_h = tf_hom(LAMINATE2, S1, north, np.array([[1.0, 0.0], [0.0, 0.0]]), opts).value
    spot_a = tf_hom(LAMINATE2, S1, north, np.array([[0.0, 1.0], [0.0, 0.0]]), opts).value

    passed = (
        rel64 <= 2e-2
        and rel128 <= 5e-3
        and abs(spot_h - 4.0 / 3.0) <= 0.02 * (4.0 / 3.0)
        and abs(spot_a - 1.5) <= 0.02 * 1.5
        and elapsed64 <= 120.0
        and elapsed128 <= 120.0
    )
    report(
        1,
        passed,
        "laminate sweep matches the closed form",
        f"rel err n=64 {rel64:.2e}, n=128 {rel128:.2e}, spots {spot_h:.6f}/{spot_a:.6f}, "
        f"sweep times {elapsed64:.1f}s/{elapsed128:.1f}s",
    )


def test_criterion_2_extension_equivalence(sweep64):
    values64, _, _ = sweep64
    fbar = make_fbar(LAMINATE2, S1)
    opts = TfOptions(t_list=(1,), n=64, boundary="periodic")
    points, loads = zip(*sweep_pairs())
    rows = solve_cell_unconstrained(fbar, opts.cell_batch(S1, points, loads, 1))
    worst = 0.0
    for constrained, unconstrained in zip(values64, rows.values.tolist(), strict=True):
        worst = max(worst, abs(constrained - unconstrained) / (1.0 + abs(constrained)))

    f1 = make_norm_linear(PROFILE_A, 1, 2)
    g = make_g_extension(f1, S1, 0.5)
    north = np.array([0.0, 1.0])
    xi1 = S1.tangent_from_coeffs(north, np.array([[1.0]]))
    biases = {}
    gap_p1 = None
    for mu in (1e-3, 1e-4):
        spec = CellProblemSpec(
            S1, north, xi1, t=1, nodes_per_period=64, boundary="periodic",
            tol_grad=1e-6, huber_mu=mu,
        )
        vc = solve_cell(f1, spec).value
        vu = solve_cell_unconstrained(g, spec.batch).values[0]
        biases[mu] = abs(vc - 1.0)  # exact limit: gradient mass sits where c is cheapest
        if mu == 1e-4:
            gap_p1 = abs(vc - vu) / (1.0 + abs(vc))

    shrink = biases[1e-4] <= 0.3 * biases[1e-3]
    passed = worst <= 1e-6 and gap_p1 <= 1e-3 and shrink
    report(
        2,
        passed,
        "tangential and extended minima coincide",
        f"p=2 gap {worst:.2e}, p=1 gap {gap_p1:.2e}, "
        f"smoothing bias {biases[1e-3]:.2e} -> {biases[1e-4]:.2e}",
    )


def test_criterion_3_sandwich(sweep64):
    values64, _, _ = sweep64
    ok_sweep = True
    for (s, xi), v in zip(sweep_pairs(), values64):
        norm_p = float(np.sum(xi * xi))
        ok_sweep = ok_sweep and (
            LAMINATE2.alpha * norm_p <= v <= LAMINATE2.beta * (1.0 + norm_p)
        )

    table = build_density_table(
        LAMINATE1, S1, 8, CoefficientLattice(-2.0, 2.0, 5),
        TfOptions(t_list=(1,), n=64, boundary="periodic"),
    )
    ok_table, lo, hi = table.check_sandwich()
    passed = ok_sweep and ok_table and bool(np.isfinite(table.values).all())
    report(
        3,
        passed,
        "every computed value sits in the growth sandwich",
        f"table margins lo {lo:.2e} hi {hi:.2e}, {table.values.size + len(values64)} values",
    )


def test_criterion_4_lipschitz_constant_stable():
    opts = TfOptions(t_list=(1,), n=16, boundary="periodic")
    c200 = check_growth_lipschitz(LAMINATE2, S1, 200, seed=1234, opts=opts).fitted_constant
    c400 = check_growth_lipschitz(LAMINATE2, S1, 400, seed=1234, opts=opts).fitted_constant
    # Samples are nested, so the fitted constant can only grow with the sample.
    passed = c400 > 0 and (c400 - c200) <= 0.10 * c400
    report(
        4,
        passed,
        "difference-quotient constant stable under sample doubling",
        f"C(200) = {c200:.4f}, C(400) = {c400:.4f}",
    )


def test_criterion_5_tangential_quasiconvexity():
    opts = TfOptions(t_list=(1,), n=16, boundary="periodic")
    cases = [
        (np.array([0.0, 1.0]), np.array([[1.0, 0.0]])),
        (circle_point(np.pi / 4.0), np.array([[0.5, -1.0]])),
    ]
    worst = -np.inf
    passed = True
    for s, coeffs in cases:
        xi = S1.tangent_from_coeffs(s, coeffs)
        rep = check_tangential_quasiconvexity(
            LAMINATE2, S1, s, xi, trial_count=100, seed=77, opts=opts
        )
        worst = max(worst, rep.max_residual / (1.0 + float(np.sum(xi * xi))))
        passed = passed and rep.passed
    report(
        5,
        passed,
        "trial fields never beat the homogenized value",
        f"max scaled residual {worst:.2e} over 100 trials per base pair (tol 1e-3)",
    )


def test_criterion_6_cube_and_boundary_monotonicity():
    north = np.array([0.0, 1.0])
    xi = np.array([[1.0, 0.0], [0.0, 0.0]])
    values = []
    for t in (1, 2, 4):
        spec = CellProblemSpec(
            S1, north, xi, t=t, nodes_per_period=8, boundary="dirichlet0"
        )
        values.append(solve_cell(LAMINATE2, spec).value)
    monotone = all(b <= a + 1e-10 for a, b in zip(values, values[1:]))

    spec_d = CellProblemSpec(S1, north, xi, t=1, nodes_per_period=8, boundary="dirichlet0")
    spec_p = CellProblemSpec(S1, north, xi, t=1, nodes_per_period=8, boundary="periodic")
    v_d = solve_cell(LAMINATE2, spec_d).value
    v_p = solve_cell(LAMINATE2, spec_p).value
    passed = monotone and v_p <= v_d + 1e-10
    report(
        6,
        passed,
        "cell values shrink with the cube and under periodic conditions",
        f"t-trace {values[0]:.8f} >= {values[1]:.8f} >= {values[2]:.8f}, "
        f"periodic {v_p:.8f} <= zero-boundary {v_d:.8f}",
    )


def test_criterion_7_zero_corrector_oracle():
    iso = make_isotropic_quadratic(2, 2)
    north = np.array([0.0, 1.0])
    xi = S1.tangent_from_coeffs(north, np.array([[1.0, -0.5]]))
    norm_sq = float(np.sum(xi * xi))
    worst_corr, worst_val = 0.0, 0.0
    for boundary in ("dirichlet0", "periodic"):
        spec = CellProblemSpec(S1, north, xi, t=1, nodes_per_period=16, boundary=boundary)
        res = solve_cell(iso, spec)
        worst_corr = max(worst_corr, res.corrector.max_abs())
        worst_val = max(worst_val, abs(res.value - norm_sq))
    passed = worst_corr <= 1e-10 and worst_val <= 1e-12 * (1.0 + norm_sq)
    report(
        7,
        passed,
        "constant-coefficient density needs no corrector",
        f"corrector max {worst_corr:.1e}, value error {worst_val:.1e}",
    )


def test_criterion_8_gamma_convergence_probe(gamma_outcome):
    result, elapsed = gamma_outcome
    gaps = result.gaps
    decreasing = all(b < a for a, b in zip(gaps, gaps[1:]))
    final_ok = gaps[-1] <= 0.05 * result.hom_energy
    dp_ok = abs(result.dp_energy - result.hom_energy) <= 0.01 * result.hom_energy
    passed = (
        decreasing
        and final_ok
        and dp_ok
        and all(result.eps_converged)
        and result.hom_converged
        and elapsed <= 300.0
    )
    gap_text = " > ".join(f"{g:.5f}" for g in gaps)
    report(
        8,
        passed,
        "minimum energies approach the homogenized minimum",
        f"gaps {gap_text}; hom {result.hom_energy:.6f}, dp {result.dp_energy:.6f}, "
        f"{elapsed:.0f}s",
    )


def test_criterion_8_closed_form_certificate(gamma_outcome):
    # In 1D the homogenized density is A(theta) z^2, so the minimum over angle
    # paths from 0 to pi/2 is the squared geodesic length (int A^(1/2))^2,
    # here with A from the closed-form laminate reference.
    result, _ = gamma_outcome
    thetas = np.linspace(0.0, np.pi / 2.0, 2001)
    root_a = []
    for theta in thetas:
        s = circle_point(theta)
        root_a.append(np.sqrt(laminate_oracle(PROFILE_A, PROFILE_B, s, S1.tangent_from_coeffs(s, [[1.0]]))))
    certificate = np.trapezoid(root_a, thetas) ** 2
    rel = abs(result.hom_energy - certificate) / certificate
    report(
        8,
        rel <= 1e-5,
        "homogenized minimum matches the closed-form geodesic certificate",
        f"hom {result.hom_energy:.7f}, certificate {certificate:.7f}, relative {rel:.1e}",
    )


def test_criterion_9_gradient_correctness():
    rng = np.random.default_rng(2024)
    worst = 0.0
    checked = 0
    cases = []
    for ndim in (1, 2):
        f = make_laminate_quadratic(PROFILE_A, PROFILE_B, ndim)
        fbar = make_fbar(f, S1)
        for boundary in ("dirichlet0", "periodic"):
            cases.append((f, None, ndim, boundary))
            cases.append((f, fbar, ndim, boundary))
    while checked < 50:
        f, fbar, ndim, boundary = cases[checked % len(cases)]
        s = S1.random_point(rng)
        xi = S1.tangent_from_coeffs(s, rng.uniform(-2, 2, size=(1, ndim)))
        spec = CellProblemSpec(S1, s, xi, t=1, nodes_per_period=4, boundary=boundary)
        if fbar is None:
            obj = _CellObjective(spec.batch, S1.tangent_basis(s), f)
            forms = (f.eval, f.grad_xi)
        else:
            obj = _CellObjective(spec.batch, np.eye(2), fbar, points=spec.s[None])
            forms = (fbar.eval, fbar.grad_xi)
        x = rng.standard_normal((1, obj.n_unknowns))
        _, g = obj.value_and_grad(forms, x)
        gfd = np.zeros_like(g)
        h = 1e-6
        for i in range(x.size):
            e = np.zeros_like(x)
            e[0, i] = h
            gfd[0, i] = (
                obj.value_and_grad(forms, x + e)[0][0] - obj.value_and_grad(forms, x - e)[0][0]
            ) / (2.0 * h)
        worst = max(worst, np.linalg.norm(g - gfd) / max(np.linalg.norm(gfd), 1e-12))
        checked += 1
    passed = worst <= 1e-5
    report(
        9,
        passed,
        "assembled gradients match central differences",
        f"worst relative error {worst:.2e} over {checked} random fields",
    )
