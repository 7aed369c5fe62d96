import dataclasses

import numpy as np
import pytest

from tanhom.density import CoefficientLattice, TfOptions, build_density_table, laminate_oracle
from tanhom.errors import ShapeMismatch, UnsupportedGrowth
from tanhom.gamma import (
    GammaExperimentConfig,
    OptimizerOptions,
    dp_minimize_hom,
    minimize_f_eps,
    minimize_f_eps_sweep,
    minimize_f_hom,
    read_field_csv,
    run_gamma_experiment,
    write_field_csv,
)
from tanhom.integrand import (
    StepProfile,
    make_isotropic_quadratic,
    make_laminate_quadratic,
    make_norm_linear,
)
from tanhom.manifold import Sphere, circle_point

FAST_OPT = OptimizerOptions(max_iters=20000, tol=1e-12)


def build_table(f, s1, s_count=32, zmax=2.5, count=41, n=16):
    return build_density_table(
        f, s1, s_count, CoefficientLattice(-zmax, zmax, count),
        TfOptions(t_list=(1,), n=n, boundary="periodic"),
    )


def oracle_certificate(s1, profile_a, profile_b):
    """``(int_0^(pi/2) A(theta)^(1/2) dtheta)^2`` with ``A`` the first-column weight
    of the closed-form laminate reference, by a 2001-angle trapezoid rule."""
    thetas = np.linspace(0.0, np.pi / 2.0, 2001)
    root_a = []
    for theta in thetas:
        s = circle_point(theta)
        xi = s1.tangent_from_coeffs(s, [[1.0]])
        root_a.append(np.sqrt(laminate_oracle(profile_a, profile_b, s, xi)))
    return np.trapezoid(root_a, thetas) ** 2


def test_config_validation(s1, laminate1):
    with pytest.raises(ValueError):
        GammaExperimentConfig(manifold=s1, integrand=laminate1, epsilons=(0.3,), mesh_nodes=129)
    with pytest.raises(ValueError):
        GammaExperimentConfig(manifold=s1, integrand=laminate1, epsilons=(0.25,), mesh_nodes=130)
    with pytest.raises(ValueError):  # mesh cannot resolve the finest period
        GammaExperimentConfig(manifold=s1, integrand=laminate1, epsilons=(1.0 / 64,), mesh_nodes=65)
    with pytest.raises(ValueError):  # not strictly decreasing
        GammaExperimentConfig(
            manifold=s1, integrand=laminate1, epsilons=(0.125, 0.25), mesh_nodes=129
        )
    with pytest.raises(ShapeMismatch):  # dims mismatch for a 1D run
        GammaExperimentConfig(manifold=s1, integrand=make_isotropic_quadratic(2, 2),
                              epsilons=(0.25,), dim=1, mesh_nodes=129)
    # One circle rule for tables and experiments (density.check_circle).
    with pytest.raises(ValueError, match=r"circle S\^1 \(sphere, d = 2\)"):
        GammaExperimentConfig(manifold=Sphere(3), integrand=make_isotropic_quadratic(1, 3),
                              epsilons=(0.25,), mesh_nodes=129)


@pytest.mark.parametrize("eps", [1e12, np.inf])
def test_config_refuses_periods_below_one(s1, laminate1, eps):
    # round(1 / eps) is 0 here, so the tiling test would divide by zero.
    with pytest.raises(ValueError, match="at least 1"):
        GammaExperimentConfig(manifold=s1, integrand=laminate1, epsilons=(eps,), mesh_nodes=129)


@pytest.mark.parametrize("tol", [0.0, -1e-12, np.inf, np.nan])
def test_optimizer_tol_must_be_positive_and_finite(tol):
    with pytest.raises(ValueError, match="tol"):
        OptimizerOptions(tol=tol)


@pytest.mark.parametrize("max_iters", [0, -5])
def test_optimizer_max_iters_at_least_one(max_iters):
    with pytest.raises(ValueError, match="max_iters"):
        OptimizerOptions(max_iters=max_iters)


def test_constant_boundary_data_zero_energy(s1):
    iso = make_isotropic_quadratic(1, 2)
    cfg = GammaExperimentConfig(
        manifold=s1, integrand=iso, epsilons=(0.25,), dim=1, mesh_nodes=65,
        theta0=0.5, theta1=0.5, optimizer=FAST_OPT,
    )
    run = minimize_f_eps(cfg, 0.25)
    assert run.energy <= 1e-20
    assert run.converged


def test_geodesic_energy(s1):
    iso = make_isotropic_quadratic(1, 2)
    energies = []
    for nodes in (65, 129):
        cfg = GammaExperimentConfig(
            manifold=s1, integrand=iso, epsilons=(0.25,), dim=1, mesh_nodes=nodes,
            optimizer=FAST_OPT,
        )
        energies.append(minimize_f_eps(cfg, 0.25).energy)
    target = (np.pi / 2.0) ** 2
    assert abs(energies[1] - target) <= 1e-3
    assert abs(energies[1] - target) < abs(energies[0] - target)  # mesh refinement


def test_isotropic_oscillation_harmonic_mean(s1):
    # a = b: the weight is s-independent and the limit energy is the
    # harmonic mean of the profile times the geodesic cost.
    prof = StepProfile((0.5,), (1.0, 2.0))
    f = make_laminate_quadratic(prof, prof, 1)
    cfg = GammaExperimentConfig(
        manifold=s1, integrand=f, epsilons=(1.0 / 16,), dim=1, mesh_nodes=257,
        optimizer=FAST_OPT,
    )
    run = minimize_f_eps(cfg, 1.0 / 16)
    hm = 1.0 / prof.reciprocal_integral()
    assert run.energy == pytest.approx(hm * (np.pi / 2.0) ** 2, rel=0.02)


def test_periodicity_invariance(s1, profile_a, profile_b):
    # Shifting the coefficient pattern by one full period leaves the discrete
    # energy of any field unchanged.
    from tanhom.gamma import _OscillatingEnergy

    f = make_laminate_quadratic(profile_a, profile_b, 1)
    shifted = dataclasses.replace(
        f, eval=lambda y, xi: f.eval(np.asarray(y) + 1.0, xi),
        grad_xi=lambda y, xi: f.grad_xi(np.asarray(y) + 1.0, xi),
    )
    cfg = GammaExperimentConfig(
        manifold=s1, integrand=f, epsilons=(0.25,), dim=1, mesh_nodes=65,
        optimizer=FAST_OPT,
    )
    cfg_shift = dataclasses.replace(cfg, integrand=shifted)
    U = cfg.initial_field()[None]
    e1 = _OscillatingEnergy(cfg, (0.25,)).value_and_grad(U)[0][0]
    e2 = _OscillatingEnergy(cfg_shift, (0.25,)).value_and_grad(U)[0][0]
    assert e1 == pytest.approx(e2, rel=1e-14)


def test_iterates_stay_on_manifold(s1, laminate1):
    cfg = GammaExperimentConfig(
        manifold=s1, integrand=laminate1, epsilons=(0.25,), dim=1, mesh_nodes=65,
        optimizer=FAST_OPT,
    )
    run = minimize_f_eps(cfg, 0.25)
    norms = np.linalg.norm(run.field, axis=0)
    assert np.max(np.abs(norms - 1.0)) <= 1e-9


def test_descent_improves_initial_energy(s1, laminate1):
    from tanhom.gamma import _OscillatingEnergy

    cfg = GammaExperimentConfig(
        manifold=s1, integrand=laminate1, epsilons=(0.25,), dim=1, mesh_nodes=65,
        optimizer=FAST_OPT,
    )
    init = _OscillatingEnergy(cfg, (0.25,)).value_and_grad(cfg.initial_field()[None])[0][0]
    run = minimize_f_eps(cfg, 0.25)
    assert run.energy <= init + 1e-12


@pytest.mark.parametrize(
    "dim, nodes, epsilons, max_iters",
    [
        (1, 65, (0.5, 0.25, 0.125), 20000),
        (1, 65, (0.5, 0.25, 0.125), 20),  # the finer rows stop unconverged
        (2, 17, (1.0, 0.5), 20000),
    ],
)
def test_sweep_rows_equal_lone_minimizations(s1, dim, nodes, epsilons, max_iters):
    # A contrast of 20 makes every period size stop at its own iteration.
    f = make_laminate_quadratic(StepProfile((0.5,), (1.0, 20.0)), StepProfile.constant(1.0), dim)
    cfg = GammaExperimentConfig(
        manifold=s1, integrand=f, epsilons=epsilons, dim=dim, mesh_nodes=nodes,
        optimizer=OptimizerOptions(max_iters=max_iters, tol=1e-12),
    )
    sweep = minimize_f_eps_sweep(cfg, epsilons)
    for eps, run in zip(epsilons, sweep):
        lone = minimize_f_eps(cfg, eps)
        assert np.float64(run.energy).tobytes() == np.float64(lone.energy).tobytes()
        assert run.field.tobytes() == lone.field.tobytes()
        assert (run.iterations, run.converged, run.warning) == (
            lone.iterations, lone.converged, lone.warning,
        )
    iterations = [run.iterations for run in sweep]
    if max_iters > 100:
        assert len(set(iterations)) == len(sweep)
    else:
        assert [run.converged for run in sweep] == [True, False, False]


def test_hom_matches_direct_for_isotropic_table(s1):
    iso = make_isotropic_quadratic(1, 2)
    table = build_table(iso, s1, s_count=16, zmax=2.5, count=81, n=4)
    cfg = GammaExperimentConfig(
        manifold=s1, integrand=iso, epsilons=(0.25,), table=table, dim=1,
        mesh_nodes=65, optimizer=FAST_OPT,
    )
    hom = minimize_f_hom(cfg)
    direct = minimize_f_eps(cfg, 0.25)
    assert abs(hom.energy - direct.energy) <= 1e-3
    assert hom.clamp_count == 0


def test_certificate_isotropic_is_the_geodesic(s1):
    iso = make_isotropic_quadratic(1, 2)
    table = build_table(iso, s1, s_count=16, zmax=2.5, count=81, n=4)
    e_dp = dp_minimize_hom(table, 0.0, np.pi / 2.0)
    assert e_dp == pytest.approx((np.pi / 2.0) ** 2, rel=1e-12)


def test_certificate_matches_laminate_oracle(s1, laminate1, profile_a, profile_b):
    table = build_table(laminate1, s1)
    assert len(table.thetas) == 32
    e_dp = dp_minimize_hom(table, 0.0, np.pi / 2.0)
    assert e_dp == pytest.approx(oracle_certificate(s1, profile_a, profile_b), rel=1e-12)


def test_certificate_refuses_tables_it_cannot_read(s1, laminate1, smoke_2d):
    table = build_table(laminate1, s1, s_count=8, count=5, n=4)
    with pytest.raises(UnsupportedGrowth):
        dp_minimize_hom(dataclasses.replace(table, tensor=None), 0.0, 1.0)
    with pytest.raises(ShapeMismatch):
        dp_minimize_hom(smoke_2d[0].table, 0.0, 1.0)


def test_run_gamma_experiment_report(s1, laminate1):
    table = build_table(laminate1, s1)
    cfg = GammaExperimentConfig(
        manifold=s1, integrand=laminate1, epsilons=(0.25, 0.125), table=table,
        dim=1, mesh_nodes=129, optimizer=FAST_OPT,
    )
    report = run_gamma_experiment(cfg)
    assert len(report.gaps) == 2
    assert report.gaps[1] < report.gaps[0]
    assert report.trend_fraction == 1.0
    assert report.dp_energy is not None
    assert abs(report.dp_energy - report.hom_energy) <= 0.01 * report.hom_energy
    assert not report.certificate_missed and report.warnings == []
    assert all(e >= 0.0 for e in report.eps_energies) and report.hom_energy >= 0.0
    d = report.to_dict()
    assert set(d) >= {"epsilons", "gaps", "hom_energy", "dp_energy"}


@pytest.fixture(scope="module")
def smoke_2d(s1, profile_a, profile_b):
    f2 = make_laminate_quadratic(profile_a, profile_b, 2)
    table = build_table(f2, s1, s_count=12, zmax=3.0, count=9, n=8)
    cfg = GammaExperimentConfig(
        manifold=s1, integrand=f2, epsilons=(0.25, 0.125), table=table, dim=2,
        mesh_nodes=65, optimizer=OptimizerOptions(max_iters=5000, tol=1e-11),
        run_dp=False,
    )
    return cfg, run_gamma_experiment(cfg)


def test_two_dimensional_smoke(smoke_2d):
    cfg, report = smoke_2d
    f2 = cfg.integrand
    dtheta = np.pi / 2.0
    lower = f2.alpha * dtheta**2
    from tanhom.gamma import _OscillatingEnergy

    U = np.stack([cfg.initial_field()] * len(cfg.epsilons))
    uppers = _OscillatingEnergy(cfg, cfg.epsilons).value_and_grad(U)[0]
    for upper, energy in zip(uppers, report.eps_energies):
        assert 0.9 * lower <= energy <= upper + 1e-12
    # The homogenized descent moves off the initial field and reaches below
    # the finest oscillating minimum.
    assert report.hom_converged
    assert report.hom_iterations > 1
    assert report.hom_energy < report.eps_energies[-1]


def test_two_dimensional_hom_is_above_the_1d_certificate(smoke_2d, s1, profile_a, profile_b):
    # The faces x2 = 0, 1 pin the affine data, so every x2-slice runs from
    # theta0 to theta1, and z^T A z >= (A11 - A12^2 / A22) z1^2 (A12 = 0 for
    # the laminate): the 1D certificate of A11 is a lower bound, up to mesh error.
    _, report = smoke_2d
    certificate = oracle_certificate(s1, profile_a, profile_b)
    assert report.hom_energy >= certificate * (1.0 - 1e-4)


def test_linear_growth_smoke(s1):
    c = StepProfile((0.5,), (1.0, 2.0))
    f = make_norm_linear(c, 1, 2)
    cfg = GammaExperimentConfig(
        manifold=s1, integrand=f, epsilons=(0.25,), dim=1, mesh_nodes=65,
        optimizer=OptimizerOptions(max_iters=5000, tol=1e-11), huber_mu=1e-3,
    )
    run = minimize_f_eps(cfg, 0.25)
    # Reported energy is the exact (unsmoothed) one; the shortest path costs
    # at least alpha * turning angle.
    assert run.energy >= f.alpha * (np.pi / 2.0) - 1e-6
    norms = np.linalg.norm(run.field, axis=0)
    assert np.max(np.abs(norms - 1.0)) <= 1e-9


def test_write_field_csv(tmp_path, s1, laminate1):
    cfg = GammaExperimentConfig(
        manifold=s1, integrand=laminate1, epsilons=(0.25,), dim=1, mesh_nodes=33,
        optimizer=FAST_OPT,
    )
    run = minimize_f_eps(cfg, 0.25)
    path = tmp_path / "field.csv"
    write_field_csv(run.field, path)
    rows = path.read_text().strip().split("\n")
    assert rows[0] == "x0,u0,u1"
    assert len(rows) == 34
    np.testing.assert_allclose(read_field_csv(path), run.field)


def angle_problem(s1, profile_a, profile_b, dim, homogenized):
    """An angle-coordinate energy of a laminate, one row, and a perturbed row of interior angles."""
    from tanhom.gamma import _AngleProblem, _OscillatingEnergy, _TableEnergy

    f = make_laminate_quadratic(profile_a, profile_b, dim)
    table = build_table(f, s1, s_count=12, zmax=3.0, count=9, n=8)
    eps, nodes = (0.25, 65) if dim == 1 else (0.5, 17)
    cfg = GammaExperimentConfig(
        manifold=s1, integrand=f, epsilons=(eps,), table=table, dim=dim,
        mesh_nodes=nodes, optimizer=FAST_OPT,
    )
    energy = _TableEnergy(cfg) if homogenized else _OscillatingEnergy(cfg, (eps,))
    problem = _AngleProblem(cfg, energy, 1)
    x = problem.x0 + 0.1 * np.random.default_rng(dim).standard_normal(problem.x0.shape)
    return problem, x


@pytest.mark.parametrize("homogenized", [False, True], ids=["f_eps", "f_hom"])
@pytest.mark.parametrize("dim", [1, 2])
def test_angle_energy_gradient_matches_central_differences(
    s1, profile_a, profile_b, dim, homogenized
):
    problem, x = angle_problem(s1, profile_a, profile_b, dim, homogenized)
    row = np.arange(1)
    _, g = problem.value_and_grad(x, row)
    gfd = np.zeros_like(g)
    h = 1e-6
    for i in range(x.size):
        e = np.zeros_like(x)
        e[0, i] = h
        gfd[0, i] = (
            problem.value_and_grad(x + e, row)[0][0] - problem.value_and_grad(x - e, row)[0][0]
        ) / (2.0 * h)
    assert np.count_nonzero(g) == g.size
    assert np.linalg.norm(g - gfd) <= 1e-5 * np.linalg.norm(gfd)


@pytest.mark.parametrize("dim", [1, 2])
def test_angle_preconditioner_inverts_dirichlet_hessian(s1, profile_a, profile_b, dim):
    # The unit Dirichlet energy mean |grad theta|^2 of the interior angles is
    # quadratic, so its Hessian columns are gradient differences.
    problem, x = angle_problem(s1, profile_a, profile_b, dim, homogenized=False)
    grid = problem.energy.grid

    def dirichlet_grad(v):
        theta = np.zeros((1, *grid.node_shape))
        theta[problem.interior] = v.reshape(problem.shape)
        G = grid.center_gradient(theta)
        return grid.center_gradient_adjoint(2.0 * G / grid.n_elements)[problem.interior].reshape(
            v.shape
        )

    r = np.random.default_rng(7).standard_normal(x.shape)
    np.testing.assert_allclose(dirichlet_grad(problem.precondition(r)), r, atol=1e-9)
