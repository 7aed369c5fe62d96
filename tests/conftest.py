import numpy as np
import pytest

from tanhom.integrand import Integrand, StepProfile, make_laminate_quadratic
from tanhom.manifold import Sphere


@pytest.fixture(scope="session")
def s1():
    return Sphere(2)


@pytest.fixture(scope="session")
def profile_a():
    return StepProfile((0.5,), (1.0, 2.0))


@pytest.fixture(scope="session")
def profile_b():
    return StepProfile.constant(1.0)


@pytest.fixture(scope="session")
def laminate2(profile_a, profile_b):
    return make_laminate_quadratic(profile_a, profile_b, 2)


@pytest.fixture(scope="session")
def laminate1(profile_a, profile_b):
    return make_laminate_quadratic(profile_a, profile_b, 1)


@pytest.fixture(scope="session")
def north():
    return np.array([0.0, 1.0])


@pytest.fixture(scope="session")
def xi_harmonic():
    # First-column direction: feels the harmonic mean of the laminate weight.
    return np.array([[1.0, 0.0], [0.0, 0.0]])


@pytest.fixture(scope="session")
def xi_arithmetic():
    return np.array([[0.0, 1.0], [0.0, 0.0]])


@pytest.fixture(scope="session")
def nan_density():
    # NaN values with a finite gradient: only a check of the value can catch it.
    return Integrand(
        eval=lambda y, xi: np.full(np.shape(xi)[:-2], np.nan),
        grad_xi=lambda y, xi: 2.0 * np.asarray(xi),
        p=2,
        alpha=1.0,
        beta=1.0,
        dims=(1, 2),
        quadratic=True,
    )
