import numpy as np
import pytest

from fraclimit import CollisionContext, CrossSection, Tail, VelocityGrid


@pytest.fixture(scope="session")
def grid128():
    return VelocityGrid(128, 200.0)


@pytest.fixture(scope="session")
def ctx15(grid128):
    return CollisionContext(grid128, CrossSection(1.0), 1.5)


@pytest.fixture(scope="session")
def ctx1(grid128):
    return CollisionContext(grid128, CrossSection(1.0), 1.0)


@pytest.fixture(scope="session")
def ctx15p(grid128):
    return CollisionContext(grid128, CrossSection(1.0, 0.5), 1.5)


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(1234)


@pytest.fixture(scope="session")
def F_cdf():
    """`F_cdf(profile, grid)`: the CDF of a velocity profile on `grid`, by
    trapezoids on [-400, 400] and the profile's tail integrals beyond."""

    def factory(profile, grid):
        vs = np.linspace(-400.0, 400.0, 20001)
        dens = profile(vs)
        cum = np.concatenate([[0.0], np.cumsum((dens[1:] + dens[:-1]) / 2 * np.diff(vs))])
        right, left = Tail(grid, profile.values).integral(0.0, 400.0)
        total = left + cum[-1] + right

        def cdf(v):
            return (left + np.interp(v, vs, cum)) / total

        return cdf

    return factory
