import numpy as np
import pytest

from fraclimit import CollisionContext, CrossSection, VelocityGrid


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
