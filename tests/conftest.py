import numpy as np
import pytest
from hypothesis import settings

from wavelifespan.core import Family, GridSpec, InitialData, ModelParams

# every run draws the same examples, so a property failure reproduces as it stands
settings.register_profile("derandomized", derandomize=True, database=None)
settings.load_profile("derandomized")


@pytest.fixture
def bump_data():
    return InitialData(Family.bump, 0.0, 1.0, 1.0)


@pytest.fixture
def small_grid():
    return GridSpec(h=0.05, t_max=5.0, pad=1.0)


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def make_params(p=2.0, a=0.0, b=0.0, epsilon=0.1, R=1.0):
    return ModelParams(p=p, a=a, b=b, epsilon=epsilon, R=R)
