import numpy as np
import pytest
from hypothesis import settings

from volintervals import VolatilitySeries
from volintervals.synthetic import correlated_gaussian

# a longer search for the properties that CI runs on their own: --hypothesis-profile=ci
settings.register_profile("ci", max_examples=1000)


@pytest.fixture(scope="session")
def correlated_signal():
    """Long-range correlated Gaussian, gamma=0.3, n=2^20, fixed seed."""
    return correlated_gaussian(2**20, 0.3, seed=1)


@pytest.fixture(scope="session")
def correlated_vol(correlated_signal):
    return VolatilitySeries(values=np.abs(correlated_signal))
