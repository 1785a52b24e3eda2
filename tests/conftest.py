import numpy as np
import pytest

from osora.verify import perturbed_state, rel_inf  # noqa: F401  (test modules import them from here)


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
