import os

import numpy as np
import pytest
from hypothesis import settings

# ``HYPOTHESIS_PROFILE=ci`` draws the same examples on every run and drops the
# per-example deadline, so a property failure reproduces and a slow runner
# cannot fail one by time alone
settings.register_profile("ci", derandomize=True, deadline=None)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))


@pytest.fixture
def rng():
    return np.random.default_rng(20260810)
