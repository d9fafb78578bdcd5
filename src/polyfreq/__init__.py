"""Frequency polygon density estimation for stationary time series.

The frequency polygon joins histogram bin densities linearly at bin
midpoints: it is continuous, as cheap to query as the histogram, and under
the ``(log n / n)**(1/3)`` bandwidth schedule its uniform error decays at
the same rate for short-range dependent processes as for i.i.d. data.
This package bundles the estimator (with a sparse bin map and an
operator-form evaluation route checked against the classical formula),
simulators for ARMA, linear, nonlinear autoregressive and threshold
models, coupled-trajectory dependence diagnostics, and an experiment
harness that measures the sup-error decay empirically.
"""

__version__ = "0.1.0"

from . import dependence, diagnostics, estimators, models
from .dependence import *  # noqa: F403
from .diagnostics import *  # noqa: F403
from .estimators import *  # noqa: F403
from .models import *  # noqa: F403

__all__ = dependence.__all__ + diagnostics.__all__ + estimators.__all__ + models.__all__
