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

from .dependence import (
    CoupledPair,
    DeltaEstimate,
    SummabilityReport,
    check_summability,
    coupled_paths,
    estimate_delta,
    estimate_delta_profile,
    simulate_coupled,
)
from .diagnostics import (
    DegenerateFitError,
    ModulusRecord,
    RateReport,
    SupErrorRecord,
    empirical_process,
    error_decomposition,
    fit_loglog_slope,
    make_eval_grid,
    modulus_envelope,
    modulus_exact,
    rate_experiment,
    sup_error,
)
from .estimators import (
    BinningScheme,
    EmpiricalCdf,
    FrequencyPolygonDensity,
    HistogramDensity,
    KdeBaselineDensity,
    SparseHistogram,
    bin_origin,
    build_histogram,
    cdf_bin_density,
    fp_eval,
    fp_eval_classic,
    histogram_eval,
    interp_weight,
    kde_eval_naive,
    stone_bandwidth,
)
from .models import (
    ArmaModel,
    LinearProcess,
    MarginalTruth,
    ModelValidityError,
    NlarModel,
    NoiseSpec,
    StationarityCheck,
    TarModel,
    arma_check_stationary,
    arma_marginal,
    arma_to_ma_coeffs,
    contraction_proxy,
    default_burn_in,
    marginal_truth,
    model_from_spec,
    model_to_spec,
    simulate,
    simulate_batch,
    tar_marginal_oracle,
    tar_oracle_grid,
)

__all__ = [name for name in dir() if not name.startswith("_")]
