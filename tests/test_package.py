"""Tests of the package surface: the export list and what importing it loads."""

import subprocess
import sys
import textwrap
import types

import pytest

import polyfreq
from polyfreq import dependence, diagnostics, estimators, models

MODULES = (dependence, diagnostics, estimators, models)


def test_all_is_the_union_of_module_exports():
    assert polyfreq.__all__ == [name for m in MODULES for name in m.__all__]
    assert len(set(polyfreq.__all__)) == len(polyfreq.__all__)


def test_public_surface_snapshot():
    # a name added to or removed from the public surface shows up here
    assert polyfreq.__all__ == [
        # dependence
        "CoupledPair", "DeltaEstimate", "SummabilityReport", "simulate_coupled",
        "coupled_paths", "estimate_delta", "estimate_delta_profile", "check_summability",
        # diagnostics
        "SupErrorRecord", "RateReport", "DegenerateFitError", "make_eval_grid", "sup_error",
        "modulus_exact", "modulus_envelope", "fit_loglog_slope", "rate_experiment",
        "fp_max_slope", "error_decomposition",
        # estimators
        "BinningScheme", "SparseHistogram", "EmpiricalCdf", "build_histogram", "histogram_eval",
        "cdf_bin_density", "fp_eval", "fp_eval_classic", "stone_bandwidth", "kde_eval_naive",
        # models
        "ModelValidityError", "NoiseSpec", "ArmaModel", "LinearProcess", "NlarModel",
        "TarModel", "StationarityCheck", "MarginalTruth", "arma_check_stationary",
        "require_valid", "arma_to_ma_coeffs", "arma_marginal", "contraction_proxy",
        "default_burn_in", "resolve_burn_in", "initial_state", "advance", "simulate",
        "simulate_ragged", "nlar_soft_check", "tar_marginal_oracle", "marginal_truth",
        "model_from_spec", "model_to_spec", "make_rng",
    ]


def test_every_export_resolves_to_a_non_module():
    for name in polyfreq.__all__:
        value = getattr(polyfreq, name)
        assert not isinstance(value, types.ModuleType), name
        owner = next(m for m in MODULES if name in m.__all__)
        assert value is getattr(owner, name)


def test_cli_import_leaves_heavy_scipy_modules_unloaded():
    code = ("import sys, polyfreq.cli; "
            "print(sorted(m for m in ('scipy.signal', 'scipy.optimize') if m in sys.modules))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True)
    assert out.stdout.strip() == "[]"


@pytest.mark.parametrize("model, loaded", [
    ("TarModel(0.6, -0.3)", []),
    ("ArmaModel(ar=(0.5,))", ["special"]),
], ids=["TAR", "AR1"])
def test_error_decomposition_loads_only_the_scipy_its_truth_needs(model, loaded):
    # the window-mass peaks come from the truth, so no search loads
    # scipy.optimize; a gaussian truth needs scipy.special's ndtr
    code = textwrap.dedent(f"""
        import sys
        from polyfreq import models
        from polyfreq.diagnostics import error_decomposition
        model = models.{model}
        x = models.simulate(model, 2000, seed=1)
        error_decomposition(models.marginal_truth(model), x, 0.3)
        import scipy
        print(sorted(m for m in scipy.submodules if "scipy." + m in sys.modules))
    """)
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True)
    assert out.stdout.strip() == str(loaded)


def test_cli_import_leaves_numpy_random_unloaded():
    # numpy.random takes a few milliseconds to import; only simulation needs it
    code = "import sys, polyfreq.cli; print('numpy.random' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True)
    assert out.stdout.strip() == "False"
