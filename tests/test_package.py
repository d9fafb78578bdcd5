"""Tests of the package surface: the export list and what importing it loads."""

import subprocess
import sys
import types

import polyfreq
from polyfreq import dependence, diagnostics, estimators, models

MODULES = (dependence, diagnostics, estimators, models)


def test_all_is_the_union_of_module_exports():
    assert polyfreq.__all__ == [name for m in MODULES for name in m.__all__]
    assert len(set(polyfreq.__all__)) == len(polyfreq.__all__)


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


def test_cli_import_leaves_numpy_random_unloaded():
    # numpy.random takes a few milliseconds to import; only simulation needs it
    code = "import sys, polyfreq.cli; print('numpy.random' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True)
    assert out.stdout.strip() == "False"
