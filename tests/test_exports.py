"""Every ``__all__`` in the package names only attributes that exist."""

import importlib
import inspect
import os
import pkgutil
import subprocess
import sys

import pytest
from hypothesis.internal.conjecture import providers

import mmvport

MODULES = ["mmvport"] + [
    f"mmvport.{info.name}" for info in pkgutil.iter_modules(mmvport.__path__)
]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_exist(name):
    module = importlib.import_module(name)
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert missing == []


ROOT_MODULES = [
    "errors",
    "probability",
    "monotone_sharpe",
    "market",
    "dual",
    "primal",
    "fcfs",
    "selftest",
]

# the root surface before it was read off the modules' lists, less the
# retired SingularSystem, which nothing raised
ROOT_NAMES_BEFORE = [
    "__version__",
    "MmvError", "InputError", "ParseError", "ValidationError",
    "DimensionMismatch", "ViabilityError", "SolverError", "SolverFailure",
    "IterationLimit", "GenerationFailure",
    "InconsistentEquivalence", "DomainError", "NonpositiveMean", "NoDownside",
    "CertificateInvalid",
    "DiscreteLaw", "RandomVariable", "HullValue", "mean", "second_moment",
    "variance", "moments", "sharpe_ratio", "expected_quadratic_utility",
    "expected_truncated_utility", "mean_variance_value",
    "monotone_mean_variance_value",
    "MonotoneSharpeResult", "monotone_sharpe", "solve_alpha_hat",
    "oracle_grid_sr", "sr_to_value", "value_to_sr",
    "TreeNode", "ScenarioTree", "Strategy", "MeasureDensity",
    "ViabilityCertificate", "load_market", "load_packaged_market",
    "market_from_dict", "market_to_dict", "market_to_json", "save_market",
    "terminal_wealth", "check_viability", "generate_random_market",
    "DualSolution", "variance_optimal_signed", "variance_optimal_nonneg",
    "PrimalSolution", "MmvAllocation", "optimal_quadratic",
    "optimal_truncated", "mmv_allocation", "cash_level_residual",
    "verify_remark_foc",
    "FcfsReport", "analyze", "verify_fcfs_certificate", "report_to_dict",
    "CriterionResult", "run_selftest",
]


def _module(name):
    return importlib.import_module(f"mmvport.{name}")


def test_root_all_is_the_modules_lists():
    expected = ["__version__"] + [
        n for name in ROOT_MODULES for n in _module(name).__all__
    ]
    assert mmvport.__all__ == expected
    assert len(set(expected)) == len(expected)


def test_root_keeps_every_earlier_name():
    assert len(ROOT_NAMES_BEFORE) == 64
    assert sorted(set(mmvport.__all__) - set(ROOT_NAMES_BEFORE)) == [
        "alpha_root_bisection",
        "quadratic_utility",
        "truncated_utility",
    ]
    assert set(ROOT_NAMES_BEFORE) <= set(mmvport.__all__)
    # the function, not the submodule of the same name
    assert callable(mmvport.monotone_sharpe)


@pytest.mark.parametrize("name", ROOT_MODULES)
def test_module_all_lists_every_public_definition(name):
    module = _module(name)
    defined = [
        n
        for n, obj in vars(module).items()
        if not n.startswith("_")
        and (inspect.isclass(obj) or inspect.isfunction(obj))
        and obj.__module__ == module.__name__
    ]
    assert sorted(set(defined) - set(module.__all__)) == []


def test_cli_import_leaves_the_pool_and_the_selftest_unloaded():
    # a fresh interpreter, as a benchmark or shell worker starts one
    code = (
        "import sys, mmvport.cli\n"
        "print(sorted({'concurrent.futures', 'mmvport.selftest'} & set(sys.modules)))\n"
        "namespace = {}\n"
        "exec('from mmvport import *', namespace)\n"
        "import mmvport\n"
        "print(sorted(set(mmvport.__all__) - set(namespace)))\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
    ).stdout
    assert out.splitlines() == ["[]", "[]"]


def test_property_draws_ignore_the_literals_of_loaded_modules():
    # conftest empties hypothesis's pool of local-module literals; the pool
    # is read through the provider that draws, so a hypothesis that renames
    # the hook fails here instead of bringing those draws back
    for name in MODULES:
        importlib.import_module(name)
    assert len(providers._get_local_constants()) == 0
    assert len(providers.HypothesisProvider(None)._local_constants) == 0
