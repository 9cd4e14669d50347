"""The package's public surface, pinned name by name.

Each name is one implementation of one idea.  A general Toeplitz solve and
a scorer of one weight vector on given paths have no caller in the package:
``projection_weights_at`` runs the Levinson kernel itself and
``empirical_mses`` scores every predictor, so both live in
``tests/_oracles.py``.  ``levinson_durbin`` stays public although no command
needs it: ``bench/test_bench.py`` reads ``longpred.levinson_durbin`` and
``bench/tracing.py`` defines the ``fit.levinson_*`` layer metrics on it, so
it can only go together with a change to the benchmark.  ``csvio`` writes
every row through one template path, so ``write_csv`` is its one name.
"""

import longpred
from longpred import csvio, fit, sim

PUBLIC = {
    "CertificationError", "CoefSeq", "ConfigError",
    "ErrorDecomposition", "FittedAr", "IllConditionedError", "McEstimate",
    "ModelError", "MseReport", "NotPositiveDefiniteError", "NumericError",
    "PredictorWeights", "ProcessModel", "PROJECTION", "RateFit",
    "SimulationPlan", "TRUNCATED_WK",
    "acvf", "ar_coeffs", "empirical_mses",
    "error_decomposition", "forecast", "improvement_ratio",
    "infinite_past_mse", "levinson_durbin",
    "ma_coeffs", "mse_of_weights", "projection_weights_at",
    "rate_fit", "simulate",
    "truncated_wk_weights_at", "truncation_constant", "yule_walker",
}


def test_package_exports_exactly_the_public_names():
    assert len(longpred.__all__) == len(set(longpred.__all__)) == 33
    assert set(longpred.__all__) == PUBLIC
    for name in PUBLIC:
        assert hasattr(longpred, name), name


def test_test_only_routes_are_not_in_the_package():
    for module in (longpred, fit, sim):
        for name in ("solve_toeplitz", "empirical_mse"):
            assert not hasattr(module, name), (module.__name__, name)
            assert name not in getattr(module, "__all__", ()), (module.__name__, name)


def test_csv_writer_has_one_public_name():
    assert csvio.__all__ == ["write_csv"]
    assert not hasattr(csvio, "fmt")
