"""Linear prediction of long-memory time series.

Quantitative machinery for two finite-past predictors of long-memory
processes, the truncated Wiener-Kolmogorov predictor and the fitted AR(k)
(Yule-Walker) predictor: exact mean-squared errors as quadratic forms in the
autocovariance, h-step generalizations, the asymptotic constants of the
O(1/k) excess decay, and exact Gaussian simulation for Monte-Carlo
cross-validation.
"""

from .asymptotics import RateFit, improvement_ratio, rate_fit, truncation_constant
from .errors import (CertificationError, ConfigError, IllConditionedError,
                     ModelError, NotPositiveDefiniteError, NumericError)
from .fit import (FittedAr, levinson_durbin, projection_weights_at, solve_toeplitz,
                  yule_walker)
from .mse import (ErrorDecomposition, MseReport, error_decomposition, infinite_past_mse,
                  mse_of_weights)
from .predict import PROJECTION, TRUNCATED_WK, PredictorWeights, forecast, truncated_wk_weights_at
from .process import CoefSeq, ProcessModel, acvf, ar_coeffs, ma_coeffs
from .sim import McEstimate, SimulationPlan, empirical_mse, empirical_mses, simulate

__version__ = "0.1.0"

__all__ = [
    "CertificationError", "CoefSeq", "ConfigError",
    "ErrorDecomposition", "FittedAr", "IllConditionedError", "McEstimate",
    "ModelError", "MseReport", "NotPositiveDefiniteError", "NumericError",
    "PredictorWeights", "ProcessModel", "PROJECTION", "RateFit",
    "SimulationPlan", "TRUNCATED_WK",
    "acvf", "ar_coeffs", "empirical_mse", "empirical_mses",
    "error_decomposition", "forecast", "improvement_ratio",
    "infinite_past_mse", "levinson_durbin",
    "ma_coeffs", "mse_of_weights", "projection_weights_at",
    "rate_fit", "simulate", "solve_toeplitz",
    "truncated_wk_weights_at", "truncation_constant", "yule_walker",
]
