"""Gradient-sampling descent toolkit.

Nonsmooth minimization via sampled approximations of the generalized
subgradient, plus two additive-model fitters built on the same loop:
quantile regression under pinball risk and smooth peaks-over-threshold
models parameterized in tail functionals.
"""

from .engine import (
    FitTrace,
    GsParams,
    Objective,
    approx_subgradient,
    armijo_search,
    gsda_minimize,
    l1_norm,
    nonsmooth_rosenbrock,
    sample_unit_ball,
    sum_of_squares,
)
from .minnorm import GradientSet, MinNormResult, min_norm_point
from .pot import (
    FunctionalSpec,
    Lambda,
    PotModel,
    PotState,
    fit_pot_additive,
    functional_map,
    gpd_loglik,
    gpd_loglik_grad,
    jacobian_blocks,
    negative_loglik_objective,
)
from .quantile import (
    QuantileModel,
    fit_quantile_additive,
    pinball_grad,
    pinball_loss,
    predict_quantile,
)
from .smoothing import (
    AdditiveFit,
    AdditiveProjector,
    CoordinateMap,
    SmootherSpec,
    bandwidth_for_df,
    effective_df,
)

__version__ = "0.1.0"

__all__ = [
    "AdditiveFit", "AdditiveProjector", "CoordinateMap", "FitTrace", "FunctionalSpec",
    "GradientSet", "GsParams", "Lambda", "MinNormResult", "Objective",
    "PotModel", "PotState", "QuantileModel", "SmootherSpec",
    "approx_subgradient", "armijo_search", "bandwidth_for_df",
    "effective_df", "fit_pot_additive", "fit_quantile_additive",
    "functional_map", "gpd_loglik", "gpd_loglik_grad", "gsda_minimize",
    "jacobian_blocks", "l1_norm", "min_norm_point",
    "negative_loglik_objective", "nonsmooth_rosenbrock", "pinball_grad",
    "pinball_loss", "predict_quantile", "sample_unit_ball", "sum_of_squares",
]
