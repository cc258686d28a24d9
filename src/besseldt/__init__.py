"""Numerics for the Poisson semigroup of the Bessel operator on (0, inf).

The measure is dm(x) = x^(2*lambda) dx.  Modules:

- ``measure``: the weighted half-line, intervals as arrays of ends, Lp
  norms, the A_p range of power weights, BMO
- ``quadrature``: Gauss rules and the one panel-layout builder of the
  integrators
- ``functions``: piecewise-linear sampled functions and stock builders
- ``kernel``: Poisson kernel values/derivatives, semigroup application,
  pointwise bound sweeps
- ``hankel``: Hankel transform and the spectral route to the semigroup
- ``piecewise``: the piecewise polynomial tables of hankel and kernel
- ``literals``: the scipy.special values of every lambda = 1 run, as
  literals, so that such a run does not import scipy
- ``lacunary``: lacunary time sequences, regularity, refinement
- ``transform``: differential-transform partial sums, truncated maximal
  operator, Cotlar-type checks, convergence probes
- ``lab``: experiment configs, CSV emission, the experiment runners
- ``cli``: command-line front end for the experiments
"""

from .errors import (ConfigError, ContractError, NumericsError,
                     QuadratureError, TailEstimateError)
from .functions import (SampledFunction, bump_mixture, constant_one, gaussian,
                        indicator, smooth_bump, smoothed_step)
from .hankel import (gaussian_fixed_point_defect, hankel_transform,
                     involution_defect, normalized_bessel, plancherel_defect,
                     spectral_poisson_apply)
from .kernel import (closed_form_lambda1, kernel_bound_ratios,
                     kernel_difference_l1, kernel_mass, kernel_sweep,
                     kernel_values, poisson_apply)
from .lacunary import (LacunarySetup, geometric, is_lacunary, is_regular,
                       refine, remap_window)
from .measure import (LambdaSpace, PowerWeight, bmo_norm, dyadic_family,
                      lp_norm)
from .quadrature import QuadratureSpec
from .transform import (CotlarReport, IndexWindow, SemigroupTable,
                        TruncationLevel, apply_transform,
                        apply_transform_kernel_route, convergence_probe,
                        cotlar_check, maximal_hl, maximal_transform,
                        maximal_transform_brute, tail_sum_bound_ratio,
                        window_kernel, window_kernel_bounds)

__version__ = "0.1.0"

__all__ = [
    "ConfigError", "ContractError", "NumericsError", "QuadratureError",
    "TailEstimateError",
    "SampledFunction", "bump_mixture", "constant_one", "gaussian",
    "indicator", "smooth_bump", "smoothed_step",
    "gaussian_fixed_point_defect", "hankel_transform", "involution_defect",
    "normalized_bessel", "plancherel_defect", "spectral_poisson_apply",
    "closed_form_lambda1", "kernel_bound_ratios",
    "kernel_difference_l1", "kernel_mass", "kernel_sweep", "kernel_values",
    "poisson_apply",
    "LacunarySetup", "geometric", "is_lacunary", "is_regular", "refine",
    "remap_window",
    "LambdaSpace", "PowerWeight", "bmo_norm", "dyadic_family", "lp_norm",
    "QuadratureSpec",
    "CotlarReport", "IndexWindow", "SemigroupTable", "TruncationLevel",
    "apply_transform", "apply_transform_kernel_route", "convergence_probe",
    "cotlar_check", "maximal_hl", "maximal_transform",
    "maximal_transform_brute", "tail_sum_bound_ratio",
    "window_kernel", "window_kernel_bounds",
]
