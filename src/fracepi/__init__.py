"""Fractional-order epidemic simulation toolkit.

The package solves compartment models whose time derivatives have
non-integer order (left Riemann-Liouville sense, lower terminal 0) by
expanding the fractional operator into integer-order terms plus auxiliary
moment variables, turning the problem into an ordinary system that a
fixed-step RK4 integrator handles.  An independent Grunwald-Letnikov
discretization of the same operator cross-validates the expansion route,
and a grid-search fitter recovers the order that best matches observed
infective counts.

Main entry points:

    default_scenario()       the baseline dengue outbreak setup
    simulate_classical(...)  integer-order run
    simulate_fractional(...) fractional-order run via the expansion
    simulate_batch(...)      several orders at once, alpha = 1 included
    gl_simulate(...)         fractional-order run via backward differences
    fit_alpha(...)           exhaustive search for the best order
"""

from .dengue import (ModelParams, StateVector, classical_rhs, default_scenario,
                     population_drift)
from .expansion import (DegenerateCoefficientError, ExpansionCoefficients,
                        ExpansionConfig, PoleError, approx_rl_derivative_on_grid,
                        coeff_a, coeff_a_prime, coeff_c, expand_system, gamma)
from .fitting import (CurvePoint, FitFailedError, FitResult, ObservedSeries,
                      fit_alpha, generate_synthetic, percentage_error)
from .grunwald import gl_derivative_on_grid, gl_simulate, gl_weights, power_rule_exact
from .integrate import (BlowUpError, TimeGrid, TimeSeries, simulate_batch,
                        simulate_classical, simulate_fractional)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "BlowUpError",
    "CurvePoint",
    "DegenerateCoefficientError",
    "ExpansionCoefficients",
    "ExpansionConfig",
    "FitFailedError",
    "FitResult",
    "ModelParams",
    "ObservedSeries",
    "PoleError",
    "StateVector",
    "TimeGrid",
    "TimeSeries",
    "approx_rl_derivative_on_grid",
    "classical_rhs",
    "coeff_a",
    "coeff_a_prime",
    "coeff_c",
    "default_scenario",
    "expand_system",
    "fit_alpha",
    "gamma",
    "generate_synthetic",
    "gl_derivative_on_grid",
    "gl_simulate",
    "gl_weights",
    "percentage_error",
    "population_drift",
    "simulate_batch",
    "simulate_classical",
    "simulate_fractional",
]
