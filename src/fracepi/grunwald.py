"""Grunwald-Letnikov discretization of the fractional derivative.

The operator is approximated directly as a fractional-order backward
difference,

    D^alpha x(t_n) ~= h^(-alpha) * sum_{j=0}^{n} w_j x(t_{n-j}),
    w_j = (-1)^j binomial(alpha, j),

built from the multiplicative recurrence w_0 = 1,
w_j = w_{j-1} (1 - (alpha+1)/j).  This shares no code path with the
series-expansion solver, which makes it the package's independent
cross-check: the two methods discretize the same operator by entirely
different routes.  `power_rule_exact` supplies closed-form reference
values for monomials, the third leg of the validation triangle.

`gl_simulate` steps the fractional model explicitly:

    y_n = h^alpha f(t_{n-1}, y_{n-1}) - sum_{j=1}^{n} w_j y_{n-j},

which collapses to explicit Euler at alpha = 1 (the weights become
1, -1, 0, 0, ...).  Full history is kept, so the cost grows with the
square of the node count.
"""

from __future__ import annotations

import math

import numpy as np

from .dengue import ModelParams, StateVector, check_population_balance, classical_rhs
from .expansion import SampledFunction, gamma
from .integrate import BlowUpError, DENGUE_COLUMNS, TimeGrid, TimeSeries

__all__ = [
    "gl_weights",
    "gl_derivative_at",
    "power_rule_exact",
    "gl_simulate",
]


def gl_weights(alpha: float, n: int) -> np.ndarray:
    """Weights w_j = (-1)^j binomial(alpha, j) for j = 0 ... n.

    For alpha in (0, 1): w_0 = 1, every later weight is negative, and the
    partial sums stay in (0, 1), decreasing in n.
    """
    if not (math.isfinite(alpha) and 0.0 < alpha <= 1.0):
        raise ValueError(f"alpha must be in (0, 1], got {alpha!r}")
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    return np.cumprod(np.concatenate(([1.0], 1.0 - (alpha + 1.0) / np.arange(1, n + 1))))


def gl_derivative_at(x: SampledFunction, alpha: float, index: int) -> float:
    """Backward-difference value of the fractional derivative at node index.

    Converges with first order in the grid step for the smooth functions
    used here.
    """
    if index < 1 or index >= len(x.times):
        raise ValueError(
            f"index must be in [1, {len(x.times) - 1}], got {index}"
        )
    w = gl_weights(alpha, index)
    h = x.step
    return float(h ** (-alpha) * (w @ x.values[index::-1]))


def power_rule_exact(alpha: float, k: int, t: float) -> float:
    """Closed-form fractional derivative of t^k (lower terminal 0).

    D^alpha t^k = Gamma(k+1) / Gamma(k+1-alpha) * t^(k-alpha); k = 0 gives
    the derivative of a constant, which is nonzero for fractional alpha.
    """
    if not isinstance(k, (int, np.integer)) or k < 0:
        raise ValueError(f"k must be a non-negative integer, got {k!r}")
    if t <= 0:
        raise ValueError(f"t must be positive, got {t!r}")
    if not (math.isfinite(alpha) and 0.0 < alpha < 1.0):
        raise ValueError(f"alpha must be in (0, 1), got {alpha!r}")
    return gamma(k + 1.0) / gamma(k + 1.0 - alpha) * t ** (k - alpha)


def gl_simulate(params: ModelParams, y0: StateVector, alpha: float,
                grid: TimeGrid) -> TimeSeries:
    """Explicit Grunwald-Letnikov time stepping of the fractional model.

    The vector field is evaluated at the previous node, keeping the scheme
    free of nonlinear solves; the step must be small enough for explicit
    stability (h <= 0.01 day at the default scenario's rates).  The grid
    must be commensurate (uniform steps landing exactly on t_end), because
    the weights assume a single step size.

    The history sum runs left to right in a fixed order, so repeated runs
    are bit-for-bit reproducible.
    """
    if not (math.isfinite(alpha) and 0.0 < alpha <= 1.0):
        raise ValueError(f"alpha must be in (0, 1], got {alpha!r}")
    check_population_balance(params, y0)
    span = grid.t_end - grid.t_start
    n = int(round(span / grid.step))
    if abs(span - n * grid.step) > 1e-6 * grid.step:
        raise ValueError(
            "gl_simulate needs a commensurate grid: (t_end - t_start) must be "
            f"an integer multiple of step, got span {span!r} and step {grid.step!r}"
        )
    ts = np.linspace(grid.t_start, grid.t_end, n + 1)
    h = span / n
    w = gl_weights(alpha, n)
    h_alpha = h ** alpha

    # States stored in reverse time order so each history window
    # w_1..w_k against y_{k-1}..y_0 is one contiguous dot product.
    buf = np.zeros((n + 1, 5))
    buf[n] = y0.as_array()
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(1, n + 1):
            y_prev = buf[n - k + 1]
            history = w[1:k + 1] @ buf[n - k + 1:n + 1]
            y = h_alpha * classical_rhs(ts[k - 1], y_prev, params) - history
            if not np.all(np.isfinite(y)):
                raise BlowUpError(time=float(ts[k]), step_index=k)
            buf[n - k] = y
    return TimeSeries(times=ts, values=buf[::-1].copy(), columns=DENGUE_COLUMNS)
