"""Series expansion of the left Riemann-Liouville derivative.

The fractional derivative of order alpha in (0, 1) with lower terminal 0,

    D^alpha x(t) = 1/Gamma(1-alpha) * d/dt integral_0^t (t-tau)^(-alpha) x(tau) dtau,

is replaced by a truncated series of integer-order quantities:

    D^alpha x(t) ~= A t^(-alpha) x(t) + A' t^(1-alpha) x'(t)
                    - sum_{p=2}^{N} C_p t^(1-p-alpha) V_p(t),

where each moment integral V_p satisfies the ordinary initial value problem

    V_p'(t) = (1-p) t^(p-2) x(t),   V_p(0) = 0,   p = 2, ..., N.

The weights are built from the ratios r_p = Gamma(p-1+alpha) / (Gamma(alpha) (p-1)!),
which follow the recurrence r_1 = 1, r_{p+1} = r_p (p-1+alpha) / p:

    A(alpha, N)  = [1 + sum_{p=2}^{N} r_p] / Gamma(1-alpha)
    A'(alpha, N) = [1 + (alpha-1) sum_{p=1}^{N} r_p / p] / Gamma(2-alpha)
    C(alpha, p)  = (alpha-1) r_p / Gamma(2-alpha).

The recurrence keeps every term of order one, where separate
Gamma(p-1+alpha) and (p-1)! factors overflow from p ~ 143 on.  Gamma itself
is `math.gamma` behind a pole check.

Because the substitution is algebraic, a d-dimensional fractional system
turns into an ordinary system of dimension d*N (`expand_system`), which any
classical integrator can handle.  alpha = 1 has no expansion: the weights
contain Gamma(1-alpha) and Gamma(alpha-1) poles there, so the weights, the
derivative and `expand_system` reject it, and the classical bypass lives in
`integrate.simulate_fractional`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

__all__ = [
    "PoleError",
    "DegenerateCoefficientError",
    "gamma",
    "ExpansionConfig",
    "ExpansionCoefficients",
    "SampledFunction",
    "coeff_a",
    "coeff_a_prime",
    "coeff_c",
    "approx_rl_derivative",
    "approx_rl_derivative_on_grid",
    "expand_system",
]


class PoleError(ValueError):
    """Gamma function requested within 1e-12 of a non-positive integer."""


class DegenerateCoefficientError(ValueError):
    """|A'| is too small: the augmented system divides by A'."""


# Rejection threshold for |A'|; the augmented right-hand side multiplies by 1/A'.
DEGENERATE_A_PRIME_TOL = 1e-8

_POLE_TOL = 1e-12

# Largest truncation order N an ExpansionConfig accepts.
MAX_ORDER = 1000


def gamma(x: float) -> float:
    """Gamma function for real arguments: `math.gamma` behind a pole check.

    Raises:
        PoleError: x is within 1e-12 of a non-positive integer.
        ValueError: x is nan or infinite.
    """
    x = float(x)
    if not math.isfinite(x):
        raise ValueError(f"gamma requires a finite argument, got {x!r}")
    nearest = round(x)
    if nearest <= 0 and abs(x - nearest) <= _POLE_TOL:
        raise PoleError(f"gamma pole at non-positive integer: x = {x!r}")
    return math.gamma(x)


@dataclass(frozen=True)
class ExpansionConfig:
    """Order data for the derivative expansion.

    alpha is the fractional order; alpha = 1 selects the exact classical
    bypass.  order_n is the truncation order N <= MAX_ORDER of the series
    (the V_p sum runs over p = 2, ..., N).  The lower terminal of the
    derivative is always t = 0.
    """

    alpha: float
    order_n: int

    def __post_init__(self) -> None:
        if not isinstance(self.order_n, (int, np.integer)) or isinstance(self.order_n, bool):
            raise ValueError(f"order_n must be an integer, got {self.order_n!r}")
        if not (math.isfinite(self.alpha) and 0.0 < self.alpha <= 1.0):
            raise ValueError(f"alpha must satisfy 0 < alpha <= 1, got {self.alpha!r}")
        if not 2 <= self.order_n <= MAX_ORDER:
            raise ValueError(f"order_n must be in [2, {MAX_ORDER}], got {self.order_n}")


def _weights(alpha: float, order_n: int) -> tuple[float, float, np.ndarray]:
    """(A, A', [C_2 .. C_N]) from one pass of the ratio recurrence."""
    if not (math.isfinite(alpha) and 0.0 < alpha < 1.0):
        raise ValueError(
            f"expansion coefficients require alpha in (0, 1), got {alpha!r}; "
            "alpha = 1 is the classical case and bypasses the expansion"
        )
    if order_n < 1:
        raise ValueError(f"order_n must be >= 1, got {order_n}")
    p = np.arange(1.0, order_n + 1.0)
    r = np.cumprod(np.concatenate(([1.0], (p[:-1] - 1.0 + alpha) / p[:-1])))
    g_2ma = gamma(2.0 - alpha)
    a_coef = (1.0 + float(r[1:].sum())) / gamma(1.0 - alpha)
    a_prime_coef = (1.0 + (alpha - 1.0) * float((r / p).sum())) / g_2ma
    return a_coef, a_prime_coef, (alpha - 1.0) * r[1:] / g_2ma


def coeff_a(alpha: float, order_n: int) -> float:
    """Value-term weight A(alpha, N) = [1 + sum_{p=2}^{N} r_p] / Gamma(1-alpha).

    Positive for alpha in (0, 1) and any N; tends to 0 as alpha -> 1
    because of the Gamma(1-alpha) pole.
    """
    return _weights(alpha, order_n)[0]


def coeff_a_prime(alpha: float, order_n: int) -> float:
    """Derivative-term weight A'(alpha, N) = [1 + (alpha-1) sum_{p=1}^{N} r_p / p] / Gamma(2-alpha).

    Tends to 1 as alpha -> 1 (the alpha-1 factor kills the sum).
    """
    return _weights(alpha, order_n)[1]


def coeff_c(alpha: float, p: int) -> float:
    """Moment weight C(alpha, p) = (alpha-1) r_p / Gamma(2-alpha).

    Negative for alpha in (0, 1): alpha-1 is the only negative factor.
    """
    if p < 2:
        raise ValueError(f"p must be >= 2, got {p}")
    return float(_weights(alpha, p)[2][-1])


@dataclass(frozen=True)
class ExpansionCoefficients:
    """The weight set (A, A', C_2..C_N) for one (alpha, N) pair.

    c_coefs[p - 2] holds C(alpha, p).  Construction rejects a near-zero A'
    because the augmented right-hand side multiplies by 1/A'.
    """

    a_coef: float
    a_prime_coef: float
    c_coefs: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "c_coefs", np.asarray(self.c_coefs, dtype=float))
        if not (math.isfinite(self.a_coef) and math.isfinite(self.a_prime_coef)):
            raise ValueError("expansion coefficients must be finite")
        if not np.all(np.isfinite(self.c_coefs)):
            raise ValueError("expansion coefficients must be finite")
        if abs(self.a_prime_coef) <= DEGENERATE_A_PRIME_TOL:
            raise DegenerateCoefficientError(
                f"|A'| = {abs(self.a_prime_coef):.3e} <= {DEGENERATE_A_PRIME_TOL:.0e}; "
                "the augmented system would divide by ~0"
            )

    @property
    def order_n(self) -> int:
        return len(self.c_coefs) + 1

    @classmethod
    def from_config(cls, cfg: ExpansionConfig) -> "ExpansionCoefficients":
        """Weights for cfg; alpha = 1 has none (gamma poles) and is rejected."""
        a_coef, a_prime_coef, c_coefs = _weights(cfg.alpha, cfg.order_n)
        return cls(a_coef=a_coef, a_prime_coef=a_prime_coef, c_coefs=c_coefs)


@dataclass(frozen=True)
class SampledFunction:
    """A scalar function sampled on a uniform, strictly increasing grid."""

    times: np.ndarray
    values: np.ndarray

    def __post_init__(self) -> None:
        times = np.asarray(self.times, dtype=float)
        values = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "values", values)
        if times.ndim != 1 or values.ndim != 1:
            raise ValueError("times and values must be one-dimensional")
        if len(times) != len(values):
            raise ValueError(f"length mismatch: {len(times)} times, {len(values)} values")
        if len(times) < 3:
            raise ValueError("need at least 3 samples")
        if not (np.all(np.isfinite(times)) and np.all(np.isfinite(values))):
            raise ValueError("samples must be finite")
        steps = np.diff(times)
        if np.any(steps <= 0):
            raise ValueError("times must be strictly increasing")
        h = steps[0]
        if np.max(np.abs(steps - h)) > 1e-9 * h:
            raise ValueError("times must be uniformly spaced")

    @classmethod
    def from_function(cls, fn: Callable[[np.ndarray], np.ndarray], start: float,
                      stop: float, num: int) -> "SampledFunction":
        """Sample a vectorized callable on num equispaced points of [start, stop]."""
        ts = np.linspace(start, stop, num)
        return cls(times=ts, values=np.asarray(fn(ts), dtype=float))

    @property
    def step(self) -> float:
        return float(self.times[1] - self.times[0])

    def index_at(self, t: float) -> int:
        """Index of the grid node equal to t; rejects off-grid times."""
        h = self.step
        i = round((t - self.times[0]) / h)
        if i < 0 or i >= len(self.times) or abs(self.times[i] - t) > 1e-9 * max(1.0, abs(t)):
            raise ValueError(f"t = {t!r} is not a node of the sample grid")
        return int(i)


def approx_rl_derivative_on_grid(x: SampledFunction, cfg: ExpansionConfig) -> np.ndarray:
    """Evaluate the expansion of the fractional derivative of x at every node but t = 0.

    The grid of x must start at the lower terminal t = 0, where the leading
    t^(-alpha) factor is singular, so entry i - 1 of the result belongs to
    x.times[i].  x'(t) is the second-order finite difference of
    `np.gradient` (one-sided at the ends); each V_p(t) is the cumulative
    trapezoidal quadrature of (1-p) tau^(p-2) x(tau) over [0, t].  A value
    that is not finite (high orders on fine grids) raises FloatingPointError.
    """
    if cfg.alpha >= 1.0:
        raise ValueError("the pointwise expansion requires alpha < 1")
    if abs(x.times[0]) > 1e-9:
        raise ValueError(
            f"sample grid must start at the lower terminal t = 0, got times[0] = {x.times[0]!r}"
        )
    coefs = ExpansionCoefficients.from_config(cfg)
    ts = x.times
    h = x.step
    derivative = np.gradient(x.values, h, edge_order=2)
    result = (coefs.a_coef * ts[1:] ** (-cfg.alpha) * x.values[1:]
              + coefs.a_prime_coef * ts[1:] ** (1.0 - cfg.alpha) * derivative[1:])
    power = np.ones_like(ts)          # tau^(p-2), built incrementally
    with np.errstate(over="ignore", invalid="ignore"):
        for p in range(2, cfg.order_n + 1):
            integrand = (1.0 - p) * power * x.values
            v_p = h * (np.cumsum(integrand) - 0.5 * (integrand[0] + integrand))
            result -= coefs.c_coefs[p - 2] * ts[1:] ** (1.0 - p - cfg.alpha) * v_p[1:]
            power = power * ts
    if not np.all(np.isfinite(result)):
        raise FloatingPointError(f"expansion of order {cfg.order_n} is not finite on this "
                                 "grid: t^(1-p-alpha) overflows at small t")
    return result


def approx_rl_derivative(x: SampledFunction, cfg: ExpansionConfig, t: float) -> float:
    """Expansion of the fractional derivative of x at the grid node t > 0.

    This is the entry of `approx_rl_derivative_on_grid` that belongs to t.
    """
    i = x.index_at(t)
    if i == 0:
        raise ValueError("t must be strictly greater than the lower terminal")
    return float(approx_rl_derivative_on_grid(x, cfg)[i - 1])


def expand_system(f: Callable[[float, np.ndarray], np.ndarray], dim: int,
                  cfg: ExpansionConfig) -> Callable[[float, np.ndarray], np.ndarray]:
    """Turn the fractional system D^alpha x = f(t, x) into an ordinary one.

    The returned right-hand side acts on states of dimension dim * N: the
    first dim entries are the physical states, then, for each physical
    state in order, its auxiliaries V_2, ..., V_N.  For alpha < 1 the
    physical states obey

        x_k' = [f_k(t, x) - A t^(-alpha) x_k + sum_p C_p t^(1-p-alpha) V_p^k]
               * t^(alpha-1) / A',

    while each auxiliary follows V_p^k' = (1-p) t^(p-2) x_k, all starting
    from V_p^k(0) = 0.

    Raises ValueError for alpha = 1, which has no expansion (the classical
    bypass lives in `integrate.simulate_fractional`), and
    DegenerateCoefficientError when |A'| is below the safe floor.
    """
    if dim < 1:
        raise ValueError(f"dim must be >= 1, got {dim}")
    n = cfg.order_n
    coefs = ExpansionCoefficients.from_config(cfg)
    alpha = cfg.alpha
    a_coef = coefs.a_coef
    inv_a_prime = 1.0 / coefs.a_prime_coef
    c_coefs = coefs.c_coefs
    p_range = np.arange(2, n + 1, dtype=float)
    aux_exponents = p_range - 2.0            # t^(p-2)
    moment_exponents = 1.0 - p_range - alpha  # t^(1-p-alpha)
    one_minus_p = 1.0 - p_range

    def augmented(t: float, y: np.ndarray) -> np.ndarray:
        x = y[:dim]
        v = y[dim:].reshape(dim, n - 1)
        weighted_moments = v @ (c_coefs * t ** moment_exponents)
        bracket = f(t, x) - a_coef * t ** (-alpha) * x + weighted_moments
        dx = bracket * (t ** (alpha - 1.0) * inv_a_prime)
        dv = (one_minus_p * t ** aux_exponents)[None, :] * x[:, None]
        return np.concatenate([dx, dv.ravel()])

    return augmented
