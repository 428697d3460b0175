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
turns into an ordinary system of dimension d*N (`expand_system`).  Only f
is nonlinear: the moment equations and the moment sum are linear in (x, V)
with coefficients that depend on t alone.  Each moment V_p' reads only its
own x, and x' reads x, f and the sum over its moments, so the linear part
is an arrow (row 0 and column 0 of an N x N matrix) and the system is
described by 2N time factors K * t ** E (`AugmentedSystem`).  The RK4
kernel evaluates them for a block of steps with one array power; the
moment sums of a step then take one matrix product.  alpha = 1 has no
expansion: the weights contain Gamma(1-alpha) and Gamma(alpha-1) poles
there, so the weights, the derivative and `expand_system` reject it, and
the classical bypass lives in `integrate.simulate_fractional`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Sequence

import numpy as np

if TYPE_CHECKING:
    from .integrate import TimeGrid

__all__ = [
    "PoleError",
    "DegenerateCoefficientError",
    "gamma",
    "ExpansionConfig",
    "ExpansionCoefficients",
    "coeff_a",
    "coeff_a_prime",
    "coeff_c",
    "approx_rl_derivative_on_grid",
    "AugmentedSystem",
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

    @classmethod
    def from_config(cls, cfg: ExpansionConfig) -> "ExpansionCoefficients":
        """Weights for cfg; alpha = 1 has none (gamma poles) and is rejected."""
        a_coef, a_prime_coef, c_coefs = _weights(cfg.alpha, cfg.order_n)
        return cls(a_coef=a_coef, a_prime_coef=a_prime_coef, c_coefs=c_coefs)


def _grid_samples(grid: TimeGrid, values: np.ndarray) -> tuple[np.ndarray, float, np.ndarray]:
    """The nodes and step h of `grid.uniform_nodes()`, and values as one finite float per node."""
    ts, h = grid.uniform_nodes()
    values = np.asarray(values, dtype=float)
    if values.shape != ts.shape:
        raise ValueError(f"need one sample per node: {len(ts)} nodes, "
                         f"got values of shape {values.shape}")
    if not np.all(np.isfinite(values)):
        raise ValueError("samples must be finite")
    return ts, h, values


@np.errstate(over="ignore", invalid="ignore")
def approx_rl_derivative_on_grid(grid: TimeGrid, values: np.ndarray,
                                 cfg: ExpansionConfig) -> np.ndarray:
    """Evaluate the expansion of the fractional derivative at every node of grid but t = 0.

    values holds one finite sample of x per node of `grid.nodes()`; the
    differences and quadratures use the step h of `TimeGrid.uniform_nodes`.
    The leading t^(-alpha) factor is singular at the grid's first node,
    the lower terminal t = 0, so entry i - 1 of the result belongs to node
    i.  x'(t) is the second-order finite difference of `np.gradient`
    (one-sided at the ends); each V_p(t) is the cumulative trapezoidal
    quadrature of (1-p) tau^(p-2) x(tau) over [0, t].  `from_config`
    refuses alpha = 1 (ValueError) before the samples are read, and a value
    that is not finite raises FloatingPointError, with no warning on the way.
    """
    coefs = ExpansionCoefficients.from_config(cfg)
    ts, h, values = _grid_samples(grid, values)
    derivative = np.gradient(values, h, edge_order=2)
    result = (coefs.a_coef * ts[1:] ** (-cfg.alpha) * values[1:]
              + coefs.a_prime_coef * ts[1:] ** (1.0 - cfg.alpha) * derivative[1:])
    power = np.ones_like(ts)          # tau^(p-2), built incrementally
    for p in range(2, cfg.order_n + 1):
        integrand = (1.0 - p) * power * values
        v_p = h * (np.cumsum(integrand) - 0.5 * (integrand[0] + integrand))
        result -= coefs.c_coefs[p - 2] * ts[1:] ** (1.0 - p - cfg.alpha) * v_p[1:]
        power = power * ts
    if not np.all(np.isfinite(result)):
        raise FloatingPointError(f"expansion of order {cfg.order_n} is not finite on this grid")
    return result


def _powers(cfg: ExpansionConfig) -> tuple[np.ndarray, np.ndarray]:
    """Exponents E and factors K of the 2N time factors K * t ** E of one config.

    In order: the weights before their scale, -A t^(-alpha) of the value
    and C_p t^(1-p-alpha) of the moments for p = 2 ... N; the moment rates
    (1-p) t^(p-2) for p = 2 ... N; and the scale s = t^(alpha-1) / A'.
    """
    coefs = ExpansionCoefficients.from_config(cfg)
    p_range = np.arange(2, cfg.order_n + 1, dtype=float)
    exponents = np.concatenate([[-cfg.alpha], 1.0 - p_range - cfg.alpha, p_range - 2.0,
                                [cfg.alpha - 1.0]])
    factors = np.concatenate([[-coefs.a_coef], coefs.c_coefs, 1.0 - p_range,
                              [1.0 / coefs.a_prime_coef]])
    return exponents, factors


@dataclass(frozen=True)
class AugmentedSystem:
    """The ordinary system that replaces D^alpha x = rhs(t, x), in arrow form.

    Each physical state x_k (k < d) carries its moments V_2^k ... V_N^k.
    A moment reads only its own x_k, and x_k reads only itself, its
    moments and rhs, with coefficients that depend on t alone:

        x_k'   = s(t) rhs_k(t, x) + a(t) x_k + sum_p g_p(t) V_p^k,
        V_p^k' = r_p(t) x_k,

    with the scale s = t^(alpha-1) / A', a = -s A t^(-alpha),
    g_p = s C_p t^(1-p-alpha) and r_p = (1-p) t^(p-2).  As an operator on
    (x_k, V_2^k, ..., V_N^k) this is an arrow: only row 0 and column 0 are
    non-zero, so nothing here is N x N.  exponents and factors, of shape
    (B, 2N) with one row per member, give -A t^(-alpha), the
    C_p t^(1-p-alpha), the r_p and s as K * t ** E (see `_powers`); rhs is
    the physical right-hand side, called with states of shape (B, d).

    Calling the system evaluates it on flat states (see `expand_system`).
    """

    rhs: Callable[[float, np.ndarray], np.ndarray]
    order_n: int
    exponents: np.ndarray
    factors: np.ndarray

    def arrow(self, times: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """The pieces (s, a, g, r) at every entry of times, of shape lead + (k,).

        s and a have shape lead + (B, k), g and r (the weights g_p and
        rates r_p, p = 2 ... N) lead + (B, k, N-1), all from one array
        power.  Every member takes the same elementwise operations, so its
        pieces equal those of its config alone, bit for bit, and no entry
        depends on the other times.
        """
        n = self.order_n
        t = times[..., None, :, None]
        powers = self.factors[:, None, :] * t ** self.exponents[:, None, :]
        s = powers[..., -1]
        return s, powers[..., 0] * s, powers[..., 1:n] * s[..., None], powers[..., n:-1]

    def __call__(self, t: float, y: np.ndarray) -> np.ndarray:
        """The right-hand side on flat states y of shape (B, d * N).

        The first d entries of a row are the physical states, then, for
        each physical state in order, its moments V_2, ..., V_N; the
        physical dimension d = y.shape[-1] // N is read from y.
        """
        n = self.order_n
        d = y.shape[-1] // n
        x = y[..., :d]
        v = y[..., d:].reshape(y.shape[:-1] + (d, n - 1))
        s, a, g, r = self.arrow(np.array([t], dtype=float))
        dx = s * self.rhs(t, x) + a * x + (v @ np.swapaxes(g, -1, -2))[..., 0]
        dv = x[..., None] * r
        return np.concatenate([dx, dv.reshape(y.shape[:-1] + (-1,))], axis=-1)


def expand_system(f: Callable[[float, np.ndarray], np.ndarray],
                  cfgs: Sequence[ExpansionConfig]) -> AugmentedSystem:
    """Turn the fractional system D^alpha x = f(t, x) into an ordinary one.

    cfgs is a non-empty sequence of B configs of one order N, one member
    (row of the state) each; a bare config is not a sequence and raises
    TypeError.  For alpha < 1 the physical states obey

        x_k' = [f_k(t, x) - A t^(-alpha) x_k + sum_p C_p t^(1-p-alpha) V_p^k]
               * t^(alpha-1) / A',

    while each moment follows V_p^k' = (1-p) t^(p-2) x_k, all starting from
    V_p^k(0) = 0.  The result is that system in the arrow form of
    `AugmentedSystem`: the RK4 kernel steps its pieces (`arrow`), and
    calling it evaluates flat states of shape (B, d * N).  The arrow form
    applies the scale s to each weight before the sum, so results differ
    by about 1e-14 relative from the bracket-then-scale evaluation above.

    Raises ValueError for alpha = 1, which has no expansion (the classical
    bypass lives in `integrate.simulate_fractional`), or for no configs or
    configs of different orders, and DegenerateCoefficientError when |A'|
    is below the safe floor.
    """
    cfgs = list(cfgs)
    if not cfgs or any(c.order_n != cfgs[0].order_n for c in cfgs):
        raise ValueError("a batch needs at least one config, all of one order N")
    exponents, factors = map(np.array, zip(*map(_powers, cfgs)))
    return AugmentedSystem(rhs=f, order_n=cfgs[0].order_n, exponents=exponents, factors=factors)
