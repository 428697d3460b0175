"""Host-vector dengue compartment model.

Hosts split into susceptible S_h, infected I_h, and resistant R_h with a
constant total N_h; mosquitoes split into susceptible S_m and infected I_m
with constant total N_m.  Transmission happens through mosquito bites in
both directions:

    S_h' = mu_h N_h - (B beta_mh I_m / N_h + mu_h) S_h
    I_h' = B beta_mh (I_m / N_h) S_h - (eta_h + mu_h) I_h
    R_h' = eta_h I_h - mu_h R_h
    S_m' = mu_m N_m - (B beta_hm I_h / N_h + mu_m) S_m
    I_m' = B beta_hm (I_h / N_h) S_m - mu_m I_m

The default parameter set describes a dengue outbreak on the scale of the
2009 Cape Verde epidemic: 56 000 hosts, 168 000 mosquitoes (three per
host), and an index cluster of 216 infected people.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

__all__ = [
    "ModelParams",
    "StateVector",
    "check_population_balance",
    "classical_rhs",
    "default_scenario",
    "population_drift",
]


@dataclass(frozen=True)
class ModelParams:
    """Epidemiological constants of the host-vector model.

    Rates are per day; beta_mh and beta_hm are per-bite transmission
    probabilities.  n_h and n_m are the two population totals; their ratio
    is the number of mosquitoes per host.
    """

    n_h: float          # host population
    n_m: float          # mosquito population
    bite_rate: float    # B, bites per day
    beta_mh: float      # mosquito -> human transmission probability per bite
    beta_hm: float      # human -> mosquito transmission probability per bite
    mu_h: float         # human natural death rate
    mu_m: float         # mosquito natural death rate
    eta_h: float        # human recovery rate

    def __post_init__(self) -> None:
        for name in ("n_h", "n_m", "bite_rate", "beta_mh", "beta_hm",
                     "mu_h", "mu_m", "eta_h"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0):
                raise ValueError(f"{name} must be positive and finite, got {value!r}")
        for name in ("beta_mh", "beta_hm"):
            if getattr(self, name) > 1.0:
                raise ValueError(f"{name} is a probability and must be <= 1")

    @cached_property
    def _rates(self) -> tuple[float, ...]:
        """The products and sums of constants that `classical_rhs` reads.

        B beta_mh, B beta_hm, n_h, mu_h, mu_h n_h, eta_h + mu_h, eta_h,
        mu_m n_m and mu_m, each formed as in the one-state expressions.
        """
        b = self.bite_rate
        return (b * self.beta_mh, b * self.beta_hm, self.n_h, self.mu_h,
                self.mu_h * self.n_h, self.eta_h + self.mu_h, self.eta_h,
                self.mu_m * self.n_m, self.mu_m)

    @cached_property
    def _rate_rows(self) -> tuple[np.ndarray, np.ndarray]:
        """`_rates` as the two rows `_classical_rhs_rows` multiplies by:
        (B beta_mh, B beta_hm) and the loss rate of each compartment."""
        b_mh, b_hm, _, mu_h, _, leave_h, _, _, mu_m = self._rates
        return np.array([b_mh, b_hm]), np.array([mu_h, leave_h, mu_h, mu_m, mu_m])


@dataclass(frozen=True)
class StateVector:
    """Compartment populations (persons and mosquitoes)."""

    s_h: float
    i_h: float
    r_h: float
    s_m: float
    i_m: float

    def __post_init__(self) -> None:
        for name in ("s_h", "i_h", "r_h", "s_m", "i_m"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value!r}")
            if value < 0:
                raise ValueError(f"{name} must be non-negative, got {value!r}")

    @property
    def total_hosts(self) -> float:
        return self.s_h + self.i_h + self.r_h

    @property
    def total_mosquitoes(self) -> float:
        return self.s_m + self.i_m

    def as_array(self) -> np.ndarray:
        return np.array([self.s_h, self.i_h, self.r_h, self.s_m, self.i_m])


def check_population_balance(params: ModelParams, y0: StateVector) -> None:
    """Reject an initial state whose compartments do not sum to n_h and n_m."""
    if abs(y0.total_hosts - params.n_h) > 1e-9 * params.n_h:
        raise ValueError(
            f"initial host compartments s_h + i_h + r_h sum to {y0.total_hosts!r}, "
            f"expected n_h = {params.n_h!r}"
        )
    if abs(y0.total_mosquitoes - params.n_m) > 1e-9 * params.n_m:
        raise ValueError(
            f"initial mosquito compartments s_m + i_m sum to {y0.total_mosquitoes!r}, "
            f"expected n_m = {params.n_m!r}"
        )


def classical_rhs(t: float, y, params: ModelParams):
    """Time derivative of the compartment vector (S_h, I_h, R_h, S_m, I_m).

    y is one state as a list or tuple of five floats, which gives a list
    of five floats, or an array of states of shape (..., 5), which gives
    an array of the shape of y.
    Pure function of the state; t is accepted for integrator compatibility
    (the model is autonomous).  Whenever the compartment sums equal N_h and
    N_m, the host and mosquito totals are conserved exactly:
    dS_h + dI_h + dR_h = 0 and dS_m + dI_m = 0.

    Only + - * / are used, in the same order on both paths, and they round
    the same on Python floats and on numpy arrays, so each row of an array
    equals the call on that row as a list bit for bit.
    """
    if isinstance(y, np.ndarray):
        return _classical_rhs_rows(y, params)
    # Scalar arithmetic on Python floats is several times cheaper than
    # numpy's on five values, and IEEE-identical.
    s_h, i_h, r_h, s_m, i_m = y
    b_mh, b_hm, n_h, mu_h, birth_h, leave_h, eta_h, birth_m, mu_m = params._rates
    foi_host = b_mh * i_m / n_h
    foi_vector = b_hm * i_h / n_h
    return [
        birth_h - (foi_host + mu_h) * s_h,
        foi_host * s_h - leave_h * i_h,
        eta_h * i_h - mu_h * r_h,
        birth_m - (foi_vector + mu_m) * s_m,
        foi_vector * s_m - mu_m * i_m,
    ]


def _classical_rhs_rows(y: np.ndarray, params: ModelParams) -> np.ndarray:
    """`classical_rhs` on states of shape (..., 5), through basic-slice views.

    Each rate is the one-state expression term by term: columns 0 and 3
    (the susceptibles) lose (foi + mu) S and gain mu N, columns 1 and 4
    gain foi S, and every other loss is a constant rate times the column.
    """
    _, _, n_h, _, birth_h, _, eta_h, birth_m, _ = params._rates
    bite, base = params._rate_rows
    susceptible = y[..., ::3]
    foi = bite * y[..., 4::-3] / n_h
    loss = base * y
    np.multiply(foi + base[::3], susceptible, out=loss[..., ::3])
    gain = np.empty_like(loss)
    gain[..., ::3] = birth_h, birth_m
    np.multiply(foi, susceptible, out=gain[..., 1::3])
    np.multiply(eta_h, y[..., 1], out=gain[..., 2])
    return np.subtract(gain, loss, out=gain)


def default_scenario() -> tuple[ModelParams, StateVector]:
    """Baseline outbreak: 56 000 hosts, 3:1 mosquito ratio, 216 index cases.

    Human life expectancy 71 years, mean infectious period 3 days, mosquito
    life span 10 days, 0.7 bites per mosquito per day, 0.36 transmission
    probability per bite in both directions.
    """
    n_h = 56000.0
    params = ModelParams(
        n_h=n_h,
        n_m=3.0 * n_h,
        bite_rate=0.7,
        beta_mh=0.36,
        beta_hm=0.36,
        mu_h=1.0 / (71 * 365),
        mu_m=1.0 / 10.0,
        eta_h=1.0 / 3.0,
    )
    initial = StateVector(
        s_h=n_h - 216.0,
        i_h=216.0,
        r_h=0.0,
        s_m=params.n_m,
        i_m=0.0,
    )
    return params, initial


def population_drift(values: np.ndarray, params: ModelParams) -> tuple[float, float]:
    """Worst relative drift of the host and mosquito totals over a trajectory.

    values must have the five compartments as columns in standard order.
    Classical runs conserve both totals to roundoff; fractional-order runs
    do not (a fractional derivative of a constant is nonzero), and this
    diagnostic is how that drift is surfaced rather than hidden.
    """
    host_total = values[:, 0] + values[:, 1] + values[:, 2]
    mosquito_total = values[:, 3] + values[:, 4]
    host_drift = float(np.max(np.abs(host_total - params.n_h)) / params.n_h)
    mosquito_drift = float(np.max(np.abs(mosquito_total - params.n_m)) / params.n_m)
    return host_drift, mosquito_drift
