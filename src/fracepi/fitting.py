"""Fitting the fractional order to observed infective counts.

The error metric is the mean absolute percentage error (MAPE) between the
simulated and observed infected-host counts at the observation times:

    error_pct = 100 / K * sum_k |I_sim(t_k) - I_obs(t_k)| / I_obs(t_k),

with the simulated value taken at the grid node nearest each observation
time (no interpolation; at the default 0.01-day step the alignment error
is negligible against daily data).  The order is fitted by exhaustive grid
search: the model is highly sensitive to alpha, so the full error curve is
worth more than a local optimizer, and the curve itself is part of the
result.  Runs that blow up score +inf but stay visible in the curve,
flagged as failed.  All candidates run in one `integrate.simulate_batch`
call (alpha = 1 as the classical run), each bit for bit as if run alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .dengue import ModelParams, StateVector
from .expansion import ExpansionConfig
from .integrate import (START_OFFSET, BlowUpError, TimeGrid, TimeSeries, simulate_batch,
                        simulate_fractional)

__all__ = [
    "ObservedSeries",
    "CurvePoint",
    "FitResult",
    "FitFailedError",
    "percentage_error",
    "fit_alpha",
    "generate_synthetic",
]


class FitFailedError(RuntimeError):
    """Every candidate order failed to simulate."""


@dataclass(frozen=True)
class ObservedSeries:
    """Observed infected-host counts at strictly increasing times.

    Counts must be positive: the error metric divides by them.
    """

    times: np.ndarray
    infected: np.ndarray

    def __post_init__(self) -> None:
        times = np.asarray(self.times, dtype=float)
        infected = np.asarray(self.infected, dtype=float)
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "infected", infected)
        if times.ndim != 1 or infected.ndim != 1:
            raise ValueError("times and infected must be one-dimensional")
        if len(times) != len(infected):
            raise ValueError(
                f"length mismatch: {len(times)} times, {len(infected)} observations"
            )
        if len(times) < 2:
            raise ValueError("need at least 2 observations")
        if not (np.all(np.isfinite(times)) and np.all(np.isfinite(infected))):
            raise ValueError("observations must be finite")
        if np.any(np.diff(times) <= 0):
            raise ValueError("observation times must be strictly increasing")
        if np.any(infected <= 0):
            raise ValueError("observed counts must be positive (the metric divides by them)")


@dataclass(frozen=True)
class CurvePoint:
    """One grid-search sample: candidate order, its error, and run status."""

    alpha: float
    error_pct: float
    status: str  # "ok" or "failed"


@dataclass(frozen=True)
class FitResult:
    """Grid-search outcome: the argmin plus the full error curve."""

    best_alpha: float
    best_error_pct: float
    error_curve: tuple[CurvePoint, ...]


def percentage_error(predicted: TimeSeries, obs: ObservedSeries) -> float:
    """MAPE (in percent) of the predicted I_h against the observations.

    Every observation time must lie within the simulated span.
    """
    i_h = predicted.column("I_h")
    indices = [predicted.nearest_index(t) for t in obs.times]
    sampled = i_h[indices]
    return float(100.0 * np.mean(np.abs(sampled - obs.infected) / obs.infected))


def _check_on_grid(times: np.ndarray, grid: TimeGrid) -> None:
    """Refuse, before any run, a time outside the span of the grid's nodes.

    The rule is that of the runs' own series, `TimeSeries.nearest_index`,
    here on the nodes as a series of no columns.
    """
    nodes = grid.nodes()
    series = TimeSeries(times=nodes, values=np.empty((len(nodes), 0)), columns=())
    for t in times:
        series.nearest_index(t)


def _best_point(curve: Sequence[CurvePoint]) -> CurvePoint | None:
    """Argmin over the curve; ties break towards the smallest alpha."""
    return min((p for p in curve if p.status == "ok"), key=lambda p: p.error_pct, default=None)


def fit_alpha(obs: ObservedSeries, params: ModelParams, y0: StateVector,
              n_order: int, alpha_grid: Sequence[float], grid: TimeGrid,
              *, start_offset: float = START_OFFSET) -> FitResult:
    """Exhaustive search for the order that best matches the observations.

    alpha_grid must be sorted ascending with every value in (0, 1];
    alpha = 1 entries run the exact classical model, in the one
    `simulate_batch` call of all candidates.  Candidates that blow up
    receive error +inf and a "failed" status but stay in the curve.

    Raises ValueError, before any run, if an observation time lies outside
    the grid, and FitFailedError if no candidate survives.
    """
    alphas = [float(a) for a in alpha_grid]
    if not alphas:
        raise ValueError("alpha_grid must not be empty")
    if any(not (math.isfinite(a) and 0.0 < a <= 1.0) for a in alphas):
        raise ValueError("alpha_grid values must lie in (0, 1]")
    if any(b <= a for a, b in zip(alphas, alphas[1:])):
        raise ValueError("alpha_grid must be sorted in strictly ascending order")
    if n_order < 2:
        raise ValueError(f"n_order must be >= 2, got {n_order}")
    # The times are increasing, so the first and the last bound the span.
    _check_on_grid(obs.times[[0, -1]], grid)

    cfgs = [ExpansionConfig(alpha=alpha, order_n=n_order) for alpha in alphas]
    runs = simulate_batch(params, y0, cfgs, grid, start_offset=start_offset)
    curve = []
    for alpha, run in zip(alphas, runs):
        if isinstance(run, BlowUpError):
            curve.append(CurvePoint(alpha=alpha, error_pct=math.inf, status="failed"))
        else:
            curve.append(CurvePoint(alpha=alpha, error_pct=percentage_error(run, obs),
                                    status="ok"))

    best = _best_point(curve)
    if best is None:
        details = ", ".join(f"alpha={p.alpha:g}: {p.status}" for p in curve)
        raise FitFailedError(f"every candidate simulation failed ({details})")
    return FitResult(best_alpha=best.alpha, best_error_pct=best.error_pct,
                     error_curve=tuple(curve))


def generate_synthetic(params: ModelParams, y0: StateVector, alpha_star: float,
                       n_order: int, sample_times: Sequence[float], noise_pct: float,
                       seed: int, grid: TimeGrid,
                       *, start_offset: float = START_OFFSET) -> ObservedSeries:
    """Observations manufactured from the model itself, for fit-recovery tests.

    Simulates at the true order alpha_star, samples I_h at the grid nodes
    nearest the requested times, and applies multiplicative noise
    (1 + noise_pct/100 * u) with u drawn uniformly from [-1, 1] by a seeded
    generator.  noise_pct = 0 reproduces the model samples exactly, and a
    fixed seed makes the series fully deterministic.  A sample time outside
    the grid raises ValueError before the run.
    """
    if noise_pct < 0:
        raise ValueError(f"noise_pct must be >= 0, got {noise_pct!r}")
    sample_times = np.asarray(sample_times, dtype=float)
    _check_on_grid(sample_times, grid)
    cfg = ExpansionConfig(alpha=alpha_star, order_n=n_order)
    series = simulate_fractional(params, y0, cfg, grid, start_offset=start_offset)
    indices = [series.nearest_index(t) for t in sample_times]
    exact = series.column("I_h")[indices]
    rng = np.random.default_rng(seed)
    noisy = exact * (1.0 + noise_pct / 100.0 * rng.uniform(-1.0, 1.0, len(exact)))
    return ObservedSeries(times=sample_times, infected=noisy)
