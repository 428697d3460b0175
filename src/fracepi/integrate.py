"""Fixed-step RK4 integration and the dengue simulation drivers.

Both simulation drivers share one body, in which one RK4 kernel writes each
node's state into the preallocated result array.  alpha = 1 runs the
classical field (auxiliary columns stay zero); alpha < 1 integrates the
augmented system produced by `expansion.expand_system`.  Its right-hand
side carries t^(alpha-1) and t^(-alpha) factors that are singular at
t = 0, so integration starts at a small positive offset (START_OFFSET)
with the physical states at their t = 0 values and every auxiliary V_p at
zero.  The first grid interval is crossed with geometrically growing
sub-steps: near the offset the stiff x/t terms demand steps proportional
to t, and a full-size first step would destroy the run.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .dengue import ModelParams, StateVector, check_population_balance, classical_rhs
from .expansion import ExpansionConfig, expand_system

__all__ = [
    "BlowUpError",
    "TimeGrid",
    "TimeSeries",
    "DENGUE_COLUMNS",
    "integrate_rk4",
    "simulate_classical",
    "simulate_fractional",
    "aux_column_names",
]

DENGUE_COLUMNS = ("S_h", "I_h", "R_h", "S_m", "I_m")

# Sub-step growth ratio for the singular start: the stiff x/t modes need
# steps proportional to the current time, and 2**(1/8) keeps each sub-step
# below ~9% of it.
RAMP_FACTOR = 2.0 ** 0.125

# Undershoot beyond -1e-6 of the relevant population total is reported.
UNDERSHOOT_TOL = 1e-6

# Default start offset epsilon (days) of a fractional run.
START_OFFSET = 1e-6

# A TimeGrid of more nodes is rejected before any array is allocated.
MAX_NODES = 10 ** 6


class BlowUpError(RuntimeError):
    """A trajectory left the finite range; carries the failure time."""

    def __init__(self, time: float, step_index: int):
        super().__init__(f"non-finite state at t = {time:g} (step {step_index})")
        self.time = time
        self.step_index = step_index


@dataclass(frozen=True)
class TimeGrid:
    """Uniform output grid in days; the last step shrinks to land on t_end."""

    t_start: float
    t_end: float
    step: float

    def __post_init__(self) -> None:
        for name in ("t_start", "t_end", "step"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        if self.step <= 0:
            raise ValueError(f"step must be positive, got {self.step!r}")
        if self.t_start >= self.t_end:
            raise ValueError("t_start must be below t_end")
        steps = (self.t_end - self.t_start) / self.step
        if steps < 2:
            raise ValueError("grid must span at least two steps")
        if not math.isfinite(steps):
            raise ValueError(f"grid span / step overflows: t_end = {self.t_end!r}, "
                             f"step = {self.step!r}")
        if steps > MAX_NODES - 1:
            raise ValueError(f"grid of {steps:.3g} steps exceeds {MAX_NODES} nodes")

    def nodes(self) -> np.ndarray:
        """Node array; the final node is exactly t_end."""
        span = self.t_end - self.t_start
        n_full = int(math.floor(span / self.step + 1e-9))
        ts = self.t_start + self.step * np.arange(n_full + 1)
        if self.t_end - ts[-1] > 1e-9 * self.step:
            ts = np.append(ts, self.t_end)
        else:
            ts[-1] = self.t_end
        return ts


@dataclass(frozen=True)
class TimeSeries:
    """A trajectory: node times plus one state row per node."""

    times: np.ndarray
    values: np.ndarray
    columns: tuple[str, ...] | None = None

    def __post_init__(self) -> None:
        times = np.asarray(self.times, dtype=float)
        values = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "values", values)
        if values.ndim != 2 or len(times) != values.shape[0]:
            raise ValueError("values must be a (num_nodes, dim) array")
        if self.columns is not None and len(self.columns) != values.shape[1]:
            raise ValueError("column names must match the state dimension")

    def column(self, name: str) -> np.ndarray:
        if self.columns is None:
            raise ValueError("series has no column names")
        return self.values[:, self.columns.index(name)]

    def nearest_index(self, t: float) -> int:
        """Index of the node closest to t; t must lie within the span."""
        times = self.times
        tol = 1e-9 * max(1.0, abs(times[-1]))
        if t < times[0] - tol or t > times[-1] + tol:
            raise ValueError(
                f"t = {t!r} is outside the simulated span [{times[0]!r}, {times[-1]!r}]"
            )
        i = int(np.searchsorted(times, t))
        if i == 0:
            return 0
        if i >= len(times):
            return len(times) - 1
        return i if times[i] - t < t - times[i - 1] else i - 1


def _rk4(f: Callable[[float, np.ndarray], np.ndarray], ts: np.ndarray,
         out: np.ndarray) -> None:
    """Classical fourth-order Runge-Kutta from out[0], writing the state at ts[i] to out[i]."""
    y = out[0]
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(len(ts) - 1):
            t = ts[i]
            h = ts[i + 1] - t
            k1 = f(t, y)
            k2 = f(t + 0.5 * h, y + 0.5 * h * k1)
            k3 = f(t + 0.5 * h, y + 0.5 * h * k2)
            k4 = f(t + h, y + h * k3)
            y = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            if not np.all(np.isfinite(y)):
                raise BlowUpError(time=float(ts[i + 1]), step_index=i + 1)
            out[i + 1] = y


def integrate_rk4(f: Callable[[float, np.ndarray], np.ndarray], y0: np.ndarray,
                  grid: TimeGrid) -> TimeSeries:
    """Integrate y' = f(t, y) from y(t_start) = y0 over the grid.

    Raises BlowUpError (with the offending time) the moment any state
    component becomes non-finite; no silent NaN propagation.
    """
    y0 = np.atleast_1d(np.asarray(y0, dtype=float))
    if not np.all(np.isfinite(y0)):
        raise ValueError("initial state must be finite")
    ts = grid.nodes()
    values = np.empty((len(ts), len(y0)))
    values[0] = y0
    _rk4(f, ts, values)
    return TimeSeries(times=ts, values=values)


def _warn_undershoot(series: TimeSeries, params: ModelParams) -> None:
    # Report, never clamp: clamping would silently distort the
    # conservation diagnostics.
    scales = np.array([params.n_h] * 3 + [params.n_m] * 2)
    floors = -UNDERSHOOT_TOL * scales
    physical = series.values[:, :5]
    mask = physical < floors
    if np.any(mask):
        rows, cols = np.nonzero(mask)
        k = np.argmin(physical[rows, cols] / scales[cols])
        name = DENGUE_COLUMNS[cols[k]]
        warnings.warn(
            f"negative undershoot: {name} = {physical[rows[k], cols[k]]:.6g} "
            f"at t = {series.times[rows[k]]:g}",
            RuntimeWarning,
            stacklevel=4,
        )


def simulate_classical(params: ModelParams, y0: StateVector, grid: TimeGrid) -> TimeSeries:
    """Integrate the classical model; host and mosquito totals are conserved."""
    return _simulate(params, y0, grid, None, START_OFFSET, False)


def aux_column_names(order_n: int) -> tuple[str, ...]:
    """Auxiliary column labels: V2_S_h ... VN_S_h, V2_I_h, ... (state-major)."""
    return tuple(f"V{p}_{name}" for name in DENGUE_COLUMNS for p in range(2, order_n + 1))


def simulate_fractional(params: ModelParams, y0: StateVector, cfg: ExpansionConfig,
                        grid: TimeGrid, *, start_offset: float = START_OFFSET,
                        keep_aux: bool = False) -> TimeSeries:
    """Integrate the fractional-order model through its augmented system.

    The grid must start at the lower terminal t = 0.  All auxiliaries start
    at zero and the physical states at their t = 0 values; integration
    starts at t = start_offset and the first grid interval is crossed with
    graded sub-steps (see the module docstring).  The returned series
    reports the physical compartments on the requested grid, with the first
    node holding the initial state; keep_aux=True appends the auxiliary
    trajectories as extra columns.

    alpha = 1 runs the classical field, so that case is identical to
    simulate_classical on the same grid, bit for bit.
    """
    if grid.t_start != 0.0:
        raise ValueError(
            f"fractional runs start at the lower terminal t = 0, got t_start = {grid.t_start!r}"
        )
    if cfg.alpha != 1.0 and (start_offset <= 0 or not math.isfinite(start_offset)):
        raise ValueError(f"start_offset must be positive and finite, got {start_offset!r}")
    return _simulate(params, y0, grid, cfg, start_offset, keep_aux)


def _simulate(params: ModelParams, y0: StateVector, grid: TimeGrid, cfg: ExpansionConfig | None,
              start_offset: float, keep_aux: bool) -> TimeSeries:
    """The one driver body; cfg None or alpha = 1 integrates the classical field."""
    check_population_balance(params, y0)

    def f(t: float, y: np.ndarray) -> np.ndarray:
        return classical_rhs(t, y, params)

    classical = cfg is None or cfg.alpha == 1.0
    nodes = grid.nodes()
    values = np.zeros((len(nodes), 5 if classical and not keep_aux else 5 * cfg.order_n))
    values[0, :5] = y0.as_array()
    if classical:
        _rk4(f, nodes, values[:, :5])
    else:
        rhs = expand_system(f, 5, cfg)
        if start_offset >= nodes[1]:
            raise ValueError(
                f"start_offset = {start_offset!r} does not leave room before the "
                f"first grid node at t = {nodes[1]!r}"
            )
        ramp = [start_offset]  # geometric sub-steps up to the first node
        while ramp[-1] * RAMP_FACTOR < nodes[1]:
            ramp.append(ramp[-1] * RAMP_FACTOR)
        head = np.empty((len(ramp) + 1, values.shape[1]))
        head[0] = values[0]
        _rk4(rhs, np.array(ramp + [nodes[1]]), head)
        values[1] = head[-1]
        _rk4(rhs, nodes[1:], values[1:])

    if keep_aux:
        series = TimeSeries(times=nodes, values=values,
                            columns=DENGUE_COLUMNS + aux_column_names(cfg.order_n))
    else:
        series = TimeSeries(times=nodes, values=values[:, :5], columns=DENGUE_COLUMNS)
    _warn_undershoot(series, params)
    return series
