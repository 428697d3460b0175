"""The dengue simulation drivers: one body, one fixed-step RK4 kernel.

`simulate_classical`, `simulate_fractional` and `simulate_batch` share one
body, in which the RK4 kernel writes each node's state into the
preallocated result array; there is no general-purpose ODE integrator.
alpha = 1 runs the classical field (auxiliary columns stay zero); alpha < 1
integrates the augmented system produced by `expansion.expand_system`.  Its
right-hand side carries t^(alpha-1) and t^(-alpha) factors that are
singular at t = 0, so integration starts at a small positive offset
(START_OFFSET) with the physical states at their t = 0 values and every
auxiliary V_p at zero.  The first grid interval is crossed with
geometrically growing sub-steps: near the offset the stiff x/t terms demand
steps proportional to t, and a full-size first step would destroy the run.

The body and the kernel work on any batch shape.  A fractional state is a
block of shape batch + (5, N), each compartment in column 0 of its row and
its moments V_2 ... V_N after it: a single run is the batch of shape (),
and `simulate_batch` steps B orders together on a (B, 5, N) state,
storing only the five physical columns.  For a block of steps the kernel
precomputes the augmented system's operators at every stage time, as many
steps as BLOCK_ENTRIES operator entries hold, so its memory stays flat in N
and B, and each stage is one matrix product, one `classical_rhs` call and
one column-0 add.  Every operation acts member by member, so each member of
a batch equals its single run bit for bit, whatever the block length, and a
member that blows up is marked failed while the others run on.  The
alpha = 1 bypass and `simulate_classical` keep their bits; fractional runs
differ by about 1e-14 relative from the version that scaled the bracket of
the expansion after summing it.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .dengue import ModelParams, StateVector, check_population_balance, classical_rhs
from .expansion import AugmentedSystem, ExpansionConfig, expand_system

__all__ = [
    "BlowUpError",
    "TimeGrid",
    "TimeSeries",
    "DENGUE_COLUMNS",
    "simulate_classical",
    "simulate_fractional",
    "simulate_batch",
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

# Operator entries (3 stage times x batch x N x N per step) that one block of
# fractional RK4 steps precomputes: caps the block's memory whatever N and
# the batch size.
BLOCK_ENTRIES = 4096

# A TimeGrid of more nodes is rejected before any array is allocated.
MAX_NODES = 10 ** 6


class BlowUpError(RuntimeError):
    """A trajectory left the finite range.

    Carries the failure time and step_index, the index of the grid node the
    run failed to reach (1 when it fails in the start-up ramp).
    """

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
    columns: tuple[str, ...]

    def __post_init__(self) -> None:
        times = np.asarray(self.times, dtype=float)
        values = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "values", values)
        if values.ndim != 2 or len(times) != values.shape[0]:
            raise ValueError("values must be a (num_nodes, dim) array")
        if len(self.columns) != values.shape[1]:
            raise ValueError("column names must match the state dimension")

    def column(self, name: str) -> np.ndarray:
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


def _rk4(field: Callable[[float, np.ndarray], np.ndarray] | AugmentedSystem, ts: np.ndarray,
         y: np.ndarray, out, fail_t: np.ndarray) -> np.ndarray:
    """Classical fourth-order Runge-Kutta from the state y at ts[0]; returns the last state.

    field is the right-hand side f(t, y), or an `AugmentedSystem`, whose
    operators the kernel precomputes for blocks of steps: each block holds
    the stage times t, t + h/2 and t + h of as many steps as fit
    BLOCK_ENTRIES operator entries, and at least one.  The leading
    fail_t.ndim axes of y are the batch, one member per entry of fail_t;
    out[i] = y stores the state at ts[i] for i >= 1.  A member whose state
    turns non-finite gets the time it failed to reach in fail_t (NaN while
    the member runs); it steps on as NaN or inf, which no other member
    reads, and the kernel returns as soon as every member has failed.  The
    field must keep members apart too, as `AugmentedSystem` and
    `classical_rhs` do.
    """
    system = field if isinstance(field, AugmentedSystem) else None
    block = (max(1, BLOCK_ENTRIES // (3 * y[..., 0, :].size * y.shape[-1]))
             if system is not None else 0)
    member_axes = tuple(range(fail_t.ndim, y.ndim))
    f = field
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(len(ts) - 1):
            if system is not None and i % block == 0:
                nodes = ts[i:i + block + 1]
                t, h = nodes[:-1], np.diff(nodes)
                f = system.field(np.concatenate([t, t + 0.5 * h, t + h]))
            t = ts[i]
            h = ts[i + 1] - t
            k1 = f(t, y)
            k2 = f(t + 0.5 * h, y + 0.5 * h * k1)
            k3 = f(t + 0.5 * h, y + 0.5 * h * k2)
            k4 = f(t + h, y + h * k3)
            y = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            if not np.isfinite(y).all():
                bad = ~np.isfinite(y).all(axis=member_axes)
                fail_t[bad & np.isnan(fail_t)] = ts[i + 1]
                if bad.all():
                    return y
            out[i + 1] = y
    return y


class _Columns:
    """Row writer from block states Z (batch + (5, N)) into the column layout.

    values has shape (nodes,) + batch + (width,), its columns the five
    physical states and, if width > 5, the moments state-major
    (`aux_column_names`); self[i] = Z writes row i.
    """

    def __init__(self, values: np.ndarray):
        self.physical = values[..., :5]
        # Splitting the last axis of a column slice is a view, so writes land in values.
        self.moments = (values[..., 5:].reshape(values.shape[:-1] + (5, -1))
                        if values.shape[-1] > 5 else None)

    def __setitem__(self, i: int, z: np.ndarray) -> None:
        self.physical[i] = z[..., 0]
        if self.moments is not None:
            self.moments[i] = z[..., 1:]


def _warn_undershoot(series: TimeSeries, params: ModelParams) -> None:
    """Warn once, naming the compartment and the time of the worst undershoot.

    Called directly by each public simulation function, so the warning points
    at its caller.
    """
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
            stacklevel=3,
        )


def simulate_classical(params: ModelParams, y0: StateVector, grid: TimeGrid) -> TimeSeries:
    """Integrate the classical model; host and mosquito totals are conserved."""
    series = _single(params, y0, grid, None, START_OFFSET, False)
    _warn_undershoot(series, params)
    return series


def aux_column_names(order_n: int) -> tuple[str, ...]:
    """Auxiliary column labels: V2_S_h ... VN_S_h, V2_I_h, ... (state-major)."""
    return tuple(f"V{p}_{name}" for name in DENGUE_COLUMNS for p in range(2, order_n + 1))


def _check_lower_terminal(grid: TimeGrid) -> None:
    if grid.t_start != 0.0:
        raise ValueError(
            f"fractional runs start at the lower terminal t = 0, got t_start = {grid.t_start!r}"
        )


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
    trajectories as extra columns.  This is the batch of shape () of
    `simulate_batch`, through the same kernel.

    alpha = 1 runs the classical field, so that case is identical to
    simulate_classical on the same grid, bit for bit.
    """
    _check_lower_terminal(grid)
    series = _single(params, y0, grid, cfg, start_offset, keep_aux)
    _warn_undershoot(series, params)
    return series


def simulate_batch(params: ModelParams, y0: StateVector, cfgs: Sequence[ExpansionConfig],
                   grid: TimeGrid, *, start_offset: float = START_OFFSET,
                   ) -> list[TimeSeries | BlowUpError]:
    """Integrate the fractional model for several orders at once, one kernel for all.

    cfgs is a non-empty sequence of configs of one order N, each with
    alpha < 1; the state has shape (B, 5, N), one member per config, and only
    the five physical columns are stored, so the result's memory does not
    grow with N.  Entry b of the result is what
    `simulate_fractional` returns for cfgs[b], bit for bit, or the
    BlowUpError it would raise: a member that blows up is marked at the grid
    node it failed to reach while the others run on.
    """
    _check_lower_terminal(grid)
    nodes, values, fail_t = _simulate(params, y0, grid, cfgs, start_offset, 5)
    runs = [_member(nodes, values[:, b], fail_t[b], DENGUE_COLUMNS) for b in range(len(cfgs))]
    for run in runs:
        if isinstance(run, TimeSeries):
            _warn_undershoot(run, params)
    return runs


def _member(nodes: np.ndarray, values: np.ndarray, fail_t: float,
            columns: tuple[str, ...]) -> TimeSeries | BlowUpError:
    """One member's series, or the BlowUpError naming the grid node it failed to reach."""
    if np.isnan(fail_t):
        return TimeSeries(times=nodes, values=values, columns=columns)
    return BlowUpError(float(fail_t), int(np.searchsorted(nodes, fail_t)))


def _single(params: ModelParams, y0: StateVector, grid: TimeGrid, cfg: ExpansionConfig | None,
            start_offset: float, keep_aux: bool) -> TimeSeries:
    """One run (batch shape ()); cfg None or alpha = 1 integrates the classical field."""
    columns = DENGUE_COLUMNS + aux_column_names(cfg.order_n) if keep_aux else DENGUE_COLUMNS
    classical = cfg is None or cfg.alpha == 1.0
    nodes, values, fail_t = _simulate(params, y0, grid, None if classical else cfg,
                                      start_offset, len(columns))
    run = _member(nodes, values, fail_t, columns)
    if isinstance(run, BlowUpError):
        raise run
    return run


def _simulate(params: ModelParams, y0: StateVector, grid: TimeGrid,
              cfg: ExpansionConfig | Sequence[ExpansionConfig] | None, start_offset: float,
              width: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The one simulation body, for any batch shape.

    cfg None integrates the classical field (batch shape ()); otherwise the
    augmented system of one config (batch shape ()) or of a sequence of
    configs (batch shape (B,)).  Returns the nodes, the first `width`
    columns of every state, of shape (nodes,) + batch + (width,) (columns
    the state does not have stay zero), and the time each member failed to
    reach, NaN for a member that reached the last node.
    """
    check_population_balance(params, y0)

    def f(t: float, y: np.ndarray) -> np.ndarray:
        return classical_rhs(t, y, params)

    nodes = grid.nodes()
    if cfg is None:
        shape, y = (), y0.as_array()
    else:
        system = expand_system(f, cfg)
        shape = system.factors.shape[:-1]
        y = np.zeros(shape + (5, system.order_n))
        y[..., 0] = y0.as_array()
    values = np.zeros((len(nodes),) + shape + (width,))
    values[0, ..., :5] = y0.as_array()
    fail_t = np.full(shape, np.nan)
    if cfg is None:
        # keep_aux of the classical bypass: the auxiliary columns stay zero.
        _rk4(f, nodes, y, values[..., :5], fail_t)
        return nodes, values, fail_t
    if start_offset <= 0 or not math.isfinite(start_offset):
        raise ValueError(f"start_offset must be positive and finite, got {start_offset!r}")
    if start_offset >= nodes[1]:
        raise ValueError(
            f"start_offset = {start_offset!r} does not leave room before the "
            f"first grid node at t = {nodes[1]!r}"
        )
    ramp = [start_offset]  # geometric sub-steps up to the first node
    while ramp[-1] * RAMP_FACTOR < nodes[1]:
        ramp.append(ramp[-1] * RAMP_FACTOR)
    ramp_ts = np.array(ramp + [nodes[1]])
    y = _rk4(system, ramp_ts, y, _Columns(np.empty((len(ramp_ts),) + values.shape[1:])),
             fail_t)
    out = _Columns(values[1:])
    out[0] = y
    if np.isnan(fail_t).any():
        _rk4(system, nodes[1:], y, out, fail_t)
    return nodes, values, fail_t
