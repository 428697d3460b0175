"""The dengue simulation drivers: one body, fixed-step RK4 kernels.

`simulate_classical`, `simulate_fractional` and `simulate_batch` share one
body, in which an RK4 kernel writes each node's state into the
preallocated result array; there is no general-purpose ODE integrator.
alpha = 1 runs the classical field (auxiliary columns stay zero); alpha < 1
integrates the augmented system produced by `expansion.expand_system`.  Its
right-hand side carries t^(alpha-1) and t^(-alpha) factors that are
singular at t = 0, so integration starts at a small positive offset
(START_OFFSET) with the physical states at their t = 0 values and every
auxiliary V_p at zero, and is one kernel pass from there through the last
node.  It crosses the first grid interval with geometrically growing
sub-steps, whose states are not stored: near the offset the stiff x/t terms
demand steps proportional to t, and a full-size first step would destroy
the run.

Every run is one call of that body, `_simulate`, on a non-empty list of
configs, one member each (a single run is a list of one): its alpha < 1
members, all of one N, step together, its alpha = 1 members share one
classical run, and one MAX_ENTRIES check counts them all.  The
augmented system is an arrow (see `expansion.AugmentedSystem`): each
moment V_p reads only its compartment x, and x reads the sum of its
moments.  So the fractional kernels keep x (B, 5) apart from the moments
w (B, N-1, 5).  One block loop, `_arrow_steps`, gives both kernels the
arrow's time factors at every stage time of as many steps as BLOCK_ENTRIES
factors hold (at least one; MAX_ENTRIES bounds a larger step).  Each step
then takes one matrix product for the moment sums at its three stage
times, four stages on the five physical states alone (the moments enter
each stage as that sum plus one precomputed scalar times the previous
stage's x), and one matrix product that updates w.  The member count picks
the kernel: one member does the stage arithmetic on Python floats, several
times cheaper than numpy on five numbers; more do the same operations in
the same order on (B, 5) arrays, so each member equals its single run bit
for bit, and a member that blows up is marked failed while the others run
on.  The classical field of the alpha = 1 members is stepped on Python
floats too, by plain RK4 stages without moment terms.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Callable, Iterator, Sequence

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

# Time factors (3 stage times x members x 2N per step) per block of fractional
# RK4 steps (`_arrow_steps`); a block has at least one step, so a larger
# step is bounded by MAX_ENTRIES instead.  A step holds O(N) numbers per
# member, not the N x N of a dense operator.
BLOCK_ENTRIES = 4096

# A TimeGrid of more nodes is rejected before any array is allocated.
MAX_NODES = 10 ** 6

# A run whose result (nodes x runs x columns, the alpha = 1 members' one
# classical run included) and expansion arrays exceed this many float64
# entries (800 MB) is refused first.  Per alpha < 1 member the expansion
# holds 2 x 2N weights and 5 (N-1) moments, and two steps of
# `_arrow_steps` at once (the next is built while the kernel holds the
# last): each the arrow's 3 x 2N powers, the scaled g and rw (3 (N-1)
# each), and one step's q temporaries (3 x 3 (N-1)).
MAX_ENTRIES = 10 ** 8


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
    """Uniform grid in days from the lower terminal t_start = 0 to t_end.

    The one grid rule of every solver and derivative evaluator: t_start is
    0, and t_end is a whole number n of steps, to within 1e-9 of a step.
    """

    t_start: float
    t_end: float
    step: float

    def __post_init__(self) -> None:
        for name in ("t_start", "t_end", "step"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        if self.step <= 0:
            raise ValueError(f"step must be positive, got {self.step!r}")
        if self.t_start != 0.0:
            raise ValueError(f"the grid must start at the lower terminal t = 0, "
                             f"got t_start = {self.t_start!r}")
        steps = self.t_end / self.step
        if steps < 2:
            raise ValueError("grid must span at least two steps")
        if not math.isfinite(steps):
            raise ValueError(f"grid span / step overflows: t_end = {self.t_end!r}, "
                             f"step = {self.step!r}")
        if steps > MAX_NODES - 1:
            raise ValueError(f"grid of {steps:.3g} steps exceeds {MAX_NODES} nodes")
        n = self._step_count()
        h, last = self.t_end / n, self.t_end - self.step * (n - 1)
        if abs(last - h) > 1e-9 * h:
            raise ValueError(
                "the grid is not commensurate: (t_end - t_start) must be an integer "
                f"multiple of step, got steps of {self.step:g} and {last:g}"
            )

    def _step_count(self) -> int:
        """The number n of steps.

        n is floor(t_end / step + 1e-9), plus one when t_end lies more than
        1e-9 of a step past that many steps.
        """
        n = int(math.floor(self.t_end / self.step + 1e-9))
        return n + (self.t_end - self.step * n > 1e-9 * self.step)

    def nodes(self) -> np.ndarray:
        """The n + 1 nodes i * step; the final node is exactly t_end."""
        ts = self.step * np.arange(self._step_count() + 1)
        ts[-1] = self.t_end
        return ts

    def uniform_nodes(self) -> tuple[np.ndarray, float]:
        """`nodes()` and the one step h = t_end / n between them."""
        ts = self.nodes()
        return ts, self.t_end / (len(ts) - 1)


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
        if name not in self.columns:
            raise ValueError(f"no column {name!r} in a series of columns {self.columns}")
        return self.values[:, self.columns.index(name)]

    def nearest_index(self, t: float) -> int:
        """Index of the node closest to t; t must be finite and lie within the span."""
        times = self.times
        tol = 1e-9 * max(1.0, abs(times[-1]))
        if not times[0] - tol <= t <= times[-1] + tol:  # also refuses NaN
            raise ValueError(
                f"t = {float(t)!r} is outside the simulated span "
                f"[{float(times[0])!r}, {float(times[-1])!r}]"
            )
        i = int(np.searchsorted(times, t))
        if i == 0:
            return 0
        if i >= len(times):
            return len(times) - 1
        return i if times[i] - t < t - times[i - 1] else i - 1


@np.errstate(over="ignore", invalid="ignore")
def _rk4(f: Callable[[float, list], Sequence[float]], ts: np.ndarray, x: list,
         out: np.ndarray, fail_t: np.ndarray) -> None:
    """Classical fourth-order Runge-Kutta on Python floats.

    x is the state at ts[0] as a list of floats, and f(t, x) returns the
    derivative as a sequence of floats.  out[i] = x stores the state at
    ts[i] for i >= 1.  A state that turns non-finite puts the time it
    failed to reach into fail_t[0] (fail_t has one entry per member, NaN
    while the run goes on, as in the arrow kernels) and ends the run.
    """
    tl = ts.tolist()
    isfinite = math.isfinite
    for i in range(len(tl) - 1):
        t = tl[i]
        h = tl[i + 1] - t
        hh = 0.5 * h
        k1 = f(t, x)
        k2 = f(t + hh, [xc + hh * kc for xc, kc in zip(x, k1)])
        k3 = f(t + hh, [xc + hh * kc for xc, kc in zip(x, k2)])
        k4 = f(t + h, [xc + h * kc for xc, kc in zip(x, k3)])
        h6 = h / 6.0
        x = [xc + h6 * (a + 2.0 * b + 2.0 * c + d) for xc, a, b, c, d in zip(x, k1, k2, k3, k4)]
        if not all(map(isfinite, x)):
            fail_t[0] = tl[i + 1]
            return
        out[i + 1] = x


def _arrow_steps(system: AugmentedSystem, ts: np.ndarray
                 ) -> Iterator[tuple[int, list, np.ndarray, np.ndarray, np.ndarray]]:
    """The one block loop of the arrow kernels: yield (start, tl, g, rw, coefs) per block.

    A block is the RK4 steps from node ts[start] to the next nodes, as
    many as BLOCK_ENTRIES time factors hold (3 stage times x B members x
    2N per step), and at least one; tl holds its nodes as Python floats.
    For each step from t to t + h, at its stage times t, t + h/2 and t + h
    (the kernels' own expressions): g, the rows g(t_j) of the moment sums,
    of shape (steps, B, 3, N-1); rw, the columns (h/6) r(t),
    (h/3) r(t + h/2) and (h/6) r(t + h) of the moment update, of shape
    (steps, B, N-1, 3); and coefs, the scalars s and a at the three times
    and q_2, q_3, q_4, of shape (steps, 9, B).  q_j is the part of stage
    j's moment sum that the previous stage added to V through its x:
    (h/2) r(t).g(t + h/2), (h/2) r(t + h/2).g(t + h/2) and h r(t + h/2).g(t + h).
    """
    block = max(1, BLOCK_ENTRIES // (3 * system.factors.size))
    for start in range(0, len(ts) - 1, block):
        nodes = ts[start:start + block + 1]
        t, h = nodes[:-1], np.diff(nodes)
        s, a, g, r = system.arrow(np.stack([t, t + 0.5 * h, t + h], axis=-1))
        q = (np.stack([0.5 * h, 0.5 * h, h], axis=-1)[:, None]
             * (r[..., [0, 1, 1], :] * g[..., [1, 1, 2], :]).sum(axis=-1))
        weights = np.stack([h / 6.0, h / 3.0, h / 6.0], axis=-1)[:, None, :, None]
        rw = np.ascontiguousarray(np.swapaxes(weights * r, -1, -2))
        coefs = np.moveaxis(np.concatenate([s, a, q], axis=-1), -1, 1)
        yield start, nodes.tolist(), g, rw, coefs


@np.errstate(over="ignore", invalid="ignore")
def _rk4_arrow(system: AugmentedSystem, ts: np.ndarray, x: np.ndarray, w: np.ndarray, out,
               fail_t: np.ndarray) -> None:
    """RK4 on the augmented system of a batch of one config, on Python floats.

    x, of shape (1, d), holds the physical states and w, of shape
    (1, N-1, d), their moments V_2 ... V_N, one row per p; w is updated in
    place.  Each step takes one product g @ w for the moment sums at its
    three stage times; its four stages then act on x alone, and one
    product rw @ [x_1, x_2 + x_3, x_4] of the stage states updates w (see
    `_arrow_steps`).  The stage arithmetic is `_rk4_arrow_batch`'s,
    operation for operation.  out[i] = (x, w) stores the state at ts[i]
    for i >= 1; a non-finite state ends the run as in `_rk4`.
    """
    f = system.rhs
    isfinite = math.isfinite
    x, w = x[0].tolist(), w[0]
    for start, tl, g, rw, coefs in _arrow_steps(system, ts):
        g, rw = g[:, 0], rw[:, 0]
        for k, (s1, s2, s4, a1, a2, a4, q2, q3, q4) in enumerate(coefs[..., 0].tolist()):
            t = tl[k]
            h = tl[k + 1] - t
            hh = 0.5 * h
            m1, m2, m4 = (g[k] @ w).tolist()
            k1 = [s1 * fc + a1 * xc + mc for fc, xc, mc in zip(f(t, x), x, m1)]
            x2 = [xc + hh * kc for xc, kc in zip(x, k1)]
            k2 = [s2 * fc + a2 * xc + (mc + q2 * pc)
                  for fc, xc, mc, pc in zip(f(t + hh, x2), x2, m2, x)]
            x3 = [xc + hh * kc for xc, kc in zip(x, k2)]
            k3 = [s2 * fc + a2 * xc + (mc + q3 * pc)
                  for fc, xc, mc, pc in zip(f(t + hh, x3), x3, m2, x2)]
            x4 = [xc + h * kc for xc, kc in zip(x, k3)]
            k4 = [s4 * fc + a4 * xc + (mc + q4 * pc)
                  for fc, xc, mc, pc in zip(f(t + h, x4), x4, m4, x3)]
            w += rw[k] @ np.array([x, [b + c for b, c in zip(x2, x3)], x4])
            h6 = h / 6.0
            x = [xc + h6 * (a + 2.0 * b + 2.0 * c + d)
                 for xc, a, b, c, d in zip(x, k1, k2, k3, k4)]
            if not (all(map(isfinite, x)) and np.isfinite(w).all()):
                fail_t[0] = tl[k + 1]
                return
            out[start + k + 1] = (x, w)


@np.errstate(over="ignore", invalid="ignore")
def _rk4_arrow_batch(system: AugmentedSystem, ts: np.ndarray, x: np.ndarray, w: np.ndarray,
                     out, fail_t: np.ndarray) -> None:
    """`_rk4_arrow` for a batch of B > 1 configs of one order, on arrays.

    x has shape (B, d) and w (B, N-1, d), and every operation is
    `_rk4_arrow`'s on one row per member, so each member equals its
    single run bit for bit.  A member whose state turns non-finite gets
    the time it failed to reach in fail_t (shape (B,), NaN while the
    member runs); it steps on as NaN or inf, which no other member reads,
    and the kernel returns as soon as every member has failed.
    """
    f = system.rhs
    stages = np.empty(x.shape[:-1] + (3, x.shape[-1]))  # [x_1, x_2 + x_3, x_4] per member
    stage_1, stage_23, stage_4 = stages.swapaxes(0, 1)
    for start, tl, g, rw, coefs in _arrow_steps(system, ts):
        # Each coefficient repeated along the state axis: its products with
        # the stages are then same-shape ufunc calls, the cheapest kind.
        coefs = np.ascontiguousarray(np.broadcast_to(coefs[..., None],
                                                     coefs.shape + x.shape[-1:]))
        for k in range(len(coefs)):
            t = tl[k]
            h = tl[k + 1] - t
            hh = 0.5 * h
            s1, s2, s4, a1, a2, a4, q2, q3, q4 = coefs[k]
            m1, m2, m4 = (g[k] @ w).swapaxes(0, 1)
            k1 = s1 * f(t, x) + a1 * x + m1
            x2 = x + hh * k1
            k2 = s2 * f(t + hh, x2) + a2 * x2 + (m2 + q2 * x)
            x3 = x + hh * k2
            k3 = s2 * f(t + hh, x3) + a2 * x3 + (m2 + q3 * x2)
            x4 = x + h * k3
            k4 = s4 * f(t + h, x4) + a4 * x4 + (m4 + q4 * x3)
            np.copyto(stage_1, x)
            np.add(x2, x3, out=stage_23)
            np.copyto(stage_4, x4)
            w += rw[k] @ stages
            x = x + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            if not (np.isfinite(x).all() and np.isfinite(w).all()):
                bad = ~(np.isfinite(x).all(axis=-1) & np.isfinite(w).all(axis=(-2, -1)))
                fail_t[bad & np.isnan(fail_t)] = tl[k + 1]
                if bad.all():
                    return
            out[start + k + 1] = (x, w)


class _Columns:
    """Row writer from arrow states (x, w) into the column layout.

    values has shape (nodes, B, width), its columns the five physical
    states and, if width > 5, the moments state-major (`aux_column_names`);
    self[i] = (x, w) writes row i - ramp, x of shape (B, 5) (or, for one
    member, a list) and w of shape (B, N-1, 5) (or (N-1, 5)), and drops
    the states i <= ramp of the start-up sub-steps before node 1.
    """

    def __init__(self, values: np.ndarray, ramp: int):
        self.ramp = ramp
        self.physical = values[..., :5]
        # Splitting the last axis of a column slice is a view, so writes land in values.
        self.moments = (values[..., 5:].reshape(values.shape[:-1] + (5, -1))
                        if values.shape[-1] > 5 else None)

    def __setitem__(self, i: int, state: tuple) -> None:
        i -= self.ramp
        if i <= 0:
            return
        x, w = state
        self.physical[i] = x
        if self.moments is not None:
            self.moments[i] = w.swapaxes(-1, -2)


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
    """Integrate the classical model, the run of one alpha = 1 config (its order
    is unused); host and mosquito totals are conserved."""
    (series,) = _simulate(params, y0, grid, [ExpansionConfig(1.0, 2)], START_OFFSET,
                          DENGUE_COLUMNS)
    if isinstance(series, BlowUpError):
        raise series
    _warn_undershoot(series, params)
    return series


def aux_column_names(order_n: int) -> tuple[str, ...]:
    """Auxiliary column labels: V2_S_h ... VN_S_h, V2_I_h, ... (state-major)."""
    return tuple(f"V{p}_{name}" for name in DENGUE_COLUMNS for p in range(2, order_n + 1))


def simulate_fractional(params: ModelParams, y0: StateVector, cfg: ExpansionConfig,
                        grid: TimeGrid, *, start_offset: float = START_OFFSET,
                        keep_aux: bool = False) -> TimeSeries:
    """Integrate the fractional-order model through its augmented system.

    All auxiliaries start at zero and the physical states at their values
    at the lower terminal t = 0, the grid's first node; integration
    starts at t = start_offset and the first grid interval is crossed with
    graded sub-steps (see the module docstring).  The returned series
    reports the physical compartments on the requested grid, with the first
    node holding the initial state; keep_aux=True appends the auxiliary
    trajectories as extra columns.  This is `simulate_batch` of one
    config: the same body, size check, block loop and float kernel.

    alpha = 1 runs the classical field, so that case is identical to
    simulate_classical on the same grid, bit for bit.
    """
    columns = DENGUE_COLUMNS + aux_column_names(cfg.order_n) if keep_aux else DENGUE_COLUMNS
    (series,) = _simulate(params, y0, grid, [cfg], start_offset, columns)
    if isinstance(series, BlowUpError):
        raise series
    _warn_undershoot(series, params)
    return series


def simulate_batch(params: ModelParams, y0: StateVector, cfgs: Sequence[ExpansionConfig],
                   grid: TimeGrid, *, start_offset: float = START_OFFSET,
                   ) -> list[TimeSeries | BlowUpError]:
    """Integrate the model for several orders at once, one kernel for the fractional ones.

    cfgs is a non-empty sequence of configs with alpha in (0, 1], those
    with alpha < 1 of one order N, and only the five physical columns are
    stored.  Entry b is what `simulate_fractional` returns for cfgs[b],
    bit for bit, or the BlowUpError it would raise: a member that blows up
    is marked while the others run on.  The whole batch is one `_simulate`
    run: the alpha < 1 configs step together (on floats for one, on arrays
    for more), the alpha = 1 ones share one classical run, and MAX_ENTRIES
    is checked once for all of them.
    """
    runs = _simulate(params, y0, grid, cfgs, start_offset, DENGUE_COLUMNS)
    for run in runs:
        if isinstance(run, TimeSeries):
            _warn_undershoot(run, params)
    return runs


def _simulate(params: ModelParams, y0: StateVector, grid: TimeGrid,
              cfgs: Sequence[ExpansionConfig], start_offset: float,
              columns: tuple[str, ...]) -> list[TimeSeries | BlowUpError]:
    """The one simulation body: a run is a non-empty sequence of configs, one member each.

    The alpha < 1 configs, B of one order N, integrate their augmented
    system, and their count picks the kernel: Python floats for one
    (`_rk4_arrow`), (B, 5) arrays for more (`_rk4_arrow_batch`).  The
    alpha = 1 configs share one run of the classical field (`_rk4`), the
    last of the result array's runs.  Returns one entry per config: its
    series of the given columns (columns the state does not have stay
    zero), or the BlowUpError naming the grid node it failed to reach.  A
    run whose result and expansion arrays together exceed MAX_ENTRIES is
    refused before anything is built.
    """
    if not cfgs:
        raise ValueError("a batch needs at least one config")
    check_population_balance(params, y0)
    if start_offset <= 0 or not math.isfinite(start_offset):
        raise ValueError(f"start_offset must be positive and finite, got {start_offset!r}")

    def f(t: float, y: np.ndarray) -> np.ndarray:
        return classical_rhs(t, y, params)

    fractional = [cfg for cfg in cfgs if cfg.alpha != 1.0]
    stepped = len(fractional)
    nodes, runs, width = grid.nodes(), stepped + (stepped < len(cfgs)), len(columns)
    expansion = sum(16 * c.order_n + 26 * (c.order_n - 1) for c in fractional)  # see MAX_ENTRIES
    if len(nodes) * runs * width + expansion > MAX_ENTRIES:
        raise ValueError(f"a result of {len(nodes)} nodes x {runs} runs x {width} columns "
                         f"and {expansion} expansion entries exceed {MAX_ENTRIES:.0e} entries")
    values = np.zeros((len(nodes), runs, width))
    values[0, :, :5] = y0.as_array()
    fail_t = np.full(runs, np.nan)
    if fractional:
        system = expand_system(f, fractional)
        if start_offset >= nodes[1]:
            raise ValueError(
                f"start_offset = {start_offset!r} does not leave room before the "
                f"first grid node at t = {float(nodes[1])!r}"
            )
        ramp = [start_offset]  # geometric sub-steps up to the first node
        while ramp[-1] * RAMP_FACTOR < nodes[1]:
            ramp.append(ramp[-1] * RAMP_FACTOR)
        step = _rk4_arrow if stepped == 1 else _rk4_arrow_batch
        step(system, np.concatenate([ramp, nodes[1:]]), np.tile(y0.as_array(), (stepped, 1)),
             np.zeros((stepped, system.order_n - 1, 5)),
             _Columns(values[:, :stepped], len(ramp) - 1), fail_t[:stepped])
    if stepped < runs:
        # The classical field leaves the auxiliary columns zero.
        _rk4(f, nodes, y0.as_array().tolist(), values[:, stepped, :5], fail_t[stepped:])
    series = [TimeSeries(times=nodes, values=values[:, b], columns=columns) if math.isnan(t)
              else BlowUpError(t, int(np.searchsorted(nodes, t)))
              for b, t in enumerate(fail_t.tolist())]
    members = iter(series)
    return [series[-1] if cfg.alpha == 1.0 else next(members) for cfg in cfgs]
