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
the kernel: one member does the stage arithmetic on five Python floats per
stage, several times cheaper than numpy on five numbers; more do the same
operations in the same order on (B, 5) arrays, so each member equals its
single run bit for bit.  Both kernels write a block's states into buffers
they reuse for every block, and store and check them once, at the block's
end: a member that blows up is marked failed at the first node it did not
reach, while the others run on.  The classical field of the alpha = 1
members is stepped on Python floats too, by plain RK4 stages without
moment terms, and checked at every node.
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
# holds 2 x 2N weights and 5 (N-1) moments, two steps of `_arrow_steps`
# at once (the next is built while the kernel holds the last): each the
# arrow's 3 x 2N powers, the scaled g and rw (3 (N-1) each), and one
# step's q temporaries (3 x 3 (N-1)), and the kernel's block buffers of
# 5 + 5 (N-1) = 5N states per step.  Like the block's factors, the buffers
# of a block of several steps hold at most a multiple of BLOCK_ENTRIES.
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


def _block_steps(system: AugmentedSystem) -> int:
    """Steps per block of `_arrow_steps`: as many as BLOCK_ENTRIES factors hold, at least one."""
    return max(1, BLOCK_ENTRIES // (3 * system.factors.size))


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
    block = _block_steps(system)
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

    x, of shape (1, 5), holds the physical states and w, of shape
    (1, N-1, 5), their moments V_2 ... V_N, one row per p.  Each step
    takes one product g @ w for the moment sums at its three stage times;
    its four stages then act on x alone, on five named floats each (x20
    is component 0 of stage 2's state x_2, k20 of its slope k2), and one
    product rw @ [x_1, x_2 + x_3, x_4] of the stage states updates w (see
    `_arrow_steps`).  The stage arithmetic is `_rk4_arrow_batch`'s,
    operation for operation, and so is the bookkeeping: the states of a
    block's steps go to block buffers, which `_store_block` stores and
    checks at the block's end.  A non-finite state ends the run there,
    with its first failing node in fail_t[0].
    """
    f = system.rhs
    xs, ws = _block_buffers(system, ts, x, w)
    x10, x11, x12, x13, x14 = x = x[0].tolist()
    w = w[0]
    for start, tl, g, rw, coefs in _arrow_steps(system, ts):
        g, rw = g[:, 0], rw[:, 0]
        rows = []
        for k, (s1, s2, s4, a1, a2, a4, q2, q3, q4) in enumerate(coefs[..., 0].tolist()):
            t = tl[k]
            h = tl[k + 1] - t
            hh = 0.5 * h
            ((m10, m11, m12, m13, m14), (m20, m21, m22, m23, m24),
             (m40, m41, m42, m43, m44)) = (g[k] @ w).tolist()
            f0, f1, f2, f3, f4 = f(t, x)
            k10 = s1 * f0 + a1 * x10 + m10
            k11 = s1 * f1 + a1 * x11 + m11
            k12 = s1 * f2 + a1 * x12 + m12
            k13 = s1 * f3 + a1 * x13 + m13
            k14 = s1 * f4 + a1 * x14 + m14
            x2 = [x10 + hh * k10, x11 + hh * k11, x12 + hh * k12, x13 + hh * k13,
                  x14 + hh * k14]
            x20, x21, x22, x23, x24 = x2
            f0, f1, f2, f3, f4 = f(t + hh, x2)
            k20 = s2 * f0 + a2 * x20 + (m20 + q2 * x10)
            k21 = s2 * f1 + a2 * x21 + (m21 + q2 * x11)
            k22 = s2 * f2 + a2 * x22 + (m22 + q2 * x12)
            k23 = s2 * f3 + a2 * x23 + (m23 + q2 * x13)
            k24 = s2 * f4 + a2 * x24 + (m24 + q2 * x14)
            x3 = [x10 + hh * k20, x11 + hh * k21, x12 + hh * k22, x13 + hh * k23,
                  x14 + hh * k24]
            x30, x31, x32, x33, x34 = x3
            f0, f1, f2, f3, f4 = f(t + hh, x3)
            k30 = s2 * f0 + a2 * x30 + (m20 + q3 * x20)
            k31 = s2 * f1 + a2 * x31 + (m21 + q3 * x21)
            k32 = s2 * f2 + a2 * x32 + (m22 + q3 * x22)
            k33 = s2 * f3 + a2 * x33 + (m23 + q3 * x23)
            k34 = s2 * f4 + a2 * x34 + (m24 + q3 * x24)
            x4 = [x10 + h * k30, x11 + h * k31, x12 + h * k32, x13 + h * k33, x14 + h * k34]
            x40, x41, x42, x43, x44 = x4
            f0, f1, f2, f3, f4 = f(t + h, x4)
            k40 = s4 * f0 + a4 * x40 + (m40 + q4 * x30)
            k41 = s4 * f1 + a4 * x41 + (m41 + q4 * x31)
            k42 = s4 * f2 + a4 * x42 + (m42 + q4 * x32)
            k43 = s4 * f3 + a4 * x43 + (m43 + q4 * x33)
            k44 = s4 * f4 + a4 * x44 + (m44 + q4 * x34)
            w = np.add(w, rw[k] @ np.array([x, [x20 + x30, x21 + x31, x22 + x32, x23 + x33,
                                                 x24 + x34], x4]), out=ws[k, 0])
            h6 = h / 6.0
            x10 = x10 + h6 * (k10 + 2.0 * k20 + 2.0 * k30 + k40)
            x11 = x11 + h6 * (k11 + 2.0 * k21 + 2.0 * k31 + k41)
            x12 = x12 + h6 * (k12 + 2.0 * k22 + 2.0 * k32 + k42)
            x13 = x13 + h6 * (k13 + 2.0 * k23 + 2.0 * k33 + k43)
            x14 = x14 + h6 * (k14 + 2.0 * k24 + 2.0 * k34 + k44)
            x = [x10, x11, x12, x13, x14]
            rows.append(x)
        xs[:len(rows), 0] = rows
        if _store_block(out, start, tl, xs[:len(rows)], ws[:len(rows)], fail_t):
            return


@np.errstate(over="ignore", invalid="ignore")
def _rk4_arrow_batch(system: AugmentedSystem, ts: np.ndarray, x: np.ndarray, w: np.ndarray,
                     out, fail_t: np.ndarray) -> None:
    """`_rk4_arrow` for a batch of B > 1 configs of one order, on arrays.

    x has shape (B, d) and w (B, N-1, d), and every operation is
    `_rk4_arrow`'s on one row per member, so each member equals its
    single run bit for bit.  A member whose state turns non-finite gets
    the time it failed to reach in fail_t (shape (B,), NaN while the
    member runs) at the end of the block; it steps on as NaN or inf,
    which no other member reads, and the kernel returns after the block
    in which the last member failed.
    """
    f = system.rhs
    xs, ws = _block_buffers(system, ts, x, w)
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
            w = np.add(w, rw[k] @ stages, out=ws[k])
            x = np.add(x, (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4), out=xs[k])
        if _store_block(out, start, tl, xs[:len(coefs)], ws[:len(coefs)], fail_t):
            return


def _block_buffers(system: AugmentedSystem, ts: np.ndarray, x: np.ndarray, w: np.ndarray
                   ) -> tuple[np.ndarray, np.ndarray]:
    """Empty buffers for the states x (B, d) and w (B, N-1, d) at every node of a block.

    A block is as many steps as `_arrow_steps` gives it, or all of ts's
    if fewer; the kernels reuse the buffers for every block.
    """
    steps = min(_block_steps(system), len(ts) - 1)
    return np.empty((steps,) + x.shape), np.empty((steps,) + w.shape)


def _store_block(out, start: int, tl: list, xs: np.ndarray, ws: np.ndarray,
                 fail_t: np.ndarray) -> bool:
    """Store a block's states and mark the members that failed in it.

    xs (steps, B, d) and ws (steps, B, N-1, d) are the states at the
    block's nodes tl[1:], which go to rows start + 1 ... of out.  A
    member still running (NaN in fail_t) with a non-finite state in the
    block gets the node of its first such step: every earlier block was
    finite for it, so that is the first node it failed to reach.  Returns
    whether every member has failed.
    """
    out[start + 1] = (xs, ws)
    finite = np.isfinite(xs).all(axis=-1) & np.isfinite(ws).all(axis=(-2, -1))
    if finite.all():
        return False
    failed = np.isnan(fail_t) & ~finite.all(axis=0)
    fail_t[failed] = np.take(tl[1:], finite.argmin(axis=0)[failed])
    return not np.isnan(fail_t).any()


class _Columns:
    """Block writer from arrow states (x, w) into the column layout.

    values has shape (nodes, B, width), its columns the five physical
    states and, if width > 5, the moments state-major (`aux_column_names`);
    self[i] = (x, w) writes the states of consecutive steps, x of shape
    (steps, B, 5) and w of shape (steps, B, N-1, 5), from row i - ramp on,
    and drops those of the start-up sub-steps before node 1 (rows <= 0).
    """

    def __init__(self, values: np.ndarray, ramp: int):
        self.ramp = ramp
        self.physical = values[..., :5]
        # Splitting the last axis of a column slice is a view, so writes land in values.
        self.moments = (values[..., 5:].reshape(values.shape[:-1] + (5, -1))
                        if values.shape[-1] > 5 else None)

    def __setitem__(self, i: int, states: tuple) -> None:
        x, w = states
        first = i - self.ramp
        skip = min(len(x), max(0, 1 - first))
        rows = slice(first + skip, first + len(x))
        self.physical[rows] = x[skip:]
        if self.moments is not None:
            self.moments[rows] = w[skip:].swapaxes(-1, -2)


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
    expansion = sum(21 * c.order_n + 26 * (c.order_n - 1) for c in fractional)  # see MAX_ENTRIES
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
