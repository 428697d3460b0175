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
1, -1, 0, 0, ...).  Both it and `gl_derivative_on_grid` keep the full
history but sum it in blocks of `_BLOCK` nodes (Hairer, Lubich &
Schlichte, SIAM J. Sci. Stat. Comput. 6, 1985).  One loop, `_gl_far`,
runs once per block: one pass of fixed-size FFT convolutions adds up the
contribution of every older node to every node of the block, the far
field.  Each consumer adds the near field itself, a direct dot product
over the block's own nodes, so the per-node cost is a short dot product,
not a sum over the whole history.  Each completed chunk of history is
transformed once and its spectrum kept for every later block: about 1.3
times the memory of the history itself (53 bytes per node for the five
compartments).  The loop reads its values in reverse time order, so the
stepper keeps its state that way.
"""

from __future__ import annotations

import math
from typing import Iterator

import numpy as np

from .dengue import ModelParams, StateVector, check_population_balance, classical_rhs
from .expansion import _grid_samples, gamma
from .integrate import BlowUpError, DENGUE_COLUMNS, TimeGrid, TimeSeries, _warn_undershoot

__all__ = [
    "gl_weights",
    "gl_derivative_on_grid",
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


# Nodes per block, history nodes per transform, and the one transform length:
# _FFT_LEN >= _CHUNK + _BLOCK - 1, so no output of a block wraps around the
# circular convolution.
_BLOCK = 512
_CHUNK = 3 * _BLOCK
_FFT_LEN = 4 * _BLOCK


def _gl_far(w: np.ndarray, y_rev: np.ndarray) -> Iterator[tuple[int, np.ndarray]]:
    """Yield (s, far) for each block of `_BLOCK` nodes s + 1 ... s + count.

    y_rev holds y_n, ..., y_0 (reverse time order) along its first axis,
    as scalars or as rows.  far[j] is the part of the history sum
    sum_{i=0}^{k} w_i y_{k-i} for node k = s + 1 + j that comes from the
    nodes before the block, y_0 ... y_s; the consumer adds the near field,
    the block's own nodes, as the direct dot product
    w[:j + 2] @ y_rev[n - k:n - s + 1] (increasing i).

    The far field is an overlap-save convolution at the one transform
    length `_FFT_LEN`: the nodes before the block, cut into chunks of
    `_CHUNK` rows, each meet the window of weights that reaches the block
    from them, and the products add up in the frequency domain in chunk
    order.  A chunk is transformed (one transform per column) once, when
    it is complete, and its spectrum kept for every later block, so each
    block transforms only its partial newest chunk and its weight windows.
    The kept spectra take _FFT_LEN // 2 + 1 complex values per `_CHUNK`
    rows, about 1.3 times the history.  The nodes before a block only
    ever meet lags i >= 2, so the windows leave lags 0 and 1 at zero; the
    first block's far field is exactly 0, and so is every block's at
    alpha = 1, where every later weight is exactly 0.

    A block's far field reads y_0 ... y_s only when it is asked for, so a
    caller may fill y_rev while it iterates.
    """
    fft = np.fft
    n = len(y_rev) - 1
    older = y_rev.reshape(n + 1, -1)[::-1]      # y_0, ..., y_n, one row each
    x = np.zeros((older.shape[1], _FFT_LEN))
    u = np.empty(_FFT_LEN)
    spectra = []                                # of the completed chunks of older
    for s in range(0, n, _BLOCK):
        count = min(_BLOCK, n - s)
        acc = np.zeros((older.shape[1], _FFT_LEN // 2 + 1), dtype=complex)
        for c, i0 in enumerate(range(0, s, _CHUNK)):
            if c < len(spectra):
                chunk = spectra[c]
            else:
                i1 = min(i0 + _CHUNK, s)
                x[:, :i1 - i0] = older[i0:i1].T
                x[:, i1 - i0:_CHUNK] = 0.0
                chunk = fft.rfft(x)
                if i1 - i0 == _CHUNK:
                    spectra.append(chunk)
            # u[q] = w[lo + q] puts output s + 1 + r at index r + _CHUNK - 1.
            lo = s + 1 - i0 - (_CHUNK - 1)
            q0 = max(0, 2 - lo)                 # lags 0 and 1 stay zero
            q1 = min(_CHUNK + count - 1, len(w) - lo)
            u.fill(0.0)
            u[q0:q1] = w[lo + q0:lo + q1]
            acc += chunk * fft.rfft(u)
        far = fft.irfft(acc, _FFT_LEN)[:, _CHUNK - 1:_CHUNK - 1 + count].T
        yield s, far.reshape((count,) + y_rev.shape[1:])


def gl_derivative_on_grid(grid: TimeGrid, values: np.ndarray, alpha: float) -> np.ndarray:
    """Backward-difference values of the fractional derivative at every node of grid but t = 0.

    values holds one finite sample of x per node of `grid.nodes()`.  Entry
    k - 1 is h^(-alpha) sum_{j=0}^{k} w_j x(t_{k-j}), with the step h of
    `TimeGrid.uniform_nodes`, and belongs to node k.  Each sum is the far
    field of `_gl_far` plus the block's own nodes as a direct dot product,
    so the first `_BLOCK` entries, whose far field is exactly 0, carry the
    bits of a direct sum, and later ones equal it to about 1e-12 relative.
    Converges with first order in the grid step for the smooth functions
    used here.
    """
    _, h, values = _grid_samples(grid, values)
    n = len(values) - 1
    w = gl_weights(alpha, n)
    y_rev = values[::-1]
    sums = np.empty(n)
    for s, far in _gl_far(w, y_rev):
        for j, far_k in enumerate(far):
            k = s + 1 + j
            # `@`, not np.dot: on this reversed view np.dot rounds differently.
            sums[k - 1] = far_k + w[:j + 2] @ y_rev[n - k:n - s + 1]
    return h ** (-alpha) * sums


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
    stability (h <= 0.01 day at the default scenario's rates).  The nodes
    and the one step h the weights assume are `grid.uniform_nodes()`.

    Each block's far field comes from `_gl_far`, the loop that also serves
    `gl_derivative_on_grid`, as one list of rows; each node adds its near
    field, a dot product over the block's own nodes, and steps on Python
    floats.  The state is kept in reverse time order in a zero-filled
    buffer, so y_n is still 0 when its own sum is formed and the w_0 term
    adds nothing; the result is that buffer read backwards.  The order of
    every operation is fixed, so repeated runs are bit-for-bit
    reproducible.  The results equal the direct sum over the whole history
    to about 1e-12 relative; at alpha = 1 they are exactly explicit Euler,
    because the older nodes only meet the weights w_j with j >= 2, which
    are then exactly 0.  Finiteness is checked at the end of each block,
    before the next block's far field reads it.

    A compartment below zero by more than the tolerance of
    `integrate.simulate_fractional` (a step above explicit stability) is
    reported by the same RuntimeWarning, naming the compartment and the
    time, and never clamped.
    """
    check_population_balance(params, y0)
    ts, h = grid.uniform_nodes()
    n = len(ts) - 1
    w = gl_weights(alpha, n)
    h_alpha = h ** alpha

    y_rev = np.zeros((n + 1, 5))            # y_n, ..., y_0
    y_rev[n] = y = y0.as_array().tolist()
    with np.errstate(over="ignore", invalid="ignore"):
        for s, far in _gl_far(w, y_rev):
            count = len(far)
            for j, (t, far_k) in enumerate(zip(ts[s:s + count].tolist(), far.tolist())):
                k = s + 1 + j
                near = np.dot(w[:j + 2], y_rev[n - k:n - s + 1]).tolist()
                # On Python floats: the same IEEE operations as on the rows,
                # without numpy's per-call cost on five values.
                y = [h_alpha * fc - (ac + bc)
                     for fc, ac, bc in zip(classical_rhs(t, y, params), far_k, near)]
                y_rev[n - k] = y
            # A non-finite node only spoils the nodes after it.  Row i of the
            # block is node s + count - i, and the rows before it are finite.
            finite = np.isfinite(y_rev[n - s - count:n - s]).all(axis=1)
            if not finite.all():
                i = s + count - int(np.flatnonzero(~finite)[-1])
                raise BlowUpError(time=float(ts[i]), step_index=i)
    series = TimeSeries(times=ts, values=y_rev[::-1], columns=DENGUE_COLUMNS)
    _warn_undershoot(series, params)
    return series
