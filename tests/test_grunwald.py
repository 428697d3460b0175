import dataclasses
import math
import tracemalloc
import warnings

import numpy as np
import pytest

from fracepi.dengue import StateVector, classical_rhs
from fracepi.expansion import ExpansionConfig, approx_rl_derivative_on_grid
from fracepi.grunwald import (_BLOCK, _CHUNK, _gl_far, gl_derivative_on_grid, gl_simulate,
                              gl_weights, power_rule_exact)
from fracepi.integrate import BlowUpError, TimeGrid, simulate_batch, simulate_fractional


def _direct_weight(alpha, j):
    # (-1)^j binomial(alpha, j) as an explicit product, independent of the
    # recurrence under test.
    value = 1.0
    for i in range(1, j + 1):
        value *= (alpha - i + 1) / i
    return (-1) ** j * value


def _direct_partial_sum(alpha, n):
    # sum_{j=0}^{n} w_j = (-1)^n binomial(alpha - 1, n), again as a product.
    value = 1.0
    for i in range(1, n + 1):
        value *= (alpha - 1.0 - i + 1) / i
    return (-1) ** n * value


def _direct_gl_simulate(params, y0, alpha, grid):
    # The stepper with the whole history summed directly at every node: the
    # O(n^2) reference for the blocked FFT history.
    n = int(round((grid.t_end - grid.t_start) / grid.step))
    ts = np.linspace(grid.t_start, grid.t_end, n + 1)
    h_alpha = ((grid.t_end - grid.t_start) / n) ** alpha
    w = gl_weights(alpha, n)
    buf = np.zeros((n + 1, 5))          # reverse time order
    buf[n] = y0.as_array()
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(1, n + 1):
            history = w[1:k + 1] @ buf[n - k + 1:n + 1]
            y = h_alpha * classical_rhs(ts[k - 1], buf[n - k + 1], params) - history
            if not np.all(np.isfinite(y)):
                raise BlowUpError(time=float(ts[k]), step_index=k)
            buf[n - k] = y
    return buf[::-1]


class TestGlWeights:
    def test_first_weights_exact(self):
        w = gl_weights(0.5, 3)
        assert w[0] == 1.0
        assert w[1] == -0.5
        assert w[2] == -0.125  # -0.5 * (1 - 1.5/2), by hand

    @pytest.mark.parametrize("alpha", [0.3, 0.5, 0.9, 1.0])
    def test_matches_direct_binomial_product(self, alpha):
        w = gl_weights(alpha, 40)
        for j in range(41):
            assert w[j] == pytest.approx(_direct_weight(alpha, j), rel=1e-13, abs=1e-300)

    @pytest.mark.parametrize("alpha", [0.3, 0.5, 0.95, 0.999, 1.0])
    def test_equals_sequential_recurrence_bitwise(self, alpha):
        w = np.empty(2001)
        w[0] = 1.0
        for j in range(1, 2001):
            w[j] = w[j - 1] * (1.0 - (alpha + 1.0) / j)
        assert np.array_equal(gl_weights(alpha, 2000), w)

    @pytest.mark.parametrize("alpha", [0.1, 0.5, 0.9])
    def test_signs_and_partial_sums(self, alpha):
        w = gl_weights(alpha, 1000)
        assert np.all(w[1:] < 0)
        partial = np.cumsum(w)
        assert np.all(partial > 0)
        assert np.all(partial < 1.0 + 1e-15)
        assert np.all(np.diff(partial) < 0)
        for n in (1, 10, 100, 1000):
            assert partial[n] == pytest.approx(_direct_partial_sum(alpha, n), rel=1e-12)

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            gl_weights(0.0, 5)
        with pytest.raises(ValueError):
            gl_weights(1.5, 5)
        with pytest.raises(ValueError):
            gl_weights(0.5, -1)


def _unit_grid(num):
    # num nodes on [0, 1]: the nodes of np.linspace(0, 1, num), bit for bit.
    return TimeGrid(0.0, 1.0, 1.0 / (num - 1))


class TestGlDerivativeAt:
    @pytest.mark.parametrize("alpha,k", [(0.3, 0), (0.3, 1), (0.3, 2),
                                         (0.5, 0), (0.5, 1), (0.5, 2),
                                         (0.9, 0), (0.9, 1), (0.9, 2)])
    def test_matches_power_rule(self, alpha, k):
        grid = _unit_grid(10001)
        approx = gl_derivative_on_grid(grid, grid.nodes() ** k, alpha)[-1]
        exact = power_rule_exact(alpha, k, 1.0)
        assert approx == pytest.approx(exact, rel=1e-3)

    def test_near_classical_order_approaches_derivative(self):
        # D^alpha t^2 at t = 1 tends to 2 t = 2 as alpha -> 1.
        grid = _unit_grid(10001)
        approx = gl_derivative_on_grid(grid, grid.nodes() ** 2, 0.999)[-1]
        assert approx == pytest.approx(2.0, rel=1e-2)

    @pytest.mark.parametrize("k", [0, 1, 2])
    def test_first_order_convergence(self, k):
        alpha = 0.5
        exact = power_rule_exact(alpha, k, 1.0)
        errors = []
        for num in (2501, 5001, 10001):
            grid = _unit_grid(num)
            errors.append(abs(gl_derivative_on_grid(grid, grid.nodes() ** k, alpha)[-1] - exact))
        for coarse, fine in zip(errors, errors[1:]):
            assert 1.8 <= coarse / fine <= 2.2

    def test_linearity(self):
        grid = _unit_grid(801)
        ts = grid.nodes()
        u = np.cos(2.0 * ts)
        v = ts ** 3 + 1.0
        lhs = gl_derivative_on_grid(grid, 4.0 * u - 1.5 * v, 0.7)[-1]
        rhs = (4.0 * gl_derivative_on_grid(grid, u, 0.7)[-1]
               - 1.5 * gl_derivative_on_grid(grid, v, 0.7)[-1])
        assert lhs == pytest.approx(rhs, rel=1e-12)


class TestGlDerivativeOnGrid:
    @pytest.mark.parametrize("alpha", [0.3, 0.9])
    def test_matches_direct_sums(self, alpha):
        # Five history chunks and a partial one: the far field of the later
        # blocks adds up chunk spectra kept from earlier blocks.
        num = 5 * _CHUNK + 7
        grid = TimeGrid(0.0, 2.0, 2.0 / (num - 1))
        ts, h = grid.uniform_nodes()
        values = np.exp(ts)
        w = gl_weights(alpha, num - 1)
        direct = np.array([w[:k + 1] @ values[k::-1] for k in range(1, num)])
        expected = h ** (-alpha) * direct
        got = gl_derivative_on_grid(grid, values, alpha)
        np.testing.assert_allclose(got, expected, rtol=1e-11)
        # The first block has no older nodes: its entries are the direct sums.
        assert np.array_equal(got[:_BLOCK], expected[:_BLOCK])

    @pytest.mark.parametrize("alpha", [0.3, 0.9])
    def test_scales_by_the_grid_step(self, alpha):
        # Nodes 0, 0.1, 0.2, 0.3, and the one step h = 0.3 / 3 of
        # `gl_simulate`, which is not 0.1 - 0 in floating point.
        grid = TimeGrid(0.0, 0.3, 0.1)
        values = np.exp(grid.nodes())
        w = gl_weights(alpha, 3)
        direct = np.array([w[:k + 1] @ values[k::-1] for k in range(1, 4)])
        got = gl_derivative_on_grid(grid, values, alpha)
        assert np.array_equal(got, (0.3 / 3) ** (-alpha) * direct)


class TestGlFar:
    # Two full history chunks and a partial one, so kept spectra are read too.
    N = 2 * _CHUNK + _BLOCK + 37

    @pytest.mark.parametrize("shape", [(), (5,)])
    def test_blocks_cover_every_node_once(self, rng, shape):
        y_rev = rng.uniform(-1.0, 1.0, (self.N + 1,) + shape)
        blocks = list(_gl_far(gl_weights(0.7, self.N), y_rev))
        assert [s for s, _ in blocks] == list(range(0, self.N, _BLOCK))
        assert all(far.shape[1:] == shape for _, far in blocks)
        assert sum(len(far) for _, far in blocks) == self.N

    @pytest.mark.parametrize("alpha", [0.3, 0.9, 1.0])
    def test_first_block_far_field_is_zero(self, rng, alpha):
        y_rev = rng.uniform(-1.0, 1.0, (self.N + 1, 5))
        s, far = next(_gl_far(gl_weights(alpha, self.N), y_rev))
        assert s == 0
        assert far.shape == (_BLOCK, 5)
        assert np.all(far == 0.0)

    def test_classical_order_far_field_is_zero(self, rng):
        # At alpha = 1 the weights past lag 1 are exactly 0, and the older
        # nodes never meet lags 0 and 1.
        y_rev = rng.uniform(-1e5, 1e5, (self.N + 1, 5))
        for _, far in _gl_far(gl_weights(1.0, self.N), y_rev):
            assert np.all(far == 0.0)


class TestPowerRuleExact:
    def test_known_values(self):
        sqrt_pi = math.sqrt(math.pi)
        assert power_rule_exact(0.5, 1, 1.0) == pytest.approx(2.0 / sqrt_pi, rel=1e-12)
        assert power_rule_exact(0.5, 0, 1.0) == pytest.approx(1.0 / sqrt_pi, rel=1e-12)
        # Gamma(3)/Gamma(2.5) = 2 / (1.5 * 0.5 * sqrt(pi))
        assert power_rule_exact(0.5, 2, 1.0) == pytest.approx(
            2.0 / (0.75 * sqrt_pi), rel=1e-12)

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            power_rule_exact(0.5, -1, 1.0)
        with pytest.raises(ValueError):
            power_rule_exact(0.5, 1, 0.0)
        with pytest.raises(ValueError):
            power_rule_exact(1.0, 1, 1.0)


class TestGlSimulate:
    def test_classical_order_is_explicit_euler_bitwise(self, scenario):
        # More than three history blocks, so the FFT far field runs too.
        params, y0 = scenario
        grid = TimeGrid(0.0, 160.0, 0.05)
        assert 160.0 / 0.05 > 3 * _BLOCK
        series = gl_simulate(params, y0, 1.0, grid)
        ts = series.times
        h = (grid.t_end - grid.t_start) / (len(ts) - 1)
        y = y0.as_array().copy()
        expected = [y.copy()]
        for i in range(len(ts) - 1):
            y = h ** 1.0 * classical_rhs(ts[i], y, params) - (-1.0) * y
            expected.append(y.copy())
        assert np.array_equal(series.values, np.array(expected))

    # The last run passes eight history chunks (12 800 steps), so most of each
    # far field comes from spectra kept since their chunks were completed.
    @pytest.mark.parametrize("steps", [_BLOCK - 1, _BLOCK, _BLOCK + 1, 3 * _BLOCK + 5,
                                       8 * _CHUNK + _BLOCK])
    @pytest.mark.parametrize("alpha", [0.5, 0.9, 0.97])
    def test_blocked_history_matches_direct_sum(self, scenario, alpha, steps):
        params, y0 = scenario
        grid = TimeGrid(0.0, steps * 0.01, 0.01)
        series = gl_simulate(params, y0, alpha, grid)
        np.testing.assert_allclose(series.values,
                                   _direct_gl_simulate(params, y0, alpha, grid), rtol=1e-11)

    @pytest.mark.parametrize("alpha", [0.5, 0.9, 0.97, 1.0])
    def test_steps_satisfy_their_difference_equation(self, scenario, alpha):
        # The stepper and the grid derivative share one history loop: the
        # backward difference of the stepped trajectory must give back the
        # vector field at the previous node, past three blocks.
        params, y0 = scenario
        grid = TimeGrid(0.0, 16.0, 0.01)
        series = gl_simulate(params, y0, alpha, grid)
        assert len(series.times) - 1 > 3 * _BLOCK
        field = np.array([classical_rhs(t, y, params)
                          for t, y in zip(series.times[:-1], series.values[:-1])])
        populations = [params.n_h] * 3 + [params.n_m] * 2
        for c, population in enumerate(populations):
            np.testing.assert_allclose(gl_derivative_on_grid(grid, series.values[:, c], alpha),
                                       field[:, c],
                                       rtol=0.0, atol=1e-11 * population)

    def test_single_interior_peak_confirmed_by_halving(self, scenario):
        params, y0 = scenario
        peaks = {}
        for h in (0.02, 0.01):
            series = gl_simulate(params, y0, 0.95, TimeGrid(0.0, 100.0, h))
            i_h = series.column("I_h")
            peak_index = int(np.argmax(i_h))
            assert 0 < peak_index < len(i_h) - 1
            curvature = np.diff(np.sign(np.diff(i_h)))
            assert np.sum(curvature < 0) == 1
            peaks[h] = series.times[peak_index]
        assert abs(peaks[0.02] - peaks[0.01]) < 2.0

    def test_peak_delay_direction_agrees_with_expansion(self, scenario):
        # Lower order -> later peak, in both solvers.
        params, y0 = scenario
        grid = TimeGrid(0.0, 100.0, 0.01)
        gl_peak_times = []
        exp_peak_times = []
        for alpha in (1.0, 0.99, 0.95):
            gl_series = gl_simulate(params, y0, alpha, grid)
            gl_peak_times.append(gl_series.times[np.argmax(gl_series.column("I_h"))])
            exp_series = simulate_fractional(params, y0,
                                             ExpansionConfig(alpha=alpha, order_n=7),
                                             grid)
            exp_peak_times.append(exp_series.times[np.argmax(exp_series.column("I_h"))])
        assert gl_peak_times[0] < gl_peak_times[1] < gl_peak_times[2]
        assert exp_peak_times[0] < exp_peak_times[1] < exp_peak_times[2]

    def test_nodes_are_the_grid_nodes(self, scenario):
        # The oracle steps the nodes the expansion reports, bit for bit.
        params, y0 = scenario
        grid = TimeGrid(0.0, 7.3, 0.1)
        assert np.array_equal(gl_simulate(params, y0, 0.9, grid).times, grid.nodes())
        grid = TimeGrid(0.0, 0.3, 0.1)
        expansion = simulate_fractional(params, y0, ExpansionConfig(0.9, 7), grid)
        assert np.array_equal(gl_simulate(params, y0, 0.9, grid).times, expansion.times)

    def test_rejects_non_commensurate_grid(self):
        # The second grid would end in a 5e-9 d step past 10 d, more than
        # 1e-9 of a step: neither grid can be built for the oracle.
        for t_end, step in ((1.0, 0.3), (10.0 + 5e-9, 0.01)):
            with pytest.raises(ValueError, match="commensurate"):
                TimeGrid(0.0, t_end, step)

    def test_rejects_bad_alpha(self, scenario):
        params, y0 = scenario
        with pytest.raises(ValueError, match="alpha"):
            gl_simulate(params, y0, 1.2, TimeGrid(0.0, 1.0, 0.1))

    def test_blow_up_detection(self, scenario):
        # Explicit stepping cannot survive a 10-day step at these rates.
        params, y0 = scenario
        with pytest.raises(BlowUpError) as exc_info:
            gl_simulate(params, y0, 0.9, TimeGrid(0.0, 1000.0, 10.0))
        assert 0.0 < exc_info.value.time <= 1000.0

    def test_undershoot_is_reported(self, scenario):
        # Above explicit stability (eta_h = 20 at h = 0.0716) the stepper dips
        # to I_h ~ -209 and returns; it must say so, once, without clamping.
        params, y0 = scenario
        stiff = dataclasses.replace(params, eta_h=20.0)
        with pytest.warns(RuntimeWarning, match=r"undershoot: I_h = -20\d\.\d+ at t = ") as record:
            series = gl_simulate(stiff, y0, 0.9, TimeGrid(0.0, 5000 * 0.0716, 0.0716))
        assert len(record) == 1
        assert series.column("I_h").min() < -200.0

    def test_stable_run_does_not_warn(self, scenario):
        params, y0 = scenario
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            series = gl_simulate(params, y0, 0.95, TimeGrid(0.0, 100.0, 0.01))
        assert series.values.min() == 0.0

    def test_blow_up_past_first_blocks_matches_direct_sum(self, scenario):
        # A fast recovery rate makes the step explicitly unstable, and a seed
        # of 1e-100 infections delays the overflow past three blocks.
        params, _ = scenario
        stiff = dataclasses.replace(params, eta_h=20.0)
        y0 = StateVector(params.n_h - 1e-100, 1e-100, 0.0, params.n_m, 0.0)
        grid = TimeGrid(0.0, 375.0, 0.075)
        with pytest.raises(BlowUpError) as direct:
            _direct_gl_simulate(stiff, y0, 0.9, grid)
        with pytest.raises(BlowUpError) as blocked:
            gl_simulate(stiff, y0, 0.9, grid)
        assert direct.value.step_index > 3 * _BLOCK
        assert blocked.value.step_index == direct.value.step_index
        assert blocked.value.time == direct.value.time


class TestOneGridRule:
    """`TimeGrid` holds the one grid rule, so both solvers and both derivative
    evaluators accept the same grids: every grid that can be built, and no
    other."""

    @pytest.mark.parametrize("t_start, t_end, step, refusal", [
        (0.0, 2.0, 0.25, None),
        (0.0, 1.0, 0.1, None),                   # 1 / 0.1 is 10 to within rounding
        (0.0, 10.0 + 5e-12, 0.01, None),         # 5e-10 of a step past 1 000 steps
        (0.0, 1.0, 0.3, "commensurate"),
        (0.0, 10.0 + 5e-9, 0.01, "commensurate"),
        (0.5, 2.0, 0.01, "lower terminal"),
        (1e-12, 1.0, 0.01, "lower terminal"),
    ])
    def test_solvers_and_evaluators_accept_the_same_grids(self, scenario, t_start, t_end,
                                                          step, refusal):
        params, y0 = scenario
        if refusal:
            with pytest.raises(ValueError, match=refusal):
                TimeGrid(t_start, t_end, step)
            return
        grid = TimeGrid(t_start, t_end, step)
        nodes = grid.nodes()
        assert nodes[-1] == t_end
        cfg = ExpansionConfig(0.95, 7)
        assert np.array_equal(simulate_fractional(params, y0, cfg, grid).times, nodes)
        assert np.array_equal(simulate_batch(params, y0, [cfg], grid)[0].times, nodes)
        assert np.array_equal(gl_simulate(params, y0, 0.95, grid).times, nodes)
        assert len(approx_rl_derivative_on_grid(grid, nodes, cfg)) == len(nodes) - 1
        assert len(gl_derivative_on_grid(grid, nodes, 0.95)) == len(nodes) - 1


class TestPinnedGlTrajectories:
    """The GL stepper held to pinned numbers, as `TestPinnedTrajectories` holds
    the expansion: the built-in outbreak over 200 d at 0.01 (20 001 nodes),
    the I_h peak, its time and the last row (t and the five compartments)."""

    @pytest.mark.parametrize("alpha, peak_i_h, peak_t, final", [
        (0.95, 3359.0195430478457, 44.57, [
            200.0, 2781.490586210314, 4.3961991436552585, 30431.212494807536,
            167301.65862948724, 81.32052770472613,
        ]),
        (0.97, 5096.323294741821, 35.63, [
            200.0, 2010.82117819256, 1.5189492865975303, 38941.11088034016,
            167643.05009523046, 32.32339107116999,
        ]),
    ])
    def test_peak_and_final_row(self, scenario, alpha, peak_i_h, peak_t, final):
        params, y0 = scenario
        series = gl_simulate(params, y0, alpha, TimeGrid(0.0, 200.0, 0.01))
        k = int(np.argmax(series.column("I_h")))
        assert series.values[k, 1] == pytest.approx(peak_i_h, rel=1e-12, abs=0.0)
        assert series.times[k] == pytest.approx(peak_t, rel=1e-12, abs=0.0)
        np.testing.assert_allclose([series.times[-1], *series.values[-1]], final,
                                   rtol=1e-12, atol=0.0)


class TestGlMemory:
    """What the stepper holds grows with the nodes only by the history, its
    kept chunk spectra, the grid and the weights."""

    # Measured peak of the run below: 9.2 MB, that is 115 B per node: the
    # history (40 B), its chunk spectra (53 B), the grid and the weights (8 B
    # each) and the derived arrays.  The bound adds about 25 %, so a cache of
    # the weight-window spectra (about 2.6 MB here) or the grid as a list of
    # floats (about 2.6 MB) would break it.
    PEAK_BYTES = 11_500_000

    def test_peak_of_80001_node_run(self, scenario):
        params, y0 = scenario
        grid = TimeGrid(0.0, 200.0, 0.0025)
        gl_simulate(params, y0, 0.95, TimeGrid(0.0, 1.0, 0.01))  # imports, caches
        tracemalloc.start()
        try:
            series = gl_simulate(params, y0, 0.95, grid)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(series.times) == 80_001
        assert peak < self.PEAK_BYTES
