import dataclasses
import math
import re
import tracemalloc

import numpy as np
import pytest

from fracepi import integrate
from fracepi.dengue import classical_rhs, population_drift
from fracepi.expansion import ExpansionConfig, expand_system
from fracepi.integrate import (MAX_NODES, BlowUpError, TimeGrid, TimeSeries, _Columns, _rk4,
                               _rk4_arrow, aux_column_names, simulate_batch,
                               simulate_classical, simulate_fractional)


def _rk4_values(f, y0, grid):
    """The RK4 kernel's trajectory of y' = f(t, y) from y0 over the grid's nodes.

    f takes and returns arrays; the kernel steps Python floats, so it sees
    f through a list-to-list wrapper.  Raises the BlowUpError of the time
    the kernel records as failed.
    """
    ts = grid.nodes()
    values = np.empty((len(ts), len(y0)))
    values[0] = y0
    fail_t = np.full(1, np.nan)
    _rk4(lambda t, y: f(t, np.array(y)).tolist(), ts, y0.tolist(), values, fail_t)
    if not np.isnan(fail_t[0]):
        t = float(fail_t[0])
        raise BlowUpError(time=t, step_index=int(np.searchsorted(ts, t)))
    return values


class TestTimeGrid:
    def test_nodes_land_exactly_on_t_end(self):
        grid = TimeGrid(t_start=0.0, t_end=100.0, step=0.01)
        nodes = grid.nodes()
        assert nodes[0] == 0.0
        assert nodes[-1] == 100.0
        assert len(nodes) == 10001

    def test_last_step_shortened(self):
        # Nodes 0, 0.3, 0.6, 0.9, 1 would end in a shortened step: refused.
        with pytest.raises(ValueError, match="commensurate") as info:
            TimeGrid(t_start=0.0, t_end=1.0, step=0.3)
        assert "steps of 0.3 and 0.1" in str(info.value)

    @pytest.mark.parametrize("kwargs", [
        dict(t_start=0.0, t_end=0.0, step=0.1),
        dict(t_start=1.0, t_end=0.5, step=0.1),
        dict(t_start=0.0, t_end=1.0, step=-0.1),
        dict(t_start=0.0, t_end=0.1, step=0.09),
        dict(t_start=0.0, t_end=1e308, step=0.01),
        dict(t_start=0.0, t_end=1e11, step=0.01),
    ])
    def test_invalid_grids_rejected(self, kwargs):
        with pytest.raises(ValueError):
            TimeGrid(**kwargs)

    def test_node_limit_is_checked_before_allocation(self):
        # Construction only: nodes() would allocate the array.
        TimeGrid(t_start=0.0, t_end=MAX_NODES - 1.0, step=1.0)
        with pytest.raises(ValueError, match="exceeds"):
            TimeGrid(t_start=0.0, t_end=float(MAX_NODES), step=1.0)


class TestTimeSeries:
    def test_column_lookup(self):
        series = TimeSeries(times=[0.0, 1.0], values=[[1.0, 2.0], [3.0, 4.0]],
                            columns=("a", "b"))
        assert np.array_equal(series.column("b"), [2.0, 4.0])

    def test_nearest_index(self):
        series = TimeSeries(times=np.linspace(0.0, 10.0, 101),
                            values=np.zeros((101, 1)), columns=("a",))
        assert series.nearest_index(0.0) == 0
        assert series.nearest_index(5.04) == 50
        assert series.nearest_index(5.06) == 51
        assert series.nearest_index(10.0) == 100
        with pytest.raises(ValueError, match="span"):
            series.nearest_index(10.5)

    def test_nearest_index_past_the_last_node_within_tolerance(self):
        series = TimeSeries(times=np.linspace(0.0, 10.0, 101),
                            values=np.zeros((101, 1)), columns=("a",))
        assert series.nearest_index(10.0 + 1e-9) == 100

    def test_nearest_index_refuses_nan(self):
        # Every comparison with NaN is false, so a search would land on a node.
        series = TimeSeries(times=np.linspace(0.0, 10.0, 101),
                            values=np.zeros((101, 1)), columns=("a",))
        with pytest.raises(ValueError, match="t = nan is outside the simulated span"):
            series.nearest_index(math.nan)

    def test_missing_column_is_named(self):
        series = TimeSeries(times=[0.0, 1.0], values=[[1.0, 2.0], [3.0, 4.0]],
                            columns=("a", "b"))
        with pytest.raises(ValueError, match=r"no column 'cases' .*\('a', 'b'\)"):
            series.column("cases")

    @pytest.mark.parametrize("times, width, columns, match", [
        ([0.0, 1.0, 2.0], 1, ("a",), "num_nodes"),
        ([0.0, 1.0], 2, ("a",), "column names"),
    ])
    def test_rejects_mismatched_shapes(self, times, width, columns, match):
        with pytest.raises(ValueError, match=match):
            TimeSeries(times=times, values=np.zeros((2, width)), columns=columns)


class TestIntegrateRk4:
    def test_exponential_decay(self):
        values = _rk4_values(lambda t, y: -y, np.array([1.0]), TimeGrid(0.0, 1.0, 0.1))
        assert values[-1, 0] == pytest.approx(math.exp(-1.0), abs=1e-6)

    def test_zero_field_is_constant(self):
        values = _rk4_values(lambda t, y: np.zeros(3), np.array([1.0, -2.0, 5.0]),
                             TimeGrid(0.0, 5.0, 0.5))
        assert np.all(values == values[0])

    def test_quadrature_of_t_squared_is_exact(self):
        # RK4's increment reduces to Simpson's rule here, exact for cubics.
        values = _rk4_values(lambda t, y: np.array([t * t]), np.array([0.0]),
                             TimeGrid(0.0, 1.0, 0.1))
        assert values[-1, 0] == pytest.approx(1.0 / 3.0, abs=1e-12)

    def test_blow_up_carries_time(self):
        # y' = y^2 from y(0) = 2 leaves the finite range near t = 0.5.
        with pytest.raises(BlowUpError) as exc_info:
            _rk4_values(lambda t, y: y * y, np.array([2.0]), TimeGrid(0.0, 1.0, 0.01))
        assert 0.0 < exc_info.value.time <= 1.0


class TestArrowKernel:
    @pytest.mark.parametrize("alpha, order_n", [(0.9, 5), (0.6, 12)])
    def test_matches_textbook_rk4_on_the_flat_system(self, scenario, alpha, order_n):
        # The kernel folds the moments into one product per step and one
        # scalar per stage; textbook RK4 on the flat augmented right-hand
        # side, from moments of a constant trajectory, must agree to roundoff.
        # Both run a batch of one config, the kernel's input.
        params, y0 = scenario
        system = expand_system(lambda t, y: classical_rhs(t, y, params),
                               [ExpansionConfig(alpha, order_n)])
        ts = np.array([0.5, 0.6, 0.75, 0.8, 1.3])
        x = y0.as_array()[None]
        v = -x[..., None] * ts[0] ** np.arange(1.0, order_n)
        y = np.concatenate([x, v.reshape(1, -1)], axis=-1)
        for t, h in zip(ts[:-1], np.diff(ts)):
            k1 = system(t, y)
            k2 = system(t + 0.5 * h, y + 0.5 * h * k1)
            k3 = system(t + 0.5 * h, y + 0.5 * h * k2)
            k4 = system(t + h, y + h * k3)
            y = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        values = np.empty((len(ts),) + y.shape)
        fail_t = np.full(1, np.nan)
        _rk4_arrow(system, ts, x, np.ascontiguousarray(v.swapaxes(-1, -2)), _Columns(values, 0),
                   fail_t)
        assert np.isnan(fail_t)
        np.testing.assert_allclose(values[-1], y, rtol=1e-12, atol=0.0)

    @staticmethod
    def _kernel_run(kernel, scenario, cfg, grid):
        """The columns and fail_t that one kernel writes for cfg alone.

        The inputs are `_simulate`'s: the start-up ramp from START_OFFSET,
        the physical states at their t = 0 values and zero moments; the
        columns are the five compartments and all 5 (N-1) moments.
        """
        params, y0 = scenario
        system = expand_system(lambda t, y: classical_rhs(t, y, params), [cfg])
        nodes = grid.nodes()
        ramp = [integrate.START_OFFSET]
        while ramp[-1] * integrate.RAMP_FACTOR < nodes[1]:
            ramp.append(ramp[-1] * integrate.RAMP_FACTOR)
        values = np.zeros((len(nodes), 1, 5 * cfg.order_n))
        fail_t = np.full(1, np.nan)
        kernel(system, np.concatenate([ramp, nodes[1:]]), y0.as_array()[None],
               np.zeros((1, cfg.order_n - 1, 5)), _Columns(values, len(ramp) - 1), fail_t)
        return values, fail_t

    @pytest.mark.parametrize("alpha, order_n, grid, fail_node", [
        (0.95, 7, TimeGrid(0.0, 3.0, 0.01), None),
        (0.3, 7, TimeGrid(0.0, 100.0, 2.0), 7),   # fails in the grid body
        (0.7, 50, TimeGrid(0.0, 1.0, 0.01), 1),   # fails in the start-up ramp
    ])
    def test_float_kernel_equals_batch_kernel_of_one(self, scenario, alpha, order_n, grid,
                                                    fail_node):
        # The float kernel and the array kernel, on a batch of one, write
        # every column and the failure time alike, failed blocks included.
        cfg = ExpansionConfig(alpha, order_n)
        values, fail_t = self._kernel_run(_rk4_arrow, scenario, cfg, grid)
        batch_values, batch_fail_t = self._kernel_run(integrate._rk4_arrow_batch, scenario,
                                                      cfg, grid)
        assert np.array_equal(values, batch_values, equal_nan=True)
        assert np.array_equal(fail_t, batch_fail_t, equal_nan=True)
        if fail_node is None:
            assert np.isnan(fail_t[0]) and np.isfinite(values).all()
        else:
            assert int(np.searchsorted(grid.nodes(), fail_t[0])) == fail_node


class TestSimulateClassical:
    def test_conserves_both_totals(self, scenario, classical_100d):
        params, _ = scenario
        h_drift, m_drift = population_drift(classical_100d.values, params)
        assert h_drift < 1e-9
        assert m_drift < 1e-9

    def test_single_interior_peak_stable_under_step_halving(self, scenario,
                                                            classical_100d):
        # I_h first dips (no infected mosquitoes yet), then rises to a
        # single epidemic peak: exactly one interior local maximum.
        params, y0 = scenario
        i_h = classical_100d.column("I_h")
        peak_index = int(np.argmax(i_h))
        assert 0 < peak_index < len(i_h) - 1
        curvature = np.diff(np.sign(np.diff(i_h)))
        assert np.sum(curvature < 0) == 1
        halved = simulate_classical(params, y0, TimeGrid(0.0, 100.0, 0.005))
        peak, peak_halved = i_h.max(), halved.column("I_h").max()
        assert abs(peak - peak_halved) / peak < 1e-3

    def test_disease_free_stays_disease_free(self, scenario):
        params, _ = scenario
        from fracepi.dengue import StateVector
        y0 = StateVector(s_h=params.n_h, i_h=0.0, r_h=0.0, s_m=params.n_m, i_m=0.0)
        series = simulate_classical(params, y0, TimeGrid(0.0, 50.0, 0.05))
        assert np.all(series.column("I_h") == 0.0)
        assert np.all(series.column("I_m") == 0.0)

    def test_rejects_unbalanced_initial_state(self, scenario):
        params, _ = scenario
        from fracepi.dengue import StateVector
        y0 = StateVector(s_h=params.n_h, i_h=216.0, r_h=0.0, s_m=params.n_m, i_m=0.0)
        with pytest.raises(ValueError, match="n_h"):
            simulate_classical(params, y0, TimeGrid(0.0, 10.0, 0.1))

    def test_step_halving_self_convergence(self, scenario):
        # Third-order-or-better decay of the step-to-step difference.
        params, y0 = scenario
        runs = {h: simulate_classical(params, y0, TimeGrid(0.0, 100.0, h))
                for h in (0.04, 0.02, 0.01)}
        coarse = runs[0.04].column("I_h")
        mid = runs[0.02].column("I_h")
        fine = runs[0.01].column("I_h")
        diff_coarse = np.max(np.abs(coarse - mid[::2]))
        diff_fine = np.max(np.abs(mid - fine[::2]))
        assert diff_coarse / diff_fine >= 8.0


class TestSimulateFractional:
    def test_classical_limit_is_bit_identical(self, scenario, day100_grid,
                                              classical_100d):
        params, y0 = scenario
        bypass = simulate_fractional(params, y0, ExpansionConfig(1.0, 7), day100_grid)
        assert np.array_equal(bypass.values, classical_100d.values)
        assert np.array_equal(bypass.times, classical_100d.times)

    def test_auxiliaries_start_at_zero(self, scenario):
        params, y0 = scenario
        series = simulate_fractional(params, y0, ExpansionConfig(0.9, 4),
                                     TimeGrid(0.0, 5.0, 0.05), keep_aux=True)
        assert series.values.shape[1] == 20
        assert np.all(series.values[0, 5:] == 0.0)
        assert np.array_equal(series.values[0, :5], y0.as_array())
        assert series.columns[5:] == aux_column_names(4)

    def test_keep_aux_with_classical_bypass(self, scenario):
        params, y0 = scenario
        series = simulate_fractional(params, y0, ExpansionConfig(1.0, 3),
                                     TimeGrid(0.0, 5.0, 0.05), keep_aux=True)
        assert series.values.shape[1] == 15
        assert np.all(series.values[:, 5:] == 0.0)

    def test_blow_up_reports_time(self, scenario):
        params, y0 = scenario
        with pytest.raises(BlowUpError) as exc_info:
            simulate_fractional(params, y0, ExpansionConfig(0.3, 7),
                                TimeGrid(0.0, 100.0, 2.0))
        assert 0.0 < exc_info.value.time <= 100.0

    @pytest.mark.parametrize("alpha, order_n, time, step_index", [
        (0.9, 41, 0.13, 13),     # in the grid body
        (0.8, 40, 0.06, 6),      # in the grid body
        (0.7, 50, None, 1),      # in the start-up ramp, before the first node
    ])
    def test_blow_up_step_is_the_node_not_reached(self, scenario, alpha, order_n, time,
                                                  step_index):
        params, y0 = scenario
        with pytest.raises(BlowUpError) as exc_info:
            simulate_fractional(params, y0, ExpansionConfig(alpha, order_n),
                                TimeGrid(0.0, 1.0, 0.01))
        err = exc_info.value
        assert err.step_index == step_index
        assert f"(step {step_index})" in str(err)
        if time is None:
            assert 0.0 < err.time < 0.01
        else:
            assert err.time == pytest.approx(time, abs=1e-12)

    def test_undershoot_reported_not_clamped(self, scenario):
        # A deliberately coarse grid drives compartments far negative; the
        # run must survive, warn, and keep the raw values.
        params, y0 = scenario
        with pytest.warns(RuntimeWarning, match="undershoot"):
            series = simulate_fractional(params, y0, ExpansionConfig(0.5, 7),
                                         TimeGrid(0.0, 100.0, 2.0))
        assert series.values.min() < -1e-6 * params.n_h

    def test_fractional_total_drift_is_visible(self, scenario, classical_100d):
        # Fractional runs do not conserve the totals: the drift diagnostic
        # must expose it instead of hiding it.
        params, y0 = scenario
        series = simulate_fractional(params, y0, ExpansionConfig(0.95, 7),
                                     TimeGrid(0.0, 40.0, 0.01))
        h_drift, _ = population_drift(series.values, params)
        assert h_drift > 1e-3

    def test_step_halving_stability(self, scenario):
        # The fractional path's h-to-h/2 difference sits at the startup
        # floor (the graded ramp hands off at the first node, which moves
        # with h), so it does not contract at the RK4 rate the way the
        # classical path does; it must still be far below any tolerance
        # that matters.
        params, y0 = scenario
        cfg = ExpansionConfig(0.999, 7)
        coarse = simulate_fractional(params, y0, cfg, TimeGrid(0.0, 100.0, 0.02))
        fine = simulate_fractional(params, y0, cfg, TimeGrid(0.0, 100.0, 0.01))
        i_coarse = coarse.column("I_h")
        i_fine = fine.column("I_h")[::2]
        assert np.max(np.abs(i_coarse - i_fine)) / i_fine.max() < 1e-3

    def test_rejects_nonpositive_start_offset(self, scenario, day100_grid):
        params, y0 = scenario
        with pytest.raises(ValueError, match="start_offset"):
            simulate_fractional(params, y0, ExpansionConfig(0.9, 7), day100_grid,
                                start_offset=0.0)

    @pytest.mark.parametrize("alpha", [0.9, 1.0])
    def test_rejects_grid_not_starting_at_zero(self, scenario, alpha):
        params, y0 = scenario
        with pytest.raises(ValueError, match="t = 0"):
            simulate_fractional(params, y0, ExpansionConfig(alpha, 7),
                                TimeGrid(0.5, 2.0, 0.01))

    def test_start_offset_must_leave_room(self, scenario):
        params, y0 = scenario
        with pytest.raises(ValueError, match="room"):
            simulate_fractional(params, y0, ExpansionConfig(0.9, 7),
                                TimeGrid(0.0, 1.0, 0.01), start_offset=0.02)

    @pytest.mark.parametrize("start_offset", [-1.0, 0.0, math.nan, math.inf])
    def test_classical_bypass_rejects_bad_start_offset(self, scenario, start_offset):
        params, y0 = scenario
        with pytest.raises(ValueError, match="start_offset must be positive and finite"):
            simulate_fractional(params, y0, ExpansionConfig(1.0, 7), TimeGrid(0.0, 1.0, 0.01),
                                start_offset=start_offset)

    def test_classical_bypass_needs_no_room_before_the_first_node(self, scenario):
        # The classical field starts at t = 0 and never uses the offset.
        params, y0 = scenario
        grid = TimeGrid(0.0, 1.0, 0.01)
        bypass = simulate_fractional(params, y0, ExpansionConfig(1.0, 7), grid,
                                     start_offset=0.02)
        assert np.array_equal(bypass.values, simulate_classical(params, y0, grid).values)


class TestSimulateBatch:
    BATCH_GRID = TimeGrid(0.0, 10.0, 0.05)
    ORDERS = tuple(round(0.89 + 0.01 * k, 12) for k in range(11))

    @pytest.fixture(scope="class")
    def solo(self, scenario):
        params, y0 = scenario
        return {alpha: simulate_fractional(params, y0, ExpansionConfig(alpha, 7),
                                           self.BATCH_GRID).values
                for alpha in self.ORDERS}

    @pytest.mark.parametrize("size", [1, 2, 3, 11])
    def test_members_equal_solo_runs_bitwise(self, scenario, solo, size):
        # Every rotation, so each order sits at every position of the batch.
        params, y0 = scenario
        orders = self.ORDERS[:size]
        for shift in range(size):
            rotated = orders[shift:] + orders[:shift]
            runs = simulate_batch(params, y0, [ExpansionConfig(a, 7) for a in rotated],
                                  self.BATCH_GRID)
            assert len(runs) == size
            for alpha, run in zip(rotated, runs):
                assert run.columns == ("S_h", "I_h", "R_h", "S_m", "I_m")
                assert np.array_equal(run.times, self.BATCH_GRID.nodes())
                assert np.array_equal(run.values, solo[alpha])

    def test_blown_up_member_is_marked_and_the_others_keep_their_bits(self, scenario):
        # The 2-day grid of the fit's blow-up test: fatal at 0.3, survivable near 1.
        params, y0 = scenario
        coarse = TimeGrid(0.0, 100.0, 2.0)
        with pytest.raises(BlowUpError) as solo_error:
            simulate_fractional(params, y0, ExpansionConfig(0.3, 7), coarse)
        orders = (0.97, 0.3, 0.98)
        runs = simulate_batch(params, y0, [ExpansionConfig(a, 7) for a in orders], coarse)
        assert isinstance(runs[1], BlowUpError)
        assert runs[1].time == solo_error.value.time
        assert runs[1].step_index == solo_error.value.step_index
        for k in (0, 2):
            solo = simulate_fractional(params, y0, ExpansionConfig(orders[k], 7), coarse)
            assert np.array_equal(runs[k].values, solo.values)

    def test_every_member_blowing_up_matches_its_solo_error(self, scenario):
        # 0.7 fails in the start-up ramp, 0.9 in the grid body.
        params, y0 = scenario
        grid = TimeGrid(0.0, 1.0, 0.01)
        cfgs = [ExpansionConfig(0.7, 50), ExpansionConfig(0.9, 50)]
        runs = simulate_batch(params, y0, cfgs, grid)
        for cfg, run in zip(cfgs, runs):
            with pytest.raises(BlowUpError) as solo_error:
                simulate_fractional(params, y0, cfg, grid)
            assert isinstance(run, BlowUpError)
            assert (run.time, run.step_index) == (solo_error.value.time,
                                                  solo_error.value.step_index)

    def test_one_member_steps_on_floats(self, scenario, solo, monkeypatch):
        def no_batch_kernel(*args):
            raise AssertionError("_rk4_arrow_batch called")

        params, y0 = scenario
        monkeypatch.setattr(integrate, "_rk4_arrow_batch", no_batch_kernel)
        run, = simulate_batch(params, y0, [ExpansionConfig(0.95, 7)], self.BATCH_GRID)
        assert np.array_equal(run.values, solo[0.95])

    def test_two_members_step_on_arrays(self, scenario, monkeypatch):
        params, y0 = scenario
        kernel, states = integrate._rk4_arrow_batch, []

        def recorded(system, ts, x, *args):
            states.append(x.shape)
            return kernel(system, ts, x, *args)

        monkeypatch.setattr(integrate, "_rk4_arrow_batch", recorded)
        simulate_batch(params, y0, [ExpansionConfig(a, 7) for a in (0.9, 0.95)],
                       self.BATCH_GRID)
        assert states == [(2, 5)]

    def test_rejects_no_config(self, scenario):
        # No config is the classical field only inside the body; a batch refuses it.
        params, y0 = scenario
        with pytest.raises(ValueError, match="at least one config"):
            simulate_batch(params, y0, [], self.BATCH_GRID)

    @pytest.mark.parametrize("orders", [(1.0,), (0.9, 1.0), (1.0, 0.9, 1.0, 0.95)])
    def test_classical_members_equal_solo_runs_bitwise(self, scenario, solo, orders):
        # alpha = 1 first, in the middle, last and repeated among the fractional members.
        params, y0 = scenario
        classical = simulate_fractional(params, y0, ExpansionConfig(1.0, 7), self.BATCH_GRID)
        runs = simulate_batch(params, y0, [ExpansionConfig(a, 7) for a in orders],
                              self.BATCH_GRID)
        assert len(runs) == len(orders)
        for alpha, run in zip(orders, runs):
            assert run.columns == classical.columns
            assert np.array_equal(run.times, self.BATCH_GRID.nodes())
            assert np.array_equal(run.values,
                                  classical.values if alpha == 1.0 else solo[alpha])

    @pytest.mark.parametrize("start_offset", [math.nan, -1.0])
    def test_classical_members_refuse_a_bad_start_offset(self, scenario, start_offset):
        params, y0 = scenario
        with pytest.raises(ValueError, match="start_offset must be positive and finite"):
            simulate_batch(params, y0, [ExpansionConfig(1.0, 7)] * 2, self.BATCH_GRID,
                           start_offset=start_offset)

    def test_blown_up_classical_member_is_marked_and_the_others_keep_their_bits(self, scenario):
        # eta_h = 20 on 1-day steps: the classical run fails at day 4, the
        # fractional ones only at day 6, after this grid ends.
        params, y0 = scenario
        params = dataclasses.replace(params, eta_h=20.0)
        grid = TimeGrid(0.0, 5.0, 1.0)
        with pytest.raises(BlowUpError) as solo_error:
            simulate_fractional(params, y0, ExpansionConfig(1.0, 7), grid)
        orders = (0.9, 1.0, 0.95)
        runs = simulate_batch(params, y0, [ExpansionConfig(a, 7) for a in orders], grid)
        assert isinstance(runs[1], BlowUpError)
        assert (runs[1].time, runs[1].step_index) == (solo_error.value.time,
                                                      solo_error.value.step_index) == (4.0, 4)
        for k in (0, 2):
            solo = simulate_fractional(params, y0, ExpansionConfig(orders[k], 7), grid)
            assert np.array_equal(runs[k].values, solo.values)

    def test_rejects_grid_not_starting_at_zero(self, scenario):
        params, y0 = scenario
        with pytest.raises(ValueError, match="t = 0"):
            simulate_batch(params, y0, [ExpansionConfig(0.9, 7)], TimeGrid(0.5, 2.0, 0.01))


class TestPinnedTrajectories:
    """Fractional trajectories held to pinned numbers.

    The built-in outbreak over 100 d at 0.01 with N = 7: the I_h peak, its
    time and the last row (t, the five compartments, the 30 moments).
    """

    @pytest.mark.parametrize("alpha, peak_i_h, peak_t, final", [
        (0.95, 716.2369078031802, 96.63, [
            100.0, 11181.281262677649, 710.5039167054324, 7851.599060632317,
            161938.19894991574, 4656.181674580829, -1839784.9580501358, -165720466.94965807,
            -15536620910.969633, -1483458581613.4238, -143223698286377.88,
            -1.393160746013949e+16, -28198.128309094638, -4185960.2915324667,
            -502132551.0858161, -55648624492.43886, -5936409135048.131, -620010066939981.0,
            -204906.69050750526, -32231188.622964483, -4012363463.365754,
            -458071285867.1588, -50088766575569.97, -5342316764838642.0,
            -15279202.121260073, -1607345147.48329, -162194109468.1888, -16250918439695.143,
            -1625512480150268.5, -1.625193286802624e+17, -148379.4966218811,
            -22877582.149527922, -2802388309.1717935, -315613100758.8542,
            -34112769457387.652, -3602075400358369.0,
        ]),
        (0.97, 2411.393723172267, 53.52, [
            100.0, 2872.0315163947516, 152.57273027358087, 27010.279807883093,
            164260.39366655957, 3008.8909133038615, -1747459.0235330127,
            -109386615.90685618, -7723037524.8117895, -598786444045.7971,
            -49900870023542.055, -4385115185429773.0, -92070.92334858865,
            -10055824.995521953, -902058925.555034, -77019133003.373, -6531643685093.319,
            -559042734534795.06, -1252679.666280787, -185199830.2716934,
            -21692078783.397602, -2348689521801.9883, -245588373122692.9,
            -2.5229569347065588e+16, -15298829.513262313, -1573960403.5159693,
            -158552781730.64804, -15930617292771.977, -1599420127873610.5,
            -1.6048694594934173e+17, -605600.9932714818, -76400378.79864945,
            -7777476527.9705105, -744109728771.0807, -69824565240804.96,
            -6528927683210264.0,
        ]),
        (0.99, 5945.358180044681, 33.04, [
            100.0, 1123.2899978405821, 10.277579764123251, 44407.02236295484,
            167329.99081792394, 461.7149792439318, -1513190.9610594728, -59009794.24877309,
            -2905786800.4750094, -184531172773.98108, -14395750371473.098,
            -1272194449082999.0, -139851.5295860293, -9605851.12671441, -549109311.8702686,
            -30658640534.266514, -1767431706857.9211, -108242855471884.38,
            -2945156.418940681, -388953585.9544577, -42228580674.12849, -4349527359229.743,
            -440092305883927.25, -4.423077079320771e+16, -15555995.715831272,
            -1589285435.857001, -161518136924.54794, -16331500030447.947,
            -1644929720498856.5, -1.652587291467017e+17, -915626.900687182,
            -80843343.32615367, -5968795799.046815, -431647481651.17676, -31967900427315.65,
            -2459814790923022.0,
        ]),
    ])
    def test_peak_and_final_row(self, scenario, day100_grid, alpha, peak_i_h, peak_t, final):
        params, y0 = scenario
        series = simulate_fractional(params, y0, ExpansionConfig(alpha, 7), day100_grid,
                                     keep_aux=True)
        k = int(np.argmax(series.column("I_h")))
        assert series.values[k, 1] == pytest.approx(peak_i_h, rel=1e-12, abs=0.0)
        assert series.times[k] == pytest.approx(peak_t, rel=1e-12, abs=0.0)
        assert len(final) == 36
        np.testing.assert_allclose([series.times[-1], *series.values[-1]], final,
                                   rtol=1e-12, atol=0.0)


class TestOperatorBlocks:
    """The kernel precomputes the operators of blocks of RK4 steps; the block
    length changes no bit and the blocks' memory stays capped."""

    # 107 ramp sub-steps from 1e-6 to the first node at 0.01, then 300 steps,
    # in one pass: blocks of 37 steps end inside both, and blocks of 106, 107
    # and 108 steps end just before, at and just after the first node.
    GRID = TimeGrid(0.0, 3.0, 0.01)
    # A 512-step block of dense N x N operators would hold 10 MB per stage
    # time at N = 50 and 20 MB for 100 members at N = 7, and one step's
    # three of them 24 MB at N = 1000; the arrow form holds O(N) per step.
    PEAK_BYTES = 4_000_000

    @staticmethod
    def _with_block(monkeypatch, steps, members, order_n=7):
        """Patch the entry budget so that every block holds `steps` RK4 steps.

        A step takes 3 stage times x 2N time factors per member.
        """
        monkeypatch.setattr(integrate, "BLOCK_ENTRIES", steps * 3 * members * 2 * order_n)

    @pytest.mark.parametrize("steps", [1, 37, 106, 107, 108])
    def test_solo_run_with_moments(self, scenario, monkeypatch, steps):
        params, y0 = scenario

        def run():
            return simulate_fractional(params, y0, ExpansionConfig(0.95, 7), self.GRID,
                                       keep_aux=True).values

        default = run()
        self._with_block(monkeypatch, steps, 1)
        assert np.array_equal(run(), default)

    @pytest.mark.parametrize("steps", [1, 37, 106, 107, 108])
    def test_batch(self, scenario, monkeypatch, steps):
        params, y0 = scenario
        cfgs = [ExpansionConfig(a, 7) for a in (0.9, 0.95, 0.99)]
        default = simulate_batch(params, y0, cfgs, self.GRID)
        self._with_block(monkeypatch, steps, len(cfgs))
        for run, expected in zip(simulate_batch(params, y0, cfgs, self.GRID), default):
            assert np.array_equal(run.values, expected.values)

    @pytest.mark.parametrize("steps", [1, 37])
    def test_batch_with_blowing_up_member(self, scenario, monkeypatch, steps):
        params, y0 = scenario
        coarse = TimeGrid(0.0, 100.0, 2.0)
        cfgs = [ExpansionConfig(a, 7) for a in (0.97, 0.3, 0.98)]
        default = simulate_batch(params, y0, cfgs, coarse)
        self._with_block(monkeypatch, steps, len(cfgs))
        runs = simulate_batch(params, y0, cfgs, coarse)
        assert isinstance(runs[1], BlowUpError)
        assert (runs[1].time, runs[1].step_index) == (default[1].time, default[1].step_index)
        for k in (0, 2):
            assert np.array_equal(runs[k].values, default[k].values)

    @pytest.mark.parametrize("steps", [1, 37, 106, 107, 108])
    def test_solo_blow_up_node(self, scenario, monkeypatch, steps):
        # States are checked once per block; the failure must still name the
        # first node not reached, t = 0.13 (step 120 of the pass).
        params, y0 = scenario
        self._with_block(monkeypatch, steps, 1, order_n=41)
        with pytest.raises(BlowUpError) as exc_info:
            simulate_fractional(params, y0, ExpansionConfig(0.9, 41), TimeGrid(0.0, 1.0, 0.01))
        assert (exc_info.value.time, exc_info.value.step_index) == (0.13, 13)

    @staticmethod
    def _peak_bytes(run):
        tracemalloc.start()
        try:
            run()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_high_order_solo_run_memory(self, scenario):
        params, y0 = scenario
        peak = self._peak_bytes(lambda: simulate_fractional(
            params, y0, ExpansionConfig(0.95, 50), TimeGrid(0.0, 2.0, 0.01)))
        assert peak < self.PEAK_BYTES

    def test_largest_order_solo_run_memory(self, scenario):
        # t^(1-p-alpha) overflows at the first ramp sub-step, so the run
        # blows up there, after its first block is built.
        params, y0 = scenario

        def run():
            with pytest.raises(BlowUpError) as exc_info:
                simulate_fractional(params, y0, ExpansionConfig(0.95, 1000),
                                    TimeGrid(0.0, 2.0, 0.01))
            assert exc_info.value.step_index == 1

        assert self._peak_bytes(run) < self.PEAK_BYTES

    def test_expansion_arrays_over_budget_refused_before_building(self, scenario,
                                                                  monkeypatch):
        # Ten members at N = 1000: a result of 3 x 10 x 5 entries, but per
        # member 21 N + 26 (N-1) entries of weights, moments, two steps'
        # arrays and the block buffers (see MAX_ENTRIES).
        params, y0 = scenario

        def no_system(*args, **kwargs):
            raise AssertionError("expand_system called")

        monkeypatch.setattr(integrate, "MAX_ENTRIES", 10_000)
        monkeypatch.setattr(integrate, "expand_system", no_system)
        cfgs = [ExpansionConfig(0.9 + 0.01 * k, 1000) for k in range(10)]
        with pytest.raises(ValueError, match="469740 expansion entries exceed"):
            simulate_batch(params, y0, cfgs, TimeGrid(0.0, 0.02, 0.01))

    def test_mixed_batch_is_counted_once(self, scenario, monkeypatch):
        # 101 nodes x 3 runs x 5 columns = 1515 entries, and 2 x 303 of the
        # two alpha < 1 members' expansion: 2121 in all.  Each part alone
        # fits in 2000; the alpha = 1 run is counted with the others.
        params, y0 = scenario

        def no_system(*args, **kwargs):
            raise AssertionError("expand_system called")

        monkeypatch.setattr(integrate, "MAX_ENTRIES", 2_000)
        monkeypatch.setattr(integrate, "expand_system", no_system)
        cfgs = [ExpansionConfig(a, 7) for a in (0.9, 0.95, 1.0)]
        with pytest.raises(ValueError, match="101 nodes x 3 runs x 5 columns and 606 "):
            simulate_batch(params, y0, cfgs, TimeGrid(0.0, 1.0, 0.01))

    @pytest.mark.parametrize("members, order_n", [(1, 1000), (10, 1000), (100, 1000),
                                                  (10, 200), (100, 40)])
    def test_counted_entries_bound_the_peak(self, scenario, monkeypatch, members, order_n):
        # Blocks of one step each.  At N = 200 and 1000 every member blows up
        # in the first block; at N = 40 they run on, so a block is built
        # while the kernel still holds the last.
        params, y0 = scenario
        cfgs = [ExpansionConfig(0.95 + 0.0001 * k, order_n) for k in range(members)]
        grid = TimeGrid(0.0, 0.02, 0.01)
        with monkeypatch.context() as patch:
            patch.setattr(integrate, "MAX_ENTRIES", 0)
            with pytest.raises(ValueError) as refused:
                simulate_batch(params, y0, cfgs, grid)
        counts = re.match(r"a result of (\d+) nodes x (\d+) runs x (\d+) columns "
                          r"and (\d+) expansion entries", str(refused.value))
        nodes, runs, width, expansion = map(int, counts.groups())
        counted = nodes * runs * width + expansion
        peak = self._peak_bytes(lambda: simulate_batch(params, y0, cfgs, grid))
        assert peak <= 8 * counted

    def test_large_batch_memory(self, scenario):
        params, y0 = scenario
        cfgs = [ExpansionConfig(0.9 + 0.0009 * k, 7) for k in range(100)]
        peak = self._peak_bytes(lambda: simulate_batch(params, y0, cfgs,
                                                       TimeGrid(0.0, 2.0, 0.01)))
        assert peak < self.PEAK_BYTES
