import math

import numpy as np
import pytest

from fracepi.dengue import population_drift
from fracepi.expansion import ExpansionConfig
from fracepi.integrate import (MAX_NODES, BlowUpError, TimeGrid, TimeSeries, aux_column_names,
                               integrate_rk4, simulate_classical, simulate_fractional)


class TestTimeGrid:
    def test_nodes_land_exactly_on_t_end(self):
        grid = TimeGrid(t_start=0.0, t_end=100.0, step=0.01)
        nodes = grid.nodes()
        assert nodes[0] == 0.0
        assert nodes[-1] == 100.0
        assert len(nodes) == 10001

    def test_last_step_shortened(self):
        grid = TimeGrid(t_start=0.0, t_end=1.0, step=0.3)
        nodes = grid.nodes()
        assert nodes[-1] == 1.0
        assert np.allclose(nodes, [0.0, 0.3, 0.6, 0.9, 1.0])

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
                            values=np.zeros((101, 1)))
        assert series.nearest_index(0.0) == 0
        assert series.nearest_index(5.04) == 50
        assert series.nearest_index(5.06) == 51
        assert series.nearest_index(10.0) == 100
        with pytest.raises(ValueError, match="span"):
            series.nearest_index(10.5)


class TestIntegrateRk4:
    def test_exponential_decay(self):
        series = integrate_rk4(lambda t, y: -y, np.array([1.0]),
                               TimeGrid(0.0, 1.0, 0.1))
        assert series.values[-1, 0] == pytest.approx(math.exp(-1.0), abs=1e-6)

    def test_zero_field_is_constant(self):
        series = integrate_rk4(lambda t, y: np.zeros(3), np.array([1.0, -2.0, 5.0]),
                               TimeGrid(0.0, 5.0, 0.5))
        assert np.all(series.values == series.values[0])

    def test_quadrature_of_t_squared_is_exact(self):
        # RK4's increment reduces to Simpson's rule here, exact for cubics.
        series = integrate_rk4(lambda t, y: np.array([t * t]), np.array([0.0]),
                               TimeGrid(0.0, 1.0, 0.1))
        assert series.values[-1, 0] == pytest.approx(1.0 / 3.0, abs=1e-12)

    def test_blow_up_carries_time(self):
        # y' = y^2 from y(0) = 2 leaves the finite range near t = 0.5.
        with pytest.raises(BlowUpError) as exc_info:
            integrate_rk4(lambda t, y: y * y, np.array([2.0]), TimeGrid(0.0, 1.0, 0.01))
        assert 0.0 < exc_info.value.time <= 1.0


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
