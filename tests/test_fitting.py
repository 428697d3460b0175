import dataclasses
import math

import numpy as np
import pytest

from fracepi.fitting import (CurvePoint, FitFailedError, ObservedSeries,
                             _best_point, fit_alpha, generate_synthetic,
                             percentage_error)
from fracepi.expansion import ExpansionConfig
from fracepi.integrate import (TimeGrid, TimeSeries, simulate_batch, simulate_classical,
                               simulate_fractional)

FIT_GRID = TimeGrid(t_start=0.0, t_end=30.0, step=0.05)
SAMPLE_TIMES = np.arange(5.0, 30.1, 5.0)


def _series(times, i_h):
    values = np.zeros((len(times), 5))
    values[:, 1] = i_h
    return TimeSeries(times=np.asarray(times, dtype=float), values=values,
                      columns=("S_h", "I_h", "R_h", "S_m", "I_m"))


class TestObservedSeries:
    def test_requires_positive_counts(self):
        with pytest.raises(ValueError, match="positive"):
            ObservedSeries(times=[1.0, 2.0], infected=[3.0, 0.0])

    def test_requires_increasing_times(self):
        with pytest.raises(ValueError, match="increasing"):
            ObservedSeries(times=[2.0, 1.0], infected=[3.0, 3.0])

    def test_requires_at_least_two_points(self):
        with pytest.raises(ValueError, match="at least 2"):
            ObservedSeries(times=[1.0], infected=[3.0])
        with pytest.raises(ValueError, match="at least 2"):
            ObservedSeries(times=[], infected=[])

    def test_requires_matching_lengths(self):
        with pytest.raises(ValueError, match="mismatch"):
            ObservedSeries(times=[1.0, 2.0, 3.0], infected=[3.0, 3.0])

    def test_requires_one_dimensional_times(self):
        with pytest.raises(ValueError, match="one-dimensional"):
            ObservedSeries(times=[[1.0, 2.0]], infected=[3.0, 3.0])

    def test_requires_finite_counts(self):
        with pytest.raises(ValueError, match="finite"):
            ObservedSeries(times=[1.0, 2.0], infected=[3.0, math.nan])


class TestPercentageError:
    def test_identity_gives_zero(self):
        times = np.linspace(0.0, 10.0, 101)
        series = _series(times, np.linspace(100.0, 200.0, 101))
        obs = ObservedSeries(times=[2.0, 5.0, 8.0],
                             infected=series.column("I_h")[[20, 50, 80]])
        assert percentage_error(series, obs) == 0.0

    def test_uniform_13_percent_overshoot(self):
        times = np.linspace(0.0, 10.0, 101)
        i_h = np.linspace(100.0, 200.0, 101)
        series = _series(times, 1.13 * i_h)
        obs = ObservedSeries(times=[2.0, 5.0, 8.0], infected=i_h[[20, 50, 80]])
        assert percentage_error(series, obs) == pytest.approx(13.0, rel=1e-12)

    def test_scale_invariance(self):
        times = np.linspace(0.0, 10.0, 101)
        i_h = np.linspace(100.0, 200.0, 101)
        series = _series(times, 1.2 * i_h)
        scaled = _series(times, 7.5 * 1.2 * i_h)
        obs = ObservedSeries(times=[2.0, 8.0], infected=i_h[[20, 80]])
        obs_scaled = ObservedSeries(times=[2.0, 8.0], infected=7.5 * i_h[[20, 80]])
        assert percentage_error(series, obs) == pytest.approx(
            percentage_error(scaled, obs_scaled), rel=1e-12)

    def test_rejects_observation_outside_span(self):
        series = _series(np.linspace(0.0, 10.0, 11), np.full(11, 50.0))
        obs = ObservedSeries(times=[5.0, 12.0], infected=[50.0, 50.0])
        with pytest.raises(ValueError, match="span"):
            percentage_error(series, obs)

    def test_nearest_node_alignment(self):
        # Observation at 4.97 must read the node at 5.0, not 4.9.
        times = np.arange(0.0, 10.1, 0.1)
        i_h = 10.0 + times
        series = _series(times, i_h)
        obs = ObservedSeries(times=[4.97, 7.0], infected=[15.0, 17.0])
        expected = 100.0 * np.mean([np.abs(15.0 - 15.0) / 15.0,
                                    np.abs(17.0 - 17.0) / 17.0])
        assert percentage_error(series, obs) == pytest.approx(expected, abs=1e-12)


class TestBestPoint:
    def test_ties_break_to_smallest_alpha(self):
        curve = [CurvePoint(0.93, 5.0, "ok"), CurvePoint(0.95, 5.0, "ok"),
                 CurvePoint(0.97, 9.0, "ok")]
        assert _best_point(curve).alpha == 0.93

    def test_failed_points_ignored(self):
        curve = [CurvePoint(0.93, math.inf, "failed"), CurvePoint(0.95, 4.0, "ok")]
        assert _best_point(curve).alpha == 0.95

    def test_all_failed_gives_none(self):
        assert _best_point([CurvePoint(0.5, math.inf, "failed")]) is None


class TestFitAlpha:
    def test_noiseless_round_trip(self, scenario):
        params, y0 = scenario
        obs = generate_synthetic(params, y0, alpha_star=0.95, n_order=7,
                                 sample_times=SAMPLE_TIMES, noise_pct=0.0,
                                 seed=3, grid=FIT_GRID)
        result = fit_alpha(obs, params, y0, 7, [0.93, 0.94, 0.95, 0.96, 0.97],
                           FIT_GRID)
        assert result.best_alpha == 0.95
        assert result.best_error_pct == 0.0
        assert len(result.error_curve) == 5
        assert all(point.status == "ok" for point in result.error_curve)

    def test_classical_data_recovers_alpha_one(self, scenario):
        params, y0 = scenario
        series = simulate_classical(params, y0, FIT_GRID)
        indices = [series.nearest_index(t) for t in SAMPLE_TIMES]
        obs = ObservedSeries(times=SAMPLE_TIMES,
                             infected=series.column("I_h")[indices])
        result = fit_alpha(obs, params, y0, 7, [0.98, 0.99, 1.0], FIT_GRID)
        assert result.best_alpha == 1.0
        assert result.best_error_pct == 0.0

    def test_single_point_grid(self, scenario):
        params, y0 = scenario
        series = simulate_classical(params, y0, FIT_GRID)
        indices = [series.nearest_index(t) for t in SAMPLE_TIMES]
        obs = ObservedSeries(times=SAMPLE_TIMES,
                             infected=1.1 * series.column("I_h")[indices])
        result = fit_alpha(obs, params, y0, 7, [1.0], FIT_GRID)
        assert result.best_alpha == 1.0
        # prediction = obs / 1.1 everywhere, so MAPE = 100 * (0.1 / 1.1)
        assert result.best_error_pct == pytest.approx(100.0 / 11.0, rel=1e-9)

    def test_argmin_invariant_under_squared_metric(self, scenario):
        params, y0 = scenario
        obs = generate_synthetic(params, y0, alpha_star=0.95, n_order=7,
                                 sample_times=SAMPLE_TIMES, noise_pct=5.0,
                                 seed=11, grid=FIT_GRID)
        result = fit_alpha(obs, params, y0, 7, [0.93, 0.94, 0.95, 0.96, 0.97],
                           FIT_GRID)
        errors = [point.error_pct for point in result.error_curve]
        squared = [e * e for e in errors]
        assert int(np.argmin(squared)) == int(np.argmin(errors))

    def test_blown_up_candidates_stay_in_curve(self, scenario):
        # A 2-day step is survivable at alpha near 1 but fatal at 0.3.
        params, y0 = scenario
        coarse = TimeGrid(0.0, 100.0, 2.0)
        series = simulate_classical(params, y0, coarse)
        sample_times = np.arange(10.0, 90.1, 10.0)
        indices = [series.nearest_index(t) for t in sample_times]
        obs = ObservedSeries(times=sample_times,
                             infected=series.column("I_h")[indices])
        result = fit_alpha(obs, params, y0, 7, [0.3, 0.98], coarse)
        by_alpha = {point.alpha: point for point in result.error_curve}
        assert by_alpha[0.3].status == "failed"
        assert by_alpha[0.3].error_pct == math.inf
        assert by_alpha[0.98].status == "ok"
        assert result.best_alpha == 0.98

    def test_curve_equals_solo_runs_exactly(self, scenario, monkeypatch):
        # Every candidate, alpha = 1 included, runs in one batch call; each
        # point must equal a run of its own order scored alone.
        params, y0 = scenario
        obs = generate_synthetic(params, y0, alpha_star=0.95, n_order=7,
                                 sample_times=SAMPLE_TIMES, noise_pct=0.0,
                                 seed=4, grid=FIT_GRID)
        alphas = [0.93, 0.94, 0.95, 0.96, 0.97, 1.0]
        batches = []

        def recorded(params, y0, cfgs, *args, **kwargs):
            batches.append([cfg.alpha for cfg in cfgs])
            return simulate_batch(params, y0, cfgs, *args, **kwargs)

        monkeypatch.setattr("fracepi.fitting.simulate_batch", recorded)
        monkeypatch.setattr("fracepi.fitting.simulate_fractional", None)
        result = fit_alpha(obs, params, y0, 7, alphas, FIT_GRID)
        assert batches == [alphas]
        expected = [CurvePoint(alpha, percentage_error(simulate_fractional(
            params, y0, ExpansionConfig(alpha, 7), FIT_GRID), obs), "ok") for alpha in alphas]
        assert list(result.error_curve) == expected

    def test_all_failed_raises_with_diagnostics(self, scenario):
        params, y0 = scenario
        coarse = TimeGrid(0.0, 100.0, 2.0)
        series = simulate_classical(params, y0, coarse)
        obs = ObservedSeries(times=[10.0, 20.0],
                             infected=series.column("I_h")[[5, 10]])
        with pytest.raises(FitFailedError, match="alpha=0.2"):
            fit_alpha(obs, params, y0, 7, [0.2, 0.3], coarse)

    def test_rejects_unsorted_grid(self, scenario):
        params, y0 = scenario
        obs = ObservedSeries(times=[5.0, 10.0], infected=[10.0, 20.0])
        with pytest.raises(ValueError, match="ascending"):
            fit_alpha(obs, params, y0, 7, [0.95, 0.93], FIT_GRID)

    def test_rejects_out_of_range_alpha(self, scenario):
        params, y0 = scenario
        obs = ObservedSeries(times=[5.0, 10.0], infected=[10.0, 20.0])
        with pytest.raises(ValueError, match=r"\(0, 1\]"):
            fit_alpha(obs, params, y0, 7, [0.9, 1.1], FIT_GRID)

    @pytest.mark.parametrize("n_order, alphas, match", [
        (7, [], "must not be empty"),
        (1, [0.9], "n_order must be >= 2"),
    ])
    def test_rejects_empty_grid_and_low_order(self, scenario, n_order, alphas, match):
        params, y0 = scenario
        obs = ObservedSeries(times=[5.0, 10.0], infected=[10.0, 20.0])
        with pytest.raises(ValueError, match=match):
            fit_alpha(obs, params, y0, n_order, alphas, FIT_GRID)

    @pytest.mark.parametrize("start_offset", [-1.0, math.nan])
    def test_classical_candidate_rejects_bad_start_offset(self, scenario, start_offset):
        params, y0 = scenario
        obs = ObservedSeries(times=[5.0, 10.0], infected=[10.0, 20.0])
        with pytest.raises(ValueError, match="start_offset must be positive and finite"):
            fit_alpha(obs, params, y0, 7, [1.0], FIT_GRID, start_offset=start_offset)

    def test_failed_classical_candidate_named_in_error(self, scenario):
        # eta_h = 20 on a 1-day step: the classical run leaves the finite
        # range at t = 4 (step 4), and the alpha = 0.95 member fails too.
        params, y0 = scenario
        fast = dataclasses.replace(params, eta_h=20.0)
        coarse = TimeGrid(0.0, 100.0, 1.0)
        obs = ObservedSeries(times=[10.0, 20.0], infected=[10.0, 20.0])
        with pytest.raises(FitFailedError, match="alpha=1: failed"):
            fit_alpha(obs, fast, y0, 7, [0.95, 1.0], coarse)


class TestGenerateSynthetic:
    def test_noiseless_matches_model_samples(self, scenario):
        from fracepi.expansion import ExpansionConfig
        from fracepi.integrate import simulate_fractional
        params, y0 = scenario
        obs = generate_synthetic(params, y0, alpha_star=0.97, n_order=7,
                                 sample_times=SAMPLE_TIMES, noise_pct=0.0,
                                 seed=5, grid=FIT_GRID)
        series = simulate_fractional(params, y0, ExpansionConfig(0.97, 7), FIT_GRID)
        indices = [series.nearest_index(t) for t in SAMPLE_TIMES]
        assert np.array_equal(obs.infected, series.column("I_h")[indices])

    def test_same_seed_is_deterministic(self, scenario):
        params, y0 = scenario
        kwargs = dict(alpha_star=0.95, n_order=7, sample_times=SAMPLE_TIMES,
                      noise_pct=8.0, seed=99, grid=FIT_GRID)
        first = generate_synthetic(params, y0, **kwargs)
        second = generate_synthetic(params, y0, **kwargs)
        assert np.array_equal(first.infected, second.infected)

    def test_noise_stays_within_bound(self, scenario):
        from fracepi.expansion import ExpansionConfig
        from fracepi.integrate import simulate_fractional
        params, y0 = scenario
        obs = generate_synthetic(params, y0, alpha_star=0.95, n_order=7,
                                 sample_times=SAMPLE_TIMES, noise_pct=10.0,
                                 seed=123, grid=FIT_GRID)
        series = simulate_fractional(params, y0, ExpansionConfig(0.95, 7), FIT_GRID)
        indices = [series.nearest_index(t) for t in SAMPLE_TIMES]
        exact = series.column("I_h")[indices]
        ratio = obs.infected / exact
        assert np.all(ratio >= 0.9 - 1e-12)
        assert np.all(ratio <= 1.1 + 1e-12)

    def test_rejects_off_grid_sample_time_before_stepping(self, scenario, monkeypatch):
        params, y0 = scenario

        def no_run(*args, **kwargs):
            raise AssertionError("stepped before the sample times were checked")

        monkeypatch.setattr("fracepi.fitting.simulate_fractional", no_run)
        for times in ([10.0, 150.0], [-1.0, 10.0], [150.0, 10.0]):
            with pytest.raises(ValueError, match="outside the simulated span"):
                generate_synthetic(params, y0, alpha_star=0.95, n_order=7,
                                   sample_times=times, noise_pct=0.0, seed=1,
                                   grid=TimeGrid(0.0, 100.0, 0.01))

    def test_rejects_negative_noise(self, scenario):
        params, y0 = scenario
        with pytest.raises(ValueError, match="noise_pct"):
            generate_synthetic(params, y0, alpha_star=0.95, n_order=7,
                               sample_times=SAMPLE_TIMES, noise_pct=-1.0,
                               seed=1, grid=FIT_GRID)
