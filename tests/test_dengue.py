import numpy as np
import pytest

from fracepi.dengue import (ModelParams, StateVector, check_population_balance,
                            classical_rhs, default_scenario, population_drift)


class TestModelParams:
    def test_default_values_pinned(self, scenario):
        params, _ = scenario
        assert params.n_h == 56000.0
        assert params.n_m == 168000.0
        assert params.bite_rate == 0.7
        assert params.beta_mh == 0.36
        assert params.beta_hm == 0.36
        assert params.mu_h == 1.0 / (71 * 365)
        assert params.mu_m == 0.1
        assert params.eta_h == 1.0 / 3.0

    def test_rejects_probability_above_one(self):
        with pytest.raises(ValueError, match="beta_mh"):
            ModelParams(n_h=100.0, n_m=300.0, bite_rate=0.5,
                        beta_mh=1.2, beta_hm=0.3, mu_h=0.01, mu_m=0.1, eta_h=0.3)

    def test_rejects_negative_rate(self):
        with pytest.raises(ValueError, match="mu_m"):
            ModelParams(n_h=100.0, n_m=300.0, bite_rate=0.5,
                        beta_mh=0.3, beta_hm=0.3, mu_h=0.01, mu_m=-0.1, eta_h=0.3)


class TestStateVector:
    def test_default_initial_state_pinned(self, scenario):
        _, y0 = scenario
        assert y0.s_h == 55784.0
        assert y0.i_h == 216.0
        assert y0.r_h == 0.0
        assert y0.s_m == 168000.0
        assert y0.i_m == 0.0
        assert y0.total_hosts == 56000.0
        assert y0.total_mosquitoes == 168000.0

    def test_rejects_negative_compartment(self):
        with pytest.raises(ValueError, match="i_h"):
            StateVector(s_h=10.0, i_h=-1.0, r_h=0.0, s_m=1.0, i_m=0.0)

    def test_rejects_infinite_compartment(self):
        with pytest.raises(ValueError, match="s_m must be finite"):
            StateVector(s_h=10.0, i_h=1.0, r_h=0.0, s_m=np.inf, i_m=0.0)

    def test_array_round_trip(self):
        y = StateVector(s_h=1.0, i_h=2.0, r_h=3.0, s_m=4.0, i_m=5.0)
        assert StateVector(*y.as_array()) == y


class TestCheckPopulationBalance:
    def test_default_scenario_is_balanced(self, scenario):
        check_population_balance(*scenario)

    @pytest.mark.parametrize("field,total", [("r_h", "n_h"), ("i_m", "n_m")])
    def test_names_the_unbalanced_total(self, scenario, field, total):
        params, y0 = scenario
        unbalanced = StateVector(**{**y0.__dict__, field: 5.0})
        with pytest.raises(ValueError, match=f"expected {total} ="):
            check_population_balance(params, unbalanced)


class TestClassicalRhs:
    def test_initial_infected_decay(self, scenario):
        # No infected mosquitoes yet, so I_h only drains:
        # dI_h = -(eta_h + mu_h) * 216.
        params, y0 = scenario
        dy = classical_rhs(0.0, y0.as_array(), params)
        expected = -(1.0 / 3.0 + 1.0 / (71 * 365)) * 216.0
        assert dy[1] == pytest.approx(expected, rel=1e-12)
        assert expected == pytest.approx(-72.0083, abs=5e-5)

    def test_initial_mosquito_infection_flow(self, scenario):
        # dS_m at t=0: -B beta_hm (I_h/N_h) S_m with totals balanced.
        params, y0 = scenario
        dy = classical_rhs(0.0, y0.as_array(), params)
        expected = -0.7 * 0.36 * (216.0 / 56000.0) * 168000.0
        assert dy[3] == pytest.approx(expected, rel=1e-12)
        assert expected == pytest.approx(-163.296, abs=1e-3)

    def test_conserves_totals_identically(self, scenario, rng):
        params, _ = scenario
        for _ in range(50):
            split_h = rng.dirichlet([1.0, 1.0, 1.0]) * params.n_h
            split_m = rng.dirichlet([1.0, 1.0]) * params.n_m
            y = np.concatenate([split_h, split_m])
            dy = classical_rhs(rng.uniform(0.0, 50.0), y, params)
            assert dy[0] + dy[1] + dy[2] == pytest.approx(0.0, abs=1e-9)
            assert dy[3] + dy[4] == pytest.approx(0.0, abs=1e-9)

    def test_affine_in_each_compartment(self, scenario, rng):
        # Second differences along each coordinate vanish.
        params, y0 = scenario
        base = y0.as_array() + rng.uniform(0.0, 100.0, 5)
        for j in range(5):
            step = np.zeros(5)
            step[j] = 37.5
            second_diff = (classical_rhs(0.0, base + 2 * step, params)
                           - 2.0 * classical_rhs(0.0, base + step, params)
                           + classical_rhs(0.0, base, params))
            assert np.max(np.abs(second_diff)) < 1e-7

    def test_disease_free_is_invariant(self, scenario):
        params, _ = scenario
        y = np.array([params.n_h, 0.0, 0.0, params.n_m, 0.0])
        dy = classical_rhs(0.0, y, params)
        assert np.all(dy == 0.0)

    def test_batch_rows_equal_single_calls_bitwise(self, scenario, rng):
        params, _ = scenario
        batch = rng.uniform(-10.0, 1e5, (7, 5))
        dy = classical_rhs(0.0, batch, params)
        assert dy.shape == (7, 5)
        for row, out in zip(batch, dy):
            assert np.array_equal(out, classical_rhs(0.0, row, params))
            assert np.array_equal(out, classical_rhs(0.0, row.tolist(), params))


    def test_both_paths_equal_the_model_equations_bitwise(self, rng):
        # The module docstring's five equations on the parameter fields, in
        # their order of operations: the precomputed rates must not change
        # a bit on either path.
        params = ModelParams(n_h=1234.5, n_m=3703.5, bite_rate=0.61,
                             beta_mh=0.27, beta_hm=0.43, mu_h=3.7e-5, mu_m=0.071,
                             eta_h=0.29)
        states = rng.uniform(-10.0, 4000.0, (200, 5))
        rows = classical_rhs(0.0, states, params)
        p = params
        for y, row in zip(states.tolist(), rows):
            s_h, i_h, r_h, s_m, i_m = y
            expected = [
                p.mu_h * p.n_h - (p.bite_rate * p.beta_mh * i_m / p.n_h + p.mu_h) * s_h,
                p.bite_rate * p.beta_mh * i_m / p.n_h * s_h - (p.eta_h + p.mu_h) * i_h,
                p.eta_h * i_h - p.mu_h * r_h,
                p.mu_m * p.n_m - (p.bite_rate * p.beta_hm * i_h / p.n_h + p.mu_m) * s_m,
                p.bite_rate * p.beta_hm * i_h / p.n_h * s_m - p.mu_m * i_m,
            ]
            assert classical_rhs(0.0, y, params) == expected
            assert row.tolist() == expected


class TestPopulationDrift:
    def test_balanced_trajectory_has_zero_drift(self, scenario):
        params, y0 = scenario
        values = np.tile(y0.as_array(), (4, 1))
        assert population_drift(values, params) == (0.0, 0.0)

    def test_reports_relative_loss(self, scenario):
        params, y0 = scenario
        values = np.tile(y0.as_array(), (4, 1))
        values[2, 0] -= 0.01 * params.n_h
        h_drift, m_drift = population_drift(values, params)
        assert h_drift == pytest.approx(0.01, rel=1e-9)
        assert m_drift == 0.0
