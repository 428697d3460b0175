import math

import numpy as np
import pytest

from fracepi.expansion import (MAX_ORDER, DegenerateCoefficientError, ExpansionCoefficients,
                               ExpansionConfig, PoleError, approx_rl_derivative_on_grid,
                               coeff_a, coeff_a_prime, coeff_c, expand_system, gamma)
from fracepi.grunwald import gl_derivative_on_grid, power_rule_exact
from fracepi.integrate import TimeGrid

SQRT_PI = math.sqrt(math.pi)


def _away_from_poles(x, threshold=1e-3):
    nearest = round(x)
    return nearest > 0 or abs(x - nearest) >= threshold


class TestGamma:
    def test_factorials(self):
        assert gamma(1.0) == pytest.approx(1.0, rel=1e-14)
        assert gamma(5.0) == pytest.approx(24.0, rel=1e-14)
        assert gamma(10.0) == pytest.approx(362880.0, rel=1e-13)

    def test_half_integers(self):
        assert gamma(0.5) == pytest.approx(SQRT_PI, rel=1e-12)
        assert gamma(1.5) == pytest.approx(0.5 * SQRT_PI, rel=1e-13)
        assert gamma(-0.5) == pytest.approx(-2.0 * SQRT_PI, rel=1e-13)

    @pytest.mark.parametrize("x", [0.0, -1.0, -7.0, -3.0 + 5e-13, -2.0 - 1e-15])
    def test_poles_rejected(self, x):
        with pytest.raises(PoleError):
            gamma(x)

    @pytest.mark.parametrize("x", [math.nan, math.inf, -math.inf])
    def test_non_finite_rejected(self, x):
        with pytest.raises(ValueError):
            gamma(x)

    def test_recurrence_identity(self, rng):
        # gamma(x + 1) = x * gamma(x) on 1000 random points of (-2, 5),
        # skipping 1e-3 neighbourhoods of the poles.
        count = 0
        while count < 1000:
            x = rng.uniform(-2.0, 5.0)
            if x == 0.0 or not _away_from_poles(x) or not _away_from_poles(x + 1.0):
                continue
            lhs = gamma(x + 1.0)
            rhs = x * gamma(x)
            assert lhs == pytest.approx(rhs, rel=1e-10)
            count += 1

    def test_reflection_identity(self, rng):
        # gamma(x) gamma(1-x) sin(pi x) = pi for non-integer x in (-3, 3).
        count = 0
        while count < 1000:
            x = rng.uniform(-3.0, 3.0)
            if abs(x - round(x)) < 1e-3:
                continue
            product = gamma(x) * gamma(1.0 - x) * math.sin(math.pi * x) / math.pi
            assert product == pytest.approx(1.0, rel=1e-10)
            count += 1


class TestCoefficients:
    # Expected values are hand evaluations of the gamma ratios:
    # Gamma(1.5)/Gamma(0.5) = 1/2, Gamma(2.5)/Gamma(0.5) = 3/4,
    # Gamma(0.5)/Gamma(-0.5) = -1/2, Gamma(1.5)/Gamma(-0.5) = -1/4.
    def test_a_hand_values(self):
        assert coeff_a(0.5, 2) == pytest.approx(1.5 / SQRT_PI, rel=1e-12)
        assert coeff_a(0.5, 3) == pytest.approx(1.875 / SQRT_PI, rel=1e-12)

    def test_a_prime_hand_values(self):
        assert coeff_a_prime(0.5, 2) == pytest.approx(0.75 / SQRT_PI, rel=1e-12)
        assert coeff_a_prime(0.5, 1) == pytest.approx(1.0 / SQRT_PI, rel=1e-12)

    def test_c_hand_value(self):
        assert coeff_c(0.5, 2) == pytest.approx(-0.5 / SQRT_PI, rel=1e-12)

    def test_a_vanishes_near_classical_order(self):
        assert coeff_a(0.999, 7) < 0.01

    def test_classical_limit(self):
        alpha = 1.0 - 1e-6
        assert abs(coeff_a(alpha, 7)) < 1e-2
        assert abs(coeff_a_prime(alpha, 7) - 1.0) < 1e-2
        for p in range(2, 8):
            assert abs(coeff_c(alpha, p)) < 1e-2

    @pytest.mark.parametrize("alpha", [0.1, 0.3, 0.5, 0.7, 0.9])
    def test_signs(self, alpha):
        for n in range(2, 26):
            assert coeff_a(alpha, n) > 0
        for p in range(2, 26):
            assert coeff_c(alpha, p) < 0

    @pytest.mark.parametrize("alpha", [0.1, 0.3, 0.5, 0.7, 0.9, 0.95, 0.99, 0.999])
    def test_recurrence_matches_gamma_ratio_formula(self, alpha):
        # Reference: the weights written with separate Gamma(p-1+alpha) and
        # (p-1)! factors, which stay finite up to N = 40.
        def ratio(p):
            return math.gamma(p - 1 + alpha) / (math.gamma(alpha) * math.factorial(p - 1))

        for n in range(2, 41):
            a = (1.0 + sum(ratio(p) for p in range(2, n + 1))) / math.gamma(1.0 - alpha)
            ap = (1.0 + sum(ratio(p) * (alpha - 1.0) / p for p in range(1, n + 1))) \
                / math.gamma(2.0 - alpha)
            assert coeff_a(alpha, n) == pytest.approx(a, rel=1e-12)
            assert coeff_a_prime(alpha, n) == pytest.approx(ap, rel=1e-12)
            c = (alpha - 1.0) * ratio(n) / math.gamma(2.0 - alpha)
            assert coeff_c(alpha, n) == pytest.approx(c, rel=1e-12)

    def test_high_orders_stay_finite(self):
        coefs = ExpansionCoefficients.from_config(ExpansionConfig(alpha=0.5, order_n=400))
        assert np.all(np.isfinite(coefs.c_coefs))
        assert np.all(coefs.c_coefs < 0)

    def test_alpha_one_rejected(self):
        with pytest.raises(ValueError):
            coeff_a(1.0, 5)
        with pytest.raises(ValueError):
            ExpansionCoefficients.from_config(ExpansionConfig(alpha=1.0, order_n=5))

    def test_order_just_below_one_refused_by_the_alpha_rule_not_gamma(self):
        # 1 - alpha = 1e-13 puts Gamma(1-alpha) within the pole tolerance.
        rule = r"alpha in \(0, 1\), more than 1e-12 below 1, got 0\.9999999999999;"
        with pytest.raises(ValueError, match=rule) as info:
            coeff_a(1 - 1e-13, 7)
        assert not isinstance(info.value, PoleError)

    def test_low_order_and_index_rejected(self):
        with pytest.raises(ValueError, match="order_n must be >= 1"):
            coeff_a(0.5, 0)
        with pytest.raises(ValueError, match="p must be >= 2"):
            coeff_c(0.5, 1)

    @pytest.mark.parametrize("a_coef, c_coefs", [(math.inf, [-0.1]), (1.0, [-0.1, math.nan])])
    def test_non_finite_weights_rejected(self, a_coef, c_coefs):
        with pytest.raises(ValueError, match="finite"):
            ExpansionCoefficients(a_coef=a_coef, a_prime_coef=1.0, c_coefs=c_coefs)

    def test_bundle_matches_scalars(self):
        cfg = ExpansionConfig(alpha=0.7, order_n=9)
        coefs = ExpansionCoefficients.from_config(cfg)
        assert coefs.a_coef == coeff_a(0.7, 9)
        assert coefs.a_prime_coef == coeff_a_prime(0.7, 9)
        assert len(coefs.c_coefs) == 8
        for p in range(2, 10):
            assert coefs.c_coefs[p - 2] == coeff_c(0.7, p)

    def test_degenerate_a_prime_rejected(self):
        with pytest.raises(DegenerateCoefficientError):
            ExpansionCoefficients(a_coef=1.0, a_prime_coef=1e-9, c_coefs=[-0.1])
        # A' ~ alpha/7 as alpha -> 0, so a tiny order drives it under the floor.
        assert abs(coeff_a_prime(1e-8, 7)) <= 1e-8
        with pytest.raises(DegenerateCoefficientError):
            ExpansionCoefficients.from_config(ExpansionConfig(alpha=1e-8, order_n=7))


class TestExpansionConfig:
    @pytest.mark.parametrize("alpha", [0.0, -0.2, 1.2, math.nan])
    def test_alpha_bounds(self, alpha):
        with pytest.raises(ValueError):
            ExpansionConfig(alpha=alpha, order_n=5)

    @pytest.mark.parametrize("order_n", [1, 0, -3, MAX_ORDER + 1])
    def test_order_bounds(self, order_n):
        with pytest.raises(ValueError):
            ExpansionConfig(alpha=0.5, order_n=order_n)

    def test_order_must_be_integer(self):
        with pytest.raises(ValueError):
            ExpansionConfig(alpha=0.5, order_n=2.5)

    def test_alpha_one_is_valid(self):
        cfg = ExpansionConfig(alpha=1.0, order_n=3)
        assert cfg.alpha == 1.0


# Both derivative evaluators, called alike on (grid, values).
EVALUATORS = {
    "expansion": lambda grid, values: approx_rl_derivative_on_grid(grid, values,
                                                                   ExpansionConfig(0.5, 5)),
    "grunwald": lambda grid, values: gl_derivative_on_grid(grid, values, 0.5),
}


class TestGridSamples:
    def test_rejects_non_commensurate_grid(self):
        # Nodes 0, 0.3, 0.6, 0.9, 1: no one step h describes them, so the
        # grid cannot be built and no evaluator sees one.
        with pytest.raises(ValueError, match="commensurate") as info:
            TimeGrid(0.0, 1.0, 0.3)
        assert "steps of 0.3 and 0.1" in str(info.value)

    def test_rejects_short(self):
        # A grid of fewer than two steps cannot be built, so no evaluator sees one.
        with pytest.raises(ValueError, match="two steps"):
            TimeGrid(0.0, 1.0, 0.6)

    def test_rejects_non_finite(self):
        grid = TimeGrid(0.0, 1.0, 0.5)
        for evaluate in EVALUATORS.values():
            with pytest.raises(ValueError, match="finite"):
                evaluate(grid, [1.0, math.nan, 1.0])

    def test_rejects_wrong_length(self):
        grid = TimeGrid(0.0, 1.0, 0.25)
        for evaluate in EVALUATORS.values():
            for num in (4, 6):
                with pytest.raises(ValueError, match="one sample per node"):
                    evaluate(grid, np.ones(num))


def _unit_grid(num):
    # num nodes on [0, 1]: the nodes of np.linspace(0, 1, num), bit for bit.
    return TimeGrid(0.0, 1.0, 1.0 / (num - 1))


class TestApproxRlDerivative:
    def test_constant_approaches_closed_form(self):
        grid = _unit_grid(1001)
        target = power_rule_exact(0.5, 0, 1.0)
        approx = approx_rl_derivative_on_grid(grid, np.ones(1001), ExpansionConfig(0.5, 20))[-1]
        assert approx == pytest.approx(target, rel=1e-3)

    def test_linear_error_not_worse_with_order_beyond_quadrature_floor(self):
        # The expansion is exact for affine inputs at every order, so the
        # measured error is purely the trapezoid floor of the V_p moments.
        # That floor grows with N (larger weights amplify it), hence the
        # comparison allows it explicitly; transcription bugs would exceed
        # the floor by orders of magnitude.
        grid = _unit_grid(1001)
        ts, h = grid.uniform_nodes()
        target = power_rule_exact(0.5, 1, 1.0)
        err5 = abs(approx_rl_derivative_on_grid(grid, ts, ExpansionConfig(0.5, 5))[-1] - target)
        err20 = abs(approx_rl_derivative_on_grid(grid, ts, ExpansionConfig(0.5, 20))[-1] - target)
        floor = _trapezoid_floor(0.5, 20, h)
        assert err5 <= floor
        assert err20 <= err5 + floor

    def test_quadratic_error_shrinks_with_order(self):
        grid = _unit_grid(1001)
        t2 = grid.nodes() ** 2
        target = power_rule_exact(0.5, 2, 1.0)
        err5 = abs(approx_rl_derivative_on_grid(grid, t2, ExpansionConfig(0.5, 5))[-1] - target)
        err20 = abs(approx_rl_derivative_on_grid(grid, t2, ExpansionConfig(0.5, 20))[-1] - target)
        assert err20 <= err5

    def test_linearity(self):
        grid = _unit_grid(501)
        ts = grid.nodes()
        u = np.sin(3.0 * ts) + 1.5
        v = ts ** 1.5 + 0.2
        cfg = ExpansionConfig(0.5, 8)
        lhs = approx_rl_derivative_on_grid(grid, 2.0 * u + 3.0 * v, cfg)[-1]
        rhs = (2.0 * approx_rl_derivative_on_grid(grid, u, cfg)[-1]
               + 3.0 * approx_rl_derivative_on_grid(grid, v, cfg)[-1])
        assert lhs == pytest.approx(rhs, rel=1e-11)

    def test_rejects_classical_order(self):
        grid = _unit_grid(101)
        with pytest.raises(ValueError, match=r"alpha in \(0, 1\)"):
            approx_rl_derivative_on_grid(grid, grid.nodes(), ExpansionConfig(1.0, 5))

    def test_rejects_mismatched_terminal(self):
        # The grid rule: no tolerance around t = 0.
        for t_start, t_end, step in ((0.5, 1.0, 0.5 / 100), (1e-12, 1.0, 0.01)):
            with pytest.raises(ValueError, match="lower terminal"):
                TimeGrid(t_start, t_end, step)


def _trapezoid_floor(alpha, order_n, step):
    # Composite-trapezoid error of the V_p moments of an affine input:
    # each integral of (1-p) tau^(p-1) carries ~h^2 (p-1)^2 / 12, weighted
    # by |C_p|.  Factor 2 of headroom on top of the leading-order bound.
    total = sum(abs(coeff_c(alpha, p)) * (p - 1) ** 2 for p in range(2, order_n + 1))
    return 2.0 * step ** 2 * total / 12.0


class TestExpandSystem:
    @pytest.mark.parametrize("dim", [1, 2, 3, 4, 5])
    @pytest.mark.parametrize("order_n", [2, 5, 10])
    def test_dimension_law(self, dim, order_n):
        def f(t, x):
            return -x

        field = expand_system(f, [ExpansionConfig(alpha=0.6, order_n=order_n)])
        out = field(1.0, np.ones((1, dim * order_n)))
        assert out.shape == (1, dim * order_n)
        assert np.all(np.isfinite(out))

    def test_five_state_order_seven_gives_35(self):
        field = expand_system(lambda t, x: -x, [ExpansionConfig(alpha=0.9, order_n=7)])
        assert field(1.0, np.ones((1, 35))).shape == (1, 35)

    def test_rejects_classical_alpha(self):
        # alpha = 1 has no expansion; the classical bypass lives in simulate_fractional.
        with pytest.raises(ValueError, match=r"alpha in \(0, 1\)"):
            expand_system(lambda t, x: -x, [ExpansionConfig(alpha=1.0, order_n=4)])

    def test_rhs_matches_hand_assembled_formula(self):
        # One-state system checked against the defining formula assembled
        # inline from the scalar weights.
        alpha, n = 0.6, 3
        cfg = ExpansionConfig(alpha=alpha, order_n=n)

        def f(t, x):
            return np.array([0.25 * x[0] + t])

        field = expand_system(f, [cfg])
        t, x, v2, v3 = 2.0, 1.7, 0.3, -0.2
        a = coeff_a(alpha, n)
        ap = coeff_a_prime(alpha, n)
        bracket = ((0.25 * x + t) - a * t ** (-alpha) * x
                   + coeff_c(alpha, 2) * t ** (1.0 - 2 - alpha) * v2
                   + coeff_c(alpha, 3) * t ** (1.0 - 3 - alpha) * v3)
        expected_dx = bracket * t ** (alpha - 1.0) / ap
        out = field(t, np.array([[x, v2, v3]]))[0]
        assert out[0] == pytest.approx(expected_dx, rel=1e-13)
        assert out[1] == pytest.approx((1.0 - 2) * t ** 0 * x, rel=1e-13)
        assert out[2] == pytest.approx((1.0 - 3) * t ** 1 * x, rel=1e-13)

    def test_batch_rows_equal_single_configs_bitwise(self, rng):
        cfgs = [ExpansionConfig(alpha=a, order_n=6) for a in (0.3, 0.75, 0.9)]

        def f(t, x):
            return 0.5 * x * x - t

        y = rng.uniform(-2.0, 2.0, (3, 2 * 6))
        batched = expand_system(f, cfgs)
        for t in (1e-3, 0.7, 3.0):
            out = batched(t, y)
            assert out.shape == (3, 12)
            for cfg, row, got in zip(cfgs, y, out):
                assert np.array_equal(got, expand_system(f, [cfg])(t, row[None])[0])

    @pytest.mark.parametrize("orders", [[], [7, 8]])
    def test_batch_rejects_empty_or_mixed_orders(self, orders):
        with pytest.raises(ValueError, match="one order"):
            expand_system(lambda t, x: -x, [ExpansionConfig(0.9, n) for n in orders])

    def test_rejects_a_bare_config(self):
        # A single run is a list of one config; a bare config is not a sequence.
        with pytest.raises(TypeError):
            expand_system(lambda t, x: -x, ExpansionConfig(alpha=0.9, order_n=7))

    def test_degenerate_coefficients_propagate(self):
        with pytest.raises(DegenerateCoefficientError):
            expand_system(lambda t, x: -x, [ExpansionConfig(alpha=1e-8, order_n=7)])
