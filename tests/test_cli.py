import contextlib
import io
import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from fracepi.cli import (ConfigError, load_scenario_config, main,
                         read_observed_csv, read_trajectory_csv, write_error_curve_csv,
                         write_observed_csv, write_trajectory_csv)
from fracepi.fitting import CurvePoint, FitResult, ObservedSeries, generate_synthetic
from fracepi.integrate import TimeGrid, TimeSeries


@pytest.fixture()
def obs_csv(tmp_path, scenario):
    params, y0 = scenario
    grid = TimeGrid(0.0, 30.0, 0.05)
    obs = generate_synthetic(params, y0, alpha_star=0.95, n_order=7,
                             sample_times=np.arange(5.0, 30.1, 5.0),
                             noise_pct=0.0, seed=2, grid=grid)
    path = tmp_path / "obs.csv"
    with open(path, "w", newline="") as fh:
        write_observed_csv(fh, obs)
    return path


class TestScenarioConfig:
    def test_empty_file_gives_default_scenario(self, tmp_path, scenario):
        params, y0 = scenario
        path = tmp_path / "empty.cfg"
        path.write_text("")
        cfg = load_scenario_config(str(path))
        assert cfg.params == params
        assert cfg.initial == y0
        assert cfg.alpha == 1.0
        assert cfg.order_n == 7
        assert cfg.t_end == 100.0
        assert cfg.step == 0.01
        assert cfg.epsilon == 1e-6

    def test_alpha_override_keeps_defaults(self, tmp_path, scenario):
        params, y0 = scenario
        path = tmp_path / "alpha.cfg"
        path.write_text("alpha = 0.987\n")
        cfg = load_scenario_config(str(path))
        assert cfg.alpha == 0.987
        assert cfg.params == params
        assert cfg.initial == y0

    def test_comments_and_blank_lines_ignored(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text("# a comment\n\nalpha = 0.95  # trailing comment\n")
        assert load_scenario_config(str(path)).alpha == 0.95

    def test_alpha_out_of_bounds_names_the_constraint(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("alpha = 1.5\n")
        with pytest.raises(ConfigError, match="0 < alpha <= 1"):
            load_scenario_config(str(path))

    def test_unknown_key_names_the_line(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("alpha = 0.9\nfoo = 1\n")
        with pytest.raises(ConfigError, match=r"bad\.cfg:2.*unknown key 'foo'"):
            load_scenario_config(str(path))

    def test_unparsable_value_names_the_line(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("alpha = fast\n")
        with pytest.raises(ConfigError, match=r"bad\.cfg:1.*'fast'"):
            load_scenario_config(str(path))

    def test_duplicate_key_rejected(self, tmp_path):
        path = tmp_path / "dup.cfg"
        path.write_text("alpha = 0.9\nalpha = 0.8\n")
        with pytest.raises(ConfigError, match="duplicate"):
            load_scenario_config(str(path))

    def test_population_rescale_derives_dependents(self, tmp_path):
        path = tmp_path / "scale.cfg"
        path.write_text("n_h = 1000\nm_ratio = 2\ni_h0 = 10\n")
        cfg = load_scenario_config(str(path))
        assert cfg.params.n_m == 2000.0
        assert cfg.initial.s_h == 990.0
        assert cfg.initial.s_m == 2000.0

    def test_inconsistent_initial_sum_rejected(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("s_h0 = 56000\n")  # 56000 + 216 > n_h
        with pytest.raises(ConfigError, match="n_h"):
            load_scenario_config(str(path))


class TestCsvRoundTrips:
    def test_trajectory_round_trip_is_value_identical(self, tmp_path):
        times = np.linspace(0.0, 1.0, 7)
        values = np.column_stack([np.pi * times, np.exp(times)])
        series = TimeSeries(times=times, values=values, columns=("a", "b"))
        path = tmp_path / "t.csv"
        with open(path, "w", newline="") as fh:
            write_trajectory_csv(fh, series)
        back = read_trajectory_csv(str(path))
        assert np.array_equal(back.times, series.times)
        assert np.array_equal(back.values, series.values)
        assert back.columns == ("a", "b")

    def test_observed_round_trip(self, tmp_path, obs_csv):
        obs = read_observed_csv(str(obs_csv))
        path = tmp_path / "again.csv"
        with open(path, "w", newline="") as fh:
            write_observed_csv(fh, obs)
        assert path.read_bytes() == obs_csv.read_bytes()

    def test_tables_match_pinned_bytes(self, capsys):
        # Expected strings written by the csv.writer-based writers they replaced.
        fh = io.StringIO()
        write_trajectory_csv(fh, TimeSeries(
            times=[-0.0, 0.1, 1e16], columns=("a", "b"),
            values=[[5e-324, math.nan], [math.inf, -math.inf], [1 / 3, -2.5]]))
        assert fh.getvalue() == ("t,a,b\n-0,4.9406564584124654e-324,nan\n"
                                 "0.10000000000000001,inf,-inf\n"
                                 "10000000000000000,0.33333333333333331,-2.5\n")
        fh = io.StringIO()
        write_observed_csv(fh, ObservedSeries(times=[-0.0, 0.1, 1e16],
                                              infected=[5e-324, 0.1, 1e16]))
        assert fh.getvalue() == ("t,I_h_obs\n-0,4.9406564584124654e-324\n"
                                 "0.10000000000000001,0.10000000000000001\n"
                                 "10000000000000000,10000000000000000\n")
        fh = io.StringIO()
        write_error_curve_csv(fh, FitResult(best_alpha=0.9, best_error_pct=0.1, error_curve=(
            CurvePoint(0.9, 0.1, "ok"), CurvePoint(0.95, math.inf, "failed"),
            CurvePoint(1.0, math.nan, "ok"))))
        assert fh.getvalue() == ("alpha,error_pct,status\n"
                                 "0.90000000000000002,0.10000000000000001,ok\n"
                                 "0.94999999999999996,inf,failed\n1,nan,ok\n")
        assert main(["deriv", "--alpha", "0.5", "--order", "3", "--function", "t2",
                     "--t-end", "0.02", "--step", "0.01"]) == 0
        assert capsys.readouterr().out == (
            "t,expansion,grunwald,closed_form\n"
            "0.01,0.0014104739588693908,0.001,0.0015045055561273501\n"
            "0.02,0.0043135634068404921,0.0035000000000000001,0.0042553843242819477\n")

    def test_observed_header_enforced(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("time,cases\n1,2\n")
        with pytest.raises(ValueError, match="I_h_obs"):
            read_observed_csv(str(path))


class TestCommands:
    def test_coeffs_prints_hand_values(self, capsys):
        assert main(["coeffs", "--alpha", "0.5", "--order", "2"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        table = dict(line.split() for line in lines)
        assert float(table["A"]) == pytest.approx(0.846284, abs=1e-5)
        assert float(table["A'"]) == pytest.approx(0.423142, abs=1e-5)
        assert float(table["C_2"]) == pytest.approx(-0.282095, abs=1e-5)

    def test_coeffs_high_order_weights_are_finite(self, capsys):
        # Separate Gamma(p-1+alpha) and (p-1)! factors overflow from p = 143 on.
        assert main(["coeffs", "--alpha", "0.5", "--order", "143"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 4 + 142
        assert all(math.isfinite(float(line.split()[1])) for line in lines)

    def test_coeffs_rejects_classical_alpha(self, capsys):
        assert main(["coeffs", "--alpha", "1.0", "--order", "2"]) == 1
        assert "error: validation:" in capsys.readouterr().err

    def test_simulate_classical_conserves_hosts(self, tmp_path, capsys):
        out = tmp_path / "traj.csv"
        cfg = tmp_path / "s.cfg"
        cfg.write_text("t_end = 20\nstep = 0.05\n")
        assert main(["simulate", "--config", str(cfg), "--alpha", "1.0",
                     "--out", str(out)]) == 0
        series = read_trajectory_csv(str(out))
        totals = (series.column("S_h") + series.column("I_h")
                  + series.column("R_h"))
        assert np.max(np.abs(totals - 56000.0)) / 56000.0 < 1e-9

    def test_simulate_is_deterministic(self, tmp_path):
        cfg = tmp_path / "s.cfg"
        cfg.write_text("alpha = 0.95\nt_end = 10\nstep = 0.05\n")
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(["simulate", "--config", str(cfg), "--out", str(out1)]) == 0
        assert main(["simulate", "--config", str(cfg), "--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_simulate_include_aux(self, tmp_path):
        cfg = tmp_path / "s.cfg"
        cfg.write_text("alpha = 0.9\norder_n = 3\nt_end = 5\nstep = 0.05\n")
        out = tmp_path / "aux.csv"
        assert main(["simulate", "--config", str(cfg), "--include-aux",
                     "--out", str(out)]) == 0
        series = read_trajectory_csv(str(out))
        assert len(series.columns) == 15
        assert "V2_S_h" in series.columns
        assert np.all(series.values[0, 5:] == 0.0)

    def test_simulate_blow_up_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "s.cfg"
        cfg.write_text("alpha = 0.3\nt_end = 100\nstep = 2\n")
        out = tmp_path / "traj.csv"
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: numerical:")
        assert "t = " in err

    def test_simulate_huge_grid_exits_1(self, tmp_path, capsys):
        # 1e13 nodes: rejected by validation before anything is allocated.
        cfg = tmp_path / "s.cfg"
        cfg.write_text("t_end = 1e11\n")
        assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "t.csv")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: validation:")
        assert len(err.splitlines()) == 1

    def test_simulate_high_order_blow_up_exits_2(self, tmp_path, capsys):
        out = tmp_path / "traj.csv"
        assert main(["simulate", "--alpha", "0.95", "--order", "200",
                     "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: numerical:")
        assert len(err.splitlines()) == 1

    def test_fit_recovers_synthetic_alpha(self, tmp_path, capsys, obs_csv):
        cfg = tmp_path / "s.cfg"
        cfg.write_text("t_end = 30\nstep = 0.05\n")
        out = tmp_path / "curve.csv"
        assert main(["fit", "--config", str(cfg), "--data", str(obs_csv),
                     "--alpha-min", "0.93", "--alpha-max", "0.97",
                     "--alpha-step", "0.01", "--out", str(out)]) == 0
        stdout = capsys.readouterr().out
        assert "best_alpha 0.950" in stdout
        rows = out.read_text().strip().splitlines()
        assert rows[0] == "alpha,error_pct,status"
        assert len(rows) == 6
        assert all(row.endswith(",ok") for row in rows[1:])

    def test_fit_curve_is_deterministic(self, tmp_path, obs_csv):
        cfg = tmp_path / "s.cfg"
        cfg.write_text("t_end = 30\nstep = 0.05\n")
        out1, out2 = tmp_path / "c1.csv", tmp_path / "c2.csv"
        for out in (out1, out2):
            assert main(["fit", "--config", str(cfg), "--data", str(obs_csv),
                         "--alpha-min", "0.94", "--alpha-max", "0.96",
                         "--alpha-step", "0.01", "--out", str(out)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_deriv_tracks_closed_form(self, tmp_path):
        out = tmp_path / "deriv.csv"
        assert main(["deriv", "--alpha", "0.5", "--order", "15", "--function", "t",
                     "--t-end", "1.0", "--step", "0.001", "--out", str(out)]) == 0
        series = read_trajectory_csv(str(out))
        closed = series.column("closed_form")
        tail = series.times >= 0.5
        for column in ("expansion", "grunwald"):
            rel = np.abs(series.column(column)[tail] - closed[tail]) / closed[tail]
            assert np.max(rel) < 0.02

    @pytest.mark.parametrize("flag,value", [("--step", "0"), ("--t-end", "inf")])
    def test_deriv_bad_window_exits_1(self, flag, value, capsys):
        assert main(["deriv", "--alpha", "0.5", "--order", "5", "--function", "t",
                     f"{flag}={value}"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: validation:")
        assert len(err.splitlines()) == 1

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_deriv_non_finite_expansion_exits_2(self, capsys):
        # t^(1-p-alpha) overflows at t = 0.001 for p up to 143.
        assert main(["deriv", "--alpha", "0.5", "--order", "143", "--function", "t",
                     "--step", "0.001"]) == 2
        captured = capsys.readouterr()
        assert "nan" not in captured.out
        assert captured.err.startswith("error: numerical:")
        assert len(captured.err.splitlines()) == 1

    def test_validate_passes(self, capsys):
        assert main(["validate"]) == 0
        out = capsys.readouterr().out
        assert "FAIL" not in out
        assert "checks passed" in out

    def test_missing_data_file_exits_1(self, tmp_path, capsys):
        assert main(["fit", "--data", str(tmp_path / "nope.csv"),
                     "--out", str(tmp_path / "c.csv")]) == 1
        assert "error: validation:" in capsys.readouterr().err

    def test_usage_error_exits_1(self, capsys):
        assert main(["simulate"]) == 1  # --out is required
        assert "error: validation:" in capsys.readouterr().err

    @pytest.mark.parametrize("command,flags", [
        ("coeffs", ["--alpha", "--order"]),
        ("deriv", ["--alpha", "--order", "--function", "--t-end", "--step", "--out"]),
        ("simulate", ["--config", "--alpha", "--order", "--include-aux", "--out"]),
        ("fit", ["--config", "--order", "--data", "--alpha-min", "--alpha-max",
                 "--alpha-step", "--out"]),
        ("validate", []),
    ])
    def test_help_exits_0_and_documents_flags(self, command, flags, capsys):
        assert main([command, "--help"]) == 0
        out = capsys.readouterr().out
        assert "usage" in out.lower()
        for flag in flags:
            assert flag in out

    def test_unknown_command_exits_1(self, capsys):
        assert main(["plot"]) == 1


# Magnitudes that every numeric flag and scenario value is also tried with.
BAD_NUMBERS = ("0", "-1", "-0.5", "nan", "inf", "-inf", "1e308")
ALPHAS = st.floats(0.05, 1.0)
ORDERS = st.integers(2, 200)
# At least 2 and at most 1 000 steps over at most 2 days, so every valid run stays small.
T_ENDS = st.floats(0.2, 2.0)
STEPS = st.floats(0.002, 0.1)
SCENARIO_VALUES = {
    "n_h": st.floats(100.0, 1e5), "m_ratio": st.floats(0.5, 5.0),
    "bite_rate": st.floats(0.1, 1.0), "beta_mh": st.floats(0.01, 1.0),
    "beta_hm": st.floats(0.01, 1.0), "mu_m": st.floats(0.01, 0.5),
    "eta_h": st.floats(0.05, 1.0), "i_h0": st.floats(0.0, 100.0),
    "r_h0": st.floats(0.0, 100.0), "i_m0": st.floats(0.0, 100.0),
    "alpha": ALPHAS, "order_n": ORDERS, "epsilon": st.floats(1e-8, 1e-3),
}


def _number(valid):
    # Three parts valid to one part bad, so that many examples get past validation.
    return st.one_of(*[valid.map(repr)] * 3, st.sampled_from(BAD_NUMBERS))


def _flag(name, valid):
    return _number(valid).map(lambda value: [f"{name}={value}"])


def _optional_flag(name, valid):
    return st.one_of(st.just([]), _flag(name, valid))


@st.composite
def coeffs_argv(draw):
    return ["coeffs"] + draw(_flag("--alpha", ALPHAS)) + draw(_flag("--order", ORDERS))


@st.composite
def deriv_argv(draw):
    function = draw(st.sampled_from(["t", "const", "t2"] * 3 + ["t3"]))
    return (["deriv", f"--function={function}"] + draw(_flag("--alpha", ALPHAS))
            + draw(_flag("--order", ORDERS)) + draw(_optional_flag("--t-end", T_ENDS))
            + draw(_optional_flag("--step", STEPS)))


@st.composite
def scenario_text(draw):
    lines = [f"t_end = {draw(_number(T_ENDS))}", f"step = {draw(_number(STEPS))}"]
    for key in draw(st.lists(st.sampled_from(sorted(SCENARIO_VALUES)), max_size=4,
                             unique=True)):
        lines.append(f"{key} = {draw(_number(SCENARIO_VALUES[key]))}")
    if draw(st.integers(0, 3)) == 3:
        lines.append(draw(st.text(st.characters(blacklist_categories=("Cs",)), max_size=20)))
    return "\n".join(draw(st.permutations(lines))) + "\n"


@st.composite
def simulate_flags(draw):
    return (draw(_optional_flag("--alpha", ALPHAS)) + draw(_optional_flag("--order", ORDERS))
            + draw(st.sampled_from([[], ["--include-aux"]])))


def _assert_cli_contract(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    stderr = err.getvalue()
    assert "Traceback" not in stderr
    assert code in (0, 1, 2)
    if code:
        errors = [line for line in stderr.splitlines() if line.startswith("error:")]
        kind = "validation" if code == 1 else "numerical"
        assert len(errors) == 1 and errors[0].startswith(f"error: {kind}: "), stderr


_PROPERTY_SETTINGS = settings(max_examples=100, deadline=None, database=None,
                              suppress_health_check=[HealthCheck.function_scoped_fixture])


class TestCliContractProperty:
    """Any flags or scenario text end in exit 0, 1 or 2, never a traceback."""

    @_PROPERTY_SETTINGS
    @given(argv=coeffs_argv())
    def test_coeffs(self, argv):
        _assert_cli_contract(argv)

    @_PROPERTY_SETTINGS
    @given(argv=deriv_argv())
    def test_deriv(self, argv):
        _assert_cli_contract(argv)

    @_PROPERTY_SETTINGS
    @given(text=scenario_text(), flags=simulate_flags())
    def test_simulate(self, tmp_path, text, flags):
        config = tmp_path / "scenario.cfg"
        config.write_text(text, encoding="utf-8")
        _assert_cli_contract(["simulate", "--config", str(config), *flags,
                              "--out", str(tmp_path / "traj.csv")])
