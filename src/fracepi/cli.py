"""Command-line interface.

Five subcommands:

  coeffs    print the expansion weights A, A', C_2..C_N for one (alpha, N)
  deriv     tabulate expansion vs backward-difference vs closed-form values
            of the fractional derivative of a test function
  simulate  run the outbreak model (classical when alpha = 1) and write a
            trajectory CSV
  fit       grid-search the order against an observed series and write the
            error curve
  validate  run the built-in cross-check suite and report pass/fail

File formats (all plain CSV / key=value text, full 17-significant-digit
floats so a written file re-reads value-identically):

  scenario config   one `key = value` per line, `#` comments, missing keys
                    fall back to the default outbreak scenario
  trajectory CSV    header t,S_h,I_h,R_h,S_m,I_m (auxiliaries appended
                    with --include-aux)
  observed CSV      header t,I_h_obs
  error-curve CSV   header alpha,error_pct,status

Exit codes: 0 success, 1 validation error, 2 numerical failure.  Failures
print one machine-parsable line to stderr:
`error: validation: <reason>` or `error: numerical: <reason>`.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import dataclasses
import math
import sys
from typing import Iterable, Sequence, TextIO

import numpy as np

from .dengue import (ModelParams, StateVector, check_population_balance, classical_rhs,
                     default_scenario)
from .expansion import (ExpansionConfig, ExpansionCoefficients, SampledFunction,
                        approx_rl_derivative, approx_rl_derivative_on_grid, coeff_a,
                        coeff_a_prime, coeff_c, gamma)
from .fitting import FitFailedError, FitResult, ObservedSeries, fit_alpha
from .grunwald import gl_derivative_at, gl_simulate, power_rule_exact
from .integrate import (START_OFFSET, BlowUpError, TimeGrid, TimeSeries,
                        simulate_classical, simulate_fractional)

__all__ = [
    "ConfigError",
    "ScenarioConfig",
    "load_scenario_config",
    "write_trajectory_csv",
    "read_trajectory_csv",
    "write_observed_csv",
    "read_observed_csv",
    "write_error_curve_csv",
    "build_parser",
    "main",
]

_FLOAT_FMT = "%.17g"  # 17 significant digits: float64 round-trips exactly


class ConfigError(ValueError):
    """Scenario file rejected; the message names the offending line."""


@dataclasses.dataclass(frozen=True)
class ScenarioConfig:
    """A fully validated simulation setup."""

    params: ModelParams
    initial: StateVector
    alpha: float
    order_n: int
    t_end: float
    step: float
    epsilon: float

    def __post_init__(self) -> None:
        self.expansion_config()
        self.time_grid()
        if self.epsilon <= 0 or not math.isfinite(self.epsilon):
            raise ValueError(f"epsilon must be positive and finite, got {self.epsilon!r}")
        check_population_balance(self.params, self.initial)

    def expansion_config(self) -> ExpansionConfig:
        return ExpansionConfig(alpha=self.alpha, order_n=self.order_n)

    def time_grid(self) -> TimeGrid:
        return TimeGrid(t_start=0.0, t_end=self.t_end, step=self.step)


_MODEL_KEYS = ("n_h", "n_m", "m_ratio", "bite_rate", "beta_mh", "beta_hm",
               "mu_h", "mu_m", "eta_h")
_STATE_KEYS = ("s_h0", "i_h0", "r_h0", "s_m0", "i_m0")
_RUN_KEYS = ("alpha", "order_n", "t_end", "step", "epsilon")
_CONFIG_KEYS = _MODEL_KEYS + _STATE_KEYS + _RUN_KEYS

_RUN_DEFAULTS = {"alpha": 1.0, "order_n": 7, "t_end": 100.0, "step": 0.01,
                 "epsilon": START_OFFSET}


def _parse_scenario_text(lines: Sequence[str], source: str) -> dict[str, float]:
    raw: dict[str, float] = {}
    for lineno, line in enumerate(lines, start=1):
        text = line.split("#", 1)[0].strip()
        if not text:
            continue
        if "=" not in text:
            raise ConfigError(f"{source}:{lineno}: expected 'key = value', got {text!r}")
        key, _, value = text.partition("=")
        key = key.strip()
        value = value.strip()
        if key not in _CONFIG_KEYS:
            raise ConfigError(f"{source}:{lineno}: unknown key {key!r}")
        if key in raw:
            raise ConfigError(f"{source}:{lineno}: duplicate key {key!r}")
        try:
            raw[key] = int(value) if key == "order_n" else float(value)
        except ValueError:
            raise ConfigError(
                f"{source}:{lineno}: cannot parse {value!r} as a number for {key!r}"
            ) from None
    return raw


def _scenario_from_keys(raw: dict[str, float]) -> ScenarioConfig:
    """Fill the keys missing from raw from the default outbreak scenario.

    n_m defaults to m_ratio * n_h; s_h0 and s_m0 default to whatever
    balances the population totals.
    """
    base_params, base_initial = default_scenario()
    model = {key: raw.get(key, getattr(base_params, key)) for key in _MODEL_KEYS}
    if "n_m" not in raw and ("n_h" in raw or "m_ratio" in raw):
        model["n_m"] = model["m_ratio"] * model["n_h"]
    i_h = raw.get("i_h0", base_initial.i_h)
    r_h = raw.get("r_h0", base_initial.r_h)
    i_m = raw.get("i_m0", base_initial.i_m)
    params = ModelParams(**model)
    initial = StateVector(s_h=raw.get("s_h0", model["n_h"] - i_h - r_h), i_h=i_h, r_h=r_h,
                          s_m=raw.get("s_m0", model["n_m"] - i_m), i_m=i_m)
    run = {key: raw.get(key, default) for key, default in _RUN_DEFAULTS.items()}
    return ScenarioConfig(params=params, initial=initial, **run)


def load_scenario_config(path: str) -> ScenarioConfig:
    """Parse and validate a key=value scenario file.

    Missing keys fall back to the default outbreak scenario (alpha = 1,
    N = 7, 100 days at 0.01-day steps).  n_m defaults to m_ratio * n_h;
    s_h0 and s_m0 default to whatever balances the population totals.
    """
    with open(path, encoding="utf-8") as fh:
        raw = _parse_scenario_text(fh.readlines(), path)
    try:
        return _scenario_from_keys(raw)
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from exc


# ---------------------------------------------------------------------------
# CSV formats
# ---------------------------------------------------------------------------

def _write_csv(fh: TextIO, header: Sequence[str], rows: Iterable[tuple],
               line: str | None = None) -> None:
    """Stream the header, then each row through one %-template (default: all floats)."""
    fh.write(",".join(header) + "\n")
    if line is None:
        line = ",".join([_FLOAT_FMT] * len(header)) + "\n"
    for row in rows:
        fh.write(line % row)


def write_trajectory_csv(fh: TextIO, series: TimeSeries) -> None:
    columns = series.columns or tuple(f"y{i}" for i in range(series.values.shape[1]))
    _write_csv(fh, ("t",) + columns,
               ((t, *row.tolist()) for t, row in zip(series.times, series.values)))


def read_trajectory_csv(path: str) -> TimeSeries:
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if not header or header[0] != "t":
            raise ValueError(f"{path}: expected a trajectory CSV with a 't' column first")
        rows = [[float(cell) for cell in row] for row in reader if row]
    data = np.asarray(rows, dtype=float)
    if data.size == 0:
        raise ValueError(f"{path}: no data rows")
    return TimeSeries(times=data[:, 0], values=data[:, 1:], columns=tuple(header[1:]))


def write_observed_csv(fh: TextIO, obs: ObservedSeries) -> None:
    _write_csv(fh, ("t", "I_h_obs"), zip(obs.times, obs.infected))


def read_observed_csv(path: str) -> ObservedSeries:
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != ["t", "I_h_obs"]:
            raise ValueError(f"{path}: expected header 't,I_h_obs', got {header!r}")
        rows = [(float(row[0]), float(row[1])) for row in reader if row]
    if not rows:
        raise ValueError(f"{path}: no data rows")
    times, infected = zip(*rows)
    return ObservedSeries(times=np.array(times), infected=np.array(infected))


def write_error_curve_csv(fh: TextIO, result: FitResult) -> None:
    _write_csv(fh, ("alpha", "error_pct", "status"),
               ((p.alpha, p.error_pct, p.status) for p in result.error_curve),
               f"{_FLOAT_FMT},{_FLOAT_FMT},%s\n")


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def _cmd_coeffs(args: argparse.Namespace) -> int:
    cfg = ExpansionConfig(alpha=args.alpha, order_n=args.order)
    coefs = ExpansionCoefficients.from_config(cfg)
    print(f"alpha {_FLOAT_FMT % cfg.alpha}")
    print(f"order {cfg.order_n}")
    print(f"A {_FLOAT_FMT % coefs.a_coef}")
    print(f"A' {_FLOAT_FMT % coefs.a_prime_coef}")
    for p in range(2, cfg.order_n + 1):
        print(f"C_{p} {_FLOAT_FMT % coefs.c_coefs[p - 2]}")
    return 0


_DERIV_FUNCTIONS = {
    "const": (lambda ts: np.ones_like(ts), 0),
    "t": (lambda ts: ts.copy(), 1),
    "t2": (lambda ts: ts ** 2, 2),
}


def _cmd_deriv(args: argparse.Namespace) -> int:
    cfg = ExpansionConfig(alpha=args.alpha, order_n=args.order)
    TimeGrid(t_start=0.0, t_end=args.t_end, step=args.step)  # validates the window
    fn, k = _DERIV_FUNCTIONS[args.function]
    x = SampledFunction.from_function(fn, 0.0, args.t_end, round(args.t_end / args.step) + 1)
    ts = x.times[1:]
    expansion_vals = approx_rl_derivative_on_grid(x, cfg)
    gl_vals = [gl_derivative_at(x, cfg.alpha, i) for i in range(1, len(x.times))]
    closed = [power_rule_exact(cfg.alpha, k, t) for t in ts]

    with (open(args.out, "w", newline="", encoding="utf-8") if args.out
          else contextlib.nullcontext(sys.stdout)) as out:
        _write_csv(out, ("t", "expansion", "grunwald", "closed_form"),
                   zip(ts, expansion_vals, gl_vals, closed))
    return 0


def _load_run_setup(args: argparse.Namespace) -> ScenarioConfig:
    scenario = load_scenario_config(args.config) if args.config else _scenario_from_keys({})
    overrides = {}
    if getattr(args, "alpha", None) is not None:
        overrides["alpha"] = args.alpha
    if args.order is not None:
        overrides["order_n"] = args.order
    return dataclasses.replace(scenario, **overrides)


def _cmd_simulate(args: argparse.Namespace) -> int:
    scenario = _load_run_setup(args)
    series = simulate_fractional(scenario.params, scenario.initial,
                                 scenario.expansion_config(), scenario.time_grid(),
                                 start_offset=scenario.epsilon,
                                 keep_aux=args.include_aux)
    with open(args.out, "w", newline="", encoding="utf-8") as fh:
        write_trajectory_csv(fh, series)
    print(f"wrote {args.out}: {len(series.times)} rows, "
          f"alpha {scenario.alpha:g}, order {scenario.order_n}")
    return 0


def _alpha_grid(alpha_min: float, alpha_max: float, alpha_step: float) -> list[float]:
    if alpha_step <= 0:
        raise ValueError(f"alpha-step must be positive, got {alpha_step!r}")
    if alpha_max < alpha_min:
        raise ValueError("alpha-max must not be below alpha-min")
    count = int(math.floor((alpha_max - alpha_min) / alpha_step + 1e-9)) + 1
    alphas = []
    for i in range(count):
        a = round(alpha_min + i * alpha_step, 12)
        if abs(a - 1.0) < 1e-12:
            a = 1.0  # hit the classical bypass exactly
        alphas.append(a)
    return alphas


def _cmd_fit(args: argparse.Namespace) -> int:
    scenario = _load_run_setup(args)
    obs = read_observed_csv(args.data)
    alphas = _alpha_grid(args.alpha_min, args.alpha_max, args.alpha_step)
    result = fit_alpha(obs, scenario.params, scenario.initial, scenario.order_n,
                       alphas, scenario.time_grid(), start_offset=scenario.epsilon)
    with open(args.out, "w", newline="", encoding="utf-8") as fh:
        write_error_curve_csv(fh, result)
    print(f"best_alpha {result.best_alpha:.3f}")
    print(f"best_error_pct {result.best_error_pct:.6f}")
    return 0


def _cmd_validate(args: argparse.Namespace) -> int:
    del args
    checks: list[tuple[str, bool, str]] = []

    def record(name: str, ok: bool, detail: str) -> None:
        checks.append((name, ok, detail))

    sqrt_pi = math.sqrt(math.pi)
    err = abs(gamma(0.5) - sqrt_pi) / sqrt_pi
    record("gamma half-integer value", err < 1e-12, f"rel err {err:.2e}")
    rec = abs(gamma(4.7) - 3.7 * gamma(3.7)) / gamma(4.7)
    record("gamma recurrence", rec < 1e-12, f"rel err {rec:.2e}")
    refl = abs(gamma(0.3) * gamma(0.7) - math.pi / math.sin(math.pi * 0.3)) / gamma(0.3)
    record("gamma reflection", refl < 1e-12, f"rel err {refl:.2e}")

    a_val = coeff_a(0.5, 2)
    ap_val = coeff_a_prime(0.5, 2)
    c_val = coeff_c(0.5, 2)
    ok = (abs(a_val - 1.5 / sqrt_pi) < 1e-12 and abs(ap_val - 0.75 / sqrt_pi) < 1e-12
          and abs(c_val + 0.5 / sqrt_pi) < 1e-12)
    record("expansion weights vs closed forms", ok,
           f"A={a_val:.6f} A'={ap_val:.6f} C_2={c_val:.6f}")

    worst = 0.0
    num = 10001
    for alpha in (0.3, 0.5, 0.9):
        for k in (0, 1, 2):
            x = SampledFunction.from_function(lambda ts: ts ** k, 0.0, 1.0, num)
            approx = gl_derivative_at(x, alpha, num - 1)
            exact = power_rule_exact(alpha, k, 1.0)
            worst = max(worst, abs(approx - exact) / abs(exact))
    record("backward difference vs closed form", worst < 1e-3,
           f"worst rel err {worst:.2e} (h = 1e-4)")

    x = SampledFunction.from_function(lambda ts: ts ** 2, 0.0, 1.0, 1001)
    exact = power_rule_exact(0.5, 2, 1.0)
    err5 = abs(approx_rl_derivative(x, ExpansionConfig(0.5, 5), 1.0) - exact)
    err20 = abs(approx_rl_derivative(x, ExpansionConfig(0.5, 20), 1.0) - exact)
    record("expansion error shrinks with order", err20 <= err5,
           f"err N=5 {err5:.2e}, N=20 {err20:.2e}")

    params, initial = default_scenario()
    short = TimeGrid(t_start=0.0, t_end=10.0, step=0.05)
    classical = simulate_classical(params, initial, short)
    bypass = simulate_fractional(params, initial, ExpansionConfig(1.0, 7), short)
    record("classical bypass is bit-identical",
           bool(np.array_equal(classical.values, bypass.values)), "alpha = 1 path")

    gl_series = gl_simulate(params, initial, 1.0, short)
    ts = gl_series.times
    h = (short.t_end - short.t_start) / (len(ts) - 1)
    euler = np.empty((len(ts), 5))
    euler[0] = initial.as_array()
    y = initial.as_array().copy()
    for i in range(len(ts) - 1):
        y = y + h * classical_rhs(ts[i], y, params)
        euler[i + 1] = y
    record("backward-difference stepper collapses to Euler",
           bool(np.array_equal(gl_series.values, euler)), "alpha = 1 weights (1, -1, 0, ...)")

    all_ok = True
    for name, ok, detail in checks:
        print(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")
        all_ok = all_ok and ok
    print(f"{sum(ok for _, ok, _ in checks)}/{len(checks)} checks passed")
    return 0 if all_ok else 2


# ---------------------------------------------------------------------------
# Parser and entry point
# ---------------------------------------------------------------------------

class _ArgumentParser(argparse.ArgumentParser):
    # argparse exits with status 2 on bad usage; the CLI contract reserves
    # 2 for numerical failures, so usage problems are remapped to 1.
    def error(self, message: str):
        self.exit(1, f"error: validation: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(prog="fracepi",
                             description="Fractional-order outbreak simulation toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("coeffs", help="print expansion weights",
                       description="Print A, A' and C_2..C_N for one (alpha, N).")
    p.add_argument("--alpha", type=float, required=True, help="fractional order in (0, 1)")
    p.add_argument("--order", type=int, required=True, help="expansion order N >= 2")
    p.set_defaults(func=_cmd_coeffs)

    p = sub.add_parser("deriv", help="compare derivative approximations",
                       description="CSV of expansion vs backward-difference vs "
                                   "closed-form fractional derivatives of a monomial.")
    p.add_argument("--alpha", type=float, required=True, help="fractional order in (0, 1)")
    p.add_argument("--order", type=int, required=True, help="expansion order N >= 2")
    p.add_argument("--function", choices=sorted(_DERIV_FUNCTIONS), required=True,
                   help="test function")
    p.add_argument("--t-end", type=float, default=1.0, help="end of the sample window")
    p.add_argument("--step", type=float, default=0.01, help="sample spacing")
    p.add_argument("--out", help="output CSV path (default: stdout)")
    p.set_defaults(func=_cmd_deriv)

    p = sub.add_parser("simulate", help="run the outbreak model",
                       description="Integrate the scenario and write a trajectory CSV; "
                                   "alpha = 1 runs the classical model.")
    p.add_argument("--config", help="scenario file (default: built-in scenario)")
    p.add_argument("--alpha", type=float, help="override the scenario's order")
    p.add_argument("--order", type=int, help="override the scenario's expansion order")
    p.add_argument("--include-aux", action="store_true",
                   help="append the auxiliary V_p columns to the CSV")
    p.add_argument("--out", required=True, help="trajectory CSV path")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("fit", help="fit the order to observed data",
                       description="Grid search over alpha; writes the error curve "
                                   "and prints the best order.")
    p.add_argument("--config", help="scenario file (default: built-in scenario)")
    p.add_argument("--order", type=int, help="override the scenario's expansion order")
    p.add_argument("--data", required=True, help="observed CSV (t,I_h_obs)")
    p.add_argument("--alpha-min", type=float, default=0.9,
                   help="lowest candidate order (default 0.9)")
    p.add_argument("--alpha-max", type=float, default=1.0,
                   help="highest candidate order (default 1.0)")
    p.add_argument("--alpha-step", type=float, default=0.001,
                   help="grid spacing (default 0.001)")
    p.add_argument("--out", required=True, help="error-curve CSV path")
    p.set_defaults(func=_cmd_fit)

    p = sub.add_parser("validate", help="run the cross-check suite",
                       description="Gamma identities, weight values, oracle agreement "
                                   "and classical-limit equivalences.")
    p.set_defaults(func=_cmd_validate)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (BlowUpError, FitFailedError, FloatingPointError) as exc:
        print(f"error: numerical: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:
        print(f"error: validation: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
