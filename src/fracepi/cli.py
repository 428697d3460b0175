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
from typing import Callable, Iterable, Sequence, TextIO

import numpy as np

from .dengue import (ModelParams, StateVector, check_population_balance, classical_rhs,
                     default_scenario)
from .expansion import (ExpansionConfig, ExpansionCoefficients, approx_rl_derivative_on_grid,
                        coeff_a, coeff_a_prime, coeff_c, expand_system)
from .fitting import FitFailedError, FitResult, ObservedSeries, fit_alpha
from .grunwald import gl_derivative_on_grid, gl_simulate, power_rule_exact
from .integrate import (MAX_NODES, START_OFFSET, BlowUpError, TimeGrid, TimeSeries,
                        simulate_batch, simulate_classical, simulate_fractional)

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
    """A fully validated simulation setup.

    The model and its initial state, whose compartments sum to the
    params' population totals; the run's expansion order and grid; and
    the fractional start offset.
    """

    params: ModelParams
    initial: StateVector
    expansion: ExpansionConfig
    grid: TimeGrid
    epsilon: float

    def __post_init__(self) -> None:
        if self.epsilon <= 0 or not math.isfinite(self.epsilon):
            raise ValueError(f"epsilon must be positive and finite, got {self.epsilon!r}")
        check_population_balance(self.params, self.initial)


_MODEL_KEYS = ("n_h", "n_m", "bite_rate", "beta_mh", "beta_hm", "mu_h", "mu_m", "eta_h")
_STATE_KEYS = ("s_h0", "i_h0", "r_h0", "s_m0", "i_m0")
_RUN_KEYS = ("alpha", "order_n", "t_end", "step", "epsilon")
_CONFIG_KEYS = _MODEL_KEYS + ("m_ratio",) + _STATE_KEYS + _RUN_KEYS


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

    m_ratio, mosquitoes per host, is read only to derive n_m = m_ratio * n_h
    when n_m is absent; it defaults to the default scenario's n_m / n_h.
    When both are given they must agree.  s_h0 and s_m0 default to
    whatever balances the population totals.
    """
    base_params, base_initial = default_scenario()
    model = {key: raw.get(key, getattr(base_params, key)) for key in _MODEL_KEYS}
    m_ratio = raw.get("m_ratio", base_params.n_m / base_params.n_h)
    if not (math.isfinite(m_ratio) and m_ratio > 0):
        raise ValueError(f"m_ratio must be positive and finite, got {m_ratio!r}")
    model["n_m"] = raw.get("n_m", m_ratio * model["n_h"])
    i_h = raw.get("i_h0", base_initial.i_h)
    r_h = raw.get("r_h0", base_initial.r_h)
    i_m = raw.get("i_m0", base_initial.i_m)
    params = ModelParams(**model)
    if "m_ratio" in raw and abs(params.n_m - m_ratio * params.n_h) > 1e-9 * params.n_m:
        raise ValueError(f"n_m = {params.n_m!r} does not equal m_ratio * n_h = "
                         f"{m_ratio * params.n_h!r}")
    initial = StateVector(s_h=raw.get("s_h0", model["n_h"] - i_h - r_h), i_h=i_h, r_h=r_h,
                          s_m=raw.get("s_m0", model["n_m"] - i_m), i_m=i_m)
    expansion = ExpansionConfig(alpha=raw.get("alpha", 1.0), order_n=raw.get("order_n", 7))
    grid = TimeGrid(t_start=0.0, t_end=raw.get("t_end", 100.0), step=raw.get("step", 0.01))
    return ScenarioConfig(params=params, initial=initial, expansion=expansion, grid=grid,
                          epsilon=raw.get("epsilon", START_OFFSET))


def load_scenario_config(path: str) -> ScenarioConfig:
    """Parse and validate a key=value scenario file.

    Missing keys fall back to the default outbreak scenario (alpha = 1,
    N = 7, 100 days at 0.01-day steps).  n_m may be given alone; without
    it, n_m = m_ratio * n_h.  s_h0 and s_m0 default to whatever balances
    the population totals.
    """
    with open(path, encoding="utf-8-sig") as fh:
        try:
            lines = fh.readlines()
        except UnicodeDecodeError as exc:
            raise ConfigError(f"{path}: not UTF-8 text ({exc.reason})") from None
    raw = _parse_scenario_text(lines, path)
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


def _read_csv(path: str, header_error: Callable[[list[str] | None], str | None]
              ) -> tuple[list[str], np.ndarray]:
    """The header and the (rows, columns) float array of a CSV file.

    header_error returns the complaint about a wrong header, or None; it
    is consulted before any row is parsed.  Every row must have one float
    per header column; the ValueError names a bad line as <path>:<line>,
    and a file that is not UTF-8 (after one optional leading BOM) as <path>.
    """
    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        rows = []
        try:
            header = next(reader, None)
            complaint = header_error(header)
            if complaint:
                raise ValueError(complaint)
            for row in reader:
                if not row:
                    continue
                if len(row) != len(header):
                    raise ValueError(f"expected {len(header)} fields, got {len(row)}")
                rows.append([float(cell) for cell in row])
        except UnicodeDecodeError as exc:
            # Decoded in chunks: neither the reader's line count nor the
            # decoder's position locates the bad byte in the file.
            raise ValueError(f"{path}: not UTF-8 text ({exc.reason})") from None
        except (csv.Error, ValueError) as exc:
            raise ValueError(f"{path}:{max(reader.line_num, 1)}: {exc}") from None
    if not rows:
        raise ValueError(f"{path}: no data rows")
    return header, np.array(rows)


def write_trajectory_csv(fh: TextIO, series: TimeSeries) -> None:
    _write_csv(fh, ("t",) + series.columns,
               ((t, *row.tolist()) for t, row in zip(series.times, series.values)))


def read_trajectory_csv(path: str) -> TimeSeries:
    header, data = _read_csv(path, lambda header: None if header and header[0] == "t"
                             else "expected a trajectory CSV with a 't' column first")
    return TimeSeries(times=data[:, 0], values=data[:, 1:], columns=tuple(header[1:]))


def write_observed_csv(fh: TextIO, obs: ObservedSeries) -> None:
    _write_csv(fh, ("t", "I_h_obs"), zip(obs.times, obs.infected))


def read_observed_csv(path: str) -> ObservedSeries:
    _, data = _read_csv(path, lambda header: None if header == ["t", "I_h_obs"]
                        else f"expected header 't,I_h_obs', got {header!r}")
    return ObservedSeries(times=data[:, 0], infected=data[:, 1])


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


# The test functions t^k by name, as their powers k.
_DERIV_FUNCTIONS = {"const": 0, "t": 1, "t2": 2}


def _cmd_deriv(args: argparse.Namespace) -> int:
    cfg = ExpansionConfig(alpha=args.alpha, order_n=args.order)
    grid = TimeGrid(t_start=0.0, t_end=args.t_end, step=args.step)
    nodes = grid.nodes()
    k = _DERIV_FUNCTIONS[args.function]
    expansion_vals = approx_rl_derivative_on_grid(grid, nodes ** k, cfg)
    gl_vals = gl_derivative_on_grid(grid, nodes ** k, cfg.alpha)
    ts = nodes[1:]
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
    return dataclasses.replace(
        scenario, expansion=dataclasses.replace(scenario.expansion, **overrides))


def _cmd_simulate(args: argparse.Namespace) -> int:
    scenario = _load_run_setup(args)
    cfg = scenario.expansion
    series = simulate_fractional(scenario.params, scenario.initial, cfg, scenario.grid,
                                 start_offset=scenario.epsilon, keep_aux=args.include_aux)
    with open(args.out, "w", newline="", encoding="utf-8") as fh:
        write_trajectory_csv(fh, series)
    alpha = f"{cfg.alpha:g}"  # repr for an order that the short format rounds
    print(f"wrote {args.out}: {len(series.times)} rows, "
          f"alpha {alpha if float(alpha) == cfg.alpha else repr(cfg.alpha)}, order {cfg.order_n}")
    return 0


def _alpha_grid(alpha_min: float, alpha_max: float, alpha_step: float) -> list[float]:
    if not alpha_step > 0:
        raise ValueError(f"alpha-step must be positive, got {alpha_step!r}")
    if alpha_max < alpha_min:
        raise ValueError("alpha-max must not be below alpha-min")
    steps = (alpha_max - alpha_min) / alpha_step
    if not steps <= MAX_NODES - 1:  # also nan and inf
        raise ValueError(f"alpha grid of {steps:.3g} steps exceeds {MAX_NODES} candidates")
    if alpha_step < 1e-12:  # the candidates are rounded to 12 decimals below
        raise ValueError(f"alpha-step must be at least 1e-12, the candidates' resolution, "
                         f"got {alpha_step!r}")
    count = int(math.floor(steps + 1e-9)) + 1
    return [round(alpha_min + i * alpha_step, 12) for i in range(count)]


def _cmd_fit(args: argparse.Namespace) -> int:
    scenario = _load_run_setup(args)
    obs = read_observed_csv(args.data)
    for bound in (args.alpha_min, args.alpha_max):  # the one alpha rule, as in simulate
        dataclasses.replace(scenario.expansion, alpha=bound)
    alphas = _alpha_grid(args.alpha_min, args.alpha_max, args.alpha_step)
    result = fit_alpha(obs, scenario.params, scenario.initial, scenario.expansion.order_n,
                       alphas, scenario.grid, start_offset=scenario.epsilon)
    with open(args.out, "w", newline="", encoding="utf-8") as fh:
        write_error_curve_csv(fh, result)
    best = f"{result.best_alpha:.3f}"  # repr for a candidate of a grid finer than 0.001
    print(f"best_alpha {best if float(best) == result.best_alpha else repr(result.best_alpha)}")
    print(f"best_error_pct {result.best_error_pct:.6f}")
    return 0


def _cmd_validate(args: argparse.Namespace) -> int:
    del args
    checks: list[tuple[str, bool, str]] = []

    def record(name: str, ok: bool, detail: str) -> None:
        checks.append((name, ok, detail))

    sqrt_pi = math.sqrt(math.pi)
    a_val = coeff_a(0.5, 2)
    ap_val = coeff_a_prime(0.5, 2)
    c_val = coeff_c(0.5, 2)
    ok = (abs(a_val - 1.5 / sqrt_pi) < 1e-12 and abs(ap_val - 0.75 / sqrt_pi) < 1e-12
          and abs(c_val + 0.5 / sqrt_pi) < 1e-12)
    record("expansion weights vs closed forms", ok,
           f"A={a_val:.6f} A'={ap_val:.6f} C_2={c_val:.6f}")

    worst = 0.0
    grid = TimeGrid(t_start=0.0, t_end=1.0, step=1e-4)
    ts = grid.nodes()
    for alpha in (0.3, 0.5, 0.9):
        for k in (0, 1, 2):
            approx = gl_derivative_on_grid(grid, ts ** k, alpha)[-1]
            exact = power_rule_exact(alpha, k, 1.0)
            worst = max(worst, abs(approx - exact) / abs(exact))
    record("backward difference vs closed form", worst < 1e-3,
           f"worst rel err {worst:.2e} (h = 1e-4)")

    grid = TimeGrid(t_start=0.0, t_end=1.0, step=1e-3)
    t2 = grid.nodes() ** 2
    exact = power_rule_exact(0.5, 2, 1.0)
    err5 = abs(approx_rl_derivative_on_grid(grid, t2, ExpansionConfig(0.5, 5))[-1] - exact)
    err20 = abs(approx_rl_derivative_on_grid(grid, t2, ExpansionConfig(0.5, 20))[-1] - exact)
    record("expansion error shrinks with order", err20 <= err5,
           f"err N=5 {err5:.2e}, N=20 {err20:.2e}")

    params, initial = default_scenario()
    # The arrow pieces the kernels step with (s, a, g_p and r_p of
    # `AugmentedSystem.arrow`, which calling the system assembles) against
    # the defining formula, assembled here from the scalar weights, at a
    # mid-outbreak state whose moments are those of a constant trajectory,
    # V_p = -x t^(p-1).
    alpha, n, t = 0.9, 4, 2.0
    x = np.array([50000.0, 2000.0, 4000.0, 160000.0, 8000.0])
    v = -np.outer(x, [t ** (p - 1) for p in range(2, n + 1)])
    bracket = (classical_rhs(t, x, params) - coeff_a(alpha, n) * t ** -alpha * x
               + sum(coeff_c(alpha, p) * t ** (1 - p - alpha) * v[:, p - 2]
                     for p in range(2, n + 1)))
    want = np.concatenate([bracket * t ** (alpha - 1) / coeff_a_prime(alpha, n),
                           np.outer(x, [(1 - p) * t ** (p - 2) for p in range(2, n + 1)]).ravel()])
    system = expand_system(lambda s, y: classical_rhs(s, y, params), [ExpansionConfig(alpha, n)])
    got = system(t, np.concatenate([x, v.ravel()])[None])[0]
    worst = float(np.max(np.abs(got - want) / np.abs(want)))
    record("augmented right-hand side vs defining formula", worst <= 1e-13,
           f"worst rel err {worst:.1e}, alpha = {alpha}, N = {n}")

    short = TimeGrid(t_start=0.0, t_end=10.0, step=0.05)
    classical = simulate_classical(params, initial, short)
    bypass = simulate_fractional(params, initial, ExpansionConfig(1.0, 7), short)
    record("classical bypass is bit-identical",
           bool(np.array_equal(classical.values, bypass.values)), "alpha = 1 path")

    trio = [ExpansionConfig(alpha, 7) for alpha in (0.9, 0.95, 1.0)]
    batch = simulate_batch(params, initial, trio, short)
    same = all(isinstance(run, TimeSeries) and np.array_equal(
        run.values, simulate_fractional(params, initial, cfg, short).values)
        for cfg, run in zip(trio, batch))
    record("batch members equal their solo runs", same,
           "alpha = 0.9, 0.95 and 1.0, N = 7, bit for bit")

    # 3200 steps: more than three history blocks, so the FFT far field runs.
    gl_grid = TimeGrid(t_start=0.0, t_end=160.0, step=0.05)
    gl_series = gl_simulate(params, initial, 1.0, gl_grid)
    ts, h = gl_grid.uniform_nodes()
    euler = np.empty((len(ts), 5))
    euler[0] = initial.as_array()
    y = initial.as_array().copy()
    for i in range(len(ts) - 1):
        y = y + h * classical_rhs(ts[i], y, params)
        euler[i + 1] = y
    record("backward-difference stepper collapses to Euler",
           bool(np.array_equal(gl_series.values, euler)),
           "alpha = 1 weights (1, -1, 0, ...), 3200 steps")

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
                       description="Weight values, both derivative evaluators against "
                                   "the power rule, the augmented right-hand side, and "
                                   "the bit-identities of the classical limits and the "
                                   "batch.")
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
