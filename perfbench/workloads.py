"""The three benchmark workloads: seeded inputs, one timed operation, its check.

A workload has four steps per operation: `draw` picks an input key with
the run's seeded generator, `prepare` makes the input files (untimed),
`run` is the timed operation, and `summarize` checks the output's
structure, removes any file it wrote and returns the numbers that
`refs.json` (written by `make_refs.py`) holds for that key.  Every input is
drawn from a finite set, so any seed can be checked.  A workload calls the
program only through its public entry points, `fracepi.cli.main` and
`fracepi.gl_simulate`, and looks them up at call time so that the traced
run can observe them.
"""

from __future__ import annotations

import contextlib
import csv
import io
import math
import os
import random

import numpy as np

# Simulation orders for simulate_aux and gl_oracle: 0.950, 0.951, ..., 0.990.
ALPHAS = tuple(f"0.{k}" for k in range(950, 991))
# True orders behind the synthetic fit data: 0.991 ... 0.999.
FIT_ALPHAS = tuple(f"0.{k}" for k in range(991, 1000))
# Seeds of the 2 % multiplicative noise on the fit data.
NOISE_SEEDS = (0, 1, 2, 3)

COMPARTMENTS = ("S_h", "I_h", "R_h", "S_m", "I_m")
ORDER_N = 7
# Trajectory CSV header written by `simulate --include-aux` at N = 7.
AUX_HEADER = ",".join(("t",) + COMPARTMENTS + tuple(
    f"V{p}_{name}" for name in COMPARTMENTS for p in range(2, ORDER_N + 1)))
# The built-in outbreak at t = 0: 56 000 hosts with 216 infected, 168 000
# susceptible mosquitoes, every auxiliary V_p zero.
INITIAL_STATE = (55784.0, 216.0, 0.0, 168000.0, 0.0)

FIT_SAMPLE_TIMES = np.arange(10.0, 60.1, 2.0)  # 26 points, t = 10, 12, ..., 60
FIT_NOISE_PCT = 2.0
FIT_CANDIDATES = 11  # 0.990, 0.991, ..., 1.000 at the default 0.001 step

REL_TOL = 1e-9


class CheckFailed(Exception):
    """An operation's output differs from what the workload expects."""


def _close(name: str, got: float, want: float) -> None:
    if not math.isclose(got, want, rel_tol=REL_TOL, abs_tol=0.0):
        raise CheckFailed(f"{name}: got {got!r}, reference {want!r}")


def compare(summary: dict, reference: dict) -> None:
    """Every number in summary agrees with reference to REL_TOL."""
    if summary.keys() != reference.keys():
        raise CheckFailed(f"summary keys {sorted(summary)} != {sorted(reference)}")
    for key, want in reference.items():
        got = summary[key]
        if isinstance(want, list):
            if len(got) != len(want):
                raise CheckFailed(f"{key}: length {len(got)} != {len(want)}")
            for i, (g, w) in enumerate(zip(got, want)):
                _close(f"{key}[{i}]", g, w)
        else:
            _close(key, got, want)


def trajectory_summary(times, i_h, final_row) -> dict:
    """Peak infected hosts, the time of the peak, and the last state row."""
    k = int(np.argmax(i_h))
    return {"peak_i_h": float(i_h[k]), "peak_t": float(times[k]),
            "final": [float(v) for v in final_row]}


def _quiet_main(cli, argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return code, out.getvalue()


class SimulateAux:
    """`fracepi simulate --include-aux`: 100 d at 0.01, a 10 001 x 36 CSV."""

    name = "simulate_aux"

    def __init__(self, workdir: str):
        import fracepi.cli
        self.cli = fracepi.cli
        self.out = os.path.join(workdir, "trajectory.csv")

    def draw(self, rng: random.Random) -> str:
        return rng.choice(ALPHAS)

    def prepare(self, key: str) -> None:
        pass

    def run(self, key: str) -> tuple[int, str]:
        return _quiet_main(self.cli, ["simulate", "--alpha", key, "--order", str(ORDER_N),
                                      "--include-aux", "--out", self.out])

    def summarize(self, key: str, result: tuple[int, str]) -> dict:
        code, _ = result
        if code != 0:
            raise CheckFailed(f"simulate exited with {code}")
        # Read the CSV as a stream and keep only what the check needs, so
        # that the check's own memory stays below the program's and
        # peak_rss_mb reflects the program.
        width = AUX_HEADER.count(",") + 1
        rows = 0
        peak_i_h = peak_t = last = None
        with open(self.out, newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh)
            header = next(reader, [])
            if ",".join(header) != AUX_HEADER:
                raise CheckFailed(f"header {','.join(header)[:60]!r}... differs")
            for row in reader:
                if len(row) != width:
                    raise CheckFailed(f"row {rows} does not have {width} fields")
                if rows == 0 and [float(v) for v in row] != [
                        0.0, *INITIAL_STATE] + [0.0] * (width - 6):
                    raise CheckFailed("row 0 is not the initial state with zero auxiliaries")
                i_h = float(row[2])
                if peak_i_h is None or i_h > peak_i_h:  # first maximum, as np.argmax
                    peak_i_h, peak_t = i_h, float(row[0])
                last = row
                rows += 1
        os.remove(self.out)
        if rows != 10001:
            raise CheckFailed(f"{rows} rows, expected 10001")
        return {"peak_i_h": peak_i_h, "peak_t": peak_t, "final": [float(v) for v in last]}


class FitGrid:
    """`fracepi fit` over 11 candidate orders on a 60 d, 0.02 d scenario."""

    name = "fit_grid"

    def __init__(self, workdir: str):
        import fracepi
        import fracepi.cli
        self.cli = fracepi.cli
        self.fracepi = fracepi
        self.config = os.path.join(workdir, "scenario.cfg")
        self.data = os.path.join(workdir, "observed.csv")
        self.out = os.path.join(workdir, "curve.csv")
        with open(self.config, "w", encoding="utf-8") as fh:
            fh.write("# acceptance criterion 8 window\nt_end = 60\nstep = 0.02\n")

    def draw(self, rng: random.Random) -> str:
        return f"{rng.choice(FIT_ALPHAS)}/{rng.choice(NOISE_SEEDS)}"

    def prepare(self, key: str) -> None:
        alpha_star, noise_seed = key.split("/")
        fp = self.fracepi
        params, initial = fp.default_scenario()
        obs = fp.generate_synthetic(params, initial, float(alpha_star), ORDER_N,
                                    FIT_SAMPLE_TIMES, FIT_NOISE_PCT, int(noise_seed),
                                    fp.TimeGrid(0.0, 60.0, 0.02))
        with open(self.data, "w", newline="", encoding="utf-8") as fh:
            self.cli.write_observed_csv(fh, obs)

    def run(self, key: str) -> tuple[int, str]:
        return _quiet_main(self.cli, ["fit", "--config", self.config, "--data", self.data,
                                      "--alpha-min", "0.99", "--alpha-max", "1.0",
                                      "--out", self.out])

    def summarize(self, key: str, result: tuple[int, str]) -> dict:
        code, stdout = result
        if code != 0:
            raise CheckFailed(f"fit exited with {code}")
        with open(self.out, encoding="utf-8") as fh:
            lines = fh.read().splitlines()
        os.remove(self.out)
        if lines[0] != "alpha,error_pct,status":
            raise CheckFailed(f"curve header {lines[0]!r}")
        curve = [row.split(",") for row in lines[1:]]
        ok = [(float(a), float(e)) for a, e, status in curve if status == "ok"]
        if len(curve) != FIT_CANDIDATES or len(ok) != FIT_CANDIDATES:
            raise CheckFailed(f"{len(ok)} ok points of {len(curve)}, "
                              f"expected {FIT_CANDIDATES} of {FIT_CANDIDATES}")
        best_alpha, best_error = min(ok, key=lambda point: point[1])
        alpha_star = key.split("/")[0]
        if f"{best_alpha:.3f}" != alpha_star or f"best_alpha {alpha_star}" not in stdout:
            raise CheckFailed(f"best alpha {best_alpha!r}, true order {alpha_star}")
        return {"best_alpha": best_alpha, "best_error_pct": best_error}


class GlOracle:
    """`fracepi.gl_simulate` on the built-in outbreak, 200 d at 0.01."""

    name = "gl_oracle"

    def __init__(self, workdir: str):
        import fracepi
        self.fracepi = fracepi
        self.params, self.initial = fracepi.default_scenario()
        self.grid = fracepi.TimeGrid(0.0, 200.0, 0.01)

    def draw(self, rng: random.Random) -> str:
        return rng.choice(ALPHAS)

    def prepare(self, key: str) -> None:
        pass

    def run(self, key: str):
        return self.fracepi.gl_simulate(self.params, self.initial, float(key), self.grid)

    def summarize(self, key: str, series) -> dict:
        if series.values.shape != (20001, 5):
            raise CheckFailed(f"shape {series.values.shape}, expected (20001, 5)")
        if series.times[0] != 0.0 or series.times[-1] != 200.0:
            raise CheckFailed("grid does not span [0, 200]")
        if tuple(series.values[0]) != INITIAL_STATE:
            raise CheckFailed("row 0 is not the initial state")
        return trajectory_summary(series.times, series.values[:, 1],
                                  [series.times[-1], *series.values[-1]])


WORKLOADS = {cls.name: cls for cls in (SimulateAux, FitGrid, GlOracle)}


def all_keys(name: str) -> list[str]:
    """Every input key the workload can draw, for generating references."""
    if name == FitGrid.name:
        return [f"{a}/{s}" for a in FIT_ALPHAS for s in NOISE_SEEDS]
    return list(ALPHAS)
