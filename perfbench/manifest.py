"""What the benchmark measures and why; writes BENCHMARK.json.

    python3 perfbench/manifest.py      # rewrite BENCHMARK.json from this file

Load model: every workload is a closed loop with one client.  One process
runs operations back to back, with no threads beyond what numpy starts by
itself.  Each workload runs in a fresh process, so that `setup_s` and
`peak_rss_mb` belong to it.  `setup_s` is sampled every few seconds between
the operations of the run, so that its median sees the same phases of the
host as `op_s`.

Noise: on a 2-vCPU VM (Intel Xeon, numpy 2.4.6, Python 3.11.7) back-to-back
6-op runs of simulate_aux had medians from 1.44 s to 2.04 s, and CPU time
tracked wall time, so the noise comes from the host, not the scheduler.
The host runs the process at different speeds in phases of tens of seconds
to minutes, and Python-bound work is hit hardest: within one 20-minute
round, fit_grid's per-run op_s ranged from 2.04 s to 3.32 s while
gl_oracle's, mostly numpy, ranged from 0.80 s to 0.93 s.  A run therefore
measures for RUN_SECONDS and reports medians over its operations.  Two
rounds of ten 40 s runs per workload, one seed per run and the workloads
interleaved, gave (IQR/median of each round; median of round 1 -> round 2,
relative change):

    simulate_aux op_s 0.22, 0.11; 1.74 s -> 1.55 s, -0.11
                 setup_s 0.17, 0.12; 0.276 s -> 0.255 s, -0.08
                 peak_rss_mb 0.002, 0.002; 38.06 MB -> 38.02 MB, -0.001
    fit_grid     op_s 0.21, 0.15; 2.80 s -> 2.90 s, +0.03
                 setup_s 0.15, 0.10; 0.259 s -> 0.268 s, +0.04
                 peak_rss_mb 0.002, 0.002; 40.57 MB -> 40.64 MB, +0.002
    gl_oracle    op_s 0.13, 0.08; 0.891 s -> 0.878 s, -0.02
                 setup_s 0.07, 0.07; 0.272 s -> 0.274 s, +0.01
                 peak_rss_mb 0.001, 0.002; 34.79 MB -> 34.79 MB, 0.000

op_s and setup_s therefore have the widest bound allowed, 0.25; their
spread stays within it but not within a third of it.

`failed_frac` (failed / attempted operations) is printed by every run and
carried in the result's `attempted` and `failed` fields.  It is not an
end-to-end metric of BENCHMARK.json because it is 0 at every healthy
commit, and a metric there must never read 0.
"""

from __future__ import annotations

import json
import os

RUN_SECONDS = 40

WORKLOADS = (
    ("simulate_aux",
     "one long fractional run whose 7 MB aux CSV write is about half the op: "
     "CSV formatting and per-run overhead of the RK4 path show here"),
    ("fit_grid",
     "11 short runs per fit: per-step Python overhead of RK4 and the RHS dominates, "
     "CSV work is negligible; a multi-candidate batched kernel shows here"),
    ("gl_oracle",
     "the independent Grunwald-Letnikov solver at 20 001 nodes: no expansion, RK4 or "
     "CSV; only a history-sum change shows here"),
)

# (name, unit, better, bound): bound is the share of the parent's median by
# which a metric may worsen before a change counts as a regression.
END_TO_END = (
    ("op_s", "s", "lower", 0.25),          # median wall seconds per operation
    ("setup_s", "s", "lower", 0.25),       # fresh interpreter + `import fracepi.cli`
    ("peak_rss_mb", "MB", "lower", 0.1),   # peak RSS of the workload's own process
)

# (name, unit, what it measures, the end-to-end metric and workload it
# should move).  Each is per traced operation.  A later issue names its
# claim from this table.
PER_LAYER = (
    ("cli.csv_write_s", "s", "write_trajectory_csv / write_error_curve_csv busy time",
     "op_s on simulate_aux; ~0 on fit_grid; none on gl_oracle"),
    ("cli.csv_bytes", "bytes", "bytes those writers produce",
     "op_s on simulate_aux; ~0 on fit_grid; none on gl_oracle"),
    ("cli.read_s", "s", "load_scenario_config + read_observed_csv busy time",
     "op_s on fit_grid (small)"),
    ("cli.self_s", "s", "main minus its traced children",
     "op_s on simulate_aux, fit_grid"),
    ("fitting.fit_s", "s", "fit_alpha busy time", "op_s on fit_grid"),
    ("fitting.candidates", "count", "candidate orders attempted", "op_s on fit_grid"),
    ("fitting.ok_ratio", "ratio", "ok candidates / attempted (0 when none)",
     "op_s on fit_grid"),
    ("fitting.score_s", "s", "percentage_error busy time", "op_s on fit_grid"),
    ("integrate.runs", "count", "calls of simulate_fractional / simulate_classical",
     "op_s on fit_grid (most), simulate_aux (about half); none on gl_oracle"),
    ("integrate.run_s", "s", "busy time in those drivers",
     "op_s on fit_grid (most), simulate_aux (about half); none on gl_oracle"),
    ("integrate.self_s", "s", "driver time minus the RHS children",
     "op_s on fit_grid (most), simulate_aux (about half); none on gl_oracle"),
    ("integrate.step_us", "us",
     "driver time per RK4 step (steps = top-level RHS evals / 4)",
     "op_s on fit_grid (most), simulate_aux (about half); none on gl_oracle"),
    ("expansion.rhs_evals", "count",
     "augmented RHS calls, via the field expand_system returns",
     "op_s on fit_grid, simulate_aux; 0 on gl_oracle"),
    ("expansion.rhs_self_s", "s", "augmented RHS time minus classical_rhs",
     "op_s on fit_grid, simulate_aux; 0 on gl_oracle"),
    ("expansion.rhs_us", "us", "microseconds per augmented RHS eval",
     "op_s on fit_grid, simulate_aux; 0 on gl_oracle"),
    ("expansion.coeff_calls", "count", "ExpansionCoefficients.from_config calls",
     "no end-to-end metric (ROADMAP item 5 changes it)"),
    ("expansion.coeff_s", "s", "ExpansionCoefficients.from_config busy time",
     "no end-to-end metric (ROADMAP item 5 changes it)"),
    ("dengue.rhs_evals", "count", "classical_rhs calls, from integrate and grunwald",
     "op_s on all three"),
    ("dengue.rhs_s", "s", "classical_rhs busy time", "op_s on all three"),
    ("grunwald.nodes", "count", "grid nodes returned by gl_simulate",
     "op_s on gl_oracle only"),
    ("grunwald.run_s", "s", "gl_simulate busy time", "op_s on gl_oracle only"),
    ("grunwald.history_s", "s", "gl_simulate self time: the history sum",
     "op_s on gl_oracle only"),
    ("grunwald.weights_s", "s", "gl_weights busy time", "op_s on gl_oracle only"),
    ("grunwald.scaling_exp", "ratio",
     "log2(t200/t100) of untraced gl_simulate at 100 d and 200 d",
     "op_s on gl_oracle (about 2 means quadratic)"),
    ("trace.op_s", "s", "mean traced op wall time, the base of the layer shares", "none"),
    ("trace.overhead_frac", "ratio",
     "median over pairs of (traced op / the untraced op just before it) - 1",
     "none; it is the cost of tracing"),
)


def benchmark_json() -> dict:
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": name, "why": why} for name, why in WORKLOADS],
        "end_to_end": [{"name": name, "unit": unit, "better": better, "bound": bound}
                       for name, unit, better, bound in END_TO_END],
        "per_layer": [{"name": name, "unit": unit,
                       "better": "higher" if name == "fitting.ok_ratio" else "lower"}
                      for name, unit, _, _ in PER_LAYER],
    }


if __name__ == "__main__":
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(root, "BENCHMARK.json"), "w", encoding="utf-8") as fh:
        json.dump(benchmark_json(), fh, indent=2)
        fh.write("\n")
