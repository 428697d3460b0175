"""fracepi benchmark: three workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py                 # every workload, untraced then traced
    python3 perfbench/run.py --workload fit_grid --seed 3 --trace 0

Run from the repository root.  One workload per process, each run measuring
for `manifest.RUN_SECONDS`: `--trace 0` measures the end-to-end metrics with
nothing in the program patched; `--trace 1` installs the layer hooks of
`tracing.py` around every second operation only, and reports the per-layer
metrics and the cost of tracing.  Every operation's output is checked
against `refs.json`.  The last line of standard output is one JSON object
with the keys `correct`, `attempted`, `failed` and `metrics`; the lines
before it give the environment and every metric by name with its unit.
`manifest.py` says what each metric and workload is for.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, HERE)

import manifest  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SETUP_EVERY = 2.5  # seconds between set-up samples
SETUP_MIN_SAMPLES = 7
SCALING_REPEATS = 3
SCALING_ALPHA = 0.97


def import_program():
    """Import fracepi from this checkout's src/, refusing any other copy."""
    if not os.path.isfile(os.path.join(SRC, "fracepi", "cli.py")):
        sys.exit(f"error: no fracepi sources under {SRC}")
    sys.path.insert(0, SRC)
    import fracepi
    import fracepi.cli  # noqa: F401
    where = os.path.dirname(os.path.abspath(fracepi.__file__))
    if where != os.path.join(SRC, "fracepi"):
        sys.exit(f"error: imported fracepi from {where}, not from {SRC}")
    return fracepi


class SetupTimer:
    """Wall time of a fresh interpreter that imports fracepi.cli.

    Sampled every SETUP_EVERY seconds between the operations of an untraced
    run, so that its median sees the same phases of the host as op_s.
    """

    def __init__(self) -> None:
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (SRC, self.env.get("PYTHONPATH")) if p)
        self.cmd = [sys.executable, "-c", "import fracepi.cli"]
        # The first import writes the bytecode cache, which users pay once.
        subprocess.run(self.cmd, cwd=ROOT, env=self.env, check=True, timeout=60)
        self.times: list[float] = []
        self.next_at = 0.0

    def sample(self) -> None:
        start = time.perf_counter()
        # No timeout: Popen.wait(timeout) polls in sleeps of up to 50 ms,
        # which would quantise the measurement.
        subprocess.run(self.cmd, cwd=ROOT, env=self.env, check=True)
        self.times.append(time.perf_counter() - start)
        self.next_at = time.perf_counter() + SETUP_EVERY

    def median(self) -> float:
        while len(self.times) < SETUP_MIN_SAMPLES:
            self.sample()
        return statistics.median(self.times)


class Ops:
    """What one run's operations gave: wall times and failures."""

    def __init__(self) -> None:
        self.untraced: list[float] = []
        self.traced: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []  # the first few failures


def run_ops(workload, refs: dict, rng: random.Random, seconds: float,
            original: dict, hooks: tracing.Hooks | None = None,
            setup: SetupTimer | None = None) -> Ops:
    """Operations back to back for about `seconds` (at least one attempt).

    No op starts that the median op so far says would end past the
    deadline, which keeps a run's length close to `seconds`.  With `hooks`,
    every second op runs with the layer hooks installed, so that traced and
    untraced ops see the same phases of the host.  After every untraced op
    the program must be unpatched.  With `setup`, a set-up sample is taken
    between ops when one is due.  Drawing and preparing inputs and
    checking outputs are not timed; an attempt whose input could not be
    prepared counts as failed and has no time.
    """
    ops = Ops()
    deadline = time.perf_counter() + seconds
    while True:
        times = ops.untraced + ops.traced
        expected = statistics.median(times) if times else 0.0
        if ops.attempted and time.perf_counter() + expected > deadline:
            break
        ops.attempted += 1
        traced = hooks is not None and ops.attempted % 2 == 0
        key = workload.draw(rng)
        try:
            workload.prepare(key)
            if traced:
                hooks.install()
            start = time.perf_counter()
            try:
                result = workload.run(key)
            finally:
                (ops.traced if traced else ops.untraced).append(time.perf_counter() - start)
                if traced:
                    hooks.uninstall()
            workloads.compare(workload.summarize(key, result), refs[key])
        except Exception as exc:  # any failure of the op counts in `failed`
            ops.failed += 1
            if len(ops.messages) < 10:
                ops.messages.append(f"{key}: {type(exc).__name__}: {exc}")
        if not traced:
            tracing.assert_unpatched(original)
        if setup is not None and time.perf_counter() >= setup.next_at:
            setup.sample()
    return ops


def gl_scaling_exponent(fracepi) -> float:
    """log2 of the gl_simulate time ratio between 200 d and 100 d (best of k).

    The two lengths alternate, so that both see the same phases of the host.
    """
    params, initial = fracepi.default_scenario()
    grids = {days: fracepi.TimeGrid(0.0, days, 0.01) for days in (100.0, 200.0)}
    best = dict.fromkeys(grids, math.inf)
    for _ in range(SCALING_REPEATS):
        for days, grid in grids.items():
            start = time.perf_counter()
            fracepi.gl_simulate(params, initial, SCALING_ALPHA, grid)
            best[days] = min(best[days], time.perf_counter() - start)
    return math.log2(best[200.0] / best[100.0])


def git_commit() -> str | None:
    """HEAD of the checkout, read from .git without running git."""
    head_path = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head_path, encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(ROOT, ".git", ref)
        if os.path.isfile(ref_path):
            with open(ref_path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(ROOT, ".git", "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def environment(args) -> dict:
    import numpy as np
    cpu_model = platform.processor() or None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu_model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except Exception:  # the config layout is numpy-version specific
        blas = None
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)), "cpu_model": cpu_model,
        "python": platform.python_version(), "numpy": np.__version__, "blas": blas,
        "blas_threads": {var: os.environ.get(var) for var in
                         ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
        "git_commit": git_commit(),
    }


def describe(times: list[float]) -> str:
    """Sample count, quartiles and the highest percentile with ten samples above it."""
    ordered = sorted(times)
    n = len(ordered)
    if not n:
        return "n=0"
    q1, q2, q3 = statistics.quantiles(ordered, n=4) if n > 1 else ordered * 3
    text = f"n={n} q1={q1:.4g} median={q2:.4g} q3={q3:.4g} max={ordered[-1]:.4g} s"
    if n > 10:
        text += f", p{100 * (n - 10) / n:.0f}={ordered[n - 11]:.4g} s"
    return text


def metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def run_workload(args) -> int:
    fracepi = import_program()
    print("env " + json.dumps(environment(args)), flush=True)
    with open(os.path.join(HERE, "refs.json"), encoding="utf-8") as fh:
        refs = json.load(fh)[args.workload]
    rng = random.Random(args.seed)
    original = tracing.snapshot()
    tracing.assert_unpatched(original)

    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as workdir:
        workload = workloads.WORKLOADS[args.workload](workdir)
        if args.trace == 0:
            setup = SetupTimer()
            ops = run_ops(workload, refs, rng, manifest.RUN_SECONDS, original, setup=setup)
            times = ops.untraced
            metrics = {
                "op_s": metric(statistics.median(times) if times else None, "s"),
                "setup_s": metric(setup.median(), "s"),
                "peak_rss_mb": metric(
                    resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
            }
            ops_note = (f"{len(times)} ops timed; op wall time {describe(times)}; "
                        f"set-up {describe(setup.times)}")
        else:
            scaling = gl_scaling_exponent(fracepi)
            tracer = tracing.Tracer()
            ops = run_ops(workload, refs, rng, manifest.RUN_SECONDS, original,
                          tracing.Hooks(tracer))
            tracing.assert_unpatched(original)
            values = tracing.layer_metrics(tracer, ops.traced, ops.untraced, scaling)
            units = {name: unit for name, unit, _, _ in manifest.PER_LAYER}
            assert values.keys() == units.keys(), "tracing.py and manifest.py disagree"
            metrics = {name: metric(values[name], units[name]) for name in units}
            ops_note = f"{len(ops.untraced)} untraced + {len(ops.traced)} traced ops timed"

    print(f"workload {args.workload}, seed {args.seed}: {ops_note}, "
          f"{ops.attempted} attempted, {ops.failed} failed")
    if args.trace and tracer.missing:
        print(f"missing spans, their hook target is gone: {', '.join(sorted(tracer.missing))}")
    for message in ops.messages:
        print(f"  failed {message}")
    for name, entry in metrics.items():
        value = entry["value"]
        shown = "missing" if value is None else f"{value:.6g}"
        share = ""
        if (args.trace and value is not None and entry["unit"] == "s"
                and name != "trace.op_s" and values["trace.op_s"]):
            share = f"  ({100 * value / values['trace.op_s']:.1f}% of trace.op_s)"
        print(f"{name} {shown} {entry['unit']}{share}")
    print(f"failed_frac {ops.failed / ops.attempted:.6g} ratio "
          f"({ops.failed}/{ops.attempted} ops)")
    print(json.dumps({"correct": ops.failed == 0, "attempted": ops.attempted,
                      "failed": ops.failed, "metrics": metrics}), flush=True)
    return 0


def run_all(args) -> int:
    """Every workload in its own process, untraced then traced."""
    combined: dict[str, dict] = {}
    attempted = failed = 0
    for name, _ in manifest.WORKLOADS:
        for traced in (0, 1):
            cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
                   "--seed", str(args.seed), "--trace", str(traced)]
            try:
                proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                                      timeout=600)
            except subprocess.TimeoutExpired:
                print(f"error: {name} --trace {traced} ran past 600 s", file=sys.stderr)
                return 1
            print(proc.stdout, end="", flush=True)
            if proc.returncode != 0:
                print(f"error: {name} --trace {traced} exited with {proc.returncode}",
                      file=sys.stderr)
                return proc.returncode
            result = json.loads(proc.stdout.splitlines()[-1])
            attempted += result["attempted"]
            failed += result["failed"]
            for metric_name, entry in result["metrics"].items():
                combined[f"{name}.{metric_name}"] = entry
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": combined}))
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=[name for name, _ in manifest.WORKLOADS],
                        help="run one workload (default: all, each in its own process)")
    parser.add_argument("--seed", type=int, default=0, help="input seed (default 0)")
    # The run length is fixed by the benchmark; callers that follow
    # BENCHMARK.json pass its run_seconds, and no other value is accepted.
    parser.add_argument("--seconds", type=float, default=manifest.RUN_SECONDS,
                        help=f"must be {manifest.RUN_SECONDS}, BENCHMARK.json's run_seconds")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: per-layer metrics from a traced run")
    args = parser.parse_args()
    if args.seconds != manifest.RUN_SECONDS:
        parser.error(f"--seconds must be {manifest.RUN_SECONDS}, the run length "
                     "BENCHMARK.json fixes")
    if args.workload is None:
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
