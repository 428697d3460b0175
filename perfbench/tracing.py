"""Layer tracing from outside the program, for the traced run only.

`Hooks.install` replaces public functions in the program's module
namespaces with wrappers that record a span per call; the benchmark
installs them around a traced operation and uninstalls them after it.
Spans are not kept one by one: a fit operation makes ~260 000
right-hand-side calls, so the tracer aggregates them as they close, per
(parent span, span) edge, into a call count, busy time and time spent in
child spans.  A span's self time is its busy time minus its child time.

A hook whose target name no longer exists (a later refactor may remove
`expand_system` or `simulate_classical`), or whose return value no longer
has the shape a counter reads, is recorded as missing, and every metric
that needs it is reported as missing instead of failing the run.
"""

from __future__ import annotations

import dataclasses
import importlib
import statistics
import time
from typing import Callable

MARK = "__perfbench_hook__"


class Tracer:
    """Aggregated span tree plus a few counters read from return values."""

    def __init__(self) -> None:
        self.edges: dict[tuple[str | None, str], list] = {}  # -> [calls, busy_s, child_s]
        self.counters: dict[str, float] = {}
        self.missing: set[str] = set()  # spans whose hook target is gone
        self._stack: list[list] = []  # open spans as [name, child_s]

    def count(self, name: str, value: float) -> None:
        self.counters[name] = self.counters.get(name, 0.0) + value

    def wrap(self, span: str, fn: Callable, after: Callable | None = None) -> Callable:
        """fn, recording one `span` per call.

        after(tracer, args, result) runs outside the timed interval and may
        return a replacement result; if it raises, the span counts as missing.
        """
        stack, edges, clock = self._stack, self.edges, time.perf_counter

        def hooked(*args, **kwargs):
            parent = stack[-1] if stack else None
            frame = [span, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                busy = clock() - start
                stack.pop()
                key = (parent[0] if parent else None, span)
                edge = edges.get(key)
                if edge is None:
                    edge = edges[key] = [0, 0.0, 0.0]
                edge[0] += 1
                edge[1] += busy
                edge[2] += frame[1]
                if parent:
                    parent[1] += busy
            if after is not None:
                try:
                    replaced = after(self, args, result)
                except Exception:  # a refactored return value must not fail the op
                    self.missing.add(span)
                    replaced = None
                if replaced is not None:
                    result = replaced
            return result

        setattr(hooked, MARK, fn)
        return hooked

    # -- reading the tree ------------------------------------------------

    def calls(self, span: str) -> int:
        """Calls of span, not counting those nested in a span of the same name."""
        return sum(e[0] for (p, s), e in self.edges.items() if s == span and p != span)

    def calls_from(self, parent: str, span: str) -> int:
        """Calls of span made directly inside parent."""
        edge = self.edges.get((parent, span))
        return edge[0] if edge else 0

    def busy(self, span: str) -> float:
        """Wall time inside span, counting nested calls of itself once."""
        return sum(e[1] for (p, s), e in self.edges.items() if s == span and p != span)

    def self_time(self, span: str) -> float:
        """Busy time of span minus the time its child spans cover."""
        return sum(e[1] - e[2] for (_, s), e in self.edges.items() if s == span)


# -- what is hooked -------------------------------------------------------

def _csv_bytes(tracer: Tracer, args, result) -> None:
    tracer.count("csv_bytes", args[0].tell())


def _fit_candidates(tracer: Tracer, args, result) -> None:
    curve = result.error_curve
    tracer.count("candidates", len(curve))
    tracer.count("candidates_ok", sum(point.status == "ok" for point in curve))


def _gl_nodes(tracer: Tracer, args, result) -> None:
    tracer.count("gl_nodes", len(result.times))


def _wrap_field(tracer: Tracer, args, field):
    """Wrap the right-hand side of the field expand_system returned."""
    if dataclasses.is_dataclass(field) and hasattr(field, "rhs"):
        return dataclasses.replace(field, rhs=tracer.wrap("expansion.rhs", field.rhs))
    if callable(field):
        return tracer.wrap("expansion.rhs", field)
    tracer.missing.add("expansion.rhs")
    return None


@dataclasses.dataclass(frozen=True)
class Hook:
    """Replace `module.attr` (attr may be `Class.method`) with a span `span`."""

    span: str
    module: str
    attr: str
    after: Callable | None = None


# The benchmark calls `fracepi.cli.main` and `fracepi.gl_simulate` itself;
# every other target is the name under which the calling module looks the
# function up at run time.
HOOKS = (
    Hook("cli.main", "fracepi.cli", "main"),
    Hook("cli.read", "fracepi.cli", "load_scenario_config"),
    Hook("cli.read", "fracepi.cli", "read_observed_csv"),
    Hook("cli.csv_write", "fracepi.cli", "write_trajectory_csv", _csv_bytes),
    Hook("cli.csv_write", "fracepi.cli", "write_error_curve_csv", _csv_bytes),
    Hook("fitting.fit_alpha", "fracepi.cli", "fit_alpha", _fit_candidates),
    Hook("fitting.score", "fracepi.fitting", "percentage_error"),
    Hook("integrate.simulate", "fracepi.cli", "simulate_fractional"),
    Hook("integrate.simulate", "fracepi.fitting", "simulate_fractional"),
    Hook("integrate.simulate", "fracepi.integrate", "simulate_classical"),
    Hook("expansion.expand_system", "fracepi.integrate", "expand_system", _wrap_field),
    Hook("expansion.coefficients", "fracepi.expansion", "ExpansionCoefficients.from_config"),
    Hook("dengue.rhs", "fracepi.integrate", "classical_rhs"),
    Hook("dengue.rhs", "fracepi.grunwald", "classical_rhs"),
    Hook("grunwald.gl_simulate", "fracepi", "gl_simulate", _gl_nodes),
    Hook("grunwald.weights", "fracepi.grunwald", "gl_weights"),
)


def _target(hook: Hook) -> tuple[object, str, object] | None:
    """(owner, attribute name, raw attribute) of a hook, or None if gone."""
    try:
        owner = importlib.import_module(hook.module)
    except ImportError:
        return None
    *path, attr = hook.attr.split(".")
    for part in path:
        owner = getattr(owner, part, None)
    raw = getattr(owner, "__dict__", {}).get(attr)
    return None if raw is None else (owner, attr, raw)


def snapshot() -> dict[Hook, object]:
    """The raw attribute behind every hook target that exists."""
    return {hook: found[2] for hook in HOOKS if (found := _target(hook)) is not None}


def assert_unpatched(reference: dict[Hook, object]) -> None:
    """Every hook target is the original object: nothing is patched."""
    current = snapshot()
    for hook, obj in current.items():
        inner = getattr(obj, "__func__", obj)
        if hasattr(inner, MARK) or reference.get(hook) is not obj:
            raise AssertionError(f"{hook.module}.{hook.attr} is patched")
    if current.keys() != reference.keys():
        raise AssertionError("the set of hook targets changed during the run")


class Hooks:
    """Installs the hooks into the program and restores the originals."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self._saved: list[tuple[object, str, object]] = []

    def install(self) -> None:
        for hook in HOOKS:
            found = _target(hook)
            if found is None:
                self.tracer.missing.add(hook.span)
                continue
            owner, attr, raw = found
            if isinstance(raw, (classmethod, staticmethod)):
                # Wrap the bound method; callers still call it on the class.
                replacement = staticmethod(
                    self.tracer.wrap(hook.span, getattr(owner, attr), hook.after))
            else:
                replacement = self.tracer.wrap(hook.span, raw, hook.after)
            self._saved.append((owner, attr, raw))
            setattr(owner, attr, replacement)

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, raw = self._saved.pop()
            setattr(owner, attr, raw)


# -- per-layer metrics ----------------------------------------------------

# Spans each metric is computed from; a metric is missing when one is.
NEEDS = {
    "cli.csv_write_s": ("cli.csv_write",),
    "cli.csv_bytes": ("cli.csv_write",),
    "cli.read_s": ("cli.read",),
    "cli.self_s": ("cli.main", "cli.read", "cli.csv_write", "fitting.fit_alpha",
                   "integrate.simulate"),
    "fitting.fit_s": ("fitting.fit_alpha",),
    "fitting.candidates": ("fitting.fit_alpha",),
    "fitting.ok_ratio": ("fitting.fit_alpha",),
    "fitting.score_s": ("fitting.score",),
    "integrate.runs": ("integrate.simulate",),
    "integrate.run_s": ("integrate.simulate",),
    "integrate.self_s": ("integrate.simulate", "expansion.expand_system", "expansion.rhs",
                         "dengue.rhs"),
    "integrate.step_us": ("integrate.simulate", "expansion.expand_system", "expansion.rhs",
                          "dengue.rhs"),
    "expansion.rhs_evals": ("expansion.expand_system", "expansion.rhs"),
    "expansion.rhs_self_s": ("expansion.expand_system", "expansion.rhs", "dengue.rhs"),
    "expansion.rhs_us": ("expansion.expand_system", "expansion.rhs"),
    "expansion.coeff_calls": ("expansion.coefficients",),
    "expansion.coeff_s": ("expansion.coefficients",),
    "dengue.rhs_evals": ("dengue.rhs",),
    "dengue.rhs_s": ("dengue.rhs",),
    "grunwald.nodes": ("grunwald.gl_simulate",),
    "grunwald.run_s": ("grunwald.gl_simulate",),
    "grunwald.history_s": ("grunwald.gl_simulate", "grunwald.weights", "dengue.rhs"),
    "grunwald.weights_s": ("grunwald.weights",),
    "grunwald.scaling_exp": (),
    "trace.op_s": (),
    "trace.overhead_frac": (),
}


def layer_metrics(tracer: Tracer, traced: list[float], untraced: list[float],
                  scaling_exp: float) -> dict[str, float | None]:
    """Per-operation layer metrics, given the wall time of each traced and
    untraced operation.  Layer times and counts are means over the traced
    operations, so their base is the mean traced operation time.  Every
    metric is missing when either kind of operation never ran."""
    if not traced or not untraced:
        return dict.fromkeys(NEEDS)
    t = tracer
    ops = len(traced)
    evals = t.calls("expansion.rhs")
    rk4_steps = (t.calls_from("integrate.simulate", "expansion.rhs")
                 + t.calls_from("integrate.simulate", "dengue.rhs")) / 4
    candidates = t.counters.get("candidates", 0.0)
    totals = {
        "cli.csv_write_s": t.busy("cli.csv_write"),
        "cli.csv_bytes": t.counters.get("csv_bytes", 0.0),
        "cli.read_s": t.busy("cli.read"),
        "cli.self_s": t.self_time("cli.main"),
        "fitting.fit_s": t.busy("fitting.fit_alpha"),
        "fitting.candidates": candidates,
        "fitting.score_s": t.busy("fitting.score"),
        "integrate.runs": t.calls("integrate.simulate"),
        "integrate.run_s": t.busy("integrate.simulate"),
        "integrate.self_s": t.self_time("integrate.simulate"),
        "expansion.rhs_evals": evals,
        "expansion.rhs_self_s": t.self_time("expansion.rhs"),
        "expansion.coeff_calls": t.calls("expansion.coefficients"),
        "expansion.coeff_s": t.busy("expansion.coefficients"),
        "dengue.rhs_evals": t.calls("dengue.rhs"),
        "dengue.rhs_s": t.busy("dengue.rhs"),
        "grunwald.nodes": t.counters.get("gl_nodes", 0.0),
        "grunwald.run_s": t.busy("grunwald.gl_simulate"),
        "grunwald.history_s": t.self_time("grunwald.gl_simulate"),
        "grunwald.weights_s": t.busy("grunwald.weights"),
    }
    values: dict[str, float | None] = {name: total / ops for name, total in totals.items()}
    values.update({
        # Ratios of totals; 0 where the workload does no such work.
        "fitting.ok_ratio":
            t.counters.get("candidates_ok", 0.0) / candidates if candidates else 0.0,
        "integrate.step_us":
            1e6 * t.busy("integrate.simulate") / rk4_steps if rk4_steps else 0.0,
        "expansion.rhs_us": 1e6 * t.busy("expansion.rhs") / evals if evals else 0.0,
        "grunwald.scaling_exp": scaling_exp,
        "trace.op_s": statistics.mean(traced),
        # Each traced op against the untraced op just before it, which ran
        # in the same phase of the host.
        "trace.overhead_frac":
            statistics.median(t / u for u, t in zip(untraced, traced)) - 1.0,
    })
    for name, spans in NEEDS.items():
        if t.missing.intersection(spans):
            values[name] = None
    return values
