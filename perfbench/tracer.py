"""Spans and counts at the module boundaries of ``lpevac``, installed from outside.

``install(tracer)`` replaces, in every ``lpevac`` module that holds them, the
functions one module calls in another (and the few same-module names that the
per-layer metrics need, such as the chart constructor and the chart speed).
A SPAN target records a span: name, start, end and, through the stack, the
span that caused it.  A COUNT target only counts its calls, so that its time
stays in the self time of the span that called it: the GK15 panels and speed
evaluations inside a chart build are chart-build time, inside
``integrate_adaptive`` they are quadrature time.

Spans are aggregated in memory as they close (calls, self time, outermost
inclusive time) and written once, when the traced process ends.  The self
time of a span is its duration minus the durations of its direct children.

A target that no longer exists raises ``MissingTarget``: a renamed function
must fail the traced run, not silently zero a layer metric.
"""
from __future__ import annotations

import importlib
import inspect
import itertools
import time
from collections import Counter, defaultdict

MODULES = ("cli", "tables", "lower_bound", "chord_arc", "evacuation", "lp_geometry", "numerics")

SPAN, COUNT = "span", "count"

# "module.name" or "module.Class.method" -> kind.
TARGETS = {
    "cli.main": SPAN,
    "tables.CurveTable.build": SPAN,
    "tables.CurveTable.to_csv": SPAN,
    "tables.CurveTable.to_json": SPAN,
    "lower_bound.optimality_report": SPAN,
    "lower_bound.weak_lower_bound": SPAN,
    "lower_bound.generic_lower_bound": SPAN,
    "evacuation.worst_case_params": SPAN,
    "evacuation.worst_case_cost": SPAN,
    "evacuation.separation": SPAN,
    "evacuation.evac_time": SPAN,
    "evacuation.simulate_exit": SPAN,
    "chord_arc.min_chord": SPAN,
    "chord_arc.tangential_chord": SPAN,
    "chord_arc.tangential_chord_profile": SPAN,
    "chord_arc.verify_min_chord_monotone": SPAN,
    "chord_arc.verify_tangential_chord_monotone": SPAN,
    "lp_geometry._Chart.__init__": SPAN,
    "lp_geometry.half_perimeter": SPAN,
    "lp_geometry._quarter_arc_integral": SPAN,
    "lp_geometry._arc_from_zero": SPAN,
    "lp_geometry._point_at_arc_from_zero": SPAN,
    "lp_geometry.point_at_arc_length": SPAN,
    "lp_geometry.unit_circle_point": SPAN,
    "numerics.integrate_adaptive": SPAN,
    "numerics.find_root_bracketed": SPAN,
    "numerics.maximize_1d": SPAN,
    "lp_geometry._chart": COUNT,
    "lp_geometry._speed": COUNT,
    "lp_geometry._reduce_angle": COUNT,
    "lp_geometry._fold_limit": COUNT,
    "lp_geometry._ypow": COUNT,
    "lp_geometry.chord_length": COUNT,
    "lp_geometry.lp_norm": COUNT,
    "lp_geometry.validate_p": COUNT,
    "numerics._gk15": COUNT,
}

# Targets whose first argument is a callable whose evaluations are counted
# as "<target>.f".
COUNT_ARG0 = ("numerics.maximize_1d", "numerics.find_root_bracketed")
# Targets whose string result is counted, in UTF-8 bytes.
COUNT_BYTES = ("tables.CurveTable.to_csv", "tables.CurveTable.to_json")
# Targets whose calls are also counted while a given span is open, as
# "<scope>|<target>": GK15 panels of the adaptive quadrature (not of chart
# builds) and point placements made by min_chord.
SCOPED = {
    "numerics._gk15": "numerics.integrate_adaptive",
    "lp_geometry._point_at_arc_from_zero": "chord_arc.min_chord",
}
# Module-level caches whose sizes are read when the traced process ends.
CACHES = ("lp_geometry._CHART_CACHE", "lp_geometry._PERIMETER_CACHE")


class MissingTarget(LookupError):
    """A traced name no longer exists in the program."""


class Tracer:
    """In-memory span aggregation; ``clock`` is injectable for tests."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.stack: list[list] = []  # [name, start, time covered by children]
        self.calls: Counter = Counter()
        self.errors: Counter = Counter()
        self.self_s: defaultdict = defaultdict(float)
        self.incl_s: defaultdict = defaultdict(float)
        self.depth: Counter = Counter()
        self.within: Counter = Counter()  # "scope|name" -> calls
        self.bytes: Counter = Counter()
        self.ticks: dict[str, itertools.count] = {}  # unscoped COUNT targets

    def _count(self, name: str) -> None:
        self.calls[name] += 1
        scope = SCOPED.get(name)
        if scope and self.depth[scope]:
            self.within[f"{scope}|{name}"] += 1

    def open(self, name: str) -> None:
        self._count(name)
        self.depth[name] += 1
        self.stack.append([name, self.clock(), 0.0])

    def close(self) -> None:
        end = self.clock()
        name, start, children = self.stack.pop()
        duration = end - start
        self.self_s[name] += duration - children
        self.depth[name] -= 1
        if not self.depth[name]:
            self.incl_s[name] += duration
        if self.stack:
            self.stack[-1][2] += duration

    def span(self, name: str, fn):
        count_arg0 = name in COUNT_ARG0
        count_bytes = name in COUNT_BYTES

        def traced(*args, **kwargs):
            if count_arg0:
                args = (self.counted(f"{name}.f", args[0]),) + args[1:]
            self.open(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.errors[name] += 1
                raise
            finally:
                self.close()
            if count_bytes:
                self.bytes[name] += len(result.encode())
            return result

        return traced

    def counted(self, name: str, fn):
        if name in SCOPED:
            count = self._count

            def counting(*args, **kwargs):
                count(name)
                return fn(*args, **kwargs)

            return counting
        # The cheapest counter: these names are called millions of times.
        tick = self.ticks.setdefault(name, itertools.count()).__next__

        def ticking(*args, **kwargs):
            tick()
            return fn(*args, **kwargs)

        return ticking

    def summary(self) -> dict:
        """The aggregates; call once, when the traced process ends."""
        calls = Counter(self.calls)
        for name, ticks in self.ticks.items():
            calls[name] += next(ticks)
        self.ticks.clear()
        return {
            "calls": dict(calls),
            "errors": dict(self.errors),
            "self_s": dict(self.self_s),
            "incl_s": dict(self.incl_s),
            "within": dict(self.within),
            "bytes": dict(self.bytes),
        }


def _modules() -> dict:
    return {name: importlib.import_module(f"lpevac.{name}") for name in MODULES}


def cross_module_names(modules: dict) -> set[str]:
    """Functions a module takes from another lpevac module, as "module.name"."""
    owner = {mod.__name__: short for short, mod in modules.items()}
    found = set()
    for mod in modules.values():
        for attr, obj in vars(mod).items():
            home = owner.get(getattr(obj, "__module__", None))
            if home and home != mod.__name__.rsplit(".", 1)[1] and inspect.isfunction(obj):
                found.add(f"{home}.{attr}")
    return found


def install(tracer: Tracer) -> list[str]:
    """Wrap every target; return the cross-module functions left unwrapped."""
    modules = _modules()
    holders = list(modules.values()) + [importlib.import_module("lpevac")]
    for target, kind in TARGETS.items():
        home, *path = target.split(".")
        wrap = tracer.span if kind == SPAN else tracer.counted
        if len(path) == 2:
            cls = getattr(modules[home], path[0], None)
            raw = getattr(cls, "__dict__", {}).get(path[1])
            if raw is None:
                raise MissingTarget(target)
            if isinstance(raw, classmethod):
                setattr(cls, path[1], classmethod(wrap(target, raw.__func__)))
            else:
                setattr(cls, path[1], wrap(target, raw))
            continue
        original = getattr(modules[home], path[0], None)
        if original is None:
            raise MissingTarget(target)
        wrapper = wrap(target, original)
        for mod in holders:
            if getattr(mod, path[0], None) is original:
                setattr(mod, path[0], wrapper)
    for cache in CACHES:
        home, name = cache.split(".")
        if not hasattr(modules[home], name):
            raise MissingTarget(cache)
    return sorted(cross_module_names(modules) - set(TARGETS))


def cache_entries() -> int:
    modules = _modules()
    return sum(len(getattr(modules[c.split(".")[0]], c.split(".")[1])) for c in CACHES)


def layer_metrics(agg: dict, invocations: int) -> dict[str, tuple[float, str]]:
    """Per-layer metrics per invocation, from summed ``Tracer.summary`` data.

    A ``*_s`` metric is self time, except the inclusive (outermost span)
    times of whole operations: chart_build_s, perimeter_s, verify_*_s,
    tables.build_s and tables.serialize_s.  ``<module>.self_s`` sums the self
    time of the module's spans, including the COUNT targets they call.
    """
    calls = Counter(agg["calls"])
    within = Counter(agg["within"])
    self_s = defaultdict(float, agg["self_s"])
    out_bytes = sum(agg["bytes"].values())
    incl_s = defaultdict(float, agg["incl_s"])
    n = max(invocations, 1)

    def per(x):
        return x / n

    def ratio(a, b):
        return a / b if b else 0.0

    quad_panels = within["numerics.integrate_adaptive|numerics._gk15"]
    lookups = calls["lp_geometry._chart"]
    builds = calls["lp_geometry._Chart.__init__"]
    m = {
        "lp_geometry.chart_builds": (per(builds), "count"),
        "lp_geometry.chart_build_s": (per(incl_s["lp_geometry._Chart.__init__"]), "s"),
        "lp_geometry.speed_evals": (per(calls["lp_geometry._speed"]), "count"),
        "lp_geometry.cache_entries": (per(agg["cache_entries"]), "count"),
        "lp_geometry.chart_hit_ratio": (ratio(lookups - builds, lookups), "ratio"),
        "lp_geometry.point_placements": (per(calls["lp_geometry._point_at_arc_from_zero"]), "count"),
        "lp_geometry.point_s": (per(self_s["lp_geometry._point_at_arc_from_zero"]), "s"),
        "lp_geometry.arc_evals": (per(calls["lp_geometry._arc_from_zero"]), "count"),
        "lp_geometry.arc_s": (per(self_s["lp_geometry._arc_from_zero"]), "s"),
        "lp_geometry.perimeter_s": (per(incl_s["lp_geometry.half_perimeter"]), "s"),
        "numerics.quad_calls": (per(calls["numerics.integrate_adaptive"]), "count"),
        "numerics.quad_panels": (per(quad_panels), "count"),
        "numerics.panels_per_quad": (ratio(quad_panels, calls["numerics.integrate_adaptive"]), "count"),
        "numerics.quad_s": (per(self_s["numerics.integrate_adaptive"]), "s"),
        "numerics.quad_failures": (per(agg["errors"].get("numerics.integrate_adaptive", 0)), "count"),
        "numerics.golden_calls": (per(calls["numerics.maximize_1d"]), "count"),
        "numerics.golden_fevals": (per(calls["numerics.maximize_1d.f"]), "count"),
        "numerics.golden_s": (per(self_s["numerics.maximize_1d"]), "s"),
        "numerics.root_calls": (per(calls["numerics.find_root_bracketed"]), "count"),
        "numerics.root_fevals": (per(calls["numerics.find_root_bracketed.f"]), "count"),
        "chord_arc.min_chord_calls": (per(calls["chord_arc.min_chord"]), "count"),
        "chord_arc.min_chord_s": (per(self_s["chord_arc.min_chord"]), "s"),
        "chord_arc.placements_per_min_chord": (
            ratio(within["chord_arc.min_chord|lp_geometry._point_at_arc_from_zero"], calls["chord_arc.min_chord"]),
            "count",
        ),
        "chord_arc.verify_min_chord_s": (per(incl_s["chord_arc.verify_min_chord_monotone"]), "s"),
        "chord_arc.verify_tangential_s": (per(incl_s["chord_arc.verify_tangential_chord_monotone"]), "s"),
        "evacuation.worst_case_calls": (per(calls["evacuation.worst_case_params"]), "count"),
        "evacuation.worst_case_s": (
            per(self_s["evacuation.worst_case_params"] + self_s["evacuation.worst_case_cost"]), "s"
        ),
        "lower_bound.report_calls": (per(calls["lower_bound.optimality_report"]), "count"),
        "lower_bound.report_s": (per(self_s["lower_bound.optimality_report"]), "s"),
        "tables.build_s": (per(incl_s["tables.CurveTable.build"]), "s"),
        "tables.serialize_s": (
            per(incl_s["tables.CurveTable.to_csv"] + incl_s["tables.CurveTable.to_json"]), "s"
        ),
        "tables.bytes_out": (per(out_bytes), "bytes"),
    }
    for module in MODULES:
        m[f"{module}.self_s"] = (per(_module_self(self_s, module)), "s")
    m["trace.spans"] = (per(sum(calls[t] for t, kind in TARGETS.items() if kind == SPAN)), "count")
    return m


def _module_self(self_s: dict, module: str) -> float:
    return sum(v for k, v in self_s.items() if k.split(".", 1)[0] == module)
