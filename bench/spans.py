"""Per-layer tracing of ineqlab from outside the program.

The tracer replaces the public names through which the modules call each
other (``scenario.shoot_saddle_path``, ``ramsey.gini``, ...) with wrappers
that time each call. A span is kept per (pass, op, layer, calling layer) with
its busy time, its self time (busy time minus that of traced calls made from
inside it), its call count and, for layers that return text, the characters
returned. Spans stay in memory until the run ends and are then written out as
JSON lines; the per-layer metrics are read back from that file.
"""

from __future__ import annotations

import json
import time
from functools import wraps

#: (module of ineqlab, public name looked up in it) for every wrapped layer.
WRAPPED = (
    ("scenario", "parse_scenario"),
    ("scenario", "run_scenario"),
    ("scenario", "shoot_saddle_path"),
    ("scenario", "olg_simulate"),
    ("scenario", "trajectory_csv_text"),
    ("scenario", "metrics_csv_text"),
    ("scenario", "line_chart"),
    ("ramsey", "market_decompose"),
    ("ramsey", "gini"),
    ("ramsey", "coefficient_of_variation"),
    ("ramsey", "ratio_max_min"),
    ("olg", "gini"),
    ("olg", "coefficient_of_variation"),
    ("olg", "ratio_max_min"),
    ("value_theory", "fmt_sweep"),
    ("value_theory", "random_economy"),
    ("value_theory", "surplus_value_rate"),
    ("value_theory", "spectral_radius"),
    ("value_theory", "gcet_values"),
)

ROW_STATS = tuple(f"{module}.{name}" for module in ("ramsey", "olg")
                  for name in ("gini", "coefficient_of_variation", "ratio_max_min"))


class Tracer:
    """Collects spans for the pass and op named in ``pass_index`` and ``op``,
    timed on ``clock``."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.pass_index = 0
        self.op = ""
        self._records: dict[tuple, list] = {}
        self._stack: list[list] = []  # [layer, time spent in traced children]
        self._originals: list[tuple] = []

    def install(self, package):
        """Wrap every layer of WRAPPED in the imported ``ineqlab`` package."""
        for module_name, name in WRAPPED:
            module = getattr(package, module_name)
            fn = getattr(module, name)
            self._originals.append((module, name, fn))
            setattr(module, name, self._wrap(fn, f"{module_name}.{name}"))

    def uninstall(self):
        """Put the unwrapped functions back, so later calls leave no spans."""
        for module, name, fn in self._originals:
            setattr(module, name, fn)
        self._originals.clear()

    def _wrap(self, fn, layer: str):
        stack, records, clock = self._stack, self._records, self.clock

        @wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1][0] if stack else None
            frame = [layer, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                busy = clock() - start
                stack.pop()
                if stack:
                    stack[-1][1] += busy
                key = (self.pass_index, self.op, layer, parent)
                record = records.get(key)
                if record is None:
                    record = records[key] = [0.0, 0.0, 0, 0]
                record[0] += busy
                record[1] += busy - frame[1]
                record[2] += 1
            if isinstance(result, str):
                record[3] += len(result)
            return result

        return traced

    def write(self, path):
        """Write every span as one JSON object per line."""
        with open(path, "w", encoding="utf-8") as fh:
            for (pass_index, op, layer, parent), (busy, own, calls, chars) in (
                    self._records.items()):
                fh.write(json.dumps({
                    "pass": pass_index, "op": op, "layer": layer,
                    "parent": parent, "busy_s": busy, "self_s": own,
                    "calls": calls, "chars": chars,
                }) + "\n")


def read_spans(path) -> list[dict]:
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh]


def layer_metrics(spans: list[dict]) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of a set of spans, as name -> (value, unit)."""

    def total(field, *layers):
        return sum(s[field] for s in spans if s["layer"] in layers)

    csv = ("scenario.trajectory_csv_text", "scenario.metrics_csv_text")
    vt = "value_theory."
    return {
        "ramsey.shoot_self_s": (total("self_s", "scenario.shoot_saddle_path"), "s"),
        "ramsey.shoot_calls": (total("calls", "scenario.shoot_saddle_path"), "count"),
        "ramsey.decompose_s": (total("busy_s", "ramsey.market_decompose"), "s"),
        "olg.simulate_self_s": (total("self_s", "scenario.olg_simulate"), "s"),
        "metrics.row_stats_s": (total("busy_s", *ROW_STATS), "s"),
        "metrics.row_stats_calls": (total("calls", *ROW_STATS), "count"),
        "scenario.parse_s": (total("busy_s", "scenario.parse_scenario"), "s"),
        "scenario.csv_s": (total("busy_s", *csv), "s"),
        "scenario.csv_mb": (total("chars", *csv) / 1e6, "MB"),
        "svgplot.chart_s": (total("busy_s", "scenario.line_chart"), "s"),
        "svgplot.svg_mb": (total("chars", "scenario.line_chart") / 1e6, "MB"),
        "scenario.run_self_s": (total("self_s", "scenario.run_scenario"), "s"),
        vt + "random_economy_s": (total("busy_s", vt + "random_economy"), "s"),
        vt + "surplus_s": (total("busy_s", vt + "surplus_value_rate"), "s"),
        vt + "spectral_radius_s": (total("busy_s", vt + "spectral_radius"), "s"),
        vt + "spectral_radius_calls": (total("calls", vt + "spectral_radius"), "count"),
        vt + "gcet_self_s": (total("self_s", vt + "gcet_values"), "s"),
        vt + "gcet_calls": (total("calls", vt + "gcet_values"), "count"),
        vt + "sweep_self_s": (total("self_s", vt + "fmt_sweep"), "s"),
    }
