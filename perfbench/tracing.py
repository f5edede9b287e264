"""Layer spans recorded from outside the program.

The tracer replaces each public function of a layer, as bound in the
namespace of the modules that call it, with a wrapper that times the call
and charges it to a span named ``<layer>.<function>``.  A span's self time
is its duration minus the time of the spans it calls; calls never overlap
because the client is single-threaded.  Spans are folded into per-name
totals as they close, and a few counters record the work each call did.

A binding that is missing is skipped, so a layer function that a later
version deletes reports zero instead of breaking the benchmark.
"""

from __future__ import annotations

import functools
import importlib
import inspect
from collections import defaultdict
from time import perf_counter

# namespace module -> names bound there that belong to a measured layer.
# ``wdglab.compose`` the attribute is a function, so modules are reached
# through importlib.
BINDINGS = {
    "wdglab.cli": (
        "parse_wdg_document", "parse_target_document", "report_document",
        "serialize_report", "serialize_wdg", "optimization_summary",
        "iterate_compose", "compose_graphs", "maximize_l1", "minimize_delta",
        "l1_norm", "evaluate", "f_value",
    ),
    "wdglab.documents": (
        "extrema", "vertex_weight_bound", "advantage_indicator",
        "l1_norm", "l1_norm_with_shift", "build_wdg",
    ),
    "wdglab.compose": (
        "compose", "compose_and", "compose_or", "kronecker", "add", "scale",
        "identity", "matrix_of", "wdg_of_matrix", "l1_norm",
    ),
    "wdglab.optimize": (
        "extrema", "approximation_error", "evaluate", "build_wdg", "l1_norm",
    ),
    "wdglab.oracle": ("vertex_weight_bound", "evaluate", "l1_norm", "build_wdg"),
    "wdglab.core": ("build_wdg", "l1_norm"),
}

LAYERS = ("cli", "documents", "oracle", "compose", "tensor", "core", "optimize")


class Tracer:
    """Per-name span totals and work counters, collected while installed."""

    def __init__(self):
        self.calls = defaultdict(int)
        self.total = defaultdict(float)
        self.self_time = defaultdict(float)
        self.longest = defaultdict(float)
        self.counts = defaultdict(int)
        self._children = []  # time of closed child spans, one slot per open span
        self._optimize_depth = 0
        self._saved = []

    def span(self, name: str, fn, on_exit=None):
        """``fn`` wrapped so each call records one span called ``name``."""
        children = self._children
        optimizing = name.startswith("optimize.")

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            children.append(0.0)
            self._optimize_depth += optimizing
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = perf_counter() - start
                self._optimize_depth -= optimizing
                inner = children.pop()
                if children:
                    children[-1] += duration
                self.calls[name] += 1
                self.total[name] += duration
                self.self_time[name] += duration - inner
                self.longest[name] = max(self.longest[name], duration)
            if on_exit is not None:
                on_exit(args, kwargs, result, duration)
            return result

        return wrapper

    # -- counters recorded where the work happens ---------------------------

    def _extrema_done(self, args, kwargs, report, duration):
        if report.exact:
            self.counts["scan_points"] += 1 << args[0].num_variables
        if self._optimize_depth:
            self.counts["exact_checks"] += 1
            self.total["optimize.exact_check"] += duration

    def _composed(self, args, kwargs, result, duration):
        self.counts["edges_out"] += len(result.wdg.edges)

    def _matrix_built(self, args, kwargs, result, duration):
        self.counts["entries_out"] += result.rows * result.cols

    def _parsed(self, args, kwargs, result, duration):
        self.counts["parse_bytes"] += len(args[0])

    def _serialized(self, args, kwargs, result, duration):
        self.counts["serialize_bytes"] += len(result)

    def _solver_hook(self, fn):
        signature = inspect.signature(fn)

        def solved(args, kwargs, result, duration):
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            self.counts["proposals"] += bound.arguments["budget"] * max(1, bound.arguments["chains"])

        return solved

    def _hook(self, name, fn):
        function = name.split(".", 1)[1]
        if name == "oracle.extrema":
            return self._extrema_done
        if name in ("compose.compose_and", "compose.compose_or"):
            return self._composed
        if name.startswith("tensor."):
            return self._matrix_built
        if function.startswith("parse_"):
            return self._parsed
        if function.startswith("serialize_"):
            return self._serialized
        if name in ("optimize.maximize_l1", "optimize.minimize_delta"):
            return self._solver_hook(fn)
        return None

    # -- installing and removing the wrappers -------------------------------

    def install(self) -> None:
        for module_name, names in BINDINGS.items():
            module = importlib.import_module(module_name)
            for attr in names:
                fn = getattr(module, attr, None)
                if not callable(fn):
                    continue
                layer = fn.__module__.rpartition(".")[2]
                name = f"{layer}.{fn.__name__}"
                self._saved.append((module, attr, fn))
                setattr(module, attr, self.span(name, fn, self._hook(name, fn)))

    def uninstall(self) -> None:
        while self._saved:
            module, attr, fn = self._saved.pop()
            setattr(module, attr, fn)

    # -- per-layer metrics --------------------------------------------------

    def metrics(self, commands: int) -> dict:
        """Per-layer metrics; counts and seconds are per traced command."""

        def per(value):
            return value / commands

        def rate(work, seconds):
            return work / seconds if seconds > 0 else 0.0

        def names(prefix):
            return [n for n in self.calls if n.startswith(prefix)]

        def self_sum(prefix):
            return sum(self.self_time[n] for n in names(prefix))

        parse = self.total["documents.parse_wdg_document"] + self.total["documents.parse_target_document"]
        serialize = self.total["documents.serialize_wdg"] + self.total["documents.serialize_report"]
        builds = ("compose.compose_and", "compose.compose_or")
        optimize_self = self_sum("optimize.")
        extrema_self = self.self_time["oracle.extrema"]
        compose_self = self_sum("compose.")
        out = {
            "cli.main.self_s": per(self.self_time["cli.main"]),
            "documents.report_document.self_s": per(self.self_time["documents.report_document"]),
            "documents.parse.s": per(parse),
            "documents.parse.bytes_per_s": rate(self.counts["parse_bytes"], parse),
            "documents.serialize.s": per(serialize),
            "documents.serialize.bytes_per_s": rate(self.counts["serialize_bytes"], serialize),
            "oracle.extrema.calls": per(self.calls["oracle.extrema"]),
            "oracle.extrema.self_s": per(extrema_self),
            "oracle.scan_points": per(self.counts["scan_points"]),
            "oracle.scan_points_per_s": rate(self.counts["scan_points"], extrema_self),
            "oracle.vertex_weight_bound.s": per(self.total["oracle.vertex_weight_bound"]),
            "compose.calls": per(sum(self.calls[n] for n in builds)),
            "compose.self_s": per(compose_self),
            "compose.edges_out": per(self.counts["edges_out"]),
            "compose.edges_out_per_s": rate(self.counts["edges_out"], sum(self.total[n] for n in builds)),
            "compose.stage_s_max": max(self.longest[n] for n in builds),
        }
        for op in ("kronecker", "add", "scale", "identity"):
            out[f"tensor.{op}.calls"] = per(self.calls[f"tensor.{op}"])
            out[f"tensor.{op}.s"] = per(self.total[f"tensor.{op}"])
        out["tensor.entries_out"] = per(self.counts["entries_out"])
        out["core.wdg_of_matrix.s"] = per(self.total["core.wdg_of_matrix"])
        for op in ("l1_norm", "evaluate", "build_wdg"):
            out[f"core.{op}.calls"] = per(self.calls[f"core.{op}"])
            out[f"core.{op}.s"] = per(self.total[f"core.{op}"])
        out.update(
            {
                "optimize.self_s": per(optimize_self),
                "optimize.proposals": per(self.counts["proposals"]),
                "optimize.proposals_per_s": rate(self.counts["proposals"], optimize_self),
                "optimize.exact_checks": per(self.counts["exact_checks"]),
                "optimize.exact_check_s": per(self.total["optimize.exact_check"]),
            }
        )
        command_time = self.total["cli.main"]
        for layer in LAYERS:
            out[f"layer.{layer}.self_share"] = rate(self_sum(f"{layer}."), command_time)
        return out
