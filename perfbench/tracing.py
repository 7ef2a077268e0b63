"""Span tracing around the package's public functions, from outside it.

:class:`Tracer` wraps each function in :data:`WRAPPED` and installs the
wrapper in every ``threshold_spectra`` module namespace that holds the
original, because a module that imports a function by name (``from
.graph_model import adjacency_matrix``) calls its own binding, not the
defining module's.  :meth:`Tracer.restore` puts every original back.

Every wrapped call records one span ``(name, start, end, parent, job,
value, error)`` in memory.  ``value`` is a size the layer metrics need
(matrix cells, walk terms, census size, exit code), taken from the
result after the clock has stopped.  A span's self time
is its duration minus the durations of its direct children; calls run
on one thread, so children never overlap.
"""

from __future__ import annotations

import sys
from time import perf_counter

PACKAGE = "threshold_spectra"


def _shape_cells(result):
    return int(result.shape[0]) * int(result.shape[1])


def _applicable(result):
    return 1 if result.applicable else 0


def _walk_terms(result):
    return (len(result.lw), result.lw[-1].bit_length())


def _census_size(result):
    return len(result)


def _exit_code(result):
    return result


# (module, function, whether its call count is reported, value extractor)
WRAPPED = (
    ("graph_model", "adjacency_matrix", True, _shape_cells),
    ("graph_model", "to_bzp", True, None),
    ("graph_model", "degree_sequence", True, None),
    ("graph_model", "from_bzp", True, None),
    ("spectral", "spectral_radius", True, None),
    ("spectral", "greatest_real_root", True, None),
    ("bounds", "bound_report", True, _applicable),
    ("walks", "lw_recurrence", True, _walk_terms),
    ("walks", "lw_prime", False, None),
    ("walks", "lw_double_prime", False, None),
    ("walks", "fp_sequence", False, None),
    ("extremal", "enumerate_threshold_graphs", True, _census_size),
    ("cli", "run", True, _exit_code),
)


class Tracer:
    def __init__(self):
        self.spans = []
        self.job = None
        self._stack = []
        self._installed = []

    def install(self) -> None:
        modules = [mod for name, mod in sys.modules.items() if name.split(".")[0] == PACKAGE]
        for module_name, function_name, _, extract in WRAPPED:
            home = sys.modules.get(f"{PACKAGE}.{module_name}")
            original = getattr(home, function_name, None)
            if original is None:
                continue  # the layer no longer exists; its metrics read 0
            wrapper = self._wrap(f"{module_name}.{function_name}", original, extract)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
                        self._installed.append((module, attr, original))

    def restore(self) -> None:
        for module, attr, original in reversed(self._installed):
            setattr(module, attr, original)
        self._installed.clear()

    def _wrap(self, name, function, extract):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            error = None
            result = None
            start = perf_counter()
            try:
                result = function(*args, **kwargs)
                return result
            except BaseException as exc:
                error = type(exc).__name__
                raise
            finally:
                end = perf_counter()
                stack.pop()
                value = extract(result) if extract and error is None else None
                spans[index] = (name, start, end, parent, self.job, value, error)

        return traced

    def layer_metrics(self, passes: int) -> dict[str, float]:
        """Per-pass totals of every layer metric over the recorded spans."""
        spans = self.spans
        child_time = [0.0] * len(spans)
        for name, start, end, parent, _, _, _ in spans:
            if parent >= 0:
                child_time[parent] += end - start
        calls: dict[str, int] = {}
        self_s: dict[str, float] = {}
        values: dict[str, list] = {}
        bzp_under_report = 0
        convergence_errors = 0
        nonzero_exits = 0
        for index, (name, start, end, parent, _, value, error) in enumerate(spans):
            calls[name] = calls.get(name, 0) + 1
            self_s[name] = self_s.get(name, 0.0) + (end - start) - child_time[index]
            if value is not None:
                values.setdefault(name, []).append(value)
            if name == "graph_model.to_bzp" and parent >= 0:
                bzp_under_report += spans[parent][0] == "bounds.bound_report"
            if error == "ConvergenceError" and name.startswith("spectral."):
                convergence_errors += 1
            if name == "cli.run" and (error is not None or value != 0):
                nonzero_exits += 1
        metrics: dict[str, float] = {}
        for module_name, function_name, counted, _ in WRAPPED:
            name = f"{module_name}.{function_name}"
            if counted:
                metrics[f"{name}.calls"] = calls.get(name, 0) / passes
            metrics[f"{name}.self_s"] = self_s.get(name, 0.0) / passes
        reports = values.get("bounds.bound_report", [])
        applicable = sum(reports)
        walk_terms = values.get("walks.lw_recurrence", [])
        metrics.update(
            {
                "graph_model.adjacency_matrix.cells": sum(
                    values.get("graph_model.adjacency_matrix", [])
                ) / passes,
                "graph_model.to_bzp.per_report": bzp_under_report / applicable if applicable else 0.0,
                "spectral.convergence_errors": convergence_errors / passes,
                "bounds.applicable_frac": applicable / len(reports) if reports else 0.0,
                "walks.terms": sum(terms for terms, _ in walk_terms) / passes,
                "walks.lw_bits": sum(bits for _, bits in walk_terms) / passes,
                "extremal.census_graphs": sum(
                    values.get("extremal.enumerate_threshold_graphs", [])
                ) / passes,
                "cli.nonzero_exits": nonzero_exits / passes,
                "trace.spans": len(spans) / passes,
            }
        )
        return metrics
