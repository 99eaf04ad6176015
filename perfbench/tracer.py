"""Spans around the calls into rkhstest's public functions.

The tracer replaces each traced function, in every rkhstest module that
holds a reference to it, by a wrapper that records a span: its name, start,
end, the span that was open when it began, the operation it belongs to and
an optional count (greedy iterations, Gram entries, normals drawn).  Loss
evaluations are counted without spans, because there are about 35 of them
per greedy iteration.  Spans stay in memory until ``write``.

Nothing under ``src/`` is changed: the wrappers are installed on the
imported modules by the benchmark and removed by ``uninstall``.
"""

from __future__ import annotations

import functools
import json
import time
from pathlib import Path

# span name -> (module, attribute) of each traced module-level function
FUNCTIONS = {
    "simulation.run_monte_carlo": ("simulation", "run_monte_carlo"),
    "simulation.data": [("simulation", "gen_covariates"), ("simulation", "gen_response")],
    "estimators.greedy_fit": ("estimators", "greedy_fit"),
    "estimators.line_search": ("estimators", "line_search"),
    "estimators.ridge_fit": ("estimators", "fit_constrained_ridge"),
    "estimators.gram_eigen": ("estimators", "gram_eigen"),
    "estimators.budget_root": ("estimators", "solve_rho_for_budget"),
    "kernels.gram": ("kernels", "gram_matrix"),
    "inference.run_test": ("inference", "run_test"),
    "inference.instruments": [("inference", "build_instruments"),
                              ("inference", "series_feature_columns")],
    "inference.projection": [("inference", "project_instruments"),
                             ("inference", "project_on_features")],
    "inference.statistic": ("inference", "test_statistic"),
    "inference.covariance": ("inference", "covariance_estimate"),
    "inference.null_sim": ("inference", "simulate_null"),
    "inference.p_value": ("inference", "p_value"),
    "inference.diagnostics": [("inference", "residual_null_score"),
                              ("inference", "orthogonality_defect")],
    "cli.main": ("cli", "main"),
    "cli.parse": ("cli", "parse_config"),
    "cli.ingest": ("cli", "ingest_csv"),
    "cli.emit": ("cli", "emit_results"),
}
MODULES = ("kernels", "losses", "estimators", "inference", "simulation", "cli")


def _gram_entries(args, kwargs, out) -> int:
    return int(out.shape[0] * out.shape[1])


def _greedy_iterations(args, kwargs, out) -> int:
    return int(out.trace.steps.size)


def _normals_drawn(args, kwargs, out) -> int:
    import numpy as np

    spectrum = np.asarray(args[0] if args else kwargs["spectrum"])
    return int(np.count_nonzero(spectrum > 0)) * int(out.shape[0])


COUNTERS = {
    "kernels.gram": _gram_entries,
    "estimators.greedy_fit": _greedy_iterations,
    "inference.null_sim": _normals_drawn,
}


class Tracer:
    """Records spans while an operation is open (``begin_op``/``end_op``)."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.op: int | None = None
        self.counts = {"losses.value": 0}
        self._restore: list[tuple[object, str, object]] = []

    # -- recording

    def begin_op(self, op: int) -> None:
        self.op = op

    def end_op(self) -> None:
        self.op = None

    def _wrap(self, name: str, fn):
        counter = COUNTERS.get(name)
        spans, stack = self.spans, self.stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self.op is None:
                return fn(*args, **kwargs)
            span = [name, clock(), None, stack[-1] if stack else -1, self.op, None]
            stack.append(len(spans))
            spans.append(span)
            try:
                out = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            # a Gram built inside another Gram (a sum kernel's terms) is
            # already counted in its parent's entries
            if counter is not None and not (
                name == "kernels.gram" and span[3] >= 0 and spans[span[3]][0] == name
            ):
                span[5] = counter(args, kwargs, out)
            return out

        return wrapper

    def _count(self, key: str, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self.op is not None:
                counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- installation

    def _patch(self, owner, attr: str, new) -> None:
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def install(self, rkhstest) -> None:
        """Wrap the traced functions wherever rkhstest's modules refer to them."""
        modules = [getattr(rkhstest, m) for m in MODULES] + [rkhstest]
        for name, targets in FUNCTIONS.items():
            for module_name, attr in targets if isinstance(targets, list) else [targets]:
                original = getattr(getattr(rkhstest, module_name), attr)
                wrapped = self._wrap(name, original)
                for module in modules:
                    if getattr(module, attr, None) is original:
                        self._patch(module, attr, wrapped)
        kernels = rkhstest.kernels
        for cls in vars(kernels).values():
            if isinstance(cls, type) and issubclass(cls, kernels.Kernel):
                if "gram" in vars(cls) and cls is not kernels.Kernel:
                    self._patch(cls, "gram", self._wrap("kernels.gram", vars(cls)["gram"]))
                if "feature_matrix" in vars(cls):
                    self._patch(cls, "feature_matrix",
                                self._wrap("kernels.features", vars(cls)["feature_matrix"]))
        spec = rkhstest.losses.LossSpec
        self._patch(spec, "value", self._count("losses.value", spec.value))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def write(self, path: Path) -> None:
        Path(path).write_text(json.dumps({"spans": self.spans, "counts": self.counts}))


# ---------------------------------------------------------------- analysis


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the time its direct children cover.

    Children of one span never overlap (the run is single-threaded), so the
    covered time is the sum of their durations.
    """
    own = [end - start for _, start, end, _, _, _ in spans]
    for name, start, end, parent, _, _ in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


# span name -> per-layer metric holding the span's self time per operation
SELF_TIME_METRICS = {
    "simulation.data": "simulation.data_s",
    "simulation.run_monte_carlo": "simulation.harness_s",
    "estimators.greedy_fit": "estimators.greedy_fit_s",
    "estimators.line_search": "estimators.line_search_s",
    "estimators.ridge_fit": "estimators.ridge_fit_s",
    "estimators.gram_eigen": "estimators.gram_eigen_s",
    "estimators.budget_root": "estimators.budget_root_s",
    "kernels.gram": "kernels.gram_s",
    "kernels.features": "kernels.features_s",
    "inference.run_test": "inference.run_test_self_s",
    "inference.instruments": "inference.instruments_s",
    "inference.projection": "inference.projection_s",
    "inference.statistic": "inference.statistic_s",
    "inference.covariance": "inference.covariance_s",
    "inference.null_sim": "inference.null_sim_s",
    "inference.p_value": "inference.p_value_s",
    "inference.diagnostics": "inference.diagnostics_s",
    "cli.main": "cli.main_self_s",
    "cli.parse": "cli.parse_s",
    "cli.ingest": "cli.ingest_s",
    "cli.emit": "cli.emit_s",
}
# per-layer metric -> span name whose inclusive time per operation it holds
TOTAL_TIME_METRICS = {
    "estimators.greedy_fit_total_s": "estimators.greedy_fit",
    "estimators.ridge_fit_total_s": "estimators.ridge_fit",
}
# per-layer metric -> span name whose counts (or number of spans) it sums
COUNT_METRICS = {
    "estimators.greedy_iterations": ("estimators.greedy_fit", "count"),
    "estimators.line_search_calls": ("estimators.line_search", "spans"),
    "kernels.gram_entries": ("kernels.gram", "count"),
    "inference.normals_drawn": ("inference.null_sim", "count"),
}


def layer_metrics(spans: list[list], counts: dict, ops: int) -> dict[str, tuple[float, str]]:
    """Per-layer figures per operation (replicate or CLI run) of a trace.

    Times are self times unless the name says ``total``; a layer that did
    not run on the workload reads 0.
    """
    own = self_times(spans)
    times = dict.fromkeys([*SELF_TIME_METRICS.values(), *TOTAL_TIME_METRICS,
                           "simulation.replicate_s"], 0.0)
    tallies = dict.fromkeys(COUNT_METRICS, 0.0)
    totals = {span: metric for metric, span in TOTAL_TIME_METRICS.items()}
    counted = {span: (metric, kind) for metric, (span, kind) in COUNT_METRICS.items()}
    for i, (name, start, end, parent, _, count) in enumerate(spans):
        if name in SELF_TIME_METRICS:
            times[SELF_TIME_METRICS[name]] += own[i]
        if name in totals:
            times[totals[name]] += end - start
        if name in counted:
            metric, kind = counted[name]
            tallies[metric] += 1 if kind == "spans" else (count or 0)
        if (name == "inference.run_test" and parent >= 0
                and spans[parent][0] == "simulation.run_monte_carlo"):
            times["simulation.replicate_s"] += end - start
    tallies["losses.value_calls"] = counts.get("losses.value", 0)
    iterations = tallies["estimators.greedy_iterations"]
    per_iteration = tallies["losses.value_calls"] / iterations if iterations else 0.0
    out = {metric: (value / ops, "s") for metric, value in times.items()}
    out.update({metric: (value / ops, "count") for metric, value in tallies.items()})
    out["losses.value_calls_per_iteration"] = (per_iteration, "count")
    return out
