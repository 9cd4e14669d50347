"""Layer tracing for the benchmark's traced run.

The tracer wraps the public functions of the ``longpred`` modules (the
layers) at every place they are looked up: the defining module, each module
that imported the name (``longpred.cli.simulate``, ``longpred.mse.acvf``,
``longpred.fit._model_acvf``, ...), the package namespace and the CLI's
command table.  Each call records a span ``(name, start, end, parent, op)``
in memory; spans are written out only when the run ends.

A span's self time is its duration minus the time covered by its child
spans.  Every ``*_s`` layer metric is a sum of self times, and every layer
metric except rates and ratios is divided by the number of ops traced, so
the figures read per op and do not depend on how many ops fit in a run.
Times include the tracer's own cost; the run reports that cost as the
difference between traced and untraced throughput.

Which end-to-end metric each layer's metrics should move, and where:

=========== ================================ ================ ==============
layer       should move                      on               no change on
=========== ================================ ================ ==============
sim         ops_per_s, op_p50_s, peak_rss_mb mc_many_short    analytic_exact
fit         ops_per_s                        analytic_exact   mc_many_short
predict     ops_per_s                        analytic_exact,  mc_many_short
                                             model_zoo
mse         ops_per_s                        analytic_exact   mc_many_short
special     ops_per_s                        analytic_exact   model_zoo
asymptotics ops_per_s                        analytic_exact   mc_many_short
process     ops_per_s, failed ratio,         model_zoo        analytic_exact
            op_p50_s
cli, config setup_s, ops_per_s               all              --
csvio,
svgplot
=========== ================================ ================ ==============
"""

from __future__ import annotations

import functools
import importlib
import sys
from array import array
from pathlib import Path
from time import perf_counter

import numpy as np

__all__ = ["NOT_TRACED", "Tracer"]

_MODULES = ("asymptotics", "cli", "config", "csvio", "fit", "mse", "predict",
            "process", "sim", "special", "svgplot")

# Public functions left unwrapped, and why.  Their time stays in the caller's
# self time, which is the layer they belong to.
NOT_TRACED = {
    "csvio.fmt": "per-cell formatter; its time is part of csvio.write_s",
    "config.parse_config_file": "helper of load_config; part of config.load_s",
    "mse.toeplitz_quadratic_form": "kernel of mse_of_weights and error_decomposition; "
                                   "part of mse.weights_s and mse.decomposition_s",
}

# Private names traced because a layer metric is defined on them.  No
# workload runs figure1, so there is no cli.figure1_s.
_EXTRA = {"mse": ("_floor",), "special": ("log_gamma_diff",),
          "cli": tuple(f"cmd_{c}" for c in ("coeffs", "fit", "figure2", "figure3",
                                             "rates", "montecarlo"))}

_ACVF_SPAN = {"frac_noise": "process.acvf.frac_noise", "farima": "process.acvf.farima",
              "generic_ma": "process.acvf.generic"}


class Tracer:
    """Context manager that installs the wrappers and collects spans."""

    def __init__(self) -> None:
        self.op = -1
        self._names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self._span_name = array("i")
        self._start = array("d")
        self._end = array("d")
        self._parent = array("i")
        self._span_op = array("i")
        self._stack: list[int] = []
        self.counts: dict[str, float] = {}
        self.failures: list[dict] = []
        self._plans: set = set()
        self._produced: dict = {}
        self._patched: list[tuple[dict, str, object]] = []

    # -- installation -------------------------------------------------------

    def _targets(self) -> dict[int, tuple[str, object]]:
        """id(original function) -> (span name, original)."""
        out = {}
        for short in _MODULES:
            mod = importlib.import_module(f"longpred.{short}")
            for name in (*getattr(mod, "__all__", ()), *_EXTRA.get(short, ())):
                fn = getattr(mod, name)
                if f"{short}.{name}" in NOT_TRACED or not callable(fn) \
                        or isinstance(fn, type):
                    continue
                out[id(fn)] = (f"{short}.{name}", fn)
        return out

    def __enter__(self) -> "Tracer":
        wrappers = {key: self._wrap(span, fn) for key, (span, fn) in self._targets().items()}
        namespaces = [vars(m) for name, m in sorted(sys.modules.items())
                      if name == "longpred" or name.startswith("longpred.")]
        namespaces.append(importlib.import_module("longpred.cli")._COMMANDS)
        try:
            for ns in namespaces:
                for attr, value in list(ns.items()):
                    if id(value) in wrappers:
                        self._patched.append((ns, attr, value))
                        ns[attr] = wrappers[id(value)]
        except BaseException:
            self._restore()
            raise
        return self

    def __exit__(self, *exc) -> None:
        self._restore()

    def _restore(self) -> None:
        while self._patched:
            ns, attr, value = self._patched.pop()
            ns[attr] = value

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self._names)
            self._names.append(name)
        return self._name_ids[name]

    def _wrap(self, span: str, fn):
        before = getattr(self, f"_before_{span.replace('.', '_')}", None)
        after = getattr(self, f"_after_{span.replace('.', '_')}", None)
        module = span.split(".", 1)[0]
        default_id = self._name_id(span)
        stack, names, start, end = self._stack, self._span_name, self._start, self._end

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            nid = default_id
            if before is not None:
                try:
                    nid = before(*args, **kwargs)
                except (TypeError, AttributeError):
                    # the function's signature changed: time the call, skip its counters
                    self._add("trace.hook_errors")
            idx = len(start)
            names.append(nid)
            self._parent.append(stack[-1] if stack else -1)
            self._span_op.append(self.op)
            end.append(0.0)
            stack.append(idx)
            t0 = perf_counter()
            start.append(t0)
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                t1 = end[idx] = perf_counter()
                stack.pop()
                self._record_failure(module, self._names[nid], exc, t1 - t0)
                raise
            end[idx] = perf_counter()
            stack.pop()
            if after is not None:
                after(result)
            return result

        return wrapper

    def _add(self, key: str, value: float = 1.0) -> None:
        self.counts[key] = self.counts.get(key, 0.0) + value

    def _record_failure(self, module: str, span: str, exc: Exception, seconds: float) -> None:
        self._add(f"{module}.failed")
        self._add(f"{module}.failed_s", seconds)
        self.failures.append({"op": self.op, "span": span, "type": type(exc).__name__,
                              "message": str(exc), "seconds": seconds,
                              "achieved_bound": getattr(exc, "achieved_bound", None)})

    # -- per-function counters (hooks take the traced function's arguments) --

    def _before_sim_simulate(self, plan):
        n = plan.replications * plan.length
        self._add("sim.samples", n)
        self._add("sim.path_bytes", 8.0 * n)  # float64 paths simulate returns
        self._plans.add((self.op, plan))
        return self._name_id("sim.simulate")

    def _before_fit_levinson_durbin(self, acvf_prefix, variance_floor=0.0):
        return self._order(np.size(acvf_prefix) - 1, "fit.levinson_durbin")

    def _before_fit_solve_toeplitz(self, first_row, rhs, variance_floor=0.0):
        return self._order(np.size(first_row), "fit.solve_toeplitz")

    def _order(self, k: int, span: str) -> int:
        self._add("fit.order_sum", k)
        self._add("fit.ops", float(k) * k)
        return self._name_id(span)

    def _before_predict_truncated_wk_weights(self, model, k, h=1):
        self._add("predict.wk_ops", float(h) * h * k)
        return self._name_id("predict.truncated_wk_weights")

    def _sequence(self, kind: str, model, n: int, span: str) -> int:
        key = (self.op, kind, model)
        if self._produced.get(key, -1) >= n:
            self._add("process.recomputed")
        self._produced[key] = max(n, self._produced.get(key, -1))
        return self._name_id(span)

    def _before_process_acvf(self, model, n, tol=None):
        return self._sequence("acvf", model, n,
                              _ACVF_SPAN.get(model.kind, f"process.acvf.{model.kind}"))

    def _before_process_ar_coeffs(self, model, n):
        return self._sequence("ar", model, n, "process.ar_coeffs")

    def _before_process_ma_coeffs(self, model, n):
        return self._sequence("ma", model, n, "process.ma_coeffs")

    def _after_process_acvf(self, seq):
        self._add("process.terms", len(seq))

    _after_process_ar_coeffs = _after_process_ma_coeffs = _after_process_acvf

    def _after_csvio_write_csv(self, path):
        self._add("csvio.bytes", Path(path).stat().st_size)

    # -- results -------------------------------------------------------------

    def self_times(self) -> tuple[dict[str, float], dict[str, int]]:
        """Total self seconds and call count of each span name."""
        start = np.frombuffer(self._start, dtype=float)
        dur = np.frombuffer(self._end, dtype=float) - start
        parent = np.frombuffer(self._parent, dtype=np.int32)
        names = np.frombuffer(self._span_name, dtype=np.int32)
        child = np.zeros(dur.size)
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        own = np.bincount(names, weights=dur - child, minlength=len(self._names))
        calls = np.bincount(names, minlength=len(self._names))
        return ({n: float(own[i]) for i, n in enumerate(self._names)},
                {n: int(calls[i]) for i, n in enumerate(self._names)})

    def layer_metrics(self, n_ops: int) -> dict[str, tuple[float, str]]:
        """Per-layer metrics, keyed by name, as (value, unit)."""
        own, calls = self.self_times()

        def s(*spans: str) -> float:
            return sum(own.get(x, 0.0) for x in spans) / n_ops

        def n(*spans: str) -> float:
            return sum(calls.get(x, 0) for x in spans) / n_ops

        def c(key: str) -> float:
            return self.counts.get(key, 0.0) / n_ops

        sim_own = own.get("sim.simulate", 0.0)
        sim_calls = calls.get("sim.simulate", 0)
        process_calls = sum(v for k, v in calls.items() if k.startswith("process."))
        return {
            "sim.simulate_s": (s("sim.simulate"), "s"),
            "sim.empirical_s": (s("sim.empirical_mse"), "s"),
            "sim.simulate_calls": (n("sim.simulate"), "count"),
            "sim.samples": (c("sim.samples"), "count"),
            "sim.samples_per_s": (self.counts.get("sim.samples", 0.0) / sim_own
                                  if sim_own > 0 else 0.0, "1/s"),
            "sim.simulations_per_plan": (sim_calls / len(self._plans)
                                         if self._plans else 0.0, "ratio"),
            "sim.path_bytes": (c("sim.path_bytes"), "bytes"),
            "fit.levinson_s": (s("fit.levinson_durbin"), "s"),
            "fit.levinson_calls": (n("fit.levinson_durbin"), "count"),
            "fit.solve_toeplitz_s": (s("fit.solve_toeplitz"), "s"),
            "fit.solve_toeplitz_calls": (n("fit.solve_toeplitz"), "count"),
            "fit.order_sum": (c("fit.order_sum"), "count"),
            "fit.ops": (c("fit.ops"), "count"),
            "fit.failed": (c("fit.failed"), "count"),
            "predict.wk_s": (s("predict.truncated_wk_weights"), "s"),
            "predict.wk_calls": (n("predict.truncated_wk_weights"), "count"),
            "predict.wk_ops": (c("predict.wk_ops"), "count"),
            "mse.weights_s": (s("mse.mse_of_weights"), "s"),
            "mse.decomposition_s": (s("mse.error_decomposition"), "s"),
            "mse.decomposition_calls": (n("mse.error_decomposition"), "count"),
            "mse.floor_s": (s("mse._floor"), "s"),
            "special.log_gamma_diff_calls": (n("special.log_gamma_diff"), "count"),
            "special.self_s": (sum(v for k, v in own.items() if k.startswith("special."))
                               / n_ops, "s"),
            "asymptotics.improvement_ratio_s": (s("asymptotics.improvement_ratio"), "s"),
            "asymptotics.rate_fit_s": (s("asymptotics.rate_fit"), "s"),
            "process.acvf.frac_noise_s": (s("process.acvf.frac_noise"), "s"),
            "process.acvf.farima_s": (s("process.acvf.farima"), "s"),
            "process.acvf.generic_s": (s("process.acvf.generic"), "s"),
            "process.coeffs_s": (s("process.ar_coeffs", "process.ma_coeffs"), "s"),
            "process.calls": (process_calls / n_ops, "count"),
            "process.terms": (c("process.terms"), "count"),
            "process.failed": (c("process.failed"), "count"),
            "process.failed_s": (c("process.failed_s"), "s"),
            "process.recompute_ratio": (self.counts.get("process.recomputed", 0.0)
                                        / process_calls if process_calls else 0.0, "ratio"),
            "cli.coeffs_s": (s("cli.cmd_coeffs"), "s"),
            "cli.fit_s": (s("cli.cmd_fit"), "s"),
            "cli.figure2_s": (s("cli.cmd_figure2"), "s"),
            "cli.figure3_s": (s("cli.cmd_figure3"), "s"),
            "cli.rates_s": (s("cli.cmd_rates"), "s"),
            "cli.montecarlo_s": (s("cli.cmd_montecarlo"), "s"),
            "config.load_s": (s("config.load_config"), "s"),
            "csvio.write_s": (s("csvio.write_csv"), "s"),
            "csvio.bytes": (c("csvio.bytes"), "bytes"),
            "svgplot.chart_s": (s("svgplot.line_chart"), "s"),
        }

    def write_spans(self, path: Path) -> None:
        """Write every span as ``name<TAB>start<TAB>end<TAB>parent<TAB>op``."""
        with open(path, "w", encoding="utf-8") as f:
            f.write("name\tstart\tend\tparent\top\n")
            for i in range(len(self._start)):
                f.write(f"{self._names[self._span_name[i]]}\t{self._start[i]!r}\t"
                        f"{self._end[i]!r}\t{self._parent[i]}\t{self._span_op[i]}\n")
