"""Spans around gsda's layers, recorded from outside the package.

Every call site gsda looks up at run time (a module attribute, or a
method on a class) can be replaced by a wrapper that records a span
(name, start, end, parent, fit id) in memory and updates the layer's
counters.  Nothing inside ``src/`` changes: a refactor that renames an
import makes :meth:`Tracer.missing_sites` report the site as never hit,
and the unattributed share of fit time grows.

A layer's time is the self time of its spans: a span's duration minus
the part its child spans cover.  The fitter entry points are roots;
their self time (the descent loop's own bookkeeping) is reported per
fitter and also counted as unattributed.
"""

import dataclasses
import importlib
import os
import time
from collections import Counter

from gsda.errors import NumericalFailure

# (module, attribute, span name).  "Class.method" patches the class.
SITES = (
    ("gsda.cli", "main", "cli.main"),
    ("gsda.cli", "fit_pot_additive", "pot.fit"),
    ("gsda.quantile", "fit_quantile_additive", "quantile.fit"),
    ("gsda.engine", "gsda_minimize", "engine.minimize"),
    ("gsda.engine", "sample_unit_ball", "engine.sample"),
    ("gsda.quantile", "sample_unit_ball", "engine.sample"),
    ("gsda.pot", "sample_unit_ball", "engine.sample"),
    ("gsda.engine", "approx_subgradient", "engine.subgradient"),
    ("gsda.engine", "armijo_search", "engine.linesearch"),
    ("gsda.engine", "min_norm_point", "minnorm.qp"),
    ("gsda.pot", "min_norm_point", "minnorm.qp"),
    ("gsda._kernels", "pinball_grad", "kernels.grad"),
    ("gsda._kernels", "pinball_sampled_grad_sum", "kernels.grad"),
    ("gsda._kernels", "gpd_grad", "kernels.grad"),
    ("gsda._kernels", "pinball_loss", "kernels.loss"),
    ("gsda._kernels", "gpd_loglik", "kernels.loss"),
    ("gsda.smoothing", "AdditiveProjector.__init__", "smoothing.build"),
    ("gsda.smoothing", "AdditiveProjector.project", "smoothing.project"),
    ("gsda.pot", "_theta_grad_rows", "pot.subgradient"),
    ("gsda.pot", "PotState.from_lambda", "pot.jacobian"),
    ("gsda.quantile", "_sampled_subgradient", "quantile.subgradient"),
    ("gsda.datasets", "load_csv", "cli.io"),
    ("gsda.cli", "_write_table", "cli.io"),
    ("gsda.cli", "_write_decomposition", "cli.io"),
    ("gsda.cli", "_write_trace", "cli.io"),
    ("gsda.cli", "_write_diagnostics", "cli.io"),
)

ROOTS = ("fit", "cli.main", "pot.fit", "quantile.fit", "engine.minimize")

# per-layer metrics, in report order: name -> unit
LAYER_METRICS = {
    "engine.sample_s": "s",
    "engine.sample_rows": "count",
    "engine.rows_per_iter": "rows/iter",
    "engine.sample_bytes": "bytes",
    "engine.subgradient_s": "s",
    "engine.linesearch_s": "s",
    "engine.objective_s": "s",
    "engine.objective_calls": "count",
    "engine.iterations": "count",
    "engine.steps": "count",
    "engine.shrinks": "count",
    "engine.backtracks": "count",
    "engine.sampling_exhausted": "count",
    "kernels.grad_s": "s",
    "kernels.grad_calls": "count",
    "kernels.grad_rows": "count",
    "kernels.feasible_frac": "fraction",
    "kernels.loss_s": "s",
    "kernels.loss_calls": "count",
    "minnorm.qp_s": "s",
    "minnorm.qp_calls": "count",
    "minnorm.rows_in": "count",
    "minnorm.fallbacks": "count",
    "smoothing.build_s": "s",
    "smoothing.project_s": "s",
    "smoothing.project_calls": "count",
    "smoothing.backfit_cycles": "count",
    "smoothing.unconverged": "count",
    "pot.subgradient_s": "s",
    "pot.jacobian_s": "s",
    "pot.jacobian_calls": "count",
    "pot.self_s": "s",
    "quantile.subgradient_s": "s",
    "quantile.self_s": "s",
    "cli.io_s": "s",
    "cli.bytes_written": "bytes",
    "run.fail_frac": "fraction",
    "run.final_f": "objective",
    "run.batch_s": "s",
    "trace.fit_s": "s",
    "trace.unattributed_frac": "fraction",
    "trace.overhead_frac": "fraction",
}

# counts that must repeat exactly on two runs with the same seed
DETERMINISTIC = (
    "engine.sample_rows", "engine.iterations", "engine.steps", "engine.shrinks",
    "engine.backtracks", "engine.sampling_exhausted", "engine.objective_calls",
    "kernels.grad_calls", "kernels.grad_rows", "kernels.loss_calls",
    "minnorm.qp_calls", "minnorm.rows_in", "minnorm.fallbacks",
    "smoothing.project_calls", "smoothing.backfit_cycles", "smoothing.unconverged",
    "pot.jacobian_calls",
)

# span name -> layer time metric it feeds (self time)
_TIME_METRIC = {
    "engine.sample": "engine.sample_s",
    "engine.subgradient": "engine.subgradient_s",
    "engine.linesearch": "engine.linesearch_s",
    "engine.objective": "engine.objective_s",
    "kernels.grad": "kernels.grad_s",
    "kernels.loss": "kernels.loss_s",
    "minnorm.qp": "minnorm.qp_s",
    "smoothing.build": "smoothing.build_s",
    "smoothing.project": "smoothing.project_s",
    "pot.subgradient": "pot.subgradient_s",
    "pot.jacobian": "pot.jacobian_s",
    "pot.fit": "pot.self_s",
    "quantile.subgradient": "quantile.subgradient_s",
    "quantile.fit": "quantile.self_s",
    "cli.io": "cli.io_s",
}


def _resolve(module_name, attr):
    owner = importlib.import_module(module_name)
    *path, leaf = attr.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, leaf


class Tracer:
    """Patches the call sites in :data:`SITES` and records spans.

    Use as a context manager, which may be entered again; leaving it
    restores every original.
    """

    def __init__(self):
        self.spans = []  # (name, start, end, parent index or -1, fit id)
        self.counts = Counter()
        self.hits = Counter()  # "module:attr" -> calls
        self.fit_id = -1
        self._stack = []
        self._saved = []

    # -- span recording ----------------------------------------------------

    def span(self, name, fn, after=None, site=None, before=None):
        """Wrap fn so each call records a span and updates counters.

        ``before(args)`` runs ahead of the call and its result is passed
        on as ``after(token, out, exc, args)``; exc is the exception the
        call raised, which is re-raised afterwards.
        """
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def wrapper(*args, **kwargs):
            if site is not None:
                self.hits[site] += 1
            token = before(args) if before is not None else None
            index = len(spans)
            spans.append(None)
            stack.append(index)
            parent = stack[-2] if len(stack) > 1 else -1
            start = clock()
            try:
                out = fn(*args, **kwargs)
            except Exception as exc:
                spans[index] = (name, start, clock(), parent, self.fit_id)
                stack.pop()
                if after is not None:
                    after(token, None, exc, args)
                raise
            spans[index] = (name, start, clock(), parent, self.fit_id)
            stack.pop()
            if after is not None:
                after(token, out, None, args)
            return out

        wrapper.__wrapped__ = fn
        return wrapper

    def objective(self, obj):
        """A copy of a user objective whose eval and grad record spans."""
        def count(token, out, exc, args):
            self.counts["engine.objective_calls"] += 1
        return dataclasses.replace(obj, eval=self.span("engine.objective", obj.eval, count),
                                   grad=self.span("engine.objective", obj.grad, count))

    # -- patching ----------------------------------------------------------

    def __enter__(self):
        for module_name, attr, name in SITES:
            owner, leaf = _resolve(module_name, attr)
            original = owner.__dict__[leaf] if isinstance(owner, type) else getattr(owner, leaf)
            fn = original.__func__ if isinstance(original, classmethod) else original
            before, after = self._hooks(attr.rsplit(".", 1)[-1], name)
            wrapped = self.span(name, fn, after, f"{module_name}:{attr}", before)
            if isinstance(original, classmethod):
                wrapped = classmethod(wrapped)
            self._saved.append((owner, leaf, original))
            setattr(owner, leaf, wrapped)
        return self

    def __exit__(self, *exc):
        for owner, leaf, original in reversed(self._saved):
            setattr(owner, leaf, original)
        self._saved.clear()
        return False

    def missing_sites(self, expected):
        """Expected "module:attr" sites that no call went through."""
        return [site for site in expected if self.hits[site] == 0]

    # -- counters ----------------------------------------------------------

    def _hooks(self, attr, name):
        """(before, after) hooks that keep the counters of one call site."""
        c = self.counts

        if name == "engine.sample":
            def after(token, out, exc, args):
                if exc is None:
                    c["engine.sample_rows"] += out.shape[0]
                    c["engine.sample_bytes"] += out.nbytes
            return None, after

        if name == "kernels.grad":
            sampled = "sampled" in attr

            def after(token, out, exc, args):
                c["kernels.grad_calls"] += 1
                c["kernels.grad_rows"] += args[-1].shape[0] if sampled else 1
            return None, after

        if name == "minnorm.qp":
            def after(token, out, exc, args):
                c["minnorm.qp_calls"] += 1
                c["minnorm.rows_in"] += args[0].vectors.shape[0]
                c["minnorm.fallbacks"] += isinstance(exc, NumericalFailure)
            return None, after

        if name == "smoothing.project":
            def after(token, out, exc, args):
                c["smoothing.project_calls"] += 1
                if exc is None:
                    c["smoothing.backfit_cycles"] += out.cycles
                    c["smoothing.unconverged"] += not out.converged
            return None, after

        if name in ("kernels.loss", "pot.jacobian"):
            metric = name + "_calls"

            def after(token, out, exc, args):
                c[metric] += 1
            return None, after

        if name == "cli.io" and attr in ("_write_table", "_write_diagnostics"):
            def after(token, out, exc, args):
                if exc is None:
                    c["cli.bytes_written"] += os.path.getsize(args[0])
            return None, after

        if name.endswith(".subgradient"):
            return self._oracle_hooks(attr)

        return None, None

    def _oracle_hooks(self, attr):
        """Feasible draws (the m rows an estimate used) over rows drawn.

        Oracle calls that end in SamplingExhausted are left out of the
        ratio; the fit traces count them as sampling_exhausted events.
        """
        c = self.counts

        def resolved_m(args):
            if attr == "approx_subgradient":  # (obj, x, eps, params, rng)
                return args[3].m or args[0].dim + 1
            return args[3] if attr == "_theta_grad_rows" else args[4]

        def before(args):
            return c["engine.sample_rows"]

        def after(drawn_before, out, exc, args):
            if exc is None:
                c["draws.evaluated"] += c["engine.sample_rows"] - drawn_before
                c["draws.feasible"] += resolved_m(args)
        return before, after

    # -- reduction ---------------------------------------------------------

    def self_times(self):
        """(self seconds per span name, wall seconds of the fit spans)."""
        covered = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        out = Counter()
        for (name, start, end, _, _), child in zip(self.spans, covered):
            out[name] += end - start - child
        fit_wall = sum(end - start for name, start, end, _, _ in self.spans if name == "fit")
        return out, fit_wall

    def layer_metrics(self):
        """All per-layer metrics except run.* and trace.overhead_frac."""
        self_s, fit_wall = self.self_times()
        c = self.counts
        metrics = {name: 0.0 for name in LAYER_METRICS}
        for span_name, metric in _TIME_METRIC.items():
            metrics[metric] += self_s[span_name]
        for name in LAYER_METRICS:
            if name in c:
                metrics[name] = float(c[name])
        if c["engine.iterations"]:
            metrics["engine.rows_per_iter"] = c["engine.sample_rows"] / c["engine.iterations"]
        if c["draws.evaluated"]:
            metrics["kernels.feasible_frac"] = c["draws.feasible"] / c["draws.evaluated"]
        attributed = sum(v for k, v in self_s.items() if k not in ROOTS)
        metrics["trace.fit_s"] = fit_wall
        metrics["trace.unattributed_frac"] = (
            1.0 - attributed / fit_wall if fit_wall > 0 else 1.0)
        return metrics

    def write_spans(self, path):
        """Write every span as one CSV row: name,start,end,parent,fit."""
        with open(path, "w") as fh:
            fh.write("name,start,end,parent,fit\n")
            for name, start, end, parent, fit in self.spans:
                fh.write(f"{name},{start:.9f},{end:.9f},{parent},{fit}\n")
