"""Span tracing from outside the program.

``Tracer.install()`` replaces public functions of each scgscale module with
wrappers that record one span per call: name, start, end and the span that
called it.  A function is wrapped at every module attribute bound to it, so
callers that imported it by name (``from .geometry import lmo_block``) are
traced as well.  ``Tracer.uninstall()`` puts the originals back, so untraced
batches run the unmodified program.

Spans are kept in memory; ``dump`` writes them out at the end of a run.  Per
name the tracer also keeps calls, total time and self time (total minus the
time of wrapped calls made inside it), plus counters read from arguments and
results (optimizer steps, ``least_squares`` evaluations, bytes written).

Sweep workers inherit the installed wrappers when they are forked.  Each
worker starts from empty totals and writes them to ``spill_dir`` after every
outermost call; ``collect_children`` folds those files into the parent's
totals.  A worker started by ``spawn`` imports the entry script again; it
calls ``install_in_worker``, which installs a tracer there as well.
"""

from __future__ import annotations

import functools
import glob
import importlib
import inspect
import json
import os
import sys
from array import array
from time import perf_counter_ns

SPILL_ENV = "PERFBENCH_TRACE_SPILL"

# (span name, module that defines it, attribute path)
TARGETS = (
    ("optimizer.run", "scgscale.optimizer", "run"),
    ("optimizer.run_staged", "scgscale.optimizer", "run_staged"),
    ("optimizer.RunLog.to_csv", "scgscale.optimizer", "RunLog.to_csv"),
    ("geometry.lmo_block", "scgscale.geometry", "lmo_block"),
    ("geometry.block_primal_norm", "scgscale.geometry", "block_primal_norm"),
    ("geometry.block_dual_norm", "scgscale.geometry", "block_dual_norm"),
    ("numpy.linalg.svd", "numpy.linalg", "svd"),
    ("problems.compiled", "scgscale.problems", "compiled"),
    ("problems.grad_sample", "scgscale.problems", "grad_sample"),
    ("scaling.error_law", "scgscale.scaling", "error_law"),
    ("scaling.critical_bs", "scgscale.scaling", "critical_bs"),
    ("scaling.plan_stages", "scgscale.scaling", "plan_stages"),
    ("scaling.prescribe_params", "scgscale.scaling", "prescribe_params"),
    ("scaling.transfer_model_size", "scgscale.scaling", "transfer_model_size"),
    ("scaling.transfer_token_budget", "scgscale.scaling", "transfer_token_budget"),
    ("scaling.sqrt_rule", "scgscale.scaling", "sqrt_rule"),
    ("scaling.nonconvex_rule", "scgscale.scaling", "nonconvex_rule"),
    ("estimation.estimate_L", "scgscale.estimation", "estimate_L"),
    ("estimation.estimate_mu", "scgscale.estimation", "estimate_mu"),
    ("estimation.estimate_rho", "scgscale.estimation", "estimate_rho"),
    ("estimation.estimate_variance", "scgscale.estimation", "estimate_variance"),
    ("estimation.fit_power_law", "scgscale.estimation", "fit_power_law"),
    ("estimation.least_squares", "scipy.optimize", "least_squares"),
    ("experiments.run_sweep", "scgscale.experiments", "run_sweep"),
    ("experiments.regime_sweep", "scgscale.experiments", "regime_sweep"),
    ("experiments.estimate_logistic_constants", "scgscale.experiments", "estimate_logistic_constants"),
    ("experiments.middle_regime_rates", "scgscale.experiments", "middle_regime_rates"),
    ("experiments.sweep_rows_to_csv", "scgscale.experiments", "sweep_rows_to_csv"),
    ("cli.main", "scgscale.cli", "main"),
)

# Closures returned by problems.compiled: (loss_fn, grad_fn).
COMPILED_NAMES = ("problems.loss_fn", "problems.grad_fn")


def _resolve(module, path):
    owner = importlib.import_module(module)
    *parents, attr = path.split(".")
    for p in parents:
        owner = getattr(owner, p)
    return owner, attr


class Tracer:
    def __init__(self, spill_dir):
        self.spill_dir = spill_dir
        self.names = [name for name, _, _ in TARGETS] + list(COMPILED_NAMES)
        self.ids = {name: i for i, name in enumerate(self.names)}
        self._patches = []
        self.is_worker = False
        self.worker_pids = set()
        self.reset()
        os.register_at_fork(after_in_child=self._after_fork)

    # -- state ---------------------------------------------------------------

    def reset(self):
        self.next_id = 1
        self.stack = []  # [span id, time covered by child spans]
        # name id -> [calls, total ns, self ns]
        self.totals = [[0, 0, 0] for _ in self.names]
        self.counters = dict.fromkeys(
            ("steps", "run_calls", "recorded_rows", "checked_steps",
             "invariant_violations", "residual_evals", "bytes_written",
             "points", "point_errors"), 0)
        # flat (id, parent id, name id, start ns, end ns) records
        self.spans = array("q")

    def _after_fork(self):
        self.reset()
        self.is_worker = True

    # -- wrapping ------------------------------------------------------------

    def install(self):
        modules = [m for n, m in list(sys.modules.items())
                   if n == "scgscale" or n.startswith("scgscale.")]
        for name, module, path in TARGETS:
            owner, attr = _resolve(module, path)
            original = getattr(owner, attr)
            wrapper = self._wrap(name, original)
            bindings = [(owner, attr)]
            if owner is sys.modules.get(module):
                for mod in modules:
                    for key, value in list(vars(mod).items()):
                        if value is original and (mod, key) != (owner, attr):
                            bindings.append((mod, key))
            for obj, key in bindings:
                self._patches.append((obj, key, original))
                setattr(obj, key, wrapper)

    def uninstall(self):
        for obj, key, original in reversed(self._patches):
            setattr(obj, key, original)
        self._patches = []

    def _wrap(self, name, fn):
        name_id = self.ids[name]
        after = {
            "optimizer.run": self._after_run,
            "optimizer.run_staged": self._after_run,
            "problems.compiled": self._after_compiled,
            "estimation.least_squares": self._after_least_squares,
            "optimizer.RunLog.to_csv": self._after_write,
            "experiments.sweep_rows_to_csv": self._after_write,
            "experiments.run_sweep": self._after_run_sweep,
        }.get(name)
        signature = None if after is None else inspect.signature(fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                result = self._span(name_id, fn, args, kwargs)
                if after is not None:
                    result = after(name, signature.bind(*args, **kwargs).arguments, result)
                return result
            finally:
                if self.is_worker and not self.stack:
                    self._spill()

        return wrapper

    def _span(self, name_id, fn, args, kwargs):
        stack = self.stack
        span_id = self.next_id
        self.next_id += 1
        parent = stack[-1][0] if stack else 0
        frame = [span_id, 0]
        stack.append(frame)
        start = perf_counter_ns()
        try:
            return fn(*args, **kwargs)
        finally:
            end = perf_counter_ns()
            stack.pop()
            duration = end - start
            total = self.totals[name_id]
            total[0] += 1
            total[1] += duration
            total[2] += duration - frame[1]
            self.spans.extend((span_id, parent, name_id, start, end))
            if stack:
                stack[-1][1] += duration

    def _after_run(self, name, a, log):
        if name == "optimizer.run":
            steps = a["config"].iters
        else:
            steps = sum(stage.iters for stage in a["plan"].stages)
        c = self.counters
        c["steps"] += steps
        c["run_calls"] += 1
        c["recorded_rows"] += len(log)
        c["checked_steps"] += log.checked_steps
        c["invariant_violations"] += log.invariant_violations
        return log

    def _after_compiled(self, name, a, pair):
        loss_fn, grad_fn = pair
        return (self._wrap_closure(COMPILED_NAMES[0], loss_fn),
                self._wrap_closure(COMPILED_NAMES[1], grad_fn))

    def _wrap_closure(self, name, fn):
        name_id = self.ids[name]

        def wrapper(*args, **kwargs):
            return self._span(name_id, fn, args, kwargs)

        return wrapper

    def _after_least_squares(self, name, a, res):
        self.counters["residual_evals"] += int(res.nfev)
        return res

    def _after_write(self, name, a, result):
        target = a["path_or_buf"]
        if isinstance(target, (str, os.PathLike)):
            self.counters["bytes_written"] += os.path.getsize(target)
        return result

    def _after_run_sweep(self, name, a, result):
        self.counters["points"] += len(result.rows)
        self.counters["point_errors"] += sum(1 for r in result.rows if r.error)
        return result

    # -- worker processes ----------------------------------------------------

    def start(self):
        """Begin a traced batch in this (parent) process."""
        self.reset()
        self.worker_pids = set()
        for path in glob.glob(os.path.join(self.spill_dir, "child-*.json")):
            os.remove(path)

    def _spill(self):
        path = os.path.join(self.spill_dir, f"child-{os.getpid()}.json")
        tmp = path + ".tmp"
        with open(tmp, "w") as fh:
            json.dump({"totals": self.totals, "counters": self.counters}, fh)
        os.replace(tmp, path)

    def collect_children(self):
        """Fold the totals spilled by sweep workers into this process's totals."""
        for path in sorted(glob.glob(os.path.join(self.spill_dir, "child-*.json"))):
            with open(path) as fh:
                data = json.load(fh)
            os.remove(path)
            self.worker_pids.add(os.path.basename(path)[len("child-"):-len(".json")])
            for mine, theirs in zip(self.totals, data["totals"]):
                for i in range(3):
                    mine[i] += theirs[i]
            for key, value in data["counters"].items():
                self.counters[key] += value

    # -- results -------------------------------------------------------------

    def calls(self, name):
        return self.totals[self.ids[name]][0]

    def total_s(self, *names):
        return sum(self.totals[self.ids[n]][1] for n in names) / 1e9

    def self_s(self, *names):
        return sum(self.totals[self.ids[n]][2] for n in names) / 1e9

    def dump(self, path):
        """Write the spans of this process as CSV: id, parent, name, start_ns, end_ns."""
        spans = self.spans
        with open(path, "w") as fh:
            fh.write("id,parent,name,start_ns,end_ns\n")
            for i in range(0, len(spans), 5):
                fh.write(f"{spans[i]},{spans[i + 1]},{self.names[spans[i + 2]]},"
                         f"{spans[i + 3]},{spans[i + 4]}\n")


def install_in_worker():
    """Trace a worker process started with ``spawn`` (no inherited wrappers)."""
    spill_dir = os.environ.get(SPILL_ENV)
    if not spill_dir:
        return None
    tracer = Tracer(spill_dir)
    tracer.is_worker = True
    importlib.import_module("scgscale.cli")
    tracer.install()
    return tracer
