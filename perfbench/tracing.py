"""Layer tracing for the traced benchmark run.

The tracer times the program from outside: it replaces every public
function of each ``scalareq`` module, in every module namespace that
binds it, with a wrapper, and wraps ``Compressor.apply``. Wrappers keep
spans (name, start, end, parent, run id) in memory; the worker writes
them when the run ends. Self time is a span's duration minus the time
of the wrapped calls it encloses.

Functions called once per solver step or per right-hand side would make
the traced run measure its own wrappers, so they are not spans:
``HOT_COUNTED`` functions only count calls, and ``HOT_TIMED`` functions
count calls and accumulate time without recording a span each.
"""

import functools
import importlib
import inspect
import json
import os
from collections import Counter, defaultdict
from time import perf_counter

MODULES = ("linalg", "graph", "compression", "dynamics", "theory", "harness", "cli")

HOT_COUNTED = {
    "compression.eval_dt", "compression.eval_ct", "compression.compress_topk",
    "compression.compress_unbiased", "compression.compress_uniform",
}
HOT_TIMED = {
    "dynamics.solver_dt_step", "dynamics.solver_ct_rhs", "dynamics.consensus_rhs",
    "compression.apply",
}

# (name, unit) of every per-layer metric. "X.calls" counts calls of X;
# "X.s" is the self time of X, or its inclusive time where "X.self_s"
# is listed too; the dynamics counters are read from returned traces.
PER_LAYER = (
    ("linalg.sym_eig.calls", "count"), ("linalg.sym_eig.s", "s"),
    ("linalg.rank_check.s", "s"), ("linalg.spectral_constants.s", "s"),
    ("graph.build_graph.s", "s"), ("graph.laplacian_spectrum.s", "s"),
    ("compression.eval_dt.calls", "count"), ("compression.eval_ct.calls", "count"),
    ("compression.apply.calls", "count"), ("compression.apply.s", "s"),
    ("compression.pe_gram_ct.s", "s"), ("compression.pe_gram_dt.s", "s"),
    ("compression.verify_pe_ct.s", "s"), ("compression.verify_pe_dt.s", "s"),
    ("dynamics.run_simulation.s", "s"), ("dynamics.run_simulation.self_s", "s"),
    ("dynamics.solver_dt_step.calls", "count"), ("dynamics.solver_dt_step.s", "s"),
    ("dynamics.solver_ct_rhs.calls", "count"), ("dynamics.solver_ct_rhs.s", "s"),
    ("dynamics.steps", "count"), ("dynamics.trace_rows", "count"),
    ("dynamics.scalars_tx", "count"), ("dynamics.bits_tx", "count"),
    ("theory.observability_gram.s", "s"), ("theory.dt_stepsize_and_rate.s", "s"),
    ("theory.consensus_rate.s", "s"), ("theory.solver_ct_rate.s", "s"),
    ("harness.gen_instance.s", "s"), ("harness.run_experiment.self_s", "s"),
    ("harness.fit_rate.s", "s"), ("harness.serialize.s", "s"),
    ("harness.serialize.bytes", "bytes"), ("harness.parse_config.s", "s"),
    ("cli.compare.s", "s"), ("cli.bounds.s", "s"), ("cli.pe-check.s", "s"),
    ("trace_overhead", "s"), ("trace.uncovered_frac", "frac"),
)

# metrics the run, not a single traced process, supplies
RUN_LEVEL = ("trace_overhead", "trace.uncovered_frac")


class Tracer:
    """Spans and counters of one traced workload run."""

    def __init__(self, run_id):
        self.run_id = run_id
        self.spans = []  # [name, start, end, parent index, self seconds]
        self.stack = []  # open frames: [span index or None, child seconds]
        self.calls = Counter()
        self.hot_self_s = defaultdict(float)
        self.counters = Counter()

    def _close(self, frame, start, end):
        # returns the frame's self time and charges its duration to the caller
        if self.stack:
            self.stack[-1][1] += end - start
        return end - start - frame[1]

    def span(self, name, fn, on_result=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            label = name(args, kwargs) if callable(name) else name
            parent = next((f[0] for f in reversed(self.stack) if f[0] is not None), None)
            index = len(self.spans)
            frame = [index, 0.0]
            self.spans.append([label, perf_counter(), None, parent, 0.0])
            self.stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                self.stack.pop()
                record = self.spans[index]
                record[2] = end
                record[4] = self._close(frame, record[1], end)
            if on_result is not None:
                on_result(self, result)
            return result
        return wrapper

    def timed(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.calls[name] += 1
            frame = [None, 0.0]
            self.stack.append(frame)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                self.stack.pop()
                self.hot_self_s[name] += self._close(frame, start, end)
        return wrapper

    def counted(self, name, fn):
        calls = self.calls

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def root_span_s(self):
        """Time covered by spans that no other span encloses."""
        return sum(end - start for _, start, end, parent, _ in self.spans if parent is None)

    def layer_metrics(self):
        """Per-layer values of this run, keyed by PER_LAYER name."""
        self_s = defaultdict(float, self.hot_self_s)
        incl_s = defaultdict(float)
        calls = Counter(self.calls)
        for name, start, end, _, own in self.spans:
            self_s[name] += own
            incl_s[name] += end - start
            calls[name] += 1
        names = {name for name, _ in PER_LAYER}
        out = {}
        for metric, _ in PER_LAYER:
            if metric in RUN_LEVEL:
                continue
            if metric.endswith(".calls"):
                out[metric] = calls[metric[:-len(".calls")]]
            elif metric.endswith(".self_s"):
                out[metric] = self_s[metric[:-len(".self_s")]]
            elif metric.endswith(".s"):
                fn = metric[:-len(".s")]
                out[metric] = incl_s[fn] if f"{fn}.self_s" in names else self_s[fn]
            else:
                out[metric] = self.counters[metric]
        return out

    def dump(self, path):
        """Write the spans as JSON lines: id, name, start, end, parent, self time, run id."""
        with open(path, "w") as fh:
            for index, (name, start, end, parent, own) in enumerate(self.spans):
                fh.write(json.dumps({"id": index, "name": name, "start": start, "end": end,
                                     "parent": parent, "self_s": own,
                                     "run": self.run_id}) + "\n")


def _count_trace(tracer, trace):
    meta = trace.meta
    last = float(trace.clock[-1])
    rounds = last if meta["mode"] == "dt" else last / float(meta["dt_int"])
    tracer.counters["dynamics.steps"] += int(round(rounds))
    tracer.counters["dynamics.trace_rows"] += len(trace)
    tracer.counters["dynamics.scalars_tx"] += int(trace.scalars_tx_cum[-1])
    tracer.counters["dynamics.bits_tx"] += int(trace.bits_tx_cum[-1])


def _count_bytes(tracer, path):
    tracer.counters["harness.serialize.bytes"] += os.path.getsize(path)


ON_RESULT = {"dynamics.run_simulation": _count_trace, "harness.serialize": _count_bytes}


def _cli_label(args, kwargs):
    argv = args[0] if args else kwargs.get("argv")
    return f"cli.{argv[0]}" if argv else "cli.main"


def install(run_id):
    """Wrap the public functions of every scalareq module; return the tracer."""
    import scalareq
    from scalareq import compression

    tracer = Tracer(run_id)
    modules = [scalareq] + [importlib.import_module(f"scalareq.{name}") for name in MODULES]
    wrapped = {}
    for module in modules:
        for attr, fn in list(vars(module).items()):
            if attr.startswith("_") or not inspect.isfunction(fn):
                continue
            home = fn.__module__.rpartition(".")[2]
            if not fn.__module__.startswith("scalareq.") or home not in MODULES:
                continue
            if id(fn) not in wrapped:
                name = f"{home}.{fn.__name__}"
                if name in HOT_COUNTED:
                    wrapped[id(fn)] = tracer.counted(name, fn)
                elif name in HOT_TIMED:
                    wrapped[id(fn)] = tracer.timed(name, fn)
                elif name == "cli.main":
                    wrapped[id(fn)] = tracer.span(_cli_label, fn)
                else:
                    wrapped[id(fn)] = tracer.span(name, fn, ON_RESULT.get(name))
            setattr(module, attr, wrapped[id(fn)])
    compression.Compressor.apply = tracer.timed("compression.apply",
                                                compression.Compressor.apply)
    return tracer
