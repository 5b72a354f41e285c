"""Per-layer attribution of one traced pass, from outside the program.

For the traced pass the benchmark replaces each layer's public function
(a module or class attribute the program looks up at call time) with a
timing wrapper, and restores it afterwards.  Spans (name, start, end,
parent, pass id) stay in memory and are written at the end as
Chrome-trace JSON, which ``repro obs summarize`` reads.  A layer's self
time is its spans' durations minus their child spans; whatever the
pass spent outside every layer span is ``unattributed_s``.

Work inside the engine is not spanned per fault run: it comes from the
program's own counters (``engine.runs_executed``,
``batch.lanes_retired{outcome}``, ``store.bytes_in/out``), which the
program also ships back from forked workers when a spec asks for them.
"""

import functools
import importlib
import json
import os
import time

from repro import obs

#: (import path of the attribute, span name).  A span name is a layer;
#: several attributes may feed one layer.
TARGETS = (
    ("repro.bench.programs:compile_benchmark", "minic.compile"),
    ("repro.experiments.common:compile_benchmark", "minic.compile"),
    ("repro.minic.compiler:optimize_function", "opt.optimize"),
    ("repro.fi.machine:Machine.__init__", "fi.machine_build"),
    ("repro.fi.machine:Machine.run", "fi.golden"),
    ("repro.bec.analysis:compute_bit_values", "bitvalue.fixpoint"),
    ("repro.bec.analysis:coalesce", "bec.coalesce"),
    ("repro.store.sweep:run_bec", "bec.analysis"),
    ("repro.experiments.common:run_bec", "bec.analysis"),
    ("repro.experiments.table4:run_bec", "bec.analysis"),
    ("repro.harden:select_bec", "harden.select"),
    ("repro.harden:harden_function", "harden.transform"),
    ("repro.store.sweep:plan_bec", "plan.build"),
    ("repro.store.runner:campaign_key", "store.key"),
    ("repro.store.db:ResultStore.get", "store.get"),
    ("repro.store.db:ChunkWriter.commit", "store.commit"),
    ("repro.fi.engine:CampaignEngine.run", "engine.campaign"),
    ("repro.experiments.table3:fault_injection_accounting",
     "fi.accounting"),
    ("repro.experiments.table4:schedule_function", "sched.schedule"),
    ("repro.experiments.table4:live_fault_sites", "sched.vulnerability"),
)

#: The engine span, and the spans not recorded inside it: a machine
#: the engine builds or runs belongs to a fault run, not to set-up.
ENGINE = "engine.campaign"
ENGINE_INTERNAL = {"fi.machine_build", "fi.golden"}

#: Spans that also count what their call returned.
COUNTED = {"plan.build": len}

#: Per-layer metrics: name, unit, better, the end-to-end metric it
#: should move, and on which workloads (heavy -> light).
LAYER_METRICS = (
    ("minic.compile_s", "s", "lower", "wall_s", "all, small"),
    ("opt.optimize_s", "s", "lower", "wall_s", "all, small"),
    ("fi.machine_build_s", "s", "lower", "wall_s",
     "nightly -> paper-tables"),
    ("fi.golden_s", "s", "lower", "wall_s", "nightly -> paper-tables"),
    ("bitvalue.fixpoint_s", "s", "lower", "wall_s",
     "paper-tables, nightly -> full-campaign"),
    ("bec.coalesce_s", "s", "lower", "wall_s",
     "paper-tables, nightly -> full-campaign"),
    ("bec.analysis_s", "s", "lower", "wall_s",
     "paper-tables, nightly -> full-campaign"),
    ("harden.select_s", "s", "lower", "wall_s", "nightly only"),
    ("harden.transform_s", "s", "lower", "wall_s", "nightly only"),
    ("plan.build_s", "s", "lower", "wall_s, peak_rss_mb",
     "nightly -> full-campaign"),
    ("plan.entries_built", "count", "lower", "wall_s, peak_rss_mb",
     "nightly -> full-campaign"),
    ("plan.use_ratio", "ratio", "higher", "wall_s, peak_rss_mb",
     "nightly (~0.002) -> full-campaign (1.0)"),
    ("store.key_s", "s", "lower", "wall_s", "nightly, full-campaign"),
    ("store.get_s", "s", "lower", "wall_s", "nightly (re-run)"),
    ("store.hit_ratio", "ratio", "higher", "wall_s", "nightly (re-run)"),
    ("store.commit_s", "s", "lower", "wall_s",
     "full-campaign, nightly"),
    ("store.bytes_in", "bytes", "lower", "wall_s",
     "full-campaign, nightly"),
    ("store.bytes_out", "bytes", "lower", "wall_s", "nightly (re-run)"),
    ("engine.campaign_s", "s", "lower", "wall_s",
     "full-campaign, nightly (first sweep); none on paper-tables"),
    ("engine.runs_executed", "count", "lower", "wall_s",
     "full-campaign, nightly"),
    ("engine.runs_per_s", "1/s", "higher", "wall_s",
     "full-campaign, nightly"),
    ("engine.runs_pruned", "count", "higher", "wall_s",
     "full-campaign, nightly"),
    ("engine.recoveries", "count", "lower", "wall_s",
     "full-campaign, nightly"),
    ("batch.lanes_retired", "count", "higher", "wall_s via engine",
     "full-campaign, nightly"),
    ("batch.escape_ratio", "ratio", "lower", "wall_s via engine",
     "full-campaign, nightly"),
    ("batch.scalar_direct", "count", "lower", "wall_s via engine",
     "full-campaign, nightly"),
    ("fi.accounting_s", "s", "lower", "wall_s", "paper-tables only"),
    ("sched.schedule_s", "s", "lower", "wall_s", "paper-tables only"),
    ("sched.vulnerability_s", "s", "lower", "wall_s",
     "paper-tables only"),
    ("unattributed_s", "s", "lower", "n/a (ledger health)", "all"),
    ("unattributed_ratio", "ratio", "lower", "n/a (ledger health)",
     "all"),
    ("trace.overhead_ratio", "ratio", "lower", "n/a (ledger health)",
     "all"),
)

PASS = "pass"


def _resolve(path):
    """(owner object, attribute name) of ``"module:Owner.attr"``."""
    module, _, attribute = path.partition(":")
    owner = importlib.import_module(module)
    *owners, name = attribute.split(".")
    for part in owners:
        owner = getattr(owner, part)
    return owner, name


class Ledger:
    """In-memory spans of one traced pass, plus the wrappers that
    record them."""

    def __init__(self, pass_id):
        self.pass_id = pass_id
        self.spans = []         # [name, start, end, parent index, count]
        self._stack = []
        self._saved = []
        self._in_engine = 0

    def _wrap(self, name, function):
        ledger = self
        count = COUNTED.get(name)
        internal = name in ENGINE_INTERNAL
        engine = int(name == ENGINE)

        @functools.wraps(function)
        def timed(*args, **kwargs):
            if internal and ledger._in_engine:
                return function(*args, **kwargs)
            stack = ledger._stack
            span = [name, time.perf_counter(), None,
                    stack[-1] if stack else None, None]
            ledger.spans.append(span)
            stack.append(len(ledger.spans) - 1)
            ledger._in_engine += engine
            try:
                result = function(*args, **kwargs)
                if count is not None:
                    span[4] = count(result)
                return result
            finally:
                ledger._in_engine -= engine
                stack.pop()
                span[2] = time.perf_counter()
        return timed

    def __enter__(self):
        for path, name in TARGETS:
            owner, attribute = _resolve(path)
            original = owner.__dict__[attribute] \
                if isinstance(owner, type) else getattr(owner, attribute)
            self._saved.append((owner, attribute, original))
            setattr(owner, attribute, self._wrap(name, original))
        self.spans.append([PASS, time.perf_counter(), None, None, None])
        self._stack.append(0)
        self._mark = obs.metrics().mark()
        return self

    def __exit__(self, *exc_info):
        self.spans[0][2] = time.perf_counter()
        self._stack.clear()
        self.counters = obs.metrics().delta_since(self._mark)
        for owner, attribute, original in reversed(self._saved):
            setattr(owner, attribute, original)
        self._saved = []
        return False

    @property
    def wall(self):
        return self.spans[0][2] - self.spans[0][1]

    def layers(self):
        """``{span name: {"calls", "total", "self"}}`` in seconds."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        table = {}
        for index, (name, start, end, _, _) in enumerate(self.spans):
            row = table.setdefault(name, {"calls": 0, "total": 0.0,
                                          "self": 0.0})
            row["calls"] += 1
            row["total"] += end - start
            row["self"] += end - start - child_time[index]
        return table

    def counter(self, name, **labels):
        """Sum of the pass's increments of counter *name* over the
        children matching *labels*."""
        children = self.counters.get(name, {}).get("children", {})
        wanted = {(str(k), str(v)) for k, v in labels.items()}
        return sum(value for key, value in children.items()
                   if wanted <= set(key))

    def metrics(self, used_entries, untraced_wall):
        """Every per-layer metric of :data:`LAYER_METRICS`."""
        layers = self.layers()

        def self_time(name):
            return layers.get(name, {}).get("self", 0.0)

        values = {f"{name}_s": self_time(name)
                  for name in {span for _, span in TARGETS}}
        built = sum(span[4] for span in self.spans
                    if span[0] == "plan.build")
        hits = self.counter("store.hits")
        lookups = hits + self.counter("store.misses")
        executed = self.counter("engine.runs_executed")
        engine_total = layers.get("engine.campaign", {}).get("total", 0.0)
        retired = self.counter("batch.lanes_retired")
        values.update({
            "plan.entries_built": built,
            "plan.use_ratio": used_entries / built if built else 0.0,
            "store.hit_ratio": hits / lookups if lookups else 0.0,
            "store.bytes_in": self.counter("store.bytes_in"),
            "store.bytes_out": self.counter("store.bytes_out"),
            "engine.runs_executed": executed,
            "engine.runs_per_s": executed / engine_total
            if engine_total else 0.0,
            "engine.runs_pruned": self.counter("engine.runs_pruned"),
            "engine.recoveries": self.counter("engine.recoveries"),
            "batch.lanes_retired": retired,
            "batch.escape_ratio": self.counter(
                "batch.lanes_retired", outcome="escape") / retired
            if retired else 0.0,
            "batch.scalar_direct": self.counter("batch.scalar_direct"),
            "unattributed_s": self_time(PASS),
            "unattributed_ratio": self_time(PASS) / self.wall,
            "trace.overhead_ratio": self.wall / untraced_wall - 1.0,
        })
        return {name: (values[name], unit)
                for name, unit, *_ in LAYER_METRICS}

    def lanes_by_outcome(self):
        children = self.counters.get("batch.lanes_retired", {}) \
            .get("children", {})
        return {dict(key).get("outcome", "?"): value
                for key, value in sorted(children.items())}

    def export_chrome(self, path):
        """Write the spans as Chrome trace-event JSON."""
        origin = self.spans[0][1]
        pid = os.getpid()
        events = [{"name": name, "ph": "X", "pid": pid,
                   "tid": self.pass_id,
                   "ts": (start - origin) * 1e6,
                   "dur": (end - start) * 1e6,
                   "args": {"pass": self.pass_id, "parent": parent}}
                  for name, start, end, parent, _ in self.spans]
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"traceEvents": events}, handle)
