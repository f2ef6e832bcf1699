"""Spans and counts around calls into efeplan, recorded from outside the package.

Each public function in TARGETS is replaced by a timing wrapper at every name
in the efeplan modules that is bound to it, because callers look functions up
by the name they imported (harness calls ``efeplan.harness.infer_states``, not
``efeplan.inference.infer_states``). Methods are replaced on their class.
Categorical constructions are counted, not timed. Spans and counts stay in
memory; ``Tracer.uninstall`` puts every attribute back as it was.
"""
from __future__ import annotations

import functools
import sys
from collections import Counter
from time import perf_counter

import efeplan.numerics

# metric group -> the functions it times, as "module.attribute" or "module.Class.method"
TARGETS = {
    "inference.infer_states": ("inference.infer_states",),
    "inference.bma_beliefs": ("inference.bma_beliefs",),
    "planning.expected_free_energy": ("planning.expected_free_energy",),
    "planning.ambiguity": ("planning.ambiguity",),
    "planning.expected_info_gain": ("planning.expected_info_gain",),
    "planning.select": ("planning.policy_posterior", "planning.action_marginal",
                        "planning.select_action"),
    "model.load_spec": ("model.load_spec",),
    "model.validate": ("model.validate",),
    "tmaze.build_tmaze_model": ("tmaze.build_tmaze_model",),
    "tmaze.env": ("tmaze.TmazeEnv.observe", "tmaze.TmazeEnv.step"),
    "harness.run_trial": ("harness.run_trial",),
    "harness.run_experiment": ("harness.run_experiment",),
    "harness.build_tables": ("harness.build_tables",),
    "harness.write_records": ("harness.write_records",),
    "harness.emit_plot_data": ("harness.emit_plot_data",),
    "cli.main": ("cli.main",),
}


def _count_sweeps(counts, result):
    counts["inference.sweeps"] += result.sweeps


def _count_future_steps(counts, result):
    counts["planning.future_steps"] += len(result[1])


def _count_trial(counts, record):
    counts["harness.trials"] += 1
    counts["harness.trial_epochs"] += len(record.epochs)


def _count_files(counts, paths):
    counts["harness.files_written"] += len(paths)
    counts["harness.bytes_written"] += sum(p.stat().st_size for p in paths)


# counts taken from a call's return value
HOOKS = {
    "inference.infer_states": _count_sweeps,
    "planning.expected_free_energy": _count_future_steps,
    "harness.run_trial": _count_trial,
    "harness.write_records": _count_files,
    "harness.emit_plot_data": _count_files,
}


def efeplan_modules() -> list:
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "efeplan" or name.startswith("efeplan."))]


class Tracer:
    """Records (op, parent span, group, start, end) for every wrapped call."""

    def __init__(self):
        self.spans: list[tuple | None] = []
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.op = -1
        self._saved: list[tuple[object, str, object]] = []

    def _wrap(self, group: str, fn):
        hook = HOOKS.get(group)
        spans, stack = self.spans, self.stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[sid] = (self.op, parent, group, start, end)
            if hook is not None:
                hook(self.counts, result)
            return result
        return wrapper

    def _set(self, owner, name: str, value) -> None:
        self._saved.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, value)

    def install(self) -> None:
        modules = efeplan_modules()
        for group, targets in TARGETS.items():
            for target in targets:
                module_name, *path = target.split(".")
                owner = sys.modules[f"efeplan.{module_name}"]
                if len(path) == 2:  # a method: replace it on its class
                    cls = getattr(owner, path[0])
                    self._set(cls, path[1], self._wrap(group, cls.__dict__[path[1]]))
                    continue
                original = getattr(owner, path[0])
                wrapper = self._wrap(group, original)
                for module in modules:
                    for name, value in list(vars(module).items()):
                        if value is original:
                            self._set(module, name, wrapper)

        categorical = efeplan.numerics.Categorical
        post_init = categorical.__dict__["__post_init__"]
        counts = self.counts

        def counted_post_init(obj):
            counts["numerics.categorical"] += 1
            post_init(obj)
        self._set(categorical, "__post_init__", counted_post_init)

    def uninstall(self) -> None:
        while self._saved:
            owner, name, value = self._saved.pop()
            setattr(owner, name, value)

    def __enter__(self):
        try:
            self.install()
        except BaseException:
            self.uninstall()
            raise
        return self

    def __exit__(self, *exc):
        self.uninstall()


def _group_stats(spans) -> tuple[Counter, Counter, Counter, float]:
    """Per group: calls and busy time of spans not nested in a span of the same
    group, and self time (duration minus the child spans it covers). Also the
    total duration of top-level spans."""
    child = [0.0] * len(spans)
    for op, parent, group, start, end in spans:
        if parent >= 0:
            child[parent] += end - start
    calls, busy, self_time = Counter(), Counter(), Counter()
    top = 0.0
    for sid, (op, parent, group, start, end) in enumerate(spans):
        duration = end - start
        self_time[group] += duration - child[sid]
        if parent < 0:
            top += duration
        ancestor = parent
        while ancestor >= 0 and spans[ancestor][2] != group:
            ancestor = spans[ancestor][1]
        if ancestor < 0:
            calls[group] += 1
            busy[group] += duration
    return calls, busy, self_time, top


# (metric name, unit) in report order; values come from layer_metrics. Metrics
# in TIME_UNITS are timings; every other one is a count, or a ratio of counts,
# and repeats exactly for a seed.
TIME_UNITS = ("s", "us", "fraction", "ratio")
PER_LAYER = [
    ("inference.infer_states.calls", "count"),
    ("inference.infer_states.busy_s", "s"),
    ("inference.infer_states.share", "fraction"),
    ("inference.infer_states.us_per_call", "us"),
    ("inference.sweeps_per_call", "sweeps/call"),
    ("inference.useful_ratio", "epochs/call"),
    ("inference.bma_beliefs.busy_s", "s"),
    ("inference.bma_beliefs.share", "fraction"),
    ("planning.expected_free_energy.calls", "count"),
    ("planning.expected_free_energy.busy_s", "s"),
    ("planning.expected_free_energy.share", "fraction"),
    ("planning.expected_free_energy.us_per_call", "us"),
    ("planning.future_steps", "count"),
    ("planning.ambiguity.calls_per_step", "calls/step"),
    ("planning.expected_info_gain.busy_s", "s"),
    ("planning.expected_info_gain.share", "fraction"),
    ("planning.select.calls", "count"),
    ("planning.select.busy_s", "s"),
    ("planning.select.share", "fraction"),
    ("numerics.categorical.count", "count/trial"),
    ("model.load_spec.busy_s", "s"),
    ("model.load_spec.share", "fraction"),
    ("model.validate.busy_s", "s"),
    ("model.validate.share", "fraction"),
    ("tmaze.build_tmaze_model.busy_s", "s"),
    ("tmaze.build_tmaze_model.share", "fraction"),
    ("tmaze.env.calls", "count"),
    ("tmaze.env.busy_s", "s"),
    ("tmaze.env.share", "fraction"),
    ("harness.run_trial.self_s", "s"),
    ("harness.run_experiment.self_s", "s"),
    ("harness.build_tables.busy_s", "s"),
    ("harness.build_tables.share", "fraction"),
    ("harness.write_records.busy_s", "s"),
    ("harness.write_records.share", "fraction"),
    ("harness.emit_plot_data.busy_s", "s"),
    ("harness.emit_plot_data.share", "fraction"),
    ("harness.bytes_written", "bytes"),
    ("harness.files_written", "count"),
    ("cli.main.self_s", "s"),
    ("trace.wall_s", "s"),
    ("trace.unattributed_s", "s"),
    ("trace.unattributed.share", "fraction"),
    ("trace.overhead_ratio", "ratio"),
]


def layer_metrics(tracer: Tracer, traced_wall: float, untraced_wall: float) -> dict[str, float]:
    """Every PER_LAYER metric from one traced pass and the matching untraced pass."""
    calls, busy, self_time, top = _group_stats(tracer.spans)
    counts = tracer.counts
    m: dict[str, float] = {}

    def per(num, den):
        return num / den if den else 0.0

    for group in ("inference.bma_beliefs", "planning.expected_info_gain", "model.load_spec",
                  "model.validate", "tmaze.build_tmaze_model", "harness.build_tables",
                  "harness.write_records", "harness.emit_plot_data",
                  "inference.infer_states", "planning.expected_free_energy",
                  "planning.select", "tmaze.env"):
        m[f"{group}.busy_s"] = busy[group]
        m[f"{group}.share"] = busy[group] / traced_wall
    for group in ("inference.infer_states", "planning.expected_free_energy",
                  "planning.select", "tmaze.env"):
        m[f"{group}.calls"] = calls[group]
    for group in ("inference.infer_states", "planning.expected_free_energy"):
        m[f"{group}.us_per_call"] = per(busy[group], calls[group]) * 1e6
    for group in ("harness.run_trial", "harness.run_experiment", "cli.main"):
        m[f"{group}.self_s"] = self_time[group]

    infer_calls = calls["inference.infer_states"]
    m["inference.sweeps_per_call"] = per(counts["inference.sweeps"], infer_calls)
    m["inference.useful_ratio"] = per(counts["harness.trial_epochs"], infer_calls)
    m["planning.future_steps"] = counts["planning.future_steps"]
    m["planning.ambiguity.calls_per_step"] = per(calls["planning.ambiguity"],
                                                 counts["planning.future_steps"])
    m["numerics.categorical.count"] = per(counts["numerics.categorical"], counts["harness.trials"])
    m["harness.bytes_written"] = counts["harness.bytes_written"]
    m["harness.files_written"] = counts["harness.files_written"]
    m["trace.wall_s"] = traced_wall
    m["trace.unattributed_s"] = traced_wall - top
    m["trace.unattributed.share"] = (traced_wall - top) / traced_wall
    m["trace.overhead_ratio"] = traced_wall / untraced_wall
    return {name: m[name] for name, _ in PER_LAYER}
