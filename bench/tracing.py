"""Spans around the public entry points of each ``outlier_reduce`` module.

The program is left untouched: ``Tracer.installed()`` replaces, for the
duration of a ``with`` block, the module attributes through which the
layers call each other (``reduction`` calls ``prune_left`` through its own
namespace, ``solvers`` calls ``linear_sum_assignment`` through its own, and
so on) with wrappers that record a span per call. Spans hold an id, the
parent span's id, the trace id of the solve or load they belong to, the
layer name, start and end times, and a small note; they stay in memory
until the run writes them out. ``layer_metrics`` turns the spans of one
traced solve into the per-layer figures. Every time figure is a self time:
the layer's span durations minus those of their direct child spans, so a
layer that runs inside another (``FlowNetwork.solve`` inside
``solve_bmatching``) is counted once, in its own figure.
"""

from __future__ import annotations

import contextlib
import functools
import gzip
import json
import statistics
import time

import numpy as np

from outlier_reduce import flow, instance, metric, reduction, solvers
from outlier_reduce.solvers import SolverPlugin


def _array_bytes(*objects) -> int:
    arrays = {id(v): v for obj in objects for v in vars(obj).values()
              if isinstance(v, np.ndarray)}
    return sum(a.nbytes for a in arrays.values())


def _note_load(args, inst):
    return _array_bytes(inst, inst.space)


def _note_pool(args, pool):
    return len(pool.distinct)


def _note_solve(args, result):
    # the residual set identifies the removed set; None marks infeasible
    return [hash(args[0].X_prime), None if result is None else result.cost]


def _note_reduction(args, result):
    return result.q


# (owner, attribute, span name, note) for every call site that is wrapped
PATCHES = (
    (instance, "instance_from_dict", "instance.load", _note_load),
    (instance, "euclidean_space", "metric.build", None),
    (instance, "matrix_space", "metric.build", None),
    (instance, "ulam_space", "metric.build", None),
    (metric.MetricSpace, "powered_rows", "metric.rows", None),
    (reduction, "check", "instance.check", None),
    (solvers, "check", "instance.check", None),
    (reduction, "solve_unconstrained", "baseline.anchor", None),
    (reduction, "dz_sample", "sampling.pool", _note_pool),
    (reduction, "prune_left", "bmatching.prune", None),
    (reduction, "solve_bmatching", "bmatching.solve", None),
    (flow.FlowNetwork, "solve", "flow.solve", None),
    (solvers, "solve_transportation", "flow.transport", None),
    (solvers, "linear_sum_assignment", "solvers.lsa", None),
)


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self.trace_id: str | None = None
        self._stack: list[int] = []
        self._next_id = 0

    def wrap(self, name: str, fn, note=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_id = self._next_id
            self._next_id += 1
            parent = self._stack[-1] if self._stack else None
            self._stack.append(span_id)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                end = time.perf_counter()
                self._stack.pop()
                self.spans.append((span_id, parent, self.trace_id, name, start,
                                   end, "raised " + type(exc).__name__))
                raise
            end = time.perf_counter()
            self._stack.pop()
            self.spans.append((span_id, parent, self.trace_id, name, start,
                               end, note(args, result) if note else None))
            return result
        return traced

    def plugin(self, plugin: SolverPlugin) -> SolverPlugin:
        """The plugin with its solve function wrapped in a span."""
        return SolverPlugin(plugin.name,
                            self.wrap("solvers.solve", plugin.solve, _note_solve),
                            plugin.exactness)

    def run_reduction(self, *args):
        return self.wrap("reduction.run", reduction.run_reduction,
                         _note_reduction)(*args)

    @contextlib.contextmanager
    def installed(self):
        originals = [(owner, attr, getattr(owner, attr))
                     for owner, attr, _, _ in PATCHES]
        try:
            for (owner, attr, name, note), (_, _, fn) in zip(PATCHES, originals):
                setattr(owner, attr, self.wrap(name, fn, note))
            yield self
        finally:
            for owner, attr, fn in originals:
                setattr(owner, attr, fn)

    def spans_of(self, trace_id: str) -> list[tuple]:
        return [s for s in self.spans if s[2] == trace_id]

    def write(self, path) -> None:
        with gzip.open(path, "wt") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


# (span name, call-count metric, self-time metric)
BUSY = (
    ("metric.rows", "metric.rows_calls", "metric.rows_s"),
    ("instance.check", "instance.check_calls", "instance.check_s"),
    ("baseline.anchor", None, "baseline.anchor_s"),
    ("sampling.pool", None, "sampling.pool_s"),
    ("bmatching.prune", None, "bmatching.prune_s"),
    ("bmatching.solve", "bmatching.calls", "bmatching.solve_s"),
    ("flow.solve", "flow.solves", "flow.solve_s"),
    ("flow.transport", "flow.transport_calls", "flow.transport_s"),
    ("solvers.solve", "solvers.calls", "solvers.solve_s"),
    ("solvers.lsa", "solvers.lsa_calls", "solvers.lsa_s"),
)


def _self_times(spans) -> dict[int, float]:
    """Each span's duration minus the durations of its direct children."""
    self_s = {s[0]: s[5] - s[4] for s in spans}
    for s in spans:
        if s[1] in self_s:
            self_s[s[1]] -= s[5] - s[4]
    return self_s


def _busy(spans, self_s, name):
    times = [self_s[s[0]] for s in spans if s[3] == name]
    return len(times), sum(times)


def load_metrics(spans) -> dict[str, float]:
    """Figures of one traced ``instance_from_dict`` call."""
    self_s = _self_times(spans)
    (load,) = [s for s in spans if s[3] == "instance.load"]
    return {"metric.build_s": _busy(spans, self_s, "metric.build")[1],
            "instance.load_s": self_s[load[0]],
            "metric.table_mb": load[6] / 2 ** 20}


def layer_metrics(spans) -> dict[str, float]:
    """Figures of one traced ``run_reduction`` call."""
    self_s = _self_times(spans)
    (run,) = [s for s in spans if s[3] == "reduction.run"]
    solves = sorted((s for s in spans if s[3] == "solvers.solve"),
                    key=lambda s: s[4])
    improving, incumbent = 0, None
    for s in solves:
        cost = s[6][1]
        if cost is not None and (incumbent is None or cost < incumbent):
            improving += 1
            incumbent = cost
    out = {
        "reduction.pairs": run[6],
        "reduction.removed_distinct": len({s[6][0] for s in solves}),
        "reduction.self_s": self_s[run[0]],
        "reduction.improving_share": improving / len(solves) if solves else 0.0,
        "sampling.pool_distinct": sum(s[6] for s in spans
                                      if s[3] == "sampling.pool"),
        "solvers.infeasible": sum(1 for s in solves if s[6][1] is None),
        "bmatching.infeasible": sum(1 for s in spans if s[3] == "bmatching.solve"
                                    and s[6] is not None),
    }
    for span_name, count_name, time_name in BUSY:
        calls, busy = _busy(spans, self_s, span_name)
        if count_name:
            out[count_name] = calls
        out[time_name] = busy
    return out


def medians(rows: list[dict[str, float]]) -> dict[str, float]:
    return {key: statistics.median(row[key] for row in rows) for key in rows[0]}
