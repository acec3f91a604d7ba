"""Module-boundary tracer for the benchmark's traced runs.

`Tracer.active` replaces every public function of spatq's six modules, at
module-attribute level, with a wrapper that records a span: name, start, end,
parent span and op id.  Names re-imported into another module (such as
`spatq.simulator.sample_ppp`) are separate attributes and are wrapped too,
under the name of the module that defines them.  `ArrivalStream.arrivals`
and `ArrivalRateDistribution.sample` are wrapped on their classes.  The
wrappers are in place only inside `Tracer.active`, which puts every original
attribute back on exit.  Spans stay in memory until the run writes them out.

A few wrappers also add to work counters from the call's arguments or result
(points sampled, user-slots generated, CSV bytes written, ...), so the ratios
a layer reports are measured where its work happens.
"""
from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import os
import time
from collections import defaultdict

MODULES = ("geometry", "traffic", "analytics", "simulator", "harness", "cli")
METHODS = (("traffic", "ArrivalStream", "arrivals"), ("traffic", "ArrivalRateDistribution", "sample"))


def _count_points(c, a, result):
    c["geometry.points_sampled"] += len(result)


def _count_assoc(c, a, result):
    users = a["users"]
    if a["mode"] == "per-cluster":
        c["geometry.assoc_pairs"] += len(users.parents) * len(a["bss"])
    else:
        c["geometry.assoc_pairs"] += len(users) * len(a["bss"])


def _count_arrivals(c, a, result):
    c["traffic.user_slots"] += a["stop"] - a["start"]
    c["traffic.packets_arrived"] += int(result.sum())


def _count_network(c, a, result):
    report = result[0] if a["detail"] else result
    station_slots = len(a["bss"]) * (a["horizon"] - a["warmup"])
    attempts = report.empirical_busy_prob * station_slots
    c["simulator.slots"] += a["horizon"]
    c["simulator.station_slots"] += station_slots
    c["simulator.attempts"] += attempts
    c["simulator.successes"] += report.empirical_success_prob * attempts
    c["simulator.delay_samples"] += report.delay_samples
    c["simulator.drift_flagged"] += report.unstable_fraction * len(a["users"])


def _count_arg(counter: str, arg: str):
    def count(c, a, result):
        c[counter] += a[arg]

    return count


def _count_rows(c, a, result):
    c["harness.rows_written"] += len(a["rows"])
    c["harness.csv_bytes"] += os.path.getsize(result)


COUNTERS = {
    "geometry.sample_ppp": _count_points,
    "geometry.sample_pcp": _count_points,
    "geometry.associate": _count_assoc,
    "geometry.estimate_cell_areas": _count_arg("geometry.probes", "probes"),
    "traffic.ArrivalStream.arrivals": _count_arrivals,
    "simulator.simulate_network": _count_network,
    "simulator.run_sir_static": _count_arg("simulator.sir_samples", "samples"),
    "simulator.estimate_total_arrival_variance": _count_arg("simulator.arrival_reps", "replications"),
    "harness.write_rows": _count_rows,
}


def public_functions(package):
    """(owner, attribute, span name) for every attribute the tracer wraps."""
    modules = [package] + [
        importlib.import_module(f"{package.__name__}.{m}") for m in MODULES
    ]
    defining = {f"{package.__name__}.{m}" for m in MODULES}
    found = []
    for module in modules:
        for attr, obj in vars(module).items():
            if (
                not attr.startswith("_")
                and inspect.isfunction(obj)
                and obj.__module__ in defining
            ):
                name = f"{obj.__module__.rsplit('.', 1)[1]}.{obj.__qualname__}"
                found.append((module, attr, name))
    for module, cls, method in METHODS:
        owner = getattr(importlib.import_module(f"{package.__name__}.{module}"), cls)
        found.append((owner, method, f"{module}.{cls}.{method}"))
    return found


class Tracer:
    """In-memory spans and counters around calls into spatq's modules."""

    def __init__(self, package):
        # one span is [name, start, end, parent index or -1, op id]
        self.spans: list[list] = []
        self.counts: defaultdict[str, float] = defaultdict(float)
        self.op = None
        self._stack: list[int] = []
        self._patches = [
            (owner, attr, vars(owner)[attr], self._wrap(name, vars(owner)[attr]))
            for owner, attr, name in public_functions(package)
        ]

    def _wrap(self, name, fn):
        spans, stack, counts = self.spans, self._stack, self.counts
        clock = time.perf_counter
        counter = COUNTERS.get(name)
        signature = inspect.signature(fn) if counter else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append([name, clock(), None, stack[-1] if stack else -1, self.op])
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[index][2] = clock()
            if counter is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                counter(counts, bound.arguments, result)
            return result

        return traced

    @contextlib.contextmanager
    def active(self, op):
        """Trace calls made inside the block, attributing them to `op`."""
        self.op = op
        for owner, attr, _, wrapper in self._patches:
            setattr(owner, attr, wrapper)
        try:
            yield
        finally:
            for owner, attr, original, _ in self._patches:
                setattr(owner, attr, original)

    def self_times(self) -> list[float]:
        """Per span: its duration minus the time its child spans cover."""
        own = [end - start for _, start, end, _, _ in self.spans]
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                own[parent] -= end - start
        return own

    def summary(self) -> dict[str, float]:
        """Per span name: total seconds `.s`, self seconds `.self_s`, `.calls`."""
        out: defaultdict[str, float] = defaultdict(float)
        for (name, start, end, _, _), own in zip(self.spans, self.self_times()):
            out[f"{name}.s"] += end - start
            out[f"{name}.self_s"] += own
            out[f"{name}.calls"] += 1
        return dict(out)

    def root_times(self) -> dict:
        """Per op id: seconds spent inside top-level module spans."""
        out: defaultdict = defaultdict(float)
        for _, start, end, parent, op in self.spans:
            if parent < 0:
                out[op] += end - start
        return dict(out)
