"""Spans and per-layer metrics for the benchmark's traced run.

The spans are recorded from the benchmark's own files: ``installed`` swaps
a timing wrapper in for each name the engine resolves at call time (plus
``NetworkModel.simulate_batch`` and the simulator's ``stream_uint64``) and
puts the originals back on exit. ``drive.drive`` adds a span for the config
load, every cycle and the CSV write. Each span has a name, a start, an end
and the span that was open when it began as its parent, so every layer call
made by the engine has its cycle as parent. All spans of one run share the
tracer's trace id, stay in memory, and are written by ``write`` at the end.

A hook target that a later refactor renames or removes is reported as
absent: its layer metrics are left out instead of crashing the run.
"""

from __future__ import annotations

import gzip
import importlib
import json
import math
import secrets
from array import array
from collections import Counter
from contextlib import contextmanager
from time import perf_counter_ns
from typing import Callable

import numpy as np


def _count_runs(counts: Counter, args: tuple, result) -> None:
    counts["netsim.sim_runs"] += len(args[1])


def _count_draws(counts: Counter, args: tuple, result) -> None:
    counts["seeds.draws"] += result.size


def _count_estimates(counts: Counter, args: tuple, result) -> None:
    counts["smc.estimates"] += len(result)
    counts["smc.samples"] += sum(estimate.samples_used for _, estimate in result)


def _count_window(counts: Counter, args: tuple, result) -> None:
    counts["regression.window"] += len(args[0])


# (span name, owner, attribute, counter). The owner is a module, or a
# module and a class joined by ":". The engine-level names are patched in
# ``adaptlab.engine`` because the engine looks them up there at call time.
HOOKS: tuple[tuple[str, str, str, Callable | None], ...] = (
    ("smc.verify_options", "adaptlab.engine", "verify_options", _count_estimates),
    ("regression.fit", "adaptlab.engine", "fit", _count_window),
    ("regression.empirical_risk", "adaptlab.engine", "empirical_risk", None),
    ("regression.predict_batch", "adaptlab.engine", "predict_batch", None),
    ("netsim.features", "adaptlab.engine", "features", None),
    ("netsim.true_expected_loss", "adaptlab.engine", "true_expected_loss", None),
    ("bounds.decision_error_bound", "adaptlab.engine", "decision_error_bound", None),
    ("engine.environment_step_for_cycle", "adaptlab.engine", "environment_step_for_cycle", None),
    ("netsim.NetworkModel", "adaptlab.engine", "NetworkModel", None),
    ("netsim.simulate_batch", "adaptlab.netsim:NetworkModel", "simulate_batch", _count_runs),
    ("seeds.stream_uint64", "adaptlab.netsim", "stream_uint64", _count_draws),
)


class Tracer:
    """In-memory span store for one traced run."""

    def __init__(self) -> None:
        self.trace_id = secrets.token_hex(8)
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("q")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("q")
        self._open = [-1]
        self.counts: Counter = Counter()
        self.absent: list[str] = []

    def _id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _begin(self, name_id: int) -> int:
        index = len(self.start)
        self.name_id.append(name_id)
        self.parent.append(self._open[-1])
        self.end.append(0)
        self._open.append(index)
        self.start.append(perf_counter_ns())
        return index

    def _finish(self, index: int) -> None:
        self.end[index] = perf_counter_ns()
        self._open.pop()

    @contextmanager
    def span(self, name: str):
        index = self._begin(self._id(name))
        try:
            yield
        finally:
            self._finish(index)

    def wrap(self, name: str, fn: Callable, counter: Callable | None) -> Callable:
        name_id = self._id(name)

        def traced(*args, **kwargs):
            index = self._begin(name_id)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._finish(index)
            if counter is not None:
                counter(self.counts, args, result)
            return result

        return traced

    def totals(self) -> dict[str, tuple[int, float, float]]:
        """Per span name: (calls, total seconds, self seconds).

        Self time is a span's duration minus the durations of its direct
        children; spans of one thread nest, so children never overlap.
        """
        start = np.frombuffer(self.start, dtype=np.int64)
        duration = np.frombuffer(self.end, dtype=np.int64) - start
        parent = np.frombuffer(self.parent, dtype=np.int64)
        name_id = np.frombuffer(self.name_id, dtype=np.int64)
        child = np.zeros(len(start), dtype=np.int64)
        nested = parent >= 0
        np.add.at(child, parent[nested], duration[nested])
        bins = len(self.names)
        calls = np.bincount(name_id, minlength=bins)
        total = np.bincount(name_id, weights=duration, minlength=bins) / 1e9
        own = np.bincount(name_id, weights=duration - child, minlength=bins) / 1e9
        return {
            name: (int(calls[i]), float(total[i]), float(own[i]))
            for i, name in enumerate(self.names)
        }

    def write(self, path: str, header: dict) -> None:
        """Write a header line, then one JSON line per span, gzip-compressed."""
        row = '{"trace_id":"%s","span_id":%d,"name":"%s","start_ns":%d,"end_ns":%d,"parent_id":%d}\n'
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as handle:
            handle.write(json.dumps(dict(header, trace_id=self.trace_id, absent=self.absent)) + "\n")
            for index, (name_id, start, end, parent) in enumerate(
                zip(self.name_id, self.start, self.end, self.parent)
            ):
                handle.write(row % (self.trace_id, index, self.names[name_id], start, end, parent))


def _resolve(owner: str):
    module_name, _, class_name = owner.partition(":")
    try:
        target = importlib.import_module(module_name)
    except ImportError:
        return None
    return getattr(target, class_name, None) if class_name else target


@contextmanager
def installed(tracer: Tracer):
    """Wrap every hook target that exists; restore the originals on exit."""
    saved = []
    try:
        for name, owner, attribute, counter in HOOKS:
            target = _resolve(owner)
            original = getattr(target, attribute, None) if target is not None else None
            if original is None:
                tracer.absent.append(name)
                continue
            saved.append((target, attribute, original))
            setattr(target, attribute, tracer.wrap(name, original, counter))
        yield tracer
    finally:
        for target, attribute, original in reversed(saved):
            setattr(target, attribute, original)


class _Absent(Exception):
    pass


def _per(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


# (metric, unit, better); the order is the order of the printed result.
PER_LAYER: tuple[tuple[str, str, str], ...] = (
    ("seeds.draws", "count", "lower"),
    ("seeds.busy_s", "s", "lower"),
    ("seeds.draws_per_sim_run", "count", "lower"),
    ("netsim.sim_runs", "count", "lower"),
    ("netsim.simulate_s", "s", "lower"),
    ("netsim.simulate_self_s", "s", "lower"),
    ("netsim.runs_per_s", "1/s", "higher"),
    ("netsim.model_builds", "count", "lower"),
    ("netsim.model_build_s", "s", "lower"),
    ("netsim.oracle_calls", "count", "lower"),
    ("netsim.oracle_s", "s", "lower"),
    ("netsim.features_calls", "count", "lower"),
    ("netsim.features_s", "s", "lower"),
    ("smc.estimates", "count", "lower"),
    ("smc.samples_per_estimate", "count", "lower"),
    ("smc.verify_s", "s", "lower"),
    ("smc.self_s", "s", "lower"),
    ("smc.ms_per_estimate", "ms", "lower"),
    ("regression.fit_calls", "count", "lower"),
    ("regression.window_mean", "count", "lower"),
    ("regression.fit_s", "s", "lower"),
    ("regression.risk_s", "s", "lower"),
    ("regression.predict_s", "s", "lower"),
    ("engine.cycles", "count", "higher"),
    ("engine.self_s", "s", "lower"),
    ("engine.reduced_size_mean", "count", "lower"),
    ("engine.verified_fraction", "ratio", "lower"),
    ("engine.warmup_share", "ratio", "lower"),
    ("bounds.s", "s", "lower"),
    ("bounds.applicable_cycles", "count", "higher"),
    ("bounds.violations", "count", "lower"),
    ("bounds.mean_min_probability", "ratio", "higher"),
    ("bounds.error_share", "ratio", "lower"),
    ("cli.config_load_s", "s", "lower"),
    ("cli.csv_write_s", "s", "lower"),
    ("cli.csv_bytes", "B", "lower"),
    ("trace.overhead_frac", "ratio", "lower"),
)


def layer_metrics(tracer: Tracer, rep, plain_run_s: float, csv_bytes: int) -> tuple[dict, list[str]]:
    """Per-layer metric values from a traced rep, and the metrics left out
    because a hook they need is absent. ``plain_run_s`` is the untraced
    ``run_s`` of the same workload in the same process."""
    totals = tracer.totals()
    counts = tracer.counts

    def span(name: str) -> tuple[int, float, float]:
        if name in tracer.absent:
            raise _Absent(name)
        return totals.get(name, (0, 0.0, 0.0))

    def count(key: str, hook: str) -> float:
        span(hook)
        return counts[key]

    post = [r for r in rep.records if r.cycle > rep.warmup_cycles]
    applicable = [r for r in post if r.bound_holds is not None]
    warmup_s = math.fsum(rep.cycle_s[: rep.warmup_cycles])
    reduced_mean = _per(sum(r.reduced_size for r in post), len(post))

    formulas: dict[str, Callable[[], float]] = {
        "seeds.draws": lambda: count("seeds.draws", "seeds.stream_uint64"),
        "seeds.busy_s": lambda: span("seeds.stream_uint64")[1],
        "seeds.draws_per_sim_run": lambda: _per(
            count("seeds.draws", "seeds.stream_uint64"), count("netsim.sim_runs", "netsim.simulate_batch")
        ),
        "netsim.sim_runs": lambda: count("netsim.sim_runs", "netsim.simulate_batch"),
        "netsim.simulate_s": lambda: span("netsim.simulate_batch")[1],
        "netsim.simulate_self_s": lambda: span("netsim.simulate_batch")[2],
        "netsim.runs_per_s": lambda: _per(
            count("netsim.sim_runs", "netsim.simulate_batch"), span("netsim.simulate_batch")[1]
        ),
        "netsim.model_builds": lambda: span("netsim.NetworkModel")[0],
        "netsim.model_build_s": lambda: span("netsim.NetworkModel")[1],
        "netsim.oracle_calls": lambda: span("netsim.true_expected_loss")[0],
        "netsim.oracle_s": lambda: span("netsim.true_expected_loss")[1],
        "netsim.features_calls": lambda: span("netsim.features")[0],
        "netsim.features_s": lambda: span("netsim.features")[1],
        "smc.estimates": lambda: count("smc.estimates", "smc.verify_options"),
        "smc.samples_per_estimate": lambda: _per(
            count("smc.samples", "smc.verify_options"), counts["smc.estimates"]
        ),
        "smc.verify_s": lambda: span("smc.verify_options")[1],
        "smc.self_s": lambda: span("smc.verify_options")[2],
        "smc.ms_per_estimate": lambda: 1e3 * _per(
            span("smc.verify_options")[1], count("smc.estimates", "smc.verify_options")
        ),
        "regression.fit_calls": lambda: span("regression.fit")[0],
        "regression.window_mean": lambda: _per(
            count("regression.window", "regression.fit"), span("regression.fit")[0]
        ),
        "regression.fit_s": lambda: span("regression.fit")[1],
        "regression.risk_s": lambda: span("regression.empirical_risk")[1],
        "regression.predict_s": lambda: span("regression.predict_batch")[1],
        "engine.cycles": lambda: span("engine.run_cycle")[0],
        "engine.self_s": lambda: span("engine.run_cycle")[2],
        "engine.reduced_size_mean": lambda: reduced_mean,
        "engine.verified_fraction": lambda: reduced_mean / rep.option_count,
        "engine.warmup_share": lambda: warmup_s / math.fsum(rep.cycle_s),
        "bounds.s": lambda: span("bounds.decision_error_bound")[1],
        "bounds.applicable_cycles": lambda: len(applicable),
        "bounds.violations": lambda: sum(1 for r in applicable if not r.bound_holds),
        "bounds.mean_min_probability": lambda: _per(
            math.fsum(r.bound.min_probability for r in applicable), len(applicable)
        ),
        "bounds.error_share": lambda: _per(
            math.fsum(r.measured_error for r in applicable), math.fsum(r.bound.error_bound for r in applicable)
        ),
        "cli.config_load_s": lambda: span("cli.load_experiment_config")[1],
        "cli.csv_write_s": lambda: span("cli.write_records_csv")[1],
        "cli.csv_bytes": lambda: csv_bytes,
        "trace.overhead_frac": lambda: rep.run_s / plain_run_s - 1.0,
    }
    metrics: dict[str, dict] = {}
    left_out: list[str] = []
    for name, unit, _ in PER_LAYER:
        try:
            value = formulas[name]()
        except _Absent:
            left_out.append(name)
            continue
        metrics[name] = {"value": float(value), "unit": unit}
    return metrics, left_out
