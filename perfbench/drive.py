"""The benchmark's drive loop: the ``adaptlab run`` path with a timer per cycle.

``drive`` validates the config with ``cli.load_experiment_config``, builds the
engine exactly as ``cli.cmd_run`` does, calls ``AdaptationEngine.run_cycle``
once per cycle, and writes the CSV and the summary with
``cli.write_records_csv`` and ``cli.summarize_records``. It does not print
the summary, because the benchmark's last output line is its result.

``adaptlab`` must already be importable (``run.py`` puts the checkout's
``src`` first on the path).
"""

from __future__ import annotations

import json
from contextlib import nullcontext
from dataclasses import dataclass
from time import perf_counter
from typing import Callable, ContextManager

from adaptlab import cli
from adaptlab.engine import AdaptationEngine, CycleRecord
from adaptlab.netsim import TOPOLOGY_PRESETS


@dataclass(frozen=True)
class Rep:
    """One complete experiment as the drive loop ran it."""

    records: list[CycleRecord]
    cycle_s: list[float]
    run_s: float
    warmup_cycles: int
    option_count: int
    csv_path: str


def _no_span(name: str) -> ContextManager:
    return nullcontext()


def build(config_path: str, span: Callable[[str], ContextManager] = _no_span):
    """Validate the config and construct its engine, as ``cmd_run`` does."""
    with span("cli.load_experiment_config"):
        spec = cli.load_experiment_config(config_path)
    topology = TOPOLOGY_PRESETS[spec.topology]()
    return spec, AdaptationEngine(topology, spec.engine, spec.walk, spec.seed)


def drive(config_path: str, span: Callable[[str], ContextManager] = _no_span) -> Rep:
    """Run every cycle of the experiment and write its outputs.

    ``span(name)`` brackets the config load, each cycle and the CSV write;
    the tracer passes its own, the untraced run the no-op default.
    """
    spec, engine = build(config_path, span)
    records: list[CycleRecord] = []
    cycle_s: list[float] = []
    start = perf_counter()
    for _ in range(spec.engine.total_cycles):
        began = perf_counter()
        with span("engine.run_cycle"):
            records.append(engine.run_cycle())
        cycle_s.append(perf_counter() - began)
    summary = cli.summarize_records(records, spec.engine.warmup_cycles)
    with span("cli.write_records_csv"):
        cli.write_records_csv(records, spec.output_csv)
    with open(spec.output_summary, "w", encoding="utf-8") as handle:
        json.dump(summary, handle, indent=2)
        handle.write("\n")
    run_s = perf_counter() - start
    return Rep(
        records=records,
        cycle_s=cycle_s,
        run_s=run_s,
        warmup_cycles=spec.engine.warmup_cycles,
        option_count=len(engine.options),
        csv_path=spec.output_csv,
    )
