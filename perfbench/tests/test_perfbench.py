"""Checks of the benchmark itself, separate from the repository's test suite.

Run from the root of a checkout: ``python3 -m pytest perfbench/tests``.
"""

from __future__ import annotations

import csv
import gzip
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import drive  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
from adaptlab.cli import main as adaptlab_main  # noqa: E402


def shortened_config(workload: str, tmp_path: Path, extra_cycles: int = 3) -> Path:
    """The workload's generated config, cut to a few post-warm-up cycles."""
    path = run.write_config(workload, run.ACCEPTANCE_SEED, tmp_path)
    config = json.loads(path.read_text())
    config["engine"]["total_cycles"] = config["engine"]["warmup_cycles"] + extra_cycles
    path.write_text(json.dumps(config))
    return path


@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
def test_drive_writes_the_bytes_adaptlab_run_writes(workload, tmp_path, capsys):
    path = shortened_config(workload, tmp_path)
    config = json.loads(path.read_text())
    rep = drive.drive(str(path))
    bench_csv = Path(config["output_csv"]).read_bytes()
    bench_summary = Path(config["output_summary"]).read_bytes()

    assert adaptlab_main(["run", str(path)]) == 0
    printed = capsys.readouterr().out
    assert Path(config["output_csv"]).read_bytes() == bench_csv
    assert Path(config["output_summary"]).read_bytes() == bench_summary
    assert printed == bench_summary.decode()
    assert len(rep.records) == len(rep.cycle_s) == config["engine"]["total_cycles"]
    assert run.breaches(bench_csv.decode(), rep) == []


def test_a_breach_in_an_earlier_run_fails_the_result(tmp_path, monkeypatch, capsys):
    """The first run's CSV is corrupted after it is written; the second run
    then overwrites that file with a clean one."""
    workload = dict(run.WORKLOADS["desk-adapt"], engine={"warmup_cycles": 5, "total_cycles": 8})
    monkeypatch.setitem(run.WORKLOADS, "desk-adapt", workload)
    monkeypatch.setattr(run, "WORK", tmp_path)
    real_drive = drive.drive
    reps = []

    def drive_and_corrupt_the_first(config_path, *span):
        rep = real_drive(config_path, *span)
        if not reps:
            rows = list(csv.DictReader(Path(rep.csv_path).read_text(encoding="utf-8").splitlines()))
            rows[0]["measured_error"] = "-1.0"
            with open(rep.csv_path, "w", encoding="utf-8", newline="") as handle:
                writer = csv.DictWriter(handle, fieldnames=list(rows[0]))
                writer.writeheader()
                writer.writerows(rows)
        reps.append(rep)
        return rep

    monkeypatch.setattr(drive, "drive", drive_and_corrupt_the_first)
    assert run.main(["--workload", "desk-adapt", "--seed", "7", "--trace", "1"]) == 0
    context, result = [json.loads(line) for line in capsys.readouterr().out.splitlines()[-2:]]
    assert len(reps) == 2
    assert run.breaches(Path(reps[-1].csv_path).read_text(encoding="utf-8"), reps[-1]) == []
    assert result["attempted"] == 16 and result["failed"] == 16 and result["correct"] is False
    assert "a measured_error is missing or negative" in context["perfbench"]["breaches"]
    assert len(set(context["perfbench"]["csv_sha256"])) == 2


def test_an_untraced_run_pools_the_seeds_and_repeats_the_first(tmp_path, monkeypatch, capsys):
    workload = dict(run.WORKLOADS["desk-adapt"], engine={"warmup_cycles": 5, "total_cycles": 8})
    monkeypatch.setitem(run.WORKLOADS, "desk-adapt", workload)
    monkeypatch.setattr(run, "WORK", tmp_path)
    monkeypatch.setattr(run, "SETUP_PROBES", 1)
    assert run.main(["--workload", "desk-adapt", "--seed", "7", "--seconds", "0.001", "--trace", "0"]) == 0
    context, result = [json.loads(line) for line in capsys.readouterr().out.splitlines()[-2:]]
    context = context["perfbench"]
    experiments = workload["experiments"]
    assert context["experiment_seeds"][0] == 7 and len(set(context["experiment_seeds"])) == experiments
    assert not set(context["experiment_seeds"]) & set(run.experiment_seeds("desk-adapt", 8))
    shas = context["csv_sha256"]
    assert context["runs"] == len(shas) == experiments + 1
    assert shas[-1] == shas[0] and len(set(shas)) == experiments
    assert context["breaches"] == [] and len(context["setup_probes_s"]) == experiments + 2
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] == 8 * (experiments + 1)
    assert list(result["metrics"]) == [name for name, _, _ in run.END_TO_END]


def test_benchmark_json_matches_the_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {w["name"]: w["why"] for w in spec["workloads"]} == {
        name: w["why"] for name, w in run.WORKLOADS.items()
    }
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == list(spans.PER_LAYER)


def test_traced_run_reports_every_layer_and_restores_the_hooks(tmp_path):
    import adaptlab.engine
    import adaptlab.netsim

    originals = {name: getattr(adaptlab.engine, name) for name in ("verify_options", "NetworkModel", "features")}
    simulate = adaptlab.netsim.NetworkModel.simulate_batch
    path = shortened_config("desk-adapt", tmp_path)
    plain = drive.drive(str(path))
    tracer = spans.Tracer()
    with spans.installed(tracer):
        traced = drive.drive(str(path), tracer.span)
    assert {name: getattr(adaptlab.engine, name) for name in originals} == originals
    assert adaptlab.netsim.NetworkModel.simulate_batch is simulate

    metrics, left_out = spans.layer_metrics(tracer, traced, plain.run_s, 1)
    assert left_out == [] and tracer.absent == []
    assert list(metrics) == [name for name, _, _ in spans.PER_LAYER]
    assert metrics["engine.cycles"]["value"] == len(traced.records)
    assert metrics["smc.samples_per_estimate"]["value"] == 600
    trace_path = tmp_path / "trace.jsonl.gz"
    tracer.write(str(trace_path), {"workload": "desk-adapt"})
    with gzip.open(trace_path, "rt", encoding="utf-8") as handle:
        header, *rows = [json.loads(line) for line in handle]
    assert header["trace_id"] == tracer.trace_id and header["absent"] == []
    assert len(rows) == len(tracer.start)
    assert {row["trace_id"] for row in rows} == {tracer.trace_id}
    by_id = {row["span_id"]: row for row in rows}
    verify = next(row for row in rows if row["name"] == "smc.verify_options")
    assert by_id[verify["parent_id"]]["name"] == "engine.run_cycle"
    assert all(row["start_ns"] <= row["end_ns"] for row in rows)


def test_missing_hook_target_is_reported_absent(tmp_path, monkeypatch):
    renamed = tuple(
        (name, owner, "renamed_away" if name == "netsim.true_expected_loss" else attribute, counter)
        for name, owner, attribute, counter in spans.HOOKS
    )
    monkeypatch.setattr(spans, "HOOKS", renamed)
    path = shortened_config("desk-adapt", tmp_path, extra_cycles=1)
    tracer = spans.Tracer()
    with spans.installed(tracer):
        traced = drive.drive(str(path), tracer.span)
    assert tracer.absent == ["netsim.true_expected_loss"]
    metrics, left_out = spans.layer_metrics(tracer, traced, traced.run_s, 1)
    assert left_out == ["netsim.oracle_calls", "netsim.oracle_s"]
    assert "netsim.features_s" in metrics and "netsim.oracle_s" not in metrics


def test_fails_without_the_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / BENCH.name, ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, f"{BENCH.name}/run.py", "--workload", "desk-adapt", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode != 0
    assert done.stdout == ""
