"""adaptlab benchmark: time the MAPE-K loop end to end and layer by layer.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload desk-verify --seed 20260816 --seconds 60 --trace 0

One invocation runs one workload in this single process (``workers=1``, one
BLAS thread). From ``--seed`` it derives the workload's experiment seeds
(see ``experiment_seeds``), writes one config JSON per experiment seed under
``.perfbench_work/`` and runs them through the ``adaptlab run`` path (see
``drive.py``) with a timer around every cycle. It checks the CSV each run
writes against the rules of acceptance criterion 7 as soon as that run ends.

- ``--trace 0`` runs the experiments back to back, cycling through the
  experiment seeds, while the next run still fits in ``--seconds``; it
  makes every experiment once and the first twice at least. A group of
  set-up probes runs before the first run and after each run. It reports
  the end-to-end metrics, taken over all the runs.
- ``--trace 1`` runs the first experiment once untraced and once traced,
  reports the per-layer metrics, and writes the spans to
  ``.perfbench_work/trace-<workload>.jsonl.gz``.

The last line of standard output is the result:
``{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}``,
where ``attempted`` counts cycles and a run that breaks a correctness rule
counts all its cycles as failed. The line before it records the machine,
the runs and the CSV digests. Exit code 2 means the checkout has no
``src/adaptlab`` or the arguments are invalid.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

ACCEPTANCE_SEED = 20260816
# Later speed claims are confirmed on this seed; tune nothing on it.
HELD_OUT_SEED = 918273
# Set-up is probed in groups of this many fresh processes: one group before
# the first run and one after every run, so that the median samples the
# machine over the whole measurement and not only at its start.
SETUP_PROBES = 5
# Experiment seeds are --seed plus multiples of this step, so that the
# first is --seed itself and consecutive --seed values share none.
SEED_STEP = 1_000_003

# Both workloads walk a tenth as far per cycle as the default walk. On the
# default walk the load a seed wanders to sets the packets per run and the
# options verified per decision. Over seeds 101-110, desk-verify verified
# 3 to 7 options per decision on average, and the quartile spread of the
# median post-warm-up cycle was 0.28 of its median on desk-verify and 0.32
# on desk-adapt (0.39 for desk-adapt's warm-up median), above the 0.25 by
# which a metric may worsen: across seeds the timings measured the seed.
# On this walk 9 of 10 desk-verify seeds verified 5 options in every
# decision.
SLOW_WALK = {"interference_step": 0.05, "load_step": 0.01}

# A third workload on the full topology (4 096 options) was left out: its
# single 30 s experiment left no room for runs long enough to average out
# the drift of a shared machine within the benchmark's time budget.
WORKLOADS = {
    "desk-verify": {
        "why": "paper accuracy (eps 0.01, 14 979 runs per option): warm-up verification of all 256 options "
        "dominates, so simulator, hashing and SMC changes show here",
        "topology": "desk",
        "smc": {"epsilon": 0.01, "alpha": 0.1},
        # Three warm-up cycles keep verification above 90 % of the run (with
        # two, the oracle of 100 decisions pulled it to 89 %); 60 decisions
        # let three experiments of two seeds fit in a 60 s run.
        "engine": {"warmup_cycles": 3, "total_cycles": 63},
        "walk": SLOW_WALK,
        "experiments": 2,
    },
    "desk-adapt": {
        "why": "250 post-warm-up decisions at 600 runs per option: oracle, features and refits dominate, "
        "so engine and regression changes show and SMC-only changes should not",
        "topology": "desk",
        "smc": {"epsilon": 0.05, "alpha": 0.1},
        "engine": {"warmup_cycles": 5, "total_cycles": 255},
        "walk": SLOW_WALK,
        # Six seeds per invocation: even on the slow walk, one seed's
        # experiment ran up to a fifth faster than another's (6.2 s against
        # 7.5 s), which a single seed per invocation would show as spread.
        # Seven runs of about 7.3 s fill a 60 s run.
        "experiments": 6,
    },
}

# (metric, unit, better) of the untraced run, in printed order.
END_TO_END = (
    ("setup_s", "s", "lower"),
    ("run_s", "s", "lower"),
    ("warmup_cycle_s_p50", "s", "lower"),
    ("adapt_cycle_s_p50", "s", "lower"),
    ("adapt_cycle_s_p90", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
)


def experiment_seeds(workload: str, seed: int) -> list[int]:
    """The seeds of the experiments one invocation runs for ``--seed``."""
    return [(seed + i * SEED_STEP) % 2**64 for i in range(WORKLOADS[workload]["experiments"])]


def write_config(workload: str, seed: int, directory: Path) -> Path:
    """Write the experiment config ``adaptlab run`` would read for this
    workload; its outputs go to the same directory."""
    spec = WORKLOADS[workload]
    stem = directory / f"{workload}-{seed}"
    config = {
        "topology": spec["topology"],
        "seed": seed,
        "output_csv": str(stem.with_suffix(".csv")),
        "output_summary": str(stem.with_suffix(".summary.json")),
        "engine": dict(spec["engine"], eta=0.05, evaluation_mode=True, window_factor=10, workers=1),
        "smc": dict(spec["smc"], kappa_scale=100.0),
        "walk": spec["walk"],
    }
    path = stem.with_suffix(".json")
    path.write_text(json.dumps(config, indent=2) + "\n", encoding="utf-8")
    return path


def setup_seconds(config_path: Path) -> list[float]:
    """Set-up time of ``SETUP_PROBES`` fresh processes, one after another."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    times = []
    for _ in range(SETUP_PROBES):
        done = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), str(config_path)],
            env=env, capture_output=True, text=True, timeout=60, check=True,
        )
        times.append(float(done.stdout.strip().splitlines()[-1]))
    return times


def breaches(csv_text: str, rep) -> list[str]:
    """Criterion 7's rules, checked on the CSV a run wrote."""
    rows = list(csv.DictReader(csv_text.splitlines()))
    found = []
    if len(rows) != len(rep.records):
        found.append(f"CSV has {len(rows)} rows for {len(rep.records)} cycles")
    if any(row["measured_error"] == "" or float(row["measured_error"]) < 0.0 for row in rows):
        found.append("a measured_error is missing or negative")
    post = [row for row in rows if int(row["cycle"]) > rep.warmup_cycles]
    if any(row["cutoff"] == "" or float(row["b_hat_w"]) > float(row["cutoff"]) for row in post):
        found.append("a post-warm-up b_hat_w exceeds its cutoff")
    if any(row["bound_holds"] == "" for row in post):
        found.append("a post-warm-up cycle has no bound")
    held = [row["bound_holds"] == "true" for row in post if row["bound_holds"] != ""]
    if held:
        fraction = sum(held) / len(held)
        mean_p = math.fsum(float(row["min_probability"]) for row in post if row["bound_holds"] != "") / len(held)
        slack = 3.0 * math.sqrt(mean_p * (1.0 - mean_p) / len(held))
        if fraction < mean_p - slack:
            found.append(f"bound held in {fraction:.3f} of cycles, below {mean_p:.3f} - 3 sigma ({slack:.3f})")
    return found


def inputs_digest(config_path: Path) -> str:
    """Digest of the adaptlab sources and the experiment config."""
    digest = hashlib.sha256(config_path.read_bytes())
    for path in sorted((SRC / "adaptlab").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes() + b"\0")
    return digest.hexdigest()


def known_sha(config_path: Path, sha: str, record: bool) -> str:
    """The CSV digest first recorded for this config on this source tree.
    When there is none yet, returns ``sha`` and, if ``record``, stores it."""
    store = WORK / "csv-sha256" / f"{config_path.stem}-{inputs_digest(config_path)[:16]}"
    if store.exists():
        return store.read_text(encoding="utf-8").strip()
    if record:
        store.parent.mkdir(parents=True, exist_ok=True)
        store.write_text(sha + "\n", encoding="utf-8")
    return sha


def run_and_check(config_path: Path, *span):
    """Run the experiment once, then hash and check the CSV it wrote before
    the next run overwrites it. Returns ``(rep, sha256, breaches)``."""
    import drive

    rep = drive.drive(str(config_path), *span)
    text = Path(rep.csv_path).read_text(encoding="utf-8")
    return rep, hashlib.sha256(text.encode("utf-8")).hexdigest(), breaches(text, rep)


def machine() -> dict:
    def read(path: str) -> str:
        try:
            return Path(path).read_text(encoding="utf-8")
        except OSError:
            return ""

    cpu = next((line.split(":", 1)[1].strip() for line in read("/proc/cpuinfo").splitlines()
                if line.startswith("model name")), platform.processor())
    import numpy  # only after main() has limited BLAS to one thread

    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "loadavg": read("/proc/loadavg").strip(),
    }


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=ACCEPTANCE_SEED, help=f"workload seed (default {ACCEPTANCE_SEED})")
    parser.add_argument("--seconds", type=float, default=60.0, help="measurement budget of the untraced run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not 0 <= args.seed < 2**64:
        parser.error("--seed must lie in [0, 2^64)")
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    return args


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not (SRC / "adaptlab" / "__init__.py").is_file():
        print(f"perfbench: no adaptlab sources under {SRC}; run from the root of a full checkout", file=sys.stderr)
        return 2
    # One process, one thread: BLAS must not start its own pool.
    for variable in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[variable] = "1"
    sys.path.insert(0, str(SRC))
    import spans

    WORK.mkdir(exist_ok=True)
    context = {"workload": args.workload, "seed": args.seed, "held_out_seed": HELD_OUT_SEED,
               "trace": args.trace, "machine_start": machine()}
    context["experiment_seeds"] = experiment_seeds(args.workload, args.seed)
    configs = [write_config(args.workload, seed, WORK) for seed in context["experiment_seeds"]]

    if args.trace:
        used = [configs[0]] * 2
        runs = [run_and_check(configs[0])]
        tracer = spans.Tracer()
        with spans.installed(tracer):
            runs.append(run_and_check(configs[0], tracer.span))
    else:
        # Runs and set-up probes share the budget; the last run's time
        # predicts the next one's.
        began = perf_counter()
        setup = setup_seconds(configs[0])
        used, runs = [], []
        while len(runs) <= len(configs) or perf_counter() - began + runs[-1][0].run_s <= args.seconds:
            used.append(configs[len(runs) % len(configs)])
            runs.append(run_and_check(used[-1]))
            setup += setup_seconds(configs[0])

    reps = [rep for rep, _, _ in runs]
    shas = [sha for _, sha, _ in runs]
    attempted = failed = 0
    problems: list[str] = []
    for rep, _, found in runs:
        attempted += len(rep.records)
        if found:
            failed += len(rep.records)
            problems += found
    for config_path in dict.fromkeys(used):
        own = [sha for path, sha in zip(used, shas) if path == config_path]
        first_sha = known_sha(config_path, own[0], record=not problems)
        if any(sha != first_sha for sha in own):
            problems.append(f"CSV sha256 differs between runs of {config_path.name}: {sorted(set(own + [first_sha]))}")
            failed = attempted

    untraced = reps[:1] if args.trace else reps
    warmup = [s for rep in untraced for s in rep.cycle_s[: rep.warmup_cycles]]
    adapt = [s for rep in untraced for s in rep.cycle_s[rep.warmup_cycles:]]
    if args.trace:
        plain, traced = reps
        csv_bytes = Path(traced.csv_path).stat().st_size
        metrics, left_out = spans.layer_metrics(tracer, traced, plain.run_s, csv_bytes)
        if left_out:
            print(f"perfbench: hooks absent {tracer.absent}; not reported: {left_out}", file=sys.stderr)
        context["absent_layers"] = tracer.absent
        trace_path = WORK / f"trace-{args.workload}.jsonl.gz"
        tracer.write(str(trace_path), {"workload": args.workload, "seed": args.seed})
        context["trace_file"] = os.path.relpath(trace_path, ROOT)
    else:
        values = {
            "setup_s": statistics.median(setup),
            "run_s": statistics.median(rep.run_s for rep in reps),
            "warmup_cycle_s_p50": statistics.median(warmup),
            "adapt_cycle_s_p50": statistics.median(adapt),
            "adapt_cycle_s_p90": statistics.quantiles(adapt, n=10)[-1],
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit, _ in END_TO_END}
        context["setup_probes_s"] = setup

    context.update(
        runs=len(reps),
        run_s=[rep.run_s for rep in reps],
        samples={"warmup_cycles": len(warmup), "adapt_cycles": len(adapt)},
        csv_sha256=shas,
        breaches=problems,
        machine_end=machine(),
    )
    print(json.dumps({"perfbench": context}))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
