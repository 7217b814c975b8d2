"""Command-line surface: bound calculator, experiment runner, SMC self-test.

Three subcommands:

- ``bounds``: evaluate the decision-error bound for explicit parameters
  and print every field as JSON.
- ``run``: execute a full adaptation experiment from a JSON config file,
  writing a per-cycle CSV and printing a JSON summary.
- ``smc-selftest``: run the model checker's coverage experiment against a
  known-mean Bernoulli model.

Every command is deterministic given its flags/config/seed. Numbers are
serialized with 12 significant digits. Exit codes: 0 success, 1 statistical
self-test failure, 2 usage or validation error, including an input that
makes the arithmetic overflow, a bound that is not finite, or a run that
needs more memory than is available.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import json
import math
import os
import sys
from dataclasses import asdict, dataclass, fields
from functools import partial

from .bounds import QualityDomain, RiskBoundInputs, check_open_unit, decision_error_bound
from .engine import LOSS_DOMAIN, CycleRecord, EngineConfig, run_experiment
from .netsim import TOPOLOGY_PRESETS, EnvironmentWalk
from .smc import SmcConfig, coverage_experiment

def _sig(value: float) -> float:
    """Round to 12 significant digits for stable serialization."""
    return float(format(value, ".12g"))


def _sig_floats(report: dict) -> dict:
    return {k: (_sig(v) if isinstance(v, float) else v) for k, v in report.items()}


def _cell(value: float | None) -> str:
    return "" if value is None else format(value, ".12g")


# Each CSV column once, in order: its header and its cell for a cycle record.
_CSV_COLUMNS = {
    "cycle": lambda r: str(r.cycle),
    "reduced_size": lambda r: str(r.reduced_size),
    "cutoff": lambda r: _cell(r.bound.cutoff if r.bound else None),
    "b_hat_w": lambda r: _cell(r.bound.best_prediction if r.bound else None),
    "selected_id": lambda r: str(r.selected_id),
    "B_r": lambda r: _cell(r.b_r),
    "B_w": lambda r: _cell(r.b_w),
    "measured_error": lambda r: _cell(r.measured_error),
    "error_bound": lambda r: _cell(r.bound.error_bound if r.bound else None),
    "min_probability": lambda r: _cell(r.bound.min_probability if r.bound else None),
    "empirical_risk": lambda r: _cell(r.empirical_risk),
    "bound_holds": lambda r: "" if r.bound_holds is None else ("true" if r.bound_holds else "false"),
}


# -- bounds --------------------------------------------------------------


def cmd_bounds(args: argparse.Namespace) -> int:
    if args.cutoff < args.b_hat_w:
        raise ValueError("--cutoff must not lie below --b-hat-w, the minimum prediction")
    if args.n < 1:
        raise ValueError("--n must be at least 1: the best-predicted option is always feasible")
    for flag, count in (("--m", args.m), ("--n", args.n)):  # --d stays below --m
        if abs(count) > sys.float_info.max:
            raise ValueError(f"{flag} is too large: the bound needs it as a float")
    check_open_unit("epsilon", args.epsilon)
    domain = QualityDomain(lower=args.l_q, upper=args.u_q)
    inputs = RiskBoundInputs(
        m=args.m,
        vc_dim=args.d,
        eta=args.eta,
        empirical_risk=args.empirical_risk,
        kappa=domain.width * args.epsilon,  # as in run
        alpha=args.alpha,
    )
    bound = decision_error_bound(inputs, domain, args.cutoff, args.b_hat_w, args.n)
    report = _sig_floats(asdict(bound))
    overflowed = [key for key, value in report.items() if not math.isfinite(value)]
    if overflowed:  # json would print them as Infinity or NaN, which is not JSON
        raise ValueError(f"the bound is not finite at these inputs: {', '.join(overflowed)} overflowed")
    print(json.dumps(report, indent=2))
    return 0


# -- run -----------------------------------------------------------------


@dataclass(frozen=True)
class ExperimentSpec:
    """A validated experiment config file."""

    topology: str
    seed: int
    output_csv: str
    output_summary: str | None
    engine: EngineConfig
    walk: EnvironmentWalk


# JSON values a config field accepts, by the type of the field's default.
_ACCEPTED = {int: (int,), float: (int, float)}
_KIND_NAMES = {int: "an integer", float: "a finite number"}


def section_defaults(cls: type) -> dict:
    """Keys of the config section that builds ``cls``, with their defaults:
    every field with a scalar default (the nested ``EngineConfig.smc`` has
    its own section)."""
    return {f.name: f.default for f in fields(cls) if type(f.default) in _ACCEPTED}


def _check_keys(section: dict, allowed, where: str) -> None:
    unknown = set(section) - set(allowed)
    if unknown:
        raise ValueError(f"unknown {where} keys: {', '.join(sorted(unknown))}")


def _field_value(value, default, where: str):
    kind = type(default)
    # type() rather than isinstance(): a JSON bool is not a number here
    if type(value) not in _ACCEPTED[kind] or (kind is float and not abs(value) <= sys.float_info.max):
        raise ValueError(f"{where} must be {_KIND_NAMES[kind]}")
    return kind(value)


# Keys of deleted settings that older configs still carry: each is accepted
# only as the one value its setting allowed, and then dropped.
# (section, key) -> (JSON types, value)
_PINNED = {
    ("engine", "workers"): ((int,), 1),
    ("engine", "evaluation_mode"): ((bool,), True),
    ("smc", "kappa_scale"): ((int, float), LOSS_DOMAIN.width),
}


def _section(data: dict, name: str, cls: type, **nested):
    section = data.get(name, {})
    if not isinstance(section, dict):
        raise ValueError(f"{name} section must be an object")
    defaults = section_defaults(cls)
    pinned = {key: rule for (where, key), rule in _PINNED.items() if where == name and key in section}
    _check_keys(section, [*defaults, *pinned], name)
    for key, (types, value) in pinned.items():
        if type(section[key]) not in types or section[key] != value:
            raise ValueError(f"{name}.{key} must be {json.dumps(value)}, the one value of a deleted setting")
    return cls(**{k: _field_value(v, defaults[k], f"{name}.{k}") for k, v in section.items() if k not in pinned}, **nested)


def _required(data: dict, key: str):
    if key not in data:
        raise ValueError(f"config is missing required key: {key}")
    return data[key]


def load_experiment_config(path: str) -> ExperimentSpec:
    try:
        with open(path, encoding="utf-8") as handle:
            data = json.load(handle)
    except OSError as exc:
        raise ValueError(f"cannot read config file: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ValueError(f"config file is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ValueError("config root must be a JSON object")
    _check_keys(data, [f.name for f in fields(ExperimentSpec)] + ["smc"], "config")

    topology = _required(data, "topology")
    if not isinstance(topology, str) or topology not in TOPOLOGY_PRESETS:
        raise ValueError(f"unknown topology preset: {topology!r} (choose from {sorted(TOPOLOGY_PRESETS)})")
    seed = _required(data, "seed")
    if isinstance(seed, bool) or not isinstance(seed, int) or not 0 <= seed < 2**64:
        raise ValueError("seed must be an integer in [0, 2^64)")
    output_csv = _required(data, "output_csv")
    if not isinstance(output_csv, str) or not output_csv:
        raise ValueError("output_csv must be a nonempty path string")
    output_summary = data.get("output_summary")
    if output_summary is not None and (not isinstance(output_summary, str) or not output_summary):
        raise ValueError("output_summary must be a nonempty path string when given")
    if output_summary is not None and os.path.realpath(output_summary) == os.path.realpath(output_csv):
        raise ValueError("output_summary and output_csv must be different files")
    for key in ("output_csv", "output_summary"):
        if data.get(key) is not None:
            directory = os.path.dirname(os.path.abspath(data[key]))
            if not os.path.isdir(directory):
                raise ValueError(f"{key} directory does not exist: {directory}")
            if os.path.isdir(data[key]):
                raise ValueError(f"{key} names a directory, not a file: {data[key]}")

    return ExperimentSpec(
        topology=topology,
        seed=seed,
        output_csv=output_csv,
        output_summary=output_summary,
        engine=_section(data, "engine", EngineConfig, smc=_section(data, "smc", SmcConfig)),
        walk=_section(data, "walk", EnvironmentWalk),
    )


def write_records_csv(records: list[CycleRecord], path: str) -> None:
    with open(path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(list(_CSV_COLUMNS))
        for record in records:
            writer.writerow([cell(record) for cell in _CSV_COLUMNS.values()])


def _mean(values: list) -> float | None:
    return math.fsum(values) / len(values) if values else None


def summarize_records(records: list[CycleRecord], warmup_cycles: int) -> dict:
    """Counts and statistics of the post-warm-up cycles, each with a bound; a statistic over no values is null."""
    post = [r for r in records if r.cycle > warmup_cycles]
    errors = [r.measured_error for r in post]
    probs = [r.bound.min_probability for r in post]
    holds = [r.bound_holds for r in post]
    # a bound at least the best-to-worst spread would accept any option
    vacuous = [r.bound.error_bound >= r.b_worst - r.b_w for r in post]
    mean = _mean(errors)
    variance = _mean([(e - mean) ** 2 for e in errors])
    return _sig_floats({
        "cycles": len(records),
        "warmup_cycles": warmup_cycles,
        "post_warmup_cycles": len(post),
        "bound_applicable_cycles": len(probs),
        "min_measured_error": min(errors, default=None),
        "max_measured_error": max(errors, default=None),
        "mean_measured_error": mean,
        "std_measured_error": None if variance is None else math.sqrt(variance),
        "bound_holds_fraction": _mean(holds),
        "vacuous_bound_cycles": sum(vacuous) if vacuous else None,
        "mean_min_probability": _mean(probs),
    })


def _write_summary(summary: dict, path: str) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(summary, handle, indent=2)
        handle.write("\n")


def _publish(outputs: list) -> None:
    """Write each (target, writer) to a temporary file beside its target,
    then move them all into place. On failure only the temporaries are
    removed, so a failed run neither leaves a partial file nor destroys an
    existing one."""
    temps = []
    try:
        for index, (target, write) in enumerate(outputs):
            temps.append(f"{target}.{os.getpid()}-{index}.tmp")
            write(temps[-1])
        for (target, _), temp in zip(outputs, temps):
            os.replace(temp, target)
    except BaseException:
        for temp in temps:
            with contextlib.suppress(OSError):
                os.unlink(temp)
        raise


def cmd_run(args: argparse.Namespace) -> int:
    spec = load_experiment_config(args.config)
    topology = TOPOLOGY_PRESETS[spec.topology]()
    records = run_experiment(topology, spec.engine, spec.walk, spec.seed)
    summary = summarize_records(records, spec.engine.warmup_cycles)
    outputs = [(spec.output_csv, partial(write_records_csv, records))]
    if spec.output_summary is not None:
        outputs.append((spec.output_summary, partial(_write_summary, summary)))
    _publish(outputs)
    print(json.dumps(summary, indent=2))
    return 0


# -- smc-selftest ---------------------------------------------------------


def cmd_smc_selftest(args: argparse.Namespace) -> int:
    if not 0 <= args.seed < 2**64:
        raise ValueError("--seed must be an integer in [0, 2^64)")
    config = SmcConfig(epsilon=args.epsilon, alpha=args.alpha)
    report = coverage_experiment(args.mean, config, args.repetitions, args.seed)
    print(json.dumps(_sig_floats(report), indent=2))
    return 0 if report["passed"] else 1


# -- parser ---------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="adaptlab",
        description="Adaptation-space reduction laboratory: bound calculator, "
        "experiment runner, and SMC self-test.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    bounds = sub.add_parser("bounds", help="evaluate the decision-error bound for explicit parameters")
    bounds.add_argument("--m", type=int, required=True, help="training-window sample count")
    bounds.add_argument("--d", type=int, required=True, help="VC dimension of the learner")
    bounds.add_argument("--eta", type=float, default=EngineConfig.eta,
                        help="risk-bound significance (default %(default)s)")
    bounds.add_argument("--epsilon", type=float, default=SmcConfig.epsilon,
                        help="SMC approximation half-width (default %(default)s)")
    bounds.add_argument("--alpha", type=float, default=SmcConfig.alpha, help="SMC significance (default %(default)s)")
    bounds.add_argument("--l-q", type=float, default=LOSS_DOMAIN.lower,
                        help="quality domain lower bound (default %(default)s)")
    bounds.add_argument("--u-q", type=float, default=LOSS_DOMAIN.upper,
                        help="quality domain upper bound (default %(default)s)")
    bounds.add_argument("--empirical-risk", type=float, required=True, help="training MSE of the model")
    bounds.add_argument("--cutoff", type=float, required=True, help="reduction threshold")
    bounds.add_argument("--b-hat-w", type=float, required=True, help="minimum predicted quality")
    bounds.add_argument("--n", type=int, required=True, help="number of feasible options")
    bounds.set_defaults(func=cmd_bounds)

    run = sub.add_parser("run", help="run an adaptation experiment from a JSON config file")
    run.add_argument("config", help="path to the experiment config (JSON)")
    run.set_defaults(func=cmd_run)

    selftest = sub.add_parser("smc-selftest", help="coverage experiment against a known-mean model")
    selftest.add_argument("--epsilon", type=float, default=0.02, help="approximation half-width (default %(default)s)")
    selftest.add_argument("--alpha", type=float, default=0.05, help="significance (default %(default)s)")
    selftest.add_argument("--mean", type=float, default=0.5, help="true mean of the test model (default %(default)s)")
    selftest.add_argument("--repetitions", type=int, default=500,
                          help="independent estimates to run (default %(default)s)")
    selftest.add_argument("--seed", type=int, default=0, help="base seed (default %(default)s)")
    selftest.set_defaults(func=cmd_smc_selftest)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError:
        print("error: the run needs more memory than is available (a smaller epsilon asks for more runs)", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
