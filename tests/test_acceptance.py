"""Acceptance gate: one end-to-end check per release criterion.

Each test prints a single [PASS]/[FAIL] line (bypassing pytest's capture)
so the verdict is readable straight off the terminal. Everything here goes
through the public package surface; oracles are either closed-form or
arbitrary-precision recomputations.
"""

from __future__ import annotations

import csv
import json
import math
import struct
import time
from contextlib import contextmanager

import numpy as np
from mpmath import mp

from adaptlab import (
    Environment,
    NetworkModel,
    NetworkView,
    QualityDomain,
    RiskBoundInputs,
    SmcConfig,
    coverage_experiment,
    cutoff,
    decision_error_bound,
    desk_topology,
    empirical_risk,
    fit,
    prob_any_feasible_retained,
    reduction_survival_prob,
    required_samples,
    true_expected_loss,
    vc_dimension_linear,
)
from adaptlab.cli import main
from adaptlab.engine import LOSS_DOMAIN
from helpers import one_block_window


@contextmanager
def criterion(capsys, number: int, title: str):
    """Print one [PASS]/[FAIL] line per criterion, visible despite capture."""
    info: dict = {}
    try:
        yield info
    except BaseException:
        with capsys.disabled():
            print(f"\n[FAIL] criterion {number}: {title}")
        raise
    suffix = "".join(f" {key}={value}" for key, value in info.items())
    with capsys.disabled():
        print(f"\n[PASS] criterion {number}: {title}{suffix}")


_SIGN = 1 << 63


def _ordinal(value: float) -> int:
    (bits,) = struct.unpack("<Q", struct.pack("<d", value))
    if bits & _SIGN:
        return _SIGN - (bits ^ _SIGN)
    return _SIGN + bits


def ulps_apart(a: float, b: float) -> int:
    """Distance in representable doubles; 0 means bit-identical (or +/-0)."""
    return abs(_ordinal(a) - _ordinal(b))


def test_criterion_1_retention_probability_worked_example(capsys):
    with criterion(capsys, 1, "retention probability at the documented operating points") as info:
        # 2*sqrt(risk upper) = 10, 25 feasible options
        generous = reduction_survival_prob(cutoff=10.0, best_prediction=7.0, expected_risk_upper=25.0)
        assert generous == 0.3
        retained = prob_any_feasible_retained(generous, 25)
        assert retained >= 0.99
        tight = reduction_survival_prob(cutoff=8.0, best_prediction=7.0, expected_risk_upper=25.0)
        assert abs(prob_any_feasible_retained(tight, 25) - (1.0 - 0.9**25)) <= 1e-12
        info["p=0.3,n=25"] = f"{retained:.6f}"
        info["p=0.1,n=25"] = f"{prob_any_feasible_retained(tight, 25):.6f}"


def test_criterion_2_bound_fields_match_60_digit_arithmetic(capsys):
    def exact_fields(m, d, eta, alpha, kappa, lower, upper, risk, cut, best, n):
        with mp.workdps(60):
            width = mp.mpf(upper) - mp.mpf(lower)
            nu = (d * (mp.log(2 * mp.mpf(m) / d) + 1) - mp.log(mp.mpf(eta) / 4)) / m
            margin = width**2 * mp.sqrt(nu)
            adjusted = margin + 2 * width * mp.mpf(kappa)
            risk_upper = mp.mpf(risk) + adjusted
            ratio = (mp.mpf(cut) - mp.mpf(best)) / (2 * mp.sqrt(risk_upper))
            survival = min(mp.mpf(1), max(mp.mpf(0), ratio))
            retained = 1 - (1 - survival) ** n
            return {
                "confidence_term": float(nu),
                "risk_margin": float(margin),
                "adjusted_risk_margin": float(adjusted),
                "survival_prob": float(survival),
                "error_bound": float(mp.sqrt(risk_upper) + mp.mpf(kappa)),
                "min_probability": float((1 - mp.mpf(eta)) * (1 - mp.mpf(alpha)) ** 2 * retained),
            }

    with criterion(capsys, 2, "bound fields match 60-digit recomputation within 4 ulps") as info:
        rng = np.random.default_rng(20260816)
        worst = 0
        for _ in range(1000):
            d = int(rng.integers(2, 401))
            m = d + 1 + int(rng.integers(0, 100_000))
            eta = float(rng.uniform(0.01, 0.99))
            alpha = float(rng.uniform(0.01, 0.99))
            kappa = float(rng.uniform(0.0, 10.0))
            lower = float(rng.uniform(-50.0, 50.0))
            upper = lower + float(rng.uniform(0.5, 200.0))
            width = upper - lower
            risk = float(rng.uniform(0.0, 0.999)) * width * width
            best = float(rng.uniform(lower, upper))
            # spread cutoffs so both clamp branches of the survival ratio fire
            cut = best + float(rng.uniform(-1.0, 3.0)) * width
            n = int(rng.integers(0, 3001))

            result = decision_error_bound(
                RiskBoundInputs(m=m, vc_dim=d, eta=eta, empirical_risk=risk, kappa=kappa, alpha=alpha),
                QualityDomain(lower, upper),
                cutoff=cut,
                best_prediction=best,
                n_feasible=n,
            )
            reference = exact_fields(m, d, eta, alpha, kappa, lower, upper, risk, cut, best, n)
            for field, expected in reference.items():
                distance = ulps_apart(getattr(result, field), expected)
                worst = max(worst, distance)
                assert distance <= 4, (field, distance, expected)
        info["tuples"] = 1000
        info["worst_ulps"] = worst


def test_criterion_3_linear_model_capacity(capsys):
    with criterion(capsys, 3, "linear hypothesis capacity is input dimension plus one") as info:
        assert vc_dimension_linear(85) == 86
        info["vc(85)"] = vc_dimension_linear(85)


def test_criterion_4_smc_coverage_and_sizing(capsys):
    with criterion(capsys, 4, "SMC interval coverage and Chernoff-Hoeffding sizing") as info:
        assert required_samples(0.01, 0.1) == 14979
        report = coverage_experiment(
            true_mean=0.5,
            config=SmcConfig(epsilon=0.02, alpha=0.05),
            repetitions=500,
            base_seed=11,
        )
        assert report["coverage"] >= 0.92
        info["coverage"] = f"{report['coverage']:.3f}"
        info["mean_samples_used"] = f"{report['mean_samples_used']:.0f}"
        info["max_samples_used"] = report["max_samples_used"]
        info["samples_cap"] = report["samples_cap"]


def test_criterion_5_regressor_recovery(capsys):
    with criterion(capsys, 5, "noiseless 5-dim recovery and fit-order invariance") as info:
        rng = np.random.default_rng(5)
        weights = np.array([2.0, -1.5, 0.25, 4.0, -3.0])
        intercept = 7.5
        points = rng.normal(size=(400, 5))
        targets = np.array([float(x @ weights + intercept) for x in points])
        model = fit(one_block_window(points, targets))
        assert np.max(np.abs(model.weights - weights)) <= 1e-9
        assert abs(model.intercept - intercept) <= 1e-9
        mse = empirical_risk(model, one_block_window(points, targets))
        assert mse < 1e-12
        order = rng.permutation(len(targets))
        reordered = fit(one_block_window(points[order], targets[order]))
        assert np.max(np.abs(reordered.weights - model.weights)) <= 1e-9
        assert abs(reordered.intercept - model.intercept) <= 1e-9
        info["mse"] = f"{mse:.2e}"


def test_criterion_6_simulator_matches_analytic_loss(capsys):
    with criterion(capsys, 6, "Monte-Carlo loss agrees with the closed form") as info:
        topology = desk_topology()
        rng = np.random.default_rng(66)
        seeds = np.arange(200_000, dtype=np.uint64)
        worst = 0.0
        for _ in range(20):
            option_id = int(rng.integers(topology.option_count))
            env = Environment(
                interference=tuple(float(v) for v in rng.uniform(0.0, 6.0, topology.link_count)),
                load=tuple(float(v) for v in rng.uniform(0.5, 2.0, topology.mote_count)),
            )
            view = NetworkView(topology, env)
            analytic = LOSS_DOMAIN.width * float(true_expected_loss(view)[option_id])
            model = NetworkModel(view, [option_id])
            lost = model.simulate_batch(np.array([0]), seeds[None, :])[0]
            monte_carlo = 100.0 * float(np.mean(lost / model.total))
            worst = max(worst, abs(monte_carlo - analytic))
            assert abs(monte_carlo - analytic) <= 0.25, (analytic, monte_carlo)
        info["pairs"] = 20
        info["runs_per_pair"] = len(seeds)
        info["worst_gap"] = f"{worst:.4f}"


def test_criterion_8_cutoff_rule_worked_examples(capsys):
    with criterion(capsys, 8, "cutoff rule worked examples") as info:
        assert cutoff([4.0, 8.0, 12.0, 40.0]) == 5.0
        assert cutoff([10.0]) == 10.0
        assert cutoff([3.5, 3.5, 3.5]) == 3.5
        info["cutoff([4,8,12,40])"] = cutoff([4.0, 8.0, 12.0, 40.0])


def replayed_run_within_band(capsys, tmp_path, config: dict, cycles: int, post_cycles: int, info: dict) -> None:
    """Run the config twice through ``adaptlab run``, require byte-identical
    output, sound rows and a bound-violation rate within a three-sigma
    binomial band of the mean reported ``min_probability``, and put the
    headline numbers in ``info``."""
    paths = []
    for name in ("first", "second"):
        payload = dict(config, output_csv=str(tmp_path / f"{name}.csv"))
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(payload))
        paths.append(path)

    started = time.monotonic()
    assert main(["run", str(paths[0])]) == 0
    summary = json.loads(capsys.readouterr().out)
    assert main(["run", str(paths[1])]) == 0
    assert json.loads(capsys.readouterr().out) == summary
    first = (tmp_path / "first.csv").read_bytes()
    assert first == (tmp_path / "second.csv").read_bytes()

    rows = list(csv.DictReader(first.decode().splitlines()))
    assert len(rows) == cycles
    post = [row for row in rows if row["cutoff"] != ""]
    assert len(post) == post_cycles

    for row in rows:
        assert float(row["measured_error"]) >= 0.0
    for row in post:
        assert float(row["b_hat_w"]) <= float(row["cutoff"])
        assert row["error_bound"] != "" and row["min_probability"] != ""

    holds = [row["bound_holds"] == "true" for row in post]
    fraction = sum(holds) / len(holds)
    mean_prob = sum(float(row["min_probability"]) for row in post) / len(post)
    slack = 3.0 * math.sqrt(mean_prob * (1.0 - mean_prob) / len(post))
    assert fraction >= mean_prob - slack, (fraction, mean_prob, slack)

    elapsed = time.monotonic() - started
    assert elapsed < 600.0
    info["bound_holds"] = f"{fraction:.3f}"
    info["mean_min_probability"] = f"{mean_prob:.3f}"
    info["slack"] = f"{slack:.3f}"
    info["vacuous_bound_cycles"] = f"{summary['vacuous_bound_cycles']}/{len(post)}"
    info["seconds"] = f"{elapsed:.0f}"


def test_criterion_7_end_to_end_bound_validation(capsys, tmp_path):
    config = {
        "topology": "desk",
        "seed": 20260816,
        "engine": {"warmup_cycles": 30, "total_cycles": 200},
        "smc": {"epsilon": 0.01, "alpha": 0.1, "kappa_scale": 100.0},
    }
    with criterion(capsys, 7, "full adaptation run honours the decision bound") as info:
        replayed_run_within_band(capsys, tmp_path, config, 200, 170, info)


def test_criterion_9_full_topology_bound_validation(capsys, tmp_path):
    # Every bound of this run is vacuous (at least the best-to-worst spread),
    # so the criterion gates determinism and the band on the 4096-option
    # space, not the bound's tightness.
    config = {
        "topology": "full",
        "seed": 4242,
        "engine": {"warmup_cycles": 3, "total_cycles": 63},
        "smc": {"epsilon": 0.05, "alpha": 0.1},
    }
    title = "full-topology run stays in the band and replays (the gate is determinism and the band, not tightness)"
    with criterion(capsys, 9, title) as info:
        replayed_run_within_band(capsys, tmp_path, config, 63, 60, info)
