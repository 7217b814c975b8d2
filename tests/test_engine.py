"""Adaptation loop: cutoff rule, reduction, warm-up behavior, determinism."""

import importlib
import json
import math
import re
from pathlib import Path

import numpy as np
import pytest

from adaptlab.bounds import RiskBoundInputs, expected_risk_terms
from adaptlab.cli import load_experiment_config
from adaptlab.engine import (
    _SMC_SEED_SALT,
    LOSS_DOMAIN,
    AdaptationEngine,
    EngineConfig,
    cutoff,
    run_experiment,
)
from adaptlab.netsim import (
    EnvironmentWalk,
    Link,
    Mote,
    NetworkModel,
    NetworkTopology,
    NetworkView,
    desk_topology,
    features,
    full_topology,
    true_expected_loss,
)
from adaptlab.regression import predict_batch
from adaptlab.seeds import mix64
from adaptlab.smc import SmcConfig, verify_options

DESK = desk_topology()
# coarse verification keeps engine tests fast; accuracy is not the point here
QUICK_SMC = SmcConfig(epsilon=0.1, alpha=0.1)


def quick_config(**overrides):
    base = dict(warmup_cycles=2, total_cycles=5, smc=QUICK_SMC)
    return EngineConfig(**{**base, **overrides})


def tiny_topology():
    """One mote, two options; feature dim 3, so d = 4 is at least a window of 1 or 2 cycles."""
    return NetworkTopology(
        motes=(Mote(1, rate=2, links=(Link(0, 5.0),)),),
    )


class TestCutoff:
    def test_lower_median_rule(self):
        assert cutoff([4.0, 8.0, 12.0, 40.0]) == 5.0

    def test_singleton(self):
        assert cutoff([10.0]) == 10.0

    def test_all_equal(self):
        assert cutoff([3.0] * 17) == 3.0

    def test_odd_count_uses_middle(self):
        assert cutoff([1.0, 9.0, 5.0]) == 1.0 + (5.0 - 1.0) / 4.0

    def test_order_invariant(self):
        assert cutoff([40.0, 4.0, 12.0, 8.0]) == 5.0

    def test_never_below_min(self):
        rng = np.random.default_rng(19)
        for _ in range(50):
            values = rng.normal(10.0, 5.0, size=int(rng.integers(1, 40))).tolist()
            assert cutoff(values) >= min(values)

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            cutoff([])


class TestEngineConfig:
    def test_defaults(self):
        config = EngineConfig()
        assert config.warmup_cycles == 30
        assert config.total_cycles == 200
        assert config.eta == 0.05
        assert config.smc.epsilon == 0.01
        assert config.smc.alpha == 0.1
        assert LOSS_DOMAIN.width * config.smc.epsilon == 1.0  # kappa, one loss point

    def test_warmup_equal_to_total_is_allowed(self):
        config = EngineConfig(warmup_cycles=3, total_cycles=3, smc=QUICK_SMC)
        records = run_experiment(DESK, config, base_seed=1)
        assert len(records) == 3
        assert all(r.bound is None for r in records)

    def test_rejects_bad_shapes(self):
        with pytest.raises(ValueError):
            EngineConfig(warmup_cycles=0)
        with pytest.raises(ValueError):
            EngineConfig(warmup_cycles=10, total_cycles=9)
        with pytest.raises(ValueError):
            EngineConfig(eta=0.0)
        with pytest.raises(ValueError):
            EngineConfig(window_factor=0)

    def test_rejects_eta_whose_quarter_underflows(self):
        # eta / 4 rounds to 0, so ln(eta / 4) has no value: the config fails
        # before any cycle runs, not at the first bound
        with pytest.raises(ValueError, match=r"^eta 5e-324 is too small"):
            EngineConfig(eta=5e-324)


@pytest.fixture(scope="module")
def records():
    return run_experiment(DESK, quick_config(), base_seed=404)


class TestCycleRecords:
    def test_warmup_rows(self, records):
        for record in records[:2]:
            assert record.reduced_size == 256
            assert record.bound is None
            assert record.bound_holds is None
            assert record.empirical_risk is not None and record.empirical_risk >= 0.0
            assert 0 <= record.selected_id < 256

    def test_post_warmup_rows(self, records):
        for record in records[2:]:
            assert record.bound is not None
            assert record.bound.best_prediction <= record.bound.cutoff  # best prediction always survives
            assert 1 <= record.reduced_size <= 256
            assert record.bound_holds is not None

    def test_oracle_fields(self, records):
        for record in records:
            assert record.b_w is not None and record.b_r is not None
            assert record.b_w <= record.b_r <= record.b_worst
            assert record.measured_error == record.b_r - record.b_w
            assert record.measured_error >= 0.0
        engine = AdaptationEngine(DESK, quick_config(), base_seed=8)
        record = engine.run_cycle()
        truths = LOSS_DOMAIN.width * true_expected_loss(NetworkView(DESK, engine.env))
        assert (record.b_w, record.b_worst) == (float(truths.min()), float(truths.max()))

    def test_cycle_numbering(self, records):
        assert [r.cycle for r in records] == [1, 2, 3, 4, 5]


class TestDeterminism:
    def test_replay_is_bit_identical(self):
        a = run_experiment(DESK, quick_config(), base_seed=77)
        b = run_experiment(DESK, quick_config(), base_seed=77)
        assert a == b

    def test_full_replay_is_bit_identical(self):
        full = full_topology()
        config = EngineConfig(warmup_cycles=2, total_cycles=6, smc=SmcConfig(epsilon=0.05))
        a = run_experiment(full, config, base_seed=77)
        assert a == run_experiment(full, config, base_seed=77)
        assert [r.reduced_size for r in a[:2]] == [full.option_count] * 2
        assert all(r.reduced_size < full.option_count for r in a[2:])

    def test_seeds_change_trajectories(self):
        a = run_experiment(DESK, quick_config(), base_seed=77)
        b = run_experiment(DESK, quick_config(), base_seed=78)
        assert a != b


class TestTrainingWindow:
    def test_window_is_capped(self):
        engine = AdaptationEngine(DESK, quick_config(window_factor=1), base_seed=5)
        engine.run_cycle()
        engine.run_cycle()
        rows = np.concatenate(engine.window.blocks)
        assert rows.shape == (256, 23)  # two warm-up sweeps, capped at 1x space
        assert len(engine.window) == 256
        assert len(engine.window.blocks) == 1  # the first sweep left whole
        # a warm-up cycle verifies every option in id order
        np.testing.assert_array_equal(rows[:, :-1], features(NetworkView(DESK, engine.env)))
        before, model_before = rows, engine.model
        record = engine.run_cycle()
        design = features(NetworkView(DESK, engine.env))
        verified = np.flatnonzero(predict_batch(model_before, design) <= record.bound.cutoff)
        k = record.reduced_size
        assert len(verified) == k < 256
        # the verified options' design rows are appended in id order as one block, the oldest rows dropped
        assert [len(block) for block in engine.window.blocks] == [256 - k, k]
        kept, added = engine.window.blocks
        np.testing.assert_array_equal(kept, before[k:])
        np.testing.assert_array_equal(added[:, :-1], design[verified])
        assert len(engine.window) == 256

    def test_window_holds_the_verifier_fractions_in_percent(self):
        engine = AdaptationEngine(DESK, quick_config(), base_seed=8)
        record = engine.run_cycle()
        ids = list(range(DESK.option_count))
        seed = mix64(8, _SMC_SEED_SALT, 1)
        verified = verify_options(NetworkModel(NetworkView(DESK, engine.env), ids), ids, QUICK_SMC, seed)
        fractions = np.array([est.mean for _, est in verified])
        assert ((0.0 <= fractions) & (fractions <= 1.0)).all()
        percent = LOSS_DOMAIN.width * fractions
        (block,) = engine.window.blocks
        assert block[:, -1].tobytes() == percent.tobytes()
        assert record.selected_id == min(zip(percent.tolist(), ids))[1]

    def test_bound_uses_window_size(self):
        config = quick_config(window_factor=1, warmup_cycles=2, total_cycles=3)
        records = run_experiment(DESK, config, base_seed=5)
        bound = records[-1].bound
        assert bound is not None
        inputs = RiskBoundInputs(
            m=256,  # capped window
            vc_dim=23,
            eta=config.eta,
            empirical_risk=records[-1].empirical_risk,
            kappa=LOSS_DOMAIN.width * config.smc.epsilon,
            alpha=config.smc.alpha,
        )
        assert bound.confidence_term == expected_risk_terms(inputs, LOSS_DOMAIN)[0]


class TestBoundApplicability:
    def test_window_that_cannot_outgrow_the_vc_dimension_is_rejected(self, monkeypatch):
        # 2 options and d = 4: the window holds min(window_factor, warmup_cycles) x 2 rows after warm-up
        topo = tiny_topology()
        with monkeypatch.context() as patch:
            patch.setattr(AdaptationEngine, "run_cycle", lambda self: pytest.fail("no cycle may run"))
            for window_factor, warmup_cycles, rows in ((1, 3, 2), (3, 1, 2), (2, 3, 4), (3, 2, 4)):
                config = EngineConfig(warmup_cycles=warmup_cycles, total_cycles=5, smc=QUICK_SMC, window_factor=window_factor)
                message = re.escape(
                    f"min(window_factor {window_factor}, warmup_cycles {warmup_cycles}) x 2 options = {rows} "
                    "training rows after warm-up, not more than the VC dimension 4"
                )
                with pytest.raises(ValueError, match=f"^{message}$"):
                    AdaptationEngine(topo, config, base_seed=11)
                with pytest.raises(ValueError, match=f"^{message}$"):
                    run_experiment(topo, config, base_seed=11)
        # 3 warm-up cycles of 2 options leave 6 rows > d = 4: every later cycle has a bound
        config = EngineConfig(warmup_cycles=3, total_cycles=8, smc=QUICK_SMC, window_factor=3)
        records = run_experiment(topo, config, base_seed=11)
        for record in records:
            assert (record.bound is None) == (record.bound_holds is None) == (record.cycle <= 3)
        for record in records[3:]:
            assert record.bound.best_prediction <= record.bound.cutoff
            assert record.bound_holds == (record.measured_error <= record.bound.error_bound)

    def test_selected_option_survived_its_own_cutoff(self):
        engine = AdaptationEngine(DESK, quick_config(), base_seed=31)
        for _ in range(2):
            engine.run_cycle()
        model_before = engine.model
        record = engine.run_cycle()
        # the environment the cycle saw is still current; replay its predictions
        predictions = predict_batch(model_before, features(NetworkView(DESK, engine.env)))
        survivors = np.flatnonzero(predictions <= record.bound.cutoff)
        assert record.reduced_size == len(survivors)
        assert record.selected_id in survivors


class TestWalkIntegration:
    def test_zero_width_walk_freezes_environment(self):
        walk = EnvironmentWalk(interference_step=0.0, load_step=0.0)
        engine = AdaptationEngine(DESK, quick_config(), walk=walk, base_seed=3)
        engine.run_cycle()
        first = engine.env
        engine.run_cycle()
        assert engine.env.interference == first.interference
        assert engine.env.load == first.load

    def test_default_walk_moves_environment(self):
        engine = AdaptationEngine(DESK, quick_config(), base_seed=3)
        engine.run_cycle()
        first = engine.env
        engine.run_cycle()
        assert engine.env != first


class TestInLoopVerifier:
    def test_estimates_lie_within_kappa_of_the_oracle(self, monkeypatch):
        """Each candidate estimate of a desk run, paired with the oracle's
        loss of its option in the same cycle, lies within +/-kappa at the
        claimed rate 1 - alpha, less three binomial sigmas."""
        config = EngineConfig(warmup_cycles=30, total_cycles=60, smc=SmcConfig(epsilon=0.05))
        verified = []
        outcomes = []

        def recording_verify(*args):
            verified[:] = verify_options(*args)
            return verified

        def paired_truth(view):
            truths = true_expected_loss(view)
            percent, kappa = LOSS_DOMAIN.width * truths, LOSS_DOMAIN.width * config.smc.epsilon
            outcomes.extend(abs(LOSS_DOMAIN.width * est.mean - percent[oid]) <= kappa for oid, est in verified)
            verified.clear()
            return truths

        monkeypatch.setattr("adaptlab.engine.verify_options", recording_verify)
        monkeypatch.setattr("adaptlab.engine.true_expected_loss", paired_truth)
        run_experiment(DESK, config, base_seed=20260816)
        alpha, n = config.smc.alpha, len(outcomes)
        assert n >= 30 * DESK.option_count
        assert sum(outcomes) / n >= 1.0 - alpha - 3.0 * math.sqrt(alpha * (1.0 - alpha) / n)


def perfbench_module(monkeypatch, name):
    """A module of the benchmark harness, imported from its directory."""
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    return importlib.import_module(name)


class TestBenchmarkHooks:
    def test_every_workload_config_loads(self, monkeypatch, tmp_path):
        """The config loader rejects unknown keys, so every key the benchmark
        writes must stay a config key; the pinned keys of deleted settings
        change nothing."""
        bench = perfbench_module(monkeypatch, "run")
        for workload, spec in sorted(bench.WORKLOADS.items()):
            path = bench.write_config(workload, bench.ACCEPTANCE_SEED, tmp_path)
            loaded = load_experiment_config(str(path))
            assert (loaded.topology, loaded.engine.total_cycles) == (spec["topology"], spec["engine"]["total_cycles"])
            config = json.loads(path.read_text(encoding="utf-8"))
            del config["engine"]["workers"], config["engine"]["evaluation_mode"], config["smc"]["kappa_scale"]
            unpinned = tmp_path / f"{workload}-unpinned.json"
            unpinned.write_text(json.dumps(config), encoding="utf-8")
            assert load_experiment_config(str(unpinned)) == loaded, workload

    def test_traced_desk_run_fills_every_counter(self, monkeypatch):
        """The benchmark's traced run wraps the names in ``spans.HOOKS`` and
        drops the layer metrics of one it cannot find. Every hook must be
        found and called here, so a renamed, missing or non-callable target
        fails this test instead."""
        spans = perfbench_module(monkeypatch, "spans")
        config = quick_config(warmup_cycles=2, total_cycles=4, smc=SmcConfig(epsilon=0.05, alpha=0.1))
        rows = 0
        with spans.installed(spans.Tracer()) as tracer:
            engine = AdaptationEngine(DESK, config, base_seed=20260816)
            for _ in range(config.total_cycles):
                engine.run_cycle()
                rows += len(engine.window)
        assert tracer.absent == []
        totals = tracer.totals()
        assert [name for name, *_ in spans.HOOKS if not totals[name][0]] == []
        for counter in ("smc.estimates", "smc.samples", "netsim.sim_runs", "seeds.draws", "regression.window"):
            assert tracer.counts[counter] > 0, counter
        # ``regression.window_mean`` reads rows per fit from the length of fit's first argument
        assert tracer.counts["regression.window"] == rows
