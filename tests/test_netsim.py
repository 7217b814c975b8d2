"""Network simulator: enumeration, link model, oracle consistency, environment."""

import math
import tracemalloc

import numpy as np
import pytest

from adaptlab import netsim
from adaptlab.engine import AdaptationEngine, EngineConfig
from adaptlab.netsim import (
    MAX_MOTE_PACKETS,
    Environment,
    EnvironmentWalk,
    Link,
    Mote,
    NetworkModel,
    NetworkTopology,
    NetworkView,
    desk_topology,
    environment_step,
    feature_dim,
    features,
    full_topology,
    initial_environment,
    link_delivery_prob,
    true_expected_loss,
)
from adaptlab.seeds import derive_seeds, stream_uint64

DESK = desk_topology()
FULL = full_topology()


def simulate(view, option_id, seeds):
    """Outcomes of one option over a 1-D array of seeds."""
    return NetworkModel(view, [option_id]).simulate_batch(np.array([0]), np.asarray(seeds)[None, :])[0]


def one_hop_topology(rate=1):
    return NetworkTopology(
        motes=(Mote(1, rate=rate, links=(Link(0, 5.0),)),),
    )


def reference_loss(topology, env, option_id, delivery_override=None):
    """The oracle for one option as a plain loop over the topology's links:
    bit i of the id is mote i+1's power, then one bit per two-parent mote
    (1 picks its first-listed link); reach(mote) = q * reach(parent), parents
    first, and the delivered packets are added mote by mote."""
    generated = [max(0, round(m.rate * env.load[m.mote_id - 1])) for m in topology.motes]
    total = sum(generated)
    if total == 0:
        return 0.0
    reach = [1.0]
    link_index = 0  # canonical index of the mote's first link
    split_bit = topology.mote_count
    for mote in topology.motes:
        pick = 0
        if len(mote.links) == 2:
            pick = 1 - ((option_id >> split_bit) & 1)
            split_bit += 1
        link = mote.links[pick]
        power = (option_id >> (mote.mote_id - 1)) & 1
        q = delivery_override
        if q is None:
            q = link_delivery_prob(link.base_snr, power, env.interference[link_index + pick])
        reach.append(q * reach[link.parent])
        link_index += len(mote.links)
    delivered = 0.0
    for g, r in zip(generated, reach[1:]):
        delivered = delivered + g * r
    return 100.0 * (1.0 - delivered / total)


def reference_keys(q, cap):
    """One Binomial table as a plain loop: Pascal's rule on Python floats,
    key (k << 56) + floor(F_k(j) * 2^56) for k in 1..cap and j in 0..k-1."""
    keys, cdf = [], []
    for k in range(1, cap + 1):
        cdf = [(1.0 - q) * a + q * b for a, b in zip(cdf + [1.0], [0.0] + cdf)]
        keys += [(k << 56) + math.floor(f * 2.0**56) for f in cdf]
    return keys


def assert_binomial_histogram(counts, n, p):
    """Each count in 0..n occurs within 5 sigma of its Binomial(n, p) share."""
    runs = len(counts)
    observed = np.bincount(counts, minlength=n + 1)
    assert len(observed) == n + 1
    for j in range(n + 1):
        pmf = math.comb(n, j) * p**j * (1.0 - p) ** (n - j)
        sigma = math.sqrt(runs * pmf * (1.0 - pmf))
        assert abs(observed[j] - runs * pmf) <= 5.0 * sigma + 1e-9, (j, observed[j], runs * pmf)


class TestEnumeration:
    def test_space_sizes(self):
        assert DESK.option_count == 256
        assert FULL.option_count == 4096
        assert len(true_expected_loss(NetworkView(DESK, initial_environment(DESK)))) == 256

    def test_ids_are_sequential(self):
        settings = features(DESK, initial_environment(DESK))[:, :8].astype(np.int64)
        assert (settings @ (1 << np.arange(8))).tolist() == list(range(256))

    def test_encoding_is_injective(self):
        for topo in (DESK, FULL):
            width = topo.mote_count + len(topo.split_motes)
            seen = {tuple(row) for row in features(topo, initial_environment(topo))[:, :width]}
            assert len(seen) == topo.option_count

    def test_rejects_out_of_range_id(self):
        view = NetworkView(DESK, initial_environment(DESK))
        with pytest.raises(ValueError):
            NetworkModel(view, [0, 256])
        with pytest.raises(ValueError):
            NetworkModel(view, [-1])

    def test_split_fractions_span_unit_interval(self):
        env = initial_environment(DESK)
        columns = slice(DESK.mote_count, DESK.mote_count + len(DESK.split_motes))
        fractions = {tuple(row) for row in features(DESK, env)[:, columns]}
        assert fractions == {(0.0, 0.0), (0.0, 1.0), (1.0, 0.0), (1.0, 1.0)}

    def test_id_bits_are_the_settings(self):
        # powers (0, 1, 1, 0, 0, 0); mote 4 takes its second link, mote 5 its first
        env = initial_environment(DESK)
        expected = [
            (link.parent, link_delivery_prob(link.base_snr, power, env.interference[index]))
            for link, power, index in zip(
                [DESK.motes[0].links[0], DESK.motes[1].links[0], DESK.motes[2].links[0],
                 DESK.motes[3].links[1], DESK.motes[4].links[0], DESK.motes[5].links[0]],
                (0, 1, 1, 0, 0, 0),
                (0, 1, 2, 4, 5, 7),
            )
        ]
        view = NetworkView(DESK, env)
        slots = view.slots([0b10_000110])[:, 0]
        assert slots.tolist() == [0, 1, 1, 2, 0, 0]
        assert [(view.parents[m][s >> 1], float(view.qs[m][s])) for m, s in enumerate(slots)] == expected


class TestTopologyValidation:
    def test_parent_must_precede_child(self):
        with pytest.raises(ValueError, match="earlier mote"):
            NetworkTopology(
                motes=(
                    Mote(1, rate=1, links=(Link(2, 5.0),)),
                    Mote(2, rate=1, links=(Link(0, 5.0),)),
                ),
            )

    def test_duplicate_parent_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            NetworkTopology(
                motes=(
                    Mote(1, rate=1, links=(Link(0, 5.0),)),
                    Mote(2, rate=1, links=(Link(1, 5.0), Link(1, 4.0))),
                ),
            )

    def test_numbering_must_be_contiguous(self):
        with pytest.raises(ValueError, match="numbered"):
            NetworkTopology(
                motes=(Mote(2, rate=1, links=(Link(0, 5.0),)),),
            )

    def test_desk_link_order_is_documented_shape(self):
        assert DESK.link_order == ((1, 0), (2, 0), (3, 0), (4, 1), (4, 2), (5, 2), (5, 3), (6, 3))
        assert DESK.split_motes == (4, 5)


class TestLinkModel:
    BASE_SNR = 5.0

    def test_midpoint_is_half(self):
        # margin = 5 + 0 - 3 - 2 = 0 at the logistic midpoint
        assert link_delivery_prob(self.BASE_SNR, 0, interference=3.0) == pytest.approx(0.5, abs=1e-12)

    def test_monotone_in_power(self):
        low = link_delivery_prob(self.BASE_SNR, 0, interference=3.0)
        high = link_delivery_prob(self.BASE_SNR, 1, interference=3.0)
        assert high > low

    def test_monotone_in_interference(self):
        quiet = link_delivery_prob(self.BASE_SNR, 0, interference=1.0)
        noisy = link_delivery_prob(self.BASE_SNR, 0, interference=5.0)
        assert quiet > noisy

    def test_clamps(self):
        assert link_delivery_prob(self.BASE_SNR, 0, interference=1e9) == 0.005
        assert link_delivery_prob(self.BASE_SNR, 1, interference=-1e9) == 0.995


class TestAnalyticOracle:
    def test_perfect_links_lose_nothing(self):
        env = initial_environment(DESK)
        losses = true_expected_loss(NetworkView(DESK, env, delivery_override=1.0))
        assert np.all(losses[:16] == 0.0)

    def test_one_hop_closed_form(self):
        topo = one_hop_topology(rate=1)
        env = initial_environment(topo)
        for q in (0.25, 0.5, 0.9):
            got = true_expected_loss(NetworkView(topo, env, delivery_override=q))[0]
            assert got == pytest.approx(100.0 * (1.0 - q), rel=1e-12)

    def test_zero_traffic_is_zero_loss(self):
        topo = one_hop_topology(rate=1)
        env = Environment(interference=(2.0,), load=(0.01,))  # round(1*0.01) = 0 packets
        assert true_expected_loss(NetworkView(topo, env))[0] == 0.0

    def test_split_bit_picks_the_route(self):
        # Mote 2 reaches the gateway directly (first link) or through mote 1.
        topo = NetworkTopology(
            motes=(
                Mote(1, rate=3, links=(Link(0, 5.5),)),
                Mote(2, rate=4, links=(Link(0, 3.0), Link(1, 6.0))),
            ),
        )
        env = Environment(interference=(1.5, 2.0, 2.5), load=(1.0, 1.0))
        q1 = link_delivery_prob(topo.motes[0].links[0].base_snr, 1, 1.5)
        q20 = link_delivery_prob(topo.motes[1].links[0].base_snr, 0, 2.0)
        q21 = link_delivery_prob(topo.motes[1].links[1].base_snr, 0, 2.5)
        view = NetworkView(topo, env)
        direct, relayed = 0b1_01, 0b0_01
        assert [view.parents[1][s >> 1] for s in view.slots([direct, relayed])[1]] == [0, 1]
        losses = true_expected_loss(view)
        assert losses[direct] == pytest.approx(100.0 * (1.0 - (3 * q1 + 4 * q20) / 7), rel=1e-12)
        assert losses[relayed] == pytest.approx(100.0 * (1.0 - (3 * q1 + 4 * q21 * q1) / 7), rel=1e-12)

    def test_range_and_determinism(self):
        env = initial_environment(DESK)
        losses = true_expected_loss(NetworkView(DESK, env))
        assert losses.dtype == np.float64 and losses.shape == (256,)
        assert np.all((0.0 <= losses) & (losses <= 100.0))
        assert np.array_equal(losses, true_expected_loss(NetworkView(DESK, env)))

    def test_raising_all_powers_weakly_reduces_loss(self):
        losses = true_expected_loss(NetworkView(DESK, initial_environment(DESK)))
        max_powers = (1 << DESK.mote_count) - 1  # same split bits, every power bit set
        for option_id in range(DESK.option_count):
            assert losses[option_id | max_powers] <= losses[option_id] + 1e-12

    def test_every_option_matches_the_per_option_reference(self):
        for topo in (DESK, FULL):
            walked = [initial_environment(topo)]
            for step in range(4):
                walked.append(environment_step(walked[-1], EnvironmentWalk(), 4100 + step))
            silent = Environment(interference=walked[-1].interference, load=(0.01,) * topo.mote_count)
            for env in walked[1:] + [silent]:
                expected = [reference_loss(topo, env, i) for i in range(topo.option_count)]
                assert true_expected_loss(NetworkView(topo, env)).tolist() == expected
            for q in (0.0, 0.3, 1.0):
                expected = [reference_loss(topo, walked[-1], i, q) for i in range(topo.option_count)]
                assert true_expected_loss(NetworkView(topo, walked[-1], q)).tolist() == expected


class TestSimulation:
    def test_forced_delivery_extremes(self):
        env = initial_environment(DESK)
        seeds = derive_seeds(5, 20)
        assert np.all(simulate(NetworkView(DESK, env, delivery_override=1.0), 37, seeds) == 0.0)
        assert np.all(simulate(NetworkView(DESK, env, delivery_override=0.0), 37, seeds) == 1.0)

    def test_outcomes_are_packet_fractions(self):
        """Every outcome is lost/generated for an integer count of lost packets."""
        env = initial_environment(DESK)
        generated = sum(max(0, round(m.rate * env.load[m.mote_id - 1])) for m in DESK.motes)
        outcomes = simulate(NetworkView(DESK, env), 201, derive_seeds(3, 2000))
        lost = outcomes * generated
        assert np.all((0.0 <= outcomes) & (outcomes <= 1.0))
        np.testing.assert_allclose(lost, np.round(lost), atol=1e-9)

    def test_scalar_equals_batch(self):
        """A batch over many options and seeds equals the same (option, seed)
        pairs run as batches of one, from a model of that option alone."""
        for topo, ids in ((DESK, [90, 3, 201, 90, 255, 64]), (FULL, [90, 3, 4001, 90, 4095, 2048])):
            view = NetworkView(topo, initial_environment(topo))
            model = NetworkModel(view, ids)
            rows = np.array([4, 0, 2, 5])
            seeds = np.stack([derive_seeds(17 + int(row), 50) for row in rows])
            batch = model.simulate_batch(rows, seeds)
            for i, row in enumerate(rows):
                alone = NetworkModel(view, [ids[row]])
                scalar = [alone.simulate_batch(np.array([0]), seeds[i:i + 1, j:j + 1])[0, 0] for j in range(50)]
                assert batch[i].tolist() == scalar, (topo.option_count, ids[row])

    def test_deterministic_per_seed(self):
        env = initial_environment(DESK)
        seeds = np.array([42], dtype=np.uint64)
        first = simulate(NetworkView(DESK, env), 123, seeds)
        assert np.array_equal(first, simulate(NetworkView(DESK, env), 123, seeds))

    def test_monte_carlo_matches_oracle(self):
        rng = np.random.default_rng(59)
        env = initial_environment(DESK)
        walk = EnvironmentWalk()
        for step in range(3):
            env = environment_step(env, walk, 7000 + step)
        view = NetworkView(DESK, env)
        for oid in rng.integers(0, 256, size=3):
            mc = 100.0 * float(simulate(view, int(oid), derive_seeds(int(oid), 50_000)).mean())
            truth = true_expected_loss(view)[oid]
            assert abs(mc - truth) < 0.4  # ~5 sigma at this sample size

    def test_one_hop_lost_counts_are_binomial(self):
        n, runs = 6, 200_000
        topo = one_hop_topology(rate=n)
        env = initial_environment(topo)
        for q in (0.3, 0.85):
            lost = np.rint(simulate(NetworkView(topo, env, delivery_override=q), 0, derive_seeds(11, runs)) * n)
            lost = lost.astype(np.int64)
            assert_binomial_histogram(lost, n, 1.0 - q)

    def test_two_hops_compose_to_binomial_of_q_squared(self):
        # Mote 2 generates every packet and relays through mote 1, which
        # generates none: what mote 1 passes on depends only on what it got.
        n, runs, q = 5, 200_000, 0.7
        topo = NetworkTopology(
            motes=(
                Mote(1, rate=0, links=(Link(0, 5.0),)),
                Mote(2, rate=n, links=(Link(1, 5.0),)),
            ),
        )
        env = initial_environment(topo)
        outcomes = simulate(NetworkView(topo, env, delivery_override=q), 0, derive_seeds(12, runs))
        delivered = n - np.rint(outcomes * n).astype(np.int64)
        assert_binomial_histogram(delivered, n, q * q)

    def test_relayed_packets_count_at_every_hop(self):
        # Mote 3 relays through mote 2, which relays through mote 1: mote 1
        # holds the packets of all three, so its table must reach k = 3.
        topo = NetworkTopology(
            motes=(
                Mote(1, rate=1, links=(Link(0, 5.0),)),
                Mote(2, rate=1, links=(Link(1, 5.0),)),
                Mote(3, rate=1, links=(Link(2, 5.0),)),
            ),
        )
        env = initial_environment(topo)
        assert np.all(simulate(NetworkView(topo, env, delivery_override=1.0), 0, derive_seeds(8, 50)) == 0.0)
        view = NetworkView(topo, env, delivery_override=0.8)
        mc = 100.0 * float(simulate(view, 0, derive_seeds(9, 50_000)).mean())
        assert abs(mc - true_expected_loss(view)[0]) < 0.6  # ~5 sigma at this sample size

    def test_one_draw_per_mote_and_run(self, monkeypatch):
        drawn = []

        def counting(seeds, indices):
            draws = stream_uint64(seeds, indices)
            drawn.append(draws.size)
            return draws

        monkeypatch.setattr(netsim, "stream_uint64", counting)
        env = initial_environment(DESK)
        model = NetworkModel(NetworkView(DESK, env), [201, 7, 64])
        model.simulate_batch(np.array([0, 2]), np.stack([derive_seeds(4, 1000), derive_seeds(5, 1000)]))
        assert sum(drawn) == 2 * 1000 * DESK.mote_count

    def test_rejects_counts_the_table_key_cannot_hold(self):
        topo = one_hop_topology(rate=MAX_MOTE_PACKETS + 1)
        with pytest.raises(ValueError, match="packets"):
            NetworkModel(NetworkView(topo, initial_environment(topo)), [0])
        topo = one_hop_topology(rate=MAX_MOTE_PACKETS)
        assert np.all(simulate(NetworkView(topo, initial_environment(topo), delivery_override=0.0), 0, derive_seeds(6, 20)) == 1.0)
        with pytest.raises(ValueError, match="probability"):
            NetworkView(topo, initial_environment(topo), delivery_override=1.5)

    def test_zero_traffic_runs_return_zero(self):
        topo = one_hop_topology(rate=1)
        env = Environment(interference=(2.0,), load=(0.01,))
        assert np.array_equal(simulate(NetworkView(topo, env), 0, derive_seeds(0, 10)), np.zeros(10))


class TestNetworkView:
    def test_one_model_of_all_options_equals_one_model_per_option(self):
        # The model of every option builds each slot's table up to the most
        # packets any option's mote holds in it; a model of one option, only
        # up to what that option's motes hold. Fewer runs on full keep the
        # all-options batch small.
        for topo, runs in ((DESK, 400), (FULL, 50)):
            env = initial_environment(topo)
            for step in range(5):
                env = environment_step(env, EnvironmentWalk(), 9100 + step)
            view = NetworkView(topo, env)
            ids = np.arange(topo.option_count)
            seeds = np.broadcast_to(derive_seeds(31, runs), (topo.option_count, runs))
            together = NetworkModel(view, ids).simulate_batch(ids, seeds)
            for oid in ids.tolist():
                assert np.array_equal(together[oid], simulate(view, oid, seeds[0])), (topo.option_count, oid)

    def test_binomial_keys_match_the_scalar_rule(self):
        qs = [0.0, 0.005, 0.37, 0.5, 0.8123, 0.995, 1.0]
        keys = netsim.binomial_keys(qs, 30)
        for q, table in zip(qs, keys):
            assert table.tolist() == reference_keys(q, 30), q
        assert netsim.binomial_keys(qs, 0).shape == (len(qs), 0)

    def test_binomial_keys_of_a_smaller_cap_are_a_prefix(self):
        qs = [0.0, 0.37, 0.995, 1.0]
        small, large = netsim.binomial_keys(qs, 9), netsim.binomial_keys(qs, 14)
        assert small.shape == (4, 9 * 10 // 2) and large.shape == (4, 14 * 15 // 2)
        assert np.array_equal(small, large[:, : small.shape[1]])
        rows = np.repeat(np.arange(15, dtype=np.uint64), np.arange(15)) << np.uint64(56)
        assert np.array_equal(large[0], rows + (np.uint64(1) << np.uint64(56)))  # q = 0: F = 1
        assert np.array_equal(large[3], rows)  # q = 1: F = 0 below k

    def test_warmup_cycle_peak_allocation_is_bounded(self):
        # One model serves the whole warm-up cycle, and the verifier bounds
        # the runs it simulates at once (smc.RUN_BUDGET): the 256 desk
        # options at epsilon 0.01 peak near 1.6 MB, where verifying them all
        # in one lockstep group would allocate about 45 MB.
        engine = AdaptationEngine(DESK, EngineConfig(warmup_cycles=1, total_cycles=1), base_seed=3)
        tracemalloc.start()
        try:
            record = engine.run_cycle()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert record.reduced_size == DESK.option_count
        assert peak < 4_000_000


class TestPinnedOutputs:
    """Exact outputs on desk at one environment, one option per split choice.

    These pin the simulator's draws - one uniform per (run, mote) at stream
    index mote_id, turned into that mote's delivered count by its
    Binomial(k, q) table - and the oracle's float arithmetic: a change to
    the stream index, the tables, the route or the link probability moves
    these numbers.
    """

    ENV = Environment(
        interference=(1.9, 1.8, 1.1, 1.8, 1.9, 1.7, 2.0, 1.1),
        load=(1.0, 1.0, 0.9, 1.0, 1.1, 1.1),
    )
    GENERATED = 21
    # option id: (lost packets per seed of derive_seeds(2024, 8), oracle loss)
    EXPECTED = {
        45: ([2, 8, 6, 4, 5, 8, 4, 2], 20.109264008786788),
        83: ([4, 5, 4, 3, 4, 5, 1, 3], 17.20773609076225),
        177: ([1, 6, 6, 4, 5, 7, 5, 2], 20.03304831444146),
        222: ([3, 3, 2, 2, 1, 5, 1, 2], 13.565335787257403),
    }

    def test_options_cover_every_split_choice(self):
        splits = {((oid >> 6) & 1, (oid >> 7) & 1) for oid in self.EXPECTED}
        assert splits == {(0, 0), (0, 1), (1, 0), (1, 1)}

    def test_simulated_lost_packets(self):
        seeds = derive_seeds(2024, 8)
        for oid, (lost, _) in self.EXPECTED.items():
            outcomes = simulate(NetworkView(DESK, self.ENV), oid, seeds)
            assert outcomes.tolist() == [k / self.GENERATED for k in lost], oid

    def test_oracle_values(self):
        losses = true_expected_loss(NetworkView(DESK, self.ENV))
        for oid, (_, loss) in self.EXPECTED.items():
            assert losses[oid] == loss, oid


class TestEnvironment:
    def test_initial_shape(self):
        env = initial_environment(DESK)
        assert len(env.interference) == DESK.link_count
        assert len(env.load) == DESK.mote_count

    def test_zero_width_walk_keeps_values(self):
        env = initial_environment(DESK)
        still = environment_step(env, EnvironmentWalk(interference_step=0.0, load_step=0.0), seed=5)
        assert still.interference == env.interference
        assert still.load == env.load

    def test_walk_rejects_invalid_values(self):
        for overrides in (
            dict(interference_min=5.0, interference_max=1.0),
            dict(load_min=2.5),
            dict(load_step=-0.1),
            dict(interference_step=-1.0),
            dict(load_max=math.nan),
            dict(interference_max=math.inf),
            dict(load_min=0.05, load_max=0.1),  # cycle 1 runs at INITIAL_LOAD 1.0
            dict(load_min=1.5),
            dict(interference_min=2.5),
            dict(interference_max=1.0),
        ):
            with pytest.raises(ValueError):
                EnvironmentWalk(**overrides)
        assert EnvironmentWalk(load_min=1.0, load_max=1.0, load_step=0.0).load_min == 1.0

    def test_long_walk_stays_clamped(self):
        walk = EnvironmentWalk()
        env = initial_environment(DESK)
        for step in range(10_000):
            env = environment_step(env, walk, step)
        assert all(walk.interference_min <= v <= walk.interference_max for v in env.interference)
        assert all(walk.load_min <= v <= walk.load_max for v in env.load)

    def test_trajectory_is_seed_deterministic(self):
        walk = EnvironmentWalk()
        a = b = initial_environment(DESK)
        for step in range(50):
            a = environment_step(a, walk, 900 + step)
            b = environment_step(b, walk, 900 + step)
        assert a == b
        c = environment_step(initial_environment(DESK), walk, 1)
        d = environment_step(initial_environment(DESK), walk, 2)
        assert c != d


class TestFeatures:
    def test_dimension_is_constant_and_documented(self):
        env = initial_environment(DESK)
        assert features(DESK, env).shape == (256, feature_dim(DESK))
        assert features(DESK, env).dtype == np.float64
        assert feature_dim(DESK) == 22  # 6 powers + 2 splits + 8 interference + 6 loads
        assert feature_dim(FULL) == 33

    def test_distinct_options_differ(self):
        env = initial_environment(DESK)
        design = features(DESK, env)
        assert not np.array_equal(design[10], design[11])

    def test_interference_is_local_coordinate(self):
        env = initial_environment(DESK)
        bumped_interference = list(env.interference)
        bumped_interference[3] += 0.5
        bumped = Environment(interference=tuple(bumped_interference), load=env.load)
        rows, columns = np.nonzero(features(DESK, env) != features(DESK, bumped))
        settings_width = DESK.mote_count + len(DESK.split_motes)
        assert rows.tolist() == list(range(256))
        assert set(columns.tolist()) == {settings_width + 3}

    def test_row_i_is_option_i(self):
        walk = EnvironmentWalk()
        for topo in (DESK, FULL):
            env = environment_step(initial_environment(topo), walk, 12)
            design = features(topo, env)
            assert design.shape == (topo.option_count, feature_dim(topo))
            width = topo.mote_count + len(topo.split_motes)
            for i in range(topo.option_count):
                settings = tuple((i >> bit) & 1 for bit in range(width))
                assert design[i].tolist() == list(settings + env.interference + env.load)

    def test_setting_columns_agree_with_the_simulator_slots(self):
        # The regressor's power and split inputs describe the routing the
        # simulator and the oracle run, for every option.
        for topo in (DESK, FULL):
            env = initial_environment(topo)
            slots = NetworkView(topo, env).slots(np.arange(topo.option_count))
            design = features(topo, env)
            powers = design[:, : topo.mote_count].T
            splits = design[:, topo.mote_count : topo.mote_count + len(topo.split_motes)].T
            np.testing.assert_array_equal(powers, slots & 1)
            np.testing.assert_array_equal(splits == 1, slots[np.array(topo.split_motes) - 1] < 2)
            assert set(np.unique(splits).tolist()) == {0.0, 1.0}
