"""Network simulator: enumeration, link model, oracle consistency, environment."""

import math

import numpy as np
import pytest

from adaptlab import netsim
from adaptlab.netsim import (
    MAX_MOTE_PACKETS,
    Environment,
    EnvironmentWalk,
    Link,
    LinkParams,
    Mote,
    NetworkModel,
    NetworkTopology,
    desk_topology,
    enumerate_options,
    environment_step,
    feature_dim,
    features,
    full_topology,
    initial_environment,
    link_delivery_prob,
    option_from_id,
    true_expected_loss,
)
from adaptlab.seeds import derive_seeds, stream_uint64

DESK = desk_topology()
FULL = full_topology()


def one_hop_topology(rate=1):
    return NetworkTopology(
        name="one-hop",
        motes=(Mote(1, rate=rate, links=(Link(0, LinkParams(base_snr=5.0)),)),),
    )


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
        assert len(enumerate_options(DESK)) == 256

    def test_ids_are_sequential(self):
        options = enumerate_options(DESK)
        assert [o.option_id for o in options] == list(range(256))

    def test_encoding_is_injective(self):
        for topo in (DESK, FULL):
            seen = {(o.power_levels, o.split_choices) for o in enumerate_options(topo)}
            assert len(seen) == topo.option_count

    def test_rejects_out_of_range_id(self):
        with pytest.raises(ValueError):
            option_from_id(DESK, 256)
        with pytest.raises(ValueError):
            option_from_id(DESK, -1)

    def test_split_fractions_span_unit_interval(self):
        env = initial_environment(DESK)
        columns = slice(DESK.mote_count, DESK.mote_count + len(DESK.split_motes))
        fractions = {tuple(row) for row in features(DESK, env)[:, columns]}
        assert fractions == {(0.0, 0.0), (0.0, 1.0), (1.0, 0.0), (1.0, 1.0)}

    def test_id_bits_are_the_settings(self):
        option = option_from_id(DESK, 0b10_000110)
        assert option.power_levels == (0, 1, 1, 0, 0, 0)
        assert option.split_choices == (0, 1)


class TestTopologyValidation:
    def test_parent_must_precede_child(self):
        with pytest.raises(ValueError, match="earlier mote"):
            NetworkTopology(
                name="bad",
                motes=(
                    Mote(1, rate=1, links=(Link(2, LinkParams(5.0)),)),
                    Mote(2, rate=1, links=(Link(0, LinkParams(5.0)),)),
                ),
            )

    def test_duplicate_parent_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            NetworkTopology(
                name="bad",
                motes=(
                    Mote(1, rate=1, links=(Link(0, LinkParams(5.0)),)),
                    Mote(2, rate=1, links=(Link(1, LinkParams(5.0)), Link(1, LinkParams(4.0)))),
                ),
            )

    def test_numbering_must_be_contiguous(self):
        with pytest.raises(ValueError, match="numbered"):
            NetworkTopology(
                name="bad",
                motes=(Mote(2, rate=1, links=(Link(0, LinkParams(5.0)),)),),
            )

    def test_desk_link_order_is_documented_shape(self):
        assert DESK.link_order == ((1, 0), (2, 0), (3, 0), (4, 1), (4, 2), (5, 2), (5, 3), (6, 3))
        assert DESK.split_motes == (4, 5)


class TestLinkModel:
    PARAMS = LinkParams(base_snr=5.0, power_gain=2.0, slope=0.9, threshold=2.0)

    def test_midpoint_is_half(self):
        # margin = 5 + 0 - 3 - 2 = 0 at the logistic midpoint
        assert link_delivery_prob(self.PARAMS, 0, interference=3.0) == pytest.approx(0.5, abs=1e-12)

    def test_monotone_in_power(self):
        low = link_delivery_prob(self.PARAMS, 0, interference=3.0)
        high = link_delivery_prob(self.PARAMS, 1, interference=3.0)
        assert high > low

    def test_monotone_in_interference(self):
        quiet = link_delivery_prob(self.PARAMS, 0, interference=1.0)
        noisy = link_delivery_prob(self.PARAMS, 0, interference=5.0)
        assert quiet > noisy

    def test_clamps(self):
        assert link_delivery_prob(self.PARAMS, 0, interference=1e9) == 0.005
        assert link_delivery_prob(self.PARAMS, 1, interference=-1e9) == 0.995


class TestAnalyticOracle:
    def test_perfect_links_lose_nothing(self):
        env = initial_environment(DESK)
        for option in enumerate_options(DESK)[:16]:
            assert true_expected_loss(DESK, option, env, delivery_override=1.0) == 0.0

    def test_one_hop_closed_form(self):
        topo = one_hop_topology(rate=1)
        env = initial_environment(topo)
        option = option_from_id(topo, 0)
        for q in (0.25, 0.5, 0.9):
            got = true_expected_loss(topo, option, env, delivery_override=q)
            assert got == pytest.approx(100.0 * (1.0 - q), rel=1e-12)

    def test_zero_traffic_is_zero_loss(self):
        topo = one_hop_topology(rate=1)
        env = Environment(interference=(2.0,), load=(0.01,), cycle=0)  # round(1*0.01) = 0 packets
        assert true_expected_loss(topo, option_from_id(topo, 0), env) == 0.0

    def test_split_bit_picks_the_route(self):
        # Mote 2 reaches the gateway directly (first link) or through mote 1.
        topo = NetworkTopology(
            name="two-route",
            motes=(
                Mote(1, rate=3, links=(Link(0, LinkParams(base_snr=5.5)),)),
                Mote(2, rate=4, links=(Link(0, LinkParams(base_snr=3.0)), Link(1, LinkParams(base_snr=6.0)))),
            ),
        )
        env = Environment(interference=(1.5, 2.0, 2.5), load=(1.0, 1.0), cycle=0)
        q1 = link_delivery_prob(topo.motes[0].links[0].params, 1, 1.5)
        q20 = link_delivery_prob(topo.motes[1].links[0].params, 0, 2.0)
        q21 = link_delivery_prob(topo.motes[1].links[1].params, 0, 2.5)
        direct, relayed = option_from_id(topo, 0b1_01), option_from_id(topo, 0b0_01)
        assert (direct.split_choices, relayed.split_choices) == ((1,), (0,))
        assert true_expected_loss(topo, direct, env) == pytest.approx(
            100.0 * (1.0 - (3 * q1 + 4 * q20) / 7), rel=1e-12
        )
        assert true_expected_loss(topo, relayed, env) == pytest.approx(
            100.0 * (1.0 - (3 * q1 + 4 * q21 * q1) / 7), rel=1e-12
        )

    def test_range_and_determinism(self):
        env = initial_environment(DESK)
        losses = [true_expected_loss(DESK, o, env) for o in enumerate_options(DESK)]
        assert all(0.0 <= x <= 100.0 for x in losses)
        assert losses == [true_expected_loss(DESK, o, env) for o in enumerate_options(DESK)]

    def test_raising_all_powers_weakly_reduces_loss(self):
        env = initial_environment(DESK)
        max_powers = (1,) * DESK.mote_count
        options = enumerate_options(DESK)
        boosted_by_split = {o.split_choices: o for o in options if o.power_levels == max_powers}
        for option in options:
            boosted = boosted_by_split[option.split_choices]
            assert true_expected_loss(DESK, boosted, env) <= true_expected_loss(DESK, option, env) + 1e-12


class TestSimulation:
    def test_forced_delivery_extremes(self):
        env = initial_environment(DESK)
        option = option_from_id(DESK, 37)
        seeds = derive_seeds(5, 20)
        assert np.all(NetworkModel(DESK, option, env, delivery_override=1.0).simulate_batch(seeds) == 0.0)
        assert np.all(NetworkModel(DESK, option, env, delivery_override=0.0).simulate_batch(seeds) == 1.0)

    def test_outcomes_are_packet_fractions(self):
        """Every outcome is lost/generated for an integer count of lost packets."""
        env = initial_environment(DESK)
        model = NetworkModel(DESK, option_from_id(DESK, 201), env)
        generated = sum(max(0, round(m.rate * env.load[m.mote_id - 1])) for m in DESK.motes)
        outcomes = model.simulate_batch(derive_seeds(3, 2000))
        lost = outcomes * generated
        assert np.all((0.0 <= outcomes) & (outcomes <= 1.0))
        np.testing.assert_allclose(lost, np.round(lost), atol=1e-9)

    def test_scalar_equals_batch(self):
        """A batch equals the same seeds run as batches of one."""
        env = initial_environment(DESK)
        model = NetworkModel(DESK, option_from_id(DESK, 90), env)
        seeds = derive_seeds(17, 50)
        batch = model.simulate_batch(seeds)
        scalar = np.concatenate([model.simulate_batch(seeds[i:i + 1]) for i in range(len(seeds))])
        assert np.array_equal(batch, scalar)

    def test_deterministic_per_seed(self):
        env = initial_environment(DESK)
        option = option_from_id(DESK, 123)
        seeds = np.array([42], dtype=np.uint64)
        first = NetworkModel(DESK, option, env).simulate_batch(seeds)
        assert np.array_equal(first, NetworkModel(DESK, option, env).simulate_batch(seeds))

    def test_monte_carlo_matches_oracle(self):
        rng = np.random.default_rng(59)
        env = initial_environment(DESK)
        walk = EnvironmentWalk()
        for step in range(3):
            env = environment_step(env, walk, 7000 + step)
        for oid in rng.integers(0, 256, size=3):
            option = option_from_id(DESK, int(oid))
            model = NetworkModel(DESK, option, env)
            mc = 100.0 * float(model.simulate_batch(derive_seeds(int(oid), 50_000)).mean())
            truth = true_expected_loss(DESK, option, env)
            assert abs(mc - truth) < 0.4  # ~5 sigma at this sample size

    def test_one_hop_lost_counts_are_binomial(self):
        n, runs = 6, 200_000
        topo = one_hop_topology(rate=n)
        env = initial_environment(topo)
        for q in (0.3, 0.85):
            model = NetworkModel(topo, option_from_id(topo, 0), env, delivery_override=q)
            lost = np.rint(model.simulate_batch(derive_seeds(11, runs)) * n).astype(np.int64)
            assert_binomial_histogram(lost, n, 1.0 - q)

    def test_two_hops_compose_to_binomial_of_q_squared(self):
        # Mote 2 generates every packet and relays through mote 1, which
        # generates none: what mote 1 passes on depends only on what it got.
        n, runs, q = 5, 200_000, 0.7
        topo = NetworkTopology(
            name="chain",
            motes=(
                Mote(1, rate=0, links=(Link(0, LinkParams(base_snr=5.0)),)),
                Mote(2, rate=n, links=(Link(1, LinkParams(base_snr=5.0)),)),
            ),
        )
        env = initial_environment(topo)
        model = NetworkModel(topo, option_from_id(topo, 0), env, delivery_override=q)
        delivered = n - np.rint(model.simulate_batch(derive_seeds(12, runs)) * n).astype(np.int64)
        assert_binomial_histogram(delivered, n, q * q)

    def test_one_draw_per_mote_and_run(self, monkeypatch):
        drawn = []

        def counting(seeds, indices):
            draws = stream_uint64(seeds, indices)
            drawn.append(draws.size)
            return draws

        monkeypatch.setattr(netsim, "stream_uint64", counting)
        env = initial_environment(DESK)
        model = NetworkModel(DESK, option_from_id(DESK, 201), env)
        model.simulate_batch(derive_seeds(4, 1000))
        assert drawn == [1000 * DESK.mote_count]

    def test_rejects_counts_the_table_key_cannot_hold(self):
        topo = one_hop_topology(rate=MAX_MOTE_PACKETS + 1)
        with pytest.raises(ValueError, match="packets"):
            NetworkModel(topo, option_from_id(topo, 0), initial_environment(topo))
        topo = one_hop_topology(rate=MAX_MOTE_PACKETS)
        model = NetworkModel(topo, option_from_id(topo, 0), initial_environment(topo), delivery_override=0.0)
        assert np.all(model.simulate_batch(derive_seeds(6, 20)) == 1.0)
        with pytest.raises(ValueError, match="probability"):
            NetworkModel(topo, option_from_id(topo, 0), initial_environment(topo), delivery_override=1.5)

    def test_zero_traffic_runs_return_zero(self):
        topo = one_hop_topology(rate=1)
        env = Environment(interference=(2.0,), load=(0.01,), cycle=0)
        model = NetworkModel(topo, option_from_id(topo, 0), env)
        assert np.array_equal(model.simulate_batch(derive_seeds(0, 10)), np.zeros(10))


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
        cycle=0,
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
        splits = {option_from_id(DESK, oid).split_choices for oid in self.EXPECTED}
        assert splits == {(0, 0), (0, 1), (1, 0), (1, 1)}

    def test_simulated_lost_packets(self):
        seeds = derive_seeds(2024, 8)
        for oid, (lost, _) in self.EXPECTED.items():
            outcomes = NetworkModel(DESK, option_from_id(DESK, oid), self.ENV).simulate_batch(seeds)
            assert outcomes.tolist() == [k / self.GENERATED for k in lost], oid

    def test_oracle_values(self):
        for oid, (_, loss) in self.EXPECTED.items():
            assert true_expected_loss(DESK, option_from_id(DESK, oid), self.ENV) == loss, oid


class TestEnvironment:
    def test_initial_shape(self):
        env = initial_environment(DESK)
        assert len(env.interference) == DESK.link_count
        assert len(env.load) == DESK.mote_count
        assert env.cycle == 0

    def test_zero_width_walk_keeps_values(self):
        env = initial_environment(DESK)
        still = environment_step(env, EnvironmentWalk(interference_step=0.0, load_step=0.0), seed=5)
        assert still.interference == env.interference
        assert still.load == env.load
        assert still.cycle == env.cycle + 1

    def test_walk_rejects_invalid_values(self):
        for overrides in (
            dict(interference_min=5.0, interference_max=1.0),
            dict(load_min=2.5),
            dict(load_step=-0.1),
            dict(interference_step=-1.0),
            dict(load_max=math.nan),
            dict(interference_max=math.inf),
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
        assert env.cycle == 10_000

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
        bumped = Environment(interference=tuple(bumped_interference), load=env.load, cycle=0)
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
            for i in range(topo.option_count):
                option = option_from_id(topo, i)
                expected = option.power_levels + option.split_choices + env.interference + env.load
                assert design[i].tolist() == list(expected)
