"""Network simulator: enumeration, link model, oracle consistency, environment."""

import math
import re
import tracemalloc

import numpy as np
import pytest

from adaptlab import netsim
from adaptlab.engine import LOSS_DOMAIN, AdaptationEngine, EngineConfig
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
    features,
    full_topology,
    initial_environment,
    link_delivery_prob,
    true_expected_loss,
)
from adaptlab.seeds import stream_uint64
from helpers import seed_stream

DESK = desk_topology()
FULL = full_topology()


def simulate(view, option_id, seeds):
    """Lost-packet counts of one option over a 1-D array of seeds."""
    return NetworkModel(view, [option_id]).simulate_batch(np.array([0]), np.asarray(seeds)[None, :])[0]


def one_hop_topology(rate=1):
    return NetworkTopology(
        motes=(Mote(1, rate=rate, links=(Link(0, 5.0),)),),
    )


def pinned(view, q):
    """The view with the delivery probability of every slot set to q."""
    view.qs = [(q,) * len(slot_qs) for slot_qs in view.qs]
    return view


def reference_loss(topology, env, option_id, pinned_q=None):
    """The oracle for one option as a plain loop over the topology's links:
    bit i of the id is mote i+1's power, then one bit per two-parent mote
    (1 picks its first-listed link); reach(mote) = q * reach(parent), parents
    first, and the delivered packets are added mote by mote; returns the
    fraction lost."""
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
        q = pinned_q
        if q is None:
            q = link_delivery_prob(link.base_snr, power, env.interference[link_index + pick])
        reach.append(q * reach[link.parent])
        link_index += len(mote.links)
    delivered = 0.0
    for g, r in zip(generated, reach[1:]):
        delivered = delivered + g * r
    return 1.0 - delivered / total


def reference_keys(q, cap):
    """One Binomial table as a plain loop: Pascal's rule on Python floats,
    for k in 0..cap the keys (k << 56) + floor(F_k(j) * 2^56) for j in
    0..k-1, then row k's end key (k + 1) << 56."""
    keys, cdf = [1 << 56], []
    for k in range(1, cap + 1):
        cdf = [(1.0 - q) * a + q * b for a, b in zip(cdf + [1.0], [0.0] + cdf)]
        keys += [(k << 56) + math.floor(f * 2.0**56) for f in cdf] + [(k + 1) << 56]
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

    def test_rejects_ids_of_a_non_integer_type(self):
        # a cast would simulate 1.7 as option 1 and True as option 1
        view = NetworkView(DESK, initial_environment(DESK))
        for ids in ([1.7, 2.2], [True, False], np.array([1.0, 2.0]), ["1"]):
            with pytest.raises(ValueError, match=re.escape("option ids must lie in [0, 256) and have an integer type")):
                NetworkModel(view, ids)
        seeds = np.stack([seed_stream(4, 100), seed_stream(5, 100)])
        lost = NetworkModel(view, [1, 2]).simulate_batch(np.array([0, 1]), seeds)
        for ids in (np.array([1, 2], dtype=np.uint8), np.array([1, 2], dtype=np.uint64)):
            assert np.array_equal(NetworkModel(view, ids).simulate_batch(np.array([0, 1]), seeds), lost)
        NetworkModel(view, [])  # no ids, no type to check

    def test_rejects_out_of_range_id(self):
        view = NetworkView(DESK, initial_environment(DESK))
        message = re.escape("option ids must lie in [0, 256)")
        with pytest.raises(ValueError, match=message):
            NetworkModel(view, [0, 256])
        with pytest.raises(ValueError, match=message):
            NetworkModel(view, [-1])
        with pytest.raises(ValueError, match=message):
            NetworkModel(view, [3, 256])

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
        slots = DESK.slot_table[:, 0b10_000110]
        assert slots.tolist() == [0, 1, 1, 2, 0, 0]
        assert [(DESK.parents[m][s >> 1], float(view.qs[m][s])) for m, s in enumerate(slots)] == expected


def formula_bits(topology, ids):
    """The bits of option ids decoded directly, row b holding bit b."""
    return (np.asarray(ids) >> np.arange(topology.mote_count + len(topology.split_motes))[:, None]) & 1


def formula_slots(topology, ids):
    """Each mote's slot 2 * link + power, decoded directly from the bits."""
    bits = formula_bits(topology, ids)
    slots = bits[: topology.mote_count].copy()
    slots[[mote_id - 1 for mote_id in topology.split_motes]] += 2 - 2 * bits[topology.mote_count :]
    return slots


def most_held(topology, generated):
    """The most packets each mote holds in one run over every option id:
    each option's traffic propagated children first along its route."""
    ids = np.arange(topology.option_count)
    slots = formula_slots(topology, ids)
    held = np.zeros((topology.mote_count + 1, topology.option_count), dtype=np.int64)
    for mote in reversed(topology.motes):
        held[mote.mote_id] += generated[mote.mote_id - 1]
        parents = np.array([link.parent for link in mote.links])[slots[mote.mote_id - 1] >> 1]
        held[parents, ids] += held[mote.mote_id]
    return held[1:].max(axis=1).tolist()


class TestTopologyTables:
    def test_tables_equal_the_direct_decoding(self):
        for topo in (DESK, FULL):
            ids = np.arange(topo.option_count)
            assert np.array_equal(topo.option_table, formula_bits(topo, ids))
            assert np.array_equal(topo.slot_table, formula_slots(topo, ids))

    def test_tables_are_read_only_and_slots_are_fresh(self):
        for table in (DESK.option_table, DESK.slot_table):
            with pytest.raises(ValueError, match="read-only"):
                table[0, 1] = 7
        # the gather a model makes is its own array
        before = DESK.slot_table.copy()
        slots = DESK.slot_table[:, [1, 200, 255]]
        slots += 9
        assert np.array_equal(DESK.slot_table, before)
        assert np.array_equal(DESK.slot_table[:, [1, 200, 255]], formula_slots(DESK, [1, 200, 255]))

    def test_cached_properties_leave_equality_hash_and_repr_alone(self):
        topo = desk_topology()
        before = (hash(topo), repr(topo))
        names = ("link_order", "link_count", "split_motes", "parents", "option_count", "option_table", "slot_table")
        for name in names:
            assert getattr(topo, name) is getattr(topo, name), name  # computed once
        assert (hash(topo), repr(topo)) == before
        assert topo == DESK == desk_topology() and hash(topo) == hash(desk_topology())


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
        # nor may a mote list no parent or three
        for links in ((), (Link(0, 5.0), Link(1, 5.0), Link(2, 5.0))):
            with pytest.raises(ValueError, match=r"^mote 3 must have 1 or 2 parents$"):
                NetworkTopology(
                    motes=(
                        Mote(1, rate=1, links=(Link(0, 5.0),)),
                        Mote(2, rate=1, links=(Link(0, 5.0),)),
                        Mote(3, rate=1, links=links),
                    ),
                )

    def test_numbering_must_be_contiguous(self):
        with pytest.raises(ValueError, match="numbered"):
            NetworkTopology(
                motes=(Mote(2, rate=1, links=(Link(0, 5.0),)),),
            )
        # a correctly numbered mote's rate is checked too
        with pytest.raises(ValueError, match=r"^mote 1 rate must be nonnegative$"):
            NetworkTopology(
                motes=(Mote(1, rate=-1, links=(Link(0, 5.0),)),),
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
        losses = true_expected_loss(pinned(NetworkView(DESK, env), 1.0))
        assert np.all(losses[:16] == 0.0)

    def test_one_hop_closed_form(self):
        topo = one_hop_topology(rate=1)
        env = initial_environment(topo)
        for q in (0.25, 0.5, 0.9):
            got = LOSS_DOMAIN.width * true_expected_loss(pinned(NetworkView(topo, env), q))[0]
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
        assert [topo.parents[1][s >> 1] for s in topo.slot_table[1, [direct, relayed]]] == [0, 1]
        losses = LOSS_DOMAIN.width * true_expected_loss(view)
        assert losses[direct] == pytest.approx(100.0 * (1.0 - (3 * q1 + 4 * q20) / 7), rel=1e-12)
        assert losses[relayed] == pytest.approx(100.0 * (1.0 - (3 * q1 + 4 * q21 * q1) / 7), rel=1e-12)

    def test_range_and_determinism(self):
        env = initial_environment(DESK)
        losses = true_expected_loss(NetworkView(DESK, env))
        assert losses.dtype == np.float64 and losses.shape == (256,)
        assert np.all((0.0 <= losses) & (losses <= 1.0))
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
                assert true_expected_loss(pinned(NetworkView(topo, walked[-1]), q)).tolist() == expected


class TestSimulation:
    def test_forced_delivery_extremes(self):
        env = initial_environment(DESK)
        seeds = seed_stream(5, 20)
        assert np.all(simulate(pinned(NetworkView(DESK, env), 1.0), 37, seeds) == 0)
        assert np.all(simulate(pinned(NetworkView(DESK, env), 0.0), 37, seeds) == 21)

    def test_outcomes_are_packet_fractions(self):
        """Every outcome is an int64 count of lost packets out of the model's
        total, the packets generated: the lost-packet fraction is count / total."""
        env = initial_environment(DESK)
        generated = sum(max(0, round(m.rate * env.load[m.mote_id - 1])) for m in DESK.motes)
        model = NetworkModel(NetworkView(DESK, env), [201])
        lost = model.simulate_batch(np.array([0]), seed_stream(3, 2000)[None, :])[0]
        assert model.total == generated == 21
        assert lost.dtype == np.int64 and np.all((0 <= lost) & (lost <= generated))

    def test_scalar_equals_batch(self):
        """A batch over many options and seeds equals the same (option, seed)
        pairs run as batches of one, from a model of that option alone."""
        for topo, ids in ((DESK, [90, 3, 201, 90, 255, 64]), (FULL, [90, 3, 4001, 90, 4095, 2048])):
            view = NetworkView(topo, initial_environment(topo))
            model = NetworkModel(view, ids)
            rows = np.array([4, 0, 2, 5])
            seeds = np.stack([seed_stream(17 + int(row), 50) for row in rows])
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
            lost = simulate(view, int(oid), seed_stream(int(oid), 50_000))
            mc = 100.0 * float((lost / sum(view.generated)).mean())
            truth = LOSS_DOMAIN.width * true_expected_loss(view)[oid]
            assert abs(mc - truth) < 0.4  # ~5 sigma at this sample size

    def test_one_hop_lost_counts_are_binomial(self):
        n, runs = 6, 200_000
        topo = one_hop_topology(rate=n)
        env = initial_environment(topo)
        for q in (0.3, 0.85):
            lost = simulate(pinned(NetworkView(topo, env), q), 0, seed_stream(11, runs))
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
        delivered = n - simulate(pinned(NetworkView(topo, env), q), 0, seed_stream(12, runs))
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
        assert np.all(simulate(pinned(NetworkView(topo, env), 1.0), 0, seed_stream(8, 50)) == 0)
        view = pinned(NetworkView(topo, env), 0.8)
        mc = 100.0 * float((simulate(view, 0, seed_stream(9, 50_000)) / 3).mean())
        assert abs(mc - LOSS_DOMAIN.width * true_expected_loss(view)[0]) < 0.6  # ~5 sigma at this sample size

    def test_one_draw_per_mote_and_run(self, monkeypatch):
        drawn = []

        def counting(seeds, indices):
            draws = stream_uint64(seeds, indices)
            drawn.append(draws.size)
            return draws

        monkeypatch.setattr(netsim, "stream_uint64", counting)
        env = initial_environment(DESK)
        model = NetworkModel(NetworkView(DESK, env), [201, 7, 64])
        model.simulate_batch(np.array([0, 2]), np.stack([seed_stream(4, 1000), seed_stream(5, 1000)]))
        assert sum(drawn) == 2 * 1000 * DESK.mote_count

    def test_rejects_counts_the_table_key_cannot_hold(self):
        topo = one_hop_topology(rate=MAX_MOTE_PACKETS + 1)
        with pytest.raises(ValueError, match="packets"):
            NetworkModel(NetworkView(topo, initial_environment(topo)), [0])
        # Each child's own packets fit, but mote 1 relays both children's.
        half = MAX_MOTE_PACKETS // 2 + 1
        topo = NetworkTopology(
            motes=(
                Mote(1, rate=0, links=(Link(0, 5.0),)),
                Mote(2, rate=half, links=(Link(1, 5.0),)),
                Mote(3, rate=half, links=(Link(1, 5.0),)),
            ),
        )
        with pytest.raises(ValueError, match=f"mote 1 may hold {2 * half} packets"):
            NetworkModel(NetworkView(topo, initial_environment(topo)), [0])
        topo = one_hop_topology(rate=MAX_MOTE_PACKETS)
        lost = simulate(pinned(NetworkView(topo, initial_environment(topo)), 0.0), 0, seed_stream(6, 20))
        assert np.all(lost == MAX_MOTE_PACKETS)

    def test_zero_traffic_runs_return_zero(self):
        # No packets: every run counts 0 lost out of a total of 1, on the
        # searched path and on the guided one (an empty plan runs either way).
        topo = one_hop_topology(rate=1)
        env = Environment(interference=(2.0,), load=(0.01,))
        for runs in (10, netsim._GUIDED_RUNS):
            model = NetworkModel(NetworkView(topo, env), [0])
            lost = model.simulate_batch(np.array([0]), seed_stream(0, runs)[None, :])
            assert model.total == 1 and lost.dtype == np.int64 and np.array_equal(lost, np.zeros((1, runs)))
            assert ("_guides" in vars(model)) == (runs == netsim._GUIDED_RUNS)  # the guides are built on first use


class TestNetworkView:
    def test_one_model_of_all_options_equals_one_model_per_option(self):
        # Both build every slot's table up to the view's largest most. The
        # all-options batch reads its counts off the guides, each option's
        # alone searches its tables. Fewer runs on full keep the all-options
        # batch small.
        for topo, runs in ((DESK, 400), (FULL, 50)):
            env = initial_environment(topo)
            for step in range(5):
                env = environment_step(env, EnvironmentWalk(), 9100 + step)
            view = NetworkView(topo, env)
            ids = np.arange(topo.option_count)
            seeds = np.broadcast_to(seed_stream(31, runs), (topo.option_count, runs))
            together = NetworkModel(view, ids).simulate_batch(ids, seeds)
            for oid in ids.tolist():
                assert np.array_equal(together[oid], simulate(view, oid, seeds[0])), (topo.option_count, oid)

    def test_most_is_the_most_any_option_holds(self):
        # No two children of a mote share a child on either preset, so most
        # is exact there.
        walk = EnvironmentWalk(load_step=0.3)
        for topo in (DESK, FULL):
            env, seen = initial_environment(topo), set()
            for step in range(40):
                env = environment_step(env, walk, 5200 + step)
                view = NetworkView(topo, env)
                assert view.most == most_held(topo, view.generated), (topo.option_count, step)
                seen.add(tuple(view.most))
            assert len(seen) >= 20, topo.option_count  # the walk moved the loads

    def test_most_bounds_a_diamond_and_changes_no_count(self):
        # Mote 4 relays through mote 2 or mote 3, and both relay through
        # mote 1: most counts mote 4's packet at both, so mote 1's is 5 where
        # at most 4 packets reach it. Every row of the all-options model,
        # searched and guided, still equals its option simulated alone.
        topo = NetworkTopology(
            motes=(
                Mote(1, rate=1, links=(Link(0, 5.0),)),
                Mote(2, rate=1, links=(Link(1, 5.0),)),
                Mote(3, rate=1, links=(Link(1, 4.5),)),
                Mote(4, rate=1, links=(Link(2, 5.5), Link(3, 4.0))),
            ),
        )
        view = NetworkView(topo, initial_environment(topo))
        assert view.most == [5, 2, 2, 1] and most_held(topo, view.generated) == [4, 2, 2, 1]
        ids = np.arange(topo.option_count)
        guided = netsim._GUIDED_RUNS // topo.option_count
        for runs in (guided - 1, guided):
            model = NetworkModel(view, ids)
            seeds = np.stack([seed_stream(90 + oid, runs) for oid in ids.tolist()])
            together = model.simulate_batch(ids, seeds)
            assert ("_guides" in vars(model)) == (runs == guided) and together.any()
            for oid in ids.tolist():
                assert np.array_equal(together[oid], simulate(view, oid, seeds[oid])), (runs, oid)

    def test_models_of_one_view_build_equal_tables(self):
        for topo in (DESK, FULL):
            view = NetworkView(topo, environment_step(initial_environment(topo), EnvironmentWalk(), 4500))
            ids = ([45], [3, 200, 255], np.arange(topo.option_count))
            first, *others = (NetworkModel(view, option_ids) for option_ids in ids)
            for model in others:
                assert np.array_equal(model._keys, first._keys) and np.array_equal(model._guides, first._guides)

    def test_binomial_keys_match_the_scalar_rule(self):
        qs = [0.0, 0.005, 0.37, 0.5, 0.8123, 0.995, 1.0]
        keys = netsim.binomial_keys(qs, 30)
        for q, table in zip(qs, keys):
            assert table.tolist() == reference_keys(q, 30), q
        assert netsim.binomial_keys(qs, 0).tolist() == [[1 << 56]] * len(qs)

    def test_binomial_keys_of_a_smaller_cap_are_a_prefix(self):
        qs = [0.0, 0.37, 0.995, 1.0]
        small, large = netsim.binomial_keys(qs, 9), netsim.binomial_keys(qs, 14)
        assert small.shape == (4, 10 * 11 // 2) and large.shape == (4, 15 * 16 // 2)
        assert np.array_equal(small, large[:, : small.shape[1]])
        assert large[0].tolist() == [(k + 1) << 56 for k in range(15) for _ in range(k + 1)]  # q = 0: F = 1
        assert large[3].tolist() == [key for k in range(15) for key in [k << 56] * k + [(k + 1) << 56]]  # q = 1: F = 0 below k

    def test_count_lookup_inverts_each_row_at_its_boundaries(self):
        # The position a search for (k << 56) + u finds reads, through
        # netsim._COUNTS, #{j < k : floor(F_k(j) 2^56) <= u}: at u = 0, at
        # each threshold's fraction and one below it, and at 2^56 - 1.
        cap = 12
        for q in (0.0, 0.005, 0.37, 0.5, 0.995, 1.0):
            table, reference = netsim.binomial_keys([q], cap)[0], reference_keys(q, cap)
            for k in range(cap + 1):
                start = k * (k + 1) // 2
                thresholds = [key - (k << 56) for key in reference[start : start + k]]
                probes = {0, (1 << 56) - 1} | {t for t in thresholds if t < 1 << 56}
                probes |= {t - 1 for t in thresholds if 0 < t <= 1 << 56}
                for u in sorted(probes):
                    found = np.searchsorted(table, np.uint64((k << 56) + u), side="right")
                    assert netsim._COUNTS[found] == sum(t <= u for t in thresholds), (q, k, u)

    def test_guided_lookup_equals_the_search_at_every_bucket_edge_and_threshold(self):
        # delivered_counts reads a count off the table's guide where no
        # threshold lies strictly inside the bucket of key >> 46, and searches
        # where the guide holds _MISS; both must find what the search finds:
        # at each bucket's first and last u, at each threshold and one below
        # it, for every k.
        cap = 12
        qs = (0.0, 0.005, 0.37, 0.5, 0.8, 0.995, 1.0)  # q = 0.005: F_12(11) rounds to 1
        tables = netsim.binomial_keys(qs, cap)
        edges = {b << 46 for b in range(1024)} | {((b + 1) << 46) - 1 for b in range(1024)}
        paths = np.zeros(2, dtype=np.int64)  # lookups read off the guide, lookups searched
        missed_rows = []  # per q: rows of the 2-D grid below with a miss
        for q, table, guide in zip(qs, tables, netsim.binomial_guides(tables, cap)):
            for k in range(cap + 1):
                start = k * (k + 1) // 2
                thresholds = [int(key) - (k << 56) for key in table[start : start + k]]
                probes = edges | {t for t in thresholds if t < 1 << 56}
                probes |= {t - 1 for t in thresholds if 0 < t <= 1 << 56}
                keys = np.uint64(k << 56) + np.array(sorted(probes), dtype=np.uint64)
                searched = netsim._COUNTS[np.searchsorted(table, keys, side="right")]
                assert np.array_equal(netsim.delivered_counts(table, guide, keys), searched), (q, k)
                assert np.array_equal(netsim.delivered_counts(table, None, keys), searched), (q, k)
                paths += np.bincount(guide[(keys >> np.uint64(46)).astype(np.intp)] == netsim._MISS, minlength=2)
            # Rows x runs, as simulate_batch passes them: every k at every
            # bucket edge, in C order, transposed and strided. The searched
            # misses of every row must reach the counts returned.
            rows = np.arange(cap + 1, dtype=np.uint64)[:, None] << np.uint64(56)
            grid = rows + np.array(sorted(edges), dtype=np.uint64)
            missed_rows.append(int((guide[(grid >> np.uint64(46)).astype(np.intp)] == netsim._MISS).any(axis=1).sum()))
            for keys in (grid, grid.T, grid[:, ::3]):
                searched = netsim._COUNTS[np.searchsorted(table, keys, side="right")]
                assert np.array_equal(netsim.delivered_counts(table, guide, keys), searched), (q, keys.shape)
        assert paths.all()
        assert max(missed_rows) == cap  # every row but k = 0 holds misses for some q

    def test_five_options_read_guides_from_the_threshold_on(self):
        # A post-warm-up model of five options with real traffic: rows x runs
        # just below _GUIDED_RUNS searches, from it on reads the guides; either
        # way every row equals its option simulated alone (searched).
        env = initial_environment(DESK)
        for step in range(3):
            env = environment_step(env, EnvironmentWalk(), 4400 + step)
        view = NetworkView(DESK, env)
        ids = [45, 83, 177, 222, 255]
        below = netsim._GUIDED_RUNS // len(ids)
        for runs in (below, below + 1):
            model = NetworkModel(view, ids)
            seeds = np.stack([seed_stream(70 + i, runs) for i in range(len(ids))])
            together = model.simulate_batch(np.arange(len(ids)), seeds)
            assert ("_guides" in vars(model)) == (len(ids) * runs >= netsim._GUIDED_RUNS) == (runs > below)
            assert model.total > 0 and together.any()
            for row, oid in enumerate(ids):
                assert np.array_equal(together[row], simulate(view, oid, seeds[row])), (runs, oid)

    def test_zero_traffic_model_has_no_tables(self):
        topo = one_hop_topology(rate=1)
        model = NetworkModel(NetworkView(topo, Environment(interference=(2.0,), load=(0.01,))), [0])
        assert model._plan == [] and model._guides.shape == (0, 1024)

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
    # option id: (lost packets per seed of seed_stream(2024, 8), oracle loss)
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
        seeds = seed_stream(2024, 8)
        for oid, (lost, _) in self.EXPECTED.items():
            model = NetworkModel(NetworkView(DESK, self.ENV), [oid])
            assert model.total == self.GENERATED
            assert model.simulate_batch(np.array([0]), seeds[None, :])[0].tolist() == lost, oid

    def test_oracle_values(self):
        losses = LOSS_DOMAIN.width * true_expected_loss(NetworkView(DESK, self.ENV))
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
            dict(load_step=-0.1),
            dict(interference_step=-1.0),
            dict(load_step=math.nan),
            dict(interference_step=math.inf),
        ):
            with pytest.raises(ValueError, match="must be finite and nonnegative"):
                EnvironmentWalk(**overrides)

    def test_ranges_hold_the_initial_environment(self):
        # cycle 1 runs at the initial environment, so the walk's clamps must hold it
        assert netsim.INTERFERENCE_MIN <= netsim.INITIAL_INTERFERENCE <= netsim.INTERFERENCE_MAX
        assert netsim.LOAD_MIN <= netsim.INITIAL_LOAD <= netsim.LOAD_MAX

    def test_long_walk_stays_clamped(self):
        walk = EnvironmentWalk()
        env = initial_environment(DESK)
        for step in range(10_000):
            env = environment_step(env, walk, step)
        assert all(netsim.INTERFERENCE_MIN <= v <= netsim.INTERFERENCE_MAX for v in env.interference)
        assert all(netsim.LOAD_MIN <= v <= netsim.LOAD_MAX for v in env.load)

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
        assert features(DESK, env).shape == (256, 22)  # 6 powers + 2 splits + 8 interference + 6 loads
        assert features(DESK, env).dtype == np.float64
        assert features(FULL, initial_environment(FULL)).shape == (4096, 33)
        # the engine's VC dimension is the feature width plus one
        assert AdaptationEngine(DESK, EngineConfig()).vc_dim == 23
        assert AdaptationEngine(FULL, EngineConfig()).vc_dim == 34

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
            width = topo.mote_count + len(topo.split_motes)
            assert design.shape == (topo.option_count, width + topo.link_count + topo.mote_count)
            for i in range(topo.option_count):
                settings = tuple((i >> bit) & 1 for bit in range(width))
                assert design[i].tolist() == list(settings + env.interference + env.load)

    def test_setting_columns_agree_with_the_simulator_slots(self):
        # The regressor's power and split inputs describe the routing the
        # simulator and the oracle run, for every option.
        for topo in (DESK, FULL):
            env = initial_environment(topo)
            slots = topo.slot_table
            design = features(topo, env)
            powers = design[:, : topo.mote_count].T
            splits = design[:, topo.mote_count : topo.mote_count + len(topo.split_motes)].T
            np.testing.assert_array_equal(powers, slots & 1)
            np.testing.assert_array_equal(splits == 1, slots[np.array(topo.split_motes) - 1] < 2)
            assert set(np.unique(splits).tolist()) == {0.0, 1.0}
