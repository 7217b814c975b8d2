"""Multi-hop wireless sensor network simulator with an analytic loss oracle.

The managed system is a small IoT network: motes generate packets each
period and forward them hop by hop toward a single gateway (id 0) over
lossy links. Per-link delivery probability follows a logistic curve in an
SNR-like margin (base SNR + power gain - interference - threshold),
clamped away from 0 and 1 so links are never degenerate. The environment
(per-link interference, per-mote traffic load) drifts between adaptation
cycles as a bounded random walk.

An adaptation option makes one binary choice per mote - low or high
transmission power - and one per mote with two parents - which of its two
links carries all of its generated and relayed traffic. So every mote
forwards over exactly one link. Bit i of an option id is the i-th of these
choices, so option ids are stable and bijective. ``option_bits`` is the one
decoder of this layout; the regressor's ``features`` and the view's
``slots`` are both built from it.

Both evaluations start from a ``NetworkView``, the network at one
environment, built once per adaptation cycle. Its ``slots`` give each
mote's link and power under every option as ``2 * link + power``:

- ``true_expected_loss``: exact expected packet-loss percentage of every
  option, by propagating expected traffic through the DAG (no sampling).
  Used as the ground-truth oracle when measuring decision error.
- ``NetworkModel``: a list of options, one stochastic period per (option,
  seed). A mote holding k packets delivers Binomial(k, q) of them over its
  link, drawn by inverse CDF from one uniform per (seed, mote), children
  before parents, on inverse-CDF tables the model builds for all its slots
  in one call (``binomial_keys``). Each draw is addressed by (seed, mote
  id), so a batch of runs over many options is bit-identical to the same
  runs executed one by one (as batches of one) - which is what makes SMC
  estimates over this model reproducible.

Packet counts per mote are ``round(rate * load)`` - deterministic given
the environment - and each mote's route is fixed by the option, so the
analytic oracle is exact, not an approximation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .seeds import hash01, mix64, stream_uint64

# Delivery probabilities are kept inside [Q_FLOOR, Q_CEIL] so no link is
# ever a guaranteed success or a guaranteed drop.
Q_FLOOR = 0.005
Q_CEIL = 0.995
# Every link's logistic delivery curve: the SNR high power adds, the curve's
# slope, and the margin threshold; links differ only in their base SNR.
POWER_GAIN = 2.0
SLOPE = 0.9
THRESHOLD = 2.0


@dataclass(frozen=True)
class Link:
    parent: int
    base_snr: float


@dataclass(frozen=True)
class Mote:
    """One traffic-generating node; links point toward the gateway."""

    mote_id: int
    rate: int
    links: tuple[Link, ...]


@dataclass(frozen=True)
class NetworkTopology:
    """DAG of motes draining into gateway id 0.

    Motes are numbered 1..K in order; every link's parent must carry a
    smaller id (the gateway or an earlier mote), which guarantees a DAG
    with all paths reaching the gateway. Each mote has one or two parents.
    """

    motes: tuple[Mote, ...]

    def __post_init__(self) -> None:
        for index, mote in enumerate(self.motes):
            if mote.mote_id != index + 1:
                raise ValueError(f"motes must be numbered 1..K in order, got id {mote.mote_id} at position {index}")
            if not 1 <= len(mote.links) <= 2:
                raise ValueError(f"mote {mote.mote_id} must have 1 or 2 parents")
            parents = [link.parent for link in mote.links]
            if len(set(parents)) != len(parents):
                raise ValueError(f"mote {mote.mote_id} lists a duplicate parent")
            for parent in parents:
                if not 0 <= parent < mote.mote_id:
                    raise ValueError(f"mote {mote.mote_id} parent {parent} must be the gateway or an earlier mote")
            if mote.rate < 0:
                raise ValueError(f"mote {mote.mote_id} rate must be nonnegative")

    @property
    def mote_count(self) -> int:
        return len(self.motes)

    @property
    def link_order(self) -> tuple[tuple[int, int], ...]:
        """(child, parent) pairs in the canonical order used everywhere:
        motes ascending, each mote's links in declared order."""
        return tuple((m.mote_id, link.parent) for m in self.motes for link in m.links)

    @property
    def link_count(self) -> int:
        return sum(len(m.links) for m in self.motes)

    @property
    def split_motes(self) -> tuple[int, ...]:
        """Ids of motes with two parents, ascending."""
        return tuple(m.mote_id for m in self.motes if len(m.links) == 2)

    @property
    def option_count(self) -> int:
        return 2 ** (self.mote_count + len(self.split_motes))


# Every link's interference and every mote's load at cycle 0.
INITIAL_INTERFERENCE = 2.0
INITIAL_LOAD = 1.0


@dataclass(frozen=True)
class EnvironmentWalk:
    """Step sizes and clamps of the environment's random walk."""

    interference_step: float = 0.5
    load_step: float = 0.1
    interference_min: float = 0.0
    interference_max: float = 6.0
    load_min: float = 0.5
    load_max: float = 2.0

    def __post_init__(self) -> None:
        for name, value in vars(self).items():
            if not math.isfinite(value):
                raise ValueError(f"walk {name} must be finite, got {value}")
        if self.interference_step < 0.0 or self.load_step < 0.0:
            raise ValueError("walk steps must be nonnegative")
        if self.interference_min > self.interference_max:
            raise ValueError("walk interference_min exceeds interference_max")
        if self.load_min > self.load_max:
            raise ValueError("walk load_min exceeds load_max")
        # the walk starts from the initial environment, so its range must hold it
        if not self.interference_min <= INITIAL_INTERFERENCE <= self.interference_max:
            raise ValueError(f"walk interference range must contain the initial {INITIAL_INTERFERENCE}")
        if not self.load_min <= INITIAL_LOAD <= self.load_max:
            raise ValueError(f"walk load range must contain the initial {INITIAL_LOAD}")


@dataclass(frozen=True)
class Environment:
    """Per-link interference and per-mote load at one adaptation cycle."""

    interference: tuple[float, ...]
    load: tuple[float, ...]


def initial_environment(topology: NetworkTopology) -> Environment:
    return Environment(
        interference=(INITIAL_INTERFERENCE,) * topology.link_count,
        load=(INITIAL_LOAD,) * topology.mote_count,
    )


def environment_step(env: Environment, walk: EnvironmentWalk, seed: int) -> Environment:
    """Advance the bounded random walk by one cycle, deterministically per seed."""
    base = mix64(seed)
    interference = tuple(
        min(walk.interference_max, max(walk.interference_min,
            value + (2.0 * hash01(base, 1, i) - 1.0) * walk.interference_step))
        for i, value in enumerate(env.interference)
    )
    load = tuple(
        min(walk.load_max, max(walk.load_min,
            value + (2.0 * hash01(base, 2, j) - 1.0) * walk.load_step))
        for j, value in enumerate(env.load)
    )
    return Environment(interference=interference, load=load)


def link_delivery_prob(base_snr: float, power_level: int, interference: float) -> float:
    """Delivery probability of one link: clamped logistic in the SNR margin."""
    margin = base_snr + POWER_GAIN * power_level - interference - THRESHOLD
    z = SLOPE * margin
    if z >= 0.0:
        q = 1.0 / (1.0 + math.exp(-z))
    else:  # exp(-z) overflows for very negative margins; this branch underflows instead
        e = math.exp(z)
        q = e / (1.0 + e)
    return min(Q_CEIL, max(Q_FLOOR, q))


def option_bits(topology: NetworkTopology, ids: Sequence[int] | np.ndarray) -> np.ndarray:
    """Row i holds bit i of every option id: the power bit of mote i + 1
    (1 for high) for i below the mote count, then the split bit of each
    two-parent mote, ascending id (1 routes over its first link)."""
    ids = np.asarray(ids, dtype=np.intp)
    if ids.size and not 0 <= ids.min() <= ids.max() < topology.option_count:
        raise ValueError(f"option ids must lie in [0, {topology.option_count})")
    return (ids >> np.arange(topology.mote_count + len(topology.split_motes))[:, None]) & 1


def features(topology: NetworkTopology, env: Environment) -> np.ndarray:
    """Feature matrix of the whole adaptation space, row i for option id i.

    Row layout: the ``option_bits`` of the id, then interference per link
    (canonical link order) and load per mote (ascending id).
    """
    settings = option_bits(topology, np.arange(topology.option_count)).T
    readings = np.array(env.interference + env.load, dtype=np.float64)
    return np.hstack([settings, np.tile(readings, (len(settings), 1))])  # float64, as readings are


def feature_dim(topology: NetworkTopology) -> int:
    return 2 * topology.mote_count + len(topology.split_motes) + topology.link_count


class NetworkView:
    """The network at one environment, computed once per cycle for every
    option's oracle value and model: each mote's generated packets, the
    parent of each of its links, and the delivery probability q of each of
    its slots (see ``slots``), or ``delivery_override`` for all of them.
    Nothing in a view changes after it is built.
    """

    def __init__(self, topology: NetworkTopology, env: Environment, delivery_override: float | None = None):
        if delivery_override is not None and not 0.0 <= delivery_override <= 1.0:
            raise ValueError(f"delivery probability {delivery_override} outside [0, 1]")
        self.topology = topology
        # round() is banker's rounding; fine, it just needs to be deterministic.
        self.generated = [max(0, round(m.rate * env.load[m.mote_id - 1])) for m in topology.motes]
        interference = dict(zip(topology.link_order, env.interference))

        def q(mote: Mote, link: Link, power: int) -> float:
            if delivery_override is not None:
                return delivery_override
            return link_delivery_prob(link.base_snr, power, interference[mote.mote_id, link.parent])

        # Per mote (ascending id): the parent of each link in declared order
        # and the q of each slot.
        self.parents = [tuple(link.parent for link in m.links) for m in topology.motes]
        self.qs = [tuple(q(m, link, power) for link in m.links for power in (0, 1)) for m in topology.motes]

    def slots(self, ids: Sequence[int] | np.ndarray) -> np.ndarray:
        """Row m - 1 holds mote m's slot ``2 * link + power`` under every
        option id: the power its power bit sets, and the link (in declared
        order) the option routes all the mote's traffic over - split bit 1
        picks the first, 0 the second (see ``option_bits``)."""
        topology = self.topology
        bits = option_bits(topology, ids)
        slots = bits[: topology.mote_count]
        slots[[mote_id - 1 for mote_id in topology.split_motes]] += 2 - 2 * bits[topology.mote_count:]
        return slots


def true_expected_loss(view: NetworkView) -> np.ndarray:
    """Exact expected packet-loss percentage of every option, entry i for
    option id i.

    Closed form: the probability a packet at mote i reaches the gateway is
    reach(i) = q * reach(parent) over the slot the option picks for i,
    evaluated in ascending mote order (parents first). Loss is
    100 * (1 - delivered/generated) over deterministic per-mote packet counts.
    One array pass over ``view.slots`` does this for every option at once.
    """
    ids = np.arange(view.topology.option_count)
    total = sum(view.generated)
    if total == 0:
        return np.zeros(len(ids))
    reach = [np.ones(len(ids))]  # by node id; the gateway's is 1
    for slots, qs, parents in zip(view.slots(ids), view.qs, view.parents):
        reach.append(np.array(qs)[slots] * np.where(slots >= 2, reach[parents[-1]], reach[parents[0]]))
    delivered = 0.0  # summed mote by mote in ascending id
    for g, r in zip(view.generated, reach[1:]):
        delivered = delivered + g * r
    return 100.0 * (1.0 - delivered / total)


# A mote's inverse-CDF table is one sorted uint64 array of keys
# (k << _KEY_SHIFT) + floor(P(Binomial(k, q) <= j) * 2**_KEY_SHIFT); a key
# reaches (k + 1) << _KEY_SHIFT when that probability is 1, so k + 1 must
# fit in the 64 - _KEY_SHIFT bits above the fraction.
_KEY_SHIFT = 56
MAX_MOTE_PACKETS = (1 << (64 - _KEY_SHIFT)) - 2
# Row k of every table starts at key index k (k - 1) / 2: the rows below
# it hold 0, 1, ..., k - 1 keys.
_ROW_STARTS = np.array([k * (k - 1) // 2 for k in range(MAX_MOTE_PACKETS + 1)], dtype=np.uint64)


def binomial_keys(qs: Sequence[float], cap: int) -> np.ndarray:
    """Inverse-CDF tables of Binomial(k, q) for every k in 0..cap, row i of
    the result being the table for qs[i].

    A table holds, for each k and j in 0..k-1, the key
    (k << 56) + floor(F_k(j) * 2^56), where F_k(j) = P(Binomial(k, q) <= j),
    ordered by k, then j; F_k(k) = 1 needs no key. For a uniform u in
    [0, 2^56), the number of k keys at most (k << 56) + u is
    #{j < k : F_k(j) * 2^56 <= u}, the inverse CDF at u. Every smaller k's
    keys lie at or below k << 56 and every larger k's above it, so
    ``searchsorted(table, (k << 56) + u, side="right") - _ROW_STARTS[k]``
    counts exactly those. The keys of k up to c are the table's first
    c (c + 1) / 2, whatever cap is, so a table may be cut there.

    The keys come from Pascal's rule F_k(j) = q F_{k-1}(j-1) + (1-q) F_{k-1}(j),
    with F_{k-1}(-1) = 0 and F_{k-1}(j) = 1 for j >= k-1, one step for every
    q at once: only + and x of IEEE doubles, so the keys have the same bits
    on every platform. q = 0 keeps every F at 1 (nothing delivered) and
    q = 1 every F below k at 0 (all delivered), both exactly.
    """
    q = np.asarray(qs, dtype=np.float64)[:, None]
    r = 1.0 - q
    # Before step k, column j + 1 holds F_{k-1}(j) for j in -1..cap-1: 0 at
    # j = -1 and 1 from j = k-1 on, which step k has not written yet.
    cdf = np.ones((len(q), cap + 1))
    cdf[:, 0] = 0.0
    fractions = [cdf[:, :0]]  # k = 0 has no keys
    for k in range(1, cap + 1):
        cdf[:, 1 : k + 1] = r * cdf[:, 1 : k + 1] + q * cdf[:, :k]
        fractions.append(cdf[:, 1 : k + 1].copy())
    rows = np.repeat(np.arange(cap + 1, dtype=np.uint64), np.arange(cap + 1))
    return (rows << np.uint64(_KEY_SHIFT)) + np.floor(np.hstack(fractions) * 2.0**_KEY_SHIFT).astype(np.uint64)


class NetworkModel:
    """Options of one network view as a stochastic model, row i for
    option_ids[i].

    ``simulate_batch`` plays one network period per (row, seed) and returns
    each run's lost-packet fraction in [0, 1]. Each mote forwards all its
    packets over the one slot the row's option picks, so given the k packets
    it holds in a run (its own plus those its children delivered), the count
    it delivers to its parent is Binomial(k, q). Run s draws that count by
    inverse CDF from one uniform per mote, ``stream_uint64(s, mote_id)``,
    processing children before parents. Per mote, the options are grouped by
    slot, and each group's runs are looked up in one ``searchsorted`` on the
    slot's ``binomial_keys``, which hold every k the mote can hold under any
    of the group's options. So an outcome depends only on its option and
    seed: a batch over many rows and seeds is bit-identical to batches of
    one row and one seed each.
    """

    def __init__(self, view: NetworkView, option_ids: Sequence[int] | np.ndarray):
        slots = view.slots(option_ids)
        generated = view.generated
        self._total_generated = sum(generated)
        self._mote_count = len(generated)

        # Plan rows, children before parents (parent ids are smaller by
        # construction): (mote_id, generated, slots, groups), where slots[i]
        # is option i's slot at the mote and groups lists (slot, parent, keys)
        # of the slots that carry packets, keys being the slot's table cut
        # after k = caps[slot]. held[i] is the most packets the mote holds in
        # one run of option i, inbound[m][i] the most its children pass mote
        # m, and caps[s] the most it holds in slot s.
        inbound = np.zeros((len(generated) + 1, slots.shape[1]), dtype=np.int64)
        options = np.arange(slots.shape[1])
        plan, qs, top = [], [], 0
        for mote_id in range(len(generated), 0, -1):
            own, row, parents = generated[mote_id - 1], slots[mote_id - 1], view.parents[mote_id - 1]
            held = own + inbound[mote_id]
            inbound[np.array(parents)[row >> 1], options] += held
            caps = np.where(row == np.arange(2 * len(parents))[:, None], held, 0).max(axis=1, initial=0).tolist()
            if max(caps) > MAX_MOTE_PACKETS:
                raise ValueError(f"mote {mote_id} may hold {max(caps)} packets in one run, above {MAX_MOTE_PACKETS}")
            groups = [(slot, parents[slot >> 1], cap) for slot, cap in enumerate(caps) if cap > 0]
            qs += [view.qs[mote_id - 1][slot] for slot, _, _ in groups]
            top = max([top] + caps)
            if groups:
                plan.append((mote_id, own, row, groups))
        keys = iter(binomial_keys(qs, top))
        self._plan = [
            (mote_id, own, row, [(slot, parent, next(keys)[: cap * (cap + 1) // 2]) for slot, parent, cap in groups])
            for mote_id, own, row, groups in plan
        ]

    def simulate_batch(self, rows: np.ndarray, seeds: np.ndarray) -> np.ndarray:
        rows = np.asarray(rows, dtype=np.intp)
        seeds = np.asarray(seeds, dtype=np.uint64)
        total = self._total_generated
        if total == 0:
            return np.zeros(seeds.shape, dtype=np.float64)
        arrivals = np.zeros((self._mote_count + 1,) + seeds.shape, dtype=np.uint64)
        shift = np.uint64(_KEY_SHIFT)
        for mote_id, generated, slots, groups in self._plan:
            packets = arrivals[mote_id] + generated
            # the mote's 56-bit uniform in every (row, run)
            uniforms = stream_uint64(seeds, np.uint64(mote_id)) >> np.uint64(64 - _KEY_SHIFT)
            keys = (packets << shift) | uniforms
            active = slots[rows]
            for slot, parent, table in groups:
                members = np.flatnonzero(active == slot)
                if len(members):
                    found = np.searchsorted(table, keys[members], side="right")
                    arrivals[parent, members] += found.astype(np.uint64) - _ROW_STARTS[packets[members]]
        lost = total - arrivals[0]
        return lost.astype(np.float64) / total


def desk_topology() -> NetworkTopology:
    """6 motes + gateway, 8 binary choices, 256 options.

    Small enough that every option can be SMC-verified and oracle-checked
    each cycle. Layer 1 (motes 1-3) uplinks to the gateway; layer 2
    (motes 4-6) routes through layer 1, motes 4 and 5 with a choice of
    parent. Base SNRs are deliberately uneven so power and routing
    choices genuinely matter.
    """
    return NetworkTopology(
        motes=(
            Mote(1, rate=3, links=(Link(0, 5.5),)),
            Mote(2, rate=3, links=(Link(0, 5.0),)),
            Mote(3, rate=3, links=(Link(0, 6.0),)),
            Mote(4, rate=4, links=(Link(1, 4.5), Link(2, 5.5))),
            Mote(5, rate=4, links=(Link(2, 5.0), Link(3, 4.0))),
            Mote(6, rate=4, links=(Link(3, 5.0),)),
        ),
    )


def full_topology() -> NetworkTopology:
    """9 motes + gateway, 12 binary choices, 4096 options."""
    return NetworkTopology(
        motes=(
            Mote(1, rate=3, links=(Link(0, 5.5),)),
            Mote(2, rate=3, links=(Link(0, 5.0),)),
            Mote(3, rate=3, links=(Link(0, 6.0),)),
            Mote(4, rate=4, links=(Link(1, 4.5), Link(2, 5.5))),
            Mote(5, rate=4, links=(Link(2, 5.0), Link(3, 4.0))),
            Mote(6, rate=4, links=(Link(1, 4.0), Link(3, 5.5))),
            Mote(7, rate=4, links=(Link(1, 5.0),)),
            Mote(8, rate=4, links=(Link(2, 4.5),)),
            Mote(9, rate=4, links=(Link(3, 5.0),)),
        ),
    )


TOPOLOGY_PRESETS = {
    "desk": desk_topology,
    "full": full_topology,
}
