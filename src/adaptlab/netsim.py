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
choices, so option ids are stable and bijective.

Both evaluations start from a ``NetworkView``, the network at one
environment, built once per adaptation cycle:

- ``true_expected_loss``: exact expected packet-loss percentage of every
  option, by propagating expected traffic through the DAG (no sampling).
  Used as the ground-truth oracle when measuring decision error.
- ``NetworkModel``: a list of options, one stochastic period per (option,
  seed). A mote holding k packets delivers Binomial(k, q) of them over its
  link, drawn by inverse CDF from one uniform per (seed, mote), children
  before parents. Each draw is addressed by (seed, mote id), so a batch of
  runs over many options is bit-identical to the same runs executed one by
  one (as batches of one) - which is what makes SMC estimates over this
  model reproducible.

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


@dataclass(frozen=True)
class Environment:
    """Per-link interference and per-mote load at one adaptation cycle."""

    interference: tuple[float, ...]
    load: tuple[float, ...]


# Every link's interference and every mote's load at cycle 0.
INITIAL_INTERFERENCE = 2.0
INITIAL_LOAD = 1.0


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


def features(topology: NetworkTopology, env: Environment) -> np.ndarray:
    """Feature matrix of the whole adaptation space, row i for option id i.

    Row layout: bit i of the option id in column i, as in
    ``NetworkView.route`` (power bit per mote, then split bit per two-parent
    mote, ascending id), then interference per link (canonical link order)
    and load per mote (ascending id).
    """
    ids = np.arange(topology.option_count)[:, None]
    settings = (ids >> np.arange(topology.mote_count + len(topology.split_motes))) & 1
    readings = np.array(env.interference + env.load, dtype=np.float64)
    return np.hstack([settings, np.tile(readings, (len(ids), 1))])  # float64, as readings are


def feature_dim(topology: NetworkTopology) -> int:
    return 2 * topology.mote_count + len(topology.split_motes) + topology.link_count


class NetworkView:
    """The network at one environment, computed once per cycle for every
    option's oracle value and model: each mote's generated packets and the
    delivery probability q of every (link, power) pair, or
    ``delivery_override`` for all of them. There is one Binomial table per
    q, built on first use, extended when a model needs more rows, and
    shared by the view's models for as long as it lives.
    """

    def __init__(self, topology: NetworkTopology, env: Environment, delivery_override: float | None = None):
        if delivery_override is not None and not 0.0 <= delivery_override <= 1.0:
            raise ValueError(f"delivery probability {delivery_override} outside [0, 1]")
        self.topology = topology
        self.option_count = topology.option_count
        # round() is banker's rounding; fine, it just needs to be deterministic.
        self.generated = [max(0, round(m.rate * env.load[m.mote_id - 1])) for m in topology.motes]
        interference = dict(zip(topology.link_order, env.interference))

        def qs(mote: Mote, link: Link) -> tuple[float, float]:
            if delivery_override is not None:
                return (delivery_override, delivery_override)
            level = interference[mote.mote_id, link.parent]
            return (link_delivery_prob(link.base_snr, 0, level), link_delivery_prob(link.base_snr, 1, level))

        # Per mote (ascending id): the id bit of its route choice (None with
        # one link), and per link in declared order (parent, (q low, q high)).
        split_bits = {mote_id: topology.mote_count + i for i, mote_id in enumerate(topology.split_motes)}
        self.choices = [
            (split_bits.get(mote.mote_id), [(link.parent, qs(mote, link)) for link in mote.links])
            for mote in topology.motes
        ]
        self._tables: dict[float, BinomialTable] = {}

    def route(self, option_id: int) -> list[tuple[int, float]]:
        """Per mote (ascending id), ``(parent, q)`` of the one link the option
        routes its traffic over (split bit 1 picks the first-listed link, 0
        the second), at the power its power bit sets (1 for high)."""
        if not 0 <= option_id < self.option_count:
            raise ValueError(f"option_id {option_id} outside [0, {self.option_count})")
        route = []
        for power_bit, (split_bit, links) in enumerate(self.choices):
            parent, qs = links[0 if split_bit is None else 1 - ((option_id >> split_bit) & 1)]
            route.append((parent, qs[(option_id >> power_bit) & 1]))
        return route

    def binomial_table(self, cap: int, q: float) -> "BinomialTable":
        """The view's table for q, holding at least rows 0..cap."""
        if q not in self._tables:
            self._tables[q] = BinomialTable(q)
        table = self._tables[q]
        table.extend(cap)
        return table


def true_expected_loss(view: NetworkView) -> np.ndarray:
    """Exact expected packet-loss percentage of every option, entry i for
    option id i.

    Closed form: the probability a packet at mote i reaches the gateway is
    reach(i) = q * reach(parent) over the link the option picks for i,
    evaluated in ascending mote order (parents first). Loss is
    100 * (1 - delivered/generated) over deterministic per-mote packet counts.
    One array pass over the id bits does, for every option, the float
    operations of ``route`` and this rule in the same order.
    """
    ids = np.arange(view.topology.option_count)
    total = sum(view.generated)
    if total == 0:
        return np.zeros(len(ids))
    reach = [np.ones(len(ids))]  # by node id; the gateway's is 1
    for power_bit, (split_bit, links) in enumerate(view.choices):
        hops = [np.array(qs)[(ids >> power_bit) & 1] * reach[parent] for parent, qs in links]
        reach.append(hops[0] if split_bit is None else np.where((ids >> split_bit) & 1 == 1, *hops))
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


class BinomialTable:
    """Inverse-CDF keys of Binomial(k, q) for every k in 0..cap, in
    ``keys``; ``extend`` appends rows up to a larger cap.

    Row k holds, for j in 0..k-1, the key (k << 56) + floor(F_k(j) * 2^56),
    where F_k(j) = P(Binomial(k, q) <= j); F_k(k) = 1 needs no key. For a
    uniform u in [0, 2^56), the number of row-k keys at most (k << 56) + u is
    #{j < k : F_k(j) * 2^56 <= u}, the inverse CDF at u. Every earlier row's
    keys lie at or below k << 56 and every later row's above it, so
    ``searchsorted(keys, (k << 56) + u, side="right") - _ROW_STARTS[k]``
    counts exactly those, however many rows the table holds.

    The rows come from Pascal's rule F_k(j) = q F_{k-1}(j-1) + (1-q) F_{k-1}(j),
    with F_{k-1}(-1) = 0 and F_{k-1}(j) = 1 for j >= k-1: only + and x of
    IEEE doubles, so the keys have the same bits on every platform and do
    not depend on how the table was extended. q = 0 keeps every F at 1
    (nothing delivered) and q = 1 every F below k at 0 (all delivered), both
    exactly.
    """

    def __init__(self, q: float):
        self.q = q
        self.cap = 0
        self.keys = np.empty(0, dtype=np.uint64)
        self._cdf: list[float] = []  # F_cap(j) for j in 0..cap-1

    def extend(self, cap: int) -> None:
        if cap <= self.cap:
            return
        q, r = self.q, 1.0 - self.q
        cdf = self._cdf
        fractions = []  # F_k(j) for the new k, j in 0..k-1, row by row
        for _ in range(self.cap, cap):
            cdf = [r * a + q * b for a, b in zip(cdf + [1.0], [0.0] + cdf)]
            fractions += cdf
        counts = np.arange(self.cap + 1, cap + 1)
        rows = np.repeat(counts.astype(np.uint64), counts)
        new = (rows << np.uint64(_KEY_SHIFT)) + np.floor(np.array(fractions) * 2.0**_KEY_SHIFT).astype(np.uint64)
        self.keys = np.concatenate([self.keys, new])
        self.cap, self._cdf = cap, cdf


class NetworkModel:
    """Options of one network view as a stochastic model, row i for
    option_ids[i].

    ``simulate_batch`` plays one network period per (row, seed) and returns
    each run's lost-packet fraction in [0, 1]. Each mote forwards all its
    packets over the one link the row's option picks, so given the k packets
    it holds in a run (its own plus those its children delivered), the count
    it delivers to its parent is Binomial(k, q). Run s draws that count by
    inverse CDF from one uniform per mote, ``stream_uint64(s, mote_id)``,
    processing children before parents. Per mote, the options are grouped by
    the (parent, q) of their link, and each group's runs are looked up in
    one ``searchsorted`` on the view's table for q. The tables cover every
    reachable k from construction on, so an outcome depends only on its
    option and seed: a batch over many rows and seeds is bit-identical to
    batches of one row and one seed each.
    """

    def __init__(self, view: NetworkView, option_ids: Sequence[int]):
        routes = [view.route(option_id) for option_id in option_ids]
        generated = view.generated
        self._total_generated = sum(generated)
        self._mote_count = len(generated)

        # Plan rows, children before parents (parent ids are smaller by
        # construction): (mote_id, generated, group, groups), where group[i]
        # is the index of option i's (parent, q) among the mote's links and
        # groups lists (index, parent, table) of those that carry packets.
        # inbound[m][i] is the most packets mote m's children can pass it in
        # one run of option i, and caps[g] the most packets the mote holds in
        # one run of any option of group g.
        inbound = [[0] * len(routes) for _ in range(len(generated) + 1)]
        self._plan = []
        for mote_id in range(len(generated), 0, -1):
            links: dict[tuple[int, float], int] = {}
            group, caps = [], []
            own, arriving = generated[mote_id - 1], inbound[mote_id]
            for i, route in enumerate(routes):
                link = route[mote_id - 1]
                index = links.get(link)
                if index is None:
                    index = links[link] = len(caps)
                    caps.append(0)
                cap = own + arriving[i]
                if cap > caps[index]:
                    caps[index] = cap
                inbound[link[0]][i] += cap
                group.append(index)
            if caps and max(caps) > MAX_MOTE_PACKETS:
                raise ValueError(
                    f"mote {mote_id} may hold {max(caps)} packets in one run, above {MAX_MOTE_PACKETS}"
                )
            groups = [
                (index, parent, view.binomial_table(caps[index], q))
                for (parent, q), index in links.items()
                if caps[index] > 0
            ]
            if groups:
                self._plan.append((mote_id, generated[mote_id - 1], np.array(group, dtype=np.intp), groups))

    def simulate_batch(self, rows: np.ndarray, seeds: np.ndarray) -> np.ndarray:
        rows = np.asarray(rows, dtype=np.intp)
        seeds = np.asarray(seeds, dtype=np.uint64)
        total = self._total_generated
        if total == 0:
            return np.zeros(seeds.shape, dtype=np.float64)
        arrivals = np.zeros((self._mote_count + 1,) + seeds.shape, dtype=np.uint64)
        shift = np.uint64(_KEY_SHIFT)
        for mote_id, generated, group, groups in self._plan:
            packets = arrivals[mote_id] + generated
            # the mote's 56-bit uniform in every (row, run)
            uniforms = stream_uint64(seeds, np.uint64(mote_id)) >> np.uint64(64 - _KEY_SHIFT)
            keys = (packets << shift) | uniforms
            active = group[rows]
            for index, parent, table in groups:
                members = np.flatnonzero(active == index)
                if len(members):
                    found = np.searchsorted(table.keys, keys[members], side="right")
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
