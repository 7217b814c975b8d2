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
choices, so option ids are stable and bijective. The topology decodes every
id once, into its ``option_table`` and ``slot_table``, which gives each
mote's link and power under every option as ``2 * link + power``; the
regressor's ``features``, the model and the oracle all read them.

Both evaluations start from a ``NetworkView``, the network at one
environment, built once per adaptation cycle:

- ``true_expected_loss``: exact expected fraction of packets lost by every
  option, by propagating expected traffic through the DAG (no sampling).
  Used as the ground-truth oracle when measuring decision error.
- ``NetworkModel``: a list of options, one stochastic period per (option,
  seed). A mote holding k packets delivers Binomial(k, q) of them over its
  link, drawn by inverse CDF from one uniform per (seed, mote), children
  before parents, off Binomial tables and their guides (Chen and Asau's
  indexed search, 1974). Each draw is addressed by (seed, mote id), so a
  batch of runs over many options is bit-identical to the same runs one by
  one - which is what makes SMC estimates over this model reproducible.

Packet counts per mote are ``round(rate * load)`` - deterministic given
the environment - and each mote's route is fixed by the option, so the
analytic oracle is exact, not an approximation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
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
    Its derived properties and read-only option tables are computed once.
    """

    motes: tuple[Mote, ...]

    def __post_init__(self) -> None:
        for index, mote in enumerate(self.motes):
            if mote.mote_id != index + 1:
                raise ValueError(f"motes must be numbered 1..K in order, got id {mote.mote_id} at position {index}")
            if not 1 <= len(mote.links) <= 2:
                raise ValueError(f"mote {mote.mote_id} must have 1 or 2 parents")
            parents = self.parents[index]
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

    @cached_property
    def link_order(self) -> tuple[tuple[int, int], ...]:
        """(child, parent) pairs in the canonical order used everywhere:
        motes ascending, each mote's links in declared order."""
        return tuple((m.mote_id, link.parent) for m in self.motes for link in m.links)

    @cached_property
    def link_count(self) -> int:
        return len(self.link_order)

    @cached_property
    def split_motes(self) -> tuple[int, ...]:
        """Ids of motes with two parents, ascending."""
        return tuple(m.mote_id for m in self.motes if len(m.links) == 2)

    @cached_property
    def parents(self) -> tuple[tuple[int, ...], ...]:
        """Per mote (ascending id): the parent of each link in declared order."""
        return tuple(tuple(link.parent for link in m.links) for m in self.motes)

    @cached_property
    def option_count(self) -> int:
        return 2 ** (self.mote_count + len(self.split_motes))

    @cached_property
    def option_table(self) -> np.ndarray:
        """Read-only bits of every option id, column i for id i: row b holds
        bit b, the power bit of mote b + 1 (1 for high) for b below the mote
        count, then the split bit of each two-parent mote, ascending id (1
        routes over its first link)."""
        width = self.mote_count + len(self.split_motes)
        bits = (np.arange(self.option_count) >> np.arange(width)[:, None]) & 1
        bits.flags.writeable = False
        return bits

    @cached_property
    def slot_table(self) -> np.ndarray:
        """Read-only slots of every option id, column i for id i: row m - 1
        holds mote m's slot ``2 * link + power``, the power its power bit sets
        and the link (in declared order) the option routes all the mote's
        traffic over - split bit 1 picks the first, 0 the second."""
        slots = self.option_table[: self.mote_count].copy()
        slots[[mote_id - 1 for mote_id in self.split_motes]] += 2 - 2 * self.option_table[self.mote_count :]
        slots.flags.writeable = False
        return slots


# Every link's interference and every mote's load at cycle 0, and the walk's clamps.
INITIAL_INTERFERENCE = 2.0
INITIAL_LOAD = 1.0
INTERFERENCE_MIN, INTERFERENCE_MAX = 0.0, 6.0
LOAD_MIN, LOAD_MAX = 0.5, 2.0


@dataclass(frozen=True)
class EnvironmentWalk:
    """Step sizes of the environment's random walk; its ranges are fixed."""

    interference_step: float = 0.5
    load_step: float = 0.1

    def __post_init__(self) -> None:
        for name, value in vars(self).items():
            if not 0.0 <= value < math.inf:
                raise ValueError(f"walk {name} must be finite and nonnegative, got {value}")


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
    """Advance the random walk by one cycle within its fixed ranges, deterministically per seed."""
    base = mix64(seed)
    interference = tuple(
        min(INTERFERENCE_MAX, max(INTERFERENCE_MIN,
            value + (2.0 * hash01(base, 1, i) - 1.0) * walk.interference_step))
        for i, value in enumerate(env.interference)
    )
    load = tuple(
        min(LOAD_MAX, max(LOAD_MIN,
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


def features(view: NetworkView) -> np.ndarray:
    """Feature matrix of the whole adaptation space, row i for option id i.

    Row layout: the id's ``topology.option_table`` bits, then interference
    per link (canonical link order) and load per mote (ascending id).
    """
    settings = view.topology.option_table.T
    readings = np.array(view.env.interference + view.env.load, dtype=np.float64)
    return np.hstack([settings, np.tile(readings, (len(settings), 1))])  # float64, as readings are


class NetworkView:
    """The network at one environment, computed once per cycle for every
    option's features, oracle value and model: the topology and environment,
    each mote's generated packets, the delivery probability q of each of its
    slots (see ``NetworkTopology.slot_table``), and ``most``, its own packets
    plus the ``most`` of every mote that lists it as a parent, which sizes
    every model's Binomial tables. That is the most packets it can hold in
    one run under any option unless two of its children share a child (a
    diamond): that child's packets then count once per path, so a table is
    larger and the ``MAX_MOTE_PACKETS`` check stricter, but no count
    differs. Nothing in a view changes after it is built. An environment
    that does not fit the topology, or has a reading that is not finite or a
    negative load, raises.
    """

    def __init__(self, topology: NetworkTopology, env: Environment):
        if (len(env.interference), len(env.load)) != (topology.link_count, topology.mote_count):
            raise ValueError(f"environment has {len(env.interference)} interference and {len(env.load)} load values "
                             f"for {topology.link_count} links and {topology.mote_count} motes")
        if not (all(map(math.isfinite, env.interference)) and all(0.0 <= value < math.inf for value in env.load)):
            raise ValueError(f"readings must be finite and loads nonnegative, got {env}")
        self.topology, self.env = topology, env
        # round() is banker's rounding; fine, it just needs to be deterministic.
        self.generated = [round(m.rate * env.load[m.mote_id - 1]) for m in topology.motes]
        interference = dict(zip(topology.link_order, env.interference))
        # Per mote (ascending id): the q of each slot.
        self.qs = [
            tuple(link_delivery_prob(link.base_snr, power, interference[m.mote_id, link.parent])
                  for link in m.links for power in (0, 1))
            for m in topology.motes
        ]
        most = [0] + self.generated  # by node id
        for child, parent in reversed(topology.link_order):  # children before parents
            most[parent] += most[child]
        self.most = most[1:]


def true_expected_loss(view: NetworkView) -> np.ndarray:
    """Exact expected fraction of packets lost by every option, entry i for id i.

    Closed form: the probability a packet at mote i reaches the gateway is
    reach(i) = q * reach(parent) over the slot the option picks for i,
    evaluated in ascending mote order (parents first). Loss is
    1 - delivered/generated over deterministic per-mote packet counts.
    One array pass over ``topology.slot_table`` does this for every option.
    """
    count = view.topology.option_count
    total = sum(view.generated)
    if total == 0:
        return np.zeros(count)
    reach = [np.ones(count)]  # by node id; the gateway's is 1
    for slots, qs, parents in zip(view.topology.slot_table, view.qs, view.topology.parents):
        reach.append(np.array(qs)[slots] * np.where(slots >= 2, reach[parents[-1]], reach[parents[0]]))
    delivered = 0.0  # summed mote by mote in ascending id
    for g, r in zip(view.generated, reach[1:]):
        delivered = delivered + g * r
    return 1.0 - delivered / total


# A mote's inverse-CDF table is one sorted uint64 array of keys
# (k << _KEY_SHIFT) + floor(P(Binomial(k, q) <= j) * 2**_KEY_SHIFT); row k
# ends with the key (k + 1) << _KEY_SHIFT of probability 1, so k + 1 must
# fit in the 64 - _KEY_SHIFT bits above the fraction.
_KEY_SHIFT = 56
MAX_MOTE_PACKETS = (1 << (64 - _KEY_SHIFT)) - 2
# The delivered count at each table position: a search within row k lands
# at the row's start, k (k + 1) / 2, plus the count.
_COUNTS = np.concatenate([np.arange(k + 1, dtype=np.uint8) for k in range(MAX_MOTE_PACKETS + 1)])
# See binomial_guides. Guides pay back their build once a model's rows times a
# batch's runs per row reach _GUIDED_RUNS: over a post-warm-up desk cycle's
# batches (2-core x86, numpy 2.4), guides lost at 5 rows x 225 runs (0.64
# against 0.60 ms searched) and won at 5 x 1 110 (1.62 against 2.00 ms, build included).
_GUIDE_SHIFT, _MISS, _GUIDED_RUNS = _KEY_SHIFT - 10, MAX_MOTE_PACKETS + 1, 1 << 12


def binomial_keys(qs: Sequence[float], cap: int) -> np.ndarray:
    """Inverse-CDF tables of Binomial(k, q) for every k in 0..cap, row i of
    the result being the table for qs[i].

    A table holds, for each k and j in 0..k, the key
    (k << 56) + floor(F_k(j) * 2^56), where F_k(j) = P(Binomial(k, q) <= j),
    ordered by k, then j, so row k starts at key k (k + 1) / 2 and ends with
    (k + 1) << 56. For a uniform u in [0, 2^56), the number of row k's keys
    at most (k << 56) + u is #{j < k : F_k(j) * 2^56 <= u}, the inverse CDF
    at u. Every smaller k's keys lie at or below k << 56, and row k's last
    key and every larger k's above (k << 56) + u, so
    ``_COUNTS[searchsorted(table, (k << 56) + u, side="right")]`` is that
    count (``binomial_guides`` reads most without the search). The keys of
    k up to c are the table's first (c + 1) (c + 2) / 2, whatever cap is.

    The keys come from Pascal's rule F_k(j) = q F_{k-1}(j-1) + (1-q) F_{k-1}(j),
    with F_{k-1}(-1) = 0 and F_{k-1}(j) = 1 for j >= k-1, one step for every
    q at once: only + and x of IEEE doubles, so the keys have the same bits
    on every platform. q = 0 keeps every F at 1 (nothing delivered) and
    q = 1 every F below k at 0 (all delivered), both exactly.
    """
    q = np.asarray(qs, dtype=np.float64)[:, None]
    r = 1.0 - q
    # Before step k, column j + 1 holds F_{k-1}(j) for j in -1..cap: 0 at
    # j = -1 and 1 from j = k-1 on, which step k has not written yet.
    cdf = np.ones((len(q), cap + 2))
    cdf[:, 0] = 0.0
    fractions = [cdf[:, 1:2].copy()]  # k = 0: only the end key
    for k in range(1, cap + 1):
        cdf[:, 1 : k + 1] = r * cdf[:, 1 : k + 1] + q * cdf[:, :k]
        fractions.append(cdf[:, 1 : k + 2].copy())
    rows = np.repeat(np.arange(cap + 1, dtype=np.uint64), np.arange(1, cap + 2))
    return (rows << np.uint64(_KEY_SHIFT)) + np.floor(np.hstack(fractions) * 2.0**_KEY_SHIFT).astype(np.uint64)


def binomial_guides(keys: np.ndarray, cap: int) -> np.ndarray:
    """Row i maps each bucket key >> 46 (k << 10 plus u's top 10 bits) of
    table keys[i] = binomial_keys(qs, cap)[i] to the count the search finds
    for every key in it, or to ``_MISS``, above every count, where a table
    key lies strictly inside it. One ``repeat`` builds all rows: position
    p's count fills the buckets from key p - 1's up to key p's."""
    width = (cap + 1) << 10
    buckets = (keys >> np.uint64(_GUIDE_SHIFT)).astype(np.intp) + np.arange(len(keys))[:, None] * width
    guides = np.repeat(np.tile(_COUNTS[: keys.shape[1]], len(keys)), np.diff(buckets.ravel(), prepend=0))
    guides[buckets[keys & np.uint64((1 << _GUIDE_SHIFT) - 1) != 0]] = _MISS
    return guides.reshape(len(keys), width)


def delivered_counts(table: np.ndarray, guide: np.ndarray | None, keys: np.ndarray) -> np.ndarray:
    """``_COUNTS[searchsorted(table, keys, side="right")]``, read off ``guide`` where given and not ``_MISS``."""
    if guide is None:
        return _COUNTS[np.searchsorted(table, keys, side="right")]
    # flat in C order whatever the layout of keys, so the write-back reaches counts
    counts = guide[(keys >> np.uint64(_GUIDE_SHIFT)).view(np.int64).reshape(-1)]
    misses = np.flatnonzero(counts == _MISS)
    counts[misses] = _COUNTS[np.searchsorted(table, keys.reshape(-1)[misses], side="right")]
    return counts.reshape(keys.shape)


class NetworkModel:
    """Options of one network view as a stochastic model, row i for
    option_ids[i].

    ``simulate_batch`` plays one network period per (row, seed) and returns
    each run's count of lost packets as ``int64``, out of ``total``, the
    packets generated (1 where none are, and none is lost). Rows must be
    integers in [0, rows) and seeds integers, signed ones wrapping to their
    two's-complement bits; anything else raises. It walks the view's motes
    that can hold a packet, children before parents. Each mote forwards all
    its packets over the one slot the row's option picks, so given the k
    packets it holds in a run (its own plus those its children delivered),
    the count it delivers to its parent is Binomial(k, q). Run s draws that
    count by inverse CDF from one uniform per mote, ``stream_uint64(s,
    mote_id)``, drawn for every mote in one call per batch. Every slot's
    ``binomial_keys`` reach the view's largest ``most``, so two models of
    one view build equal tables. Per mote, the options are grouped by slot,
    and ``delivered_counts`` looks each group's runs up in the slot's table
    (k up to the mote's ``most``): off its guide (all built on first use)
    once the model's rows times a batch's runs per row reach
    ``_GUIDED_RUNS``, else by the search, with equal counts. So a count
    depends only on its option and seed: a batch over many rows and seeds
    is bit-identical to batches of one row and one seed each.
    """

    def __init__(self, view: NetworkView, option_ids: Sequence[int] | np.ndarray):
        ids, count = np.asarray(option_ids), view.topology.option_count
        if ids.size and (ids.dtype.kind not in "iu" or not 0 <= ids.min() <= ids.max() < count):
            raise ValueError(f"option ids must lie in [0, {count}) and have an integer type")
        self._view, self._slots = view, view.topology.slot_table[:, ids.astype(np.intp)]
        self.total, self._top = max(1, sum(view.generated)), max(view.most, default=0)
        if self._top > MAX_MOTE_PACKETS:
            raise ValueError(f"mote {view.most.index(self._top) + 1} may hold {self._top} packets in one run, "
                             f"above {MAX_MOTE_PACKETS}")
        # Every mote that can hold a packet, children before parents; the
        # tables of its slots follow one another in this order.
        self._motes = [mote_id for mote_id in range(len(view.most), 0, -1) if view.most[mote_id - 1]]
        self._keys = binomial_keys([q for mote_id in self._motes for q in view.qs[mote_id - 1]], self._top)

    @cached_property
    def _guides(self) -> np.ndarray:
        return binomial_guides(self._keys, self._top)

    def simulate_batch(self, rows: np.ndarray, seeds: np.ndarray) -> np.ndarray:
        rows, seeds, count = np.asarray(rows), np.asarray(seeds), self._slots.shape[1]
        if rows.size and (rows.dtype.kind not in "iu" or not 0 <= rows.min() <= rows.max() < count):
            raise ValueError(f"rows must lie in [0, {count}) and have an integer type")
        if seeds.size and seeds.dtype.kind not in "iu":
            raise ValueError("seeds must have an integer type")
        rows, seeds = rows.astype(np.intp, copy=False), seeds.astype(np.uint64, copy=False)  # signed seeds wrap
        view, shift, table = self._view, np.uint64(_KEY_SHIFT), 0
        # every walked mote's 56-bit uniform in every (row, run), children first
        uniforms = stream_uint64(seeds, np.array(self._motes, dtype=np.uint64).reshape((-1,) + (1,) * seeds.ndim))
        np.right_shift(uniforms, np.uint64(64 - _KEY_SHIFT), out=uniforms)
        arrivals = np.zeros((len(view.most) + 1,) + seeds.shape, dtype=np.uint64)
        guides = self._guides if count * seeds.shape[-1] >= _GUIDED_RUNS else [None] * len(self._keys)
        for mote_id, mote_uniforms in zip(self._motes, uniforms):
            most, parents = view.most[mote_id - 1], view.topology.parents[mote_id - 1]
            keys = ((arrivals[mote_id] + view.generated[mote_id - 1]) << shift) | mote_uniforms
            active, size = self._slots[mote_id - 1][rows], (most + 1) * (most + 2) // 2  # keys of k up to most
            for slot in range(2 * len(parents)):
                members = np.flatnonzero(active == slot)
                if len(members):
                    counts = delivered_counts(self._keys[table + slot, :size], guides[table + slot], keys[members])
                    arrivals[parents[slot >> 1], members] += counts
            table += 2 * len(parents)
        return (sum(view.generated) - arrivals[0]).astype(np.int64)


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
