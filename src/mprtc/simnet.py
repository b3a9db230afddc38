"""Deterministic discrete-event engine and network model.

Time is integer microseconds, rates are bits/second.  A simulation run is a
pure function of (config, seed): the event loop breaks timestamp ties by
insertion order and every stochastic draw comes from one seeded RNG.
"""

from __future__ import annotations

import math
import random
from bisect import bisect_right
from collections import deque
from collections.abc import Iterable
from dataclasses import dataclass
from heapq import heappop, heappush
from itertools import count

US_PER_MS = 1_000
US_PER_S = 1_000_000
_FOREVER = 1 << 62


class SchedulingError(Exception):
    """Raised when an event is scheduled before the current simulation time."""


class EventLoop:
    """Single-threaded event loop over integer-microsecond timestamps.

    Events fire in ``(fire_time, seq)`` order, where ``seq`` is taken when
    ``schedule`` is called.  Two consequences bound which changes keep a
    run byte-for-byte the same.  Dropping a ``schedule`` call leaves the
    order of the remaining events unchanged, because sequence numbers only
    break ties and their relative order is kept.  Scheduling an event at
    another moment, earlier or later, does not: it takes a different
    ``seq``, so it can fire before or after another event due in the same
    microsecond.  A link that schedules one event per hop instead of one per
    departure and one per arrival therefore moves output digests.  Calling
    a different function in place of another, from the same ``schedule``
    call at the same moment for the same time, does not: the event keeps
    its ``(fire_time, seq)``, so every event keeps its order.

    A handle is live exactly until it fires or is cancelled: ``run`` clears
    each entry's callback as it fires it, so an owner reads a timer's
    liveness from its handle alone.  ``schedule_by`` is the one rule for
    re-arming a timer due by a deadline: keep the live handle due by then,
    else cancel it and schedule afresh at the deadline, or now once it has
    passed.
    """

    __slots__ = ("_heap", "_seq", "now")

    def __init__(self) -> None:
        self._heap: list[list] = []
        self._seq = 0
        self.now = 0

    def schedule(self, fire_time: int, fn, *args) -> list:
        """Schedule fn(*args) at fire_time and return its handle.

        The handle is the heap entry ``[fire_time, seq, fn, args]``.  Setting
        ``handle[2] = None`` cancels it: an entry whose fn is None is popped
        and skipped.
        """
        if fire_time < self.now:
            raise SchedulingError(f"fire_time {fire_time} < now {self.now}")
        self._seq = seq = self._seq + 1
        entry = [fire_time, seq, fn, args]
        heappush(self._heap, entry)
        return entry

    def schedule_by(self, handle: list | None, deadline: int, fn, *args) -> list:
        """Keep a live handle due by deadline, else cancel it and schedule."""
        if handle is not None and handle[2] is not None:
            if handle[0] <= deadline:
                return handle
            handle[2] = None
        now = self.now
        return self.schedule(deadline if deadline > now else now, fn, *args)

    def run(self, until: int) -> None:
        """Run events with fire_time <= until (inclusive); clock ends at until.

        ``until`` before the current time is a SchedulingError, as in
        ``schedule``: the clock never moves backwards.
        """
        if until < self.now:
            raise SchedulingError(f"run until {until} < now {self.now}")
        heap = self._heap
        while heap and heap[0][0] <= until:
            t, _, fn, args = entry = heappop(heap)
            if fn is None:
                continue
            entry[2] = None
            self.now = t
            fn(*args)
        self.now = until

    def pending(self) -> int:
        return sum(1 for e in self._heap if e[2] is not None)


@dataclass(frozen=True)
class LinkConfig:
    """Link parameters: capacity bits/s, one-way delay us, queue bytes."""

    capacity: int
    owd_us: int
    queue_capacity: int

    def __post_init__(self) -> None:
        for name in ("capacity", "owd_us", "queue_capacity"):
            value = getattr(self, name)
            if not isinstance(value, int) or isinstance(value, bool):
                raise ValueError(f"{name} must be an int, got {value!r}")
        if self.capacity <= 0:
            raise ValueError(f"capacity must be > 0, got {self.capacity}")
        if self.owd_us < 0:
            raise ValueError(f"owd_us must be >= 0, got {self.owd_us}")
        if self.queue_capacity <= 0:
            raise ValueError(f"queue_capacity must be > 0, got {self.queue_capacity}")


def _whole(value) -> int | None:
    """value as an int when it is a finite whole number (not a bool), else None."""
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    if isinstance(value, float) and value.is_integer():
        return int(value)
    return None


class TraceSchedule:
    """Step function of link capacity over time, wrapping when exhausted.

    Entries are (timestamp_us, bits_per_second): whole numbers, timestamps
    at least 0 and strictly increasing, rates at least 1.  After the last
    entry plus one trailing gap (the spacing of the final two entries) the
    trace restarts from its first entry.

    The entries are kept as one step table, ``bounds`` = [0] + the
    timestamps after the first + [period_us]: step i plays rates[i] over
    [bounds[i], bounds[i + 1]) of each period, so the first rate also
    plays before the first timestamp.  A one-entry trace has an unbounded
    period, period_us = bounds[-1] = 1 << 62, so it plays its rate forever.

    capacity_at keeps the step it last answered from, as absolute
    [start, end) bounds and a rate, and answers from it while the query
    time stays inside; callers ask about nondecreasing times, so most
    queries skip the lookup.
    """

    __slots__ = ("bounds", "rates", "period_us", "_step_start", "_step_end", "_step_rate")

    def __init__(self, entries) -> None:
        if not isinstance(entries, Iterable):
            raise ValueError(f"trace entries must be an iterable of pairs, got {entries!r}")
        times = []
        rates = []
        prev = -1
        for i, entry in enumerate(entries):
            try:
                ts, bps = entry
            except (TypeError, ValueError):
                raise ValueError(f"trace entry {i} {entry!r}: must be a "
                                 f"(timestamp, capacity) pair") from None
            ts, bps = _whole(ts), _whole(bps)
            if ts is None or ts <= prev:
                raise ValueError(f"trace entry {i} {entry!r}: timestamp must be a finite "
                                 f"whole number, at least 0 and above the previous one")
            if bps is None or bps < 1:
                raise ValueError(f"trace entry {i} {entry!r}: capacity must be a finite "
                                 f"whole number of at least 1 bit/s")
            times.append(ts)
            rates.append(bps)
            prev = ts
        if not times:
            raise ValueError("trace must have at least one entry")
        self.rates = rates
        self.period_us = times[-1] + (times[-1] - times[-2]) if len(times) > 1 else _FOREVER
        self.bounds = [0] + times[1:] + [self.period_us]
        self._step_start = self._step_end = 0   # no step remembered yet
        self._step_rate = rates[0]

    def capacity_at(self, t_us: int) -> int:
        if self._step_start <= t_us < self._step_end:
            return self._step_rate
        period = self.period_us
        cycle, local = divmod(t_us, period)
        bounds = self.bounds
        i = bisect_right(bounds, local) - 1
        base = cycle * period
        self._step_start = base + bounds[i]
        self._step_end = base + bounds[i + 1]
        self._step_rate = self.rates[i]
        return self._step_rate

    def mean_capacity(self, start_us: int, end_us: int) -> float:
        """Time-weighted mean capacity over [start_us, end_us)."""
        if end_us <= start_us:
            raise ValueError("empty interval")
        total = 0
        t = start_us
        while t < end_us:
            cap = self.capacity_at(t)
            step_end = min(self._step_end, end_us)
            total += cap * (step_end - t)
            t = step_end
        return total / (end_us - start_us)

    def overall_mean(self) -> float:
        """Mean capacity over one period (the constant rate of a one-entry trace)."""
        return self.mean_capacity(0, self.period_us)


SYNTHETIC_TRACE_S = 120
TRACE_POOL_SIZE = 100
TRACE_POOL_SEED = 7


def synthetic_trace(rng: random.Random) -> TraceSchedule:
    """Piecewise-constant capacity trace with a mean drawn from [0.4, 6] Mbps."""
    mean_bps = rng.uniform(0.4e6, 6e6)
    entries = []
    t_ms = 0
    while t_ms < SYNTHETIC_TRACE_S * 1000:
        cap = max(150_000, int(mean_bps * rng.uniform(0.5, 1.5)))
        entries.append((t_ms * US_PER_MS, cap))
        t_ms += rng.randint(2000, 6000)
    return TraceSchedule(entries)


def synthetic_trace_pool() -> list[TraceSchedule]:
    """Fixed pool of synthetic traces standing in for the public dataset."""
    rng = random.Random(TRACE_POOL_SEED)
    return [synthetic_trace(rng) for _ in range(TRACE_POOL_SIZE)]


class Link:
    """Store-and-forward link: droptail queue, serialization, propagation.

    A packet's serialization time is fixed when its transmission starts,
    using the trace capacity at that instant for trace-driven links.

    Service starts in ``enqueue`` when the link was idle and in ``_depart``
    when a packet waits; each works the serialization time out in place,
    and the DropTail model tests pin both to ceil(size * 8 / rate).

    The link forwards each packet, which carries ``size``, ``route`` (its
    links), ``hop`` (the index of this link) and ``sink``.  Nothing on the
    wire drops a packet, so it counts as delivered at departure, and
    ``owd_us`` later ``route[hop + 1].enqueue(packet)`` runs, ``hop`` moved
    on, or after the last link ``sink(packet, arrival_time)``.
    """

    __slots__ = (
        "loop", "capacity", "owd_us", "queue", "occupancy", "queue_capacity",
        "trace", "sent", "delivered", "dropped",
    )

    def __init__(self, loop: EventLoop, config: LinkConfig,
                 trace: TraceSchedule | None = None) -> None:
        self.loop = loop
        self.capacity = config.capacity
        self.owd_us = config.owd_us
        self.queue: deque = deque()
        self.occupancy = 0          # bytes queued, the packet in service included
        self.queue_capacity = config.queue_capacity
        self.trace = trace
        self.sent = 0
        self.delivered = 0
        self.dropped = 0

    def enqueue(self, packet) -> None:
        self.sent += 1
        if self.occupancy + packet.size > self.queue_capacity:
            self.dropped += 1
            return
        queue = self.queue
        queue.append(packet)
        self.occupancy += packet.size
        # The head of the queue is the packet in service, so the link was
        # idle exactly when this packet is the only one queued.
        if len(queue) == 1:
            loop = self.loop
            now = loop.now
            trace = self.trace
            cap = self.capacity if trace is None else trace.capacity_at(now)
            loop.schedule(now + (packet.size * 8 * US_PER_S + cap - 1) // cap, self._depart)

    def _depart(self) -> None:
        queue = self.queue
        packet = queue.popleft()
        self.occupancy -= packet.size
        self.delivered += 1
        loop = self.loop
        now = loop.now
        arrival = now + self.owd_us
        hop = packet.hop + 1
        if hop < len(packet.route):
            packet.hop = hop
            loop.schedule(arrival, packet.route[hop].enqueue, packet)
        else:
            loop.schedule(arrival, packet.sink, packet, arrival)
        if queue:  # the next packet's service starts now
            packet = queue[0]
            trace = self.trace
            cap = self.capacity if trace is None else trace.capacity_at(now)
            loop.schedule(now + (packet.size * 8 * US_PER_S + cap - 1) // cap, self._depart)


@dataclass
class PathDef:
    """One routed path: its id, its forward links and its first link's
    capacity trace (None on a fixed-capacity link).  Acks return after the
    route's summed owd_us."""

    path_id: int
    route: tuple
    trace: TraceSchedule | None = None


@dataclass
class Network:
    """Links by id, one PathDef per flow route and, per subflow id, one per
    candidate route.  Path ids count flows first, then candidates, subflow
    by subflow in the order given."""

    links: dict
    flow_paths: list
    candidates: dict


def build_network(loop: EventLoop, links, flows, candidates: dict) -> Network:
    """A Link per (id, LinkConfig, trace or None) row of links and a PathDef
    per route, a non-empty tuple of link ids; path ids as in Network.  A
    repeated id is a ValueError naming its row, and a route through an id
    no row has raises KeyError naming the id."""
    built = {}
    for i, (link_id, config, trace) in enumerate(links):
        if link_id in built:
            raise ValueError(f"links[{i}].id {link_id!r} is already used")
        built[link_id] = Link(loop, config, trace=trace)
    path_ids = count()

    def path(route) -> PathDef:
        hops = tuple(built[link_id] for link_id in route)
        return PathDef(next(path_ids), hops, hops[0].trace)

    return Network(built, [path(route) for route in flows],
                   {sid: [path(route) for route in routes] for sid, routes in candidates.items()})


def _read_link(spec: dict, i: int) -> tuple:
    """Link row from the spec ``links[i]``, a table-style (BW, OWD, Q) row:
    capacity_mbps in Mbit/s, owd_ms in ms, and queue_ms in ms of traffic at
    that capacity (queue bytes = capacity x queue time).  Each error names
    its field as ``links[i].<field>``."""
    fields = ("id", "capacity_mbps", "owd_ms", "queue_ms")
    for field in fields:
        if field not in spec:
            raise ValueError(f"links[{i}].{field} is missing")
    for key in spec:
        if key not in fields:
            raise ValueError(f"links[{i}].{key}: a link does not read this key")
    if not isinstance(spec["id"], str):
        raise ValueError(f"links[{i}].id must be a str, got {spec['id']!r}")
    for field in fields[1:]:
        value = spec[field]
        if (isinstance(value, bool) or not isinstance(value, (int, float))
                or not math.isfinite(value)):
            raise ValueError(f"links[{i}].{field} must be a finite number, got {value!r}")
    capacity = int(spec["capacity_mbps"] * 1e6)
    owd_us = int(spec["owd_ms"] * US_PER_MS)
    queue_bytes = int(capacity * spec["queue_ms"] / 1000 / 8)
    for field, ok in zip(fields[1:], (capacity > 0, owd_us >= 0, queue_bytes > 0)):
        if not ok:  # it rounds to nothing, or is negative
            raise ValueError(f"links[{i}].{field} is too small, got {spec[field]!r}")
    return spec["id"], LinkConfig(capacity, owd_us, queue_bytes), None


RELAY_LINK_BPS = 100_000_000
TRACE_QUEUE_MS = 200
# The config keys each topology reads; build_topology refuses any other.
TOPOLOGY_KEYS = {"dumbbell": ("topology", "links", "flows"),
                 "rtt-unfairness": ("topology", "links"),
                 "multipath-overlay": ("topology",)}


def build_topology(loop: EventLoop, config: dict, rng: random.Random | None = None,
                   traces: list | None = None) -> Network:
    """Network of the config's topology, as link rows plus routes.

    dumbbell: one link (id "L1" unless given) and one flow route over it
    per entry of ``flows`` (3 when left out), each an empty dict.
    rtt-unfairness: flow 0 over L0+L1+L2, flow 1 over L3+L1+L4, and no
    other link.  ``links`` is a list of dicts, each with exactly the keys
    id (a str), capacity_mbps, owd_ms and queue_ms.  multipath-overlay:
    paths 0-3 are subflow 0's direct and relay candidates, then subflow
    1's.  ``traces`` is a list of 4 TraceSchedules, and path i runs on
    traces[i] at its mean rate, with a TRACE_QUEUE_MS access queue and a
    one-way delay drawn from [50 ms, 100 ms] in path order, which a relay
    path splits in half between its access link and a fast relay link.
    """
    if not isinstance(config, dict):
        raise ValueError(f"config must be a dict, got {config!r}")
    name = config.get("topology")
    if not isinstance(name, str) or name not in TOPOLOGY_KEYS:
        raise ValueError(f"unknown topology {name!r}")
    for key in config:
        if key not in TOPOLOGY_KEYS[name]:
            raise ValueError(f"{key}: {name} topology does not read this key")
    if name == "multipath-overlay":
        if rng is None or traces is None:
            raise ValueError("multipath-overlay requires rng and traces")
        if not isinstance(traces, list):
            raise ValueError(f"traces must be a list, got {traces!r}")
        if len(traces) != 4:
            raise ValueError(f"multipath-overlay needs 4 traces, got {len(traces)}")
        rows, candidates = [], {0: [], 1: []}
        for path_id, trace in enumerate(traces):
            if not isinstance(trace, TraceSchedule):
                raise ValueError(f"traces[{path_id}] must be a TraceSchedule, got {trace!r}")
            sid, relayed = divmod(path_id, 2)
            owd_us = int(rng.uniform(50_000, 100_000))
            access_owd_us = owd_us // 2 if relayed else owd_us
            mean = trace.overall_mean()
            queue_bytes = max(4 * 1500, int(mean * TRACE_QUEUE_MS / 1000 / 8))
            route = (f"P{sid}relaya", f"P{sid}relayb") if relayed else (f"P{sid}direct",)
            rows.append((route[0], LinkConfig(int(mean), access_owd_us, queue_bytes), trace))
            if relayed:
                rows.append((route[1], LinkConfig(RELAY_LINK_BPS, owd_us - access_owd_us,
                                                  2_000_000), None))
            candidates[sid].append(route)
        return build_network(loop, rows, (), candidates)
    specs = config.get("links")
    if not isinstance(specs, list) or not specs:
        raise ValueError(f"links: {name} topology needs a non-empty list, got {specs!r}")
    for i, spec in enumerate(specs):
        if not isinstance(spec, dict):
            raise ValueError(f"links[{i}] must be a dict, got {spec!r}")
    if name == "dumbbell":
        if len(specs) > 1:
            raise ValueError(f"links[1]: dumbbell topology takes one link, got {len(specs)}")
        row = _read_link({"id": "L1", **specs[0]}, 0)
        flows = config.get("flows", [{}] * 3)
        if not isinstance(flows, list) or not flows:
            raise ValueError(f"flows must be a non-empty list, got {flows!r}")
        for i, flow in enumerate(flows):
            if flow != {}:
                raise ValueError(f"flows[{i}] must be an empty dict, got {flow!r}")
        return build_network(loop, [row], [(row[0],)] * len(flows), {})
    routes = (("L0", "L1", "L2"), ("L3", "L1", "L4"))
    used = {link_id for route in routes for link_id in route}

    def rows():  # read as build_network reaches them, so errors come in links order
        for i, spec in enumerate(specs):
            row = _read_link(spec, i)
            if row[0] not in used:
                raise ValueError(f"links[{i}].id {row[0]!r}: no rtt-unfairness route uses it")
            yield row

    try:
        return build_network(loop, rows(), routes, {})
    except KeyError as exc:
        raise ValueError(f"rtt-unfairness topology requires links L0-L4, missing {exc}") from None
