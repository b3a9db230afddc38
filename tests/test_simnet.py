import dataclasses
import math
import random

import pytest
from hypothesis import example, given, settings, strategies as st

import reference_trace
from mprtc.simnet import (
    EventLoop,
    Link,
    LinkConfig,
    SchedulingError,
    TraceSchedule,
    US_PER_MS,
    US_PER_S,
    build_network,
    build_topology,
    synthetic_trace_pool,
)


class Probe:
    """Minimal packet stand-in recording its arrival time.

    It carries what a link reads: ``size`` and the ``route``/``hop``/``sink``
    of ``Link``'s forwarding contract.  By default it is on the one link of
    a one-link route, so the link it is enqueued on hands it to its sink.
    """

    def __init__(self, size, log, route=(None,)):
        self.size = size
        self.log = log
        self.route = route
        self.hop = 0

    def sink(self, packet, now):
        self.log.append(now)


# --- event loop -------------------------------------------------------------

def test_schedule_in_past_rejected():
    loop = EventLoop()
    loop.schedule(10, lambda: None)
    loop.run(10)
    with pytest.raises(SchedulingError):
        loop.schedule(9, lambda: None)


def test_run_until_before_now_rejected():
    loop = EventLoop()
    fired = []
    loop.schedule(8, fired.append, 8)
    loop.run(10)
    with pytest.raises(SchedulingError, match="5 < now 10"):
        loop.run(5)
    assert loop.now == 10
    loop.run(10)  # running to the current time is allowed
    assert fired == [8] and loop.now == 10


def test_zero_delay_fires_after_current_event():
    loop = EventLoop()
    order = []

    def outer():
        loop.schedule(loop.now, lambda: order.append("inner"))
        order.append("outer")

    loop.schedule(5, outer)
    loop.run(5)
    assert order == ["outer", "inner"]


def test_equal_timestamps_fire_in_insertion_order():
    loop = EventLoop()
    order = []
    for tag in ("a", "b", "c"):
        loop.schedule(7, order.append, tag)
    loop.run(7)
    assert order == ["a", "b", "c"]


def test_run_until_is_inclusive():
    loop = EventLoop()
    fired = []
    loop.schedule(400 * US_PER_S, fired.append, True)
    loop.run(400 * US_PER_S)
    assert fired == [True]
    assert loop.now == 400 * US_PER_S


def test_cancel_suppresses_event():
    loop = EventLoop()
    fired = []
    handle = loop.schedule(5, fired.append, True)
    assert handle[:2] == [5, 1]
    handle[2] = None  # the cancel rule of EventLoop.schedule
    loop.schedule(7, fired.append, False)
    loop.run(10)
    assert fired == [False]
    assert loop.now == 10


def test_schedule_by_keeps_a_live_handle_due_by_the_deadline():
    loop = EventLoop()
    fired = []
    handle = loop.schedule(50, fired.append, "old")
    for deadline in (50, 80):
        assert loop.schedule_by(handle, deadline, fired.append, "new") is handle
    assert loop._seq == 1 and handle[2] is not None  # no sequence number taken
    loop.run(100)
    assert fired == ["old"]


def test_schedule_by_replaces_a_live_handle_due_later():
    loop = EventLoop()
    fired = []
    handle = loop.schedule(80, fired.append, "old")
    new = loop.schedule_by(handle, 50, fired.append, "new")
    assert handle[2] is None
    assert new[0] == 50 and new[1] > handle[1]
    loop.run(100)
    assert fired == ["new"]


@pytest.mark.parametrize("cancelled", [False, True])
def test_schedule_by_without_a_live_handle_schedules(cancelled):
    loop = EventLoop()
    fired = []
    handle = None
    if cancelled:
        handle = loop.schedule(10, fired.append, "old")  # due earlier, but cancelled
        handle[2] = None
    new = loop.schedule_by(handle, 50, fired.append, "new")
    assert new[0] == 50 and new[1] == loop._seq
    loop.run(100)
    assert fired == ["new"]


def test_schedule_by_past_deadline_fires_now():
    loop = EventLoop()
    fired = []
    loop.run(100)
    handle = loop.schedule_by(None, 40, fired.append, "late")
    assert handle[0] == 100
    loop.schedule(100, fired.append, "other")
    # due now, yet after the new deadline: it is replaced, behind "other"
    again = loop.schedule_by(handle, 40, fired.append, "late")
    assert handle[2] is None and again[0] == 100 and again[1] > handle[1]
    loop.run(100)
    assert fired == ["other", "late"]


def test_fired_handle_is_dead_so_its_callback_can_re_arm_it():
    loop = EventLoop()
    fired = []

    def tick():
        nonlocal handle
        fired.append(loop.now)
        if loop.now < 50:
            handle = loop.schedule_by(handle, 50, tick)

    handle = loop.schedule(10, tick)
    loop.run(100)
    # Were a fired entry still live, schedule_by would keep it, due at 10.
    assert fired == [10, 50]
    assert handle[2] is None


def test_pending_counts_live_entries_only():
    loop = EventLoop()
    handles = [loop.schedule(t, lambda: None) for t in (10, 20, 30)]
    assert loop.pending() == 3
    handles[1][2] = None  # cancelled, still in the heap
    assert loop.pending() == 2
    loop.run(10)          # the first fires; the cancelled one waits to be popped
    assert len(loop._heap) == 2 and loop.pending() == 1


# --- link model -------------------------------------------------------------

def make_link(loop, mbps, owd_ms, queue_ms=100):
    """A link of whole Mbit/s and ms, its queue queue_ms of traffic."""
    return Link(loop, LinkConfig(mbps * 10**6, owd_ms * US_PER_MS, mbps * 125 * queue_ms))


def test_serialization_plus_propagation():
    # 1500 B at 3 Mbps = 4 ms on the wire, then 50 ms of propagation.
    loop = EventLoop()
    link = make_link(loop, 3, 50)
    arrivals = []
    link.enqueue(Probe(1500, arrivals))
    loop.run(US_PER_S)
    assert arrivals == [54 * US_PER_MS]


def test_queue_full_drops_and_occupancy_unchanged():
    loop = EventLoop()
    link = Link(loop, LinkConfig(3_000_000, 50_000, 3000))
    arrivals = []
    for _ in range(3):
        link.enqueue(Probe(1500, arrivals))
    assert link.dropped == 1
    assert link.occupancy == 3000
    loop.run(US_PER_S)
    assert len(arrivals) == 2
    assert link.sent == link.delivered + link.dropped


def test_zero_length_probe_arrives_after_owd_only():
    loop = EventLoop()
    link = make_link(loop, 3, 50)
    arrivals = []
    link.enqueue(Probe(0, arrivals))
    loop.run(US_PER_S)
    assert arrivals == [50 * US_PER_MS]


def test_fifo_delivery_order():
    loop = EventLoop()
    link = make_link(loop, 3, 50)
    order = []

    class Tagged(Probe):
        def __init__(self, tag):
            super().__init__(1500, [])
            self.tag = tag

        def sink(self, packet, now):
            order.append(self.tag)

    for tag in range(5):
        link.enqueue(Tagged(tag))
    loop.run(US_PER_S)
    assert order == [0, 1, 2, 3, 4]


def test_two_link_route_reaches_sink_after_both_hops():
    # 1500 B: 4 ms at 3 Mbps plus 50 ms, then 1 ms at 12 Mbps plus 10 ms.
    loop = EventLoop()
    first, second = make_link(loop, 3, 50), make_link(loop, 12, 10)
    got = []
    probe = Probe(1500, [], route=(first, second))
    probe.sink = lambda packet, now: got.append((packet, now, loop.now))
    first.enqueue(probe)
    loop.run(US_PER_S)
    arrival = (4 + 50 + 1 + 10) * US_PER_MS
    assert got == [(probe, arrival, arrival)]
    assert probe.hop == 1
    assert (first.sent, first.delivered, second.sent, second.delivered) == (1, 1, 1, 1)


def test_back_to_back_serialization_spacing():
    loop = EventLoop()
    link = make_link(loop, 3, 50)
    arrivals = []
    link.enqueue(Probe(1500, arrivals))
    link.enqueue(Probe(1500, arrivals))
    loop.run(US_PER_S)
    assert arrivals == [54 * US_PER_MS, 58 * US_PER_MS]


@pytest.mark.parametrize("fields, message", [
    ((1_000_000, 0, 3000), None),  # a zero delay is accepted
    ((1_000_000, -5, 3000), "owd_us must be >= 0, got -5"),
    ((0, 10, 3000), "capacity must be > 0, got 0"),
    ((1_000_000, 10, 0), "queue_capacity must be > 0, got 0"),
    ((1.5e6, 10, 3000), "capacity must be an int, got 1500000.0"),
    ((1_000_000, 10.0, 3000), "owd_us must be an int, got 10.0"),
    ((1_000_000, 10, 3000.7), "queue_capacity must be an int, got 3000.7"),
    ((1_000_000, 10, "3000"), "queue_capacity must be an int, got '3000'"),
    ((True, 10, 3000), "capacity must be an int, got True"),
    ((1_000_000, False, 3000), "owd_us must be an int, got False"),
], ids=["zero-owd", "negative-owd", "zero-capacity", "zero-queue", "float-capacity",
        "float-owd", "fractional-queue", "str-queue", "bool-capacity", "bool-owd"])
def test_link_config_checks_each_field(fields, message):
    if message is None:
        assert dataclasses.astuple(LinkConfig(*fields)) == fields
        return
    with pytest.raises(ValueError) as raised:
        LinkConfig(*fields)
    assert str(raised.value) == message


class DropTailModel:
    """Independent FIFO droptail reference: ceil serialization, one server.

    Departure times are worked out at admission, so the queue at time t is
    every admitted packet that has not departed by t.
    """

    def __init__(self, capacity, owd_us, queue_capacity):
        self.capacity = capacity
        self.owd_us = owd_us
        self.queue_capacity = queue_capacity
        self.queued = []     # (depart_us, size) of admitted packets
        self.free_at = 0     # when the server finishes the last admitted packet

    def rate_at(self, t):
        """Serialization rate of a packet whose service starts at t."""
        return self.capacity

    def occupancy(self, t):
        self.queued = [(d, s) for d, s in self.queued if d > t]
        return sum(s for _, s in self.queued)

    def offer(self, t, size):
        """Arrival time of a packet offered at t, or None when it is dropped."""
        if self.occupancy(t) + size > self.queue_capacity:
            return None
        start = max(t, self.free_at)
        self.free_at = start - (-size * 8 * US_PER_S // self.rate_at(start))
        self.queued.append((self.free_at, size))
        return self.free_at + self.owd_us


@settings(max_examples=200, deadline=None)
@given(
    capacity=st.integers(100_000, 100_000_000),
    owd_us=st.integers(0, 100_000),
    queue_capacity=st.integers(1, 12_000),
    bursts=st.lists(st.tuples(st.integers(0, 50_000),
                              st.lists(st.integers(0, 3000), max_size=8)),
                    max_size=25),
)
def test_link_matches_droptail_model(capacity, owd_us, queue_capacity, bursts):
    loop = EventLoop()
    link = Link(loop, LinkConfig(capacity, owd_us, queue_capacity))
    model = DropTailModel(capacity, owd_us, queue_capacity)
    probes = []
    expected = []   # the arrival times each probe's sink sees: none when dropped
    t = 0
    for gap, sizes in bursts:
        t += gap
        loop.run(t)
        assert link.occupancy == model.occupancy(t)
        assert link.sent == link.delivered + link.dropped + len(link.queue)
        for size in sizes:
            probe = Probe(size, [])
            probes.append(probe)
            link.enqueue(probe)
            arrival = model.offer(t, size)
            expected.append([] if arrival is None else [arrival])
            assert link.dropped == expected.count([])
            assert link.occupancy == model.occupancy(t)
            assert link.sent == link.delivered + link.dropped + len(link.queue)
    loop.run(t + 10 * US_PER_S)
    assert [p.log for p in probes] == expected
    assert link.occupancy == 0
    assert link.sent == link.delivered + link.dropped == len(probes)


class TraceDropTailModel(DropTailModel):
    """DropTailModel serializing at the reference trace lookup's rate."""

    def __init__(self, trace, owd_us, queue_capacity):
        super().__init__(None, owd_us, queue_capacity)
        self.trace = trace

    def rate_at(self, t):
        return reference_trace.capacity_at(self.trace, t)


# --- traces -----------------------------------------------------------------

@st.composite
def trace_entries(draw):
    """A first entry at 0 or later (time before it plays the first rate),
    then strictly increasing timestamps."""
    t = draw(st.integers(0, 5_000))
    entries = []
    for _ in range(draw(st.integers(1, 6))):
        entries.append((t, draw(st.integers(1, 10_000_000))))
        t += draw(st.integers(1, 4_000))
    return entries


@settings(max_examples=200, deadline=None)
@given(entries=trace_entries())
@example(entries=[(0, 7)])
@example(entries=[(3_000, 5), (5_000, 7)])
def test_step_table_follows_from_the_entries(entries):
    # The reference lookups read this table, so it is checked against the
    # entries themselves: step i plays entry i's rate from entry i's
    # timestamp (from 0 for the first step) until the next entry, and the
    # last step lasts as long as the gap before it.
    trace = TraceSchedule(entries)
    times = [t for t, _ in entries]
    assert trace.rates == [r for _, r in entries]
    if len(entries) == 1:
        assert (trace.bounds, trace.period_us) == ([0, 1 << 62], 1 << 62)
        return
    assert trace.bounds[0] == 0 and trace.bounds[1:-1] == times[1:]
    assert trace.bounds[-1] == trace.period_us
    assert trace.period_us - times[-1] == times[-1] - times[-2]


@pytest.mark.parametrize("entries, bounds", [
    ([(0, 1), (1_000, 2), (3_000, 3)], [0, 1_000, 3_000, 5_000]),
    ([(3_000, 1), (5_000, 2)], [0, 5_000, 7_000]),   # period from the first timestamp
    ([(4_000, 1), (5_000, 2)], [0, 5_000, 6_000]),
])
def test_step_table_of_fixed_entries(entries, bounds):
    trace = TraceSchedule(entries)
    assert (trace.bounds, trace.period_us) == (bounds, bounds[-1])


@settings(max_examples=300, deadline=None)
@given(entries=trace_entries(), queries=st.lists(st.integers(-1_000, 60_000), max_size=40))
# The first entry is at 3 ms, so 0-3 ms plays its rate too; the queries
# walk forward across the wrap at 8 ms and past where 3 ms falls again.
@example(entries=[(3_000, 5_000_000), (4_000, 7_000_000), (6_000, 2_000_000)],
         queries=[0, 2_999, 3_000, 3_999, 4_000, 7_999, 8_000, 8_001, 10_999, 11_000,
                  11_999, 12_000, 16_000])
def test_capacity_at_matches_reference_lookup(entries, queries):
    trace = TraceSchedule(entries)
    period = trace.period_us
    # Each step's first and last microsecond, and the wrap, over three periods.
    edges = [cycle * period + t + d for cycle in range(3)
             for t in trace.bounds[:-1] + [period] for d in (-1, 0, 1)]
    for t in queries + edges + sorted(queries) + edges[::-1]:
        assert trace.capacity_at(t) == reference_trace.capacity_at(trace, t), t


@settings(max_examples=200, deadline=None)
@given(entries=trace_entries(),
       intervals=st.lists(st.tuples(st.integers(0, 40_000), st.integers(1, 40_000)),
                          max_size=5))
def test_trace_means_match_reference_walk(entries, intervals):
    trace = TraceSchedule(entries)
    assert trace.overall_mean() == reference_trace.overall_mean(trace)
    for start, length in intervals:
        assert trace.mean_capacity(start, start + length) == \
            reference_trace.mean_capacity(trace, start, start + length)


def test_pool_trace_means_match_reference_walk():
    for trace in synthetic_trace_pool():
        assert trace.overall_mean() == reference_trace.overall_mean(trace)


@settings(max_examples=100, deadline=None)
@given(
    entries=trace_entries(),
    owd_us=st.integers(0, 5_000),
    bursts=st.lists(st.tuples(st.integers(0, 3_000), st.booleans(),
                              st.lists(st.integers(1, 1500), max_size=5)),
                    max_size=25),
)
def test_links_sharing_a_trace_match_reference_lookup(entries, owd_us, bursts):
    # Two links query one schedule at interleaved times, so its remembered
    # step keeps moving between them.
    trace = TraceSchedule(entries)
    loop = EventLoop()
    links = [Link(loop, LinkConfig(1, owd_us, 6_000), trace=trace) for _ in range(2)]
    models = [TraceDropTailModel(trace, owd_us, 6_000) for _ in range(2)]
    probes = []
    expected = []
    t = 0
    for gap, second, sizes in bursts:
        t += gap
        loop.run(t)
        for size in sizes:
            probe = Probe(size, [])
            probes.append(probe)
            links[second].enqueue(probe)
            arrival = models[second].offer(t, size)
            expected.append((second, [] if arrival is None else [arrival]))
    loop.run(max([t] + [log[0] for _, log in expected if log]))
    assert [p.log for p in probes] == [log for _, log in expected]
    for i, link in enumerate(links):
        assert link.dropped == expected.count((i, []))
        assert link.sent == link.delivered + link.dropped + len(link.queue)


@pytest.mark.parametrize("entries, match", [
    ([(0, 0.4)], r"entry 0 \(0, 0\.4\): capacity"),
    ([(0, 1e6), (0.5, 2e6)], r"entry 1 \(0\.5, 2000000\.0\): timestamp"),
    ([(0, float("nan"))], r"entry 0 \(0, nan\): capacity"),
    ([(0, float("inf"))], r"entry 0 \(0, inf\): capacity"),
    ([(0, 1e6), (float("inf"), 2e6)], r"entry 1 \(inf, 2000000\.0\): timestamp"),
    ([(0, 1e6), (1_000, 0)], r"entry 1 \(1000, 0\): capacity"),
    ([(0, 1e6), (0, 2e6)], r"entry 1 \(0, 2000000\.0\): timestamp"),
    ([(-5, 1e6)], r"entry 0 \(-5, 1000000\.0\): timestamp"),
    ([(0, True)], r"entry 0 \(0, True\): capacity"),
    ([(False, 1e6)], r"entry 0 \(False, 1000000\.0\): timestamp"),
    ([(0,)], r"entry 0 \(0,\): must be a \(timestamp, capacity\) pair"),
    ([5], r"entry 0 5: must be a \(timestamp, capacity\) pair"),
    ([(0, 1_000_000, 7)], r"entry 0 \(0, 1000000, 7\): must be a \(timestamp, capacity\) pair"),
    ([(0, 1e6), [1_000]], r"entry 1 \[1000\]: must be a \(timestamp, capacity\) pair"),
    (iter([]), "trace must have at least one entry"),
    (None, "trace entries must be an iterable of pairs, got None"),
    (5, "trace entries must be an iterable of pairs, got 5"),
])
def test_trace_rejects_entries_it_cannot_store(entries, match):
    with pytest.raises(ValueError, match=match):
        TraceSchedule(entries)


def test_trace_stores_whole_floats_as_ints():
    trace = TraceSchedule([(0, 1e6), (1e6, 2_000_000.0)])
    assert trace.bounds == [0, 1_000_000, 2_000_000] and trace.rates == [1_000_000, 2_000_000]
    assert all(type(v) is int for v in trace.bounds + trace.rates + [trace.period_us])


def test_trace_step_function():
    trace = TraceSchedule([(0, 3_000_000), (1_000_000, 5_000_000)])
    assert trace.capacity_at(0) == 3_000_000
    assert trace.capacity_at(999_999) == 3_000_000
    assert trace.capacity_at(1_000_000) == 5_000_000


def test_single_entry_trace_constant_forever():
    trace = TraceSchedule([(0, 2_500_000)])
    assert trace.capacity_at(0) == 2_500_000
    assert trace.capacity_at(10**9) == 2_500_000


def test_trace_wraps_when_exhausted():
    # 300 s of entries, 1 s apart: at 301 s the schedule is back at its 1 s value.
    entries = [(i * US_PER_S, 1_000_000 + i) for i in range(300)]
    trace = TraceSchedule(entries)
    assert trace.period_us == 300 * US_PER_S
    assert trace.capacity_at(301 * US_PER_S) == trace.capacity_at(1 * US_PER_S)
    assert trace.capacity_at(300 * US_PER_S) == trace.capacity_at(0)


def test_trace_mean_capacity_time_weighted():
    trace = TraceSchedule([(0, 1_000_000), (1_000_000, 3_000_000)])
    # one second at 1 Mbps, one second at 3 Mbps
    assert trace.mean_capacity(0, 2_000_000) == pytest.approx(2_000_000)
    assert trace.overall_mean() == pytest.approx(2_000_000)


def test_trace_driven_link_uses_schedule():
    loop = EventLoop()
    trace = TraceSchedule([(0, 1_000_000), (1_000_000, 8_000_000)])
    link = Link(loop, LinkConfig(1, 1000, 100_000), trace=trace)
    arrivals = []
    link.enqueue(Probe(1500, arrivals))  # 12 ms at 1 Mbps
    loop.run(US_PER_S)
    assert arrivals == [13_000]
    loop2 = EventLoop()
    link2 = Link(loop2, LinkConfig(1, 1000, 100_000), trace=trace)
    arrivals2 = []
    loop2.schedule(1_000_000, lambda: link2.enqueue(Probe(1500, arrivals2)))
    loop2.run(2 * US_PER_S)  # 1.5 ms at 8 Mbps
    assert arrivals2 == [1_000_000 + 1500 + 1000]


def test_synthetic_pool_is_deterministic():
    a = synthetic_trace_pool()[:5]
    b = synthetic_trace_pool()[:5]
    for ta, tb in zip(a, b):
        assert ta.bounds == tb.bounds
        assert ta.rates == tb.rates
    means = [t.overall_mean() for t in synthetic_trace_pool()[:50]]
    assert all(m >= 150_000 for m in means)
    assert min(means) < 1_500_000 < max(means)


# --- topologies -------------------------------------------------------------

def test_dumbbell_case1_queue_bytes():
    # 3 Mbps bottleneck with a 100 ms queue holds 37 500 bytes.
    loop = EventLoop()
    net = build_topology(loop, {
        "topology": "dumbbell",
        "links": [{"id": "L1", "capacity_mbps": 3, "owd_ms": 50, "queue_ms": 100}],
    })
    link = net.links["L1"]
    assert link.capacity == 3_000_000
    assert link.owd_us == 50_000
    assert link.queue_capacity == 37_500
    assert len(net.flow_paths) == 3
    assert all(p.route == (link,) for p in net.flow_paths)


RTT_CASE3_LINKS = [
    {"id": "L0", "capacity_mbps": 10, "owd_ms": 20, "queue_ms": 200},
    {"id": "L1", "capacity_mbps": 4, "owd_ms": 10, "queue_ms": 200},
    {"id": "L2", "capacity_mbps": 10, "owd_ms": 10, "queue_ms": 200},
    {"id": "L3", "capacity_mbps": 10, "owd_ms": 10, "queue_ms": 200},
    {"id": "L4", "capacity_mbps": 10, "owd_ms": 30, "queue_ms": 200},
]


def test_rtt_unfairness_routes_and_delays():
    loop = EventLoop()
    net = build_topology(loop, {"topology": "rtt-unfairness", "links": RTT_CASE3_LINKS})
    p1, p2 = net.flow_paths
    assert p1.route == tuple(net.links[i] for i in ("L0", "L1", "L2"))
    assert p2.route == tuple(net.links[i] for i in ("L3", "L1", "L4"))
    assert sum(l.owd_us for l in p1.route) == (20 + 10 + 10) * US_PER_MS
    assert sum(l.owd_us for l in p2.route) == (10 + 10 + 30) * US_PER_MS
    assert net.links["L1"].queue_capacity == int(4e6 * 0.2 / 8)


def build_overlay(rng, traces):
    return build_topology(EventLoop(), {"topology": "multipath-overlay"}, rng, traces)


def test_multipath_overlay_shape_and_determinism():
    traces = synthetic_trace_pool()[:4]
    net_a = build_overlay(random.Random(42), traces)
    net_b = build_overlay(random.Random(42), traces)
    assert set(net_a.candidates) == {0, 1}
    ids = []
    for subflow in (0, 1):
        cand = net_a.candidates[subflow]
        assert len(cand) == 2
        assert len(cand[0].route) == 1
        assert len(cand[1].route) == 2
        for p in cand:
            ids.append(p.path_id)
            assert 50_000 <= sum(l.owd_us for l in p.route) <= 100_000
    assert ids == [0, 1, 2, 3]
    for sf in (0, 1):
        for pa, pb in zip(net_a.candidates[sf], net_b.candidates[sf]):
            assert [l.owd_us for l in pa.route] == [l.owd_us for l in pb.route]


def test_multipath_overlay_link_table_is_pinned():
    """The overlay draws one one-way delay per path, in path order; a relay
    route splits it in half over its access and relay links.  Access links
    carry their path's trace, at its mean rate, with a 200 ms queue."""
    traces = synthetic_trace_pool()[:4]
    net = build_overlay(random.Random(42), traces)
    table = [(name, link.capacity, link.owd_us, link.queue_capacity,
              None if link.trace is None else traces.index(link.trace))
             for name, link in net.links.items()]
    assert table == [
        ("P0direct", 2_025_379, 81_971, 50_634, 0),
        ("P0relaya", 2_410_147, 25_625, 60_253, 1),
        ("P0relayb", 100_000_000, 25_625, 2_000_000, None),
        ("P1direct", 2_576_584, 63_751, 64_414, 2),
        ("P1relaya", 955_276, 30_580, 23_881, 3),
        ("P1relayb", 100_000_000, 30_580, 2_000_000, None),
    ]
    links = net.links
    assert [[(p.path_id, p.route, p.trace) for p in net.candidates[sid]] for sid in (0, 1)] == [
        [(0, (links["P0direct"],), traces[0]),
         (1, (links["P0relaya"], links["P0relayb"]), traces[1])],
        [(2, (links["P1direct"],), traces[2]),
         (3, (links["P1relaya"], links["P1relayb"]), traces[3])],
    ]
    for paths in net.candidates.values():
        for p in paths:
            assert p.trace is p.route[0].trace
    assert net.flow_paths == []


def test_build_network_numbers_flows_then_candidates_in_subflow_order():
    trace = TraceSchedule([(0, 2_000_000)])
    cfg = LinkConfig(1_000_000, 10_000, 15_000)
    net = build_network(EventLoop(), [("A", cfg, trace), ("B", cfg, None), ("C", cfg, None)],
                        [("B", "A"), ("C",)], {1: [("A", "C"), ("B",)], 0: [("C",)]})
    a, b, c = net.links.values()
    assert [(p.path_id, p.route, p.trace) for p in net.flow_paths] == [
        (0, (b, a), None), (1, (c,), None)]
    assert {sid: [(p.path_id, p.route, p.trace) for p in paths]
            for sid, paths in net.candidates.items()} == {
        1: [(2, (a, c), trace), (3, (b,), None)], 0: [(4, (c,), None)]}
    assert list(net.candidates) == [1, 0]
    with pytest.raises(KeyError, match="'D'"):
        build_network(EventLoop(), [("A", cfg, None)], [("A", "D")], {})


def test_unknown_topology_rejected():
    with pytest.raises(ValueError, match="unknown topology"):
        build_topology(EventLoop(), {"topology": "ring"})


@pytest.mark.parametrize("topology", ["dumbbell", "rtt-unfairness"])
@pytest.mark.parametrize("links", [None, []])
def test_topology_without_links_is_rejected(topology, links):
    config = {"topology": topology}
    if links is not None:
        config["links"] = links
    with pytest.raises(ValueError, match="links"):
        build_topology(EventLoop(), config)


# --- link specs -------------------------------------------------------------

DUMBBELL_LINK = {"id": "L1", "capacity_mbps": 10, "owd_ms": 20, "queue_ms": 100}
MISSING = object()


def link_configs(field, value):
    """A dumbbell and an rtt-unfairness config whose links[0] and links[2]
    have ``field`` set to ``value``, or left out when it is MISSING, paired
    with the index of the broken link."""
    def broken(spec):
        spec = dict(spec)
        if value is MISSING:
            del spec[field]
        else:
            spec[field] = value
        return spec

    rtt_links = list(RTT_CASE3_LINKS)
    rtt_links[2] = broken(rtt_links[2])
    return [({"topology": "dumbbell", "links": [broken(DUMBBELL_LINK)]}, 0),
            ({"topology": "rtt-unfairness", "links": rtt_links}, 2)]


def each_number_field(name, value, problem):
    """A row for each number field set to value, its error the field's name
    and problem."""
    return [pytest.param(field, value, f"{field} {problem}", id=f"{name}-{field}")
            for field in ("capacity_mbps", "owd_ms", "queue_ms")]


# (field, value, the whole error after its "links[i]." prefix), for every
# rule _read_link checks on a link spec.
LINK_SPEC_ERRORS = [
    *each_number_field("missing", MISSING, "is missing"),
    *each_number_field("str", "10", "must be a finite number, got '10'"),
    *each_number_field("none", None, "must be a finite number, got None"),
    *each_number_field("list", [10], "must be a finite number, got [10]"),
    *each_number_field("true", True, "must be a finite number, got True"),
    *each_number_field("false", False, "must be a finite number, got False"),
    *each_number_field("nan", math.nan, "must be a finite number, got nan"),
    *each_number_field("inf", math.inf, "must be a finite number, got inf"),
    *each_number_field("-inf", -math.inf, "must be a finite number, got -inf"),
    pytest.param("capacity_mbps", 1e-7, "capacity_mbps is too small, got 1e-07",
                 id="tiny-capacity_mbps"),  # 0.1 bit/s rounds to 0
    pytest.param("capacity_mbps", -1, "capacity_mbps is too small, got -1",
                 id="negative-capacity_mbps"),
    pytest.param("owd_ms", -0.5, "owd_ms is too small, got -0.5", id="negative-owd_ms"),
    pytest.param("owd_ms", -1, "owd_ms is too small, got -1", id="minus-one-owd_ms"),
    pytest.param("queue_ms", 1e-6, "queue_ms is too small, got 1e-06",
                 id="tiny-queue_ms"),  # 0.00125 bytes rounds to 0
    pytest.param("queue_ms", 1e-9, "queue_ms is too small, got 1e-09", id="tinier-queue_ms"),
    pytest.param("queue_ms", 0, "queue_ms is too small, got 0", id="zero-queue_ms"),
    pytest.param("loss_rate", 0.01, "loss_rate: a link does not read this key",
                 id="unread-loss_rate"),
    pytest.param("queue_msec", 50, "queue_msec: a link does not read this key",
                 id="unread-queue_msec"),
]


@pytest.mark.parametrize("field, value, message", LINK_SPEC_ERRORS)
def test_link_spec_field_errors_name_the_field(field, value, message):
    """The whole error, naming links[0] of a dumbbell and links[2] of an
    rtt-unfairness config."""
    for config, i in link_configs(field, value):
        with pytest.raises(ValueError) as raised:
            build_topology(EventLoop(), config)
        assert str(raised.value) == f"links[{i}].{message}"


@pytest.mark.parametrize("config, match", [
    (None, "^config must be a dict, got None$"),
    ([("topology", "dumbbell")], "^config must be a dict, got "),
    ({"topology": "dumbbell", "links": 7}, "^links: dumbbell topology needs a non-empty list, got 7$"),
    ({"topology": "rtt-unfairness", "links": 7}, "^links: rtt-unfairness topology needs a non-empty list"),
    ({"topology": "dumbbell", "links": {"a": 1}}, "^links: dumbbell topology needs a non-empty list"),
    ({"topology": "dumbbell", "links": [5]}, r"^links\[0\] must be a dict, got 5$"),
    ({"topology": "dumbbell", "links": ["abc"]}, r"^links\[0\] must be a dict, got 'abc'$"),
    ({"topology": "rtt-unfairness", "links": RTT_CASE3_LINKS[:2] + [5]},
     r"^links\[2\] must be a dict, got 5$"),
    ({"topology": "rtt-unfairness", "links": [dict(RTT_CASE3_LINKS[0], id=["L0"])]},
     r"^links\[0\]\.id must be a str, got \['L0'\]$"),
    ({"topology": "dumbbell", "links": [dict(DUMBBELL_LINK, id=5)]},
     r"^links\[0\]\.id must be a str, got 5$"),
], ids=["none", "pairs", "dumbbell-int-links", "rtt-int-links", "dict-links", "int-spec",
        "str-spec", "rtt-int-spec", "list-id", "int-id"])
def test_config_of_the_wrong_type_is_a_value_error_naming_the_field(config, match):
    with pytest.raises(ValueError, match=match):
        build_topology(EventLoop(), config)


def test_rtt_unfairness_link_needs_an_id():
    links = [dict(spec) for spec in RTT_CASE3_LINKS]
    del links[1]["id"]
    with pytest.raises(ValueError, match=r"links\[1\]\.id is missing"):
        build_topology(EventLoop(), {"topology": "rtt-unfairness", "links": links})


def test_rtt_unfairness_rejects_a_repeated_link_id():
    links = RTT_CASE3_LINKS + [{"id": "L1", "capacity_mbps": 1, "owd_ms": 300,
                                "queue_ms": 200}]
    with pytest.raises(ValueError, match=r"links\[5\]\.id 'L1' is already used"):
        build_topology(EventLoop(), {"topology": "rtt-unfairness", "links": links})


def test_dumbbell_rejects_a_second_link():
    links = [DUMBBELL_LINK, dict(DUMBBELL_LINK, id="L2", capacity_mbps="oops")]
    with pytest.raises(ValueError, match=r"links\[1\]: dumbbell topology takes one link"):
        build_topology(EventLoop(), {"topology": "dumbbell", "links": links})


def test_dumbbell_link_id_defaults_to_l1():
    spec = {k: v for k, v in DUMBBELL_LINK.items() if k != "id"}
    net = build_topology(EventLoop(), {"topology": "dumbbell", "links": [spec]})
    assert list(net.links) == ["L1"]


@pytest.mark.parametrize("flows", [3, [], "abc", None, {"a": 1}],
                         ids=["int", "empty", "str", "none", "dict"])
def test_dumbbell_flows_must_be_a_non_empty_list(flows):
    config = {"topology": "dumbbell", "links": [DUMBBELL_LINK], "flows": flows}
    with pytest.raises(ValueError, match="flows must be a non-empty list"):
        build_topology(EventLoop(), config)


@pytest.mark.parametrize("flows, i", [
    ([{"rate": 5}, {"cc": "cubic"}], 0), ([1, "x", None], 0), ([{}, {}, None], 2),
], ids=["settings", "scalars", "none"])
def test_dumbbell_flow_entries_must_be_empty_dicts(flows, i):
    config = {"topology": "dumbbell", "links": [DUMBBELL_LINK], "flows": flows}
    with pytest.raises(ValueError, match=rf"^flows\[{i}\] must be an empty dict, got "):
        build_topology(EventLoop(), config)


@pytest.mark.parametrize("config, key", [
    ({"topology": "dumbbell", "links": [DUMBBELL_LINK], "flow": [{}]}, "flow"),
    ({"topology": "rtt-unfairness", "links": RTT_CASE3_LINKS, "flows": [{}] * 3}, "flows"),
    ({"topology": "multipath-overlay", "relays": 3}, "relays"),
    ({"topology": "multipath-overlay", "links": [DUMBBELL_LINK]}, "links"),
], ids=["dumbbell-flow", "rtt-flows", "overlay-relays", "overlay-links"])
def test_topology_rejects_a_key_it_does_not_read(config, key):
    name = config["topology"]
    with pytest.raises(ValueError, match=f"^{key}: {name} topology does not read this key$"):
        build_topology(EventLoop(), config, random.Random(1), synthetic_trace_pool()[:4])


@pytest.mark.parametrize("n", [1, 4])
def test_dumbbell_has_one_path_per_flow(n):
    config = {"topology": "dumbbell", "links": [DUMBBELL_LINK], "flows": [{}] * n}
    assert [p.path_id for p in build_topology(EventLoop(), config).flow_paths] == list(range(n))


ONE_STEP_TRACE = TraceSchedule([(0, 1_000_000)])


@pytest.mark.parametrize("build, match", [
    (lambda: TraceSchedule([]), "trace must have at least one entry"),
    (lambda: ONE_STEP_TRACE.mean_capacity(5, 5), "empty interval"),
    (lambda: build_topology(EventLoop(), {"topology": "rtt-unfairness",
                                          "links": RTT_CASE3_LINKS[:3] + RTT_CASE3_LINKS[4:]}),
     "requires links L0-L4, missing 'L3'"),
    (lambda: build_topology(EventLoop(), {"topology": "rtt-unfairness", "links": RTT_CASE3_LINKS + [
        {"id": "L9", "capacity_mbps": 1, "owd_ms": 5, "queue_ms": 200}]}),
     r"links\[5\]\.id 'L9': no rtt-unfairness route uses it"),
    (lambda: build_topology(EventLoop(), {"topology": "multipath-overlay"},
                            random.Random(1), [ONE_STEP_TRACE] * 3),
     "multipath-overlay needs 4 traces, got 3"),
    (lambda: build_topology(EventLoop(), {"topology": "multipath-overlay"},
                            random.Random(1), [[(0, 1_000_000)]] * 4),
     r"traces\[0\] must be a TraceSchedule, got \[\(0, 1000000\)\]"),
    (lambda: build_topology(EventLoop(), {"topology": "multipath-overlay"},
                            random.Random(1), [ONE_STEP_TRACE] * 3 + [None]),
     r"traces\[3\] must be a TraceSchedule, got None"),
    (lambda: build_topology(EventLoop(), {"topology": "multipath-overlay"},
                            random.Random(1), (t for t in [ONE_STEP_TRACE] * 4)),
     "traces must be a list, got <generator"),
    (lambda: build_topology(EventLoop(), {"topology": "multipath-overlay"}),
     "multipath-overlay requires rng and traces"),
], ids=["empty-trace", "empty-interval", "no-L3", "unused-L9", "three-traces",
        "entries-as-trace", "none-as-trace", "trace-generator", "no-rng-or-traces"])
def test_configs_are_rejected_where_they_enter(build, match):
    with pytest.raises(ValueError, match=match):
        build()
