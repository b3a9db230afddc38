import dataclasses
import math
import random

import pytest
from hypothesis import example, given, settings, strategies as st

from mprtc.session import PathConnection
from mprtc.simnet import EventLoop, Link, LinkConfig, PathDef, US_PER_S
from mprtc.transport import (
    ACK_RANGES_MAX,
    AckFrame,
    MSS,
    PACKET_HEADER_SIZE,
    PAYLOAD_BUDGET,
    STOP_WAITING_SIZE,
    ReceiveManager,
    SendManager,
    SimPacket,
    StreamFrame,
    packetize,
    wire_size,
)
from reference_transport import ReferenceSendManager, pacer_next_send_time


# --- packetize --------------------------------------------------------------

def seg_args(frame_index=0, capture_ts=0, key=False):
    return dict(frame_index=frame_index, capture_ts=capture_ts, key_frame=key)


def test_packetize_ceiling_division():
    half = PAYLOAD_BUDGET // 2
    segs = packetize(2 * PAYLOAD_BUDGET + half, 0, 0, False)
    assert [s.payload_length for s in segs] == [PAYLOAD_BUDGET, PAYLOAD_BUDGET, half]
    assert [s.segment_index for s in segs] == [0, 1, 2]
    assert all(s.total_segments == 3 for s in segs)


def test_packetize_one_byte_frame():
    segs = packetize(1, 5, 12345, True)
    assert len(segs) == 1
    (s,) = segs
    assert (s.payload_length, s.segment_index, s.total_segments) == (1, 0, 1)
    assert (s.frame_index, s.capture_ts) == (5, 12345) and s.key_frame


def test_packetize_covers_frame_exactly():
    rng = random.Random(1)
    for _ in range(200):
        size = rng.randint(1, 60_000)
        segs = packetize(size, 0, 0, False)
        assert sum(s.payload_length for s in segs) == size
        assert segs[-1].total_segments == len(segs)
        assert [s.segment_index for s in segs] == list(range(len(segs)))
        assert all(0 < s.payload_length <= PAYLOAD_BUDGET for s in segs)


def test_packetize_rejects_empty_frame():
    with pytest.raises(ValueError):
        packetize(0, 0, 0, False)


# --- wire sizes -------------------------------------------------------------

@pytest.mark.parametrize("frame", [
    StreamFrame(1, 0, 0, 1, 0, False),
    StreamFrame(300, 7, 123_456, 3, 1, True),
    StreamFrame(PAYLOAD_BUDGET, 0, 0, 1, 0, False),
    pytest.param(None, id="frame3"),  # a STOP_WAITING packet
])
def test_simulated_packet_sizes_are_encoded_sizes(frame):
    loop = EventLoop()
    link = Link(loop, LinkConfig(9_600_000, 10_000, 1_000_000))
    sm = SendManager(loop, (link,))
    if frame is None:
        sm.send_stop_waiting(5)
        expected = PACKET_HEADER_SIZE + STOP_WAITING_SIZE
    else:
        sm.send_segment(frame, wire_size(frame), 0, False)
        expected = wire_size(frame)
        # A full payload budget fills the MSS exactly.
        assert (expected == MSS) == (frame.payload_length == PAYLOAD_BUDGET)
    (packet,) = link.queue
    assert packet.size == link.occupancy == expected <= MSS


# --- pacer ------------------------------------------------------------------

class NullLink:
    owd_us = 0

    def enqueue(self, packet):
        pass


def paced(now, size, rate, cap=math.inf):
    """next_send_ts after PathConnection.send sends size bytes at now while
    its controller paces at rate and the connection is capped at cap."""
    conn = PathConnection(EventLoop(), random.Random(1), PathDef(0, (NullLink(),)),
                          "rtc-bbr", 0, None, rate_cap_bps=cap)
    conn.cc.pacing_rate = rate
    conn.send(StreamFrame(size, 0, now, 1, 0, False), size, now, False)
    return conn.next_send_ts


def test_pacer_basic_gap():
    assert paced(0, 1200, 9.6e6) == 1000
    assert paced(500, 0, 9.6e6) == 500
    gap1 = paced(0, 1200, 1e6)
    gap2 = paced(0, 1200, 2e6)
    assert gap1 == 2 * gap2


def test_pacer_rounds_up_to_clock_grain():
    # 101 bytes at 9.6 Mbps is 84.1666… us on the wire.
    assert paced(0, 101, 9.6e6) == 85


@settings(max_examples=500, deadline=None)
@given(now=st.integers(0, 2**62), size=st.integers(1, 10**6),
       rate=st.one_of(st.floats(1, 1e18), st.integers(1, 10**18)),
       cap=st.one_of(st.just(math.inf), st.floats(1, 1e18)))
@example(now=0, size=1, rate=1e18, cap=math.inf)
@example(now=2**62, size=1, rate=10**18, cap=math.inf)
def test_pacer_moves_past_now_for_every_positive_size(now, size, rate, cap):
    """PathConnection.send leaves next_send_ts at the pacer time of its
    rate clamped to the cap, and any positive gap rounds up to at least one
    microsecond, so a pump that has just sent can arm its timer at the
    pacer time without asking the pacer again."""
    next_send_ts = paced(now, size, rate, cap)
    assert next_send_ts == pacer_next_send_time(now, size, min(rate, cap))
    assert next_send_ts > now


# --- send/receive managers --------------------------------------------------

def make_pair(queue_bytes=1_000_000, capacity=9_600_000, owd_us=10_000,
              reverse_delay=10_000):
    loop = EventLoop()
    link = Link(loop, LinkConfig(capacity, owd_us, queue_bytes))
    sm = SendManager(loop, (link,))
    acks_in_flight = []

    def ack_sink(ack, now):
        acks_in_flight.append(ack)
        loop.schedule(now + reverse_delay, lambda: sm.on_ack(ack, loop.now))

    rx = ReceiveManager(loop, ack_sink)
    sm.receiver_sink = rx.on_packet
    return loop, link, sm, rx


def seg(payload=PAYLOAD_BUDGET, frame_index=0, key=False, index=0, total=1):
    return StreamFrame(payload, frame_index, 0, total, index, key)


def test_two_packets_trigger_immediate_ack_and_samples():
    loop, link, sm, rx = make_pair()
    samples = []
    orig = sm.on_ack

    def capture(ack, now):
        samples.extend(orig(ack, now))

    sm.on_ack = capture
    sm.send_segment(seg(), MSS, 0, False)
    sm.send_segment(seg(), MSS, 0, False)
    assert sm.inflight == 2400
    loop.run(US_PER_S)
    # arrivals at 11 ms and 12 ms; ack leaves at 12 ms, lands 10 ms later
    assert len(samples) == 2
    for s in samples:
        assert s.rtt == 22_000
        assert s.bandwidth == pytest.approx(2400 * 8 * US_PER_S / 22_000)
        assert not s.has_loss and not s.app_limited
    assert sm.inflight == 0
    assert sm.srtt == 22_000


def test_single_packet_acked_on_delay_timer():
    loop, link, sm, rx = make_pair()
    got = []
    orig = sm.on_ack
    sm.on_ack = lambda ack, now: got.append((ack, now, orig(ack, now)))
    sm.send_segment(seg(), MSS, 0, False)
    loop.run(US_PER_S)
    (ack, at, samples) = got[0]
    assert at == 31_000          # 11 ms arrival + 10 ms ack delay + 10 ms reverse
    assert ack.ack_delay == 10_000
    assert samples[0].rtt == 21_000
    assert samples[0].app_limited is False


def test_duplicate_ack_yields_no_samples():
    loop, link, sm, rx = make_pair()
    sm.send_segment(seg(), MSS, 0, False)
    sm.send_segment(seg(), MSS, 0, False)
    loop.run(US_PER_S)
    again = AckFrame(0, [(1, 2)])
    assert sm.on_ack(again, loop.now) == []


def test_app_limited_flag_rides_records():
    loop, link, sm, rx = make_pair()
    samples = []
    orig = sm.on_ack
    sm.on_ack = lambda ack, now: samples.extend(orig(ack, now))
    sm.send_segment(seg(), MSS, 0, True)
    sm.send_segment(seg(), MSS, 0, False)
    loop.run(US_PER_S)
    assert [s.app_limited for s in samples] == [True, False]


def test_bandwidth_sample_matches_delivery_arithmetic():
    # One packet of 125 000 bytes acked 100 ms after send is a 10 Mbps sample.
    loop = EventLoop()
    sm = SendManager(loop, (None,))
    sm.records = {1: SimPacket(1, 125_000, None, None, (None,), None,
                               sent_ts=0, delivered_at_send=0)}
    sm.inflight = 125_000
    loop.run(100_000)
    samples = sm.on_ack(AckFrame(0, [(1, 1)]), 100_000)
    assert samples[0].bandwidth == pytest.approx(10e6)
    assert samples[0].rtt == 100_000


def test_reorder_loss_three_packets():
    loop, link, sm, rx = make_pair()
    lost = []
    sm.loss_hook = lambda recs: lost.extend(r.number for r in recs)
    for _ in range(4):
        sm.send_segment(seg(), MSS, 0, False)
    samples = sm.on_ack(AckFrame(0, [(2, 4)]), 5_000)
    assert lost == [1]
    assert all(s.has_loss for s in samples)
    assert sm.inflight == 0
    # late ack for the already-lost number is ignored
    assert sm.on_ack(AckFrame(0, [(1, 1)]), 6_000) == []


def test_ordered_acks_no_loss():
    loop, link, sm, rx = make_pair()
    lost = []
    sm.loss_hook = lambda recs: lost.extend(recs)
    for _ in range(20):
        sm.send_segment(seg(), MSS, loop.now, False)
    loop.run(US_PER_S)
    assert lost == []
    assert sm.inflight == 0


def test_time_threshold_loss():
    loop, link, sm, rx = make_pair()
    lost = []
    sm.loss_hook = lambda recs: lost.extend(r.number for r in recs)
    sm.send_segment(seg(), MSS, 0, False)
    sm.send_segment(seg(), MSS, 0, False)
    loop.run(50_000)             # srtt established at 22 ms
    srtt = sm.srtt
    rx.ack_sink = lambda ack, now: None   # receiver goes silent
    sent_at = loop.now
    sm.send_segment(seg(), MSS, loop.now, False)
    threshold = int(1.25 * srtt) + 10_000  # ack-delay allowance included
    loop.run(sent_at + threshold)
    assert lost == []            # not yet past the threshold
    loop.run(sent_at + threshold + 2_000)
    assert lost == [3]
    assert sm.inflight == 0


def test_inflight_matches_record_sum():
    loop, link, sm, rx = make_pair()
    rng = random.Random(3)
    for i in range(30):
        s = seg(payload=rng.randint(1, PAYLOAD_BUDGET))
        sm.send_segment(s, wire_size(s), loop.now, False)
        loop.run(loop.now + rng.randint(0, 3000))
        assert sm.inflight == sum(r.size for r in sm.records.values())
    loop.run(US_PER_S)
    assert sm.inflight == sum(r.size for r in sm.records.values())


def test_packet_numbers_strictly_increase():
    loop, link, sm, rx = make_pair()
    numbers = []
    orig_sink = sm.receiver_sink

    def spy(pkt, now):
        numbers.append(pkt.number)
        orig_sink(pkt, now)

    sm.receiver_sink = spy
    for _ in range(10):
        sm.send_segment(seg(), MSS, loop.now, False)
        loop.run(loop.now + 5000)
    sm.send_stop_waiting(3)
    loop.run(US_PER_S)
    assert numbers == sorted(numbers)
    assert len(set(numbers)) == len(numbers) == 11


def test_receiver_gap_ranges_and_stop_waiting():
    loop = EventLoop()
    acks = []
    rx = ReceiveManager(loop, lambda ack, now: acks.append(ack))
    route = ()

    def deliver(number):
        p = SimPacket(number, 1200, seg(), None, route, None)
        rx.on_packet(p, loop.now)

    deliver(1)
    deliver(3)
    assert acks[-1].ack_ranges == [(3, 3), (1, 1)]
    rx.process_stop_waiting(3, loop.now)
    assert rx.ack_ranges() == [(3, 3)]
    with pytest.raises(ValueError, match="floor 2 is not above 3"):
        rx.process_stop_waiting(2, loop.now)   # floors strictly rise
    assert rx.least_unacked == 3
    assert rx.ack_ranges() == [(3, 3)]
    deliver(4)
    deliver(5)
    assert acks[-1].ack_ranges == [(3, 5)]


def test_stop_waiting_sink_notified():
    loop = EventLoop()
    rx = ReceiveManager(loop, lambda ack, now: None)
    hits = []
    rx.stop_waiting_sink = lambda conn, least, now: hits.append((conn, least, now))
    rx.process_stop_waiting(7, 100)
    with pytest.raises(ValueError, match="floor 7 is not above 7"):
        rx.process_stop_waiting(7, 200)
    rx.process_stop_waiting(9, 300)
    assert hits == [(0, 7, 100), (0, 9, 300)]


@pytest.mark.parametrize("number", [5, 4, 1])
def test_receiver_rejects_non_ascending_packet_number(number):
    """A connection's packets arrive in send order, so a number at or below
    the largest received is a broken invariant, not a duplicate to skip."""
    loop = EventLoop()
    rx = ReceiveManager(loop, lambda ack, now: None)
    got = []
    rx.segment_sink = lambda s, num, conn, now: got.append(num)
    rx.on_packet(SimPacket(5, 1200, seg(), None, (), None), 0)
    with pytest.raises(ValueError, match=f"packet number {number} is not above 5"):
        rx.on_packet(SimPacket(number, 1200, seg(), None, (), None), 10)
    assert got == [5]
    assert rx.data_packets == 1
    assert rx.ack_ranges() == [(5, 5)] and rx.largest_arrival_ts == 0


def model_ranges(numbers):
    """Maximal runs of consecutive integers in a set, descending."""
    runs = []
    for n in sorted(numbers, reverse=True):
        if runs and runs[-1][0] == n + 1:
            runs[-1][0] = n
        else:
            runs.append([n, n])
    return [tuple(run) for run in runs]


range_set_ops = st.lists(st.one_of(
    st.tuples(st.just("add"), st.integers(0, 3)),       # next number after a gap
    st.tuples(st.just("stale"), st.integers(0, 3)),     # at or below the largest held
    st.tuples(st.just("drop"), st.integers(0, 60)),
), max_size=80)


@settings(max_examples=300, deadline=None)
@given(range_set_ops)
@example([("add", 0), ("add", 0), ("add", 0), ("drop", 2)])  # a floor inside a range
def test_range_set_matches_set_model(ops):
    """Ascending numbers with gaps, as a lossy FIFO route delivers them, and
    rising stop-waiting floors, taken by a receiver's on_packet and
    process_stop_waiting, against a plain set."""
    rx = ReceiveManager(EventLoop(), lambda ack, now: None)
    model = set()
    last = 0  # the last number added: later ones are above it
    for op, arg in ops:
        if op == "add":
            last += 1 + arg
            rx.on_packet(SimPacket(last, 0, None, None, (), None), 0)
            model.add(last)
        elif op == "stale" and model:
            with pytest.raises(ValueError):
                rx.on_packet(SimPacket(max(model) - arg, 0, None, None, (), None), 0)
        elif op == "drop":
            floor = max(arg, rx.least_unacked + 1)  # floors strictly rise
            rx.process_stop_waiting(floor, 0)
            model = {n for n in model if n >= floor}
        top = rx.ack_ranges()
        assert top == model_ranges(model)
        assert all(s <= e for s, e in top)
        assert all(e + 1 < s for (s, _), (_, e) in zip(top, top[1:]))


def test_ack_ranges_are_capped_at_the_highest():
    rx = ReceiveManager(EventLoop(), lambda ack, now: None)
    for n in range(2, 2 * (ACK_RANGES_MAX + 10), 2):  # every other number: one range each
        rx.on_packet(SimPacket(n, 0, None, None, (), None), 0)
    top = rx.ack_ranges()
    assert len(top) == ACK_RANGES_MAX
    assert top == [(n, n) for n in range(2 * (ACK_RANGES_MAX + 9), 18, -2)]


def test_pacing_byte_budget_property():
    """A PathConnection paced at a fixed 2 Mbit/s, sending at each
    next_send_ts, never puts more than rate * 100 ms / 8 plus one MSS on
    the wire in any 100 ms window."""
    loop = EventLoop()
    link = Link(loop, LinkConfig(9_600_000, 10_000, 1_000_000))
    conn = PathConnection(loop, random.Random(1), PathDef(0, (link,)), "rtc-bbr", 0,
                          lambda conn, ack: None)
    rate = 2_000_000
    conn.cc.pacing_rate = rate  # no ack reaches the controller to move it
    sent_log = []

    def send_loop():
        conn.send(seg(), MSS, loop.now, False)
        sent_log.append((loop.now, MSS))
        if loop.now < 500_000:
            loop.schedule(conn.next_send_ts, send_loop)

    send_loop()
    loop.run(US_PER_S)
    for i, (t0, _) in enumerate(sent_log):
        acc = 0
        for t, size in sent_log[i:]:
            if t - t0 > 100_000:
                break
            acc += size
        assert acc <= rate * 100_000 / 8 / US_PER_S + MSS


# --- settling acks and loss timers -------------------------------------------

def primed_sender():
    """A sender with srtt 20 ms, nothing outstanding and the clock at 20 ms;
    its loss threshold is 1.25 * 20 ms + 10 ms = 35 ms."""
    loop = EventLoop()
    sm = SendManager(loop, (NullLink(),))
    sm.send_segment(seg(), MSS, 0, False)
    loop.run(20_000)
    sm.on_ack(AckFrame(0, [(1, 1)]), 20_000)
    assert sm.srtt == 20_000 and not sm.records
    return loop, sm


def test_ack_below_oldest_record_still_detects_reorder_loss():
    loop = EventLoop()
    sm = SendManager(loop, (NullLink(),))
    lost = []
    sm.loss_hook = lambda recs: lost.extend(r.number for r in recs)
    for _ in range(8):
        sm.send_segment(seg(), MSS, 0, False)
    sm.on_ack(AckFrame(0, [(1, 2)]), 1_000)
    assert list(sm.records) == [3, 4, 5, 6, 7, 8]
    sm.send_stop_waiting(3)  # packet 9, which is never a record
    # the other ranges are below the oldest record, so the ack settles no
    # record, but its largest number, the STOP_WAITING packet, moves to 9
    assert sm.on_ack(AckFrame(0, [(9, 9), (2, 2), (1, 1)]), 2_000) == []
    assert lost == [3, 4, 5, 6]
    assert sm.largest_acked == 9
    assert list(sm.records) == [7, 8]


def test_advance_stop_waiting_sends_only_a_moved_floor():
    loop = EventLoop()
    link = Link(loop, LinkConfig(9_600_000, 10_000, 1_000_000))
    sm = SendManager(loop, (link,))

    def sent_floors():  # the loop never runs, so every packet stays queued
        return [(p.number, p.stop_waiting) for p in link.queue if p.stop_waiting is not None]

    sm.advance_stop_waiting()  # no records: the floor is next_packet_number, 1
    assert sm.least_retained() == sm.next_packet_number == 1
    for _ in range(3):
        sm.send_segment(seg(), MSS, 0, False)
    sm.advance_stop_waiting()  # packet 1 is outstanding: the floor holds
    assert sent_floors() == []
    sm.on_ack(AckFrame(0, [(1, 1)]), 1_000)
    sm.advance_stop_waiting()  # the oldest record settled: floor 2, in packet 4
    sm.advance_stop_waiting()
    assert sent_floors() == [(4, 2)]
    sm.on_ack(AckFrame(0, [(2, 3)]), 2_000)
    sm.advance_stop_waiting()  # no records: the floor is next_packet_number, 5
    assert sent_floors() == [(4, 2), (5, 5)]
    # Only packet 5 itself was taken since: its own number is not news.
    sm.advance_stop_waiting()
    assert sm.least_retained() == 6
    assert sent_floors() == [(4, 2), (5, 5)]


def test_loss_timer_declares_only_old_records_and_rearms_for_young_one():
    loop, sm = primed_sender()
    lost = []
    sm.loss_hook = lambda recs: lost.extend(r.number for r in recs)
    sm.send_segment(seg(), MSS, 20_000, False)
    sm.send_segment(seg(), MSS, 20_000, False)
    loop.run(20_001)
    sm.send_segment(seg(), MSS, 20_001, False)
    loop.run(40_000)
    sm.send_segment(seg(), MSS, 40_000, False)
    assert sm._loss_timer[0] == 20_000 + 35_000 + 1
    loop.run(55_001)
    # packet 4 is exactly 35 ms old: at the threshold, not past it
    assert lost == [2, 3]
    assert list(sm.records) == [4, 5]
    assert sm._loss_timer[0] == 20_001 + 35_000 + 1 and sm._loss_timer[2] is not None


def test_send_into_empty_window_arms_loss_timer():
    loop, sm = primed_sender()
    assert sm._loss_timer is None
    sm.send_segment(seg(), MSS, 20_000, False)
    assert sm._loss_timer[0] == 20_000 + 35_000 + 1 and sm._loss_timer[2] is not None


def test_send_behind_live_future_timer_keeps_its_handle():
    loop, sm = primed_sender()
    sm.send_segment(seg(), MSS, 20_000, False)
    handle = sm._loss_timer
    loop.run(30_000)
    sm.send_segment(seg(), MSS, 30_000, False)
    assert sm._loss_timer is handle and handle[2] is not None
    assert len(loop._heap) == 1


def test_send_at_instant_of_due_timer_reschedules_it():
    loop, sm = primed_sender()
    sm.send_segment(seg(), MSS, 20_000, False)
    loop.run(50_000)
    sm.send_segment(seg(), MSS, 50_000, False)
    loop.run(54_000)
    # a 4 ms sample drops srtt to 6.4 ms, so packet 2 is past its deadline
    # and the timer is pulled in to now
    sm.on_ack(AckFrame(0, [(3, 3)]), 54_000)
    due_now = sm._loss_timer
    assert due_now[0] == 54_000
    sm.send_segment(seg(), MSS, 54_000, False)
    # the full re-arm reschedules an overdue timer, so it gets a later seq
    assert due_now[2] is None
    assert sm._loss_timer[0] == 54_000 and sm._loss_timer[1] > due_now[1]


def advance_clock(loop, t):
    """Bring the loop to time t as an event due at t sees it: every event due
    before t has fired, none due at t has."""
    if t > loop.now:
        loop.run(t - 1)
        loop.now = t


def send_state(sm, samples, hooked):
    """What the caller and the loop can observe.  A loss timer counts only
    while it is live: SendManager keeps its fired handle, the reference
    drops it, and neither reads a dead handle's fields."""
    timer = sm._loss_timer
    return (
        sm.loop._seq,
        [dataclasses.astuple(s) for s in samples],
        list(hooked),
        list(sm.records),
        sm.inflight,
        sm.srtt,
        sm.largest_acked,
        None if timer is None or timer[2] is None else (timer[0], timer[1]),
    )


def draw_ack_ranges(data, top):
    """Descending disjoint ack ranges at or below top, at least 1: the newest
    number alone, or up to six ranges that often reach below the oldest record."""
    if data.draw(st.booleans()):
        return [(top, top)]
    ranges = []
    end = max(1, top - data.draw(st.integers(0, 3)))
    while end >= 1 and len(ranges) < 6:
        start = max(1, end - data.draw(st.integers(0, 40)))
        ranges.append((start, end))
        end = start - 1 - data.draw(st.integers(1, 20))
    return ranges


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_send_manager_matches_reference(data):
    senders = []
    for cls in (ReferenceSendManager, SendManager):
        loop = EventLoop()
        sm = cls(loop, (NullLink(),))
        hooked = []
        sm.loss_hook = lambda recs, h=hooked: h.append(("lost", [r.number for r in recs]))
        senders.append((loop, sm, hooked))
    ref_loop, ref, _ = senders[0]
    gap = st.one_of(st.just(0), st.just(1), st.integers(0, 3_000), st.integers(0, 40_000))
    ack_delay = st.one_of(st.just(0), st.integers(0, 10_000), st.integers(0, 60_000))
    for _ in range(data.draw(st.integers(1, 80))):
        kinds = ["send", "send", "send", "send_at_timer", "ack", "ack", "fire", "stop_waiting"]
        if ref.next_packet_number == 1:  # an ACK states at least one number; none is sent yet
            kinds = [k for k in kinds if k != "ack"]
        kind = data.draw(st.sampled_from(kinds))
        timer = ref._loss_timer
        live_at = timer[0] if timer is not None and timer[2] is not None else None
        if kind in ("send", "stop_waiting"):
            t = ref_loop.now + data.draw(gap)
            payload = data.draw(st.integers(1, PAYLOAD_BUDGET))
            app_limited = data.draw(st.booleans())
        elif kind == "send_at_timer":
            t = max(ref_loop.now, live_at or 0)
            payload, app_limited = PAYLOAD_BUDGET, False
        elif kind == "ack":
            t = ref_loop.now + data.draw(st.integers(0, 30_000))
            ranges = draw_ack_ranges(data, ref.next_packet_number - 1)
            ack = AckFrame(data.draw(ack_delay), ranges)
        elif kind == "fire":
            t = max(ref_loop.now, live_at if live_at is not None
                    else ref_loop.now + data.draw(st.integers(0, 50_000)))
        states = []
        for loop, sm, hooked in senders:
            samples = []
            if kind == "fire":
                loop.run(t)
            else:
                advance_clock(loop, t)
            if kind in ("send", "send_at_timer"):
                # each segment is its own context, told apart by its frame index
                s = seg(payload=payload, frame_index=sm.packets_sent)
                sm.send_segment(s, wire_size(s), t, app_limited, s)
            elif kind == "ack":
                samples = sm.on_ack(ack, t)
            elif kind == "stop_waiting":
                sm.send_stop_waiting(sm.least_retained())
            states.append(send_state(sm, samples, hooked))
        assert states[0] == states[1]
