import math
import random
from collections import Counter

import pytest
from hypothesis import example, given, settings, strategies as st

import reference_scheduler
from mprtc.scheduler import (
    DECISION_LOG_LEN, RETENTION_US, Scheduler, wire_size,
)
from mprtc.transport import PAYLOAD_BUDGET, StreamFrame, packetize


def seg(payload=PAYLOAD_BUDGET, frame_index=0, index=0, total=1, key=False):
    return StreamFrame(payload, frame_index, 0, total, index, key)


def sid_of(sched, entry):
    """The subflow whose queue holds entry: the one it is assigned to."""
    (sid,) = [sid for sid, sub in sched.subflows.items() if entry in sub.queue]
    return sid


def make_two(bw0=1e6, bw1=1e6, srtt0=100_000, srtt1=100_000, cls=Scheduler):
    sched = cls({0: bw0, 1: bw1})
    if srtt0:
        sched.update_srtt(0, srtt0)
    if srtt1:
        sched.update_srtt(1, srtt1)
    return sched


# --- srtt and latency -------------------------------------------------------

def test_srtt_first_sample_initializes():
    sched = Scheduler({0: 1e6})
    assert sched.update_srtt(0, 100_000) == 100_000


def test_srtt_smoothing_arithmetic():
    sched = Scheduler({0: 1e6})
    sched.update_srtt(0, 100_000)
    assert sched.update_srtt(0, 200_000) == 185_000  # 0.15*100 + 0.85*200


def test_srtt_converges_to_constant():
    sched = Scheduler({0: 1e6})
    for _ in range(30):
        sched.update_srtt(0, 80_000)
    assert sched.subflows[0].srtt == 80_000


def test_expected_latency_terms():
    sched = make_two(bw0=1e6, bw1=10_000)
    sched.subflows[1].queued_bytes = 1_200  # 0.96 s of queue at 10 kbit/s
    sched.subflows[0].queued_bytes = 250_000  # 2 s at 1 Mbit/s: subflow 1 is fastest
    assert sched.min_latency() == pytest.approx(1_010_000)
    sched.subflows[0].queued_bytes = 0
    assert sched.min_latency() == pytest.approx(50_000)  # subflow 0, empty queue
    sched.subflows[0].queued_bytes = 12_500
    assert sched.min_latency() == pytest.approx(150_000)  # +100 ms of queue
    sched.subflows[0].queued_bytes = 25_000
    assert sched.min_latency() == pytest.approx(250_000)  # queue term doubled


@pytest.mark.parametrize("bw", [0, 0.0, -1e6, float("nan"), float("-inf")])
def test_initial_estimate_must_be_positive(bw):
    with pytest.raises(ValueError, match="subflow 1: bandwidth estimate must be > 0"):
        Scheduler({0: 1e6, 1: bw})


def test_scheduler_needs_a_subflow():
    with pytest.raises(ValueError, match="at least one subflow"):
        Scheduler({})


def test_min_latency_export():
    sched = make_two(srtt0=100_000, srtt1=300_000)
    assert sched.min_latency() == pytest.approx(50_000)


def test_reference_rate_is_the_sum_of_the_subflow_rates():
    sched = Scheduler({1: 2e6, 0: 1e6})
    assert sched.reference_rate() == 3e6
    sched.set_bw_es(1, 500_000.0)
    assert sched.reference_rate() == 1.5e6


def test_every_latency_infinite_falls_back_to_lowest_id():
    # The smallest positive float makes any queued byte an infinite latency;
    # subflows listed out of id order are still scanned in id order.
    sched = Scheduler({7: 5e-324, 3: 5e-324})
    for sub in sched.subflows.values():
        sub.queued_bytes = 1
    assert sched.min_latency() == float("inf")
    (entry,) = sched.schedule_segments([seg()], now=0)
    assert sid_of(sched, entry) == 3


# --- assignment -------------------------------------------------------------

def test_segment_goes_to_smaller_latency():
    sched = make_two(srtt0=300_000, srtt1=100_000)
    (entry,) = sched.schedule_segments([seg()], now=0)
    assert sid_of(sched, entry) == 1


def test_tie_breaks_to_lower_subflow_id():
    for sched in (make_two(), Scheduler({1: 1e6, 0: 1e6})):
        (entry,) = sched.schedule_segments([seg()], now=0)
        assert sid_of(sched, entry) == 0


def test_equal_subflows_alternate_as_queue_grows():
    sched = make_two()
    segments = [seg(frame_index=0, index=i, total=10) for i in range(10)]
    entries = sched.schedule_segments(segments, now=0)
    assert [sid_of(sched, e) for e in entries] == [0, 1] * 5


def test_decision_log_keeps_only_the_last_assignments():
    rng = random.Random(5)
    sched = make_two(bw0=2e6, bw1=1.3e6, srtt0=80_000, srtt1=120_000)
    assigned = []
    fi = 0
    while len(assigned) <= DECISION_LOG_LEN + 100:
        segs = packetize(rng.randint(400, 9000), fi, 0, False)
        sched.schedule_segments(segs, now=fi * 1000)
        assigned.extend((s.frame_index, s.segment_index) for s in segs)
        fi += 1
    log = sched.decision_log
    assert len(log) == DECISION_LOG_LEN
    assert [(f, i) for _, f, i, _ in log] == assigned[-DECISION_LOG_LEN:]


def test_queued_bytes_tracks_assignments_and_sends():
    sched = make_two()
    segs = [seg(payload=p) for p in (100, 500, 900, 1163)]
    sched.schedule_segments(segs, now=0)
    total = sum(sched.subflows[s].queued_bytes for s in (0, 1))
    assert total == sum(wire_size(s) for s in segs)
    while sched.next_segment(0, now=1000) or sched.next_segment(1, now=1000):
        pass
    assert sched.subflows[0].queued_bytes == 0
    assert sched.subflows[1].queued_bytes == 0


@pytest.mark.parametrize("bw", [0, -1.0, float("nan")])
def test_set_bw_es_rejects_non_positive_estimate(bw):
    sched = Scheduler({0: 1e6})
    with pytest.raises(ValueError, match="subflow 0: bandwidth estimate must be > 0"):
        sched.set_bw_es(0, bw)
    assert sched.subflows[0].bw_es == 1e6  # the rejected value was not stored
    (entry,) = sched.schedule_segments([seg()], now=0)
    assert sched.next_segment(0, now=10) is entry  # assigned the moment it arrived


# --- retention and loss -----------------------------------------------------

def send_all(sched, sid, now):
    out = []
    while True:
        e = sched.next_segment(sid, now)
        if e is None:
            return out
        out.append(e)


def queued(sched):
    return [e for sub in sched.subflows.values() for e in sub.queue]


def test_deadline_is_decided_at_the_first_send_of_a_delta_segment():
    sched = Scheduler({0: 1e6})
    delta, key = sched.schedule_segments([seg(), seg(frame_index=1, key=True)], now=0)
    assert delta.expires_at == key.expires_at == math.inf
    assert sched.next_segment(0, now=1000) is delta
    assert sched.next_segment(0, now=2000) is key
    assert (delta.expires_at, key.expires_at) == (1000 + RETENTION_US, math.inf)
    sched.on_loss([delta, key], now=3000)
    sched.next_segment(0, now=4000)
    sched.next_segment(0, now=5000)
    assert (delta.expires_at, key.expires_at) == (1000 + RETENTION_US, math.inf)


def test_key_frame_lost_is_always_retransmitted():
    sched = make_two()
    (entry,) = sched.schedule_segments([seg(key=True)], now=0)
    assert send_all(sched, sid_of(sched, entry), 0) == [entry]
    sids, dropped = sched.on_loss([entry], now=5_000_000)  # 5 s later
    assert dropped == []
    assert len(sids) == 1
    assert list(sched.subflows[sids[0]].queue) == [entry]
    assert sched.next_segment(sids[0], now=5_000_001) is entry


def test_nonkey_lost_past_cache_age_is_dropped():
    sched = make_two()
    (entry,) = sched.schedule_segments([seg()], now=0)
    send_all(sched, sid_of(sched, entry), 0)
    sids, dropped = sched.on_loss([entry], now=401_000)
    assert sids == [] and dropped == [entry]
    assert queued(sched) == []


def test_nonkey_lost_within_cache_age_is_retransmitted():
    sched = make_two()
    (entry,) = sched.schedule_segments([seg()], now=0)
    send_all(sched, sid_of(sched, entry), 0)
    sids, dropped = sched.on_loss([entry], now=400_000)  # exactly the limit
    assert dropped == [] and len(sids) == 1


def test_retransmission_follows_current_best_path():
    sched = make_two(srtt0=100_000, srtt1=200_000)
    (entry,) = sched.schedule_segments([seg()], now=0)
    assert sid_of(sched, entry) == 0
    send_all(sched, 0, 0)
    sched.update_srtt(0, 500_000)  # path 0 degraded since the first send
    sids, _ = sched.on_loss([entry], now=100_000)
    assert sids == [1]
    assert sched.next_segment(1, now=100_001) is entry


def test_retransmissions_jump_the_queue():
    sched = Scheduler({0: 1e6})
    first, second = sched.schedule_segments([seg(index=0, total=2), seg(index=1, total=2)], now=0)
    got = sched.next_segment(0, now=10)
    assert got is first
    sched.on_loss([first], now=1000)
    assert sched.next_segment(0, now=2000) is first  # ahead of the unsent one
    assert sched.next_segment(0, now=2000) is second


def test_acked_entry_skipped_in_queue():
    sched = Scheduler({0: 1e6})
    (entry,) = sched.schedule_segments([seg()], now=0)
    sched.next_segment(0, now=0)
    sched.on_loss([entry], now=1000)       # queued for retransmit
    sched.mark_acked(entry)                # ack raced the retransmission
    assert sched.next_segment(0, now=2000) is None
    assert sched.subflows[0].queued_bytes == 0


def test_evict_rules():
    sched = make_two()
    key, old = sched.schedule_segments([seg(key=True), seg(frame_index=1)], now=0)
    send_all(sched, 0, 0)
    send_all(sched, 1, 0)
    (fresh,) = sched.schedule_segments([seg(frame_index=2)], now=350_000)
    send_all(sched, sid_of(sched, fresh), 350_000)
    (unsent,) = sched.schedule_segments([seg(frame_index=3)], now=380_000)
    sids, _ = sched.on_loss([key, old, fresh], now=390_000)  # all young: requeued
    assert len(sids) == 3
    evicted = sched.evict(now=401_000)
    assert evicted == [old]
    assert set(queued(sched)) == {key, fresh, unsent}  # key frames never age out
    assert not unsent.sent                 # unsent entries are never age-evicted
    sched.mark_acked(key)
    assert key not in send_all(sched, sid_of(sched, key), 402_000)


def test_evict_clears_stale_requeued_entries():
    sched = Scheduler({0: 1e6})
    (entry,) = sched.schedule_segments([seg()], now=0)
    sched.next_segment(0, now=0)
    sched.on_loss([entry], now=399_000)    # requeued just inside the window
    evicted = sched.evict(now=450_000)     # ages out while waiting to resend
    assert evicted == [entry]
    assert sched.subflows[0].queued_bytes == 0
    assert sched.next_segment(0, now=460_000) is None


def test_evict_drops_but_does_not_report_entry_acked_while_requeued():
    sched = Scheduler({0: 1e6})
    (entry,) = sched.schedule_segments([seg()], now=0)
    sched.next_segment(0, now=0)
    sched.on_loss([entry], now=100_000)    # young, so requeued for resend
    sched.mark_acked(entry)                # the original copy's ack arrives
    assert sched.evict(now=500_000) == []
    assert not sched.subflows[0].queue
    assert sched.subflows[0].queued_bytes == 0


def test_evict_on_a_mixed_queue_matches_a_full_scan():
    """Resends (an expired delta, a live delta, a key frame) lead the queue
    and fresh entries follow: evict removes and returns what a scan of every
    entry would, keeps the order of the rest, and stops at the first fresh
    entry, so even a fresh entry given a past deadline stays."""
    sched = Scheduler({0: 1e6})
    stale, key, young = sched.schedule_segments(
        [seg(frame_index=0), seg(frame_index=1, key=True), seg(frame_index=2)], now=0)
    sched.next_segment(0, now=0)
    sched.next_segment(0, now=0)
    sched.next_segment(0, now=300_000)
    fresh = sched.schedule_segments([seg(frame_index=3), seg(frame_index=4)], now=350_000)
    sched.on_loss([young, stale, key], now=360_000)  # all young enough to resend
    queue = sched.subflows[0].queue
    assert list(queue) == [key, stale, young, *fresh]
    now = 450_000
    expected = [e for e in queue if now > e.expires_at]
    assert expected == [stale]
    for entry in fresh:
        entry.expires_at = 0  # a scan past the first fresh entry would evict it
    assert sched.evict(now) == expected
    assert list(queue) == [key, young, *fresh]
    assert sched.subflows[0].queued_bytes == sum(e.size for e in queue)


def test_loss_of_an_acked_entry_changes_nothing():
    sched = make_two()
    (entry,) = sched.schedule_segments([seg()], now=0)
    sched.next_segment(sid_of(sched, entry), now=0)
    (waiting,) = sched.schedule_segments([seg(frame_index=1)], now=0)
    sched.mark_acked(entry)                # the ack beat the loss timer's verdict
    before = {sid: sub.queued_bytes for sid, sub in sched.subflows.items()}
    assert sched.on_loss([entry], now=1000) == ([], [])
    assert queued(sched) == [waiting]
    assert {sid: sub.queued_bytes for sid, sub in sched.subflows.items()} == before


# --- against the reference scheduler ------------------------------------------

def entry_fields(entry):
    return entry.sent, entry.expires_at, entry.acked, entry.size


def reference_fields(ref):
    """entry_fields of the reference's entry, its deadline derived from its
    first send and key-frame flag."""
    deadline = ref.first_sent_ts + RETENTION_US if ref.sent and not ref.key_frame else math.inf
    return ref.sent, deadline, ref.acked, ref.size


def entry_key(entry):
    return None if entry is None else (entry.segment.frame_index, entry.segment.segment_index)


def keys(entries):
    return [entry_key(e) for e in entries]


def assert_same_state(new, old, new_entries, old_entries):
    # The reference also logs every subflow's expected latency, so its log
    # shows that each assignment took the argmin, ties to the lower id.
    assert list(new.decision_log) == [e[:4] for e in old.decision_log]
    for *_, chosen, lambdas in old.decision_log:
        assert chosen == min(range(len(lambdas)), key=lambda i: (lambdas[i], i))
    assert not old.unassigned  # every estimate is positive: nothing waits unassigned
    for sid, sub in new.subflows.items():
        ref = old.subflows[sid]
        assert keys(sub.queue) == keys(ref.queue)
        assert (sub.queued_bytes, sub.srtt, sub.bw_es) == (ref.queued_bytes, ref.srtt, ref.bw_es)
        assert sub.queued_bytes == sum(wire_size(e.segment) for e in sub.queue)
    for k, entry in new_entries.items():
        assert entry_fields(entry) == reference_fields(old_entries[k])


# One step of the oracle test: (clock advance, operation, subflow, offset
# from the acted-on entry's retention edge or None, indices into the entries
# an operation can act on, frame size, key frame, bandwidth, RTT sample).
STEP = st.tuples(
    st.integers(0, 150_000),
    st.sampled_from(["frame", "send", "send", "loss", "loss", "ack", "late ack",
                     "bw", "srtt", "evict", "evict"]),
    st.sampled_from([0, 1]),
    st.sampled_from([None, -1, 0, 1]),
    st.lists(st.integers(0, 63), min_size=1, max_size=4),
    st.integers(1, 3 * PAYLOAD_BUDGET),
    st.booleans(),
    st.sampled_from([5e5, 1.3e6, 2e6, 8e6]),
    st.integers(10_000, 300_000),
)


def retention_edge(entry, now, offset):
    """now, or the later time offset past a sent delta entry's deadline,
    when an offset was drawn."""
    if entry is None or offset is None or entry.expires_at == math.inf:
        return now
    return max(now, entry.expires_at + offset)


def edge_case(*ops):
    """Steps from (op, retention-edge offset) pairs, with a one-segment delta
    frame on subflow 0 and every other field at its simplest."""
    return [(0, op, 0, offset, [0], 100, False, 5e5, 10_000) for op, offset in ops]


@settings(max_examples=200, deadline=None)
@given(st.lists(STEP, min_size=20, max_size=50))
# A delta segment lost when its age is exactly RETENTION_US is resent.
@example(edge_case(("frame", None), ("send", None), ("loss", 0)))
# A delta segment whose resend is due exactly RETENTION_US after its first
# send is sent again.
@example(edge_case(("frame", None), ("send", None), ("loss", None), ("send", 0)))
# A stale resend acked while queued is evicted but not reported.
@example(edge_case(("frame", None), ("send", None), ("loss", None), ("late ack", None),
                   ("evict", 1)))
def test_matches_reference_scheduler(steps):
    """The scheduler and the reference one, which also keeps a retained set,
    go through the same frames, sends, losses, acks (also late acks that race
    a queued resend), estimate updates and evictions, and must make the same
    decisions and hold the same state after every step.
    evict reports only what it removes from a queue, so its result is
    compared with the reference's restricted to entries queued before the
    call, as a multiset: the reference lists them in first-send order."""
    args = dict(bw0=2e6, bw1=1.3e6, srtt0=80_000, srtt1=120_000)
    new = make_two(**args)
    old = make_two(**args, cls=reference_scheduler.Scheduler)
    new_entries, old_entries = {}, {}
    in_flight = []  # sent, and neither reported lost nor acked since
    unacked = []    # sent and not acked, whether in flight or not
    now = 0
    for frame_index, (advance, op, sid, offset, picks, size, key, bw, sample) \
            in enumerate(steps):
        now += advance
        if op == "frame":
            segments = packetize(size, frame_index, now, key)
            for entry, ref in zip(new.schedule_segments(segments, now),
                                  old.schedule_segments(segments, now)):
                new_entries[entry_key(entry)] = entry
                old_entries[entry_key(ref)] = ref
        elif op == "send":
            now = retention_edge(next(iter(new.subflows[sid].queue), None), now, offset)
            k = entry_key(new.next_segment(sid, now))
            assert k == entry_key(old.next_segment(sid, now))
            if k is not None:
                in_flight.append(k)
                if k not in unacked:
                    unacked.append(k)
        elif op == "loss" and in_flight:
            lost = list(dict.fromkeys(in_flight[i % len(in_flight)] for i in picks))
            now = retention_edge(new_entries[lost[0]], now, offset)
            in_flight = [k for k in in_flight if k not in lost]
            sids, dropped = new.on_loss([new_entries[k] for k in lost], now)
            ref_sids, ref_dropped = old.on_loss([old_entries[k] for k in lost], now)
            assert (sids, keys(dropped)) == (ref_sids, keys(ref_dropped))
        elif op in ("ack", "late ack"):
            # A late ack is the first copy's, for a segment requeued on loss.
            ackable = in_flight if op == "ack" else [k for k in keys(queued(new))
                                                    if k in unacked]
            if ackable:
                k = ackable[picks[0] % len(ackable)]
                unacked.remove(k)
                if k in in_flight:
                    in_flight.remove(k)
                new.mark_acked(new_entries[k])
                old.mark_acked(old_entries[k])
        elif op == "bw":
            new.set_bw_es(sid, bw)
            old.set_bw_es(sid, bw)
        elif op == "srtt":
            assert new.update_srtt(sid, sample) == old.update_srtt(sid, sample)
        elif op == "evict":
            was_queued = keys(queued(new))
            requeued = [k for k in was_queued if new_entries[k].sent]
            if requeued:
                now = retention_edge(new_entries[requeued[picks[0] % len(requeued)]], now, offset)
            evicted = keys(new.evict(now))
            ref_evicted = keys(old.evict(now))
            assert Counter(evicted) == Counter(k for k in ref_evicted if k in was_queued)
        assert_same_state(new, old, new_entries, old_entries)
