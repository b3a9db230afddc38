"""End-to-end pins and invariants for the session layer.

Each scenario is built only from the public API (build_topology,
TraceSchedule, synthetic_trace_pool, VideoSession, CappedFlow and
EventLoop.run) and pinned by the sha256 of what a user of the run sees:
path selections, delivered (frame index, delivery time), abandoned frames
and packets lost.  A refactor of the session layer must leave every pin
unchanged.
"""

import functools
import hashlib
import json
import os
import random
import subprocess
import sys
from contextlib import contextmanager
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from mprtc import scheduler, session as session_module, simnet, transport
from mprtc.congestion import CONTROLLERS
from mprtc.scheduler import DECISION_LOG_LEN, wire_size
from mprtc.session import CappedFlow, PathConnection, VideoSession
from mprtc.simnet import EventLoop, TraceSchedule, build_topology, synthetic_trace_pool
import reference_scheduler
from reference_bbr import ReferenceBbrController
from reference_transport import ReferenceSendManager, pacer_next_send_time
from test_simnet import RTT_CASE3_LINKS

US_PER_S = 1_000_000
TESTS_DIR = Path(__file__).resolve().parent

UCB_PIN = "151325b9e68a3bc888d19bf5c72f32f247d252919d2360a41659dab552b779fc"
COLLAPSE_PIN = "3393726e249d50b14a0c788ed3abab6ef67f5d0eae73767b748a59052447d908"
DUMBBELL_PIN = "bbfc5a1ff522a87e636dd91250861f5d80fe1f45bf3bb5172587750e707cfd6a"
STOCK_BBR_PIN = "13cddec9e4ca449f89ec76de391249e1f32ccedacc7f8bc212e12066bcad2532"
RTT_UNFAIRNESS_PIN = "efcbfd97639ff5b8350f1247cc296a40e9bb5f91f8cc67c252726f94337d31c2"


def sha256_of(value) -> str:
    return hashlib.sha256(json.dumps(value, separators=(",", ":")).encode()).hexdigest()


def run_overlay(traces, seed: int, sim_s: int, scheme: str = "ucb",
                each_second=None) -> VideoSession:
    """Run a session for sim_s seconds, calling each_second(loop, session)
    after every whole second if it is given."""
    loop = EventLoop()
    rng = random.Random(seed)
    net = build_topology(loop, {"topology": "multipath-overlay"}, rng=rng, traces=traces)
    session = VideoSession(loop, rng, net.candidates, scheme=scheme)
    session.start(0)
    for s in range(1, sim_s + 1):
        loop.run(s * US_PER_S)
        if each_second is not None:
            each_second(loop, session)
    return session


def overlay_digest(session: VideoSession) -> str:
    sink = session.sink
    return sha256_of([
        session.selections,
        [(f.frame_index, f.delivered_ts) for f in sink.delivered],
        sink.abandoned,
        session.lost_packets,
    ])


def collapse_traces():
    """Direct paths at 4 and 3 Mbps that drop to 10 kbps from 10 s to 25 s;
    relay paths steady at 1.2 and 1 Mbps."""
    traces = []
    for direct_bps, relay_bps in ((4_000_000, 1_200_000), (3_000_000, 1_000_000)):
        traces.append(TraceSchedule([(0, direct_bps), (10 * US_PER_S, 10_000),
                                     (25 * US_PER_S, direct_bps)]))
        traces.append(TraceSchedule([(0, relay_bps)]))
    return traces


def run_collapse() -> VideoSession:
    return run_overlay(collapse_traces(), seed=5, sim_s=30)


def assert_send_state_consistent(sm) -> None:
    assert sm.inflight >= 0
    assert sm.inflight == sum(rec.size for rec in sm.records.values())
    # SendManager finds the oldest record and the lost ones by walking
    # records from the front; that needs send order in both keys and times.
    numbers = list(sm.records)
    assert all(a < b for a, b in zip(numbers, numbers[1:]))
    sent = [rec.sent_ts for rec in sm.records.values()]
    assert all(a <= b for a, b in zip(sent, sent[1:]))


def assert_one_live_timer_each(loop, session=None, send_managers=()) -> None:
    """Each subflow has at most one live pump timer and each SendManager at
    most one live loss timer in the heap, and it is the handle its owner holds."""
    owners = [(sm._on_loss_timer, (), sm._loss_timer) for sm in send_managers]
    if session is not None:
        owners += [(session._pump, (sid,), session._pump_timers[sid])
                   for sid in session.sids]
    live = [entry for entry in loop._heap if entry[2] is not None]
    for fn, args, handle in owners:
        entries = [entry for entry in live if entry[2] == fn and entry[3] == args]
        assert len(entries) <= 1 and all(entry is handle for entry in entries)


def assert_one_live_pump_each(loop, flows) -> None:
    """The live _pump entries of each CappedFlow in the heap are exactly its
    _pump_timer, or none once that handle is dead: then only an ack or a
    loss pumps it again."""
    live = [entry for entry in loop._heap if entry[2] is not None]
    for flow in flows:
        pumps = [entry for entry in live if entry[2] == flow._pump]
        handle = flow._pump_timer
        assert pumps == ([handle] if handle[2] is not None else [])
        assert all(entry is handle for entry in pumps)


def assert_frames_conserved(session: VideoSession) -> None:
    """Every captured frame is in exactly one sender state, and the sink
    holds each encoded frame in at most one receiver state."""
    source, sink = session.source, session.sink
    dropped = [fi for fi, _, _, _, was_dropped in source.frame_log if was_dropped]
    encoded = [fi for fi, _, _, _, was_dropped in source.frame_log if not was_dropped]
    raw_queued = [raw.frame_index for raw in source.raw_queue]
    assert source.frames_dropped == len(dropped)
    # The encoder holds one frame while busy and none otherwise; it is the
    # captured frame found in no other sender state.
    sender = dropped + encoded + raw_queued
    assert len(set(sender)) == len(sender)
    assert set(sender) <= set(range(source.frames_captured))
    assert source.frames_captured - len(sender) == int(source.busy)

    receiver = ([f.frame_index for f in sink.delivered]
                + [fi for fi, _, _, _ in sink.abandoned]
                + list(sink.pending) + list(sink._ready))
    assert len(set(receiver)) == len(receiver)
    assert set(receiver) <= set(encoded)


def assert_overlay_invariants(session: VideoSession) -> None:
    assert_frames_conserved(session)
    sink = session.sink
    indices = [f.frame_index for f in sink.delivered]
    assert all(a < b for a, b in zip(indices, indices[1:]))
    assert [a for a in sink.abandoned if a[2]] == []
    for conn in session.paths.values():
        assert_send_state_consistent(conn.sm)
    for sub in session.scheduler.subflows.values():
        assert sub.queued_bytes == sum(wire_size(e.segment) for e in sub.queue)
        sent = [e.sent for e in sub.queue]
        assert sent == sorted(sent, reverse=True)  # no unsent entry precedes a sent one
    assert_entries_outstanding_once(session)
    assert_paused_exactly_when_inactive(session)


def assert_paused_exactly_when_inactive(session: VideoSession) -> None:
    """A path's controller is paused exactly when the path is not its
    subflow's active one, so either fact tells whether a path takes samples."""
    for conn in session.paths.values():
        assert (conn.cc.pause_started is not None) == (conn is not session.active[conn.sid])


def assert_scheduler_rates_current(session: VideoSession) -> None:
    """Each subflow's rate in the scheduler is its active controller's bw_es:
    what set_bw_es was last given is never stale."""
    for sid in session.sids:
        assert session.scheduler.subflows[sid].bw_es == session.active[sid].cc.bw_es


def assert_entries_outstanding_once(session: VideoSession) -> None:
    """A send-buffer entry is the context of at most one outstanding record,
    and is never queued while it is: so none of the entries an ack marks
    acked is one that a loss the same ack declares could send again."""
    outstanding = [id(rec.context) for conn in session.paths.values()
                   for rec in conn.sm.records.values()]
    assert len(set(outstanding)) == len(outstanding)
    queued = {id(e) for sub in session.scheduler.subflows.values() for e in sub.queue}
    assert queued.isdisjoint(outstanding)


def test_overlay_ucb_pinned():
    pool = synthetic_trace_pool()
    session = run_overlay([pool[i] for i in (17, 96, 12, 79)], seed=11, sim_s=10)
    assert_overlay_invariants(session)
    assert len(session.sink.delivered) > 200
    assert session.lost_packets > 0
    assert overlay_digest(session) == UCB_PIN


def test_overlay_collapse_pinned():
    session = run_collapse()
    assert_overlay_invariants(session)
    assert session.lost_packets > 0
    # The outage makes the bandit move at least one subflow off its direct path.
    assert {pid for _, _, pid in session.selections} - {0, 2}
    # 30 s assigns several thousand segments; the log keeps only the last.
    assert len(session.scheduler.decision_log) == DECISION_LOG_LEN
    assert overlay_digest(session) == COLLAPSE_PIN


def start_counting_losses(flows) -> list:
    """Start the flows; the list returned counts each one's lost packets."""
    lost = [0] * len(flows)
    for i, flow in enumerate(flows):
        def counting(records, i=i, hook=flow.sm.loss_hook):
            lost[i] += len(records)
            hook(records)
        flow.sm.loss_hook = counting
        flow.start()
    return lost


def test_dumbbell_pinned():
    loop = EventLoop()
    rng = random.Random(23)
    link = {"id": "L1", "capacity_mbps": 10, "owd_ms": 20, "queue_ms": 100}
    net = build_topology(loop, {"topology": "dumbbell", "links": [link],
                                "flows": [{}, {}, {}]})
    flows = [CappedFlow(loop, rng, path, conn_id=i, rate_cap_bps=10_000_000,
                        start_ts=i * 4 * US_PER_S)
             for i, path in enumerate(net.flow_paths)]
    lost = start_counting_losses(flows)
    loop.run(15 * US_PER_S)
    for flow in flows:
        assert_send_state_consistent(flow.sm)
        assert flow.rm.data_packets <= flow.sm.packets_sent
        assert flow.rm.bytes_received > 0
    assert sum(lost) > 0
    assert sha256_of([[f.rm.bytes_received, f.sm.packets_sent, n]
                      for f, n in zip(flows, lost)]) == DUMBBELL_PIN


def test_rtt_unfairness_pinned():
    """Two RTC-BBR flows share the 4 Mbit/s L1, flow 0 at an 80 ms and flow 1
    at a 100 ms round trip.  Over 20 s flow 0 receives 1.87 and flow 1
    2.05 Mbit/s, a throughput ratio of 0.91 (short RTT over long)."""
    loop = EventLoop()
    rng = random.Random(23)
    net = build_topology(loop, {"topology": "rtt-unfairness", "links": RTT_CASE3_LINKS})
    flows = [CappedFlow(loop, rng, path, conn_id=i, rate_cap_bps=10_000_000)
             for i, path in enumerate(net.flow_paths)]
    lost = start_counting_losses(flows)
    loop.run(20 * US_PER_S)
    for flow in flows:
        assert_send_state_consistent(flow.sm)
    received = [flow.rm.bytes_received for flow in flows]
    assert round(received[0] / received[1], 2) == 0.91
    assert sha256_of([[n, lost_n] for n, lost_n in zip(received, lost)]) == RTT_UNFAIRNESS_PIN


def test_stock_bbr_dumbbell_pinned():
    """Two flows of the classic 8-phase ProbeBW cycle on one bottleneck: no
    other session test runs the "bbr" variant.  Each second every flow's
    inflight matches its records and it has at most one live pump."""
    def run():
        loop = EventLoop()
        rng = random.Random(23)
        link = {"id": "L1", "capacity_mbps": 10, "owd_ms": 20, "queue_ms": 100}
        net = build_topology(loop, {"topology": "dumbbell", "links": [link],
                                    "flows": [{}, {}]})
        flows = [CappedFlow(loop, rng, path, variant="bbr", conn_id=i,
                            rate_cap_bps=10_000_000, start_ts=i * 2 * US_PER_S)
                 for i, path in enumerate(net.flow_paths)]
        lost = start_counting_losses(flows)
        for s in range(1, 16):
            loop.run(s * US_PER_S)
            assert_one_live_pump_each(loop, flows)
            for flow in flows:
                assert_send_state_consistent(flow.sm)
        # Both left Drain, so every later sample ran the stock gain cycle.
        assert all(flow.cc.mode == "ProbeBW" for flow in flows)
        return sha256_of([[f.rm.bytes_received, f.sm.packets_sent, n]
                          for f, n in zip(flows, lost)])

    assert run() == run() == STOCK_BBR_PIN


@contextmanager
def reference_stack():
    """Build every session and flow made inside it from the oracles in tests/:
    the send manager and the scheduler that mprtc.session names, and for
    each variant in CONTROLLERS the reference controller of that variant.
    A MonkeyPatch context of its own, so a Hypothesis example can use it."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(session_module, "SendManager", ReferenceSendManager)
        patch.setattr(session_module, "Scheduler", reference_scheduler.Scheduler)
        for variant in CONTROLLERS:
            patch.setitem(CONTROLLERS, variant,
                          functools.partial(ReferenceBbrController, variant=variant))
        yield


def test_reference_stack_reproduces_the_pins():
    """On the reference stack every session and flow gives the pinned
    digests: each fast path agrees with its oracle end to end, not only
    unit by unit."""
    with reference_stack():
        test_overlay_ucb_pinned()
        test_overlay_collapse_pinned()
        test_dumbbell_pinned()
        test_rtt_unfairness_pinned()
        test_stock_bbr_dumbbell_pinned()


def test_earlier_pump_timer_replaces_later_one():
    loop = EventLoop()
    rng = random.Random(5)
    net = build_topology(loop, {"topology": "multipath-overlay"}, rng=rng,
                         traces=collapse_traces())
    session = VideoSession(loop, rng, net.candidates)
    sid = session.sids[0]
    segments = transport.packetize(20 * transport.PAYLOAD_BUDGET, 0, 0, True)
    session.scheduler.schedule_segments(segments, 0)
    assert session.scheduler.subflows[sid].queued_bytes > 0
    conn = session.active[sid]
    # The pacer holds the subflow until next_send_ts, so _pump arms a timer.
    # A replaced timer left live would fire too, pumping the subflow twice.
    for send_ts, live in ((200, [200]), (100, [100]), (300, [100])):
        conn.next_send_ts = send_ts
        session._pump(sid)
        assert [entry[0] for entry in loop._heap if entry[2] == session._pump
                and entry[3] == (sid,)] == live


def test_pump_sends_nothing_when_only_an_expired_resend_is_queued():
    # next_segment discards a queued delta resend past RETENTION_US and finds
    # nothing else: the pump must stop without sending or arming a timer.
    loop = EventLoop()
    rng = random.Random(5)
    net = build_topology(loop, {"topology": "multipath-overlay"}, rng=rng,
                         traces=collapse_traces())
    session = VideoSession(loop, rng, net.candidates)
    sched = session.scheduler
    sid = session.sids[0]
    (entry,) = sched.schedule_segments(transport.packetize(500, 1, 0, False), 0)
    assert sched.next_segment(sid, 0) is entry  # first sent at 0
    assert sched.on_loss([entry], scheduler.RETENTION_US) == ([sid], [])  # requeued, not yet expired
    sub = sched.subflows[sid]
    assert list(sub.queue) == [entry]
    loop.run(scheduler.RETENTION_US + 1)
    conn = session.active[sid]
    # pacer due, cwnd open
    assert conn.next_send_ts <= loop.now and conn.sm.inflight + transport.MSS <= conn.cc.cwnd
    session._pump(sid)
    assert conn.sm.packets_sent == 0
    assert session._pump_timers[sid] is None
    assert [e for e in loop._heap if e[2] is not None] == []
    assert sub.queued_bytes == 0 and not sub.queue


def test_collapse_digest_independent_of_hash_seed():
    code = "import test_session as t; print(t.overlay_digest(t.run_collapse()))"
    path = os.pathsep.join([str(TESTS_DIR.parent / "src"), str(TESTS_DIR)])
    digests = []
    for hash_seed in ("1", "2"):
        env = {**os.environ, "PYTHONHASHSEED": hash_seed, "PYTHONPATH": path}
        proc = subprocess.run([sys.executable, "-c", code], env=env, cwd=TESTS_DIR,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        digests.append(proc.stdout.strip())
    assert digests == [COLLAPSE_PIN, COLLAPSE_PIN]


@pytest.mark.parametrize("queue_ms", [1, 2_000])
def test_collapse_with_queues_not_from_trace_means_keeps_invariants(monkeypatch, queue_ms):
    """Access queues sized by a queueing time other than the default 200 ms:
    at 1 ms every one sits at its 6,000-byte floor, at 2 s far above it."""
    monkeypatch.setattr(simnet, "TRACE_QUEUE_MS", queue_ms)

    def checked(loop, session):
        sms = [conn.sm for conn in session.paths.values()]
        assert_one_live_timer_each(loop, session, sms)
        for sm in sms:
            assert_send_state_consistent(sm)
        assert_entries_outstanding_once(session)
        assert_scheduler_rates_current(session)
        assert_paused_exactly_when_inactive(session)

    session = run_overlay(collapse_traces(), seed=5, sim_s=30, each_second=checked)
    access = [conn.path.route[0].queue_capacity for conn in session.paths.values()]
    if queue_ms == 1:
        assert set(access) == {6_000}
    else:
        assert min(access) > 10 * 6_000
    assert_overlay_invariants(session)
    assert overlay_digest(run_overlay(collapse_traces(), seed=5, sim_s=30)) == \
        overlay_digest(session)


@pytest.mark.parametrize("scheme, pin", [
    ("default", "c884f2b345ff632b714a9a8337505649fa1921082fb25ad31eccd9e9f87d67a4"),
    ("oracle", "cb44a6eec4eb30e5b08f31582266661f18c868083df7a09edf25a7566a93accb"),
], ids=["default", "oracle"])
def test_other_schemes_keep_invariants(scheme, pin):
    session = run_overlay(collapse_traces(), seed=5, sim_s=15, scheme=scheme)
    assert_overlay_invariants(session)
    assert len(session.sink.delivered) > 0
    assert overlay_digest(session) == pin


def test_wire_size_computed_once_per_segment(monkeypatch):
    """A segment's wire size is worked out when it enters the send buffer;
    sends and retransmissions reuse it."""
    calls = []
    segments = []

    def counted_wire_size(segment):
        calls.append(segment)
        return wire_size(segment)

    def counted_packetize(*args):
        out = packetize(*args)
        segments.extend(out)
        return out

    packetize = session_module.packetize
    monkeypatch.setattr(scheduler, "wire_size", counted_wire_size)
    monkeypatch.setattr(transport, "wire_size", counted_wire_size)
    monkeypatch.setattr(session_module, "packetize", counted_packetize)
    session = run_overlay(collapse_traces(), seed=5, sim_s=12)  # 2 s into the outage
    sent = sum(conn.sm.packets_sent for conn in session.paths.values())
    assert sent > len(segments) > 0  # some segments were sent more than once
    assert len(calls) == len(segments)


@pytest.mark.parametrize("cap", [0, -5, float("nan"), True, False, "5", None])
def test_rate_cap_must_be_a_positive_number(cap):
    loop = EventLoop()
    net = build_topology(loop, {"topology": "dumbbell", "links": [
        {"capacity_mbps": 10, "owd_ms": 20, "queue_ms": 100}]})
    with pytest.raises(ValueError, match="rate_cap_bps"):
        CappedFlow(loop, random.Random(1), net.flow_paths[0], rate_cap_bps=cap)
    with pytest.raises(ValueError, match="rate_cap_bps"):
        PathConnection(loop, random.Random(1), net.flow_paths[0], "rtc-bbr", 0, None,
                       rate_cap_bps=cap)


@pytest.mark.parametrize("t", [1.5, 1.0, True, -1, "0", None])
def test_start_times_must_be_whole_microseconds(t):
    # Simulated time is integer microseconds; a float time would spread to
    # every event and pacer time the flow or session schedules after it.
    loop = EventLoop()
    rng = random.Random(5)
    net = build_topology(loop, {"topology": "dumbbell", "links": [
        {"capacity_mbps": 10, "owd_ms": 20, "queue_ms": 100}]})
    with pytest.raises(ValueError, match=rf"^start_ts must be an int of at least 0, got {t!r}$"):
        CappedFlow(loop, rng, net.flow_paths[0], rate_cap_bps=10_000_000, start_ts=t)
    overlay = build_topology(loop, {"topology": "multipath-overlay"}, rng=rng,
                             traces=collapse_traces())
    session = VideoSession(loop, rng, overlay.candidates)
    with pytest.raises(ValueError, match=rf"^now must be an int of at least 0, got {t!r}$"):
        session.start(t)
    assert loop.pending() == 0


def test_session_started_in_the_past_is_left_unstarted():
    loop = EventLoop()
    rng = random.Random(5)
    net = build_topology(loop, {"topology": "multipath-overlay"}, rng=rng,
                         traces=collapse_traces())
    session = VideoSession(loop, rng, net.candidates)
    loop.run(1_000)
    with pytest.raises(simnet.SchedulingError):
        session.start(10)
    assert loop.pending() == 0
    assert all(conn.cc.pause_started is None for conn in session.paths.values())


class NullLink:
    owd_us = 0

    def enqueue(self, packet):
        pass


@settings(max_examples=300, deadline=None)
@given(now=st.integers(0, 10**12), size=st.integers(1, transport.MSS),
       rate=st.floats(1, 1e18),
       cap=st.one_of(st.just(float("inf")), st.floats(1, 1e18)))
def test_data_send_moves_the_pacer_past_now(now, size, rate, cap):
    """PathConnection.send leaves next_send_ts after now, at the pacer time
    of its clamped rate: the one-send-per-pump rule of both pumps rests on it."""
    loop = EventLoop()
    conn = PathConnection(loop, random.Random(1), simnet.PathDef(0, (NullLink(),)),
                          "rtc-bbr", 0, None, rate_cap_bps=cap)
    conn.cc.pacing_rate = rate
    conn.send(transport.StreamFrame(size, 0, now, 1, 0, False), size, now, False)
    assert conn.next_send_ts == pacer_next_send_time(now, size, min(rate, cap))
    assert conn.next_send_ts > now


def test_variant_validation():
    """An unknown variant is refused by the flow or session that names it,
    before either schedules anything."""
    loop = EventLoop()
    rng = random.Random(5)
    net = build_topology(loop, {"topology": "dumbbell", "links": [
        {"capacity_mbps": 10, "owd_ms": 20, "queue_ms": 100}]})
    with pytest.raises(ValueError, match=r"^unknown variant 'cubic'$"):
        CappedFlow(loop, rng, net.flow_paths[0], variant="cubic", rate_cap_bps=10_000_000)
    overlay = build_topology(loop, {"topology": "multipath-overlay"}, rng=rng,
                             traces=collapse_traces())
    with pytest.raises(ValueError, match=r"^unknown variant 'cubic'$"):
        VideoSession(loop, rng, overlay.candidates, variant="cubic")
    assert loop.pending() == 0


def test_subflow_without_candidate_is_rejected():
    loop = EventLoop()
    rng = random.Random(5)
    net = build_topology(loop, {"topology": "multipath-overlay"}, rng=rng,
                         traces=collapse_traces())
    (p0, p1), (p2, p3) = net.candidates[0], net.candidates[1]
    # A path id listed twice, across two subflows or within one, is refused
    # in the same check: connections and the ucb policy are keyed by id.
    for candidates, message in (({0: [p0, p1], 1: []}, "subflow 1 has no candidate path"),
                                ({0: [p1, p0], 1: [p1, p3]}, "path 1 is listed twice"),
                                ({0: [p2, p2], 1: [p3]}, "path 2 is listed twice")):
        for scheme in ("ucb", "default", "oracle"):
            with pytest.raises(ValueError, match=f"candidates: {message}"):
                VideoSession(loop, rng, candidates, scheme=scheme)


def test_iterator_candidates_run_like_lists():
    """Each subflow's candidates are read once, so any iterable of paths
    gives the run a list gives, and an empty one is refused as a list is."""
    loop = EventLoop()
    rng = random.Random(11)
    pool = synthetic_trace_pool()
    net = build_topology(loop, {"topology": "multipath-overlay"}, rng=rng,
                         traces=[pool[i] for i in (17, 96, 12, 79)])
    session = VideoSession(loop, rng, {sid: iter(paths) for sid, paths in net.candidates.items()})
    session.start(0)
    loop.run(10 * US_PER_S)
    assert overlay_digest(session) == UCB_PIN  # the list form's pin
    with pytest.raises(ValueError, match="candidates: subflow 0 has no candidate path"):
        VideoSession(loop, rng, {0: iter([])})


RTT_LINKS = [{"id": f"L{i}", "capacity_mbps": 10, "owd_ms": 5, "queue_ms": 50} for i in range(5)]


@pytest.mark.parametrize("config", [
    {"topology": "dumbbell", "links": [{"capacity_mbps": 10, "owd_ms": 20, "queue_ms": 100}]},
    {"topology": "rtt-unfairness", "links": RTT_LINKS},
], ids=["dumbbell", "rtt-unfairness"])
def test_oracle_refuses_a_candidate_without_trace(config):
    # Only overlay paths carry a capacity trace; the oracle reads one at every
    # decision, so an untraced candidate is refused when the session is built.
    loop = EventLoop()
    rng = random.Random(5)
    flow_paths = build_topology(loop, config).flow_paths
    overlay = build_topology(loop, {"topology": "multipath-overlay"}, rng=rng,
                             traces=collapse_traces())
    for candidates, path_id in (({0: [flow_paths[0]], 1: [flow_paths[1]]}, 0),
                                ({0: [overlay.candidates[0][0]], 1: [flow_paths[1]]}, 1)):
        with pytest.raises(ValueError, match=f"candidates: path {path_id} has no capacity trace"):
            VideoSession(loop, rng, candidates, scheme="oracle")
        for scheme in ("ucb", "default"):
            VideoSession(loop, rng, candidates, scheme=scheme)


# --- generated scenarios ------------------------------------------------------

OUTAGE_BPS = 10_000


@st.composite
def step_traces(draw):
    """Four step traces (one per overlay path) of 1-4 steps lasting 0.5-4 s,
    each at an outage rate of 10 kbps or at 0.2-6 Mbps."""
    traces = []
    for _ in range(4):
        entries = []
        t = 0
        for _ in range(draw(st.integers(1, 4))):
            rate = draw(st.one_of(st.just(OUTAGE_BPS), st.integers(200_000, 2_000_000),
                                  st.integers(2_000_001, 6_000_000)))
            entries.append((t, rate))
            t += draw(st.integers(500, 4_000)) * 1_000
        traces.append(entries)
    return traces


@settings(max_examples=50, deadline=None, derandomize=True)
@given(step_traces(), st.integers(0, 2**32 - 1), st.integers(5, 10))
def test_generated_overlay_scenarios_keep_invariants(traces, seed, sim_s):
    def run(each_second=None):
        return run_overlay([TraceSchedule(entries) for entries in traces], seed, sim_s,
                           each_second=each_second)

    def checked(loop, session):
        sms = [conn.sm for conn in session.paths.values()]
        assert_one_live_timer_each(loop, session, sms)
        assert_scheduler_rates_current(session)
        assert_paused_exactly_when_inactive(session)

    session = run(checked)
    assert_overlay_invariants(session)
    digest = overlay_digest(session)
    assert overlay_digest(run()) == digest
    with reference_stack():
        assert overlay_digest(run()) == digest


@st.composite
def bottleneck_scenarios(draw):
    """A dumbbell or rtt-unfairness config, each link at 0.5-10 Mbit/s with a
    0-40 ms one-way delay and a queue of 1-40 full packets, and 1-4 flows of
    one variant: (config, number of flows, variant).  Only the dumbbell
    reads a flows list."""
    def link(link_id):
        capacity_mbps = draw(st.integers(500, 10_000)) / 1000
        packets = draw(st.one_of(st.just(1), st.integers(2, 40)))
        # The 0.1% margin keeps float rounding from shaving the last byte off.
        queue_ms = packets * transport.MSS * 8 / (capacity_mbps * 1000) * 1.001
        return {"id": link_id, "capacity_mbps": capacity_mbps,
                "owd_ms": draw(st.integers(0, 40)), "queue_ms": queue_ms}

    flows = draw(st.integers(1, 4))
    variant = draw(st.sampled_from(sorted(CONTROLLERS)))
    if draw(st.booleans()):
        config = {"topology": "dumbbell", "links": [link("L1")], "flows": [{}] * flows}
    else:
        config = {"topology": "rtt-unfairness", "links": [link(f"L{i}") for i in range(5)]}
    return config, flows, variant


def run_bottleneck(config, n_flows: int, variant: str, seed: int, sim_s: int):
    """n_flows CappedFlows of variant over a built topology, flow i on flow
    path i mod their number, started up to 1 s apart; returns the network
    and the flows.
    After every whole second each flow has at most one live loss timer and
    at most one live pump timer, none while it is blocked."""
    loop = EventLoop()
    rng = random.Random(seed)
    net = build_topology(loop, config)
    flows = []
    for i in range(n_flows):
        path = net.flow_paths[i % len(net.flow_paths)]
        flows.append(CappedFlow(loop, rng, path, variant=variant, conn_id=i,
                                rate_cap_bps=rng.randint(1, 12) * 1_000_000,
                                start_ts=rng.randint(0, US_PER_S)))
    for flow in flows:
        flow.start()
    for s in range(1, sim_s + 1):
        loop.run(s * US_PER_S)
        assert_one_live_timer_each(loop, send_managers=[flow.sm for flow in flows])
        assert_one_live_pump_each(loop, flows)
    return net, flows


@settings(max_examples=40, deadline=None, derandomize=True)
@given(bottleneck_scenarios(), st.integers(0, 2**32 - 1), st.integers(3, 8))
def test_generated_bottleneck_scenarios_keep_invariants(scenario, seed, sim_s):
    """Every arrival reaches a receiver that rejects any packet number not
    above the last, so a run that ends at all delivered in send order, drops
    included.  Queues down to one packet make those drops frequent."""
    net, flows = run_bottleneck(*scenario, seed, sim_s)
    for flow in flows:
        assert_send_state_consistent(flow.sm)
        assert flow.rm.data_packets <= flow.sm.packets_sent
        assert flow.rm.bytes_received <= flow.sm.packets_sent * transport.MSS
    for link in net.links.values():
        assert link.delivered + link.dropped + len(link.queue) == link.sent

    def outcome(flows):
        return [[f.rm.bytes_received, f.sm.packets_sent, f.rm.ack_ranges()[:1]]
                for f in flows]

    assert outcome(run_bottleneck(*scenario, seed, sim_s)[1]) == outcome(flows)
    with reference_stack():
        assert outcome(run_bottleneck(*scenario, seed, sim_s)[1]) == outcome(flows)
