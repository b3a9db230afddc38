"""Flow orchestration over simulated paths.

A PathConnection is one path's QUIC-like connection (SendManager and
ReceiveManager, so its own packet numbers and loss state) plus the
controller that congestion.CONTROLLERS builds for its variant, RTC-BBR or
stock BBR.  It hands each ack to its owner's _deliver_ack(conn, ack) once
the route's summed one-way delay has passed, and send moves its pacer time
next_send_ts on.  The owner decides what to send, learns what each ack
settled from the samples of SendManager.on_ack, and owns every scheduled
callback, the tick that calls SendManager.advance_stop_waiting too.  A
CappedFlow is a PathConnection fed by a saturating, rate-capped source (the
bottleneck-sharing experiments), and its own owner.  VideoSession drives
one per candidate path under the full stack: video source, per-segment
scheduler across two subflows, and slot-based path selection by the policy
that bandit.POLICIES builds for the session's scheme.  Its ``active`` map
alone says which path each subflow uses: only that path's controller runs,
takes samples and offers its bw_es to the policy.  The scheduler holds each
subflow's rate, its active controller's bw_es, and the encoder reads their
sum from it.

Both owners pump a path by one rule.  A send is due once next_send_ts is
not after now and cwnd has room for one more MSS.  A pump sends at most one
packet and then arms its timer at next_send_ts.  That is exact, not a
change of pacing: a data send always leaves next_send_ts after now, because
the pacer rounds any positive gap up to a whole microsecond.  A second look
within the same pump would only find the pacer not yet due and arm that
same timer.  The owners differ only in when they skip a pump: CappedFlow's
ack and loss handlers pump only once its timer is dead, and
VideoSession._pump returns at once while its live timer is due by the pacer.
"""

from __future__ import annotations

from .bandit import POLICIES, SLOT_US
from .congestion import CONTROLLERS
from .scheduler import Scheduler
from .simnet import US_PER_S
from .transport import (
    MSS,
    PAYLOAD_BUDGET,
    ReceiveManager,
    SendManager,
    StreamFrame,
    packetize,
)
from .videomodel import VideoSink, VideoSource

EVICT_TICK_US = 50_000


def _check_time(name: str, value) -> None:
    """Simulated time is whole microseconds: an int of at least 0, not a bool."""
    if not isinstance(value, int) or isinstance(value, bool) or value < 0:
        raise ValueError(f"{name} must be an int of at least 0, got {value!r}")


class PathConnection:
    """One path's connection and controller; pacing is clamped to rate_cap_bps."""

    __slots__ = ("loop", "path", "sid", "cc", "sm", "rm", "deliver_ack", "reverse_delay_us",
                 "rate_cap_bps", "next_send_ts")

    def __init__(self, loop, rng, path, variant: str, conn_id: int, deliver_ack, *,
                 sid: int = 0, rate_cap_bps: float = float("inf")):
        if (isinstance(rate_cap_bps, bool) or not isinstance(rate_cap_bps, (int, float))
                or not rate_cap_bps > 0):  # NaN > 0 is false, so NaN is refused
            raise ValueError(f"rate_cap_bps must be a positive number, got {rate_cap_bps!r}")
        if variant not in CONTROLLERS:
            raise ValueError(f"unknown variant {variant!r}")
        self.loop = loop
        self.path = path
        self.sid = sid
        self.cc = CONTROLLERS[variant](rng)
        self.sm = SendManager(loop, path.route)
        self.rm = ReceiveManager(loop, self._on_receiver_ack, conn_id)
        self.sm.receiver_sink = self.rm.on_packet
        self.deliver_ack = deliver_ack
        self.reverse_delay_us = sum(link.owd_us for link in path.route)
        self.rate_cap_bps = rate_cap_bps
        self.next_send_ts = 0

    def _on_receiver_ack(self, ack, now: int) -> None:
        self.loop.schedule(now + self.reverse_delay_us, self.deliver_ack, self, ack)

    def send(self, segment: StreamFrame, size: int, now: int, app_limited: bool,
             context=None) -> None:
        self.sm.send_segment(segment, size, now, app_limited, context)
        rate = self.cc.pacing_rate
        if rate > self.rate_cap_bps:
            rate = self.rate_cap_bps
        # The time size bytes take at rate, rounded up to a whole microsecond.
        self.next_send_ts = now + int(-(-size * 8 * US_PER_S // rate))


class CappedFlow(PathConnection):
    """Saturating single-path flow: a PathConnection fed by a source that
    sends whenever pacer and cwnd allow.

    The pacing rate is min(controller rate, rate_cap_bps), modeling an
    application that never offers more than the cap; ``math.inf`` leaves
    the flow uncapped.  Lost packets are not retransmitted; the
    receiver-side byte count is the throughput measure.  A segment's frame
    index is its packet's send count.
    """

    __slots__ = ("start_ts", "_pump_timer")

    def __init__(self, loop, rng, path, *, variant: str = "rtc-bbr",
                 conn_id: int = 0, rate_cap_bps: float, start_ts: int = 0):
        super().__init__(loop, rng, path, variant, conn_id, self._deliver_ack,
                         rate_cap_bps=rate_cap_bps)
        _check_time("start_ts", start_ts)
        self.start_ts = start_ts
        self.sm.loss_hook = self._on_loss
        self._pump_timer = None

    def start(self) -> None:
        self._pump_timer = self.loop.schedule(self.start_ts, self._pump)
        self.loop.schedule(self.start_ts + EVICT_TICK_US, self._floor_tick)

    def _floor_tick(self) -> None:
        # Nothing is ever retransmitted, so the stop-waiting floor is simply
        # the oldest packet still in flight.  Advancing it keeps the
        # receiver's ack-range set from growing a gap per lost packet.
        self.sm.advance_stop_waiting()
        self.loop.schedule(self.loop.now + EVICT_TICK_US, self._floor_tick)

    def _pump(self) -> None:
        # It returns only by arming _pump_timer or finding cwnd full, and
        # an ack or a loss pumps only once that timer is dead: at most one
        # is pending.
        now = self.loop.now
        ts = self.next_send_ts
        if ts <= now:
            if self.sm.inflight + MSS > self.cc.cwnd:
                return
            segment = StreamFrame(PAYLOAD_BUDGET, self.sm.packets_sent, now, 1, 0, False)
            self.send(segment, MSS, now, False)  # a full segment fills MSS exactly
            ts = self.next_send_ts
        self._pump_timer = self.loop.schedule(ts, self._pump)

    def _deliver_ack(self, conn: PathConnection, ack) -> None:
        now = self.loop.now
        cc = conn.cc
        for sample in conn.sm.on_ack(ack, now):
            cc.on_delivery_sample(sample, now)
        if self._pump_timer[2] is None:
            self._pump()

    def _on_loss(self, lost) -> None:
        if self._pump_timer[2] is None:
            self._pump()


class VideoSession:
    """One video flow spread over subflows, each with candidate paths.

    Every candidate path keeps its own connection (packet numbering, loss
    state) and congestion controller; controllers of unselected paths are
    paused so their clocks do not run while idle.  A decision timer asks
    the scheme's policy (bandit.POLICIES) for one path per subflow each slot.
    """

    def __init__(self, loop, rng, candidates: dict, *, scheme: str = "ucb",
                 variant: str = "rtc-bbr"):
        make_policy = POLICIES.get(scheme)
        if make_policy is None:
            raise ValueError(f"unknown scheme {scheme!r}")
        self.loop = loop
        self.sids = sorted(candidates)
        candidates = {sid: list(candidates[sid]) for sid in self.sids}  # iterables read once
        self.sink = VideoSink()
        self.selections: list[tuple[int, int, int]] = []
        self.lost_packets = 0
        self._pump_timers: dict[int, list | None] = {sid: None for sid in self.sids}

        self.paths: dict[int, PathConnection] = {}
        self.active: dict[int, PathConnection] = {}
        for sid, paths in candidates.items():  # in sid order
            if not paths:
                raise ValueError(f"candidates: subflow {sid} has no candidate path")
            for path in paths:
                if path.path_id in self.paths:
                    raise ValueError(f"candidates: path {path.path_id} is listed twice")
                conn = PathConnection(loop, rng, path, variant, path.path_id,
                                      self._deliver_ack, sid=sid)
                conn.rm.segment_sink = self.sink.on_segment
                conn.rm.stop_waiting_sink = self.sink.on_stop_waiting
                conn.sm.loss_hook = self._on_loss
                self.paths[path.path_id] = conn
            self.active[sid] = self.paths[paths[0].path_id]
        # Seeded from each first path's controller: schedulable before any ack.
        self.scheduler = Scheduler({sid: self.active[sid].cc.bw_es for sid in self.sids})
        self.policy = make_policy(candidates)

        self.source = VideoSource(
            loop, rng,
            frame_sink=self._on_encoded_frame,
            reference_rate_fn=self.scheduler.reference_rate,
            min_latency_fn=self.scheduler.min_latency,
        )

    def start(self, now: int = 0) -> None:
        _check_time("now", now)
        # Scheduled first, so a time before the loop's raises with nothing paused.
        self.loop.schedule(now, self._decision_tick)
        self.loop.schedule(now + EVICT_TICK_US, self._evict_tick)
        for conn in self.paths.values():
            if conn is not self.active[conn.sid]:
                conn.cc.pause(now)
        self.source.start(now)

    # -- sender datapath

    def _on_encoded_frame(self, size: int, frame_index: int, capture_ts: int,
                          key_frame: bool) -> None:
        segments = packetize(size, frame_index, capture_ts, key_frame)
        self.scheduler.schedule_segments(segments, self.loop.now)
        for sid in self.sids:
            self._pump(sid)

    def _pump(self, sid: int) -> None:
        now = self.loop.now
        conn = self.active[sid]
        timer = self._pump_timers[sid]
        # A timer due after now (so live) and no later than the pacer could
        # only be kept, so the pump returns at once.  The timer's own firing
        # is due now and always pumps.  Skipping while the timer is live but
        # due later, or while it is due now, moves output digests.
        if timer is not None and now < timer[0] <= conn.next_send_ts:
            return
        sched = self.scheduler
        sub = sched.subflows[sid]
        if sub.queued_bytes <= 0:
            return
        ts = conn.next_send_ts
        if ts <= now:
            if conn.sm.inflight + MSS > conn.cc.cwnd:
                return  # ack-clocked: the next _deliver_ack pumps again
            entry = sched.next_segment(sid, now)
            if entry is None:
                return
            conn.send(entry.segment, entry.size, now, sub.queued_bytes <= 0, entry)
            if sub.queued_bytes <= 0:
                return
            ts = conn.next_send_ts
        self._pump_timers[sid] = self.loop.schedule_by(timer, ts, self._pump, sid)

    # -- feedback path

    def _deliver_ack(self, conn: PathConnection, ack) -> None:
        now = self.loop.now
        samples = conn.sm.on_ack(ack, now)
        sched = self.scheduler
        for sample in samples:
            sched.mark_acked(sample.context)  # every data packet carries its entry
        # An unselected path's controller is paused and takes no samples.
        if samples and conn is self.active[conn.sid]:
            cc = conn.cc
            for sample in samples:
                cc.on_delivery_sample(sample, now)
                sched.update_srtt(conn.sid, sample.rtt)
            sched.set_bw_es(conn.sid, cc.bw_es)
            self.policy.on_new_bandwidth_sample(conn.path.path_id, cc.bw_es, now)
        self._pump(conn.sid)

    def _on_loss(self, lost) -> None:
        self.lost_packets += len(lost)
        # Every data packet carries its send-buffer entry; on_loss skips acked ones.
        retx_sids, _dropped = self.scheduler.on_loss([rec.context for rec in lost],
                                                     self.loop.now)
        for sid in set(retx_sids):
            self._pump(sid)

    # -- timers

    def _evict_tick(self) -> None:
        now = self.loop.now
        self.scheduler.evict(now)
        for conn in self.paths.values():
            conn.sm.advance_stop_waiting()
        self.sink.sweep(now)
        self.loop.schedule(now + EVICT_TICK_US, self._evict_tick)

    def _decision_tick(self) -> None:
        now = self.loop.now
        mapping = self.policy.decide(now)
        for sid in self.sids:
            target = mapping[sid]
            if target != -1 and target != self.active[sid].path.path_id:
                self._switch(sid, target, now)
            self.selections.append((now, sid, self.active[sid].path.path_id))
        self.loop.schedule(now + SLOT_US, self._decision_tick)

    def _switch(self, sid: int, path_id: int, now: int) -> None:
        self.active[sid].cc.pause(now)
        new = self.paths[path_id]
        new.cc.resume(now)
        self.active[sid] = new
        self.scheduler.set_bw_es(sid, new.cc.bw_es)
        self._pump(sid)
