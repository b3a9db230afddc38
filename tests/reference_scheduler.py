"""Reference scheduler: the send buffer that also keeps ``retained``, an
insertion-ordered set of the entries it may still resend, kept verbatim.

An entry leaves ``retained`` when it is acked, or when it is a sent delta
segment found older than RETENTION_US by next_segment, on_loss or evict;
on_loss drops every loss of an entry no longer in it.  The production
Scheduler lets each entry's own fields decide instead, and evict no longer
walks entries in flight; the scheduler tests require both to make the same
decisions.  Its constructor and reference_rate (the sum of the bw_es, in
subflow id order) are production's, so a VideoSession runs on either.
"""

from __future__ import annotations

from collections import deque

from mprtc.simnet import US_PER_S
from mprtc.transport import StreamFrame, ewma_srtt, wire_size

RETENTION_US = 400_000
UNSCHEDULABLE = float("inf")
DECISION_LOG_LEN = 1024  # a ring, so that memory stays flat on long runs


class SendBufferEntry:
    """One segment in the send buffer; its wire size and key-frame flag are
    stored at construction, because a segment never changes."""

    __slots__ = ("segment", "size", "key_frame", "subflow", "sent", "first_sent_ts", "acked")

    def __init__(self, segment: StreamFrame) -> None:
        self.segment = segment
        self.size = wire_size(segment)
        self.key_frame = segment.key_frame
        self.subflow = -1
        self.sent = False
        self.first_sent_ts = 0
        self.acked = False


class SubflowState:
    __slots__ = ("sid", "srtt", "bw_es", "queue", "queued_bytes")

    def __init__(self, sid: int) -> None:
        self.sid = sid
        self.srtt = 0
        self.bw_es = 0.0
        self.queue: deque[SendBufferEntry] = deque()
        self.queued_bytes = 0


class Scheduler:
    def __init__(self, initial_bw_es: dict[int, float]) -> None:
        self.subflows = {sid: SubflowState(sid) for sid in initial_bw_es}
        self._by_id = [self.subflows[sid] for sid in sorted(self.subflows)]
        for sid, bw in initial_bw_es.items():
            self.set_bw_es(sid, bw)
        # A dict used as an insertion-ordered set, so that evict() reports
        # entries in first-send order.
        self.retained: dict[SendBufferEntry, None] = {}
        self.unassigned: deque[SendBufferEntry] = deque()
        # (now, frame_index, segment_index, sid, lambdas) of the latest assignments
        self.decision_log: deque = deque(maxlen=DECISION_LOG_LEN)

    # -- subflow estimates

    def update_srtt(self, sid: int, rtt_sample: int) -> int:
        sub = self.subflows[sid]
        sub.srtt = ewma_srtt(sub.srtt, rtt_sample)
        return sub.srtt

    def set_bw_es(self, sid: int, bw: float) -> None:
        self.subflows[sid].bw_es = bw

    def min_latency(self) -> float:
        return self._fastest()[1]

    def reference_rate(self) -> float:
        return sum(sub.bw_es for sub in self._by_id)

    def _fastest(self):
        """(fastest subflow or None, its expected latency, all latencies by id).

        A subflow's expected latency is SRTT/2 + queued_bytes/bw_es, and
        UNSCHEDULABLE while its bandwidth estimate is not positive.  This is
        the one place that formula is written.
        """
        best_sid = None
        best_lat = UNSCHEDULABLE
        lambdas = []
        for sub in self._by_id:
            if sub.bw_es <= 0:
                lat = UNSCHEDULABLE
            else:
                lat = sub.srtt / 2 + sub.queued_bytes * 8 * US_PER_S / sub.bw_es
            lambdas.append(lat)
            if lat < best_lat:
                best_lat = lat
                best_sid = sub.sid
        return best_sid, best_lat, lambdas

    # -- assignment

    def schedule_segments(self, segments, now: int) -> list[SendBufferEntry]:
        entries = [SendBufferEntry(s) for s in segments]
        pending = list(self.unassigned) + entries
        self.unassigned.clear()
        for entry in pending:
            sid = self._assign(entry, now)
            if sid is None:
                self.unassigned.append(entry)
        return entries

    def _assign(self, entry: SendBufferEntry, now: int) -> int | None:
        best_sid, _, lambdas = self._fastest()
        if best_sid is None:
            return None
        seg = entry.segment
        self.decision_log.append(
            (now, seg.frame_index, seg.segment_index, best_sid, tuple(lambdas)))
        entry.subflow = best_sid
        sub = self.subflows[best_sid]
        sub.queue.append(entry)
        sub.queued_bytes += entry.size
        return best_sid

    def next_segment(self, sid: int, now: int) -> SendBufferEntry | None:
        """Pop the next sendable entry for this subflow's pacer slot."""
        sub = self.subflows[sid]
        while sub.queue:
            entry = sub.queue.popleft()
            sub.queued_bytes -= entry.size
            if entry.acked:
                continue  # acked while waiting for retransmission
            if entry.sent and not entry.key_frame \
                    and now - entry.first_sent_ts > RETENTION_US:
                self.retained.pop(entry, None)
                continue
            if not entry.sent:
                entry.sent = True
                entry.first_sent_ts = now
            self.retained[entry] = None
            return entry
        return None

    # -- feedback

    def mark_acked(self, entry: SendBufferEntry) -> None:
        entry.acked = True
        self.retained.pop(entry, None)

    def on_loss(self, entries, now: int):
        """Returns (retransmit subflow ids, dropped entries)."""
        retx_sids = []
        dropped = []
        for entry in entries:
            if entry.acked:
                continue
            if entry not in self.retained:
                dropped.append(entry)
                continue
            if entry.key_frame or now - entry.first_sent_ts <= RETENTION_US:
                sid = self._fastest()[0]
                if sid is None:
                    sid = entry.subflow
                entry.subflow = sid
                sub = self.subflows[sid]
                sub.queue.appendleft(entry)  # retransmissions jump the line
                sub.queued_bytes += entry.size
                retx_sids.append(sid)
            else:
                self.retained.pop(entry, None)
                dropped.append(entry)
        return retx_sids, dropped

    def evict(self, now: int) -> list[SendBufferEntry]:
        """Age out sent non-key entries; returns what was evicted unacked."""
        horizon = now - RETENTION_US
        evicted = [e for e in self.retained
                   if not e.key_frame and e.sent and e.first_sent_ts < horizon]
        for entry in evicted:
            del self.retained[entry]
        seen = set(evicted)
        for sub in self.subflows.values():
            if not sub.queue:
                continue
            stale = [e for e in sub.queue
                     if e.sent and not e.key_frame and e.first_sent_ts < horizon]
            for entry in stale:
                sub.queue.remove(entry)
                sub.queued_bytes -= entry.size
                self.retained.pop(entry, None)
            # One acked while requeued for resend leaves the queue unreported.
            evicted.extend(e for e in stale if e not in seen and not e.acked)
        return evicted
