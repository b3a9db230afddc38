"""Latency-minimizing packet distribution across subflows.

Each segment goes to the subflow whose expected arrival latency
(SRTT/2 + queued_bytes/bw_es) is smallest at decision time, with the queue
term updated after every assignment.  A lost key-frame segment is resent
until it is acked, a lost delta segment only within RETENTION_US (400 ms) of
its first send, each over the subflow that is fastest when the loss is found.

Every bandwidth estimate is positive (the session seeds each subflow with its
controller's ``bw_es``, never zero, and ``set_bw_es`` rejects anything else),
so every segment is assigned the moment it enters the send buffer.  The
session's encoder reads their sum, ``reference_rate``, from here too.
"""

from __future__ import annotations

import math
from collections import deque
from itertools import takewhile
from operator import attrgetter

from .simnet import US_PER_S
from .transport import StreamFrame, ewma_srtt, wire_size

RETENTION_US = 400_000
DECISION_LOG_LEN = 1024  # a ring, so that memory stays flat on long runs


class SendBufferEntry:
    """One segment in the send buffer; its wire size and key-frame flag are
    stored at construction, because a segment never changes.  The subflow
    it is assigned to is the one whose queue holds it."""

    __slots__ = ("segment", "size", "key_frame", "sent", "first_sent_ts", "acked")

    def __init__(self, segment: StreamFrame) -> None:
        self.segment = segment
        self.size = wire_size(segment)
        self.key_frame = segment.key_frame
        self.sent = False
        self.first_sent_ts = 0
        self.acked = False

    def expired(self, now: int) -> bool:
        """True for a sent delta segment more than RETENTION_US past its first send."""
        return self.sent and not self.key_frame and now - self.first_sent_ts > RETENTION_US


class SubflowState:
    __slots__ = ("srtt", "bw_es", "queue", "queued_bytes")

    def __init__(self) -> None:
        self.srtt = 0
        self.bw_es = 0.0  # set by the Scheduler's constructor
        self.queue: deque[SendBufferEntry] = deque()
        self.queued_bytes = 0


class Scheduler:
    def __init__(self, initial_bw_es: dict[int, float]) -> None:
        if not initial_bw_es:
            raise ValueError("a scheduler needs at least one subflow")
        self.subflows = {sid: SubflowState() for sid in sorted(initial_bw_es)}  # id order
        for sid, bw in initial_bw_es.items():
            self.set_bw_es(sid, bw)
        # (now, frame_index, segment_index, sid) of the latest assignments
        self.decision_log: deque = deque(maxlen=DECISION_LOG_LEN)

    # -- subflow estimates

    def update_srtt(self, sid: int, rtt_sample: int) -> int:
        sub = self.subflows[sid]
        sub.srtt = ewma_srtt(sub.srtt, rtt_sample)
        return sub.srtt

    def set_bw_es(self, sid: int, bw: float) -> None:
        if not bw > 0:  # NaN fails the comparison too
            raise ValueError(f"subflow {sid}: bandwidth estimate must be > 0, got {bw!r}")
        self.subflows[sid].bw_es = bw

    def min_latency(self) -> float:
        return self._fastest()[1]

    def reference_rate(self) -> float:
        """The encoder's reference: the sum of the subflows' bw_es."""
        return sum(sub.bw_es for sub in self.subflows.values())

    def _fastest(self) -> tuple[int, float]:
        """(fastest subflow id, its expected latency).

        A subflow's expected latency is SRTT/2 + queued_bytes/bw_es.  This is
        the one place that formula is written.  Every bw_es is positive, so a
        fastest subflow always exists; ties go to the lowest id.
        """
        best_sid = next(iter(self.subflows))  # kept only if every latency is infinite
        best_lat = math.inf
        for sid, sub in self.subflows.items():
            lat = sub.srtt / 2 + sub.queued_bytes * 8 * US_PER_S / sub.bw_es
            if lat < best_lat:
                best_lat = lat
                best_sid = sid
        return best_sid, best_lat

    # -- assignment

    def schedule_segments(self, segments, now: int) -> list[SendBufferEntry]:
        entries = [SendBufferEntry(s) for s in segments]
        for entry in entries:
            self._assign(entry, now)
        return entries

    def _assign(self, entry: SendBufferEntry, now: int) -> None:
        best_sid = self._fastest()[0]
        seg = entry.segment
        self.decision_log.append((now, seg.frame_index, seg.segment_index, best_sid))
        sub = self.subflows[best_sid]
        sub.queue.append(entry)
        sub.queued_bytes += entry.size

    def next_segment(self, sid: int, now: int) -> SendBufferEntry | None:
        """Pop the next sendable entry for this subflow's pacer slot."""
        sub = self.subflows[sid]
        while sub.queue:
            entry = sub.queue.popleft()
            sub.queued_bytes -= entry.size
            if entry.acked or entry.expired(now):
                continue  # acked while waiting for retransmission, or too old to resend
            if not entry.sent:
                entry.sent = True
                entry.first_sent_ts = now
            return entry
        return None

    # -- feedback

    def mark_acked(self, entry: SendBufferEntry) -> None:
        entry.acked = True

    def on_loss(self, entries, now: int):
        """Returns (retransmit subflow ids, dropped entries)."""
        retx_sids = []
        dropped = []
        for entry in entries:
            if entry.acked:
                continue
            if not entry.expired(now):
                sid = self._fastest()[0]
                sub = self.subflows[sid]
                sub.queue.appendleft(entry)  # retransmissions jump the line
                sub.queued_bytes += entry.size
                retx_sids.append(sid)
            else:
                dropped.append(entry)
        return retx_sids, dropped

    def evict(self, now: int) -> list[SendBufferEntry]:
        """Remove queued resends of delta segments older than RETENTION_US,
        which queued_bytes would still count; returns those not acked.
        Only a sent entry expires, and sent entries lead each queue (on_loss
        puts resends at the head, _assign appends fresh ones), so the scan
        stops at the first entry never sent."""
        evicted = []
        for sub in self.subflows.values():
            stale = [e for e in takewhile(attrgetter("sent"), sub.queue) if e.expired(now)]
            for entry in stale:
                sub.queue.remove(entry)
                sub.queued_bytes -= entry.size
            evicted.extend(e for e in stale if not e.acked)
        return evicted
