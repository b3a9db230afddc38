"""Synthetic 30 fps video source, lagging encoder model, and receiver reassembly."""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass

from .scheduler import RETENTION_US
from .simnet import US_PER_S

FPS = 30
GOP_FRAMES = 60
KEY_FRAME_FACTOR = 4
RATE_TICK_US = 50_000
RATE_FLOOR_BPS = 50_000
RATE_CAP_BPS = 4_000_000
DROP_BUDGET_US = 400_000
ENCODER_TAU_US = 1_000_000
ENCODE_DELAY_ALPHA = 0.9
ENCODE_DELAY_BASE_US = 8_000
ENCODE_DELAY_SPREAD_US = 2_000
# A sink gives up on a delta frame only after the sender's own retention window
# has certainly elapsed; earlier would race in-flight retransmissions.
ABANDON_AGE_US = RETENTION_US

# Key frames are KEY_FRAME_FACTOR times larger than delta frames.  Scaling both
# by _GOP_NORM keeps the long-run bit rate equal to the encoder's actual rate:
# (gop - 1 + factor) * norm == gop.
_GOP_NORM = GOP_FRAMES / (GOP_FRAMES - 1 + KEY_FRAME_FACTOR)


@dataclass(slots=True)
class RawFrame:
    frame_index: int
    capture_ts: int


class VideoSource:
    """Captures frames on a fixed cadence, encodes them one at a time, and drops
    raw frames whose projected sender-side delay exceeds the 400 ms budget.

    The encoder's output rate chases the reference rate with a first-order lag
    (time constant 1 s).  ``reference_rate_fn`` supplies the raw reference
    (a session passes Scheduler.reference_rate); ``min_latency_fn`` supplies the
    cheapest subflow's expected delivery latency in microseconds.  Each
    encoded frame goes to ``frame_sink(size, frame_index, capture_ts,
    key_frame)`` when its encode finishes, the argument order of
    ``packetize``.
    """

    def __init__(self, loop, rng, *, frame_sink, reference_rate_fn, min_latency_fn):
        self.loop = loop
        self.rng = rng
        self.frame_sink = frame_sink
        self.reference_rate_fn = reference_rate_fn
        self.min_latency_fn = min_latency_fn
        # Encoder knobs: reference rate, lagged output rate, delay estimate.
        self.target_rate = float(RATE_FLOOR_BPS)
        self.actual_rate = 0.0
        self.d_en_hat = float(ENCODE_DELAY_BASE_US)
        self.raw_queue: deque[RawFrame] = deque()
        self.busy = False
        self.frames_captured = 0
        self.frames_dropped = 0
        # (frame_index, capture_ts, size, key, dropped) in capture order
        self.frame_log: list[tuple[int, int, int, bool, bool]] = []
        self._start_ts = 0
        self._last_lag_ts = 0

    def start(self, now: int) -> None:
        self._start_ts = now
        self._last_lag_ts = now
        # Tick before the first capture so frame 0 sees a real reference rate.
        self.loop.schedule(now, self._rate_tick)
        self.loop.schedule(now, self._capture, 0)

    def _rate_tick(self) -> None:
        raw = self.reference_rate_fn()
        self.target_rate = float(min(max(raw, RATE_FLOOR_BPS), RATE_CAP_BPS))
        self.loop.schedule(self.loop.now + RATE_TICK_US, self._rate_tick)

    def _capture(self, index: int) -> None:
        now = self.loop.now
        self.raw_queue.append(RawFrame(index, now))
        self.frames_captured += 1
        nxt = self._start_ts + (index + 1) * US_PER_S // FPS
        self.loop.schedule(nxt, self._capture, index + 1)
        self._service(now)

    def _service(self, now: int) -> None:
        while not self.busy and self.raw_queue:
            raw = self.raw_queue.popleft()
            d_q = now - raw.capture_ts
            projected = d_q + self.d_en_hat + self.min_latency_fn()
            key = raw.frame_index % GOP_FRAMES == 0
            if projected > DROP_BUDGET_US:
                self.frames_dropped += 1
                self.frame_log.append((raw.frame_index, raw.capture_ts, 0, key, True))
                continue
            self._begin_encode(raw, key, now)

    def _begin_encode(self, raw: RawFrame, key: bool, now: int) -> None:
        if self.actual_rate <= 0.0:
            self.actual_rate = self.target_rate
        else:
            dt = now - self._last_lag_ts
            gain = 1.0 - math.exp(-dt / ENCODER_TAU_US)
            self.actual_rate += (self.target_rate - self.actual_rate) * gain
        if self.actual_rate < RATE_FLOOR_BPS:
            self.actual_rate = float(RATE_FLOOR_BPS)
        self._last_lag_ts = now

        base = self.actual_rate / (8 * FPS)
        size = int(base * _GOP_NORM * (KEY_FRAME_FACTOR if key else 1))
        d_en = ENCODE_DELAY_BASE_US + int(
            self.rng.uniform(-ENCODE_DELAY_SPREAD_US, ENCODE_DELAY_SPREAD_US)
        )
        self.busy = True
        self.loop.schedule(now + d_en, self._finish_encode, raw, size, key, d_en)

    def _finish_encode(self, raw: RawFrame, size: int, key: bool, d_en: int) -> None:
        self.d_en_hat = (1.0 - ENCODE_DELAY_ALPHA) * self.d_en_hat + ENCODE_DELAY_ALPHA * d_en
        self.frame_log.append((raw.frame_index, raw.capture_ts, size, key, False))
        self.busy = False
        self.frame_sink(size, raw.frame_index, raw.capture_ts, key)
        self._service(self.loop.now)


@dataclass(slots=True)
class DeliveredFrame:
    frame_index: int
    capture_ts: int
    delivered_ts: int
    size: int


class _PendingFrame:
    __slots__ = ("total_segments", "capture_ts", "key_frame",
                 "segment_bytes", "high_numbers", "first_arrival")

    def __init__(self, total_segments, capture_ts, key_frame, now):
        self.total_segments = total_segments
        self.capture_ts = capture_ts
        self.key_frame = key_frame
        self.segment_bytes: dict[int, int] = {}
        self.high_numbers: dict[int, int] = {}
        self.first_arrival = now


class VideoSink:
    """Reassembles stream segments into frames and releases them in index order.

    A frame is complete when all of its segments arrived (duplicates are
    counted once).  Completed frames wait until every tracked earlier frame is
    resolved, so the released index sequence is strictly increasing; frames
    never seen at all do not block.  The release rule: no ready frame lies
    below the lowest pending one.  ``_release`` keeps it in one pass,
    releasing lowest first every ready frame below that pending frame.  A
    delta frame still missing segments is abandoned once stop-waiting floors
    prove its received packets are settled on every connection involved and
    its age exceeds the sender's retention window.  Key frames are
    retransmitted until acked, so they always complete.
    ``pending`` and ``_ready`` hold only frames above ``_released_through``:
    a frame at or below it is never tracked again.
    """

    def __init__(self):
        self.pending: dict[int, _PendingFrame] = {}
        self.floors: dict[int, int] = {}
        self.delivered: list[DeliveredFrame] = []
        # (frame_index, capture_ts, key_frame, abandoned_ts)
        self.abandoned: list[tuple[int, int, bool, int]] = []
        self._ready: dict[int, DeliveredFrame] = {}
        self._released_through = -1
        self._abandoned_set: set[int] = set()

    def on_segment(self, segment, packet_number: int, conn_id: int, now: int) -> None:
        fi = segment.frame_index
        if fi <= self._released_through:
            return  # released already, or never seen before its successors
        frame = self.pending.get(fi)
        if frame is None:
            if fi in self._ready or fi in self._abandoned_set:
                return  # an abandoned frame is never pending again
            frame = _PendingFrame(
                segment.total_segments, segment.capture_ts,
                bool(segment.key_frame), now,
            )
            self.pending[fi] = frame
        frame.high_numbers[conn_id] = packet_number  # numbers arrive in send order
        frame.segment_bytes[segment.segment_index] = segment.payload_length
        if len(frame.segment_bytes) == frame.total_segments:
            del self.pending[fi]
            self._ready[fi] = DeliveredFrame(
                frame_index=fi,
                capture_ts=frame.capture_ts,
                delivered_ts=now,
                size=sum(frame.segment_bytes.values()),
            )
            self._release()

    def on_stop_waiting(self, conn_id: int, least_unacked: int, now: int) -> None:
        self.floors[conn_id] = least_unacked  # floors strictly rise per connection
        self.sweep(now)

    def sweep(self, now: int) -> None:
        """Re-check abandonment with cached floors; frames too young at the
        last stop-waiting notice need a later pass once they age out."""
        stale = []
        for fi, frame in self.pending.items():
            if frame.key_frame:
                continue
            if now - frame.first_arrival < ABANDON_AGE_US:
                continue
            if all(self.floors.get(c, 0) > n for c, n in frame.high_numbers.items()):
                stale.append(fi)
        for fi in stale:
            frame = self.pending.pop(fi)
            self._abandoned_set.add(fi)
            self.abandoned.append((fi, frame.capture_ts, frame.key_frame, now))
        if stale:
            self._release()

    def _release(self) -> None:
        lowest = min(self.pending, default=math.inf)
        # A list: a generator would cost a Python call per item.
        for fi in sorted([fi for fi in self._ready if fi < lowest]):
            self.delivered.append(self._ready.pop(fi))
            self._released_through = fi
