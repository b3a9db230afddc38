"""QUIC-like frames and per-path send/receive managers.

Three frame types (STREAM, ACK, STOP_WAITING) referenced from QUIC's
design: every sent packet gets a fresh per-connection packet number,
retransmissions included, and STOP_WAITING lets the sender abandon data
without stalling the receiver.  Packets are never serialized; a packet
counts only its size on the wire.  The send manager turns acks into
delivery-rate samples for the congestion controller.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass

from .simnet import US_PER_S

MSS = 1200

# Big-endian header layouts, the one source of the simulated header sizes.
# Packet: flags u8, packet number u64.
_PACKET_HDR = struct.Struct(">BQ")
# STREAM: frame type u8, stream offset u64, payload length u16, frame index
# u32, capture timestamp u64, total segments u16, segment index u16, key u8.
_STREAM_HDR = struct.Struct(">BQHIQHHB")
# STOP_WAITING: frame type u8, least unacked packet number u64.
_STOP_HDR = struct.Struct(">BQ")

PACKET_HEADER_SIZE = _PACKET_HDR.size
STREAM_HEADER_SIZE = _STREAM_HDR.size
STOP_WAITING_SIZE = _STOP_HDR.size
PAYLOAD_BUDGET = MSS - PACKET_HEADER_SIZE - STREAM_HEADER_SIZE

SRTT_DELTA = 0.85
REORDER_THRESHOLD = 3
TIME_LOSS_FACTOR = 1.25
ACK_EVERY_N = 2
ACK_DELAY_MAX_US = 10_000
ACK_RANGES_MAX = 255  # ack ranges per ACK frame, the highest first


@dataclass(slots=True)
class StreamFrame:
    payload_length: int
    frame_index: int
    capture_ts: int
    total_segments: int
    segment_index: int
    key_frame: bool


def wire_size(segment: StreamFrame) -> int:
    """Bytes on the wire of a packet carrying this one segment."""
    return PACKET_HEADER_SIZE + STREAM_HEADER_SIZE + segment.payload_length


@dataclass(slots=True)
class AckFrame:
    """As in QUIC, the largest acknowledged number is stated once: ``ack_ranges[0][1]``."""

    ack_delay: int
    ack_ranges: list  # [(start, end)] inclusive, sorted descending, disjoint, non-empty


def packetize(size: int, frame_index: int, capture_ts: int,
              key_frame: bool) -> list[StreamFrame]:
    """Split an encoded frame into segments no larger than the payload budget."""
    if size <= 0:
        raise ValueError(f"frame size must be > 0, got {size}")
    total = (size + PAYLOAD_BUDGET - 1) // PAYLOAD_BUDGET
    segments = []
    remaining = size
    for idx in range(total):
        length = PAYLOAD_BUDGET if remaining > PAYLOAD_BUDGET else remaining
        segments.append(StreamFrame(length, frame_index, capture_ts, total, idx, key_frame))
        remaining -= length
    return segments


# --- delivery tracking ------------------------------------------------------

def ewma_srtt(srtt: int, rtt_sample: int) -> int:
    """Smoothed RTT after one more sample; a zero srtt takes the sample as is."""
    if srtt:
        return int((1 - SRTT_DELTA) * srtt + SRTT_DELTA * rtt_sample)
    return rtt_sample


@dataclass(slots=True)
class DeliveryRateSample:
    bandwidth: float      # bits/s
    rtt: int              # microseconds
    inflight: int         # bytes, after this ack was applied
    has_loss: bool
    app_limited: bool
    delivered_at_send: int  # cumulative delivered bytes when the packet left
    delivered_at_ack: int   # cumulative delivered bytes when it was acked
    context: object = None  # the acked packet's context: the caller's tag, now settled


class SimPacket:
    """In-simulator packet: metadata only, no byte payload on the hot path.

    A data packet is also its sender's record of it until it is acked or
    declared lost: ``sent_ts``, ``delivered_at_send`` and ``app_limited``
    feed its delivery-rate sample, and ``context`` is the caller's tag.
    The links of ``route`` forward it, moving ``hop`` on, and the last one
    hands it to ``sink(packet, now)`` (see ``simnet.Link``).
    """

    __slots__ = ("number", "size", "stream", "stop_waiting", "route", "hop", "sink",
                 "sent_ts", "delivered_at_send", "app_limited", "context")

    def __init__(self, number, size, stream, stop_waiting, route, sink,
                 sent_ts=0, delivered_at_send=0, app_limited=False, context=None):
        self.number = number
        self.size = size
        self.stream = stream
        self.stop_waiting = stop_waiting
        self.route = route
        self.hop = 0
        self.sink = sink
        self.sent_ts = sent_ts
        self.delivered_at_send = delivered_at_send
        self.app_limited = app_limited
        self.context = context


class SendManager:
    """Sender side of one path connection: numbering, records, rate samples.

    ``records`` holds the outstanding data packets in send order.  Numbers
    come from one counter and callers send at the loop's current time, so
    its keys strictly ascend and its ``sent_ts`` never decrease: the first
    record is the oldest by both.  ``least_retained``, ``_arm_loss_timer``,
    ``_declare_oldest_lost`` and the paths below rely on that order.

    - ``on_ack`` skips every ack range, or part of one, below the oldest
      record, because those numbers were settled earlier.  Ranges descend,
      so it stops at the first one wholly below that floor.  It settles
      each range in one walk: it pops each number above that floor, all
      sent since the oldest record, and sums the bytes of those it finds.
      It returns one sample per newly acked packet, carrying that packet's
      ``context``: the one report of what the ack settled.  An ack that
      settles nothing new still runs reorder detection and returns ``[]``.
    - ``_declare_oldest_lost`` is the one walk that declares losses, for
      reorder detection (a number bound) and the loss timer (a send-time
      bound) alike.  It walks from the oldest record and stops at the first
      one past either bound: it costs the records it declares lost, plus one.
      It returns nothing: ``_declare_lost`` and its ``loss_hook`` call are
      the one report of a loss.
    - ``send_segment`` calls ``_arm_loss_timer`` (``EventLoop.schedule_by``)
      only when the send went into an empty ``records`` or no live timer is
      due after now.  Otherwise the send moved neither the oldest record
      nor ``srtt``, and every ack that changes ``srtt`` re-arms, so the
      live timer is already due no later than the deadline.
    - ``advance_stop_waiting`` sends ``least_retained()`` as a STOP_WAITING
      floor once it passes ``stop_waiting_mark``: floors strictly rise, and
      one that moved only past the last stop-waiting packet is not news.

    ``srtt`` changes only in ``on_ack``, which then stores the loss
    threshold, TIME_LOSS_FACTOR x SRTT + ACK_DELAY_MAX_US, in ``_threshold``
    for the loss timer to read.

    ``on_ack`` runs once per ack, so it works out the floor
    (``least_retained``), each SRTT step (``ewma_srtt``) and the threshold
    in its own frame; ``tests/reference_transport.py`` calls the helpers,
    and the tests require both to give the same samples, records and timers.
    It runs the reorder walk only when the oldest record left is at or
    below ``largest_acked - REORDER_THRESHOLD``: only then can the walk
    declare anything, and then it declares at least that record.
    """

    def __init__(self, loop, route):
        self.loop = loop
        self.route = route
        self.next_packet_number = 1
        self.records: dict[int, SimPacket] = {}
        self.inflight = 0
        self.delivered_bytes = 0
        self.largest_acked = 0
        self.srtt = 0
        self._threshold = ACK_DELAY_MAX_US  # the loss threshold while srtt is 0
        self.stop_waiting_mark = 1
        self.packets_sent = 0
        self.loss_hook = None       # called with [SimPacket] on new losses
        self.receiver_sink = None   # set by session wiring
        self._loss_timer = None

    # -- sending

    def send_segment(self, segment: StreamFrame, size: int, now: int, app_limited: bool,
                     context=None) -> SimPacket:
        """Send ``segment`` in one data packet.  The caller supplies ``size``,
        its ``wire_size``, worked out once per segment and not per send."""
        number = self.next_packet_number
        self.next_packet_number += 1
        packet = SimPacket(number, size, segment, None, self.route, self.receiver_sink,
                           now, self.delivered_bytes, app_limited, context)
        self.records[number] = packet
        self.inflight += size
        self.packets_sent += 1
        self.route[0].enqueue(packet)
        # Only a send into an empty window (records now holds just this
        # packet) can move the deadline; see the class docstring.  A timer
        # due exactly now still gets the full re-arm, which may reschedule
        # it behind other events due now.
        timer = self._loss_timer
        if len(self.records) == 1 or timer is None or timer[2] is None \
                or timer[0] <= self.loop.now:
            self._arm_loss_timer()
        return packet

    def send_stop_waiting(self, least_unacked: int) -> None:
        number = self.next_packet_number
        self.next_packet_number += 1
        packet = SimPacket(number, PACKET_HEADER_SIZE + STOP_WAITING_SIZE, None,
                           least_unacked, self.route, self.receiver_sink)
        self.route[0].enqueue(packet)

    def least_retained(self) -> int:
        """Smallest packet number the sender may still have acked; floor for STOP_WAITING."""
        # records is insertion-ordered with ascending numbers
        if self.records:
            return next(iter(self.records))
        return self.next_packet_number

    def advance_stop_waiting(self) -> None:
        """Send STOP_WAITING up to the oldest outstanding packet once it has moved."""
        floor = self.least_retained()
        if floor > self.stop_waiting_mark:
            self.send_stop_waiting(floor)
            self.stop_waiting_mark = floor + 1

    # -- feedback

    def on_ack(self, ack: AckFrame, now: int) -> list[DeliveryRateSample]:
        newly_acked = []
        acked_bytes = 0
        records = self.records
        floor = next(iter(records)) if records else self.next_packet_number  # least_retained()
        for start, end in ack.ack_ranges:
            if end < floor:
                break  # ranges descend, so every later one is below the floor too
            if start < floor:
                start = floor
            for number in range(start, end + 1):
                rec = records.pop(number, None)
                if rec is not None:
                    newly_acked.append(rec)
                    acked_bytes += rec.size
        largest = ack.ack_ranges[0][1]
        if largest > self.largest_acked:
            self.largest_acked = largest
        self.inflight -= acked_bytes
        self.delivered_bytes += acked_bytes
        delivered_now = self.delivered_bytes

        # The reorder walk declares a loss exactly when the oldest record
        # is at or below its bound.
        has_loss = bool(records) and \
            next(iter(records)) <= self.largest_acked - REORDER_THRESHOLD
        if has_loss:
            self._declare_oldest_lost(self.largest_acked - REORDER_THRESHOLD, math.inf)
        if not newly_acked:
            return []
        samples = []
        inflight = self.inflight  # after the losses, and any sends their hook made
        ack_delay = ack.ack_delay
        srtt = self.srtt
        for rec in newly_acked:
            interval = now - rec.sent_ts
            rtt = interval - ack_delay
            if rtt <= 0:
                rtt = 1
            if interval <= 0:
                interval = 1
            bw = (delivered_now - rec.delivered_at_send) * 8 * US_PER_S / interval
            samples.append(DeliveryRateSample(bw, rtt, inflight, has_loss,
                                              rec.app_limited, rec.delivered_at_send,
                                              delivered_now, rec.context))
            srtt = int((1 - SRTT_DELTA) * srtt + SRTT_DELTA * rtt) if srtt else rtt  # ewma_srtt
        self.srtt = srtt
        # The ack-delay allowance keeps a lone coalesced ack (up to 10 ms
        # at the receiver) from tripping the timer on sparse traffic.
        self._threshold = int(TIME_LOSS_FACTOR * srtt) + ACK_DELAY_MAX_US
        self._arm_loss_timer()
        return samples

    def _declare_oldest_lost(self, max_number, sent_before) -> None:
        """Declare lost the oldest records numbered at most max_number and
        sent before sent_before."""
        lost = []
        for number, rec in self.records.items():
            if number > max_number or rec.sent_ts >= sent_before:
                break  # numbers and send times ascend in insertion order
            lost.append(rec)
        if lost:
            self._declare_lost(lost)

    def _declare_lost(self, lost) -> None:
        for rec in lost:
            del self.records[rec.number]
            self.inflight -= rec.size
        if self.loss_hook is not None:
            self.loss_hook(lost)

    def _arm_loss_timer(self) -> None:
        """Have the timer fire once the oldest record passes the threshold."""
        records = self.records
        if records and self.srtt:
            oldest = next(iter(records.values())).sent_ts  # send times ascend
            self._loss_timer = self.loop.schedule_by(
                self._loss_timer, oldest + self._threshold + 1, self._on_loss_timer)

    def _on_loss_timer(self) -> None:
        # Armed only once srtt > 0, and srtt never returns to 0.
        self._declare_oldest_lost(math.inf, self.loop.now - self._threshold)
        self._arm_loss_timer()


class ReceiveManager:
    """Receiver side of one path connection: ack policy and packet intake.

    An ACK goes out once ACK_EVERY_N packets are pending or ACK_DELAY_MAX_US
    after the first pending arrival, whichever comes first.  ``starts`` and
    ``ends`` hold the received numbers as disjoint inclusive ranges,
    ascending.  A connection's packets follow one fixed route of FIFO links
    and each send takes a fresh number, so numbers arrive ascending and
    never twice: ``on_packet`` extends the top range or opens one above it,
    and raises a ValueError on a number at or below the largest held.
    Stop-waiting floors strictly rise, since the sender sends one only above
    the last; ``process_stop_waiting`` drops the ranges below each.  A floor
    never passes the packet that carries it, so the top range ends at the
    last arrival, the largest number an ACK states.
    """

    def __init__(self, loop, ack_sink, conn_id=0):
        self.loop = loop
        self.ack_sink = ack_sink          # called with (AckFrame, now)
        self.conn_id = conn_id
        self.starts: list[int] = []
        self.ends: list[int] = []
        self.largest_arrival_ts = 0
        self.least_unacked = 0
        self.pending = 0
        self._ack_timer = None
        self.segment_sink = None          # called with (StreamFrame, number, conn_id, now)
        self.stop_waiting_sink = None     # called with (conn_id, least_unacked, now)
        self.bytes_received = 0
        self.data_packets = 0

    def on_packet(self, packet: SimPacket, now: int) -> None:
        number = packet.number
        ends = self.ends
        if ends and number == ends[-1] + 1:
            ends[-1] = number  # the common case: nothing lost since the last arrival
        elif ends and number <= ends[-1]:
            raise ValueError(f"packet number {number} is not above {ends[-1]}, the largest held")
        else:
            self.starts.append(number)
            ends.append(number)
        self.largest_arrival_ts = now
        if packet.stream is not None:
            self.bytes_received += packet.size
            self.data_packets += 1
            if self.segment_sink is not None:
                self.segment_sink(packet.stream, packet.number, self.conn_id, now)
        if packet.stop_waiting is not None:
            self.process_stop_waiting(packet.stop_waiting, now)
        self.pending += 1
        if self.pending == 1:
            fire_ts = now + ACK_DELAY_MAX_US
            self._ack_timer = self.loop.schedule(fire_ts, self._emit_ack, fire_ts)
        if self.pending >= ACK_EVERY_N:
            self._emit_ack(now)

    def process_stop_waiting(self, least_unacked: int, now: int) -> None:
        if least_unacked <= self.least_unacked:
            raise ValueError(f"stop-waiting floor {least_unacked} is not above "
                             f"{self.least_unacked}, the last one")
        self.least_unacked = least_unacked
        starts, ends = self.starts, self.ends
        while starts and ends[0] < least_unacked:
            del starts[0], ends[0]
        if starts and starts[0] < least_unacked:
            starts[0] = least_unacked
        if self.stop_waiting_sink is not None:
            self.stop_waiting_sink(self.conn_id, least_unacked, now)

    def _emit_ack(self, now: int) -> None:
        self._ack_timer[2] = None  # cancels it, unless it has fired already
        self.pending = 0
        ack = AckFrame(now - self.largest_arrival_ts, self.ack_ranges())
        self.ack_sink(ack, now)

    def ack_ranges(self) -> list:
        """The highest ACK_RANGES_MAX ranges, highest first."""
        last = slice(None, -ACK_RANGES_MAX - 1, -1)  # the last ACK_RANGES_MAX, reversed
        return list(zip(self.starts[last], self.ends[last]))
