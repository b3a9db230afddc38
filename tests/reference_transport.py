"""Reference send manager: the walks that settle acks and loss timers over
the whole ack range or the whole outstanding window, kept literal.

ReferenceSendManager overrides send_segment (re-arming the loss timer on
every send), on_ack (walking every number of every range, or every record),
_arm_loss_timer (the oldest send time as a minimum over every record, and
the keep-or-replace rule of EventLoop.schedule_by written out) and
_on_loss_timer (testing every record against the threshold).  It defines
the two helpers SendManager works out in place: _loss_threshold, which works
the threshold out from srtt at each use, so the reference never reads the
value SendManager stores when srtt changes, and _detect_reorder_loss, which
tests every record against the reorder bound.  The production SendManager
skips the work these do not need; the transport tests require both to give
the same samples, hooks, records and timers.

pacer_next_send_time is the pacer rule PathConnection.send works out in
place for every data packet.
"""

from mprtc.simnet import US_PER_S
from mprtc.transport import (
    ACK_DELAY_MAX_US,
    REORDER_THRESHOLD,
    TIME_LOSS_FACTOR,
    DeliveryRateSample,
    SendManager,
    SimPacket,
    ewma_srtt,
)


def pacer_next_send_time(prev_sent_ts, prev_len, pacing_rate):
    """Earliest time the next packet may go out, on the microsecond grain."""
    gap = prev_len * 8 * US_PER_S
    return prev_sent_ts + int(-(-gap // pacing_rate))


class ReferenceSendManager(SendManager):

    def send_segment(self, segment, size, now, app_limited, context=None):
        number = self.next_packet_number
        self.next_packet_number += 1
        packet = SimPacket(number, size, segment, None, self.route, self.receiver_sink,
                           now, self.delivered_bytes, app_limited, context)
        self.records[number] = packet
        self.inflight += size
        self.packets_sent += 1
        self.route[0].enqueue(packet)
        self._arm_loss_timer()
        return packet

    def on_ack(self, ack, now):
        newly_acked = []
        records = self.records
        for start, end in ack.ack_ranges:
            if end - start < len(records):
                for number in range(start, end + 1):
                    rec = records.pop(number, None)
                    if rec is not None:
                        newly_acked.append(rec)
            else:
                matched = [rec for number, rec in records.items()
                           if start <= number <= end]
                for rec in matched:
                    del records[rec.number]
                newly_acked.extend(matched)
        if ack.ack_ranges[0][1] > self.largest_acked:
            self.largest_acked = ack.ack_ranges[0][1]
        for rec in newly_acked:
            self.inflight -= rec.size
            self.delivered_bytes += rec.size
        delivered_now = self.delivered_bytes

        has_loss = bool(self._detect_reorder_loss())
        if not newly_acked:
            return []
        samples = []
        for rec in newly_acked:
            interval = now - rec.sent_ts
            rtt = interval - ack.ack_delay
            if rtt <= 0:
                rtt = 1
            if interval <= 0:
                interval = 1
            bw = (delivered_now - rec.delivered_at_send) * 8 * US_PER_S / interval
            samples.append(DeliveryRateSample(bw, rtt, self.inflight, has_loss,
                                              rec.app_limited, rec.delivered_at_send,
                                              delivered_now, rec.context))
            self.srtt = ewma_srtt(self.srtt, rtt)
        self._arm_loss_timer()
        return samples

    def _arm_loss_timer(self):
        if not self.records or not self.srtt:
            return
        oldest = min(rec.sent_ts for rec in self.records.values())
        deadline = oldest + self._loss_threshold() + 1
        timer = self._loss_timer
        if timer is not None and timer[2] is not None:
            if timer[0] <= deadline:
                return  # the live timer fires in time
            timer[2] = None
        self._loss_timer = self.loop.schedule(max(deadline, self.loop.now), self._on_loss_timer)

    def _on_loss_timer(self):
        self._loss_timer = None
        if not self.records or not self.srtt:
            return
        threshold = self._loss_threshold()
        now = self.loop.now
        lost = [rec for rec in self.records.values() if now - rec.sent_ts > threshold]
        if lost:
            self._declare_lost(lost)
        self._arm_loss_timer()

    def _detect_reorder_loss(self):
        """Every record REORDER_THRESHOLD or more behind the largest ack is lost."""
        bound = self.largest_acked - REORDER_THRESHOLD
        lost = [rec for number, rec in self.records.items() if number <= bound]
        if lost:
            self._declare_lost(lost)
        return lost

    def _loss_threshold(self):
        return int(TIME_LOSS_FACTOR * self.srtt) + ACK_DELAY_MAX_US
