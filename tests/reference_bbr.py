"""Reference controller: BbrController's sample intake with one helper per
step, kept literal, and the one oracle the congestion tests compare it with.

ReferenceBbrController takes the samples, pauses and resumes that
BbrController takes and keeps the same state under the same slot names.  It
counts rounds, updates its own max filter, stores bw_es and works out the
outputs in helpers of their own.  The congestion tests feed both the same
streams and require every slot, the outputs included, the max filter's
samples and the rng state to agree after every call.  The production
controller does those steps in on_delivery_sample's own frame, so this copy
is what pins their arithmetic and the order of the mode transitions.
bdp_bytes is the BDP rule for this class and for the tests' own BDP inputs.
"""

from collections import deque

from mprtc.congestion import (
    BW_WINDOW_ROUNDS,
    CYCLE_RAND,
    DRAIN,
    DRAIN_GAIN,
    GAIN_CYCLE_LEN,
    INITIAL_BW_BPS,
    INITIAL_CWND,
    MIN_RTT_EXPIRY_US,
    PROBE_BW,
    PROBE_BW_CWND_GAIN,
    PROBE_DOWN_GAIN,
    PROBE_RTT,
    PROBE_RTT_CWND,
    PROBE_RTT_DURATION_US,
    PROBE_UP_GAIN,
    STARTUP,
    STARTUP_FULL_BW_ROUNDS,
    STARTUP_GAIN,
    STARTUP_GROWTH_TARGET,
    STOCK_GAIN_CYCLE,
)


def bdp_bytes(cc):
    """The BDP, in bytes, of a controller's stored bw_es and rtt_min:
    INITIAL_CWND until the first RTT sample."""
    if not cc.rtt_min:
        return INITIAL_CWND
    return cc.bw_es * cc.rtt_min / 8 / 1_000_000


class ReferenceMaxFilter:
    """Max over the last BW_WINDOW_ROUNDS rounds, via a monotonic deque."""

    def __init__(self):
        self._samples = deque()  # (round, value), values strictly decreasing

    def update(self, value, round_count):
        samples = self._samples
        while samples and samples[-1][1] <= value:
            samples.pop()
        samples.append((round_count, value))
        bound = round_count - BW_WINDOW_ROUNDS
        while samples and samples[0][0] <= bound:
            samples.popleft()

    def get(self):
        return self._samples[0][1] if self._samples else 0.0


class ReferenceBbrController:

    def __init__(self, rng, variant="rtc-bbr"):
        self.rng = rng
        self.variant = variant
        self.mode = STARTUP
        self.max_bw_filter = ReferenceMaxFilter()
        self.round_count = 0
        self.next_round_delivered = 0
        self.rtt_min = 0
        self.rtt_min_ts = 0
        self.probe_rtt_done_ts = 0
        self.full_bw = 0.0
        self.full_bw_count = 0
        self.pacing_gain = STARTUP_GAIN
        self.cycle_mstamp = 0
        self.cycle_len = GAIN_CYCLE_LEN
        self.cycle_phase = 0
        self.loss_since_update = False
        self.pause_started = None
        self._set_bw_es()
        self._set_outputs()

    def _set_bw_es(self):
        bw = self.max_bw_filter.get()
        self.bw_es = bw if bw > 0 else INITIAL_BW_BPS

    def _set_outputs(self):
        self.pacing_rate = self.bw_es * self.pacing_gain
        if self.mode == PROBE_RTT:
            self.cwnd = PROBE_RTT_CWND
        elif self.mode == PROBE_BW:
            self.cwnd = PROBE_BW_CWND_GAIN * bdp_bytes(self)
        else:
            self.cwnd = max(STARTUP_GAIN * bdp_bytes(self), INITIAL_CWND)

    def on_delivery_sample(self, sample, now):
        if sample.has_loss:
            self.loss_since_update = True
        round_ended = self._update_round(sample)
        self._update_bw_filter(sample)
        min_rtt_expired = bool(self.rtt_min) and now - self.rtt_min_ts > MIN_RTT_EXPIRY_US
        if not self.rtt_min or sample.rtt <= self.rtt_min or min_rtt_expired:
            self.rtt_min = sample.rtt
            self.rtt_min_ts = now
        if self.mode == STARTUP and round_ended and self._check_full_pipe(sample):
            self._enter_drain()
        if self.mode == DRAIN and sample.inflight <= bdp_bytes(self):
            self._enter_probe_bw(now)
        if self.mode == PROBE_BW:
            if min_rtt_expired:
                self.mode = PROBE_RTT
                self.pacing_gain = 1
                self.probe_rtt_done_ts = 0
            elif self.variant == "rtc-bbr":
                self._update_gain_cycle_phase(now, sample.inflight, self.loss_since_update)
                self.loss_since_update = False
            else:
                self._stock_bbr_cycle(now, sample.inflight)
        if self.mode == PROBE_RTT:
            self._probe_rtt_dwell(sample, now)
        self._set_outputs()

    def _update_round(self, sample):
        if sample.delivered_at_send >= self.next_round_delivered:
            self.round_count += 1
            self.next_round_delivered = sample.delivered_at_ack
            return True
        return False

    def _update_bw_filter(self, sample):
        if sample.app_limited and sample.bandwidth <= self.max_bw_filter.get():
            return
        self.max_bw_filter.update(sample.bandwidth, self.round_count)
        self._set_bw_es()

    def _check_full_pipe(self, sample):
        if sample.app_limited:
            return False
        bw = self.max_bw_filter.get()
        if bw >= self.full_bw * STARTUP_GROWTH_TARGET:
            self.full_bw = bw
            self.full_bw_count = 0
            return False
        self.full_bw_count += 1
        return self.full_bw_count >= STARTUP_FULL_BW_ROUNDS

    def _enter_drain(self):
        self.mode = DRAIN
        self.pacing_gain = DRAIN_GAIN

    def _enter_probe_bw(self, now):
        self.mode = PROBE_BW
        self.cycle_mstamp = now
        if self.variant == "rtc-bbr":
            self.cycle_len = GAIN_CYCLE_LEN - self.rng.randrange(CYCLE_RAND)
            self.pacing_gain = PROBE_UP_GAIN
        else:
            self.cycle_phase = self.rng.randrange(len(STOCK_GAIN_CYCLE))
            self.pacing_gain = STOCK_GAIN_CYCLE[self.cycle_phase]

    def _update_gain_cycle_phase(self, now, inflight, has_loss):
        elapsed = now - self.cycle_mstamp
        if elapsed > self.cycle_len * self.rtt_min:
            self._enter_probe_bw(now)
            return
        if self.pacing_gain == 1:
            return
        bdp = bdp_bytes(self)
        if self.pacing_gain < 1.0 and inflight <= bdp:
            self.pacing_gain = 1
        if elapsed > self.rtt_min and (inflight > PROBE_UP_GAIN * bdp or has_loss):
            self.pacing_gain = PROBE_DOWN_GAIN

    def _stock_bbr_cycle(self, now, inflight):
        elapsed = now - self.cycle_mstamp
        advance = elapsed > self.rtt_min
        if not advance and self.pacing_gain == 0.75 and inflight <= bdp_bytes(self):
            advance = True
        if advance:
            self.cycle_phase = (self.cycle_phase + 1) % len(STOCK_GAIN_CYCLE)
            self.cycle_mstamp = now
            self.pacing_gain = STOCK_GAIN_CYCLE[self.cycle_phase]

    def _probe_rtt_dwell(self, sample, now):
        if self.probe_rtt_done_ts == 0:
            if sample.inflight <= PROBE_RTT_CWND:
                self.probe_rtt_done_ts = now + max(PROBE_RTT_DURATION_US, self.rtt_min)
            return
        if now >= self.probe_rtt_done_ts:
            self.rtt_min_ts = now
            self._enter_probe_bw(now)

    def pause(self, now):
        self.pause_started = now

    def resume(self, now):
        if self.pause_started is None:
            return
        shift = now - self.pause_started
        self.pause_started = None
        self.rtt_min_ts += shift
        self.cycle_mstamp += shift
        if self.probe_rtt_done_ts:
            self.probe_rtt_done_ts += shift
