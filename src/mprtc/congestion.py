"""BBR-family congestion control with two ProbeBW variants.

The "bbr" variant cycles the classic 8-phase gain vector
[1.25, 0.75, 1, 1, 1, 1, 1, 1].  The "rtc-bbr" variant replaces it with a
randomized-length cycle (2..8 RTTs) that probes at 1.1, drops to 0.85 on
queue growth or loss, and returns to 1.0 once inflight matches the BDP.
Both share StartUp/Drain/ProbeRTT and the max-bandwidth / min-RTT filters.

cwnd is STARTUP_GAIN x BDP (at least INITIAL_CWND) in StartUp and Drain,
PROBE_BW_CWND_GAIN x BDP in ProbeBW and PROBE_RTT_CWND in ProbeRTT.  Unlike
tcp_bbr.c, ProbeRTT is entered from ProbeBW only and always returns there.
"""

from __future__ import annotations

from collections import deque

from .transport import MSS, DeliveryRateSample

STARTUP_GAIN = 2.885
DRAIN_GAIN = 1 / 2.885
PROBE_BW_CWND_GAIN = 2
BW_WINDOW_ROUNDS = 10
MIN_RTT_EXPIRY_US = 10_000_000
PROBE_RTT_DURATION_US = 200_000
PROBE_RTT_CWND = 4 * MSS
STARTUP_GROWTH_TARGET = 1.25
STARTUP_FULL_BW_ROUNDS = 3
GAIN_CYCLE_LEN = 8
CYCLE_RAND = 7
PROBE_UP_GAIN = 1.1
PROBE_DOWN_GAIN = 0.85
STOCK_GAIN_CYCLE = (1.25, 0.75, 1, 1, 1, 1, 1, 1)
INITIAL_BW_BPS = 300_000
INITIAL_CWND = 32 * MSS

STARTUP = "StartUp"
DRAIN = "Drain"
PROBE_BW = "ProbeBW"
PROBE_RTT = "ProbeRTT"


class WindowedMaxFilter:
    """Max over the last BW_WINDOW_ROUNDS rounds, via a monotonic deque."""

    __slots__ = ("_samples",)

    def __init__(self) -> None:
        self._samples: deque = deque()  # (round, value), values strictly decreasing

    def update(self, value: float, round_count: int) -> float:
        """Take value as round_count's sample and return the new max."""
        samples = self._samples
        while samples and samples[-1][1] <= value:
            samples.pop()
        samples.append((round_count, value))
        bound = round_count - BW_WINDOW_ROUNDS
        while samples[0][0] <= bound:  # value itself, at round_count, stays
            samples.popleft()
        return samples[0][1]

    def get(self) -> float:
        return self._samples[0][1] if self._samples else 0.0


class BbrController:
    """One controller per (subflow, candidate path).

    Feed it DeliveryRateSamples; read pacing_rate / cwnd / bw_es / rtt_min.
    `variant` selects the ProbeBW behavior ("rtc-bbr" or "bbr").

    The outputs are stored values, not getters.  As in Linux tcp_bbr.c's
    bbr_main, which sets the pacing rate and cwnd once per ack, they are
    computed where their inputs change and senders read them per packet.
    bw_es is stored after every update of the bandwidth filter.
    on_delivery_sample works the BDP out once per sample, as soon as bw_es
    and rtt_min are final (no mode change moves either), and hands it to
    the Drain exit, the ProbeBW cycles and the cwnd; pacing_rate and cwnd
    are stored at the end of on_delivery_sample.  pause and resume move
    only clocks, which no output reads.

    on_delivery_sample counts rounds, updates the filters and stores the
    outputs in its own frame, since it runs once per acked packet; it calls
    a helper only to change mode or gain.  tests/reference_bbr.py keeps the
    same intake with one helper per step, and the tests require both to
    hold the same state after every call.
    """

    __slots__ = (
        "rng", "variant", "mode",
        "max_bw_filter", "round_count", "next_round_delivered",
        "rtt_min", "rtt_min_ts", "probe_rtt_done_ts",
        "full_bw", "full_bw_count",
        "pacing_gain", "cycle_mstamp", "cycle_len", "cycle_phase",
        "loss_since_update", "pause_started",
        "bw_es", "pacing_rate", "cwnd",
    )

    def __init__(self, rng, variant: str = "rtc-bbr") -> None:
        if variant not in ("rtc-bbr", "bbr"):
            raise ValueError(f"unknown variant {variant!r}")
        self.rng = rng
        self.variant = variant
        self.mode = STARTUP
        self.max_bw_filter = WindowedMaxFilter()
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
        self.pause_started = None  # the time of the pause in effect, None while running
        # The filter is empty (bw_es is the initial estimate) and rtt_min 0
        # (the BDP is INITIAL_CWND), as on_delivery_sample would store them.
        self.bw_es = INITIAL_BW_BPS
        self.pacing_rate = INITIAL_BW_BPS * STARTUP_GAIN
        self.cwnd = max(STARTUP_GAIN * INITIAL_CWND, INITIAL_CWND)

    # -- sample intake

    def on_delivery_sample(self, sample: DeliveryRateSample, now: int) -> None:
        if sample.has_loss:
            self.loss_since_update = True
        # A round ends when a packet sent after the previous round's end
        # is delivered; the send manager's delivered counter marks both.
        round_ended = sample.delivered_at_send >= self.next_round_delivered
        if round_ended:
            self.round_count += 1
            self.next_round_delivered = sample.delivered_at_ack
        # An app-limited sample below the max says nothing about the path.
        if not (sample.app_limited and sample.bandwidth <= self.max_bw_filter.get()):
            bw = self.max_bw_filter.update(sample.bandwidth, self.round_count)
            self.bw_es = bw if bw > 0 else INITIAL_BW_BPS
        rtt_min = self.rtt_min
        min_rtt_expired = bool(rtt_min) and now - self.rtt_min_ts > MIN_RTT_EXPIRY_US
        if not rtt_min or sample.rtt <= rtt_min or min_rtt_expired:
            self.rtt_min = rtt_min = sample.rtt
            self.rtt_min_ts = now
        bw_es = self.bw_es
        bdp = bw_es * rtt_min / 8 / 1_000_000 if rtt_min else INITIAL_CWND
        if self.mode == STARTUP and round_ended and self._check_full_pipe(sample):
            self.mode = DRAIN
            self.pacing_gain = DRAIN_GAIN
        if self.mode == DRAIN and sample.inflight <= bdp:
            self._enter_probe_bw(now)
        if self.mode == PROBE_BW:
            if min_rtt_expired:
                self.mode = PROBE_RTT
                self.pacing_gain = 1
                self.probe_rtt_done_ts = 0
            elif self.variant == "rtc-bbr":
                self._update_gain_cycle_phase(now, sample.inflight, self.loss_since_update, bdp)
                self.loss_since_update = False
            else:
                self._stock_bbr_cycle(now, sample.inflight, bdp)
        mode = self.mode
        if mode == PROBE_RTT:
            self._probe_rtt_dwell(sample, now)
            mode = self.mode
        # The outputs, once mode and pacing_gain are final.
        self.pacing_rate = bw_es * self.pacing_gain
        if mode == PROBE_RTT:
            self.cwnd = PROBE_RTT_CWND
        elif mode == PROBE_BW:
            self.cwnd = PROBE_BW_CWND_GAIN * bdp
        else:  # StartUp or Drain
            self.cwnd = max(STARTUP_GAIN * bdp, INITIAL_CWND)

    # -- StartUp / Drain

    def _check_full_pipe(self, sample: DeliveryRateSample) -> bool:
        """True once bandwidth stopped growing for STARTUP_FULL_BW_ROUNDS rounds."""
        if sample.app_limited:
            return False  # an idle app, not the path, bounded this round
        bw = self.max_bw_filter.get()
        if bw >= self.full_bw * STARTUP_GROWTH_TARGET:
            self.full_bw = bw
            self.full_bw_count = 0
            return False
        self.full_bw_count += 1
        return self.full_bw_count >= STARTUP_FULL_BW_ROUNDS

    def _enter_probe_bw(self, now: int) -> None:
        """Enter ProbeBW, or restart RTC-BBR's cycle, at a fresh cycle start."""
        self.mode = PROBE_BW
        self.cycle_mstamp = now
        if self.variant == "rtc-bbr":
            self.cycle_len = GAIN_CYCLE_LEN - self.rng.randrange(CYCLE_RAND)
            self.pacing_gain = PROBE_UP_GAIN
        else:
            self.cycle_phase = self.rng.randrange(len(STOCK_GAIN_CYCLE))
            self.pacing_gain = STOCK_GAIN_CYCLE[self.cycle_phase]

    # -- ProbeBW gain cycling

    def _update_gain_cycle_phase(self, now: int, inflight: int, has_loss: bool,
                                 bdp: float) -> None:
        elapsed = now - self.cycle_mstamp
        if elapsed > self.cycle_len * self.rtt_min:
            self._enter_probe_bw(now)
            return
        if self.pacing_gain == 1:
            return
        if self.pacing_gain < 1.0 and inflight <= bdp:
            self.pacing_gain = 1
        if elapsed > self.rtt_min and (inflight > PROBE_UP_GAIN * bdp or has_loss):
            self.pacing_gain = PROBE_DOWN_GAIN

    def _stock_bbr_cycle(self, now: int, inflight: int, bdp: float) -> None:
        elapsed = now - self.cycle_mstamp
        advance = elapsed > self.rtt_min
        if not advance and self.pacing_gain == 0.75 and inflight <= bdp:
            advance = True  # probe-down has done its job, move on early
        if advance:
            self.cycle_phase = (self.cycle_phase + 1) % len(STOCK_GAIN_CYCLE)
            self.cycle_mstamp = now
            self.pacing_gain = STOCK_GAIN_CYCLE[self.cycle_phase]

    # -- ProbeRTT

    def _probe_rtt_dwell(self, sample: DeliveryRateSample, now: int) -> None:
        # Hold cwnd at 4 MSS for max(200 ms, one rtt_min) once inflight drains.
        if self.probe_rtt_done_ts == 0:
            if sample.inflight <= PROBE_RTT_CWND:
                self.probe_rtt_done_ts = now + max(PROBE_RTT_DURATION_US, self.rtt_min)
            return
        if now >= self.probe_rtt_done_ts:
            self.rtt_min_ts = now
            self._enter_probe_bw(now)

    # -- pause/resume (bandit keeps non-exploited paths' state frozen)

    def pause(self, now: int) -> None:
        self.pause_started = now

    def resume(self, now: int) -> None:
        if self.pause_started is None:
            return  # running already
        shift = now - self.pause_started
        self.pause_started = None
        self.rtt_min_ts += shift
        self.cycle_mstamp += shift
