"""Emergent behaviour of the stack, checked against the model it follows.

The digest pins and the reference oracles check that a run is the same
run, and move together when a behaviour change re-pins them.  These checks
stay: they state what the BBR design promises (Cardwell et al., "BBR:
Congestion-Based Congestion Control", ACM Queue 2016), with margins taken
from today's values, so they hold across a re-pin and fail when the
controller stops behaving like BBR.

The scenario is one saturating ``CappedFlow`` alone on a 10 Mbit/s link
with a 20 ms one-way delay and a 100 ms queue, run for 30 s and measured
from 5 s on, past StartUp and Drain.  Its rate cap is 100 Mbit/s, well
above the link: capped at the link rate, the pacer alone would bound the
queue, whatever the controller did.
"""

import functools
import random
import statistics

import pytest

from mprtc.congestion import PROBE_RTT
from mprtc.session import CappedFlow
from mprtc.simnet import EventLoop, US_PER_S, build_topology
from mprtc.transport import MSS

LINK_BPS = 10_000_000   # the link below, as build_topology reads it
OWD_US = 20_000
RUN_US = 30 * US_PER_S
MEASURED_FROM_US = 5 * US_PER_S
SEEDS = [1, 2]


@functools.cache
def lone_flow(variant: str, seed: int) -> tuple[float, float, int]:
    """(share of the link used in wire bytes, median queueing delay in ms,
    ProbeRTT entries) of the lone flow over the measured span.

    A packet's queueing delay is its one-way delay (a CappedFlow segment
    carries its send time as capture_ts) less the propagation delay and its
    own serialization time.  ProbeRTT entries are counted at arrivals,
    which never stop: ProbeRTT keeps 4 packets in flight."""
    loop = EventLoop()
    net = build_topology(loop, {"topology": "dumbbell", "flows": [{}], "links": [
        {"capacity_mbps": 10, "owd_ms": 20, "queue_ms": 100}]})
    flow = CappedFlow(loop, random.Random(seed), net.flow_paths[0], variant=variant,
                      rate_cap_bps=10 * LINK_BPS)
    serialization_us = MSS * 8 * US_PER_S // LINK_BPS
    delays = []
    in_probe_rtt = []

    def arrival(segment, number, conn_id, now):
        if now >= MEASURED_FROM_US:
            delays.append(now - segment.capture_ts - OWD_US - serialization_us)
            in_probe_rtt.append(flow.cc.mode == PROBE_RTT)

    flow.rm.segment_sink = arrival
    flow.start()
    loop.run(MEASURED_FROM_US)
    received = flow.rm.bytes_received
    loop.run(RUN_US)
    share = (flow.rm.bytes_received - received) * 8 * US_PER_S / (RUN_US - MEASURED_FROM_US)
    entries = sum(now and not before
                  for before, now in zip([False] + in_probe_rtt, in_probe_rtt))
    return share / LINK_BPS, statistics.median(delays) / 1000, entries


@pytest.mark.parametrize("seed", SEEDS)
def test_a_lone_flow_fills_the_link(seed):
    """At least 0.95 of the link, in wire bytes: 0.98 today.  Payload
    alone is 0.951, too close to the bound to use."""
    share, _, _ = lone_flow("rtc-bbr", seed)
    assert share >= 0.95, share


@pytest.mark.parametrize("seed", SEEDS)
def test_a_lone_flow_keeps_its_queue_short(seed):
    """Median queueing delay under a quarter of the 40 ms propagation RTT:
    6.5-6.7 ms today.  ProbeBW's probe down drains what probe up queued."""
    _, delay_ms, _ = lone_flow("rtc-bbr", seed)
    assert delay_ms < 2 * OWD_US / 1000 / 4, delay_ms


@pytest.mark.parametrize("seed", SEEDS)
def test_probe_rtt_comes_about_once_per_min_rtt_expiry(seed):
    """25 s measured against a 10 s min-RTT expiry: 1 to 3 entries, 2 today."""
    _, _, entries = lone_flow("rtc-bbr", seed)
    assert 1 <= entries <= 3, entries


@pytest.mark.parametrize("seed", SEEDS)
def test_rtc_bbr_probes_down_to_keep_delay_below_stock_bbr(seed):
    """RTC-BBR reduces inflight to the BDP when it probes down, to reduce
    delay, so its median queueing delay is below stock BBR's: 6.6 ms
    against 35.3 ms today."""
    _, rtc_ms, _ = lone_flow("rtc-bbr", seed)
    _, stock_ms, _ = lone_flow("bbr", seed)
    assert rtc_ms < stock_ms, (rtc_ms, stock_ms)
