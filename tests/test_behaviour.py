"""Emergent behaviour of the stack, checked against the model it follows.

The digest pins and the reference oracles check that a run is the same
run, and move together when a behaviour change re-pins them.  These checks
stay: they state what the BBR design promises (Cardwell et al., "BBR:
Congestion-Based Congestion Control", ACM Queue 2016), with margins taken
from today's values, so they hold across a re-pin and fail when the
controller stops behaving like BBR.

Three scenarios, each run for 30 s:
- one saturating ``CappedFlow`` alone on a 10 Mbit/s link with a 20 ms
  one-way delay and a 100 ms queue, measured from 5 s on, past StartUp and
  Drain.  Its rate cap is 100 Mbit/s, well above the link: capped at the
  link rate, the pacer alone would bound the queue, whatever the
  controller did;
- two such flows on that link, the second started at 5 s, measured from
  15 s on;
- two uncapped flows on the rtt-unfairness topology, at 40 ms and 80 ms
  round trips through one 4 Mbit/s link, measured from 10 s on.
"""

import functools
import math
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
DUMBBELL_LINK = {"capacity_mbps": 10, "owd_ms": 20, "queue_ms": 100}
# L1 is the 4 Mbit/s bottleneck.  Flow 0 crosses L0, L1 and L2, a 40 ms
# round trip; flow 1 crosses L3, L1 and L4, 80 ms.  Every queue holds 200 ms.
RTT_LINKS = [{"id": f"L{i}", "capacity_mbps": 4 if i == 1 else 10, "owd_ms": owd_ms,
              "queue_ms": 200} for i, owd_ms in enumerate((5, 10, 5, 5, 25))]


def received_between(loop, flows, start_us, end_us):
    """Starts the flows, and returns the bytes each receives over
    [start_us, end_us]."""
    for flow in flows:
        flow.start()
    loop.run(start_us)
    before = [flow.rm.bytes_received for flow in flows]
    loop.run(end_us)
    return [flow.rm.bytes_received - n for flow, n in zip(flows, before)]


@functools.cache
def lone_flow(variant: str, seed: int) -> tuple[float, float, int]:
    """(share of the link used in wire bytes, median queueing delay in ms,
    ProbeRTT entries) of the lone flow over the measured span.

    A packet's queueing delay is its one-way delay (a CappedFlow segment
    carries its send time as capture_ts) less the propagation delay and its
    own serialization time.  ProbeRTT entries are counted at arrivals,
    which never stop: ProbeRTT keeps 4 packets in flight."""
    loop = EventLoop()
    net = build_topology(loop, {"topology": "dumbbell", "flows": [{}],
                                "links": [DUMBBELL_LINK]})
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
    (received,) = received_between(loop, [flow], MEASURED_FROM_US, RUN_US)
    share = received * 8 * US_PER_S / (RUN_US - MEASURED_FROM_US)
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


def staggered_pair_jain(seed: int) -> float:
    """Jain's index of the bytes two RTC-BBR flows on the lone flow's link
    receive over [15 s, 30 s], the second started at 5 s."""
    loop = EventLoop()
    net = build_topology(loop, {"topology": "dumbbell", "flows": [{}, {}],
                                "links": [DUMBBELL_LINK]})
    rng = random.Random(seed)
    flows = [CappedFlow(loop, rng, path, conn_id=i, rate_cap_bps=10 * LINK_BPS,
                        start_ts=i * 5 * US_PER_S) for i, path in enumerate(net.flow_paths)]
    received = received_between(loop, flows, 15 * US_PER_S, RUN_US)
    return sum(received) ** 2 / (len(received) * sum(n * n for n in received))


def short_over_long(variant: str, seed: int) -> float:
    """Bytes the 40 ms flow receives over [10 s, 30 s], divided by the 80 ms
    flow's.  Both are uncapped and start at random within the first second."""
    loop = EventLoop()
    net = build_topology(loop, {"topology": "rtt-unfairness", "links": RTT_LINKS})
    rng = random.Random(seed)
    flows = [CappedFlow(loop, rng, path, variant=variant, conn_id=i,
                        rate_cap_bps=math.inf, start_ts=rng.randint(0, US_PER_S))
             for i, path in enumerate(net.flow_paths)]
    short, long = received_between(loop, flows, 10 * US_PER_S, RUN_US)
    return short / long


@pytest.mark.parametrize("seed", SEEDS)
def test_two_equal_rtt_flows_converge(seed):
    """A flow that joins a link another already fills gets its share: over
    the last 15 s Jain's index is at least 0.95, 0.992-0.994 today (stock
    BBR 0.975-0.991)."""
    jain = staggered_pair_jain(seed)
    assert jain >= 0.95, jain


@pytest.mark.parametrize("seed", SEEDS)
def test_rtc_bbr_shares_with_a_flow_of_twice_its_rtt(seed):
    """At a 2:1 round-trip ratio the 40 ms flow receives more than 0.3 of
    the 80 ms flow's bytes under RTC-BBR, 0.42-0.58 today, and less than 0.2
    under stock BBR, 0.04-0.12 today: the fairness the paper claims for
    RTC-BBR."""
    rtc = short_over_long("rtc-bbr", seed)
    stock = short_over_long("bbr", seed)
    assert rtc > 0.3, rtc
    assert stock < 0.2, stock
    assert rtc > stock, (rtc, stock)
