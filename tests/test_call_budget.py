"""Python calls per data packet on the per-packet path, counted with
sys.setprofile: send, link, receiver, ack, send manager and controller.

Simulated seconds per wall second is the benchmark's headline, and the
per-packet path has no hot spot: its cost is the number of Python frames
each packet makes.  Each bound is the count of the code that set it plus a
margin of less than one call per packet, so a change that puts a frame back
on the path fails here on every supported Python, not only in the
benchmark.  Python 3.12 and later inline comprehensions, which only lowers
the counts.
"""

import random
import sys

from mprtc.session import CappedFlow, VideoSession
from mprtc.simnet import EventLoop, build_topology
from test_session import collapse_traces

US_PER_S = 1_000_000

# Calls per data packet on Python 3.11, which counts highest: 20.6 and 40.6
# when the bounds were set, against 36.2 and 58.4 with a helper call per step
# and a pump that asked twice, 42.8 on the overlay with a method call that
# worked out each entry's resend deadline again at every check, and 41.7
# with a method call per segment assigned.
CAPPED_FLOW_BOUND = 21.0
OVERLAY_BOUND = 41.5


def calls_while_running(loop, until: int) -> int:
    """Python "call" events while loop runs to until."""
    calls = 0

    def profile(frame, event, arg):
        nonlocal calls
        if event == "call":
            calls += 1

    sys.setprofile(profile)
    try:
        loop.run(until)
    finally:
        sys.setprofile(None)
    return calls


def test_capped_flow_calls_per_packet():
    """One saturating flow alone on the dumbbell's 10 Mbit/s bottleneck."""
    loop = EventLoop()
    net = build_topology(loop, {"topology": "dumbbell", "flows": [{}], "links": [
        {"capacity_mbps": 10, "owd_ms": 20, "queue_ms": 100}]})
    flow = CappedFlow(loop, random.Random(1), net.flow_paths[0], rate_cap_bps=10_000_000)
    flow.start()
    loop.run(US_PER_S)  # past StartUp and Drain
    sent = flow.sm.packets_sent
    calls = calls_while_running(loop, 3 * US_PER_S)
    per_packet = calls / (flow.sm.packets_sent - sent)
    assert flow.sm.packets_sent - sent > 1000
    assert per_packet <= CAPPED_FLOW_BOUND, per_packet


def test_overlay_session_calls_per_packet():
    """A ucb session over the collapse traces, once its encoder has ramped
    up and before the outage."""
    loop = EventLoop()
    rng = random.Random(5)
    net = build_topology(loop, {"topology": "multipath-overlay"}, rng=rng,
                         traces=collapse_traces())
    session = VideoSession(loop, rng, net.candidates)
    session.start(0)

    def sent():
        return sum(conn.sm.packets_sent for conn in session.paths.values())

    loop.run(2 * US_PER_S)
    before = sent()
    calls = calls_while_running(loop, 8 * US_PER_S)
    per_packet = calls / (sent() - before)
    assert sent() - before > 500
    assert per_packet <= OVERLAY_BOUND, per_packet
