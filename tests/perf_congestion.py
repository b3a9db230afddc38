"""Microbenchmarks of the congestion controller and the path connection's
paced sends.

    python -m pytest tests/perf_congestion.py -q

The file name does not match test_*.py, so the plain test run does not
collect it.  The sample stream is recorded once, at import, from 4 s of one
saturating RTC-BBR flow on the dumbbell workload's 10 Mbps bottleneck, so
it walks StartUp, Drain and ProbeBW as a real path does.  Each round feeds
the whole stream to a fresh controller, or paces 60 packets out of a fresh
connection as VideoSession._pump does: one send per pacer time, while cwnd
has room for it.
"""

import random

from mprtc.congestion import RtcBbrController
from mprtc.session import CappedFlow, PathConnection
from mprtc.simnet import EventLoop, PathDef, US_PER_S, build_topology
from mprtc.transport import MSS, PAYLOAD_BUDGET, SendManager, StreamFrame
from test_transport import NullLink

ROUNDS = 200
PACED = 60


def record_samples(seconds=4):
    """(sample, now) pairs of every ack of one flow, in arrival order."""
    loop = EventLoop()
    net = build_topology(loop, {"topology": "dumbbell", "flows": [{}],
                                "links": [{"id": "L1", "capacity_mbps": 10,
                                           "owd_ms": 20, "queue_ms": 100}]})
    flow = CappedFlow(loop, random.Random(1), net.flow_paths[0], rate_cap_bps=10_000_000)
    stream = []
    on_ack = SendManager.on_ack

    def recording_on_ack(ack, now):
        samples = on_ack(flow.sm, ack, now)
        stream.extend((s, now) for s in samples)
        return samples
    flow.sm.on_ack = recording_on_ack
    flow.start()
    loop.run(seconds * US_PER_S)
    return stream


STREAM = record_samples()


def fresh_controller():
    return (RtcBbrController(random.Random(1)), STREAM), {}


def feed(cc, stream):
    on_sample = cc.on_delivery_sample
    for sample, now in stream:
        on_sample(sample, now)
    return cc


def fresh_connection():
    loop = EventLoop()
    path = PathDef(0, (NullLink(),))
    conn = PathConnection(loop, random.Random(1), path, "rtc-bbr", 0, None)
    return (conn, StreamFrame(PAYLOAD_BUDGET, 0, 0, 1, 0, False)), {}


def pace_out(conn, segment):
    sent = 0
    while sent < PACED and conn.sm.inflight + MSS <= conn.cc.cwnd:
        conn.send(segment, MSS, conn.next_send_ts, False)
        sent += 1
    return sent


def test_on_delivery_sample_recorded_stream(benchmark):
    cc = benchmark.pedantic(feed, setup=fresh_controller, rounds=ROUNDS)
    assert len(STREAM) > 1000 and cc.mode != "StartUp"


def test_paced_send_60(benchmark):
    sent = benchmark.pedantic(pace_out, setup=fresh_connection, rounds=ROUNDS)
    assert sent == PACED
