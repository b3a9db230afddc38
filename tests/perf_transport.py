"""Microbenchmarks of the SendManager paths that settle acks and loss timers,
and of ReceiveManager packet intake.

    python -m pytest tests/perf_transport.py -q

The file name does not match test_*.py, so the plain test run does not
collect it.  Each round builds a fresh sender in its untimed set-up and
times one call.  The shapes follow the benchmark workloads: about 80
outstanding records under a cumulative ack range of about 90 numbers per
ack, and about 110 records per loss-timer fire on overlay-collapse.  The
receiver takes 200 in-order arrivals in which every 40th number is missing,
as a lossy FIFO route delivers them.
"""

from mprtc.simnet import EventLoop
from mprtc.transport import MSS, AckFrame, ReceiveManager, SendManager, SimPacket
from test_transport import advance_clock, primed_sender, seg

ARRIVALS = 200
GAP_EVERY = 40

ROUNDS = 2000


def window_of_eighty():
    """Packets 2-169 sent and 2-89 acked: 80 outstanding when 90-91 are acked."""
    loop, sm = primed_sender()
    for _ in range(168):
        sm.send_segment(seg(), MSS, 20_000, False)
    sm.on_ack(AckFrame(0, [(1, 89)]), 21_000)
    assert len(sm.records) == 80
    return (sm, AckFrame(0, [(2, 91)]), 22_000), {}


def one_lost_of_110():
    """One packet past the 35 ms threshold ahead of 109 young ones, with the
    clock at the loss timer's fire time and its entry retired, as
    EventLoop.run leaves an entry it fires."""
    loop, sm = primed_sender()
    sm.send_segment(seg(), MSS, 20_000, False)
    fire_at = sm._loss_timer[0]
    for _ in range(109):
        sm.send_segment(seg(), MSS, 40_000, False)
    advance_clock(loop, fire_at)
    sm._loss_timer[2] = None
    return (sm,), {}


def live_timer():
    loop, sm = primed_sender()
    sm.send_segment(seg(), MSS, 20_000, False)
    return (sm,), {}


def send_burst(sm):
    segment = seg()
    for _ in range(100):
        sm.send_segment(segment, MSS, 20_000, False)
    return sm


def test_on_ack_two_new_of_eighty(benchmark):
    samples = benchmark.pedantic(SendManager.on_ack, setup=window_of_eighty,
                                 rounds=ROUNDS)
    assert len(samples) == 2


def test_loss_timer_one_lost_of_110(benchmark):
    benchmark.pedantic(SendManager._on_loss_timer, setup=one_lost_of_110,
                       rounds=ROUNDS)


def test_send_burst_of_100(benchmark):
    sm = benchmark.pedantic(send_burst, setup=live_timer, rounds=ROUNDS)
    assert len(sm.records) == 101


def arrivals_with_gaps():
    rx = ReceiveManager(EventLoop(), lambda ack, now: None)
    rx.segment_sink = lambda segment, number, conn_id, now: None
    segment = seg()
    packets = [SimPacket(n, MSS, segment, None, (), None)
               for n in range(1, ARRIVALS + ARRIVALS // GAP_EVERY + 1) if n % GAP_EVERY]
    return (rx, packets), {}


def receive(rx, packets):
    on_packet = rx.on_packet
    for now, packet in enumerate(packets):
        on_packet(packet, now)
    return rx


def test_on_packet_in_order_with_gaps(benchmark):
    rx = benchmark.pedantic(receive, setup=arrivals_with_gaps, rounds=ROUNDS)
    assert rx.data_packets == ARRIVALS
    assert len(rx.ranges.descending()) == ARRIVALS // GAP_EVERY + 1
