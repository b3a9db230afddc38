"""Microbenchmarks of the Scheduler's per-frame and per-packet paths.

    python -m pytest tests/perf_scheduler.py -q

The file name does not match test_*.py, so the plain test run does not
collect it.  Each round builds a fresh scheduler in its untimed set-up and
times one call, or the 49 next_segment calls that drain one key frame.
The shapes follow overlay-ucb at about 3.5 Mbit/s: a key frame of about
56 kB is 49 segments.  The eviction case is a path collapse: 200 delta
segments sent 1.8 ms apart are all reported lost and requeued, and the
next 50 ms eviction tick removes the oldest tenth of them from the queues.
"""

from mprtc.scheduler import Scheduler
from mprtc.transport import packetize
from test_scheduler import make_two, seg, sid_of

ROUNDS = 2000
KEY_FRAME_BYTES = 56_000
REQUEUED = 200
SEND_GAP_US = 1_800
LOSS_US = 386_000  # the oldest segment's age here is still within RETENTION_US
EVICT_US = LOSS_US + 50_000


def two_subflows():
    return make_two(bw0=2e6, bw1=1.3e6, srtt0=80_000, srtt1=120_000)


def key_segments():
    return packetize(KEY_FRAME_BYTES, 0, 0, True)


def key_frame():
    return (two_subflows(), key_segments(), 0), {}


def queued_key_frame():
    sched = two_subflows()
    sched.schedule_segments(key_segments(), 0)
    return (sched,), {}


def drain(sched):
    sent = 0
    for sid in (0, 1):
        while sched.next_segment(sid, 1_000) is not None:
            sent += 1
    return sent


def requeued_window():
    """REQUEUED delta segments first sent SEND_GAP_US apart from time 0, all
    reported lost at LOSS_US and waiting in the queues at EVICT_US."""
    sched = two_subflows()
    sched.schedule_segments([seg(frame_index=i) for i in range(REQUEUED)], 0)
    sent = []
    now = 0
    for sid in (0, 1):
        while (entry := sched.next_segment(sid, now)) is not None:
            sent.append(entry)
            now += SEND_GAP_US
    sids, _ = sched.on_loss(sent, LOSS_US)
    assert len(sids) == REQUEUED
    return (sched, EVICT_US), {}


def test_schedule_key_frame(benchmark):
    latest = []  # the scheduler of the latest round, whose entries are returned

    def setup():
        args, kwargs = key_frame()
        latest[:] = [args[0]]
        return args, kwargs

    entries = benchmark.pedantic(Scheduler.schedule_segments, setup=setup, rounds=ROUNDS)
    assert {sid_of(latest[0], e) for e in entries} == {0, 1}


def test_next_segment_drains_key_frame(benchmark):
    sent = benchmark.pedantic(drain, setup=queued_key_frame, rounds=ROUNDS)
    assert sent == len(key_segments())


def test_evict_from_200_requeued(benchmark):
    evicted = benchmark.pedantic(Scheduler.evict, setup=requeued_window, rounds=ROUNDS)
    assert len(evicted) == 20
