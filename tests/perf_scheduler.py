"""Microbenchmarks of the Scheduler's per-frame and per-packet paths.

    python -m pytest tests/perf_scheduler.py -q

The file name does not match test_*.py, so the plain test run does not
collect it.  Each round builds a fresh scheduler in its untimed set-up and
times one call, or the 49 next_segment calls that drain one key frame.
The shapes follow overlay-ucb at about 3.5 Mbit/s: a key frame of about
56 kB is 49 segments, and about 200 entries are retained when the 50 ms
eviction tick ages out the oldest tenth of them.
"""

from mprtc.scheduler import Scheduler
from mprtc.transport import packetize
from test_scheduler import make_two, seg

ROUNDS = 2000
KEY_FRAME_BYTES = 56_000
RETAINED = 200
SEND_GAP_US = 2_250


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


def retained_window():
    """RETAINED delta segments first sent SEND_GAP_US apart from time 0."""
    sched = two_subflows()
    sched.schedule_segments([seg(frame_index=i) for i in range(RETAINED)], 0)
    now = 0
    for sid in (0, 1):
        while sched.next_segment(sid, now) is not None:
            now += SEND_GAP_US
    return (sched, RETAINED * SEND_GAP_US), {}


def test_schedule_key_frame(benchmark):
    entries = benchmark.pedantic(Scheduler.schedule_segments, setup=key_frame,
                                 rounds=ROUNDS)
    assert {e.subflow for e in entries} == {0, 1}


def test_next_segment_drains_key_frame(benchmark):
    sent = benchmark.pedantic(drain, setup=queued_key_frame, rounds=ROUNDS)
    assert sent == len(key_segments())


def test_evict_from_200_retained(benchmark):
    evicted = benchmark.pedantic(Scheduler.evict, setup=retained_window, rounds=ROUNDS)
    assert len(evicted) == 23
