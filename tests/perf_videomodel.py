"""Microbenchmarks of the receiver's frame reassembly and the path manager's
per-slot decision.

    python -m pytest tests/perf_videomodel.py -q

The file name does not match test_*.py, so the plain test run does not
collect it.  Each round builds fresh state in its untimed set-up and times
one batch.  The shapes follow overlay-ucb at about 3.5 Mbit/s: a second of
30 frames, the first a key frame of 49 segments and the rest deltas of 12,
arriving over two connections; a sweep over 30 pending delta frames of
which half are settled and old enough to abandon; and select_paths over the
workload's 2 subflows x 2 paths with 10 s of samples pushed every 100 ms.
"""

from mprtc.bandit import PathManager
from mprtc.simnet import PathDef
from mprtc.transport import PAYLOAD_BUDGET, StreamFrame
from mprtc.videomodel import ABANDON_AGE_US, VideoSink

ROUNDS = 200
FRAMES = 30
KEY_SEGMENTS = 49
DELTA_SEGMENTS = 12


def one_second_of_segments():
    arrivals = []
    number = {0: 0, 1: 0}
    for fi in range(FRAMES):
        total = KEY_SEGMENTS if fi == 0 else DELTA_SEGMENTS
        for si in range(total):
            conn = si % 2
            number[conn] += 1
            arrivals.append((StreamFrame(PAYLOAD_BUDGET, fi, fi * 33_333, total, si, fi == 0),
                             number[conn], conn, fi * 33_333 + 80_000))
    return arrivals


SEGMENTS = one_second_of_segments()


def fresh_sink():
    return (VideoSink(), SEGMENTS), {}


def reassemble(sink, arrivals):
    on_segment = sink.on_segment
    for segment, number, conn, now in arrivals:
        on_segment(segment, number, conn, now)
    return sink


def pending_frames():
    """30 delta frames each missing its last segment; the older half is past
    the abandon age and below both connections' stop-waiting floors."""
    sink = VideoSink()
    for fi in range(FRAMES):
        for si in range(DELTA_SEGMENTS - 1):
            conn = si % 2
            sink.on_segment(StreamFrame(PAYLOAD_BUDGET, fi, 0, DELTA_SEGMENTS, si, False),
                            fi * 100 + si, conn, fi * 20_000)
    sink.floors = {0: FRAMES // 2 * 100, 1: FRAMES // 2 * 100}
    return (sink, FRAMES // 2 * 20_000 + ABANDON_AGE_US), {}


def manager_with_samples():
    pm = PathManager({0: [PathDef(0, ()), PathDef(1, ())],
                      1: [PathDef(2, ()), PathDef(3, ())]})
    for k in range(100):
        now = k * 100_000
        for pid in range(4):
            pm.on_new_bandwidth_sample(pid, 1e6 + 1e5 * ((k * 7 + pid * 3) % 11), now)
    return (pm, 100 * 100_000), {}


def test_sink_on_segment_one_second(benchmark):
    sink = benchmark.pedantic(reassemble, setup=fresh_sink, rounds=ROUNDS)
    assert len(sink.delivered) == FRAMES


def sweep(sink, now):
    sink.sweep(now)
    return sink


def test_sink_sweep_30_pending(benchmark):
    sink = benchmark.pedantic(sweep, setup=pending_frames, rounds=ROUNDS)
    assert len(sink.abandoned) == FRAMES // 2


def test_select_paths_2x2(benchmark):
    chosen = benchmark.pedantic(PathManager.select_paths, setup=manager_with_samples,
                                rounds=ROUNDS)
    assert set(chosen) == {0, 1} and -1 not in chosen.values()
