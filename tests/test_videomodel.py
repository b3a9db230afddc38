"""Video source, encoder lag, drop rule, and sink reassembly."""

import math
import random
from typing import NamedTuple

from hypothesis import given, settings, strategies as st

from mprtc import videomodel
from mprtc.simnet import EventLoop
from mprtc.transport import StreamFrame
from mprtc.videomodel import (
    DROP_BUDGET_US,
    VideoSink,
    VideoSource,
)


class Encoded(NamedTuple):
    """One frame_sink call, with the clock and the encoder rate it saw."""
    size: int
    frame_index: int
    capture_ts: int
    key_frame: bool
    encode_done_ts: int
    rate_at_encode: float


def recording_source(loop, rng, reference_rate_fn, min_latency_fn):
    """A VideoSource whose frame_sink records each call as an Encoded; the
    encoder's rate holds still between an encode's start and its sink call."""
    frames = []
    src = VideoSource(
        loop,
        rng,
        frame_sink=lambda size, fi, capture_ts, key: frames.append(
            Encoded(size, fi, capture_ts, key, loop.now, src.actual_rate)),
        reference_rate_fn=reference_rate_fn,
        min_latency_fn=min_latency_fn,
    )
    return src, frames


def make_source(rate=3_000_000.0, lam=50_000.0, seed=1):
    loop = EventLoop()
    src, frames = recording_source(loop, random.Random(seed), lambda: rate, lambda: lam)
    return loop, src, frames


def seg(fi, si, total, key=0, length=1000, capture_ts=0):
    return StreamFrame(
        payload_length=length,
        frame_index=fi,
        capture_ts=capture_ts,
        total_segments=total,
        segment_index=si,
        key_frame=key,
    )


class TestSource:
    def test_capture_cadence(self):
        loop, src, frames = make_source()
        src.start(0)
        loop.run(1_000_000)
        captures = [row[1] for row in src.frame_log]
        expected = [i * 1_000_000 // 30 for i in range(len(captures))]
        assert captures == expected
        assert len(captures) >= 29

    def test_first_frame_sizes_at_3mbps(self):
        # base 3e6/240 = 12500 B; GOP norm 60/63; key frames 4x.
        loop, src, frames = make_source(rate=3_000_000.0)
        src.start(0)
        loop.run(100_000)
        key, delta = frames[0], frames[1]
        assert key.key_frame and not delta.key_frame
        assert key.size == int(12_500 * (60 / 63) * 4) == 47_619
        assert delta.size == int(12_500 * (60 / 63)) == 11_904

    def test_gop_period(self):
        loop, src, frames = make_source()
        src.start(0)
        loop.run(3_000_000)
        keys = [f.frame_index for f in frames if f.key_frame]
        assert keys == [0, 60]

    def test_rate_step_settles_like_first_order_lag(self):
        # 3 -> 1 Mbps step at t=1s: residual after three time constants is
        # exp(-3) of the step, just under 5%.
        rate_box = {"r": 3_000_000.0}
        loop = EventLoop()
        src, frames = recording_source(loop, random.Random(3), lambda: rate_box["r"],
                                       lambda: 50_000.0)
        src.start(0)
        loop.run(999_999)
        rate_box["r"] = 1_000_000.0
        loop.run(4_200_000)
        settled = [f for f in frames if f.capture_ts >= 4_050_000]
        assert settled
        assert abs(settled[0].rate_at_encode - 1_000_000.0) <= 0.05 * 2_000_000.0

    def test_target_rate_clamped(self):
        loop, src, _ = make_source(rate=6_000_000.0)
        src.start(0)
        loop.run(10_000)
        assert src.target_rate == 4_000_000.0

        loop2, src2, _ = make_source(rate=10_000.0)
        src2.start(0)
        loop2.run(10_000)
        assert src2.target_rate == 50_000.0

    def test_frames_at_the_rate_floor_are_never_empty_or_instant(self):
        # The encoder relies on these bounds instead of clamping: a delta
        # frame at the 50 kbit/s floor is int(50_000 / 240 * 60 / 63) bytes,
        # and an encode takes 8 ms +- 2 ms.
        loop, src, frames = make_source(rate=0.0)
        src.start(0)
        loop.run(3_000_000)
        assert min(f.size for f in frames) == 198
        assert all(6_000 <= f.encode_done_ts - f.capture_ts <= 10_000 for f in frames)

    def test_encode_delay_estimate_fixed_point(self, monkeypatch):
        monkeypatch.setattr(videomodel, "ENCODE_DELAY_BASE_US", 10_000)
        monkeypatch.setattr(videomodel, "ENCODE_DELAY_SPREAD_US", 0)
        loop, src, frames = make_source()
        src.d_en_hat = 10_000.0
        src.start(0)
        loop.run(200_000)
        assert len(frames) >= 3
        assert src.d_en_hat == 10_000.0

    def test_drop_when_projected_delay_exceeds_budget(self):
        from mprtc.videomodel import RawFrame

        loop, src, frames = make_source(lam=50_000.0)
        src.d_en_hat = 80_000.0
        src.raw_queue.append(RawFrame(0, 700_000))
        src._service(1_000_000)  # d_q 300ms + 80 + 50 = 430ms > 400
        assert src.frames_dropped == 1
        assert not src.busy

    def test_exactly_at_budget_is_kept(self):
        from mprtc.videomodel import RawFrame

        loop, src, frames = make_source(lam=50_000.0)
        src.d_en_hat = 80_000.0
        src.raw_queue.append(RawFrame(0, 730_000))
        src._service(1_000_000)  # 270 + 80 + 50 = 400ms exactly
        assert src.frames_dropped == 0
        assert src.busy

    def test_long_run_rate_tracks_reference(self):
        loop, src, frames = make_source(rate=2_000_000.0)
        src.start(0)
        loop.run(10_000_000)
        total_bits = 8 * sum(f.size for f in frames)
        rate = total_bits / 10.0
        assert abs(rate - 2_000_000.0) <= 0.10 * 2_000_000.0

    def test_slow_encoder_builds_queue_and_drops(self, monkeypatch):
        # 50 ms service > 33 ms arrival interval: queue grows until the drop
        # rule caps the raw-queue delay.
        monkeypatch.setattr(videomodel, "ENCODE_DELAY_BASE_US", 50_000)
        monkeypatch.setattr(videomodel, "ENCODE_DELAY_SPREAD_US", 0)
        loop, src, frames = make_source(lam=0.0)
        src.d_en_hat = 50_000.0
        src.start(0)
        loop.run(5_000_000)
        assert src.frames_dropped > 0
        for f in frames:
            d_q = (f.encode_done_ts - 50_000) - f.capture_ts
            assert d_q + 50_000.0 <= DROP_BUDGET_US

    def test_deterministic_for_same_seed(self):
        loop1, src1, f1 = make_source(seed=9)
        src1.start(0)
        loop1.run(2_000_000)
        loop2, src2, f2 = make_source(seed=9)
        src2.start(0)
        loop2.run(2_000_000)
        assert src1.frame_log == src2.frame_log
        assert [f.size for f in f1] == [f.size for f in f2]


class TestSink:
    def test_three_segments_delivered_once(self):
        sink = VideoSink()
        for si, ts in zip(range(3), (100, 200, 300)):
            sink.on_segment(seg(0, si, 3, length=500), si + 1, 0, ts)
        assert len(sink.delivered) == 1
        rec = sink.delivered[0]
        assert rec.frame_index == 0
        assert rec.size == 1500
        assert rec.delivered_ts == 300

    def test_duplicate_segment_counted_once(self):
        sink = VideoSink()
        sink.on_segment(seg(0, 0, 2, length=700), 1, 0, 100)
        sink.on_segment(seg(0, 0, 2, length=700), 2, 0, 150)
        sink.on_segment(seg(0, 1, 2, length=300), 3, 0, 200)
        assert len(sink.delivered) == 1
        assert sink.delivered[0].size == 1000

    def test_release_held_until_earlier_frame_resolves(self):
        sink = VideoSink()
        sink.on_segment(seg(0, 0, 2), 1, 0, 100)  # frame 0 incomplete
        sink.on_segment(seg(1, 0, 1), 2, 0, 200)  # frame 1 complete
        assert sink.delivered == []
        sink.on_segment(seg(0, 1, 2), 3, 0, 300)
        assert [r.frame_index for r in sink.delivered] == [0, 1]

    def test_unseen_frame_does_not_block(self):
        sink = VideoSink()
        sink.on_segment(seg(0, 0, 1), 1, 0, 100)
        sink.on_segment(seg(2, 0, 1), 2, 0, 200)
        assert [r.frame_index for r in sink.delivered] == [0, 2]

    def test_abandon_requires_floor_and_age(self):
        sink = VideoSink()
        sink.on_segment(seg(0, 0, 2), 1, 0, 100)
        sink.on_segment(seg(1, 0, 1), 2, 0, 200)
        # floor passed but frame still young: keep waiting
        sink.on_stop_waiting(0, 5, 100_000)
        assert sink.delivered == [] and sink.abandoned == []
        # old enough but floor not yet past packet 1: keep waiting
        sink2 = VideoSink()
        sink2.on_segment(seg(0, 0, 2), 7, 0, 100)
        sink2.on_stop_waiting(0, 7, 600_000)
        assert sink2.abandoned == []
        # both conditions met
        sink.on_stop_waiting(0, 5, 500_200)
        assert [a[0] for a in sink.abandoned] == [0]
        assert [r.frame_index for r in sink.delivered] == [1]

    def test_abandon_needs_every_involved_connection_settled(self):
        sink = VideoSink()
        sink.on_segment(seg(0, 0, 3), 4, 0, 100)
        sink.on_segment(seg(0, 1, 3), 9, 1, 150)
        sink.on_stop_waiting(0, 10, 600_000)
        assert sink.abandoned == []  # conn 1 floor unknown
        sink.on_stop_waiting(1, 10, 600_100)
        assert [a[0] for a in sink.abandoned] == [0]

    def test_key_frame_never_abandoned(self):
        sink = VideoSink()
        sink.on_segment(seg(0, 0, 2, key=1), 1, 0, 100)
        sink.on_segment(seg(1, 0, 1), 2, 0, 200)
        sink.on_stop_waiting(0, 100, 900_000)
        assert sink.abandoned == []
        assert sink.delivered == []  # key frame still blocks release
        sink.on_segment(seg(0, 1, 2, key=1), 50, 0, 950_000)
        assert [r.frame_index for r in sink.delivered] == [0, 1]

    def test_late_completion_after_abandonment_is_ignored(self):
        sink = VideoSink()
        sink.on_segment(seg(0, 0, 2), 1, 0, 100)
        sink.on_stop_waiting(0, 5, 500_000)
        assert [a[0] for a in sink.abandoned] == [0]
        sink.on_segment(seg(0, 1, 2), 6, 0, 550_000)
        assert sink.delivered == []
        assert len(sink.abandoned) == 1

    def test_released_indices_strictly_increasing_under_fuzz(self):
        rng = random.Random(42)
        sink = VideoSink()
        now = 0
        number = 1
        events = []
        for fi in range(120):
            total = rng.randint(1, 4)
            count = total if rng.random() < 0.8 else rng.randint(0, total - 1)
            order = list(range(total))
            rng.shuffle(order)
            for si in order[:count]:
                events.append((fi, si, total))
        rng.shuffle(events)
        for fi, si, total in events:
            now += rng.randint(1, 5_000)
            sink.on_segment(seg(fi, si, total), number, rng.randint(0, 1), now)
            number += 1
            if rng.random() < 0.05:
                sink.on_stop_waiting(rng.randint(0, 1), number, now)
        # settle everything still pending
        for _ in range(3):
            now += 600_000
            sink.on_stop_waiting(0, number + 10, now)
            sink.on_stop_waiting(1, number + 10, now)
        indices = [r.frame_index for r in sink.delivered]
        assert indices == sorted(indices)
        assert len(indices) == len(set(indices))
        resolved = set(indices) | {a[0] for a in sink.abandoned}
        assert len(resolved) == len(indices) + len(sink.abandoned)


@st.composite
def sink_steps(draw):
    """Segments of 12 frames (with duplicates and resends after release),
    stop-waiting floors and sweeps, over a clock that passes the abandon age."""
    totals = draw(st.lists(st.integers(1, 3), min_size=12, max_size=12))
    keys = draw(st.lists(st.booleans(), min_size=12, max_size=12))
    gap = st.integers(0, 300_000)
    segment = st.tuples(st.just("segment"), gap, st.integers(0, 11), st.integers(0, 2),
                        st.integers(0, 1))
    floor = st.tuples(st.just("floor"), gap, st.integers(0, 1), st.integers(1, 200))
    sweep = st.tuples(st.just("sweep"), gap)
    steps = draw(st.lists(st.one_of(segment, segment, floor, sweep), max_size=80))
    return totals, keys, steps


@settings(max_examples=300, deadline=None)
@given(sink_steps())
def test_sink_tracks_only_frames_above_released_through(case):
    totals, keys, steps = case
    sink = VideoSink()
    now = 0
    numbers = [0, 0]
    for kind, dt, *args in steps:
        now += dt
        if kind == "segment":
            fi, si, conn = args
            numbers[conn] += 1
            sink.on_segment(seg(fi, si % totals[fi], totals[fi], key=keys[fi]),
                            numbers[conn], conn, now)
        elif kind == "floor":
            sink.on_stop_waiting(args[0], args[1], now)
        else:
            sink.sweep(now)
        assert all(fi > sink._released_through for fi in sink.pending)
        assert all(fi > sink._released_through for fi in sink._ready)
        assert not set(sink.pending) & set(sink._ready)
        # The release rule: no ready frame waits below the lowest pending one.
        lowest_pending = min(sink.pending, default=math.inf)
        assert all(fi > lowest_pending for fi in sink._ready)
    indices = [r.frame_index for r in sink.delivered]
    assert all(a < b for a, b in zip(indices, indices[1:]))
