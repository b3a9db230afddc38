"""BbrController and RtcBbrController tests.  tests/reference_bbr.py is
the controllers' one oracle: drive_both makes the same calls on a
controller and the reference of its variant and compares every slot after
each, and its bdp_bytes gives the scripted tests their BDP inputs.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from reference_bbr import ReferenceBbrController, bdp_bytes
from mprtc import congestion
from mprtc.congestion import (
    BW_WINDOW_ROUNDS,
    BbrController,
    CONTROLLERS,
    DRAIN,
    DRAIN_GAIN,
    INITIAL_BW_BPS,
    PROBE_BW,
    PROBE_RTT,
    PROBE_RTT_CWND,
    RtcBbrController,
    STARTUP,
    STOCK_GAIN_CYCLE,
    WindowedMaxFilter,
)
from mprtc.simnet import US_PER_S
from mprtc.transport import MSS, DeliveryRateSample

RTT = 100_000  # default 100 ms round trip for scripted samples


def sample(bw, rtt=RTT, inflight=0, loss=False, app=False, das=0, daa=1000):
    return DeliveryRateSample(bw, rtt, inflight, loss, app, das, daa)


class Feeder:
    """Drives a controller one round per call via the delivered-bytes markers."""

    def __init__(self, cc, step=10_000):
        self.cc = cc
        self.delivered = 0
        self.step = step

    def round(self, bw, now, rtt=RTT, inflight=0, loss=False, app=False):
        das = self.delivered
        self.delivered += self.step
        s = DeliveryRateSample(bw, rtt, inflight, loss, app, das, self.delivered)
        self.cc.on_delivery_sample(s, now)
        return s


def make_cc(variant="rtc-bbr", seed=1):
    return CONTROLLERS[variant](random.Random(seed))


# --- windowed max filter ----------------------------------------------------

def test_windowed_max_matches_bruteforce():
    rng = random.Random(9)
    filt = WindowedMaxFilter()
    history = []
    rnd = 0
    for _ in range(600):
        rnd += rng.choice((0, 0, 1, 1, 2))
        value = rng.uniform(0, 1e7)
        filt.update(value, rnd)
        history.append((rnd, value))
        expected = max(v for r, v in history if r > rnd - BW_WINDOW_ROUNDS)
        assert filt.get() == expected


def test_windowed_max_evicts_stale_peak():
    feeder = Feeder(make_cc())
    feeder.round(5e6, now=0)
    for i in range(1, 11):
        feeder.round(1e6, now=i * RTT)
    assert feeder.cc.bw_es == 1e6


# --- filter seeding and StartUp ---------------------------------------------

def test_fresh_controller_seeds_filters():
    cc = make_cc()
    assert cc.mode == STARTUP
    assert cc.bw_es == INITIAL_BW_BPS
    cc.on_delivery_sample(sample(2e6, rtt=100_000), now=0)
    assert cc.bw_es == 2e6
    assert cc.rtt_min == 100_000
    assert cc.mode == STARTUP
    assert cc.pacing_rate == pytest.approx(2.885 * 2e6)


def test_startup_plateau_three_rounds_enters_drain():
    feeder = Feeder(make_cc())
    feeder.round(1e6, now=0)
    assert feeder.cc.mode == STARTUP
    for i in range(1, 4):
        # below the 25% growth bar, with the queue StartUp overshoot built
        feeder.round(1.09e6, now=i * RTT, inflight=60_000)
    cc = feeder.cc
    assert cc.mode == DRAIN
    assert cc.pacing_gain == DRAIN_GAIN
    assert cc.pacing_rate == pytest.approx(1.09e6 / 2.885)
    assert cc.bw_es == 1.09e6  # the transition leaves the estimate alone


def test_startup_keeps_growing_pipe():
    feeder = Feeder(make_cc())
    bw = 1e6
    for i in range(8):
        feeder.round(bw, now=i * RTT)
        bw *= 1.3  # sustained >=25% growth: never a plateau
    assert feeder.cc.mode == STARTUP


def test_app_limited_rounds_skip_full_pipe_check():
    feeder = Feeder(make_cc())
    feeder.round(1e6, now=0)
    for i in range(1, 5):
        feeder.round(1e6, now=i * RTT, app=True)
    assert feeder.cc.mode == STARTUP  # plateau was app-made, not path-made
    for i in range(5, 8):
        feeder.round(1e6, now=i * RTT, inflight=50_000)
    assert feeder.cc.mode == DRAIN


def test_drain_holds_until_inflight_matches_bdp():
    feeder = Feeder(make_cc())
    feeder.round(2e6, now=0)
    for i in range(1, 4):
        feeder.round(2e6, now=i * RTT, inflight=60_000)
    cc = feeder.cc
    assert cc.mode == DRAIN
    bdp = bdp_bytes(cc)
    assert bdp == pytest.approx(2e6 * RTT / 8e6)  # 25 000 bytes
    feeder.round(2e6, now=4 * RTT, inflight=30_000)
    assert cc.mode == DRAIN
    feeder.round(2e6, now=5 * RTT, inflight=25_000)
    assert cc.mode == PROBE_BW
    assert cc.pacing_gain == 1.1
    assert cc.cwnd == pytest.approx(2 * bdp_bytes(cc))


def test_probe_bw_cwnd_is_its_gain_times_bdp(monkeypatch):
    monkeypatch.setattr(congestion, "PROBE_BW_CWND_GAIN", 1.5)
    feeder = Feeder(make_cc())
    feeder.round(2e6, now=0)
    for i in range(1, 4):
        feeder.round(2e6, now=i * RTT, inflight=60_000)
    feeder.round(2e6, now=4 * RTT, inflight=25_000)
    cc = feeder.cc
    assert cc.mode == PROBE_BW
    assert cc.cwnd == pytest.approx(1.5 * bdp_bytes(cc))


# --- RTC-BBR gain cycle (unit-level, state set directly) --------------------

def probe_bw_cc(gain=1.1, cycle_len=8, mstamp=0, bw=2e6, seed=1):
    cc = make_cc(seed=seed)
    cc.on_delivery_sample(sample(bw), now=0)
    cc.mode = PROBE_BW
    cc.pacing_gain = gain
    cc.cycle_len = cycle_len
    cc.cycle_mstamp = mstamp
    return cc


def rtc_cycle(cc, now, inflight, has_loss, bdp):
    """One RTC-BBR ProbeBW step with has_loss as the loss seen since the
    last one; the step consumes it."""
    cc.loss_since_update = has_loss
    cc._probe_bw_cycle(now, inflight, bdp)
    assert cc.loss_since_update is False


def test_cycle_restart_after_cycle_len_rtts():
    cc = probe_bw_cc(gain=0.85, cycle_len=3)
    now = 3 * RTT + 1
    rtc_cycle(cc, now, inflight=10**6, has_loss=True, bdp=bdp_bytes(cc))
    assert cc.pacing_gain == 1.1
    assert cc.cycle_mstamp == now
    assert 2 <= cc.cycle_len <= 8


def test_cycle_len_distribution_covers_2_to_8():
    cc = probe_bw_cc()
    seen = set()
    now = 0
    for _ in range(500):
        now += cc.cycle_len * RTT + 1
        rtc_cycle(cc, now, inflight=0, has_loss=False, bdp=bdp_bytes(cc))
        seen.add(cc.cycle_len)
    assert seen == {2, 3, 4, 5, 6, 7, 8}


def test_gain_one_is_sticky_within_cycle():
    cc = probe_bw_cc(gain=1)
    rtc_cycle(cc, int(1.5 * RTT), inflight=10**6, has_loss=True, bdp=bdp_bytes(cc))
    assert cc.pacing_gain == 1


def test_probe_down_rises_when_inflight_matches_bdp():
    cc = probe_bw_cc(gain=0.85)
    bdp = bdp_bytes(cc)
    rtc_cycle(cc, int(0.5 * RTT), inflight=int(bdp), has_loss=False, bdp=bdp)
    assert cc.pacing_gain == 1


def test_probe_down_holds_while_queue_drains():
    cc = probe_bw_cc(gain=0.85)
    bdp = bdp_bytes(cc)
    rtc_cycle(cc, int(0.5 * RTT), inflight=int(bdp) + 1, has_loss=False, bdp=bdp)
    assert cc.pacing_gain == 0.85


def test_probe_down_exit_overridden_by_fresh_loss():
    # The pseudocode's checks are sequential: the rise to 1 can be undone by
    # the loss branch within the same update.
    cc = probe_bw_cc(gain=0.85)
    bdp = bdp_bytes(cc)
    rtc_cycle(cc, int(1.5 * RTT), inflight=int(bdp), has_loss=True, bdp=bdp)
    assert cc.pacing_gain == 0.85


def test_probe_up_exits_early_on_loss():
    cc = probe_bw_cc(gain=1.1)
    rtc_cycle(cc, int(1.5 * RTT), inflight=0, has_loss=True, bdp=bdp_bytes(cc))
    assert cc.pacing_gain == 0.85


def test_probe_up_exits_on_queue_buildup():
    cc = probe_bw_cc(gain=1.1)
    bdp = bdp_bytes(cc)
    over = int(1.1 * bdp) + 100
    rtc_cycle(cc, int(1.5 * RTT), inflight=over, has_loss=False, bdp=bdp)
    assert cc.pacing_gain == 0.85


def test_probe_up_holds_within_first_rtt():
    cc = probe_bw_cc(gain=1.1)
    rtc_cycle(cc, int(0.5 * RTT), inflight=10**6, has_loss=True, bdp=bdp_bytes(cc))
    assert cc.pacing_gain == 1.1


def test_probe_up_holds_absent_pressure():
    cc = probe_bw_cc(gain=1.1)
    bdp = bdp_bytes(cc)
    rtc_cycle(cc, int(1.5 * RTT), inflight=int(bdp), has_loss=False, bdp=bdp)
    assert cc.pacing_gain == 1.1


def test_rtc_probe_bw_gain_set_is_closed():
    rng = random.Random(17)
    feeder = Feeder(make_cc(seed=21))
    now = 0
    for _ in range(3000):
        now += rng.randint(5_000, 60_000)
        feeder.round(rng.uniform(0.5e6, 4e6), now=now,
                     rtt=rng.randint(40_000, 200_000),
                     inflight=rng.randint(0, 120_000),
                     loss=rng.random() < 0.05)
        if feeder.cc.mode == PROBE_BW:
            assert feeder.cc.pacing_gain in (1.1, 1, 0.85)


# --- stock BBR baseline -----------------------------------------------------

def test_stock_cycle_walks_gain_vector():
    cc = make_cc(variant="bbr")
    cc.on_delivery_sample(sample(2e6), now=0)
    cc.mode = PROBE_BW
    cc.cycle_phase = 0
    cc.pacing_gain = STOCK_GAIN_CYCLE[0]
    cc.cycle_mstamp = 0
    assert cc.pacing_gain == 1.25
    now = 0
    gains = [cc.pacing_gain]
    for _ in range(8):
        now += RTT + 1
        cc._probe_bw_cycle(now, inflight=10**6, bdp=bdp_bytes(cc))
        gains.append(cc.pacing_gain)
    assert gains == [1.25, 0.75, 1, 1, 1, 1, 1, 1, 1.25]


def test_stock_probe_down_exits_early_when_drained():
    cc = make_cc(variant="bbr")
    cc.on_delivery_sample(sample(2e6), now=0)
    cc.mode = PROBE_BW
    cc.cycle_phase = 1
    cc.pacing_gain = 0.75
    cc.cycle_mstamp = 0
    bdp = bdp_bytes(cc)
    cc._probe_bw_cycle(RTT // 2, inflight=int(bdp), bdp=bdp)
    assert cc.pacing_gain == 1
    assert cc.cycle_phase == 2


@pytest.mark.parametrize("variant, phase, down_gain", [("rtc-bbr", 0, 0.85), ("bbr", 1, 0.75)])
@pytest.mark.parametrize("over", [0, 1])
def test_probe_down_ends_at_the_samples_bdp(variant, phase, down_gain, over):
    """Through on_delivery_sample: probe-down ends once inflight is at most
    the sample's BDP, and holds one byte above it."""
    cc = make_cc(variant=variant)
    cc.on_delivery_sample(sample(2e6), now=0)
    cc.mode = PROBE_BW
    cc.cycle_phase = phase
    cc.pacing_gain = down_gain
    bdp = bdp_bytes(cc)  # 25 000 bytes; the next sample moves neither term
    assert bdp == 25_000
    cc.on_delivery_sample(sample(1e6, rtt=2 * RTT, inflight=int(bdp) + over), now=RTT // 2)
    assert cc.pacing_gain == (down_gain if over else 1)


def test_stock_gain_never_in_rtc_set_while_probing_up():
    cc = make_cc(variant="bbr")
    assert 1.1 not in STOCK_GAIN_CYCLE
    assert 0.85 not in STOCK_GAIN_CYCLE


# --- ProbeRTT ---------------------------------------------------------------

def test_probe_rtt_entry_dwell_and_exit():
    cc = probe_bw_cc(gain=1)
    cc.rtt_min_ts = 0
    t = 10_050_000  # min-RTT stale by 10.05 s
    cc.on_delivery_sample(sample(2e6, rtt=60_000, inflight=50_000, das=10**6, daa=10**6 + 1000), t)
    assert cc.mode == PROBE_RTT
    assert cc.cwnd == PROBE_RTT_CWND == 4 * MSS
    assert cc.pacing_gain == 1
    # dwell begins once inflight has drained to the probe window
    t += 30_000
    cc.on_delivery_sample(sample(2e6, rtt=60_000, inflight=4 * MSS, das=2 * 10**6, daa=2 * 10**6 + 1000), t)
    done = cc.probe_rtt_done_ts
    assert done == t + 200_000  # max(200 ms, one 60 ms rtt)
    cc.on_delivery_sample(sample(2e6, rtt=60_000, inflight=4 * MSS, das=3 * 10**6, daa=3 * 10**6 + 1000), done - 1)
    assert cc.mode == PROBE_RTT
    cc.on_delivery_sample(sample(2e6, rtt=60_000, inflight=4 * MSS, das=4 * 10**6, daa=4 * 10**6 + 1000), done)
    assert cc.mode == PROBE_BW
    assert cc.pacing_gain == 1.1
    assert cc.rtt_min_ts >= done


def test_pause_inside_probe_rtt_dwell_holds_the_rest_of_it():
    cc = probe_bw_cc(gain=1)
    cc.rtt_min_ts = 0
    t = 10_050_000  # min-RTT stale by 10.05 s
    cc.on_delivery_sample(sample(2e6, rtt=60_000, inflight=50_000, das=10**6, daa=10**6 + 1000), t)
    t += 30_000
    cc.on_delivery_sample(sample(2e6, rtt=60_000, inflight=4 * MSS, das=2 * 10**6, daa=2 * 10**6 + 1000), t)
    assert cc.probe_rtt_done_ts == t + 200_000  # the dwell runs 200 ms from t
    cc.pause(t + 50_000)
    cc.resume(t + 1_050_000)  # 150 ms of the dwell are left
    cc.on_delivery_sample(sample(2e6, rtt=60_000, inflight=4 * MSS, das=3 * 10**6, daa=3 * 10**6 + 1000), t + 1_060_000)
    assert cc.mode == PROBE_RTT
    assert cc.cwnd == PROBE_RTT_CWND


def test_min_rtt_can_rise_after_expiry():
    cc = make_cc()
    cc.on_delivery_sample(sample(1e6, rtt=50_000), now=0)
    assert cc.rtt_min == 50_000
    cc.on_delivery_sample(sample(1e6, rtt=80_000, das=10_000, daa=11_000), now=5_000_000)
    assert cc.rtt_min == 50_000  # larger sample inside the window is ignored
    cc.on_delivery_sample(sample(1e6, rtt=80_000, das=20_000, daa=21_000), now=10_000_001)
    assert cc.rtt_min == 80_000  # expiry adopts the fresh (larger) sample


def test_probe_rtt_at_most_once_per_ten_seconds():
    # RTT samples that only rise let min-RTT expire.  A sample that enters
    # ProbeRTT cannot also leave it (the dwell starts no earlier than that
    # sample), so each entry shows in the mode read after its sample.
    cc = make_cc(seed=5)
    entries = []
    feeder = Feeder(cc)
    now = 0
    for i in range(300):  # 30 s of steady 100 ms rounds
        now += RTT
        before = cc.mode
        feeder.round(2e6, now=now, rtt=RTT + 10 * i, inflight=3000)
        if before != PROBE_RTT and cc.mode == PROBE_RTT:
            entries.append(now)
    assert len(entries) >= 2
    assert all(b - a > 10 * US_PER_S for a, b in zip(entries, entries[1:]))


# --- app-limited guard ------------------------------------------------------

def test_app_limited_sample_below_max_ignored():
    cc = make_cc()
    cc.on_delivery_sample(sample(2e6), now=0)
    cc.on_delivery_sample(sample(1e6, app=True, das=1000, daa=2000), now=1000)
    assert cc.bw_es == 2e6


def test_app_limited_sample_above_max_accepted():
    cc = make_cc()
    cc.on_delivery_sample(sample(2e6), now=0)
    cc.on_delivery_sample(sample(3e6, app=True, das=1000, daa=2000), now=1000)
    assert cc.bw_es == 3e6


def test_non_app_limited_always_inserted():
    cc = make_cc()
    cc.on_delivery_sample(sample(2e6), now=0)
    for i in range(1, 11):
        cc.on_delivery_sample(sample(1e6, das=i * 10_000, daa=i * 10_000 + 1000), now=i * RTT)
    assert cc.bw_es == 1e6


# --- pause bookkeeping ------------------------------------------------------

def test_pause_resume_freezes_filter_clocks():
    cc = probe_bw_cc()
    cc.rtt_min_ts = 500
    cc.cycle_mstamp = 700
    cc.pause(1_000)
    cc.resume(2_000_000)
    assert cc.rtt_min_ts == 500 + 1_999_000
    assert cc.cycle_mstamp == 700 + 1_999_000
    cc.resume(3_000_000)  # double resume is a no-op
    assert cc.rtt_min_ts == 500 + 1_999_000


def test_rtc_bbr_overrides_only_the_probe_bw_cycle():
    """RTC-BBR adds no state and keeps the intake, pause and resume that the
    benchmark's tracer wraps on BbrController."""
    assert CONTROLLERS == {"rtc-bbr": RtcBbrController, "bbr": BbrController}
    assert RtcBbrController.__slots__ == ()
    assert RtcBbrController.__bases__ == (BbrController,)
    assert {name for name, value in vars(RtcBbrController).items() if callable(value)} == \
        {"_enter_probe_bw", "_probe_bw_cycle"}


# --- the frozen reference intake -----------------------------------------------

sample_steps = st.lists(st.tuples(
    st.sampled_from(["sample"] * 8 + ["pause", "resume"]),
    st.one_of(st.integers(0, 50_000), st.integers(0, 2_000_000)),  # gap, us
    st.floats(1e5, 1e7),                                         # bandwidth
    st.integers(0, 3_000),                                       # rtt rise, us
    st.sampled_from([0, 3000, 20_000, 200_000]),                 # inflight
    st.booleans(),                                               # loss
    st.booleans(),                                               # app-limited
    st.integers(0, 30_000),                                      # acked bytes
), max_size=120)


def step_calls(steps):
    """The controller calls that sample_steps describe, as (method name, args)."""
    now = 0
    delivered = 0
    rtt = 20_000
    for kind, gap, bw, rise, inflight, loss, app, acked in steps:
        now += gap
        if kind == "sample":
            rtt = rtt + rise if rise else 20_000   # rising RTTs let min-RTT expire
            das = delivered
            delivered += acked
            yield "on_delivery_sample", (DeliveryRateSample(bw, rtt, inflight, loss, app,
                                                            das, delivered), now)
        else:
            yield kind, (now,)


def assert_same_state(cc, ref):
    """Every slot of cc equals the reference's, type and value alike: the max
    filter by its samples, the rng by its state."""
    for name in BbrController.__slots__:
        mine, theirs = getattr(cc, name), getattr(ref, name)
        if name == "rng":
            assert mine.getstate() == theirs.getstate()
        elif name == "max_bw_filter":
            assert repr(list(mine._samples)) == repr(list(theirs._samples))
        else:
            assert repr(mine) == repr(theirs), name


def drive_both(variant, seed, calls):
    """Make the same calls on a controller and the frozen reference, comparing
    their state after each; returns the controller's mode before the first
    call and after each."""
    cc = make_cc(variant=variant, seed=seed)
    ref = ReferenceBbrController(random.Random(seed), variant)
    assert_same_state(cc, ref)
    modes = [cc.mode]
    for name, args in calls:
        getattr(cc, name)(*args)
        getattr(ref, name)(*args)
        assert_same_state(cc, ref)
        modes.append(cc.mode)
    return modes


def walk_all_modes():
    """The calls of a walk through StartUp, Drain, ProbeBW, a 3 s pause,
    ProbeRTT and back to ProbeBW, one round per sample as Feeder makes them."""
    delivered = 0

    def fed(bw, now, rtt=RTT, inflight=0, loss=False):
        nonlocal delivered
        delivered += 10_000
        return "on_delivery_sample", (sample(bw, rtt, inflight, loss, das=delivered - 10_000,
                                             daa=delivered), now)

    for i, bw in enumerate((1e6, 1.5e6, 2e6, 2e6, 2e6, 2e6, 2e6)):
        now = i * RTT
        yield fed(bw, now, inflight=60_000)
    for _ in range(3):  # inflight drains to the BDP: Drain ends
        now += RTT
        yield fed(2e6, now, inflight=20_000, loss=True)
    now += RTT
    yield "pause", (now,)
    now += 3 * US_PER_S
    yield "resume", (now,)
    # RTT samples that only rise let min-RTT expire after 10 s: ProbeRTT.
    for i in range(140):
        now += RTT
        yield fed(2e6 + 1e4 * (i % 5), now, rtt=RTT + 10 * i,
                  inflight=3000 if i % 3 else 50_000, loss=i % 11 == 0)


@pytest.mark.parametrize("variant", ["rtc-bbr", "bbr"])
def test_stored_outputs_match_reference_through_every_mode(variant):
    modes = drive_both(variant, 3, walk_all_modes())
    assert {DRAIN, PROBE_BW, PROBE_RTT} <= set(modes)
    assert PROBE_BW in modes[modes.index(PROBE_RTT):]  # and left ProbeRTT again


# Longer streams of a few bandwidth levels and inflights: most leave StartUp,
# and most of those go through ProbeRTT and out of it again.
steady_sample_steps = st.lists(st.tuples(
    st.sampled_from(["sample"] * 30 + ["pause", "resume"]),
    st.one_of(st.integers(0, 300_000), st.just(2_000_000)),
    st.sampled_from([1e6, 1.05e6, 2e6, 2.1e6, 5e6]),
    st.integers(0, 3_000),
    st.sampled_from([0, 3000, PROBE_RTT_CWND, 20_000, 200_000]),
    st.booleans(),
    st.booleans(),
    st.integers(0, 30_000),
), min_size=50, max_size=300)


@settings(max_examples=75, deadline=None)
@given(variant=st.sampled_from(["rtc-bbr", "bbr"]), seed=st.integers(0, 1000),
       short=st.lists(sample_steps, min_size=4, max_size=4), steady=steady_sample_steps)
def test_sample_intake_matches_frozen_reference(variant, seed, short, steady):
    """Each example drives four streams of any samples and one steady stream."""
    for steps in (*short, steady):
        drive_both(variant, seed, step_calls(steps))


@pytest.mark.parametrize("variant", ["rtc-bbr", "bbr"])
def test_recorded_stream_matches_frozen_reference(variant):
    from perf_congestion import STREAM  # records 4 s of one saturating flow

    modes = drive_both(variant, 1, [("on_delivery_sample", pair) for pair in STREAM])
    assert modes[-1] != STARTUP
