import math
import random

import pytest
from hypothesis import given, settings, strategies as st

import reference_bandit
from mprtc.bandit import (OBSERVED_TIME_US, POLICIES, SAMPLE_SPACING_US, SLOT_US,
                          DefaultPolicy, OraclePolicy, PathManager)
from mprtc.session import VideoSession
from mprtc.simnet import EventLoop, PathDef, TraceSchedule


def make_manager(subflows, pairs):
    """A PathManager over the reference's world: subflow ids and
    (path_id, sid) pairs, each subflow's candidates in listed order."""
    return PathManager({sid: [PathDef(pid, ()) for pid, s in pairs if s == sid]
                        for sid in subflows})


def snapshot(manager):
    """(Bw, Bw_hat, N, whether it has a sample) per path."""
    return {p.id: (p.Bw, p.Bw_hat, p.N, bool(p.bwSamples_)) for p in manager.by_id.values()}


def reference_snapshot(ref):
    return {pid: (bw, bw_hat, n, samples > 0)
            for pid, (bw, bw_hat, n, samples) in reference_bandit.snapshot(ref).items()}


def random_world(rng):
    subflows = list(range(rng.randint(1, 3)))
    paths = []
    pid = 0
    for fid in subflows:
        for _ in range(rng.randint(1, 3)):
            paths.append((pid, fid))
            pid += 1
    return subflows, paths


class Replay:
    """The production manager and the reference interpreter fed the same
    pushes and decisions.  The manager is offered every push; the reference
    knows no sample spacing, so it gets a push only SAMPLE_SPACING_US or
    more after the last one it got from that path.  The reference refreshes
    Bw at every push, the manager only when it decides, so the two are
    compared at decisions: the choice, T, and (Bw, Bw_hat, N, has a sample)
    of every path."""

    def __init__(self, subflows, paths):
        self.ref = reference_bandit.new_state(subflows, paths)
        self.prod = make_manager(subflows, paths)
        self.decisions = 0
        self.taken = {}  # path id -> time of the last push the reference got

    def push(self, path_id, bw, now):
        self.prod.on_new_bandwidth_sample(path_id, bw, now)
        last = self.taken.get(path_id)
        if last is None or now - last >= SAMPLE_SPACING_US:
            self.taken[path_id] = now
            reference_bandit.on_new_bandwidth_sample(self.ref, path_id, bw, now)

    def decide(self, now):
        want = reference_bandit.select_paths(self.ref, now)
        got = self.prod.select_paths(now)
        assert got == want, f"decision {self.decisions}: choice {got} != {want}"
        assert self.prod.T == self.ref["T"]
        assert snapshot(self.prod) == reference_snapshot(self.ref), \
            f"decision {self.decisions}"
        self.decisions += 1


def run_equivalence_check(n_sequences=100, max_events=1000, base_seed=1000):
    """Replays randomized sample/selection sequences, each closed by a
    decision, and returns the number of decisions compared."""
    compared = 0
    for seq in range(n_sequences):
        rng = random.Random(base_seed + seq)
        subflows, paths = random_world(rng)
        replay = Replay(subflows, paths)
        now = 0
        for _ in range(rng.randint(50, max_events)):
            now += rng.randint(0, 2_000_000)
            if rng.random() < 0.7:
                replay.push(rng.choice(paths)[0], rng.uniform(0, 6e6), now)
            else:
                replay.decide(now)
        replay.decide(now)
        compared += replay.decisions
    return compared


def test_matches_reference_interpreter():
    assert run_equivalence_check(n_sequences=25) > 25


@st.composite
def worlds_and_steps(draw):
    """A world with one path that is never pushed, and steps whose clock
    gaps fall either side of the sample spacing or reach past the 10 s
    window, so whole windows go stale between a push and the next decision."""
    per_subflow = draw(st.lists(st.integers(1, 3), min_size=1, max_size=3))
    subflows = list(range(len(per_subflow)))
    paths = [(pid, fid) for pid, fid in enumerate(
        fid for fid, n in enumerate(per_subflow) for _ in range(n))]
    silent = draw(st.sampled_from(paths))[0]
    pushed = [pid for pid, _ in paths if pid != silent] or [None]
    gap = st.one_of(st.integers(0, 2_000_000),
                    st.integers(SAMPLE_SPACING_US - 1, SAMPLE_SPACING_US + 1),
                    st.integers(OBSERVED_TIME_US - 1, OBSERVED_TIME_US + 1),
                    st.integers(OBSERVED_TIME_US, 3 * OBSERVED_TIME_US))
    step = st.one_of(
        st.tuples(st.just("push"), gap, st.sampled_from(pushed), st.floats(0, 6e6)),
        st.tuples(st.just("decide"), gap, st.none(), st.none()))
    return subflows, paths, draw(st.lists(step, max_size=60))


@settings(max_examples=200, deadline=None)
@given(worlds_and_steps())
def test_matches_reference_with_long_gaps_and_a_silent_path(case):
    subflows, paths, steps = case
    replay = Replay(subflows, paths)
    now = 0
    for kind, gap, path_id, bw in steps:
        now += gap
        if kind == "decide":
            replay.decide(now)
        elif path_id is not None:
            replay.push(path_id, bw, now)
    replay.decide(now)


# --- scripted walk-throughs -------------------------------------------------

def make_single():
    return make_manager([0], [(0, 0)])


def test_first_sample_seeds_all_fields():
    m = make_single()
    m.on_new_bandwidth_sample(0, 2e6, now=0)
    p = m.by_id[0]
    assert (p.Bw_hat, list(p.bwSamples_)) == (2e6, [(2e6, 0)])
    assert p.Bw == 0.0  # a push does not refresh the window max; a decision does
    m.select_paths(now=0)
    assert p.Bw == 2e6


def test_samples_closer_than_the_spacing_are_ignored():
    # The spacing counts from the last sample taken from the same path, not
    # from the last one offered, and each path keeps its own.
    m = make_manager([0], [(0, 0), (1, 0)])
    p = m.by_id[0]
    m.on_new_bandwidth_sample(0, 2e6, now=1_000)
    m.on_new_bandwidth_sample(0, 9e6, now=1_000 + SAMPLE_SPACING_US - 1)
    m.on_new_bandwidth_sample(1, 5e6, now=1_000 + SAMPLE_SPACING_US - 1)
    assert (p.Bw_hat, list(p.bwSamples_)) == (2e6, [(2e6, 1_000)])
    assert list(m.by_id[1].bwSamples_) == [(5e6, 1_000 + SAMPLE_SPACING_US - 1)]
    m.on_new_bandwidth_sample(0, 3e6, now=1_000 + SAMPLE_SPACING_US)
    assert p.Bw_hat == pytest.approx(0.1 * 2e6 + 0.9 * 3e6)
    assert list(p.bwSamples_) == [(2e6, 1_000), (3e6, 1_000 + SAMPLE_SPACING_US)]


def test_smoothed_reward_update():
    m = make_single()
    m.on_new_bandwidth_sample(0, 2e6, now=0)
    m.on_new_bandwidth_sample(0, 3e6, now=1_000_000)
    p = m.by_id[0]
    assert p.Bw_hat == pytest.approx(0.1 * 2e6 + 0.9 * 3e6)
    m.delete_obsolete_samples(0, now=1_000_000)
    assert p.Bw == 3e6
    m.on_new_bandwidth_sample(0, 1e6, now=2_000_000)
    assert p.Bw_hat == pytest.approx(0.1 * (0.1 * 2e6 + 0.9 * 3e6) + 0.9 * 1e6)
    m.delete_obsolete_samples(0, now=2_000_000)
    assert p.Bw == 3e6  # below the peak, peak stands


def test_stale_sample_pruned_and_window_max_recomputed():
    m = make_single()
    m.on_new_bandwidth_sample(0, 2e6, now=0)
    m.on_new_bandwidth_sample(0, 1e6, now=10_000_000)
    m.delete_obsolete_samples(0, now=11_000_000)
    p = m.by_id[0]
    assert list(p.bwSamples_) == [(1e6, 10_000_000)]
    assert p.Bw == 1e6  # the pruned peak no longer counts


def test_single_stale_sample_is_retained():
    m = make_single()
    m.on_new_bandwidth_sample(0, 2e6, now=0)
    m.delete_obsolete_samples(0, now=OBSERVED_TIME_US * 5)
    p = m.by_id[0]
    assert len(p.bwSamples_) == 1
    assert p.Bw == 2e6


def test_unsampled_path_has_zero_window_max():
    m = make_single()
    m.delete_obsolete_samples(0, now=0)
    assert m.by_id[0].Bw == 0.0
    assert not m.by_id[0].bwSamples_


def test_score_arithmetic_frozen_value():
    # Bw_hat 2.9 Mbps, Bw 3 Mbps, C=2, T=100, N=10 scores about 5.988 Mbps
    # (2.9e6 + 3e6 * sqrt(2 ln 200 / 10)).  Path 1 scores its Bw_hat plus
    # 1 bit/s times the same root, so a rival 0.1% either side of that
    # value flips the choice, in the manager and in the reference alike.
    subflows, paths = [0, 1], [(0, 0), (1, 0), (2, 1)]
    for rival, chosen in ((5.982e6, 0), (5.994e6, 1)):
        m = make_manager(subflows, paths)
        ref = reference_bandit.new_state(subflows, paths)
        for pid, bw_hat, bw, n in ((0, 2.9e6, 3e6, 10), (1, rival, 1.0, 10)):
            p = m.by_id[pid]
            p.Bw_hat, p.N = bw_hat, n
            p.bwSamples_.append((bw, 0))
            ref["paths"][pid].update(Bw_hat=bw_hat, N=n, bwSamples_=[(bw, 0)],
                                     samples_=1, maxBw_=bw)
        m.T = ref["T"] = 100
        assert m.select_paths(now=0) == reference_bandit.select_paths(ref, now=0) \
            == {0: chosen, 1: -1}


def test_single_candidate_always_chosen_and_n_counts_slots():
    m = make_single()
    m.on_new_bandwidth_sample(0, 1e6, now=0)
    for slot in range(30):
        chosen = m.select_paths(now=slot * 1_000_000)
        assert chosen == {0: 0}
    assert m.by_id[0].N == 31
    assert m.T == 31


def test_unsampled_world_selects_nobody():
    m = make_manager([0], [(0, 0), (1, 0)])
    assert m.select_paths(now=0) == {0: -1}
    assert m.by_id[0].N == 1 and m.by_id[1].N == 1


def test_equal_scores_break_to_lower_path_id():
    m = make_manager([0], [(2, 0), (1, 0)])  # listed out of id order
    for pid in (1, 2):
        m.on_new_bandwidth_sample(pid, 2e6, now=0)
    assert m.select_paths(now=0) == {0: 1}


def test_scale_invariance_of_choices():
    def run(scale):
        rng = random.Random(77)
        m = make_manager([0, 1], [(0, 0), (1, 0), (2, 1), (3, 1)])
        choices = []
        now = 0
        for _ in range(400):
            now += rng.randint(0, 1_500_000)
            if rng.random() < 0.7:
                m.on_new_bandwidth_sample(rng.randrange(4), scale * rng.uniform(0.1e6, 6e6), now)
            else:
                choices.append(tuple(sorted(m.select_paths(now).items())))
        return choices

    assert run(1.0) == run(3.7)


def test_reward_stays_within_sample_envelope():
    rng = random.Random(5)
    m = make_single()
    lo, hi = math.inf, -math.inf
    now = 0
    for _ in range(500):
        now += rng.randint(0, 300_000)
        bw = rng.uniform(0.2e6, 5e6)
        lo, hi = min(lo, bw), max(hi, bw)
        m.on_new_bandwidth_sample(0, bw, now)
        m.delete_obsolete_samples(0, now)
        p = m.by_id[0]
        assert lo <= p.Bw_hat <= hi
        assert lo <= p.Bw <= hi


# --- initial exploration ----------------------------------------------------

def test_exploration_visits_every_candidate_in_id_order():
    m = make_manager([0, 1], [(0, 0), (1, 0), (2, 1), (3, 1)])
    assert m.exploring()
    first = m.decide(now=0)
    second = m.decide(now=1_000_000)
    assert first == {0: 0, 1: 2}
    assert second == {0: 1, 1: 3}
    assert not m.exploring()
    assert [m.by_id[pid].N for pid in range(4)] == [2, 2, 2, 2]
    assert m.T == 3


def precomputed_exploration(subflows, paths):
    """The exploration rounds as a list built up front, one dict per round:
    round k gives each subflow its k-th candidate by id, wrapping."""
    slots = max(sum(1 for _, f in paths if f == fid) for fid in subflows)
    return [{fid: sorted(pid for pid, f in paths if f == fid)[k % sum(
                 1 for _, f in paths if f == fid)] for fid in subflows}
            for k in range(slots)]


def test_exploration_rule_matches_precomputed_rounds():
    for seed in range(50):
        rng = random.Random(seed)
        subflows, paths = random_world(rng)
        rng.shuffle(paths)  # candidates are ordered by id, not by listing
        m = make_manager(subflows, paths)
        rounds = precomputed_exploration(subflows, paths)
        for k, want in enumerate(rounds):
            assert m.exploring()
            assert m.decide(now=k * 1_000_000) == want
        assert not m.exploring()
        assert m.T == len(rounds) + 1


def test_exploration_single_candidate_is_one_slot():
    m = make_single()
    assert m.decide(0) == {0: 0}
    assert not m.exploring()


def test_post_exploration_uses_scores():
    m = make_manager([0], [(0, 0), (1, 0)])
    m.decide(0)
    m.decide(1_000_000)
    m.on_new_bandwidth_sample(0, 1e6, 1_500_000)
    m.on_new_bandwidth_sample(1, 3e6, 1_600_000)
    assert m.decide(2_000_000) == {0: 1}


# --- convergence (bandit-level, synthetic sampler) --------------------------

def test_two_arm_convergence_prefers_faster_arm():
    for seed in range(20):
        rng = random.Random(4000 + seed)
        m = make_manager([0], [(0, 0), (1, 0)])
        capacity = {0: 2e6, 1: 3e6}
        current = 0
        best_picks = 0
        for slot in range(60):
            now = slot * 1_000_000
            chosen = m.decide(now)[0]
            if chosen != -1:
                current = chosen
            for k in range(4):  # a few controller estimates per slot
                noisy = capacity[current] * rng.uniform(0.92, 1.0)
                m.on_new_bandwidth_sample(current, noisy, now + 200_000 * k)
            if slot >= 20 and current == 1:
                best_picks += 1
        assert best_picks >= 0.8 * 40, f"seed {seed}: {best_picks}/40"


# --- the default and oracle policies ----------------------------------------

def trace_path(path_id, entries):
    return PathDef(path_id, (), trace=TraceSchedule(entries))


def test_oracle_picks_the_larger_mean_over_the_slot():
    # Against a steady 2 Mbit/s: path 2 starts the slot at 1 Mbit/s but
    # alternates with 5 Mbit/s every 0.2 s (slot mean 2.6 Mbit/s); path 4
    # starts it at 5 Mbit/s but drops to 1 Mbit/s after 0.1 s (1.4 Mbit/s).
    rising = trace_path(2, [(0, 1_000_000), (200_000, 5_000_000)])
    falling = trace_path(4, [(0, 5_000_000), (100_000, 1_000_000), (1_000_000, 5_000_000)])
    oracle = OraclePolicy({0: [trace_path(1, [(0, 2_000_000)]), rising],
                           1: [trace_path(3, [(0, 2_000_000)]), falling]})
    assert rising.trace.step_at(0)[0] < 2_000_000 < falling.trace.step_at(0)[0]
    assert rising.trace.mean_capacity(0, SLOT_US) == pytest.approx(2_600_000)
    assert falling.trace.mean_capacity(0, SLOT_US) == pytest.approx(1_400_000)
    assert oracle.decide(0) == {0: 2, 1: 3}


def test_oracle_breaks_a_tie_towards_the_earlier_candidate():
    # Listed order, not path id, decides a tie.
    oracle = OraclePolicy({0: [trace_path(5, [(0, 3_000_000)]),
                               trace_path(2, [(0, 3_000_000)])],
                           1: [trace_path(7, [(0, 1_000_000), (500_000, 3_000_000)]),
                               trace_path(4, [(0, 2_000_000)])]})
    assert oracle.decide(0) == {0: 5, 1: 7}


def test_default_never_leaves_the_first_candidate():
    paths = {0: [trace_path(3, [(0, 1_000_000)]), trace_path(1, [(0, 6_000_000)])],
             1: [trace_path(0, [(0, 1_000_000)]), trace_path(2, [(0, 6_000_000)])]}
    policy = DefaultPolicy(paths)
    for slot in range(20):
        now = slot * SLOT_US
        for pid, bw in ((1, 6e6), (2, 6e6), (3, 1e5), (0, 1e5)):
            policy.on_new_bandwidth_sample(pid, bw, now)
        assert policy.decide(now) == {0: 3, 1: 0}


def test_unknown_scheme_is_rejected_by_the_session():
    paths = {0: [trace_path(0, [(0, 2_000_000)])]}
    with pytest.raises(ValueError, match="unknown scheme 'thompson'"):
        VideoSession(EventLoop(), random.Random(1), paths, scheme="thompson")


def test_each_policy_applies_its_own_order_to_the_same_candidates():
    # Listed out of id order.  Default takes the first listed candidate,
    # oracle the largest slot mean (subflow 1 ties, and the earlier listed
    # wins), ucb explores the lowest id first.
    candidates = {0: [trace_path(3, [(0, 1_000_000)]), trace_path(1, [(0, 4_000_000)]),
                      trace_path(2, [(0, 2_000_000)])],
                  1: [trace_path(6, [(0, 3_000_000)]), trace_path(5, [(0, 1_000_000)]),
                      trace_path(4, [(0, 3_000_000)])]}
    first = {scheme: make_policy(candidates).decide(0) for scheme, make_policy in POLICIES.items()}
    assert first == {"default": {0: 3, 1: 6}, "oracle": {0: 1, 1: 6}, "ucb": {0: 1, 1: 4}}
