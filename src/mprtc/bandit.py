"""Path-selection policies; POLICIES[scheme](candidates) builds a session's.

candidates maps each subflow id to its PathDefs.  Each slot the session
calls decide(now) for a path id per subflow, where -1 keeps the subflow on
its current path.  Each ack that gives an active path samples offers that
path's bw_es to on_new_bandwidth_sample(path_id, bw, now), and each policy
chooses which of these samples it takes.

- "ucb", PathManager: built from the candidates map, it keeps each
  subflow's candidates in path id order.  Each candidate has a smoothed
  reward Bw_hat, the maximum Bw of its samples of the last 10 s (the newest
  is always kept, so only a never-sampled path has Bw 0.0) and a pull count
  N.  Decision T gives each subflow its (T-1) mod n-th candidate while T
  is at most the largest candidate count n; later decisions score each
  subflow's candidates with X = Bw_hat + Bw * sqrt(2 ln(C T) / N) for C
  subflows and give it the argmax, the lower id on a tie, or -1 if no
  score is positive.  It takes a sample SAMPLE_SPACING_US or more after
  the last it took from that path, which only smooths Bw_hat and appends;
  select_paths prunes the windows and computes Bw just before it scores,
  the one place Bw is read.
- "default", DefaultPolicy: every subflow stays on its first candidate.
- "oracle", OraclePolicy: the candidate whose trace (each must have one) has
  the largest mean capacity over the coming slot, the earlier one on a tie.
  Neither this nor the default policy reads its samples.
"""

from __future__ import annotations

import math
from collections import deque

OBSERVED_TIME_US = 10_000_000
# PathManager ignores a sample offered sooner than this after the last it
# took from the path.  That sets what Bw_hat smooths and how many samples a
# 10 s window holds, so changing it moves every ucb digest.
SAMPLE_SPACING_US = 100_000
SMOOTHING_ALPHA = 0.9
SLOT_US = 1_000_000


class PathStats:
    __slots__ = ("id", "Bw", "Bw_hat", "N", "bwSamples_")

    def __init__(self, path_id: int) -> None:
        self.id = path_id
        self.Bw = 0.0
        self.Bw_hat = 0.0
        self.N = 1
        self.bwSamples_: deque = deque()  # (bw, timestamp_us)


class PathManager:
    """UCB over each subflow's candidate paths, in path id order."""

    def __init__(self, candidates: dict) -> None:
        self.candidates = {sid: [PathStats(pid) for pid in sorted(p.path_id for p in paths)]
                           for sid, paths in candidates.items()}
        self.by_id = {p.id: p for stats in self.candidates.values() for p in stats}
        self.T = 1

    def on_new_bandwidth_sample(self, path_id: int, bw: float, now: int) -> None:
        p = self.by_id[path_id]
        samples = p.bwSamples_
        if samples:
            if now < samples[-1][1] + SAMPLE_SPACING_US:
                return
            p.Bw_hat = (1 - SMOOTHING_ALPHA) * p.Bw_hat + SMOOTHING_ALPHA * bw
        else:
            p.Bw_hat = bw  # the first sample seeds the smoothed reward
        samples.append((bw, now))

    def delete_obsolete_samples(self, path_id: int, now: int) -> None:
        p = self.by_id[path_id]
        samples = p.bwSamples_
        while len(samples) > 1:
            if now - samples[0][1] > OBSERVED_TIME_US:
                samples.popleft()
            else:
                break
        bw = 0.0
        for s_bw, _ in samples:
            if s_bw > bw:
                bw = s_bw
        p.Bw = bw

    def select_paths(self, now: int) -> dict[int, int]:
        """One scored decision round; -1 means no candidate had positive score."""
        for path_id in self.by_id:
            self.delete_obsolete_samples(path_id, now)
        C = len(self.candidates)
        chosen = {}
        for sid, stats in self.candidates.items():
            x_max = 0.0
            path_id = -1
            for p in stats:
                x = p.Bw_hat + p.Bw * math.sqrt(2 * math.log(C * self.T) / p.N)
                if x > x_max:
                    x_max = x
                    path_id = p.id
            chosen[sid] = path_id
            if path_id != -1:
                self.by_id[path_id].N += 1
        self.T += 1
        return chosen

    def decide(self, now: int) -> dict[int, int]:
        """Per-slot decision: forced initial exploration, then UCB rounds."""
        if self.exploring():
            chosen = {sid: c[(self.T - 1) % len(c)].id for sid, c in self.candidates.items()}
            for path_id in chosen.values():
                self.by_id[path_id].N += 1
            self.T += 1
            return chosen
        return self.select_paths(now)

    def exploring(self) -> bool:
        return self.T <= max((len(c) for c in self.candidates.values()), default=0)


class DefaultPolicy:
    """Every subflow stays on its first candidate path; samples are ignored."""

    def __init__(self, candidates: dict) -> None:
        self.candidates = candidates

    def decide(self, now: int) -> dict[int, int]:
        return {sid: paths[0].path_id for sid, paths in self.candidates.items()}

    def on_new_bandwidth_sample(self, path_id: int, bw: float, now: int) -> None:
        pass


class OraclePolicy(DefaultPolicy):
    """Each subflow takes the candidate whose trace has the largest mean over
    the coming slot (max keeps the first of equal means); samples are ignored."""

    def __init__(self, candidates: dict) -> None:
        for path in (p for paths in candidates.values() for p in paths if p.trace is None):
            raise ValueError(f"candidates: path {path.path_id} has no capacity trace")
        super().__init__(candidates)

    def decide(self, now: int) -> dict[int, int]:
        end = now + SLOT_US
        return {sid: max(paths, key=lambda p: p.trace.mean_capacity(now, end)).path_id
                for sid, paths in self.candidates.items()}


POLICIES = {"ucb": PathManager, "default": DefaultPolicy, "oracle": OraclePolicy}
