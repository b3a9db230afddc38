"""Path-selection policies; POLICIES[scheme](candidates) builds a session's.

candidates maps each subflow id to its PathDefs.  Each slot the session
calls decide(now) for a path id per subflow, where -1 keeps the subflow on
its current path.  At most once per push interval it hands an active
path's bandwidth estimate to on_new_bandwidth_sample(path_id, bw, now).

- "ucb", PathManager: each candidate has a smoothed reward Bw_hat, the
  maximum Bw of its samples of the last 10 s (the newest is always kept,
  so only a never-sampled path has Bw 0.0) and a pull count N.  Decision T
  gives each subflow its (T-1) mod n-th candidate by id while T is at most
  the largest candidate count n; later decisions score every candidate
  with X = Bw_hat + Bw * sqrt(2 ln(C T) / N) and give each subflow the
  argmax, or -1 if no score is positive.  A push only smooths Bw_hat and
  appends; select_paths prunes the windows and computes Bw just before it
  scores, the one place Bw is read.
- "default", DefaultPolicy: every subflow stays on its first candidate.
- "oracle", OraclePolicy: the candidate whose trace has the largest mean
  capacity over the coming slot, the earlier one on a tie.  Neither this
  nor the default policy reads its samples.
"""

from __future__ import annotations

import math
from collections import deque

OBSERVED_TIME_US = 10_000_000
SMOOTHING_ALPHA = 0.9
SLOT_US = 1_000_000


class PathStats:
    __slots__ = ("id", "flowid", "Bw", "Bw_hat", "N", "bwSamples_")

    def __init__(self, path_id: int, flowid: int) -> None:
        self.id = path_id
        self.flowid = flowid
        self.Bw = 0.0
        self.Bw_hat = 0.0
        self.N = 1
        self.bwSamples_: deque = deque()  # (bw, timestamp_us)


class PathManager:
    """Bookkeeping plus selection over (subflow, candidate path) pairs."""

    def __init__(self, subflows, paths) -> None:
        """subflows: iterable of flow ids; paths: iterable of (path_id, flowid)."""
        self.subflows = list(subflows)
        self.paths = [PathStats(pid, fid) for pid, fid in paths]
        self.by_id = {p.id: p for p in self.paths}
        self.candidates = {fid: sorted(p.id for p in self.paths if p.flowid == fid)
                           for fid in self.subflows}
        for fid, cands in self.candidates.items():
            if not cands:
                raise ValueError(f"paths: subflow {fid} has no candidate path")
        self.T = 1

    def on_new_bandwidth_sample(self, path_id: int, bw: float, now: int) -> None:
        p = self.by_id[path_id]
        if p.bwSamples_:
            p.Bw_hat = (1 - SMOOTHING_ALPHA) * p.Bw_hat + SMOOTHING_ALPHA * bw
        else:
            p.Bw_hat = bw  # the first sample seeds the smoothed reward
        p.bwSamples_.append((bw, now))

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
        for p in self.paths:
            self.delete_obsolete_samples(p.id, now)
        C = len(self.subflows)
        chosen = {}
        for flowid in self.subflows:
            x_max = 0.0
            path_id = -1
            for p in self.paths:
                if p.flowid != flowid:
                    continue
                x = p.Bw_hat + p.Bw * math.sqrt(2 * math.log(C * self.T) / p.N)
                if x > x_max:
                    x_max = x
                    path_id = p.id
            chosen[flowid] = path_id
            if path_id != -1:
                self.by_id[path_id].N += 1
        self.T += 1
        return chosen

    def decide(self, now: int) -> dict[int, int]:
        """Per-slot decision: forced initial exploration, then UCB rounds."""
        if self.exploring():
            chosen = {fid: c[(self.T - 1) % len(c)] for fid, c in self.candidates.items()}
            for path_id in chosen.values():
                self.by_id[path_id].N += 1
            self.T += 1
            return chosen
        return self.select_paths(now)

    def exploring(self) -> bool:
        return self.T <= max((len(c) for c in self.candidates.values()), default=0)


def ucb_policy(candidates: dict) -> PathManager:
    return PathManager(candidates, [(p.path_id, sid) for sid, paths in candidates.items()
                                    for p in paths])


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

    def decide(self, now: int) -> dict[int, int]:
        end = now + SLOT_US
        return {sid: max(paths, key=lambda p: p.trace.mean_capacity(now, end)).path_id
                for sid, paths in self.candidates.items()}


POLICIES = {"ucb": ucb_policy, "default": DefaultPolicy, "oracle": OraclePolicy}
