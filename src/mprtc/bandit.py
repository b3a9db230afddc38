"""UCB path manager: per-path reward bookkeeping and per-slot selection.

Each candidate path carries a smoothed reward (Bw_hat), a windowed maximum
of recent bandwidth samples (Bw), and a pull counter (N).  Once per decision
slot the manager scores every candidate with

    X = Bw_hat + Bw * sqrt(2 * ln(C * T) / N)

and gives each subflow the argmax.  Bw is the maximum over samples of the
last 10 s, but the newest sample is always kept, so a path unvisited for
longer scores with its last sample, and only a path never sampled has an
empty window and Bw 0.0.  Re-exploration comes from the sqrt term, which
grows with T while an unpicked path's N stays put.

A push only smooths Bw_hat and appends; select_paths prunes each window and
computes Bw just before it scores, the one place Bw is read.  Before scoring
starts, decision T gives each subflow its (T-1) mod n-th candidate by id,
while T is at most the largest candidate count n.
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
