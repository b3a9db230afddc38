"""Workloads of the mprtc benchmark: inputs made from a seed, runs, outputs.

The program is driven only through its public API (build_topology,
TraceSchedule, synthetic_trace_pool, VideoSession, CappedFlow and
EventLoop.run) and receives only the configs and traces generated here.
Every workload runs a fixed batch of independent sessions, so that the
figures of one seed average over several trace draws; a single session's
figures swing widely with the traces it drew.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
import statistics
from array import array
from dataclasses import dataclass, replace
from itertools import chain

from mprtc.scheduler import wire_size
from mprtc.session import CappedFlow, VideoSession
from mprtc.simnet import EventLoop, TraceSchedule, build_topology, synthetic_trace_pool

US_PER_S = 1_000_000
# Frames (and dumbbell packets) are on time when they arrive within this
# budget of capture.  It is the benchmark's own constant, so a change to the
# program's sender-side drop budget cannot silently redefine the metric.
BUDGET_US = 400_000

COLLAPSE_BPS = 10_000          # TraceSchedule rejects 0, so an outage is 10 kbps
DUMBBELL_LINK = {"id": "L1", "capacity_mbps": 10, "owd_ms": 20, "queue_ms": 100}
DUMBBELL_FLOWS = 3
DUMBBELL_STAGGER_US = 5_000_000


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str        # "overlay" or "dumbbell"
    sessions: int    # independent sessions per round
    sim_s: int       # simulated seconds per session


# Why each workload exists is recorded in BENCHMARK.json and README.md.
WORKLOADS = {w.name: w for w in (
    Workload("overlay-ucb", "overlay", 25, 40),
    Workload("overlay-collapse", "overlay", 28, 60),
    Workload("dumbbell-bulk", "dumbbell", 24, 30),
)}

# A quick run keeps every mechanism of the workload but is too small to time.
_QUICK = {"overlay-ucb": (1, 10), "overlay-collapse": (1, 30), "dumbbell-bulk": (1, 15)}


def get_workload(name: str, quick: bool = False) -> Workload:
    workload = WORKLOADS[name]
    if quick:
        sessions, sim_s = _QUICK[name]
        workload = replace(workload, sessions=sessions, sim_s=sim_s)
    return workload


# -- inputs -----------------------------------------------------------------

def make_inputs(workload: Workload, seed: int) -> list[dict]:
    """Per-session inputs drawn from the seed: traces or start times, and an RNG seed."""
    rng = random.Random(seed)
    if workload.name == "overlay-ucb":
        # The seed deals the whole pool out, four traces per session, as many
        # times as the sessions need: every trace is played equally often.
        pool = synthetic_trace_pool()
        picks = []
        while len(picks) < 4 * workload.sessions:
            picks += rng.sample(range(len(pool)), len(pool))
        return [{"traces": [pool[i] for i in picks[4 * k:4 * k + 4]],
                 "rng_seed": rng.getrandbits(32)}
                for k in range(workload.sessions)]
    if workload.name == "overlay-collapse":
        return [{"traces": _collapse_traces(rng), "rng_seed": rng.getrandbits(32)}
                for _ in range(workload.sessions)]
    return [{"starts_us": [i * DUMBBELL_STAGGER_US + rng.randrange(US_PER_S)
                           for i in range(DUMBBELL_FLOWS)],
             "rng_seed": rng.getrandbits(32)}
            for _ in range(workload.sessions)]


def _collapse_traces(rng: random.Random) -> list[TraceSchedule]:
    """Per subflow: a direct path that collapses at 20-40 s of every minute,
    and a steady but slower relay path.

    The wrap period is the last timestamp plus the last gap (40 + 20 s), so
    the three entries repeat every 60 s.
    """
    traces = []
    for _ in range(2):
        base = int(rng.uniform(3e6, 5e6))
        traces.append(TraceSchedule([(0, base), (20 * US_PER_S, COLLAPSE_BPS),
                                     (40 * US_PER_S, base)]))
        traces.append(TraceSchedule([(0, int(rng.uniform(0.8e6, 1.6e6)))]))
    return traces


# -- sessions ---------------------------------------------------------------

class ReleaseLog(list):
    """Stands in for VideoSink.delivered and records when each frame is released.

    DeliveredFrame.delivered_ts is the time the frame completed; the user sees
    it only at in-order release, which the sink does not timestamp.
    """

    def __init__(self, loop: EventLoop) -> None:
        super().__init__()
        self.loop = loop
        self.release_ts: list[int] = []

    def append(self, frame) -> None:
        super().append(frame)
        self.release_ts.append(self.loop.now)


class OverlayRun:
    """One VideoSession (scheme ucb, rtc-bbr) on a multipath-overlay topology."""

    def __init__(self, inputs: dict, sim_s: int) -> None:
        self.end_us = sim_s * US_PER_S
        self.loop = EventLoop()
        rng = random.Random(inputs["rng_seed"])
        net = build_topology(self.loop, {"topology": "multipath-overlay"},
                             rng=rng, traces=inputs["traces"])
        self.links = list(net.links.values())
        self.session = VideoSession(self.loop, rng, net.candidates,
                                    scheme="ucb", variant="rtc-bbr")
        self.session.sink.delivered = ReleaseLog(self.loop)
        self.session.start(0)
        self.attempted = 0

    def run(self) -> None:
        # Frames captured by the cutoff have had their whole budget to arrive.
        self.loop.run(self.end_us - BUDGET_US)
        self.attempted = self.session.source.frames_captured
        self.loop.run(self.end_us)

    def outcome(self) -> dict:
        s = self.session
        sink, source = s.sink, s.source
        delivered = sink.delivered
        cutoff = self.end_us - BUDGET_US
        latencies = array("q")
        on_time = 0
        bins = [0] * (self.end_us // US_PER_S)
        for frame, released in zip(delivered, delivered.release_ts):
            latency = released - frame.capture_ts
            latencies.append(latency)
            if frame.capture_ts <= cutoff and latency <= BUDGET_US:
                on_time += 1
            bins[min(released // US_PER_S, len(bins) - 1)] += frame.size
        digest_input = [
            s.selections,
            [(f.frame_index, f.delivered_ts) for f in delivered],
            sink.abandoned,
            s.lost_packets,
        ]
        return {
            "digest_input": digest_input,
            "checks": overlay_checks(s),
            "checks_run": OVERLAY_CHECKS,
            "attempted": self.attempted,
            "on_time": on_time,
            **latency_percentiles(latencies),
            "payload_bytes": sum(f.size for f in delivered),
            "jain": jain_index(bins),
            "counts": {
                "link_sent": sum(l.sent for l in self.links),
                "link_dropped": sum(l.dropped for l in self.links),
                "events_pending": self.loop.pending(),
                "decision_log_len": len(s.scheduler.decision_log),
                "frames_dropped_sender": source.frames_dropped,
                "frames_abandoned": len(sink.abandoned),
                "frames_unseen": len(unseen_frames(s)),
            },
        }


class DumbbellRun:
    """Saturating RTC-BBR CappedFlows with staggered starts on one bottleneck.

    Each flow's segments carry their send time as capture_ts, so a one-segment
    "frame" is a packet and its latency is the one-way delay.
    """

    def __init__(self, inputs: dict, sim_s: int) -> None:
        self.end_us = sim_s * US_PER_S
        self.loop = EventLoop()
        rng = random.Random(inputs["rng_seed"])
        starts = inputs["starts_us"]
        net = build_topology(self.loop, {"topology": "dumbbell", "links": [DUMBBELL_LINK],
                                         "flows": [{} for _ in starts]})
        self.links = list(net.links.values())
        cap_bps = DUMBBELL_LINK["capacity_mbps"] * 1_000_000
        self.flows = [CappedFlow(self.loop, rng, path, variant="rtc-bbr", conn_id=i,
                                 rate_cap_bps=cap_bps, start_ts=start)
                      for i, (path, start) in enumerate(zip(net.flow_paths, starts))]
        self.stats = [_FlowStats(self.end_us - BUDGET_US, max(starts)) for _ in starts]
        for flow, stats in zip(self.flows, self.stats):
            flow.rm.segment_sink = stats.on_segment
            flow.sm.loss_hook = stats.counting_loss_hook(flow.sm.loss_hook)
            flow.start()
        self.attempted = 0

    def run(self) -> None:
        self.loop.run(self.end_us - BUDGET_US)
        self.attempted = sum(f.sm.packets_sent for f in self.flows)
        self.loop.run(self.end_us)

    def outcome(self) -> dict:
        checks = []
        for i, flow in enumerate(self.flows):
            checks += inflight_checks(f"flow {i}", flow.sm)
            if flow.rm.data_packets > flow.sm.packets_sent:
                checks.append(f"flow {i}: received {flow.rm.data_packets} data packets "
                              f"> sent {flow.sm.packets_sent}")
        return {
            "digest_input": [[f.rm.bytes_received, st.lost] for f, st in zip(self.flows, self.stats)],
            "checks": checks,
            "checks_run": DUMBBELL_CHECKS,
            "attempted": self.attempted,
            "on_time": sum(st.on_time for st in self.stats),
            **latency_percentiles(chain.from_iterable(st.latencies_us for st in self.stats)),
            "payload_bytes": sum(st.payload_bytes for st in self.stats),
            "jain": jain_index([st.shared_bytes for st in self.stats]),
            "counts": {
                "link_sent": sum(l.sent for l in self.links),
                "link_dropped": sum(l.dropped for l in self.links),
                "events_pending": self.loop.pending(),
                "decision_log_len": 0,
                "frames_dropped_sender": 0,
                "frames_abandoned": 0,
                "frames_unseen": 0,
            },
        }


class _FlowStats:
    """Receiver-side tally of one dumbbell flow."""

    def __init__(self, cutoff_us: int, shared_from_us: int) -> None:
        self.cutoff_us = cutoff_us
        self.shared_from_us = shared_from_us
        self.latencies_us = array("q")
        self.on_time = 0
        self.payload_bytes = 0
        self.shared_bytes = 0   # payload received once every flow has started
        self.lost = 0

    def on_segment(self, segment, packet_number, conn_id, now) -> None:
        latency = now - segment.capture_ts
        self.latencies_us.append(latency)
        if segment.capture_ts <= self.cutoff_us and latency <= BUDGET_US:
            self.on_time += 1
        self.payload_bytes += segment.payload_length
        if now >= self.shared_from_us:
            self.shared_bytes += segment.payload_length

    def counting_loss_hook(self, hook):
        def on_loss(lost):
            self.lost += len(lost)
            hook(lost)
        return on_loss


def build_runs(workload: Workload, inputs: list[dict]) -> list:
    cls = OverlayRun if workload.kind == "overlay" else DumbbellRun
    return [cls(item, workload.sim_s) for item in inputs]


# -- output checks ----------------------------------------------------------

OVERLAY_CHECKS = ("delivered-order", "no-key-frame-abandoned", "inflight", "queued-bytes",
                  "frame-accounting")
DUMBBELL_CHECKS = ("inflight", "received-not-above-sent")

def inflight_checks(label: str, sm) -> list[str]:
    outstanding = sum(rec.size for rec in sm.records.values())
    if sm.inflight < 0 or sm.inflight != outstanding:
        return [f"{label}: inflight {sm.inflight} != outstanding record bytes {outstanding}"]
    return []


def unseen_frames(session: VideoSession) -> set[int]:
    """Encoded frames the sink never tracked: every segment lost, still in
    flight at the end, or arriving only after a later frame was released."""
    sink = session.sink
    encoded = {fi for fi, _, _, _, dropped in session.source.frame_log if not dropped}
    tracked = ({f.frame_index for f in sink.delivered} | {a[0] for a in sink.abandoned}
               | set(sink.pending) | set(sink._ready))
    return encoded - tracked


def overlay_checks(session: VideoSession) -> list[str]:
    failures = []
    sink, source, sched = session.sink, session.source, session.scheduler
    indices = [f.frame_index for f in sink.delivered]
    if any(b <= a for a, b in zip(indices, indices[1:])):
        failures.append("delivered frame indices are not strictly increasing")
    keys_abandoned = [a[0] for a in sink.abandoned if a[2]]
    if keys_abandoned:
        failures.append(f"key frames abandoned: {keys_abandoned[:5]}")
    for pid, prt in sorted(session.paths.items()):
        failures += inflight_checks(f"path {pid}", prt.sm)
    for sid, sub in sorted(sched.subflows.items()):
        queued = sum(wire_size(e.segment) for e in sub.queue)
        if sub.queued_bytes != queued:
            failures.append(f"subflow {sid}: queued_bytes {sub.queued_bytes} != "
                            f"sum of queued wire sizes {queued}")

    # Frame accounting: every captured frame is in exactly one place.
    captured = set(range(source.frames_captured))
    dropped = {fi for fi, _, _, _, was_dropped in source.frame_log if was_dropped}
    encoded = {fi for fi, _, _, _, was_dropped in source.frame_log if not was_dropped}
    queued = {raw.frame_index for raw in source.raw_queue}
    in_encoder = captured - dropped - encoded - queued
    if len(in_encoder) != int(source.busy):
        failures.append(f"{len(in_encoder)} frames unaccounted at the sender (busy={source.busy})")
    parts = {
        "delivered": [f.frame_index for f in sink.delivered],
        "abandoned": [a[0] for a in sink.abandoned],
        "sink pending": list(sink.pending),
        "sink ready": list(sink._ready),
        "unseen": list(unseen_frames(session)),
    }
    seen = []
    for items in parts.values():
        seen += items
    if len(seen) != len(set(seen)) or not set(seen) <= encoded:
        failures.append("sink-side frame sets overlap or hold frames never encoded")
    total = (len(dropped) + len(queued) + int(source.busy)
             + sum(len(items) for items in parts.values()))
    if total != source.frames_captured:
        failures.append(f"frame accounting: captured {source.frames_captured} != {total} "
                        f"(dropped {len(dropped)}, raw queue {len(queued)}, busy {int(source.busy)}, "
                        + ", ".join(f"{k} {len(v)}" for k, v in parts.items()) + ")")
    return failures


# -- summaries --------------------------------------------------------------

def jain_index(values) -> float:
    total = sum(values)
    squares = sum(v * v for v in values)
    if squares == 0:
        return 0.0
    return total * total / (len(values) * squares)


def percentile(sorted_values, q: float):
    """Nearest-rank percentile of an ascending sequence."""
    rank = max(1, math.ceil(q * len(sorted_values)))
    return sorted_values[rank - 1]


def latency_percentiles(latencies_us) -> dict:
    ordered = sorted(latencies_us)
    return {"latency_samples": len(ordered),
            "p50_us": percentile(ordered, 0.50), "p99_us": percentile(ordered, 0.99)}


def digest(outcome: dict) -> str:
    payload = json.dumps(outcome["digest_input"], separators=(",", ":"))
    return hashlib.sha256(payload.encode()).hexdigest()


def round_digest(session_digests: list[str]) -> str:
    return hashlib.sha256(",".join(session_digests).encode()).hexdigest()


def summarize(workload: Workload, outcomes: list[dict]) -> dict:
    """Output metrics of one round, plus the per-layer counts taken from outputs.

    Latency percentiles are taken per session and averaged over sessions on a
    log scale.  Sessions differ in kind, not only in degree (a dumbbell either
    keeps a standing queue or not; a collapse session recovers or not), so a
    pooled percentile or a median over sessions jumps between those modes
    from seed to seed.
    """
    attempted = sum(o["attempted"] for o in outcomes)
    counts = {k: sum(o["counts"][k] for o in outcomes) for k in outcomes[0]["counts"]}

    return {
        "sim_s": workload.sim_s,
        "checks_run": sorted({c for o in outcomes for c in o["checks_run"]}),
        "attempted": attempted,
        "on_time": sum(o["on_time"] for o in outcomes),
        "latency_samples": [o["latency_samples"] for o in outcomes],
        "frame_latency_p50_ms": statistics.geometric_mean(o["p50_us"] for o in outcomes) / 1000,
        "frame_latency_p99_ms": statistics.geometric_mean(o["p99_us"] for o in outcomes) / 1000,
        "frames_on_time_ratio": sum(o["on_time"] for o in outcomes) / attempted,
        "goodput_mbps": sum(o["payload_bytes"] for o in outcomes) * 8
                        / (workload.sim_s * len(outcomes)) / 1e6,
        "jain_fairness": sum(o["jain"] for o in outcomes) / len(outcomes),
        "counts": counts,
    }
