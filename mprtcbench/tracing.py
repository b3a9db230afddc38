"""Span tracing for the traced run, kept entirely in the benchmark's files.

install() wraps public methods of each mprtc layer (and the session
handlers that the transport calls back into) at class level, and wraps
every callback passed to EventLoop.schedule, keyed by its __qualname__.
Each wrapper records a span; a key's self time is its span time minus the
time of the spans nested inside it.  Spans are aggregated per key as they
close rather than stored one by one, because a round dispatches millions
of events.

Cheap getters called once or more per packet (BbrController.cwnd /
pacing_rate / bw_es, Scheduler.backlog / expected_latency) are not wrapped:
their time counts as self time of the caller.
"""

from __future__ import annotations

import functools
import time
from collections import Counter, defaultdict

from mprtc import bandit, congestion, scheduler, session, simnet, transport, videomodel

# Class-level methods given a span.  Scheduled callbacks get theirs from the
# wrapped EventLoop.schedule instead, under the key "loop:<qualname>".
SPANNED = {
    simnet.EventLoop: ("run",),
    simnet.Link: ("enqueue",),
    transport.SendManager: ("send_segment", "send_stop_waiting", "on_ack"),
    transport.ReceiveManager: ("on_packet",),
    congestion.BbrController: ("on_delivery_sample", "pause", "resume"),
    scheduler.Scheduler: ("schedule_segments", "next_segment", "evict", "on_loss",
                          "mark_acked", "update_srtt", "set_bw_es", "min_latency"),
    bandit.PathManager: ("on_new_bandwidth_sample", "delete_obsolete_samples",
                         "select_paths", "decide", "exploring"),
    videomodel.VideoSink: ("on_segment", "on_stop_waiting", "sweep"),
    videomodel.VideoSource: ("start",),
    session.VideoSession: tuple(n for n, v in vars(session.VideoSession).items()
                                if callable(v) and n != "__init__"),
    session.CappedFlow: tuple(n for n, v in vars(session.CappedFlow).items()
                              if callable(v) and n != "__init__"),
}

# Span key -> bucket.  A key not listed here falls back to its class.
BUCKET_OF_KEY = {
    "EventLoop.run": "simnet.dispatch",
    "SendManager.send_segment": "transport.send",
    "SendManager.send_stop_waiting": "transport.send",
    "SendManager.on_ack": "transport.on_ack",
    "ReceiveManager.on_packet": "transport.on_packet",
    "BbrController.on_delivery_sample": "congestion.sample",
    "Scheduler.schedule_segments": "scheduler.assign",
    "Scheduler.next_segment": "scheduler.next_segment",
    "Scheduler.evict": "scheduler.evict",
}
BUCKET_OF_CLASS = {
    "EventLoop": "simnet.dispatch",
    "Link": "simnet.link",
    "SendManager": "transport.timers",
    "ReceiveManager": "transport.timers",
    "BbrController": "congestion.other",
    "Scheduler": "scheduler.other",
    "PathManager": "bandit.all",
    "VideoSink": "videomodel.sink",
    "VideoSource": "videomodel.encoder",
    "VideoSession": "session.all",
    "CappedFlow": "session.all",
}
LAYERS = ("simnet", "transport", "congestion", "scheduler", "bandit", "videomodel", "session")


def bucket_of(key: str) -> str:
    name = key.removeprefix("loop:")
    return BUCKET_OF_KEY.get(name) or BUCKET_OF_CLASS.get(name.split(".")[0], "other")


class Tracer:
    """Aggregated spans and counters of one traced process."""

    def __init__(self) -> None:
        self.calls: Counter = Counter()
        self.self_s: defaultdict = defaultdict(float)
        self.total_s: defaultdict = defaultdict(float)
        self.scheduled: Counter = Counter()
        self.counts: Counter = Counter()
        self._children = [0.0]   # child time of each open span; [0] is the root

    def spanned(self, key: str, fn, count=None):
        """Wrap fn in a span; count(result) runs after it returns."""
        children = self._children
        calls, self_s, total_s = self.calls, self.self_s, self.total_s
        clock = time.perf_counter

        def traced(*args, **kwargs):
            children.append(0.0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                child = children.pop()
                children[-1] += dt
                self_s[key] += dt - child
                total_s[key] += dt
                calls[key] += 1
            if count is not None:
                count(result)
            return result
        return traced

    def install(self) -> None:
        """Patch the mprtc classes for the rest of the process; call before any
        session is built, so that hooks bound at construction are wrapped too."""
        counts = self.counts
        on_result = {
            "SendManager.on_ack": lambda samples: counts.update(acked=len(samples)),
            "Scheduler.on_loss": lambda r: counts.update(retransmissions=len(r[0]),
                                                         dropped=len(r[1])),
            "Scheduler.evict": lambda evicted: counts.update(evicted=len(evicted)),
        }
        for cls, names in SPANNED.items():
            for name in names:
                key = f"{cls.__name__}.{name}"
                setattr(cls, name, functools.wraps(getattr(cls, name))(
                    self.spanned(key, getattr(cls, name), on_result.get(key))))

        declare_lost = transport.SendManager._declare_lost

        def counted_declare_lost(sm, lost):
            counts["packets_lost"] += len(lost)
            declare_lost(sm, lost)
        transport.SendManager._declare_lost = counted_declare_lost

        schedule = simnet.EventLoop.schedule
        scheduled = self.scheduled
        spans = {}

        def traced_schedule(loop, fire_time, fn, *args):
            key = "loop:" + fn.__qualname__
            scheduled[key] += 1
            wrapped = spans.get(key)
            if wrapped is None:
                wrapped = spans[key] = self.spanned(key, _call)
            return schedule(loop, fire_time, functools.partial(wrapped, fn), *args)
        simnet.EventLoop.schedule = traced_schedule

    def layer_metrics(self) -> dict:
        """Per-layer self times (s) and the counters gathered by the wrappers."""
        buckets = defaultdict(float)
        for key, seconds in self.self_s.items():
            buckets[bucket_of(key)] += seconds
        metrics = {f"{layer}.self_s": sum(v for b, v in buckets.items()
                                          if b.startswith(layer + "."))
                   for layer in LAYERS}
        dispatched = sum(n for k, n in self.calls.items() if k.startswith("loop:"))
        calls, counts = self.calls, self.counts
        acks = calls["SendManager.on_ack"]
        metrics.update({
            "simnet.events_scheduled": sum(self.scheduled.values()),
            "simnet.events_dispatched": dispatched,
            "simnet.dispatch_self_s": buckets["simnet.dispatch"],
            "simnet.link_self_s": buckets["simnet.link"],
            "transport.send_self_s": buckets["transport.send"],
            "transport.on_ack_self_s": buckets["transport.on_ack"],
            "transport.acked_per_ack": counts["acked"] / acks if acks else 0.0,
            "transport.on_packet_self_s": buckets["transport.on_packet"],
            "transport.loss_timer_arms": self.scheduled["loop:SendManager._on_loss_timer"],
            "transport.loss_timer_fires": calls["loop:SendManager._on_loss_timer"],
            "transport.packets_lost": counts["packets_lost"],
            "transport.stop_waiting_sent": calls["SendManager.send_stop_waiting"],
            "congestion.samples": calls["BbrController.on_delivery_sample"],
            "congestion.sample_self_s": buckets["congestion.sample"],
            "scheduler.assign_self_s": buckets["scheduler.assign"],
            "scheduler.next_segment_self_s": buckets["scheduler.next_segment"],
            "scheduler.evict_self_s": buckets["scheduler.evict"],
            "scheduler.retransmissions": counts["retransmissions"],
            "scheduler.segments_dropped": counts["dropped"] + counts["evicted"],
            "bandit.decisions": calls["PathManager.decide"],
            "bandit.switches": calls["VideoSession._switch"],
            "bandit.bw_pushes": calls["PathManager.on_new_bandwidth_sample"],
            "videomodel.sink_self_s": buckets["videomodel.sink"],
            "videomodel.encoder_self_s": buckets["videomodel.encoder"],
        })
        return metrics

    def handlers(self) -> list[tuple[str, int, float, float]]:
        """(qualname, dispatched, total_s, self_s) per scheduled callback, by self time."""
        rows = [(k.removeprefix("loop:"), n, self.total_s[k], self.self_s[k])
                for k, n in self.calls.items() if k.startswith("loop:")]
        return sorted(rows, key=lambda r: -r[3])


def _call(fn, *args):
    return fn(*args)
