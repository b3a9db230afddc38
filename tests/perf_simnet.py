"""Microbenchmarks of event dispatch and the network model's per-packet paths.

    python -m pytest tests/perf_simnet.py -q

The file name does not match test_*.py, so the plain test run does not
collect it.  Each round builds a fresh loop (and link) in its untimed
set-up.  The link is trace-driven like the overlay workloads' access links,
so a service start past the end of the link's step also reads the trace.
"""

import random

from mprtc.simnet import EventLoop, Link, LinkConfig, US_PER_S, synthetic_trace

ROUNDS = 200
BURST = 1000
SIZE = 1200
EVENTS = 10_000


class Sink:
    """A packet on the one link of a one-link route whose sink drops it."""

    __slots__ = ("size", "route", "hop")

    def __init__(self, size):
        self.size = size
        self.route = (None,)
        self.hop = 0

    def sink(self, packet, now):
        pass


TRACE = synthetic_trace(random.Random(7))


def burst_link():
    loop = EventLoop()
    link = Link(loop, LinkConfig(int(TRACE.overall_mean()), 50_000, BURST * SIZE),
                trace=TRACE)
    return (loop, link, [Sink(SIZE) for _ in range(BURST)]), {}


def run_burst(loop, link, packets):
    for packet in packets:
        link.enqueue(packet)
    loop.run(loop.now + 1000 * US_PER_S)
    return link


def lookups():
    return (TRACE, range(0, 1000 * 97_003, 97_003)), {}


def look_up_all(trace, times):
    step_at = trace.step_at
    for t in times:
        step_at(t)


def noop():
    pass


def loaded_loop():
    """EVENTS no-op entries, one per microsecond, every third one cancelled."""
    loop = EventLoop()
    for t in range(EVENTS):
        handle = loop.schedule(t, noop)
        if t % 3 == 0:
            handle[2] = None
    return (loop,), {}


def run_all(loop):
    loop.run(EVENTS)
    return loop


def test_dispatch_10000_events(benchmark):
    loop = benchmark.pedantic(run_all, setup=loaded_loop, rounds=ROUNDS)
    assert not loop._heap


def test_link_burst_of_1000(benchmark):
    link = benchmark.pedantic(run_burst, setup=burst_link, rounds=ROUNDS)
    assert link.delivered == BURST


def test_trace_step_at_1000(benchmark):
    benchmark.pedantic(look_up_all, setup=lookups, rounds=ROUNDS)
