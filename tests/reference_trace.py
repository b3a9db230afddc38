"""Reference trace lookups: a fresh modulo-plus-bisect search on every query.

TraceSchedule.capacity_at answers from the step it last returned, and
overall_mean is worked out once at construction.  These functions read only
a trace's ``times``, ``rates`` and ``period_us`` and keep no state, so the
simnet tests require the schedule to give the same answers as they do.
"""

from bisect import bisect_right


def capacity_at(trace, t_us: int) -> int:
    if trace.period_us:
        t_us %= trace.period_us
    i = bisect_right(trace.times, t_us) - 1
    if i < 0:
        i = 0
    return trace.rates[i]


def next_change(trace, t_us: int) -> int:
    """Start of the step after the one holding t_us."""
    if not trace.period_us:
        return 1 << 62
    cycle, local = divmod(t_us, trace.period_us)
    i = bisect_right(trace.times, local)
    nxt = trace.times[i] if i < len(trace.times) else trace.period_us
    return cycle * trace.period_us + nxt


def mean_capacity(trace, start_us: int, end_us: int) -> float:
    total = 0.0
    t = start_us
    while t < end_us:
        cap = capacity_at(trace, t)
        step_end = min(next_change(trace, t), end_us)
        total += cap * (step_end - t)
        t = step_end
    return total / (end_us - start_us)


def overall_mean(trace) -> float:
    if not trace.period_us:
        return float(trace.rates[0])
    return mean_capacity(trace, 0, trace.period_us)
