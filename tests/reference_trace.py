"""Reference trace lookups: a fresh modulo-plus-bisect search on every query.

These functions read only a trace's ``bounds``, ``rates`` and
``period_us`` and keep no state, and overall_mean walks one period step by
step, so the simnet tests require the schedule to give the same answers as
they do.  test_step_table_follows_from_the_entries checks that table
against the entries it was built from.
"""

from bisect import bisect_right


def capacity_at(trace, t_us: int) -> int:
    i = bisect_right(trace.bounds, t_us % trace.period_us) - 1
    return trace.rates[i]


def next_change(trace, t_us: int) -> int:
    """Start of the step after the one holding t_us."""
    cycle, local = divmod(t_us, trace.period_us)
    i = bisect_right(trace.bounds, local)
    return cycle * trace.period_us + trace.bounds[i]


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
    return mean_capacity(trace, 0, trace.period_us)
