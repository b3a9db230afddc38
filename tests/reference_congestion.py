"""Reference controller outputs: the getters BbrController had before it stored
bw_es, pacing_rate and cwnd, worked out from its state on every call.

The congestion tests require the stored values to equal these after every
call that can change the controller's state.
"""

from mprtc.congestion import (
    INITIAL_BW_BPS,
    INITIAL_CWND,
    PROBE_BW,
    PROBE_RTT,
    PROBE_RTT_CWND,
    STARTUP_GAIN,
)


def bw_es(cc) -> float:
    bw = cc.max_bw_filter.get()
    return bw if bw > 0 else INITIAL_BW_BPS


def bdp_bytes(cc) -> float:
    if not cc.rtt_min:
        return INITIAL_CWND
    return bw_es(cc) * cc.rtt_min / 8 / 1_000_000


def pacing_rate(cc) -> float:
    return bw_es(cc) * cc.pacing_gain


def cwnd(cc) -> float:
    if cc.mode == PROBE_RTT:
        return PROBE_RTT_CWND
    if cc.mode == PROBE_BW:
        return 2 * bdp_bytes(cc)
    return max(STARTUP_GAIN * bdp_bytes(cc), INITIAL_CWND)


def outputs(cc) -> tuple:
    return bw_es(cc), pacing_rate(cc), cwnd(cc)
