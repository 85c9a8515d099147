"""Noise-robust summaries of repeated fixed-work measurements."""

import math
import statistics


def quiet_mean(rounds, better="lower"):
    """The host-noise-free mean cost of a run of slices.

    *rounds* holds one list per round, and position *i* of every list
    measured the same work (slice *i*: identical requests into an
    identically prepared server).  Interference from the host only
    ever slows a slice down, and it comes in spells that last seconds,
    so the best value a slice reached in any round is the slice
    without the host; the mean over slices then keeps what the program
    itself does differently from slice to slice (collections, growing
    state).  ``better="higher"`` is the same for rates.
    """
    pick = min if better == "lower" else max
    best = [pick(values) for values in zip(*rounds)]
    if not best:
        raise ValueError("quiet_mean needs at least one slice")
    return sum(best) / len(best)


def lower_quartile(values):
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=4)[0]


def lower_decile(values):
    return sorted(values)[len(values) // 10]


def percentile(values, fraction):
    """Nearest-rank percentile of a non-empty sample."""
    ordered = sorted(values)
    return ordered[max(1, math.ceil(len(ordered) * fraction)) - 1]

