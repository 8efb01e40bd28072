"""Statistics helpers for the perfbench runner.

Every rule the benchmark applies to its samples lives here so it can be
tested on its own (see test_stats.py):

* tail percentiles: the highest percentile with at least ten samples beyond;
* low percentiles: the lowest percentile with at least ten samples at or
  below, the benchmark's noise-resistant per-operation time;
* quiet operations: the operations that ended while the host stole
  little CPU time from this machine;
* run-to-run spread: quartiles as ``statistics.quantiles(values, n=4)``;
* the pair-win rule for claiming a gain between two commits;
* backlog detection for open-loop rungs.
"""

import bisect
import math
import statistics

MIN_BEYOND = 10
QUIET_MAX_STEAL = 0.01  # share of CPU time stolen around a quiet operation's end
QUIET_MIN_SHARE = 0.25  # operations kept when too few are quiet
QUIET_HALF_WIDTH_S = 0.5


def beyond(n, q):
    """Samples strictly above the nearest-rank q-percentile of n samples."""
    return n - math.ceil(q * n)


def supported_percentile(n, nominal):
    """The percentile to report for n samples: `nominal` when at least ten
    samples lie beyond it, else the highest one that has ten beyond (rounded
    down to 0.001). None when n leaves no room for ten beyond the median."""
    if n > 0 and beyond(n, nominal) >= MIN_BEYOND:
        return nominal
    q = math.floor((n - MIN_BEYOND) / n * 1000) / 1000 if n > 0 else 0.0
    while q > 0 and beyond(n, q) < MIN_BEYOND:
        q = round(q - 0.001, 3)
    return q if q >= 0.5 else None


def percentile(values, q):
    """Nearest-rank percentile: the smallest value with at least q of the
    samples at or below it."""
    if not values:
        raise ValueError("percentile of no samples")
    ordered = sorted(values)
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[rank - 1]


def tail(values, nominal):
    """(percentile used, value) under the ten-beyond rule, or (None, None)."""
    q = supported_percentile(len(values), nominal)
    if q is None:
        return None, None
    return q, percentile(values, q)


def supported_low_percentile(n, nominal):
    """The low percentile to report for n samples: `nominal` when at least
    ten samples lie at or below it, else the lowest one that has ten (rounded
    up to 0.001). None when that would lie above the median."""
    if n <= 0:
        return None
    q = max(nominal, math.ceil(MIN_BEYOND / n * 1000) / 1000)
    return q if q <= 0.5 else None


def low(values, nominal):
    """(percentile used, value) under the ten-at-or-below rule, or (None, None).

    Every operation a workload times does the same work (train, interactive)
    or work drawn from one distribution (label), and a busy host only ever
    adds time to it. A low percentile therefore tracks the program's own
    cost while a slow spell of the host shifts the median between its fast
    and slow modes."""
    q = supported_low_percentile(len(values), nominal)
    if q is None:
        return None, None
    return q, percentile(values, q)


def steal_around(readings, t):
    """Share of CPU time stolen between the /proc/stat readings that bracket
    the second around t. `readings` are (monotonic seconds, steal jiffies,
    total jiffies), sorted by time. None without two readings."""
    if len(readings) < 2:
        return None
    times = [r[0] for r in readings]
    lo = max(0, bisect.bisect_right(times, t - QUIET_HALF_WIDTH_S) - 1)
    hi = min(len(readings) - 1, max(lo + 1, bisect.bisect_left(times, t + QUIET_HALF_WIDTH_S)))
    total = readings[hi][2] - readings[lo][2]
    return (readings[hi][1] - readings[lo][1]) / total if total > 0 else 0.0


def quiet_values(values, end_s, readings):
    """The values whose operation ended while the host stole at most
    QUIET_MAX_STEAL of this machine's CPU time (over the second around its
    end; `end_s` are monotonic seconds, like the readings).

    Steal is time the hypervisor gave these CPUs to other guests; it comes in
    spells and stalls whichever thread it lands on. When fewer than
    QUIET_MIN_SHARE of the operations qualify, that share is taken from the
    quietest seconds instead. Without readings every value is kept."""
    if len(readings) < 2 or len(end_s) != len(values):
        return list(values)
    shares = [steal_around(readings, t) for t in end_s]
    quiet = [v for v, s in zip(values, shares) if s <= QUIET_MAX_STEAL]
    need = math.ceil(QUIET_MIN_SHARE * len(values))
    if len(quiet) >= need:
        return quiet
    ranked = sorted(zip(shares, range(len(values))))
    return [values[i] for _, i in ranked[:need]]


def quartiles(values):
    """(q1, median, q3) exactly as statistics.quantiles(values, n=4)."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values):
    """Interquartile distance as a share of the median."""
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / q2 if q2 else math.inf


def pair_wins(parent, change, better):
    """Apply the gain rule to runs paired in order.

    `better` is "lower" or "higher". Returns a dict with the wins of the
    change, the pairs that were not ties, and whether a gain may be claimed:
    the change wins at least nine tenths of all pairs run (ties count for
    neither side) and the medians differ by more than the parent's own
    interquartile distance.
    """
    if len(parent) != len(change) or not parent:
        raise ValueError("pair_wins needs two equally long, non-empty run lists")
    sign = -1 if better == "lower" else 1
    wins = sum(1 for p, c in zip(parent, change) if sign * (c - p) > 0)
    ties = sum(1 for p, c in zip(parent, change) if c == p)
    parent_iqr = 0.0
    if len(parent) >= 2:
        q1, _, q3 = quartiles(parent)
        parent_iqr = q3 - q1
    gap = sign * (statistics.median(change) - statistics.median(parent))
    return {
        "wins": wins,
        "ties": ties,
        "pairs": len(parent),
        "gain": wins >= 0.9 * len(parent) and gap > parent_iqr,
    }


def backlog_growing(due_s, lat_ms, duration_s, factor=2.0, floor_ms=2.0):
    """True when an open-loop rung was still falling behind as it ended.

    Latency (due -> answered) of requests due in the last quarter of the rung
    is compared with the second quarter (the first absorbs start-up): a queue
    that grows without bound makes later requests wait ever longer. Growing
    means the last quarter's median exceeds `factor` times the second
    quarter's and by more than `floor_ms`. Fewer than ten requests in either
    quarter is not evidence of anything: not growing.
    """
    q2 = [l for d, l in zip(due_s, lat_ms) if duration_s / 4 <= d < duration_s / 2]
    q4 = [l for d, l in zip(due_s, lat_ms) if d >= duration_s * 3 / 4]
    if len(q2) < MIN_BEYOND or len(q4) < MIN_BEYOND:
        return False
    early, late = statistics.median(q2), statistics.median(q4)
    return late > factor * early and late - early > floor_ms


def rung_verdict(rung, limit_ms, nominal_q):
    """Judge one swarm rung against the latency limit.

    Shed, failed and unanswered requests count as misses: they sort above
    every answered latency. Returns a dict with the tail percentile used,
    the tail latency including misses (inf when a miss lands on it), whether
    the backlog grew, and whether the rung meets the limit.
    """
    answered = list(rung["lat_ms"])
    misses = rung["scheduled"] - rung["ok"]
    n = len(answered) + misses
    q = supported_percentile(n, nominal_q)
    if q is None:
        return {"q": None, "tail_ms": math.inf, "growing": False, "passes": False}
    rank = max(1, math.ceil(q * n))
    ordered = sorted(answered)
    tail_ms = ordered[rank - 1] if rank <= len(ordered) else math.inf
    growing = backlog_growing(rung["due_s"], rung["lat_ms"], rung["duration_s"])
    return {"q": q, "tail_ms": tail_ms, "growing": growing,
            "passes": tail_ms <= limit_ms and not growing}
