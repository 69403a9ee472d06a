"""Statistics the benchmark reports, kept apart so they can be unit-tested.

Every timing is reported as a median plus the highest percentile that has
at least ten samples beyond it. Open-loop latency is measured from each
request's due time, so a stalled generator is charged to the requests it
delayed.
"""

import math
import statistics

MIN_BEYOND = 10


class InsufficientSamples(ValueError):
    """A percentile was asked for with fewer than MIN_BEYOND samples beyond it."""


def samples_beyond(n, q):
    """Samples that lie strictly above the q-th percentile of n samples."""
    return int(math.floor(n * (100.0 - q) / 100.0 + 1e-9))


def percentile(values, q, min_beyond=MIN_BEYOND):
    """Linear-interpolated q-th percentile of values (q in [0, 100]).

    Raises InsufficientSamples unless at least `min_beyond` samples lie
    beyond it; the median of a single sample is allowed. Infinite values
    (failed requests) sort last and count as missing any limit.
    """
    n = len(values)
    if n == 0:
        raise InsufficientSamples("no samples")
    if q > 50.0 and samples_beyond(n, q) < min_beyond:
        raise InsufficientSamples(
            "p%g of %d samples has %d beyond it, need %d"
            % (q, n, samples_beyond(n, q), min_beyond))
    ordered = sorted(values)
    pos = (n - 1) * q / 100.0
    lo = int(math.floor(pos))
    hi = min(lo + 1, n - 1)
    frac = pos - lo
    if frac == 0.0 or ordered[lo] == ordered[hi]:
        return ordered[lo]
    return ordered[lo] + (ordered[hi] - ordered[lo]) * frac


def median(values):
    return percentile(values, 50.0)


def mean(values):
    return sum(values) / len(values) if values else 0.0


def due_latencies_ms(due_s, seen_s):
    """Latency of each request from its due time to when its response was
    seen. A request with no valid response (seen < 0) is infinitely late."""
    return [(seen - due) * 1e3 if seen >= 0 else math.inf
            for due, seen in zip(due_s, seen_s)]


def best_windows_percentile(times_s, values, q, window_s, keep_frac,
                            rank_values=None, rank_q=None):
    """q-th percentile of the samples pooled over the best `keep_frac` of
    the run's windows, and the number of windows kept and in all.

    The run is cut into consecutive windows of `window_s` (by time). Each
    window is ranked by the rank_q-th percentile of its `rank_values`
    (by default its own q-th percentile of `values`); windows too small
    for that are skipped. More windows are kept, best first, while the
    pool is too small for the q-th percentile. Stalls of a shared host
    only add time and land in some windows, which this drops. A change
    that slows the program, or worsens its tail, in more than
    1 - keep_frac of the windows still moves the result."""
    if rank_values is None:
        rank_values, rank_q = values, q
    windows = {}
    for i, t in enumerate(times_s):
        windows.setdefault(int(t // window_s), []).append(i)
    ranked = []
    for key in sorted(windows):
        try:
            ranked.append((percentile([rank_values[i] for i in windows[key]],
                                      rank_q), key))
        except InsufficientSamples:
            pass
    if not ranked:
        raise InsufficientSamples("no %gs window holds enough samples for p%g"
                                  % (window_s, rank_q))
    ranked.sort()
    kept = max(1, int(math.ceil(len(ranked) * keep_frac - 1e-9)))
    pooled = [values[i] for _, key in ranked[:kept] for i in windows[key]]
    while (q > 50.0 and samples_beyond(len(pooled), q) < MIN_BEYOND
           and kept < len(ranked)):
        pooled += [values[i] for i in windows[ranked[kept][1]]]
        kept += 1
    return percentile(pooled, q), kept, len(ranked)


def lateness_ms(due_s, sent_s):
    """How late the generator submitted each request."""
    return [(sent - due) * 1e3 for due, sent in zip(due_s, sent_s)]


def outstanding_at(t, due_s, seen_s):
    """Requests due by time t whose response had not been seen by t."""
    due = sum(1 for d in due_s if d <= t)
    seen = sum(1 for s in seen_s if 0 <= s <= t)
    return due - seen


def served_throughput(seen_s):
    """Valid responses per second from the phase origin to the last one."""
    seen = [s for s in seen_s if s >= 0]
    if not seen:
        return 0.0
    return len(seen) / max(seen)


def quartile_spread(values):
    """(Q3 - Q1) / median, with quartiles as statistics.quantiles gives them."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2 if q2 else math.inf
