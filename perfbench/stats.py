"""Sample arithmetic shared by every workload: percentiles, due-time
latency and the host-robust summaries the end-to-end metrics use.

The percentile itself is :func:`repro.analysis.stats.percentile` (linear
interpolation), so a benchmark number and an analysis number mean the same
thing.  What lives here is the benchmark's own bookkeeping: how many samples
a tail percentile needs, how open-loop latencies are taken, and how a run's
samples are summarised so that its figure does not depend on how long a
shared host happened to run slowly.

A shared host flips between a quick state and one about 1.8 times slower,
for a fraction of a second to half a minute at a time.  The median of a
whole run then follows the share of the run the host spent slow, which
differs from run to run by more than any change worth measuring.  Such
noise only ever slows the program, so each end-to-end metric is taken from
the quick part of the run instead:

* a stream of many requests is cut into :data:`SLICE_S` slices of the
  measured window, and the metric is the median of its quickest slice
  (:func:`quickest_slice_p50`), or the rate of its fastest
  (:func:`fastest_slice_rate`);
* a stream that repeats the same work several times in a run (the same
  update from the same state, the same what-if) keeps each item's best
  time (:func:`best_of_repeats`) and summarises those.
"""

from __future__ import annotations

from collections import defaultdict

from repro.analysis.stats import percentile

#: A tail percentile is reported only when at least this many samples lie
#: beyond it; with fewer, one outlier decides the number.
MIN_BEYOND = 10


def samples_needed(q: float, beyond: int = MIN_BEYOND) -> int:
    """Fewest samples for which percentile ``q`` has ``beyond`` above it."""
    if not 0 < q < 100:
        raise ValueError("q must be strictly between 0 and 100")
    needed = beyond * 100.0 / (100.0 - q)
    rounded = round(needed)
    # Guard float noise (10 * 100 / 5 can land a hair above 200).
    return rounded if abs(needed - rounded) < 1e-9 else int(needed) + 1


def supports(count: int, q: float, beyond: int = MIN_BEYOND) -> bool:
    """Does a sample of ``count`` values support percentile ``q``?"""
    return count >= samples_needed(q, beyond)


def due_latencies(due, done) -> list[float]:
    """Latency of each request timed from when it was *due* to be sent.

    In an open loop a request that waits behind a stall is charged the
    stall, which is the delay a user arriving on schedule would see; timing
    from the actual send would hide it.
    """
    if len(due) != len(done):
        raise ValueError(f"{len(due)} due times for {len(done)} completions")
    return [end - start for start, end in zip(due, done)]


def lateness(due, sent) -> float:
    """How far behind its schedule the generator ran (max of send - due)."""
    if len(due) != len(sent):
        raise ValueError(f"{len(due)} due times for {len(sent)} sends")
    return max((s - d for d, s in zip(due, sent)), default=0.0)



#: Slice length of :func:`quickest_slice_p50` and :func:`fastest_slice_rate`.
SLICE_S = 1.0
#: A slice with fewer samples than this has no median of its own.
SLICE_MIN_SAMPLES = 20


def slices(times, values, start: float, end: float,
           width: float = SLICE_S) -> list[list[float]]:
    """``values`` grouped by the ``width``-long slice of ``[start, end)``
    their time falls in; slices without a value are left out."""
    if width <= 0:
        raise ValueError("width must be positive")
    if len(times) != len(values):
        raise ValueError(f"{len(times)} times for {len(values)} values")
    grouped: dict[int, list[float]] = defaultdict(list)
    for t, value in zip(times, values):
        if start <= t < end:
            grouped[int((t - start) // width)].append(value)
    return [grouped[k] for k in sorted(grouped)]


def quickest_slice_p50(times, values, start: float, end: float,
                       width: float = SLICE_S) -> float:
    """The lowest median of the window's slices that hold at least
    :data:`SLICE_MIN_SAMPLES` values.

    The minimum rather than a low decile: a slow spell of the host can fill
    all but a few seconds of a run, and one quick second is enough.
    """
    medians = [percentile(group, 50)
               for group in slices(times, values, start, end, width)
               if len(group) >= SLICE_MIN_SAMPLES]
    if not medians:
        raise ValueError("no slice holds enough samples for a median")
    return min(medians)


def fastest_slice_rate(times, amounts, start: float, end: float,
                       width: float = SLICE_S) -> float:
    """The highest per-second rate of the window's full slices.

    ``amounts`` is the work each completion at ``times`` did.
    """
    count = int((end - start) // width)
    if count < 1:
        raise ValueError("the window is shorter than one slice")
    totals = [0.0] * count
    for t, amount in zip(times, amounts):
        if start <= t < start + count * width:
            totals[int((t - start) // width)] += amount
    return max(totals) / width


def best_of_repeats(keys, values) -> dict:
    """Each key's smallest value: the time of its quickest repeat."""
    if len(keys) != len(values):
        raise ValueError(f"{len(keys)} keys for {len(values)} values")
    best: dict = {}
    for key, value in zip(keys, values):
        if key not in best or value < best[key]:
            best[key] = value
    return best
