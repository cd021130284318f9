import pytest

from stats import (
    SLICE_MIN_SAMPLES,
    best_of_repeats,
    due_latencies,
    fastest_slice_rate,
    lateness,
    percentile,
    quickest_slice_p50,
    samples_needed,
    slices,
    supports,
)


@pytest.mark.parametrize(
    "q, needed", [(50, 20), (60, 25), (75, 40), (90, 100), (95, 200), (99, 1000)]
)
def test_samples_needed_leaves_ten_beyond(q, needed):
    assert samples_needed(q) == needed
    assert supports(needed, q)
    assert not supports(needed - 1, q)


def test_samples_needed_rejects_the_ends():
    for q in (0, 100):
        with pytest.raises(ValueError):
            samples_needed(q)


def test_percentile_interpolates():
    values = [4.0, 1.0, 3.0, 2.0]
    assert percentile(values, 50) == 2.5
    assert percentile(values, 0) == 1.0
    assert percentile(values, 100) == 4.0
    assert percentile(list(range(101)), 95) == 95.0


def test_due_latency_charges_the_wait_before_sending():
    due = [0.0, 0.1, 0.2]
    sent = [0.0, 0.35, 0.36]  # a stall held the second and third sends
    done = [0.01, 0.37, 0.38]
    assert due_latencies(due, done) == pytest.approx([0.01, 0.27, 0.18])
    assert lateness(due, sent) == pytest.approx(0.25)


def test_due_latency_needs_matching_records():
    with pytest.raises(ValueError):
        due_latencies([0.0], [])
    with pytest.raises(ValueError):
        lateness([0.0, 1.0], [0.0])
    assert lateness([], []) == 0.0



def test_slices_group_by_window_slice():
    times = [-0.5, 0.0, 0.4, 1.0, 2.9, 3.0]
    values = [9, 1, 2, 3, 4, 9]
    assert slices(times, values, 0.0, 3.0) == [[1, 2], [3], [4]]
    with pytest.raises(ValueError):
        slices([0.0], [], 0.0, 1.0)


def test_quickest_slice_p50_follows_the_quick_slice():
    # Ten 1 s slices: nine on a slow host (median 5), one quick (median 3).
    times, values = [], []
    for second in range(10):
        level = 3.0 if second == 7 else 5.0
        for k in range(SLICE_MIN_SAMPLES):
            times.append(second + k / (2 * SLICE_MIN_SAMPLES))
            values.append(level + (k % 5 - 2) * 0.1)
    assert percentile(values, 50) == pytest.approx(5.0)
    assert quickest_slice_p50(times, values, 0.0, 10.0) == pytest.approx(3.0)
    # A slice too sparse for a median of its own is left out.
    assert quickest_slice_p50(times + [10.5], values + [0.0], 0.0, 11.0) == pytest.approx(3.0)
    with pytest.raises(ValueError):
        quickest_slice_p50([0.1], [1.0], 0.0, 1.0)


def test_fastest_slice_rate_counts_full_slices_only():
    # Completions of 256 headers: 4 in the first second, 1 in the second,
    # none in the next eight.
    times = [0.1, 0.2, 0.3, 0.4, 1.5]
    assert fastest_slice_rate(times, [256] * 5, 0.0, 10.0) == 1024.0
    # Completions after the last full slice are not counted.
    late = [10.1, 10.2, 10.3, 10.4, 10.5]
    assert fastest_slice_rate(times + late, [256] * 10, 0.0, 10.9) == 1024.0
    with pytest.raises(ValueError):
        fastest_slice_rate(times, [256] * 5, 0.0, 0.5)


def test_best_of_repeats_keeps_each_keys_quickest():
    keys = [0, 1, 2, 0, 1, 2, 0]
    values = [5.0, 7.0, 1.0, 4.0, 9.0, 2.0, 6.0]
    assert best_of_repeats(keys, values) == {0: 4.0, 1: 7.0, 2: 1.0}
    with pytest.raises(ValueError):
        best_of_repeats([0], [])
