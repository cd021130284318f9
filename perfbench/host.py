"""Host fingerprint stamped on every result."""

from __future__ import annotations

import os
import platform
import statistics
import sys
import time


def fingerprint(engine: str) -> dict:
    """Cores, interpreter, numpy, native-kernel availability and engine."""
    from repro.core import kernel

    try:
        import numpy

        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    return {
        "cores": os.cpu_count(),
        "machine": platform.machine(),
        "python": sys.version.split()[0],
        "numpy": numpy_version,
        "native_available": kernel.native_available(),
        "engine": engine,
    }


def loop_ms(repeats: int = 9) -> float:
    """Median time of a fixed pure-Python loop: the host's speed right now.

    Shared hosts drift; taken before and after the measured window, this
    tells a slow host from a slow program when comparing runs.
    """
    times = []
    for _ in range(repeats):
        started = time.perf_counter()
        total = 0
        for i in range(200_000):
            total += i * i % 7
        times.append(time.perf_counter() - started)
    return statistics.median(times) * 1e3
