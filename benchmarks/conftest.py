"""Shared benchmark helpers.

Every benchmark regenerates one table or figure of the paper: it runs
the relevant code (real crypto for microbenchmarks, the calibrated
simulator for cluster-scale experiments), prints the same rows/series
the paper reports next to the paper's published values, and asserts the
*shape* claims (who wins, by what factor, where crossovers fall).
"""

import pytest


def print_table(title: str, headers, rows) -> None:
    """Render a comparison table into the captured bench output."""
    widths = [
        max(len(str(h)), *(len(str(r[i])) for r in rows)) for i, h in enumerate(headers)
    ]
    line = "  ".join(str(h).ljust(w) for h, w in zip(headers, widths))
    print(f"\n=== {title} ===")
    print(line)
    print("-" * len(line))
    for row in rows:
        print("  ".join(str(c).ljust(w) for c, w in zip(row, widths)))


def paired_median_ratio(run_a, run_b, pairs: int):
    """Time ``run_a`` against ``run_b`` as ``pairs`` back-to-back pairs,
    alternating which side goes first, so load drift on a shared
    machine hits both sides of a pair alike.

    Returns ``(median a seconds, median b seconds, median of the
    per-pair a/b ratios, IQR of those ratios)``.
    """
    import gc
    import statistics
    import time

    a_samples, b_samples, ratios = [], [], []
    for i in range(pairs):
        sample = {}
        for side in ((run_a, run_b) if i % 2 == 0 else (run_b, run_a)):
            gc.collect()  # no sample pays for the other side's garbage
            start = time.perf_counter()
            side()
            sample[side] = time.perf_counter() - start
        a_samples.append(sample[run_a])
        b_samples.append(sample[run_b])
        ratios.append(sample[run_a] / sample[run_b])
    q1, _, q3 = statistics.quantiles(ratios, n=4)
    return (
        statistics.median(a_samples),
        statistics.median(b_samples),
        statistics.median(ratios),
        q3 - q1,
    )
