#!/usr/bin/env python3
"""Audit a load sweep whose generator silently capped its thread pool.

The sweep configures up to 400 client threads, but reconstructing the
running-client count with Little's law (n_run = x * r) shows it pegging
near 120: everything past that measures the harness, not the system. The
same data also shows the flattened post-knee response slope that gets
mistaken for good scalability.
"""

from loadlaw import LoadPoint, LoadSeries, diagnose_series

SWEEP = [
    # (configured clients, throughput /s, response time s)
    (1, 24.0, 0.040),
    (5, 48.0, 0.102),
    (10, 99.0, 0.100),
    (120, 423.0, 0.276),
    (200, 428.0, 0.279),
    (300, 420.0, 0.285),
    (400, 423.0, 0.293),
]


def main():
    series = LoadSeries(points=tuple(LoadPoint(n=n, x=x, r=r) for n, x, r in SWEEP))
    report = diagnose_series(series)

    print(f"{'n_was':>7} {'x_was':>8} {'r_was':>8} {'n_run':>8} {'n_idle':>8}")
    for row in report.audit:
        print(f"{row.n_was:>7d} {row.x_was:>8.1f} {row.r_was:>8.3f} "
              f"{row.n_run:>8.2f} {row.n_idle:>8.2f}")
    print()
    for finding in report.findings:
        print(f"[{finding.severity}] {finding.detector}: {finding.message}")
    print(f"verdict: {report.verdict}")


if __name__ == "__main__":
    main()
