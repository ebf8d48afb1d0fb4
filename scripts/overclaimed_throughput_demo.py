#!/usr/bin/env python3
"""Walk through the overclaimed-throughput diagnosis end to end.

A test rig reports 300 transactions/s with a declared 10 s think time,
while internal instrumentation puts the three processing stages at
3.5, 5.0 and 2.0 ms. Those two statements cannot both be true: the
bottleneck stage caps throughput at 1/0.005 = 200/s. This script derives
the bounds, diagnoses the claim, and prints the findings.
"""

from loadlaw import (
    LoadPoint,
    LoadSeries,
    ServiceProfile,
    bounds_summary,
    diagnose_series,
)


def main():
    profile = ServiceProfile.from_service_times(
        [0.0035, 0.005, 0.002], think_time=10.0, labels=["parse", "lookup", "commit"])

    summary = bounds_summary(profile)
    print("derived from the instrumented service times:")
    print(f"  throughput ceiling : {summary.x_max:g} TPS (bottleneck: {summary.bottleneck_label})")
    print(f"  response floor     : {summary.r_min:g} s")
    print(f"  optimal user load  : {summary.n_opt:.1f} VUsers")
    print()

    claimed = LoadSeries(
        points=(LoadPoint(n=3000, x=300.0, r=0.05),),
        configured_think_time=10.0,
    )
    report = diagnose_series(claimed, profile)
    print(f"diagnosing the claimed {claimed.points[0].x:g} TPS:")
    for finding in report.findings:
        print(f"  [{finding.severity}] {finding.detector}: {finding.message}")
    print(f"verdict: {report.verdict}")


if __name__ == "__main__":
    main()
