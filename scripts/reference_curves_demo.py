#!/usr/bin/env python3
"""Generate the lawful reference curves and bounding lines for a profile.

Writes two CSVs an external plotter can overlay: the exact steady-state
X(N)/R(N) curves with per-stage queue lengths, and the two bounding
lines whose intersection marks the optimal load.
"""

import argparse
import math

from loadlaw import ServiceProfile, bounds_summary, solve_reference


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out-prefix", default="reference",
                        help="prefix for <prefix>_curves.csv and <prefix>_bounds.csv")
    parser.add_argument("--span", type=float, default=3.0,
                        help="solve out to span * n_opt users (default 3)")
    args = parser.parse_args()

    profile = ServiceProfile.from_service_times(
        [0.0035, 0.005, 0.002], think_time=10.0, labels=["parse", "lookup", "commit"])
    summary = bounds_summary(profile)
    n_max = max(2, math.ceil(args.span * summary.n_opt))

    curves = solve_reference(profile, n_max)
    curves_path = f"{args.out_prefix}_curves.csv"
    curves.write_csv(curves_path)

    ns = curves.n
    bounds_path = f"{args.out_prefix}_bounds.csv"
    with open(bounds_path, "w") as fh:
        fh.write("n,x_upper_bound,r_lower_bound\n")
        for n, xb, rb in zip(ns.tolist(), summary.x_upper(ns).tolist(), summary.r_lower(ns).tolist()):
            fh.write(f"{n},{xb!r},{rb!r}\n")

    print(f"profile: x_max {summary.x_max:g} TPS, r_min {summary.r_min:g} s, "
          f"n_opt {summary.n_opt:.1f} VUsers (bottleneck: {summary.bottleneck_label})")
    print(f"wrote {curves_path} ({n_max} rows) and {bounds_path}")


if __name__ == "__main__":
    main()
