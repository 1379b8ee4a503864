#!/usr/bin/env python3
"""Sweep the switching threshold k for both single-threshold policies.

Config-file sweeps cover arrival/service rates only, so this script drives the
k axis directly: for k = 1..12 it runs every engine (closed form at k = 1, the
truncated chain and the simulator) at the symmetric operating point
lambda_u = lambda_q = 1/3, mu = 1, then writes one CSV and one chart
(response time rising, peak age falling, both saturating for large k).
"""
import argparse

from freshsched.config import ExperimentSpec, PolicyRun
from freshsched.experiment import emit_csv, run_experiment
from freshsched.model import QueryK, UpdateK
from freshsched.simulator import SimConfig
from freshsched.svgplot import emit_plot


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--max-k", type=int, default=12)
    parser.add_argument("--horizon", type=float, default=20000.0)
    parser.add_argument("--reps", type=int, default=10)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--csv", default="threshold_tradeoff.csv")
    parser.add_argument("--svg", default="threshold_tradeoff.svg")
    args = parser.parse_args()

    policies = []
    for k in range(1, args.max_k + 1):
        policies += [PolicyRun(f"query{k}", QueryK(k)), PolicyRun(f"update{k}", UpdateK(k))]
    spec = ExperimentSpec(1 / 3, 1 / 3, 1.0, 1.0, tuple(policies),
                          SimConfig(args.horizon, 0.0, args.reps, args.seed))
    rows = run_experiment(spec)
    emit_csv(rows, args.csv)
    emit_plot(rows, "k", ("response_time", "paoi"), args.svg)
    print(f"wrote {args.csv} and {args.svg}")


if __name__ == "__main__":
    main()
