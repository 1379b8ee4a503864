#!/usr/bin/env python3
"""Solve and simulate the two-threshold policy over an (m, n) grid.

At the symmetric operating point lambda_u = lambda_q = 1/3, mu = 1, runs the
joint policy for every pair of thresholds in the grid on the truncated chain
and the simulator, and writes a CSV plus a chart. Expected picture: raising
the update threshold m trades peak age for query response time; raising the
query threshold n trades the other way.
"""
import argparse

from freshsched.config import ExperimentSpec, PolicyRun
from freshsched.experiment import emit_csv, run_experiment
from freshsched.model import JointMN
from freshsched.simulator import SimConfig
from freshsched.svgplot import emit_plot


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--thresholds", type=int, nargs="+", default=[1, 3, 5])
    parser.add_argument("--horizon", type=float, default=20000.0)
    parser.add_argument("--reps", type=int, default=10)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--csv", default="joint_grid.csv")
    parser.add_argument("--svg", default="joint_grid.svg")
    args = parser.parse_args()

    policies = tuple(PolicyRun(f"joint{m}_{n}", JointMN(m, n))
                     for m in args.thresholds for n in args.thresholds)
    spec = ExperimentSpec(1 / 3, 1 / 3, 1.0, 1.0, policies,
                          SimConfig(args.horizon, 0.0, args.reps, args.seed))
    rows = run_experiment(spec)
    emit_csv(rows, args.csv)
    emit_plot(rows, "m", ("response_time", "paoi"), args.svg)
    print(f"wrote {args.csv} and {args.svg}")


if __name__ == "__main__":
    main()
