"""Command-line front end.

Subcommands: analyze (closed forms), solve (truncated-chain steady state),
simulate, sweep (config-driven experiments), compare (engine agreement),
plot (CSV -> SVG). Exit codes: 0 ok, 1 validation/parse, 2 numerical, 3 IO.
"""
from __future__ import annotations

import argparse
import dataclasses
import os
import sys
from typing import List, Optional

from . import analytic, ctmc, experiment, svgplot
from .config import ParseError, ValidationError, parse_config, parse_threshold
from .model import (
    Fcfs,
    JointMN,
    NonFiniteRate,
    NonPositiveRate,
    QueryK,
    UpdateK,
    Unstable,
    validate_params,
)
from .simulator import SimConfig

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_NUMERICAL = 2
EXIT_IO = 3


def _add_rate_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--lambda-u", type=float, required=True, dest="lambda_u")
    parser.add_argument("--lambda-q", type=float, required=True, dest="lambda_q")
    parser.add_argument("--mu-u", type=float, default=1.0, dest="mu_u")
    parser.add_argument("--mu-q", type=float, default=1.0, dest="mu_q")


def _add_policy_flags(parser: argparse.ArgumentParser, choices) -> None:
    parser.add_argument("--policy", required=True, choices=choices)
    parser.add_argument("--k", type=parse_threshold, default=None)
    parser.add_argument("--m", type=parse_threshold, default=None)
    parser.add_argument("--n", type=parse_threshold, default=None)


def _add_sim_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--horizon", type=float, default=20000.0)
    parser.add_argument("--warmup", type=float, default=0.0)
    parser.add_argument("--reps", type=int, default=10)
    parser.add_argument("--seed", type=int, default=None)


def _build_policy(args):
    if args.policy == "fcfs":
        return Fcfs()
    if args.policy in ("query-1", "update-1"):
        cls = QueryK if args.policy == "query-1" else UpdateK
        return cls(1)
    if args.policy == "query-k":
        if args.k is None:
            raise ValidationError("--policy query-k needs --k")
        return QueryK(args.k)
    if args.policy == "update-k":
        if args.k is None:
            raise ValidationError("--policy update-k needs --k")
        return UpdateK(args.k)
    if args.m is None or args.n is None:
        raise ValidationError("--policy joint-mn needs --m and --n")
    return JointMN(args.m, args.n)


def _resolve_seed(flag_seed: Optional[int], fallback: int) -> int:
    # precedence: flag > FRESHSCHED_SEED env > config/default
    if flag_seed is not None:
        return flag_seed
    env = os.environ.get("FRESHSCHED_SEED")
    if env is not None:
        try:
            return int(env)
        except ValueError:
            raise ValidationError(f"FRESHSCHED_SEED={env!r} is not an integer") from None
    return fallback


def _params(args):
    return validate_params(args.lambda_u, args.mu_u, args.lambda_q, args.mu_q)


def _print_result(result: analytic.ClosedFormResult) -> None:
    print(f"policy = {result.policy}")
    print(f"E[T_q] = {result.expected_response_time:.10g}")
    print(f"E[T_u] = {result.expected_update_system_time:.10g}")
    print(f"E[A] = {result.expected_paoi:.10g}")
    if result.expected_nq is not None:
        print(f"E[N_q] = {result.expected_nq:.10g}")
        print(f"E[N_u] = {result.expected_nu:.10g}")
    if result.tail_mass is not None:
        print(f"truncated tail mass = {result.tail_mass:.3g}")
        print(f"balance residual = {result.residual:.3g}")
    if result.truncation is not None:
        c_q, c_u = result.truncation
        print(f"truncation = {c_q} x {c_u} ({result.n_states} states)")


def _cmd_analyze(args) -> int:
    params = _params(args)
    policy = _build_policy(args)
    result = experiment.closed_form_for(policy, params)
    _print_result(result)
    if args.out:
        experiment.emit_csv(experiment.result_rows(policy, params, "analytic", result),
                            args.out)
        print(f"wrote {args.out}")
    return EXIT_OK


def _cmd_solve(args) -> int:
    params = _params(args)
    policy = _build_policy(args)
    result = experiment.ctmc_for(policy, params, args.trunc)
    _print_result(result)
    if args.out:
        experiment.emit_csv(experiment.result_rows(policy, params, "ctmc", result), args.out)
        print(f"wrote {args.out}")
    return EXIT_OK


def _cmd_simulate(args) -> int:
    params = _params(args)
    policy = _build_policy(args)
    sim = SimConfig(args.horizon, args.warmup, args.reps, _resolve_seed(args.seed, 12345))
    stats = experiment.simulation_stats(policy, params, sim)
    if params.rho >= 1:
        print(f"warning: rho = {params.rho:.4g} >= 1, metrics are transient", file=sys.stderr)
    for metric in experiment.METRICS:
        st = stats[metric]
        if st.n == 0:
            print(f"{metric}: n/a")
        elif st.half_width is None:
            print(f"{metric}: {st.mean:.6g} (n=1)")
        else:
            print(f"{metric}: {st.mean:.6g} +/- {st.half_width:.3g} (95% CI, n={st.n})")
    if args.out:
        experiment.emit_csv(experiment.result_rows(policy, params, "sim", stats=stats, sim=sim),
                            args.out)
        print(f"wrote {args.out}")
    return EXIT_OK


def _cmd_sweep(args) -> int:
    spec = parse_config(args.config)
    seed = _resolve_seed(args.seed, spec.sim.base_seed)
    if seed != spec.sim.base_seed:
        spec = dataclasses.replace(spec, sim=dataclasses.replace(spec.sim, base_seed=seed))
    rows = experiment.run_experiment(spec)
    csv_path = args.out or spec.csv_path
    if csv_path is None:
        raise ValidationError("no CSV path: pass --out or set [output] csv")
    experiment.emit_csv(rows, csv_path)
    print(f"wrote {len(rows)} rows to {csv_path}")
    if spec.svg_path:
        x_axis = spec.sweep.rate if spec.sweep else "k"
        svgplot.emit_plot(rows, x_axis, ("response_time", "paoi"), spec.svg_path)
        print(f"wrote {spec.svg_path}")
    return EXIT_OK


def _cmd_compare(args) -> int:
    params = _params(args)
    policy = _build_policy(args)
    sim = SimConfig(args.horizon, args.warmup, args.reps, _resolve_seed(args.seed, 12345))
    stats = experiment.simulation_stats(policy, params, sim)
    engines = experiment.applicable_engines(policy)
    results = {}
    if "closed_form" in engines:
        results["analytic"] = experiment.closed_form_for(policy, params)
    if "ctmc" in engines:
        results["ctmc"] = experiment.ctmc_for(policy, params, args.trunc)
    print(f"{'metric':<16}{'sim mean':>12}{'ci':>10}", end="")
    for source in results:
        print(f"{source:>12}{'agree':>8}", end="")
    print()
    agree_all = True
    for metric in experiment.METRICS:
        st = stats[metric]
        if st.mean is None:
            continue
        ci = st.half_width or 0.0
        print(f"{metric:<16}{st.mean:>12.5g}{ci:>10.3g}", end="")
        for result in results.values():
            value = experiment._result_metric_values(result).get(metric)
            if value is None:
                print(f"{'n/a':>12}{'-':>8}", end="")
                continue
            ok = abs(st.mean - value) <= 2 * ci
            agree_all = agree_all and ok
            print(f"{value:>12.5g}{'yes' if ok else 'NO':>8}", end="")
        print()
    print("agreement within 2 CI half-widths:", "yes" if agree_all else "no")
    return EXIT_OK


def _cmd_plot(args) -> int:
    rows = experiment.read_csv(args.csv)
    metrics = tuple(m.strip() for m in args.metrics.split(",") if m.strip())
    for metric in metrics:
        if metric not in experiment.METRICS:
            raise ValidationError(f"unknown metric {metric!r}")
    svgplot.emit_plot(rows, args.x_axis, metrics, args.out)
    print(f"wrote {args.out}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="freshsched",
        description="Response-time vs. freshness tradeoff for a two-queue single server")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="closed-form metrics (FCFS, Query-1, Update-1)")
    _add_rate_flags(p)
    _add_policy_flags(p, ("fcfs", "query-1", "update-1", "query-k", "update-k"))
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("solve", help="truncated-chain steady state for Query-k, Update-k "
                                     "and Joint-(m, n)")
    _add_rate_flags(p)
    _add_policy_flags(p, ("query-k", "update-k", "joint-mn"))
    p.add_argument("--trunc", type=int, default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("simulate", help="run replications of one policy")
    _add_rate_flags(p)
    _add_policy_flags(p, ("fcfs", "query-k", "update-k", "joint-mn"))
    _add_sim_flags(p)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("sweep", help="config-driven parameter sweep to CSV/SVG")
    p.add_argument("--config", required=True)
    p.add_argument("--out", default=None)
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("compare", help="engine agreement at one operating point")
    _add_rate_flags(p)
    _add_policy_flags(p, ("fcfs", "query-k", "update-k", "joint-mn"))
    _add_sim_flags(p)
    p.add_argument("--trunc", type=int, default=None)
    p.set_defaults(func=_cmd_compare)

    p = sub.add_parser("plot", help="CSV -> static SVG line chart")
    p.add_argument("--csv", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--x-axis", default="lambda_u", dest="x_axis")
    p.add_argument("--metrics", default="response_time,paoi")
    p.set_defaults(func=_cmd_plot)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ctmc.NoConvergence, ctmc.TruncationTooSmall) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return EXIT_IO
    except (ParseError, ValidationError, NonPositiveRate, NonFiniteRate,
            Unstable, svgplot.NoData, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
