"""Command-line front end.

Subcommands: analyze (closed forms), solve (Markov-chain steady state),
simulate, sweep (config-driven experiments), compare (engine agreement),
plot (CSV -> SVG). Exit codes: 0 ok, 1 usage/validation/parse, 2 numerical, 3 IO.
"""
from __future__ import annotations

import argparse
import dataclasses
import os
import sys
from typing import List, Optional

from . import ctmc, experiment, svgplot
from .config import ValidationError, build_policy, parse_config, parse_threshold
from .model import POLICY_TYPES, ExactResult, Fcfs, stability_guard, validate_params
from .policy import policy_columns
from .simulator import SimConfig

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_NUMERICAL = 2
EXIT_IO = 3


class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors exit 1, as validation errors do;
    argparse's default exit code 2 is this program's numerical failure."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_VALIDATION, f"{self.prog}: error: {message}\n")


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
    # SimConfig's class attributes are its field defaults
    parser.add_argument("--horizon", type=float, default=SimConfig.horizon)
    parser.add_argument("--warmup", type=float, default=SimConfig.warmup)
    parser.add_argument("--reps", type=int, default=SimConfig.replications)
    parser.add_argument("--seed", type=int, default=None)


def _build_policy(args):
    return build_policy(args.policy, args.k, args.m, args.n)


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


def _sim_config(args) -> SimConfig:
    return SimConfig(args.horizon, args.warmup, args.reps,
                     _resolve_seed(args.seed, SimConfig.base_seed))


def _print_result(result: ExactResult) -> None:
    print(f"policy = {result.policy}")
    print(f"E[T_q] = {result.expected_response_time:.10g}")
    print(f"E[T_u] = {result.expected_update_system_time:.10g}")
    print(f"E[A] = {result.expected_paoi:.10g}")
    print(f"E[N_q] = {result.expected_nq:.10g}")
    print(f"E[N_u] = {result.expected_nu:.10g}")
    if result.truncation is not None:  # the chain's diagnostics
        print(f"truncated tail mass = {result.tail_mass:.3g}")
        print(f"balance residual = {result.residual:.3g}")
        c_q, c_u = result.truncation
        print(f"truncation = {c_q} x {c_u} ({result.n_states} boundary states)")
        print(f"rounds = {result.rounds}")


def _cmd_exact(args) -> int:
    """analyze (source "analytic", the closed forms) and solve (source
    "ctmc", the chain)."""
    params = _params(args)
    policy = _build_policy(args)
    result = experiment.exact_result(args.source, policy, params)
    _print_result(result)
    if args.out:
        experiment.emit_csv(experiment.result_rows(policy, params, args.source, result),
                            args.out)
        print(f"wrote {args.out}")
    return EXIT_OK


def _cmd_simulate(args) -> int:
    params = _params(args)
    policy = _build_policy(args)
    sim = _sim_config(args)
    stats = experiment.simulate_policies([(params, policy)], sim)[0]
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
        svgplot.emit_plot(rows, spec.sweep.rate, ("response_time", "paoi"), spec.svg_path)
        print(f"wrote {spec.svg_path}")
    return EXIT_OK


def _cmd_compare(args) -> int:
    params = _params(args)
    policy = _build_policy(args)
    sim = _sim_config(args)
    if sim.replications < 2:
        raise ValidationError(f"compare needs --reps >= 2, got {sim.replications}: "
                              "a confidence interval needs two replications")
    stability_guard(params)
    stats = experiment.simulate_policies([(params, policy)], sim)[0]
    results = {source: experiment.exact_result(source, policy, params)
               for source in experiment.applicable_sources(policy) if source != "sim"}
    print(f"{'metric':<16}{'sim mean':>12}{'ci':>10}", end="")
    for source in results:
        print(f"{source:>12}{'agree':>8}", end="")
    print()
    agree_all = True
    for metric in experiment.METRICS:
        st = stats[metric]
        if st.half_width is None:  # fewer than two replications gave the metric
            continue
        ci = st.half_width
        print(f"{metric:<16}{st.mean:>12.5g}{ci:>10.3g}", end="")
        for result in results.values():
            value = experiment.metric_values(result).get(metric)
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
    parser = _Parser(
        prog="freshsched",
        description="Response-time vs. freshness tradeoff for a two-queue single server")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="closed-form metrics (FCFS, Query-1, Update-1)")
    _add_rate_flags(p)
    _add_policy_flags(p, tuple(policy_columns(policy)[0] for policy in experiment.CLOSED_FORMS))
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_exact, source="analytic")

    p = sub.add_parser("solve", help="Markov-chain steady state for Query-k, Update-k "
                                     "and Joint-(m, n)")
    _add_rate_flags(p)
    _add_policy_flags(p, tuple(name for name, kind in POLICY_TYPES.items() if kind is not Fcfs))
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_exact, source="ctmc")

    p = sub.add_parser("simulate", help="run replications of one policy")
    _add_rate_flags(p)
    _add_policy_flags(p, tuple(POLICY_TYPES))
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
    _add_policy_flags(p, tuple(POLICY_TYPES))
    _add_sim_flags(p)
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
    except ctmc.NoConvergence as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return EXIT_IO
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
