"""The workloads: their inputs, one pass of work, and output checks.

A pass is a fixed list of engine calls issued one after another by a single
client (a closed loop). Checks run after the timed passes and use the
tolerances the acceptance suite applies to the same quantities.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
from collections import defaultdict
from pathlib import Path

SIM_REL_TOL = 0.05         # criteria 1 and 2: simulation vs closed form
SIM_CHECK_MAX_RHO = 0.9    # highest load at which the acceptance suite checks simulation
LITTLE_TOL = 0.03          # criterion 9: Little's law on pooled means
CHAIN_REF_TOL = 1e-4       # criterion 4: chain vs closed form at k = 1

ROOT = Path(__file__).resolve().parent.parent
SWEEP_CONFIG = ROOT / "scripts" / "configs" / "update_load_sweep.cfg"
# The shipped sweep has 17 points (595 rows, 527 ok, 68 n/a), about 95 s.
# A pass keeps three of them, so lambda_u = 0.85 and its two large chains
# stay in, and every point keeps all 10 replications. The replications of
# the other two points dilute the two long sparse solves, whose time the
# reference samples track least well.
SWEEP_CUT = {"start": "0.45", "stop": "0.85", "step": "0.2"}
SWEEP_SMOKE_CUT = {"start": "0.05", "stop": "0.45", "step": "0.4"}
# Per sweep point with the shipped FCFS, Query-1 and Query-3 sections:
# FCFS analytic+sim, Query-1 analytic+ctmc+sim, Query-3 ctmc+sim, 5 metrics each;
# aoi has no analytic or chain value, so 4 of those rows are n/a.
ROWS_PER_POINT, OK_PER_POINT, NA_PER_POINT = 35, 31, 4


def family(policy) -> str:
    return {"Fcfs": "fcfs", "QueryK": "query_k", "UpdateK": "update_k",
            "JointMN": "joint_mn"}[type(policy).__name__]


def rel_err(value, reference) -> float:
    return abs(value - reference) / abs(reference)


class Checks:
    """Named pass/fail results; each failure counts towards fail_frac."""

    def __init__(self):
        self.results = []

    def add(self, name, ok, detail=""):
        self.results.append((name, bool(ok), detail))

    @property
    def failed(self):
        return [r for r in self.results if not r[1]]


def _patch_chain(rec, analytic, ctmc):
    for name in ("fcfs_metrics", "query1_metrics", "update1_metrics",
                 "query_k_metrics", "update_k_metrics"):
        rec.patch(analytic, name, f"analytic.{name}", item=True)
    # A reference sample after each build and solve brackets the long sparse
    # solves of the large chains closely.
    rec.patch(ctmc, "build_ctmc", "ctmc.build_ctmc", sample=True,
              info=lambda args, r: {"states": len(r.states),
                                    "transitions": len(r.transitions)})
    rec.patch(ctmc, "solve_stationary", "ctmc.solve_stationary", sample=True,
              info=lambda args, r: {"states": len(r.probabilities)})


def _check_chain_result(checks, label, result, ctmc):
    checks.add(f"{label} residual", result.residual <= ctmc.RESIDUAL_TOLERANCE,
               f"{result.residual:.3g}")
    checks.add(f"{label} tail mass", result.tail_mass < ctmc.TAIL_TOLERANCE,
               f"{result.tail_mass:.3g}")
    # The gap is the difference between the two estimates of the moment the
    # conservation law derives (E[N_u] under Query-k, E[N_q] under Update-k),
    # so it is held to the chain's relative accuracy of criterion 4. It grows
    # with the truncation: 2.2e-5 on E[N_u] = 19 at rho = 0.95.
    derived = result.expected_nu if result.policy == "query-k" else result.expected_nq
    gap = result.conservation_gap / derived
    checks.add(f"{label} conservation gap", gap < CHAIN_REF_TOL, f"{gap:.3g} relative")


def _check_k1(checks, label, chain, exact):
    errors = [rel_err(chain.expected_response_time, exact.expected_response_time),
              rel_err(chain.expected_paoi, exact.expected_paoi)]
    checks.add(f"{label} chain vs closed form", max(errors) < CHAIN_REF_TOL,
               f"{max(errors):.3g}")
    return max(errors)


def _check_littles_law(checks, label, runs, params, simulator, model):
    stats = simulator.aggregate(runs)
    pooled = model.ReplicationMetrics(
        mean_response_time=stats["response_time"].mean, mean_paoi=stats["paoi"].mean,
        mean_aoi=stats["aoi"].mean, mean_nq=stats["nq"].mean, mean_nu=stats["nu"].mean,
        mean_update_system_time=stats["update_system_time"].mean,
        completed_queries=0, completed_updates=0, horizon=runs[0].horizon)
    res = max(simulator.littles_law_residual(pooled, params))
    checks.add(f"{label} Little's law", res < LITTLE_TOL, f"{res:.3g}")


def _pass_results(rec, name):
    """(args, result) of the item calls named ``name`` made inside passes."""
    return [(args, result) for n, p, _t0, _t1, args, result in rec.items
            if n == name and p is not None and result is not None]


class ChainHighLoad:
    """24 small chains and 3 high-load ones, plus the k = 1 closed forms they are checked against.

    The high-load chains sit at rho = 0.85: Query-1 at (0.55, 0.3), Query-3 at
    (0.75, 0.1) and Update-3 at (0.1, 0.75). Each is solved in two truncation
    rounds (64, then 128: 17k states, about 1 s, about 200 MB), so the first
    round is wasted work and the sparse solve dominates. At rho >= 0.9 a chain
    needs three rounds and 103k states (about 12 s and 1 GB); one such chain
    would take half a pass, and a run could then hold only one or two passes.
    The 103k-state chains are solved by every pass of sweep_update_load.
    """

    def __init__(self, rec, seed, smoke, out_dir):
        from freshsched import analytic, ctmc
        from freshsched.model import validate_params
        self.rec, self.analytic, self.ctmc = rec, analytic, ctmc
        _patch_chain(rec, analytic, ctmc)
        light = validate_params(1 / 3, 1.0, 1 / 3, 1.0)
        ks = range(1, 3) if smoke else range(1, 13)
        # (function name, params, k); closed forms take no k
        self.calls = ([("query1_metrics", light, None), ("update1_metrics", light, None)]
                      + [("query_k_metrics", light, k) for k in ks]
                      + [("update_k_metrics", light, k) for k in ks])
        if not smoke:
            # The small items set item.p50_ms and item.tail_ms. Splitting them
            # into groups around the high-load chains times them at the start,
            # middle and end of the pass, not only in its first seconds, so a
            # slow spell of the machine moves them less.
            heavy_q1 = validate_params(0.55, 1.0, 0.3, 1.0)
            quarter = len(self.calls) // 4
            self.calls[3 * quarter:3 * quarter] = [
                ("update_k_metrics", validate_params(0.1, 1.0, 0.75, 1.0), 3)]
            self.calls[2 * quarter:2 * quarter] = [
                ("query_k_metrics", validate_params(0.75, 1.0, 0.1, 1.0), 3)]
            self.calls[quarter:quarter] = [("query1_metrics", heavy_q1, None),
                                           ("query_k_metrics", heavy_q1, 1)]

    def run_pass(self, index):
        for name, params, k in self.calls:
            fn = getattr(self.analytic, name)
            yield (lambda fn=fn, params=params: fn(params)) if k is None else (
                lambda fn=fn, params=params, k=k: fn(params, k))

    def check(self, checks):
        closed = {}
        for name in ("query1_metrics", "update1_metrics"):
            for args, result in _pass_results(self.rec, f"analytic.{name}"):
                closed[(name[0], args[0])] = result
        worst = 0.0
        for name in ("query_k_metrics", "update_k_metrics"):
            for args, result in _pass_results(self.rec, f"analytic.{name}"):
                params, k = args[0], args[1]
                label = f"{name[0]}{k} at ({params.lambda_u:g}, {params.lambda_q:g})"
                _check_chain_result(checks, label, result, self.ctmc)
                if k == 1:
                    worst = max(worst, _check_k1(checks, label, result,
                                                 closed[(name[0], params)]))
        return {"analytic.ref_max_rel_err": worst}


def derive_sweep_config(text: str, overrides: dict) -> str:
    """Return the config ``text`` with ``{section: {key: value}}`` replaced.

    Every overridden key must already be in the text, so a change to the
    shipped config's layout stops the benchmark instead of measuring
    something else.
    """
    pending = {section: dict(keys) for section, keys in overrides.items()}
    section, out = None, []
    for line in text.splitlines():
        body = line.split("#", 1)[0].strip()
        if body.startswith("[") and body.endswith("]"):
            section = body[1:-1].strip()
        elif "=" in body and section in pending:
            key = body.split("=", 1)[0].strip()
            if key in pending[section]:
                line = f"{key} = {pending[section].pop(key)}"
        out.append(line)
    missing = {s: sorted(keys) for s, keys in pending.items() if keys}
    if missing:
        raise ValueError(f"shipped sweep config lacks {missing}")
    return "\n".join(out) + "\n"


class SweepUpdateLoad:
    """``freshsched sweep`` on the shipped update-load config, cut to two points."""

    def __init__(self, rec, seed, smoke, out_dir):
        from freshsched import analytic, cli, ctmc, experiment, svgplot
        self.rec, self.cli, self.ctmc, self.seed = rec, cli, ctmc, seed
        _patch_chain(rec, analytic, ctmc)
        rec.patch(experiment, "run_replication", "simulator.run_replication", item=True)
        rec.patch(experiment, "aggregate", "simulator.aggregate")
        rec.patch(cli, "parse_config", "config.parse_config")
        rec.patch(experiment, "run_experiment", "experiment.run_experiment",
                  info=lambda args, rows: {"rows": len(rows)})
        rec.patch(experiment, "emit_csv", "experiment.emit_csv")
        rec.patch(svgplot, "emit_plot", "svgplot.emit_plot")
        self.csv = out_dir / "update_load_sweep.csv"
        self.svg = out_dir / "update_load_sweep.svg"
        overrides = {"sweep": SWEEP_SMOKE_CUT if smoke else SWEEP_CUT,
                     "output": {"csv": str(self.csv), "svg": str(self.svg)}}
        if smoke:
            overrides["sim"] = {"horizon": "500"}
        self.config = out_dir / "update_load_sweep.cfg"
        self.config.write_text(derive_sweep_config(SWEEP_CONFIG.read_text(), overrides))
        self.codes = []

    def run_pass(self, index):
        def sweep():
            with self.rec.span("cli.main"), contextlib.redirect_stdout(io.StringIO()):
                code = self.cli.main(["sweep", "--config", str(self.config),
                                      "--seed", str(self.seed)])
            self.codes.append(code)
            return code
        yield sweep

    def check(self, checks):
        from freshsched import config, experiment, model, simulator
        checks.add("sweep exit codes", self.codes and set(self.codes) == {0}, f"{self.codes}")
        points = len(config.parse_config(str(self.config)).sweep.points())
        rows = experiment.read_csv(str(self.csv))
        status = [r.status for r in rows]
        for what, got, want in (("rows", len(rows), ROWS_PER_POINT * points),
                                ("ok rows", status.count("ok"), OK_PER_POINT * points),
                                ("n/a rows", status.count("n/a"), NA_PER_POINT * points)):
            checks.add(f"CSV {what}", got == want, f"{got} (want {want})")
        checks.add("SVG written", self.svg.is_file() and self.svg.stat().st_size > 0)

        closed = {args[0]: result
                  for args, result in _pass_results(self.rec, "analytic.query1_metrics")}
        worst = 0.0
        for name in ("query_k_metrics", "update_k_metrics"):
            for args, result in _pass_results(self.rec, f"analytic.{name}"):
                params, k = args[0], args[1]
                label = f"{name[0]}{k} at lambda_u = {params.lambda_u:g}"
                _check_chain_result(checks, label, result, self.ctmc)
                if k == 1 and name == "query_k_metrics":
                    worst = max(worst, _check_k1(checks, label, result, closed[params]))

        # simulation against the closed forms and Little's law, at the loads
        # the acceptance suite checks simulation at
        by_key = {(r.policy, r.k, r.lambda_u, r.metric, r.source): r.mean for r in rows}
        runs = defaultdict(list)
        for args, result in _pass_results(self.rec, "simulator.run_replication"):
            runs[(args[0], args[1])].append(result)
        for (params, policy), reps in runs.items():
            if params.rho > SIM_CHECK_MAX_RHO:
                continue
            label = f"{policy!r} at lambda_u = {params.lambda_u:g}"
            _check_littles_law(checks, label, reps, params, simulator, model)
            name, _m, _n, k = experiment.policy_columns(policy)
            for metric in ("response_time", "paoi"):
                exact = by_key.get((name, k, params.lambda_u, metric, "analytic"))
                if exact is None:
                    continue
                sim = by_key[(name, k, params.lambda_u, metric, "sim")]
                checks.add(f"{label} {metric} vs closed form",
                           rel_err(sim, exact) < SIM_REL_TOL, f"{rel_err(sim, exact):.3g}")
        digest = hashlib.sha256(self.csv.read_bytes()).hexdigest()
        return {"analytic.ref_max_rel_err": worst, "csv_sha256": digest}


WORKLOADS = {
    "chain_high_load": ChainHighLoad,
    "sweep_update_load": SweepUpdateLoad,
}
