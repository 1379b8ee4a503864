"""Experiment driver: engine dispatch over sweep points and CSV output.

Every requested (point, policy, engine, metric) combination produces exactly
one row; failures and inapplicable engines become status markers instead of
dropped rows, so the row count of a sweep is always predictable.
"""
from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from . import analytic, ctmc
from .config import ExperimentSpec
from .model import Fcfs, JointMN, ModelParams, QueryK, Unbounded, UpdateK, validate_params
from .simulator import SimConfig, SummaryStats, aggregate, run_replication

METRICS = ("response_time", "paoi", "aoi", "nq", "nu")
SOURCES = ("analytic", "ctmc", "sim")

CSV_HEADER = ("policy,m,n,k,lambda_u,lambda_q,mu_u,mu_q,metric,source,"
              "mean,ci_half_width,replications,horizon,seed,status")


@dataclass(frozen=True)
class ResultRow:
    policy: str
    m: "int | str | None"
    n: "int | str | None"
    k: "int | str | None"
    lambda_u: float
    lambda_q: float
    mu_u: float
    mu_q: float
    metric: str
    source: str
    mean: Optional[float]
    ci_half_width: Optional[float]
    replications: Optional[int]
    horizon: Optional[float]
    seed: Optional[int]
    status: str


def policy_columns(spec) -> tuple:
    """(name, m, n, k) columns for the CSV; unbounded thresholds render as 'inf'."""

    def cell(value):
        return "inf" if isinstance(value, Unbounded) else value

    if isinstance(spec, Fcfs):
        return "fcfs", None, None, None
    if isinstance(spec, QueryK):
        return "query-k", None, None, cell(spec.k)
    if isinstance(spec, UpdateK):
        return "update-k", None, None, cell(spec.k)
    return "joint-mn", cell(spec.m), cell(spec.n), None


def applicable_engines(spec) -> List[str]:
    engines = []
    if isinstance(spec, Fcfs) or (isinstance(spec, (QueryK, UpdateK)) and spec.k == 1):
        engines.append("closed_form")
    if not isinstance(spec, Fcfs):
        engines.append("ctmc")
    engines.append("simulation")
    return engines


def closed_form_for(spec, params: ModelParams) -> analytic.ClosedFormResult:
    if isinstance(spec, Fcfs):
        return analytic.fcfs_metrics(params)
    if isinstance(spec, QueryK) and spec.k == 1:
        return analytic.query1_metrics(params)
    if isinstance(spec, UpdateK) and spec.k == 1:
        return analytic.update1_metrics(params)
    raise ValueError(f"no closed form for {spec!r}")


def ctmc_for(spec, params: ModelParams,
             truncation: "int | None" = None) -> analytic.ClosedFormResult:
    if isinstance(spec, QueryK):
        return analytic.query_k_metrics(params, spec.k, truncation)
    if isinstance(spec, UpdateK):
        return analytic.update_k_metrics(params, spec.k, truncation)
    if isinstance(spec, JointMN):
        return analytic.joint_mn_metrics(params, spec.m, spec.n, truncation)
    raise ValueError(f"no chain solver for {spec!r}")


def _result_metric_values(result: analytic.ClosedFormResult) -> Dict[str, Optional[float]]:
    return {
        "response_time": result.expected_response_time,
        "paoi": result.expected_paoi,
        "aoi": None,  # no closed form for the time-average age
        "nq": result.expected_nq,
        "nu": result.expected_nu,
    }


def result_rows(policy, params: ModelParams, source: str,
                result: "analytic.ClosedFormResult | None" = None,
                stats: "Dict[str, SummaryStats] | None" = None,
                sim: "SimConfig | None" = None,
                error: "str | None" = None) -> List[ResultRow]:
    """The row of every metric for one policy at one point from one source.

    A simulation source passes its ``stats`` and ``sim``; an analysis source
    its ``result``, or an ``error`` status, or neither at an unstable point.
    """
    name, m, n, k = policy_columns(policy)
    stable = params.rho < 1.0
    values = _result_metric_values(result) if result is not None else {}
    rows = []
    for metric in METRICS:
        ci = reps = horizon = seed = None
        if stats is not None:
            st = stats[metric]
            mean, ci = st.mean, st.half_width
            reps, horizon, seed = sim.replications, sim.horizon, sim.base_seed
            status = "n/a" if st.n == 0 else ("ok" if stable else "unstable")
        elif error is not None:
            mean, status = None, error
        elif not stable:
            mean, status = None, "unstable"
        else:
            mean = values.get(metric)
            status = "ok" if mean is not None else "n/a"
        rows.append(ResultRow(name, m, n, k, params.lambda_u, params.lambda_q,
                              params.mu_u, params.mu_q, metric, source,
                              mean, ci, reps, horizon, seed, status))
    return rows


def simulation_stats(policy, params: ModelParams,
                     sim: SimConfig) -> Dict[str, SummaryStats]:
    runs = [run_replication(params, policy, sim, rep) for rep in range(sim.replications)]
    return aggregate(runs)


def _engine_rows(engine: str, policy, params: ModelParams,
                 sim: SimConfig) -> List[ResultRow]:
    if engine == "simulation":
        return result_rows(policy, params, "sim",
                           stats=simulation_stats(policy, params, sim), sim=sim)
    source = "analytic" if engine == "closed_form" else "ctmc"
    if engine not in applicable_engines(policy):
        return result_rows(policy, params, source, error="error: unsupported engine")
    if params.rho >= 1.0:
        return result_rows(policy, params, source)
    try:
        result = (closed_form_for(policy, params) if engine == "closed_form"
                  else ctmc_for(policy, params))
    except (ctmc.NoConvergence, ctmc.TruncationTooSmall) as exc:
        message = f"error: {exc}".replace(",", ";")  # keep the CSV single-field
        return result_rows(policy, params, source, error=message)
    return result_rows(policy, params, source, result=result)


def run_experiment(spec: ExperimentSpec) -> List[ResultRow]:
    points = spec.sweep.points() if spec.sweep else [None]
    rows: List[ResultRow] = []
    for value in points:
        rates = {"lambda_u": spec.lambda_u, "lambda_q": spec.lambda_q,
                 "mu_u": spec.mu_u, "mu_q": spec.mu_q}
        if spec.sweep:
            rates[spec.sweep.rate] = value
        params = validate_params(rates["lambda_u"], rates["mu_u"],
                                 rates["lambda_q"], rates["mu_q"])
        for run in spec.policies:
            engines = applicable_engines(run.spec) if run.engine == "all" else [run.engine]
            point_rows: List[ResultRow] = []
            for engine in engines:
                point_rows.extend(_engine_rows(engine, run.spec, params, spec.sim))
            point_rows.sort(key=lambda r: (METRICS.index(r.metric),
                                           SOURCES.index(r.source)))
            rows.extend(point_rows)
    return rows


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return f"{value:#.6g}"
    return str(value)


def emit_csv(rows: Sequence[ResultRow], path: str) -> None:
    try:
        with open(path, "w", encoding="utf-8", newline="") as handle:
            handle.write(CSV_HEADER + "\n")
            for row in rows:
                handle.write(",".join(_fmt(getattr(row, field.name))
                                      for field in dataclasses.fields(ResultRow)) + "\n")
    except OSError as exc:
        raise OSError(f"cannot write CSV to {path}: {exc}") from exc


def read_csv(path: str) -> List[ResultRow]:
    """Read back a file produced by emit_csv."""

    def num(text, caster):
        return caster(text) if text else None

    def cell(text):
        if not text:
            return None
        return text if text == "inf" else int(text)

    try:
        with open(path, "r", encoding="utf-8") as handle:
            header = handle.readline().rstrip("\n")
            if header != CSV_HEADER:
                raise ValueError(f"{path}: unexpected CSV header")
            rows = []
            for line in handle:
                parts = line.rstrip("\n").split(",")
                if len(parts) != 16:
                    raise ValueError(f"{path}: malformed row {line!r}")
                (policy, m, n, k, lu, lq, mu, mq, metric, source,
                 mean, ci, reps, horizon, seed, status) = parts
                rows.append(ResultRow(
                    policy, cell(m), cell(n), cell(k),
                    float(lu), float(lq), float(mu), float(mq), metric, source,
                    num(mean, float), num(ci, float), num(reps, int),
                    num(horizon, float), num(seed, int), status))
            return rows
    except OSError as exc:
        raise OSError(f"cannot read CSV from {path}: {exc}") from exc
