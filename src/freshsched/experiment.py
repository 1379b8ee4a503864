"""Experiment driver: engine dispatch over sweep points and CSV output.

A sweep point sets a rate or, on a threshold axis, each policy's threshold.
Every requested (point, policy, engine, metric) combination produces exactly
one row; failures and inapplicable engines become status markers instead of
dropped rows, so the row count of a sweep is always predictable.
"""
from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from . import analytic, ctmc
from .config import THRESHOLD_AXES, ExperimentSpec
from .model import UNBOUNDED, ExactResult, Fcfs, ModelParams, QueryK, UpdateK, validate_params
from .policy import policy_columns
from .simulator import SimConfig, SummaryStats, aggregate, run_replication

METRICS = ("response_time", "paoi", "aoi", "nq", "nu")
# the closed forms, the Markov chain and the simulator
SOURCES = ("analytic", "ctmc", "sim")
# every policy with a closed form, and the name of its function in `analytic`
CLOSED_FORMS = {Fcfs(): "fcfs_metrics", QueryK(1): "query1_metrics",
                UpdateK(1): "update1_metrics"}


@dataclass(frozen=True)
class ResultRow:
    policy: str
    m: "int | float | None"
    n: "int | float | None"
    k: "int | float | None"
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


CSV_HEADER = ",".join(field.name for field in dataclasses.fields(ResultRow))


def applicable_sources(policy) -> List[str]:
    """The sources that compute ``policy``, in ``SOURCES`` order: the closed
    forms cover the policies of ``CLOSED_FORMS``, the chain every thresholded
    policy, and the simulator all."""
    covered = (policy in CLOSED_FORMS, not isinstance(policy, Fcfs), True)
    return [source for source, covers in zip(SOURCES, covered) if covers]


def exact_result(source: str, policy, params: ModelParams) -> ExactResult:
    """The steady-state result of ``policy`` from source "analytic" or "ctmc".
    Each function is looked up on its module at call time, so that a wrapper
    set on the module sees every call."""
    if source == "ctmc":
        return ctmc.solve(params, policy)
    if policy not in CLOSED_FORMS:
        raise ValueError(f"no closed form for {policy!r}")
    return getattr(analytic, CLOSED_FORMS[policy])(params)


def metric_values(result: ExactResult) -> Dict[str, Optional[float]]:
    return {
        "response_time": result.expected_response_time,
        "paoi": result.expected_paoi,
        "aoi": None,  # no closed form for the time-average age
        "nq": result.expected_nq,
        "nu": result.expected_nu,
    }


def result_rows(policy, params: ModelParams, source: str,
                result: "ExactResult | None" = None,
                stats: "Dict[str, SummaryStats] | None" = None,
                sim: "SimConfig | None" = None,
                error: "str | None" = None) -> List[ResultRow]:
    """The row of every metric for one policy at one point from one source.

    A simulation source passes its ``stats`` and ``sim``; an analysis source
    its ``result``, or an ``error`` status, or neither at an unstable point.
    """
    name, m, n, k = policy_columns(policy)
    stable = params.rho < 1.0
    values = metric_values(result) if result is not None else {}
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


def simulate_policies(pairs: Sequence[Tuple[ModelParams, object]],
                      sim: SimConfig) -> List[Dict[str, SummaryStats]]:
    """The statistics of each (params, policy) pair, replication-major: every
    pair runs on replication r before any pair runs on r + 1.

    So `simulator.unit_draws` draws each replication's streams once for the
    whole sequence, and each pair only divides them by its rates; a pair
    whose rates are those of the pair before it reads the arrival epochs
    that `simulator.draw_jobs` keeps.
    """
    runs: List[list] = [[] for _ in pairs]
    for rep in range(sim.replications):
        for mine, (params, policy) in zip(runs, pairs):
            mine.append(run_replication(params, policy, sim, rep))
    return [aggregate(mine) for mine in runs]


def _engine_rows(source: str, policy, params: ModelParams) -> List[ResultRow]:
    """The rows of source "analytic" or "ctmc"."""
    if source not in applicable_sources(policy):
        return result_rows(policy, params, source, error="error: unsupported engine")
    if params.rho >= 1.0:
        return result_rows(policy, params, source)
    try:
        result = exact_result(source, policy, params)
    except ctmc.NoConvergence as exc:
        message = f"error: {exc}".replace(",", ";")  # keep the CSV single-field
        return result_rows(policy, params, source, error=message)
    return result_rows(policy, params, source, result=result)


def run_experiment(spec: ExperimentSpec) -> List[ResultRow]:
    """Every row of the sweep, point-major, each policy's rows in the order of
    ``METRICS`` and then ``SOURCES``.

    The (point, policy, sources) triples are planned first. The simulated
    pairs, in that order, run through one `simulate_policies`, so the whole
    sweep runs replication-major and its points share each replication's
    unit draws; the policies of one point share its arrival epochs too.
    """
    points = spec.sweep.points() if spec.sweep else [None]
    axis = spec.sweep.rate if spec.sweep else None
    plan = []
    for value in points:
        rates = {"lambda_u": spec.lambda_u, "lambda_q": spec.lambda_q,
                 "mu_u": spec.mu_u, "mu_q": spec.mu_q}
        if axis in rates:
            rates[axis] = value
        params = validate_params(rates["lambda_u"], rates["mu_u"],
                                 rates["lambda_q"], rates["mu_q"])
        for run in spec.policies:
            policy = (dataclasses.replace(run.spec, **{axis: int(value)})
                      if axis in THRESHOLD_AXES else run.spec)
            sources = applicable_sources(policy) if run.source == "all" else [run.source]
            plan.append((params, policy, sources))

    simulated = [index for index, (_, _, sources) in enumerate(plan) if "sim" in sources]
    stats = dict(zip(simulated, simulate_policies([plan[index][:2] for index in simulated],
                                                  spec.sim)))

    rows: List[ResultRow] = []
    for index, (params, policy, sources) in enumerate(plan):
        point_rows: List[ResultRow] = []
        for source in sources:
            point_rows.extend(
                result_rows(policy, params, "sim", stats=stats[index], sim=spec.sim)
                if source == "sim" else _engine_rows(source, policy, params))
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

    def optional(cast):
        return lambda text: cast(text) if text else None

    real, integer = optional(float), optional(int)

    def threshold(text):
        return UNBOUNDED if text == "inf" else integer(text)

    casts = (str, threshold, threshold, threshold, float, float, float, float, str, str,
             real, real, integer, real, integer, str)  # one per `ResultRow` field
    try:
        with open(path, "r", encoding="utf-8") as handle:
            header = handle.readline().rstrip("\n")
            if header != CSV_HEADER:
                raise ValueError(f"{path}: unexpected CSV header")
            rows = []
            for line in handle:
                parts = line.rstrip("\n").split(",")
                if len(parts) != len(casts):
                    raise ValueError(f"{path}: malformed row {line!r}")
                rows.append(ResultRow(*(cast(part) for cast, part in zip(casts, parts))))
            return rows
    except OSError as exc:
        raise OSError(f"cannot read CSV from {path}: {exc}") from exc
