"""Closed-form steady-state results.

FCFS and the k=1 priority policies have exact closed forms. Every thresholded
policy, Joint-(m, n) with Query-k = (inf, k) and Update-k = (k, inf), has a
chain instead (`ctmc.solve`).
"""
from __future__ import annotations

from typing import Sequence

from . import ctmc
from .model import (ExactResult, Fcfs, JobClass, ModelParams, QueryK, Unstable, UpdateK,
                    paoi_from_update_system_time, stability_guard)
from .policy import policy_columns


def _closed_form(policy, params: ModelParams, t_q: float, t_u: float) -> ExactResult:
    """The result of a closed form for ``policy`` from its system times; the
    queue lengths follow by Little's law."""
    return ExactResult(policy_columns(policy)[0], t_q, t_u,
                       paoi_from_update_system_time(params, t_u),
                       params.lambda_q * t_q, params.lambda_u * t_u)


def fcfs_metrics(params: ModelParams) -> ExactResult:
    stability_guard(params)
    rho_u, rho_q = params.rho_u, params.rho_q
    denom = 1.0 - rho_u - rho_q
    t_q = (rho_u / params.mu_u + (1.0 - rho_u) / params.mu_q) / denom
    t_u = (rho_q / params.mu_q + (1.0 - rho_q) / params.mu_u) / denom
    return _closed_form(Fcfs(), params, t_q, t_u)


def priority_system_time(params: ModelParams,
                         class_order: Sequence[JobClass], n: int) -> float:
    """Expected system time of the n-th priority class (1-based) under
    preemptive-resume priority with exponential service."""
    rates = []
    for cls in class_order:
        if cls is JobClass.QUERY:
            rates.append((params.lambda_q, params.mu_q))
        else:
            rates.append((params.lambda_u, params.mu_u))
    if not 1 <= n <= len(rates):
        raise ValueError(f"class index {n} out of range")
    loads = [lam / mu for lam, mu in rates]
    sigma_prev = sum(loads[: n - 1])
    sigma_n = sigma_prev + loads[n - 1]
    if sigma_n >= 1.0:
        raise Unstable(sigma_n)
    mu_n = rates[n - 1][1]
    # exponential service: E[S^2]/(2 E[S]) = 1/mu
    backlog = sum(loads[i] / rates[i][1] for i in range(n))
    return (1.0 / mu_n) / (1.0 - sigma_prev) + backlog / ((1.0 - sigma_prev) * (1.0 - sigma_n))


def query1_metrics(params: ModelParams) -> ExactResult:
    stability_guard(params)
    order = (JobClass.QUERY, JobClass.UPDATE)
    t_q = priority_system_time(params, order, 1)
    t_u = priority_system_time(params, order, 2)
    return _closed_form(QueryK(1), params, t_q, t_u)


def update1_metrics(params: ModelParams) -> ExactResult:
    stability_guard(params)
    order = (JobClass.UPDATE, JobClass.QUERY)
    t_u = priority_system_time(params, order, 1)
    t_q = priority_system_time(params, order, 2)
    return _closed_form(UpdateK(1), params, t_q, t_u)


def query_k_metrics(params: ModelParams, k: "int | float") -> ExactResult:
    return ctmc.solve(params, QueryK(k))


def update_k_metrics(params: ModelParams, k: "int | float") -> ExactResult:
    return ctmc.solve(params, UpdateK(k))
