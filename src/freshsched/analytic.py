"""Closed-form and numerical steady-state results.

FCFS and the k=1 priority policies have exact closed forms. Every thresholded
policy, Joint-(m, n) with Query-k = (inf, k) and Update-k = (k, inf), goes
through `chain_metrics`, a matrix-geometric solve of its Markov chain
(`ctmc.solve`): the phase queue's expected length comes from the chain, the
level queue's from the conservation law for work-conserving non-idling
disciplines, with the chain's direct moment kept as a consistency check.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Tuple

from . import ctmc
from .model import (Fcfs, JobClass, ModelParams, QueryK, UpdateK,
                    conservation_rhs,  # noqa: F401  (re-exported)
                    stability_guard)
from .policy import policy_columns


@dataclass(frozen=True)
class ClosedFormResult:
    policy: str
    params: ModelParams
    expected_response_time: float
    expected_update_system_time: float
    expected_paoi: float
    expected_nq: "float | None" = None
    expected_nu: "float | None" = None
    tail_mass: "float | None" = None
    residual: "float | None" = None
    conservation_gap: "float | None" = None
    # the chain's (c_q, inf) or (inf, c_u) and its boundary's unknowns
    truncation: "Tuple[float, float] | None" = None
    n_states: "int | None" = None


def paoi_from_update_system_time(params: ModelParams, expected_t_u: float) -> float:
    """Expected peak age = mean update inter-arrival + mean update system time."""
    return 1.0 / params.lambda_u + expected_t_u


def _closed_form(policy, params: ModelParams, t_q: float, t_u: float) -> ClosedFormResult:
    """The result of a closed form for ``policy`` from its system times; the
    queue lengths follow by Little's law."""
    return ClosedFormResult(
        policy_columns(policy)[0], params, t_q, t_u, paoi_from_update_system_time(params, t_u),
        expected_nq=params.lambda_q * t_q, expected_nu=params.lambda_u * t_u)


def fcfs_metrics(params: ModelParams) -> ClosedFormResult:
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
        from .model import Unstable
        raise Unstable(sigma_n)
    mu_n = rates[n - 1][1]
    # exponential service: E[S^2]/(2 E[S]) = 1/mu
    backlog = sum(loads[i] / rates[i][1] for i in range(n))
    return (1.0 / mu_n) / (1.0 - sigma_prev) + backlog / ((1.0 - sigma_prev) * (1.0 - sigma_n))


def query1_metrics(params: ModelParams) -> ClosedFormResult:
    stability_guard(params)
    order = (JobClass.QUERY, JobClass.UPDATE)
    t_q = priority_system_time(params, order, 1)
    t_u = priority_system_time(params, order, 2)
    return _closed_form(QueryK(1), params, t_q, t_u)


def update1_metrics(params: ModelParams) -> ClosedFormResult:
    stability_guard(params)
    order = (JobClass.UPDATE, JobClass.QUERY)
    t_u = priority_system_time(params, order, 1)
    t_q = priority_system_time(params, order, 2)
    return _closed_form(UpdateK(1), params, t_q, t_u)


def chain_metrics(params: ModelParams, policy) -> ClosedFormResult:
    """A thresholded policy's metrics from its Markov chain (see `ctmc.solve`)."""
    solution = ctmc.solve(params, policy)
    t_q = solution.expected_nq / params.lambda_q
    t_u = solution.expected_nu / params.lambda_u
    return ClosedFormResult(
        policy_columns(policy)[0], params, t_q, t_u,
        paoi_from_update_system_time(params, t_u),
        expected_nq=solution.expected_nq, expected_nu=solution.expected_nu,
        tail_mass=solution.tail_mass, residual=solution.residual,
        conservation_gap=solution.conservation_gap,
        truncation=solution.truncation, n_states=solution.n_states)


def query_k_metrics(params: ModelParams, k: "int | float") -> ClosedFormResult:
    return chain_metrics(params, QueryK(k))


def update_k_metrics(params: ModelParams, k: "int | float") -> ClosedFormResult:
    return chain_metrics(params, UpdateK(k))
