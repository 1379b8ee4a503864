"""Closed-form and numerical steady-state results.

FCFS and the k=1 priority policies have exact closed forms. Every thresholded
policy, Joint-(m, n) with Query-k = (inf, k) and Update-k = (k, inf), is
solved on the truncated chain: one expected queue length comes from the chain,
the other from the conservation law for work-conserving non-idling
disciplines, with the direct chain moment kept as a consistency check.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Tuple

from . import ctmc
from .model import UNBOUNDED, JobClass, JointMN, ModelParams, QueryK, UpdateK, stability_guard
from .policy import thresholds


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
    truncation: "Tuple[int, int] | None" = None  # final (c_q, c_u) of the chain
    n_states: "int | None" = None


def paoi_from_update_system_time(params: ModelParams, expected_t_u: float) -> float:
    """Expected peak age = mean update inter-arrival + mean update system time."""
    return 1.0 / params.lambda_u + expected_t_u


def fcfs_metrics(params: ModelParams) -> ClosedFormResult:
    stability_guard(params)
    rho_u, rho_q = params.rho_u, params.rho_q
    denom = 1.0 - rho_u - rho_q
    t_q = (rho_u / params.mu_u + (1.0 - rho_u) / params.mu_q) / denom
    t_u = (rho_q / params.mu_q + (1.0 - rho_q) / params.mu_u) / denom
    return ClosedFormResult(
        "fcfs", params, t_q, t_u, paoi_from_update_system_time(params, t_u),
        expected_nq=params.lambda_q * t_q, expected_nu=params.lambda_u * t_u)


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
    return ClosedFormResult(
        "query-k", params, t_q, t_u, paoi_from_update_system_time(params, t_u),
        expected_nq=params.lambda_q * t_q, expected_nu=params.lambda_u * t_u)


def update1_metrics(params: ModelParams) -> ClosedFormResult:
    stability_guard(params)
    order = (JobClass.UPDATE, JobClass.QUERY)
    t_u = priority_system_time(params, order, 1)
    t_q = priority_system_time(params, order, 2)
    return ClosedFormResult(
        "update-k", params, t_q, t_u, paoi_from_update_system_time(params, t_u),
        expected_nq=params.lambda_q * t_q, expected_nu=params.lambda_u * t_u)


def conservation_rhs(params: ModelParams) -> float:
    """Policy-invariant value of E[N_q]/mu_q + E[N_u]/mu_u for all
    work-conserving non-idling disciplines here."""
    stability_guard(params)
    return ((params.lambda_q / params.mu_q ** 2 + params.lambda_u / params.mu_u ** 2)
            / (1.0 - params.rho))


def _chain_metrics(label: str, params: ModelParams, policy) -> ClosedFormResult:
    solution = ctmc.solve(params, policy)
    nq, nu = ctmc.expected_queue_lengths(solution)
    # the conservation law derives E[N_q] when only the update queue has a
    # finite threshold (Update-k), and E[N_u] otherwise
    m, n = thresholds(policy)
    if m != UNBOUNDED == n:
        direct, nq = nq, params.mu_q * (conservation_rhs(params) - nu / params.mu_u)
        gap = abs(direct - nq)
    else:
        direct, nu = nu, params.mu_u * (conservation_rhs(params) - nq / params.mu_q)
        gap = abs(direct - nu)
    t_q = nq / params.lambda_q
    t_u = nu / params.lambda_u
    return ClosedFormResult(
        label, params, t_q, t_u, paoi_from_update_system_time(params, t_u),
        expected_nq=nq, expected_nu=nu,
        tail_mass=solution.tail_mass, residual=solution.residual,
        conservation_gap=gap,
        truncation=(solution.rates.spec.c_q, solution.rates.spec.c_u),
        n_states=len(solution.rates.states))


def query_k_metrics(params: ModelParams, k: "int | float") -> ClosedFormResult:
    return _chain_metrics("query-k", params, QueryK(k))


def update_k_metrics(params: ModelParams, k: "int | float") -> ClosedFormResult:
    return _chain_metrics("update-k", params, UpdateK(k))


def joint_mn_metrics(params: ModelParams, m: "int | float", n: "int | float") -> ClosedFormResult:
    return _chain_metrics("joint-mn", params, JointMN(m, n))
