"""Closed-form and numerical steady-state results.

FCFS and the k=1 priority policies have exact closed forms. For finite k > 1
the expected query-queue length comes from the truncated chain; the update
side then follows from the conservation law for work-conserving non-idling
disciplines, with the direct chain moment kept as a consistency check.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence, Tuple

from . import ctmc
from .model import JobClass, ModelParams, QueryK, Unbounded, UpdateK, stability_guard


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


def _solve_threshold_chain(params: ModelParams, policy,
                           truncation: "int | None") -> ctmc.CtmcSolution:
    """Stationary solve; without an explicit truncation, each side grows on
    its own until the tail mass is below ``ctmc.TAIL_TOLERANCE``."""
    stability_guard(params)
    if truncation is not None:
        spec = ctmc.CtmcSpec(params, policy, truncation, truncation)
        return ctmc.solve_stationary(ctmc.build_ctmc(spec))
    # the low-priority queue is the long one: it starts where the square
    # truncation used to, the prioritized one at twice the threshold region
    low = max(64, math.ceil(8.0 / (1.0 - params.rho)))
    high = max(16, 2 * (policy.k + 1))
    c_q, c_u = (high, low) if isinstance(policy, QueryK) else (low, high)
    while True:
        spec = ctmc.CtmcSpec(params, policy, c_q, c_u)
        solution = ctmc.solve_stationary(ctmc.build_ctmc(spec))
        if solution.tail_mass < ctmc.TAIL_TOLERANCE:
            return solution
        # the union is at most the sum of the bands, so one side always grows
        half = ctmc.TAIL_TOLERANCE / 2
        if solution.tail_mass_q >= half:
            c_q *= 2
        if solution.tail_mass_u >= half:
            c_u *= 2
        if max(c_q, c_u) > ctmc.MAX_TRUNCATION or c_q * c_u > ctmc.MAX_STATES:
            raise ctmc.NoConvergence(
                f"tail mass {solution.tail_mass:g} still above "
                f"{ctmc.TAIL_TOLERANCE:g} at truncation {spec.c_q} x {spec.c_u}; "
                f"{c_q} x {c_u} would pass the cap of {ctmc.MAX_TRUNCATION} "
                f"per side or {ctmc.MAX_STATES} states")


def query_k_metrics(params: ModelParams, k: int,
                    truncation: "int | None" = None) -> ClosedFormResult:
    if isinstance(k, Unbounded):
        raise ValueError("k = inf has no truncated chain; use the simulator")
    solution = _solve_threshold_chain(params, QueryK(k), truncation)
    nq, nu_direct = ctmc.expected_queue_lengths(solution)
    nu = params.mu_u * (conservation_rhs(params) - nq / params.mu_q)
    t_q = nq / params.lambda_q
    t_u = nu / params.lambda_u
    return ClosedFormResult(
        "query-k", params, t_q, t_u, paoi_from_update_system_time(params, t_u),
        expected_nq=nq, expected_nu=nu,
        tail_mass=solution.tail_mass, residual=solution.residual,
        conservation_gap=abs(nu_direct - nu),
        truncation=(solution.rates.spec.c_q, solution.rates.spec.c_u),
        n_states=len(solution.rates.states))


def update_k_metrics(params: ModelParams, k: int,
                     truncation: "int | None" = None) -> ClosedFormResult:
    if isinstance(k, Unbounded):
        raise ValueError("k = inf has no truncated chain; use the simulator")
    solution = _solve_threshold_chain(params, UpdateK(k), truncation)
    nq_direct, nu = ctmc.expected_queue_lengths(solution)
    nq = params.mu_q * (conservation_rhs(params) - nu / params.mu_u)
    t_q = nq / params.lambda_q
    t_u = nu / params.lambda_u
    return ClosedFormResult(
        "update-k", params, t_q, t_u, paoi_from_update_system_time(params, t_u),
        expected_nq=nq, expected_nu=nu,
        tail_mass=solution.tail_mass, residual=solution.residual,
        conservation_gap=abs(nq_direct - nq),
        truncation=(solution.rates.spec.c_q, solution.rates.spec.c_u),
        n_states=len(solution.rates.states))
