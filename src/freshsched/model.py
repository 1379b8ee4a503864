"""Shared parameter, policy, job, and metric types.

Rates are plain floats; loads are derived on access and never stored, so
there is a single source of truth for each quantity.
"""
from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Tuple


class NonPositiveRate(ValueError):
    """A rate was zero or negative."""


class NonFiniteRate(ValueError):
    """A rate was NaN or infinite."""


class Unstable(ValueError):
    """Total load is at or above 1, so no steady state exists."""

    def __init__(self, rho: float):
        super().__init__(f"total load rho = {rho:g} >= 1; system is unstable")
        self.rho = rho


@dataclass(frozen=True)
class ModelParams:
    """Arrival and service rates for the update and query classes."""

    lambda_u: float
    mu_u: float
    lambda_q: float
    mu_q: float

    @property
    def rho_u(self) -> float:
        return self.lambda_u / self.mu_u

    @property
    def rho_q(self) -> float:
        return self.lambda_q / self.mu_q

    @property
    def rho(self) -> float:
        return self.rho_u + self.rho_q


def validate_params(lambda_u: float, mu_u: float, lambda_q: float, mu_q: float) -> ModelParams:
    """Check the four rates and return an immutable parameter set."""
    for name, value in (("lambda_u", lambda_u), ("mu_u", mu_u),
                        ("lambda_q", lambda_q), ("mu_q", mu_q)):
        if not math.isfinite(value):
            raise NonFiniteRate(f"{name} = {value!r} is not finite")
        if value <= 0:
            raise NonPositiveRate(f"{name} = {value!r} must be strictly positive")
    return ModelParams(float(lambda_u), float(mu_u), float(lambda_q), float(mu_q))


def stability_guard(params: ModelParams) -> None:
    """Raise Unstable unless the total load is below 1."""
    if params.rho >= 1.0:
        raise Unstable(params.rho)


def conservation_rhs(params: ModelParams) -> float:
    """Policy-invariant value of E[N_q]/mu_q + E[N_u]/mu_u for all
    work-conserving non-idling disciplines here."""
    stability_guard(params)
    return ((params.lambda_q / params.mu_q ** 2 + params.lambda_u / params.mu_u ** 2)
            / (1.0 - params.rho))


def paoi_from_update_system_time(params: ModelParams, expected_t_u: float) -> float:
    """Expected peak age = mean update inter-arrival + mean update system time."""
    return 1.0 / params.lambda_u + expected_t_u


# the threshold of a queue that never forces a switch; it compares above
# every count and prints as inf
UNBOUNDED = math.inf


def _check_threshold(value, name: str) -> None:
    if value == UNBOUNDED:
        return
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"threshold {name} must be a positive integer or UNBOUNDED, got {value!r}")
    if value < 1:
        raise ValueError(f"threshold {name} must be >= 1, got {value}")


@dataclass(frozen=True)
class Fcfs:
    """Single arrival-ordered line across both classes, no preemption."""


@dataclass(frozen=True)
class QueryK:
    """Switch to queries when their count reaches k (or updates run out), then empty them."""

    k: "int | float"

    def __post_init__(self):
        _check_threshold(self.k, "k")


@dataclass(frozen=True)
class UpdateK:
    """Mirror image of QueryK with the threshold on the update queue."""

    k: "int | float"

    def __post_init__(self):
        _check_threshold(self.k, "k")


@dataclass(frozen=True)
class JointMN:
    """Threshold m on the update queue and n on the query queue, preempt-resume both ways."""

    m: "int | float"
    n: "int | float"

    def __post_init__(self):
        _check_threshold(self.m, "m")
        _check_threshold(self.n, "n")
        if self.m == self.n == UNBOUNDED:
            raise ValueError("JointMN with both thresholds unbounded never switches")


# every policy type by its name in configs, on the command line and in the
# CSV; a type's dataclass fields are the thresholds it takes
POLICY_TYPES = {"fcfs": Fcfs, "query-k": QueryK, "update-k": UpdateK, "joint-mn": JointMN}


class JobClass(enum.Enum):
    UPDATE = "update"
    QUERY = "query"


@dataclass
class JobRecord:
    """One job's lifetime: arrival, service requirement, and (once done) completion."""

    job_class: JobClass
    arrival_time: float
    service_requirement: float
    completion_time: "float | None" = None

    def __post_init__(self):
        if self.service_requirement <= 0:
            raise ValueError("service_requirement must be positive")
        if (self.completion_time is not None
                and self.completion_time < self.arrival_time + self.service_requirement):
            raise ValueError("completion_time earlier than arrival + service requirement")

    @property
    def system_time(self) -> "float | None":
        if self.completion_time is None:
            return None
        return self.completion_time - self.arrival_time


@dataclass(frozen=True)
class ReplicationMetrics:
    """Per-run estimates; None marks a metric with no samples in the window."""

    mean_response_time: "float | None"
    mean_paoi: "float | None"
    mean_aoi: float
    mean_nq: float
    mean_nu: float
    mean_update_system_time: "float | None"
    completed_queries: int
    completed_updates: int
    horizon: float


@dataclass(frozen=True)
class ExactResult:
    """A policy's steady state from the closed forms or the chain; the chain
    also fills its diagnostics (see `ctmc.solve`)."""

    policy: str
    expected_response_time: float
    expected_update_system_time: float
    expected_paoi: float
    expected_nq: float
    expected_nu: float
    tail_mass: "float | None" = None
    residual: "float | None" = None
    conservation_gap: "float | None" = None
    # the chain's (c_q, inf) or (inf, c_u), its boundary's unknowns and the
    # number of truncations it solved
    truncation: "Tuple[float, float] | None" = None
    n_states: "int | None" = None
    rounds: "int | None" = None
