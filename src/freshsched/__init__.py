"""Response-time vs. information-freshness tradeoff toolkit for a
single-server two-queue (updates + queries) system."""

from .model import (
    UNBOUNDED,
    Fcfs,
    JobClass,
    JobRecord,
    JointMN,
    ModelParams,
    QueryK,
    ReplicationMetrics,
    UpdateK,
    stability_guard,
    validate_params,
)
from .simulator import SimConfig, aggregate, run_replication

__all__ = [
    "UNBOUNDED",
    "Fcfs",
    "JobClass",
    "JobRecord",
    "JointMN",
    "ModelParams",
    "QueryK",
    "ReplicationMetrics",
    "SimConfig",
    "UpdateK",
    "aggregate",
    "run_replication",
    "stability_guard",
    "validate_params",
]
