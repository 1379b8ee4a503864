"""Response-time vs. information-freshness tradeoff toolkit for a
single-server two-queue (updates + queries) system."""

import os

# One BLAS thread unless the user chose a count, set before numpy loads: the
# QBD solve's dense reduction runs about twice as slow with two on 2 cores.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

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
