"""Scheduling decisions as pure functions over (queue counts, server position).

The simulator and the Markov-chain builder both read `decision_table`, which is
generated from `decide`, so the switching rules live in exactly one place.
"""
from __future__ import annotations

import enum
import functools
from typing import NamedTuple, Tuple

from .model import UNBOUNDED, Fcfs, JointMN, QueryK, UpdateK


class ServerPosition(enum.Enum):
    SERVING_QUERY = "serving_query"
    SERVING_UPDATE = "serving_update"
    IDLE = "idle"


class Trigger(enum.Enum):
    ARRIVAL_UPDATE = "arrival_update"
    ARRIVAL_QUERY = "arrival_query"
    DEPARTURE_UPDATE = "departure_update"
    DEPARTURE_QUERY = "departure_query"


class SchedulerState(NamedTuple):
    n_q: int
    n_u: int
    position: ServerPosition


class InconsistentTrigger(ValueError):
    """The trigger cannot fire from the given state (e.g. departure while idle)."""


class FcfsOrderUndetermined(ValueError):
    """FCFS needs the arrival order, which queue counts alone do not carry."""


def initial_state() -> SchedulerState:
    return SchedulerState(0, 0, ServerPosition.IDLE)


def _apply_counts(state: SchedulerState, trigger: Trigger) -> tuple:
    n_q, n_u = state.n_q, state.n_u
    if trigger is Trigger.ARRIVAL_QUERY:
        return n_q + 1, n_u
    if trigger is Trigger.ARRIVAL_UPDATE:
        return n_q, n_u + 1
    if trigger is Trigger.DEPARTURE_QUERY:
        if state.position is not ServerPosition.SERVING_QUERY or n_q < 1:
            raise InconsistentTrigger(f"query departure from {state}")
        return n_q - 1, n_u
    if state.position is not ServerPosition.SERVING_UPDATE or n_u < 1:
        raise InconsistentTrigger(f"update departure from {state}")
    return n_q, n_u - 1


def _validate_state(state: SchedulerState) -> None:
    if state.position is ServerPosition.SERVING_QUERY and state.n_q < 1:
        raise InconsistentTrigger(f"serving queries with n_q = {state.n_q}")
    if state.position is ServerPosition.SERVING_UPDATE and state.n_u < 1:
        raise InconsistentTrigger(f"serving updates with n_u = {state.n_u}")
    if state.position is ServerPosition.IDLE and (state.n_q or state.n_u):
        raise InconsistentTrigger(f"idle with jobs present: {state}")


def _decide_fcfs(state, trigger, n_q, n_u) -> SchedulerState:
    pos = state.position
    if trigger in (Trigger.ARRIVAL_QUERY, Trigger.ARRIVAL_UPDATE):
        if pos is ServerPosition.IDLE:
            pos = (ServerPosition.SERVING_QUERY if trigger is Trigger.ARRIVAL_QUERY
                   else ServerPosition.SERVING_UPDATE)
        return SchedulerState(n_q, n_u, pos)
    # departure: the next job is the globally oldest, which counts alone only
    # determine when at most one queue is nonempty
    if n_q == 0 and n_u == 0:
        return SchedulerState(0, 0, ServerPosition.IDLE)
    if n_q == 0:
        return SchedulerState(n_q, n_u, ServerPosition.SERVING_UPDATE)
    if n_u == 0:
        return SchedulerState(n_q, n_u, ServerPosition.SERVING_QUERY)
    raise FcfsOrderUndetermined("both queues nonempty after an FCFS departure")


def thresholds(policy) -> tuple:
    """The (m, n) pair of a thresholded policy: the update queue's threshold m
    and the query queue's n. Query-k is (inf, k) and Update-k is (k, inf)."""
    if isinstance(policy, QueryK):
        return UNBOUNDED, policy.k
    if isinstance(policy, UpdateK):
        return policy.k, UNBOUNDED
    if isinstance(policy, JointMN):
        return policy.m, policy.n
    raise TypeError(f"unknown policy {policy!r}")


def policy_columns(policy) -> tuple:
    """(name, m, n, k) columns of a policy in the CSV."""
    if isinstance(policy, Fcfs):
        return "fcfs", None, None, None
    if isinstance(policy, QueryK):
        return "query-k", None, None, policy.k
    if isinstance(policy, UpdateK):
        return "update-k", None, None, policy.k
    return "joint-mn", policy.m, policy.n, None


def _decide_joint(m, n, state, trigger, n_q, n_u) -> SchedulerState:
    u_hit = n_u >= m
    q_hit = n_q >= n
    if u_hit and q_hit:
        if trigger is Trigger.ARRIVAL_QUERY:
            pos = ServerPosition.SERVING_QUERY
        elif trigger is Trigger.ARRIVAL_UPDATE:
            pos = ServerPosition.SERVING_UPDATE
        else:
            pos = state.position
    elif q_hit:
        pos = ServerPosition.SERVING_QUERY
    elif u_hit:
        pos = ServerPosition.SERVING_UPDATE
    else:
        pos = state.position
        if pos is ServerPosition.SERVING_QUERY and n_q == 0:
            pos = ServerPosition.SERVING_UPDATE if n_u else ServerPosition.IDLE
        elif pos is ServerPosition.SERVING_UPDATE and n_u == 0:
            pos = ServerPosition.SERVING_QUERY if n_q else ServerPosition.IDLE
        elif pos is ServerPosition.IDLE:
            if trigger is Trigger.ARRIVAL_QUERY:
                pos = ServerPosition.SERVING_QUERY
            else:
                pos = ServerPosition.SERVING_UPDATE
    return SchedulerState(n_q, n_u, pos)


def decide(policy, state: SchedulerState, trigger: Trigger) -> SchedulerState:
    """Apply one arrival/departure event and return the post-event state."""
    _validate_state(state)
    n_q, n_u = _apply_counts(state, trigger)
    if isinstance(policy, Fcfs):
        return _decide_fcfs(state, trigger, n_q, n_u)
    return _decide_joint(*thresholds(policy), state, trigger, n_q, n_u)


# Integer codes of the decision table: a position is its index in POSITIONS
# (the chain's z), a trigger its index in TRIGGERS.
Z_IDLE, Z_QUERY, Z_UPDATE = range(3)
POSITIONS = (ServerPosition.IDLE, ServerPosition.SERVING_QUERY,
             ServerPosition.SERVING_UPDATE)
ARRIVE_U, ARRIVE_Q, DEPART_U, DEPART_Q = range(4)
TRIGGERS = (Trigger.ARRIVAL_UPDATE, Trigger.ARRIVAL_QUERY,
            Trigger.DEPARTURE_UPDATE, Trigger.DEPARTURE_QUERY)
# table value of an FCFS departure that leaves both queues nonempty: the older
# head is served next, the update on a tie (see FcfsOrderUndetermined)
OLDER_HEAD = -1


class DecisionTable(NamedTuple):
    """`decide`'s post-event position for every valid (state, trigger).

    ``next_position[z][e][i][j]`` is the position code after trigger code ``e``
    from position code ``z`` with ``min(n_q, cap_q) = i`` and
    ``min(n_u, cap_u) = j`` before the event. A count at or above its cap
    decides like the cap, so the table is exact for every count. Entries for
    invalid states and triggers are None.
    """

    cap_q: int
    cap_u: int
    next_position: Tuple[Tuple[Tuple[tuple, ...], ...], ...]


def _cap(threshold) -> int:
    # decide only asks whether a post-event count is 0 or reaches the
    # threshold, and a departure lowers a count by one
    return 2 if threshold == UNBOUNDED else threshold + 2


def _table_entry(policy, state: SchedulerState, trigger: Trigger):
    try:
        return POSITIONS.index(decide(policy, state, trigger).position)
    except InconsistentTrigger:
        return None
    except FcfsOrderUndetermined:
        return OLDER_HEAD


@functools.lru_cache(maxsize=64)
def decision_table(policy) -> DecisionTable:
    """Call `decide` once on every valid state with counts up to the caps."""
    if isinstance(policy, Fcfs):
        cap_q, cap_u = 2, 2
    else:
        m, n = thresholds(policy)
        cap_q, cap_u = _cap(n), _cap(m)
    return DecisionTable(cap_q, cap_u, tuple(
        tuple(tuple(tuple(_table_entry(policy, SchedulerState(i, j, position), trigger)
                          for j in range(cap_u + 1))
                    for i in range(cap_q + 1))
              for trigger in TRIGGERS)
        for position in POSITIONS))
