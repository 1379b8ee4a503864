"""Scheduling decisions as pure functions over (queue counts, server position).

The simulator and the Markov-chain builder both read `decision_table`, which is
generated from `decide`, so the switching rules live in exactly one place.
"""
from __future__ import annotations

import enum
import functools
from typing import Iterable, List, NamedTuple, Tuple

from .model import Fcfs, JobClass, JobRecord, JointMN, QueryK, Unbounded, UpdateK


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
    emptying_mode: bool = False


class InconsistentTrigger(ValueError):
    """The trigger cannot fire from the given state (e.g. departure while idle)."""


class FcfsOrderUndetermined(ValueError):
    """FCFS needs the arrival order, which queue counts alone do not carry."""


def initial_state() -> SchedulerState:
    return SchedulerState(0, 0, ServerPosition.IDLE, False)


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


def _hit(count: int, threshold) -> bool:
    return not isinstance(threshold, Unbounded) and count >= threshold


def _decide_fcfs(state, trigger, n_q, n_u) -> SchedulerState:
    pos = state.position
    if trigger in (Trigger.ARRIVAL_QUERY, Trigger.ARRIVAL_UPDATE):
        if pos is ServerPosition.IDLE:
            pos = (ServerPosition.SERVING_QUERY if trigger is Trigger.ARRIVAL_QUERY
                   else ServerPosition.SERVING_UPDATE)
        return SchedulerState(n_q, n_u, pos, False)
    # departure: the next job is the globally oldest, which counts alone only
    # determine when at most one queue is nonempty
    if n_q == 0 and n_u == 0:
        return SchedulerState(0, 0, ServerPosition.IDLE, False)
    if n_q == 0:
        return SchedulerState(n_q, n_u, ServerPosition.SERVING_UPDATE, False)
    if n_u == 0:
        return SchedulerState(n_q, n_u, ServerPosition.SERVING_QUERY, False)
    raise FcfsOrderUndetermined(
        "both queues nonempty after an FCFS departure; use equivalent_fcfs_order")


def _decide_one_threshold(k, state, trigger, n_q, n_u, query_side: bool) -> SchedulerState:
    """Query-k when query_side, Update-k otherwise (fully symmetric)."""
    if query_side:
        a, b = n_q, n_u
        serv_a, serv_b = ServerPosition.SERVING_QUERY, ServerPosition.SERVING_UPDATE
        arrival_a = Trigger.ARRIVAL_QUERY
    else:
        a, b = n_u, n_q
        serv_a, serv_b = ServerPosition.SERVING_UPDATE, ServerPosition.SERVING_QUERY
        arrival_a = Trigger.ARRIVAL_UPDATE

    pos = state.position
    if pos is serv_b:
        if b == 0:
            new_pos = serv_a if a > 0 else ServerPosition.IDLE
            return SchedulerState(n_q, n_u, new_pos, new_pos is serv_a)
        if _hit(a, k):
            return SchedulerState(n_q, n_u, serv_a, True)
        return SchedulerState(n_q, n_u, serv_b, False)
    if pos is serv_a:
        if a == 0:
            new_pos = serv_b if b > 0 else ServerPosition.IDLE
            return SchedulerState(n_q, n_u, new_pos, False)
        return SchedulerState(n_q, n_u, serv_a, True)
    # idle: serve the arriving class
    if trigger is arrival_a:
        return SchedulerState(n_q, n_u, serv_a, True)
    return SchedulerState(n_q, n_u, serv_b, False)


def _decide_joint(policy: JointMN, state, trigger, n_q, n_u) -> SchedulerState:
    u_hit = _hit(n_u, policy.m)
    q_hit = _hit(n_q, policy.n)
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
    return SchedulerState(n_q, n_u, pos, False)


def decide(policy, state: SchedulerState, trigger: Trigger) -> SchedulerState:
    """Apply one arrival/departure event and return the post-event state."""
    _validate_state(state)
    n_q, n_u = _apply_counts(state, trigger)
    if isinstance(policy, Fcfs):
        return _decide_fcfs(state, trigger, n_q, n_u)
    if isinstance(policy, QueryK):
        return _decide_one_threshold(policy.k, state, trigger, n_q, n_u, query_side=True)
    if isinstance(policy, UpdateK):
        return _decide_one_threshold(policy.k, state, trigger, n_q, n_u, query_side=False)
    if isinstance(policy, JointMN):
        return _decide_joint(policy, state, trigger, n_q, n_u)
    raise TypeError(f"unknown policy {policy!r}")


def equivalent_fcfs_order(jobs: Iterable[JobRecord]) -> List[JobRecord]:
    """Merge both classes into one FIFO line; ties serve the update first."""
    return sorted(jobs, key=lambda j: (j.arrival_time, 0 if j.job_class is JobClass.UPDATE else 1))


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
    return 2 if isinstance(threshold, Unbounded) else threshold + 2


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
    if isinstance(policy, QueryK):
        cap_q, cap_u = _cap(policy.k), 2
    elif isinstance(policy, UpdateK):
        cap_q, cap_u = 2, _cap(policy.k)
    elif isinstance(policy, JointMN):
        cap_q, cap_u = _cap(policy.n), _cap(policy.m)
    elif isinstance(policy, Fcfs):
        cap_q, cap_u = 2, 2
    else:
        raise TypeError(f"unknown policy {policy!r}")
    # the emptying flag is left False: decide never reads it
    return DecisionTable(cap_q, cap_u, tuple(
        tuple(tuple(tuple(_table_entry(policy, SchedulerState(i, j, position), trigger)
                          for j in range(cap_u + 1))
                    for i in range(cap_q + 1))
              for trigger in TRIGGERS)
        for position in POSITIONS))
