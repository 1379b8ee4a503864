"""Scheduling decisions as pure functions over (queue counts, server position).

Every policy is the threshold rule of Joint-(m, n): Query-k is (inf, k),
Update-k is (k, inf) and FCFS is (inf, inf), which adds only the arrival-order
tiebreak that counts alone cannot decide. A position and a trigger are their
integer codes, which index the decision table. The simulator and the
Markov-chain builder both read `decision_table`, which is generated from
`decide`, so the switching rules live in exactly one place.
"""
from __future__ import annotations

import enum
import functools
from typing import NamedTuple

import numpy as np

from .model import POLICY_TYPES, UNBOUNDED, Fcfs, JointMN, QueryK, UpdateK


class ServerPosition(enum.IntEnum):
    """The chain's z: a position's value is its code in the decision table."""
    IDLE = 0
    SERVING_QUERY = 1
    SERVING_UPDATE = 2


class Trigger(enum.IntEnum):
    ARRIVAL_UPDATE = 0
    ARRIVAL_QUERY = 1
    DEPARTURE_UPDATE = 2
    DEPARTURE_QUERY = 3


# the codes as plain ints, which the simulator's event loop compares faster
Z_IDLE, Z_QUERY, Z_UPDATE = map(int, ServerPosition)
ARRIVE_U, ARRIVE_Q, DEPART_U, DEPART_Q = map(int, Trigger)
# table value of an FCFS departure that leaves both queues nonempty: the older
# head is served next, the update on a tie (see FcfsOrderUndetermined)
OLDER_HEAD = -1
# table value of a trigger that cannot fire; past every position, so a loop
# that reads it as one fails instead of running on
NO_POSITION = 3


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


def _fires(position: int, n_q: int, n_u: int, trigger: int) -> bool:
    """Whether ``trigger`` can fire in the state (n_q, n_u, position): a
    serving position holds a job of the class it serves, idle holds none,
    and a departure is of the class served."""
    if position == Z_IDLE:
        valid = n_q == n_u == 0
    else:
        valid = (n_q if position == Z_QUERY else n_u) >= 1
    if trigger >= DEPART_U:
        return valid and position == (Z_QUERY if trigger == DEPART_Q else Z_UPDATE)
    return valid


def _apply_counts(state: SchedulerState, trigger: Trigger) -> tuple:
    n_q, n_u = state.n_q, state.n_u
    if trigger is Trigger.ARRIVAL_QUERY:
        return n_q + 1, n_u
    if trigger is Trigger.ARRIVAL_UPDATE:
        return n_q, n_u + 1
    if trigger is Trigger.DEPARTURE_QUERY:
        return n_q - 1, n_u
    return n_q, n_u - 1


def thresholds(policy) -> tuple:
    """The (m, n) pair of a policy: the update queue's threshold m and the
    query queue's n. Query-k is (inf, k), Update-k is (k, inf) and FCFS,
    which never switches on a count, is (inf, inf)."""
    if isinstance(policy, QueryK):
        return UNBOUNDED, policy.k
    if isinstance(policy, UpdateK):
        return policy.k, UNBOUNDED
    if isinstance(policy, JointMN):
        return policy.m, policy.n
    if isinstance(policy, Fcfs):
        return UNBOUNDED, UNBOUNDED
    raise TypeError(f"unknown policy {policy!r}")


_POLICY_NAMES = {kind: name for name, kind in POLICY_TYPES.items()}


def policy_columns(policy) -> tuple:
    """(name, m, n, k) columns of a policy in the CSV."""
    return (_POLICY_NAMES[type(policy)],) + tuple(
        getattr(policy, key, None) for key in ("m", "n", "k"))


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
    if not _fires(state.position, state.n_q, state.n_u, trigger):
        raise InconsistentTrigger(f"{trigger.name} cannot fire from {state}")
    n_q, n_u = _apply_counts(state, trigger)
    if n_q and n_u and trigger >= Trigger.DEPARTURE_UPDATE and isinstance(policy, Fcfs):
        raise FcfsOrderUndetermined("both queues nonempty after an FCFS departure")
    return _decide_joint(*thresholds(policy), state, trigger, n_q, n_u)


class DecisionTable(NamedTuple):
    """`decide`'s post-event position for every (state, trigger).

    ``next_position`` is one read-only int8 array indexed ``[z, e, i, j]``:
    the position code, a `ServerPosition` value, after trigger ``e`` from
    position ``z`` with ``min(n_q, cap_q) = i`` and ``min(n_u, cap_u) = j``
    before the event. A count at or above its cap decides like the cap, so
    the table is exact for every count. An FCFS departure that leaves both
    queues nonempty holds `OLDER_HEAD`, and an invalid state or trigger
    `NO_POSITION`.
    """

    cap_q: int
    cap_u: int
    next_position: np.ndarray


def _cap(threshold) -> int:
    # decide only asks whether a post-event count is 0 or reaches the
    # threshold, and a departure lowers a count by one
    return 2 if threshold == UNBOUNDED else threshold + 2


def _table_entry(policy, state: SchedulerState, trigger: Trigger):
    if not _fires(state.position, state.n_q, state.n_u, trigger):
        return NO_POSITION
    try:
        return int(decide(policy, state, trigger).position)
    except FcfsOrderUndetermined:
        return OLDER_HEAD


@functools.lru_cache(maxsize=64)
def decision_table(policy) -> DecisionTable:
    """Call `decide` once on every state with counts up to the caps from
    which the trigger can fire; the other entries are `NO_POSITION`."""
    m, n = thresholds(policy)
    cap_q, cap_u = _cap(n), _cap(m)
    table = np.array([[[[_table_entry(policy, SchedulerState(i, j, position), trigger)
                         for j in range(cap_u + 1)]
                        for i in range(cap_q + 1)]
                       for trigger in Trigger]
                      for position in ServerPosition], np.int8)
    table.flags.writeable = False
    return DecisionTable(cap_q, cap_u, table)
