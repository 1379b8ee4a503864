import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from freshsched.model import UNBOUNDED, Fcfs, JointMN, QueryK, UpdateK
from freshsched.policy import (
    ARRIVE_Q,
    ARRIVE_U,
    DEPART_Q,
    DEPART_U,
    NO_POSITION,
    OLDER_HEAD,
    Z_IDLE,
    Z_QUERY,
    Z_UPDATE,
    FcfsOrderUndetermined,
    InconsistentTrigger,
    SchedulerState,
    ServerPosition,
    Trigger,
    decide,
    decision_table,
    initial_state,
)

SQ = ServerPosition.SERVING_QUERY
SU = ServerPosition.SERVING_UPDATE
IDLE = ServerPosition.IDLE

ALL_POLICIES = [Fcfs(), QueryK(1), QueryK(3), UpdateK(1), UpdateK(3),
                JointMN(2, 2), QueryK(UNBOUNDED), UpdateK(UNBOUNDED)]


def valid_triggers(state):
    """Triggers consistent with a state (arrivals always, matching departure)."""
    triggers = [Trigger.ARRIVAL_QUERY, Trigger.ARRIVAL_UPDATE]
    if state.position is SQ:
        triggers.append(Trigger.DEPARTURE_QUERY)
    elif state.position is SU:
        triggers.append(Trigger.DEPARTURE_UPDATE)
    return triggers


class TestInitialState:
    def test_empty_idle(self):
        assert initial_state() == SchedulerState(0, 0, IDLE)

    @pytest.mark.parametrize("policy", ALL_POLICIES)
    def test_first_query_arrival_starts_service(self, policy):
        post = decide(policy, initial_state(), Trigger.ARRIVAL_QUERY)
        assert post.position is SQ and post.n_q == 1

    @pytest.mark.parametrize("policy", ALL_POLICIES)
    def test_first_update_arrival_starts_service(self, policy):
        post = decide(policy, initial_state(), Trigger.ARRIVAL_UPDATE)
        assert post.position is SU and post.n_u == 1


class TestTriggerConsistency:
    def test_departure_while_idle_rejected(self):
        with pytest.raises(InconsistentTrigger):
            decide(Fcfs(), initial_state(), Trigger.DEPARTURE_QUERY)

    def test_departure_from_wrong_position_rejected(self):
        state = SchedulerState(1, 1, SU)
        with pytest.raises(InconsistentTrigger):
            decide(QueryK(3), state, Trigger.DEPARTURE_QUERY)

    def test_invalid_state_rejected(self):
        with pytest.raises(InconsistentTrigger):
            decide(QueryK(3), SchedulerState(0, 0, SQ), Trigger.ARRIVAL_QUERY)
        with pytest.raises(InconsistentTrigger):
            decide(QueryK(3), SchedulerState(1, 0, IDLE), Trigger.ARRIVAL_QUERY)


class TestQueryK:
    def test_threshold_arrival_triggers_switch(self):
        # serving updates with 2 queries waiting; the third query arrival
        # reaches k=3 and flips the server into the emptying phase
        state = SchedulerState(2, 5, SU)
        post = decide(QueryK(3), state, Trigger.ARRIVAL_QUERY)
        assert post == SchedulerState(3, 5, SQ)

    def test_update_queue_emptying_triggers_switch(self):
        state = SchedulerState(1, 1, SU)
        post = decide(QueryK(3), state, Trigger.DEPARTURE_UPDATE)
        assert post == SchedulerState(1, 0, SQ)

    def test_below_threshold_keeps_serving_updates(self):
        state = SchedulerState(1, 5, SU)
        post = decide(QueryK(3), state, Trigger.ARRIVAL_QUERY)
        assert post == SchedulerState(2, 5, SU)

    def test_emptying_is_exhaustive_over_new_arrivals(self):
        # a query arriving during the emptying phase is also served before
        # the server returns to the update queue
        state = SchedulerState(1, 5, SQ)
        post = decide(QueryK(3), state, Trigger.ARRIVAL_QUERY)
        assert post.position is SQ
        post2 = decide(QueryK(3), SchedulerState(2, 5, SQ), Trigger.DEPARTURE_QUERY)
        assert post2.position is SQ

    def test_query_queue_exhaustion_returns_to_updates(self):
        post = decide(QueryK(3), SchedulerState(1, 5, SQ), Trigger.DEPARTURE_QUERY)
        assert post == SchedulerState(0, 5, SU)

    def test_total_exhaustion_goes_idle(self):
        post = decide(QueryK(3), SchedulerState(1, 0, SQ), Trigger.DEPARTURE_QUERY)
        assert post == SchedulerState(0, 0, IDLE)


class TestUpdateK:
    def test_mirror_threshold_switch(self):
        state = SchedulerState(5, 2, SQ)
        post = decide(UpdateK(3), state, Trigger.ARRIVAL_UPDATE)
        assert post == SchedulerState(5, 3, SU)

    def test_query_queue_emptying_triggers_switch(self):
        post = decide(UpdateK(3), SchedulerState(1, 1, SQ), Trigger.DEPARTURE_QUERY)
        assert post == SchedulerState(0, 1, SU)


class TestCodes:
    def test_positions_and_triggers_are_the_table_codes(self):
        assert (int(IDLE), int(SQ), int(SU)) == (Z_IDLE, Z_QUERY, Z_UPDATE) == (0, 1, 2)
        assert tuple(map(int, Trigger)) == (ARRIVE_U, ARRIVE_Q, DEPART_U, DEPART_Q) \
            == (0, 1, 2, 3)
        for code in (Z_IDLE, Z_QUERY, Z_UPDATE, ARRIVE_U, ARRIVE_Q, DEPART_U, DEPART_Q):
            assert type(code) is int


class TestFcfs:
    def test_is_the_threshold_rule_without_thresholds(self):
        # FCFS decides like Query-inf wherever the counts determine the next
        # job, and raises only after a departure that leaves both queues busy
        undetermined = 0
        for state in enumerate_states(10):
            for trigger in valid_triggers(state):
                expected = decide(QueryK(UNBOUNDED), state, trigger)
                try:
                    post = decide(Fcfs(), state, trigger)
                except FcfsOrderUndetermined:
                    assert trigger in (Trigger.DEPARTURE_QUERY, Trigger.DEPARTURE_UPDATE)
                    assert expected.n_q and expected.n_u
                    undetermined += 1
                    continue
                assert post == expected, (state, trigger)
        assert undetermined > 0

    def test_departure_with_one_queue_left(self):
        post = decide(Fcfs(), SchedulerState(0, 2, SU), Trigger.DEPARTURE_UPDATE)
        assert post == SchedulerState(0, 1, SU)

    def test_departure_emptying_system(self):
        post = decide(Fcfs(), SchedulerState(1, 0, SQ), Trigger.DEPARTURE_QUERY)
        assert post == SchedulerState(0, 0, IDLE)

    def test_order_undetermined_with_both_queues(self):
        with pytest.raises(FcfsOrderUndetermined):
            decide(Fcfs(), SchedulerState(1, 2, SU), Trigger.DEPARTURE_UPDATE)

    def test_arrival_never_preempts(self):
        post = decide(Fcfs(), SchedulerState(0, 1, SU), Trigger.ARRIVAL_QUERY)
        assert post.position is SU


class TestJointMN:
    def test_both_thresholds_serve_arriving_class(self):
        state = SchedulerState(1, 2, SU)
        post = decide(JointMN(2, 2), state, Trigger.ARRIVAL_QUERY)
        assert post == SchedulerState(2, 2, SQ)
        state = SchedulerState(2, 1, SQ)
        post = decide(JointMN(2, 2), state, Trigger.ARRIVAL_UPDATE)
        assert post == SchedulerState(2, 2, SU)

    def test_single_threshold_forces_switch(self):
        post = decide(JointMN(2, 5), SchedulerState(0, 1, SU),
                      Trigger.ARRIVAL_UPDATE)
        assert post.position is SU
        post = decide(JointMN(5, 2), SchedulerState(1, 1, SU),
                      Trigger.ARRIVAL_QUERY)
        assert post == SchedulerState(2, 1, SQ)

    def test_departure_keeps_position_when_both_thresholds_hold(self):
        post = decide(JointMN(1, 1), SchedulerState(2, 2, SQ),
                      Trigger.DEPARTURE_QUERY)
        assert post.position is SQ

    def test_no_threshold_keeps_current_queue(self):
        post = decide(JointMN(5, 5), SchedulerState(1, 1, SU),
                      Trigger.ARRIVAL_QUERY)
        assert post.position is SU

    def test_current_queue_empty_moves_to_other(self):
        post = decide(JointMN(5, 5), SchedulerState(2, 1, SU),
                      Trigger.DEPARTURE_UPDATE)
        assert post == SchedulerState(2, 0, SQ)


def enumerate_states(limit=10):
    for n_q in range(limit + 1):
        for n_u in range(limit + 1):
            for pos in (SQ, SU, IDLE):
                if pos is SQ and n_q == 0:
                    continue
                if pos is SU and n_u == 0:
                    continue
                if pos is IDLE and (n_q or n_u):
                    continue
                yield SchedulerState(n_q, n_u, pos)


class TestPriorityEquivalence:
    def test_query1_is_preemptive_query_priority(self):
        # with k=1 the server is with the query queue whenever one is present
        for state in enumerate_states(10):
            for trigger in valid_triggers(state):
                try:
                    post = decide(QueryK(1), state, trigger)
                except FcfsOrderUndetermined:  # pragma: no cover
                    raise
                if post.n_q >= 1:
                    assert post.position is SQ, (state, trigger, post)
                elif post.n_u >= 1:
                    assert post.position is SU
                else:
                    assert post.position is IDLE

    def test_update1_is_class_swapped_query1(self):
        swap_pos = {SQ: SU, SU: SQ, IDLE: IDLE}
        swap_trig = {Trigger.ARRIVAL_QUERY: Trigger.ARRIVAL_UPDATE,
                     Trigger.ARRIVAL_UPDATE: Trigger.ARRIVAL_QUERY,
                     Trigger.DEPARTURE_QUERY: Trigger.DEPARTURE_UPDATE,
                     Trigger.DEPARTURE_UPDATE: Trigger.DEPARTURE_QUERY}
        for state in enumerate_states(10):
            mirrored = SchedulerState(state.n_u, state.n_q, swap_pos[state.position])
            for trigger in valid_triggers(state):
                post = decide(QueryK(1), state, trigger)
                mirror_post = decide(UpdateK(1), mirrored, swap_trig[trigger])
                assert mirror_post == SchedulerState(post.n_u, post.n_q, swap_pos[post.position])


@given(st.lists(st.integers(min_value=0, max_value=2 ** 31), max_size=200))
def test_unbounded_query_and_update_policies_coincide(choices):
    # both degenerate to exhaustive service of whichever queue holds the server
    state_q = state_u = initial_state()
    for choice in choices:
        triggers = valid_triggers(state_q)
        trigger = triggers[choice % len(triggers)]
        state_q = decide(QueryK(UNBOUNDED), state_q, trigger)
        state_u = decide(UpdateK(UNBOUNDED), state_u, trigger)
        assert (state_q.n_q, state_q.n_u, state_q.position) == \
            (state_u.n_q, state_u.n_u, state_u.position)


@pytest.mark.parametrize("policy", [p for p in ALL_POLICIES if not isinstance(p, Fcfs)])
@given(choices=st.lists(st.integers(min_value=0, max_value=2 ** 31), max_size=200))
def test_non_idling_random_walk(policy, choices):
    state = initial_state()
    for choice in choices:
        triggers = valid_triggers(state)
        state = decide(policy, state, triggers[choice % len(triggers)])
        if state.position is IDLE:
            assert state.n_q == 0 and state.n_u == 0
        else:
            assert state.n_q > 0 or state.n_u > 0
        if state.n_q == 0 and state.n_u == 0:
            assert state.position is IDLE


def assert_same_table(a, b):
    assert (a.cap_q, a.cap_u) == (b.cap_q, b.cap_u)
    assert np.array_equal(a.next_position, b.next_position)


def table_from_decide(policy, cap_q, cap_u):
    """The decision table as `decide` alone gives it: `decide` on every
    entry, a raised InconsistentTrigger read as NO_POSITION and an
    FcfsOrderUndetermined as OLDER_HEAD."""
    def entry(state, trigger):
        try:
            return int(decide(policy, state, trigger).position)
        except InconsistentTrigger:
            return NO_POSITION
        except FcfsOrderUndetermined:
            return OLDER_HEAD
    return [[[[entry(SchedulerState(i, j, position), trigger) for j in range(cap_u + 1)]
              for i in range(cap_q + 1)]
             for trigger in Trigger]
            for position in ServerPosition]


class TestDecisionTable:
    @pytest.mark.parametrize("policy", [
        Fcfs(), QueryK(1), QueryK(3), QueryK(UNBOUNDED), UpdateK(1), UpdateK(3),
        UpdateK(UNBOUNDED), JointMN(3, 3), JointMN(1, 5), JointMN(UNBOUNDED, 2)])
    def test_agrees_with_decide_beyond_the_caps(self, policy):
        cap_q, cap_u, table = decision_table(policy)
        checked = 0
        for state in enumerate_states(max(cap_q, cap_u) + 3):
            if state.n_q > cap_q + 3 or state.n_u > cap_u + 3:
                continue
            for trigger in valid_triggers(state):
                entry = table[state.position][trigger][
                    min(state.n_q, cap_q)][min(state.n_u, cap_u)]
                try:
                    post = decide(policy, state, trigger)
                except FcfsOrderUndetermined:
                    assert isinstance(policy, Fcfs)
                    assert entry == OLDER_HEAD
                    continue
                assert entry == post.position, (state, trigger)
                checked += 1
        assert checked > 50

    @pytest.mark.parametrize("policy", [
        Fcfs(), QueryK(1), QueryK(3), QueryK(UNBOUNDED), UpdateK(1), UpdateK(3),
        UpdateK(UNBOUNDED), JointMN(1, 1), JointMN(3, 3), JointMN(1, 5), JointMN(6, 2),
        JointMN(UNBOUNDED, 2), JointMN(4, UNBOUNDED)], ids=str)
    def test_is_the_table_that_decide_builds(self, policy):
        # the invalid entries come from a validity test, the others from
        # `decide`; the reference asks `decide` for every entry
        cap_q, cap_u, table = decision_table(policy)
        assert table.tolist() == table_from_decide(policy, cap_q, cap_u)
        # and the entries that hold no position are the states and triggers
        # that `enumerate_states` and `valid_triggers` leave out
        valid = set(enumerate_states(max(cap_q, cap_u)))
        for z, e, i, j in np.ndindex(table.shape):
            state = SchedulerState(i, j, ServerPosition(z))
            fires = state in valid and Trigger(e) in valid_triggers(state)
            assert (table[z, e, i, j] != NO_POSITION) == fires, (state, Trigger(e))

    def test_invalid_entries_are_empty(self):
        _, _, table = decision_table(QueryK(3))
        assert table[IDLE][Trigger.DEPARTURE_QUERY][0][0] == NO_POSITION
        assert table[SQ][Trigger.DEPARTURE_QUERY][0][1] == NO_POSITION  # no query present

    def test_entries_are_plain_int_codes(self):
        # the C loop reads the array as int8 codes, and no one may write to it
        codes = {*map(int, ServerPosition), OLDER_HEAD, NO_POSITION}
        for policy in ALL_POLICIES:
            table = decision_table(policy).next_position
            assert table.dtype == np.int8
            assert not table.flags.writeable
            assert set(np.unique(table).tolist()) <= codes

    @pytest.mark.parametrize("k", [1, 3, 12])
    def test_single_threshold_policies_are_joint_policies(self, k):
        # Query-k is Joint-(inf, k) and Update-k is Joint-(k, inf)
        assert_same_table(decision_table(QueryK(k)), decision_table(JointMN(UNBOUNDED, k)))
        assert_same_table(decision_table(UpdateK(k)), decision_table(JointMN(k, UNBOUNDED)))

    def test_unbounded_query_and_update_tables_coincide(self):
        assert_same_table(decision_table(QueryK(UNBOUNDED)), decision_table(UpdateK(UNBOUNDED)))
