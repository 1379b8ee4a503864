import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from freshsched import ctmc
from freshsched.analytic import (
    conservation_rhs,
    fcfs_metrics,
    joint_mn_metrics,
    paoi_from_update_system_time,
    priority_system_time,
    query1_metrics,
    query_k_metrics,
    update1_metrics,
    update_k_metrics,
)
from freshsched.model import UNBOUNDED, JobClass, JointMN, Unstable, validate_params
from freshsched.simulator import SimConfig, aggregate, run_replication


def params(lu, lq, mu=1.0, mq=1.0):
    return validate_params(lu, mu, lq, mq)


class TestFcfs:
    def test_moderate_load_point(self):
        r = fcfs_metrics(params(0.5, 0.1))
        assert r.expected_response_time == pytest.approx(2.5, abs=1e-12)
        assert r.expected_paoi == pytest.approx(4.5, abs=1e-12)
        assert r.expected_nq == pytest.approx(0.25, abs=1e-12)
        assert r.expected_nu == pytest.approx(1.25, abs=1e-12)

    def test_high_update_load_point(self):
        r = fcfs_metrics(params(0.8, 0.1))
        assert r.expected_response_time == pytest.approx(10.0, abs=1e-9)
        assert r.expected_paoi == pytest.approx(11.25, abs=1e-9)

    def test_vanishing_update_load_reduces_to_single_queue_sojourn(self):
        r = fcfs_metrics(params(1e-12, 0.5))
        assert r.expected_response_time == pytest.approx(1.0 / (1.0 - 0.5), rel=1e-6)

    def test_unstable_rejected(self):
        with pytest.raises(Unstable):
            fcfs_metrics(params(0.8, 0.3))


class TestPrioritySystemTime:
    def test_first_class_query(self):
        t = priority_system_time(params(0.8, 0.1),
                                 (JobClass.QUERY, JobClass.UPDATE), 1)
        assert t == pytest.approx(1.0 + 0.1 / 0.9, rel=1e-12)

    def test_second_class_update(self):
        t = priority_system_time(params(0.8, 0.1),
                                 (JobClass.QUERY, JobClass.UPDATE), 2)
        assert t == pytest.approx(1.0 / 0.9 + 0.9 / (0.9 * 0.1), rel=1e-12)

    def test_single_class_limit_is_single_queue_sojourn(self):
        t = priority_system_time(params(0.5, 1e-12),
                                 (JobClass.UPDATE, JobClass.QUERY), 1)
        assert t == pytest.approx(1.0 / (1.0 - 0.5), rel=1e-6)

    def test_index_out_of_range(self):
        with pytest.raises(ValueError):
            priority_system_time(params(0.5, 0.1),
                                 (JobClass.QUERY, JobClass.UPDATE), 3)

    def test_saturated_class_unstable(self):
        with pytest.raises(Unstable):
            priority_system_time(params(0.95, 0.1),
                                 (JobClass.QUERY, JobClass.UPDATE), 2)


class TestQuery1:
    def test_high_update_load_point(self):
        r = query1_metrics(params(0.8, 0.1))
        assert r.expected_response_time == pytest.approx(1.1111, abs=5e-5)
        assert r.expected_paoi == pytest.approx(12.3611, abs=5e-5)

    def test_response_time_independent_of_update_rate(self):
        low = query1_metrics(params(0.1, 0.1)).expected_response_time
        high = query1_metrics(params(0.85, 0.1)).expected_response_time
        assert low == pytest.approx(high, rel=1e-12)

    def test_vanishing_query_load_gives_single_queue_peak_age(self):
        lu = 0.5
        r = query1_metrics(params(lu, 1e-12))
        expected = 1.0 / lu + 1.0 + (lu / 1.0) / (1.0 - lu)
        assert r.expected_paoi == pytest.approx(expected, rel=1e-6)


class TestUpdate1:
    def test_peak_age_ignores_query_rate(self):
        a1 = update1_metrics(params(1 / 3, 0.1)).expected_paoi
        a2 = update1_metrics(params(1 / 3, 0.5)).expected_paoi
        assert a1 == pytest.approx(4.5, abs=1e-9)
        assert a2 == pytest.approx(4.5, abs=1e-9)

    def test_query_response_as_second_class(self):
        r = update1_metrics(params(0.1, 0.5))
        assert r.expected_response_time == pytest.approx(
            1.0 / 0.9 + 0.6 / (0.9 * 0.4), rel=1e-9)  # 2.7778

    def test_vanishing_update_load_gives_single_queue_response(self):
        r = update1_metrics(params(1e-12, 0.5))
        assert r.expected_response_time == pytest.approx(2.0, rel=1e-6)


class TestConservationRhs:
    def test_reference_points(self):
        assert conservation_rhs(params(0.5, 0.1)) == pytest.approx(1.5, abs=1e-12)
        assert conservation_rhs(params(1 / 3, 1 / 3)) == pytest.approx(2.0, abs=1e-12)

    def test_vanishing_traffic(self):
        assert conservation_rhs(params(1e-9, 1e-9)) == pytest.approx(0.0, abs=1e-8)

    def test_closed_forms_satisfy_conservation(self):
        for point in (params(0.5, 0.1), params(1 / 3, 1 / 3), params(0.8, 0.1)):
            rhs = conservation_rhs(point)
            for result in (fcfs_metrics(point), query1_metrics(point),
                           update1_metrics(point)):
                lhs = result.expected_nq / point.mu_q + result.expected_nu / point.mu_u
                assert lhs == pytest.approx(rhs, rel=1e-10)


class TestPaoiIdentity:
    def test_direct_evaluation(self):
        p = params(0.5, 0.1)
        assert paoi_from_update_system_time(p, 2.5) == pytest.approx(4.5)
        assert paoi_from_update_system_time(params(1.0, 0.1), 1.0) == pytest.approx(2.0)

    @settings(deadline=None)
    @given(lu=st.floats(0.05, 0.45), lq=st.floats(0.05, 0.45))
    def test_every_result_satisfies_the_peak_age_decomposition(self, lu, lq):
        p = params(lu, lq)
        for result in (fcfs_metrics(p), query1_metrics(p), update1_metrics(p)):
            assert result.expected_paoi == \
                1.0 / p.lambda_u + result.expected_update_system_time


class TestThresholdChainMetrics:
    def test_unstable_rejected(self):
        with pytest.raises(Unstable):
            query_k_metrics(params(0.8, 0.3), 3)

    def test_k1_matches_priority_closed_form(self):
        p = params(0.5, 0.1)
        chain = query_k_metrics(p, 1)
        exact = query1_metrics(p)
        assert chain.expected_response_time == pytest.approx(
            exact.expected_response_time, rel=1e-6)
        assert chain.expected_paoi == pytest.approx(exact.expected_paoi, rel=1e-6)

    def test_conservation_gap_small(self):
        r = query_k_metrics(params(0.5, 0.1), 3)
        assert r.conservation_gap < 1e-6
        assert r.tail_mass < 1e-8
        r = update_k_metrics(params(0.5, 0.1), 3)
        assert r.conservation_gap < 1e-6

    def test_class_swap_symmetry(self):
        for (lu, lq), k in (((0.4, 0.2), 2), ((0.85, 0.1), 1)):
            q = query_k_metrics(params(lu, lq, 1.0, 1.0), k)
            u = update_k_metrics(params(lq, lu, 1.0, 1.0), k)
            assert u.expected_nu == pytest.approx(q.expected_nq, rel=1e-8)
            assert u.expected_nq == pytest.approx(q.expected_nu, rel=1e-8)
            # the automatic truncation grows the mirrored sides
            assert u.truncation == q.truncation[::-1]
            assert u.n_states == q.n_states

    def test_two_sided_truncation_grows_only_the_long_queue(self):
        p = params(0.85, 0.1)
        chain = query_k_metrics(p, 1)
        exact = query1_metrics(p)
        assert chain.expected_response_time == pytest.approx(
            exact.expected_response_time, rel=1e-6)
        assert chain.expected_paoi == pytest.approx(exact.expected_paoi, rel=1e-6)
        assert chain.tail_mass < 1e-8
        c_q, c_u = chain.truncation
        assert c_q < c_u
        assert chain.n_states < 20000

    def test_explicit_truncation_sets_both_sides(self):
        r = query_k_metrics(params(0.5, 0.1), 3, truncation=48)
        assert r.truncation == (48, 48)
        assert r.n_states > 48 * 48

    def test_growth_past_state_cap_raises(self, monkeypatch):
        # (0.85, 0.1) starts at 16 x 160 and needs 16 x 320
        monkeypatch.setattr(ctmc, "MAX_STATES", 16 * 160)
        with pytest.raises(ctmc.NoConvergence, match="tail mass"):
            query_k_metrics(params(0.85, 0.1), 1)


class TestJointChain:
    def test_joint_inf_k_is_query_k(self):
        p = params(0.5, 0.1)
        joint = joint_mn_metrics(p, UNBOUNDED, 3)
        assert dataclasses.replace(joint, policy="query-k") == query_k_metrics(p, 3)
        joint = joint_mn_metrics(p, 3, UNBOUNDED)
        assert dataclasses.replace(joint, policy="update-k") == update_k_metrics(p, 3)

    def test_unbounded_query_k_is_unbounded_update_k(self):
        p = params(0.5, 0.1)
        q = query_k_metrics(p, UNBOUNDED)
        u = update_k_metrics(p, UNBOUNDED)
        assert dataclasses.replace(u, policy="query-k") == q
        assert q.tail_mass < 1e-8

    @pytest.mark.parametrize("m, n", [(3, 3), (1, 5)])
    def test_joint_chain_conserves_work_and_matches_simulation(self, m, n):
        p = params(1 / 3, 1 / 3)
        chain = joint_mn_metrics(p, m, n)
        assert chain.conservation_gap / chain.expected_nu < 1e-9
        assert chain.tail_mass < 1e-8
        sim = SimConfig(20000, 0.0, 10, 1)
        stats = aggregate([run_replication(p, JointMN(m, n), sim, rep) for rep in range(10)])
        for metric, value in (("response_time", chain.expected_response_time),
                              ("paoi", chain.expected_paoi),
                              ("nq", chain.expected_nq), ("nu", chain.expected_nu)):
            st = stats[metric]
            assert abs(st.mean - value) <= 2 * st.half_width, (metric, st, value)
