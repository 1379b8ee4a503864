import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from freshsched.model import (
    UNBOUNDED,
    Fcfs,
    JobClass,
    JobRecord,
    JointMN,
    ModelParams,
    NonFiniteRate,
    NonPositiveRate,
    QueryK,
    UpdateK,
    Unstable,
    stability_guard,
    validate_params,
)

rates = st.floats(min_value=1e-3, max_value=10.0, allow_nan=False)


class TestValidateParams:
    def test_basic_loads(self):
        p = validate_params(0.5, 1, 0.1, 1)
        assert p.rho_u == 0.5
        assert p.rho_q == 0.1
        assert p.rho == 0.6

    def test_zero_rate_rejected(self):
        with pytest.raises(NonPositiveRate):
            validate_params(0, 1, 0.1, 1)

    def test_negative_rate_rejected(self):
        with pytest.raises(NonPositiveRate):
            validate_params(0.5, 1, -0.1, 1)

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    def test_non_finite_rejected(self, bad):
        with pytest.raises(NonFiniteRate):
            validate_params(0.5, bad, 0.1, 1)

    def test_symmetric_third_loads(self):
        p = validate_params(1 / 3, 1, 1 / 3, 1)
        assert p.rho == pytest.approx(2 / 3, rel=1e-15)

    @given(lu=rates, mu=rates, lq=rates, mq=rates)
    def test_rho_is_sum_of_class_loads(self, lu, mu, lq, mq):
        p = validate_params(lu, mu, lq, mq)
        assert p.rho == pytest.approx(p.rho_u + p.rho_q, rel=1e-15)


class TestStabilityGuard:
    def test_stable_passes(self):
        stability_guard(validate_params(0.5, 1, 0.1, 1))

    def test_boundary_unstable(self):
        with pytest.raises(Unstable):
            stability_guard(ModelParams(0.5, 1.0, 0.5, 1.0))

    def test_overloaded_reports_rho(self):
        with pytest.raises(Unstable) as exc:
            stability_guard(validate_params(0.9, 1, 0.2, 1))
        assert exc.value.rho == pytest.approx(1.1)


class TestThresholdPolicies:
    def test_unbounded_is_math_inf(self):
        assert UNBOUNDED == math.inf
        assert repr(UNBOUNDED) == "inf"
        assert repr(QueryK(UNBOUNDED)) == "QueryK(k=inf)"

    @pytest.mark.parametrize("cls", [QueryK, UpdateK])
    def test_threshold_must_be_positive_int(self, cls):
        cls(1)
        cls(7)
        cls(UNBOUNDED)
        # any float infinity, not only the UNBOUNDED object itself
        assert cls(float("inf")) == cls(UNBOUNDED)
        for bad in (0, -1, 1.5, 3.0, "3", "inf", True, math.nan, -math.inf):
            with pytest.raises(ValueError):
                cls(bad)

    def test_joint_thresholds_checked(self):
        JointMN(1, 1)
        JointMN(UNBOUNDED, 2)
        JointMN(3, UNBOUNDED)
        JointMN(float("inf"), 2)
        for m, n in ((UNBOUNDED, UNBOUNDED), (float("inf"), UNBOUNDED), (0, 1),
                     (3.0, 2), (2, math.nan), (-math.inf, 2)):
            with pytest.raises(ValueError):
                JointMN(m, n)

    def test_policies_hashable_and_comparable(self):
        assert QueryK(3) == QueryK(3)
        assert QueryK(3) != UpdateK(3)
        assert len({Fcfs(), QueryK(2), UpdateK(2), JointMN(1, 2)}) == 4


class TestJobRecord:
    def test_system_time(self):
        job = JobRecord(JobClass.QUERY, 1.0, 0.5, 2.0)
        assert job.system_time == 1.0

    def test_incomplete_job_has_no_system_time(self):
        assert JobRecord(JobClass.UPDATE, 1.0, 0.5).system_time is None

    def test_completion_before_service_done_rejected(self):
        with pytest.raises(ValueError):
            JobRecord(JobClass.UPDATE, 1.0, 2.0, 2.5)

    def test_nonpositive_service_rejected(self):
        with pytest.raises(ValueError):
            JobRecord(JobClass.UPDATE, 1.0, 0.0)

    @given(arrival=st.floats(0, 100), service=st.floats(0.01, 10),
           wait=st.floats(0, 100))
    def test_completed_job_spans_at_least_its_service(self, arrival, service, wait):
        job = JobRecord(JobClass.QUERY, arrival, service, arrival + service + wait)
        # allow for float rounding in the summed completion time
        slack = 1e-12 * max(1.0, job.completion_time)
        assert job.completion_time - job.arrival_time >= job.service_requirement - slack
