import math
import statistics
import sys

import numpy as np
import pytest

from freshsched import simulator
from freshsched.model import (
    Fcfs,
    JobClass,
    JointMN,
    QueryK,
    ReplicationMetrics,
    UpdateK,
    validate_params,
)
from freshsched.simulator import (
    SimConfig,
    aggregate,
    draw_jobs,
    exponential_draws,
    littles_law_residual,
    run_replication,
    run_replication_detailed,
    unit_draws,
)

POLICIES = [Fcfs(), QueryK(3), UpdateK(3), JointMN(3, 3)]


class FixedStream:
    def __init__(self, value):
        self.value = value

    def random(self, size):
        return np.full(size, self.value)


class TestSampleExponential:
    def test_inverse_transform_identity(self):
        stream = FixedStream(math.exp(-1.0))
        assert exponential_draws(1.0, stream, 3) == pytest.approx([1.0] * 3, rel=1e-14)
        assert exponential_draws(2.0, stream, 1) == pytest.approx([0.5], rel=1e-14)

    def test_rejects_nonpositive_rate(self):
        with pytest.raises(ValueError):
            exponential_draws(0.0, FixedStream(0.5), 1)

    def test_zero_uniform_redrawn(self):
        class ZeroThenHalf:
            def __init__(self):
                self.sizes = []

            def random(self, size):
                self.sizes.append(size)
                return np.array([0.0] + [0.5] * (size - 1) if len(self.sizes) == 1
                                else [0.5] * size)

        stream = ZeroThenHalf()
        assert exponential_draws(1.0, stream, 3) == pytest.approx([math.log(2.0)] * 3)
        assert stream.sizes == [3, 1]

    def test_same_sequence_as_one_at_a_time_draws(self):
        # the scalar inverse transform with a redraw of u = 0, call by call
        stream = np.random.default_rng(7)
        expected = []
        for _ in range(5000):
            u = stream.random()
            while u <= 0.0:
                u = stream.random()
            expected.append(-math.log(u) / 0.37)
        assert exponential_draws(0.37, np.random.default_rng(7), 5000).tolist() == expected

    def test_running_sum_carried_into_a_second_block(self):
        # the first block of uniforms lies near 1, so its draws sum to less
        # than 0.1 and the epochs reach the horizon only in the second block
        class NearOneFirst:
            def __init__(self):
                self.rng = np.random.default_rng(11)
                self.blocks = []

            def random(self, size):
                u = self.rng.random(size)
                self.blocks.append(1.0 - u * 1e-3 if not self.blocks else u)
                return self.blocks[-1]

        rate, horizon = 1.0, 50.0
        stream = NearOneFirst()
        epochs = simulator._arrival_epochs(rate, simulator.UnitDraws(stream), horizon).tolist()
        assert len(stream.blocks) == 2
        expected, t = [], 0.0
        for u in np.concatenate(stream.blocks).tolist():
            t = t + -math.log(u) / rate
            expected.append(t)
            if t > horizon:
                break
        assert len(expected) > len(stream.blocks[0]) + 1
        assert epochs == expected
        assert epochs[-2] <= horizon < epochs[-1]

    def test_empirical_mean(self):
        n = 10 ** 6
        draws = exponential_draws(1.0, np.random.default_rng(0), n)
        assert len(draws) == n
        assert math.fsum(draws) / n == pytest.approx(1.0, abs=0.005)


class TestSimConfig:
    def test_warmup_must_precede_horizon(self):
        with pytest.raises(ValueError):
            SimConfig(horizon=10.0, warmup=10.0)
        with pytest.raises(ValueError):
            SimConfig(horizon=10.0, warmup=-1.0)

    def test_replications_positive(self):
        with pytest.raises(ValueError):
            SimConfig(horizon=10.0, replications=0)


class TestRunReplication:
    def setup_method(self):
        self.params = validate_params(0.5, 1, 0.1, 1)
        self.config = SimConfig(2000.0, 0.0, 4, 777)

    def test_rep_index_bounds(self):
        with pytest.raises(ValueError):
            run_replication(self.params, Fcfs(), self.config, 4)

    @pytest.mark.parametrize("policy", POLICIES)
    def test_deterministic_replay(self, policy):
        a = run_replication(self.params, policy, self.config, 1)
        b = run_replication(self.params, policy, self.config, 1)
        assert a == b

    def test_jobs_are_read_only_float_arrays(self):
        draw_jobs.cache_clear()
        jobs = draw_jobs(self.params, self.config, 0)
        assert len(jobs) == 4
        assert all(stream.dtype == np.float64 and not stream.flags.writeable for stream in jobs)
        with pytest.raises(ValueError):
            jobs[2][0] = 0.0
        # the service requirements are views of the unit draws, which every
        # rate of the replication reads
        assert not any(draws.values.flags.writeable
                       for draws in unit_draws(self.config.base_seed, 0))

    def test_shared_jobs_replay_a_fresh_draw(self):
        # Query-3 preempts updates first, so a write into the shared jobs or
        # into the unit draws under them would change what Update-3 then
        # reads from the memos; the replay draws both anew
        draw_jobs.cache_clear()
        unit_draws.cache_clear()
        run_replication(self.params, QueryK(3), self.config, 1)
        shared = run_replication_detailed(self.params, UpdateK(3), self.config, 1)
        assert draw_jobs.cache_info()[:2] == (1, 1)  # hits, misses
        assert unit_draws.cache_info()[:2] == (0, 1)
        draw_jobs.cache_clear()
        unit_draws.cache_clear()
        assert run_replication_detailed(self.params, UpdateK(3), self.config, 1) == shared

    def test_common_random_numbers_across_policies(self):
        arrivals = {}
        for policy in POLICIES:
            _, detail = run_replication_detailed(self.params, policy, self.config, 0)
            for cls in JobClass:
                times = sorted(j.arrival_time for j in detail.jobs
                               if j.job_class is cls)
                arrivals.setdefault(cls, []).append(times)
        for per_policy in arrivals.values():
            shortest = min(len(t) for t in per_policy)
            assert shortest > 50
            first = per_policy[0][:shortest]
            for other in per_policy[1:]:
                assert other[:shortest] == first

    @pytest.mark.parametrize("policy", POLICIES)
    def test_work_conservation(self, policy):
        _, detail = run_replication_detailed(self.params, policy, self.config, 2)
        served = detail.arrived_service - detail.residual_work
        assert detail.busy_time == pytest.approx(served, rel=1e-9)
        assert detail.completed_service <= detail.arrived_service + 1e-9

    @pytest.mark.parametrize("policy", POLICIES)
    def test_per_sample_peak_age_identity(self, policy):
        _, detail = run_replication_detailed(self.params, policy, self.config, 0)
        updates = sorted((j for j in detail.jobs if j.job_class is JobClass.UPDATE),
                         key=lambda j: j.arrival_time)
        previous_arrival = 0.0
        rebuilt = []
        for job in updates:
            inter_arrival = job.arrival_time - previous_arrival
            rebuilt.append(inter_arrival + job.system_time)
            previous_arrival = job.arrival_time
        assert rebuilt == detail.paoi_samples  # bitwise, same float operations

    @pytest.mark.parametrize("policy", POLICIES)
    def test_age_integral_from_interarrival_and_system_times(self, policy):
        # sample-path identity (Kaul, Yates & Gruteser, INFOCOM 2012): with
        # every update delivered in arrival order, the age area up to H is
        # sum(Y_i T_i + Y_i^2 / 2) + (H - g_N)^2 / 2, Y_i the interarrival time
        # before update i, T_i its system time, g_N the last delivered arrival
        metrics, detail = run_replication_detailed(self.params, policy, self.config, 0)
        updates = sorted((j for j in detail.jobs if j.job_class is JobClass.UPDATE),
                         key=lambda j: j.arrival_time)
        terms, previous = [], 0.0
        for job in updates:
            y = job.arrival_time - previous
            terms.append(y * job.system_time + y * y / 2)
            previous = job.arrival_time
        horizon = self.config.horizon
        terms.append((horizon - previous) ** 2 / 2)
        assert math.fsum(terms) == pytest.approx(metrics.mean_aoi * horizon, rel=1e-12)

    @pytest.mark.parametrize("policy", POLICIES)
    def test_peak_age_dominates_average_age(self, policy):
        for rep in range(4):
            m = run_replication(self.params, policy, self.config, rep)
            assert m.mean_paoi >= m.mean_aoi

    @pytest.mark.parametrize("policy", POLICIES)
    def test_completions_respect_service_requirement(self, policy):
        _, detail = run_replication_detailed(self.params, policy, self.config, 3)
        for job in detail.jobs:
            assert job.completion_time >= \
                job.arrival_time + job.service_requirement - 1e-9

    def test_update_only_system_peak_age(self):
        # with queries nearly absent every policy is a single FIFO update queue:
        # mean peak age -> 1/lambda_u + 1/(mu_u - lambda_u) = 4.0
        params = validate_params(0.5, 1, 1e-9, 1)
        config = SimConfig(20000.0, 0.0, 10, 4242)
        runs = [run_replication(params, Fcfs(), config, rep) for rep in range(10)]
        mean = aggregate(runs)["paoi"].mean
        assert mean == pytest.approx(4.0, rel=0.05)

    def test_golden_values(self):
        # recorded from the per-event simulator with job objects that the
        # array loop replaced; == pins the random stream and every sum's order
        params = validate_params(0.4, 1, 0.3, 1)
        config = SimConfig(3000.0, 300.0, 3, 2024)
        golden = {
            Fcfs(): ReplicationMetrics(
                3.3104831173503153, 5.9632392334157185, 5.192646249104696,
                0.9955552865460514, 1.3812267635466027, 3.4623693984290824, 816, 1079, 2700.0),
            QueryK(3): ReplicationMetrics(
                2.6304552205982494, 6.406489154788052, 5.51414234697934,
                0.7940163032877415, 1.5562699091606804, 3.904979725391907, 816, 1080, 2700.0),
            UpdateK(3): ReplicationMetrics(
                4.591641850184292, 5.030810122019088, 4.531256091266293,
                1.382749925802542, 1.0086004631032828, 2.5299402870324514, 816, 1079, 2700.0),
            JointMN(3, 3): ReplicationMetrics(
                3.6732366441815674, 5.731980498251472, 4.983717066347194,
                1.1091680224151443, 1.2864664465460476, 3.2304710688553273, 816, 1080, 2700.0),
        }
        for policy, expected in golden.items():
            assert run_replication(params, policy, config, 2) == expected, policy

    def test_empty_window_reports_missing_metrics(self):
        params = validate_params(1e-6, 1, 1e-6, 1)
        m = run_replication(params, Fcfs(), SimConfig(0.01, 0.0, 1, 1), 0)
        assert m.mean_response_time is None
        assert m.mean_paoi is None
        assert m.completed_queries == 0 and m.completed_updates == 0
        assert m.mean_nq == 0.0 and m.mean_nu == 0.0


class TestAggregate:
    def run(self, value):
        return ReplicationMetrics(value, value, value, value, value, value, 1, 1, 10.0)

    def test_identical_runs(self):
        stats = aggregate([self.run(2.0)] * 5)
        assert stats["paoi"].mean == 2.0
        assert stats["paoi"].half_width == 0.0

    def test_two_runs(self):
        stats = aggregate([self.run(2.0), self.run(4.0)])
        assert stats["response_time"].mean == pytest.approx(3.0)
        assert stats["response_time"].stddev == pytest.approx(math.sqrt(2.0))
        assert stats["response_time"].half_width == pytest.approx(
            1.96 * math.sqrt(2.0) / math.sqrt(2.0))

    def test_single_run_has_no_half_width(self):
        stats = aggregate([self.run(2.0)])
        assert stats["aoi"].half_width is None
        assert stats["aoi"].n == 1

    def test_missing_metric_counts(self):
        with_none = ReplicationMetrics(None, 1.0, 1.0, 0.0, 1.0, 1.0, 0, 1, 10.0)
        stats = aggregate([with_none, self.run(2.0)])
        assert stats["response_time"].n == 1
        assert stats["paoi"].n == 2

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            aggregate([])

    @pytest.mark.skipif(sys.version_info < (3, 11),
                        reason="statistics.stdev is correctly rounded from Python 3.11 on")
    @pytest.mark.parametrize("seed, kind", enumerate(["exponential", "equal", "subnormal",
                                                      "1e300", "2**-52-grid"]))
    def test_stddev_and_mean_are_those_of_statistics(self, seed, kind):
        # both are correctly rounded, so each has one value
        rng = np.random.default_rng(seed)
        for n in range(2, 31):
            if kind == "exponential":
                values = rng.exponential(size=n)
            elif kind == "equal":
                values = np.zeros(n)
            elif kind == "subnormal":
                values = rng.integers(0, 2 ** 20, n) * 5e-324
            elif kind == "1e300":
                values = rng.uniform(0.5, 1.5, n) * 1e300
            else:
                values = 1.0 + rng.integers(0, 2 ** 10, n) * 2.0 ** -52
            values = values.tolist()
            stats = aggregate([self.run(value) for value in values])["paoi"]
            assert stats.stddev == statistics.stdev(values), values
            assert stats.mean == statistics.fmean(values), values

    @pytest.mark.parametrize("value", [math.inf, math.nan])
    def test_a_non_finite_mean_raises(self, value):
        with pytest.raises((OverflowError, ValueError)):
            aggregate([self.run(1.0), self.run(value)])


class TestLittlesLaw:
    def test_zero_traffic_class(self):
        m = ReplicationMetrics(None, 4.0, 3.0, 0.0, 1.0, 2.0, 0, 5, 10.0)
        res_q, res_u = littles_law_residual(m, validate_params(0.5, 1, 0.1, 1))
        assert res_q == 0.0
        assert res_u == pytest.approx(abs(1.0 - 0.5 * 2.0) / 1.0)

    @pytest.mark.parametrize("policy", POLICIES)
    def test_long_run_residuals_small(self, policy):
        params = validate_params(0.5, 1, 0.1, 1)
        config = SimConfig(20000.0, 0.0, 1, 2024)
        m = run_replication(params, policy, config, 0)
        res_q, res_u = littles_law_residual(m, params)
        assert res_q < 0.03 and res_u < 0.03
