"""The simulator's sums against the scalar loop of `reference_simulator`: the
occupancy integrals, the busy time, the age, the peak-age samples and the
system times, on drawn jobs and on hand-built ones whose values are worked
out by hand. `test_event_loop` runs the hand-built cases on both loops.
"""
import dataclasses

import numpy as np
import pytest
from reference_simulator import reference_replication

from freshsched import simulator
from freshsched.model import Fcfs, JointMN, QueryK, UpdateK, validate_params
from freshsched.simulator import SimConfig, run_replication, run_replication_detailed

# Joint-(1, 1) switches on nearly every arrival
POLICIES = [Fcfs(), QueryK(1), QueryK(3), UpdateK(1), UpdateK(3), JointMN(3, 3), JointMN(1, 5),
            JointMN(1, 1)]
# (lambda_u, lambda_q, mu_u, mu_q): rho = 0.6, 0.9, 0.95 and 0.95 at unit
# service rates, then rho = 0.9 with queries served twice as fast
LOADS = [(0.3, 0.3, 1, 1), (0.45, 0.45, 1, 1), (0.85, 0.1, 1, 1), (0.1, 0.85, 1, 1),
         (0.6, 0.6, 1, 2)]


def load_id(rates):
    lambda_u, lambda_q, mu_u, mu_q = rates
    return f"{lambda_u}-{lambda_q}" + ("" if mu_u == mu_q == 1 else f"-mu-{mu_u}-{mu_q}")


def assert_same_run(params, policy, config, rep):
    metrics, detail = run_replication_detailed(params, policy, config, rep)
    expected, expected_detail = reference_replication(params, policy, config, rep)
    assert run_replication(params, policy, config, rep) == metrics
    assert detail == expected_detail
    # the age areas square as x * x, the reference as x ** 2, which calls
    # libm's pow; pow is not correctly rounded on every input, so the age
    # integral may differ from the reference's in its last bits
    assert metrics.mean_aoi == pytest.approx(expected.mean_aoi, rel=1e-13, abs=0.0)
    assert dataclasses.replace(metrics, mean_aoi=expected.mean_aoi) == expected
    return metrics, detail, expected


@pytest.mark.parametrize("warmup", [0.0, 300.0])
@pytest.mark.parametrize("rates", LOADS, ids=load_id)
@pytest.mark.parametrize("policy", POLICIES, ids=str)
def test_post_passes_match_the_loop(policy, rates, warmup):
    lambda_u, lambda_q, mu_u, mu_q = rates
    params = validate_params(lambda_u, mu_u, lambda_q, mu_q)
    config = SimConfig(3000.0, warmup, 2, 31)
    for rep in range(config.replications):
        assert_same_run(params, policy, config, rep)


HORIZON = 10.0


@pytest.fixture
def jobs(monkeypatch):
    """Replace the drawn jobs by the given arrival epochs (each list ending
    past the horizon) and service requirements."""
    def use(arrive_u, arrive_q, work_u, work_q):
        drawn = tuple(np.array(stream, float) for stream in (arrive_u, arrive_q, work_u, work_q))
        monkeypatch.setattr(simulator, "draw_jobs", lambda params, config, rep: drawn)
    return use


PARAMS = validate_params(0.5, 1, 0.3, 1)


def run_all(warmup=0.0, horizon=HORIZON):
    """Every policy's metrics and detail on the replaced jobs, each run equal
    to the reference's, to the bit."""
    runs = []
    for policy in POLICIES:
        metrics, detail, expected = assert_same_run(PARAMS, policy,
                                                    SimConfig(horizon, warmup, 1, 1), 0)
        assert metrics == expected
        runs.append((metrics, detail))
    return runs


def test_departure_at_an_arrival_epoch(jobs):
    # the first update departs at 2.0, when a query arrives, and that query
    # departs at 2.5, when the next update arrives
    jobs([1.0, 2.5, 6.0, 11.0], [2.0, 3.0, 11.0], [1.0, 2.0, 0.25], [0.5, 1.5])
    run_all()


def test_simultaneous_update_and_query_arrivals(jobs):
    jobs([1.0, 1.5, 4.0, 11.0], [1.0, 1.5, 4.0, 11.0], [0.75, 1.0, 0.5], [0.5, 1.25, 2.0])
    run_all()


def test_arrival_and_departure_at_the_horizon(jobs):
    # an update arrives at the horizon, a query departs there
    jobs([2.0, HORIZON, 12.0], [7.0, 12.0], [1.0, 0.5], [3.0])
    runs = run_all()
    assert {m.completed_queries for m, _ in runs} == {1}


def test_warmup_at_an_event_epoch(jobs):
    # a departure and an arrival at the end of the warmup
    jobs([1.0, 2.0, 5.0, 11.0], [0.5, 3.0, 11.0], [1.0, 0.5, 1.0], [0.5, 2.0])
    run_all(warmup=2.0)


def test_a_class_with_no_departures(jobs):
    # no query arrives, and the one update is still in service at the horizon
    jobs([4.0, 11.0], [11.0], [20.0], [])
    runs = run_all()
    assert {(m.completed_queries, m.completed_updates) for m, _ in runs} == {(0, 0)}
    assert {m.mean_nu for m, _ in runs} == {0.6}


def test_two_update_hand_trace(jobs):
    # updates generated at t=1 (done t=2) and t=1.5 (done t=4), run ends t=5
    jobs([1.0, 1.5, 6.0], [6.0], [1.0, 2.0], [])
    for metrics, detail in run_all(horizon=5.0):
        # peaks: 2-0 (phantom previous arrival at 0) and (1.5-1)+(4-1.5)=3
        assert detail.paoi_samples == [2.0, 3.0]
        # age area: 2 over [0,2], 4 over [2,4] (age restarts at 1), 3 over [4,5]
        assert metrics.mean_aoi == 9.0 / 5.0


def test_zero_delay_service_resets_age_to_zero(jobs):
    # an update generated at t=2 and served in no time; `run_replication`,
    # since a job record refuses a zero service requirement
    jobs([2.0, 4.0], [4.0], [0.0], [])
    # the age t over [0, 2], then restarting at 0 at t = 2
    for horizon, area in ((2.0, 2.0), (3.0, 2.0 + 0.5)):
        for policy in POLICIES:
            metrics = run_replication(PARAMS, policy, SimConfig(horizon, 0.0, 1, 1), 0)
            assert metrics.mean_paoi == 2.0
            assert metrics.mean_aoi == area / horizon


def test_warmup_clips_integral_and_samples(jobs):
    # an update generated at t=1 and delivered at t=2, the warmup's end
    jobs([1.0, 11.0], [11.0], [1.0], [])
    for metrics, detail in run_all(warmup=2.0):
        # delivered at the warmup edge: excluded
        assert detail.paoi_samples == []
        # age over (2, 10] with last delivery from t=1: ((10-1)^2 - (2-1)^2)/2
        assert metrics.mean_aoi == 40.0 / (HORIZON - 2.0)


def test_age_integral_nondecreasing(jobs):
    # updates generated at 0.5, 2 and 3, delivered at 1, 2.5 and 6; the run
    # ends at each delivery in turn
    departures = [1.0, 2.5, 6.0]
    jobs([0.5, 2.0, 3.0, 7.0], [7.0], [0.5, 0.5, 3.0], [])
    integrals = [[metrics.mean_aoi * horizon for metrics, _ in run_all(horizon=horizon)]
                 for horizon in departures]
    for shorter, longer in zip(integrals, integrals[1:]):
        assert all(a <= b for a, b in zip(shorter, longer))
