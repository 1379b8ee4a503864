"""The simulator's numpy post-passes against the scalar loop they replaced
(`reference_simulator`): the occupancy integrals, the busy time, the age and
the system times."""
import dataclasses

import numpy as np
import pytest
from reference_simulator import age_metrics as reference_age_metrics
from reference_simulator import reference_replication

from freshsched import simulator
from freshsched.model import Fcfs, JointMN, QueryK, UpdateK, validate_params
from freshsched.simulator import (OutOfOrderDeparture, SimConfig, age_metrics, run_replication,
                                  run_replication_detailed)

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
    # the age areas square as x * x, the loop as x ** 2, which calls libm's
    # pow; pow is not correctly rounded on every input, so the age integral
    # may differ from the loop's in its last bits
    assert metrics.mean_aoi == pytest.approx(expected.mean_aoi, rel=1e-13, abs=0.0)
    assert dataclasses.replace(metrics, mean_aoi=expected.mean_aoi) == expected
    return metrics, expected


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


def run_all(warmup=0.0):
    """Every policy on the replaced jobs, each run equal to the loop's, to the bit."""
    params = validate_params(0.5, 1, 0.3, 1)
    config = SimConfig(HORIZON, warmup, 1, 1)
    runs = []
    for policy in POLICIES:
        metrics, expected = assert_same_run(params, policy, config, 0)
        assert metrics == expected
        runs.append(metrics)
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
    assert {m.completed_queries for m in runs} == {1}


def test_warmup_at_an_event_epoch(jobs):
    # a departure and an arrival at the end of the warmup
    jobs([1.0, 2.0, 5.0, 11.0], [0.5, 3.0, 11.0], [1.0, 0.5, 1.0], [0.5, 2.0])
    run_all(warmup=2.0)


def test_a_class_with_no_departures(jobs):
    # no query arrives, and the one update is still in service at the horizon
    jobs([4.0, 11.0], [11.0], [20.0], [])
    runs = run_all()
    assert {(m.completed_queries, m.completed_updates) for m in runs} == {(0, 0)}
    assert {m.mean_nu for m in runs} == {0.6}


@pytest.mark.parametrize("generations, departures, error", [
    # a generation after its departure at index 1, out of order at 2
    ([1.0, 3.0, 0.5], [2.0, 2.5, 4.0], ValueError),
    # out of order at index 1, a generation after its departure at 2
    ([2.0, 1.0, 5.0], [3.0, 4.0, 4.5], OutOfOrderDeparture),
    # both at index 1: the generation after its departure is named
    ([2.0, 1.0], [3.0, 0.5], ValueError),
])
def test_the_first_offending_delivery_raises(generations, departures, error):
    with pytest.raises(error) as raised:
        age_metrics(generations, departures, 0.0, HORIZON)
    with pytest.raises(error) as expected:
        reference_age_metrics(generations, departures, 0.0, HORIZON)
    assert type(raised.value) is type(expected.value)
    assert str(raised.value) == str(expected.value)
