"""An independent scalar simulator, kept as the reference for the sums of
`simulator`'s event loops.

`reference_replication` is an event loop of another shape than
`simulator._python_loop`: it finds each event's epoch first and then its
kind, and steps the n_q and n_u integrals and the busy time at every event.
The ages and the system times follow in passes over the deliveries,
`age_metrics` and `system_times`, which check that each update was
generated before its delivery and delivered in generation order. It reads
its jobs from `simulator.draw_jobs` and its decisions from
`policy.decision_table`, so it runs on the same jobs and the same switching
rule as `simulator`.
"""
import math
import statistics
from typing import List, Sequence, Tuple

from freshsched import simulator
from freshsched.model import JobClass, JobRecord, ReplicationMetrics
from freshsched.policy import (ARRIVE_Q, ARRIVE_U, DEPART_Q, DEPART_U, OLDER_HEAD, Z_IDLE,
                               Z_QUERY, Z_UPDATE, decision_table)
from freshsched.simulator import ReplicationDetail


class OutOfOrderDeparture(RuntimeError):
    """An update departed with an older generation time than one already delivered."""


def _age_area(g: float, t0: float, t1: float, warmup: float, horizon: float) -> float:
    """Integral of the age t - g over (t0, t1] clipped to (warmup, horizon]."""
    a = warmup if warmup > t0 else t0
    b = horizon if horizon < t1 else t1
    return ((b - g) ** 2 - (a - g) ** 2) / 2.0 if b > a else 0.0


def age_metrics(generations: Sequence[float], departures: Sequence[float],
                warmup: float, horizon: float) -> Tuple[float, List[float]]:
    """Integral of the age over (warmup, horizon] and one peak-age sample per
    update delivered in that window, in one pass over the deliveries.

    The update generated at ``generations[i]`` is delivered at
    ``departures[i]``. The age starts at 0 at t = 0, as if an update
    generated then were delivered, so the first peak spans from time 0.
    """
    g = last = integral = 0.0  # freshest delivered generation, its delivery
    samples: List[float] = []
    for generation, now in zip(generations, departures):
        if generation > now:
            raise ValueError("generation_time after departure time")
        if generation < g:
            raise OutOfOrderDeparture(
                f"update generated at {generation} delivered after one from {g}")
        integral += _age_area(g, last, now, warmup, horizon)
        if warmup < now <= horizon:
            samples.append((generation - g) + (now - generation))
        g, last = generation, now
    integral += _age_area(g, last, horizon, warmup, horizon)
    return integral, samples


def system_times(arrivals: Sequence[float], departures: Sequence[float],
                 warmup: float) -> Tuple[int, float]:
    """Count and sum of the system times of the jobs that departed after warmup."""
    n, total = 0, 0.0
    for arrival, departure in zip(arrivals, departures):
        if departure > warmup:
            n += 1
            total += departure - arrival
    return n, total


def reference_replication(params, policy, config, rep_index):
    """The metrics and detail of one replication, every sum taken in the loop."""
    horizon, warmup = config.horizon, config.warmup
    arrive_u, arrive_q, unit_u, unit_q = (
        stream.tolist() for stream in simulator.draw_jobs(params, config, rep_index))
    # the service requirements at unit rate, at the class's service rate
    work_u = [work / params.mu_u for work in unit_u]
    work_q = [work / params.mu_q for work in unit_q]
    remain_u, remain_q = list(work_u), list(work_q)
    depart_u: List[float] = []
    depart_q: List[float] = []
    cap_q, cap_u, table = decision_table(policy)

    n_q = n_u = 0  # queue lengths
    h_q = h_u = 0  # index of each queue's head
    next_u, next_q = arrive_u[0], arrive_q[0]
    pos = Z_IDLE
    completion = math.inf
    t = 0.0
    nq_integral = nu_integral = busy_time = 0.0

    while True:
        if completion <= next_u and completion <= next_q:
            te = completion
        elif next_u <= next_q:  # simultaneous arrivals serve the update first
            te = next_u
        else:
            te = next_q
        cut = te if te <= horizon else horizon
        if cut > warmup:
            dt = cut - (t if t > warmup else warmup)
            if dt > 0:
                nq_integral += n_q * dt
                nu_integral += n_u * dt
        if pos != Z_IDLE:
            busy_time += cut - t
        if te > horizon:
            break
        t = te
        rules = table[pos]
        i = n_q if n_q < cap_q else cap_q
        j = n_u if n_u < cap_u else cap_u

        if t == completion:
            if pos == Z_QUERY:
                new = rules[DEPART_Q][i][j]
                n_q -= 1
                h_q += 1
                depart_q.append(t)
            else:
                new = rules[DEPART_U][i][j]
                n_u -= 1
                h_u += 1
                depart_u.append(t)
            if new == OLDER_HEAD:
                new = Z_UPDATE if arrive_u[h_u] <= arrive_q[h_q] else Z_QUERY
            pos = Z_IDLE
            completion = math.inf
        elif t == next_u:
            new = rules[ARRIVE_U][i][j]
            n_u += 1
            next_u = arrive_u[h_u + n_u]
        else:
            new = rules[ARRIVE_Q][i][j]
            n_q += 1
            next_q = arrive_q[h_q + n_q]

        if new != pos:  # preempt-resume: bank the head's remaining work
            if pos == Z_QUERY:
                remain_q[h_q] = completion - t
            elif pos == Z_UPDATE:
                remain_u[h_u] = completion - t
            if new == Z_QUERY:
                completion = t + remain_q[h_q]
            elif new == Z_UPDATE:
                completion = t + remain_u[h_u]
            else:
                completion = math.inf
            pos = new

    resp_n, resp_sum = system_times(arrive_q, depart_q, warmup)
    completed_updates, usys_sum = system_times(arrive_u, depart_u, warmup)
    age_integral, paoi_samples = age_metrics(arrive_u, depart_u, warmup, horizon)

    duration = horizon - warmup
    metrics = ReplicationMetrics(
        mean_response_time=resp_sum / resp_n if resp_n else None,
        mean_paoi=statistics.fmean(paoi_samples) if paoi_samples else None,
        mean_aoi=age_integral / duration,
        mean_nq=nq_integral / duration,
        mean_nu=nu_integral / duration,
        mean_update_system_time=usys_sum / completed_updates if completed_updates else None,
        completed_queries=resp_n,
        completed_updates=completed_updates,
        horizon=duration,
    )
    jobs = ([JobRecord(JobClass.QUERY, *job) for job in zip(arrive_q, work_q, depart_q)]
            + [JobRecord(JobClass.UPDATE, *job) for job in zip(arrive_u, work_u, depart_u)])
    completed_service = sum(job.service_requirement for job in jobs)
    arrived_service = sum(work_q) + sum(work_u)
    residual_work = 0.0
    for served, head, n, remain in ((Z_QUERY, h_q, n_q, remain_q),
                                    (Z_UPDATE, h_u, n_u, remain_u)):
        for index in range(head, head + n):
            in_service = pos == served and index == head
            residual_work += (completion - horizon) if in_service else remain[index]
    detail = ReplicationDetail(jobs, paoi_samples, busy_time, arrived_service,
                               completed_service, residual_work)
    return metrics, detail
