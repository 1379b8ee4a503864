"""End-to-end acceptance gate.

Each test covers one numbered criterion, prints a single PASS/FAIL line, and
enforces the stated tolerance and runtime budget. Simulation runs are cached
by (params, policy, config) so later criteria reuse earlier work, and every
stable run is registered for the global Little's-law audit (criterion 9).
"""
import re
import time
from contextlib import contextmanager

import pytest

from freshsched import cli
from freshsched.analytic import (
    fcfs_metrics,
    query1_metrics,
    query_k_metrics,
    update1_metrics,
    update_k_metrics,
)
from freshsched.model import (
    Fcfs,
    JobClass,
    JointMN,
    QueryK,
    ReplicationMetrics,
    UpdateK,
    conservation_rhs,
    validate_params,
)
from freshsched.simulator import (
    SimConfig,
    aggregate,
    littles_law_residual,
    run_replication,
    run_replication_detailed,
)

BASE_SEED = 1
DEFAULT = SimConfig(horizon=20000.0, warmup=0.0, replications=10, base_seed=BASE_SEED)

_SIM_CACHE = {}
_REGISTRY = []  # (params, policy, runs) for the criterion-9 audit


def sim_runs(params, policy, config=DEFAULT):
    key = (params, policy, config)
    if key not in _SIM_CACHE:
        runs = [run_replication(params, policy, config, rep)
                for rep in range(config.replications)]
        _SIM_CACHE[key] = runs
        _REGISTRY.append((params, policy, runs))
    return _SIM_CACHE[key]


def sim_stats(params, policy, config=DEFAULT):
    return aggregate(sim_runs(params, policy, config))


@contextmanager
def criterion(number, budget_seconds=None):
    start = time.perf_counter()
    try:
        yield
        elapsed = time.perf_counter() - start
        if budget_seconds is not None:
            assert elapsed < budget_seconds, (
                f"criterion {number} took {elapsed:.1f}s, budget {budget_seconds}s")
    except BaseException:
        print(f"criterion {number}: FAIL")
        raise
    print(f"criterion {number}: PASS ({time.perf_counter() - start:.1f}s)")


def rel_err(value, reference):
    return abs(value - reference) / abs(reference)


def cli_value(output, label):
    match = re.search(rf"^{re.escape(label)} = (\S+)$", output, re.MULTILINE)
    assert match, f"{label!r} not printed:\n{output}"
    return float(match.group(1))


def test_criterion_1_fcfs_closed_form_and_simulation(capsys):
    with criterion(1, budget_seconds=5):
        code = cli.main(["analyze", "--policy", "fcfs", "--lambda-u", "0.5",
                         "--lambda-q", "0.1", "--mu-u", "1", "--mu-q", "1"])
        out = capsys.readouterr().out
        assert code == 0
        assert "E[T_q] = 2.5" in out
        assert "E[A] = 4.5" in out

        params = validate_params(0.5, 1, 0.1, 1)
        stats = sim_stats(params, Fcfs())
        assert rel_err(stats["response_time"].mean, 2.5) < 0.05
        assert rel_err(stats["paoi"].mean, 4.5) < 0.05


def test_criterion_2_query1_priority_formulas():
    with criterion(2, budget_seconds=10):
        params = validate_params(0.8, 1, 0.1, 1)
        exact = query1_metrics(params)
        assert exact.expected_response_time == pytest.approx(1.1111, abs=5e-5)
        assert exact.expected_paoi == pytest.approx(12.3611, abs=5e-5)
        assert fcfs_metrics(params).expected_paoi == pytest.approx(11.25, abs=1e-9)

        stats = sim_stats(params, QueryK(1))
        assert rel_err(stats["paoi"].mean, 12.3611) < 0.05
        assert rel_err(stats["response_time"].mean, 1.1111) < 0.05


def test_criterion_3_query3_chain_vs_reported_value(capsys):
    with criterion(3, budget_seconds=60):
        code = cli.main(["solve", "--policy", "query-k", "--k", "3",
                         "--lambda-u", "0.8", "--lambda-q", "0.1",
                         "--mu-u", "1", "--mu-q", "1"])
        out = capsys.readouterr().out
        assert code == 0
        solved_paoi = cli_value(out, "E[A]")
        assert rel_err(solved_paoi, 11.15) < 0.05

        params = validate_params(0.8, 1, 0.1, 1)
        stats = sim_stats(params, QueryK(3))
        gap = abs(stats["paoi"].mean - solved_paoi)
        assert gap <= 2 * stats["paoi"].half_width, (gap, stats["paoi"])


def test_criterion_4_chain_oracle_matches_priority_closed_forms():
    with criterion(4, budget_seconds=60):
        points = [validate_params(0.2, 1, 0.1, 1),   # rho = 0.3
                  validate_params(0.4, 1, 0.2, 1),   # rho = 0.6
                  validate_params(0.6, 1, 0.3, 1)]   # rho = 0.9
        for params in points:
            chain_q = query_k_metrics(params, 1)
            exact_q = query1_metrics(params)
            assert rel_err(chain_q.expected_response_time,
                           exact_q.expected_response_time) < 1e-4
            assert rel_err(chain_q.expected_paoi, exact_q.expected_paoi) < 1e-4

            chain_u = update_k_metrics(params, 1)
            exact_u = update1_metrics(params)
            assert rel_err(chain_u.expected_response_time,
                           exact_u.expected_response_time) < 1e-4
            assert rel_err(chain_u.expected_paoi, exact_u.expected_paoi) < 1e-4


def test_criterion_5_conservation_law_suite():
    with criterion(5, budget_seconds=30):
        params = validate_params(1 / 3, 1, 1 / 3, 1)
        rhs = conservation_rhs(params)
        assert rhs == pytest.approx(2.0, abs=1e-12)
        for policy in (Fcfs(), QueryK(1), QueryK(3), UpdateK(1), UpdateK(3),
                       JointMN(3, 3)):
            stats = sim_stats(params, policy)
            lhs = stats["nq"].mean / params.mu_q + stats["nu"].mean / params.mu_u
            assert rel_err(lhs, rhs) < 0.03, (policy, lhs)


def test_criterion_6_per_sample_peak_age_identity():
    with criterion(6):
        params = validate_params(0.5, 1, 0.1, 1)
        config = SimConfig(horizon=22000.0, warmup=0.0, replications=1,
                           base_seed=BASE_SEED)
        for policy in (Fcfs(), QueryK(3), UpdateK(3), JointMN(3, 3)):
            metrics, detail = run_replication_detailed(params, policy, config, 0)
            _REGISTRY.append((params, policy, [metrics]))
            updates = sorted(
                (j for j in detail.jobs if j.job_class is JobClass.UPDATE),
                key=lambda j: j.arrival_time)
            assert len(updates) >= 10 ** 4
            previous_arrival = 0.0
            for job, sample in zip(updates, detail.paoi_samples):
                inter_arrival = job.arrival_time - previous_arrival
                system_time = job.completion_time - job.arrival_time
                assert sample == inter_arrival + system_time  # bit-for-bit
                previous_arrival = job.arrival_time
            assert len(detail.paoi_samples) == len(updates)


def _monotone(values, half_widths, direction):
    """Check values are monotone in `direction`, allowing adjacent ties
    within one CI half-width."""
    for i in range(len(values) - 1):
        slack = max(half_widths[i], half_widths[i + 1])
        delta = (values[i + 1] - values[i]) * direction
        assert delta >= -slack, (i, values[i], values[i + 1], slack)


def _flat_tail(values, start_index):
    for i in range(start_index, len(values) - 1):
        assert abs(values[i + 1] - values[i]) < 0.02 * abs(values[i]), (i, values)


def test_criterion_7_threshold_tradeoff_monotonicity():
    with criterion(7):
        params = validate_params(1 / 3, 1, 1 / 3, 1)
        ks = list(range(1, 13))
        for family, direction in ((QueryK, +1), (UpdateK, -1)):
            resp, resp_hw, paoi, paoi_hw = [], [], [], []
            for k in ks:
                stats = sim_stats(params, family(k))
                resp.append(stats["response_time"].mean)
                resp_hw.append(stats["response_time"].half_width)
                paoi.append(stats["paoi"].mean)
                paoi_hw.append(stats["paoi"].half_width)
            # Query-k: response time rises with k while peak age falls;
            # Update-k is the mirror image
            _monotone(resp, resp_hw, direction)
            _monotone(paoi, paoi_hw, -direction)
            _flat_tail(resp, ks.index(9))
            _flat_tail(paoi, ks.index(9))


def test_criterion_8_joint_threshold_directionality():
    with criterion(8):
        params = validate_params(1 / 3, 1, 1 / 3, 1)
        grid = {}
        for m in (1, 3, 5):
            for n in (1, 3, 5):
                grid[(m, n)] = sim_stats(params, JointMN(m, n))
        for n in (1, 3, 5):
            # larger update threshold m: updates wait longer, queries less
            paoi = [grid[(m, n)]["paoi"] for m in (1, 3, 5)]
            resp = [grid[(m, n)]["response_time"] for m in (1, 3, 5)]
            _monotone([s.mean for s in paoi], [s.half_width for s in paoi], +1)
            _monotone([s.mean for s in resp], [s.half_width for s in resp], -1)
        for m in (1, 3, 5):
            # larger query threshold n: the mirror direction
            paoi = [grid[(m, n)]["paoi"] for n in (1, 3, 5)]
            resp = [grid[(m, n)]["response_time"] for n in (1, 3, 5)]
            _monotone([s.mean for s in paoi], [s.half_width for s in paoi], -1)
            _monotone([s.mean for s in resp], [s.half_width for s in resp], +1)


def test_criterion_9_littles_law_audit():
    with criterion(9):
        assert _REGISTRY, "earlier criteria must have registered runs"
        for params, policy, runs in _REGISTRY:
            if params.rho >= 1:
                continue
            stats = aggregate(runs)
            pooled = ReplicationMetrics(
                mean_response_time=stats["response_time"].mean,
                mean_paoi=stats["paoi"].mean,
                mean_aoi=stats["aoi"].mean,
                mean_nq=stats["nq"].mean,
                mean_nu=stats["nu"].mean,
                mean_update_system_time=stats["update_system_time"].mean,
                completed_queries=0, completed_updates=0,
                horizon=runs[0].horizon)
            res_q, res_u = littles_law_residual(pooled, params)
            assert res_q < 0.03, (policy, res_q)
            assert res_u < 0.03, (policy, res_u)


def test_criterion_10_byte_identical_reruns(tmp_path, capsys):
    with criterion(10):
        config_text = (
            "[model]\n"
            "lambda_u = 0.5\nlambda_q = 0.1\nmu_u = 1\nmu_q = 1\n"
            "[sweep]\nrate = lambda_u\nstart = 0.2\nstop = 0.6\nstep = 0.2\n"
            "[policy.baseline]\ntype = fcfs\n"
            "[policy.q3]\ntype = query-k\nk = 3\n"
            f"[sim]\nhorizon = 2000\nreplications = 3\nseed = {BASE_SEED}\n")
        config_path = tmp_path / "rerun.cfg"
        config_path.write_text(config_text)
        outputs = []
        for name in ("first.csv", "second.csv"):
            out = tmp_path / name
            assert cli.main(["sweep", "--config", str(config_path),
                             "--out", str(out)]) == 0
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]
        assert outputs[0].split(b"\n")[0].decode() == (
            "policy,m,n,k,lambda_u,lambda_q,mu_u,mu_q,metric,source,"
            "mean,ci_half_width,replications,horizon,seed,status")
