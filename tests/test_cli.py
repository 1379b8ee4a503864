import dataclasses
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

from freshsched import analytic, cli, ctmc, experiment
from freshsched.config import (
    ExperimentSpec,
    ParseError,
    PolicyRun,
    SweepAxis,
    ValidationError,
    build_policy,
    parse_config,
    parse_threshold,
)
from freshsched.experiment import (CSV_HEADER, METRICS, ResultRow, emit_csv, read_csv,
                                  run_experiment)
from freshsched.model import POLICY_TYPES, UNBOUNDED, Fcfs, JointMN, QueryK, UpdateK
from freshsched.policy import policy_columns
from freshsched.simulator import SimConfig, draw_jobs, unit_draws
from freshsched.svgplot import NoData, emit_plot

BASE_CONFIG = """\
[model]
lambda_u = 0.5
lambda_q = 0.1
mu_u = 1
mu_q = 1

[policy.baseline]
type = fcfs

[sim]
horizon = 500
replications = 2
seed = 99
"""


SHIPPED_CONFIGS = Path(__file__).resolve().parent.parent / "scripts" / "configs"


def write_config(tmp_path, text, name="exp.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def replace_each(text, *pairs):
    """``text`` with each (old, new) replaced; every old must occur."""
    for old, new in pairs:
        assert old in text, old
        text = text.replace(old, new)
    return text


class TestParseConfig:
    def test_minimal_config(self, tmp_path):
        spec = parse_config(write_config(tmp_path, BASE_CONFIG))
        assert spec.lambda_u == 0.5
        assert spec.policies[0].spec == Fcfs()
        assert spec.sim.base_seed == 99
        assert spec.sweep is None

    def test_unknown_key_reports_line_number(self, tmp_path):
        bad = BASE_CONFIG.replace("lambda_u = 0.5", "lamda_u = 0.5")
        with pytest.raises(ParseError) as exc:
            parse_config(write_config(tmp_path, bad))
        assert ":2:" in str(exc.value) and "lamda_u" in str(exc.value)

    @pytest.mark.parametrize("old, new, line, text", [
        ("lambda_u = 0.5", "lambda_u = abc", 2, "lambda_u = 'abc' is not a number"),
        ("replications = 2", "replications = 2.5", 12,
         "replications = '2.5' is not an integer"),
    ], ids=["float", "int"])
    def test_non_number_reports_line_number(self, tmp_path, old, new, line, text):
        with pytest.raises(ParseError) as exc:
            parse_config(write_config(tmp_path, replace_each(BASE_CONFIG, (old, new))))
        assert exc.value.line_no == line
        assert f":{line}: {text}" in str(exc.value)

    @pytest.mark.parametrize("name, thresholds, columns", [
        ("fcfs", {}, ("fcfs", None, None, None)),
        ("query-k", {"k": 2}, ("query-k", None, None, 2)),
        ("update-k", {"k": UNBOUNDED}, ("update-k", None, None, UNBOUNDED)),
        ("joint-mn", {"m": 3, "n": UNBOUNDED}, ("joint-mn", 3, UNBOUNDED, None)),
    ])
    def test_policy_type_round_trips_through_the_csv_columns(self, name, thresholds, columns):
        assert policy_columns(build_policy(name, **thresholds)) == columns

    def test_every_policy_type_is_named(self):
        # in the order of the command line's --policy choices
        assert list(POLICY_TYPES) == ["fcfs", "query-k", "update-k", "joint-mn"]

    def test_unknown_section_rejected(self, tmp_path):
        with pytest.raises(ParseError):
            parse_config(write_config(tmp_path, BASE_CONFIG + "\n[extras]\nx = 1\n"))

    def test_duplicate_key_rejected(self, tmp_path):
        bad = BASE_CONFIG.replace("mu_u = 1", "mu_u = 1\nmu_u = 2")
        with pytest.raises(ParseError):
            parse_config(write_config(tmp_path, bad))

    def test_sweep_step_zero_rejected(self, tmp_path):
        cfg = BASE_CONFIG + "\n[sweep]\nrate = lambda_u\nstart = 0.1\nstop = 0.5\nstep = 0\n"
        with pytest.raises(ValidationError):
            parse_config(write_config(tmp_path, cfg))

    @pytest.mark.parametrize("key, value", [("stop", "inf"), ("step", "nan")])
    def test_sweep_non_finite_rejected(self, tmp_path, key, value):
        sweep = {"rate": "lambda_u", "start": "0.1", "stop": "0.5", "step": "0.1", key: value}
        cfg = BASE_CONFIG + "\n[sweep]\n" + "".join(f"{k} = {v}\n" for k, v in sweep.items())
        with pytest.raises(ValidationError, match="finite"):
            parse_config(write_config(tmp_path, cfg))

    def test_non_finite_horizon_rejected(self, tmp_path):
        cfg = BASE_CONFIG.replace("horizon = 500", "horizon = inf")
        with pytest.raises(ValidationError, match="finite horizon"):
            parse_config(write_config(tmp_path, cfg))

    def test_negative_seed_rejected(self, tmp_path):
        cfg = BASE_CONFIG.replace("seed = 99", "seed = -1")
        with pytest.raises(ValidationError, match="seed must be >= 0, got -1"):
            parse_config(write_config(tmp_path, cfg))

    def test_comments_and_blank_lines_ignored(self, tmp_path):
        cfg = "# leading comment\n" + BASE_CONFIG.replace(
            "mu_u = 1", "mu_u = 1  # inline comment")
        spec = parse_config(write_config(tmp_path, cfg))
        assert spec.mu_u == 1.0

    def test_unbounded_threshold(self, tmp_path):
        cfg = BASE_CONFIG + "\n[policy.deep]\ntype = query-k\nk = inf\n"
        spec = parse_config(write_config(tmp_path, cfg))
        assert spec.policies[1].spec == QueryK(UNBOUNDED)

    @pytest.mark.parametrize("kind, keys, key", [
        ("fcfs", "k = 3", "k"),
        ("query-k", "k = 2\nm = 5", "m"),
        ("update-k", "k = 2\nn = inf", "n"),
        ("joint-mn", "m = 2\nn = 2\nk = 1", "k"),
    ])
    def test_threshold_the_type_does_not_take_rejected(self, tmp_path, kind, keys, key):
        cfg = BASE_CONFIG.replace("type = fcfs", f"type = {kind}\n{keys}")
        with pytest.raises(ValidationError) as exc:
            parse_config(write_config(tmp_path, cfg))
        assert f"[policy.baseline]: policy {kind} takes no threshold {key}" in str(exc.value)

    def test_nonpositive_rate_rejected(self, tmp_path):
        with pytest.raises(ValidationError):
            parse_config(write_config(
                tmp_path, BASE_CONFIG.replace("lambda_u = 0.5", "lambda_u = 0")))

    def test_sweep_points_include_endpoint(self):
        axis = SweepAxis("lambda_u", 0.05, 0.85, 0.05)
        points = axis.points()
        assert len(points) == 17
        assert points[0] == pytest.approx(0.05)
        assert points[-1] == pytest.approx(0.85)

    def test_svg_without_sweep_rejected(self, tmp_path):
        cfg = BASE_CONFIG + "\n[output]\nsvg = out.svg\n"
        with pytest.raises(ValidationError, match=r"\[output\] svg"):
            parse_config(write_config(tmp_path, cfg))

    def test_parse_threshold(self):
        assert parse_threshold("4") == 4
        assert parse_threshold("inf") is UNBOUNDED
        assert parse_threshold("Unbounded") is UNBOUNDED
        with pytest.raises(ValueError):
            parse_threshold("4.5")


class TestRunExperiment:
    @pytest.mark.parametrize("policy, sources", [
        (Fcfs(), ["analytic", "sim"]),
        (QueryK(1), ["analytic", "ctmc", "sim"]),
        (UpdateK(1), ["analytic", "ctmc", "sim"]),
        (QueryK(2), ["ctmc", "sim"]),
        # the same chains as Query-1 and Update-1, but no closed form is keyed by them
        (JointMN(UNBOUNDED, 1), ["ctmc", "sim"]),
        (JointMN(1, UNBOUNDED), ["ctmc", "sim"]),
    ], ids=repr)
    def test_applicable_sources(self, policy, sources):
        assert experiment.applicable_sources(policy) == sources

    def test_row_count_is_predictable(self, tmp_path):
        cfg = BASE_CONFIG + ("\n[policy.q1]\ntype = query-k\nk = 1\n"
                             "\n[sweep]\nrate = lambda_u\nstart = 0.2\nstop = 0.6\nstep = 0.2\n")
        rows = run_experiment(parse_config(write_config(tmp_path, cfg)))
        # 3 points x 5 metrics x (fcfs: analytic+sim, query-1: analytic+ctmc+sim)
        assert len(rows) == 3 * 5 * (2 + 3)

    @pytest.mark.parametrize("section, source", [
        ("type = fcfs\nengine = ctmc", "ctmc"),
        ("type = query-k\nk = 3\nengine = closed_form", "analytic"),
    ], ids=["fcfs-ctmc", "query3-closed_form"])
    def test_unsupported_engine_rows_are_marked(self, tmp_path, section, source):
        cfg = BASE_CONFIG.replace("type = fcfs", section)
        rows = run_experiment(parse_config(write_config(tmp_path, cfg)))
        assert len(rows) == 5
        assert all(r.status == "error: unsupported engine" for r in rows)
        assert all(r.mean is None and r.source == source for r in rows)

    def test_simulation_engine_writes_only_sim_rows(self, tmp_path):
        # Query-1 has all three sources; the engine picks one
        cfg = BASE_CONFIG.replace("type = fcfs", "type = query-k\nk = 1\nengine = simulation")
        rows = run_experiment(parse_config(write_config(tmp_path, cfg)))
        assert len(rows) == 5
        assert all(r.source == "sim" and r.status == "ok" for r in rows)

    def test_engines_are_reached_through_module_attributes(self, tmp_path, monkeypatch):
        # the benchmark times the engines by wrapping these module attributes,
        # and `experiment.CLOSED_FORMS` names the closed forms by attribute
        hooks = ((analytic, "fcfs_metrics"), (analytic, "query1_metrics"),
                 (analytic, "update1_metrics"), (ctmc, "solve"),
                 (experiment, "run_replication"))
        calls = dict.fromkeys((name for _module, name in hooks), 0)
        for module, name in hooks:
            def counted(*args, _name=name, _inner=getattr(module, name)):
                calls[_name] += 1
                return _inner(*args)
            monkeypatch.setattr(module, name, counted)
        cfg = BASE_CONFIG + ("\n[policy.q1]\ntype = query-k\nk = 1\n"
                             "\n[policy.u1]\ntype = update-k\nk = 1\n")
        run_experiment(parse_config(write_config(tmp_path, cfg)))
        assert calls == {"fcfs_metrics": 1, "query1_metrics": 1, "update1_metrics": 1,
                         "solve": 2, "run_replication": 3 * 2}

    def test_the_benchmark_finds_its_module_attributes(self):
        # the names bench/workloads.py and bench/worker.py look up on the
        # modules: `_patch_chain` wraps the first seven, `_check_chain_result`
        # reads the tolerances, `_check_littles_law` pools the replications,
        # `SweepUpdateLoad` wraps the experiment, cli and svgplot hooks and
        # checks the CSV, and `record_trigger_trace` and `decide_ns` replay
        # `policy.decide`; a missing one ends a benchmark run as run_failed
        names = {
            "analytic": ("fcfs_metrics", "query1_metrics", "update1_metrics",
                         "query_k_metrics", "update_k_metrics"),
            "ctmc": ("build_ctmc", "solve_stationary", "RESIDUAL_TOLERANCE", "TAIL_TOLERANCE"),
            "simulator": ("aggregate", "littles_law_residual"),
            "model": ("ReplicationMetrics", "validate_params", "QueryK", "UpdateK", "JointMN"),
            "experiment": ("run_replication", "aggregate", "run_experiment", "emit_csv",
                           "read_csv", "policy_columns"),
            "cli": ("parse_config", "main"),
            "config": ("parse_config",),
            "svgplot": ("emit_plot",),
            "policy": ("initial_state", "decide", "Trigger", "ServerPosition"),
        }
        missing = [f"{module}.{name}" for module, attrs in names.items() for name in attrs
                   if not hasattr(importlib.import_module(f"freshsched.{module}"), name)]
        assert missing == []

    def test_chain_covers_joint_and_unbounded_thresholds(self, tmp_path):
        cfg = BASE_CONFIG.replace("type = fcfs", "type = joint-mn\nm = 2\nn = 3") + (
            "\n[policy.deep]\ntype = query-k\nk = inf\n")
        rows = run_experiment(parse_config(write_config(tmp_path, cfg)))
        for policy in ("joint-mn", "query-k"):
            mine = [r for r in rows if r.policy == policy]
            assert sorted({r.source for r in mine}) == ["ctmc", "sim"]
            assert len(mine) == 10
            for r in mine:
                want = "n/a" if (r.source, r.metric) == ("ctmc", "aoi") else "ok"
                assert r.status == want, r

    def test_unstable_points_flagged_not_dropped(self, tmp_path):
        cfg = BASE_CONFIG + "\n[sweep]\nrate = lambda_u\nstart = 0.5\nstop = 1.1\nstep = 0.3\n"
        rows = run_experiment(parse_config(write_config(tmp_path, cfg)))
        unstable = [r for r in rows if r.lambda_u > 1.0 and r.source == "analytic"]
        assert unstable and all(r.status == "unstable" and r.mean is None
                                for r in unstable)

    def test_common_seed_across_policies(self, tmp_path):
        cfg = BASE_CONFIG + "\n[policy.u3]\ntype = update-k\nk = 3\n"
        rows = run_experiment(parse_config(write_config(tmp_path, cfg)))
        seeds = {r.seed for r in rows if r.source == "sim"}
        assert seeds == {99}

    @pytest.mark.parametrize("cfg, draws", [
        (BASE_CONFIG.replace("type = fcfs", "type = query-k")
         + "\n[policy.u]\ntype = update-k\n"
         + "\n[sweep]\nrate = k\nstart = 1\nstop = 2\nstep = 1\n", 2),
        (BASE_CONFIG + "\n[policy.u3]\ntype = update-k\nk = 3\n"
         + "\n[sweep]\nrate = lambda_u\nstart = 0.2\nstop = 0.6\nstep = 0.2\n", 3 * 2),
    ], ids=["threshold", "rate"])
    def test_each_replication_is_drawn_once(self, tmp_path, cfg, draws):
        # 2 replications: the threshold axis keeps the rates, so all 2 x 2
        # (point, policy) pairs share them; a rate sweep draws at each of 3 points
        spec = parse_config(write_config(tmp_path, cfg))
        draw_jobs.cache_clear()
        run_experiment(spec)
        assert draw_jobs.cache_info().misses == draws

    def test_a_rate_sweep_draws_each_replications_streams_once(self, tmp_path):
        # 3 points of 2 policies on 2 replications: the replication-major
        # sweep reads each replication's unit draws at every point
        cfg = (BASE_CONFIG + "\n[policy.u3]\ntype = update-k\nk = 3\n"
               + "\n[sweep]\nrate = lambda_u\nstart = 0.2\nstop = 0.6\nstep = 0.2\n")
        spec = parse_config(write_config(tmp_path, cfg))
        unit_draws.cache_clear()
        run_experiment(spec)
        assert unit_draws.cache_info().misses == spec.sim.replications

    @pytest.mark.parametrize("k, sweep", [
        ("k = 2\n", "rate = lambda_u\nstart = 0.2\nstop = 0.6\nstep = 0.2\n"),
        ("k = 2\n", "rate = mu_u\nstart = 1\nstop = 2\nstep = 0.5\n"),
        ("", "rate = k\nstart = 1\nstop = 3\nstep = 1\n"),
    ], ids=["lambda_u", "mu_u", "threshold"])
    def test_sim_rows_equal_runs_point_by_point(self, tmp_path, k, sweep):
        # the shared draws give each point the bits of a point run alone,
        # its jobs drawn anew; the lambda_u sweep reads further at each
        # point, the mu_u sweep divides the service draws by another rate
        cfg = (BASE_CONFIG + "\n[policy.u]\ntype = update-k\n" + k + "\n[sweep]\n" + sweep)
        if not k:
            cfg = cfg.replace("type = fcfs", "type = query-k")
        spec = parse_config(write_config(tmp_path, cfg))
        rows = [row for row in run_experiment(spec) if row.source == "sim"]
        alone = []
        for value in spec.sweep.points():
            draw_jobs.cache_clear()
            unit_draws.cache_clear()
            point = dataclasses.replace(
                spec, sweep=dataclasses.replace(spec.sweep, start=value, stop=value))
            alone += [row for row in run_experiment(point) if row.source == "sim"]
        assert len(rows) == 3 * 2 * len(METRICS)
        assert rows == alone


THRESHOLD_SWEEP = BASE_CONFIG.replace("type = fcfs", "type = query-k") + (
    "\n[sweep]\nrate = k\nstart = 1\nstop = 3\nstep = 1\n")


class TestThresholdAxis:
    def test_policies_take_the_first_point(self, tmp_path):
        spec = parse_config(write_config(tmp_path, THRESHOLD_SWEEP))
        assert spec.sweep == SweepAxis("k", 1.0, 3.0, 1.0)
        assert spec.policies[0].spec == QueryK(1)

    @pytest.mark.parametrize("old, new, message", [
        ("start = 1", "start = 1.5", "[sweep] start and step of threshold k"),
        ("step = 1", "step = 0.5", "[sweep] start and step of threshold k"),
        ("start = 1", "start = 0", "[sweep] start and step of threshold k"),
        ("type = query-k", "type = query-k\nk = 2", "[policy.baseline] sets k"),
        ("type = query-k", "type = fcfs", "[policy.baseline]: policy fcfs has no threshold k"),
        ("rate = k", "rate = m", "[policy.baseline]: policy query-k has no threshold m"),
        ("type = query-k", "type = joint-mn\nm = 2\nn = 2",
         "[policy.baseline]: policy joint-mn has no threshold k"),
    ], ids=["fractional-start", "fractional-step", "start-zero", "sets-swept-k",
            "fcfs-under-k", "query-k-under-m", "joint-mn-under-k"])
    def test_rejected(self, tmp_path, old, new, message):
        cfg = replace_each(THRESHOLD_SWEEP, (old, new))
        with pytest.raises(ValidationError) as exc:
            parse_config(write_config(tmp_path, cfg))
        assert message in str(exc.value)

    @pytest.mark.parametrize("cfg, expected", [
        (THRESHOLD_SWEEP, [QueryK(1), QueryK(2), QueryK(3)]),
        (BASE_CONFIG + "\n[sweep]\nrate = lambda_u\nstart = 0.2\nstop = 0.4\nstep = 0.2\n",
         None),
    ], ids=["threshold", "rate"])
    def test_each_point_sets_the_threshold(self, tmp_path, monkeypatch, cfg, expected):
        seen = []
        monkeypatch.setattr(experiment, "_engine_rows",
                            lambda source, policy, params: seen.append(policy) or [])
        spec = parse_config(write_config(tmp_path, cfg))
        run_experiment(spec)
        if expected is None:  # a rate sweep passes the parsed policy object itself
            assert seen and all(policy is spec.policies[0].spec for policy in seen)
        else:
            assert list(dict.fromkeys(seen)) == expected

    def test_threshold_tradeoff_matches_one_run_per_threshold(self, tmp_path):
        text = replace_each((SHIPPED_CONFIGS / "threshold_tradeoff.cfg").read_text(),
                            ("stop = 12", "stop = 2"), ("horizon = 20000", "horizon = 200"),
                            ("replications = 10", "replications = 2"))
        rows = run_experiment(parse_config(write_config(tmp_path, text)))
        runs = []
        for k in (1, 2):
            runs += [PolicyRun(f"query{k}", QueryK(k)), PolicyRun(f"update{k}", UpdateK(k))]
        reference = ExperimentSpec(1 / 3, 1 / 3, 1.0, 1.0, tuple(runs),
                                   SimConfig(200.0, 0.0, 2, 1))
        assert rows == run_experiment(reference)
        assert len(rows) == 5 * (3 * 2 + 2 * 2)

    def test_joint_grid_matches_one_run_per_pair(self, tmp_path):
        text = replace_each((SHIPPED_CONFIGS / "joint_grid.cfg").read_text(),
                            ("stop = 5", "stop = 3"), ("horizon = 20000", "horizon = 200"),
                            ("replications = 10", "replications = 2"),
                            ("[policy.n5]\ntype = joint-mn\nn = 5\n", ""))
        rows = run_experiment(parse_config(write_config(tmp_path, text)))
        runs = tuple(PolicyRun(f"joint{m}_{n}", JointMN(m, n))
                     for m in (1, 3) for n in (1, 3))
        reference = ExperimentSpec(1 / 3, 1 / 3, 1.0, 1.0, runs, SimConfig(200.0, 0.0, 2, 1))
        assert rows == run_experiment(reference)
        assert len(rows) == 5 * 2 * 4


class TestCsvRoundTrip:
    def test_header_only_for_empty_rows(self, tmp_path):
        path = tmp_path / "empty.csv"
        emit_csv([], str(path))
        assert path.read_text() == CSV_HEADER + "\n"

    def test_six_significant_digits(self, tmp_path):
        row = ResultRow("fcfs", None, None, None, 0.5, 0.1, 1.0, 1.0,
                        "response_time", "analytic", 2.5, None, None, None, None, "ok")
        path = tmp_path / "one.csv"
        emit_csv([row], str(path))
        line = path.read_text().splitlines()[1]
        assert ",2.50000," in line
        assert line.split(",")[0] == "fcfs"

    def test_round_trip(self, tmp_path):
        rows = [ResultRow("query-k", None, None, UNBOUNDED, 0.5, 0.1, 1.0, 1.0,
                          "paoi", "sim", 4.5, 0.25, 10, 20000.0, 7, "ok")]
        path = tmp_path / "rt.csv"
        emit_csv(rows, str(path))
        assert path.read_text().splitlines()[1].startswith("query-k,,,inf,")
        back = read_csv(str(path))
        assert back[0].k == UNBOUNDED
        assert back[0].mean == pytest.approx(4.5)
        assert back[0].seed == 7

    def test_lf_line_endings(self, tmp_path):
        path = tmp_path / "lf.csv"
        emit_csv([], str(path))
        assert b"\r" not in path.read_bytes()


class TestSvgPlot:
    def make_rows(self, n=4):
        return [ResultRow("fcfs", None, None, None, 0.1 * (i + 1), 0.1, 1.0, 1.0,
                          "paoi", "sim", 4.0 + i, 0.2, 10, 20000.0, 1, "ok")
                for i in range(n)]

    def test_chart_contains_series_and_whiskers(self, tmp_path):
        path = tmp_path / "chart.svg"
        emit_plot(self.make_rows(), "lambda_u", ("paoi",), str(path))
        text = path.read_text()
        assert text.startswith("<svg")
        assert "polyline" in text and "fcfs paoi [sim]" in text
        assert text.count("<circle") == 4

    def test_single_point_degenerate_chart(self, tmp_path):
        path = tmp_path / "one.svg"
        emit_plot(self.make_rows(1), "lambda_u", ("paoi",), str(path))
        assert "<circle" in path.read_text()

    def test_threshold_axis_skips_unbounded(self, tmp_path):
        rows = [ResultRow("query-k", None, None, k, 1 / 3, 1 / 3, 1.0, 1.0,
                          "paoi", "ctmc", 4.0 - 0.1 * i, None, None, None, None, "ok")
                for i, k in enumerate((1, 2, 3, UNBOUNDED))]
        path = tmp_path / "k.svg"
        emit_plot(rows, "k", ("paoi",), str(path))
        text = path.read_text()
        # one curve through the three finite thresholds; k = inf has no x
        assert text.count("<polyline") == 1
        assert text.count("<circle") == 3
        assert "inf" not in text

    def test_no_matching_rows(self, tmp_path):
        with pytest.raises(NoData):
            emit_plot(self.make_rows(), "lambda_u", ("nq",), str(tmp_path / "x.svg"))


class TestCliCommands:
    def test_analyze_prints_closed_forms(self, capsys):
        code = cli.main(["analyze", "--policy", "fcfs", "--lambda-u", "0.5",
                         "--lambda-q", "0.1", "--mu-u", "1", "--mu-q", "1"])
        out = capsys.readouterr().out
        assert code == 0
        assert "E[T_q] = 2.5" in out
        assert "E[A] = 4.5" in out

    def test_analyze_update_k_at_1_prints_update1_closed_form(self, capsys):
        code = cli.main(["analyze", "--policy", "update-k", "--k", "1",
                         "--lambda-u", "0.5", "--lambda-q", "0.1"])
        out = capsys.readouterr().out
        assert code == 0
        # preemptive priority to updates: E[T_u] = 1/(1 - 0.5),
        # E[T_q] = 1/((1 - 0.5)(1 - 0.6)), E[A] = 1/0.5 + E[T_u]; no chain
        assert "E[T_q] = 5\nE[T_u] = 2\nE[A] = 4\n" in out
        assert "truncation" not in out

    @pytest.mark.parametrize("argv", [
        ["solve", "--policy", "query-k", "--k", "abc", "--lambda-u", "0.3",
         "--lambda-q", "0.3"],
        ["solve", "--policy", "query-k", "--k", "2", "--lambda-u", "0.3"],
        [],
    ], ids=["bad-k", "missing-lambda-q", "missing-command"])
    def test_usage_error_exits_1(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 1
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["solve", "--policy", "fcfs"],
        ["analyze", "--policy", "joint-mn", "--m", "2", "--n", "2"],
    ], ids=["solve-fcfs", "analyze-joint"])
    def test_policy_without_the_engine_is_a_usage_error(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv + ["--lambda-u", "0.3", "--lambda-q", "0.4"])
        assert exc.value.code == 1
        assert "--policy: invalid choice" in capsys.readouterr().err

    def test_analyze_without_a_closed_form_exits_1(self, capsys):
        code = cli.main(["analyze", "--policy", "query-k", "--k", "2",
                         "--lambda-u", "0.3", "--lambda-q", "0.4"])
        assert code == 1
        assert capsys.readouterr().err == "error: no closed form for QueryK(k=2)\n"

    def test_help_exits_0(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["solve", "--help"])
        assert exc.value.code == 0
        assert "--lambda-u" in capsys.readouterr().out

    @pytest.mark.parametrize("argv, message", [
        (["analyze", "--policy", "fcfs", "--k", "7"], "policy fcfs takes no threshold k"),
        (["solve", "--policy", "query-k", "--k", "2", "--m", "5"],
         "policy query-k takes no threshold m"),
    ], ids=["fcfs-k", "query-k-m"])
    def test_threshold_the_policy_does_not_take_exits_1(self, capsys, argv, message):
        assert cli.main(argv + ["--lambda-u", "0.5", "--lambda-q", "0.1"]) == 1
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("how", ["flag", "env"])
    def test_negative_seed_exits_1_before_running(self, capsys, tmp_path, monkeypatch, how):
        cfg = write_config(tmp_path, BASE_CONFIG)
        out = tmp_path / "out.csv"
        argv = ["sweep", "--config", cfg, "--out", str(out)]
        if how == "flag":
            argv += ["--seed", "-1"]
        else:
            monkeypatch.setenv("FRESHSCHED_SEED", "-1")
        assert cli.main(argv) == 1
        assert "seed" in capsys.readouterr().err
        assert not out.exists()

    def test_invalid_rate_exits_1(self, capsys):
        code = cli.main(["analyze", "--policy", "fcfs", "--lambda-u", "-1",
                         "--lambda-q", "0.1"])
        assert code == 1

    def test_unstable_exits_1(self, capsys):
        code = cli.main(["analyze", "--policy", "fcfs", "--lambda-u", "0.9",
                         "--lambda-q", "0.2"])
        assert code == 1

    def test_solve_prints_truncation(self, capsys):
        code = cli.main(["solve", "--policy", "query-k", "--k", "1",
                         "--lambda-u", "0.5", "--lambda-q", "0.1"])
        out = capsys.readouterr().out
        assert code == 0
        # c = 12, the first whose band bound 1.1 * 0.1^(c - 1) is below
        # 1e-9 (1 - 0.6) 0.5 / 3; the boundary holds 13 + 2 * 25 states
        assert "truncation = 12 x inf (63 boundary states)" in out

    def test_solve_prints_its_rounds_after_the_truncation(self, capsys):
        # Joint-(3, 3) at (1/3, 1/3) starts at c = 32 and doubles once
        code = cli.main(["solve", "--policy", "joint-mn", "--m", "3", "--n", "3",
                         "--lambda-u", str(1 / 3), "--lambda-q", str(1 / 3)])
        lines = capsys.readouterr().out.splitlines()
        assert code == 0
        assert lines[-2].startswith("truncation = 64 x inf")
        assert lines[-1] == "rounds = 2"

    def test_analyze_prints_no_rounds(self, capsys):
        code = cli.main(["analyze", "--policy", "query-k", "--k", "1",
                         "--lambda-u", "0.5", "--lambda-q", "0.1"])
        assert code == 0
        assert "rounds" not in capsys.readouterr().out

    def test_solve_joint_prints_truncation(self, capsys):
        code = cli.main(["solve", "--policy", "joint-mn", "--m", "2", "--n", "3",
                         "--lambda-u", "0.5", "--lambda-q", "0.1"])
        out = capsys.readouterr().out
        assert code == 0
        assert "policy = joint-mn" in out
        assert "truncation = 32 x inf (293 boundary states)" in out

    def test_solve_joint_with_large_threshold(self, capsys):
        code = cli.main(["solve", "--policy", "joint-mn", "--m", "63", "--n", "3",
                         "--lambda-u", str(1 / 3), "--lambda-q", str(1 / 3)])
        out = capsys.readouterr().out
        assert code == 0
        assert "truncation = 32 x inf (4258 boundary states)" in out

    def test_solve_past_state_cap_exits_2(self, capsys, monkeypatch):
        monkeypatch.setattr(ctmc, "MAX_STATES", 100)
        code = cli.main(["solve", "--policy", "query-k", "--k", "1",
                         "--lambda-u", "0.5", "--lambda-q", "0.1"])
        assert code == 2
        assert "states" in capsys.readouterr().err

    def test_solve_past_phase_cap_exits_2(self, capsys, monkeypatch):
        # Query-1 at (0.09, 0.9) starts its query side at 256 jobs, at 32 under a cap
        # of 65 phases; the next rung, 64 jobs, is 129 phases
        monkeypatch.setattr(ctmc, "MAX_PHASES", 2 * 32 + 1)
        code = cli.main(["solve", "--policy", "query-k", "--k", "1",
                         "--lambda-u", "0.09", "--lambda-q", "0.9"])
        assert code == 2
        assert "129 phases" in capsys.readouterr().err

    def test_non_finite_horizon_exits_1(self, capsys):
        code = cli.main(["simulate", "--policy", "fcfs", "--lambda-u", "0.5",
                         "--lambda-q", "0.1", "--horizon", "inf"])
        assert code == 1
        assert "finite horizon" in capsys.readouterr().err

    def test_missing_config_exits_3(self, capsys):
        assert cli.main(["sweep", "--config", "/nonexistent/exp.cfg"]) == 3

    def test_unwritable_output_exits_3(self, capsys, tmp_path):
        cfg = write_config(tmp_path, BASE_CONFIG)
        code = cli.main(["sweep", "--config", cfg, "--out", "/nonexistent/dir/out.csv"])
        assert code == 3

    def test_parse_error_exits_1(self, capsys, tmp_path):
        cfg = write_config(tmp_path, BASE_CONFIG.replace("lambda_u", "lamda_u"))
        assert cli.main(["sweep", "--config", cfg]) == 1

    def test_sweep_writes_csv_and_svg(self, capsys, tmp_path):
        out_csv = tmp_path / "out.csv"
        out_svg = tmp_path / "out.svg"
        cfg = write_config(tmp_path, BASE_CONFIG + (
            "\n[sweep]\nrate = lambda_u\nstart = 0.2\nstop = 0.4\nstep = 0.2\n"
            f"\n[output]\ncsv = {out_csv}\nsvg = {out_svg}\n"))
        assert cli.main(["sweep", "--config", cfg]) == 0
        assert out_csv.exists() and out_svg.exists()
        assert read_csv(str(out_csv))

    def test_svg_without_sweep_exits_1_before_running(self, capsys, tmp_path):
        out_csv = tmp_path / "out.csv"
        cfg = write_config(tmp_path, BASE_CONFIG + (
            "\n[policy.joint]\ntype = joint-mn\nm = 3\nn = 3\n"
            f"\n[output]\ncsv = {out_csv}\nsvg = {tmp_path / 'out.svg'}\n"))
        assert cli.main(["sweep", "--config", cfg]) == 1
        assert not out_csv.exists()

    def test_sweep_reruns_byte_identical(self, capsys, tmp_path):
        cfg = write_config(tmp_path, BASE_CONFIG)
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert cli.main(["sweep", "--config", cfg, "--out", str(a)]) == 0
        assert cli.main(["sweep", "--config", cfg, "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_env_seed_overrides_config(self, capsys, tmp_path, monkeypatch):
        cfg = write_config(tmp_path, BASE_CONFIG)
        out = tmp_path / "env.csv"
        monkeypatch.setenv("FRESHSCHED_SEED", "31415")
        assert cli.main(["sweep", "--config", cfg, "--out", str(out)]) == 0
        seeds = {r.seed for r in read_csv(str(out)) if r.source == "sim"}
        assert seeds == {31415}

    def test_flag_seed_beats_env(self, capsys, tmp_path, monkeypatch):
        cfg = write_config(tmp_path, BASE_CONFIG)
        out = tmp_path / "flag.csv"
        monkeypatch.setenv("FRESHSCHED_SEED", "31415")
        assert cli.main(["sweep", "--config", cfg, "--out", str(out),
                         "--seed", "271"]) == 0
        seeds = {r.seed for r in read_csv(str(out)) if r.source == "sim"}
        assert seeds == {271}

    def test_simulate_writes_rows(self, capsys, tmp_path):
        out = tmp_path / "sim.csv"
        code = cli.main(["simulate", "--policy", "joint-mn", "--m", "2", "--n", "2",
                         "--lambda-u", "0.3", "--lambda-q", "0.3",
                         "--horizon", "300", "--reps", "2", "--out", str(out)])
        assert code == 0
        rows = read_csv(str(out))
        assert {r.metric for r in rows} == {"response_time", "paoi", "aoi", "nq", "nu"}
        assert all(r.policy == "joint-mn" for r in rows)

    def test_simulate_out_marks_unstable_rows(self, capsys, tmp_path):
        out = tmp_path / "sim.csv"
        code = cli.main(["simulate", "--policy", "fcfs", "--lambda-u", "0.9",
                         "--lambda-q", "0.2", "--horizon", "300", "--reps", "2",
                         "--out", str(out)])
        assert code == 0
        rows = read_csv(str(out))
        assert len(rows) == 5 and all(r.status == "unstable" for r in rows)

    def test_plot_from_csv(self, capsys, tmp_path):
        cfg = write_config(tmp_path, BASE_CONFIG + (
            "\n[sweep]\nrate = lambda_u\nstart = 0.2\nstop = 0.4\nstep = 0.1\n"))
        csv_path = tmp_path / "rows.csv"
        assert cli.main(["sweep", "--config", cfg, "--out", str(csv_path)]) == 0
        svg_path = tmp_path / "plot.svg"
        assert cli.main(["plot", "--csv", str(csv_path), "--out", str(svg_path),
                         "--x-axis", "lambda_u", "--metrics", "response_time,paoi"]) == 0
        assert svg_path.read_text().startswith("<svg")

    def test_plot_nodata_exits_1(self, capsys, tmp_path):
        csv_path = tmp_path / "empty.csv"
        emit_csv([], str(csv_path))
        assert cli.main(["plot", "--csv", str(csv_path),
                         "--out", str(tmp_path / "x.svg")]) == 1

    def test_compare_reports_agreement(self, capsys):
        code = cli.main(["compare", "--policy", "query-k", "--k", "1",
                         "--lambda-u", "0.5", "--lambda-q", "0.1",
                         "--horizon", "2000", "--reps", "4"])
        out = capsys.readouterr().out
        assert code == 0
        assert "agreement within 2 CI half-widths" in out

    def test_compare_unstable_exits_1_before_simulating(self, capsys, monkeypatch):
        def refuse(*args):
            raise AssertionError("compare simulated an unstable point")
        monkeypatch.setattr(experiment, "simulate_policies", refuse)
        code = cli.main(["compare", "--policy", "fcfs", "--lambda-u", "0.7",
                         "--lambda-q", "0.4"])
        assert code == 1
        assert "unstable" in capsys.readouterr().err

    def test_compare_one_replication_exits_1(self, capsys):
        code = cli.main(["compare", "--policy", "query-k", "--k", "1",
                         "--lambda-u", "0.5", "--lambda-q", "0.1",
                         "--horizon", "200", "--reps", "1"])
        assert code == 1
        assert "needs two replications" in capsys.readouterr().err

    @pytest.mark.parametrize("preset, expected", [(None, "1"), ("3", "3")],
                             ids=["default", "user-set"])
    def test_one_blas_thread_unless_set(self, preset, expected):
        src = Path(__file__).resolve().parent.parent / "src"
        env = dict(os.environ, PYTHONPATH=str(src))
        env.pop("OPENBLAS_NUM_THREADS", None)
        if preset is not None:
            env["OPENBLAS_NUM_THREADS"] = preset
        code = "import os, freshsched; print(os.environ['OPENBLAS_NUM_THREADS'])"
        done = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True, timeout=60)
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip() == expected

    def test_python_m_freshsched(self):
        src = Path(__file__).resolve().parent.parent / "src"
        env = dict(os.environ, PYTHONPATH=str(src))
        done = subprocess.run([sys.executable, "-m", "freshsched", "--help"], env=env,
                              capture_output=True, text=True, timeout=60)
        assert done.returncode == 0, done.stderr
        assert done.stdout.startswith("usage: freshsched")

    @pytest.mark.parametrize("policy, sources", [
        (["fcfs"], ["analytic"]),
        (["query-k", "--k", "1"], ["analytic", "ctmc"]),
        (["joint-mn", "--m", "2", "--n", "3"], ["ctmc"]),
    ], ids=["fcfs", "query1", "joint"])
    def test_compare_header_lists_the_exact_sources(self, capsys, policy, sources):
        code = cli.main(["compare", "--policy", *policy, "--lambda-u", "0.5",
                         "--lambda-q", "0.1", "--horizon", "2000", "--reps", "4"])
        header = capsys.readouterr().out.splitlines()[0].split()
        assert code == 0
        assert header == ["metric", "sim", "mean", "ci"] + [
            word for source in sources for word in (source, "agree")]
