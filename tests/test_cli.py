import pytest

from freshsched import cli, ctmc
from freshsched.config import (
    ParseError,
    SweepAxis,
    ValidationError,
    parse_config,
    parse_threshold,
)
from freshsched.experiment import CSV_HEADER, ResultRow, emit_csv, read_csv, run_experiment
from freshsched.model import UNBOUNDED, Fcfs, JointMN, QueryK
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


def write_config(tmp_path, text, name="exp.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


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

    def test_comments_and_blank_lines_ignored(self, tmp_path):
        cfg = "# leading comment\n" + BASE_CONFIG.replace(
            "mu_u = 1", "mu_u = 1  # inline comment")
        spec = parse_config(write_config(tmp_path, cfg))
        assert spec.mu_u == 1.0

    def test_unbounded_threshold(self, tmp_path):
        cfg = BASE_CONFIG + "\n[policy.deep]\ntype = query-k\nk = inf\n"
        spec = parse_config(write_config(tmp_path, cfg))
        assert spec.policies[1].spec == QueryK(UNBOUNDED)

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

    def test_parse_threshold(self):
        assert parse_threshold("4") == 4
        assert parse_threshold("inf") is UNBOUNDED
        assert parse_threshold("Unbounded") is UNBOUNDED
        with pytest.raises(ValueError):
            parse_threshold("4.5")


class TestRunExperiment:
    def test_row_count_is_predictable(self, tmp_path):
        cfg = BASE_CONFIG + ("\n[policy.q1]\ntype = query-k\nk = 1\n"
                             "\n[sweep]\nrate = lambda_u\nstart = 0.2\nstop = 0.6\nstep = 0.2\n")
        rows = run_experiment(parse_config(write_config(tmp_path, cfg)))
        # 3 points x 5 metrics x (fcfs: analytic+sim, query-1: analytic+ctmc+sim)
        assert len(rows) == 3 * 5 * (2 + 3)

    def test_unsupported_engine_rows_are_marked(self, tmp_path):
        cfg = BASE_CONFIG.replace("type = fcfs", "type = fcfs\nengine = ctmc")
        rows = run_experiment(parse_config(write_config(tmp_path, cfg)))
        assert len(rows) == 5
        assert all(r.status == "error: unsupported engine" for r in rows)
        assert all(r.mean is None and r.source == "ctmc" for r in rows)

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
        rows = [ResultRow("query-k", None, None, "inf", 0.5, 0.1, 1.0, 1.0,
                          "paoi", "sim", 4.5, 0.25, 10, 20000.0, 7, "ok")]
        path = tmp_path / "rt.csv"
        emit_csv(rows, str(path))
        back = read_csv(str(path))
        assert back[0].k == "inf"
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

    def test_invalid_rate_exits_1(self, capsys):
        code = cli.main(["analyze", "--policy", "fcfs", "--lambda-u", "-1",
                         "--lambda-q", "0.1"])
        assert code == 1

    def test_unstable_exits_1(self, capsys):
        code = cli.main(["analyze", "--policy", "fcfs", "--lambda-u", "0.9",
                         "--lambda-q", "0.2"])
        assert code == 1

    def test_solve_truncation_too_small_exits_2(self, capsys):
        code = cli.main(["solve", "--policy", "query-k", "--k", "5",
                         "--lambda-u", "0.5", "--lambda-q", "0.1", "--trunc", "4"])
        assert code == 2

    def test_solve_prints_truncation(self, capsys):
        code = cli.main(["solve", "--policy", "query-k", "--k", "1",
                         "--lambda-u", "0.5", "--lambda-q", "0.1"])
        out = capsys.readouterr().out
        assert code == 0
        assert "truncation = 16 x 64 (" in out

    def test_solve_joint_prints_truncation(self, capsys):
        code = cli.main(["solve", "--policy", "joint-mn", "--m", "2", "--n", "3",
                         "--lambda-u", "0.5", "--lambda-q", "0.1"])
        out = capsys.readouterr().out
        assert code == 0
        assert "policy = joint-mn" in out
        assert "truncation = 64 x 64 (" in out

    def test_solve_past_state_cap_exits_2(self, capsys, monkeypatch):
        monkeypatch.setattr(ctmc, "MAX_STATES", 100)
        code = cli.main(["solve", "--policy", "query-k", "--k", "1",
                         "--lambda-u", "0.5", "--lambda-q", "0.1"])
        assert code == 2
        assert "states" in capsys.readouterr().err

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

    def test_compare_joint_has_chain_column(self, capsys):
        code = cli.main(["compare", "--policy", "joint-mn", "--m", "2", "--n", "3",
                         "--lambda-u", "0.5", "--lambda-q", "0.1",
                         "--horizon", "2000", "--reps", "4"])
        out = capsys.readouterr().out
        assert code == 0
        assert "ctmc" in out.splitlines()[0]
