import runpy
import sys
from pathlib import Path

import pytest

from freshsched.experiment import read_csv

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def run_script(monkeypatch, name, *args):
    monkeypatch.setattr(sys, "argv", [name, *args])
    runpy.run_path(str(SCRIPTS / name), run_name="__main__")


@pytest.mark.parametrize("name, args, policies, sources", [
    ("run_threshold_tradeoff.py", ["--max-k", "2"], {"query-k", "update-k"},
     {"analytic", "ctmc", "sim"}),
    ("run_joint_grid.py", ["--thresholds", "1", "2"], {"joint-mn"}, {"ctmc", "sim"}),
], ids=["threshold_tradeoff", "joint_grid"])
def test_script_writes_csv_and_svg(monkeypatch, capsys, tmp_path, name, args,
                                   policies, sources):
    csv_path, svg_path = tmp_path / "out.csv", tmp_path / "out.svg"
    run_script(monkeypatch, name, *args, "--horizon", "200", "--reps", "2",
               "--csv", str(csv_path), "--svg", str(svg_path))
    rows = read_csv(str(csv_path))
    # four policies (k = 1, 2 or the 2 x 2 grid), five metrics per source
    assert {r.policy for r in rows} == policies
    assert {r.source for r in rows} == sources
    assert len(rows) == 5 * (4 * 2 + (2 if "analytic" in sources else 0))
    assert all(r.status == "ok" or (r.metric == "aoi" and r.source != "sim")
               for r in rows)
    assert svg_path.read_text().startswith("<svg")
