"""No command loads scipy: only the truncated reference chain, which the tests
and the benchmark call, imports it. Nor does one load `statistics`, whose
exact sums in Fractions `simulator.aggregate` replaced, or the `fractions`
and `decimal` it imports."""
import os
import subprocess
import sys
from pathlib import Path

import pytest

from test_configs import cut_to_two_points

ROOT = Path(__file__).resolve().parent.parent
SWEEP = ROOT / "scripts" / "configs" / "update_load_sweep.cfg"
# runs the command given on its command line, if any, and prints the modules
# of statistics and of scipy loaded by then
PROBE = """\
import sys
import freshsched.ctmc
if len(sys.argv) > 1:
    from freshsched import cli
    code = cli.main(sys.argv[1:])
    assert code == 0, f"exit code {code}"
print("statistics modules:", sorted(m for m in sys.modules
                                    if m in ("statistics", "fractions", "decimal")))
print("scipy modules:", sorted(m for m in sys.modules if m.partition(".")[0] == "scipy"))
"""


@pytest.mark.parametrize("argv", [
    [],
    ["analyze", "--policy", "fcfs", "--lambda-u", "0.5", "--lambda-q", "0.1"],
    ["simulate", "--policy", "query-k", "--k", "3", "--lambda-u", "0.3", "--lambda-q", "0.3",
     "--horizon", "500", "--reps", "2", "--seed", "1"],
    ["compare", "--policy", "query-k", "--k", "1", "--lambda-u", "0.5", "--lambda-q", "0.1",
     "--horizon", "500", "--reps", "2"],
    ["solve", "--policy", "query-k", "--k", "3", "--lambda-u", "0.8", "--lambda-q", "0.1"],
    ["solve", "--policy", "joint-mn", "--m", "1", "--n", "5", "--lambda-u", "0.33",
     "--lambda-q", "0.33"],
    ["sweep", "--config", "update_load_sweep.cfg"],
], ids=["import-ctmc", "analyze", "simulate", "compare", "solve-query-k", "solve-joint-mn",
        "sweep"])
def test_no_command_loads_scipy(tmp_path, argv):
    # the sweep's cut copy names its outputs relative to the cwd
    (tmp_path / SWEEP.name).write_text(cut_to_two_points(SWEEP.read_text(), 0.1))
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    env.pop("FRESHSCHED_SEED", None)
    done = subprocess.run([sys.executable, "-c", PROBE, *argv], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-2:] == ["statistics modules: []", "scipy modules: []"]
