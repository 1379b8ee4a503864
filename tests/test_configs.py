"""Every shipped sweep config runs end to end on a copy cut to two points."""
import hashlib
import re
from pathlib import Path

import pytest

from freshsched import cli
from freshsched.config import parse_config
from freshsched.experiment import METRICS, read_csv

CONFIGS = sorted((Path(__file__).resolve().parent.parent / "scripts" / "configs").glob("*.cfg"))

ALL_SOURCES = {"analytic", "ctmc", "sim"}
# policy types, sources, row count and charted curves at the first two points
# of each config; a curve is one (section, metric, source) of the two charted
# metrics, and a threshold on the axis does not split it
EXPECTED = {
    "update_load_sweep": ({"fcfs", "query-k"}, ALL_SOURCES, 5 * 2 * 7, 2 * 7),
    "query_load_sweep": ({"fcfs", "update-k"}, ALL_SOURCES, 5 * 2 * 7, 2 * 7),
    "threshold_tradeoff": ({"query-k", "update-k"}, ALL_SOURCES, 5 * (6 + 4), 2 * 6),
    "joint_grid": ({"joint-mn"}, {"ctmc", "sim"}, 5 * 2 * 3 * 2, 2 * 3 * 2),
}
# sha256 of each cut CSV at the config's own seed: a change meant to keep every
# number keeps these bytes, and one that changes a number renews the digest
CSV_SHA256 = {
    "update_load_sweep": "0e5a79142c4a2bfe4956c9e6446c9e2f6b85324b2ce38c33c092a1a7155bd6f7",
    "query_load_sweep": "9628f5938b9c57a12121999736ef620786d3fd032219e2cc9f0847a113e8514a",
    "threshold_tradeoff": "bad8a2951877ca61bf33c3be7c22a9aa6955ca8ca9dd1cd46f9aded598726bc5",
    "joint_grid": "a97ff819fb188436e0d0d5810312dbe72243a1b46e771f906e4bdcb2f874b222",
}


def cut_to_two_points(text, stop):
    """``text`` with the sweep ending at ``stop``, horizon 200 and 2 replications."""
    for key, value in (("stop", stop), ("horizon", 200), ("replications", 2)):
        text, count = re.subn(rf"^{key} = .*$", f"{key} = {value}", text, flags=re.M)
        assert count == 1, key
    return text


def test_every_shipped_config_is_covered():
    assert {path.stem for path in CONFIGS} == set(EXPECTED) == set(CSV_SHA256)


@pytest.mark.parametrize("path", CONFIGS, ids=[path.stem for path in CONFIGS])
def test_config_writes_csv_and_svg(capsys, monkeypatch, tmp_path, path):
    axis = parse_config(str(path)).sweep
    cut = tmp_path / path.name
    cut.write_text(cut_to_two_points(path.read_text(), axis.start + axis.step))
    monkeypatch.chdir(tmp_path)  # the configs name their outputs relative to the cwd
    monkeypatch.delenv("FRESHSCHED_SEED", raising=False)
    assert cli.main(["sweep", "--config", str(cut)]) == 0

    spec = parse_config(str(cut))
    assert hashlib.sha256(Path(spec.csv_path).read_bytes()).hexdigest() == CSV_SHA256[path.stem]
    rows = read_csv(spec.csv_path)
    policies, sources, n_rows, n_curves = EXPECTED[path.stem]
    assert {r.policy for r in rows} == policies
    assert {r.source for r in rows} == sources
    assert len(rows) == n_rows
    groups = {}
    for r in rows:
        key = (r.lambda_u, r.lambda_q, r.mu_u, r.mu_q, r.policy, r.m, r.n, r.k, r.source)
        groups.setdefault(key, []).append(r.metric)
    assert all(sorted(metrics) == sorted(METRICS) for metrics in groups.values())
    assert len({getattr(r, axis.rate) for r in rows}) == 2
    assert all(r.status == "ok" or (r.metric == "aoi" and r.source != "sim")
               for r in rows)
    svg = Path(spec.svg_path).read_text()
    assert svg.startswith("<svg")
    assert svg.count("<polyline") == n_curves
