"""The C library (`_event_loop.c`) against the Python it replaces: its event
loop against `_python_loop`, which defines it, on the same arguments and on
every output, its exact sum against `math.fsum` on finite terms with the sign
bit clear and its NaN on any other, its draws against `math.log`; and how it
is built, cached and given up.

The C half of this file is skipped where no C compiler is found; there only
the Python loop runs.
"""
import ctypes
import functools
import math
import os
import re
import shutil
import stat
import statistics
import subprocess
import warnings
from types import SimpleNamespace

import numpy as np
import pytest
import test_postpasses as postpasses
from test_postpasses import jobs  # noqa: F401  (the fixture the hand-built cases take)

from freshsched import policy as policy_module
from freshsched import simulator
from freshsched.model import Fcfs, JointMN, QueryK, UpdateK, validate_params
from freshsched.policy import NO_POSITION, OLDER_HEAD, ServerPosition, Trigger, decision_table
from freshsched.simulator import SimConfig, run_replication, run_replication_detailed

needs_compiler = pytest.mark.skipif(shutil.which(simulator._COMPILER) is None,
                                    reason="no C compiler found: only the Python loop runs")

POLICIES = [Fcfs(), QueryK(1), QueryK(3), UpdateK(1), UpdateK(3), JointMN(3, 3), JointMN(1, 5)]
# (lambda_u, lambda_q, mu_u, mu_q): rho = 0.6, 0.9, 0.95 from either side,
# then 0.9 with queries served twice as fast
LOADS = [(0.3, 0.3, 1, 1), (0.45, 0.45, 1, 1), (0.85, 0.1, 1, 1), (0.1, 0.85, 1, 1),
         (0.6, 0.6, 1, 2)]
CONFIG = SimConfig(1500.0, 0.0, 4, 7)
# the C loop clips its integrals and its samples at the warmup
WARM = SimConfig(1500.0, 300.0, 4, 7)
# the entries of the loops' ``sums``, as `simulator._simulate` allocates them
SUMS = 7


def run_on(monkeypatch, compiled, *args):
    # the jobs are drawn anew, with the draw of that setting
    monkeypatch.setattr(simulator, "COMPILED_LOOP", compiled)
    simulator.draw_jobs.cache_clear()
    return run_replication_detailed(*args)


@pytest.fixture
def fresh_loader(monkeypatch, tmp_path):
    """The compiled loop asked for, from a loader that has not yet looked for
    the library, with the per-user cache in an empty home; the next test
    finds the real one again."""
    monkeypatch.setattr(simulator, "COMPILED_LOOP", True)
    monkeypatch.setenv("HOME", str(tmp_path))
    simulator._compiled_loop.cache_clear()
    yield tmp_path / ".cache" / "freshsched"
    simulator._compiled_loop.cache_clear()


def loop_outputs(loop, jobs, policy, config):
    """What ``loop`` returns and writes, called as `simulator._simulate`
    calls it: the pending completion, the state, the sums, the peak-age
    samples and departures it wrote, and the whole remaining work."""
    at_u, at_q, work_u, work_q = jobs
    cap_q, cap_u, table = decision_table(policy)
    remain_u, remain_q = work_u.copy(), work_q.copy()
    depart_u, depart_q = np.empty_like(remain_u), np.empty_like(remain_q)
    paoi, state, sums = np.empty_like(remain_u), np.empty(7, np.int64), np.empty(SUMS)
    completion = loop(table, cap_q, cap_u, at_u, at_q, remain_u, remain_q, depart_u, depart_q,
                      config.warmup, config.horizon, state, sums, paoi)
    n_q, n_u, h_q, h_u, pos, responses, updates = state.tolist()
    return (completion, state.tolist(), sums.tolist(), paoi[:updates].tolist(),
            depart_u[:h_u].tolist(), depart_q[:h_q].tolist(), remain_u.tolist(),
            remain_q.tolist())


@needs_compiler
@pytest.mark.parametrize("rates", LOADS, ids=postpasses.load_id)
@pytest.mark.parametrize("policy", POLICIES, ids=str)
def test_the_c_loop_is_the_python_loop(monkeypatch, policy, rates):
    lambda_u, lambda_q, mu_u, mu_q = rates
    params = validate_params(lambda_u, mu_u, lambda_q, mu_q)
    library = simulator._compiled_loop()
    assert library is not None
    for config in (CONFIG, WARM):
        for rep in range(config.replications):
            compiled = run_on(monkeypatch, True, params, policy, config, rep)
            assert run_replication(params, policy, config, rep) == compiled[0]
            # the one contract: on the same arguments, the same return and
            # every output, also those `_simulate` does not read
            jobs = simulator.draw_jobs(params, config, rep)
            assert (loop_outputs(library.freshsched_event_loop, jobs, policy, config)
                    == loop_outputs(simulator._python_loop, jobs, policy, config))
            assert run_on(monkeypatch, False, params, policy, config, rep) == compiled


@pytest.mark.parametrize("compiled", [False, pytest.param(True, marks=needs_compiler)],
                         ids=["python", "c"])
@pytest.mark.parametrize("policy", POLICIES, ids=str)
def test_the_mean_peak_age_is_the_fmean_of_the_samples(monkeypatch, policy, compiled):
    # the loops sum the samples themselves; the mean must stay the one of
    # the samples that `run_replication_detailed` reports, to the bit
    if compiled:
        assert simulator._compiled_loop() is not None
    for lambda_u, lambda_q, mu_u, mu_q in LOADS:
        params = validate_params(lambda_u, mu_u, lambda_q, mu_q)
        for config in (CONFIG, WARM):
            for rep in range(config.replications):
                metrics, detail = run_on(monkeypatch, compiled, params, policy, config, rep)
                assert metrics.mean_paoi == statistics.fmean(detail.paoi_samples)


@pytest.mark.parametrize("compiled", [False, pytest.param(True, marks=needs_compiler)],
                         ids=["python", "c"])
def test_no_update_after_the_warmup_has_no_mean_peak_age(monkeypatch, jobs, compiled):  # noqa: F811
    # the one update departs at t = 2, before the warmup
    jobs([1.0, 11.0], [11.0], [1.0], [])
    monkeypatch.setattr(simulator, "COMPILED_LOOP", compiled)
    if compiled:
        assert simulator._compiled_loop() is not None
    for warmup, mean_paoi in ((0.0, 2.0), (5.0, None)):
        metrics, detail = run_replication_detailed(PARAMS, Fcfs(),
                                                   SimConfig(postpasses.HORIZON, warmup, 1, 1), 0)
        assert metrics.mean_paoi == mean_paoi
        assert detail.paoi_samples == ([] if mean_paoi is None else [mean_paoi])


# each equals the scalar oracle of `reference_simulator` or values worked out
# by hand on every policy, to the bit, so run on both loops they show the
# loops equal on that case
HAND_BUILT = [postpasses.test_departure_at_an_arrival_epoch,
              postpasses.test_simultaneous_update_and_query_arrivals,
              postpasses.test_arrival_and_departure_at_the_horizon,
              postpasses.test_warmup_at_an_event_epoch,
              postpasses.test_a_class_with_no_departures,
              postpasses.test_two_update_hand_trace,
              postpasses.test_zero_delay_service_resets_age_to_zero,
              postpasses.test_warmup_clips_integral_and_samples,
              postpasses.test_age_integral_nondecreasing]


@pytest.mark.parametrize("compiled", [False, pytest.param(True, marks=needs_compiler)],
                         ids=["python", "c"])
@pytest.mark.parametrize("case", HAND_BUILT, ids=lambda case: case.__name__[5:])
def test_hand_built_jobs_on_both_loops(monkeypatch, jobs, case, compiled):  # noqa: F811
    monkeypatch.setattr(simulator, "COMPILED_LOOP", compiled)
    if compiled:
        assert simulator._compiled_loop() is not None
    case(jobs)


@pytest.mark.parametrize("compiled", [False, pytest.param(True, marks=needs_compiler)],
                         ids=["python", "c"])
def test_jobs_short_of_the_horizon_are_refused_before_either_loop(
        monkeypatch, jobs, compiled):  # noqa: F811
    # no update arrival past the horizon: a loop would read past the end
    jobs([1.0, 2.0], [11.0], [1.0], [])
    monkeypatch.setattr(simulator, "COMPILED_LOOP", compiled)
    with pytest.raises(ValueError, match="past the horizon"):
        run_replication(validate_params(0.5, 1, 0.3, 1), Fcfs(),
                        SimConfig(postpasses.HORIZON, 0.0, 1, 1), 0)


@pytest.mark.parametrize("compiled", [False, pytest.param(True, marks=needs_compiler)],
                         ids=["python", "c"])
def test_a_table_that_leads_to_no_position_stops_either_loop(monkeypatch, compiled):
    # every move of this table is a trigger that cannot fire: a loop that
    # read it as a position would run on with a wrong server
    table = decision_table(Fcfs())
    monkeypatch.setattr(simulator, "decision_table", lambda policy: table._replace(
        next_position=np.full_like(table.next_position, NO_POSITION)))
    monkeypatch.setattr(simulator, "COMPILED_LOOP", compiled)
    with pytest.raises(RuntimeError, match="no server position"):
        run_replication(validate_params(0.5, 1, 0.3, 1), Fcfs(), SimConfig(50.0, 0.0, 1, 1), 0)


def enum_codes(source):
    """Every ``NAME = value`` of the ``enum`` lines of C source ``source``."""
    return {name: int(value) for line in source.splitlines() if line.startswith("enum")
            for name, value in re.findall(r"(\w+) = (-?\d+)", line)}


def test_the_c_loop_shares_the_codes_of_policy():
    # needs no compiler: the C loop indexes the table by these codes, so a
    # renumbering in `policy` alone would have it read the wrong rules
    source = simulator._SOURCE.read_text()
    assert enum_codes(source) == {
        "IDLE": ServerPosition.IDLE, "SERVE_Q": ServerPosition.SERVING_QUERY,
        "SERVE_U": ServerPosition.SERVING_UPDATE, "OLDER_HEAD": OLDER_HEAD,
        "ARRIVE_U": Trigger.ARRIVAL_UPDATE, "ARRIVE_Q": Trigger.ARRIVAL_QUERY,
        "DEPART_U": Trigger.DEPARTURE_UPDATE, "DEPART_Q": Trigger.DEPARTURE_QUERY}
    # the C loop's guard `new > SERVE_U` catches NO_POSITION only past them
    assert NO_POSITION > max(ServerPosition)
    # its comments cite the Python they transcribe in backquotes, each name
    # one of `simulator` or `policy` or of theirs: a renamed one cites nothing
    scope = {**vars(policy_module), **vars(simulator),
             "simulator": simulator, "policy": policy_module}
    for name in set(re.findall(r"`([\w.]+)`", source)):
        first, *rest = name.split(".")
        assert first in scope, name
        functools.reduce(getattr, rest, scope[first])


PARAMS = validate_params(0.5, 1, 0.3, 1)
SHORT = SimConfig(500.0, 0.0, 2, 3)


def test_the_c_loop_writes_as_many_sums_as_simulate_allocates(monkeypatch):
    # needs no compiler: the C loop writes one double per member of its sums
    # enum, so an enum longer than the array `_simulate` allocates would
    # write past its end, where no test sees it
    [members] = re.findall(r"^enum \{ ([\w, ]+), SUMS \};$", simulator._SOURCE.read_text(),
                           re.MULTILINE)
    allocated, loop = [], simulator._python_loop

    def python_loop(*args):
        allocated.append(len(args[12]))  # sums
        return loop(*args)
    monkeypatch.setattr(simulator, "COMPILED_LOOP", False)
    monkeypatch.setattr(simulator, "_python_loop", python_loop)
    run_replication(PARAMS, QueryK(2), SHORT, 0)
    assert allocated == [len(members.split(", "))] == [SUMS]


def python_runs(monkeypatch):
    with monkeypatch.context() as patched:
        patched.setattr(simulator, "COMPILED_LOOP", False)
        simulator.draw_jobs.cache_clear()
        return [run_replication(PARAMS, QueryK(2), SHORT, rep) for rep in range(2)]


def fake_compiler(directory, body):
    script = directory / "fake-cc"
    script.write_text("#!/bin/sh\n" + body)
    script.chmod(0o755)
    return str(script)


@pytest.mark.parametrize("body, reason", [
    ("echo 'fake-cc: error: no space left' >&2\necho 'second line' >&2\nexit 1\n",
     "fake-cc: error: no space left"),
    # the build "succeeds", but the library is not one
    ('while [ "$1" != -o ]; do shift; done\necho junk > "$2"\n', "event_loop-"),
])
def test_a_failed_build_or_load_warns_once_and_runs_the_python_loop(
        monkeypatch, fresh_loader, body, reason):
    monkeypatch.setattr(simulator, "_COMPILER", fake_compiler(fresh_loader.parent.parent, body))
    with pytest.warns(RuntimeWarning) as caught:
        runs = [run_replication(PARAMS, QueryK(2), SHORT, rep) for rep in range(2)]
    assert len(caught) == 1
    assert reason in str(caught[0].message)
    assert "second line" not in str(caught[0].message)
    assert runs == python_runs(monkeypatch)


def test_no_compiler_runs_the_python_loop_silently(monkeypatch, fresh_loader):
    monkeypatch.setattr(simulator, "_COMPILER", "no-such-compiler-for-freshsched")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        runs = [run_replication(PARAMS, QueryK(2), SHORT, rep) for rep in range(2)]
    assert simulator._compiled_loop() is None
    assert runs == python_runs(monkeypatch)
    assert not fresh_loader.exists()


@needs_compiler
def test_a_fresh_loader_reuses_the_cached_library(monkeypatch, fresh_loader):
    first = run_replication(PARAMS, QueryK(2), SHORT, 0)
    [library] = fresh_loader.iterdir()
    assert library.name.startswith("event_loop-") and library.suffix == ".so"
    assert stat.S_IMODE(fresh_loader.stat().st_mode) & 0o077 == 0
    simulator._compiled_loop.cache_clear()
    calls = []
    monkeypatch.setattr(subprocess, "run", lambda *args, **kw: calls.append(args))
    assert [first, run_replication(PARAMS, QueryK(2), SHORT, 1)] == python_runs(monkeypatch)
    assert simulator._compiled_loop() is not None and calls == []
    assert list(fresh_loader.iterdir()) == [library]


@needs_compiler
def test_a_build_keeps_the_libraries_of_other_sources(fresh_loader):
    # another tree's library under the same home: removing it would have
    # that tree build it again at its next run
    fresh_loader.mkdir(mode=0o700, parents=True)
    other = fresh_loader / "event_loop-0000000000000000.so"
    other.write_bytes(b"a library of another source")
    kept = fresh_loader / "notes.txt"
    kept.write_text("not a library")
    run_replication(PARAMS, QueryK(2), SHORT, 0)
    [library] = set(fresh_loader.glob("event_loop-*.so")) - {other}
    assert library.stat().st_size > 0
    assert other.read_bytes() == b"a library of another source"
    assert kept.read_text() == "not a library"


@needs_compiler
def test_the_source_compiles_without_warnings(tmp_path):
    library = tmp_path / "loop.so"
    # in the order of the build: the source before -lm
    built = subprocess.run([shutil.which(simulator._COMPILER), os.fspath(simulator._SOURCE),
                            "-o", os.fspath(library), *simulator._CFLAGS,
                            "-Wall", "-Wextra", "-Wpedantic", "-Werror"],
                           capture_output=True, text=True)
    assert built.returncode == 0, built.stderr
    assert built.stderr == ""
    # `simulator` calls them by name: a renamed one fails here, not at a draw
    loaded = ctypes.CDLL(os.fspath(library))
    for name in ("freshsched_event_loop", "freshsched_fsum", "freshsched_exponential"):
        assert hasattr(loaded, name), name


@needs_compiler
@pytest.mark.parametrize("rate", [1.0, 0.37, 0.85])
def test_the_c_draw_is_the_python_draw_to_the_bit(monkeypatch, rate):
    assert simulator._compiled_loop() is not None
    # 2M uniforms, then the smallest double, 2**-53 and the largest double below 1
    u = np.concatenate((np.random.default_rng(round(rate * 100)).random(2_000_000),
                        [5e-324, 2.0 ** -53, 1.0 - 2.0 ** -53]))
    stream = SimpleNamespace(random=lambda size: u[:size])
    draws = {}
    for compiled in (True, False):  # the C library's kernel, then math.log
        monkeypatch.setattr(simulator, "COMPILED_LOOP", compiled)
        draws[compiled] = simulator.exponential_draws(rate, stream, len(u))
    assert np.array_equal(draws[True].view(np.int64), draws[False].view(np.int64))


def c_fsum(terms):
    library = simulator._compiled_loop()
    assert library is not None
    return library.freshsched_fsum(np.array(terms, float), len(terms))


# each tells an exact sum from a near miss: [1e-16, 1, 1e16] from one that
# drops the bits below a tie, [0.1] * 10 from a naive sum
FSUM_CASES = [[1e-16, 1.0, 1e16], [1.0, 1e100, 1.0, 1e100], [0.1] * 10,
              [5e-324, 5e-324, 1e-310, 2.2250738585072009e-308, 1e-320], [], [1.0],
              [1.0, 2.0 ** -53, 2.0 ** -53],
              # ties to even, down and then up, and a tie broken by a bit far
              # below it
              [2.0 ** 53, 1.0], [2.0 ** 53, 3.0], [2.0 ** 53, 1.0, 2.0 ** -100],
              # subnormals only, whose sum is exact
              [5e-324, 2.0 ** -1060, 2.2250738585072004e-308, 1e-320],
              # a sum just inside DBL_MAX (one past it is among the NaN cases)
              [1.7976931348623157e308 / 4] * 3,
              # +0.0 among the terms
              [1.0, 0.0, 2.0 ** -60],
              # 100 000 mantissas of 2**52 + 1 in one bin overflow its low word
              [float(2 ** 52 + 1)] * 100_000]


def fsum_case_id(terms):
    return repr(terms) if len(terms) < 1000 else f"[{terms[0]!r}] * {len(terms)}"


@needs_compiler
@pytest.mark.parametrize("terms", FSUM_CASES, ids=fsum_case_id)
def test_the_c_sum_is_math_fsum_on_hand_picked_terms(terms):
    assert c_fsum(terms) == math.fsum(terms)


def random_terms(kind, rng, n):
    signs = rng.choice([-1.0, 1.0], n)
    if kind == "exponential":
        return rng.exponential(size=n)
    if kind == "e-700-to-e700":  # magnitudes from e^-700 to e^700, mixed signs
        return signs * np.exp(rng.uniform(-700.0, 700.0, n))
    if kind == "positive-e-745-to-e700":  # subnormals to 1e304, in the integer bins
        return np.exp(rng.uniform(-745.0, 700.0, n))
    if kind == "cancelling":
        return signs * rng.choice([1.0, 1e16, 1e-16, 2.0 ** -53, 1.0 + 2.0 ** -52], n)
    if kind == "scaled-integers":
        return np.ldexp(rng.integers(-2 ** 53, 2 ** 53, n).astype(float), rng.integers(-1000, 900))
    assert kind == "powers-of-two"
    return signs * np.ldexp(1.0, rng.integers(-1074, 1000, n))


@needs_compiler
@pytest.mark.parametrize("seed, kind", enumerate(["exponential", "e-700-to-e700", "cancelling",
                                                   "scaled-integers", "powers-of-two",
                                                   "positive-e-745-to-e700"]))
def test_the_c_sum_is_math_fsum_on_seeded_terms(seed, kind):
    # the signed kinds are summed with their signs cleared, and as drawn
    # give NaN if any term has its sign bit set
    rng = np.random.default_rng(seed)
    for _ in range(200):
        drawn = random_terms(kind, rng, rng.integers(1, 500))
        terms = np.abs(drawn).tolist()
        assert c_fsum(terms) == math.fsum(terms), terms
        if np.signbit(drawn).any():
            assert math.isnan(c_fsum(drawn.tolist())), drawn.tolist()


@needs_compiler
def test_the_c_sum_is_nan_where_math_fsum_raises():
    # NaN too wherever a term is not finite or has its sign bit set: no
    # peak-age sample is either
    assert math.isnan(c_fsum([math.inf, 1.0]))
    assert math.isnan(c_fsum([1.0, math.nan]))
    for terms in ([1.0, 1e100, 1.0, -1e100],
                  [5e-324, 5e-324, -1e-310, 2.2250738585072009e-308, 1e-320],
                  [1.0, -0.0, 2.0 ** -60]):
        assert math.isnan(c_fsum(terms)), terms
    for terms, error in (([math.inf, -math.inf], ValueError),
                         ([1e308, 1e308, -1e308], OverflowError),  # an intermediate overflow
                         # finite and positive, but the sum rounds past DBL_MAX
                         ([1.7976931348623157e308] * 2, OverflowError)):
        with pytest.raises(error):
            math.fsum(terms)
        assert math.isnan(c_fsum(terms))
