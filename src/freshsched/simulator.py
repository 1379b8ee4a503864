"""Discrete-event engine for the two-class single-server system.

Each replication derives four RNG streams (update/query arrivals, update/query
service draws) deterministically from (base_seed, rep_index), so every policy
run on the same seed sees identical jobs (common random numbers). `draw_jobs`
draws them in blocks before the event loop: arrival epochs through the first
one past the horizon, and one service requirement per arrival, in arrival
order, as read-only float64 arrays. It keeps the last replication's jobs, so
policies run back to back on one replication (as `experiment` runs them) draw
its jobs once. A draw is -ln(u)/rate with libm's ``log``: the C library
below calls it over each block of uniforms, and where that library does not
run, ``math.log``, which calls it too, is mapped over them; the negation and
the division follow, each rounded once, and the arrival epochs' running sum
is ``np.cumsum``, which adds left to right. ``np.log`` would be faster, but
it is vectorised differently and moves the last bit of some draws (6972 of
2M uniforms on an AVX-512 Xeon), which would change every result.

The event loop moves the state machine. Each event kind has one branch:
a departure, which comes first, then an update arrival, then a query arrival,
so simultaneous arrivals serve the update first. A branch checks the horizon
itself, reads the switching decision from `policy.decision_table`, moves the
queue counts and heads and, on a change of position, banks the remaining
work of a preempted head. A position's rules are read from the table only
when the position changes. A departure writes its epoch at the departing
head's index into a preallocated array and starts the next job directly,
since the departed head has no work to bank. Within a class service is FIFO
preempt-resume, so each queue is a head index into its class's arrays and
only the head can be part-served; the loop copies the service requirements
before writing remaining work. The Python loop reads the arrays as lists,
since indexing an array in a Python loop makes a numpy scalar per read and
is slower.

Where a C compiler is found, the loop and the draws run in one C library.
`_event_loop.c` transcribes `_python_loop`, which defines it, branch for
branch, with the same comparisons. In the same pass over the events it takes
every sum of the replication: the n_q and n_u integrals clipped to
(warmup, horizon], the busy time, the age integral, each class's count and
sum of system times after the warmup; and it writes the peak-age samples
into an array, whose mean is ``statistics.fmean``, an exact sum, in Python.
The library is built at the first replication with
``cc -O2 -fPIC -shared -ffp-contract=off -std=c99 -lm`` into the per-user
cache ``~/.cache/freshsched``, and loaded through ctypes. Its results equal
the Python path's to the bit: the loop computes each term as the numpy
post-passes below do and adds it in their order, each operation on doubles
rounded once in either language; the build allows no contraction into fused
multiply-adds and no ``-ffast-math``, and the source refuses to build where
doubles would be evaluated in extended precision. Where no compiler is
found the Python loop runs; where the build or the load fails, it runs after
one RuntimeWarning.

On that path every sum is computed after the loop, in numpy, from the
arrival and departure epochs; these post-passes are also the oracle of the C
library's sums. `occupancy` merges the epochs in time order and steps the
n_q and n_u integrals and the busy time from one event to the next, as the
loop would. `age_metrics` gives the age integral and the peak-age samples,
and `_system_times` the system times of each class. Every sum adds its terms
left to right with `np.cumsum`, in the order a loop adds them, so each sum
equals the loop's to the bit; `np.sum` adds pairwise and `math.fsum` exactly,
and either would move last bits. The age areas square as `x * x`. A loop's
`x ** 2` calls libm's pow, which is not correctly rounded on every input, so
the mean age can differ from a loop's in its last bits.
"""
from __future__ import annotations

import contextlib
import ctypes
import hashlib
import math
import os
import platform
import shutil
import statistics
import subprocess
import tempfile
import warnings
from array import array
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path
from typing import Dict, List, Sequence, Tuple

import numpy as np

from .model import JobClass, JobRecord, ModelParams, ReplicationMetrics
from .policy import (ARRIVE_Q, ARRIVE_U, DEPART_Q, DEPART_U, OLDER_HEAD, Z_IDLE, Z_QUERY,
                     Z_UPDATE, decision_table)


@dataclass(frozen=True)
class SimConfig:
    """One simulation setup. The defaults are those of the CLI and of configs."""

    horizon: float = 20000.0
    warmup: float = 0.0
    replications: int = 10
    base_seed: int = 12345

    def __post_init__(self):
        if not (math.isfinite(self.horizon) and self.horizon > self.warmup >= 0):
            raise ValueError(f"need a finite horizon > warmup >= 0, "
                             f"got {self.horizon}, {self.warmup}")
        if self.replications < 1:
            raise ValueError("replications must be >= 1")
        if self.base_seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.base_seed}")


class OutOfOrderDeparture(RuntimeError):
    """An update departed with an older generation time than one already delivered."""


def exponential_draws(rate: float, stream, n: int) -> np.ndarray:
    """n inverse-transform draws -ln(u)/rate with u uniform on (0, 1).

    The uniforms come in blocks from ``stream.random(size)``, and a zero is
    skipped, so the draws are those of n one-at-a-time draws that redraw a
    zero. The log is libm's, which keeps every value bit-identical to such a
    draw, where ``np.log`` would move the last bit of some: the C library's
    kernel calls it where `_compiled_loop` loaded the library, and else
    ``math.log``, which calls it too, is mapped over the uniforms.
    """
    if rate <= 0:
        raise ValueError("rate must be positive")
    u = stream.random(n)
    u = u[u > 0.0]
    while len(u) < n:
        more = stream.random(n - len(u))
        u = np.concatenate((u, more[more > 0.0]))
    library = _compiled_loop() if COMPILED_LOOP else None
    if library is not None:
        draws = np.empty(n)
        library.freshsched_exponential(u, n, rate, draws)
        return draws
    draws = np.fromiter(map(math.log, u.tolist()), float, n)
    np.negative(draws, out=draws)
    draws /= rate
    return draws


def _arrival_epochs(rate: float, stream, horizon: float) -> np.ndarray:
    """Poisson arrival epochs in (0, horizon], then the first one past it."""
    # four standard deviations over the mean count, so one block nearly
    # always reaches past the horizon
    mean = rate * horizon
    block = int(mean + 4.0 * math.sqrt(mean)) + 16
    blocks = []
    last = 0.0
    while last <= horizon:
        # a running sum carried across blocks, so each epoch is its
        # predecessor plus one draw, added left to right
        draws = exponential_draws(rate, stream, block)
        draws[0] += last
        blocks.append(np.cumsum(draws, out=draws))
        last = draws[-1]
    epochs = np.concatenate(blocks) if len(blocks) > 1 else blocks[0]  # one block: no copy
    return epochs[:np.searchsorted(epochs, horizon, side="right") + 1]


def _rng_streams(base_seed: int, rep_index: int):
    root = np.random.SeedSequence(entropy=base_seed, spawn_key=(rep_index,))
    return [np.random.Generator(np.random.PCG64(child)) for child in root.spawn(4)]


@lru_cache(maxsize=1)
def draw_jobs(params: ModelParams, config: SimConfig,
              rep_index: int) -> Tuple[np.ndarray, ...]:
    """Replication ``rep_index``'s jobs as float64 arrays: the update and
    query arrival epochs (each through the first one past the horizon), then
    the update and query service requirements, one per arrival inside the
    horizon.

    They depend on the rates, the horizon, the seed and the replication, not
    on the policy. The one-entry memo serves every policy that runs on this
    replication right after the first; the arrays are read-only, which keeps
    those callers from writing to the shared jobs.
    """
    u_arr, q_arr, u_svc, q_svc = _rng_streams(config.base_seed, rep_index)
    arrive_u = _arrival_epochs(params.lambda_u, u_arr, config.horizon)
    arrive_q = _arrival_epochs(params.lambda_q, q_arr, config.horizon)
    jobs = (arrive_u, arrive_q,
            exponential_draws(params.mu_u, u_svc, len(arrive_u) - 1),
            exponential_draws(params.mu_q, q_svc, len(arrive_q) - 1))
    for stream in jobs:
        stream.flags.writeable = False
    return jobs


def _sum_in_order(terms: np.ndarray) -> float:
    """The sum of ``terms`` added left to right, as a loop adds them; 0.0 if
    there are none. It overwrites ``terms`` with the running sums.

    ``np.cumsum`` adds in that order. ``np.sum`` adds pairwise and
    ``math.fsum`` exactly, and either would move last bits.
    """
    return float(np.cumsum(terms, out=terms)[-1]) if len(terms) else 0.0


def _age_areas(g, t0, t1, warmup: float, horizon: float) -> np.ndarray:
    """Integrals of the age t - g over (t0, t1] clipped to (warmup, horizon].

    The squares are ``x * x``: ``x ** 2`` calls libm's pow, which is not
    correctly rounded on every input.
    """
    a = np.maximum(t0, warmup)
    b = np.minimum(t1, horizon)
    kept = b > a
    a -= g
    b -= g
    return np.where(kept, (b * b - a * a) / 2.0, 0.0)


def age_metrics(generations: Sequence[float], departures: Sequence[float],
                warmup: float, horizon: float) -> Tuple[float, List[float]]:
    """Integral of the age over (warmup, horizon] and one peak-age sample per
    update delivered in that window.

    The update generated at ``generations[i]`` is delivered at
    ``departures[i]``, in departure order; ``generations`` may run past the
    last departure. The age starts at 0 at t = 0, as if an update generated
    then were delivered, so the first peak spans from time 0. Each peak is
    (inter-arrival) + (system time) from the raw timestamps, the defining
    decomposition of a peak (Kaul, Yates & Gruteser, INFOCOM 2012).
    """
    now = np.asarray(departures, dtype=float)
    generation = np.asarray(generations, dtype=float)[:len(now)]
    # from each delivery to the next, then from the last one to the horizon:
    # the freshest delivered generation and the ends, all 0 before the first
    g = np.concatenate(([0.0], generation))
    t = np.concatenate(([0.0], now, [horizon]))
    bad = np.flatnonzero((generation > now) | (generation < g[:-1]))
    if bad.size:
        i = bad[0]
        if generation[i] > now[i]:
            raise ValueError("generation_time after departure time")
        raise OutOfOrderDeparture(f"update generated at {float(generation[i])} "
                                  f"delivered after one from {float(g[i])}")
    in_window = (now > warmup) & (now <= horizon)
    samples = ((generation - g[:-1]) + (now - generation))[in_window].tolist()
    return _sum_in_order(_age_areas(g, t[:-1], t[1:], warmup, horizon)), samples


def occupancy(arrive_q, depart_q, arrive_u, depart_u,
              warmup: float, horizon: float) -> Tuple[float, float, float]:
    """Time integrals of n_q and n_u over (warmup, horizon], and the busy time
    over (0, horizon], from the epochs of the arrivals inside the horizon and
    of the departures.

    The epochs are merged in time order and the counts stepped from one event
    to the next, as the event loop moved them. Tied epochs bound intervals of
    length 0, which add 0.0, so the order of tied events does not matter.
    Every policy is work-conserving, so the server is busy iff a queue is
    nonempty.
    """
    # time 0, the events, then the horizon, which ends the last interval
    epochs = np.concatenate(([0.0], arrive_q, depart_q, arrive_u, depart_u, [horizon]))
    order = np.argsort(epochs, kind="stable")
    sizes = (1, len(arrive_q), len(depart_q), len(arrive_u), len(depart_u), 1)
    # the counts from each epoch to the next
    n_q, n_u = (np.cumsum(np.repeat(np.array(steps, np.int8), sizes)[order[:-1]],
                          dtype=np.int32)
                for steps in ((0, 1, -1, 0, 0, 0), (0, 0, 0, 1, -1, 0)))
    t = epochs[order]
    del epochs, order  # freed before the arrays of the intervals are made
    start, end = t[:-1], t[1:]
    # each interval's part after the warmup, written in place
    dt = np.maximum(start, warmup)
    np.subtract(end, dt, out=dt)
    np.maximum(dt, 0.0, out=dt)
    nq_integral, nu_integral = _sum_in_order(n_q * dt), _sum_in_order(n_u * dt)
    busy = np.subtract(end, start, out=dt)
    busy[n_q + n_u == 0] = 0.0
    return nq_integral, nu_integral, _sum_in_order(busy)


@dataclass
class ReplicationDetail:
    """Extra per-run data for invariant checks (not part of the metrics).
    ``jobs`` are the completed queries, then updates, each in arrival order."""

    jobs: List[JobRecord]
    paoi_samples: List[float]
    busy_time: float
    arrived_service: float
    completed_service: float
    residual_work: float


def _system_times(arrivals: np.ndarray, departures: np.ndarray,
                  warmup: float) -> Tuple[int, float]:
    """Count and sum of the system times of the jobs that departed after warmup."""
    after = departures > warmup
    times = (departures - arrivals[:len(departures)])[after]
    return len(times), _sum_in_order(times)


def run_replication(params: ModelParams, policy, config: SimConfig,
                    rep_index: int) -> ReplicationMetrics:
    metrics, _ = _simulate(params, policy, config, rep_index, collect_jobs=False)
    return metrics


def run_replication_detailed(params: ModelParams, policy, config: SimConfig,
                             rep_index: int) -> Tuple[ReplicationMetrics, ReplicationDetail]:
    return _simulate(params, policy, config, rep_index, collect_jobs=True)


def _python_loop(jobs, policy, horizon):
    """The event loop in Python: the definition of `_event_loop.c`, and what
    runs where that is not built.

    Returns the pending completion epoch, (n_q, n_u, h_q, h_u, position) at
    the end, each class's departure epochs as an array whose first h entries
    are written, and each class's remaining work.
    """
    # each class: arrival epochs (the last one past the horizon), remaining
    # work (the service requirements, written on preemption) and departure
    # epochs, written at the departing head's index; as lists, which a
    # Python loop indexes faster than arrays
    arrive_u, arrive_q, remain_u, remain_q = (stream.tolist() for stream in jobs)
    depart_u, depart_q = array("d", [0.0]) * len(remain_u), array("d", [0.0]) * len(remain_q)
    cap_q, cap_u, table = decision_table(policy)
    # each position's rules on an update arrival, on a query arrival and on
    # the departure of the job it serves, read again when the position changes;
    # `NO_POSITION` indexes past them
    moves = [(rules[ARRIVE_U], rules[ARRIVE_Q], rules[DEPART_Q if z == Z_QUERY else DEPART_U])
             for z, rules in enumerate(table.tolist())]
    # the codes as locals, which the loop reads faster than globals
    serve_q, serve_u, older_head, inf = Z_QUERY, Z_UPDATE, OLDER_HEAD, math.inf

    n_q = n_u = 0  # queue lengths
    h_q = h_u = 0  # index of each queue's head
    next_u, next_q = arrive_u[0], arrive_q[0]
    pos = Z_IDLE
    on_u, on_q, on_done = moves[pos]
    completion = inf

    while True:
        i = n_q if n_q < cap_q else cap_q
        j = n_u if n_u < cap_u else cap_u
        if completion <= next_u and completion <= next_q:
            t = completion
            if t > horizon:
                break
            new = on_done[i][j]
            if pos == serve_q:
                depart_q[h_q] = t
                n_q -= 1
                h_q += 1
            else:
                depart_u[h_u] = t
                n_u -= 1
                h_u += 1
            if new == older_head:
                new = serve_u if arrive_u[h_u] <= arrive_q[h_q] else serve_q
            # the departed head has no work to bank
            if new == serve_q:
                completion = t + remain_q[h_q]
            elif new == serve_u:
                completion = t + remain_u[h_u]
            else:
                completion = inf
            if new != pos:
                pos = new
                on_u, on_q, on_done = moves[pos]
            continue
        if next_u <= next_q:  # simultaneous arrivals serve the update first
            t = next_u
            if t > horizon:
                break
            new = on_u[i][j]
            n_u += 1
            next_u = arrive_u[h_u + n_u]
        else:
            t = next_q
            if t > horizon:
                break
            new = on_q[i][j]
            n_q += 1
            next_q = arrive_q[h_q + n_q]
        if new != pos:  # preempt-resume: bank the head's remaining work
            if pos == serve_q:
                remain_q[h_q] = completion - t
            elif pos == serve_u:
                remain_u[h_u] = completion - t
            if new == serve_q:
                completion = t + remain_q[h_q]
            elif new == serve_u:
                completion = t + remain_u[h_u]
            else:
                completion = inf
            pos = new
            on_u, on_q, on_done = moves[pos]

    return (completion, (n_q, n_u, h_q, h_u, pos), np.frombuffer(depart_u),
            np.frombuffer(depart_q), remain_u, remain_q)


# False runs `_python_loop` and the post-passes, and draws with `math.log`,
# where the C library would run; tests set it
COMPILED_LOOP = True
_SOURCE = Path(__file__).with_name("_event_loop.c")
_COMPILER = "cc"
# no -ffast-math, no contraction of a*b + c into one rounding, and libm's log
_CFLAGS = ("-O2", "-fPIC", "-shared", "-ffp-contract=off", "-std=c99", "-lm")


@lru_cache(maxsize=None)
def _compiled_loop():
    """The C library of `_event_loop.c`, with the event loop and the draw
    kernel, built on first use into the per-user cache
    ``~/.cache/freshsched`` and loaded; None where no compiler is found, or,
    after one warning, where the build or the load fails.

    The library's name is a hash of the source, the flags and the machine,
    so a changed source is built anew. A build writes into a temporary
    directory and publishes the library with `os.replace`, so a process
    never loads a half-written file, and then removes the libraries of other
    sources or flags. A process that has one of those loaded keeps it.
    """
    compiler = shutil.which(_COMPILER)
    if compiler is None:
        return None
    try:
        source = _SOURCE.read_bytes()
        key = hashlib.sha256(b"\0".join((source, " ".join(_CFLAGS).encode(),
                                          platform.machine().encode()))).hexdigest()
        path = Path.home() / ".cache" / "freshsched" / f"event_loop-{key[:16]}.so"
        if not path.exists():
            path.parent.mkdir(mode=0o700, parents=True, exist_ok=True)
            with tempfile.TemporaryDirectory(dir=path.parent) as scratch:
                built = os.path.join(scratch, path.name)
                # the source before -lm: the linker takes a library for the
                # files named before it
                subprocess.run([compiler, str(_SOURCE), "-o", built, *_CFLAGS],
                               check=True, capture_output=True, text=True, timeout=120)
                os.replace(built, path)
            for stale in path.parent.glob("event_loop-*.so"):
                if stale != path:
                    with contextlib.suppress(OSError):
                        stale.unlink()
        library = ctypes.CDLL(str(path))
    except (OSError, subprocess.SubprocessError) as error:
        # the compiler's first line of complaint, else what failed
        reason = getattr(error, "stderr", None)
        if not (isinstance(reason, str) and reason.strip()):
            reason = str(error)
        warnings.warn(f"the event loop runs in Python: {reason.strip().splitlines()[0]}",
                      RuntimeWarning)
        return None
    doubles = np.ctypeslib.ndpointer(np.float64, flags="C_CONTIGUOUS")
    written = np.ctypeslib.ndpointer(np.float64, flags="C_CONTIGUOUS,WRITEABLE")
    loop = library.freshsched_event_loop
    loop.argtypes = (np.ctypeslib.ndpointer(np.int8, flags="C_CONTIGUOUS"),
                     ctypes.c_int64, ctypes.c_int64, doubles, doubles, written, written,
                     written, written, ctypes.c_double, ctypes.c_double,
                     np.ctypeslib.ndpointer(np.int64, flags="C_CONTIGUOUS,WRITEABLE"),
                     written, written)
    loop.restype = ctypes.c_double
    draw = library.freshsched_exponential
    draw.argtypes = (doubles, ctypes.c_int64, ctypes.c_double, written)
    draw.restype = None
    return library


def _run_compiled(library, jobs, policy, warmup, horizon):
    """`_python_loop`'s results, with the remaining work and the departure
    epochs in arrays, and `_post_passes`' sums, from the C library."""
    at_u, at_q, work_u, work_q = jobs
    remain_u, remain_q = work_u.copy(), work_q.copy()
    depart_u, depart_q = np.empty_like(remain_u), np.empty_like(remain_q)
    paoi = np.empty_like(remain_u)
    state = np.empty(7, np.int64)
    sums = np.empty(6)
    cap_q, cap_u, table = decision_table(policy)
    completion = library.freshsched_event_loop(
        table, cap_q, cap_u, at_u, at_q, remain_u, remain_q, depart_u, depart_q,
        warmup, horizon, state, sums, paoi)
    if math.isnan(completion):
        raise RuntimeError(f"the decision table of {policy} led to no server position")
    *end, responses, updates = map(int, state)
    nq_integral, nu_integral, busy_time, age_integral, response_sum, update_sum = sums.tolist()
    return ((completion, tuple(end), depart_u, depart_q, remain_u, remain_q),
            (responses, response_sum, updates, update_sum, nq_integral, nu_integral,
             busy_time, age_integral, paoi[:updates].tolist()))


def _post_passes(jobs, end, warmup, horizon):
    """The sums of a replication, in numpy, from the epochs of the jobs and
    of `_python_loop`'s departures (``end``): the count and the sum of the
    query system times and of the update system times, the n_q and n_u
    integrals, the busy time, the age integral and the peak-age samples.

    They are the fallback's path, and the oracle of the C library's sums.
    """
    at_u, at_q = jobs[:2]
    _, (_, _, h_q, h_u, _), depart_u, depart_q = end[:4]
    done_u, done_q = depart_u[:h_u], depart_q[:h_q]
    return (*_system_times(at_q, done_q, warmup), *_system_times(at_u, done_u, warmup),
            *occupancy(at_q[:-1], done_q, at_u[:-1], done_u, warmup, horizon),
            *age_metrics(at_u, done_u, warmup, horizon))


def _simulate(params, policy, config, rep_index, collect_jobs):
    if not 0 <= rep_index < config.replications:
        raise ValueError(f"rep_index {rep_index} outside 0..{config.replications - 1}")
    horizon, warmup = config.horizon, config.warmup
    jobs = draw_jobs(params, config, rep_index)
    at_u, at_q, work_u, work_q = jobs
    # either loop reads arrivals up to the first one past the horizon, and
    # writes one departure and remaining work per earlier arrival
    for arrivals, work in ((at_u, work_u), (at_q, work_q)):
        if not (len(arrivals) and arrivals[-1] > horizon and len(work) >= len(arrivals) - 1):
            raise ValueError("jobs need an arrival past the horizon and a service "
                             "requirement for each arrival before it")
    library = _compiled_loop() if COMPILED_LOOP else None
    if library is None:
        end = _python_loop(jobs, policy, horizon)
        sums = _post_passes(jobs, end, warmup, horizon)
    else:
        end, sums = _run_compiled(library, jobs, policy, warmup, horizon)
    completion, (n_q, n_u, h_q, h_u, pos), depart_u, depart_q, remain_u, remain_q = end
    (resp_n, resp_sum, completed_updates, usys_sum, nq_integral, nu_integral, busy_time,
     age_integral, paoi_samples) = sums

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
    if not collect_jobs:
        return metrics, None

    # plain floats in the records
    arrive_u, arrive_q, work_u, work_q = (stream.tolist() for stream in jobs)
    jobs = ([JobRecord(JobClass.QUERY, *job)
             for job in zip(arrive_q, work_q, depart_q[:h_q].tolist())]
            + [JobRecord(JobClass.UPDATE, *job)
               for job in zip(arrive_u, work_u, depart_u[:h_u].tolist())])
    completed_service = sum(job.service_requirement for job in jobs)
    arrived_service = sum(work_q) + sum(work_u)
    residual_work = 0.0
    for served, head, n, remain in ((Z_QUERY, h_q, n_q, remain_q),
                                    (Z_UPDATE, h_u, n_u, remain_u)):
        for index in range(head, head + n):
            in_service = pos == served and index == head
            residual_work += (completion - horizon) if in_service else float(remain[index])
    detail = ReplicationDetail(jobs, paoi_samples, busy_time, arrived_service,
                               completed_service, residual_work)
    return metrics, detail


@dataclass(frozen=True)
class SummaryStats:
    mean: "float | None"
    stddev: "float | None"
    half_width: "float | None"
    n: int


METRIC_FIELDS = {
    "response_time": "mean_response_time",
    "paoi": "mean_paoi",
    "aoi": "mean_aoi",
    "nq": "mean_nq",
    "nu": "mean_nu",
    "update_system_time": "mean_update_system_time",
}


def aggregate(runs: Sequence[ReplicationMetrics]) -> Dict[str, SummaryStats]:
    """Per-metric mean, sample stddev, and 95% normal half-width over replications."""
    if not runs:
        raise ValueError("need at least one replication")
    out = {}
    for name, field in METRIC_FIELDS.items():
        values = [getattr(r, field) for r in runs if getattr(r, field) is not None]
        n = len(values)
        if n == 0:
            out[name] = SummaryStats(None, None, None, 0)
        elif n == 1:
            out[name] = SummaryStats(values[0], None, None, 1)
        else:
            s = statistics.stdev(values)
            out[name] = SummaryStats(statistics.fmean(values), s,
                                     1.96 * s / math.sqrt(n), n)
    return out


def littles_law_residual(metrics: ReplicationMetrics,
                         params: ModelParams) -> Tuple[float, float]:
    """Relative L = lambda*W mismatch for the query and update sides."""
    if metrics.mean_nq == 0 or metrics.mean_response_time is None:
        res_q = 0.0
    else:
        res_q = abs(metrics.mean_nq
                    - params.lambda_q * metrics.mean_response_time) / metrics.mean_nq
    if metrics.mean_nu == 0 or metrics.mean_update_system_time is None:
        res_u = 0.0
    else:
        res_u = abs(metrics.mean_nu
                    - params.lambda_u * metrics.mean_update_system_time) / metrics.mean_nu
    return res_q, res_u
