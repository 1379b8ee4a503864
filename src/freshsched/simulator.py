"""Discrete-event engine for the two-class single-server system.

Each replication derives four RNG streams (update/query arrivals, update/query
service draws) deterministically from (base_seed, rep_index), so every policy
run on the same seed sees identical jobs (common random numbers). A draw is
-ln(u)/rate, and neither the uniforms nor their logs depend on the rate:
`unit_draws` keeps one replication's four streams of -ln(u), drawn in blocks
on the first read and extended in order when a later read reaches further,
so a sweep that `experiment` runs replication-major draws each replication
once, whatever its points' rates. `draw_jobs` takes the jobs from them:
the arrival epochs, a running sum of the draws over the rate through the
first one past the horizon, and one service requirement at unit rate per
arrival, in arrival order, as read-only float64 arrays. It keeps one point's
epochs for the policies that run there back to back. A run divides the
service requirements by its classes' rates straight into the remaining work
its loop writes. The log is libm's ``log``: the C library below calls it
over each block of uniforms, and where that library does not run,
``math.log``, which calls it too, is mapped over them; the negation is
exact and the division by the rate is rounded once, as a draw at that rate
rounds it, and the running sum is ``np.cumsum``, which adds left to right,
carried across blocks. So the jobs are those of one draw per event.
``np.log`` would be faster, but it is vectorised differently and moves the
last bit of some draws (6972 of 2M uniforms on an AVX-512 Xeon), which would
change every result.

The event loop moves the state machine. Each event kind has one branch:
a departure, which comes first, then an update arrival, then a query arrival,
so simultaneous arrivals serve the update first. A branch checks the horizon
itself, adds the interval since the last event to the sums, reads the
switching decision from `policy.decision_table`, moves the queue counts and
heads and, on a change of position, banks the remaining work of a preempted
head. A position's rules are read from the table only when the position
changes. A departure writes its epoch at the departing head's index, adds
its system time and, for an update, its peak-age sample and the age area
since the last delivery, then starts the next job directly, since the
departed head has no work to bank. Within a class service is FIFO
preempt-resume, so each queue is a head index into its class's arrays,
only the head can be part-served and updates are delivered in generation
order; the remaining work is written over the service requirements, and a
departure's epoch over its head's spent work, since no loop reads the
remaining work below the heads. The Python loop reads the arrival epochs as
lists and writes through memoryviews, since indexing a numpy array in a
Python loop makes a numpy scalar per access and is slower.

So every sum of a replication is taken in the one pass over the events: the
n_q and n_u integrals clipped to (warmup, horizon], the busy time over
(0, horizon], the age integral, and each class's count and sum of system
times after the warmup; the peak-age samples are kept and summed as
``math.fsum`` sums them, correctly rounded, so their mean, that sum over
their count, is ``statistics.fmean``'s. A correctly rounded sum has one
value, so the C loop below may take it another way than CPython does. The
age starts at 0 at t = 0, as if an update generated then were delivered, so
the first peak spans from time 0; each peak is (inter-arrival) + (system
time) from the raw timestamps, the defining decomposition of a peak (Kaul,
Yates & Gruteser, INFOCOM 2012). The age areas square as ``x * x``:
``x ** 2`` calls libm's pow, which is not correctly rounded on every input.

The loop has one contract and two implementations. Both take the same
arguments and write the same outputs, which `_python_loop`'s docstring
gives, so `_simulate` allocates them once, calls whichever loop runs and
reads one layout. Where a C compiler is found, the loop and the draws run in
one C library: `_event_loop.c` transcribes `_python_loop`, which defines it,
line for line, sums included: the same branches, comparisons and
operations, each term added in the same order, and ``math.fsum``'s value for
the peak-age sum. Terms that are all finite with the sign bit clear, as
peak-age samples are, are summed exactly in integers, one bin per binary
exponent, and rounded once; any other terms take CPython's ``fsum``
transcribed, since only its order of operations gives its results on mixed
signs and on an intermediate overflow, so only the tests reach it. The
library is built at the first replication with ``cc -O2 -fPIC -shared
-ffp-contract=off -std=c99 -lm`` into the per-user cache
``~/.cache/freshsched``, and loaded through ctypes. Its results equal the
Python loop's to the bit, since each operation on doubles is rounded once in
either language: the build allows no contraction into fused multiply-adds
and no ``-ffast-math``, and the source refuses to build where doubles would
be evaluated in extended precision. Where no compiler is found the Python
loop runs; where the build or the load fails, it runs after one
RuntimeWarning.
"""
from __future__ import annotations

import ctypes
import hashlib
import math
import os
import platform
import shutil
import subprocess
import tempfile
import warnings
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


class UnitDraws:
    """One stream's exponential draws at unit rate, -ln(u), in the order of
    its uniforms: drawn on the first read and extended in order when a later
    read reaches further, so a read does not depend on the reads before it.

    Divided by a rate they are `exponential_draws` at that rate to the bit,
    since the negation is exact and the division the same one rounding.
    """

    def __init__(self, stream):
        self.stream = stream
        self.values = np.empty(0)

    def first(self, n: int) -> np.ndarray:
        """The first ``n`` draws, read-only."""
        if n > len(self.values):
            more = exponential_draws(1.0, self.stream, n - len(self.values))
            self.values = np.concatenate((self.values, more)) if len(self.values) else more
            self.values.flags.writeable = False
        return self.values[:n]


def _arrival_epochs(rate: float, stream, horizon: float) -> np.ndarray:
    """Poisson arrival epochs in (0, horizon], then the first one past it,
    from the uniforms of ``stream`` or from the draws of a `UnitDraws`."""
    draws = stream if isinstance(stream, UnitDraws) else UnitDraws(stream)
    # four standard deviations over the mean count, so one block nearly
    # always reaches past the horizon
    mean = rate * horizon
    block = int(mean + 4.0 * math.sqrt(mean)) + 16
    blocks = []
    last = 0.0
    while last <= horizon:
        # a running sum carried across blocks, so each epoch is its
        # predecessor plus one draw, added left to right
        read = block * len(blocks)
        epochs = draws.first(read + block)[read:] / rate
        epochs[0] += last
        blocks.append(np.cumsum(epochs, out=epochs))
        last = epochs[-1]
    epochs = np.concatenate(blocks) if len(blocks) > 1 else blocks[0]  # one block: no copy
    return epochs[:np.searchsorted(epochs, horizon, side="right") + 1]


def _rng_streams(base_seed: int, rep_index: int):
    root = np.random.SeedSequence(entropy=base_seed, spawn_key=(rep_index,))
    return [np.random.Generator(np.random.PCG64(child)) for child in root.spawn(4)]


@lru_cache(maxsize=1)
def unit_draws(base_seed: int, rep_index: int) -> Tuple[UnitDraws, ...]:
    """Replication ``rep_index``'s four streams of unit draws: update and
    query arrivals, then update and query service.

    They depend on the seed and the replication alone. The one-entry memo
    keeps them while the points of a sweep run on the replication one after
    another, so each point reads them, further where its rates ask for more
    draws, and none draws or takes the log of a uniform twice.
    """
    return tuple(map(UnitDraws, _rng_streams(base_seed, rep_index)))


@lru_cache(maxsize=1)
def draw_jobs(params: ModelParams, config: SimConfig,
              rep_index: int) -> Tuple[np.ndarray, ...]:
    """Replication ``rep_index``'s jobs as read-only float64 arrays: the
    update and query arrival epochs (each through the first one past the
    horizon), then the update and query service requirements at unit rate,
    one per arrival inside the horizon, which a run divides by its class's
    service rate.

    The epochs depend on the arrival rates, the horizon, the seed and the
    replication, not on the policy. The one-entry memo keeps them for every
    policy that runs on this replication at these rates right after the
    first; the service requirements are views of the `unit_draws`, which
    every rate shares.
    """
    u_arr, q_arr, u_svc, q_svc = unit_draws(config.base_seed, rep_index)
    arrive_u = _arrival_epochs(params.lambda_u, u_arr, config.horizon)
    arrive_q = _arrival_epochs(params.lambda_q, q_arr, config.horizon)
    arrive_u.flags.writeable = arrive_q.flags.writeable = False
    return (arrive_u, arrive_q, u_svc.first(len(arrive_u) - 1), q_svc.first(len(arrive_q) - 1))


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


def run_replication(params: ModelParams, policy, config: SimConfig,
                    rep_index: int) -> ReplicationMetrics:
    metrics, _ = _simulate(params, policy, config, rep_index, collect_jobs=False)
    return metrics


def run_replication_detailed(params: ModelParams, policy, config: SimConfig,
                             rep_index: int) -> Tuple[ReplicationMetrics, ReplicationDetail]:
    return _simulate(params, policy, config, rep_index, collect_jobs=True)


def _python_loop(table, cap_q, cap_u, arrive_u, arrive_q, remain_u, remain_q, depart_u,
                 depart_q, warmup, horizon, state, sums, paoi):
    """The event loop in Python: the definition of `_event_loop.c`, whose
    ``freshsched_event_loop`` takes the same arguments and writes the same
    outputs, and what runs where that is not built.

    ``table`` is the array of `policy.decision_table`, with its caps. Each
    class's arrival epochs run through the first one past the horizon;
    ``remain_u`` and ``remain_q`` start as the service requirements and take
    the remaining work of preempted heads, and ``depart_u`` and
    ``depart_q`` take each departure's epoch at the departing head's index,
    so their first h_u and h_q entries are written. They may be
    ``remain_u`` and ``remain_q`` themselves, as `_simulate` passes them,
    since neither loop reads the remaining work below a head. ``state`` takes (n_q,
    n_u, h_q, h_u, position, responses, updates), the last two the counts of
    queries and of updates that departed after the warmup; ``paoi`` one
    peak-age sample per update that departed after the warmup; ``sums``
    its 7 entries: the n_q and n_u integrals clipped to (warmup, horizon],
    the busy time, the age integral, the sums of the query and of the
    update system times after the warmup, each of these six adding one term
    per event in the order of the events, and last the ``math.fsum`` of the
    peak-age samples. Returns the pending completion epoch, or NaN where
    the table leads to no position.
    """
    # the arrival epochs as lists, and the arrays it writes as memoryviews,
    # which a Python loop indexes faster than numpy arrays; the peak-age
    # samples in a list, copied out at the end
    arrive_u, arrive_q = arrive_u.tolist(), arrive_q.tolist()
    remain_u, remain_q, depart_u, depart_q = map(memoryview,
                                                 (remain_u, remain_q, depart_u, depart_q))
    samples = []
    # each position's rules on an update arrival, on a query arrival and on
    # the departure of the job it serves, read again when the position changes
    moves = [(rules[ARRIVE_U], rules[ARRIVE_Q], rules[DEPART_Q if z == Z_QUERY else DEPART_U])
             for z, rules in enumerate(table.tolist())]
    # the codes as locals, which the loop reads faster than globals
    idle, serve_q, serve_u, older_head, inf = Z_IDLE, Z_QUERY, Z_UPDATE, OLDER_HEAD, math.inf

    n_q = n_u = 0  # queue lengths
    h_q = h_u = 0  # index of each queue's head
    next_u, next_q = arrive_u[0], arrive_q[0]
    pos = Z_IDLE
    on_u, on_q, on_done = moves[pos]
    completion = inf
    # the last event; the freshest delivered generation and its delivery
    last = g = delivered = 0.0
    nq_integral = nu_integral = busy = age = response_sum = update_sum = 0.0
    responses = 0  # departed after the warmup, as the peak-age samples

    while True:
        i = n_q if n_q < cap_q else cap_q
        j = n_u if n_u < cap_u else cap_u
        if completion <= next_u and completion <= next_q:
            t = completion
            if t > horizon:
                break
            # the interval since the last event, as each branch adds it; C
            # calls a function for it, which here would cost a call per event
            dt = t - (last if last > warmup else warmup)
            if dt > 0:
                nq_integral += n_q * dt
                nu_integral += n_u * dt
            if n_q + n_u > 0:  # every policy is work-conserving
                busy += t - last
            last = t
            new = on_done[i][j]
            if pos == serve_q:
                depart_q[h_q] = t
                if t > warmup:
                    responses += 1
                    response_sum += t - arrive_q[h_q]
                n_q -= 1
                h_q += 1
            else:
                generation = arrive_u[h_u]
                depart_u[h_u] = t
                if t > warmup:
                    update_sum += t - generation
                    samples.append((generation - g) + (t - generation))
                # the age t - g over (delivered, t] clipped to (warmup, horizon];
                # squares as x * x, since x ** 2 calls libm's pow
                a = delivered if delivered > warmup else warmup
                if t > a:
                    a -= g
                    b = t - g
                    age += (b * b - a * a) / 2.0
                g = generation
                delivered = t
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
                if new < idle or new > serve_u:
                    return math.nan
                pos = new
                on_u, on_q, on_done = moves[pos]
            continue
        if next_u <= next_q:  # simultaneous arrivals serve the update first
            t = next_u
            if t > horizon:
                break
            dt = t - (last if last > warmup else warmup)
            if dt > 0:
                nq_integral += n_q * dt
                nu_integral += n_u * dt
            if n_q + n_u > 0:
                busy += t - last
            last = t
            new = on_u[i][j]
            n_u += 1
            next_u = arrive_u[h_u + n_u]
        else:
            t = next_q
            if t > horizon:
                break
            dt = t - (last if last > warmup else warmup)
            if dt > 0:
                nq_integral += n_q * dt
                nu_integral += n_u * dt
            if n_q + n_u > 0:
                busy += t - last
            last = t
            new = on_q[i][j]
            n_q += 1
            next_q = arrive_q[h_q + n_q]
        if new != pos:  # preempt-resume: bank the head's remaining work
            if new < idle or new > serve_u:
                return math.nan
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

    # from the last event, and from the last delivery, to the horizon
    dt = horizon - (last if last > warmup else warmup)
    if dt > 0:
        nq_integral += n_q * dt
        nu_integral += n_u * dt
    if n_q + n_u > 0:
        busy += horizon - last
    a = delivered if delivered > warmup else warmup
    if horizon > a:
        a -= g
        b = horizon - g
        age += (b * b - a * a) / 2.0
    paoi[:len(samples)] = samples
    state[:] = n_q, n_u, h_q, h_u, pos, responses, len(samples)
    sums[:] = nq_integral, nu_integral, busy, age, response_sum, update_sum, math.fsum(samples)
    return completion


# False runs `_python_loop`, and draws with `math.log`, where the C library
# would run; tests set it
COMPILED_LOOP = True
_SOURCE = Path(__file__).with_name("_event_loop.c")
_COMPILER = "cc"
# no -ffast-math, no contraction of a*b + c into one rounding, and libm's log
_CFLAGS = ("-O2", "-fPIC", "-shared", "-ffp-contract=off", "-std=c99", "-lm")


@lru_cache(maxsize=None)
def _compiled_loop():
    """The C library of `_event_loop.c`, with the event loop, its exact sum
    and the draw kernel, built on first use into the per-user cache
    ``~/.cache/freshsched`` and loaded; None where no compiler is found, or,
    after one warning, where the build or the load fails.

    The library's name is a hash of the source, the flags and the machine,
    so a changed source is built anew. A build writes into a temporary
    directory and publishes the library with `os.replace`, so a process
    never loads a half-written file. The libraries of other sources stay, so
    two trees of different sources under one home load their own and build
    neither again: the cache holds one library of about 15 KB per (source,
    flags, machine) that was ever built, which only a change to this file,
    `_event_loop.c` or the machine adds to.
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
    fsum = library.freshsched_fsum
    fsum.argtypes = (doubles, ctypes.c_int64)
    fsum.restype = ctypes.c_double
    draw = library.freshsched_exponential
    draw.argtypes = (doubles, ctypes.c_int64, ctypes.c_double, written)
    draw.restype = None
    return library


def _simulate(params, policy, config, rep_index, collect_jobs):
    if not 0 <= rep_index < config.replications:
        raise ValueError(f"rep_index {rep_index} outside 0..{config.replications - 1}")
    horizon, warmup = config.horizon, config.warmup
    at_u, at_q, work_u, work_q = draw_jobs(params, config, rep_index)
    # either loop reads arrivals up to the first one past the horizon, and
    # writes one departure and remaining work per earlier arrival
    for arrivals, work in ((at_u, work_u), (at_q, work_q)):
        if not (len(arrivals) and arrivals[-1] > horizon and len(work) >= len(arrivals) - 1):
            raise ValueError("jobs need an arrival past the horizon and a service "
                             "requirement for each arrival before it")
    library = _compiled_loop() if COMPILED_LOOP else None
    loop = _python_loop if library is None else library.freshsched_event_loop
    cap_q, cap_u, table = decision_table(policy)
    # the service requirements at the point's rates, divided straight into
    # the remaining work; a departure's epoch overwrites its head's spent
    # work, since a loop reads no remaining work below the heads
    remain_u, remain_q = np.divide(work_u, params.mu_u), np.divide(work_q, params.mu_q)
    paoi, state, sums = np.empty_like(remain_u), np.empty(7, np.int64), np.empty(7)
    completion = loop(table, cap_q, cap_u, at_u, at_q, remain_u, remain_q, remain_u, remain_q,
                      warmup, horizon, state, sums, paoi)
    if math.isnan(completion):
        raise RuntimeError(f"the decision table of {policy} led to no server position")
    n_q, n_u, h_q, h_u, pos, resp_n, completed_updates = state.tolist()
    nq_integral, nu_integral, busy_time, age_integral, resp_sum, usys_sum, paoi_sum = sums.tolist()

    duration = horizon - warmup
    metrics = ReplicationMetrics(
        mean_response_time=resp_sum / resp_n if resp_n else None,
        mean_paoi=paoi_sum / completed_updates if completed_updates else None,
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

    # plain floats in the records and the samples; the departures are the
    # first h_u and h_q entries of the remaining work
    arrive_u, arrive_q, work_u, work_q = (
        stream.tolist() for stream in (at_u, at_q, work_u / params.mu_u, work_q / params.mu_q))
    jobs = ([JobRecord(JobClass.QUERY, *job)
             for job in zip(arrive_q, work_q, remain_q[:h_q].tolist())]
            + [JobRecord(JobClass.UPDATE, *job)
               for job in zip(arrive_u, work_u, remain_u[:h_u].tolist())])
    completed_service = sum(job.service_requirement for job in jobs)
    arrived_service = sum(work_q) + sum(work_u)
    residual_work = 0.0
    for served, head, n, remain in ((Z_QUERY, h_q, n_q, remain_q),
                                    (Z_UPDATE, h_u, n_u, remain_u)):
        for index in range(head, head + n):
            in_service = pos == served and index == head
            residual_work += (completion - horizon) if in_service else float(remain[index])
    detail = ReplicationDetail(jobs, paoi[:completed_updates].tolist(), busy_time, arrived_service,
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
    """Per-metric mean, sample stddev, and 95% normal half-width over
    replications; the mean and the stddev correctly rounded, as
    ``statistics.fmean`` and ``statistics.stdev`` take them."""
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
            s = _stdev(values)
            out[name] = SummaryStats(math.fsum(values) / n, s, 1.96 * s / math.sqrt(n), n)
    return out


def _stdev(values: Sequence[float]) -> float:
    """The sample standard deviation of two or more finite floats, correctly
    rounded: ``statistics.stdev``'s value, without its sums in Fractions.

    Each value is a / 2**k, so over their common denominator 2**scale they
    are integers x, and the sample variance is exactly
    (n sum(x*x) - sum(x)**2) / (n (n - 1) 4**scale). An inf or a NaN raises
    in ``as_integer_ratio``.
    """
    ratios = [value.as_integer_ratio() for value in values]
    scale = max(denominator for _, denominator in ratios).bit_length() - 1
    x = [numerator << (scale - denominator.bit_length() + 1) for numerator, denominator in ratios]
    n, total = len(x), sum(x)
    return _sqrt_of_frac(n * sum(a * a for a in x) - total * total, n * (n - 1) << 2 * scale)


def _sqrt_of_frac(n: int, m: int) -> float:
    """The square root of n/m, correctly rounded, for integers n >= 0 and
    m > 0: a copy of CPython 3.11's private ``statistics._float_sqrt_of_frac``.
    The integer square root of n/m, scaled to at least 55 bits, two more
    than a float's, is rounded to odd, so that its one rounding to a float
    is correct (https://bugs.python.org/msg407078)."""
    q = (n.bit_length() - m.bit_length() - 109) // 2  # 109 = 2 * 53 + 3
    if q >= 0:
        numerator = _isqrt_rto(n, m << 2 * q) << q
        denominator = 1
    else:
        numerator = _isqrt_rto(n << -2 * q, m)
        denominator = 1 << -q
    return numerator / denominator


def _isqrt_rto(n: int, m: int) -> int:
    """The square root of n/m, rounded to an integer by round-to-odd."""
    a = math.isqrt(n // m)
    return a | (a * a * m != n)


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
