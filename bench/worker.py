"""One benchmark run of one workload, in a fresh interpreter.

Started by run.py, which pins BLAS/OpenMP threads and puts the checkout's
``src`` on PYTHONPATH. Set-up is the time from process start (``--t-spawn``,
read on the launcher's monotonic clock) to the first engine call. With
``--probe`` the worker stops there and prints only that time, with the
reference loop's time right after it.
"""
from __future__ import annotations

import argparse
import json
import math
import random
import resource
import statistics
import sys
import time
from pathlib import Path

import spec
from tracing import REF_S, REF_SPAN, Recorder, SetupDone
from workloads import WORKLOADS, Checks, family

DECIDE_STEPS = 20000
DECIDE_REPLAYS = 5
SETUP_REF_SAMPLES = 15


def percentile(sorted_values, p):
    """Nearest-rank percentile."""
    return sorted_values[max(1, math.ceil(p / 100 * len(sorted_values))) - 1]


def tail_percentile(n):
    """Highest whole percentile with at least 10 of ``n`` samples beyond it.

    It is taken from the item count of one pass, not of the run, so the
    percentile does not change when a faster program fits more passes into a
    run. A pass of fewer than 20 items reports the median.
    """
    for p in range(99, 49, -1):
        if n - math.ceil(p / 100 * n) >= 10:
            return p
    return 50


def run_passes(workload, rec, seconds):
    """Repeat whole passes while the next one should end within ``seconds``."""
    pass_s, bounds, cpu_s, overhead_ns, attempted, failed = [], [], [], [], 0, 0
    start = time.perf_counter_ns()
    while True:
        rec.pass_idx = len(pass_s)
        before, ref_before = rec.overhead_ns, rec.ref_ns
        c0 = time.process_time()
        t0 = time.perf_counter_ns()
        for call in workload.run_pass(rec.pass_idx):
            attempted += 1
            try:
                call()
            except Exception as exc:  # an engine failure is counted, not fatal
                failed += 1
                print(f"item failed: {type(exc).__name__}: {exc}", file=sys.stderr)
        t1 = time.perf_counter_ns()
        ref_s = (rec.ref_ns - ref_before) / 1e9
        cpu_s.append(time.process_time() - c0 - ref_s)
        pass_s.append((t1 - t0) / 1e9 - ref_s)
        bounds.append((t0, t1))
        overhead_ns.append(rec.overhead_ns - before)
        if (t1 - start + t1 - t0) / 1e9 > seconds or len(pass_s) >= 100:
            break
    rec.pass_idx = None
    note = "pass wall/cpu s: " + ", ".join(f"{w:.3f}/{c:.3f}" for w, c in zip(pass_s, cpu_s))
    return pass_s, bounds, overhead_ns, attempted, failed, note


def rescaled_passes(rec, bounds):
    """Pass times at the machine speed at which a reference sample takes REF_S.

    The reference samples cut each pass into stretches of work. Each stretch
    is divided by the mean of the samples at its two ends (the last stretch
    of a pass by the sample before it), and the sum is multiplied by REF_S.
    """
    out = []
    prev = None
    for p, (start, end) in enumerate(bounds):
        scaled, t = 0.0, start
        for _p, s0, s1 in (s for s in rec.ref_samples if s[0] == p):
            here = s1 - s0
            scaled += (s0 - t) / ((here + (prev if prev is not None else here)) / 2)
            prev, t = here, s1
        scaled += (end - t) / prev
        out.append(REF_S * scaled)
    return out


def run_metrics(rec, pass_s, bounds):
    items = [(t1 - t0) / 1e6 for _n, p, t0, t1, _a, _r in rec.items if p is not None]
    per_pass = sum(1 for _n, p, *_ in rec.items if p == 0)
    items.sort()
    p_tail = tail_percentile(per_pass)
    metrics = {
        "wall_s": statistics.median(rescaled_passes(rec, bounds)),
        "raw.wall_s": statistics.median(pass_s),
        "ref.sample_us": statistics.median(s1 - s0 for _p, s0, s1 in rec.ref_samples) / 1e3,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "item.p50_ms": percentile(items, 50),
        "item.tail_ms": percentile(items, p_tail),
    }
    note = (f"item.tail_ms is p{p_tail} over {len(items)} items "
            f"({per_pass} per pass, {len(pass_s)} passes); "
            f"{len(rec.ref_samples)} reference samples")
    return metrics, note


def record_trigger_trace(policy_mod, policy, rng, steps):
    """A random walk of valid triggers at lambda_u = lambda_q = 1/3, mu = 1,
    each step's state coming from ``decide`` itself."""
    pos = policy_mod.ServerPosition
    trig = policy_mod.Trigger
    state = policy_mod.initial_state()
    trace = []
    for _ in range(steps):
        busy = state.position is not pos.IDLE
        r = rng.random() * (2 / 3 + (1.0 if busy else 0.0))
        if r < 1 / 3:
            trigger = trig.ARRIVAL_QUERY
        elif r < 2 / 3:
            trigger = trig.ARRIVAL_UPDATE
        elif state.position is pos.SERVING_QUERY:
            trigger = trig.DEPARTURE_QUERY
        else:
            trigger = trig.DEPARTURE_UPDATE
        trace.append((state, trigger))
        state = policy_mod.decide(policy, state, trigger)
    return trace


def decide_ns(seed):
    """ns per ``policy.decide`` call, replaying a seeded trace per family
    (thresholds 3, the middle of the swept range) with no simulator around it."""
    from freshsched import policy as policy_mod
    from freshsched.model import JointMN, QueryK, UpdateK
    out = {}
    for name, policy in (("query_k", QueryK(3)), ("update_k", UpdateK(3)),
                         ("joint_mn", JointMN(3, 3))):
        trace = record_trigger_trace(policy_mod, policy, random.Random(f"{seed}:{name}"),
                                     DECIDE_STEPS)
        decide = policy_mod.decide
        times = []
        for _ in range(DECIDE_REPLAYS):
            t0 = time.perf_counter_ns()
            for state, trigger in trace:
                decide(policy, state, trigger)
            times.append((time.perf_counter_ns() - t0) / len(trace))
        out[f"policy.decide_ns.{name}"] = statistics.median(times)
    return out


def per_layer(rec, pass_s, overhead_ns, extra, seed):
    passes = len(pass_s)
    spans = rec.durations()
    in_pass = [s for s in spans if s[1] is not None and s[0] != REF_SPAN]

    def total(prefix, kind=2):
        return sum(s[kind] for s in in_pass if s[0].startswith(prefix)) / passes

    def median(values):
        return statistics.median(values) if values else 0.0

    m = dict(decide_ns(seed))
    reps = [(args[1], (t1 - t0) / 1e9, result) for n, p, t0, t1, args, result in rec.items
            if n == "simulator.run_replication" and p is not None and result is not None]
    decide_calls = 0
    for fam in spec.FAMILIES:
        mine = [(sec, 2 * (r.completed_queries + r.completed_updates))
                for pol, sec, r in reps if family(pol) == fam]
        m[f"simulator.rep_ms.{fam}"] = median([sec * 1e3 for sec, _ in mine])
        secs = sum(sec for sec, _ in mine)
        events = sum(ev for _, ev in mine)
        m[f"simulator.events_per_s.{fam}"] = events / secs if secs else 0.0
        if fam != "fcfs":
            decide_calls += events
    m["simulator.aggregate_us"] = median([s[2] / 1e3 for s in spans
                                          if s[0] == "simulator.aggregate"])

    builds = [s for s in in_pass if s[0] == "ctmc.build_ctmc"]
    solves = [s for s in in_pass if s[0] == "ctmc.solve_stationary"]
    built_states = sum(s[4]["states"] for s in builds)
    transitions = sum(s[4]["transitions"] for s in builds)
    decide_calls += transitions
    m["policy.decide_calls"] = decide_calls / passes
    m["ctmc.build_ms"] = total("ctmc.build_ctmc") / 1e6
    build_s = sum(s[2] for s in builds) / 1e9
    m["ctmc.build_states_per_s"] = built_states / build_s if build_s else 0.0
    m["ctmc.states_max"] = max((s[4]["states"] for s in builds), default=0)
    m["ctmc.transitions_total"] = transitions / passes
    m["ctmc.solve_ms"] = total("ctmc.solve_stationary") / 1e6
    solved_states = sum(s[4]["states"] for s in solves)
    m["ctmc.solve_us_per_state"] = (sum(s[2] for s in solves) / 1e3 / solved_states
                                    if solved_states else 0.0)
    m["ctmc.rounds"] = len(builds) / passes
    # the last build under each chain item is the truncation that was kept
    last_build = {}
    for name, parent, _t0, _t1, p, info in rec.spans:
        if name == "ctmc.build_ctmc" and p is not None:
            last_build[parent] = info["states"]
    useful = sum(last_build.values())
    m["ctmc.useful_state_frac"] = useful / built_states if built_states else 0.0

    chain_items = [(t1 - t0, result) for n, p, t0, t1, _a, result in rec.items
                   if n in ("analytic.query_k_metrics", "analytic.update_k_metrics")
                   and p is not None and result is not None]
    closed_items = [t1 - t0 for n, p, t0, t1, _a, _r in rec.items
                    if n in ("analytic.fcfs_metrics", "analytic.query1_metrics",
                             "analytic.update1_metrics") and p is not None]
    m["ctmc.tail_mass_max"] = max((r.tail_mass for _, r in chain_items), default=0.0)
    m["ctmc.residual_max"] = max((r.residual for _, r in chain_items), default=0.0)
    m["analytic.closed_form_us"] = median([ns / 1e3 for ns in closed_items])
    m["analytic.chain_item_ms"] = median([ns / 1e6 for ns, _ in chain_items])
    m["analytic.self_ms"] = total("analytic.", kind=3) / 1e6
    m["analytic.conservation_gap_max"] = max(
        (r.conservation_gap for _, r in chain_items), default=0.0)
    m["analytic.ref_max_rel_err"] = extra.get("analytic.ref_max_rel_err", 0.0)

    m["experiment.run_s"] = total("experiment.run_experiment") / 1e9
    m["experiment.self_ms"] = total("experiment.run_experiment", kind=3) / 1e6
    rows = [s[4]["rows"] for s in in_pass if s[0] == "experiment.run_experiment"]
    m["experiment.rows"] = rows[-1] if rows else 0
    m["experiment.emit_csv_ms"] = total("experiment.emit_csv") / 1e6
    m["config.parse_ms"] = total("config.parse_config") / 1e6
    m["svgplot.emit_plot_ms"] = total("svgplot.emit_plot") / 1e6
    m["cli.self_ms"] = total("cli.main", kind=3) / 1e6

    wall_ns = sum(pass_s) * 1e9
    m["trace.coverage_frac"] = sum(s[3] for s in in_pass) / wall_ns
    m["trace.overhead_frac"] = sum(overhead_ns) / (wall_ns - sum(overhead_ns))
    return m


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--t-spawn", type=float, required=True, dest="t_spawn")
    parser.add_argument("--out-dir", required=True, dest="out_dir")
    parser.add_argument("--probe", action="store_true")
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)
    out_dir = Path(args.out_dir)

    rec = Recorder(spans_on=bool(args.trace), stop_at_first_item=args.probe)
    try:
        workload = WORKLOADS[args.workload](rec, args.seed, args.smoke, out_dir)
        pass_s, bounds, overhead_ns, attempted, failed, pass_note = run_passes(
            workload, rec, args.seconds)
    except SetupDone:
        print(json.dumps({"setup_s": rec.first_item_ns / 1e9 - args.t_spawn,
                          "ref_ns": rec.ref.median_ns(SETUP_REF_SAMPLES)}))
        return 0
    metrics, tail_note = run_metrics(rec, pass_s, bounds)

    checks = Checks()
    try:
        extra = workload.check(checks)
    except Exception as exc:  # e.g. a failed item left nothing to check against
        checks.add("checks ran", False, f"{type(exc).__name__}: {exc}")
        extra = {}
    rec.unpatch()
    lines = [pass_note, tail_note]
    if "analytic.ref_max_rel_err" in extra:
        lines.append(f"ref_max_rel_err = {extra['analytic.ref_max_rel_err']:.3g} "
                     "(chain vs closed form at k = 1)")
    if "csv_sha256" in extra:
        lines.append(f"csv_sha256 = {extra['csv_sha256']}")
    for name, ok, detail in checks.failed:
        lines.append(f"check failed: {name}: {detail}")
    if args.trace:
        metrics.update(per_layer(rec, pass_s, overhead_ns, extra, args.seed))
        lines.append(f"ctmc.states_max = {metrics['ctmc.states_max']} "
                     f"at peak RSS {metrics['peak_rss_mb']:.1f} MB")
        spans_path = out_dir / f"{args.workload}-seed{args.seed}-spans.json"
        rec.write(spans_path)
        lines.append(f"spans written to {spans_path}")

    import numpy
    import scipy
    result = {
        "metrics": metrics,
        "attempted": attempted + len(checks.results),
        "failed": failed + len(checks.failed),
        "lines": lines,
        "versions": {"numpy": numpy.__version__, "scipy": scipy.__version__},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
