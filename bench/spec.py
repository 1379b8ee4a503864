"""What the benchmark measures: workloads, metrics, units and bounds.

This is the single source of ``BENCHMARK.json``: ``run.py --write-manifest``
writes it from these tables and ``run.py --smoke`` checks that the file still
matches them. The module imports nothing heavy, so the launcher can use it
without loading numpy.
"""

RUN_SECONDS = 45
COMMAND = ["python3", "bench/run.py"]
PATHS = ["bench"]

WORKLOADS = {
    "chain_high_load": (
        "chain only, automatic truncation: 24 small chains dominated by build_ctmc "
        "and decide, plus 3 at rho = 0.85 dominated by spsolve and a wasted "
        "truncation round"),
    "sweep_update_load": (
        "the user path: cli sweep on the shipped update-load config cut to "
        "lambda_u in {0.45, 0.85}; mixes simulation and chain and drives config, "
        "experiment, svgplot and cli"),
}

# (name, unit, better, bound): bound is the share of the parent's median by
# which the metric may worsen before a change counts as a regression.
# The shared host this was tuned on drifts in speed by up to 1.5x over
# minutes, so raw times of one commit spread past the bound across ten runs.
# The end-to-end times are therefore given at a fixed machine speed: each
# engine call is divided by the reference samples timed next to it, and each
# set-up by the samples timed right after it (see tracing.Reference). This
# cancels most of the drift and none of a change to the program. The raw
# times and the item latencies are per-layer metrics.
END_TO_END = [
    ("setup_s", "s", "lower", 0.25),
    ("wall_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.05),
]

FAMILIES = ("fcfs", "query_k")  # the simulated policy families of the sweep
DECIDE_FAMILIES = ("query_k", "update_k", "joint_mn")

# (name, unit, better). Totals are per pass, so they do not depend on how many
# passes fit into a run.
PER_LAYER = (
    [("raw.setup_s", "s", "lower"), ("raw.wall_s", "s", "lower"),
     ("ref.sample_us", "us", "lower"),
     ("item.p50_ms", "ms", "lower"), ("item.tail_ms", "ms", "lower")]
    + [(f"policy.decide_ns.{f}", "ns", "lower") for f in DECIDE_FAMILIES]
    + [("policy.decide_calls", "count", "lower")]
    + [(f"simulator.rep_ms.{f}", "ms", "lower") for f in FAMILIES]
    + [(f"simulator.events_per_s.{f}", "1/s", "higher") for f in FAMILIES]
    + [
        ("simulator.aggregate_us", "us", "lower"),
        ("ctmc.build_ms", "ms", "lower"),
        ("ctmc.build_states_per_s", "1/s", "higher"),
        ("ctmc.states_max", "count", "lower"),
        ("ctmc.transitions_total", "count", "lower"),
        ("ctmc.solve_ms", "ms", "lower"),
        ("ctmc.solve_us_per_state", "us", "lower"),
        ("ctmc.rounds", "count", "lower"),
        ("ctmc.useful_state_frac", "ratio", "higher"),
        ("ctmc.tail_mass_max", "prob", "lower"),
        ("ctmc.residual_max", "prob/t", "lower"),
        ("analytic.closed_form_us", "us", "lower"),
        ("analytic.chain_item_ms", "ms", "lower"),
        ("analytic.self_ms", "ms", "lower"),
        ("analytic.conservation_gap_max", "jobs", "lower"),
        ("analytic.ref_max_rel_err", "ratio", "lower"),
        ("experiment.run_s", "s", "lower"),
        ("experiment.self_ms", "ms", "lower"),
        ("experiment.rows", "count", "higher"),
        ("experiment.emit_csv_ms", "ms", "lower"),
        ("config.parse_ms", "ms", "lower"),
        ("svgplot.emit_plot_ms", "ms", "lower"),
        ("cli.self_ms", "ms", "lower"),
        ("trace.coverage_frac", "ratio", "higher"),
        ("trace.overhead_frac", "ratio", "lower"),
    ]
)

UNITS = {name: unit for name, unit, *_ in END_TO_END + PER_LAYER}


def manifest() -> dict:
    return {
        "command": COMMAND,
        "paths": PATHS,
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": w} for n, w in WORKLOADS.items()],
        "end_to_end": [{"name": n, "unit": u, "better": b, "bound": bound}
                       for n, u, b, bound in END_TO_END],
        "per_layer": [{"name": n, "unit": u, "better": b} for n, u, b in PER_LAYER],
    }
