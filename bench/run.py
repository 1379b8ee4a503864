"""freshsched benchmark: one command, one workload per run.

    python3 bench/run.py --workload chain_high_load --seed 1 --seconds 45 --trace 0
    python3 bench/run.py --smoke            # every workload, tiny inputs, both modes
    python3 bench/run.py --write-manifest   # regenerate BENCHMARK.json from spec.py

Run from the root of a checkout. The launcher imports neither numpy nor
freshsched: it pins BLAS/OpenMP threads to 1, starts set-up probes and then
the measured worker, each in a fresh interpreter, and prints every metric by
name with its unit. The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end metrics
with ``--trace 0``, the per-layer ones with ``--trace 1``. Outputs, spans and
the derived sweep config go to ``.bench_out/``.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import spec
from tracing import REF_S

ROOT = Path(__file__).resolve().parent.parent
WORKER = Path(__file__).resolve().parent / "worker.py"
OUT_DIR = ROOT / ".bench_out"
SETUP_PROBES = 5          # setup_s is a median over this many fresh interpreters
DEADLINE_S = 170          # the whole run, probes included, ends before this
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
REQUIRED = ("src/freshsched/__init__.py", "scripts/configs/update_load_sweep.cfg")


class BenchError(RuntimeError):
    pass


def worker_env() -> dict:
    env = dict(os.environ)
    env.update({name: "1" for name in THREAD_VARS})
    env["PYTHONHASHSEED"] = "0"
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def spawn(args, extra, deadline) -> dict:
    """Run the worker in a fresh interpreter; return its last stdout line as JSON."""
    cmd = [sys.executable, str(WORKER), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out-dir", str(OUT_DIR)] + extra
    if args.smoke:
        cmd.append("--smoke")
    timeout = deadline - time.perf_counter()
    if timeout <= 0:
        raise BenchError("no time left for the worker")
    t_spawn = time.perf_counter()
    try:
        proc = subprocess.run(cmd + ["--t-spawn", repr(t_spawn)], env=worker_env(),
                              cwd=ROOT, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchError(f"worker exceeded {timeout:.0f} s") from None
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"worker exited with {proc.returncode}")
    return json.loads(lines[-1])


def provenance(args) -> str:
    pinning = ",".join(f"{name}=1" for name in THREAD_VARS)
    return (f"provenance: nproc={len(os.sched_getaffinity(0))} "
            f"python={platform.python_version()} seed={args.seed} "
            f"loadavg={os.getloadavg()[0]:.2f} threads={pinning}")


def run(args) -> dict:
    """One benchmark run; returns the result object printed last."""
    deadline = time.perf_counter() + DEADLINE_S
    missing = [path for path in REQUIRED if not (ROOT / path).is_file()]
    if missing:
        raise BenchError(f"not a freshsched checkout, missing {missing}")
    OUT_DIR.mkdir(exist_ok=True)
    lines = [provenance(args)]
    probes = [spawn(args, ["--probe"], deadline) for _ in range(SETUP_PROBES)]
    result = spawn(args, [], deadline)
    setups = [p["setup_s"] for p in probes]
    scaled = [p["setup_s"] * REF_S * 1e9 / p["ref_ns"] for p in probes]
    metrics = dict(result["metrics"], setup_s=statistics.median(scaled))
    metrics["raw.setup_s"] = statistics.median(setups)
    lines.append(f"versions: numpy={result['versions']['numpy']} "
                 f"scipy={result['versions']['scipy']}")
    lines.append(f"setup_s samples, raw: {', '.join(f'{s:.4f}' for s in setups)}; "
                 f"at reference speed: {', '.join(f'{s:.4f}' for s in scaled)}")
    lines += result["lines"]
    attempted, failed = result["attempted"], result["failed"]
    lines.append(f"fail_frac = {failed / attempted:.4g} ({failed} of {attempted} "
                 "items and checks)")
    for name, unit in spec.UNITS.items():
        if name in metrics:
            lines.append(f"{args.workload} {name} = {metrics[name]:.6g} {unit}")
    wanted = spec.PER_LAYER if args.trace else spec.END_TO_END
    return {
        "lines": lines,
        "json": {
            "correct": failed == 0,
            "attempted": attempted,
            "failed": failed,
            "metrics": {name: {"value": metrics[name], "unit": unit}
                        for name, unit, *_ in wanted},
        },
    }


def smoke() -> int:
    """Run every workload on tiny inputs in both modes and check the output shape.

    At this size the statistical checks are not meaningful, so their failures
    are reported but do not fail the smoke test.
    """
    problems = []
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        if json.load(handle) != spec.manifest():
            problems.append("BENCHMARK.json differs from spec.manifest()")
    for workload in spec.WORKLOADS:
        for trace in (0, 1):
            args = argparse.Namespace(workload=workload, seed=1, seconds=1.0, trace=trace,
                                      smoke=True)
            out = run(args)
            printed = out["json"]["metrics"]
            for name, unit, *_ in (spec.PER_LAYER if trace else spec.END_TO_END):
                if printed.get(name, {}).get("unit") != unit:
                    problems.append(f"{workload} trace={trace}: {name} missing")
                if not any(line.startswith(f"{workload} {name} = ") and line.endswith(unit)
                           for line in out["lines"]):
                    problems.append(f"{workload} trace={trace}: {name} not printed")
            print(f"smoke {workload} trace={trace}: {len(printed)} metrics, "
                  f"attempted {out['json']['attempted']}, failed {out['json']['failed']}")
    for problem in problems:
        print(f"smoke: {problem}", file=sys.stderr)
    print("smoke: ok" if not problems else "smoke: FAILED")
    return 0 if not problems else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=sorted(spec.WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=spec.RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--write-manifest", action="store_true", dest="write_manifest")
    args = parser.parse_args(argv)
    try:
        if args.write_manifest:
            (ROOT / "BENCHMARK.json").write_text(json.dumps(spec.manifest(), indent=2) + "\n")
            return 0
        if args.smoke:
            return smoke()
        if args.workload is None:
            parser.error("--workload is required")
        out = run(args)
    except (BenchError, OSError, ValueError, KeyError) as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    print("\n".join(out["lines"]))
    print(json.dumps(out["json"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
