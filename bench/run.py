"""The treebelief benchmark: one workload per invocation, one fresh worker per run.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root; the package is imported from ``src/``.  The
parent process writes the seeded inputs and their reference answers under
``bench/out/``, then starts fresh worker processes one at a time: a few that
only set up (for the ``setup_s`` median) and one that replays the workload's
op mix in a single closed loop and checks every output outside the timed
region.  The last line of standard output is one JSON object with the
metrics; the lines before it record the run and its environment.

Workloads (each stresses one layer and leaves the others idle):

``cli_oneshot``
    ``treebelief.cli.main(["query", ...])`` in process, stdout captured, on
    chain / binary / star networks with k in {2, 3, 8} and n in {10^2, 10^3},
    evidence none, the deepest leaf or a mid-tree node.  Each op pays parse,
    validate, propagate, report and serialize; 10^3-node queries make the
    tail, with the quadratic 10^3-node stars the slowest ops.
``engine_sweep``
    ``propagate`` then ``posterior_report`` on chains and binary trees of
    500-2000 nodes, k in {2, 8}, loaded and validated once in set-up;
    evidence none, a leaf, a mid-tree node, or a seeded 1% of the nodes.
``oracle_check``
    ``treebelief.cli.main(["compare", ...])`` against the Monte Carlo oracle
    (all three modes, 10-node Dirichlet trees) and the enumeration oracle
    (approx- and exact-posterior, 8-node two-point-support trees).

A run replays a fixed number of passes over the op mix (``PASSES``), each
pass in its own seeded order, so every run of a workload times the same ops.
``--seconds`` is accepted for the command-line interface but does not change
the op count.  On a 2-vCPU Xeon VM a whole untraced run takes 34-47 s for
``cli_oneshot``, 30-41 s for ``engine_sweep`` and 27-31 s for
``oracle_check``; a traced one takes 45-70 s.

The host's speed switches between levels about 1.5x apart, for seconds to
minutes at a time, and whole runs fall in one level or the other.  So every
timed metric is corrected for the host's speed: the worker times a fixed
reference kernel (``worker.reference_kernel``, no treebelief code) between
ops, and each op time is scaled by ``REFERENCE_S`` over the mean of the
kernel's times just before and after it.  The set-up time of a worker is
scaled by the kernel's time right after it is ready.  Each run also prints
and records the uncorrected metrics beside the corrected ones.

Throughput is taken over the whole run, and an op's latency is the mean of
its replays, which are spread over the run; the latency percentiles are
taken over the replays with those per-op times, so the tail percentile has
the same rank on every commit.  If a run reaches its deadline before the
mix is done, the ops left are counted as skipped and the result reads
``"correct": false``.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

# Wall-clock budget for one invocation; stay under the 180 s limit.
BUDGET_S = 165.0
# Worker processes that only set up, besides the measuring one (untraced runs).
SETUP_ONLY = {"cli_oneshot": 8, "engine_sweep": 2, "oracle_check": 8}
# Passes over each workload's op mix in one run.
PASSES = {"cli_oneshot": 3, "engine_sweep": 5, "oracle_check": 12}
# At least this many ops lie beyond the reported tail percentile.
TAIL_BEYOND = 10
# The reference kernel's time in a fast phase of the 2-vCPU Xeon VM the
# bounds were set on, so corrected times read as that machine's seconds.
REFERENCE_S = 0.004


def _fail(message: str) -> int:
    print(f"bench: {message}", file=sys.stderr)
    return 2


def tail_rank(n: int):
    """(index into n sorted values, percentile) of the highest percentile
    with TAIL_BEYOND values above it."""
    if n <= TAIL_BEYOND:
        return n - 1, 100.0
    return n - TAIL_BEYOND - 1, 100.0 * (n - TAIL_BEYOND) / n


def environment() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "cpu_pinning": "not available to the benchmark",
        "cache_drop": "not available to the benchmark",
        "threads": "OPENBLAS/OMP/MKL_NUM_THREADS=1",
    }


def start_worker(plan_path: Path, result_path: Path, env: dict, deadline: float,
                 setup_only: bool):
    """Run one worker to completion; return (result dict, spawn time)."""
    argv = [sys.executable, str(BENCH / "worker.py"), str(plan_path), str(result_path)]
    if setup_only:
        argv.append("--setup-only")
    spawned = time.monotonic()
    proc = subprocess.Popen(argv, cwd=ROOT, env=env, stdout=sys.stderr)
    try:
        code = proc.wait(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise RuntimeError("worker ran past the time budget") from None
    if code != 0:
        raise RuntimeError(f"worker exited with code {code}")
    with open(result_path, encoding="utf-8") as handle:
        return json.load(handle), spawned


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(PASSES))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    started = time.monotonic()
    if args.seed < 0:
        return _fail("--seed must be a non-negative integer")
    if not (SRC / "treebelief" / "__init__.py").is_file():
        return _fail(f"no treebelief package under {SRC}; run from a full checkout")
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        listed = json.load(handle)["per_layer" if args.trace else "end_to_end"]
    sys.path.insert(0, str(SRC))
    import workloads  # imports treebelief

    work = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        plan = workloads.build(args.workload, args.seed, work.relative_to(ROOT),
                               PASSES[args.workload])
        plan["trace"] = bool(args.trace)
        plan["deadline"] = started + BUDGET_S - 15.0
        plan["spans_path"] = str((OUT / f"{args.workload}-spans.json.gz").relative_to(ROOT))
        plan_path = work / "plan.json"
        plan_path.write_text(json.dumps(plan), encoding="utf-8")

        env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
                   MKL_NUM_THREADS="1")
        env["PYTHONPATH"] = os.pathsep.join(
            [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
        )
        deadline = started + BUDGET_S
        setups = []
        for i in range(0 if args.trace else SETUP_ONLY[args.workload]):
            result, spawned = start_worker(plan_path, work / f"setup{i}.json", env, deadline, True)
            setups.append((result["ready"] - spawned, result["ready_reference"]))
        result, spawned = start_worker(plan_path, work / "result.json", env, deadline, False)
        setups.append((result["ready"] - spawned, result["ready_reference"]))
    except RuntimeError as exc:
        return _fail(str(exc))
    finally:
        shutil.rmtree(work, ignore_errors=True)

    report = summarize(args, plan, result, setups, {m["name"]: m["unit"] for m in listed})
    summary_path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    summary_path.write_text(json.dumps(report, indent=2), encoding="utf-8")
    env_line = ", ".join(f"{k} {v}" for k, v in report["environment"].items())
    print(f"# environment: {env_line}")
    timing = (
        f"{report['timed_ops']} of them untraced twins for trace.overhead_pct" if args.trace
        else f"latency tail is p{report['tail_percentile']:.1f} over {report['timed_ops']} ops, "
        "each timed as the mean of its speed-corrected replays"
    )
    print(f"# {args.workload} seed {args.seed} trace {args.trace}: "
          f"{report['attempted']} ops, {report['failed']} failed, {report['skipped']} skipped "
          f"(fail_ratio {report['fail_ratio']:.4g}); {timing}; "
          f"details in {summary_path.relative_to(ROOT)}")
    for failure in report["failures"][:20]:
        print(f"# FAILED {failure}")
    if not args.trace:
        raw = ", ".join(f"{k} {v:.6g}" for k, v in report["uncorrected_metrics"].items())
        print(f"# uncorrected for host speed: {raw}; reference kernel median "
              f"{report['reference_ms']['median']:.4g} ms against {1e3 * REFERENCE_S:g} ms")
    if report["skipped"]:
        print(f"# INCOMPLETE: the deadline cut the run short; {report['skipped']} planned ops "
              "were not run, so the metrics cover a different op mix")
    print(json.dumps({
        "correct": report["failed"] == 0 and report["skipped"] == 0,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": report["metrics"],
    }))
    return 0


def timing_metrics(timed, seconds, setups) -> dict:
    """Throughput, latency and set-up metrics; ``seconds[j]`` is the time of
    op record ``timed[j]`` and ``setups`` the set-up times."""
    replays = defaultdict(list)
    for r, t in zip(timed, seconds):
        replays[r[0]].append(t)
    mean = {i: statistics.fmean(t) for i, t in replays.items()}
    times = [mean[r[0]] for r in timed]
    return {
        "setup_s": statistics.median(setups),
        "throughput_nodes_per_s": sum(r[2] for r in timed) / sum(times),
        "latency_p50_ms": 1e3 * statistics.median(times),
        "latency_tail_ms": 1e3 * sorted(times)[tail_rank(len(times))[0]],
    }


def summarize(args, plan: dict, result: dict, setups, units: dict) -> dict:
    """Metrics named in BENCHMARK.json (0 for a layer the workload never
    calls), plus the record of the run: failures with their inputs, the tail
    percentile and sample count, set-up samples, per-op times, the
    uncorrected timing metrics, the reference kernel's times, environment."""
    ops = plan["ops"]
    records = result["records"]
    failures = [
        {"op": ops[r[0]]["key"], "inputs": ops[r[0]].get("argv") or ops[r[0]].get("evidence"),
         "error": r[4]}
        for r in records if r[4]
    ]
    timed = [r for r in records if not r[5]]
    corrected = [r[1] * REFERENCE_S / r[6] for r in timed]
    setup_corrected = [s * REFERENCE_S / ref for s, ref in setups]
    references = [r[6] for r in records] + [ref for _, ref in setups]
    env = environment()
    env["numpy"] = result["numpy"]
    env["treebelief"] = result["treebelief"]
    uncorrected = {}
    if args.trace:
        metrics = dict(result["layers"])
        metrics["cli.output_mb"] = statistics.fmean(r[3] for r in records) / 1e6
    else:
        metrics = timing_metrics(timed, corrected, setup_corrected)
        metrics["peak_rss_mb"] = result["peak_rss_mb"]
        uncorrected = timing_metrics(timed, [r[1] for r in timed], [s for s, _ in setups])
    replays = defaultdict(list)
    for r, t in zip(timed, corrected):
        replays[r[0]].append(t)
    return {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "seconds_arg": args.seconds,
        "passes": PASSES[args.workload],
        "metrics": {
            name: {"value": metrics.get(name, 0.0), "unit": unit} for name, unit in units.items()
        },
        "uncorrected_metrics": uncorrected,
        "attempted": len(records),
        "failed": len(failures),
        "skipped": result["skipped"],
        "fail_ratio": len(failures) / max(1, len(records)),
        "failures": failures,
        "timed_ops": len(timed),
        "tail_percentile": tail_rank(len(timed))[1] if timed else 0.0,
        "setup_samples_s": setups,
        "reference_ms": {
            "median": 1e3 * statistics.median(references),
            "min": 1e3 * min(references),
            "max": 1e3 * max(references),
        },
        "op_ms": {
            ops[i]["key"]: [round(1e3 * t, 3) for t in replays[i]] for i in sorted(replays)
        },
        "environment": env,
    }


if __name__ == "__main__":
    sys.exit(main())
