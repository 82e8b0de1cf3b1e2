"""Benchmark of the kantorovich package: law suite, transport solves and CLI.

Usage, from the root of a checkout:

    python3 bench/run.py --workload suite --seed 1 --seconds 30 --trace 0
    python3 bench/run.py                  # every workload, untraced and traced

Each workload runs in fresh interpreters (``bench/workloads.py``), so no
cache state passes between workloads or runs. With ``--trace 0`` the last
line of stdout is a JSON object with the end-to-end metrics; with
``--trace 1`` it holds the per-layer metrics of a traced run. The lines
before it give every metric with its unit, the operations attempted and
failed, the Python version and ``nproc``. See ``bench/README.md``.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import speed  # noqa: E402
import test_checks  # noqa: E402

WORKLOADS = ("suite", "transport", "cli")
# Set-ups per run: the measured run's own plus this many set-up-only runs.
EXTRA_SETUPS = 2
# Rounds of the fixed work done by a traced run and by its untraced twin.
TRACE_ROUNDS = {"suite": 40, "transport": 4, "cli": 1}
WORKER_TIMEOUT_S = 170


def worker(workload, seed, mode, seconds=None, rounds=None, deadline=None):
    command = [sys.executable, str(HERE / "workloads.py"), workload, "--seed", str(seed), "--mode", mode]
    if seconds is not None:
        command += ["--seconds", str(seconds)]
    if rounds is not None:
        command += ["--rounds", str(rounds)]
    timeout = WORKER_TIMEOUT_S if deadline is None else max(1.0, deadline - time.monotonic())
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=timeout)
    if done.returncode != 0:
        raise RuntimeError(f"{workload} worker ({mode}) exited {done.returncode}: {done.stderr.strip()[-2000:]}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def percentile(values, share):
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * share // 100))
    return ordered[int(rank) - 1]


def untraced(workload, seed, seconds, deadline):
    setups = [worker(workload, seed, "setup", deadline=deadline)["setup_s"] for _ in range(EXTRA_SETUPS)]
    result = worker(workload, seed, "timed", seconds=seconds, deadline=deadline)
    setups.append(result["setup_s"])
    ops = result["ops"]
    attempted = sum(a for _, a, _ in ops)
    seconds_per_op = [s for s, _, _ in ops]
    metrics = {
        "setup_s": statistics.median(setups),
        "ops_per_s": attempted / sum(seconds_per_op),
        "op_p50_ms": 1000.0 * percentile(seconds_per_op, 50),
        "op_p90_ms": 1000.0 * percentile(seconds_per_op, 90),
        "peak_rss_mb": result["peak_rss_mb"],
    }
    low, mid, high = result["probe_ms"]
    notes = [
        f"operations timed: {len(ops)}",
        f"set-up samples: {len(setups)}, unscaled {result['setup_raw_s']:.3f} s in the timed interpreter",
        f"speed probe {low:.2f} / {mid:.2f} / {high:.2f} ms (min / median / max), reference {1000 * speed.NOMINAL_S:.2f} ms",
    ]
    return attempted, sum(f for _, _, f in ops), result["problems"], result["integrity"], metrics, notes


def traced(workload, seed, deadline):
    rounds = TRACE_ROUNDS[workload]
    base = worker(workload, seed, "fixed", rounds=rounds, deadline=deadline)
    run = worker(workload, seed, "trace", rounds=rounds, deadline=deadline)
    metrics = dict(run["layers"])
    base_s = sum(s for s, _, _ in base["ops"])
    traced_s = sum(s for s, _, _ in run["ops"])
    metrics["trace.overhead_pct"] = 100.0 * (traced_s / base_s - 1.0)
    ops = base["ops"] + run["ops"]
    notes = [
        f"fixed work: {rounds} rounds, {sum(a for _, a, _ in run['ops'])} operations",
        f"operation time untraced {base_s:.3f} s, traced {traced_s:.3f} s",
        f"spans written to {run['trace_file']}",
    ]
    return (
        sum(a for _, a, _ in ops),
        sum(f for _, _, f in ops),
        base["problems"] + run["problems"],
        base["integrity"] + run["integrity"],
        metrics,
        notes,
    )


def run_one(spec, workload, seed, seconds, trace):
    deadline = time.monotonic() + WORKER_TIMEOUT_S
    integrity = [f"checker self-test failed: {name}" for name in test_checks.failures()]
    attempted, failed, problems, found, measured, notes = (
        traced(workload, seed, deadline) if trace else untraced(workload, seed, seconds, deadline)
    )
    integrity += found
    declared = spec["per_layer"] if trace else spec["end_to_end"]
    metrics = {m["name"]: {"value": measured.get(m["name"], 0), "unit": m["unit"]} for m in declared}
    print(f"workload {workload}  seed {seed}  seconds {seconds}  trace {trace}")
    print(f"python {platform.python_version()}  nproc {os.cpu_count()}")
    for name, metric in metrics.items():
        print(f"  {name:40s} {metric['value']:>16.6f} {metric['unit']}")
    for line in notes:
        print(f"  {line}")
    print(f"  attempted {attempted}  failed {failed}")
    for line in problems + integrity:
        print(f"  problem: {line}")
    return {"correct": not integrity, "attempted": attempted, "failed": failed, "metrics": metrics}


def main():
    parser = argparse.ArgumentParser(description="Benchmark of the kantorovich package.")
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "kantorovich" / "__init__.py").is_file():
        print(f"error: no package source at {ROOT / 'src' / 'kantorovich'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    if args.workload is not None:
        result = run_one(spec, args.workload, args.seed, seconds, args.trace)
        print(json.dumps(result))
        return 0
    results = {}
    for workload in WORKLOADS:
        for trace in (0, 1):
            results[f"{workload}/trace{trace}"] = run_one(spec, workload, args.seed, seconds, trace)
    print(json.dumps(results))
    return 0 if all(r["correct"] and not r["failed"] for r in results.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
