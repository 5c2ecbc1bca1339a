"""Seeded benchmark of siegeltheta: four workloads, one command.

    python3 perfbench/run.py --workload verify-g2 --seed 0 --seconds 35 --trace 0

Run it from the root of a checkout; it puts src on the import path itself
and needs only numpy and mpmath.  A run repeats whole passes over the
workload's inputs until --seconds is used up (at least one pass).  Every
round of a pass is a fresh worker process (worker.py).  The last line of
standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones, with --trace 1 the
per-layer ones from a traced pass (see README.md).  Full results, and
the spans of a traced run, are written under perfbench/results/.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = HERE / "results"

#: worker rounds per pass
ROUNDS = {"verify-g2": 5, "verify-g3": 3, "formal": 1, "eval": 1}
#: set-up-only workers started before the timed section.  setup_s is the
#: least set-up time of these and the rounds: under contention from the
#: host's other tenants set-up time jumps between two levels about 60%
#: apart for seconds at a time, and the median of a run follows the level
SETUP_PROBES = 9
WORKER_TIMEOUT_S = 150
#: one core per run: BLAS threads would otherwise spin on the second core
WORKER_ENV = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


class BenchmarkError(RuntimeError):
    pass


def run_worker(
    workload: str, seed: int, index: int, trace: bool = False, gate: bool = False, setup_only: bool = False
) -> dict:
    spec = {"workload": workload, "seed": seed, "round": index, "trace": trace, "gate": gate, "setup_only": setup_only}
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), json.dumps(spec)],
        cwd=ROOT,
        env=WORKER_ENV,
        capture_output=True,
        text=True,
        timeout=WORKER_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise BenchmarkError(f"worker {spec} exited {proc.returncode}:\n{proc.stderr[-4000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def percentile(values, q: int) -> float:
    if len(values) == 1:  # formal: one operation, repeated
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def run(workload: str, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    if trace:
        # the tracing overhead: round 0 once untraced, then traced below
        plain = run_worker(workload, seed, 0)
    else:
        setups = [
            run_worker(workload, seed, i % ROUNDS[workload], setup_only=True)["setup_s"]
            for i in range(SETUP_PROBES)
        ]
    start = time.perf_counter()
    passes = []
    while True:
        t0 = time.perf_counter()
        rounds = [
            run_worker(workload, seed, i, trace, gate=not passes and i == 0)
            for i in range(ROUNDS[workload])
        ]
        passes.append(rounds)
        pass_wall = time.perf_counter() - t0 - sum(r["gate_s"] for r in rounds)
        if time.perf_counter() - start + pass_wall > seconds:
            break

    workers = [r for rounds in passes for r in rounds]
    problems = [p for r in workers for p in r["problems"]]
    # an operation's latency is the median over the passes that repeat it,
    # so the percentiles rank inputs, not the host's hiccups
    repeats: dict = {}
    for rounds in passes:
        for i, r in enumerate(rounds):
            for j, ms in enumerate(r["ops_ms"]):
                if ms is not None:
                    repeats.setdefault((i, j), []).append(ms)
    if not repeats:
        errors = "\n".join(e for r in workers for e in r["errors"])
        raise BenchmarkError(f"no operation succeeded:\n{errors}")
    op_ms = [statistics.median(v) for v in repeats.values()]
    summary = {
        "correct": not problems,
        "attempted": sum(r["attempted"] for r in workers),
        "failed": sum(r["failed"] for r in workers),
    }
    if trace:
        layers = {
            name: statistics.median(sum(r["layers"][name] for r in rounds) for rounds in passes)
            for name in workers[0]["layers"]
        }
        layers["trace.overhead_pct"] = 100.0 * (passes[0][0]["run_s"] / plain["run_s"] - 1.0)
        metrics = layers
    else:
        metrics = {
            "setup_s": min(setups + [r["setup_s"] for r in workers]),
            "run_s": statistics.median(sum(r["run_s"] for r in rounds) for rounds in passes),
            "peak_rss_mib": max(r["peak_rss_mib"] for r in workers),
            "op_p50_ms": percentile(op_ms, 50),
            "op_p99_ms": percentile(op_ms, 99),
        }
    detail = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "passes": len(passes),
        "problems": problems,
        "errors": [e for r in workers for e in r["errors"]],
        "rounds": [
            [{k: v for k, v in r.items() if k not in ("ops_ms", "spans")} for r in rounds]
            for rounds in passes
        ],
        "metrics": metrics,
    }
    if not trace:
        detail["setups_s"] = setups
    if trace:
        detail["spans"] = [[r["spans"] for r in rounds] for rounds in passes]
    return {**summary, "metrics": metrics}, detail


def load_units() -> dict:
    """Metric name -> unit, as BENCHMARK.json declares them."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(ROUNDS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds positive")
    if not (ROOT / "src" / "siegeltheta" / "__init__.py").is_file():
        print(f"error: no siegeltheta sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    units = load_units()
    try:
        result, detail = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except (BenchmarkError, subprocess.TimeoutExpired, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    undeclared = sorted(set(result["metrics"]) - set(units))
    if undeclared:
        print(f"error: metrics not declared in BENCHMARK.json: {undeclared}", file=sys.stderr)
        return 1
    RESULTS.mkdir(exist_ok=True)
    out = RESULTS / f"{args.workload}_seed{args.seed}_trace{args.trace}.json"
    out.write_text(json.dumps(detail) + "\n")
    for problem in detail["problems"]:
        print(f"FAILED GATE: {problem}")
    for name, value in result["metrics"].items():
        print(f"{name:32s} {value:>16.6g} {units[name]}")
    print(f"attempted {result['attempted']}, failed {result['failed']}, correct {result['correct']}")
    result["metrics"] = {
        name: {"value": value, "unit": units[name]} for name, value in result["metrics"].items()
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
