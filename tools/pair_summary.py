"""Summarise alternating parent/change benchmark runs as a BENCH_*.json.

    python tools/pair_summary.py --out BENCH_17.json \\
        --parent-commit SHA --change-commit SHA \\
        parent=RUNS_DIR_OR_FILE ... change=RUNS_DIR_OR_FILE ...

Each argument SIDE=PATH names the full records that `perfbench/run.py
--trace 0` wrote (perfbench/results/<workload>_seed<s>_trace0.json) for
one side: a record file, or a directory whose *_trace0.json records are
all read.  A parent record and a change record of the same workload and
seed are one pair.  Records are only read; nothing under perfbench/ is
written.

The summary has the shape of the hand-built BENCH_14 to BENCH_16: per
workload the seeds, which side ran first in each pair (the side whose
record file was written first, as runs of a pair go one after the
other), the attempted and failed operations, whether every run was
correct, and per end-to-end metric of BENCHMARK.json the medians and
inclusive quartiles (numpy's default percentiles) of both sides, the
wins (the side whose value is better in a pair; a tie counts for
neither), the ratio of the medians and whether the change's median is
within the metric's bound.  The machine it names (CPU count, Python and
numpy versions) is the one the script runs on, so run it where the runs
were made.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")
DESCRIPTION = (
    "perfbench pairs, parent commit against this change, one run at a time, alternating "
    "which side runs first (\"first\" per pair); each run is `python3 perfbench/run.py "
    "--workload <w> --seed <s> --seconds <n> --trace 0` from the root of a fresh checkout "
    "of that side. Quartiles are inclusive (numpy's default percentiles); \"within_bound\" "
    "says whether the change's median is no worse than the parent's by more than the "
    "BENCHMARK.json bound.")


def _records(path: Path) -> list[Path]:
    return sorted(path.glob("*_trace0.json")) if path.is_dir() else [path]


def load_runs(specs) -> dict:
    """{(workload, seed): {side: (mtime, record)}} from SIDE=PATH specs."""
    runs: dict = {}
    for spec in specs:
        side, _, path = spec.partition("=")
        if side not in SIDES or not path:
            raise SystemExit(f"error: expected parent=PATH or change=PATH, got {spec!r}")
        for file in _records(Path(path)):
            record = json.loads(file.read_text())
            if record.get("trace") not in (False, 0, "0", "False"):
                continue
            key = (record["workload"], int(record["seed"]))
            if side in runs.setdefault(key, {}):
                raise SystemExit(f"error: two {side} records for {key}")
            runs[key][side] = (file.stat().st_mtime, record)
    return runs


def _quartiles(values) -> dict:
    q1, median, q3 = np.percentile(values, [25, 50, 75])
    return {"median": round(float(median), 4), "q1": round(float(q1), 4), "q3": round(float(q3), 4)}


def summarise(runs: dict, metrics: list[dict]) -> dict:
    """The per-workload blocks of the summary, in order of first seed."""
    out: dict = {}
    for (workload, seed), sides in sorted(runs.items()):
        if set(sides) != set(SIDES):
            raise SystemExit(f"error: {workload} seed {seed} has no {set(SIDES) - set(sides)} record")
        block = out.setdefault(workload, {"seeds": [], "first": [], "runs": []})
        block["seeds"].append(seed)
        block["first"].append(min(SIDES, key=lambda side: sides[side][0]))
        block["runs"].append({side: sides[side][1] for side in SIDES})
    for workload, block in out.items():
        pairs = block.pop("runs")
        rounds = {side: [r for pair in pairs for rnds in pair[side]["rounds"] for r in rnds]
                  for side in SIDES}
        block["pairs"] = len(pairs)
        block["failed_ops"] = {side: sum(r["failed"] for r in rounds[side]) for side in SIDES}
        block["attempted_ops"] = {side: sum(r["attempted"] for r in rounds[side]) for side in SIDES}
        block["correct"] = all(not pair[side]["problems"] for pair in pairs for side in SIDES)
        block["metrics"] = {}
        for metric in metrics:
            name, lower = metric["name"], metric["better"] == "lower"
            values = {side: [float(pair[side]["metrics"][name]) for pair in pairs] for side in SIDES}
            wins = {side: 0 for side in SIDES}
            for parent, change in zip(values["parent"], values["change"]):
                if parent != change:
                    wins["change" if (change < parent) == lower else "parent"] += 1
            summary = {side: _quartiles(values[side]) for side in SIDES}
            ratio = float(np.median(values["change"]) / np.median(values["parent"]))
            worse = ratio - 1.0 if lower else 1.0 - ratio
            block["metrics"][name] = {
                **summary,
                "change_wins": wins["change"],
                "parent_wins": wins["parent"],
                "change_over_parent": round(ratio, 3),
                "within_bound": worse <= metric["bound"],
                "parent_runs": [round(v, 4) for v in values["parent"]],
                "change_runs": [round(v, 4) for v in values["change"]],
            }
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("runs", nargs="+", metavar="SIDE=PATH")
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--parent-commit", required=True)
    parser.add_argument("--change-commit", required=True)
    parser.add_argument("--note", action="append", default=[], metavar="KEY=TEXT",
                        help="a line of the notes block (repeatable)")
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    summary = {
        "description": DESCRIPTION,
        "machine": f"{os.cpu_count()} CPUs, Python {platform.python_version()}, numpy {np.__version__}",
        "commits": {"parent": args.parent_commit, "change": args.change_commit},
        **summarise(load_runs(args.runs), spec["end_to_end"]),
    }
    if args.note:
        summary["notes"] = dict(note.partition("=")[::2] for note in args.note)
    args.out.write_text(json.dumps(summary, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
