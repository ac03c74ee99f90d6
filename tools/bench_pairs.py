"""Compare two checkouts on every benchmark workload by alternating pairs of runs.

    python3 tools/bench_pairs.py PARENT_DIR CHANGE_DIR --pairs 10 --seed-base 1900 \
        --seconds 40 [--claim projdim-split:wall_s] [--out BENCH.json]

Pair i runs `perfbench/run.py --workload W --seed (seed-base + i) --seconds S
--trace 0` once in each checkout, one process at a time, with the parent first
on even i and the change first on odd i, so a drift of the host over a pair
does not favour either side.  The workloads and end-to-end metrics are those
of CHANGE_DIR's BENCHMARK.json.

The JSON written (to --out, else stdout) holds the command, the parent's
revision, the pairing, per workload and metric the two medians, the parent's
quartiles and in how many pairs the change read lower, and every raw run.
With --claim W:M, `claim` also says whether the change read lower on metric M
of workload W in at least 9 of 10 pairs, with medians further apart than the
parent's quartile spread.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """One untraced benchmark run; its last stdout line as a flat dict."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True, check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode or not lines:
        raise SystemExit(f"bench_pairs: {' '.join(cmd)} in {checkout} failed:\n{proc.stderr}")
    result = json.loads(lines[-1])
    row = {"correct": result["correct"], "failed": result["failed"]}
    row.update((k, v["value"]) for k, v in result["metrics"].items())
    return row


def revision(checkout: Path) -> str:
    proc = subprocess.run(["git", "-C", str(checkout), "rev-parse", "--short", "HEAD"],
                          capture_output=True, text=True, check=False)
    return proc.stdout.strip() if proc.returncode == 0 else checkout.name


def summarise(runs, workloads, metrics) -> dict:
    """{workload: {metric: medians, parent quartiles, pairs where the change was lower}}."""
    summary = {}
    for w in workloads:
        by_seed = {}
        for r in runs:
            if r["workload"] == w:
                by_seed.setdefault(r["seed"], {})[r["side"]] = r
        pairs = [(s["parent"], s["change"]) for s in by_seed.values()]
        summary[w] = {}
        for m in metrics:
            parent = [p[m] for p, _ in pairs]
            change = [c[m] for _, c in pairs]
            q1, _, q3 = statistics.quantiles(parent, n=4) if len(parent) > 1 else parent * 3
            summary[w][m] = {
                "parent_median": round(statistics.median(parent), 4),
                "change_median": round(statistics.median(change), 4),
                "parent_quartiles": [round(q1, 4), round(q3, 4)],
                "change_lower_pairs": f"{sum(c[m] < p[m] for p, c in pairs)}/{len(pairs)}",
            }
    return summary


def judge_claim(summary, claim: str) -> dict:
    workload, metric = claim.split(":")
    s = summary[workload][metric]
    lower, total = map(int, s["change_lower_pairs"].split("/"))
    q1, q3 = s["parent_quartiles"]
    gap = s["parent_median"] - s["change_median"]
    return {
        "workload": workload,
        "metric": metric,
        "change": round(-gap / s["parent_median"], 4) if s["parent_median"] else None,
        "holds": 10 * lower >= 9 * total and gap > q3 - q1,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed-base", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=40)
    parser.add_argument("--claim", default=None, help="WORKLOAD:METRIC the change claims to lower")
    parser.add_argument("--out", type=Path, default=None)
    args = parser.parse_args(argv)

    spec = json.loads((args.change / "BENCHMARK.json").read_text(encoding="utf-8"))
    workloads = [w["name"] for w in spec["workloads"]]
    metrics = [m["name"] for m in spec["end_to_end"]]
    if args.claim and args.claim.split(":")[0] not in workloads:
        parser.error(f"--claim names no workload of {args.change / 'BENCHMARK.json'}")
    runs = []
    for w in workloads:
        for i in range(args.pairs):
            seed = args.seed_base + i
            sides = [("parent", args.parent), ("change", args.change)]
            for side, checkout in sides if i % 2 == 0 else sides[::-1]:
                row = run_once(checkout, w, seed, args.seconds)
                runs.append({"workload": w, "side": side, "seed": seed, **row})
                print(f"{w} {side} seed {seed}: wall_s {row['wall_s']:.4f}", file=sys.stderr)

    summary = summarise(runs, workloads, metrics)
    last = args.seed_base + args.pairs - 1
    report = {
        "command": f"python3 perfbench/run.py --workload W --seed S --seconds {args.seconds:g} --trace 0",
        "parent": revision(args.parent),
        "host": f"{os.cpu_count()}-core host, Python {platform.python_version()}",
        "pairs": (f"{args.pairs} per workload, seeds {args.seed_base}-{last}, "
                  "first side alternating (parent first on odd pairs)"),
        "claim": judge_claim(summary, args.claim) if args.claim else None,
        "summary": summary,
        "runs": runs,
    }
    text = json.dumps(report, indent=1) + "\n"
    if args.out:
        args.out.write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
