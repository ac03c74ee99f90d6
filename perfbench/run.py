"""Run one benchmark workload against the package in ../src and print its metrics.

    python3 perfbench/run.py --workload curve-r1 --seed 1 --seconds 40 --trace 0

The run builds its inputs from --seed and parses them once, then repeats
rounds of the workload's operations (one process, one thread), each round on
its own fresh copy of the parsed inputs, while the next round is expected to
end within --seconds (at least one round).  The outputs of the first round
are checked with the benchmark's own arithmetic, and every later round must
give the same verdicts and counts.  Each operation's time is taken against
a fixed kernel run between the operations (see REFERENCE_KERNEL_S).  The
last line of stdout is one JSON object: {"correct", "attempted", "failed",
"metrics"}.  With --trace 0 the metrics are the end-to-end ones; with
--trace 1 the layers are wrapped in timers (tracer.py) and the metrics are
the per-layer ones, after which one more round runs untraced and must agree
with the traced rounds.  Result and trace files go to perfbench/out/.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import pickle
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

# (name, unit, better) of every end-to-end metric an untraced run reports.
END_TO_END = [
    ("setup_s", "s", "lower"),
    ("wall_s", "s", "lower"),
    ("cpu_s", "s", "lower"),
    ("verdict_median_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
    ("minors_considered", "count", "lower"),
    ("minors_computed", "count", "lower"),
]

MODULES = ("polyring", "polylinalg", "gbasis", "selection", "fastcheck", "problemfile")


def since_process_start():
    """Seconds since this process started, by the kernel's own start time."""
    with open("/proc/self/stat", encoding="ascii") as fh:
        fields = fh.read().rsplit(")", 1)[1].split()
    start_ticks = int(fields[19])
    return time.clock_gettime(time.CLOCK_BOOTTIME) - start_ticks / os.sysconf("SC_CLK_TCK")


def cpu_seconds():
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def load_package():
    """The polyminors modules from this checkout's src/, never an installed copy."""
    if not (SRC / "polyminors" / "__init__.py").is_file():
        raise SystemExit(f"run.py: no package source at {SRC / 'polyminors'}")
    sys.path.insert(0, str(SRC))
    pm = argparse.Namespace(**{m: importlib.import_module(f"polyminors.{m}") for m in MODULES})
    if Path(pm.fastcheck.__file__).resolve().parent != SRC / "polyminors":
        raise SystemExit(f"run.py: polyminors imported from {pm.fastcheck.__file__}, not {SRC}")
    return pm


# A shared host's speed swings with its other tenants' load: up to 2x between
# 5-second windows, and the median time of one operation moved by 23% between
# six consecutive 20-second runs, so raw times spread between runs by as much
# as the bounds allow.  Every operation is therefore timed against a fixed
# kernel of pure-Python work of the package's own kind (products of
# polynomials over GF(101) held as dicts of exponent tuples), run between the
# operations of each round: it counts as its time over the kernel's mean time
# in that round, times REFERENCE_KERNEL_S.  The kernel is the benchmark's own
# code, so no change to the package can move it.
REFERENCE_KERNEL_S = 0.100
_KERNEL_FACTOR = {(i, j, 3 - i): (7 * i + j) % 101 + 1 for i in range(4) for j in range(4)}


def reference_kernel():
    """(wall, cpu) seconds of the fixed kernel: 180 products of small polynomials."""
    cpu0, start = cpu_seconds(), time.perf_counter()
    acc = _KERNEL_FACTOR
    for _ in range(180):
        out = {}
        for m1, c1 in acc.items():
            for m2, c2 in _KERNEL_FACTOR.items():
                m = tuple(a + b for a, b in zip(m1, m2))
                out[m] = (out.get(m, 0) + c1 * c2) % 101
        acc = {tuple(e % 5 for e in m): c for m, c in out.items()}
    return time.perf_counter() - start, cpu_seconds() - cpu0


def run_round(pm, workload, problems, tracer):
    """Run every op once: (outputs, summaries, times, failures, errors).

    The kernel runs before every op and after the last; each op's times are
    (wall, cpu, kernel wall, kernel cpu), the kernel's being its mean over
    the round.  On the same ten runs of each workload, the round's mean
    rather than the two kernel runs beside each op, brief next to a 3-second
    op, lowered the largest spread of a time metric from 0.12 to 0.09.
    """
    outputs, summaries, spans, failures, errors = [], [], [], [], []
    kernels = [reference_kernel()]
    for op in workload.ops:
        draws0, distinct0 = tracer.draws()
        cpu0, start = cpu_seconds(), time.perf_counter()
        failure = None
        try:
            out = op.run(pm, problems[op.problem])
        except Exception as exc:  # a failed operation: counted, reported, not checked
            failure = f"{op.label}: {type(exc).__name__}: {exc}"
        spans.append((time.perf_counter() - start, cpu_seconds() - cpu0))
        kernels.append(reference_kernel())
        if failure:
            failures.append(failure)
            outputs.append(None)
            summaries.append(None)
            continue
        draws, distinct = tracer.draws()
        draws, distinct = draws - draws0, distinct - distinct0
        verdict, considered, computed = op.summary(out)
        if considered is not None and (considered, computed) != (draws, distinct):
            errors.append(f"{op.label}: report counts {considered}/{computed} differ from "
                          f"the {draws}/{distinct} draws seen")
        outputs.append(out)
        summaries.append((op.label, verdict, draws, distinct))
    kernel = (statistics.fmean(k[0] for k in kernels), statistics.fmean(k[1] for k in kernels))
    times = [span + kernel for span in spans]
    return outputs, summaries, times, failures, errors


def main(argv=None):
    from workloads import WORKLOADS
    from tracer import Tracer

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    pm = load_package()
    workload = WORKLOADS[args.workload](args.seed)
    tracer = Tracer(pm, timed=bool(args.trace))
    tracer.install()
    problems = workload.parse(pm)
    # Later rounds unpickle a copy taken before any operation ran: the same
    # objects as a fresh parse, with no cached basis or dimension carried over,
    # at a thousandth of the cost (parsing projdim-split takes about a second).
    parsed = pickle.dumps(problems, protocol=pickle.HIGHEST_PROTOCOL)
    setup_s = since_process_start()

    # Rounds run until the next one would end past --seconds (at least one).
    first = None
    rounds, failures, errors = [], [], []
    start = round_start = time.perf_counter()
    while True:
        outputs, summaries, times, failed, wrong = run_round(pm, workload, problems, tracer)
        rounds.append(times)
        failures += failed
        errors += wrong
        if first is None:
            first = (problems, outputs, summaries)
        elif summaries != first[2]:
            errors.append(f"round {len(rounds)} differs from round 1")
        now = time.perf_counter()
        if 2 * now - round_start - start > args.seconds:
            break
        round_start = now
        problems = pickle.loads(parsed)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    tracer.uninstall()

    problems, outputs, summaries = first
    ran = [(op, out) for op, out, summary in zip(workload.ops, outputs, summaries) if summary]
    if args.trace:
        metrics = tracer.per_layer(len(rounds), workload.layer_counts(ran))
        counter = Tracer(pm, timed=False)
        counter.install()
        _, untraced, untraced_times, _, _ = run_round(pm, workload, workload.parse(pm), counter)
        counter.uninstall()
        if untraced != summaries:
            errors.append("the untraced round disagrees with the traced rounds")
    errors += workload.check(pm, problems, ran)

    # Per op, the median over the rounds of its time over the kernel's.
    ops = range(len(workload.ops))
    wall = [[r[i][0] / r[i][2] * REFERENCE_KERNEL_S for i in ops] for r in rounds]
    cpu = [[r[i][1] / r[i][3] * REFERENCE_KERNEL_S for i in ops] for r in rounds]
    wall_s = sum(statistics.median(r[i] for r in wall) for i in ops)
    if not args.trace:
        considered = sum(s[2] for s in summaries if s)
        computed = sum(s[3] for s in summaries if s)
        metrics = {
            "setup_s": (setup_s, "s"),
            "wall_s": (wall_s, "s"),
            "cpu_s": (sum(statistics.median(r[i] for r in cpu) for i in ops), "s"),
            "verdict_median_s": (statistics.median(t for r in wall for t in r), "s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
            "minors_considered": (considered, "count"),
            "minors_computed": (computed, "count"),
        }
    result = {
        "correct": not errors,
        "attempted": len(rounds) * len(workload.ops),
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}_seed{args.seed}_trace{args.trace}"
    details = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "rounds": rounds, "failures": failures, "errors": errors,
        "verdicts": [[s[0], repr(s[1])[:200], s[2], s[3]] for s in summaries if s],
        "result": result,
    }
    if args.trace:
        details["traced_wall_s"] = wall_s
        details["untraced_round_wall_s"] = sum(t[0] / t[2] for t in untraced_times) * REFERENCE_KERNEL_S
    (OUT / f"{stem}.json").write_text(json.dumps(details, indent=1) + "\n", encoding="utf-8")
    for e in failures + errors:
        print(e, file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
