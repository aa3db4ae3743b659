#!/usr/bin/env python3
"""Self-check of the benchmark; prints every metric and writes trajectory points.

Run from the repository root:

    python3 perfbench/selfcheck.py --seed 0 --seconds 12 [--out perfbench/trajectory/BENCH_x.json]

For each workload it runs perfbench/run.py once untraced and twice traced,
all with the same seed, one after another. It then prints every end-to-end
and per-layer metric with its unit, and checks that

- every operation passed its output check;
- the count metrics repeat exactly across the two traced runs;
- the traced shares reproduce the split measured before the benchmark
  existed (exact-mean-8k mostly DP; lowrank-500k parse + embed + binseg);
- the metric names and units match BENCHMARK.json.

It exits with 1 if a check fails. ``--out`` writes all records to one JSON
file, a point of the benchmark trajectory.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import run
import spans

HERE = Path(__file__).resolve().parent

# (workload, prediction, test on the traced shares of one operation)
SHARE_CHECKS = [
    ("exact-mean-8k", "DP column step >= 75% of segment",
     lambda s: s["dp_core.column_step_s"] >= 0.75),
    ("exact-mean-8k", "kernel column <= 15% of segment",
     lambda s: s["kernels.prefix_column_s"] <= 0.15),
    ("exact-2d-floor", "kernel column >= 30% of segment",
     lambda s: s["kernels.prefix_column_s"] >= 0.30),
    ("exact-2d-floor", "DP column step between 20% and 70% of segment",
     lambda s: 0.20 <= s["dp_core.column_step_s"] <= 0.70),
    ("lowrank-500k", "parse + embed + binseg >= 90% of segment",
     lambda s: s["cli.load_csv_s"] + s["lowrank.nystrom_embed_s"]
     + s["lowrank.binary_segmentation_s"] >= 0.90),
    ("lowrank-500k", "parse, embed and binseg each >= 10% of segment",
     lambda s: min(s["cli.load_csv_s"], s["lowrank.nystrom_embed_s"],
                   s["lowrank.binary_segmentation_s"]) >= 0.10),
]


def run_once(workload, seed, seconds, trace, record: Path) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace), "--record", str(record)]
    proc = subprocess.run(cmd, cwd=run.ROOT, stdout=subprocess.DEVNULL, timeout=900)
    if proc.returncode != 0:
        raise SystemExit(f"selfcheck: {' '.join(cmd)} exited with {proc.returncode}")
    return json.loads(record.read_text(encoding="utf-8"))


def check_benchmark_json() -> list[str]:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    problems = []
    for key, ours in (("end_to_end", run.END_TO_END), ("per_layer", run.PER_LAYER)):
        theirs = [(m["name"], m["unit"]) for m in spec[key]]
        if theirs != list(ours):
            problems.append(f"BENCHMARK.json {key} differs from run.py: {theirs} vs {ours}")
    names = [w["name"] for w in spec["workloads"]]
    if names != list(run.WORKLOADS):
        problems.append(f"BENCHMARK.json workloads {names} differ from run.py {list(run.WORKLOADS)}")
    return problems


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=12)
    ap.add_argument("--out", default=None, help="write the records here as a trajectory point")
    args = ap.parse_args(argv)

    work = run.WORK_ROOT / f"selfcheck-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    records = {}
    try:
        for wl in run.WORKLOADS:
            records[wl] = {
                "untraced": run_once(wl, args.seed, args.seconds, 0, work / f"{wl}-0.json"),
                "traced": [run_once(wl, args.seed, args.seconds, 1, work / f"{wl}-1-{k}.json")
                           for k in range(2)],
            }
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            run.WORK_ROOT.rmdir()
        except OSError:
            pass  # another run still uses it

    problems = check_benchmark_json()
    checks = []
    for wl, rec in records.items():
        for r in [rec["untraced"], *rec["traced"]]:
            if not r["result"]["correct"]:
                problems.append(f"{wl}: failed operations: {r['failures']}")
        first, second = (t["result"]["metrics"] for t in rec["traced"])
        for name in spans.COUNT_METRICS:
            if first[name]["value"] or second[name]["value"]:  # the layer runs here
                ok = first[name]["value"] == second[name]["value"]
                checks.append((wl, f"{name} repeats across runs", ok))
        shares = [{k: v / op["trace.segment_s"] for k, v in op.items() if k.endswith("_s")}
                  for t in rec["traced"] for op in t["per_op"]]
        for name, what, test in SHARE_CHECKS:
            if name == wl:
                checks.append((wl, f"{what}, every traced operation", all(map(test, shares))))
    problems += [f"{wl}: {what}: FAILED" for wl, what, ok in checks if not ok]

    header = f"{'metric':34s} {'unit':9s}" + "".join(f"{wl:>16s}" for wl in records)
    print(header)
    for key, metrics in (("untraced", run.END_TO_END), ("traced", run.PER_LAYER)):
        for name, unit in metrics:
            row = f"{name:34s} {unit:9s}"
            for rec in records.values():
                r = rec[key] if key == "untraced" else rec[key][0]
                row += f"{r['result']['metrics'][name]['value']:16.6g}"
            print(row)
    for wl, rec in records.items():
        print(f"{wl}: {rec['untraced']['timed_ops']} timed operations")
    for wl, what, ok in checks:
        print(f"check {wl}: {what}: {'ok' if ok else 'FAILED'}")

    if args.out:
        env = dict(next(iter(records.values()))["untraced"]["environment"])
        for key in ("workload", "trace"):
            env.pop(key)
        doc = {"environment": env, "seed": args.seed, "seconds": args.seconds,
               "checks": [{"workload": wl, "check": what, "ok": ok} for wl, what, ok in checks],
               "problems": problems, "workloads": records}
        Path(args.out).parent.mkdir(parents=True, exist_ok=True)
        Path(args.out).write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    for p in problems:
        print(f"selfcheck: {p}", file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
