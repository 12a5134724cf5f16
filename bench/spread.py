#!/usr/bin/env python3
"""Repeat the benchmark over several seeds and report each metric's spread.

    python3 bench/spread.py --seeds 1-10 [--trace 0] [--record]

Runs `bench/run.py` once per (seed, workload) for BENCHMARK.json's
`run_seconds`, one process at a time, with every workload interleaved seed
by seed so that slow drift of the machine spreads over all of them. For
every metric it prints the median and the distance between the first and
third quartile as a share of the median (`statistics.quantiles(values,
n=4)`), next to the bound in BENCHMARK.json. `--record` stores the medians
and spreads, with the workload records, the commit (`git rev-parse`) and
the machine they were measured on, in bench/records.json.
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

ROOT = Path(__file__).resolve().parent.parent
RECORDS = ROOT / "bench" / "records.json"


def _seeds(text: str):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def spread(values):
    med = statistics.median(values)
    if len(values) < 2 or med == 0:
        return med, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, (q3 - q1) / abs(med)


def _commit() -> str:
    """Short hash of HEAD, marked `-dirty` if src/ differs from it."""
    head = subprocess.run(["git", "rev-parse", "--short", "HEAD"], cwd=ROOT, capture_output=True, text=True, check=True)
    clean = subprocess.run(["git", "diff", "--quiet", "HEAD", "--", "src"], cwd=ROOT).returncode == 0
    return head.stdout.strip() + ("" if clean else "-dirty")


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--seeds", default="1-10", help="seed range, e.g. 1-10")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record", action="store_true", help="store the medians in bench/records.json")
    args = ap.parse_args(argv)
    commit = _commit() if args.record else None  # fail before the runs, not after them

    names = [w["name"] for w in spec["workloads"]]
    runs = {name: [] for name in names}
    for seed in _seeds(args.seeds):
        for name in names:
            cmd = spec["command"] + ["--workload", name, "--seed", str(seed), "--seconds", str(spec["run_seconds"]), "--trace", str(args.trace)]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
            if proc.returncode != 0:
                print(proc.stderr, file=sys.stderr)
                raise SystemExit(f"{name} seed {seed}: exit code {proc.returncode}")
            result = json.loads(proc.stdout.splitlines()[-1])
            runs[name].append(result)
            ok = "ok" if result["correct"] else "INCORRECT"
            print(f"{name} seed {seed}: {ok}, {result['attempted']} attempted, {result['failed']} failed", flush=True)

    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    summary = {}
    for name in names:
        summary[name] = {}
        print(f"\n{name}")
        for metric in runs[name][0]["metrics"]:
            values = [r["metrics"][metric]["value"] for r in runs[name]]
            med, iqr = spread(values)
            bound = bounds.get(metric) if not args.trace else None
            summary[name][metric] = {"median": med, "iqr_frac": iqr, "unit": runs[name][0]["metrics"][metric]["unit"]}
            flag = "" if bound is None else f"  bound {bound}  {'ok' if iqr < bound / 3 else 'WIDE'}"
            print(f"  {metric:26s} median {med:12.6g}  spread {iqr:7.4f}{flag}")
    if args.record:
        record(spec, summary, args, commit)
    return 0


def record(spec, summary, args, commit: str) -> None:
    sys.path.insert(0, str(ROOT / "bench"))
    import workloads

    records = json.loads(RECORDS.read_text()) if RECORDS.exists() else {}
    records["workloads"] = {}
    for w in spec["workloads"]:
        wl = workloads.build(w["name"], 1)
        records["workloads"][w["name"]] = {
            "params": wl.params,
            "ldlog_run_flags": " ".join(wl.cli_args("FILE")[2:]),
            "queries_per_pass": wl.query_count,
            "answers_per_pass": wl.answer_count,
            "max_proof_height": wl.max_height,
        }
    key = "per_layer" if args.trace else "end_to_end"
    records[key] = {
        "commit": commit,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "seeds": args.seeds,
        "run_seconds": spec["run_seconds"],
        "medians": summary,
    }
    RECORDS.write_text(json.dumps(records, indent=1) + "\n")


if __name__ == "__main__":
    sys.exit(main())
