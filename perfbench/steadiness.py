#!/usr/bin/env python3
"""Repeat the benchmark and report how steady each end-to-end metric is.

Runs `bash perfbench/run.sh` once per (seed, workload), the workloads
interleaved within each seed so that machine-wide drift lands on all of
them alike, and prints, per workload and end-to-end metric, the median,
the first and third quartiles (statistics.quantiles, n=4) and the spread
(q3 - q1) / median against a third of the metric's bound in
BENCHMARK.json. Run from the repository root:

    python3 perfbench/steadiness.py --seeds 1-10 --out perfbench/evidence/set-a.json

--compare A.json B.json instead prints both sets' tables, each
workload's engine event counts and job-time range, and how far the
median of set B moved from that of set A, against the bound, as
Markdown.
"""

import argparse
import json
import os
import re
import statistics
import subprocess
import sys
import time


# The per-job line perfbench logs on standard error for untraced jobs.
JOB_LINE = re.compile(r"job \d+ traced=false wall ([\d.]+)s setup ([\d.]+)s events (\d+)")


def load_bench():
    with open("BENCHMARK.json") as f:
        return json.load(f)


def seeds_arg(s):
    lo, _, hi = s.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def summarize(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / statistics.median(values)}


def run_set(args, bench):
    workloads = args.workloads.split(",") if args.workloads else [w["name"] for w in bench["workloads"]]
    runs = []
    for seed in args.seeds:
        for w in workloads:
            t0 = time.time()
            p = subprocess.run(["bash", "perfbench/run.sh", "--workload", w, "--seed", str(seed),
                                "--seconds", str(args.seconds), "--trace", "0"],
                               capture_output=True, text=True)
            last = p.stdout.strip().splitlines()[-1] if p.stdout.strip() else "{}"
            res = json.loads(last) if p.returncode == 0 else {}
            jobs = [{"wall_s": float(m[1]), "setup_s": float(m[2]), "events": int(m[3])}
                    for m in JOB_LINE.finditer(p.stderr)]
            runs.append({"workload": w, "seed": seed, "exit": p.returncode, "elapsed_s": time.time() - t0,
                         "jobs": jobs,
                         "correct": res.get("correct"), "attempted": res.get("attempted"),
                         "failed": res.get("failed"),
                         "metrics": {k: v["value"] for k, v in res.get("metrics", {}).items()}})
            print(f"{w:20s} seed {seed:3d} exit {p.returncode} {time.time() - t0:6.1f}s "
                  + " ".join(f"{k}={v:.6g}" for k, v in runs[-1]["metrics"].items()), file=sys.stderr)
    summary = {}
    for w in workloads:
        mine = [r for r in runs if r["workload"] == w and r["exit"] == 0]
        summary[w] = {m["name"]: summarize([r["metrics"][m["name"]] for r in mine])
                      for m in bench["end_to_end"] if len(mine) >= 2}
    return {"seconds": args.seconds, "seeds": args.seeds, "runs": runs, "summary": summary}


def print_summary(doc, bench, out=sys.stdout):
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    print("| workload | metric | median | q1 | q3 | spread | bound/3 |", file=out)
    print("|---|---|---|---|---|---|---|", file=out)
    for w, ms in doc["summary"].items():
        for name, s in ms.items():
            flag = "" if s["spread"] <= bounds[name] / 3 else " (wide)"
            print(f"| {w} | {name} | {s['median']:.6g} | {s['q1']:.6g} | {s['q3']:.6g} | "
                  f"{s['spread']:.3f}{flag} | {bounds[name] / 3:.3f} |", file=out)


def print_drift(doc, out=sys.stdout):
    """Per workload: every timed job of a run did the same engine work
    (one event count per run), yet job wall times inside one run spread
    as widely as run medians do across runs."""
    print("| workload | runs | timed jobs | distinct event counts within one run | widest max/min job wall within one run |", file=out)
    print("|---|---|---|---|---|", file=out)
    for w in doc["summary"]:
        runs = [r for r in doc["runs"] if r["workload"] == w and r["exit"] == 0]
        distinct = max(len({j["events"] for j in r["jobs"]}) for r in runs)
        widest = max(max(j["wall_s"] for j in r["jobs"]) / min(j["wall_s"] for j in r["jobs"]) for r in runs)
        print(f"| {w} | {len(runs)} | {sum(len(r['jobs']) for r in runs)} | {distinct} | "
              f"{widest:.2f}x |", file=out)


def compare(a, b, bench, out=sys.stdout):
    better = {m["name"]: m["better"] for m in bench["end_to_end"]}
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    print("| workload | metric | median A | median B | B worse by | bound |", file=out)
    print("|---|---|---|---|---|---|", file=out)
    for w, ms in a["summary"].items():
        for name, s in ms.items():
            ma, mb = s["median"], b["summary"][w][name]["median"]
            worse = (mb - ma) / ma if better[name] == "lower" else (ma - mb) / ma
            flag = "" if worse <= bounds[name] else " (out)"
            print(f"| {w} | {name} | {ma:.6g} | {mb:.6g} | {worse:.3f}{flag} | {bounds[name]:.2f} |", file=out)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--seeds", type=seeds_arg, default=seeds_arg("1-10"))
    ap.add_argument("--workloads", default="")
    ap.add_argument("--seconds", type=int, default=None)
    ap.add_argument("--out", default="")
    ap.add_argument("--compare", nargs=2, default=None)
    args = ap.parse_args()
    bench = load_bench()
    if args.compare:
        docs = [json.load(open(p)) for p in args.compare]
        for label, doc in zip("AB", docs):
            print(f"\nSet {label}: seeds {doc['seeds'][0]}-{doc['seeds'][-1]}, {doc['seconds']} s runs\n")
            print_summary(doc, bench)
            print()
            print_drift(doc)
        print("\nSet B against set A\n")
        compare(docs[0], docs[1], bench)
        return
    if args.seconds is None:
        args.seconds = bench["run_seconds"]
    doc = run_set(args, bench)
    if args.out:
        os.makedirs(os.path.dirname(args.out) or ".", exist_ok=True)
        with open(args.out, "w") as f:
            json.dump(doc, f, indent=1)
    print_summary(doc, bench)


if __name__ == "__main__":
    main()
