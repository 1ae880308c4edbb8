"""Run the benchmark once per seed and report each metric's median, quartiles
and spread (interquartile distance over the median).

    python3 starbench/spread.py --workload symbolic-mix --seeds 1-10

Reads ``run_seconds`` and the metric bounds from ``BENCHMARK.json``, runs the
benchmark's command untraced, sequentially (one process at a time), and writes every
run's result line plus the summary to ``starbench/results/spread-*.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def parse_seeds(text):
    """The seeds of an inclusive range "lo-hi"."""
    lo, hi = map(int, text.split("-"))
    return list(range(lo, hi + 1))


def summarize(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else None,
            "min": min(values), "max": max(values)}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10")
    args = parser.parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = bench["run_seconds"]
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    runs = []
    for seed in parse_seeds(args.seeds):
        cmd = bench["command"] + ["--workload", args.workload, "--seed", str(seed),
                                  "--seconds", str(seconds), "--trace", "0"]
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
        if done.returncode != 0:
            sys.exit(f"seed {seed}: exit {done.returncode}\n{done.stderr}")
        line = json.loads(done.stdout.strip().splitlines()[-1])
        runs.append(dict(line, seed=seed))
        vals = " ".join(f"{k}={v['value']:.4g}" for k, v in line["metrics"].items())
        print(f"seed {seed}: correct={line['correct']} attempted={line['attempted']} "
              f"failed={line['failed']} {vals}", flush=True)
    summary = {}
    for name in runs[0]["metrics"]:
        summary[name] = summarize([r["metrics"][name]["value"] for r in runs])
        summary[name]["unit"] = runs[0]["metrics"][name]["unit"]
    shares = {r["failed"] / r["attempted"] for r in runs}
    print(f"failed share: {sorted(shares)}  all correct: {all(r['correct'] for r in runs)}")
    for name, s in summary.items():
        bound = bounds.get(name)
        spread = f"{s['spread']:.3f}" if s["spread"] is not None else "-"
        print(f"{name:40s} median {s['median']:.6g} {s['unit']:5s} q1 {s['q1']:.6g} "
              f"q3 {s['q3']:.6g} spread {spread}" + (f" (bound {bound})" if bound else ""))
    out = HERE / "results" / f"spread-{args.workload}-{args.seeds}.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps({"runs": runs, "summary": summary}, indent=1), encoding="utf-8")


if __name__ == "__main__":
    main()
