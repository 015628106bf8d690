"""Run-to-run spread of the end-to-end metrics over several seeds.

Run from the repository root:

    python3 perfbench/steadiness.py --seeds 101-110 [--workload NAME ...]

Runs the benchmark command of BENCHMARK.json once per seed and workload
(untraced), then prints for every end-to-end metric the median and the
distance between the first and third quartiles as a share of the median,
next to the metric's bound, and the same spread of the raw (unpaced)
timing.  A run that fails or reports incorrect
outputs is listed.  Raw results are appended to
``perfbench/out/steadiness.jsonl``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent


def seed_range(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def spread(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / med


def main(argv=None):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=seed_range, required=True)
    parser.add_argument("--workload", action="append",
                        default=None, choices=[w["name"] for w in spec["workloads"]])
    args = parser.parse_args(argv)
    out = ROOT / "perfbench" / "out"
    out.mkdir(parents=True, exist_ok=True)
    for workload in args.workload or [w["name"] for w in spec["workloads"]]:
        values = {m["name"]: [] for m in spec["end_to_end"]}
        raw = {m["name"]: [] for m in spec["end_to_end"]}
        walls = []
        for seed in args.seeds:
            cmd = spec["command"] + ["--workload", workload, "--seed", str(seed),
                                     "--seconds", str(spec["run_seconds"]), "--trace", "0"]
            start = perf_counter()
            done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=180)
            walls.append(perf_counter() - start)
            if done.returncode != 0:
                print(f"{workload} seed {seed}: exit {done.returncode}\n{done.stderr}")
                continue
            result = json.loads(done.stdout.strip().splitlines()[-1])
            if not result["correct"]:
                print(f"{workload} seed {seed}: {result['failed']} of "
                      f"{result['attempted']} items failed\n{done.stderr}")
            env = json.loads(next(line for line in done.stdout.splitlines()
                                  if line.startswith("env "))[4:])
            for name, metric in result["metrics"].items():
                values[name].append(metric["value"])
                raw[name].append(env["raw"].get(name, metric["value"]))
            with open(out / "steadiness.jsonl", "a", encoding="utf-8") as handle:
                handle.write(json.dumps({"workload": workload, "seed": seed,
                                         "wall_s": walls[-1], "raw": env["raw"],
                                         **result}) + "\n")
        print(f"{workload}: {len(walls)} runs, wall {min(walls):.1f}-{max(walls):.1f} s")
        for metric in spec["end_to_end"]:
            name = metric["name"]
            if len(values[name]) < 2:
                continue
            print(f"  {name:14s} median {statistics.median(values[name]):12.6g} "
                  f"{metric['unit']:5s} spread {spread(values[name]):7.2%}  "
                  f"bound {metric['bound']:.0%}  raw spread {spread(raw[name]):7.2%}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
