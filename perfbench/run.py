"""qtel benchmark: one seeded workload per process, run as a closed loop.

Run from the repository root:

    python3 perfbench/run.py --workload paper-sweeps --seed 1 --seconds 30 --trace 0

A single caller issues work items back to back (qtel is a batch library
with no arrival process, so there is no open loop).  The loop runs whole
cycles of the workload's mix and stops before the next cycle would end
past ``--seconds``; at least one cycle always runs.  Every output is
checked after the timed interval.  The last line of standard output is
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``,
the end-to-end metrics of BENCHMARK.json with ``--trace 0`` or its
per-layer metrics with ``--trace 1``.  The lines before it print every
metric with its unit, the error rate, and the environment record.

``--trace 1`` runs the loop for half of ``--seconds``, then runs the same
items again traced, and reports the tracing overhead as the difference
of the two paced wall times.
Spans go to ``perfbench/out/spans-<workload>.jsonl``, the full result to
``perfbench/out/result-<workload>.json``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

# One BLAS thread in every workload.  At N = 5 the eigendecomposition
# took 37-178 ms with two OpenBLAS threads and 27-31 ms with one; one
# also leaves the second core to the two Monte-Carlo workers.  Set
# before numpy loads, and inherited by the set-up probes.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = BENCH_DIR / "out"
# Fresh processes timed per run for setup_s; the median is reported.
SETUP_PROBES = 5


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="shrink every item (smoke tests)")
    parser.add_argument("--probe-setup", action="store_true",
                        help="time import plus warm-up in this process and print it")
    return parser.parse_args(argv)


def probe_setup(workload):
    """Print the time of importing qtel plus the warm-up call, and the pace."""
    start = perf_counter()
    import numpy as np
    import workloads

    wl = workloads.WORKLOADS[workload]
    out_dir = OUT / f"probe-{os.getpid()}"
    try:
        warm_up(wl, np.random.default_rng(0), out_dir)
        setup_s = perf_counter() - start
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
    import pace

    print(setup_s, pace.kernel_seconds())


def warm_up(wl, rng, out_dir):
    """Run the first item of a tiny cycle, so lazy set-up happens untimed."""
    wl.run(wl.cycle(rng, tiny=True)[0], 0, out_dir)


def measure_setup(workload):
    """Median set-up time over fresh processes: (paced, raw)."""
    import pace

    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
           "--probe-setup"]
    paced, raw = [], []
    for _ in range(SETUP_PROBES):
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=120, check=True)
        setup_s, kernel_s = map(float, done.stdout.split()[-2:])
        paced.append(setup_s * pace.KERNELS["mixed"][1] / kernel_s)
        raw.append(setup_s)
    return statistics.median(paced), statistics.median(raw)


def closed_loop(wl, cycles, seconds, out_dir, pace=None, tracer=None):
    """Run whole cycles back to back; stop before one would end past `seconds`.

    Returns ``(rows, busy_s)`` with one ``(item_id, item, mid_time,
    wall_s, output)`` row per item; ``output`` is the exception if it
    raised.  ``busy_s`` sums the items' wall times.  The pace, if
    given, is sampled between items and once at the end.
    """
    rows, busy, item_id = [], 0.0, 0
    for cycle in cycles:
        took = 0.0
        for item in cycle:
            if pace is not None and pace.due():
                pace.sample()
            if tracer is not None:
                tracer.item = item_id
            start = perf_counter()
            try:
                out = wl.run(item, item_id, out_dir)
            except Exception as exc:  # a failed item is counted, the run goes on
                out = exc
            wall = perf_counter() - start
            rows.append((item_id, item, start + wall / 2, wall, out))
            took += wall
            item_id += 1
        busy += took
        if busy + took > seconds:
            break
    if pace is not None:
        pace.sample()
    return rows, busy


def endless_cycles(wl, rng, tiny):
    while True:
        yield wl.cycle(rng, tiny)


def check_outputs(wl, rows, out_dir):
    """Item ids that raised or failed their output check, with reasons."""
    failures = {}
    for item_id, item, _, _, out in rows:
        if isinstance(out, Exception):
            failures[item_id] = "".join(traceback.format_exception_only(out)).strip()
            continue
        try:
            problems = wl.check(item, item_id, out, out_dir)
        except Exception as exc:  # the check itself failing fails the item
            problems = ["check raised: " + "".join(traceback.format_exception_only(exc)).strip()]
        if problems:
            failures[item_id] = "; ".join(problems)
    return failures


def source_digest():
    digest = hashlib.sha256()
    for path in sorted((SRC / "qtel").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def git_commit():
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref_file = ROOT / ".git" / ref[5:]
    return ref_file.read_text().strip() if ref_file.is_file() else None


def cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def blas_version(module):
    try:
        return module.show_config(mode="dicts")["Build Dependencies"]["blas"]["version"]
    except (KeyError, TypeError):
        return None


def environment(args, wl):
    import numpy as np
    import scipy

    return {
        "cpu_model": cpu_model(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "openblas_numpy": blas_version(np),
        "openblas_scipy": blas_version(scipy),
        "blas_threads": BLAS_THREADS,
        "mc_workers": getattr(wl, "MC_WORKERS", None),
        "git_commit": git_commit(),
        "source_sha256": source_digest(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "tiny": args.tiny,
        "trace": args.trace,
    }


def latency_metrics(rows, failures, tail_percentile, scale=1.0):
    """Throughput and latency figures, item times multiplied by `scale`."""
    import numpy as np

    walls = np.array([row[3] for row in rows]) * scale
    busy = float(walls.sum())
    # A failed item misses every latency figure: it counts as taking the
    # whole timed interval.
    failed = np.array([row[0] in failures for row in rows])
    ms = np.where(failed, busy, walls) * 1e3
    tail = float(np.percentile(ms, tail_percentile))
    return {
        "items_per_s": len(rows) / busy,
        "item_ms_p50": float(np.median(ms)),
        "item_ms_tail": tail,
    }, int(np.sum(ms > tail))


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "qtel" / "__init__.py").is_file():
        print(f"qtel sources not found under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.probe_setup:
        probe_setup(args.workload)
        return 0

    setup_s, raw_setup_s = (None, None) if args.trace else measure_setup(args.workload)

    import numpy as np
    import pace
    import workloads

    wl = workloads.WORKLOADS[args.workload]
    out_dir = OUT / args.workload
    shutil.rmtree(out_dir, ignore_errors=True)
    try:
        warm_up(wl, np.random.default_rng(0), out_dir / "warm-up")
        seconds = args.seconds / 2 if args.trace else args.seconds
        paced = pace.Pace(wl.pace_kernel)
        cycles = endless_cycles(wl, np.random.default_rng(args.seed), args.tiny)
        rows, busy = closed_loop(wl, cycles, seconds, out_dir / "plain", paced)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        check_start = perf_counter()
        failures = check_outputs(wl, rows, out_dir / "plain")
        check_s = perf_counter() - check_start

        scale = paced.factor([row[2] for row in rows])
        values, beyond = latency_metrics(rows, failures, wl.tail_percentile, scale)
        raw, _ = latency_metrics(rows, failures, wl.tail_percentile)
        raw.update(setup_s=raw_setup_s)
        values.update(setup_s=setup_s, peak_rss_mb=peak_rss_mb,
                      error_rate=len(failures) / len(rows))
        wanted = spec["end_to_end"]
        if args.trace:
            import tracer

            traced, traced_pace = tracer.Tracer(), pace.Pace(wl.pace_kernel)
            traced.install()
            try:
                # the same items as one cycle, so item ids match the untraced pass
                traced_rows, _ = closed_loop(wl, [[row[1] for row in rows]], math.inf,
                                             out_dir / "traced", traced_pace, traced)
            finally:
                traced.restore()
            values.update(traced.layer_metrics())
            # both passes paced, so host drift between them does not count
            plain_s = float(np.sum([row[3] for row in rows] * scale))
            traced_s = float(np.sum([row[3] for row in traced_rows]
                                    * traced_pace.factor([row[2] for row in traced_rows])))
            values["trace.overhead_s"] = traced_s - plain_s
            values["trace.overhead_ratio"] = (traced_s - plain_s) / plain_s
            OUT.mkdir(parents=True, exist_ok=True)
            traced.write(OUT / f"spans-{args.workload}.jsonl")
            wanted = spec["per_layer"]
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)

    env = environment(args, wl)
    env.update(items=len(rows), tail_percentile=wl.tail_percentile, tail_items_beyond=beyond,
               timed_s=busy, check_s=check_s, raw=raw,
               pace_kernel=paced.kind, pace_samples=len(paced.times),
               pace_median_s=statistics.median(paced.seconds))
    metrics = {m["name"]: {"value": values.get(m["name"], 0.0), "unit": m["unit"]}
               for m in wanted}
    for name, metric in metrics.items():
        print(f"{name:48s} {metric['value']:.6g} {metric['unit']}")
    print(f"{'error_rate':48s} {values['error_rate']:.6g} 1"
          f"  ({len(failures)} failed of {len(rows)} attempted)")
    for item_id, reason in sorted(failures.items()):
        print(f"item {item_id} failed: {reason}", file=sys.stderr)
    print("env " + json.dumps(env, sort_keys=True))
    result = {
        "correct": not failures,
        "attempted": len(rows),
        "failed": len(failures),
        "metrics": metrics,
    }
    OUT.mkdir(parents=True, exist_ok=True)
    (OUT / f"result-{args.workload}.json").write_text(
        json.dumps({**result, "env": env, "all_values": values}, indent=1, sort_keys=True) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
