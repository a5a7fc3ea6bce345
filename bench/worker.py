"""One workload process: run the jobs back to back and time them.

Started by run.py as a fresh, single-threaded Python process with the BLAS
thread counts pinned to 1 in its environment, so they hold before numpy is
imported.  Jobs go through `walksparse.cli.main` one at a time (closed loop,
one client, one job in flight).  The timed passes run without tracing; with
--trace 1 each untraced pass is followed by a traced pass of the same jobs.
Passes repeat while another fits in --seconds (at least one).

Writes a JSON record (timings, exit codes, output hashes, environment,
per-layer metrics) to --record.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import sys
import time
import traceback

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def sha256_file(path):
    if not os.path.exists(path):
        return None
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def environment():
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": {v: os.environ.get(v) for v in THREAD_VARS},
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
    }


def run_pass(jobs, out_dir, main, tracer=None):
    """Run every job once; return per-job results and the pass wall time."""
    results = []
    first = last = None
    for job in jobs:
        out = os.path.join(out_dir, f"{job.name}.out.txt")
        report = os.path.join(out_dir, f"{job.name}.report.json")
        for path in (out, report):
            if os.path.exists(path):
                os.remove(path)
        argv = job.argv(out, report)
        error = None
        start = time.perf_counter()
        try:
            if tracer is None:
                rc = main(argv)
            else:
                tracer.job = job.name
                with tracer.span("job"):
                    rc = main(argv)
        except SystemExit as exc:
            rc = exc.code if isinstance(exc.code, int) else 2
        except Exception:
            rc, error = None, traceback.format_exc()
            print(error, file=sys.stderr)
        end = time.perf_counter()
        first = start if first is None else first
        last = end
        results.append({
            "job": job.name, "rc": rc, "seconds": end - start, "error": error,
            "out": out, "report": report,
            "out_sha256": sha256_file(out), "report_sha256": sha256_file(report),
        })
    return results, last - first


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--src", required=True)
    ap.add_argument("--work", required=True)
    ap.add_argument("--record", required=True)
    args = ap.parse_args(argv)

    unpinned = [v for v in THREAD_VARS if os.environ.get(v) != "1"]
    if unpinned:
        print(f"error: {', '.join(unpinned)} must be 1", file=sys.stderr)
        return 2
    sys.path.insert(0, args.src)
    from walksparse.cli import main as cli_main

    import spans
    import workloads

    jobs = workloads.make_jobs(args.workload, args.seed, os.path.join(args.work, "inputs"))
    out_dir = os.path.join(args.work, "out")
    os.makedirs(out_dir, exist_ok=True)

    passes = []
    traced = []
    layer = []
    began = time.perf_counter()
    while True:
        results, wall = run_pass(jobs, out_dir, cli_main)
        passes.append({"wall_s": wall, "jobs": results})
        if args.trace:
            tracer = spans.Tracer()
            with spans.installed(tracer):
                results, wall = run_pass(jobs, out_dir, cli_main, tracer)
            traced.append({"wall_s": wall, "jobs": results})
            layer.append(spans.layer_metrics(tracer.spans))
            tracer.write_jsonl(os.path.join(args.work, f"spans{len(traced)}.jsonl"))
        elapsed = time.perf_counter() - began
        if elapsed * (len(passes) + 1) / len(passes) > args.seconds:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "environment": environment(),
        "jobs": [
            {"name": j.name, "command": j.command, "graph": j.graph, "vectors": j.vectors,
             "options": j.options, "verify_kind": j.verify_kind, "input_edges": j.input_edges}
            for j in jobs
        ],
        "passes": passes,
        "traced_passes": traced,
        "layer_metrics": layer,
        "peak_rss_mb": peak_rss_mb,
    }
    with open(args.record, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
