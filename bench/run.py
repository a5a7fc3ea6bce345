#!/usr/bin/env python3
"""walksparse benchmark: one workload, one run, one JSON result line.

    python3 bench/run.py --workload spectral --seed 1 --seconds 20 --trace 0

Run from anywhere inside a checkout that has `src/walksparse`; nothing needs
to be built or installed.  Steps:

  1. set-up: time `import walksparse.cli` in fresh processes (median);
  2. start the workload process (worker.py) with one BLAS thread; it writes
     the seeded inputs and runs the jobs through `walksparse.cli.main`;
  3. re-certify every output from scratch with `walksparse verify` in a
     fresh process and compare it with the pipeline's own report;
  4. check that output and report hashes repeat across passes, and across
     runs of the same code and seed (ledger in .bench_work/hashes.json);
  5. print the end-to-end metrics (--trace 0) or the per-layer metrics
     (--trace 1) as the last line of standard output.

See README.md for the workloads, the metrics and the baseline.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import statistics
import subprocess
import sys
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_work")
sys.path.insert(0, BENCH)

from workloads import WORKLOADS  # noqa: E402

SETUP_PROBES = 7
WORKER_TIMEOUT_S = 150
CHILD_TIMEOUT_S = 30
PROBE = "import time, walksparse.cli; print(repr(time.monotonic()))"

END_TO_END_UNITS = {
    "wall_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "eps_ratio_max": "ratio",
    "certified_support_frac": "frac",
}
PER_LAYER_UNITS = {
    "matrix_walk.iterations": "count",
    "matrix_walk.walk_s": "s",
    "matrix_walk.self_s": "s",
    "matrix_walk.null_solve_s": "s",
    "matrix_walk.eigsolve_s": "s",
    "matrix_walk.block_spectra_s": "s",
    "matrix_walk.step_cap_s": "s",
    "matrix_walk.ms_per_iter": "ms",
    "matrix_walk.frozen_per_iter": "count/iter",
    "matrix_walk.factor_gflop": "gflop",
    "potential.normalizer_calls": "count",
    "potential.normalizer_s": "s",
    "vector_walk.prepare_s": "s",
    "sparsify.rounds": "count",
    "sparsify.round_s_p50": "s",
    "sparsify.self_s": "s",
    "sparsify.family_s": "s",
    "sketches.rounds": "count",
    "sketches.round_s_p50": "s",
    "sketches.self_s": "s",
    "graph.decompose_s": "s",
    "graph.pieces": "count",
    "linalg.matrix_function_s": "s",
    "verify.check_s": "s",
    "cli.io_s": "s",
    "cli.target_miss_frac": "frac",
    "cli.error_frac": "frac",
    "trace.overhead_frac": "frac",
    "trace.unattributed_frac": "frac",
}


def child_env():
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env["PYTHONPATH"] = SRC
    return env


def measure_setup(env):
    """Seconds from process start until walksparse.cli is imported (median)."""
    samples = []
    for _ in range(SETUP_PROBES):
        start = time.monotonic()
        proc = subprocess.run([sys.executable, "-c", PROBE], env=env, cwd=ROOT,
                              capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
                              check=True)
        samples.append(float(proc.stdout.strip().splitlines()[-1]) - start)
    return statistics.median(samples)


def code_digest():
    h = hashlib.sha256()
    for directory in (os.path.join(SRC, "walksparse"), BENCH):
        for name in sorted(os.listdir(directory)):
            if name.endswith(".py"):
                with open(os.path.join(directory, name), "rb") as fh:
                    h.update(name.encode() + b"\0" + fh.read())
    return h.hexdigest()


def hashes_of(pass_):
    return {j["job"]: [j["out_sha256"], j["report_sha256"]] for j in pass_["jobs"]}


def check_ledger(path, key, hashes):
    """Compare against earlier runs of the same code and seed; record new keys."""
    ledger = {}
    if os.path.exists(path):
        with open(path, encoding="utf-8") as fh:
            ledger = json.load(fh)
    if key in ledger:
        return ledger[key] == hashes
    ledger[key] = hashes
    tmp = path + ".tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        json.dump(ledger, fh, indent=1, sort_keys=True)
    os.replace(tmp, path)
    return True


def recertify(job, result, env, work):
    """Re-check one output with `walksparse verify`; return the problem or None."""
    with open(result["report"], encoding="utf-8") as fh:
        own = json.load(fh)
    if not math.isfinite(own["measured_eps"]):
        return f"non-finite measured_eps {own['measured_eps']}"
    if (result["rc"] == 0) != bool(own["pass"]):
        return f"exit code {result['rc']} disagrees with pass={own['pass']}"
    check = os.path.join(work, f"{job['name']}.verify.json")
    cmd = [sys.executable, "-m", "walksparse.cli", "verify", job["graph"], result["out"],
           "--kind", job["verify_kind"], "--epsilon", repr(own["target"]), "--report", check]
    if job["vectors"]:
        cmd += ["--vectors", job["vectors"]]
    proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        return f"verify exited {proc.returncode}: {proc.stderr.strip()}"
    with open(check, encoding="utf-8") as fh:
        fresh = json.load(fh)
    for key in ("measured_eps", "support_size", "pass"):
        if fresh[key] != own[key]:
            return f"verify {key}={fresh[key]!r}, pipeline {key}={own[key]!r}"
    return None


def summarize(record, trace, setup_s, env, work, ledger_path, ledger_key):
    """Re-certify the outputs of a worker record and assemble the result.

    Returns (result line, information line, list of failed checks).
    """
    jobs = {j["name"]: j for j in record["jobs"]}
    all_passes = record["passes"] + record["traced_passes"]
    runs = [r for p in all_passes for r in p["jobs"]]
    failed = sum(1 for r in runs if r["rc"] not in (0, 1))
    problems = [f"{r['job']}: exit {r['rc']}" for r in runs if r["rc"] not in (0, 1)]

    first = record["passes"][0]
    reports = {}
    for r in first["jobs"]:
        if r["rc"] not in (0, 1):
            continue
        problem = recertify(jobs[r["job"]], r, env, work)
        if problem:
            failed += 1
            problems.append(f"{r['job']}: {problem}")
        else:
            with open(r["report"], encoding="utf-8") as fh:
                reports[r["job"]] = json.load(fh)

    hashes = hashes_of(first)
    stable = all(hashes_of(p) == hashes for p in all_passes)
    if not stable:
        problems.append("output hashes differ between passes")
    if not check_ledger(ledger_path, ledger_key, hashes):
        stable = False
        problems.append("output hashes differ from an earlier run of this code and seed")

    input_edges = sum(j["input_edges"] for j in jobs.values())
    certified = sum(
        reports[name]["support_size"] if name in reports and reports[name]["pass"]
        else j["input_edges"]
        for name, j in jobs.items()
    )
    outcomes = [r["rc"] for r in first["jobs"]]
    if trace == 0:
        values = {
            "wall_s": statistics.median(p["wall_s"] for p in record["passes"]),
            "setup_s": setup_s,
            "peak_rss_mb": record["peak_rss_mb"],
            "eps_ratio_max": max(
                (rep["measured_eps"] / rep["target"] for rep in reports.values()),
                default=0.0,
            ),
            "certified_support_frac": certified / input_edges,
        }
        units = END_TO_END_UNITS
    else:
        layer = record["layer_metrics"]
        values = {name: statistics.median(m[name] for m in layer) for name in layer[0]}
        untraced = statistics.median(p["wall_s"] for p in record["passes"])
        traced = statistics.median(p["wall_s"] for p in record["traced_passes"])
        values["trace.overhead_frac"] = traced / untraced - 1.0
        values["cli.target_miss_frac"] = outcomes.count(1) / len(outcomes)
        values["cli.error_frac"] = sum(rc not in (0, 1) for rc in outcomes) / len(outcomes)
        units = PER_LAYER_UNITS

    info = {
        "environment": record["environment"],
        "passes": len(record["passes"]),
        "traced_passes": len(record["traced_passes"]),
        "jobs": {
            r["job"]: {
                "exit": r["rc"], "seconds": r["seconds"],
                "measured_eps": reports.get(r["job"], {}).get("measured_eps"),
                "target": reports.get(r["job"], {}).get("target"),
                "support": reports.get(r["job"], {}).get("support_size"),
                "input_edges": jobs[r["job"]]["input_edges"],
                "out_sha256": r["out_sha256"], "report_sha256": r["report_sha256"],
            }
            for r in first["jobs"]
        },
    }
    result = {
        "correct": failed == 0 and stable,
        "attempted": len(runs),
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    return result, info, problems


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "walksparse", "cli.py")):
        print(f"error: no walksparse sources under {SRC}", file=sys.stderr)
        return 2
    if args.seconds < 1:
        print("error: --seconds must be at least 1", file=sys.stderr)
        return 2

    env = child_env()
    work = os.path.join(WORK, f"{args.workload}-trace{args.trace}")
    os.makedirs(work, exist_ok=True)
    setup_s = measure_setup(env) if args.trace == 0 else None

    record_path = os.path.join(work, "record.json")
    if os.path.exists(record_path):
        os.remove(record_path)
    cmd = [sys.executable, os.path.join(BENCH, "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--src", SRC, "--work", work, "--record", record_path]
    try:
        # the result line must stay last on stdout, so the worker writes to stderr
        proc = subprocess.run(cmd, env=env, cwd=ROOT, stdout=sys.stderr,
                              timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"error: workload process exceeded {WORKER_TIMEOUT_S} s", file=sys.stderr)
        return 1
    if proc.returncode != 0 or not os.path.exists(record_path):
        print(f"error: workload process exited {proc.returncode}", file=sys.stderr)
        return 1
    with open(record_path, encoding="utf-8") as fh:
        record = json.load(fh)

    ledger_key = f"{args.workload}:seed{args.seed}:{code_digest()}"
    result, info, problems = summarize(
        record, args.trace, setup_s, env, work, os.path.join(WORK, "hashes.json"), ledger_key
    )
    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)
    print(json.dumps(info))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
