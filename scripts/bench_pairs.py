#!/usr/bin/env python3
"""Alternating before/after runs of the benchmark, written as one JSON file.

Usage:
    python3 scripts/bench_pairs.py --out BENCH_6.json \
        --pairs spectral=10 sketch=5 resist=5 [--base HEAD]

The base revision's committed files are exported with `git archive` into a
temporary directory.  The change is a snapshot of the working tree this
script sits in (tracked files plus untracked files that are not ignored),
copied into a second temporary directory, so both sides start clean, with
no bytecode caches and no `.bench_work` ledger; the output records how the
change was taken.  Each pair runs `bench/run.py --trace 0` once on each side
with the same seed and BENCHMARK.json's `run_seconds`, and the side that
goes first alternates from pair to pair.  Pair i uses seed
SEEDS[i % len(SEEDS)].  After its pairs, each workload gets one traced run
(`--trace 1`, seed SEEDS[0]) on each side, whose per-layer metrics show
where the time went.

The output holds every run's end-to-end metrics, `correct`, `failed` and the
per-job exit code, measured eps, support and output hashes, and per workload
and BENCHMARK.json end-to-end metric the median and quartiles of each side,
the change's median over the base's, and the share of pairs the change won
in that metric's `better` direction (ties count for neither).
It also records whether every pair produced the same output hashes, and
each traced run's per-layer metrics under `traced`.

After writing the file it prints, per workload and end-to-end metric, the
change/base median ratio and the change's wins, then the walk's per-layer
metrics of both traced runs, and exits 1 if any run was not `correct` or
had `failed` > 0.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import tarfile
import tempfile
import time

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SEEDS = (1, 2, 3, 4, 5)
# per-layer metrics of the traced runs that the summary prints
TRACED = ("matrix_walk.iterations", "matrix_walk.walk_s", "matrix_walk.self_s",
          "matrix_walk.null_solve_s", "matrix_walk.ms_per_iter")


def export(rev, dest):
    """Write the committed files of `rev` under dest; returns the full hash."""
    sha = subprocess.run(["git", "rev-parse", rev], cwd=ROOT, check=True,
                         capture_output=True, text=True).stdout.strip()
    archive = os.path.join(dest, "base.tar")
    subprocess.run(["git", "archive", "--format=tar", "-o", archive, sha], cwd=ROOT, check=True)
    tree = os.path.join(dest, "base")
    with tarfile.open(archive) as tar:
        tar.extractall(tree, filter="data")
    return sha, tree


def git(*args):
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True,
                          text=True).stdout


def snapshot(dest):
    """Copy the working tree's tracked and untracked, non-ignored files under
    dest; returns how the change was taken and the tree."""
    tree = os.path.join(dest, "change")
    files = [f for f in git("ls-files", "-z", "--cached", "--others",
                            "--exclude-standard").split("\0") if f]
    copied = 0
    for rel in files:
        src = os.path.join(ROOT, rel)
        if not os.path.isfile(src):
            # a tracked file deleted in the working tree
            continue
        os.makedirs(os.path.dirname(os.path.join(tree, rel)), exist_ok=True)
        shutil.copy2(src, os.path.join(tree, rel))
        copied += 1
    taken = {
        "source": "working tree snapshot: tracked and untracked, non-ignored files",
        "head": git("rev-parse", "HEAD").strip(),
        "files": copied,
        "status": git("status", "--porcelain").splitlines(),
    }
    return taken, tree


def run_bench(tree, workload, seed, seconds, trace=0):
    """One `bench/run.py` run; returns its result and job records."""
    cmd = [sys.executable, os.path.join(tree, "bench", "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"{workload} seed {seed} in {tree}: exit {proc.returncode}")
    info, result = json.loads(lines[-2]), json.loads(lines[-1])
    return {
        "correct": result["correct"],
        "failed": result["failed"],
        "metrics": {k: v["value"] for k, v in result["metrics"].items()},
        "jobs": info["jobs"],
        "environment": info["environment"],
    }


def hashes(run):
    return {name: (j["out_sha256"], j["report_sha256"]) for name, j in run["jobs"].items()}


def summarize(pairs, metrics):
    """Per metric: quartiles of each side and the change's wins over the base."""
    out = {}
    for metric in metrics:
        name = metric["name"]
        base = np.array([p["base"]["metrics"][name] for p in pairs])
        change = np.array([p["change"]["metrics"][name] for p in pairs])
        # sign 1 when lower is better, so a win is sign * change < sign * base
        sign = 1.0 if metric["better"] == "lower" else -1.0
        won, lost = sign * change < sign * base, sign * change > sign * base
        sides = {}
        for side, vals in (("base", base), ("change", change)):
            q1, med, q3 = np.percentile(vals, [25, 50, 75])
            sides[side] = {"median": float(med), "q1": float(q1), "q3": float(q3)}
        out[name] = {
            **sides,
            "change_over_base": sides["change"]["median"] / sides["base"]["median"]
            if sides["base"]["median"] else None,
            "wins": int(np.sum(won)),
            "losses": int(np.sum(lost)),
            "win_frac": float(np.mean(won)),
        }
    return out


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", required=True)
    ap.add_argument("--pairs", nargs="+", required=True, metavar="WORKLOAD=COUNT")
    ap.add_argument("--base", default="HEAD")
    args = ap.parse_args(argv)
    plan = [(w, int(c)) for w, c in (p.split("=") for p in args.pairs)]
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    seconds = bench["run_seconds"]

    doc = {"base": None, "change": None, "seconds": seconds,
           "command": "bench/run.py --trace 0", "environment": None, "workloads": {}}
    with tempfile.TemporaryDirectory() as tmp:
        doc["base"], base_tree = export(args.base, tmp)
        doc["change"], change_tree = snapshot(tmp)
        for workload, count in plan:
            pairs = []
            for i in range(count):
                seed = SEEDS[i % len(SEEDS)]
                order = ("base", "change") if i % 2 == 0 else ("change", "base")
                pair = {"pair": i, "seed": seed, "first": order[0]}
                for side in order:
                    run = run_bench(base_tree if side == "base" else change_tree, workload,
                                    seed, seconds)
                    env = run.pop("environment")
                    doc["environment"] = doc["environment"] or env
                    pair[side] = run
                pair["same_outputs"] = hashes(pair["base"]) == hashes(pair["change"])
                pairs.append(pair)
                print(f"{time.strftime('%H:%M:%S')} {workload} pair {i} seed {seed}: wall_s "
                      f"base {pair['base']['metrics']['wall_s']:.2f} "
                      f"change {pair['change']['metrics']['wall_s']:.2f}", flush=True)
            traced = {}
            for side, tree in (("base", base_tree), ("change", change_tree)):
                run = run_bench(tree, workload, SEEDS[0], seconds, trace=1)
                del run["environment"], run["jobs"]
                traced[side] = run
            doc["workloads"][workload] = {
                "pairs": pairs,
                "traced": traced,
                "all_correct": all(p[s]["correct"] for p in pairs for s in ("base", "change")),
                "same_outputs": all(p["same_outputs"] for p in pairs),
                "summary": summarize(pairs, bench["end_to_end"]),
            }
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")
    return report(doc)


def report(doc):
    """Print each workload's median ratio and wins per end-to-end metric;
    returns 1 if any run was not correct or had failed operations, else 0."""
    clean = True
    for workload, entry in doc["workloads"].items():
        runs = [p[side] for p in entry["pairs"] for side in ("base", "change")]
        traced = entry.get("traced", {})
        runs += traced.values()
        bad = sum(not r["correct"] or r["failed"] > 0 for r in runs)
        clean = clean and bad == 0
        print(f"{workload}: {len(entry['pairs'])} pairs, same_outputs "
              f"{entry['same_outputs']}, {bad} runs not correct or with failures")
        for name, summ in entry["summary"].items():
            ratio = summ["change_over_base"]
            ratio = "n/a" if ratio is None else f"{ratio:.4f}"
            print(f"  {name}: base {summ['base']['median']:.4g} change "
                  f"{summ['change']['median']:.4g} ratio {ratio} wins {summ['wins']}/"
                  f"{len(entry['pairs'])} losses {summ['losses']}")
        if traced:
            base, change = (traced[side]["metrics"] for side in ("base", "change"))
            print(f"  traced seed {SEEDS[0]}: " + ", ".join(
                f"{name} {base[name]:.4g} -> {change[name]:.4g}" for name in TRACED))
    return 0 if clean else 1


if __name__ == "__main__":
    sys.exit(main())
