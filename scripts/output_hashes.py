#!/usr/bin/env python3
"""sha256 of the outputs of a fixed set of CLI jobs, to check that a change
leaves every output byte-identical.

Usage:
    python3 scripts/output_hashes.py --out HASHES.json [--against BASE.json]

Each job runs through `walksparse.cli.main` in this process, in a temporary
directory, on the package of the tree this script sits in (`src/`).  The
jobs are the benchmark's (`bench/workloads.make_jobs`, every workload, seeds
1 to 3) and a fixed set of seeded extra jobs for what the benchmark does not
run: `uc`, `sv` on undirected and directed input, `partial-color`,
`sparsify`, `sketch`, `resist` and `decompose` (whose piece files are hashed
too), `sketch` and `resist` on three cliques in a path, which the expander
decomposition splits, `sparsify` and `uc` on K_32, whose first rounds walk
their support in chunks, and `resist` on a dense G(32, 0.7), whose round
walks two chunks of dense resistance rows.  The output maps each job to its
exit code and the sha256 of each file it wrote.  With --against, the jobs
whose entry differs from BASE.json's are listed, and the exit code is 1 if
there are any.

To compare with another revision, export it (`git archive REV | tar -x -C
DIR`), copy this script into DIR/scripts and run it there with --out, then
run it here with --against that file.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "bench")]

from walksparse.cli import load_graph  # noqa: E402
from walksparse.cli import main as cli_main  # noqa: E402
from walksparse.linalg import one_blas_thread  # noqa: E402
from walksparse.sketches import resistance_pairs  # noqa: E402
from workloads import (  # noqa: E402
    WORKLOADS,
    complete_edges,
    edge_list_text,
    make_jobs,
    random_weighted_edges,
    unit_vectors,
)

SEEDS = (1, 2, 3)


def _complete(n):
    return [(i, j, 1.0) for i in range(n) for j in range(i + 1, n)]


def _bipartite(a, less_matching):
    """K_{a,a} on sides 0..a-1 and a..2a-1, less the matching i -- a+i if asked."""
    return [(i, a + j, 1.0) for i in range(a) for j in range(a) if not (less_matching and i == j)]


def _cliques_in_a_path(count, side, links, rng):
    """count copies of K_side in a path, each neighbouring pair joined by
    `links` distinct random edges."""
    edges = [(b * side + i, b * side + j, 1.0) for b in range(count) for i, j, _ in _complete(side)]
    for b in range(count - 1):
        pairs = set()
        while len(pairs) < links:
            pairs.add((b * side + int(rng.integers(side)), (b + 1) * side + int(rng.integers(side))))
        edges += [(u, v, 1.0) for u, v in sorted(pairs)]
    return edges


def _gnp(n, p, rng):
    """G(n, p): each pair i < j an edge with probability p."""
    return [(i, j, 1.0) for i in range(n) for j in range(i + 1, n) if rng.random() < p]


def _write(path, text):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def extra_jobs(directory):
    """(name, argv without --out/--report) of the seeded extra jobs; writes
    their inputs under directory."""
    rng = np.random.default_rng(0)

    def graph(name, n, edges, directed=False):
        path = os.path.join(directory, f"{name}.txt")
        text = edge_list_text(n, edges)
        _write(path, text.replace(f"n {n}", f"n {n} directed", 1) if directed else text)
        return path

    k12 = graph("k12", 12, complete_edges(12, rng))
    k14 = graph("k14", 14, complete_edges(14, rng))
    k20 = graph("k20", 20, complete_edges(20, rng))
    lognormal = graph("lognormal24", 24, random_weighted_edges(24, 195, rng))
    digraph = graph("digraph16", 16,
                    [(u, v, 1.0) for u in range(16) for v in range(16) if u != v], directed=True)
    vectors = os.path.join(directory, "k14.vectors.txt")
    _write(vectors, "".join(" ".join(repr(float(x)) for x in r) + "\n"
                            for r in unit_vectors(40, 14, rng)))
    dumbbell = graph("dumbbell", 16, _complete(8) + [(i + 8, j + 8, 1.0) for i, j, _ in
                                                     _complete(8)] + [(7, 8, 1.0)])
    # split-prone: at --phi-target 0.1 the expander decomposition cuts it
    # into pieces, on which many resistance rows are constant
    cliques = graph("cliques3x14", 42, _cliques_in_a_path(3, 14, 4, rng))
    cliques_pairs = os.path.join(directory, "cliques3x14.pairs.txt")
    with one_blas_thread():
        pairs = resistance_pairs(load_graph(cliques))
    _write(cliques_pairs, "".join(" ".join(repr(float(x)) for x in r) + "\n" for r in pairs))
    # 496 edges >= 12 r for its r = 32 degree rows: the first matrix rounds walk in chunks
    k32 = graph("k32", 32, complete_edges(32, rng))
    # 357 edges on one piece, drawn from its own generator so that the inputs above stay
    # as they are: every resistance row a_z is dense, where on K_n each has one nonzero
    gnp32 = graph("gnp32", 32, _gnp(32, 0.7, np.random.default_rng(11)))
    split = ["--epsilon", "0.25", "--phi-target", "0.1"]
    spectral = ["--epsilon", "0.45", "--c-support", "1"]
    # a uc family has 2n rows, so half the support constant halves as far
    uc = ["--epsilon", "0.45", "--c-support", "0.5"]
    return [
        ("uc-k20", ["uc", k20, *uc]),
        ("uc-lognormal24", ["uc", lognormal, *uc]),
        ("sv-k12x12-less-matching",
         ["sv", graph("k12x12m", 24, _bipartite(12, True)), *spectral]),
        ("sv-k10x10", ["sv", graph("k10x10", 20, _bipartite(10, False)), *uc]),
        ("sv-digraph16",
         ["sv", digraph, "--epsilon", "1.9", "--phi-target", "0.25", "--c-support", "0.25"]),
        ("partial-color-k12", ["partial-color", k12]),
        ("partial-color-lognormal24", ["partial-color", lognormal]),
        ("sparsify-k12", ["sparsify", k12, *spectral]),
        ("sparsify-k32", ["sparsify", k32, *spectral]),
        ("uc-k32", ["uc", k32, "--epsilon", "0.45", "--c-support", "1"]),
        ("sketch-k14", ["sketch", k14, "--vectors", vectors, "--epsilon", "0.25"]),
        ("resist-k14", ["resist", k14, "--epsilon", "0.25", "--c-resist", "1"]),
        ("resist-gnp32", ["resist", gnp32, "--epsilon", "0.25", "--c-resist", "1"]),
        ("decompose-dumbbell", ["decompose", dumbbell, "--phi-target", "0.1"]),
        ("sketch-cliques3x14", ["sketch", cliques, "--vectors", cliques_pairs, *split]),
        ("resist-cliques3x14", ["resist", cliques, *split, "--c-resist", "1"]),
    ]


def _sha256(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def run_job(argv_of, directory):
    """Exit code and the sha256 of every file that the command line
    argv_of(out, report) wrote: out, report and decompose's out.piece<i>.
    directory must hold nothing else."""
    out = os.path.join(directory, "out")
    for name in os.listdir(directory):
        os.remove(os.path.join(directory, name))
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = cli_main(argv_of(out, os.path.join(directory, "report")))
    written = sorted(os.listdir(directory))
    return {"exit": code, **{name: _sha256(os.path.join(directory, name)) for name in written}}


def all_hashes():
    """{job name: run_job entry} over the bench jobs and the extra jobs."""
    hashes = {}
    with tempfile.TemporaryDirectory() as tmp:
        runs = os.path.join(tmp, "runs")
        os.makedirs(runs)
        for workload in WORKLOADS:
            for seed in SEEDS:
                for job in make_jobs(workload, seed, os.path.join(tmp, f"{workload}-{seed}")):
                    hashes[f"{workload}-{seed}/{job.name}"] = run_job(job.argv, runs)
        for name, argv in extra_jobs(tmp):
            hashes[f"extra/{name}"] = run_job(
                lambda out, report, argv=argv: [*argv, "--check", "--out", out, "--report", report],
                runs)
    return hashes


def differences(base, change):
    """Names of the jobs whose entries differ, or that only one side ran."""
    return sorted(name for name in base.keys() | change.keys()
                  if base.get(name) != change.get(name))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", help="JSON file to write the hashes to")
    parser.add_argument("--against", help="hashes JSON of the base to compare with")
    args = parser.parse_args(argv)
    hashes = all_hashes()
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(hashes, fh, indent=2, sort_keys=True)
            fh.write("\n")
    if not args.against:
        return 0
    with open(args.against, encoding="utf-8") as fh:
        base = json.load(fh)
    differ = differences(base, hashes)
    for name in differ:
        print(f"differs: {name}: {base.get(name)} -> {hashes.get(name)}")
    print(f"{len(hashes) - len(differ)} of {len(hashes)} jobs identical")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
