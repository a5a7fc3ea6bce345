"""Command-line front end: parse graphs, run pipelines, emit reports.

Edge-list format: an optional '#' starts a comment anywhere on a line, the
first significant line is the header "n <count> [directed]", and every
following line is "u v [w]" (weight defaults to 1).  Undirected duplicate
edges merge by weight sum and edges are kept sorted, so serialization is
canonical and identical invocations produce byte-identical files.

Exit codes: 0 success (and check passed), 1 check failed, 2 input error.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import io
import json
import math
import sys
import warnings

import numpy as np

from . import graph as graph_mod
from . import linalg, sketches, sparsify, verify
from .errors import InvalidInput, ParseError, WalksparseError
from .matrix_walk import partial_color

# every command but decompose builds dense n x n float64 matrices (Laplacians,
# pseudoinverse roots), and decompose builds them per connected component; one
# such array at n = 8192 is 512 MiB
MAX_DENSE_N = 8192


def parse_edge_list(text):
    """Parse the edge-list format into a Graph, with line-numbered errors."""
    n = None
    directed = False
    edges = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        if n is None:
            if tokens[0] != "n" or len(tokens) not in (2, 3):
                raise ParseError("expected header 'n <count> [directed]'", line=lineno)
            try:
                n = int(tokens[1])
            except ValueError:
                raise ParseError(f"bad vertex count {tokens[1]!r}", line=lineno) from None
            if n < 0:
                raise ParseError("negative vertex count", line=lineno)
            if len(tokens) == 3:
                if tokens[2] != "directed":
                    raise ParseError(f"unknown header flag {tokens[2]!r}", line=lineno)
                directed = True
            continue
        if len(tokens) not in (2, 3):
            raise ParseError(f"expected 'u v [w]', got {line!r}", line=lineno)
        try:
            u, v = int(tokens[0]), int(tokens[1])
            w = float(tokens[2]) if len(tokens) == 3 else 1.0
        except ValueError:
            raise ParseError(f"malformed edge line {line!r}", line=lineno) from None
        if u == v:
            raise ParseError(f"self-loop at vertex {u}", line=lineno)
        if not (0 <= u < n and 0 <= v < n):
            raise ParseError(f"edge ({u},{v}) out of range", line=lineno)
        if not np.isfinite(w) or w <= 0:
            raise ParseError(f"bad weight {w}", line=lineno)
        edges.append((u, v, w))
    if n is None:
        raise ParseError("missing header line")
    return graph_mod.Graph(n, tuple(edges), directed=directed)


def serialize_graph(g):
    """Canonical text form; weights in shortest exact decimal form.

    repr() of a float is the shortest string that re-parses to the same
    bits (always at least 12 significant digits of precision), so
    parse(serialize(G)) reproduces G exactly.
    """
    header = f"n {g.n} directed" if g.directed else f"n {g.n}"
    lines = [header]
    for u, v, w in g.edges:
        lines.append(f"{u} {v} {w!r}")
    return "\n".join(lines) + "\n"


def _read_text(path):
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return fh.read()
        except UnicodeDecodeError:
            raise ParseError(f"{path}: not UTF-8 text") from None


def load_graph(path):
    return parse_edge_list(_read_text(path))


def load_vectors(path, n):
    text = _read_text(path)
    # a well-formed file parses in one call; the line loop reads what loadtxt
    # rejects (a lone CR, tokens only Python's float reads) or names a bad line
    vals = np.zeros((0, 0))
    with warnings.catch_warnings(), contextlib.suppress(ValueError):
        warnings.simplefilter("ignore")  # loadtxt warns on a file without rows
        vals = np.loadtxt(io.StringIO(text), ndmin=2)
    if vals.size and vals.shape[1] == n and np.all(np.isfinite(vals)):
        return vals
    rows = []
    for lineno, raw in enumerate(text.split("\n"), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        try:
            vals = [float(t) for t in line.split()]
        except ValueError:
            raise ParseError("malformed vector line", line=lineno) from None
        if not all(map(math.isfinite, vals)):
            raise ParseError("non-finite vector entry", line=lineno)
        if len(vals) != n:
            raise ParseError(f"vector of length {len(vals)}, expected {n}", line=lineno)
        rows.append(vals)
    if not rows:
        raise ParseError("vector file is empty")
    return np.asarray(rows)


def _sketch_vectors(args, n):
    if not args.vectors:
        raise WalksparseError("sketch requires --vectors")
    return load_vectors(args.vectors, n)


def _emit(args, out_graph, report):
    text = serialize_graph(out_graph) if out_graph is not None else None
    if text is not None:
        if args.out:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text)
        else:
            sys.stdout.write(text)
    if report is not None:
        fields = dict(report)
        if getattr(args, "blas_threads", None) is not None:
            # the BLAS could not be pinned to one thread; say what ran
            fields["blas_threads"] = args.blas_threads
        payload = json.dumps(fields, indent=2)
        if args.report:
            with open(args.report, "w", encoding="utf-8") as fh:
                fh.write(payload + "\n")
        elif args.check:
            sys.stdout.write(payload + "\n")


# verify kind -> name of its check in `verify`, looked up at call time so a
# wrapper put on the module attribute sees every call
_CHECKS = {
    "spectral": "check_spectral",
    "uc": "check_uc_undirected",
    "sv": "check_sv",
    "sketch": "check_sketch",
    "resistance": "check_resistance",
}
# construction command -> the verify kind of its report
_KIND = {"partial-color": "spectral", "sparsify": "spectral", "uc": "uc", "sv": "sv",
         "sketch": "sketch", "resist": "resistance"}


def _decompose(args, g):
    largest = max(map(len, g.connected_components()), default=0)
    if largest > MAX_DENSE_N:
        raise InvalidInput(f"a connected component of {largest} vertices exceeds {MAX_DENSE_N}, "
                           "the bound for dense linear algebra")
    phi = args.phi_target if args.phi_target is not None else graph_mod.default_phi_target(g.n)
    pieces = graph_mod.expander_decompose(g, phi)
    if args.out:
        for i, p in enumerate(pieces):
            with open(f"{args.out}.piece{i}", "w", encoding="utf-8") as fh:
                fh.write(serialize_graph(p))
    payload = {
        "pieces": len(pieces),
        "phi_target": phi,
        "edge_counts": [p.m for p in pieces],
        "lambda2": [graph_mod.lambda2(p) for p in pieces],
        "max_multiplicity": int(graph_mod.piece_multiplicity(pieces, g.n).max(initial=0)),
        "pass": True,
    }
    _emit(args, None, payload)
    return 0


def _halved(res, target):
    """(graph, target, report fields) of a halving command's PipelineResult:
    the fields are its rounds and its stop reason."""
    rounds = [dataclasses.asdict(r) for r in res.diagnostics]
    return res.graph, target, {"rounds": rounds, "stopped_early": res.stopped_early}


def _construct(args, g, kvecs):
    """(output graph, check target, report fields) of a construction command."""
    if args.command == "partial-color":
        if g.m == 0:
            # the target 16 sqrt(2n/m) needs an edge
            raise InvalidInput(f"partial-color needs at least one edge; the graph has {g.m} edges")
        x = partial_color(sparsify.spectral_family(g), sparsify.degree_subspace(g))
        return g.reweighted(1.0 + x), 16.0 * np.sqrt(2.0 * g.n / g.m), {}
    if args.command == "sparsify":
        return _halved(sparsify.spectral_sparsify(g, args.epsilon, args.c_support), args.epsilon)
    if args.command == "uc":
        return _halved(sparsify.uc_sparsify(g, args.epsilon, args.c_support), args.epsilon)
    if args.command == "sv":
        if g.directed:
            out = sparsify.sv_sparsify(g, args.epsilon, args.phi_target, args.c_support)
        elif args.phi_target is not None:
            raise InvalidInput("--phi-target applies only to directed input")
        else:
            out = sparsify.sv_sparsify_expander(g, args.epsilon, args.c_support)
        return _halved(out, args.epsilon)
    if args.command == "sketch":
        out = sketches.sketch(g, kvecs[0], args.epsilon, args.phi_target)
        return _halved(out, args.c_sketch * args.epsilon)
    out = sketches.resistance_sparsify(g, args.epsilon, args.phi_target, args.c_resist)
    return _halved(out, args.c_resist * args.epsilon)


def _run_command(args):
    g = load_graph(args.input)
    if args.command == "decompose":
        return _decompose(args, g)
    if g.n > MAX_DENSE_N:
        raise InvalidInput(f"n = {g.n} exceeds {MAX_DENSE_N}, the bound for dense linear algebra")
    verifying = args.command == "verify"
    kind = args.kind if verifying else _KIND[args.command]
    against = load_graph(args.against) if verifying else None
    kvecs = (_sketch_vectors(args, g.n),) if kind == "sketch" else ()
    out, target, fields = (against, args.epsilon, {}) if verifying else _construct(args, g, kvecs)
    rep = getattr(verify, _CHECKS[kind])(g, out, *kvecs, target=target)
    _emit(args, None if verifying else out, {**rep.to_dict(), **fields})
    return 1 if args.check and not rep.passed else 0


_FLAGS = {
    "--epsilon": dict(type=float, default=0.5),
    "--c-support": dict(type=float, default=sparsify.C_SUPPORT),
    "--phi-target": dict(type=float, default=None),
    "--vectors": dict(default=""),
    "--c-sketch": dict(type=float, default=4.0),
    "--c-resist": dict(type=float, default=4.0),
    "--kind": dict(default="spectral", choices=list(_CHECKS)),
    "--out": dict(default=""),
    "--report": dict(default=""),
    "--check": dict(action="store_true"),
}
_OUTPUT = ("--out", "--report", "--check")
# each command takes only the flags it reads
_COMMAND_FLAGS = {
    "partial-color": _OUTPUT,
    "sparsify": ("--epsilon", "--c-support", *_OUTPUT),
    "uc": ("--epsilon", "--c-support", *_OUTPUT),
    "sv": ("--epsilon", "--c-support", "--phi-target", *_OUTPUT),
    "sketch": ("--epsilon", "--phi-target", "--vectors", "--c-sketch", *_OUTPUT),
    "resist": ("--epsilon", "--phi-target", "--c-resist", *_OUTPUT),
    "decompose": ("--phi-target", *_OUTPUT),
    "verify": ("--kind", "--epsilon", "--vectors", "--report", "--check"),
}


def build_parser():
    parser = argparse.ArgumentParser(
        prog="walksparse",
        description="Deterministic discrepancy-walk sparsifiers and their verification",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    for name, flags in _COMMAND_FLAGS.items():
        p = sub.add_parser(name)
        p.add_argument("input", help="edge-list file")
        if name == "verify":
            p.add_argument("against", help="candidate edge-list file")
        for flag in flags:
            p.add_argument(flag, **_FLAGS[flag])
    return parser


def run(args):
    """Run one parsed command line; returns the process exit code."""
    if "epsilon" in args and not (0.0 < args.epsilon < 2.0):
        print(f"error: epsilon {args.epsilon} outside (0, 2)", file=sys.stderr)
        return 2
    try:
        if "c_sketch" in args:
            sparsify._check_positive("c_sketch", args.c_sketch)
        return _run_command(args)
    except (WalksparseError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main(argv=None):
    """Run one command line with numpy's BLAS at one thread (see
    `linalg.one_blas_thread`), so outputs do not depend on the thread count."""
    args = build_parser().parse_args(argv)
    with linalg.one_blas_thread() as args.blas_threads:
        return run(args)


if __name__ == "__main__":
    sys.exit(main())
