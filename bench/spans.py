"""Outside-in tracing of walksparse and the per-layer metrics built from it.

`installed(tracer)` replaces public functions with timing wrappers, each at
the name the calling module looks up (for example `sketches._walk_loop` or
`numpy.linalg.svd`), and restores the originals on exit.  The program itself
is not changed.  Spans are kept in memory and written as JSON lines at the
end; self times and layer totals are computed from them.

Span names (the layer is the part before the dot):
  job                      one `walksparse.cli.main` call (root span)
  cli.io                   edge-list parse, vector load, serialize
  sparsify.pipeline/loop   spectral_sparsify and the halving loop
  sparsify.family          family and degree-subspace construction
  sketches.pipeline/loop   sketch / resistance_sparsify, sketch_expander
                           and _combined_round
  walk                     partial_color from sparsify, _walk_loop from sketches
  potential.normalizer     solve_normalizer_from_eigenvalues
  vector_walk.prepare      prepare_constraints
  graph.decompose          expander_decompose
  linalg.eigh / scipy.eigh / numpy.svd / linalg.spectral_norm /
  linalg.matrix_function   dense factorizations and matrix functions
  verify.check             the check_* functions and the resistance report
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import time

import numpy as np

_FACTOR_NAMES = ("linalg.eigh", "scipy.eigh", "numpy.svd", "linalg.spectral_norm")
_EIGH_NAMES = ("linalg.eigh", "scipy.eigh")


class Span:
    __slots__ = ("id", "name", "job", "parent", "start", "end", "attrs")

    def __init__(self, sid, name, job, parent, start, attrs):
        self.id = sid
        self.name = name
        self.job = job
        self.parent = parent
        self.start = start
        self.end = start
        self.attrs = attrs

    @property
    def duration(self):
        return self.end - self.start

    def to_dict(self):
        return {"id": self.id, "name": self.name, "job": self.job, "parent": self.parent,
                "start": self.start, "end": self.end, **(self.attrs or {})}


class Tracer:
    """In-memory span recorder for one single-threaded process."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.job = None

    def open(self, name, attrs=None):
        parent = self.stack[-1].id if self.stack else None
        span = Span(len(self.spans), name, self.job, parent, time.perf_counter(), attrs)
        self.spans.append(span)
        self.stack.append(span)
        return span

    def close(self, span):
        span.end = time.perf_counter()
        popped = self.stack.pop()
        if popped is not span:
            raise RuntimeError(f"span {span.name} closed out of order")

    @contextlib.contextmanager
    def span(self, name, attrs=None):
        rec = self.open(name, attrs)
        try:
            yield rec
        finally:
            self.close(rec)

    def wrap(self, name, fn, attrs=None, result=None):
        """Timing wrapper: `attrs(args, kwargs)` and `result(value)` add fields."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = self.open(name, attrs(args, kwargs) if attrs else None)
            try:
                value = fn(*args, **kwargs)
            finally:
                self.close(rec)
            if result is not None:
                rec.attrs = {**(rec.attrs or {}), **result(value)}
            return value

        return wrapper

    def write_jsonl(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps(s.to_dict()) + "\n")


def _shape(args, kwargs):
    a = args[0] if args else kwargs.get("a")
    return {"shape": list(np.shape(a))}


def _svd_attrs(args, kwargs):
    out = _shape(args, kwargs)
    out["full"] = bool(kwargs.get("full_matrices", args[1] if len(args) > 1 else True))
    out["uv"] = bool(kwargs.get("compute_uv", args[2] if len(args) > 2 else True))
    return out


def _scipy_eigh_attrs(args, kwargs):
    out = _shape(args, kwargs)
    subset = kwargs.get("subset_by_index")
    if subset is not None:
        out["k"] = int(subset[1]) - int(subset[0]) + 1
    return out


def _walk_size(m_of):
    return lambda args, kwargs: {"m": int(m_of(args[0]))}


def _frozen(x):
    return {"frozen": int(np.count_nonzero(np.abs(x) == 1.0))}


# (module, attribute, span name, attrs, result).  Each attribute is the name
# the calling code looks up at call time.
PATCHES = (
    ("walksparse.cli", "load_graph", "cli.io", None, None),
    ("walksparse.cli", "load_vectors", "cli.io", None, None),
    ("walksparse.cli", "_emit", "cli.io", None, None),
    ("walksparse.sparsify", "spectral_sparsify", "sparsify.pipeline", None, None),
    ("walksparse.sparsify", "sparsify", "sparsify.loop", None, None),
    ("walksparse.sparsify", "spectral_family", "sparsify.family", None, None),
    ("walksparse.sparsify", "degree_subspace", "sparsify.family", None, None),
    ("walksparse.sparsify", "partial_color", "walk", _walk_size(lambda f: f.m), _frozen),
    ("walksparse.sketches", "sketch", "sketches.pipeline", None, None),
    ("walksparse.sketches", "resistance_sparsify", "sketches.pipeline", None, None),
    ("walksparse.sketches", "sketch_expander", "sketches.loop", None, None),
    ("walksparse.sketches", "_combined_round", "sketches.loop", None, None),
    ("walksparse.sketches", "_walk_loop", "walk", _walk_size(int), _frozen),
    ("walksparse.sketches", "prepare_constraints", "vector_walk.prepare", None, None),
    ("walksparse.matrix_walk", "solve_normalizer_from_eigenvalues", "potential.normalizer",
     None, None),
    ("walksparse.graph", "expander_decompose", "graph.decompose", None,
     lambda pieces: {"pieces": len(pieces)}),
    ("walksparse.linalg", "eigh", "linalg.eigh", _shape, None),
    ("walksparse.linalg", "spectral_norm", "linalg.spectral_norm", _shape, None),
    ("walksparse.linalg", "matrix_function", "linalg.matrix_function", None, None),
    ("walksparse.verify", "check_spectral", "verify.check", None, None),
    ("walksparse.verify", "check_sketch", "verify.check", None, None),
    ("walksparse.verify", "check_resistance", "verify.check", None, None),
    ("walksparse.verify", "effective_resistance_report", "verify.check", None, None),
    ("scipy.linalg", "eigh", "scipy.eigh", _scipy_eigh_attrs, None),
    ("numpy.linalg", "svd", "numpy.svd", _svd_attrs, None),
)


@contextlib.contextmanager
def installed(tracer):
    """Install every wrapper of PATCHES for the duration of the block."""
    saved = []
    try:
        for module_name, attr, name, attrs, result in PATCHES:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            saved.append((module, attr, original))
            setattr(module, attr, tracer.wrap(name, original, attrs, result))
        yield tracer
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)


# ---------------------------------------------------------------------------
# analysis


def self_times(spans):
    """Span id -> duration minus the time its direct children cover.

    Spans of one thread nest, so direct children never overlap.
    """
    own = {s.id: s.duration for s in spans}
    for s in spans:
        if s.parent is not None:
            own[s.parent] -= s.duration
    return own


def factor_flops(span):
    """LAPACK flop model (Golub & Van Loan) for one factorization span."""
    shape = span.attrs["shape"]
    if span.name == "numpy.svd" or span.name == "linalg.spectral_norm":
        big, small = max(shape), min(shape)
        if span.name == "linalg.spectral_norm" or not span.attrs["uv"]:
            return 4.0 * big * small**2 - 4.0 * small**3 / 3.0
        if span.attrs["full"]:
            return 4.0 * big**2 * small + 8.0 * big * small**2 + 9.0 * small**3
        return 14.0 * big * small**2 + 8.0 * small**3
    n = shape[0]
    if "k" in span.attrs:
        return 4.0 * n**3 / 3.0 + 2.0 * n**2 * span.attrs["k"]
    return 9.0 * n**3


def _median(values):
    return float(np.median(values)) if values else 0.0


def _rounds(spans, children, loop_name):
    """Round durations: each loop span is split at the ends of its walks.

    Round j runs from the end of walk j-1 (the loop's start for j = 1) to the
    end of walk j; the last round runs to the end of the loop span.
    """
    out = []
    for s in spans:
        if s.name != loop_name:
            continue
        walks = [c for c in children.get(s.id, ()) if c.name == "walk"]
        start = s.start
        for j, w in enumerate(walks):
            end = s.end if j == len(walks) - 1 else w.end
            out.append(end - start)
            start = end
    return out


def layer_metrics(spans):
    """Per-layer metrics of one traced pass (values without units)."""
    by_id = {s.id: s for s in spans}
    own = self_times(spans)
    children = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append(s)

    def walk_of(s):
        """The enclosing walk span, or None."""
        p = s.parent
        while p is not None:
            if by_id[p].name == "walk":
                return by_id[p]
            p = by_id[p].parent
        return None

    def total(name, where=None):
        """Summed duration of the outermost spans called `name`."""
        return sum(
            s.duration for s in spans
            if s.name == name
            and not (s.parent is not None and by_id[s.parent].name == name)
            and (where is None or where(s))
        )

    walks = [s for s in spans if s.name == "walk"]
    # one null-vector svd directly under the walk per iteration
    null_svds = [
        s for s in spans
        if s.name == "numpy.svd" and s.parent is not None and by_id[s.parent].name == "walk"
    ]
    iterations = len(null_svds)
    eigsolve = block = step_cap = flops = 0.0
    for s in spans:
        if s.name not in _FACTOR_NAMES:
            continue
        w = walk_of(s)
        if w is None:
            continue
        parent_name = by_id[s.parent].name
        if s.name in _EIGH_NAMES and parent_name not in _EIGH_NAMES:
            # m_t > 3m/4 while the walk runs; block-sized arguments are n x n
            if 4 * s.attrs["shape"][0] > 3 * w.attrs["m"]:
                eigsolve += s.duration
            else:
                block += s.duration
        elif s.name == "linalg.spectral_norm":
            step_cap += s.duration
        if parent_name not in _FACTOR_NAMES:
            flops += factor_flops(s)
    walk_s = sum(w.duration for w in walks)
    frozen = sum(w.attrs["frozen"] for w in walks)
    normalizers = [s for s in spans if s.name == "potential.normalizer"]
    sparsify_rounds = _rounds(spans, children, "sparsify.loop")
    sketch_rounds = _rounds(spans, children, "sketches.loop")
    jobs = [s for s in spans if s.name == "job"]
    job_wall = sum(j.duration for j in jobs)
    return {
        "matrix_walk.iterations": iterations,
        "matrix_walk.walk_s": walk_s,
        "matrix_walk.self_s": sum(own[w.id] for w in walks),
        "matrix_walk.null_solve_s": sum(s.duration for s in null_svds),
        "matrix_walk.eigsolve_s": eigsolve,
        "matrix_walk.block_spectra_s": block,
        "matrix_walk.step_cap_s": step_cap,
        "matrix_walk.ms_per_iter": 1000.0 * walk_s / iterations if iterations else 0.0,
        "matrix_walk.frozen_per_iter": frozen / iterations if iterations else 0.0,
        "matrix_walk.factor_gflop": flops / 1e9,
        "potential.normalizer_calls": len(normalizers),
        "potential.normalizer_s": sum(s.duration for s in normalizers),
        "vector_walk.prepare_s": total("vector_walk.prepare"),
        "sparsify.rounds": len(sparsify_rounds),
        "sparsify.round_s_p50": _median(sparsify_rounds),
        "sparsify.self_s": sum(own[s.id] for s in spans if s.name.startswith("sparsify.")
                               and s.name != "sparsify.family"),
        "sparsify.family_s": total("sparsify.family"),
        "sketches.rounds": len(sketch_rounds),
        "sketches.round_s_p50": _median(sketch_rounds),
        "sketches.self_s": sum(own[s.id] for s in spans if s.name.startswith("sketches.")),
        "graph.decompose_s": total("graph.decompose"),
        "graph.pieces": sum(s.attrs["pieces"] for s in spans if s.name == "graph.decompose"),
        "linalg.matrix_function_s": total(
            "linalg.matrix_function", where=lambda s: walk_of(s) is None
        ),
        "verify.check_s": total("verify.check"),
        "cli.io_s": total("cli.io"),
        "trace.unattributed_frac": sum(own[j.id] for j in jobs) / job_wall if job_wall else 0.0,
    }
