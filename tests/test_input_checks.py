"""Input checks of every layer: each bad input raises its named error, and
the CLI turns a bad file into exit 2 with the offending line number."""

import re

import numpy as np
import pytest

from conftest import complete_bipartite, complete_graph, cycle_graph
from walksparse import graph as graph_mod
from walksparse import sketches, sparsify, verify
from walksparse.cli import load_vectors, main, parse_edge_list
from walksparse.errors import InvalidInput, ParseError, SubspaceExhausted
from walksparse.graph import Graph
from walksparse.linalg import Subspace
from walksparse.matrix_walk import FAMILY_NORM_SLACK, DenseBlock, MatrixFamily, Rank1Block
from walksparse.matrix_walk import partial_color, vector_partial_color


@pytest.mark.parametrize(
    "text,line,message",
    [
        ("n x\n0 1\n", 1, "bad vertex count"),
        ("n -2\n", 1, "negative vertex count"),
        ("n 3\n0 1\n0 1 2 3\n", 3, "expected 'u v \\[w\\]'"),
        ("n 3\n0 1\n1 3\n", 3, "out of range"),
        ("n 3\n0 1 x\n", 2, "malformed edge line"),
        ("n 3\n0 1 -1\n", 2, "bad weight"),
        ("n 3\n0 1 inf\n", 2, "bad weight"),
        ("# only a comment\n\n", None, "missing header"),
    ],
    ids=["bad-count", "negative-count", "token-count", "out-of-range", "malformed-weight",
         "negative-weight", "infinite-weight", "missing-header"],
)
def test_edge_list_errors(tmp_path, capsys, text, line, message):
    path = tmp_path / "g.txt"
    path.write_text(text)
    assert main(["sparsify", str(path)]) == 2
    err = capsys.readouterr().err
    assert re.findall(r"line (\d+):", err) == ([] if line is None else [str(line)])
    with pytest.raises(ParseError, match=message) as exc:
        parse_edge_list(text)
    assert exc.value.line == line


@pytest.mark.parametrize(
    "text,line,message",
    [("0 1 2\n0 x 2\n", 2, "malformed vector line"), ("# none\n\n", None, "vector file is empty")],
    ids=["malformed", "empty"],
)
def test_vector_file_errors(tmp_path, text, line, message):
    path = tmp_path / "z.txt"
    path.write_text(text)
    with pytest.raises(ParseError, match=message) as exc:
        load_vectors(str(path), 3)
    assert exc.value.line == line


@pytest.mark.parametrize(
    "call,message",
    [
        (lambda: Graph(-1, ()), "negative vertex count"),
        (lambda: complete_graph(4).reweighted(np.ones(5)), "length mismatch"),
        (lambda: complete_graph(4).reweighted(-np.ones(6)), "negative reweighting"),
        (lambda: graph_mod.lift_edge_to_arc((0, 1), 4), "not a lift edge"),
        (lambda: graph_mod.expander_decompose(Graph(3, ((0, 1), (1, 2)), directed=True)),
         "expects an undirected graph"),
    ],
    ids=["negative-n", "reweight-length", "reweight-negative", "non-lift-edge",
         "decompose-directed"],
)
def test_graph_errors(call, message):
    with pytest.raises(InvalidInput, match=message):
        call()


def test_lift_edge_to_arc_takes_either_orientation():
    assert graph_mod.lift_edge_to_arc((6, 1), 4) == graph_mod.lift_edge_to_arc((1, 6), 4) == (1, 2)


def two_blocks():
    return Rank1Block(np.ones((2, 3))), Rank1Block(np.ones((2, 4)))


@pytest.mark.parametrize(
    "call,message",
    [
        (lambda: Rank1Block(np.ones(3)), "an \\(n, m\\) array"),
        (lambda: Rank1Block(np.ones((2, 3)), np.ones(2)), "weights length"),
        (lambda: Rank1Block(np.full((2, 3), np.nan)), "non-finite"),
        (lambda: Rank1Block(np.ones((2, 3)), [1.0, -1.0, 1.0]), "nonnegative"),
        (lambda: DenseBlock(np.ones((3, 2, 4))), "an \\(m, n, n\\) stack"),
        (lambda: DenseBlock(np.full((3, 2, 2), np.inf)), "non-finite"),
        (lambda: MatrixFamily([]), "at least one block"),
        (lambda: MatrixFamily(two_blocks()), "same member count"),
        (lambda: MatrixFamily.from_rank_one(np.ones((2, 3))).scaled(np.ones(4)),
         "coefficient length"),
        (lambda: partial_color(MatrixFamily.from_rank_one(np.eye(5) / 2), Subspace.full(6)),
         "ambient dimension"),
        (lambda: vector_partial_color(np.ones((6, 5)), Subspace.full(6)),
         "^constraint vector length mismatch$"),
    ],
    ids=["rank1-shape", "rank1-weights", "rank1-finite", "rank1-negative", "dense-shape",
         "dense-finite", "family-empty", "family-sizes", "scaled-length", "walk-subspace",
         "vector-walk-subspace"],
)
def test_matrix_walk_errors(call, message):
    with pytest.raises(InvalidInput, match=message):
        call()


def edgeless(n=4):
    return Graph(n, ())


@pytest.mark.parametrize(
    "call,message",
    [
        (lambda: sketches.shift_center(np.ones(4), edgeless()), "no edges"),
        (lambda: sketches.freeze_sets(complete_graph(4), np.ones(5)), "length mismatch"),
        (lambda: sketches.sketch(Graph(3, ((0, 1), (1, 2)), directed=True), np.ones((3, 3)),
                                 0.5), "undirected graphs"),
    ],
    ids=["shift-edgeless", "freeze-length", "sketch-directed"],
)
def test_sketch_errors(call, message):
    with pytest.raises(InvalidInput, match=message):
        call()


def test_sketch_expander_leaves_an_edgeless_graph_as_it_is():
    res = sketches.sketch_expander(edgeless(), np.ones((2, 4)), 0.5)
    assert res.graph == edgeless() and res.rounds == 0 and res.stopped_early is None


def combined_round(g, family, s):
    """`sketches._combined_round` of g at weights s, on seeded Gaussian vectors."""
    kvecs = np.random.default_rng(0).normal(size=(g.n, g.n))
    zbar = sketches.shift_center(kvecs, g)
    zbar_d = (zbar**2) @ g.weighted_degrees()
    forms = graph_mod.sketch_forms(g, kvecs) if family is None else None
    return sketches._combined_round(g, family, zbar, zbar_d, s, g.n, forms)


def test_combined_round_stops_when_the_freeze_sets_leave_too_few_movable_edges():
    # every weight is above 10 d(v)/d_s(v) = 10, so every edge is in E0
    g = complete_graph(8)
    with pytest.raises(SubspaceExhausted, match="^freeze sets leave too few movable edges$"):
        combined_round(g, None, np.full(g.m, 20.0))


HALF_FAMILY_TOO_LONG = r"sum of \|A_i\| has operator norm 1.050000 > 1"


def test_combined_round_checks_its_half_family_with_the_one_slack():
    # at s = 2.1 the half family {s(e)/2 A_e} of K_8 sums to 1.05 times a
    # projection: the round refuses it as `sparsify` and the walk do
    g = complete_graph(8)
    with pytest.raises(InvalidInput, match=HALF_FAMILY_TOO_LONG):
        combined_round(g, sparsify.spectral_family(g), np.full(g.m, 2.1))


def test_chunked_combined_round_checks_its_half_family():
    # K_22's 231 edges walk two chunks of 116 and 115, each scaled to norm 1
    # for its walk: the round checks the half family, 1.05 times a projection,
    # before it cuts it into chunks
    g = complete_graph(22)
    family = sparsify.spectral_family(g).scaled(np.full(g.m, 2.1))
    assert [len(c) for c in sparsify.round_chunks(g.m, sketches.CHUNK_PER_VERTEX * g.n)] == [
        116, 115]
    with pytest.raises(InvalidInput, match=HALF_FAMILY_TOO_LONG):
        combined_round(g, family, np.ones(g.m))


def spectral_family_with_subspace_of(m):
    return sparsify.spectral_family(complete_graph(6)), Subspace.full(m)


@pytest.mark.parametrize(
    "call,message",
    [
        (lambda: sparsify.sparsify(*spectral_family_with_subspace_of(14), 0.5), "ambient"),
        (lambda: sparsify.sparsify(MatrixFamily.from_rank_one(np.ones((2, 3))),
                                   Subspace.full(3), 0.5), "norm 6.000000 > 1"),
        (lambda: sparsify.degree_subspace(Graph(3, ((0, 1), (1, 2)), directed=True)),
         "undirected graph"),
        (lambda: sparsify.sv_sparsify_expander(
            Graph(8, complete_bipartite(2, 2).edges + ((4, 6), (4, 7), (5, 6), (5, 7))), 0.5),
         "connected undirected graph"),
        (lambda: sparsify.sv_sparsify(cycle_graph(6), 0.5), "expects a directed graph"),
    ],
    ids=["sparsify-subspace", "sparsify-norm", "degree-subspace-directed",
         "sv-expander-disconnected", "sv-undirected"],
)
def test_sparsify_errors(call, message):
    with pytest.raises(InvalidInput, match=message):
        call()


@pytest.mark.parametrize(
    "walk",
    [lambda fam: sparsify.sparsify(fam, Subspace.full(3), 0.5), partial_color],
    ids=["sparsify", "partial-color"],
)
def test_family_norm_is_checked_with_one_slack(walk):
    # three members summing to 1 + FAMILY_NORM_SLACK / 2 pass and to
    # 1 + 2 FAMILY_NORM_SLACK fail, in the halving loop and in the walk alike
    family = lambda total: MatrixFamily.from_rank_one(np.full((1, 3), np.sqrt(total / 3)))
    walk(family(1.0 + FAMILY_NORM_SLACK / 2))
    with pytest.raises(InvalidInput, match=r"sum of \|A_i\| has operator norm 1.000020 > 1"):
        walk(family(1.0 + 2 * FAMILY_NORM_SLACK))


DIRECTED_TRIANGLE = Graph(3, ((0, 1), (1, 2), (2, 0)), directed=True)


@pytest.mark.parametrize(
    "call,message",
    [
        (lambda: verify.check_uc_undirected(*[Graph(3, ((0, 1), (1, 2)), directed=True)] * 2,
                                            0.5), "expects undirected graphs"),
        # what `walksparse partial-color` runs first
        (lambda: partial_color(sparsify.spectral_family(DIRECTED_TRIANGLE),
                               sparsify.degree_subspace(DIRECTED_TRIANGLE)),
         "expects undirected graphs"),
        (lambda: verify.check_spectral(DIRECTED_TRIANGLE, DIRECTED_TRIANGLE, 0.5),
         "expects undirected graphs"),
        (lambda: verify.check_resistance(DIRECTED_TRIANGLE, DIRECTED_TRIANGLE, 0.5),
         "expects undirected graphs"),
        (lambda: verify.brute_force_min_discrepancy([]), "empty family"),
    ],
    ids=["uc-directed", "partial-color-directed", "spectral-directed", "resistance-directed",
         "brute-force-empty"],
)
def test_verify_errors(call, message):
    with pytest.raises(InvalidInput, match=message):
        call()
