"""Graph model, derived matrices, bipartite lift, expander decomposition."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import (
    complete_bipartite,
    complete_graph,
    cycle_graph,
    dumbbell_graph,
    random_connected_graph,
    random_graph,
    random_tournament,
)
from walksparse import linalg
from walksparse.errors import InvalidInput
from walksparse.graph import (
    Graph,
    bipartite_lift,
    default_phi_target,
    expander_decompose,
    lambda2,
    lift_edge_to_arc,
    piece_multiplicity,
    sv_error_matrices,
)
from walksparse.cli import parse_edge_list


def lognormal_weights(g, seed):
    """g with seeded lognormal edge weights."""
    w = np.random.default_rng(seed).lognormal(size=g.m)
    return Graph(g.n, tuple((u, v, float(x)) for (u, v, _), x in zip(g.edges, w)), g.directed)


class TestModel:
    def test_canonicalization(self):
        g = Graph(3, ((2, 0, 1.0), (0, 2, 2.0), (1, 2, 1.0)))
        assert g.edges == ((0, 2, 3.0), (1, 2, 1.0))

    def test_self_loop_rejected(self):
        with pytest.raises(InvalidInput):
            Graph(3, ((1, 1, 1.0),))

    def test_nonpositive_weight_rejected(self):
        with pytest.raises(InvalidInput):
            Graph(3, ((0, 1, 0.0),))

    def test_out_of_range_rejected(self):
        with pytest.raises(InvalidInput):
            Graph(2, ((0, 5, 1.0),))

    def test_reweighted_drops_zeros(self):
        g = cycle_graph(4)
        out = g.reweighted(np.array([1.0, 0.0, 2.0, 1.0]))
        assert out.m == 3
        assert out.edges[1][2] == 2.0

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_reweighted_rejects_non_finite(self, bad):
        g = Graph(3, ((0, 1, 1.0), (1, 2, 1.0)))
        with pytest.raises(InvalidInput, match="non-finite"):
            g.reweighted([1.0, bad])

    @pytest.mark.parametrize("g", [
        random_graph(14, 0.5, 3),
        lognormal_weights(random_graph(16, 0.5, 4), 4),
        lognormal_weights(random_tournament(9, 5), 5),
    ], ids=["undirected", "weighted", "directed"])
    def test_reweighted_equals_the_constructed_subgraph(self, g):
        # reweighted builds its subgraph through the constructor: the same
        # edges as Graph(n, kept), float bits included
        rng = np.random.default_rng(g.m)
        for _ in range(5):
            s = rng.lognormal(size=g.m) * (rng.random(g.m) < 0.7)
            kept = tuple((u, v, w * si) for (u, v, w), si in zip(g.edges, s) if si > 0.0)
            out, expect = g.reweighted(s), Graph(g.n, kept, g.directed)
            assert out == expect and hash(out) == hash(expect)
            assert out.directed == g.directed and out.n == g.n
            assert [tuple(map(type, e)) for e in out.edges] == [(int, int, float)] * out.m
            assert np.array_equal(np.array(out.edges).view(np.uint64),
                                  np.array(expect.edges).view(np.uint64))
            for got, want in zip(out.edge_arrays(), expect.edge_arrays()):
                assert got.dtype == want.dtype and np.array_equal(got, want)

    def test_reweighted_refuses_a_weight_that_underflows(self):
        g = Graph(3, ((0, 1, 1.0), (1, 2, 1e-300)))
        with pytest.raises(InvalidInput, match=r"edge \(1,2\) has non-positive weight 0.0"):
            g.reweighted([1.0, 1e-300])

    def test_edge_arrays_are_read_only(self):
        for g in (complete_graph(5), complete_graph(5).reweighted(np.arange(10.0)), Graph(3, ())):
            for a in g.edge_arrays():
                with pytest.raises(ValueError):
                    a[:1] = 0
            with pytest.raises(ValueError):
                g.weights()[:1] = 2.0

    def test_equality_and_hash_read_the_fields(self):
        # the cached arrays are no dataclass field: equality and hashing
        # read (n, edges, directed) alone
        g = Graph(4, ((0, 1, 2.0), (2, 3, 1.0)))
        assert [f.name for f in dataclasses.fields(g)] == ["n", "edges", "directed"]
        assert hash(g) == hash((g.n, g.edges, g.directed))
        assert g == Graph(4, ((3, 2), (1, 0, 2.0))) == g.reweighted(np.ones(2))
        assert g != Graph(4, g.edges, directed=True) and g != Graph(5, g.edges)
        assert g != g.reweighted([1.0, 2.0])

    @given(st.integers(0, 10_000))
    def test_components_cover_vertices(self, seed):
        g = random_graph(8, 0.3, seed)
        comps = g.connected_components()
        assert sorted(v for c in comps for v in c) == list(range(8))


def reference_canonical(n, items, directed):
    """(edges, edge arrays) from the per-edge dict loop that canonicalized
    edge lists before the array constructor: the same checks, in the same
    order, with the same messages."""
    if n < 0:
        raise InvalidInput("negative vertex count")
    canon = {}
    for item in items:
        if len(item) == 2:
            u, v = item
            w = 1.0
        else:
            u, v, w = item
        u, v, w = int(u), int(v), float(w)
        if u == v:
            raise InvalidInput(f"self-loop at vertex {u}")
        if not (0 <= u < n and 0 <= v < n):
            raise InvalidInput(f"edge ({u},{v}) out of range for n={n}")
        if not np.isfinite(w) or w <= 0:
            raise InvalidInput(f"edge ({u},{v}) has non-positive weight {w}")
        if not directed and u > v:
            u, v = v, u
        canon[(u, v)] = canon.get((u, v), 0.0) + w
    ordered = tuple((u, v, canon[(u, v)]) for (u, v) in sorted(canon))
    u, v, w = zip(*ordered) if ordered else ((), (), ())
    return ordered, (np.array(u, dtype=int), np.array(v, dtype=int), np.array(w))


def multigraph_items(n, m, seed):
    """m seeded edge items on n vertices, drawn from about m/3 pairs so that
    pairs repeat, each in a random orientation: weights 0.1, 0.2 and 0.7
    (whose sums depend on the order they are added in), lognormal ones or
    none (a 2-tuple), with Python or numpy ids and weights."""
    rng = np.random.default_rng(seed)
    pairs = [rng.choice(n, 2, replace=False).tolist() for _ in range(max(1, m // 3))]
    id_types = (int, np.int64, np.int32)
    weights = (0.1, 0.2, 0.7, 0.1, 0.2, 0.7, None, "lognormal")
    items = []
    for _ in range(m):
        u, v = pairs[rng.integers(len(pairs))][:: 1 if rng.random() < 0.5 else -1]
        to_id = id_types[rng.integers(len(id_types))]
        w = weights[rng.integers(len(weights))]
        if w is None:
            items.append((to_id(u), to_id(v)))
            continue
        w = rng.lognormal() if w == "lognormal" else w
        items.append((to_id(u), to_id(v), (float, np.float64, np.float32)[rng.integers(3)](w)))
    return items


def outcome(build, *args):
    """(exception type, message) that build(*args) raises, or None."""
    try:
        build(*args)
    except Exception as exc:
        return type(exc), str(exc)
    return None


class TestConstructorParity:
    """The array constructor against the per-edge dict loop it replaced."""

    def assert_same(self, n, items, directed):
        g = Graph(n, tuple(items), directed)
        edges, arrays = reference_canonical(n, items, directed)
        assert g.edges == edges
        assert [tuple(map(type, e)) for e in g.edges] == [(int, int, float)] * len(edges)
        assert [w.hex() for _, _, w in g.edges] == [w.hex() for _, _, w in edges]
        got = g.edge_arrays()
        assert [a.dtype for a in got] == [np.dtype(np.int64)] * 2 + [np.dtype(np.float64)]
        for a, b in zip(got, arrays):
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes()

    @pytest.mark.parametrize("directed", [False, True], ids=["undirected", "directed"])
    @pytest.mark.parametrize("seed", range(6))
    def test_seeded_multigraphs(self, seed, directed):
        n = 3 + 4 * seed
        self.assert_same(n, multigraph_items(n, 12 * n, seed), directed)

    def test_merge_adds_in_input_order(self):
        # (0.1 + 0.2) + 0.7 is 1.0 and (0.7 + 0.2) + 0.1 is not
        for parts, want in (((0.1, 0.2, 0.7), 1.0), ((0.7, 0.2, 0.1), 0.9999999999999999)):
            items = [(0, 1, w) if k % 2 else (1, 0, w) for k, w in enumerate(parts)]
            assert Graph(2, tuple(items)).edges == ((0, 1, want),)
            self.assert_same(2, items, False)

    def test_antiparallel_arcs_stay_apart(self):
        items = [(0, 1, 0.3), (1, 0, 1.7), (0, 1, 0.2), (2, 1), (1, 2, 2.9)]
        assert Graph(3, tuple(items), directed=True).m == 4
        self.assert_same(3, items, True)

    @pytest.mark.parametrize("n", [0, 5])
    @pytest.mark.parametrize("directed", [False, True])
    def test_edgeless(self, n, directed):
        self.assert_same(n, [], directed)

    BAD = [
        (-1, 2, 1.0), (2, -3), (9, 0, 1.0), (0, 2**70), (2**63, 1, 0.5), (-2**70, -2**70),
        (3, 3, float("nan")), (np.int64(2), np.int64(2)), (1, 2, 0.0), (1, 2, -1.0),
        (2, 1, float("nan")), (0, 1, float("inf")), (1, 0, -np.inf), (4, 10, np.nan),
        (2, 0, np.float64(-0.0)),
    ]

    @pytest.mark.parametrize("directed", [False, True], ids=["undirected", "directed"])
    @pytest.mark.parametrize("seed", range(40))
    def test_first_bad_edge_is_named_as_before(self, seed, directed):
        rng = np.random.default_rng(seed)
        items = multigraph_items(9, 20, seed)
        for k in rng.choice(len(self.BAD), 3, replace=False):
            items.insert(int(rng.integers(len(items) + 1)), self.BAD[k])
        want = outcome(reference_canonical, 9, items, directed)
        assert want is not None and want[0] is InvalidInput
        assert outcome(Graph, 9, tuple(items), directed) == want

    def test_negative_vertex_count(self):
        assert outcome(Graph, -1, ()) == outcome(reference_canonical, -1, (), False)

    @pytest.mark.parametrize("item", [(0, 1, 1.0, 2.0), [0, 1, 2.0, 3.0], (0,), ()])
    def test_item_that_is_not_a_pair_or_triple_is_refused(self, item):
        # a 4-tuple is refused, not cut to its first three fields
        with pytest.raises(InvalidInput, match=r"is not a \(u, v\) or \(u, v, w\) tuple"):
            Graph(3, ((0, 1, 1.0), item))


def reference_induced(g, vertices):
    """The dict relabel that induced_on used before its index array."""
    vertices = sorted(vertices)
    index = {v: i for i, v in enumerate(vertices)}
    kept = [(index[u], index[v], w) for u, v, w in g.edges if u in index and v in index]
    return len(vertices), tuple(kept), vertices


@pytest.mark.parametrize("g", [
    lognormal_weights(random_graph(16, 0.5, 6), 6),
    lognormal_weights(random_tournament(11, 7), 7),
    Graph(5, ((0, 1, 0.3), (1, 0, 1.7), (3, 4, 0.2), (4, 2, 2.9)), directed=True),
], ids=["undirected", "directed", "antiparallel"])
def test_induced_on_matches_the_dict_relabel(g):
    rng = np.random.default_rng(g.m)
    for size in (0, 1, 2, g.n // 2, g.n - 1, g.n):
        vertices = rng.permutation(g.n)[:size].tolist()
        sub, ids = g.induced_on(vertices)
        n, edges, want_ids = reference_induced(g, vertices)
        assert (sub.n, sub.edges, sub.directed, ids) == (n, edges, g.directed, want_ids)
        assert [w.hex() for _, _, w in sub.edges] == [w.hex() for _, _, w in edges]


class TestMatrices:
    def test_single_edge(self):
        g = Graph(2, ((0, 1, 1.0),))
        assert np.allclose(g.laplacian(), [[1, -1], [-1, 1]])
        assert np.allclose(g.unsigned_laplacian(), [[1, 1], [1, 1]])

    def test_triangle_normalized_spectrum(self):
        # complete-graph normalized spectrum: 0 and n/(n-1)
        w = linalg.eigvalsh(complete_graph(3).normalized_laplacian())
        assert np.allclose(w, [0.0, 1.5, 1.5], atol=1e-10)

    def test_bipartite_iff_lambda_max_two(self):
        w = linalg.eigvalsh(complete_bipartite(3, 4).normalized_laplacian())
        assert abs(w[-1] - 2.0) <= 1e-9
        w = linalg.eigvalsh(complete_graph(5).normalized_laplacian())
        assert w[-1] < 2.0 - 1e-6

    def test_incidence_reconstruction(self):
        for seed in range(10):
            g = random_connected_graph(7, 0.4, seed)
            b = g.incidence_signed()
            bu = g.incidence_unsigned()
            w = g.weights()
            assert np.max(np.abs((b * w) @ b.T - g.laplacian())) <= 1e-10
            assert np.max(np.abs((bu * w) @ bu.T - g.unsigned_laplacian())) <= 1e-10


def lognormal_edge_lines(n, m, seed):
    """Edge lines of a connected graph with m lognormal-weighted edges, each
    pair in a random orientation and the lines in a random order."""
    rng = np.random.default_rng(seed)
    perm = rng.permutation(n)
    chosen = {tuple(sorted((int(perm[k]), int(perm[rng.integers(0, k)])))) for k in range(1, n)}
    rest = [(i, j) for i in range(n) for j in range(i + 1, n) if (i, j) not in chosen]
    chosen.update(rest[k] for k in rng.choice(len(rest), m - len(chosen), replace=False))
    lines = [
        f"{v} {u} {float(w)!r}" if flip else f"{u} {v} {float(w)!r}"
        for (u, v), w, flip in zip(
            sorted(chosen), rng.lognormal(0.0, 1.0, m), rng.random(m) < 0.5
        )
    ]
    return [lines[k] for k in rng.permutation(m)]


def reference_matrices(g):
    """The graph matrices from one loop over the edges in order, adding
    each edge's weight to its entries one at a time."""
    a, d_out, d_in = np.zeros((g.n, g.n)), np.zeros(g.n), np.zeros(g.n)
    b, b_abs, used = np.zeros((g.n, g.m)), np.zeros((g.n, g.m)), set()
    for j, (u, v, w) in enumerate(g.edges):
        a[u, v] += w
        d_out[u] += w
        d_in[v] += w
        if not g.directed:
            a[v, u] += w
            d_out[v] += w
            d_in[u] += w
        b[u, j], b[v, j] = 1.0, -1.0
        b_abs[u, j], b_abs[v, j] = 1.0, 1.0
        used |= {u, v}
    return {
        "adjacency": a,
        "out_degrees": d_out,
        "in_degrees": d_in,
        "incidence_signed": b,
        "incidence_unsigned": b_abs,
        "non_isolated": sorted(used),
    }


class TestMatricesBitExact:
    """Each derived array has the bytes of the per-edge reference loop."""

    def assert_matches_loop(self, g):
        ref = reference_matrices(g)
        for name, want in ref.items():
            got = getattr(g, name)()
            if name == "non_isolated":
                assert got == want and all(type(v) is int for v in got)
                continue
            assert got.dtype == want.dtype and got.shape == want.shape, name
            assert got.tobytes() == want.tobytes(), name
        if not g.directed:
            d = g.weighted_degrees()
            assert d.tobytes() == ref["out_degrees"].tobytes()
            lap = np.diag(ref["out_degrees"]) - ref["adjacency"]
            assert g.laplacian().tobytes() == lap.tobytes()

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_lognormal_graph_from_shuffled_lines(self, seed):
        lines = lognormal_edge_lines(44, 317, seed)
        self.assert_matches_loop(parse_edge_list("\n".join(["n 44", *lines])))

    def test_directed_graph_with_antiparallel_arcs(self):
        rng = np.random.default_rng(5)
        arcs = [(0, 1, 0.3), (1, 0, 1.7), (2, 1, 0.1), (1, 2, 2.9), (3, 0, 1.1)]
        arcs += [(u, v, float(w)) for u, v, w in zip([4, 2, 4], [2, 4, 3], rng.lognormal(size=3))]
        g = Graph(6, tuple(arcs), directed=True)
        assert g.m == 8
        self.assert_matches_loop(g)
        with pytest.raises(InvalidInput):
            g.weighted_degrees()

    @pytest.mark.parametrize("directed", [False, True])
    def test_edgeless_graph(self, directed):
        self.assert_matches_loop(Graph(4, (), directed))
        self.assert_matches_loop(Graph(0, (), directed))


class TestBipartiteLift:
    def test_single_arc(self):
        g = Graph(2, ((0, 1, 1.0),), directed=True)
        lift = bipartite_lift(g)
        assert lift.edges == ((0, 3, 1.0),)
        assert lift_edge_to_arc((0, 3), 2) == (0, 1)

    def test_directed_triangle_becomes_hexagon(self):
        g = Graph(3, ((0, 1, 1.0), (1, 2, 1.0), (2, 0, 1.0)), directed=True)
        lift = bipartite_lift(g)
        assert lift.n == 6 and lift.m == 3
        degs = lift.weighted_degrees()
        assert np.all(degs == 1.0)

    def test_spectrum_symmetry(self):
        # the lift is bipartite: spectrum symmetric about 1
        for seed in range(5):
            g = random_tournament(6, seed)
            lift = bipartite_lift(g)
            sub, _ = lift.induced_on(lift.non_isolated())
            w = linalg.eigvalsh(sub.normalized_laplacian())
            assert np.max(np.abs(w + w[::-1] - 2.0)) <= 1e-9

    def test_requires_directed(self):
        with pytest.raises(InvalidInput):
            bipartite_lift(cycle_graph(4))


class TestSvErrorMatrices:
    def test_single_arc_zero(self):
        g = Graph(2, ((0, 1, 1.0),), directed=True)
        e, f = sv_error_matrices(g)
        assert np.allclose(e, 0.0) and np.allclose(f, 0.0)

    def test_eulerian_cycle_symmetric(self):
        g = Graph(4, tuple((i, (i + 1) % 4, 1.0) for i in range(4)), directed=True)
        e, f = sv_error_matrices(g)
        assert np.allclose(e, f)
        assert linalg.eigvalsh(e)[0] >= -1e-12

    def test_bipartite_kernel(self):
        g = complete_bipartite(3, 5)
        e, _ = sv_error_matrices(g)
        ones = np.ones(8)
        sign = np.concatenate([np.ones(3), -np.ones(5)])
        assert np.linalg.norm(e @ ones) <= 1e-9
        assert np.linalg.norm(e @ sign) <= 1e-9

    def test_psd_random_directed(self):
        for seed in range(10):
            g = random_tournament(7, seed)
            e, f = sv_error_matrices(g)
            assert linalg.eigvalsh(e)[0] >= -1e-8
            assert linalg.eigvalsh(f)[0] >= -1e-8


class TestExpanderDecompose:
    def test_complete_graph_single_piece(self):
        pieces = expander_decompose(complete_graph(12), 0.1)
        assert len(pieces) == 1
        assert lambda2(pieces[0]) >= 0.1 - 1e-9

    def test_dumbbell_splits(self):
        g = dumbbell_graph(8)
        pieces = expander_decompose(g, 0.1)
        assert len(pieces) >= 2
        assert sum(p.m for p in pieces) == g.m
        sizes = sorted(p.m for p in pieces)
        assert sizes[0] == 1  # the bridge lands alone
        for p in pieces:
            assert lambda2(p) >= 0.1 - 1e-9

    def test_empty_graph(self):
        assert expander_decompose(Graph(5, ()), 0.1) == []

    def test_partition_and_multiplicity(self):
        g = random_connected_graph(20, 0.15, seed=4)
        phi = default_phi_target(g.n)
        pieces = expander_decompose(g, phi)
        combined = sorted(e for p in pieces for e in p.edges)
        assert combined == sorted(g.edges)
        mult = np.zeros(g.n)
        for p in pieces:
            for v in p.non_isolated():
                mult[v] += 1
        assert mult.max() <= 4 * np.log2(g.n) + 1
        assert np.array_equal(piece_multiplicity(pieces, g.n), mult)

    def test_cycle_decomposes(self):
        g = cycle_graph(24)
        pieces = expander_decompose(g, 0.3)
        assert sum(p.m for p in pieces) == g.m
        for p in pieces:
            assert lambda2(p) >= 0.3 - 1e-9

    def test_invalid_phi(self):
        with pytest.raises(InvalidInput):
            expander_decompose(complete_graph(4), 2.5)

    def test_weighted_rejected(self):
        with pytest.raises(InvalidInput):
            expander_decompose(Graph(3, ((0, 1, 2.0), (1, 2, 1.0))), 0.1)

    def test_deterministic(self):
        g = random_connected_graph(16, 0.2, seed=8)
        p1 = expander_decompose(g, 0.2)
        p2 = expander_decompose(g, 0.2)
        assert [p.edges for p in p1] == [p.edges for p in p2]
