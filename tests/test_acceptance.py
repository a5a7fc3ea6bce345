"""Acceptance gate: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Tolerances are pinned here exactly as contracted; nothing is
calibrated at runtime.
"""

import time

import numpy as np

from conftest import (
    complete_bipartite,
    complete_graph,
    diagonal_family,
    dumbbell_graph,
    in_subspace,
    projection_vectors,
    random_symmetric,
    reweighting_of,
    ring_matching_expander,
    tournament_union,
)
from test_matrix_walk import drive_full_coloring
from walksparse import cli, linalg, potential, sketches, sparsify, verify
from walksparse.graph import Graph, expander_decompose, lambda2
from walksparse.matrix_walk import MatrixFamily, WalkLog, partial_color
from walksparse.sparsify import (
    C_SUPPORT,
    spectral_sparsify,
    sv_expander_family,
    sv_sparsify,
    sv_sparsify_expander,
    uc_sparsify,
)


def report(criterion, detail):
    print(f"ACCEPTANCE {criterion}: PASS — {detail}")


def test_criterion_01_partial_coloring_families():
    n, m = 4, 64
    bound = 16.0 * np.sqrt(2.0 * n / m)
    worst_norm = 0.0
    for inst in range(20):
        start = time.monotonic()
        fam = MatrixFamily.from_rank_one(projection_vectors(n, m, seed=1000 + inst))
        rng = np.random.default_rng(2000 + inst)
        h = linalg.nullspace(rng.normal(size=(12, m)))
        assert h.dim >= 0.8 * m
        x = partial_color(fam, h)
        elapsed = time.monotonic() - start
        norm = fam.aggregate_norm(x)
        worst_norm = max(worst_norm, norm)
        assert norm <= bound
        assert np.count_nonzero(np.abs(x) == 1.0) >= m / 4
        assert in_subspace(h, x, tol=1e-8)
        assert np.max(np.abs(x)) <= 1.0
        assert elapsed <= 120.0
    report(1, f"20 instances, worst norm {worst_norm:.4f} <= {bound:.4f}")


def test_criterion_02_potential_suite():
    # sandwich and unit trace
    for seed in range(40):
        nn = 2 + seed % 5
        a = random_symmetric(nn, seed=seed, scale=1.5)
        eta = 0.5 + 0.25 * (seed % 3)
        ctx = potential.density_optimizer(a, eta)
        phi = potential.potential_value(ctx)
        lam_max = float(linalg.eigvalsh(a)[-1])
        assert lam_max <= phi + 1e-8
        assert phi <= lam_max + 2.0 * np.sqrt(nn) / eta + 1e-8
        assert abs(np.trace(ctx.density) - 1.0) <= 1e-9
    # potential-increase inequality on 100 admissible random steps
    for seed in range(100):
        nn = 2 + seed % 5
        a = random_symmetric(nn, seed=seed)
        ctx = potential.density_optimizer(a, eta=0.8)
        b = random_symmetric(nn, seed=seed + 10_000)
        norm = linalg.spectral_norm(ctx.density_sqrt @ (ctx.eta * b))
        y = b * (0.4 / max(norm, 1e-12))
        lhs, rhs, ok = potential.verify_increase_bound(ctx, y)
        assert ok, f"seed {seed}: {lhs} > {rhs}"
    # trace-inverse second-order coefficient within [-2, 2]
    for seed in range(100):
        rng = np.random.default_rng(seed)
        nn = 2 + seed % 5
        root = rng.normal(size=(nn, nn))
        a = root @ root.T / nn + 0.3 * np.eye(nn)
        b = random_symmetric(nn, seed=seed + 999)
        a_inv = np.linalg.inv(a)
        eta = 0.5 / max(linalg.spectral_norm(a_inv @ b), 1e-12)
        eta *= 0.2 + 0.8 * rng.random()
        lhs = np.trace(np.linalg.inv(a - eta * b))
        first = np.trace(a_inv) + eta * np.trace(a_inv @ b @ a_inv)
        denom = eta**2 * np.trace(a_inv @ b @ a_inv @ b @ a_inv)
        if abs(denom) <= 1e-14:
            continue
        c = (lhs - first) / denom
        assert -2.0 - 1e-6 <= c <= 2.0 + 1e-6
    report(2, "sandwich, unit trace, increase bound x100, expansion coefficient x100")


def test_criterion_03_walk_invariants_logged_run():
    n, m = 4, 64
    fam = MatrixFamily.from_rank_one(projection_vectors(n, m, seed=42))
    log = WalkLog()
    partial_color(fam, log=log)
    assert log.iterations <= m * m / 4 + m
    assert max(abs(v) for v in log.linear_term) <= 1e-8
    for quad, m_t in zip(log.quad_term, log.m_t):
        assert quad <= 9.0 * np.sqrt(2.0 * n) / m_t**2 + 1e-8
    prev = 0.0
    for nsq, delta in zip(log.norm_sq, log.delta):
        assert abs(nsq - prev - delta**2) <= 1e-9
        prev = nsq
    report(3, f"{log.iterations} iterations, all per-step invariants hold")


def test_criterion_04_brute_force_oracle():
    bound = 16.0 * np.sqrt(2.0 * 4 / 10)
    for inst in range(10):
        mats = diagonal_family(10, 4, seed=3000 + inst)
        _, best = verify.brute_force_min_discrepancy(mats)
        x = drive_full_coloring(mats)
        assert np.all(np.abs(x) == 1.0)
        walk_norm = linalg.operator_norm(sum(xi * a for xi, a in zip(x, mats)))
        assert walk_norm >= best - 1e-9
        assert walk_norm <= bound
    report(4, "10 diagonal instances: full colorings never beat the oracle")


def test_criterion_05_spectral_sparsifier():
    start = time.monotonic()
    eps = 0.5
    for g in (complete_graph(16), ring_matching_expander(32)):
        res = spectral_sparsify(g, eps)
        rep = verify.check_spectral(g, res.graph, target=eps)
        assert rep.support_size <= C_SUPPORT * g.n / eps**2
        assert rep.measured_eps <= eps
        assert np.max(np.abs(res.graph.weighted_degrees() - g.weighted_degrees())) <= 1e-6
        assert all(w >= 0.0 for _, _, w in res.graph.edges)
    # a forced-rounds run exercising the halving loop on the same contract
    g = complete_graph(16)
    res = spectral_sparsify(g, 0.45, c_support=1.0)
    rep = verify.check_spectral(g, res.graph, target=0.45)
    assert res.rounds >= 2
    assert rep.support_size <= 1.0 * g.n / 0.45**2
    assert rep.measured_eps <= 0.45
    assert np.max(np.abs(res.graph.weighted_degrees() - g.weighted_degrees())) <= 1e-6
    assert all(w >= 0.0 for _, _, w in res.graph.edges)
    elapsed = time.monotonic() - start
    assert elapsed <= 600.0
    report(5, f"defaults + forced rounds (support {rep.support_size}, "
              f"measured {rep.measured_eps:.3f}), {elapsed:.1f}s")


def test_criterion_06_uc_sparsifier():
    eps = 0.5
    for g in (complete_graph(16), ring_matching_expander(32)):
        res = uc_sparsify(g, eps)
        assert verify.check_uc_undirected(g, res.graph, target=eps).measured_eps <= eps
    # block identity: the family sums to I_{2n} projected off the kernels
    for g in (complete_graph(16), complete_bipartite(10, 10)):
        fam = sparsify.uc_family(g)
        total = sum(fam.member(i) for i in range(fam.m))
        kl = linalg.kernel_basis(g.laplacian())
        ku = linalg.kernel_basis(g.unsigned_laplacian())
        proj = np.block(
            [
                [np.eye(g.n) - kl @ kl.T, np.zeros((g.n, g.n))],
                [np.zeros((g.n, g.n)), np.eye(g.n) - ku @ ku.T],
            ]
        )
        assert np.max(np.abs(total - proj)) <= 1e-9
    # forced rounds on a bipartite graph: both norms and the signed kernel
    g = complete_bipartite(10, 10)
    res = uc_sparsify(g, 0.45, c_support=0.5)
    assert res.graph.m < g.m
    rep = verify.check_uc_undirected(g, res.graph, target=0.45)
    assert rep.measured_eps <= 0.45
    diff = g.adjacency() - res.graph.adjacency()
    sign = np.concatenate([np.ones(10), -np.ones(10)])
    assert np.linalg.norm(diff @ sign) <= 1e-8
    assert rep.passed
    # the family-norm oracle of both blocks agrees with the certification
    s_diff = reweighting_of(g, res.graph) - 1.0
    fam = sparsify.uc_family(g)
    oracle = max(linalg.operator_norm(block.aggregate(s_diff)) for block in fam.blocks)
    assert abs(rep.measured_eps - oracle) <= 1e-9
    report(6, "both norms within eps, block identity 1e-9, bipartite kernel 1e-8")


def test_criterion_07_sv_expander():
    g = complete_bipartite(4, 4)
    fam = sv_expander_family(g)
    norm = fam.aggregate_norm(np.ones(g.m))
    assert abs(norm - 1.0) <= 1e-8  # lam / lambda_2 with lambda_2(K44) = 1
    res = sv_sparsify_expander(g, eps=0.5)
    rep = verify.check_sv(g, res.graph, target=0.5)
    assert rep.passed
    assert rep.measured_eps <= 0.5
    report(7, f"family norm {norm:.10f}, check_sv measured {rep.measured_eps:.3f}")


def test_criterion_08_sv_general_pipeline():
    g = tournament_union(16, 101, 202)
    res = sv_sparsify(g, eps=2.0, phi_target=0.25, c_support=1.25)
    assert res.graph.m < g.m
    rep = verify.check_sv(g, res.graph, target=np.inf)
    assert rep.passed
    report(8, f"{g.m} -> {res.graph.m} arcs, measured sv eps {rep.measured_eps:.3f}")


def test_criterion_09_expander_decomposition():
    phi = 0.1
    pieces = expander_decompose(complete_graph(12), phi)
    assert len(pieces) == 1
    g = dumbbell_graph(8)
    pieces = expander_decompose(g, phi)
    assert len(pieces) >= 2
    assert sorted(e for p in pieces for e in p.edges) == sorted(g.edges)
    mult = np.zeros(g.n)
    for p in pieces:
        assert lambda2(p) >= phi - 1e-9
        for v in p.non_isolated():
            mult[v] += 1
    assert mult.max() <= 4.0 * np.log2(g.n) + 1
    report(9, f"K12 single piece; dumbbell {len(pieces)} pieces, "
              f"max multiplicity {int(mult.max())}")


def test_criterion_10_sketch_desk_scale():
    g = complete_graph(32)
    rng = np.random.default_rng(123)
    kvecs = rng.normal(size=(600, 32))
    kvecs /= np.linalg.norm(kvecs, axis=1)[:, None]
    eps, c_sk = 0.25, 4.0
    res = sketches.sketch(g, kvecs, eps)
    worst = verify.check_sketch(g, res.graph, kvecs, target=c_sk * eps).measured_eps
    assert worst <= c_sk * eps
    assert np.max(np.abs(res.graph.weighted_degrees() - g.weighted_degrees())) <= 1e-6
    report(10, f"edges {g.m} -> {res.graph.m}, worst ratio {worst:.3f} "
               f"<= {c_sk * eps}")


def test_criterion_11_resistance_sparsifier():
    g = complete_graph(24)
    eps, c_r = 0.25, 4.0
    res = sketches.resistance_sparsify(g, eps)
    worst = verify.effective_resistance_report(g, res.graph)
    spectral_eps = verify.check_spectral(g, res.graph, target=np.inf).measured_eps
    kvecs = sketches.resistance_pairs(g)
    sketch_eps = verify.check_sketch(g, res.graph, kvecs, target=np.inf).measured_eps
    assert worst <= c_r * eps
    assert spectral_eps <= c_r * np.sqrt(eps)
    assert sketch_eps <= c_r * eps
    report(11, f"edges {g.m} -> {res.graph.m}, worst resistance ratio "
               f"{worst:.3f}, premises ({spectral_eps:.3f}, {sketch_eps:.3f})")


def test_criterion_12_determinism(tmp_path):
    fixtures = {}
    k12 = complete_graph(12)
    fixtures["k12"] = cli.serialize_graph(k12)
    fixtures["dumbbell"] = cli.serialize_graph(dumbbell_graph(8))
    fixtures["cycle_d"] = cli.serialize_graph(
        Graph(8, tuple((i, (i + 1) % 8, 1.0) for i in range(8)), directed=True)
    )
    for name, text in fixtures.items():
        (tmp_path / f"{name}.txt").write_text(text)
    rng = np.random.default_rng(7)
    vec_text = "\n".join(
        " ".join(repr(float(x)) for x in row) for row in rng.normal(size=(14, 12))
    )
    (tmp_path / "vecs.txt").write_text(vec_text + "\n")

    commands = [
        ("partial-color", ["partial-color", "k12.txt"]),
        ("sparsify", ["sparsify", "k12.txt", "--epsilon", "0.5"]),
        ("uc", ["uc", "k12.txt", "--epsilon", "0.5"]),
        ("sv", ["sv", "cycle_d.txt", "--epsilon", "0.5"]),
        (
            "sketch",
            ["sketch", "k12.txt", "--vectors", "vecs.txt", "--epsilon", "0.4"],
        ),
        ("resist", ["resist", "k12.txt", "--epsilon", "0.5"]),
        ("decompose", ["decompose", "dumbbell.txt", "--phi-target", "0.1"]),
        ("verify", ["verify", "k12.txt", "k12.txt"]),
    ]
    for name, argv in commands:
        snapshots = []
        for run_tag in ("r1", "r2"):
            out = tmp_path / f"{name}_{run_tag}.out"
            rep = tmp_path / f"{name}_{run_tag}.json"
            full = list(argv)
            full[1] = str(tmp_path / argv[1])
            if "--vectors" in full:
                full[full.index("--vectors") + 1] = str(tmp_path / "vecs.txt")
            if name == "verify":
                full[2] = str(tmp_path / argv[2])
            full += ["--report", str(rep)]
            if name not in ("decompose", "verify"):
                full += ["--out", str(out)]
            code = cli.main(full)
            assert code == 0, f"{name} exited {code}"
            out_bytes = out.read_bytes() if out.exists() else b""
            snapshots.append((out_bytes, rep.read_bytes()))
        assert snapshots[0] == snapshots[1], f"{name} is not deterministic"
    report(12, f"{len(commands)} commands byte-identical across reruns")


def test_criterion_13_linalg_property_suite():
    # interlacing
    for seed in range(100):
        rng = np.random.default_rng(seed)
        nn = int(rng.integers(3, 9))
        a = random_symmetric(nn, seed=seed + 1000)
        k = int(rng.integers(1, nn))
        idx = np.sort(rng.choice(nn, size=k, replace=False))
        alpha = linalg.eigvalsh(a)
        beta = linalg.eigvalsh(a[np.ix_(idx, idx)])
        for i in range(k):
            assert alpha[i] <= beta[i] + 1e-9
            assert beta[i] <= alpha[nn - k + i] + 1e-9
    # trace product inequality
    for seed in range(100):
        nn = 3 + seed % 6
        rng = np.random.default_rng(seed)
        ra = rng.normal(size=(nn, nn))
        rb = rng.normal(size=(nn, nn))
        a = ra @ ra.T / nn
        b = rb @ rb.T / nn
        c = random_symmetric(nn, seed=seed + 77)
        cabs = linalg.matrix_function(c, "abs")
        assert np.trace(a @ c @ b @ c) <= np.trace(a @ cabs) * np.trace(b @ cabs) + 1e-9
    # bipartite spectrum symmetry and the lambda_max = 2 characterization
    symmetric_checked = 0
    for seed in range(100):
        rng = np.random.default_rng(seed)
        a, b = int(rng.integers(2, 6)), int(rng.integers(2, 6))
        edges = [
            (i, a + j, 1.0) for i in range(a) for j in range(b) if rng.random() < 0.7
        ]
        if not edges:
            continue
        g = Graph(a + b, tuple(edges))
        if len(g.non_isolated()) < g.n:
            continue
        w = linalg.eigvalsh(g.normalized_laplacian())
        assert np.max(np.abs(w + w[::-1] - 2.0)) <= 1e-9
        assert abs(w[-1] - 2.0) <= 1e-9
        symmetric_checked += 1
    assert symmetric_checked >= 50
    w = linalg.eigvalsh(complete_graph(7).normalized_laplacian())
    assert w[-1] < 2.0 - 1e-6
    # eigendecomposition reconstruction
    for seed in range(100):
        nn = 2 + seed % 7
        a = random_symmetric(nn, seed=seed)
        w, v = linalg.eigh(a)
        assert linalg.operator_norm((v * w) @ v.T - a) <= 1e-10 * max(
            1.0, linalg.operator_norm(a)
        )
    report(13, "interlacing, trace inequality, bipartite facts, reconstruction x100")
