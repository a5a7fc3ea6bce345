"""Multiplicative-weights vector walk: subspace recipe and discrepancy bound."""

import numpy as np
import pytest

from walksparse import linalg
from walksparse.errors import InvalidInput
from walksparse.matrix_walk import WalkLog, _heaviest, _lanczos_direction, _VectorSide
from walksparse.vector_walk import (
    default_lambda0,
    discrepancy_ratios,
    prepare_constraints,
    vector_partial_color,
)


def gaussian_rows(k, m, seed):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(k, m))
    return a / np.linalg.norm(a, axis=1)[:, None]


def tenth_side(rows):
    """The vector side as vector_partial_color builds it (1/10 budgets)."""
    tenth = lambda mt: int(np.ceil(0.1 * mt))
    return _VectorSide(rows, heavy_count=tenth, cut_count=tenth)


def update_subspace(side, x):
    """Null space of the rows the walk stacks while every coordinate is active."""
    m = x.shape[0]
    rows = side.rows(x, np.arange(m))
    if np.linalg.norm(x) > 1e-12:
        rows.append(x[None, :] / np.linalg.norm(x))
    return linalg.nullspace(np.vstack(rows) if rows else np.zeros((0, m)), m=m)


class TestState:
    def test_weights_recomputable(self):
        k, m = 300, 12
        rows = gaussian_rows(k, m, seed=1)
        rng = np.random.default_rng(2)
        x = rng.uniform(-1, 1, size=m)
        side = tenth_side(rows)
        side.rows(x, np.arange(m))
        w = side.weights
        lam = default_lambda0(k, m)
        assert lam > 1.0
        expect = np.exp(lam * rows @ x - lam**2)
        assert np.max(np.abs(w / expect - 1.0)) <= 1e-9

    def test_zero_rows_dropped(self):
        a = np.vstack([np.zeros(5), np.ones(5)])
        unit = prepare_constraints(a)
        assert unit.shape == (1, 5)
        assert abs(np.linalg.norm(unit[0]) - 1.0) <= 1e-12

    @pytest.mark.parametrize("dropped", [(), (0, 7, 19)])
    def test_unit_rows_c_ordered_from_f_ordered_input(self, dropped):
        # a sketch round's a_z rows come from column gathers (F-ordered); the
        # walk's products with the unit rows depend on their layout
        a = gaussian_rows(40, 9, seed=3) * np.arange(1.0, 41.0)[:, None]
        a[list(dropped)] = 0.0
        a = np.asfortranarray(a)
        before = a.copy()
        norms = np.linalg.norm(a, axis=1)
        keep = norms > 1e-12
        expect = a[keep] / norms[keep, None]
        for unit in (prepare_constraints(a, 9), prepare_constraints(a, 9, norms)):
            assert unit.flags["C_CONTIGUOUS"] and unit.shape == (40 - len(dropped), 9)
            assert unit.tobytes() == expect.tobytes()
        assert np.array_equal(a, before)


class TestSubspace:
    def test_no_constraints(self):
        sub = update_subspace(tenth_side(np.zeros((0, 10))), np.zeros(10))
        assert sub.dim == 10

    def test_orthonormal_basis_constraints(self):
        # all weights equal: the heaviest constraints are the lowest indices
        m = 10
        sub = update_subspace(tenth_side(np.eye(m)), np.zeros(m))
        heavy = int(np.ceil(m / 10.0))
        basis = sub.basis()
        assert np.max(np.abs(basis[:heavy, :])) <= 1e-9

    def test_random_constraints_orthogonality(self):
        # the walk's direction for these rows: orthogonal to x, the gradient
        # and the heavy rows, and certified y^T G y <= tr G/(cut + 1)
        m, k = 50, 200
        rows = gaussian_rows(k, m, seed=5)
        rng = np.random.default_rng(6)
        x = 0.3 * rng.uniform(-1, 1, size=m)
        side = tenth_side(rows)
        stacked = np.vstack([x[None, :] / np.linalg.norm(x), *side.rows(x, np.arange(m))])
        _, s, vt = np.linalg.svd(stacked, full_matrices=False)
        w = vt[: int(np.sum(s > linalg.ZERO_RTOL * s[0]))]
        y, _, _ = _lanczos_direction(side.quad, side.bound, w, m, np.arange(m))
        lam = default_lambda0(k, m)
        weights = np.exp(lam * rows @ x - lam**2)
        grad = weights @ rows
        order = np.lexsort((np.arange(k), -weights))
        heavy = order[: int(np.ceil(m / 10.0))]
        assert abs(np.linalg.norm(y) - 1.0) <= 1e-9
        assert abs(np.dot(y, x)) <= 1e-9
        assert abs(np.dot(grad, y)) <= 1e-9 * max(1.0, np.linalg.norm(grad))
        assert np.max(np.abs(rows[heavy] @ y)) <= 1e-9
        # reference weighted second moment
        scaled = np.sqrt(weights / np.sum(weights))[:, None] * rows
        w_gram = scaled.T @ scaled
        cut = int(np.ceil(m / 10.0))
        assert float(y @ w_gram @ y) <= np.trace(w_gram) / (cut + 1)
        assert np.allclose(side.quad, w_gram, rtol=0.0, atol=1e-14)


@pytest.mark.parametrize("weights", [
    np.random.default_rng(7).lognormal(size=300),
    # ties at and around the cut, zeros included
    np.random.default_rng(8).choice([0.0, np.exp(-4.0), 0.5, 1.0, 3.0], size=300),
    np.ones(300),
])
@pytest.mark.parametrize("count", [1, 30, 299, 300])
def test_heaviest_matches_full_lexsort(weights, count):
    # the heavy rows are the first `count` of a full (-weight, index) sort
    want = np.lexsort((np.arange(len(weights)), -weights))[:count]
    assert np.array_equal(_heaviest(weights, count), want)


class TestVectorPartialColor:
    def test_zero_constraints(self):
        x = vector_partial_color(np.zeros((25, 20)))
        assert np.count_nonzero(np.abs(x) == 1.0) >= 5
        assert np.max(np.abs(x)) <= 1.0

    def test_basis_vectors(self):
        m = 30
        x = vector_partial_color(np.eye(m))
        assert np.max(np.abs(x)) <= 1.0
        assert np.count_nonzero(np.abs(x) == 1.0) >= m / 4

    def test_gaussian_bound(self):
        m, k = 50, 400
        a = gaussian_rows(k, m, seed=7)
        log = WalkLog()
        x = vector_partial_color(a, log=log)
        ratios = discrepancy_ratios(a, x)
        bound = 12.0 * max(1.0, np.sqrt(np.log(k / m)))
        assert float(np.max(ratios)) <= bound
        assert np.count_nonzero(np.abs(x) == 1.0) >= m / 4
        assert max(log.step_norm) <= 0.5 + 1e-9
        # every iteration's y^T G y <= tr G/(cut + 1) ||y||^2, as observe checked it
        assert len(log.gram_term) == len(log.gram_bound) == log.iterations
        assert all(q <= b * (1.0 + 1e-9) for q, b in zip(log.gram_term, log.gram_bound))

    def test_membership_in_extra(self):
        m = 40
        rng = np.random.default_rng(11)
        extra = linalg.nullspace(rng.normal(size=(4, m)))
        a = gaussian_rows(80, m, seed=12)
        x = vector_partial_color(a, extra=extra)
        assert extra.contains(x, tol=1e-8)

    def test_deterministic(self):
        a = gaussian_rows(60, 30, seed=13)
        assert np.array_equal(vector_partial_color(a), vector_partial_color(a))

    def test_reruns_identical_in_one_process(self):
        # the Lanczos starts are drawn per call, so a walk of another size in
        # between changes nothing
        a = gaussian_rows(120, 40, seed=14)
        x1 = vector_partial_color(a)
        vector_partial_color(gaussian_rows(60, 30, seed=13))
        assert np.array_equal(x1, vector_partial_color(a))

    def test_k_less_than_m_rejected(self):
        with pytest.raises(InvalidInput):
            vector_partial_color(gaussian_rows(10, 20, seed=1))

    def test_nonfinite_rejected(self):
        bad = np.full((25, 20), np.nan)
        with pytest.raises(InvalidInput):
            vector_partial_color(bad)


class TestLambdaDefault:
    def test_clamped_at_one(self):
        assert default_lambda0(10, 20) == 1.0
        assert default_lambda0(20, 20) == 1.0

    def test_grows_with_ratio(self):
        assert abs(default_lambda0(400, 50) - np.sqrt(np.log(8.0))) <= 1e-12
