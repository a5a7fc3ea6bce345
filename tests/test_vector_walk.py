"""Multiplicative-weights vector walk: subspace recipe and discrepancy bound."""

import numpy as np
import pytest

from conftest import in_subspace, subspace_basis
from walksparse import linalg, matrix_walk
from walksparse.errors import InvalidInput, StepTooLarge
from walksparse.matrix_walk import (
    WalkLog,
    _heaviest,
    _lanczos_direction,
    _start_vector,
    _VectorSide,
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
    return _VectorSide(rows, budget=tenth)


def update_subspace(side, x):
    """Null space of the rows the walk stacks while every coordinate is active."""
    m = x.shape[0]
    rows = side.rows(x, np.arange(m))
    if np.linalg.norm(x) > 1e-12:
        rows.append(x[None, :] / np.linalg.norm(x))
    return linalg.nullspace(np.vstack(rows) if rows else np.zeros((0, m)))


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
        unit, norms, kept = prepare_constraints(a)
        assert kept.tolist() == [False, True] and norms.tolist() == [0.0, np.sqrt(5.0)]
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
        for scale in (None, np.ones(40)):
            unit, got_norms, kept = prepare_constraints(a, scale)
            assert unit.flags["C_CONTIGUOUS"] and unit.shape == (40 - len(dropped), 9)
            assert unit.tobytes() == expect.tobytes()
            assert np.array_equal(kept, keep) and got_norms.tobytes() == norms.tobytes()
        assert np.array_equal(a, before)

    def test_walk_does_not_depend_on_the_row_layout(self):
        # the BLAS products over the rows round by their layout, so the side
        # holds one layout whatever its caller passes
        unit, _, _ = prepare_constraints(np.random.default_rng(0).normal(size=(240, 60)))
        walks = [
            matrix_walk._walk_loop(60, [tenth_side(rows)], np.zeros((0, 60)), True, None)
            for rows in (unit, np.asfortranarray(unit))
        ]
        assert walks[0].tobytes() == walks[1].tobytes()

    @pytest.mark.parametrize("seed", range(4))
    def test_rows_equal_a_row_major_gather_bit_for_bit(self, seed):
        # the side gathers its active columns as rows of the rows' transpose;
        # its gradient row, heavy rows, G and bound equal those of the
        # row-major gather a = ahat[:, active], weights @ a and a^T a
        rng = np.random.default_rng(seed)
        k, m = 300, 40
        a = rng.normal(size=(k, m))
        a[rng.integers(k)] = 0.0
        unit, _, kept = prepare_constraints(a)
        assert kept.sum() == k - 1
        side = tenth_side(np.asfortranarray(unit))
        lam = side.lambda0
        for size in (m, 1, *rng.integers(2, m, size=4)):
            active = np.sort(rng.choice(m, size=size, replace=False))
            x = np.zeros(m)
            x[active] = rng.uniform(-0.9, 0.9, size=size)
            with linalg.one_blas_thread():
                got = side.rows(x, active)
                weights = np.exp(lam * (unit @ x) - lam**2)
                a_act = unit[:, active]
                grad = weights @ a_act
                budget = int(np.ceil(0.1 * size))
                expect = [grad[None, :] / np.sqrt(grad @ grad),
                          a_act[_heaviest(weights, budget)]]
                a_act *= np.sqrt(weights / np.sum(weights))[:, None]
                gram = a_act.T @ a_act
            assert len(got) == len(expect)
            assert all(np.array_equal(g, e) for g, e in zip(got, expect))
            assert np.array_equal(side.weights, weights) and np.array_equal(side.quad, gram)
            assert side.bound == float(np.trace(gram)) / (budget + 1)


class TestSubspace:
    def test_no_constraints(self):
        sub = update_subspace(tenth_side(np.zeros((0, 10))), np.zeros(10))
        assert sub.dim == 10

    def test_orthonormal_basis_constraints(self):
        # all weights equal: the heaviest constraints are the lowest indices
        m = 10
        sub = update_subspace(tenth_side(np.eye(m)), np.zeros(m))
        heavy = int(np.ceil(m / 10.0))
        basis = subspace_basis(sub)
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
        start = _start_vector(m, 0)
        y, _, _ = _lanczos_direction(side.quad, side.bound, w, start, np.arange(m))
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
        # every step's exact potential increase is within its bound, as the loop checked it
        assert len(log.increase) == len(log.increase_bound) == log.iterations
        assert all(v <= b * (1.0 + 2e-9) for v, b in zip(log.increase, log.increase_bound))
        assert not log.step_norm
        # every iteration's y^T G y <= tr G/(cut + 1) ||y||^2, as observe checked it
        assert len(log.gram_term) == len(log.gram_bound) == log.iterations
        assert all(q <= b * (1.0 + 1e-9) for q, b in zip(log.gram_term, log.gram_bound))

    def test_membership_in_extra(self):
        m = 40
        rng = np.random.default_rng(11)
        extra = linalg.nullspace(rng.normal(size=(4, m)))
        a = gaussian_rows(80, m, seed=12)
        x = vector_partial_color(a, extra=extra)
        assert in_subspace(extra, x, tol=1e-8)

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

    @pytest.mark.parametrize("k", [-60, -45, 45, 60])
    def test_same_coloring_at_any_scale(self, k):
        # zero rows are measured against the largest row: scaling every row by
        # 2^k (exact) drops no row and leaves the walk and its ratios as they are
        a = np.random.default_rng(3).normal(size=(60, 30))
        x = vector_partial_color(a)
        scaled = a * 2.0**k
        assert np.array_equal(vector_partial_color(scaled), x)
        assert np.array_equal(discrepancy_ratios(scaled, x), discrepancy_ratios(a, x))

    def test_k_less_than_m_rejected(self):
        with pytest.raises(InvalidInput):
            vector_partial_color(gaussian_rows(10, 20, seed=1))

    def test_nonfinite_rejected(self):
        bad = np.full((25, 20), np.nan)
        with pytest.raises(InvalidInput):
            vector_partial_color(bad)


@pytest.fixture
def step_calls(monkeypatch):
    """The vector side's state at each step search: weights, unit rows,
    active coordinates, tr G/(cut + 1), the direction, the step limit and
    the cap the search returned."""
    calls = []
    rows, step_cap = _VectorSide.rows, _VectorSide.step_cap

    def recording_rows(self, x, active):
        out = rows(self, x, active)
        calls.append({"weights": self.weights.copy(), "ahat": self.ahat, "lam": self.lambda0,
                      "active": active.copy(), "bound": self.bound})
        return out

    def recording_cap(self, y_full, limit=np.inf):
        cap = step_cap(self, y_full, limit)
        calls[-1].update(y=y_full.copy(), limit=limit, cap=cap)
        return cap

    monkeypatch.setattr(_VectorSide, "rows", recording_rows)
    monkeypatch.setattr(_VectorSide, "step_cap", recording_cap)
    return calls


def steep_walk(log=None):
    """A vector walk whose boundary step overshoots the increase bound on
    some iterations: lambda0 = 20 on 1000 Gaussian rows of length 30 (the
    step rule holds for any lambda0; at the default the increase stays
    below a sixth of its bound up to the boundary on Gaussian, sparse and
    low-rank rows alike)."""
    side = tenth_side(gaussian_rows(1000, 30, seed=7))
    side.lambda0, side.base_cap = 20.0, 1.0 / 40.0
    return matrix_walk._walk_loop(30, [side], np.zeros((0, 30)), True, log)


def increase_and_bound(call, delta):
    """sum_i w_i (e^t_i - 1 - t_i) and lambda0^2 delta^2 W tr G/(cut + 1) ||y||^2
    rebuilt from a recorded step search, with G from the weights."""
    w, y, active, lam = call["weights"], call["y"], call["active"], call["lam"]
    a = call["ahat"][:, active]
    gram = (a.T * (w / np.sum(w))) @ a
    g_bound = np.trace(gram) / (int(np.ceil(0.1 * len(active))) + 1)
    assert call["bound"] == pytest.approx(g_bound, rel=1e-12)
    t = lam * delta * (call["ahat"] @ y)
    return float(np.sum(w * (np.expm1(t) - t))), lam**2 * delta**2 * np.sum(w) * g_bound * (y @ y)


class TestStepRule:
    """A step is the largest up to the box boundary whose exact potential
    increase sum_i w_i (e^{t_i} - 1 - t_i) meets its bound
    lambda0^2 delta^2 W tr G/(cut + 1) ||y||^2, found by bisection up from the
    cap 1/(2 lambda0 max_i |<a_i, y>|)."""

    @pytest.mark.parametrize("walk", [
        lambda log: vector_partial_color(gaussian_rows(400, 50, seed=7), log=log),
        steep_walk,
    ], ids=["default-lambda0", "steep"])
    def test_exact_increase_within_its_bound(self, step_calls, walk):
        log = WalkLog()
        walk(log)
        assert len(step_calls) == len(log.increase) == len(log.increase_bound) == log.iterations
        for call, delta, logged, logged_bound in zip(
                step_calls, log.delta, log.increase, log.increase_bound):
            increase, bound = increase_and_bound(call, delta)
            assert logged == pytest.approx(increase, rel=1e-9)
            assert logged_bound == pytest.approx(bound, rel=1e-9)
            assert 0.0 < logged <= logged_bound * (1.0 + 2e-9)

    def test_steps_never_below_the_half_cap(self, step_calls):
        log = WalkLog()
        steep_walk(log)
        searched = 0
        for call, delta, boundary in zip(step_calls, log.delta, log.boundary):
            half_cap = 0.5 / (call["lam"] * np.max(np.abs(call["ahat"] @ call["y"])))
            assert call["limit"] == boundary and delta == min(call["cap"], boundary)
            assert min(half_cap, boundary) <= delta <= boundary
            if delta < boundary:
                # the search stops just below the crossing: the increase
                # reaches its bound, and overshoots it a little further on
                searched += 1
                increase, bound = increase_and_bound(call, delta)
                assert increase >= bound * (1.0 - 1e-6)
                increase, bound = increase_and_bound(call, delta * (1.0 + 1e-6))
                assert increase > bound
        assert searched >= 2

    def test_a_step_past_the_crossing_is_refused(self, monkeypatch):
        step_cap = _VectorSide.step_cap

        def overshoot(self, y_full, limit):
            # a search that returns 1.5 times the crossing it found
            cap = step_cap(self, y_full, limit)
            return 1.5 * cap if cap < limit else cap

        monkeypatch.setattr(_VectorSide, "step_cap", overshoot)
        with pytest.raises(StepTooLarge, match="inadmissible step"):
            steep_walk()

    def test_search_is_deterministic(self):
        log_a, log_b = WalkLog(), WalkLog()
        x_a, x_b = steep_walk(log_a), steep_walk(log_b)
        assert x_a.tobytes() == x_b.tobytes()
        assert log_a.delta == log_b.delta and log_a.increase == log_b.increase


class TestLambdaDefault:
    def test_clamped_at_one(self):
        assert default_lambda0(10, 20) == 1.0
        assert default_lambda0(20, 20) == 1.0

    def test_grows_with_ratio(self):
        assert abs(default_lambda0(400, 50) - np.sqrt(np.log(8.0))) <= 1e-12
