"""Regularized max-eigenvalue potential: normalizer, optimizer, increase bound."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import random_symmetric
from walksparse import linalg, potential
from walksparse.errors import InvalidInput, StepTooLarge, WalksparseError

# Frozen oracle: brentq on u^-2 + (u-1)^-2 = 1 over (1, 1 + sqrt(2)]
# (monotone bracket), xtol 1e-15.
U_STAR_TWO_POINT = 2.1322418823119


class TestNormalizer:
    def test_zero_matrix(self):
        for n in (1, 3, 9):
            u = potential.solve_normalizer_from_eigenvalues(np.zeros(n), eta=0.7)
            assert abs(u - np.sqrt(n)) <= 1e-9

    def test_single_zero_eigenvalue(self):
        assert abs(potential.solve_normalizer_from_eigenvalues(np.zeros(1), 1.0) - 1.0) <= 1e-12

    def test_two_point_spectrum(self):
        u = potential.solve_normalizer_from_eigenvalues(np.array([0.0, 1.0]), 1.0)
        assert abs(u - U_STAR_TWO_POINT) <= 1e-9

    def test_residual_random(self):
        for seed in range(30):
            a = random_symmetric(5, seed=seed)
            eta = 0.5 + (seed % 4)
            w = linalg.eigvalsh(a)
            u = potential.solve_normalizer_from_eigenvalues(w, eta)
            resid = abs(np.sum((u - eta * w) ** -2.0) - 1.0)
            assert resid <= 1e-10

    @given(st.integers(0, 100_000), st.floats(0.1, 4.0))
    def test_residual_property(self, seed, eta):
        a = random_symmetric(4, seed=seed)
        w = linalg.eigvalsh(a)
        u = potential.solve_normalizer_from_eigenvalues(w, eta)
        assert abs(np.sum((u - eta * w) ** -2.0) - 1.0) <= 1e-10
        assert u > eta * w[-1]

    def test_newton_matches_reference_bisection(self, monkeypatch):
        # 60 bisection steps on the bracket (eta lam_max, eta lam_max + sqrt(n)]
        def reference(eigs, eta):
            scaled = eta * eigs
            top = float(scaled.max())
            lo = top + 1e-14 * max(1.0, abs(top))
            hi = top + np.sqrt(eigs.size)
            for _ in range(60):
                mid = 0.5 * (lo + hi)
                if float(((mid - scaled) ** -2).sum()) > 1.0:
                    lo = mid
                else:
                    hi = mid
            return 0.5 * (lo + hi)

        # 8 steps were the most seen on 6,300 random spectra; reaching the
        # cap raises, so a tight cap shows no spectrum here comes near it
        monkeypatch.setattr(potential, "NEWTON_STEPS", 10)
        rng = np.random.default_rng(71)
        for size in (1, 2, 3, 7, 56, 120, 300):
            for trial in range(8):
                eigs = rng.normal(scale=rng.uniform(0.01, 10.0), size=size)
                if trial % 2:
                    # ties at the top
                    eigs[: rng.integers(1, size + 1)] = eigs.max()
                eta = float(rng.uniform(0.1, 5.0))
                u = potential.solve_normalizer_from_eigenvalues(eigs, eta)
                assert u > eta * eigs.max()
                ref = reference(eigs, eta)
                assert abs(u - ref) <= 4 * abs(np.spacing(ref))

    def test_one_eigenvalue_is_exact(self):
        for lam, eta in ((0.0, 1.0), (0.3, 2.5), (-1.75, 0.5), (12.0, 0.125)):
            u = potential.solve_normalizer_from_eigenvalues(np.array([lam]), eta)
            assert u == eta * lam + 1.0

    def test_step_cap_raises(self, monkeypatch):
        monkeypatch.setattr(potential, "NEWTON_STEPS", 1)
        with pytest.raises(WalksparseError, match="Newton steps"):
            potential.solve_normalizer_from_eigenvalues(np.array([0.0, 0.5, 1.0]), 1.0)

    def test_empty_rejected(self):
        with pytest.raises(InvalidInput):
            potential.solve_normalizer_from_eigenvalues(np.array([]), 1.0)
        with pytest.raises(InvalidInput):
            potential.solve_normalizer_from_eigenvalues(np.zeros(2), eta=-1.0)


class TestOptimizer:
    def test_zero_matrix_uniform(self):
        ctx = potential.density_optimizer(np.zeros((4, 4)), eta=1.0)
        assert np.allclose(ctx.density, np.eye(4) / 4.0, atol=1e-10)

    def test_two_point_entries(self):
        ctx = potential.density_optimizer(np.diag([0.0, 1.0]), eta=1.0)
        u = ctx.u
        expected = np.diag([u**-2.0, (u - 1.0) ** -2.0])
        assert np.allclose(ctx.density, expected, atol=1e-9)
        assert abs(np.trace(ctx.density) - 1.0) <= 1e-9

    def test_positive_definite(self):
        for seed in range(10):
            a = random_symmetric(5, seed=seed)
            ctx = potential.density_optimizer(a, eta=1.3)
            assert linalg.eigvalsh(ctx.density)[0] > 0
            assert abs(np.trace(ctx.density) - 1.0) <= 1e-9
            assert ctx.u > ctx.eta * linalg.eigvalsh(a)[-1]


class TestPotentialValue:
    def test_at_origin(self):
        # Phi(0) = 2 sqrt(n)/eta exactly (u = sqrt(n), trace of inverse = sqrt(n))
        for n in (1, 4, 7):
            eta = 0.9
            ctx = potential.density_optimizer(np.zeros((n, n)), eta)
            assert abs(potential.potential_value(ctx) - 2.0 * np.sqrt(n) / eta) <= 1e-9

    def test_scalar_case(self):
        ctx = potential.density_optimizer(np.zeros((1, 1)), 1.0)
        assert abs(potential.potential_value(ctx) - 2.0) <= 1e-12

    def test_sandwich_random(self):
        # eigen oracle for lambda_max on both sides of the sandwich
        for seed in range(25):
            a = random_symmetric(5, seed=seed, scale=2.0)
            eta = 0.4 + 0.3 * (seed % 3)
            ctx = potential.density_optimizer(a, eta)
            phi = potential.potential_value(ctx)
            lam_max = float(linalg.eigvalsh(a)[-1])
            assert lam_max <= phi + 1e-8
            assert phi <= lam_max + 2.0 * np.sqrt(5) / eta + 1e-8


class TestIncreaseBound:
    def test_zero_step(self):
        ctx = potential.density_optimizer(random_symmetric(4, seed=1), eta=1.0)
        lhs, rhs, ok = potential.verify_increase_bound(ctx, np.zeros((4, 4)))
        assert ok and abs(lhs) <= 1e-10 and abs(rhs) <= 1e-10

    def _admissible_step(self, ctx, seed):
        b = random_symmetric(ctx.a_of_x.shape[0], seed=seed)
        norm = linalg.spectral_norm(ctx.density_sqrt @ (ctx.eta * b))
        return b * (0.4 / max(norm, 1e-12))

    def test_hundred_random_instances(self):
        for seed in range(100):
            n = 2 + seed % 5
            a = random_symmetric(n, seed=seed)
            ctx = potential.density_optimizer(a, eta=0.8)
            y = self._admissible_step(ctx, seed + 10_000)
            lhs, rhs, ok = potential.verify_increase_bound(ctx, y)
            assert ok, f"seed {seed}: lhs={lhs} rhs={rhs}"

    def test_negated_step_also_bounded(self):
        # the second-order term is even in y
        a = random_symmetric(4, seed=5)
        ctx = potential.density_optimizer(a, eta=0.8)
        y = self._admissible_step(ctx, 77)
        _, _, ok_pos = potential.verify_increase_bound(ctx, y)
        _, _, ok_neg = potential.verify_increase_bound(ctx, -y)
        assert ok_pos and ok_neg

    def test_step_too_large(self):
        ctx = potential.density_optimizer(np.zeros((3, 3)), eta=1.0)
        big = 10.0 * np.eye(3)
        with pytest.raises(StepTooLarge):
            potential.verify_increase_bound(ctx, big)

    def test_convexity_direction(self):
        # frozen-normalizer value dominates the true potential at x + y
        for seed in range(50):
            n = 2 + seed % 5
            a = random_symmetric(n, seed=seed)
            ctx = potential.density_optimizer(a, eta=0.8)
            y = self._admissible_step(ctx, seed + 500)
            w = linalg.eigvalsh(a + y)
            frozen = (np.sum(1.0 / (ctx.u - ctx.eta * w)) + ctx.u) / ctx.eta
            true_phi = potential.potential_value(potential.density_optimizer(a + y, ctx.eta))
            assert frozen >= true_phi - 1e-8


class TestTraceInverseExpansion:
    def test_second_order_coefficient_bounded(self):
        # c = (tr((A - eta B)^-1) - tr(A^-1) - eta tr(A^-1 B A^-1))
        #     / (eta^2 tr(A^-1 B A^-1 B A^-1)) stays in [-2, 2]
        for seed in range(100):
            rng = np.random.default_rng(seed)
            n = 2 + seed % 5
            root = rng.normal(size=(n, n))
            a = root @ root.T / n + 0.3 * np.eye(n)
            b = random_symmetric(n, seed=seed + 999)
            a_inv = np.linalg.inv(a)
            eta = 0.5 / max(linalg.spectral_norm(a_inv @ b), 1e-12)
            eta *= 0.2 + 0.8 * rng.random()
            lhs = np.trace(np.linalg.inv(a - eta * b))
            first = np.trace(a_inv) + eta * np.trace(a_inv @ b @ a_inv)
            denom = eta**2 * np.trace(a_inv @ b @ a_inv @ b @ a_inv)
            if abs(denom) <= 1e-14:
                continue
            c = (lhs - first) / denom
            assert -2.0 - 1e-6 <= c <= 2.0 + 1e-6, f"seed {seed}: c={c}"
