"""Regularized maximum-eigenvalue potential.

The potential of an aggregate A(x) is

    Phi(x) = max over density matrices M of <A(x), M> + (2/eta) tr(M^{1/2}),

whose unique optimizer is M = (u I - eta A(x))^{-2} with u the normalizer
making tr(M) = 1.  Given u, the closed form

    Phi(x) = (1/eta) tr((u I - eta A(x))^{-1}) + u / eta

is exact, and Phi sandwiches the maximum eigenvalue:
lambda_max(A(x)) <= Phi(x) <= lambda_max(A(x)) + 2 sqrt(n) / eta.

The normalizer comes from Newton's method on g(u) = f(u)^{-1/2}, where
f(u) = sum_i (u - eta lam_i)^{-2}.  For u > eta lam_max, g is a power mean
(exponent -2) of the gaps, so increasing and concave: from u = eta lam_max + 1,
left of the root since the top gap alone gives f >= 1, the iterates rise
monotonically to it.  They stop once a step no longer increases u.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linalg
from .errors import InvalidInput, StepTooLarge, WalksparseError

NEWTON_STEPS = 50


def solve_normalizer_from_eigenvalues(eigs, eta):
    """Normalizer u with sum_i (u - eta lam_i)^{-2} = 1 for given eigenvalues."""
    eigs = np.asarray(eigs, dtype=float)
    if eigs.size == 0:
        raise InvalidInput("cannot normalize over an empty spectrum")
    if not (eta > 0.0) or not np.isfinite(eta):
        raise InvalidInput("eta must be positive and finite")
    if not np.all(np.isfinite(eigs)):
        raise InvalidInput("non-finite eigenvalues")
    scaled = eta * eigs
    u = float(scaled.max()) + 1.0
    for _ in range(NEWTON_STEPS):
        inv = 1.0 / (u - scaled)
        f = float(inv @ inv)
        # g(u) = f^{-1/2}, g'(u) = f^{-3/2} sum_i gap_i^{-3}: u + (1 - g)/g'
        step = f * (np.sqrt(f) - 1.0) / float((inv * inv) @ inv)
        if not u + step > u:
            break
        u += step
    else:
        raise WalksparseError(f"normalizer still moving after {NEWTON_STEPS} Newton steps")
    if not abs(f - 1.0) <= 1e-10:
        raise WalksparseError(f"normalizer residual {abs(f - 1.0):.3e} above 1e-10")
    return u


@dataclass(frozen=True)
class PotentialContext:
    """Aggregate A(x) together with eta, the normalizer u and the optimizer M.

    Invariants: u > eta * lam_max(A), M = (uI - eta A)^{-2} is positive
    definite with unit trace.  eigenvalues/eigenvectors are those of A.
    """

    eta: float
    a_of_x: np.ndarray
    u: float
    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    @property
    def inv_gaps(self):
        """(u - eta lam_i)^{-1}, all positive; the eigenvalues of M^{1/2}."""
        return 1.0 / (self.u - self.eta * self.eigenvalues)

    @property
    def density(self):
        """The optimizer M."""
        d = self.inv_gaps
        v = self.eigenvectors
        return linalg.sym((v * d**2) @ v.T)

    @property
    def density_sqrt(self):
        d = self.inv_gaps
        v = self.eigenvectors
        return linalg.sym((v * d) @ v.T)


def density_optimizer(a, eta):
    """Build the potential context (u and M) for an aggregate matrix."""
    a = linalg.sym(np.asarray(a, dtype=float))
    w, v = linalg.eigh(a)
    u = solve_normalizer_from_eigenvalues(w, eta)
    return PotentialContext(eta=float(eta), a_of_x=a, u=u, eigenvalues=w, eigenvectors=v)


def potential_value(ctx):
    """Closed-form potential (1/eta)(sum_i (u - eta lam_i)^{-1} + u)."""
    return float((np.sum(ctx.inv_gaps) + ctx.u) / ctx.eta)


def verify_increase_bound(ctx, a_of_y):
    """Check the second-order potential increase bound for a step.

    Requires ||M^{1/2} eta A(y)||_op <= 1/2 (StepTooLarge otherwise).
    Returns (lhs, rhs, ok) with
      lhs = Phi(x + y) - Phi(x)
      rhs = tr(M A(y)) + 2 eta tr(M^{1/2} A(y) M^{1/2} A(y) M^{1/2})
      ok  = lhs <= rhs + 1e-8.
    """
    a_of_y = linalg.sym(np.asarray(a_of_y, dtype=float))
    mh = ctx.density_sqrt
    step_norm = linalg.spectral_norm(mh @ (ctx.eta * a_of_y))
    if step_norm > 0.5 + 1e-12:
        raise StepTooLarge(
            f"||M^(1/2) eta A(y)||_op = {step_norm:.6f} exceeds 1/2"
        )
    lhs = potential_value(density_optimizer(ctx.a_of_x + a_of_y, ctx.eta)) - potential_value(ctx)

    linear = float(np.trace(ctx.density @ a_of_y))
    b = mh @ a_of_y
    quad = float(np.trace(b @ b @ mh))
    rhs = linear + 2.0 * ctx.eta * quad
    return lhs, rhs, lhs <= rhs + 1e-8
