"""Deterministic discrepancy walk for matrix partial coloring.

Given symmetric matrices A_1..A_m with sum_i |A_i| <= I and a constraint
subspace H of dimension >= (4/5) m, `partial_color` returns x in [-1,1]^m
with at least m/4 coordinates at +-1, x in H, and

    || sum_i x(i) A_i ||_op <= 16 sqrt(2 n / m).

The operator norm is tracked through the block doubling diag(A_i, -A_i),
whose top eigenvalue equals the norm of the original aggregate; the walk
never materializes the doubled matrices, it works with the +- spectra of
the original blocks.

Families are direct sums of blocks, each either a dense stack of symmetric
matrices or a rank-one factorization A_i = w_i g_i g_i^T.  The rank-one
path evaluates the step quadratic-form matrix

    N(i,j) = tr(M^{1/2} A_i M^{1/2} A_j M^{1/2})

through Hadamard products of small Gram matrices, which keeps each walk
iteration at O(n m^2) instead of O(m^2 n^2) and is what makes the graph
pipelines run at desk scale.

Each iteration takes the update direction y from null(R) for the stacked
unit constraint rows R (the current point, the linear potential term
i -> tr(M A_i), the caller's subspace H) over the active, not yet frozen,
coordinates.  Each side also gives a PSD form Q_s with a bound b_s: N with
tr N/(m_t - keep + 1) on the matrix side, the weighted Gram matrix G of the
constraint directions with tr G/(cut + 1) on the vector side.  One
Householder QR of R^T (`linalg.orthonormalize`; its rank test takes the
singular values of the small triangular factor only) gives orthonormal rows
W spanning the rows of R; Lanczos on Q = sum_s (b_0/b_s) Q_s with full
reorthogonalization against W and its Krylov basis, from fixed pseudo-random
starts (the next one at each breakdown), returns the smallest Ritz vector of
Q on null(R), extending until y^T Q y <= b_0 ||y||^2.  Every term is PSD, so
that meets each side's bound, and fewer than tr Q / b_0 eigenvalues of Q
exceed b_0.  The walk advances with step min(cap, distance to the [-1,1]^m
boundary).

The matrix side's cap 1/(2 eta ||M^{1/2} A(y)||_op) is screened with the
Frobenius bound ||.||_F >= ||.||_op: where that cap already clears the
largest step the walk can take, the walk takes the same step either way and
no SVD runs; otherwise the exact norm decides.  The admissibility figure
eta delta ||M^{1/2} A(y)|| that the walk checks (<= 1/2) and logs as
`WalkLog.step_norm` is taken with the bound the cap came from: the
Frobenius norm when screened, the exact norm otherwise.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import linalg
from .errors import InvalidInput, StepTooLarge, SubspaceExhausted, WalksparseError
from .linalg import Subspace
from .potential import solve_normalizer_from_eigenvalues

_ROW_DROP_TOL = 1e-12
_FREEZE_TOL = 1e-9
# |r . y| allowed for a stacked unit constraint row r and the chosen direction y
_RESIDUAL_TOL = 1e-8
# Lanczos steps before the first Ritz check, and per extension after it
LANCZOS_STEPS = 20
# a Krylov vector that keeps less than this share of its norm through
# reorthogonalization ends its Krylov sequence (breakdown)
_BREAKDOWN_TOL = 1e-8
# rows of N scaled per pass by the weight products w_i w_j
_ROW_BLOCK = 64
# relative margin by which a Frobenius step cap must clear the step limit
# before it stands in for the exact operator-norm cap
_SCREEN_MARGIN = 1e-9


# ---------------------------------------------------------------------------
# matrix families


class Rank1Block:
    """Block whose members are w_i g_i g_i^T with w_i >= 0."""

    def __init__(self, vectors, weights=None):
        vectors = np.asarray(vectors, dtype=float)
        if vectors.ndim != 2:
            raise InvalidInput("rank-one block expects an (n, m) array of columns")
        self.vectors = vectors
        m = vectors.shape[1]
        if weights is None:
            weights = np.ones(m)
        self.weights = np.asarray(weights, dtype=float)
        if self.weights.shape != (m,):
            raise InvalidInput("weights length does not match the number of members")
        if not np.all(np.isfinite(vectors)) or not np.all(np.isfinite(self.weights)):
            raise InvalidInput("non-finite family data")
        if np.any(self.weights < 0):
            raise InvalidInput("rank-one block weights must be nonnegative")

    @property
    def dim(self):
        return self.vectors.shape[0]

    @property
    def size(self):
        return self.vectors.shape[1]

    def member(self, i):
        g = self.vectors[:, i]
        return self.weights[i] * np.outer(g, g)

    def aggregate(self, coeffs):
        gw = self.vectors * (np.asarray(coeffs) * self.weights)
        return linalg.sym(gw @ self.vectors.T)

    def abs_aggregate(self):
        # members are PSD, so |A_i| = A_i
        return self.aggregate(np.ones(self.size))

    def scaled(self, coeffs):
        return Rank1Block(self.vectors, self.weights * np.asarray(coeffs, dtype=float))

    def restricted(self, idx):
        return Rank1Block(self.vectors[:, idx], self.weights[idx])


class DenseBlock:
    """Block holding an explicit stack of symmetric matrices."""

    def __init__(self, mats):
        mats = np.asarray(mats, dtype=float)
        if mats.ndim != 3 or mats.shape[1] != mats.shape[2]:
            raise InvalidInput("dense block expects an (m, n, n) stack")
        if not np.all(np.isfinite(mats)):
            raise InvalidInput("non-finite family data")
        self.mats = 0.5 * (mats + np.swapaxes(mats, 1, 2))

    @property
    def dim(self):
        return self.mats.shape[1]

    @property
    def size(self):
        return self.mats.shape[0]

    def member(self, i):
        return self.mats[i]

    def aggregate(self, coeffs):
        return linalg.sym(np.einsum("i,ijk->jk", np.asarray(coeffs, dtype=float), self.mats))

    def abs_aggregate(self):
        total = np.zeros((self.dim, self.dim))
        for i in range(self.size):
            total += linalg.matrix_function(self.mats[i], "abs")
        return linalg.sym(total)

    def scaled(self, coeffs):
        return DenseBlock(self.mats * np.asarray(coeffs, dtype=float)[:, None, None])

    def restricted(self, idx):
        return DenseBlock(self.mats[idx])


class MatrixFamily:
    """Direct sum of blocks sharing one coloring coordinate per member."""

    def __init__(self, blocks):
        blocks = list(blocks)
        if not blocks:
            raise InvalidInput("family needs at least one block")
        sizes = {b.size for b in blocks}
        if len(sizes) != 1:
            raise InvalidInput("all blocks must have the same member count")
        self.blocks = blocks
        self.m = blocks[0].size
        self.n = sum(b.dim for b in blocks)

    @classmethod
    def from_matrices(cls, mats):
        return cls([DenseBlock(np.asarray(mats, dtype=float))])

    @classmethod
    def from_rank_one(cls, vectors, weights=None):
        return cls([Rank1Block(vectors, weights)])

    def member(self, i):
        return linalg.block_diag(*[b.member(i) for b in self.blocks])

    def members(self):
        return [self.member(i) for i in range(self.m)]

    def aggregate(self, x):
        return linalg.block_diag(*[b.aggregate(x) for b in self.blocks])

    def abs_aggregate_norm(self):
        return max(linalg.operator_norm(b.abs_aggregate()) for b in self.blocks)

    def aggregate_norm(self, x):
        return max(linalg.operator_norm(b.aggregate(x)) for b in self.blocks)

    def scaled(self, coeffs):
        coeffs = np.asarray(coeffs, dtype=float)
        if coeffs.shape != (self.m,):
            raise InvalidInput("coefficient length mismatch")
        return MatrixFamily([b.scaled(coeffs) for b in self.blocks])

    def restricted(self, idx):
        idx = np.asarray(idx, dtype=int)
        return MatrixFamily([b.restricted(idx) for b in self.blocks])


def as_family(family):
    if isinstance(family, MatrixFamily):
        return family
    return MatrixFamily.from_matrices(np.asarray(family, dtype=float))


@dataclass
class DoubledFamily:
    """Explicit diag(A_i, -A_i) doubling of a family (reference form).

    The walk itself uses the implicit +- spectra; this materialized form
    backs the public quadratic-form operation and the tests.
    """

    original: list
    doubled: list

    @classmethod
    def from_matrices(cls, mats):
        original = [linalg.sym(np.asarray(a, dtype=float)) for a in mats]
        doubled = [linalg.block_diag(a, -a) for a in original]
        return cls(original=original, doubled=doubled)

    @classmethod
    def from_family(cls, family):
        return cls.from_matrices(as_family(family).members())


# ---------------------------------------------------------------------------
# walk state and options


@dataclass
class WalkOptions:
    """Walk switches; eta = sqrt(m)/4 and the step cap 1/(2 eta) are fixed.

    With adaptive_steps the cap is raised to 1/(2 eta ||M^{1/2} A(y)||_op),
    which preserves the admissibility condition exactly while letting the
    walk reach the box boundary in far fewer iterations.
    """

    adaptive_steps: bool = False


@dataclass
class WalkLog:
    """Per-iteration trace used by invariant tests and diagnostics.

    step_norm is the largest certified admissibility figure over the sides:
    eta delta times the matrix side's product bound (the Frobenius norm of
    M^{1/2} A(y) when the screen passes, its operator norm otherwise), or
    lambda0 delta max_i |<a_i, y>| on the vector side; it is never below the
    exact figure and never above 1/2.
    """

    m: int = 0
    m_t: list = field(default_factory=list)
    delta: list = field(default_factory=list)
    linear_term: list = field(default_factory=list)
    quad_term: list = field(default_factory=list)
    step_norm: list = field(default_factory=list)
    phi: list = field(default_factory=list)
    norm_sq: list = field(default_factory=list)
    lanczos_steps: list = field(default_factory=list)
    quad_bound: list = field(default_factory=list)
    gram_term: list = field(default_factory=list)
    gram_bound: list = field(default_factory=list)
    iterations: int = 0


# ---------------------------------------------------------------------------
# per-iteration spectral state of the (implicitly doubled) aggregate


class _BlockSpectra:
    def __init__(self, family, x, eta):
        self.family = family
        self.eta = eta
        self.lams = []
        self.vecs = []
        for b in family.blocks:
            w, v = linalg.eigh(b.aggregate(x))
            self.lams.append(w)
            self.vecs.append(v)
        doubled = np.concatenate([np.concatenate([w, -w]) for w in self.lams])
        self.u = solve_normalizer_from_eigenvalues(doubled, eta)
        # (u -+ eta lam)^{-1}: eigenvalues of the two half-blocks of M^{1/2}
        self.d_plus = [1.0 / (self.u - eta * w) for w in self.lams]
        self.d_minus = [1.0 / (self.u + eta * w) for w in self.lams]

    def potential(self):
        tr_inv = sum(np.sum(dp) + np.sum(dm) for dp, dm in zip(self.d_plus, self.d_minus))
        return float((tr_inv + self.u) / self.eta)

    def quad_and_linear(self, active):
        """N over the active members and the linear-term row tr(M A_i)."""
        m_t = len(active)
        n_mat = np.zeros((m_t, m_t))
        linear = np.zeros(m_t)
        for blk, dp, dm, v in zip(self.family.blocks, self.d_plus, self.d_minus, self.vecs):
            if isinstance(blk, Rank1Block):
                w_act = blk.weights[active]
                c = v.T @ blk.vectors[:, active]
                for d in (dp, dm):
                    p = np.sqrt(d)[:, None] * c
                    q = d[:, None] * c
                    s_gram = p.T @ p
                    s_gram *= q.T @ q
                    # the w_i w_j factor a block of rows at a time: no m_t x m_t outer product
                    for lo in range(0, m_t, _ROW_BLOCK):
                        hi = lo + _ROW_BLOCK
                        s_gram[lo:hi] *= w_act[lo:hi, None] * w_act
                    n_mat += s_gram
                    del s_gram
                linear += w_act * ((dp**2 - dm**2) @ (c * c))
            else:
                mats = blk.mats[active]
                tilde = np.matmul(v.T[None, :, :], np.matmul(mats, v))
                for d in (dp, dm):
                    xs = np.sqrt(d)[None, :, None] * tilde * d[None, None, :]
                    flat = xs.reshape(m_t, -1)
                    n_mat += flat @ flat.T
                linear += np.einsum("ikk,k->i", tilde, dp**2 - dm**2)
        # each term is a syrk output times a symmetric factor, so N is exactly symmetric
        return n_mat, linear

    def product_norm(self, y, step_limit=np.inf):
        """Certified bound on ||M^{1/2} A(y)||_op for the doubled aggregate of
        direction y.

        M^{1/2} A(y) is D V^T A(y) V per block and sign, for D = diag(d_+-).
        The bound is the largest ||D V^T A(y) V||_F when its step cap
        1/(2 eta ||.||_F) clears step_limit by _SCREEN_MARGIN: the exact cap
        then clears it too, so a step of at most step_limit is the same
        under either.  Otherwise it is the exact norm, one SVD per block
        and sign.
        """
        products = []
        frob = 0.0
        for blk, dp, dm, v in zip(self.family.blocks, self.d_plus, self.d_minus, self.vecs):
            b = v.T @ blk.aggregate(y) @ v
            row_sq = np.einsum("ij,ij->i", b, b)
            for d in (dp, dm):
                frob = max(frob, float(np.sqrt((d * d) @ row_sq)))
                products.append((d, b))
        # the cap 1/(2 eta frob) is at least step_limit (1 + _SCREEN_MARGIN)
        if 2.0 * self.eta * frob * step_limit * (1.0 + _SCREEN_MARGIN) <= 1.0:
            return frob
        return max(linalg.spectral_norm(d[:, None] * b) for d, b in products)


# ---------------------------------------------------------------------------
# constraint-side plumbing for the shared walk loop


def default_lambda0(k, m):
    """max(1, sqrt(log(k/m))), with the log clamped at zero for k <= m."""
    if k <= 0 or m <= 0:
        return 1.0
    return float(max(1.0, np.sqrt(max(0.0, np.log(k / m)))))


def _start_vector(m, restart):
    """Fixed pseudo-random Lanczos start over a walk's m coordinates.

    A pure function of (m, restart), so reruns in one process repeat
    exactly.  It is not a smooth function of the coordinate index: such a
    start correlates with the edge order of a graph family.
    """
    return np.random.default_rng([m, restart]).standard_normal(m)


def _lanczos_direction(quad, bound, w, m, active):
    """Unit smallest-Ritz vector of quad on null(w) meeting the bound.

    w holds orthonormal rows.  Lanczos with full reorthogonalization against
    w and the Krylov basis runs at least LANCZOS_STEPS steps (or to
    dim null(w)) and extends LANCZOS_STEPS at a time until the Ritz value
    certifies y^T quad y <= bound; a breakdown restarts from the next fixed
    start over the walk's m coordinates.  Returns (y, Ritz value, steps) and
    raises SubspaceExhausted when null(w) is used up first.
    """
    m_t, r = quad.shape[0], w.shape[0]
    dim = m_t - r
    k = 0
    target = min(dim, LANCZOS_STEPS)
    # rows 0..r-1 hold w, rows r..r+k-1 the Krylov basis; both arrays hold
    # the rows a search fills so far and grow when it extends
    basis = np.empty((r + target, m_t))
    basis[:r] = w
    q_basis = np.empty((target, m_t))
    restart = failed = 0
    v = None
    while True:
        fresh = v is None
        if fresh:
            v = _start_vector(m, restart)[active]
            restart += 1
        before = float(np.sqrt(v @ v))
        done = basis[: r + k]
        for _ in range(2):
            v = v - (done @ v) @ done
        after = float(np.sqrt(v @ v))
        if after <= _BREAKDOWN_TOL * before:
            # a generic start breaks down only by lying in span(w, Krylov
            # basis); m_t such starts mean that span is numerically R^m_t
            failed += fresh
            if failed >= m_t:
                raise SubspaceExhausted(
                    f"{failed} Lanczos starts lie in the constraint and Krylov span "
                    f"({r} + {k} of {m_t} dimensions)"
                )
            v = None
            continue
        basis[r + k] = v / after
        q_basis[k] = quad @ basis[r + k]
        k += 1
        if k == target:
            krylov = basis[r : r + k]
            theta, s = np.linalg.eigh(linalg.sym(krylov @ q_basis[:k].T))
            if theta[0] <= bound:
                return s[:, 0] @ krylov, float(theta[0]), k
            if k == dim:
                raise SubspaceExhausted(
                    f"min of y^T Q y over null(R) is {theta[0]:.6e} > "
                    f"bound {bound:.6e} at m_t={m_t}"
                )
            target = min(dim, k + LANCZOS_STEPS)
            basis = _grown(basis, r + target)
            q_basis = _grown(q_basis, target)
        v = q_basis[k - 1]


def _grown(a, rows):
    """a's rows in a new array with `rows` rows (the rest uninitialized)."""
    out = np.empty((rows, a.shape[1]))
    out[: a.shape[0]] = a
    return out


def _combined_form(sides):
    """Q = Q_0 + sum_s (b_0 / b_s) Q_s and b_0, from the first side with b_0 > 0;
    a side with bound 0 has Q_s = 0.  With one side, Q is that side's form."""
    forms = [(side.quad, side.bound) for side in sides if side.bound > 0.0]
    quad, bound = forms[0] if forms else (sides[0].quad, 0.0)
    for q_s, b_s in forms[1:]:
        # the sum lands in the scaled term, never in a side's own form
        term = (bound / b_s) * q_s
        quad = np.add(quad, term, out=term)
    return quad, bound


def _certify(quad_mat, bound, y_act, form, bound_name):
    """Raise unless y^T Q y <= b ||y||^2; returns (y^T Q y, b ||y||^2)."""
    quad = float(y_act @ quad_mat @ y_act)
    limit = bound * float(y_act @ y_act)
    if quad > limit * (1.0 + 1e-9) + 1e-12:
        raise WalksparseError(
            f"walk invariant failed: {form} = {quad:.6e} > {bound_name} ||y||^2 = {limit:.6e}"
        )
    return quad, limit


class _MatrixSide:
    """Linear-term and quadratic-term constraints of the potential walk.

    eta = sqrt(m)/4 for the family's m members; the fixed step cap is
    1/(2 eta).  `rows` builds N and the linear term and returns the
    linear-term row; its quadratic form is N with bound
    tr N / (m_t - keep + 1) for keep = keep_count(m_t), which the keep-th
    smallest eigenvalue of the PSD matrix N never exceeds.
    """

    def __init__(self, family, keep_count):
        self.family = family
        self.eta = 0.25 * np.sqrt(family.m)
        self.base_cap = 1.0 / (2.0 * self.eta)
        self.keep_count = keep_count
        self.spectra = None
        self.quad = None
        self.bound = 0.0
        self._linear = None
        self._prod = 0.0

    def rows(self, x, active):
        # drop the previous iteration's forms before building the next
        self.spectra = self.quad = None
        self.spectra = _BlockSpectra(self.family, x, self.eta)
        self.quad, linear = self.spectra.quad_and_linear(active)
        self._linear = linear
        m_t = len(active)
        keep = self.keep_count(m_t)
        if keep <= 0:
            raise SubspaceExhausted("low-eigenspace budget is empty")
        self.bound = float(np.trace(self.quad)) / (m_t - keep + 1)
        lin_norm = float(np.sqrt(linear @ linear))
        if lin_norm > _ROW_DROP_TOL:
            return [linear[None, :] / lin_norm]
        return []

    def step_cap(self, y_full, limit=np.inf):
        """Admissible step bound for direction y_full; `limit` is the largest
        step the walk can take.  The bound is exact where it binds (below
        `limit`) and may be smaller than exact elsewhere; caches the product
        bound for observe."""
        self._prod = self.spectra.product_norm(y_full, limit)
        if self._prod <= 1e-14:
            return np.inf
        return 0.5 / (self.eta * self._prod)

    def observe(self, y_act, y_full, delta, log):
        """Check admissibility and the quadratic certificate
        y^T N y <= tr N/(m_t - keep + 1) ||y||^2, and log this side's terms;
        returns the step norm eta delta times the cached product bound."""
        step_norm = self.eta * delta * self._prod
        if step_norm > 0.5 + 1e-9:
            raise StepTooLarge(
                f"inadmissible step: eta*delta*||M^(1/2)A(y)|| = {step_norm:.4f}"
            )
        quad, limit = _certify(self.quad, self.bound, y_act, "y^T N y", "tr N/(m_t - keep + 1)")
        if log is not None:
            log.linear_term.append(float(self._linear @ y_act))
            log.quad_term.append(quad)
            log.quad_bound.append(limit)
            log.phi.append(self.spectra.potential())
        return step_norm


class _VectorSide:
    """Multiplicative-weights constraints: the potential gradient and the
    heaviest rows, plus the weighted Gram matrix G = sum_i (w_i/sum w) a_i a_i^T
    as quadratic form with bound tr G/(cut + 1), which fewer than cut + 1
    eigenvalues of G exceed.  lambda0 = default_lambda0(k, m) for k unit rows
    of length m; the fixed step cap is 1/(2 lambda0).

    unit_rows must be C-ordered: the BLAS products over them take their
    rounding from that layout, so it fixes the walk's path and with it every
    sketch and resist output (`prepare_constraints` returns such rows).
    """

    def __init__(self, unit_rows, heavy_count, cut_count):
        self.ahat = np.asarray(unit_rows, dtype=float)
        self.lambda0 = default_lambda0(*self.ahat.shape)
        self.base_cap = 1.0 / (2.0 * self.lambda0)
        self.heavy_count = heavy_count
        self.cut_count = cut_count
        self.weights = None
        self.quad = None
        self.bound = 0.0
        self.max_dot = 0.0
        self.max_exponent = -np.inf

    def rows(self, x, active):
        k = self.ahat.shape[0]
        m_t = len(active)
        self.quad = None
        if k == 0:
            self.quad, self.bound = np.zeros((m_t, m_t)), 0.0
            return []
        margins = self.lambda0 * (self.ahat @ x) - self.lambda0**2
        self.max_exponent = float(np.max(margins))
        self.weights = np.exp(margins)
        a_act = self.ahat[:, active]
        rows = []
        grad = self.weights @ a_act
        g_norm = float(np.sqrt(grad @ grad))
        if g_norm > _ROW_DROP_TOL:
            rows.append(grad[None, :] / g_norm)
        heavy = self.heavy_count(m_t)
        if heavy > 0:
            rows.append(a_act[_heaviest(self.weights, min(heavy, k))])
        # a_act is a copy: scaled in place, it is the Gram factor (syrk: G is symmetric)
        a_act *= np.sqrt(self.weights / float(np.sum(self.weights)))[:, None]
        self.quad = a_act.T @ a_act
        self.bound = float(np.trace(self.quad)) / (self.cut_count(m_t) + 1)
        return rows

    def step_cap(self, y_full, limit=np.inf):
        # exact at the cost of one product with the rows, so `limit` is unused
        if self.ahat.shape[0] == 0:
            return np.inf
        self.max_dot = float(np.max(np.abs(self.ahat @ y_full)))
        if self.max_dot <= 1e-14:
            return np.inf
        return 0.5 / (self.lambda0 * self.max_dot)

    def observe(self, y_act, y_full, delta, log):
        """Check admissibility and the quadratic certificate
        y^T G y <= tr G/(cut + 1) ||y||^2; returns the step norm (None
        without constraints)."""
        if self.ahat.shape[0] == 0:
            return None
        step_norm = self.lambda0 * delta * self.max_dot
        if step_norm > 0.5 + 1e-9:
            raise StepTooLarge("inadmissible multiplicative-weights step")
        quad, limit = _certify(self.quad, self.bound, y_act, "y^T G y", "tr G/(cut + 1)")
        if log is not None:
            log.gram_term.append(quad)
            log.gram_bound.append(limit)
        return step_norm


def _heaviest(weights, count):
    """Indices of the `count` largest weights, ordered by (-weight, index):
    the first `count` entries of a full lexsort, from a partition and a sort
    of the candidates only (every weight tied with the count-th largest is a
    candidate)."""
    neg = -weights
    cut = np.partition(neg, count - 1)[count - 1]
    cand = np.flatnonzero(neg <= cut)
    return cand[np.lexsort((cand, neg[cand]))][:count]


def _walk_loop(m, sides, extra_rows, adaptive_steps, log):
    """Shared walk loop: assemble constraints, pick y, step, freeze.

    extra_rows is a (r, m) array of static linear constraints (the caller's
    subspace H plus any pinned coordinates).  Returns the final x.
    """
    x = np.zeros(m)
    active = np.arange(m)
    base_cap = min(side.base_cap for side in sides)
    max_iter = int(np.ceil(m / base_cap**2)) + m + 16
    if log is not None:
        log.m = m
    iterations = 0
    while 4 * len(active) > 3 * m:
        if iterations >= max_iter:
            raise SubspaceExhausted(f"walk did not converge within {max_iter} iterations")
        iterations += 1

        rows = []
        x_act = x[active]
        x_norm = float(np.sqrt(x_act @ x_act))
        if x_norm > _ROW_DROP_TOL:
            rows.append(x_act[None, :] / x_norm)
        for side in sides:
            rows.extend(side.rows(x, active))
        if extra_rows.shape[0]:
            restricted = extra_rows[:, active]
            norms = np.linalg.norm(restricted, axis=1)
            keep = norms > _ROW_DROP_TOL
            if np.any(keep):
                rows.append(restricted[keep] / norms[keep, None])

        m_t = len(active)
        stacked = np.vstack(rows) if rows else np.zeros((0, m_t))
        w = linalg.orthonormalize(stacked)
        if w.shape[0] >= m_t:
            raise SubspaceExhausted(
                f"update subspace is empty at m_t={m_t} with {stacked.shape[0]} "
                f"constraints in dimension {m_t}"
            )
        z, _, steps = _lanczos_direction(*_combined_form(sides), w, m, active)
        y_act = linalg.fix_signs(z[:, None])[:, 0]
        resid = float(np.max(np.abs(stacked @ y_act), initial=0.0))
        if resid > _RESIDUAL_TOL:
            raise WalksparseError(f"walk invariant failed: constraint residual {resid:.3e}")

        y_full = np.zeros(m)
        y_full[active] = y_act

        # distance to the boundary of the [-1, 1] box along y
        with np.errstate(divide="ignore"):
            pos = y_act > 1e-14
            neg = y_act < -1e-14
            dists = np.concatenate(
                [(1.0 - x_act[pos]) / y_act[pos], (-1.0 - x_act[neg]) / y_act[neg]]
            )
        boundary = float(np.min(dists)) if dists.size else np.inf

        # every side computes (and caches) its admissibility cap, exact
        # below the largest step the walk can take; in fixed mode the cap
        # is base_cap, in adaptive mode the tightest admissible bound
        # (which is never below the fixed cap)
        limit = boundary if adaptive_steps else min(base_cap, boundary)
        admissible = [side.step_cap(y_full, limit) for side in sides]
        if adaptive_steps:
            finite = [c for c in admissible if np.isfinite(c)]
            cap = min(finite) if finite else np.inf
        else:
            cap = base_cap
        delta = min(cap, boundary)
        if not np.isfinite(delta) or delta <= 0:
            raise SubspaceExhausted("no admissible step length")

        # one admissibility figure per iteration: the largest over the sides
        step_norms = [side.observe(y_act, y_full, delta, log) for side in sides]
        step_norms = [v for v in step_norms if v is not None]

        x[active] = x_act + delta * y_act

        if log is not None:
            if step_norms:
                log.step_norm.append(max(step_norms))
            log.m_t.append(m_t)
            log.lanczos_steps.append(steps)
            log.delta.append(delta)
            log.norm_sq.append(float(x @ x))

        frozen = np.abs(x[active]) >= 1.0 - _FREEZE_TOL
        if np.any(frozen):
            hit = active[frozen]
            x[hit] = np.sign(x[hit])
            active = active[~frozen]
    if log is not None:
        log.iterations = iterations
    return x


# ---------------------------------------------------------------------------
# public operations


def quad_matrix(m_density, family, active=None):
    """N(i,j) = tr(M^{1/2} A_i M^{1/2} A_j M^{1/2}) over the active members.

    Reference construction as a Gram matrix X^T X with columns
    vec(M^{1/4} A_i M^{1/2}), which keeps N numerically PSD.  `family` may be
    a DoubledFamily (its doubled members are used), a MatrixFamily, or a
    plain list of symmetric matrices.
    """
    m_density = linalg.sym(np.asarray(m_density, dtype=float))
    if abs(float(np.trace(m_density)) - 1.0) > 1e-6:
        raise InvalidInput("quad_matrix expects a density matrix (unit trace)")
    if isinstance(family, DoubledFamily):
        mats = family.doubled
    elif isinstance(family, MatrixFamily):
        mats = family.members()
    else:
        mats = [np.asarray(a, dtype=float) for a in family]
    if active is None:
        active = np.arange(len(mats))
    active = np.asarray(active, dtype=int)
    half = linalg.matrix_function(m_density, "sqrt_psd")
    quarter = linalg.matrix_function(half, "sqrt_psd")
    cols = [(quarter @ mats[i] @ half).ravel() for i in active]
    x = np.column_stack(cols) if cols else np.zeros((m_density.shape[0] ** 2, 0))
    return linalg.sym(x.T @ x)


def partial_color(family, h=None, options=None, log=None):
    """Partial fractional coloring with small operator-norm discrepancy.

    family: MatrixFamily or list of symmetric n x n matrices, sum |A_i| <= I.
    h: constraint Subspace of dimension >= (4/5) m (default: full space).
    Returns x in [-1,1]^m with >= m/4 frozen coordinates, x in H, and
    ||sum x(i) A_i||_op <= 16 sqrt(2 n / m).
    """
    family = as_family(family)
    options = options or WalkOptions()
    m = family.m
    if h is None:
        h = Subspace.full(m)
    if h.ambient_dim != m:
        raise InvalidInput("subspace ambient dimension does not match the family size")
    if h.dim < 0.8 * m - 1e-9:
        raise InvalidInput(f"constraint subspace dimension {h.dim} is below (4/5) m")
    abs_norm = family.abs_aggregate_norm()
    if abs_norm > 1.0 + 1e-8:
        raise InvalidInput(f"sum of |A_i| has operator norm {abs_norm:.6f} > 1")

    side = _MatrixSide(family, keep_count=lambda mt: int(np.floor(mt / 3.0)))
    return _walk_loop(m, [side], h.complement_rows, options.adaptive_steps, log)
