"""Deterministic discrepancy walk for matrix and vector partial coloring.

Given symmetric matrices A_1..A_m with sum_i |A_i| <= I and a constraint
subspace H of dimension >= (4/5) m, `partial_color` returns x in [-1,1]^m
with at least m/4 coordinates at +-1, x in H, and

    || sum_i x(i) A_i ||_op <= 16 sqrt(2 n / m).

Given constraint vectors a_1..a_k in R^m (k >= m), `vector_partial_color`
returns such an x with

    |<a_i, x>| <= C_disc * ||a_i||_2 * max(1, sqrt(log(k/m)))  for all i,

with C_disc calibrated once against a Gaussian oracle family (the tests use
12), by tracking the exponential potential sum_i exp(lambda0 <a_i/||a_i||, x>
- lambda0^2).  `prepare_constraints` decides which rows are zero, relative to
their scale.  Both run one walk loop, `_walk_loop`, with one side per kind of
constraint (`_MatrixSide`, `_VectorSide`); the resistance rounds give it both.

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
pipelines run at desk scale.  N is summed in row blocks of N_BLOCK rows, so
no m x m temporary is made.

Each iteration takes the update direction y from null(R) for the stacked
unit constraint rows R (the current point, the linear potential term
i -> tr(M A_i), the caller's subspace H) over the active, not yet frozen,
coordinates.  Each side also gives a PSD form Q_s with a bound b_s: N with
tr N/(m_t - keep + 1) on the matrix side, the weighted Gram matrix G of the
constraint directions with tr G/(cut + 1) on the vector side.  The caller's
static rows come orthonormal, and the walk keeps their restriction to the
active coordinates orthonormal: one Householder reflection per frozen
coordinate (`linalg.drop_column`), no factorization.  Only the rows that
change every iteration (the point, the linear term, the vector side's
gradient and heavy rows) are projected off them and factored, by one
Householder QR (`linalg.orthonormalize`; its rank test takes the singular
values of the small triangular factor only).  Together they give
orthonormal rows W spanning the rows of R; Lanczos on Q = sum_s (b_0/b_s) Q_s
with full reorthogonalization against W and its Krylov basis, started from
the walk's unit fixed pseudo-random start plus the direction it last took
(the next fixed start at each breakdown), returns the smallest Ritz vector
of Q on null(R), extending until y^T Q y <= b_0 ||y||^2.  Every
term is PSD, so that meets each side's bound, and fewer than tr Q / b_0
eigenvalues of Q exceed b_0.  The walk advances with step min(cap, distance
to the [-1,1]^m boundary).

Each side gives its step cap, and at the step delta the walk takes, its
admissibility term and that term's bound; the loop checks every side's pair
once per iteration and raises `StepTooLarge` from one site.  The matrix side's
term is delta eta ||M^{1/2} A(y)||_op with bound 1/2, logged as
`WalkLog.step_norm`.  Its cap 1/(2 eta ||M^{1/2} A(y)||_op) is screened with
the Frobenius bound ||.||_F >= ||.||_op: where that cap already clears the
largest step the walk can take, the walk takes the same step either way and
no SVD runs; otherwise the exact norm decides.  Its term is taken with the
bound the cap came from.  The vector side's term is the exact increase of
its potential, with the second-order bound the potential argument adds up
as bound (`_VectorSide`); both are logged as `WalkLog.increase` and
`WalkLog.increase_bound`, and its cap is the largest step that meets it.
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
# Lanczos steps before the first Ritz check, and per extension after it.  A
# search starts from the direction the walk last took, so 10 steps end as far
# inside the bound as 20 from a fixed start did: on the benchmark's seed-1
# jobs theta/b is at most 0.34 (K_28), 0.07 (lognormal), 0.08 (sketch) and
# 0.27 (resist), and no search extends.  20 such steps raised a sketch error
# to 0.344 (seed 1); 10 from the fixed start left K_28 at 1.031 x eps
LANCZOS_STEPS = 10
# a Krylov vector that keeps less than this share of its norm through
# reorthogonalization ends its Krylov sequence (breakdown)
_BREAKDOWN_TOL = 1e-8
# relative margin by which a Frobenius step cap must clear the step limit
# before it stands in for the exact operator-norm cap
_SCREEN_MARGIN = 1e-9
# bisection halvings of the vector side's step search: the step it returns
# is below the crossing by at most 2^-_STEP_SEARCH of its starting bracket
_STEP_SEARCH = 30
# rows of N per block in `_hadamard_grams`: two block x m_t Gram buffers
# stay in cache at the bench sizes (48 to 64 rows measured alike)
N_BLOCK = 64
# read-only mask of a block's strict upper triangle, mirrored below it
_STRICT_UPPER = np.triu(np.ones((N_BLOCK, N_BLOCK), dtype=bool), 1)
_STRICT_UPPER.flags.writeable = False
# slack of the precondition ||sum_i |A_i||| <= 1: a whitened family sums to a
# projection only up to its pseudoinverse's rounding, ~ machine eps / ZERO_RTOL
# (3.3e-6 on two K_16 joined by a 1.3e-8 bridge, which a 1e-8 slack refused)
FAMILY_NORM_SLACK = 1e-5


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
        start = np.zeros((self.dim, self.dim))
        return linalg.sym(sum((linalg.matrix_function(a, "abs") for a in self.mats), start))

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


def check_family_norm(family):
    """Raise InvalidInput unless ||sum_i |A_i||| <= 1 + FAMILY_NORM_SLACK,
    the precondition of every walk on a matrix family."""
    norm = family.abs_aggregate_norm()
    if norm > 1.0 + FAMILY_NORM_SLACK:
        raise InvalidInput(f"sum of |A_i| has operator norm {norm:.6f} > 1")


@dataclass
class DoubledFamily:
    """Explicit diag(A_i, -A_i) doubling of a family (reference form).

    The walk itself uses the implicit +- spectra; this materialized form
    backs the public quadratic-form operation and the tests.
    """

    doubled: list

    @classmethod
    def from_matrices(cls, mats):
        symmetric = (linalg.sym(np.asarray(a, dtype=float)) for a in mats)
        return cls([linalg.block_diag(a, -a) for a in symmetric])


# ---------------------------------------------------------------------------
# walk state and options


@dataclass
class WalkOptions:
    """Walk switches; eta = sqrt(m)/4 is fixed.

    With adaptive_steps, the default and the step of every pipeline, the cap
    is 1/(2 eta ||M^{1/2} A(y)||_op), which preserves the admissibility
    condition exactly while letting the walk reach the box boundary in far
    fewer iterations; adaptive_steps=False takes the fixed cap 1/(2 eta).
    """

    adaptive_steps: bool = True


@dataclass
class WalkLog:
    """Per-iteration trace used by invariant tests and diagnostics.

    step_norm holds one figure per iteration and matrix side: delta eta times
    the side's bound on ||M^{1/2} A(y)||, never below the exact figure and
    never above 1/2.  increase and increase_bound hold one pair per iteration
    and vector side: the exact potential increase sum_i w_i (e^{t_i} - 1 - t_i)
    of the step and its bound lambda0^2 delta^2 W tr G/(cut + 1) ||y||^2
    (both 0 for a side without rows).  boundary holds the distance to the box
    boundary along each direction, the largest step the walk could take.
    """

    m_t: list = field(default_factory=list)
    delta: list = field(default_factory=list)
    linear_term: list = field(default_factory=list)
    quad_term: list = field(default_factory=list)
    step_norm: list = field(default_factory=list)
    increase: list = field(default_factory=list)
    increase_bound: list = field(default_factory=list)
    boundary: list = field(default_factory=list)
    phi: list = field(default_factory=list)
    norm_sq: list = field(default_factory=list)
    lanczos_steps: list = field(default_factory=list)
    quad_bound: list = field(default_factory=list)
    gram_term: list = field(default_factory=list)
    gram_bound: list = field(default_factory=list)
    iterations: int = 0


# ---------------------------------------------------------------------------
# N as a sum of Hadamard products of Gram matrices


def _hadamard_grams(factors, m_t):
    """The m_t x m_t sum over (p, q) in factors of (p^T p) o (q^T q),
    exactly symmetric.

    The sum runs over row blocks of N_BLOCK rows.  A block's part on and
    right of the diagonal comes from two GEMMs per pair into two reused
    buffers, so no other m_t x m_t array is made; its part below the
    diagonal is then mirrored from the part above.
    """
    out = np.empty((m_t, m_t))
    gram_p = np.empty(min(N_BLOCK, m_t) * m_t)
    gram_q = np.empty_like(gram_p)
    for lo in range(0, m_t, N_BLOCK):
        hi = min(lo + N_BLOCK, m_t)
        shape = (hi - lo, m_t - lo)
        bp = gram_p[: shape[0] * shape[1]].reshape(shape)
        bq = gram_q[: shape[0] * shape[1]].reshape(shape)
        for j, (p, q) in enumerate(factors):
            np.matmul(p[:, lo:hi].T, p[:, lo:], out=bp)
            np.matmul(q[:, lo:hi].T, q[:, lo:], out=bq)
            if j == 0:
                np.multiply(bp, bq, out=out[lo:hi, lo:])
            else:
                bp *= bq
                out[lo:hi, lo:] += bp
        corner = out[lo:hi, lo:hi]
        np.copyto(corner.T, corner, where=_STRICT_UPPER[: hi - lo, : hi - lo])
        out[hi:, lo:hi] = out[lo:hi, hi:].T
    return out


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


def _lanczos_direction(quad, bound, w, start, active):
    """Unit smallest-Ritz vector of quad on null(w) meeting the bound.

    w holds orthonormal rows.  Lanczos with full reorthogonalization against
    w and the Krylov basis runs at least LANCZOS_STEPS steps (or to
    dim null(w)) and extends LANCZOS_STEPS at a time until the Ritz value
    certifies y^T quad y <= bound.  It starts from start[active]: the walk
    passes its unit fixed start over its m coordinates plus the direction it
    last took, zero where it was frozen.  A breakdown restarts from the next
    fixed start.  Returns (y, Ritz value, steps) and raises SubspaceExhausted
    when null(w) is used up first.
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
            v = (start if restart == 0 else _start_vector(len(start), restart))[active]
            restart += 1
        # the next Krylov row is reorthogonalized in place
        row = basis[r + k]
        row[:] = v
        before = float(np.sqrt(row @ row))
        done = basis[: r + k]
        for _ in range(2):
            row -= (done @ row) @ done
        after = float(np.sqrt(row @ row))
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
        row /= after
        np.matmul(quad, row, out=q_basis[k])
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


def _unit_row(v):
    """[v / ||v||] as a list of one row, or [] when ||v|| <= _ROW_DROP_TOL."""
    norm = float(np.sqrt(v @ v))
    return [v[None, :] / norm] if norm > _ROW_DROP_TOL else []


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
    1/(2 eta).  `rows` takes the +- spectra of the aggregate at x (one
    `linalg.eigh` per block, the normalizer u and the eigenvalues d+- of
    M^{1/2}), builds N and the linear term and returns the linear-term row;
    its quadratic form is N with bound tr N / (m_t - keep + 1) for
    keep = keep_count(m_t), which the keep-th smallest eigenvalue of the PSD
    matrix N never exceeds.
    """

    def __init__(self, family, keep_count):
        self.family = family
        self.eta = 0.25 * np.sqrt(family.m)
        self.base_cap = 1.0 / (2.0 * self.eta)
        self.keep_count = keep_count
        self.quad = None
        self.bound = 0.0

    def rows(self, x, active):
        # drop the previous iteration's form before building the next
        self.quad = None
        lams, self.vecs = zip(*(linalg.eigh(b.aggregate(x)) for b in self.family.blocks))
        doubled = np.concatenate([np.concatenate([w, -w]) for w in lams])
        self.u = solve_normalizer_from_eigenvalues(doubled, self.eta)
        # (u -+ eta lam)^{-1}: eigenvalues of the two half-blocks of M^{1/2}
        self.d_plus = [1.0 / (self.u - self.eta * w) for w in lams]
        self.d_minus = [1.0 / (self.u + self.eta * w) for w in lams]
        self.quad, self.linear = self.quad_and_linear(active)
        m_t = len(active)
        keep = self.keep_count(m_t)
        if keep <= 0:
            raise SubspaceExhausted("low-eigenspace budget is empty")
        self.bound = float(np.trace(self.quad)) / (m_t - keep + 1)
        return _unit_row(self.linear)

    def potential(self):
        tr_inv = sum(np.sum(dp) + np.sum(dm) for dp, dm in zip(self.d_plus, self.d_minus))
        return float((tr_inv + self.u) / self.eta)

    def quad_and_linear(self, active):
        """N over the active members and the linear-term row tr(M A_i)."""
        m_t = len(active)
        factors, grams = [], []
        linear = np.zeros(m_t)
        for blk, dp, dm, v in zip(self.family.blocks, self.d_plus, self.d_minus, self.vecs):
            if isinstance(blk, Rank1Block):
                w_act = blk.weights[active]
                c = v.T @ blk.vectors[:, active]
                linear += w_act * ((dp**2 - dm**2) @ (c * c))
                # sqrt(w) folded into the columns: both Gram factors carry it,
                # so their Hadamard product carries w_i w_j
                c *= np.sqrt(w_act)
                factors.extend((np.sqrt(d)[:, None] * c, d[:, None] * c) for d in (dp, dm))
            else:
                mats = blk.mats[active]
                tilde = np.matmul(v.T[None, :, :], np.matmul(mats, v))
                for d in (dp, dm):
                    xs = np.sqrt(d)[None, :, None] * tilde * d[None, None, :]
                    flat = xs.reshape(m_t, -1)
                    # a syrk output: exactly symmetric
                    grams.append(flat @ flat.T)
                linear += np.einsum("ikk,k->i", tilde, dp**2 - dm**2)
        n_mat = _hadamard_grams(factors, m_t) if factors else np.zeros((m_t, m_t))
        for gram in grams:
            n_mat += gram
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

    def step_cap(self, y_full, limit=np.inf):
        """Admissible step for direction y_full: 1/(2 eta) over the product
        bound; `limit` is the largest step the walk can take.  The step is
        exact where it binds (below `limit`) and may be smaller than exact
        elsewhere."""
        prod = self.product_norm(y_full, limit)
        self.figure = self.eta * prod
        return np.inf if prod <= 1e-14 else 0.5 / self.figure

    def admissibility(self, delta):
        """(delta eta ||M^{1/2} A(y)||, 1/2) for the last direction, with the
        product bound its step cap took."""
        return delta * self.figure, 0.5

    def observe(self, y_act, step, log):
        """Check the quadratic certificate y^T N y <= tr N/(m_t - keep + 1) ||y||^2
        and log this side's terms and its admissibility term step[0]."""
        quad, limit = _certify(self.quad, self.bound, y_act, "y^T N y", "tr N/(m_t - keep + 1)")
        log.step_norm.append(step[0])
        log.linear_term.append(float(self.linear @ y_act))
        log.quad_term.append(quad)
        log.quad_bound.append(limit)
        log.phi.append(self.potential())


def prepare_constraints(vectors, scale=None):
    """(unit rows, row norms, kept mask) of the rows of vectors (1-D: one row).

    The one zero-row rule: a row is dropped when its norm is at most
    _ROW_DROP_TOL times its scale (a number or one per row; default the
    largest row norm).  The unit rows are one new C-ordered array.
    """
    a = np.atleast_2d(np.asarray(vectors, dtype=float))
    if not np.all(np.isfinite(a)):
        raise InvalidInput("constraint vectors have non-finite entries")
    norms = np.linalg.norm(a, axis=1)
    if scale is None:
        scale = np.max(norms, initial=0.0)
    kept = norms > _ROW_DROP_TOL * scale
    unit = a[kept]
    unit /= norms[kept, None]
    return unit, norms, kept


class _VectorSide:
    """Multiplicative-weights constraints: the potential gradient and the
    budget(m_t) heaviest rows, plus the weighted Gram matrix
    G = sum_i (w_i/W) a_i a_i^T, W = sum_i w_i, as quadratic form with bound
    tr G/(cut + 1) for cut = budget(m_t), which fewer than cut + 1
    eigenvalues of G exceed.  lambda0 = default_lambda0(k, m) for k unit rows
    of length m.  A step delta along y is admissible when the potential's
    exact increase sum_i w_i (e^{t_i} - 1 - t_i), t_i = lambda0 delta
    <a_i, y>, is at most lambda0^2 delta^2 W tr G/(cut + 1) ||y||^2; the
    step cap is the largest such delta up to the step limit.  No step short
    of the boundary is below base_cap = 1/(2 lambda0), from which the walk
    counts its iteration budget.  Without rows (k = 0) it adds no constraint
    row, G = 0, and its step cap is unbounded.  The rows are held C-ordered,
    so the walk's path does not depend on the layout they come in.
    """

    def __init__(self, unit_rows, budget):
        self.ahat = np.ascontiguousarray(unit_rows, dtype=float)
        self.lambda0 = default_lambda0(*self.ahat.shape)
        self.base_cap = 1.0 / (2.0 * self.lambda0)
        self.budget = budget
        self.weights = None
        self.quad = None
        self.bound = 0.0

    def rows(self, x, active):
        self.quad = None
        self.weights = np.exp(self.lambda0 * (self.ahat @ x) - self.lambda0**2)
        a_act = self.ahat[:, active]
        rows = _unit_row(self.weights @ a_act)
        budget = self.budget(len(active))
        heavy = min(budget, len(self.weights))
        if heavy > 0:
            rows.append(a_act[_heaviest(self.weights, heavy)])
        # a_act is a copy: scaled in place, it is the Gram factor (syrk: G is symmetric)
        a_act *= np.sqrt(self.weights / float(np.sum(self.weights)))[:, None]
        self.quad = a_act.T @ a_act
        self.bound = float(np.trace(self.quad)) / (budget + 1)
        return rows

    def step_cap(self, y_full, limit=np.inf):
        """Largest admissible step up to `limit` for direction y_full: `limit`
        when admissible there, else the lower end of a bisection of the
        crossing up from the cap 1/(2 lambda0 max_i |<a_i, y>|)."""
        dots = self.ahat @ y_full
        self.t_unit = self.lambda0 * dots
        self.unit_bound = (
            self.lambda0**2 * float(np.sum(self.weights)) * self.bound * float(y_full @ y_full)
        )
        dot = float(np.max(np.abs(dots), initial=0.0))
        if dot <= 1e-14:
            return np.inf

        def admissible(delta):
            increase, bound = self.admissibility(delta)
            return increase <= bound

        # e^t overflows to inf only where the step is far past the crossing
        with np.errstate(over="ignore"):
            if admissible(limit):
                return limit
            # the admissible steps are [0, crossing]: the increase over
            # delta^2 is convex in delta and starts below the bound over
            # delta^2; steps up to the 1/2 cap have e^t - 1 - t <= t^2
            lo, hi = min(0.5 / (self.lambda0 * dot), limit), limit
            for _ in range(_STEP_SEARCH):
                mid = 0.5 * (lo + hi)
                lo, hi = (mid, hi) if admissible(mid) else (lo, mid)
        return lo

    def admissibility(self, delta):
        """(sum_i w_i (e^{t_i} - 1 - t_i), lambda0^2 delta^2 W tr G/(cut + 1) ||y||^2)
        at t = delta lambda0 <a_i, y> for the last direction."""
        t = delta * self.t_unit
        return float(self.weights @ (np.expm1(t) - t)), delta * delta * self.unit_bound

    def observe(self, y_act, step, log):
        """Check the quadratic certificate y^T G y <= tr G/(cut + 1) ||y||^2
        and log this side's terms and its admissibility pair `step`."""
        quad, limit = _certify(self.quad, self.bound, y_act, "y^T G y", "tr G/(cut + 1)")
        log.gram_term.append(quad)
        log.gram_bound.append(limit)
        log.increase.append(step[0])
        log.increase_bound.append(step[1])


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

    extra_rows is an (r, m) array of orthonormal static linear constraints
    (the caller's subspace H plus any pinned coordinates).  The walk keeps
    their restriction to the active coordinates as orthonormal rows, which
    `linalg.drop_column` downdates as coordinates freeze; each iteration
    projects its own rows (the point, the sides' rows) off them twice and
    factors only those with `linalg.orthonormalize`.  Each step keeps every
    side's admissibility term within its bound.  Returns x.
    """
    log = WalkLog() if log is None else log
    # Subspace rejects rows that are not orthonormal
    static = Subspace(m, extra_rows).complement_rows
    x = np.zeros(m)
    active = np.arange(m)
    start0 = _start_vector(m, 0)
    start0 /= np.linalg.norm(start0)
    start = start0
    base_cap = min(side.base_cap for side in sides)
    max_iter = int(np.ceil(m / base_cap**2)) + m + 16
    iterations = 0
    while 4 * len(active) > 3 * m:
        if iterations >= max_iter:
            raise SubspaceExhausted(f"walk did not converge within {max_iter} iterations")
        iterations += 1

        x_act = x[active]
        rows = _unit_row(x_act)
        for side in sides:
            rows.extend(side.rows(x, active))
        m_t = len(active)
        fresh = np.vstack(rows) if rows else np.zeros((0, m_t))
        projected = fresh.copy()
        for _ in range(2):
            projected -= (projected @ static.T) @ static
        w = np.vstack([static, linalg.orthonormalize(projected)])
        # the unit restrictions of the caller's rows, for the residual check
        restricted = extra_rows[:, active]
        norms = np.linalg.norm(restricted, axis=1)
        keep = norms > _ROW_DROP_TOL
        checked = np.vstack([fresh, restricted[keep] / norms[keep, None]])
        if w.shape[0] >= m_t:
            raise SubspaceExhausted(
                f"update subspace is empty at m_t={m_t} with {checked.shape[0]} "
                f"constraints in dimension {m_t}"
            )
        z, _, steps = _lanczos_direction(*_combined_form(sides), w, start, active)
        y_act = linalg.fix_signs(z[:, None])[:, 0]
        resid = float(np.max(np.abs(checked @ y_act), initial=0.0))
        if resid > _RESIDUAL_TOL:
            raise WalksparseError(f"walk invariant failed: constraint residual {resid:.3e}")

        y_full = np.zeros(m)
        y_full[active] = y_act

        # distance to the boundary of the [-1, 1] box along y
        pos = y_act > 1e-14
        neg = y_act < -1e-14
        dists = np.concatenate(
            [(1.0 - x_act[pos]) / y_act[pos], (-1.0 - x_act[neg]) / y_act[neg]]
        )
        boundary = float(np.min(dists)) if dists.size else np.inf

        # every side's admissible step is exact below the largest step the
        # walk can take; in fixed mode the cap is base_cap, in adaptive mode
        # the tightest admissible step (which is never below the fixed cap)
        limit = boundary if adaptive_steps else min(base_cap, boundary)
        caps = [side.step_cap(y_full, limit) for side in sides]
        delta = min(min(caps) if adaptive_steps else base_cap, boundary)
        if not np.isfinite(delta) or delta <= 0:
            raise SubspaceExhausted("no admissible step length")
        terms = [side.admissibility(delta) for side in sides]
        for term, bound in terms:
            if term > bound * (1.0 + 2e-9):
                raise StepTooLarge(
                    f"inadmissible step: admissibility term {term:.6e} > bound {bound:.6e}"
                )
        for side, step in zip(sides, terms):
            side.observe(y_act, step, log)

        x[active] = x_act + delta * y_act
        # the next search starts from the fixed start plus the direction just taken
        start = start0 + y_full

        log.boundary.append(boundary)
        log.m_t.append(m_t)
        log.lanczos_steps.append(steps)
        log.delta.append(delta)
        log.norm_sq.append(float(x @ x))

        frozen = np.abs(x[active]) >= 1.0 - _FREEZE_TOL
        if np.any(frozen):
            hit = active[frozen]
            x[hit] = np.sign(x[hit])
            active = active[~frozen]
            # last position first, so the earlier positions stay valid
            for col in np.flatnonzero(frozen)[::-1]:
                static = linalg.drop_column(static, col)
    log.iterations = iterations
    return x


# ---------------------------------------------------------------------------
# public operations


def quad_matrix(m_density, family, active=None):
    """N(i,j) = tr(M^{1/2} A_i M^{1/2} A_j M^{1/2}) over the active members.

    Reference construction as a Gram matrix X^T X with columns
    vec(M^{1/4} A_i M^{1/2}), which keeps N numerically PSD.  `family` is a
    DoubledFamily (its doubled members are used) or a list of symmetric
    matrices.
    """
    m_density = linalg.sym(np.asarray(m_density, dtype=float))
    if abs(float(np.trace(m_density)) - 1.0) > 1e-6:
        raise InvalidInput("quad_matrix expects a density matrix (unit trace)")
    if isinstance(family, DoubledFamily):
        mats = family.doubled
    else:
        mats = [np.asarray(a, dtype=float) for a in family]
    active = np.arange(len(mats)) if active is None else np.asarray(active, dtype=int)
    half = linalg.matrix_function(m_density, "sqrt_psd")
    quarter = linalg.matrix_function(half, "sqrt_psd")
    cols = [(quarter @ mats[i] @ half).ravel() for i in active]
    x = np.column_stack(cols) if cols else np.zeros((m_density.shape[0] ** 2, 0))
    return linalg.sym(x.T @ x)


def partial_color(family, h=None, options=None, log=None):
    """Partial fractional coloring with small operator-norm discrepancy.

    family: MatrixFamily or list of symmetric n x n matrices, sum |A_i| <= I.
    h: constraint Subspace of dimension >= (4/5) m (default: full space).
    options: WalkOptions (default: the adaptive step every pipeline takes).
    Returns x in [-1,1]^m with >= m/4 frozen coordinates, x in H, and
    ||sum x(i) A_i||_op <= 16 sqrt(2 n / m).
    """
    if not isinstance(family, MatrixFamily):
        family = MatrixFamily.from_matrices(family)
    options = options or WalkOptions()
    m = family.m
    if m == 0:
        raise InvalidInput("family has no members")
    if h is None:
        h = Subspace.full(m)
    if h.ambient_dim != m:
        raise InvalidInput("subspace ambient dimension does not match the family size")
    if h.dim < 0.8 * m - 1e-9:
        raise InvalidInput(f"constraint subspace dimension {h.dim} is below (4/5) m")
    check_family_norm(family)

    side = _MatrixSide(family, keep_count=lambda mt: int(np.floor(mt / 3.0)))
    return _walk_loop(m, [side], h.complement_rows, options.adaptive_steps, log)


def vector_partial_color(vectors, extra=None, log=None):
    """Partial coloring with small discrepancy against all constraint vectors.

    vectors: (k, m) array of constraint vectors (zero rows, relative to the
    largest, are dropped), k >= m.  extra: optional Subspace the coloring must lie in.

    lambda0 is max(1, sqrt(log(k/m))).  Each step is the largest up to the
    box boundary whose exact potential increase
    sum_i w_i (e^{t_i} - 1 - t_i), t_i = lambda0 delta <a_i_hat, y>, meets its
    bound lambda0^2 delta^2 W tr G/(cut + 1) ||y||^2 (the walk's vector side).
    """
    unit, norms, _ = prepare_constraints(vectors)
    m = unit.shape[1] if extra is None else extra.ambient_dim
    if len(norms) < m:
        raise InvalidInput(f"need at least m={m} constraint vectors, got {len(norms)}")
    if len(norms) and unit.shape[1] != m:
        raise InvalidInput("constraint vector length mismatch")
    # the heaviest tenth of the constraints are cut from the update subspace,
    # and y^T G y is held to tr G / (cut + 1) with cut a tenth of m_t
    tenth = lambda mt: int(np.ceil(0.1 * mt))
    side = _VectorSide(unit, budget=tenth)
    extra_rows = extra.complement_rows if extra is not None else np.zeros((0, m))
    return _walk_loop(m, [side], extra_rows, True, log)


def discrepancy_ratios(vectors, x):
    """|<a_i, x>| / ||a_i|| for each constraint vector that
    `vector_partial_color` keeps (the nonzero rows)."""
    unit, _, _ = prepare_constraints(vectors)
    return np.abs(unit @ x)
