"""Dense symmetric linear algebra used by every other module.

Contents:
  - deterministic symmetric eigendecomposition (fixed eigenvector signs)
  - block-diagonal assembly
  - spectral matrix functions: abs, sqrt_psd, pinv, pinv_sqrt
  - operator norms of symmetric matrices and general products
  - QR-based orthonormal rows spanning a row space, and their downdate
    when a column drops
  - subspaces of R^m stored by orthonormal rows of their orthogonal
    complement, with nullspace construction
  - a context that runs numpy's OpenBLAS at one thread

All routines are pure functions of their inputs.  Determinism matters
downstream (the discrepancy walks pick basis vectors from these outputs),
so every eigenvector / singular-vector basis gets a fixed sign convention:
the first entry with absolute value above SIGN_TOL is made positive.
`orthonormalize` keeps the signs of its Householder QR: its callers use
only the span of its rows.
"""

from __future__ import annotations

import contextlib
import functools
import os
from dataclasses import dataclass

import numpy as np

from .errors import InvalidInput, NotPSD

# |lambda| <= ZERO_RTOL * ||A||_op is treated as a zero eigenvalue (rank /
# kernel decisions, pseudoinverses): relative, so a scaled input gets the
# same decisions.
ZERO_RTOL = 1e-10
SIGN_TOL = 1e-12


def _as_square(a):
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise InvalidInput(f"expected a square matrix, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise InvalidInput("matrix has non-finite entries")
    return a


def sym(a):
    """Exact symmetrization (storage of one triangle, mirrored)."""
    a = np.asarray(a, dtype=float)
    return 0.5 * (a + a.T)


def block_diag(*blocks):
    """Matrix with the square blocks on its diagonal and zeros elsewhere."""
    out = np.zeros((sum(len(b) for b in blocks),) * 2)
    start = 0
    for b in blocks:
        out[start:start + len(b), start:start + len(b)] = b
        start += len(b)
    return out


def fix_signs(v):
    """Flip column signs so the first entry with |x| > SIGN_TOL is positive.

    Columns that are entirely below SIGN_TOL are left untouched.
    """
    v = np.array(v, dtype=float)
    if v.size == 0:
        return v
    big = np.abs(v) > SIGN_TOL
    has = big.any(axis=0)
    first = np.argmax(big, axis=0)
    lead = v[first, np.arange(v.shape[1])]
    flip = has & (lead < 0.0)
    v[:, flip] *= -1.0
    return v


def eigh(a):
    """Eigendecomposition of a symmetric matrix.

    Returns (eigenvalues ascending, eigenvector columns) with deterministic
    eigenvector signs.  A @ V = V @ diag(w) within LAPACK accuracy.
    """
    a = _as_square(a)
    w, v = np.linalg.eigh(sym(a))
    return w, fix_signs(v)


def eigvalsh(a):
    a = _as_square(a)
    return np.linalg.eigvalsh(sym(a))


def operator_norm(a):
    """max |lambda_i| of a symmetric matrix."""
    a = _as_square(a)
    if a.shape[0] == 0:
        return 0.0
    return float(np.max(np.abs(eigvalsh(a))))


def spectral_norm(a):
    """Largest singular value of a general (possibly nonsymmetric) matrix."""
    a = np.asarray(a, dtype=float)
    if not np.all(np.isfinite(a)):
        raise InvalidInput("matrix has non-finite entries")
    if a.size == 0:
        return 0.0
    return float(np.linalg.svd(a, compute_uv=False)[0])


def matrix_function(a, f):
    """Apply a spectral function to a symmetric matrix.

    f is one of 'abs', 'sqrt_psd', 'pinv', 'pinv_sqrt'.  Eigenvalues with
    |lambda| <= ZERO_RTOL * ||A||_op are treated as zero for the
    pseudoinverse variants; eigenvalues in [-psd_tol, 0) are clamped to zero
    for the square-root variants, and anything below -psd_tol raises NotPSD
    with psd_tol = 1e-8 * ||A||_op.
    """
    w, v = eigh(a)
    if w.size == 0:
        return np.asarray(a, dtype=float).copy()
    onorm = float(np.max(np.abs(w)))
    zero = np.abs(w) <= ZERO_RTOL * onorm
    if f == "abs":
        fw = np.abs(w)
    elif f == "sqrt_psd":
        if np.min(w) < -1e-8 * onorm:
            raise NotPSD(f"matrix has eigenvalue {np.min(w):.3e} < -1e-8 * ||A||")
        fw = np.sqrt(np.clip(w, 0.0, None))
    elif f == "pinv":
        fw = np.where(zero, 0.0, 1.0 / np.where(zero, 1.0, w))
    elif f == "pinv_sqrt":
        if np.min(w) < -1e-8 * onorm:
            raise NotPSD(f"matrix has eigenvalue {np.min(w):.3e} < -1e-8 * ||A||")
        wc = np.clip(w, 0.0, None)
        fw = np.where(zero, 0.0, 1.0 / np.sqrt(np.where(zero, 1.0, wc)))
    else:
        raise InvalidInput(f"unknown matrix function {f!r}")
    return sym((v * fw) @ v.T)


def kernel_basis(a):
    """Orthonormal columns spanning the numerical kernel of a symmetric matrix."""
    w, v = eigh(a)
    if w.size == 0:
        return np.zeros((0, 0))
    onorm = float(np.max(np.abs(w)))
    keep = np.abs(w) <= ZERO_RTOL * onorm
    return v[:, keep]


def orthonormalize(rows):
    """Orthonormal rows spanning the row space of `rows` (QR based).

    Householder QR rows^T = Q R.  The singular values of the small factor R
    are those of `rows`, and the rank counts those > ZERO_RTOL * s_max:
    one `numpy.linalg.svd` call, without singular vectors, for any input
    (bench/spans.py counts walk iterations by these calls).  At full rank
    the output is Q^T; otherwise it is (Q U)^T for the top-rank
    eigenvectors U of R R^T, which span the range of R.  The rows keep the
    signs the QR gives them.
    """
    rows = np.asarray(rows, dtype=float)
    if not np.all(np.isfinite(rows)):
        raise InvalidInput("rows have non-finite entries")
    q, r = np.linalg.qr(rows.T)
    s = np.linalg.svd(r, compute_uv=False)
    rank = int(np.sum(s > ZERO_RTOL * (s[0] if s.size else 0.0)))
    k = q.shape[1]
    if rank < k:
        _, u = np.linalg.eigh(r @ r.T)
        q = q @ u[:, k - rank:]
    return q.T


def drop_column(basis, col):
    """Orthonormal rows spanning the rows of `basis` with column `col` removed.

    basis holds orthonormal rows.  The Householder reflection H that maps
    column col of basis to a multiple of e_1 leaves rows 2.. of H basis
    orthonormal and zero in that column, so they stay orthonormal without
    it.  Row 1 holds the rest of the span: it is kept, normalized and
    reorthogonalized against the others, unless its norm is at most
    ZERO_RTOL (the rank test of `orthonormalize`).  O(r m) work for r rows
    of length m, and no factorization.
    """
    b = basis[:, col]
    beta = float(np.sqrt(b @ b))
    rest = np.delete(basis, col, axis=1)
    if beta == 0.0:
        return rest
    v = b.copy()
    v[0] += np.copysign(beta, v[0])
    # H = I - 2 v v^T / v^T v with v^T v = 2 beta (beta + |b_0|)
    rest -= np.outer(v, (v @ rest) / (beta * (beta + abs(b[0]))))
    head, others = rest[0], rest[1:]
    norm = float(np.sqrt(head @ head))
    if norm <= ZERO_RTOL:
        return others
    head /= norm
    for _ in range(2):
        head -= (others @ head) @ others
    head /= np.sqrt(head @ head)
    return rest


@dataclass(frozen=True)
class Subspace:
    """A linear subspace of R^m stored by its orthogonal complement.

    complement_rows holds pairwise-orthonormal row vectors spanning the
    orthogonal complement; the subspace is {y : complement_rows @ y = 0}.
    Storing the complement makes intersections cheap (row concatenation).
    """

    ambient_dim: int
    complement_rows: np.ndarray

    def __post_init__(self):
        rows = np.asarray(self.complement_rows, dtype=float)
        if rows.ndim != 2 or rows.shape[1] != self.ambient_dim:
            raise InvalidInput(
                f"complement rows shape {rows.shape} does not match ambient dim {self.ambient_dim}"
            )
        if rows.shape[0]:
            gram = rows @ rows.T
            if np.max(np.abs(gram - np.eye(rows.shape[0]))) > 1e-10:
                raise InvalidInput("complement rows are not orthonormal")
        object.__setattr__(self, "complement_rows", rows)

    @staticmethod
    def full(m):
        return Subspace(m, np.zeros((0, m)))

    @property
    def dim(self):
        return self.ambient_dim - self.complement_rows.shape[0]


def nullspace(rows):
    """Subspace {y : <row, y> = 0 for all rows} of R^m, for a 2-D array
    `rows` of m columns (zero rows give the full space)."""
    mat = np.asarray(rows, dtype=float)
    if mat.ndim != 2:
        raise InvalidInput(f"expected a 2-D array of rows, got shape {mat.shape}")
    if mat.shape[0] == 0:
        return Subspace.full(mat.shape[1])
    return Subspace(mat.shape[1], orthonormalize(mat))


@functools.cache
def _numpy_openblas():
    """(get, set) thread-count functions of the OpenBLAS that numpy's wheel
    bundles, through ctypes; None where numpy has no such library."""
    import ctypes
    import glob

    libs = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs")
    for path in sorted(glob.glob(os.path.join(libs, "libscipy_openblas64_*.so"))):
        try:
            lib = ctypes.CDLL(path)
            get, set_ = lib.scipy_openblas_get_num_threads64_, lib.scipy_openblas_set_num_threads64_
        except (OSError, AttributeError):
            continue
        get.argtypes, get.restype = [], ctypes.c_int
        set_.argtypes, set_.restype = [ctypes.c_int], None
        return get, set_
    return None


@contextlib.contextmanager
def one_blas_thread():
    """Run the block with numpy's OpenBLAS at one thread, then restore it.

    OpenBLAS rounds GEMM and GEMV differently at other thread counts, and the
    walks' paths follow the rounding.  Yields None when the pin holds.  Where
    numpy has no such library it yields the thread count OpenBLAS would take
    (OPENBLAS_NUM_THREADS, else OMP_NUM_THREADS, else the core count).
    """
    threads = _numpy_openblas()
    if threads is None:
        env = os.environ.get("OPENBLAS_NUM_THREADS") or os.environ.get("OMP_NUM_THREADS")
        yield int(env) if env and env.isdigit() else os.cpu_count()
        return
    get, set_ = threads
    previous = get()
    set_(1)
    try:
        yield None
    finally:
        set_(previous)
