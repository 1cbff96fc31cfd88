"""Low-rank reduction of sparse weighted matrices via truncated SVD.

Small matrices go through an exact dense SVD; large ones use randomized
subspace iteration, which concentrates the spectrum well enough for decaying
singular values at a fraction of the dense cost (Halko, Martinsson & Tropp
2011, arXiv:0909.4061):

- a seeded Gaussian sketch Y = A Omega, k + DEFAULT_OVERSAMPLE columns wide;
- DEFAULT_POWER_ITERS power iterations Y <- A (A^T Y). The basis is
  renormalized after every product with the permuted L factor of an LU
  factorization, which keeps the columns from collapsing onto the top
  singular vector and spans the same subspace as a QR would, at a fraction
  of the cost (Li et al. 2017, "Algorithm 971", arXiv:1412.3510);
- one economic QR of the final Y gives the orthonormal basis Q;
- the small SVD is taken of the tall B^T = A^T Q rather than of the wide
  B = Q^T A, which LAPACK factors faster; A ~ (Q Ub) diag(s) Vt follows.

Either mode factors only the block of rows and columns that hold a nonzero
value and writes its U rows and Vt columns back into zeros of the full
shape. Empty rows and columns lie in the null space, so the truncated SVD
is the same, and the row of a word with no weight (in SA, a word without a
lexicon entry) is exactly 0 instead of rounding noise. The block's sketch
is its rows of the whole matrix's sketch, "auto" picks the mode from the
full shape, and a matrix with no empty row or column is factored whole.

Every dense block of the randomized path is n x (k + DEFAULT_OVERSAMPLE),
the sketch's size, and is a product that the function owns: LU, QR and the
final SVD factor it in place (overwrite_a, with QR and SVD handed Fortran
order so that LAPACK makes no copy of its own), and each block is released
once the next product has read it. The peak is about three such blocks,
reached in the final SVD, which holds Q, B^T and V. The arithmetic, and so
every bit, is that of factoring copies. The SVDs set a `pipeline` run's peak
memory, and the LMI matrix's, with no empty row or column, has the largest
blocks.

scipy.linalg supplies the LU. It is imported on the randomized path only,
so that importing the package, and the dense path, do not pay for it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import sparse

from .seeding import rng_for

DENSE_CUTOFF = 2000  # below this max dimension, exact SVD is cheap enough
DEFAULT_OVERSAMPLE = 10
DEFAULT_POWER_ITERS = 4


class ReductionError(ValueError):
    pass


@dataclass(frozen=True)
class SvdResult:
    """Truncated factorization A ~ U diag(s) Vt, held as the row vectors
    U diag(s ** sigma_exponent), s and Vt."""

    row_vectors: np.ndarray  # U_d * diag(s_d ** sigma_exponent)
    singular_values: np.ndarray
    right_vectors: np.ndarray  # Vt_d
    effective_rank: int
    mode_used: str


def _randomized_svd(matrix, k: int, seed: int, shape: tuple[int, int], cols):
    """The sketch is drawn for the whole matrix of `shape` and rank k, and
    `cols` picks its rows for the columns that `matrix` holds (a slice for
    the whole). Returns min(k, min(matrix.shape)) components.

    Every dense block is a product made here, so each factorization may
    overwrite it, and each is released as soon as the next product has read it.
    """
    from scipy.linalg import lu, qr, svd  # one BLAS pool for every factorization here

    def normalized(block):
        return lu(block, permute_l=True, overwrite_a=True, check_finite=False)[0]

    n, m = shape
    sketch = min(k + DEFAULT_OVERSAMPLE, min(n, m))
    y = matrix @ rng_for(seed, "svd-sketch").standard_normal((m, sketch))[cols]
    for _ in range(DEFAULT_POWER_ITERS):
        y = normalized(y)
        y = matrix.T @ y
        y = normalized(y)
        y = matrix @ y
    y = np.asfortranarray(y)  # LAPACK's layout, so that qr and svd factor the block where it lies
    q = qr(y, mode="economic", overwrite_a=True, check_finite=False)[0]
    del y  # QR overwrote it with q
    # B^T = A^T Q = V diag(s) Ub^T, so A ~ Q B = (Q Ub) diag(s) V^T
    v, s, ubt = svd(np.asfortranarray(matrix.T @ q), full_matrices=False, overwrite_a=True, check_finite=False)
    vt = v[:, :k].T.copy()
    del v
    return q @ ubt[:k].T, s[:k].copy(), vt


def _factor(matrix, k: int, mode: str, seed: int, shape: tuple[int, int], cols):
    """U, s and Vt of `matrix`, cut at rank k; `shape` and `cols` place it in the whole matrix."""
    if mode == "randomized":
        return _randomized_svd(matrix.astype(np.float64), k, seed, shape, cols)
    u, s, vt = np.linalg.svd(matrix.toarray().astype(np.float64, copy=False), full_matrices=False)
    return u[:, :k].copy(), s[:k].copy(), vt[:k].copy()


def _nonempty(matrix) -> tuple[np.ndarray, np.ndarray]:
    """Ids of the rows and of the columns that hold a nonzero value; a stored 0 is empty."""
    n, m = matrix.shape
    coo = matrix.tocoo()
    nonzero = coo.data != 0
    return (np.flatnonzero(np.bincount(coo.row[nonzero], minlength=n)),
            np.flatnonzero(np.bincount(coo.col[nonzero], minlength=m)))


def truncated_svd(
    matrix,
    dim: int,
    mode: str = "auto",
    seed: int = 0,
    sigma_exponent: float = 1.0,
) -> SvdResult:
    """Rank-`dim` truncated SVD with row vectors U_d * diag(s_d ** exponent).

    `matrix` is a scipy sparse matrix; a dense array is refused with
    ReductionError. mode: "dense" forces the exact factorization,
    "randomized" the sketched one, "auto" picks dense below DENSE_CUTOFF of
    the full shape. If dim exceeds min(shape) the factorization is truncated
    there; effective_rank counts the singular values that are numerically
    nonzero, which can be smaller still. Only the block of nonzero rows and
    columns is factored: empty rows and columns get exact zeros, and so do
    components beyond the block's size, with singular value 0. `matrix` is
    never modified.
    """
    if dim < 1:
        raise ReductionError(f"dim must be >= 1, got {dim}")
    if not sigma_exponent >= 0:
        raise ReductionError("sigma exponent must be >= 0")
    if mode not in ("auto", "dense", "randomized"):
        raise ReductionError(f"unknown svd mode {mode!r}")
    if not sparse.issparse(matrix):
        raise ReductionError(f"matrix must be scipy sparse, got {type(matrix).__name__}")
    n, m = matrix.shape
    k = min(dim, n, m)
    if mode == "auto":
        mode = "dense" if max(n, m) < DENSE_CUTOFF else "randomized"
    rows, cols = _nonempty(matrix)
    if len(rows) == n and len(cols) == m:
        u, s, vt = _factor(matrix, k, mode, seed, (n, m), slice(None))
    else:  # an all-zero matrix needs no factorization
        factors = _factor(matrix.tocsr()[rows][:, cols], k, mode, seed, (n, m), cols) if len(rows) else ()
        u, s, vt = np.zeros((n, k)), np.zeros(k), np.zeros((k, m))  # after the factorization, out of its peak
        if factors:
            r = len(factors[1])
            u[rows, :r], s[:r], vt[:r, cols] = factors
    tol = (s[0] * max(n, m) * np.finfo(np.float64).eps) if len(s) else 0.0
    effective_rank = int((s > tol).sum())
    u *= s ** sigma_exponent  # U becomes the row vectors in place
    return SvdResult(row_vectors=u, singular_values=s, right_vectors=vt, effective_rank=effective_rank,
                     mode_used=mode)
