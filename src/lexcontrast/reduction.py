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


def _dense_svd(matrix: np.ndarray, k: int):
    u, s, vt = np.linalg.svd(matrix, full_matrices=False)
    return u[:, :k].copy(), s[:k].copy(), vt[:k].copy()


def _randomized_svd(matrix, k: int, seed: int):
    from scipy.linalg import lu, qr, svd  # one BLAS pool for every factorization here

    def normalized(block):
        return lu(block, permute_l=True, check_finite=False)[0]

    n, m = matrix.shape
    sketch = min(k + DEFAULT_OVERSAMPLE, min(n, m))
    y = matrix @ rng_for(seed, "svd-sketch").standard_normal((m, sketch))
    for _ in range(DEFAULT_POWER_ITERS):
        y = matrix @ normalized(matrix.T @ normalized(y))
    q = qr(y, mode="economic", check_finite=False)[0]
    del y  # the block is as large as q; keep it out of the final SVD's peak
    # B^T = A^T Q = V diag(s) Ub^T, so A ~ Q B = (Q Ub) diag(s) V^T
    v, s, ubt = svd(matrix.T @ q, full_matrices=False, check_finite=False)
    return q @ ubt[:k].T, s[:k].copy(), v[:, :k].T.copy()


def truncated_svd(
    matrix,
    dim: int,
    mode: str = "auto",
    seed: int = 0,
    sigma_exponent: float = 1.0,
) -> SvdResult:
    """Rank-`dim` truncated SVD with row vectors U_d * diag(s_d ** exponent).

    mode: "dense" forces the exact factorization, "randomized" the sketched
    one, "auto" picks dense below DENSE_CUTOFF. If dim exceeds min(shape) the
    factorization is truncated there; effective_rank counts the singular
    values that are numerically nonzero, which can be smaller still.
    """
    if dim < 1:
        raise ReductionError(f"dim must be >= 1, got {dim}")
    if not sigma_exponent >= 0:
        raise ReductionError("sigma exponent must be >= 0")
    if mode not in ("auto", "dense", "randomized"):
        raise ReductionError(f"unknown svd mode {mode!r}")
    n, m = matrix.shape
    k = min(dim, n, m)
    if mode == "auto":
        mode = "dense" if max(n, m) < DENSE_CUTOFF else "randomized"
    if mode == "dense":
        dense = np.asarray(matrix.todense()) if sparse.issparse(matrix) else np.asarray(matrix)
        u, s, vt = _dense_svd(dense.astype(np.float64), k)
    else:
        u, s, vt = _randomized_svd(matrix.astype(np.float64), k, seed)
    tol = (s[0] * max(n, m) * np.finfo(np.float64).eps) if len(s) else 0.0
    effective_rank = int((s > tol).sum())
    u *= s ** sigma_exponent  # U becomes the row vectors in place
    return SvdResult(row_vectors=u, singular_values=s, right_vectors=vt, effective_rank=effective_rank,
                     mode_used=mode)
