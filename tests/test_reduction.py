"""Truncated SVD: exactness on small matrices, near-optimality of the
randomized path, the derived row-vector conventions, the memory of a
matrix whose nonzero block is small, and the memory of either mode on a
matrix with no empty row or column."""

import tracemalloc

import numpy as np
import pytest
import scipy.linalg  # noqa: F401  imported before any trace, so that its import stays out of the peaks
from scipy import sparse

from lexcontrast import reduction
from lexcontrast.reduction import ReductionError, truncated_svd
from oracles import block_svd, reconstruction


def _random_orthonormal(rng, n, k):
    q, _ = np.linalg.qr(rng.standard_normal((n, k)))
    return q


def _traced(call):
    """call()'s result, and the tracemalloc peak while it ran."""
    tracemalloc.start()
    try:
        return call(), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _spectrum_matrix(rng, n, m, sigmas):
    k = len(sigmas)
    return _random_orthonormal(rng, n, k) @ (np.asarray(sigmas)[:, None] * _random_orthonormal(rng, m, k).T)


class TestExactness:
    def test_identity(self):
        result = truncated_svd(sparse.eye(4), 3, mode="dense")
        np.testing.assert_allclose(result.singular_values, np.ones(3), atol=1e-12)
        assert result.effective_rank == 3
        # row vectors of an isometry stay orthonormal
        gram = result.row_vectors.T @ result.row_vectors
        np.testing.assert_allclose(gram, np.eye(3), atol=1e-12)

    def test_rank_one_outer_product(self):
        rng = np.random.default_rng(0)
        a, b = rng.random(6), rng.random(9)
        result = truncated_svd(sparse.csr_matrix(np.outer(a, b)), 4, mode="dense")
        assert result.effective_rank == 1
        assert result.singular_values[0] == pytest.approx(
            np.linalg.norm(a) * np.linalg.norm(b), abs=1e-12
        )
        np.testing.assert_allclose(reconstruction(result, np.outer(a, b)), np.outer(a, b), atol=1e-12)

    def test_matches_dense_reference(self):
        rng = np.random.default_rng(1)
        for _ in range(10):
            n, m = int(rng.integers(5, 40)), int(rng.integers(5, 40))
            dense = rng.standard_normal((n, m)) * (rng.random((n, m)) > 0.5)
            dim = int(rng.integers(1, min(n, m) + 1))
            result = truncated_svd(sparse.csr_matrix(dense), dim, mode="dense")
            u, s, vt = np.linalg.svd(dense, full_matrices=False)
            optimum = (u[:, :dim] * s[:dim]) @ vt[:dim]
            err_got = np.linalg.norm(dense - reconstruction(result, dense))
            err_opt = np.linalg.norm(dense - optimum)
            assert err_got <= err_opt + 1e-9
            np.testing.assert_allclose(result.singular_values, s[:dim], atol=1e-9)

    def test_beats_random_low_rank_competitors(self):
        # the rank-k truncation minimizes Frobenius error over rank-k matrices
        rng = np.random.default_rng(2)
        dense = rng.standard_normal((12, 10))
        k = 3
        best = truncated_svd(sparse.csr_matrix(dense), k, mode="dense")
        err_best = np.linalg.norm(dense - reconstruction(best, dense))
        for _ in range(100):
            competitor = rng.standard_normal((12, k)) @ rng.standard_normal((k, 10))
            assert err_best <= np.linalg.norm(dense - competitor) + 1e-9


class TestRandomized:
    def test_deterministic_given_seed(self):
        rng = np.random.default_rng(3)
        dense = _spectrum_matrix(rng, 40, 30, [2.0 ** -i for i in range(10)])
        one = truncated_svd(sparse.csr_matrix(dense), 5, mode="randomized", seed=7)
        two = truncated_svd(sparse.csr_matrix(dense), 5, mode="randomized", seed=7)
        np.testing.assert_array_equal(one.row_vectors, two.row_vectors)
        other = truncated_svd(sparse.csr_matrix(dense), 5, mode="randomized", seed=8)
        assert not np.array_equal(one.row_vectors, other.row_vectors)

    def test_near_optimal_on_decaying_spectrum(self):
        rng = np.random.default_rng(4)
        sigmas = [2.0 ** -i for i in range(20)]
        dense = _spectrum_matrix(rng, 120, 80, sigmas)
        dim = 8
        got = truncated_svd(sparse.csr_matrix(dense), dim, mode="randomized", seed=0)
        opt = truncated_svd(sparse.csr_matrix(dense), dim, mode="dense")
        err_got = np.linalg.norm(dense - reconstruction(got, dense))
        err_opt = np.linalg.norm(dense - reconstruction(opt, dense))
        assert err_got <= err_opt * (1 + 1e-6) + 1e-12
        np.testing.assert_allclose(
            got.singular_values, opt.singular_values, rtol=1e-6
        )

    def test_reconstruction_is_sign_invariant(self):
        # individual singular vectors are sign-ambiguous between the two
        # modes, but the reconstruction they span is not
        rng = np.random.default_rng(5)
        dense = _spectrum_matrix(rng, 50, 35, [3.0, 1.5, 0.7, 0.3, 0.1])
        a = truncated_svd(sparse.csr_matrix(dense), 5, mode="dense")
        b = truncated_svd(sparse.csr_matrix(dense), 5, mode="randomized", seed=1)
        np.testing.assert_allclose(reconstruction(a, dense), reconstruction(b, dense), atol=1e-8)


class TestConventions:
    def test_auto_picks_dense_below_cutoff(self):
        result = truncated_svd(sparse.eye(5), 2)
        assert result.mode_used == "dense"

    def test_dim_clamps_to_min_shape(self):
        rng = np.random.default_rng(6)
        dense = rng.standard_normal((7, 4))
        result = truncated_svd(sparse.csr_matrix(dense), 100, mode="dense")
        assert result.row_vectors.shape[1] == 4
        assert result.row_vectors.shape == (7, 4)
        assert result.effective_rank <= 4

    def test_effective_rank_ignores_numerical_zeros(self):
        rng = np.random.default_rng(7)
        dense = _spectrum_matrix(rng, 20, 15, [1.0, 0.5, 0.25])
        result = truncated_svd(sparse.csr_matrix(dense), 10, mode="dense")
        assert result.effective_rank == 3

    def test_sigma_exponent_zero_gives_bare_left_vectors(self):
        rng = np.random.default_rng(8)
        dense = rng.standard_normal((10, 8))
        plain = truncated_svd(sparse.csr_matrix(dense), 4, mode="dense")
        result = truncated_svd(sparse.csr_matrix(dense), 4, mode="dense", sigma_exponent=0.0)
        np.testing.assert_allclose(result.row_vectors, plain.row_vectors / plain.singular_values, atol=1e-15)

    def test_sigma_exponent_half(self):
        rng = np.random.default_rng(9)
        dense = rng.standard_normal((10, 8))
        plain = truncated_svd(sparse.csr_matrix(dense), 4, mode="dense")
        result = truncated_svd(sparse.csr_matrix(dense), 4, mode="dense", sigma_exponent=0.5)
        np.testing.assert_allclose(
            result.row_vectors,
            plain.row_vectors / plain.singular_values * np.sqrt(plain.singular_values),
            atol=1e-14,
        )

    def test_validation(self):
        with pytest.raises(ReductionError):
            truncated_svd(sparse.eye(3), 0)
        with pytest.raises(ReductionError):
            truncated_svd(sparse.eye(3), 2, sigma_exponent=-1.0)
        with pytest.raises(ReductionError):
            truncated_svd(sparse.eye(3), 2, mode="fast")

    def test_nan_sigma_exponent_is_refused(self):
        with pytest.raises(ReductionError, match="sigma exponent"):
            truncated_svd(sparse.eye(3), 2, sigma_exponent=float("nan"))

    @pytest.mark.parametrize("mode", ["dense", "randomized"])
    def test_result_arrays_own_their_memory(self, mode):
        # a view would keep the whole factorization it was cut from alive
        dense = np.random.default_rng(11).standard_normal((30, 20))
        result = truncated_svd(sparse.csr_matrix(dense), 5, mode=mode)
        for array in (result.row_vectors, result.singular_values):
            assert array.flags.owndata

    def test_dense_input_is_refused(self):
        with pytest.raises(ReductionError, match="matrix must be scipy sparse, got ndarray"):
            truncated_svd(np.eye(3), 2)


class TestNonemptyBlock:
    def test_dense_mode_densifies_only_the_nonempty_block(self):
        # one dense copy of the whole 1500 x 1500 matrix is 18 MB
        rng = np.random.default_rng(12)
        n = 1500
        rows, cols = rng.choice(n, 40, replace=False), rng.choice(n, 60, replace=False)
        matrix = sparse.csr_matrix((rng.standard_normal(40 * 60), (np.repeat(rows, 60), np.tile(cols, 40))),
                                   shape=(n, n))
        result, peak = _traced(lambda: truncated_svd(matrix, 10, mode="dense"))
        assert peak < n * n * 8 / 10
        assert result.effective_rank == 10

    @pytest.mark.parametrize("mode", ["dense", "randomized"])
    def test_only_the_row_vectors_take_the_full_shape(self, mode):
        # U is n x k float64, 8 MB here. Measured peaks: 1.02 U in both modes, the randomized one
        # drawing the sketch in chunks of rows, one chunk at a time; 1.23 randomized while it drew
        # the whole m x (k + 10) sketch to take its block's rows, and 2.02 in both modes while a
        # k x m Vt was written back too
        rng = np.random.default_rng(13)
        n, k = 20_000, 50
        rows, cols = rng.choice(n, 100, replace=False), rng.choice(n, 150, replace=False)
        matrix = sparse.csr_matrix((rng.standard_normal(100 * 150), (np.repeat(rows, 150), np.tile(cols, 100))),
                                   shape=(n, n))
        result, peak = _traced(lambda: truncated_svd(matrix, k, mode=mode))
        assert peak < 1.15 * n * k * 8
        assert result.effective_rank == k


class TestChunkedSketch:
    """Every randomized SVD, of a block or of a whole matrix, draws the whole matrix's sketch in chunks of
    rows, keeps the rows of its block's columns, and holds one chunk at a time."""

    def test_chunked_draws_equal_one_whole_draw(self):
        m, width = 1003, 110
        whole, chunked = np.random.default_rng(21), np.random.default_rng(21)
        want = whole.standard_normal((m, width))
        got = np.concatenate([chunked.standard_normal((rows, width)) for rows in (1, 500, 7, 495)])
        assert np.array_equal(got, want)
        assert np.array_equal(chunked.standard_normal(5), whole.standard_normal(5))  # the generator's next draw

    @pytest.mark.parametrize("whole", [False, True])
    def test_block_svd_is_the_one_of_the_whole_sketch(self, monkeypatch, whole):
        """With chunks of 7 rows the sketch spans many chunks, and on the block some hold no wanted row. The
        row vectors are those of the block SVD that drew the whole sketch, bit for bit, and so are those of
        a matrix with no empty row or column, which that SVD factored with one whole draw."""
        monkeypatch.setattr(reduction, "SKETCH_CHUNK", 7)
        rng = np.random.default_rng(22)
        if whole:
            dense = rng.standard_normal((40, 60))
        else:
            dense = rng.standard_normal((40, 60)) * (rng.random((40, 60)) < 0.3)
            dense[[3, 17]] = 0.0
            dense[:, [0, 8, 9, 10, 11, 12, 13, 14, 15, 59]] = 0.0
        matrix = sparse.csr_matrix(dense)
        assert (len(reduction._nonempty(matrix)[1]) == 60) == whole
        got = truncated_svd(matrix, 5, mode="randomized", seed=9)
        want = block_svd(matrix, 5, mode="randomized", seed=9)[0]
        assert np.array_equal(got.row_vectors, want.row_vectors)
        assert np.array_equal(got.singular_values, want.singular_values)

    def test_the_sketch_holds_one_chunk_at_a_time(self):
        # a unit is one chunk of the sketch, SKETCH_CHUNK x (k + 10) float64, 1.97 MB here, and every other
        # block is 300 rows or columns tall. Measured peaks: 1.11 units; 2.08 while the next chunk was drawn
        # with the last one still held and the kept rows were gathered in a list and then concatenated
        rng = np.random.default_rng(23)
        n, m, k = 300, 3 * reduction.SKETCH_CHUNK, 50
        cols = np.sort(rng.choice(m, 300, replace=False))
        values = rng.standard_normal((n, len(cols))) * (rng.random((n, len(cols))) < 0.05)
        values[:, 0] = 1.0  # no empty row
        rows, at = np.nonzero(values)
        matrix = sparse.csr_matrix((values[rows, at], (rows, cols[at])), shape=(n, m))
        result, peak = _traced(lambda: truncated_svd(matrix, k, mode="randomized"))
        assert peak < 1.5 * reduction.SKETCH_CHUNK * (k + 10) * 8
        assert result.effective_rank == k


class TestFactorizationMemory:
    """Both modes on a whole matrix, the case of every LMI matrix."""

    def test_randomized_peak_is_about_three_sketch_blocks(self):
        # a block is n x (dim + 10) float64, 3.5 MB here. Measured peaks: 3.27 blocks with the
        # factorizations in place, 4.27 when lu, qr and svd each copied a block their caller
        # still held; an lu that copies its C-ordered input and returns a new L, as scipy
        # 1.10's does, holds 3 blocks at once and leaves the peak at 3.27
        rng = np.random.default_rng(5)
        n, dim = 4000, 100
        matrix = (sparse.random(n, n, density=7 / n, format="csr", random_state=rng)
                  + sparse.eye(n, format="csr")).tocsr()  # about 8 nonzeros per row, none empty
        _, peak = _traced(lambda: truncated_svd(matrix, dim, mode="randomized"))
        assert peak < 3.6 * n * (dim + 10) * 8

    def test_dense_peak_is_the_matrix_and_its_factors(self):
        # the densified matrix plus the full U (800 x 600) and Vt (600 x 600) that LAPACK
        # returns: 2.78 times the dense matrix measured, 3.76 with a second copy of it
        rng = np.random.default_rng(6)
        n, m = 800, 600
        matrix = (sparse.random(n, m, density=0.05, format="csr", random_state=rng)
                  + sparse.eye(n, m, format="csr")).tocsr()
        _, peak = _traced(lambda: truncated_svd(matrix, 10, mode="dense"))
        assert peak < 3.25 * n * m * 8
