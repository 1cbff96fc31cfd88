"""Dense embedding container and its text serialization."""

import numpy as np
import oracles
import pytest

from lexcontrast import tsvio
from lexcontrast.vectors import DenseEmbeddings, VectorsError, read_embeddings, write_embeddings


def _sample(rng, n=5, d=4):
    return DenseEmbeddings(
        [f"w{i}" for i in range(n)], rng.standard_normal((n, d)), source="test"
    )


class TestContainer:
    def test_lookup(self):
        emb = _sample(np.random.default_rng(0))
        assert "w2" in emb and "nope" not in emb
        np.testing.assert_array_equal(emb.vector("w2"), emb.matrix[2])
        assert emb.get("nope") is None
        with pytest.raises(VectorsError, match="nope"):
            emb.vector("nope")
        assert emb.dim == 4 and len(emb) == 5

    def test_row_count_must_match(self):
        with pytest.raises(VectorsError):
            DenseEmbeddings(["a", "b"], np.zeros((3, 2)))

    def test_must_be_two_dimensional(self):
        with pytest.raises(VectorsError):
            DenseEmbeddings(["a"], np.zeros(3))

    def test_duplicate_words_rejected(self):
        with pytest.raises(VectorsError, match="duplicate"):
            DenseEmbeddings(["a", "a"], np.zeros((2, 2)))

    def test_non_finite_rejected(self):
        bad = np.zeros((2, 2))
        bad[1, 0] = np.nan
        with pytest.raises(VectorsError, match="NaN"):
            DenseEmbeddings(["a", "b"], bad)
        bad[1, 0] = np.inf
        with pytest.raises(VectorsError):
            DenseEmbeddings(["a", "b"], bad)


class TestSerialization:
    def test_round_trip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(1)
        emb = _sample(rng, n=7, d=3)
        # exercise awkward magnitudes: repr() must carry them exactly
        emb.matrix[0, 0] = 1e-17
        emb.matrix[1, 1] = -3.0000000000000004
        path = tmp_path / "vec.txt"
        write_embeddings(path, emb)
        loaded = read_embeddings(path, source="test")
        assert loaded.words == emb.words
        np.testing.assert_array_equal(loaded.matrix, emb.matrix)
        assert loaded.source == "test"

    def test_leading_comment_lines_tolerated(self, tmp_path):
        path = tmp_path / "vec.txt"
        path.write_text("#tool=x\n#seed=1\n2 2\na 1.0 2.0\nb 3.0 4.0\n")
        emb = read_embeddings(path)
        assert emb.words == ["a", "b"]
        np.testing.assert_array_equal(emb.matrix, [[1.0, 2.0], [3.0, 4.0]])

    def test_header_must_have_two_fields(self, tmp_path):
        path = tmp_path / "vec.txt"
        path.write_text("2\n")
        with pytest.raises(VectorsError, match="header"):
            read_embeddings(path)

    def test_row_width_checked(self, tmp_path):
        path = tmp_path / "vec.txt"
        path.write_text("1 3\na 1.0 2.0\n")
        with pytest.raises(VectorsError, match=":2"):
            read_embeddings(path)

    def test_word2vec_trailing_space_accepted(self, tmp_path):
        # word2vec.c ends every row with a space before the newline
        path = tmp_path / "vec.txt"
        path.write_text("2 3\nhot 0.1 0.2 0.3 \ncold -0.1 0.0 0.5 \n")
        emb = read_embeddings(path)
        assert emb.words == ["hot", "cold"]
        np.testing.assert_array_equal(emb.matrix, [[0.1, 0.2, 0.3], [-0.1, 0.0, 0.5]])

    def test_row_width_checked_with_trailing_space(self, tmp_path):
        for body in ("a 1.0 2.0 \n", "a 1.0 2.0 3.0 4.0 \n", "a 1.0 2.0 3.0 4.0\n"):
            path = tmp_path / "vec.txt"
            path.write_text("1 3\n" + body)
            with pytest.raises(VectorsError, match="expected a word and 3 values"):
                read_embeddings(path)

    def test_row_count_checked(self, tmp_path):
        path = tmp_path / "vec.txt"
        path.write_text("3 2\na 1.0 2.0\n")
        with pytest.raises(VectorsError, match="claims 3"):
            read_embeddings(path)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "vec.txt"
        path.write_text("")
        with pytest.raises(VectorsError, match="empty"):
            read_embeddings(path)


def _fails_after_one(first):
    yield first
    raise OSError("disk full")


class _HalfReadyEmbeddings:
    """Two words whose second vector cannot be produced."""

    words, dim = ["a", "b"], 1
    matrix = property(lambda self: _fails_after_one(np.ones(1)))

    def __len__(self):
        return 2


class TestAtomicWrites:
    @pytest.mark.parametrize("write", [
        lambda path: tsvio.write_rows(path, _fails_after_one(("b", 2))),
        lambda path: write_embeddings(path, _HalfReadyEmbeddings()),
    ], ids=["write_rows", "write_embeddings"])
    def test_failed_write_keeps_old_file_and_leaves_no_temp(self, tmp_path, write):
        target = tmp_path / "artifact.txt"
        target.write_text("old contents\n")
        with pytest.raises(OSError, match="disk full"):
            write(target)
        assert target.read_text() == "old contents\n"
        assert [p.name for p in tmp_path.iterdir()] == ["artifact.txt"]


class TestWriterFormat:
    @pytest.mark.parametrize("meta", [None, {"tool": "lexcontrast", "stage": "svd", "effective_rank": "3"}])
    def test_bytes_equal_the_former_writers(self, tmp_path, meta):
        rng = np.random.default_rng(23)
        matrix = rng.standard_normal((5, 4)) * np.logspace(-300, 300, 4)
        matrix[0] = [0.0, -0.0, 5e-324, 1.0]
        emb = DenseEmbeddings([f"w{i}" for i in range(5)], matrix)
        write_embeddings(tmp_path / "new.txt", emb, meta)
        oracles.write_embeddings_with_meta(tmp_path / "old.txt", emb, meta or {})
        assert (tmp_path / "new.txt").read_bytes() == (tmp_path / "old.txt").read_bytes()
        if meta is None:
            assert (tmp_path / "new.txt").read_bytes().startswith(b"5 4\n")
        assert read_embeddings(tmp_path / "new.txt").matrix.tobytes() == matrix.tobytes()
