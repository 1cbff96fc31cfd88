"""Dense embedding container and its text serialization."""

import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import oracles
import pytest

from lexcontrast import cli, tsvio, vectors
from lexcontrast.vectors import DenseEmbeddings, VectorsError, read_embeddings, start_embeddings


def _sample(rng, n=5, d=4):
    return DenseEmbeddings(
        [f"w{i}" for i in range(n)], rng.standard_normal((n, d)), source="test"
    )


class TestContainer:
    def test_lookup(self):
        emb = _sample(np.random.default_rng(0))
        assert "w2" in emb.word_ids and "nope" not in emb.word_ids
        np.testing.assert_array_equal(emb.matrix[emb.word_ids["w2"]], emb.matrix[2])
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

    def test_equality_is_over_the_fields(self):
        emb = _sample(np.random.default_rng(0))
        same = DenseEmbeddings(list(emb.words), emb.matrix.copy(), source="test")
        assert emb == same and not emb != same
        moved = emb.matrix.copy()
        moved[0, 0] += 1.0
        assert emb != DenseEmbeddings(list(emb.words), moved, source="test")
        assert emb != DenseEmbeddings(list(emb.words), emb.matrix, source="svd")
        assert emb != DenseEmbeddings(["a", "b"], np.zeros((2, 4)), source="test")
        assert emb != "not vectors"

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
        start_embeddings(path, emb).wait()
        loaded = read_embeddings(path)
        assert loaded.words == emb.words
        np.testing.assert_array_equal(loaded.matrix, emb.matrix)
        assert loaded.source == ""

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

    @pytest.mark.parametrize("comments", ["", "#tool=x\n#stage=svd\n#seed=0\n"], ids=["plain", "annotated"])
    def test_row_width_checked(self, tmp_path, comments):
        """The error names the row's own line, counting the leading comment lines."""
        path = tmp_path / "vec.txt"
        path.write_text(comments + "2 3\na 1.0 2.0 3.0\n\nb 1.0 2.0\n")
        with pytest.raises(VectorsError, match=rf"vec\.txt:{comments.count('#') + 4}: expected"):
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

    @pytest.mark.parametrize("rows, fault", [("a 1.0 2.0\na 3.0 4.0\n", "duplicate"),
                                             ("a 1.0 nan\nb 3.0 4.0\n", "NaN"),
                                             ("a 1.0 2.0\nb -inf 4.0\n", "NaN or Inf")])
    def test_bad_rows_name_the_file(self, tmp_path, rows, fault):
        path = tmp_path / "vec.txt"
        path.write_text("2 2\n" + rows)
        with pytest.raises(VectorsError, match=rf"vec\.txt: .*{fault}"):
            read_embeddings(path)

    @pytest.mark.parametrize("text, where", [("2 2\na 1.0 x\nb 1.0 2.0\n", r"vec\.txt:2: .*'x'"),
                                             ("#tool=lexcontrast 0.1.0\n#stage=svd\n#seed=0\n2 2\na 1.0 2.0\nb 1.0 x\n",
                                              r"vec\.txt:6: .*'x'"),
                                             ("a b\na 1.0 2.0\n", r"vec\.txt: header"),
                                             ("1 2.5\na 1.0 2.0\n", r"vec\.txt: header")])
    def test_unparsable_fields_name_the_file(self, tmp_path, text, where):
        path = tmp_path / "vec.txt"
        path.write_text(text)
        with pytest.raises(VectorsError, match=where):
            read_embeddings(path)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "vec.txt"
        path.write_text("")
        with pytest.raises(VectorsError, match="empty"):
            read_embeddings(path)


def _fails_after_one(first):
    yield first
    raise OSError("disk full")


class TestAtomicWrites:
    @pytest.mark.parametrize("write", [
        lambda path: tsvio.write_rows(path, _fails_after_one(("b", 2, 3))),
    ], ids=["write_rows"])
    def test_failed_write_keeps_old_file_and_leaves_no_temp(self, tmp_path, write):
        target = tmp_path / "artifact.txt"
        target.write_text("old contents\n")
        with pytest.raises(OSError, match="disk full"):
            write(target)
        assert target.read_text() == "old contents\n"
        assert [p.name for p in tmp_path.iterdir()] == ["artifact.txt"]

    def test_two_pending_writes_of_one_path_each_have_their_own_temp(self, tmp_path):
        """The slower write is waited for first; both land in turn, the last-waited one stays."""
        path = tmp_path / "vec.txt"
        big = DenseEmbeddings([f"a{i}" for i in range(3000)], np.ones((3000, 4)))
        small = _sample(np.random.default_rng(0), n=10)
        first, second = start_embeddings(path, big), start_embeddings(path, small)
        first.wait()
        second.wait()
        got = read_embeddings(path)
        assert got.words == small.words and np.array_equal(got.matrix, small.matrix)
        assert [p.name for p in tmp_path.iterdir()] == ["vec.txt"]

    def test_nested_writes_of_one_path_each_have_their_own_temp(self, tmp_path):
        path, plain = tmp_path / "artifact.txt", tmp_path / "plain.txt"
        with tsvio.atomic_writer(path) as outer:
            outer.write("outer\n")
            with tsvio.atomic_writer(path) as inner:
                inner.write("inner\n")
            assert path.read_text() == "inner\n"
        assert path.read_text() == "outer\n"
        assert [p.name for p in tmp_path.iterdir()] == ["artifact.txt"]
        with open(plain, "w"):
            pass
        assert path.stat().st_mode == plain.stat().st_mode  # not a private temporary file's 0600

    def test_failed_writer_keeps_old_file_and_leaves_no_temp(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        tmp_path.joinpath("corpus.txt").write_text("a b a c\nb a c a\n")
        assert cli.main(["vocab", "--corpus", "corpus.txt", "--out", "vocab.tsv", "--min-count", "1"]) == 0
        target = tmp_path / "artifact.txt"
        target.write_text("old contents\n")
        start = start_embeddings

        def killed(*args):  # the child dies before it writes a row, as under the OOM killer
            pending = start(*args)
            pending.proc.kill()
            return pending

        monkeypatch.setattr("lexcontrast.vectors.start_embeddings", killed)
        capsys.readouterr()
        assert cli.main(["train-sgns", "--corpus", "corpus.txt", "--vocab", "vocab.tsv",
                         "--out", "artifact.txt", "--min-count", "1", "--dim", "2", "--subsample", "0"]) == 1
        assert capsys.readouterr().err.endswith("error: artifact.txt: vector writer failed: exit status -9\n")
        assert target.read_text() == "old contents\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["artifact.txt", "corpus.txt", "vocab.tsv"]

    def test_writer_error_names_the_path_and_the_cause(self, tmp_path, monkeypatch):
        monkeypatch.setattr("lexcontrast.vectors._WRITER", "raise OSError(28, 'No space left on device')")
        pending = start_embeddings(tmp_path / "vec.txt", _sample(np.random.default_rng(0)))
        with pytest.raises(VectorsError, match=r"vec\.txt: vector writer failed: OSError: \[Errno 28\] No space"):
            pending.wait()
        assert pending.proc.returncode == 1
        assert list(tmp_path.iterdir()) == []

    def test_rows_cut_short_on_their_way_to_the_writer_raise(self, tmp_path):
        """Under a file size limit that cuts the rows handed to the child after row 60 of 100. `ndarray.tofile`
        lost that error, and the child wrote rows 61-100 without values; the text of these zeros would fit."""
        code = (
            "import resource, sys\nimport numpy as np\n"
            "from lexcontrast.vectors import DenseEmbeddings, start_embeddings\n"
            "words = [f'w{i}' for i in range(100)]\n"
            "limit = len(''.join(w + '\\n' for w in words)) + 32 * 60\n"
            "resource.setrlimit(resource.RLIMIT_FSIZE, (limit, resource.getrlimit(resource.RLIMIT_FSIZE)[1]))\n"
            "start_embeddings(sys.argv[1], DenseEmbeddings(words, np.zeros((100, 4)))).wait()\n"
        )
        src = str(Path(vectors.__file__).resolve().parents[1])
        proc = subprocess.run([sys.executable, "-B", "-c", code, str(tmp_path / "vec.txt")], capture_output=True,
                              text=True, env={"PYTHONPATH": src})
        assert proc.returncode == 1 and proc.stderr.splitlines()[-1] == "OSError: [Errno 27] File too large"
        assert list(tmp_path.iterdir()) == []

    def test_poll_raises_only_once_the_child_has_failed(self, tmp_path, monkeypatch):
        """While the child runs, and after it exits 0, `poll` does nothing; the rename waits for `wait`."""
        emb = _sample(np.random.default_rng(0))
        done = start_embeddings(tmp_path / "done.txt", emb)
        done.proc.wait()
        done.poll()
        assert not (tmp_path / "done.txt").exists()
        done.wait()
        monkeypatch.setattr("lexcontrast.vectors._WRITER", "import time; time.sleep(60)")
        pending = start_embeddings(tmp_path / "vec.txt", emb)
        pending.poll()
        pending.proc.kill()
        pending.proc.wait()
        with pytest.raises(VectorsError, match=r"vec\.txt: vector writer failed: exit status -9"):
            pending.poll()
        assert [p.name for p in tmp_path.iterdir()] == ["done.txt"]

    @pytest.mark.skipif(not hasattr(os, "SCHED_IDLE"), reason="the idle scheduling class is Linux only")
    def test_writer_runs_in_the_idle_scheduling_class(self, tmp_path, monkeypatch):
        monkeypatch.setattr("lexcontrast.vectors._WRITER", "import time; time.sleep(60)")
        pending = start_embeddings(tmp_path / "vec.txt", _sample(np.random.default_rng(0)))
        try:
            assert os.sched_getscheduler(pending.proc.pid) == os.SCHED_IDLE
        finally:
            pending.proc.kill()
            with pytest.raises(VectorsError, match="exit status -9"):
                pending.wait()
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("word", ["a b", "a\nb", "a\rb", "end "])
    def test_word_with_a_space_or_line_break_is_refused_before_any_byte(self, tmp_path, word):
        emb = DenseEmbeddings(["ok", word], np.zeros((2, 2)))
        with pytest.raises(VectorsError, match=re.escape(repr(word))):
            start_embeddings(tmp_path / "vec.txt", emb).wait()
        assert list(tmp_path.iterdir()) == []


class TestWriterFormat:
    @pytest.mark.parametrize("meta", [None, {"tool": "lexcontrast", "stage": "svd", "effective_rank": "3"}])
    def test_bytes_equal_the_former_writers(self, tmp_path, meta):
        rng = np.random.default_rng(23)
        matrix = rng.standard_normal((5, 4)) * np.logspace(-300, 300, 4)
        matrix[0] = [0.0, -0.0, 5e-324, 1.0]
        emb = DenseEmbeddings([f"w{i}" for i in range(5)], matrix)
        start_embeddings(tmp_path / "new.txt", emb, meta).wait()
        oracles.write_embeddings_with_meta(tmp_path / "old.txt", emb, meta or {})
        assert (tmp_path / "new.txt").read_bytes() == (tmp_path / "old.txt").read_bytes()
        if meta is None:
            assert (tmp_path / "new.txt").read_bytes().startswith(b"5 4\n")
        assert read_embeddings(tmp_path / "new.txt").matrix.tobytes() == matrix.tobytes()
