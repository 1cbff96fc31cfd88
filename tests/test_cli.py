"""End-to-end command-line behavior: exit codes, option resolution, report
formats, and byte-level reproducibility of the pipeline."""

import argparse
import errno
import json
import math
import re
import resource
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import oracles
import pytest
from scipy import sparse

import lexcontrast
from lexcontrast import cli, corpus, embeddings, evaluation, lexicon, reduction, tsvio, weighting
from lexcontrast.cli import build_parser, main, read_config_file
from lexcontrast.corpus import read_corpus, read_counts
from lexcontrast.lexicon import load_lexicon
from lexcontrast.vectors import read_embeddings, start_embeddings
from synthcorpus import build_world, write_world

DATA = Path(__file__).parent / "data"
# header lines of the 24 pipeline artifacts of `workspace`, plus the full vocab and counts files
GOLDEN = DATA / "pipeline_golden.json"
# every subcommand's flags with their type, default, choices and whether required
OPTIONS = DATA / "cli_options.json"
PIPELINE = ["pipeline", "--corpus", "corpus.txt", "--lexicon", "lexicon.tsv",
            "--pairs", "pairs.tsv", "--simpairs", "sim.tsv", "--workdir", "run", "--config", "run.cfg"]


@pytest.fixture
def workspace(tmp_path, monkeypatch):
    """A small corpus with planted co-occurrence structure plus gold files."""
    monkeypatch.chdir(tmp_path)
    rng = np.random.default_rng(42)
    hot_side = ["hot", "warm"]
    cold_side = ["cold", "chilly"]
    themes = ["weather", "report", "day"]
    lines = []
    for _ in range(120):
        side = hot_side if rng.random() < 0.5 else cold_side
        tokens = [side[int(rng.integers(2))]]
        tokens += [themes[int(rng.integers(len(themes)))] for _ in range(3)]
        tokens += ["sun"] if side is hot_side else ["ice"]
        rng.shuffle(tokens)
        lines.append(" ".join(tokens))
    (tmp_path / "corpus.txt").write_text("\n".join(lines) + "\n")
    (tmp_path / "lexicon.tsv").write_text(
        "hot\tSYN\twarm\ncold\tSYN\tchilly\nhot\tANT\tcold\nwarm\tANT\tchilly\n"
    )
    (tmp_path / "pairs.tsv").write_text(
        "hot\twarm\tSYN\tADJ\ncold\tchilly\tSYN\tADJ\n"
        "hot\tcold\tANT\tADJ\nwarm\tchilly\tANT\tADJ\n"
        "sun\tice\tANT\tNOUN\nweather\treport\tSYN\tNOUN\n"
    )
    (tmp_path / "sim.tsv").write_text(
        "hot\twarm\t9.0\ncold\tchilly\t8.5\nhot\tcold\t1.0\n"
        "warm\tchilly\t1.5\nweather\tday\t5.0\n"
    )
    (tmp_path / "run.cfg").write_text(
        "min_count=1\nwindow=2\ndim=6\nsvd_dim=4\nnegatives=3\n"
        "epochs=1\nsubsample=0\nlearning_rate=0.05\nthreads=1\nseed=7\n"
    )
    return tmp_path


def _tree_bytes(root: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(root.iterdir()) if p.is_file()}


class TestExitCodes:
    def test_missing_input_file_is_2(self, tmp_path, capsys):
        code = main(["vocab", "--corpus", str(tmp_path / "nope.txt"), "--out", str(tmp_path / "v.tsv")])
        assert code == 2
        assert "nope.txt" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, stage", [
        (["vocab", "--corpus", "corpus.txt", "--out", "missing/v.tsv"], "stage_vocab"),
        (["train-sgns", "--corpus", "corpus.txt", "--vocab", "vocab.tsv", "--out", "sgns.txt",
          "--context-out", "missing/ctx.txt", "--config", "run.cfg"], "stage_train_sgns"),
    ])
    def test_missing_output_directory_is_2_before_the_work(self, workspace, capsys, monkeypatch, argv, stage):
        main(["vocab", "--corpus", "corpus.txt", "--out", "vocab.tsv", "--config", "run.cfg"])

        def refuse(*args):
            raise AssertionError(f"{stage} ran although its output directory is missing")

        monkeypatch.setattr(cli, stage, refuse)
        capsys.readouterr()
        assert main(argv) == 2
        assert "error: output directory not found: missing" in capsys.readouterr().err
        assert not Path("sgns.txt").exists()

    def test_out_that_is_a_directory_is_1_before_the_work(self, workspace, capsys, monkeypatch):
        Path("adir").mkdir()

        def refuse(*args, **kwargs):
            raise AssertionError("the corpus was read although --out is a directory")

        monkeypatch.setattr(corpus, "read_corpus", refuse)
        assert main(["vocab", "--corpus", "corpus.txt", "--min-count", "1", "--out", "adir"]) == 1
        assert capsys.readouterr().err == "error: Is a directory: adir\n"

    def test_out_and_context_out_naming_one_file_are_1_before_the_work(self, workspace, capsys, monkeypatch):
        main(["vocab", "--corpus", "corpus.txt", "--out", "vocab.tsv", "--config", "run.cfg"])
        train = ["train-sgns", "--corpus", "corpus.txt", "--vocab", "vocab.tsv", "--config", "run.cfg"]
        assert main([*train, "--out", "words.txt", "--context-out", "contexts.txt"]) == 0
        assert read_embeddings("words.txt") != read_embeddings("contexts.txt")
        assert tsvio.read_meta("contexts.txt")["stage"] == "train-sgns-context"

        def refuse(*args, **kwargs):
            raise AssertionError("the corpus was read although both outputs name one file")

        monkeypatch.setattr(corpus, "read_corpus", refuse)
        capsys.readouterr()
        assert main([*train, "--out", "same.txt", "--context-out", "./same.txt"]) == 1
        assert capsys.readouterr().err == "error: --out and --context-out name the same file: ./same.txt\n"
        assert not [p.name for p in workspace.iterdir() if p.name.startswith("same")]

    @pytest.mark.parametrize("argv, error", [
        (["lmi", "--counts", "counts.tsv", "--vocab", "vocab.tsv", "--out", "counts.tsv"],
         "--out names the --counts input: counts.tsv"),
        (["svd", "--weights", "lmi.tsv", "--vocab", "vocab.tsv", "--out", "./vocab.tsv"],
         "--out names the --vocab input: ./vocab.tsv"),
        (["eval-ap", "--vectors", "lmi.tsv", "--vocab", "vocab.tsv", "--pairs", "pairs.tsv", "--out", "vocab.tsv"],
         "--out names the --vocab input: vocab.tsv"),
    ], ids=["lmi-counts", "svd-vocab", "eval-ap-vocab"])
    def test_out_that_names_an_input_is_1_before_the_work(self, workspace, capsys, monkeypatch, argv, error):
        main(["vocab", "--corpus", "corpus.txt", "--out", "vocab.tsv", "--config", "run.cfg"])
        main(["count", "--corpus", "corpus.txt", "--vocab", "vocab.tsv", "--out", "counts.tsv", "--config", "run.cfg"])
        main(["lmi", "--counts", "counts.tsv", "--out", "lmi.tsv"])
        before = _tree_bytes(workspace)

        def refuse(*args):
            raise AssertionError("an input was read although --out names one of them")

        monkeypatch.setattr(cli, "_load", refuse)
        capsys.readouterr()
        assert main(argv) == 1
        assert capsys.readouterr().err == f"error: {error}\n"
        assert _tree_bytes(workspace) == before

    @pytest.mark.parametrize("argv, error", [
        (["vocab", "--corpus", "corpus.txt", "--out", "run.cfg", "--config", "run.cfg"],
         "--out names the --config input: run.cfg"),
        (["pipeline", "--corpus", "corpus.txt", "--lexicon", "lexicon.tsv", "--workdir", ".", "--config", "sa.tsv"],
         "artifact sa.tsv names the --config input: sa.tsv"),
    ], ids=["vocab", "pipeline"])
    def test_output_that_names_the_config_file_is_1_before_the_work(self, workspace, capsys, monkeypatch, argv,
                                                                    error):
        Path("sa.tsv").write_bytes(Path("run.cfg").read_bytes())
        before = _tree_bytes(workspace)

        def refuse(*args):
            raise AssertionError("an input was read although an output names the config file")

        monkeypatch.setattr(cli, "_load", refuse)
        assert main(argv) == 1
        assert capsys.readouterr().err == f"error: {error}\n"
        assert _tree_bytes(workspace) == before

    def test_pipeline_input_in_its_workdir_under_an_artifact_name_is_1_before_the_work(self, workspace, capsys,
                                                                                       monkeypatch):
        Path("run").mkdir()
        Path("run/counts.tsv").write_bytes(Path("corpus.txt").read_bytes())

        def refuse(*args, **kwargs):
            raise AssertionError("an input was read although an artifact would replace the corpus")

        monkeypatch.setattr(cli, "_load", refuse)
        monkeypatch.setattr(corpus, "read_corpus", refuse)
        argv = ["pipeline", "--corpus", "run/counts.tsv", "--lexicon", "lexicon.tsv", "--workdir", "run",
                "--config", "run.cfg"]
        assert main(argv) == 1
        assert capsys.readouterr().err == "error: artifact counts.tsv names the --corpus input: run/counts.tsv\n"
        assert Path("run/counts.tsv").read_bytes() == Path("corpus.txt").read_bytes()
        assert [p.name for p in Path("run").iterdir()] == ["counts.tsv"]

    def test_pipeline_artifact_that_is_a_directory_is_named(self, workspace, capsys):
        Path("run/vocab.tsv").mkdir(parents=True)
        assert main(PIPELINE) == 1
        assert capsys.readouterr().err == "error: Is a directory: run/vocab.tsv\n"
        assert [p.name for p in Path("run").iterdir()] == ["vocab.tsv"]

    def test_pipeline_artifact_that_is_a_directory_is_1_before_any_input_is_read(self, workspace, capsys,
                                                                                monkeypatch):
        """A directory where the last vector file goes is found before the SVDs and the trainers run."""
        Path("run/sgns.txt").mkdir(parents=True)

        def refuse(*args, **kwargs):
            raise AssertionError("an input was read although an artifact path is a directory")

        monkeypatch.setattr(cli, "_load", refuse)
        for reader in (corpus.read_corpus, lexicon.load_lexicon, evaluation.load_relation_pairs,
                       evaluation.load_similarity_pairs):
            monkeypatch.setattr(sys.modules[reader.__module__], reader.__name__, refuse)
        assert main(PIPELINE) == 1
        assert capsys.readouterr().err == "error: Is a directory: run/sgns.txt\n"
        assert [p.name for p in Path("run").iterdir()] == ["sgns.txt"]
        assert not list(Path("run/sgns.txt").iterdir())

    def test_workdir_that_is_a_file_is_1(self, workspace, capsys):
        Path("run").write_text("not a directory\n")
        assert main(PIPELINE) == 1
        assert "error: File exists: run" in capsys.readouterr().err

    def test_hashtag_words_pass_from_vocab_to_count(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        Path("corpus.txt").write_text("#tbt hot cold\nhot #tbt warm\ncold warm #tbt\n")
        assert main(["vocab", "--corpus", "corpus.txt", "--min-count", "1", "--out", "v.tsv"]) == 0
        assert "#tbt\t0\t3" in Path("v.tsv").read_text().splitlines()
        assert main(["count", "--corpus", "corpus.txt", "--vocab", "v.tsv", "--window", "2", "--out", "c.tsv"]) == 0
        assert read_counts("c.tsv").n_words == 4

    def test_pipeline_with_an_empty_vocabulary_is_1_before_any_artifact(self, workspace, capsys):
        assert main([*PIPELINE, "--min-count", "100000"]) == 1
        assert capsys.readouterr().err == "error: empty vocabulary: no word occurs min_count=100000 times\n"
        assert list(Path("run").iterdir()) == []

    def test_empty_loaded_vocabulary_names_the_min_count_it_was_built_with(self, workspace, capsys):
        """The one in the vocabulary file's header, not the trainer's own (100 by default), or none at all."""
        assert main(["vocab", "--corpus", "corpus.txt", "--min-count", "100000", "--out", "v.tsv"]) == 0
        assert main(["train-sgns", "--corpus", "corpus.txt", "--vocab", "v.tsv", "--out", "sgns.txt"]) == 1
        assert capsys.readouterr().err == "error: empty vocabulary: no word occurs min_count=100000 times\n"
        Path("bare.tsv").write_text("")  # no header: the min_count it was built with is unknown
        assert main(["train-sgns", "--corpus", "corpus.txt", "--vocab", "bare.tsv", "--out", "sgns.txt"]) == 1
        assert capsys.readouterr().err == "error: empty vocabulary\n"
        assert not Path("sgns.txt").exists()

    def test_missing_required_option_is_1(self, tmp_path, capsys):
        code = main(["vocab", "--out", str(tmp_path / "v.tsv")])
        assert code == 1
        assert "--corpus is required" in capsys.readouterr().err

    def test_usage_error_is_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["not-a-command"])
        assert exc.value.code == 2

    def test_domain_error_is_1(self, workspace, capsys):
        main(["vocab", "--corpus", "corpus.txt", "--out", "vocab.tsv", "--config", "run.cfg"])
        main(["count", "--corpus", "corpus.txt", "--vocab", "vocab.tsv",
              "--out", "counts.tsv", "--config", "run.cfg"])
        main(["lmi", "--counts", "counts.tsv", "--out", "lmi.tsv"])
        # sparse weighted vectors without --vocab cannot resolve words
        code = main(["eval-ap", "--vectors", "lmi.tsv", "--pairs", "pairs.tsv"])
        assert code == 1
        assert "--vocab" in capsys.readouterr().err

    @pytest.mark.parametrize("artifact, fault", [
        ("counts.tsv", "duplicate"), ("lmi.tsv", "duplicate"), ("lmi.tsv", "nonpositive")])
    def test_bad_matrix_file_is_1(self, workspace, capsys, artifact, fault):
        main(["vocab", "--corpus", "corpus.txt", "--out", "vocab.tsv", "--config", "run.cfg"])
        main(["count", "--corpus", "corpus.txt", "--vocab", "vocab.tsv",
              "--out", "counts.tsv", "--config", "run.cfg"])
        main(["lmi", "--counts", "counts.tsv", "--out", "lmi.tsv"])
        lines = Path(artifact).read_text().splitlines(keepends=True)
        first = next(i for i, line in enumerate(lines) if not line.startswith("#"))
        if fault == "duplicate":
            lines.append(lines[first])
        else:
            lines[first] = lines[first].rsplit("\t", 1)[0] + "\t-4.0\n"
        Path("bad.tsv").write_text("".join(lines))
        capsys.readouterr()
        if artifact == "counts.tsv":
            code = main(["lmi", "--counts", "bad.tsv", "--out", "out.tsv"])
        else:
            code = main(["weight-sa", "--lmi", "bad.tsv", "--lexicon", "lexicon.tsv",
                         "--vocab", "vocab.tsv", "--out", "out.tsv"])
        assert code == 1
        assert "bad.tsv" in capsys.readouterr().err
        assert not Path("out.tsv").exists()

    @pytest.mark.parametrize("command", ["weight-sa", "svd"])
    def test_weighted_id_out_of_range_is_1(self, workspace, capsys, command):
        main(["vocab", "--corpus", "corpus.txt", "--out", "vocab.tsv", "--config", "run.cfg"])
        main(["count", "--corpus", "corpus.txt", "--vocab", "vocab.tsv",
              "--out", "counts.tsv", "--config", "run.cfg"])
        main(["lmi", "--counts", "counts.tsv", "--out", "lmi.tsv"])
        lines = Path("lmi.tsv").read_text().splitlines(keepends=True)
        n_features = next(line for line in lines if line.startswith("#n_features=")).strip().split("=")[1]
        first = next(i for i, line in enumerate(lines) if not line.startswith("#"))
        lines[first] = f"0\t{n_features}\t0.5\n"
        Path("bad.tsv").write_text("".join(lines))
        capsys.readouterr()
        if command == "svd":
            code = main(["svd", "--weights", "bad.tsv", "--vocab", "vocab.tsv", "--out", "out.txt"])
        else:
            code = main(["weight-sa", "--lmi", "bad.tsv", "--lexicon", "lexicon.tsv",
                         "--vocab", "vocab.tsv", "--out", "out.txt"])
        assert code == 1
        assert f"bad.tsv:{first + 1}: id out of range" in capsys.readouterr().err
        assert not Path("out.txt").exists()

    @pytest.mark.parametrize("command, key, value", [
        ("lmi", "n_words", "abc"), ("lmi", "n_words", "-1"), ("lmi", "window", "0"), ("lmi", "window", None),
        ("svd", "n_words", "x"), ("svd", "n_features", "-1"), ("svd", "scheme", "banana"), ("svd", "scheme", None),
        ("weight-sa", "n_features", "3.5"), ("weight-sa", "scheme", "banana"),
    ])
    def test_bad_table_header_is_1_and_names_the_file_and_key(self, workspace, capsys, command, key, value):
        main(["vocab", "--corpus", "corpus.txt", "--out", "vocab.tsv", "--config", "run.cfg"])
        main(["count", "--corpus", "corpus.txt", "--vocab", "vocab.tsv",
              "--out", "counts.tsv", "--config", "run.cfg"])
        main(["lmi", "--counts", "counts.tsv", "--out", "lmi.tsv"])
        table = "counts.tsv" if command == "lmi" else "lmi.tsv"
        lines = [line for line in Path(table).read_text().splitlines(keepends=True)
                 if not line.startswith(f"#{key}=")]
        Path("bad.tsv").write_text("".join(lines if value is None else [f"#{key}={value}\n", *lines]))
        inputs = {"lmi": ["--counts", "bad.tsv"], "svd": ["--weights", "bad.tsv", "--vocab", "vocab.tsv"],
                  "weight-sa": ["--lmi", "bad.tsv", "--lexicon", "lexicon.tsv", "--vocab", "vocab.tsv"]}
        capsys.readouterr()
        assert main([command, *inputs[command], "--out", "out.tsv"]) == 1
        err = capsys.readouterr().err
        assert f"bad.tsv: {'missing' if value is None else 'bad'} {key} header" in err
        assert not Path("out.tsv").exists()

    def test_weight_sa_vocabulary_of_another_size_is_1_and_names_both_sizes(self, workspace, capsys):
        main(["vocab", "--corpus", "corpus.txt", "--out", "vocab.tsv", "--config", "run.cfg"])
        main(["count", "--corpus", "corpus.txt", "--vocab", "vocab.tsv",
              "--out", "counts.tsv", "--config", "run.cfg"])
        main(["lmi", "--counts", "counts.tsv", "--out", "lmi.tsv"])
        n_words = read_counts("counts.tsv").n_words
        Path("short.tsv").write_text("".join(Path("vocab.tsv").read_text().splitlines(keepends=True)[:-1]))
        capsys.readouterr()
        code = main(["weight-sa", "--lmi", "lmi.tsv", "--lexicon", "lexicon.tsv", "--vocab", "short.tsv",
                     "--out", "out.tsv"])
        assert code == 1
        err = capsys.readouterr().err
        assert f"the LMI matrix ({n_words}, {n_words}), the vocabulary {n_words - 1} words" in err
        assert not Path("out.tsv").exists()

    @pytest.mark.parametrize("command, table", [
        ("svd", "the LMI matrix"), ("eval-ap", "the LMI matrix"), ("lmi", "the count table"),
        ("weight-sa", "the LMI matrix"), ("train-dlce", "the feature index"),
    ])
    def test_vocabulary_one_word_short_is_1_and_names_both_sizes(self, workspace, capsys, command, table):
        """Every command that reads a table against a vocabulary refuses one of another size with one
        text, which names the table's shape and the vocabulary's size, before any output."""
        main(["vocab", "--corpus", "corpus.txt", "--out", "vocab.tsv", "--config", "run.cfg"])
        main(["count", "--corpus", "corpus.txt", "--vocab", "vocab.tsv",
              "--out", "counts.tsv", "--config", "run.cfg"])
        main(["lmi", "--counts", "counts.tsv", "--out", "lmi.tsv"])
        n = read_counts("counts.tsv").n_words
        Path("short.tsv").write_text("".join(Path("vocab.tsv").read_text().splitlines(keepends=True)[:-1]))
        inputs = {"svd": ["--weights", "lmi.tsv"], "eval-ap": ["--vectors", "lmi.tsv", "--pairs", "pairs.tsv"],
                  "lmi": ["--counts", "counts.tsv"], "weight-sa": ["--lmi", "lmi.tsv", "--lexicon", "lexicon.tsv"],
                  "train-dlce": ["--corpus", "corpus.txt", "--lexicon", "lexicon.tsv", "--lmi", "lmi.tsv",
                                 "--config", "run.cfg"]}
        capsys.readouterr()
        assert main([command, *inputs[command], "--vocab", "short.tsv", "--out", "out.tsv"]) == 1
        assert capsys.readouterr().err == (f"error: table shape and vocabulary disagree: {table} ({n}, {n}), "
                                           f"the vocabulary {n - 1} words\n")
        assert not Path("out.tsv").exists()

    @pytest.mark.parametrize("fault", ["duplicate word", "nan vector", "nan weight", "negative count"])
    def test_bad_input_rows_are_1_and_named(self, workspace, capsys, fault):
        main(["vocab", "--corpus", "corpus.txt", "--out", "vocab.tsv", "--config", "run.cfg"])
        main(["count", "--corpus", "corpus.txt", "--vocab", "vocab.tsv",
              "--out", "counts.tsv", "--config", "run.cfg"])
        main(["lmi", "--counts", "counts.tsv", "--out", "lmi.tsv"])
        main(["weight-sa", "--lmi", "lmi.tsv", "--lexicon", "lexicon.tsv", "--vocab", "vocab.tsv",
              "--out", "sa.tsv"])
        eval_ap = ["eval-ap", "--vectors", "bad.tsv", "--pairs", "pairs.tsv", "--out", "out.tsv"]
        if fault in ("duplicate word", "nan vector"):
            row = "hot 1.0 2.0\n" if fault == "duplicate word" else "cold nan 2.0\n"
            Path("bad.tsv").write_text("2 2\nhot 0.5 0.5\n" + row)
            argv = eval_ap
        elif fault == "nan weight":
            lines = Path("sa.tsv").read_text().splitlines(keepends=True)
            first = next(i for i, line in enumerate(lines) if not line.startswith("#"))
            lines[first] = lines[first].rsplit("\t", 1)[0] + "\tnan\n"
            Path("bad.tsv").write_text("".join(lines))
            argv = eval_ap + ["--vocab", "vocab.tsv"]
        else:
            lines = Path("vocab.tsv").read_text().splitlines(keepends=True)
            lines[-1] = lines[-1].rsplit("\t", 1)[0] + "\t-3\n"
            Path("bad.tsv").write_text("".join(lines))
            argv = ["lmi", "--counts", "counts.tsv", "--vocab", "bad.tsv", "--out", "out.tsv"]
        capsys.readouterr()
        assert main(argv) == 1
        assert "bad.tsv" in capsys.readouterr().err
        assert not Path("out.tsv").exists()

    @pytest.mark.parametrize("argv, name", [
        (["vocab", "--corpus", "bad.txt", "--min-count", "1", "--out", "vocab.tsv"], "bad.txt"),
        (["eval-ap", "--vectors", str(DATA / "toy_vectors.txt"), "--pairs", "bad.tsv", "--out", "out.tsv"],
         "bad.tsv"),
    ])
    def test_input_that_is_not_utf8_is_1_and_names_the_file_and_line(self, tmp_path, monkeypatch, capsys,
                                                                     argv, name):
        monkeypatch.chdir(tmp_path)
        rows = b"hot\tcold\tANT\tADJ\n" if name.endswith(".tsv") else b"hot cold\n"
        Path(name).write_bytes(rows + rows.replace(b"hot", b"caf\xe9"))  # a Latin-1 byte on line 2
        assert main(argv) == 1
        assert capsys.readouterr().err == f"error: {name}:2: not UTF-8 text (invalid continuation byte)\n"
        assert not Path(argv[-1]).exists()

    @pytest.mark.parametrize("name, read", [
        ("corpus.txt", read_corpus), ("lexicon.tsv", load_lexicon), ("vectors.txt", read_embeddings),
        ("counts.tsv", read_counts)])
    def test_a_leading_byte_order_mark_reads_as_no_mark(self, workspace, name, read):
        """A UTF-8 BOM joins neither the first word nor the first `#` header."""
        main(["vocab", "--corpus", "corpus.txt", "--out", "vocab.tsv", "--config", "run.cfg"])
        main(["count", "--corpus", "corpus.txt", "--vocab", "vocab.tsv", "--out", "counts.tsv", "--config", "run.cfg"])
        Path("vectors.txt").write_bytes((DATA / "toy_vectors.txt").read_bytes())
        Path(f"bom_{name}").write_bytes(b"\xef\xbb\xbf" + Path(name).read_bytes())

        def fields(obj):
            return {key: value.tolist() if isinstance(value, np.ndarray) else value
                    for key, value in vars(obj).items()}

        assert fields(read(f"bom_{name}")) == fields(read(name))

    def test_no_training_pairs_names_the_tokens_window_and_threshold(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        Path("corpus.txt").write_text("hot cold warm cool\ncool warm hot cold\nwarm hot cool cold\ncold cool warm hot\n")
        Path("lexicon.tsv").write_text("hot\tSYN\twarm\ncold\tSYN\tcool\nhot\tANT\tcold\n")
        argv = ["pipeline", "--corpus", "corpus.txt", "--lexicon", "lexicon.tsv", "--workdir", "run",
                "--min-count", "1", "--window", "2", "--dim", "4", "--svd-dim", "2", "--negatives", "2"]
        assert main(argv) == 1  # the default subsample threshold, 1e-5, discards nearly every token
        assert capsys.readouterr().err == ("error: no training pairs survive windowing/subsampling: "
                                           "16 in-vocabulary tokens, window 2, subsample 1e-05\n")
        assert main([*argv, "--subsample", "0"]) == 0
        assert len(list(Path("run").iterdir())) == 8

    @pytest.mark.parametrize("text, flags, tokens, subsample", [
        ("hot cold warm cool\ncool warm hot cold\nwarm hot cool cold\ncold cool warm hot\n", [], 16, "1e-05"),
        ("hot\ncold\nwarm\ncool\nhot\n", ["--subsample", "0"], 5, "off"),
    ], ids=["subsampled-away", "one-token-lines"])
    def test_untrainable_pipeline_is_1_before_any_artifact(self, tmp_path, monkeypatch, capsys, text, flags,
                                                            tokens, subsample):
        """No line keeps two tokens in any epoch: the trainer's refusal comes
        before the vocabulary, counts, weights and SVDs are written."""
        monkeypatch.chdir(tmp_path)
        Path("corpus.txt").write_text(text)
        Path("lexicon.tsv").write_text("hot\tSYN\twarm\ncold\tSYN\tcool\nhot\tANT\tcold\n")
        assert main(["pipeline", "--corpus", "corpus.txt", "--lexicon", "lexicon.tsv", "--workdir", "run",
                     "--min-count", "1", "--window", "2", "--dim", "4", "--svd-dim", "2", "--negatives", "2",
                     *flags]) == 1
        assert capsys.readouterr().err == ("error: no training pairs survive windowing/subsampling: "
                                           f"{tokens} in-vocabulary tokens, window 2, subsample {subsample}\n")
        assert list(Path("run").iterdir()) == []

    def test_a_run_of_one_batch_is_1_before_any_artifact(self, tmp_path, monkeypatch, capsys):
        """One 4-word line has 10 pairs, which fit in one batch of 20: every SGNS gradient of that batch
        reads C at zero, so W would be written as its random initialization."""
        monkeypatch.chdir(tmp_path)
        Path("corpus.txt").write_text("hot cold warm cool\n")
        Path("lexicon.tsv").write_text("hot\tSYN\twarm\ncold\tSYN\tcool\nhot\tANT\tcold\n")
        assert main(["pipeline", "--corpus", "corpus.txt", "--lexicon", "lexicon.tsv", "--workdir", "run",
                     "--min-count", "1", "--window", "2", "--dim", "4", "--svd-dim", "2", "--negatives", "2",
                     "--subsample", "0"]) == 1
        assert capsys.readouterr().err == ("error: too few training pairs: all 10 fit in one batch of 20, and the "
                                           "skip-gram step would leave W at its random initialization\n")
        assert list(Path("run").iterdir()) == []

    @pytest.mark.parametrize("text, min_count, flags, pipeline_flags", [
        (None, "100000", ["--config", "run.cfg"], ["--pairs", "pairs.tsv", "--simpairs", "sim.tsv"]),
        ("hot cold warm cool\ncool warm hot cold\nwarm hot cool cold\ncold cool warm hot\n", "1",
         ["--window", "2", "--dim", "4", "--negatives", "2"], ["--svd-dim", "2"]),
        ("hot\ncold\nwarm\ncool\nhot\n", "1", ["--window", "2", "--dim", "4", "--negatives", "2", "--subsample", "0"],
         ["--svd-dim", "2"]),
        ("hot cold warm cool\n", "1", ["--window", "2", "--dim", "4", "--negatives", "2", "--subsample", "0"],
         ["--svd-dim", "2"]),
    ], ids=["empty-vocabulary", "subsampled-away", "one-token-lines", "one-batch"])
    def test_pipeline_and_the_trainers_refuse_with_one_text(self, workspace, capsys, text, min_count, flags,
                                                            pipeline_flags):
        """The inputs of the tests above: `pipeline`, and `train-sgns` and `train-dlce` on the
        vocabulary and LMI that their subcommands write, print the same refusal."""
        if text is not None:
            Path("corpus.txt").write_text(text)
        train = [*flags, "--min-count", min_count]
        assert main(["pipeline", "--corpus", "corpus.txt", "--lexicon", "lexicon.tsv", "--workdir", "run",
                     *pipeline_flags, *train]) == 1
        refusal = capsys.readouterr().err
        assert refusal.startswith("error: ") and refusal.count("\n") == 1
        assert main(["vocab", "--corpus", "corpus.txt", "--out", "vocab.tsv", "--min-count", min_count]) == 0
        assert main(["count", "--corpus", "corpus.txt", "--vocab", "vocab.tsv", "--out", "counts.tsv"]) == 0
        assert main(["lmi", "--counts", "counts.tsv", "--out", "lmi.tsv"]) == 0
        for command, inputs in (("train-sgns", []), ("train-dlce", ["--lexicon", "lexicon.tsv", "--lmi", "lmi.tsv"])):
            assert main([command, "--corpus", "corpus.txt", "--vocab", "vocab.tsv", *inputs, "--out", "out.txt",
                         *train]) == 1
            assert capsys.readouterr().err == refusal
        assert not Path("out.txt").exists()

    def test_bad_lexicon_row_is_1_before_any_artifact(self, workspace, capsys):
        Path("lex.tsv").write_text("hot\tSYN\twarm\ncold\tFOO\tcool\n")
        argv = [("lex.tsv" if arg == "lexicon.tsv" else arg) for arg in PIPELINE]
        assert main(argv) == 1
        assert capsys.readouterr().err == "error: lex.tsv:2: 'FOO' is not one of SYN, ANT (bad REL in column 2)\n"
        assert list(Path("run").iterdir()) == []

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        assert "lexcontrast" in capsys.readouterr().out


class TestOptionResolution:
    def test_flag_beats_config(self, workspace):
        (workspace / "strict.cfg").write_text("min_count=50\n")
        code = main(["vocab", "--corpus", "corpus.txt", "--out", "v1.tsv",
                     "--config", "strict.cfg", "--min-count", "1"])
        assert code == 0
        # min_count=50 would keep nothing; the flag value 1 keeps every word
        body = [l for l in (workspace / "v1.tsv").read_text().splitlines() if not l.startswith("#")]
        assert len(body) >= 8

    def test_config_beats_default(self, workspace):
        (workspace / "strict.cfg").write_text("min_count=1000\n")
        main(["vocab", "--corpus", "corpus.txt", "--out", "v2.tsv", "--config", "strict.cfg"])
        body = [l for l in (workspace / "v2.tsv").read_text().splitlines() if not l.startswith("#")]
        assert body == []

    def test_config_parser(self, tmp_path):
        cfg = tmp_path / "x.cfg"
        cfg.write_text("# comment\nmin_count=3\nlowercase=false\nsubsample=1e-4\nant_mean=pooled\n\n")
        parsed = read_config_file(cfg)
        assert parsed == {
            "min_count": 3,
            "lowercase": False,
            "subsample": 1e-4,
            "ant_mean": "pooled",
        }
        cfg.write_text("min_count 3\n")
        with pytest.raises(ValueError, match="key=value"):
            read_config_file(cfg)

    @pytest.mark.parametrize("key, value, kind", [
        ("dim", "abc", "int"), ("max_contrast_neighbors", "1.5", "int"), ("beta", "high", "float"),
        ("lowercase", "maybe", "bool"),
    ])
    def test_bad_config_value_names_file_line_and_key(self, tmp_path, key, value, kind):
        cfg = tmp_path / "x.cfg"
        cfg.write_text(f"# comment\nmin_count=3\n{key}={value}\n")
        with pytest.raises(ValueError) as err:
            read_config_file(cfg)
        assert str(err.value) == f"{cfg}:3: config key {key}: expected {kind}, got {value!r}"

    def test_repeated_config_key_is_1_and_names_file_line_and_key(self, workspace, capsys, monkeypatch):
        (workspace / "twice.cfg").write_text("min_count=1\n# the second value used to win\nmin_count=100000\n")
        with pytest.raises(ValueError) as err:
            read_config_file("twice.cfg")
        assert str(err.value) == "twice.cfg:3: repeated config key 'min_count'"

        def refuse(*args, **kwargs):
            raise AssertionError("the corpus was read although the config file repeats a key")

        monkeypatch.setattr(corpus, "read_corpus", refuse)
        assert main(["vocab", "--corpus", "corpus.txt", "--out", "v.tsv", "--config", "twice.cfg"]) == 1
        assert capsys.readouterr().err == "error: twice.cfg:3: repeated config key 'min_count'\n"
        assert not (workspace / "v.tsv").exists()

    def test_unknown_config_key_is_1(self, workspace, capsys):
        (workspace / "typo.cfg").write_text("min_count=1\ndimm=7\n")
        code = main(["vocab", "--corpus", "corpus.txt", "--out", "v3.tsv", "--config", "typo.cfg"])
        assert code == 1
        assert "dimm" in capsys.readouterr().err
        assert not (workspace / "v3.tsv").exists()

    @pytest.mark.parametrize("command", ["train-sgns", "pipeline"])
    def test_threads_other_than_one_are_1(self, workspace, capsys, command):
        (workspace / "threads.cfg").write_text("min_count=1\nthreads=2\n")
        inputs = ["--corpus", "corpus.txt"]
        inputs += ["--vocab", "vocab.tsv", "--out", "sgns.txt"] if command == "train-sgns" else \
            ["--lexicon", "lexicon.tsv", "--workdir", "out"]
        main(["vocab", "--corpus", "corpus.txt", "--out", "vocab.tsv", "--min-count", "1"])
        for option in (["--threads", "2"], ["--config", "threads.cfg"]):
            assert main([command, *inputs, "--min-count", "1", *option]) == 1
            assert "threads must be 1, got 2" in capsys.readouterr().err
        assert not (workspace / "sgns.txt").exists() and not (workspace / "out").exists()

    @pytest.mark.parametrize("command", ["train-sgns", "train-dlce"])
    def test_bad_training_option_is_1_before_any_input_is_read(self, workspace, capsys, monkeypatch, command):
        main(["vocab", "--corpus", "corpus.txt", "--out", "vocab.tsv", "--min-count", "1"])
        main(["count", "--corpus", "corpus.txt", "--vocab", "vocab.tsv", "--out", "counts.tsv"])
        main(["lmi", "--counts", "counts.tsv", "--out", "lmi.tsv"])

        def refuse(*args, **kwargs):
            raise AssertionError("an input was read before the training options were checked")

        for reader in (corpus.read_corpus, corpus.read_vocabulary, lexicon.load_lexicon,
                       weighting.read_weighted):
            monkeypatch.setattr(sys.modules[reader.__module__], reader.__name__, refuse)
        capsys.readouterr()
        inputs = ["--corpus", "corpus.txt", "--vocab", "vocab.tsv"]
        if command == "train-dlce":
            inputs += ["--lexicon", "lexicon.tsv", "--lmi", "lmi.tsv"]
        assert main([command, *inputs, "--out", "out.txt", "--min-count", "1", "--learning-rate", "0"]) == 1
        assert "learning rate must be > 0, got 0.0" in capsys.readouterr().err
        assert not (workspace / "out.txt").exists()

    @pytest.mark.parametrize("key, value", [
        ("ant_mean", "bogus"), ("svd_mode", "bogus"), ("seed", "-5"),
        ("svd_dim", "0"), ("sigma_exponent", "nan"), ("noise_exponent", "nan"),
        ("learning_rate", "inf"), ("beta", "inf"), ("noise_exponent", "inf"), ("sigma_exponent", "inf"),
        ("subsample", "inf"),
    ])
    def test_bad_config_value_is_1_before_any_work(self, workspace, capsys, key, value):
        (workspace / "bad.cfg").write_text(f"min_count=1\n{key}={value}\n")
        code = main(["pipeline", "--corpus", "corpus.txt", "--lexicon", "lexicon.tsv",
                     "--workdir", "out", "--config", "bad.cfg"])
        assert code == 1
        assert key in capsys.readouterr().err
        assert not (workspace / "out").exists()

    @pytest.mark.parametrize("key, value", [("noise_exponent", "inf"), ("learning_rate", "-inf")])
    def test_non_finite_flag_is_1_before_any_input_is_read(self, workspace, capsys, monkeypatch, key, value):
        def refuse(*args, **kwargs):
            raise AssertionError("the corpus was read before the options were checked")

        monkeypatch.setattr(corpus, "read_corpus", refuse)
        assert main(["pipeline", "--corpus", "corpus.txt", "--lexicon", "lexicon.tsv", "--workdir", "out",
                     f"{cli._flag(key)}={value}"]) == 1
        assert capsys.readouterr().err == f"error: {key} must be finite, got {value}\n"
        assert not (workspace / "out").exists()

    @pytest.mark.parametrize("key, value, shown", [("subsample", "-1e-5", "-1e-05"),
                                                   ("max_contrast_neighbors", "-1", "-1")])
    @pytest.mark.parametrize("source", ["flag", "config"])
    def test_negative_value_of_an_option_that_0_switches_off_is_1(self, workspace, capsys, monkeypatch, key, value,
                                                                  shown, source):
        """0 switches subsample and max_contrast_neighbors off; a negative value is a typo, not off."""
        def refuse(*args, **kwargs):
            raise AssertionError("the corpus was read before the options were checked")

        monkeypatch.setattr(corpus, "read_corpus", refuse)
        (workspace / "neg.cfg").write_text(f"min_count=1\n{key}={value}\n")
        option = [f"{cli._flag(key)}={value}"] if source == "flag" else ["--config", "neg.cfg"]
        assert main(["pipeline", "--corpus", "corpus.txt", "--lexicon", "lexicon.tsv", "--workdir", "out",
                     *option]) == 1
        assert capsys.readouterr().err == f"error: {key} must be >= 0, got {shown}\n"
        assert not (workspace / "out").exists()

    # every bounded option, its bound and the value just below it: the training options' bounds are
    # TrainingConfig's, the rest the command line's own, and both print one text
    BOUNDED = [("min_count", 1, "0"), ("window", 1, "0"), ("dim", 1, "0"), ("svd_dim", 1, "0"),
               ("negatives", 1, "0"), ("epochs", 1, "0"), ("seed", 0, "-1"), ("noise_exponent", 0, "-0.001"),
               ("beta", 0, "-0.001"), ("sigma_exponent", 0, "-0.001"), ("subsample", 0, "-0.001"),
               ("max_contrast_neighbors", 0, "-1")]

    # from a flag where the command has one (vocab: min_count and seed), and from a config file
    BELOW = [pytest.param(command, source, *bounded, id=f"{command}-{source}-{bounded[0]}")
             for bounded in BOUNDED for command in ("pipeline", "vocab") for source in ("flag", "config")
             if source == "config" or command == "pipeline" or bounded[0] in ("min_count", "seed")]

    @pytest.mark.parametrize("command, source, key, low, value", BELOW)
    def test_value_below_its_bound_is_1_with_its_own_text(self, workspace, capsys, monkeypatch, command, source, key,
                                                          low, value):
        """Whichever of the two owns the bound, and whether or not the command trains."""
        def refuse(*args, **kwargs):
            raise AssertionError("the corpus was read before the options were checked")

        monkeypatch.setattr(corpus, "read_corpus", refuse)
        (workspace / "low.cfg").write_text(f"{key}={value}\n")
        option = [f"{cli._flag(key)}={value}"] if source == "flag" else ["--config", "low.cfg"]
        outputs = ["--lexicon", "lexicon.tsv", "--workdir", "out"] if command == "pipeline" else ["--out", "out"]
        assert main([command, "--corpus", "corpus.txt", *outputs, *option]) == 1
        assert capsys.readouterr().err == f"error: {key} must be >= {low}, got {value}\n"
        assert not (workspace / "out").exists()

    @pytest.mark.parametrize("setting, error", [("learning_rate=0", "learning rate must be > 0, got 0.0"),
                                                ("threads=2", "threads must be 1, got 2: training runs in one thread")],
                             ids=["learning_rate", "threads"])
    def test_training_option_in_the_config_of_a_command_that_does_not_train_is_1(self, workspace, capsys,
                                                                                 monkeypatch, setting, error):
        """A config file shared with the trainers is checked whole by every command that reads it."""
        def refuse(*args, **kwargs):
            raise AssertionError("the corpus was read before the options were checked")

        monkeypatch.setattr(corpus, "read_corpus", refuse)
        (workspace / "train.cfg").write_text(f"min_count=1\n{setting}\n")
        assert main(["vocab", "--corpus", "corpus.txt", "--out", "v.tsv", "--config", "train.cfg"]) == 1
        assert capsys.readouterr().err == f"error: {error}\n"
        assert not (workspace / "v.tsv").exists()

    @pytest.mark.parametrize("inputs", [["--corpus", "missing.txt", "--vocab", "missing.tsv"], []],
                             ids=["input_file_not_found", "input_not_given"])
    def test_bad_training_option_is_refused_before_the_inputs_are_checked(self, workspace, capsys, inputs):
        """Option values are checked first: a missing input that would exit 2 alone gives way to exit 1."""
        assert main(["train-sgns", *inputs, "--out", "out.txt", "--learning-rate", "0"]) == 1
        assert capsys.readouterr().err == "error: learning rate must be > 0, got 0.0\n"
        assert not (workspace / "out.txt").exists()

    def test_option_defaults_are_pinned(self):
        """The defaults a user meets in the help text and when an option is not given. Most come from
        TrainingConfig, so a field's new default shows here. Types count too: a config file's value is
        parsed by the default's type, and 1 == 1.0."""
        want = {"lowercase": True, "min_count": 100, "window": 5, "dynamic_window": False, "dim": 500,
                "svd_dim": 100, "negatives": 15, "learning_rate": 0.025, "epochs": 1, "subsample": 1e-5,
                "noise_exponent": 0.75, "beta": 1.0, "max_contrast_neighbors": 0, "threads": 1,
                "ant_mean": "pooled", "fallback_lmi": False, "svd_mode": "auto", "sigma_exponent": 1.0,
                "average_contexts": False, "track_objective": False, "seed": 0}
        assert {key: (type(value), value) for key, value in cli.DEFAULTS.items()} == \
            {key: (type(value), value) for key, value in want.items()}

    @pytest.mark.parametrize("command", ["vocab", "count"])
    def test_negative_seed_flag_is_1(self, workspace, capsys, command):
        main(["vocab", "--corpus", "corpus.txt", "--out", "vocab.tsv", "--min-count", "1"])
        inputs = ["--vocab", "vocab.tsv"] if command == "count" else []
        assert main([command, "--corpus", "corpus.txt", *inputs, "--out", "out.tsv", "--seed", "-5"]) == 1
        assert "seed must be >= 0" in capsys.readouterr().err
        assert not (workspace / "out.tsv").exists()

    def test_config_may_name_input_paths(self, workspace):
        (workspace / "paths.cfg").write_text("corpus=corpus.txt\nmin_count=1\n")
        assert main(["vocab", "--out", "v4.tsv", "--config", "paths.cfg"]) == 0

    def test_header_records_resolved_config(self, workspace):
        main(["vocab", "--corpus", "corpus.txt", "--out", "v3.tsv", "--min-count", "2"])
        head = (workspace / "v3.tsv").read_text().splitlines()[:5]
        assert head[0].startswith("#tool=lexcontrast")
        assert "#stage=vocab" in head
        assert any(l.startswith("#config=") and "min_count=2" in l for l in head)
        assert any(l.startswith("#config_sha256=") for l in head)


class TestFrozenReport:
    def test_eval_ap_matches_frozen_oracle_output(self, monkeypatch, tmp_path):
        # expected file computed by an independent scorer over the toy
        # vectors; byte equality pins ranking, tie-breaks, and formatting
        monkeypatch.chdir(DATA)
        out = tmp_path / "got.tsv"
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # NOUN class has no scored SYN pair
            code = main(["eval-ap", "--vectors", "toy_vectors.txt",
                         "--pairs", "toy_pairs.tsv", "--out", str(out)])
        assert code == 0
        assert out.read_bytes() == (DATA / "expected_eval_ap.tsv").read_bytes()

    def test_eval_ap_json_structure(self, monkeypatch, capsys):
        monkeypatch.chdir(DATA)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            code = main(["eval-ap", "--vectors", "toy_vectors.txt",
                         "--pairs", "toy_pairs.tsv", "--json"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["meta"]["stage"] == "eval-ap"
        adj = payload["classes"]["ADJ"]
        assert adj["ap_syn"] == 1.0
        assert adj["ap_ant"] == pytest.approx(1.15 / 3.0)
        noun = payload["classes"]["NOUN"]
        assert noun["oov"] == [["wet", "missing"]]
        assert "ap_syn" not in noun
        assert noun["coverage"] == 0.5

    def test_vectors_far_from_one_are_scored_or_oov(self, tmp_path, monkeypatch, capsys):
        # the squares of 1e200 overflow and those of 1e-200 underflow
        monkeypatch.chdir(tmp_path)
        Path("vec.txt").write_text("3 2\na 1e+200 1e+200\nb 1e+200 1e+200\nc 1e-200 3e-200\n")
        Path("pairs.tsv").write_text("a\tb\tSYN\tADJ\na\tc\tANT\tADJ\nb\tc\tANT\tADJ\na\tzzz\tSYN\tADJ\n")
        Path("sim.tsv").write_text("a\tb\t9.0\na\tc\t2.0\nb\tc\t1.0\na\tzzz\t5.0\n")
        assert main(["eval-ap", "--vectors", "vec.txt", "--pairs", "pairs.tsv", "--json"]) == 0
        adj = json.loads(capsys.readouterr().out)["classes"]["ADJ"]
        assert adj["n_scored"] + len(adj["oov"]) == adj["n_total"] == 4
        assert (adj["oov"], adj["ap_syn"], adj["ap_ant"]) == ([["a", "zzz"]], 1.0, pytest.approx(7 / 12))
        assert main(["eval-spearman", "--vectors", "vec.txt", "--pairs", "sim.tsv", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert (payload["n_scored"], payload["n_total"]) == (3, 4)
        assert payload["spearman"] == pytest.approx(math.sqrt(3) / 2)

    @pytest.mark.parametrize("command, own", [
        ("eval-ap", "no SYN pairs, AP_SYN unset"),
        ("eval-auc", "single-label class, AUC unset"),
        ("report-medians", "no scored SYN pairs, median blank"),
    ])
    def test_each_relation_report_warns_only_about_itself(self, monkeypatch, capsys, command, own):
        # the NOUN class has one scored pair, an ANT pair: each report leaves a different field blank
        monkeypatch.chdir(DATA)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main([command, "--vectors", "toy_vectors.txt", "--pairs", "toy_pairs.tsv"]) == 0
        assert [str(w.message) for w in caught] == [f"class NOUN: {own}"]

    @pytest.mark.parametrize("command, fields", [("eval-ap", 2), ("eval-auc", 1), ("report-medians", 2)])
    def test_unscored_class_is_listed_with_blank_fields(self, tmp_path, capsys, command, fields):
        pairs = tmp_path / "pairs.tsv"
        pairs.write_bytes((DATA / "toy_pairs.tsv").read_bytes() + b"gone\tmissing\tSYN\tVERB\n")
        argv = [command, "--vectors", str(DATA / "toy_vectors.txt"), "--pairs", str(pairs)]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(argv) == 0
            tsv = capsys.readouterr().out
            assert main([*argv, "--json"]) == 0
        assert tsv.splitlines()[-1].split("\t") == ["VERB", "1", "0", "0.000000", *[""] * fields]
        assert json.loads(capsys.readouterr().out)["classes"]["VERB"] == {
            "n_total": 1, "n_scored": 0, "coverage": 0.0, "oov": [["gone", "missing"]]}
        assert [str(w.message) for w in caught].count("class VERB: no scorable pairs, fields blank") == 2

    def test_eval_auc_stdout_names_orientation(self, monkeypatch, capsys):
        monkeypatch.chdir(DATA)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            code = main(["eval-auc", "--vectors", "toy_vectors.txt", "--pairs", "toy_pairs.tsv"])
        assert code == 0
        out = capsys.readouterr().out
        assert "#positives=SYN" in out
        adj_row = next(l for l in out.splitlines() if l.startswith("ADJ"))
        assert adj_row.split("\t") == ["ADJ", "6", "6", "1.000000", "1.000000"]


class TestPipeline:
    def test_rerun_is_byte_identical(self, workspace):
        args = ["pipeline", "--corpus", "corpus.txt", "--lexicon", "lexicon.tsv",
                "--pairs", "pairs.tsv", "--simpairs", "sim.tsv",
                "--workdir", "run", "--config", "run.cfg"]
        assert main(args) == 0
        first = _tree_bytes(workspace / "run")
        assert main(args) == 0
        second = _tree_bytes(workspace / "run")
        assert first == second
        expected = {
            "vocab.tsv", "counts.tsv", "lmi.tsv", "sa.tsv",
            "lmi_svd.txt", "sa_svd.txt", "sgns.txt", "dlce.txt",
        }
        for name in ("lmi_svd", "sa_svd", "sgns", "dlce"):
            expected |= {f"eval_ap_{name}.tsv", f"eval_auc_{name}.tsv",
                         f"medians_{name}.tsv", f"spearman_{name}.tsv"}
        assert set(first) == expected

    def test_pipeline_equals_stage_composition(self, workspace):
        assert main(["pipeline", "--corpus", "corpus.txt", "--lexicon", "lexicon.tsv",
                     "--pairs", "pairs.tsv", "--simpairs", "sim.tsv",
                     "--workdir", "run", "--config", "run.cfg"]) == 0
        whole = _tree_bytes(workspace / "run")
        for p in (workspace / "run").iterdir():
            p.unlink()

        cfg = ["--config", "run.cfg"]
        assert main(["vocab", "--corpus", "corpus.txt", "--out", "run/vocab.tsv"] + cfg) == 0
        assert main(["count", "--corpus", "corpus.txt", "--vocab", "run/vocab.tsv",
                     "--out", "run/counts.tsv"] + cfg) == 0
        assert main(["lmi", "--counts", "run/counts.tsv", "--vocab", "run/vocab.tsv",
                     "--out", "run/lmi.tsv"] + cfg) == 0
        assert main(["weight-sa", "--lmi", "run/lmi.tsv", "--lexicon", "lexicon.tsv",
                     "--vocab", "run/vocab.tsv", "--out", "run/sa.tsv"] + cfg) == 0
        for name, weights in (("lmi_svd", "run/lmi.tsv"), ("sa_svd", "run/sa.tsv")):
            assert main(["svd", "--weights", weights, "--vocab", "run/vocab.tsv",
                         "--out", f"run/{name}.txt"] + cfg) == 0
        assert main(["train-sgns", "--corpus", "corpus.txt", "--vocab", "run/vocab.tsv",
                     "--out", "run/sgns.txt"] + cfg) == 0
        assert main(["train-dlce", "--corpus", "corpus.txt", "--vocab", "run/vocab.tsv",
                     "--lexicon", "lexicon.tsv", "--lmi", "run/lmi.tsv",
                     "--out", "run/dlce.txt"] + cfg) == 0
        for name in ("lmi_svd", "sa_svd", "sgns", "dlce"):
            vec = f"run/{name}.txt"
            assert main(["eval-ap", "--vectors", vec, "--vocab", "run/vocab.tsv",
                         "--pairs", "pairs.tsv", "--out", f"run/eval_ap_{name}.tsv"] + cfg) == 0
            assert main(["eval-auc", "--vectors", vec, "--vocab", "run/vocab.tsv",
                         "--pairs", "pairs.tsv", "--out", f"run/eval_auc_{name}.tsv"] + cfg) == 0
            assert main(["report-medians", "--vectors", vec, "--vocab", "run/vocab.tsv",
                         "--pairs", "pairs.tsv", "--out", f"run/medians_{name}.tsv"] + cfg) == 0
            assert main(["eval-spearman", "--vectors", vec, "--vocab", "run/vocab.tsv",
                         "--pairs", "sim.tsv", "--out", f"run/spearman_{name}.tsv"] + cfg) == 0
        assert _tree_bytes(workspace / "run") == whole

    def test_each_trainer_encodes_and_draws_its_epochs_once(self, workspace, monkeypatch):
        """Two epochs: `Corpus.ids` runs once for counting and once per trainer, and each trainer draws
        each epoch's subsample once. A check of its own before training would add to both counts."""
        calls = {"ids": 0, "draws": 0}
        ids, draw = corpus.Corpus.ids, corpus.subsample_ids

        def counted_ids(*args):
            calls["ids"] += 1
            return ids(*args)

        def counted_draw(*args):
            calls["draws"] += 1
            return draw(*args)

        monkeypatch.setattr(corpus.Corpus, "ids", counted_ids)
        for module in (corpus, embeddings):  # every module attribute that holds the function
            monkeypatch.setattr(module, "subsample_ids", counted_draw)
        assert main([*PIPELINE, "--epochs", "2", "--subsample", "0.05"]) == 0
        assert calls == {"ids": 3, "draws": 4}

    def test_relation_pairs_are_scored_once_per_vector_set_and_word_class(self, workspace, monkeypatch):
        classes, score = [], evaluation.score_pairs

        def counted(vectors, pairs):
            pairs = list(pairs)
            if all(isinstance(p, evaluation.RelationPair) for p in pairs):
                classes.append({p.word_class for p in pairs})
            return score(vectors, pairs)

        monkeypatch.setattr(evaluation, "score_pairs", counted)
        assert main(PIPELINE) == 0
        assert classes == [{"ADJ"}, {"NOUN"}] * 4  # lmi_svd, sa_svd, sgns, dlce

    def _fail_in(self, workspace, monkeypatch, stage: str) -> tuple[dict[str, bytes], list]:
        """The bytes of a whole run, then a rerun in which `stage` raises, and the writers that rerun started."""
        assert main(PIPELINE) == 0
        whole = _tree_bytes(workspace / "run")
        for p in (workspace / "run").iterdir():
            p.unlink()
        started, start = [], start_embeddings

        def recorded(*args):
            started.append(start(*args))
            return started[-1]

        def diverge(*args):
            raise ValueError("training diverged")

        monkeypatch.setattr("lexcontrast.vectors.start_embeddings", recorded)
        monkeypatch.setattr(cli, stage, diverge)
        assert main(PIPELINE) == 1
        return whole, started

    def test_failure_after_the_svd_keeps_its_artifacts_and_reaps_its_writers(self, workspace, monkeypatch):
        """dLCE trains last: its failure keeps every other artifact."""
        whole, started = self._fail_in(workspace, monkeypatch, "stage_train_dlce")
        assert _tree_bytes(workspace / "run") == {name: data for name, data in whole.items() if "dlce" not in name}
        assert [p.path for p in started] == ["run/sgns.txt", "run/lmi_svd.txt", "run/sa_svd.txt"]
        assert all(p.proc.returncode == 0 for p in started)

    def test_sgns_failure_leaves_the_work_directory_empty(self, workspace, monkeypatch):
        """SGNS trains right after the vocabulary, before any artifact is written."""
        _, started = self._fail_in(workspace, monkeypatch, "stage_train_sgns")
        assert list((workspace / "run").iterdir()) == [] and started == []

    @pytest.mark.parametrize("lexicon, pairs, sim, rows", [
        ("hot\tSYN\twarm\ncold\tSYN\tcool\nhot\tANT\tcold\n", "big\tlarge\tSYN\tADJ\nbig\tsmall\tANT\tADJ\n",
         "big\tlarge\t9.0\nbig\tsmall\t1.0\n",
         dict.fromkeys(("lmi_svd", "sa_svd", "sgns", "dlce"), "\t0\t2\t0.000000")),
        ("zzz\tSYN\tyyy\n", "hot\tcold\tANT\tADJ\nhot\twarm\tSYN\tADJ\ncold\tcool\tSYN\tADJ\n",
         "hot\tcold\t1.0\nhot\twarm\t9.0\ncold\tcool\t8.0\n", {"sa_svd": "\t3\t3\t1.000000"}),
    ], ids=["pairs-out-of-vocabulary", "lexicon-out-of-vocabulary"])
    def test_undefined_metrics_are_blank_and_the_run_completes(self, tmp_path, monkeypatch, lexicon, pairs, sim,
                                                              rows):
        """No scorable pair, or only the all-zero rows that SA leaves when no lexicon word is in the
        vocabulary: rho is blank, with a warning, and every artifact is written."""
        monkeypatch.chdir(tmp_path)
        Path("four.txt").write_text("hot cold warm cool\ncool warm hot cold\nwarm hot cool cold\ncold cool warm hot\n")
        for name, text in (("lexicon.tsv", lexicon), ("pairs.tsv", pairs), ("sim.tsv", sim)):
            Path(name).write_text(text)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(["pipeline", "--corpus", "four.txt", "--lexicon", "lexicon.tsv", "--pairs", "pairs.tsv",
                         "--simpairs", "sim.tsv", "--workdir", "run", "--min-count", "1", "--window", "2",
                         "--dim", "4", "--svd-dim", "2", "--negatives", "2", "--subsample", "0"]) == 0
        assert len(list(Path("run").iterdir())) == 24 and not list(Path("run").glob("*.tmp"))
        assert sum(str(w.message).endswith(", rho unset") for w in caught) == len(rows)
        for name, row in rows.items():
            assert Path(f"run/spearman_{name}.tsv").read_text().splitlines()[-1] == row

    def test_each_blank_field_warning_names_its_artifact(self, tmp_path, monkeypatch):
        """Under Python's default filter, which shows each text once, every report's warnings show."""
        monkeypatch.chdir(tmp_path)
        Path("four.txt").write_text("hot cold warm cool\ncool warm hot cold\nwarm hot cool cold\ncold cool warm hot\n")
        Path("lexicon.tsv").write_text("hot\tSYN\twarm\ncold\tSYN\tcool\nhot\tANT\tcold\n")
        Path("pairs.tsv").write_text("big\tlarge\tSYN\tADJ\nbig\tsmall\tANT\tADJ\n")
        Path("sim.tsv").write_text("big\tlarge\t9.0\nbig\tsmall\t1.0\n")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("default")
            assert main(["pipeline", "--corpus", "four.txt", "--lexicon", "lexicon.tsv", "--pairs", "pairs.tsv",
                         "--simpairs", "sim.tsv", "--workdir", "run", "--min-count", "1", "--window", "2",
                         "--dim", "4", "--svd-dim", "2", "--negatives", "2", "--subsample", "0"]) == 0
        expected = []
        for name in ("sgns", "lmi_svd", "sa_svd", "dlce"):
            expected += [f"run/{prefix}_{name}.tsv: class ADJ: no scorable pairs, fields blank"
                         for prefix in ("eval_ap", "eval_auc", "medians")]
            expected.append(f"run/spearman_{name}.tsv: rank correlation needs at least two pairs, rho unset")
        assert [str(w.message) for w in caught] == expected

    def test_track_objective_changes_only_the_progress_lines(self, workspace, capsys):
        capsys.readouterr()
        assert main(PIPELINE) == 0
        plain, plain_log = _tree_bytes(workspace / "run"), capsys.readouterr().err.splitlines()
        assert main([*PIPELINE, "--track-objective"]) == 0
        tracked, tracked_log = _tree_bytes(workspace / "run"), capsys.readouterr().err.splitlines()
        assert len(tracked) == 24 and tracked == plain
        assert not any(b"track_objective" in data for data in tracked.values())
        assert len(plain_log) == len(tracked_log) == 2  # one epoch of each trainer
        for line, with_objective in zip(plain_log, tracked_log):
            assert len(line.split("\t")) == 3
            assert with_objective.rsplit("\t", 1)[0] == line
            assert float(with_objective.rsplit("\t", 1)[1]) < 0

    def test_only_svd_artifacts_depend_on_the_blas_thread_count(self, workspace):
        """The CLI's default is OPENBLAS_NUM_THREADS=1 byte for byte; two threads may move the SVD vectors
        and their reports, and nothing else. Each child's environment is built here: importing cli in
        this process has set the variable, which children would inherit."""
        src = str(Path(lexcontrast.__file__).resolve().parents[1])
        runs = {}
        for threads in (None, "1", "2"):
            env = {"PYTHONPATH": src, **({} if threads is None else {"OPENBLAS_NUM_THREADS": threads})}
            subprocess.run([sys.executable, "-m", "lexcontrast.cli", *PIPELINE], env=env, capture_output=True,
                           check=True)
            runs[threads] = _tree_bytes(workspace / "run")
            (workspace / "run").rename(workspace / f"run-{threads}")  # the next run writes the same paths
        assert len(runs[None]) == 24 and runs[None] == runs["1"]
        svd = {name for name in runs[None] if "_svd." in name}  # lmi_svd.txt, sa_svd.txt and their reports
        assert len(svd) == 10
        assert {k: v for k, v in runs["2"].items() if k not in svd} == {
            k: v for k, v in runs[None].items() if k not in svd}

    def test_svd_artifact_annotations(self, workspace):
        main(["pipeline", "--corpus", "corpus.txt", "--lexicon", "lexicon.tsv",
              "--workdir", "run", "--config", "run.cfg"])
        text = (workspace / "run" / "lmi_svd.txt").read_text()
        assert "#effective_rank=" in text and "#mode_used=dense" in text
        emb = read_embeddings(workspace / "run" / "lmi_svd.txt")
        assert emb.dim == 4  # svd_dim from the config file
        trained = read_embeddings(workspace / "run" / "sgns.txt")
        assert trained.dim == 6  # trainer dim is a separate knob

    def test_sparse_and_dense_eval_paths(self, workspace, capsys):
        main(["pipeline", "--corpus", "corpus.txt", "--lexicon", "lexicon.tsv",
              "--workdir", "run", "--config", "run.cfg"])
        # full-rank reduction of the LMI matrix preserves cosine ranking,
        # so AP over the sparse rows and over the dense rows must agree
        assert main(["svd", "--weights", "run/lmi.tsv", "--vocab", "run/vocab.tsv",
                     "--out", "run/lmi_full.txt", "--svd-dim", "1000",
                     "--config", "run.cfg"]) == 0
        assert main(["eval-ap", "--vectors", "run/lmi.tsv", "--vocab", "run/vocab.tsv",
                     "--pairs", "pairs.tsv", "--json"]) == 0
        sparse_payload = json.loads(capsys.readouterr().out)
        assert main(["eval-ap", "--vectors", "run/lmi_full.txt",
                     "--pairs", "pairs.tsv", "--json"]) == 0
        dense_payload = json.loads(capsys.readouterr().out)
        for cls, cm in sparse_payload["classes"].items():
            for key in ("ap_syn", "ap_ant"):
                if key in cm:
                    assert dense_payload["classes"][cls][key] == pytest.approx(
                        cm[key], abs=1e-9
                    )


@pytest.fixture(scope="module")
def small_world(tmp_path_factory) -> Path:
    """The four inputs of a 20-concept world, whose pipeline artifacts run to about 120 KiB each."""
    directory = tmp_path_factory.mktemp("world")
    write_world(build_world(5, n_concepts=20, sentences=3000), directory)
    return directory


def test_finite_runaway_stops_the_pipeline_before_any_artifact(small_world, tmp_path, capsys):
    """At learning rate 1e30 only 200 pairs survive subsampling and W stays finite, near 1e118: the bound on
    |W| and |C| refuses it at the end of the epoch, before the first write."""
    run = tmp_path / "run"
    assert main(["pipeline", "--corpus", str(small_world / "corpus.txt"), "--lexicon", str(small_world / "lexicon.tsv"),
                 "--workdir", str(run), "--min-count", "3", "--window", "2", "--dim", "10",
                 "--learning-rate", "1e30"]) == 1
    assert capsys.readouterr().err == ("error: training diverged: W or C holds a value of magnitude above 10000 "
                                       "after update 200\n")
    assert list(run.iterdir()) == []


def test_one_batch_of_the_small_world_is_refused_before_any_artifact(small_world, tmp_path, capsys):
    """With 3 negatives, the 200 pairs that survive subsampling fit in one batch of 250. The run used to
    write W as its random initialization and exit 0, at learning rates up to 1,000."""
    run = tmp_path / "run"
    assert main(["pipeline", "--corpus", str(small_world / "corpus.txt"), "--lexicon", str(small_world / "lexicon.tsv"),
                 "--workdir", str(run), "--min-count", "3", "--window", "2", "--dim", "10", "--svd-dim", "10",
                 "--negatives", "3"]) == 1
    assert capsys.readouterr().err == ("error: too few training pairs: all 200 fit in one batch of 250, and the "
                                       "skip-gram step would leave W at its random initialization\n")
    assert list(run.iterdir()) == []


LEFT_AS_DRAWN = ("0\t2\t0.025000\n1\t2\t0.012500\n"  # the progress lines of the two epochs
                 "error: training left W at its random initialization: no update moved it over epochs of 2, 2 pairs "
                 "in batches of 125\n")


@pytest.fixture(scope="module")
def drawn_world(tmp_path_factory):
    """A 300-line world: at min_count 3 and subsampling 1e-5 each of two epochs keeps 2 pairs, one batch of 125,
    and the second reads only rows of C that the first left at zero."""
    directory = tmp_path_factory.mktemp("drawn")
    write_world(build_world(11, n_concepts=20, sentences=300), directory)
    return directory


@pytest.mark.parametrize("dim, seed", [(2, 1), (10, 2)])
def test_a_run_that_leaves_w_as_drawn_stops_the_pipeline_before_any_artifact(drawn_world, tmp_path, capsys,
                                                                            dim, seed):
    """The run used to exit 0 and write sgns.txt and dlce.txt equal to W as drawn, bit for bit."""
    run = tmp_path / "run"
    assert main(["pipeline", "--corpus", str(drawn_world / "corpus.txt"), "--lexicon", str(drawn_world / "lexicon.tsv"),
                 "--workdir", str(run), "--min-count", "3", "--window", "2", "--negatives", "3", "--subsample", "1e-5",
                 "--epochs", "2", "--dim", str(dim), "--svd-dim", "2", "--seed", str(seed)]) == 1
    assert capsys.readouterr().err == LEFT_AS_DRAWN
    assert list(run.iterdir()) == []


def test_train_sgns_refuses_a_run_that_leaves_w_as_drawn(drawn_world, tmp_path, capsys):
    vocab, out = tmp_path / "vocab.tsv", tmp_path / "sgns.txt"
    assert main(["vocab", "--corpus", str(drawn_world / "corpus.txt"), "--min-count", "3", "--out", str(vocab)]) == 0
    capsys.readouterr()
    assert main(["train-sgns", "--corpus", str(drawn_world / "corpus.txt"), "--vocab", str(vocab), "--out", str(out),
                 "--min-count", "3", "--window", "2", "--negatives", "3", "--subsample", "1e-5", "--epochs", "2",
                 "--dim", "10", "--seed", "2"]) == 1
    assert capsys.readouterr().err == LEFT_AS_DRAWN
    assert sorted(p.name for p in tmp_path.iterdir()) == ["vocab.tsv"]


class TestFailedWrites:
    """A write that fails stops the run and names its file, a writer child that fails stops it at the next save,
    and every writer is reaped on the way out. Writer children run in the idle scheduling class and may get no
    CPU for a while, so no assertion here depends on when a child runs."""

    ARTIFACT = re.compile(r"run/(\w+\.t(?:sv|xt))")

    @staticmethod
    def _unreached(*args):
        raise AssertionError("the run went on after a failed write")

    @pytest.mark.parametrize("kib, dim, must, may", [
        (40, 10, {"sgns.txt"}, set()),  # the payload handed to sgns.txt's writer
        (100, 2, {"lmi.tsv"}, set()),  # a table, before which only sgns.txt, of dim 2 here, has a writer
        (100, 10, {"sgns.txt"}, {"lmi.tsv"}),  # sgns.txt's writer, and lmi.tsv unless its poll stopped the run first
    ])
    def test_file_size_limit_is_1_and_names_every_failed_artifact(self, small_world, tmp_path, kib, dim, must, may):
        """A child under RLIMIT_FSIZE, which acts on that child only."""
        def limit():
            resource.setrlimit(resource.RLIMIT_FSIZE, (kib * 1024, kib * 1024))

        src = str(Path(lexcontrast.__file__).resolve().parents[1])
        inputs = [f"--{key}={small_world / name}" for key, name in (
            ("corpus", "corpus.txt"), ("lexicon", "lexicon.tsv"), ("pairs", "pairs.tsv"), ("simpairs", "sim.tsv"))]
        # -B: a bytecode file written under the limit would be cut short and break every later import of it
        proc = subprocess.run([sys.executable, "-B", "-m", "lexcontrast.cli", "pipeline", *inputs, "--workdir", "run",
                               "--min-count", "3", "--window", "2", "--dim", str(dim), "--svd-dim", "10",
                               "--negatives", "3", "--subsample", "0"], cwd=tmp_path, env={"PYTHONPATH": src},
                              capture_output=True, text=True, preexec_fn=limit)
        error = proc.stderr.splitlines()[-1]
        named = set(self.ARTIFACT.findall(error))
        assert proc.returncode == 1 and error.startswith("error: ")
        assert must <= named <= must | may, error
        left = {p.name for p in (tmp_path / "run").iterdir()}
        assert not any(name.endswith(".tmp") for name in left) and not named & left
        assert "vocab.tsv" in left

    def test_a_failed_writer_stops_the_run_at_the_next_save(self, workspace, monkeypatch, capsys):
        """Every writer fails, and returns from its start only once its child has exited: the save after
        sgns.txt's, its first report, finds the failure, and nothing after it runs."""
        start = start_embeddings

        def exited(*args):
            pending = start(*args)
            pending.proc.wait()
            return pending

        monkeypatch.setattr("lexcontrast.vectors._WRITER", "raise OSError(28, 'No space left on device')")
        monkeypatch.setattr("lexcontrast.vectors.start_embeddings", exited)
        monkeypatch.setattr(cli, "stage_count", self._unreached)
        capsys.readouterr()
        assert main(PIPELINE) == 1
        assert capsys.readouterr().err.splitlines()[-1] == (  # after SGNS's progress line
            "error: run/sgns.txt: vector writer failed: OSError: [Errno 28] No space left on device")
        assert [p.name for p in (workspace / "run").iterdir()] == ["vocab.tsv"]

    def test_a_failed_write_and_a_failed_writer_are_both_named(self, workspace, monkeypatch, capsys):
        """sgns.txt's writer fails only once its first report's write has failed: that write stopped the run and
        is named first, then the writer, which leaving the run reaped."""
        marker, atomic_writer = workspace / "report-failed", tsvio.atomic_writer

        def failing(path):
            if str(path).endswith("eval_ap_sgns.tsv"):
                marker.touch()
                raise OSError(errno.ENOSPC, "No space left on device")
            return atomic_writer(path)

        monkeypatch.setattr("lexcontrast.vectors._WRITER", (  # gives up on the marker after about 60 s
            f"import os, sys, time\nfor _ in range(6000):\n    if os.path.exists({str(marker)!r}): break\n"
            "    time.sleep(0.01)\nsys.exit('failed late')"))
        monkeypatch.setattr(tsvio, "atomic_writer", failing)
        capsys.readouterr()
        assert main(PIPELINE) == 1
        assert capsys.readouterr().err.splitlines()[-1] == (
            "error: No space left on device: run/eval_ap_sgns.tsv; run/sgns.txt: vector writer failed: failed late")
        assert [p.name for p in (workspace / "run").iterdir()] == ["vocab.tsv"]

    def test_the_last_vector_write_returns_with_every_writer_reaped(self, workspace, monkeypatch):
        """The benchmark's tracer wraps `write_embeddings_with_meta` and counts its span as the vector writing:
        four calls, and the fourth returns once every writer has exited and its file is in place."""
        started, seen, start, write = [], [], start_embeddings, cli.write_embeddings_with_meta

        def recorded(*args):
            started.append(start(*args))
            return started[-1]

        def traced(*args):
            write(*args)
            seen.append([(p.proc.returncode, Path(p.path).is_file()) for p in started])

        monkeypatch.setattr("lexcontrast.vectors.start_embeddings", recorded)
        monkeypatch.setattr(cli, "write_embeddings_with_meta", traced)
        assert main(PIPELINE) == 0
        assert len(seen) == 4 and seen[-1] == [(0, True)] * 4


class TestEmptyRows:
    """A word with no contrast weight has an empty SA row, and its SVD row is
    exactly 0, not rounding noise that a cosine would scale up to +-1."""

    @pytest.mark.parametrize("mode", ["dense", "randomized"])
    def test_empty_rows_are_written_as_zeros_and_score_zero(self, tmp_path, mode):
        rng = np.random.default_rng(5)
        n, dim = 400, 50
        filled = np.sort(rng.choice(n, 60, replace=False))
        dense = np.zeros((n, n))
        dense[filled] = rng.uniform(-1, 1, (60, n)) * (rng.random((60, n)) < 0.1)
        sa = weighting.WeightedMatrix(weighting.SCHEME_SA, sparse.csr_matrix(dense))
        vocab = corpus.Vocabulary(tuple(f"w{i:03d}" for i in range(n)), np.ones(n, dtype=np.int64))
        empty = np.setdiff1d(np.arange(n), filled)
        assert (reduction.truncated_svd(sa.matrix, dim, mode=mode).row_vectors[empty] == 0).all()

        weighting.write_weighted(tmp_path / "sa.tsv", sa)
        corpus.write_vocabulary(tmp_path / "vocab.tsv", vocab)
        out = tmp_path / "sa_svd.txt"
        assert main(["svd", "--weights", str(tmp_path / "sa.tsv"), "--vocab", str(tmp_path / "vocab.tsv"),
                     "--out", str(out), "--svd-dim", str(dim), "--svd-mode", mode]) == 0
        rows = dict(line.split(" ", 1) for line in out.read_text().splitlines()[-n:])
        assert all(rows[vocab.words[i]] == " ".join(["0.0"] * dim) for i in empty)
        pairs = [evaluation.RelationPair(vocab.words[a], vocab.words[b], "SYN", "ADJ")
                 for a, b in zip(empty[:-1], empty[1:])]
        assert evaluation.score_pairs(read_embeddings(out), pairs).tolist() == [0.0] * len(pairs)


def _header_lines(path: Path) -> list[str]:
    lines = path.read_text().splitlines()
    return lines[: next((i for i, line in enumerate(lines) if not line.startswith("#")), len(lines))]


def option_table() -> dict:
    """Each subcommand's flags as the parser declares them."""
    parser = build_parser()
    subparsers = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return {
        name: {
            "/".join(a.option_strings): {
                "action": type(a).__name__,
                "type": getattr(a.type, "__name__", None),
                "default": a.default,
                "choices": list(a.choices) if a.choices else None,
                "required": a.required,
            }
            for a in sub._actions if not isinstance(a, argparse._HelpAction)
        }
        for name, sub in subparsers.choices.items()
    }


class TestSurface:
    """The command-line surface and the artifact format, pinned by files under tests/data."""

    def test_pipeline_artifacts_match_golden(self, workspace):
        assert main(PIPELINE) == 0
        run = workspace / "run"
        golden = json.loads(GOLDEN.read_text())
        assert {p.name: _header_lines(p) for p in sorted(run.iterdir())} == golden["headers"]
        for name in ("vocab.tsv", "counts.tsv"):
            assert (run / name).read_bytes() == golden[name].encode("utf-8")

    def test_vector_artifacts_are_the_oracle_writers_bytes(self, workspace):
        # the golden file pins headers only; every row is checked here against the in-process writer
        assert main(PIPELINE) == 0
        for name in ("lmi_svd", "sa_svd", "sgns", "dlce"):
            artifact, oracle = workspace / "run" / f"{name}.txt", workspace / f"{name}.oracle.txt"
            oracles.write_embeddings_with_meta(oracle, read_embeddings(artifact), tsvio.read_meta(artifact))
            assert artifact.read_bytes() == oracle.read_bytes()

    def test_options_match_snapshot(self):
        assert option_table() == json.loads(OPTIONS.read_text())

    @staticmethod
    def _loaded_by_import(package: str, *modules: str, then: str = "") -> list[str]:
        """Those of `modules` that importing `package`, then running the statement `then`, loads in a fresh
        interpreter."""
        src = str(Path(lexcontrast.__file__).resolve().parents[1])
        code = f"import sys, {package}\n{then}\nprint(*[m for m in {modules!r} if m in sys.modules])"
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              env={"PYTHONPATH": src}, check=True)
        return proc.stdout.split()

    @staticmethod
    def _blas_threads_at_numpy_import(code: str, env: dict[str, str], cwd: Path) -> str:
        """OPENBLAS_NUM_THREADS as numpy's first lookup sees it, when a fresh interpreter whose
        environment is `env` alone runs `code` in `cwd`."""
        src = str(Path(lexcontrast.__file__).resolve().parents[1])
        probe = ("import os, sys\n"
                 "class Probe:\n"
                 "    def find_spec(self, name, path=None, target=None):\n"
                 "        if name == 'numpy':\n"
                 "            print(os.environ.get('OPENBLAS_NUM_THREADS'))\n"
                 "            sys.meta_path.remove(self)\n"
                 "sys.meta_path.insert(0, Probe())\n")
        proc = subprocess.run([sys.executable, "-c", probe + code], capture_output=True, text=True,
                              env={"PYTHONPATH": src, **env}, cwd=cwd, check=True)
        return proc.stdout.strip()

    # importing cli loads no numpy: a command that does work loads it
    VOCAB = ("import lexcontrast.cli\n"
             "lexcontrast.cli.main(['vocab', '--corpus', 'c.txt', '--min-count', '1', '--out', 'v.tsv'])")

    @pytest.mark.parametrize("code, env, seen", [
        (VOCAB, {}, "1"),
        (VOCAB, {"OPENBLAS_NUM_THREADS": "3"}, "3"),
        ("import lexcontrast.weighting", {}, "None"),
        ("import lexcontrast.cli, lexcontrast.corpus", {}, "1"),  # the benchmark's in-process import order
    ], ids=["cli-default", "cli-user-setting-wins", "library-unchanged", "cli-then-stage-module"])
    def test_numpy_loads_under_one_blas_thread_through_the_cli_only(self, tmp_path, code, env, seen):
        (tmp_path / "c.txt").write_text("a b a\n")
        assert self._blas_threads_at_numpy_import(code, env, tmp_path) == seen

    def test_cli_import_leaves_scipy_stats_unloaded(self):
        # nor does binding the stage modules, which every command that does work imports
        assert self._loaded_by_import("lexcontrast.cli", "scipy.stats", then="lexcontrast.cli._bind()") == []

    def test_cli_import_leaves_scipy_linalg_unloaded(self):
        # the randomized SVD imports it when it runs
        assert self._loaded_by_import("lexcontrast.cli", "scipy.linalg", then="lexcontrast.cli._bind()") == []

    def test_package_import_leaves_numpy_and_scipy_unloaded(self):
        # every name lives in its own module, and the package root re-exports none; the CLI, and the modules
        # it reads its options and config file through, load numpy only once a command has work to do
        for module in ("lexcontrast", "lexcontrast.cli", "lexcontrast.config", "lexcontrast.lexicon",
                       "lexcontrast.tsvio"):
            assert self._loaded_by_import(module, "numpy", "scipy") == [], module

    # one of each refusal that comes before any input is read, with --version and every --help
    BEFORE_WORK = {
        "version": ["--version"],
        "help": ["--help"],
        **{f"{name}-help": [name, "--help"] for name in (*cli.STAGES, "pipeline")},
        "usage": ["vocab", "--corpus", "corpus.txt"],
        "unknown-key": ["vocab", "--corpus", "corpus.txt", "--out", "v.tsv", "--config", "unknown.cfg"],
        "repeated-key": ["vocab", "--corpus", "corpus.txt", "--out", "v.tsv", "--config", "repeated.cfg"],
        "key-type": ["vocab", "--corpus", "corpus.txt", "--out", "v.tsv", "--config", "typed.cfg"],
        "key-choice": ["weight-sa", "--lmi", "lmi.tsv", "--lexicon", "lexicon.tsv", "--vocab", "vocab.tsv",
                       "--out", "sa.tsv", "--config", "choice.cfg"],
        "config-missing": ["vocab", "--corpus", "corpus.txt", "--out", "v.tsv", "--config", "nope.cfg"],
        "non-finite": ["pipeline", "--corpus", "corpus.txt", "--lexicon", "lexicon.tsv", "--beta", "nan"],
        "below-minimum": ["vocab", "--corpus", "corpus.txt", "--out", "v.tsv", "--min-count", "0"],
        "learning-rate": ["pipeline", "--corpus", "corpus.txt", "--lexicon", "lexicon.tsv", "--learning-rate", "0"],
        "threads": ["train-sgns", "--corpus", "corpus.txt", "--vocab", "vocab.tsv", "--out", "s.txt",
                    "--threads", "2"],
        "input-required": ["lmi", "--out", "lmi.tsv"],
        "input-missing": ["vocab", "--corpus", "nope.txt", "--out", "v.tsv"],
        "output-directory-missing": ["vocab", "--corpus", "corpus.txt", "--out", "nodir/v.tsv"],
        "output-is-a-directory": ["vocab", "--corpus", "corpus.txt", "--out", "run"],
        "output-names-an-input": ["vocab", "--corpus", "corpus.txt", "--out", "corpus.txt", "--config", "run.cfg"],
        "outputs-clash": ["train-sgns", "--corpus", "corpus.txt", "--vocab", "vocab.tsv", "--out", "s.txt",
                          "--context-out", "s.txt", "--config", "run.cfg"],
    }

    @pytest.mark.parametrize("case", BEFORE_WORK)
    def test_refusals_and_help_finish_before_numpy_loads(self, workspace, capsys, monkeypatch, case):
        """A fresh interpreter that cannot import numpy or scipy gives this process's exit code, stdout and
        stderr: every option, config file, input path and output path is checked before they load."""
        for name, text in {"unknown.cfg": "colour=red\n", "repeated.cfg": "window=2\nwindow=3\n",
                           "typed.cfg": "window=two\n", "choice.cfg": "ant_mean=median\n",
                           "vocab.tsv": "", "lmi.tsv": ""}.items():
            (workspace / name).write_text(text)
        (workspace / "run").mkdir()
        monkeypatch.setenv("COLUMNS", "80")  # the width argparse wraps help text to, here and in the child
        argv = self.BEFORE_WORK[case]
        code = ("import contextlib, io, json, sys\n"
                "class Refuse:\n"
                "    def find_spec(self, name, path=None, target=None):\n"
                "        if name.partition('.')[0] in ('numpy', 'scipy'):\n"
                "            raise ImportError(f'{name} refused')\n"
                "sys.meta_path.insert(0, Refuse())\n"
                "from lexcontrast.cli import main\n"
                "out, err = io.StringIO(), io.StringIO()\n"
                "with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):\n"
                "    try:\n"
                "        status = main(sys.argv[1:])\n"
                "    except SystemExit as exc:\n"
                "        status = exc.code\n"
                "print(json.dumps([status, out.getvalue(), err.getvalue()]))\n")
        src = str(Path(lexcontrast.__file__).resolve().parents[1])
        child = subprocess.run([sys.executable, "-c", code, *argv], capture_output=True, text=True, check=True,
                               env={"PYTHONPATH": src, "COLUMNS": "80"}, cwd=workspace)
        try:
            status = main(argv)
        except SystemExit as exc:
            status = exc.code
        here = capsys.readouterr()
        assert json.loads(child.stdout) == [status, here.out, here.err]
        assert (status == 0) == (case == "version" or case.endswith("help"))
