"""End-to-end command-line behavior: exit codes, option resolution, report
formats, and byte-level reproducibility of the pipeline."""

import argparse
import json
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import oracles
import pytest

import lexcontrast
from lexcontrast import cli, evaluation, tsvio
from lexcontrast.cli import build_parser, main, read_config_file
from lexcontrast.corpus import read_corpus, read_counts
from lexcontrast.lexicon import load_lexicon
from lexcontrast.vectors import read_embeddings

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

        monkeypatch.setattr(cli.corpus, "read_corpus", refuse)
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

        monkeypatch.setattr(cli.corpus, "read_corpus", refuse)
        capsys.readouterr()
        assert main([*train, "--out", "same.txt", "--context-out", "./same.txt"]) == 1
        assert capsys.readouterr().err == "error: --out and --context-out name the same file: ./same.txt\n"
        assert not [p.name for p in workspace.iterdir() if p.name.startswith("same")]

    def test_pipeline_artifact_that_is_a_directory_is_named(self, workspace, capsys):
        Path("run/vocab.tsv").mkdir(parents=True)
        assert main(PIPELINE) == 1
        assert capsys.readouterr().err == "error: Is a directory: run/vocab.tsv\n"

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

        for reader in (cli.corpus.read_corpus, cli.corpus.read_vocabulary, cli.lexicon.load_lexicon,
                       cli.weighting.read_weighted):
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
    ])
    def test_bad_config_value_is_1_before_any_work(self, workspace, capsys, key, value):
        (workspace / "bad.cfg").write_text(f"min_count=1\n{key}={value}\n")
        code = main(["pipeline", "--corpus", "corpus.txt", "--lexicon", "lexicon.tsv",
                     "--workdir", "out", "--config", "bad.cfg"])
        assert code == 1
        assert key in capsys.readouterr().err
        assert not (workspace / "out").exists()

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

    def test_failure_after_the_svd_keeps_its_artifacts_and_reaps_its_writers(self, workspace, monkeypatch):
        assert main(PIPELINE) == 0
        whole = _tree_bytes(workspace / "run")
        for p in (workspace / "run").iterdir():
            p.unlink()
        started, start = [], cli.start_embeddings

        def recorded(*args):
            started.append(start(*args))
            return started[-1]

        def diverge(*args):
            raise ValueError("training diverged")

        monkeypatch.setattr(cli, "start_embeddings", recorded)
        monkeypatch.setattr(cli, "stage_train_sgns", diverge)
        assert main(PIPELINE) == 1
        assert _tree_bytes(workspace / "run") == {
            name: data for name, data in whole.items() if "sgns" not in name and "dlce" not in name}
        assert [p.path for p in started] == ["run/lmi_svd.txt", "run/sa_svd.txt"]
        assert all(p.proc.returncode == 0 for p in started)

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
    def _loaded_by_import(package: str, *modules: str) -> list[str]:
        """Those of `modules` that importing `package` in a fresh interpreter loads."""
        src = str(Path(lexcontrast.__file__).resolve().parents[1])
        code = f"import sys, {package}; print(*[m for m in {modules!r} if m in sys.modules])"
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              env={"PYTHONPATH": src}, check=True)
        return proc.stdout.split()

    def test_cli_import_leaves_scipy_stats_unloaded(self):
        assert self._loaded_by_import("lexcontrast.cli", "scipy.stats") == []

    def test_cli_import_leaves_scipy_linalg_unloaded(self):
        # the randomized SVD imports it when it runs
        assert self._loaded_by_import("lexcontrast.cli", "scipy.linalg") == []

    def test_package_import_leaves_numpy_and_scipy_unloaded(self):
        # every name lives in its own module; the package root re-exports none
        assert self._loaded_by_import("lexcontrast", "numpy", "scipy") == []
