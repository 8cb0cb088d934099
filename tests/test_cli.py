import io
import json
import math
import os
import random
import shutil
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import conll_text
from semrel import path_encoder
from semrel.cli import main
from semrel.corpus import build_path_index, iter_conll, load_index, parse_conll, save_index
from semrel.embeddings import load_table
from semrel.pairs import RELATED_LABELS, RELATION_LABELS, read_pairs
from semrel.relatedness import CombinerConfig, save_combiner
from semrel.relation_model import RELATIONS_PRESET, load_model, pair_distribution, save_model, train

HYPER_SENT = conll_text([
    ("cata", "cata", "NOUN", 4, "nsubj"), ("is", "be", "VERB", 4, "cop"),
    ("a", "a", "DET", 4, "det"), ("kind", "kind", "NOUN", 0, "root"),
    ("of", "of", "ADP", 6, "case"), ("feline", "feline", "NOUN", 4, "nmod"),
])
PART_SENT = conll_text([
    ("wheel", "wheel", "NOUN", 3, "nsubj"), ("is", "be", "VERB", 3, "cop"),
    ("part", "part", "NOUN", 0, "root"), ("of", "of", "ADP", 5, "case"),
    ("cart", "cart", "NOUN", 3, "nmod"),
])
ANT_SENT = conll_text([
    ("hot", "hot", "ADJ", 0, "root"), ("or", "or", "CCONJ", 3, "cc"),
    ("cold", "cold", "ADJ", 1, "conj"),
])

PAIRS_TSV = """\
cata\tfeline\tHYPER
wheel\tcart\tPART_OF
hot\tcold\tANT
sofa\tcouch\tSYN
pencil\tcloud\tRANDOM
"""

EMBEDDINGS = """\
cata 1.0 0.0 0.0 0.0
feline 0.95 0.1 0.0 0.0
wheel 0.0 1.0 0.0 0.0
cart 0.1 0.95 0.0 0.0
hot 0.0 0.0 1.0 0.0
cold 0.0 0.0 0.95 0.1
sofa 0.0 0.0 0.0 1.0
couch 0.0 0.1 0.0 0.95
pencil 1.0 1.0 0.0 0.0
cloud 0.0 0.0 1.0 -1.0
"""


def _write_micro(d):
    corpus = d / "corpus.conll"
    corpus.write_text(HYPER_SENT + "\n" + HYPER_SENT + "\n" + PART_SENT + "\n" + ANT_SENT)
    pairs = d / "pairs.tsv"
    pairs.write_text(PAIRS_TSV)
    embeddings = d / "embeddings.txt"
    embeddings.write_text(EMBEDDINGS)
    return {"dir": d, "corpus": corpus, "pairs": pairs, "embeddings": embeddings}


@pytest.fixture
def micro(tmp_path):
    return _write_micro(tmp_path)


def run(*argv):
    return main([str(a) for a in argv])


# --------------------------------------------------------- subcommands


def test_extract_paths_matches_api(micro, capsys):
    out = micro["dir"] / "index.tsv"
    assert run("extract-paths", "--corpus", micro["corpus"], "--pairs", micro["pairs"],
               "--output", out) == 0
    expected = build_path_index(
        parse_conll(micro["corpus"].read_text()),
        [(r.x, r.y) for r in read_pairs(micro["pairs"])],
    )
    assert load_index(out) == expected
    assert "paths found for 3 of 5 pairs" in capsys.readouterr().out


def test_extract_paths_counts_each_pair_line_that_has_a_path(tmp_path, capsys):
    """A repeated pair, in any case, counts once per line, as the pairs do."""
    corpus = tmp_path / "corpus.conll"
    corpus.write_text(conll_text([
        ("The", "the", "DET", 2, "det"), ("cat", "cat", "NOUN", 3, "nsubj"),
        ("chased", "chase", "VERB", 0, "root"), ("mice", "mouse", "NOUN", 3, "obj"),
    ]))
    pairs = tmp_path / "pairs.tsv"
    pairs.write_text("cat\tmouse\nCat\tmouse\ncat\tmouse\ndog\tbone\n")
    assert run("extract-paths", "--corpus", corpus, "--pairs", pairs,
               "--output", tmp_path / "index.tsv") == 0
    assert capsys.readouterr() == ("indexed 1 sentences; paths found for 3 of 4 pairs\n", "")


def test_full_workflow(micro, capsys):
    d = micro["dir"]
    assert run("extract-paths", "--corpus", micro["corpus"], "--pairs", micro["pairs"],
               "--output", d / "index.tsv") == 0
    assert run("train", "--task", "relatedness", "--pairs", micro["pairs"],
               "--index", d / "index.tsv", "--embeddings", micro["embeddings"],
               "--model", d / "rel.json", "--epochs", 2, "--seed", 3) == 0
    assert run("tune", "--pairs", micro["pairs"], "--index", d / "index.tsv",
               "--embeddings", micro["embeddings"], "--model", d / "rel.json",
               "--output", d / "combiner.json") == 0
    assert run("train", "--task", "relations", "--pairs", micro["pairs"],
               "--index", d / "index.tsv", "--embeddings", micro["embeddings"],
               "--model", d / "four.json", "--epochs", 3, "--seed", 3) == 0
    assert "dropped 1 RANDOM" in capsys.readouterr().out
    assert run("predict", "--task", "relations", "--pairs", micro["pairs"],
               "--index", d / "index.tsv", "--embeddings", micro["embeddings"],
               "--combiner", d / "combiner.json", "--relatedness-model", d / "rel.json",
               "--relation-model", d / "four.json", "--output", d / "pred.tsv") == 0
    predictions = read_pairs(d / "pred.tsv")
    assert [(r.x, r.y) for r in predictions] == [(r.x, r.y) for r in read_pairs(micro["pairs"])]
    assert run("evaluate", "--pairs", micro["pairs"], "--predictions", d / "pred.tsv",
               "--output", d / "report.tsv") == 0
    report = (d / "report.tsv").read_text()
    assert report.startswith("label\t")
    assert "weighted\t" in report and "RANDOM" not in report


def test_predict_relatedness_labels(micro):
    d = micro["dir"]
    run("extract-paths", "--corpus", micro["corpus"], "--pairs", micro["pairs"],
        "--output", d / "index.tsv")
    assert run("tune", "--pairs", micro["pairs"], "--embeddings", micro["embeddings"],
               "--output", d / "combiner.json") == 0
    assert run("predict", "--task", "relatedness", "--pairs", micro["pairs"],
               "--index", d / "index.tsv", "--embeddings", micro["embeddings"],
               "--combiner", d / "combiner.json", "--output", d / "pred.tsv") == 0
    labels = {r.label for r in read_pairs(d / "pred.tsv")}
    assert labels <= {"RELATED", "UNRELATED"}


def test_train_writes_manifest_without_paths(micro):
    d = micro["dir"]
    run("extract-paths", "--corpus", micro["corpus"], "--pairs", micro["pairs"],
        "--output", d / "index.tsv")
    run("train", "--task", "relatedness", "--pairs", micro["pairs"],
        "--index", d / "index.tsv", "--embeddings", micro["embeddings"],
        "--model", d / "rel.json", "--epochs", 1, "--seed", 3)
    manifest = json.loads((d / "rel.manifest.json").read_text())
    assert manifest["task"] == "relatedness"
    assert manifest["config"]["epochs"] == 1 and manifest["config"]["seed"] == 3
    assert str(d) not in (d / "rel.manifest.json").read_text()


@pytest.mark.parametrize("task, n_train, n_val, dropped", [
    ("relations", 4, 2, 1),  # the RANDOM rows are left out of both sets
    ("relatedness", 5, 3, 0),  # RANDOM folds to UNRELATED and is kept
])
def test_the_training_manifest_counts_the_pairs_each_task_trains_on(micro, capsys, task,
                                                                     n_train, n_val, dropped):
    d = micro["dir"]
    (d / "val.tsv").write_text("cata\tfeline\tHYPER\nhot\tcold\tANT\npencil\tcloud\tRANDOM\n")
    run("extract-paths", "--corpus", micro["corpus"], "--pairs", micro["pairs"],
        "--output", d / "index.tsv")
    capsys.readouterr()
    assert run("train", "--task", task, "--pairs", micro["pairs"], "--val", d / "val.tsv",
               "--index", d / "index.tsv", "--embeddings", micro["embeddings"],
               "--model", d / "model.json", "--epochs", 1) == 0
    manifest = json.loads((d / "model.manifest.json").read_text())
    assert (manifest["n_train"], manifest["n_val"], manifest["dropped_negative"]) == (
        n_train, n_val, dropped)
    drop_lines = [line for line in capsys.readouterr().out.splitlines() if "dropped" in line]
    assert drop_lines == ([f"dropped {dropped} RANDOM pairs; the relation model trains on "
                           "related pairs only",
                           "dropped 1 RANDOM pairs from the validation set"] if dropped else [])


def test_same_seed_training_is_byte_identical(micro):
    d = micro["dir"]
    run("extract-paths", "--corpus", micro["corpus"], "--pairs", micro["pairs"],
        "--output", d / "index.tsv")
    for name in ("a.json", "b.json"):
        assert run("train", "--task", "relations", "--pairs", micro["pairs"],
                   "--index", d / "index.tsv", "--embeddings", micro["embeddings"],
                   "--model", d / name, "--epochs", 2, "--seed", 11) == 0
    assert (d / "a.json").read_bytes() == (d / "b.json").read_bytes()


def test_train_writes_the_model_that_the_whole_table_trains(micro, capsys):
    """The CLI keeps only the table rows that training looks up: the pair
    words of both sets and the path lemmas that seed the lemma rows."""
    d = micro["dir"]
    micro["embeddings"].write_text(EMBEDDINGS + "Kind 0.5 0.5 0.0 0.0\npart 0 0 0.5 0.5\n"
                                   "be 0.25 0 0 0\nzebra 9 -9 3 1\nquark -5 8 -7 2\nlion 3 3 -9 -9\n")
    (d / "val.tsv").write_text("Hot\tcold\tANT\nzebra\tcata\tHYPER\nquark\twheel\tPART_OF\n"
                               "lion\tsofa\tSYN\nzebra\tquark\tANT\nlion\tzebra\tHYPER\n")
    run("extract-paths", "--corpus", micro["corpus"], "--pairs", micro["pairs"],
        "--output", d / "index.tsv")
    assert run("train", "--task", "relations", "--pairs", micro["pairs"], "--val", d / "val.tsv",
               "--index", d / "index.tsv", "--embeddings", micro["embeddings"],
               "--model", d / "cli.json", "--epochs", 2, "--seed", 5,
               "--train-word-vectors") == 0
    records = [r for r in read_pairs(micro["pairs"]) if r.label != "RANDOM"]
    config = replace(RELATIONS_PRESET, epochs=2, seed=5, train_word_vectors=True)
    accuracies = []
    params = train(records, read_pairs(d / "val.tsv"), config, load_index(d / "index.tsv"),
                   load_table(micro["embeddings"]), label_set=RELATED_LABELS,
                   on_epoch=lambda epoch, accuracy: accuracies.append(f"{accuracy:.3f}"))
    save_model(params, d / "api.json")
    assert (d / "cli.json").read_bytes() == (d / "api.json").read_bytes()
    printed = [line.rsplit(" ", 1)[1] for line in capsys.readouterr().out.splitlines()
               if line.startswith("epoch")]
    assert printed == accuracies and len(printed) == 2
    assert {"kind", "part"} <= params.encoder.lemma.index.keys()


def test_train_val_prints_validation_accuracy_per_epoch(micro, capsys):
    d = micro["dir"]
    run("extract-paths", "--corpus", micro["corpus"], "--pairs", micro["pairs"],
        "--output", d / "index.tsv")
    capsys.readouterr()
    assert run("train", "--task", "relations", "--pairs", micro["pairs"], "--val", micro["pairs"],
               "--index", d / "index.tsv", "--embeddings", micro["embeddings"],
               "--model", d / "four.json", "--epochs", 3, "--seed", 3) == 0
    lines = [line for line in capsys.readouterr().out.splitlines() if line.startswith("epoch ")]
    assert [line.rsplit(" ", 1)[0] for line in lines] == [
        f"epoch {n}: validation accuracy" for n in (1, 2, 3)]
    params = load_model(d / "four.json")
    val = [r for r in read_pairs(micro["pairs"]) if r.label != "RANDOM"]
    dist = pair_distribution(params, load_table(micro["embeddings"]), load_index(d / "index.tsv"),
                             [(r.x, r.y) for r in val])
    hits = sum(params.label_set[k] == r.label for k, r in zip(dist.argmax(axis=1), val))
    assert lines[-1] == f"epoch 3: validation accuracy {hits / len(val):.3f}"


# ------------------------------------------------------------ config file


def test_config_file_overrides_preset(micro):
    d = micro["dir"]
    run("extract-paths", "--corpus", micro["corpus"], "--pairs", micro["pairs"],
        "--output", d / "index.tsv")
    cfg = d / "train.cfg"
    cfg.write_text("epochs = 2\nseed = 21\nhidden-dim = 8\n# comment\n")
    assert run("train", "--task", "relatedness", "--pairs", micro["pairs"],
               "--index", d / "index.tsv", "--embeddings", micro["embeddings"],
               "--model", d / "rel.json", "--config", cfg) == 0
    manifest = json.loads((d / "rel.manifest.json").read_text())
    assert manifest["config"]["epochs"] == 2
    assert manifest["config"]["seed"] == 21
    assert manifest["config"]["hidden_dim"] == 8


def test_explicit_flag_beats_config_file(micro):
    d = micro["dir"]
    run("extract-paths", "--corpus", micro["corpus"], "--pairs", micro["pairs"],
        "--output", d / "index.tsv")
    cfg = d / "train.cfg"
    cfg.write_text("epochs = 7\n")
    run("train", "--task", "relatedness", "--pairs", micro["pairs"],
        "--index", d / "index.tsv", "--embeddings", micro["embeddings"],
        "--model", d / "rel.json", "--config", cfg, "--epochs", 1)
    manifest = json.loads((d / "rel.manifest.json").read_text())
    assert manifest["config"]["epochs"] == 1


def test_config_file_problems_are_usage_errors(micro, capsys):
    d = micro["dir"]
    cfg = d / "bad.cfg"
    for text, message in [
        ("frobnication = 9\n", "unknown setting 'frobnication' at line 1"),
        ("# note\n\nepoch = 2\n", "unknown setting 'epoch' at line 3"),
        ("config = other.cfg\n", "unknown setting 'config' at line 1"),
        ("help = true\n", "unknown setting 'help' at line 1"),
        ("handler = x\n", "unknown setting 'handler' at line 1"),
        ("no equals sign\n", "expected key=value, got 'no equals sign' at line 1"),
        ("train-word-vectors = maybe\n", "'train-word-vectors' expects true or false at line 1"),
        ("epochs = soon\n", "'epochs' expects an integer, got 'soon' at line 1"),
        ("path-average = median\n",
         "'path-average' expects one of weighted, uniform, got 'median' at line 1"),
    ]:
        cfg.write_text(text)
        code = run("train", "--task", "relatedness", "--pairs", micro["pairs"],
                   "--index", d / "index.tsv", "--embeddings", micro["embeddings"],
                   "--model", d / "rel.json", "--config", cfg)
        err = capsys.readouterr().err
        assert code == 1, text
        assert err == f"usage error: {cfg}: {message}\n", err


@pytest.mark.parametrize("command, text, message", [
    ("train", "epochs = 2\nlearnin\n", "expected key=value, got 'learnin' at line 2"),
    ("train", "seed = 3\nepochs =\n", "'epochs' expects an integer, got '' at line 2"),
    ("train", "learning_rate = fast\n", "'learning_rate' expects a number, got 'fast' at line 1"),
    ("train", "hidden-layers = 2\n", "'hidden-layers' expects one of 0, 1, got '2' at line 1"),
    ("predict", "syn-margin = 0.1\nsyn-max-paths =\n",
     "'syn-max-paths' expects an integer, got '' at line 2"),
])
def test_a_bad_config_line_or_value_names_the_config_file_and_its_line(micro, capsys, command,
                                                                         text, message):
    """A value that a config line gives is checked on that line, so its error
    names the config file and the line, never a flag that is not on the
    command line."""
    d = micro["dir"]
    cfg = d / "settings.cfg"
    cfg.write_text(text)
    data = ["--pairs", micro["pairs"], "--index", d / "index.tsv",
            "--embeddings", micro["embeddings"]]
    argv = {"train": ["train", "--task", "relatedness", *data, "--model", d / "rel.json"],
            "predict": ["predict", "--task", "relatedness", *data, "--combiner", d / "c.json",
                        "--output", d / "pred.tsv"]}[command]
    assert run(*argv, "--config", cfg) == 1
    assert capsys.readouterr() == ("", f"usage error: {cfg}: {message}\n")


def test_a_config_file_that_cannot_be_read_is_a_usage_error(micro, capsys):
    d = micro["dir"]
    code = run("train", "--task", "relatedness", "--pairs", micro["pairs"],
               "--index", d / "index.tsv", "--embeddings", micro["embeddings"],
               "--model", d / "rel.json", "--config", d / "missing.cfg")
    assert code == 1
    assert capsys.readouterr() == ("", "usage error: cannot read config file: [Errno 2] "
                                       f"No such file or directory: '{d / 'missing.cfg'}'\n")


# The nine training flags, a value for each that no preset holds, and the
# TrainConfig field each one sets.
TRAIN_FLAGS = [
    ("epochs", "2", "epochs", 2),
    ("learning-rate", "0.05", "learning_rate", 0.05),
    ("seed", "21", "seed", 21),
    ("hidden-layers", "1", "hidden_layers", 1),
    ("word-dropout", "0.25", "word_dropout_rate", 0.25),
    ("hidden-dim", "6", "hidden_dim", 6),
    ("mlp-hidden-dim", "5", "mlp_hidden_dim", 5),
    ("path-average", "uniform", "path_average", "uniform"),
    ("train-word-vectors", None, "train_word_vectors", True),
]


@pytest.mark.parametrize("form", ["flags", "dashed keys", "underscored keys"])
def test_each_training_flag_reaches_the_train_config(micro, form):
    d = micro["dir"]
    run("extract-paths", "--corpus", micro["corpus"], "--pairs", micro["pairs"],
        "--output", d / "index.tsv")
    given = []
    if form == "flags":
        for flag, value, _, _ in TRAIN_FLAGS:
            given += [f"--{flag}"] if value is None else [f"--{flag}", value]
    else:
        lines = []
        for flag, value, _, _ in TRAIN_FLAGS:
            key = flag if form == "dashed keys" else flag.replace("-", "_")
            lines.append(f"{key} = {'true' if value is None else value}\n")
        (d / "train.cfg").write_text("".join(lines))
        given = ["--config", d / "train.cfg"]
    assert run("train", "--task", "relations", "--pairs", micro["pairs"],
               "--index", d / "index.tsv", "--embeddings", micro["embeddings"],
               "--model", d / "four.json", *given) == 0
    config = json.loads((d / "four.manifest.json").read_text())["config"]
    assert {field: config[field] for _, _, field, _ in TRAIN_FLAGS} == {
        field: value for _, _, field, value in TRAIN_FLAGS}


def test_config_switches_and_dashed_values(micro, capsys):
    d = micro["dir"]
    run("extract-paths", "--corpus", micro["corpus"], "--pairs", micro["pairs"],
        "--output", d / "index.tsv")
    cfg = d / "train.cfg"
    train = ("train", "--task", "relatedness", "--pairs", micro["pairs"],
             "--index", d / "index.tsv", "--embeddings", micro["embeddings"],
             "--model", d / "rel.json", "--config", cfg)
    for value, expected in [("YES", True), ("1", True), ("no", False), ("0", False)]:
        cfg.write_text(f"train_word_vectors = {value}\n")
        assert run(*train) == 0, value
        config = json.loads((d / "rel.manifest.json").read_text())["config"]
        assert config["train_word_vectors"] is expected, value
    cfg.write_text("train_word_vectors = false\n")
    assert run(*train, "--train-word-vectors") == 0
    assert json.loads((d / "rel.manifest.json").read_text())["config"]["train_word_vectors"]
    # A value that starts with a dash stays the value, not a flag.
    cfg.write_text("learning-rate = -0.5\n")
    capsys.readouterr()
    assert run(*train) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "learning_rate" in err and err.count("\n") == 1, err


CONFIG_KEYS = ["epochs", "learning-rate", "seed", "hidden_layers", "word-dropout", "hidden-dim",
               "mlp_hidden_dim", "path-average", "train-word-vectors", "task", "val", "pairs",
               "config", "help", "handler", "output"]
CONFIG_LINES = st.one_of(
    st.text(max_size=30),
    st.builds(lambda key, value: f"{key} = {value}", st.sampled_from(CONFIG_KEYS),
              st.text(max_size=12)),
)


@settings(max_examples=150, deadline=None)
@given(lines=st.lists(CONFIG_LINES, max_size=5))
def test_config_reader_fuzz_exits_one_or_two_with_one_line(tmp_path_factory, lines):
    d = tmp_path_factory.getbasetemp() / "config_fuzz"
    d.mkdir(exist_ok=True)
    cfg = d / "fuzz.cfg"
    cfg.write_text("\n".join(lines), encoding="utf-8")
    err = io.StringIO()
    with redirect_stderr(err), redirect_stdout(io.StringIO()):
        code = run("train", "--task", "relatedness", "--pairs", d / "no-pairs.tsv",
                   "--index", d / "no-index.tsv", "--embeddings", d / "no-table.txt",
                   "--model", d / "model.json", "--config", cfg)
    assert code in (1, 2)
    assert err.getvalue().count("\n") == 1 and err.getvalue().endswith("\n"), err.getvalue()
    assert not (d / "model.json").exists()


# Arbitrary text, rich in what structures a corpus or a pairs file: tabs,
# digits, '#', line breaks (blank lines among them), "\r" and "\x85".
FUZZ_TEXT = st.text(st.one_of(st.sampled_from("\t\t\t0123456789#\n\n\r\x85 _"),
                              st.characters(blacklist_categories=("Cs",))), max_size=60)
FUZZ_CELL = st.text(st.sampled_from("01a_#\r\x85"), max_size=2)
CONLL_ROWS = st.builds(
    lambda i, lemma, head, deprel: f"{i}\t{lemma}\t{lemma}\tNOUN\t_\t_\t{head}\t{deprel}",
    st.integers(0, 3), st.sampled_from(["cata", "Feline", "x"]), st.integers(0, 3), FUZZ_CELL)
FUZZ_LABEL = st.sampled_from(RELATION_LABELS + ("TRUE", "FALSE"))
PAIR_ROWS = st.one_of(
    st.lists(st.one_of(FUZZ_CELL, FUZZ_LABEL), min_size=1, max_size=4).map("\t".join),
    st.builds("{}\t{}\t{}".format, st.sampled_from(["cata", "Feline", "x\x85"]),
              st.sampled_from(["hot", "cold"]), FUZZ_LABEL))


def _assert_one_line_naming(err, code, path):
    """Exit 0 with nothing on stderr, or exit 2 with one line naming ``path``."""
    if code == 0:
        assert err == "", err
    else:
        assert code == 2
        assert err.startswith(f"error: {path}: ") and err.count("\n") == 1 and err.endswith("\n"), err


@settings(max_examples=150, deadline=None)
@given(lines=st.lists(st.one_of(FUZZ_TEXT, CONLL_ROWS, st.just(HYPER_SENT)), max_size=8))
def test_corpus_reader_fuzz_exits_zero_or_two_with_one_line(tmp_path_factory, lines):
    d = tmp_path_factory.getbasetemp() / "corpus_fuzz"
    d.mkdir(exist_ok=True)
    corpus, pairs, out = d / "fuzz.conll", d / "pairs.tsv", d / "index.tsv"
    corpus.write_text("\n".join(lines), encoding="utf-8")
    pairs.write_text("cata\tfeline\nx\tcata\n", encoding="utf-8")
    out.unlink(missing_ok=True)
    err = io.StringIO()
    with redirect_stderr(err), redirect_stdout(io.StringIO()):
        code = run("extract-paths", "--corpus", corpus, "--pairs", pairs, "--output", out)
    _assert_one_line_naming(err.getvalue(), code, corpus)
    assert out.exists() == (code == 0)


@settings(max_examples=100, deadline=None)
@given(lines=st.lists(st.one_of(FUZZ_TEXT, PAIR_ROWS), max_size=6),
       task=st.sampled_from(["relatedness", "relations"]))
def test_pairs_reader_fuzz_exits_zero_or_two_with_one_line(tmp_path_factory, lines, task):
    d = tmp_path_factory.getbasetemp() / "pairs_fuzz"
    d.mkdir(exist_ok=True)
    pairs, index, table, model = d / "fuzz.tsv", d / "index.tsv", d / "table.txt", d / "model.json"
    pairs.write_text("\n".join(lines), encoding="utf-8")
    index.write_text("# semrel path index v1\n", encoding="utf-8")
    table.write_text(EMBEDDINGS, encoding="utf-8")
    model.unlink(missing_ok=True)
    err = io.StringIO()
    with redirect_stderr(err), redirect_stdout(io.StringIO()):
        code = run("train", "--task", task, "--pairs", pairs, "--index", index,
                   "--embeddings", table, "--model", model, "--epochs", "1")
    _assert_one_line_naming(err.getvalue(), code, pairs)
    assert model.exists() == (code == 0)


# Table lines: rows of the pair words and of other words, at the width of
# EMBEDDINGS or another, with good and faulty values, and arbitrary text.
TABLE_WORDS = st.sampled_from(["cata", "Feline", "hot", "cold", "zebra", "Quark", "<unk>"])
TABLE_VALUES = st.one_of(st.sampled_from(["0", "1.5", "-2e3", "1e-320"]),
                         st.sampled_from(["nan", "-inf", "1e999", "1.7e308", "x.y", "1_0", ""]))
TABLE_ROWS = st.builds(lambda word, values, sep: sep.join([word, *values]), TABLE_WORDS,
                       st.lists(TABLE_VALUES, min_size=0, max_size=5), st.sampled_from([" ", "\t"]))
COMBINER = '{"format": "semrel-combiner", "version": 1, "w_C": 1.0, "w_L": 0.0, "t": 0.5}\n'


@settings(max_examples=100, deadline=None)
@given(lines=st.lists(st.one_of(TABLE_ROWS, TABLE_ROWS, FUZZ_TEXT), max_size=8),
       command=st.sampled_from(["tune", "predict"]))
def test_embeddings_reader_fuzz_exits_zero_or_two_with_one_line(tmp_path_factory, lines, command):
    d = tmp_path_factory.getbasetemp() / "table_fuzz"
    d.mkdir(exist_ok=True)
    table, pairs, out = d / "fuzz.txt", d / "pairs.tsv", d / "out"
    table.write_text("\n".join(lines), encoding="utf-8")
    pairs.write_text("cata\tfeline\tHYPER\nhot\tcold\tRANDOM\n", encoding="utf-8")
    (d / "index.tsv").write_text("# semrel path index v1\n", encoding="utf-8")
    (d / "combiner.json").write_text(COMBINER, encoding="utf-8")
    out.unlink(missing_ok=True)
    argv = {"tune": ("tune", "--pairs", pairs, "--embeddings", table, "--output", out),
            "predict": ("predict", "--task", "relatedness", "--pairs", pairs, "--index",
                        d / "index.tsv", "--embeddings", table, "--combiner",
                        d / "combiner.json", "--output", out)}[command]
    err = io.StringIO()
    with redirect_stderr(err), redirect_stdout(io.StringIO()):
        code = run(*argv)
    _assert_one_line_naming(err.getvalue(), code, table)
    assert out.exists() == (code == 0)


@pytest.fixture(scope="module")
def reader_world(tmp_path_factory):
    """The micro world with its index, a relatedness model and a combiner
    that weighs that model by half, for the index, model and combiner fuzz
    tests, which replace one of these files at a time."""
    micro = _write_micro(tmp_path_factory.mktemp("readers"))
    d = _trained_models(micro)
    (d / "half.json").write_text(
        '{"format": "semrel-combiner", "version": 1, "w_C": 0.5, "w_L": 0.5, "t": 0.5}\n')
    return micro


def _run_reader(world, fuzzed, **files):
    """Run ``tune --model`` or ``predict --task relatedness`` on the reader
    world with the given files swapped in, and check the one-line promise
    for ``fuzzed``."""
    d = world["dir"]
    files = {"index": d / "index.tsv", "model": d / "rel.json", "combiner": d / "half.json",
             **files}
    data = ("--pairs", world["pairs"], "--index", files["index"],
            "--embeddings", world["embeddings"])
    out = d / "out"
    out.unlink(missing_ok=True)
    if files["model"] == fuzzed:
        argv = ("tune", *data, "--model", fuzzed, "--output", out)
    else:
        argv = ("predict", "--task", "relatedness", *data, "--combiner", files["combiner"],
                "--relatedness-model", files["model"], "--output", out)
    err = io.StringIO()
    with redirect_stderr(err), redirect_stdout(io.StringIO()):
        code = run(*argv)
    _assert_one_line_naming(err.getvalue(), code, fuzzed)
    assert out.exists() == (code == 0)
    return code


# Index rows: pair words, paths of fuzzed steps or of up to 300 steps, and
# counts that are numbers, non-numbers and a 400-digit integer.
INDEX_STEPS = st.builds("{}/{}/{}/{}".format, st.sampled_from(["cata", "kind", "%2F", "%ZZ", ""]),
                        st.sampled_from(["NOUN", "X", ""]), st.sampled_from(["nsubj", "a%09b"]),
                        st.sampled_from(["<", ">", "^", "v", ""]))
INDEX_ROWS = st.builds(
    lambda x, y, path, count: f"{x}\t{y}\t{path}\t{count}",
    st.sampled_from(["cata", "Feline", "hot", "zebra", ""]),
    st.sampled_from(["feline", "cold", "cata", "x\x85"]),
    st.one_of(st.lists(INDEX_STEPS, min_size=1, max_size=3).map("::".join),
              st.integers(1, 300).map(lambda n: "::".join(["cata/NOUN/nsubj/>"] * n)),
              FUZZ_CELL),
    st.sampled_from(["1", "3", "0", "-2", "1.5", "nan", "1e3", "٣", " 2", "", "9" * 400]))


@settings(max_examples=100, deadline=None)
@given(lines=st.lists(st.one_of(INDEX_ROWS, INDEX_ROWS, FUZZ_TEXT), max_size=6))
def test_index_reader_fuzz_exits_zero_or_two_with_one_line(reader_world, lines):
    index = reader_world["dir"] / "fuzz.tsv"
    index.write_text("\n".join(["# semrel path index v1", *lines]), encoding="utf-8")
    _run_reader(reader_world, index, index=index)


# Raw JSON text to put in place of a field or of a whole document: other
# types, non-numbers, out-of-range and overlong numbers, and nesting on
# both sides of the parser's depth limit.
JSON_VALUES = st.one_of(
    st.sampled_from(["null", "true", '"x"', '"RELATED"', "{}", "[]", "[[]]", '[["a"]]',
                     '{"a": 1}', '["RELATED", "UNRELATED"]', "NaN", "-Infinity", "1e999",
                     "1e308", "-0.0", "5e-324", "0", "-1", "2", "0.5", "1" + "0" * 400,
                     "9" * 5000, "[" * 200_000]),
    st.integers(1, 3000).map(lambda n: "[" * n + "0" + "]" * n),
    st.integers(-10**6, 10**6).map(str),
    st.floats(allow_nan=False).map(json.dumps),
)


def _json_paths(value, path=()):
    """The path of every object member of a JSON document and of the first
    and last element of every array."""
    if isinstance(value, dict):
        items = value.items()
    elif isinstance(value, list) and value:
        items = {0: value[0], len(value) - 1: value[-1]}.items()
    else:
        return
    for key, item in items:
        yield path + (key,)
        yield from _json_paths(item, path + (key,))


def _replaced(text, path, raw):
    """JSON ``text`` with the value at ``path`` replaced by the raw JSON
    ``raw``, or dropped when ``raw`` is None."""
    doc = json.loads(text)
    *parents, last = path
    holder = doc
    for key in parents:
        holder = holder[key]
    if raw is None:
        del holder[last]
        return json.dumps(doc)
    holder[last] = "\0hole"
    return json.dumps(doc).replace(json.dumps("\0hole"), raw)


@st.composite
def fuzzed_documents(draw, text):
    """``text`` with one value replaced by raw JSON or dropped, or cut short,
    or raw JSON in its place."""
    kind = draw(st.sampled_from(["replace", "replace", "drop", "cut", "whole"]))
    if kind == "cut":
        return text[:draw(st.integers(0, len(text) - 1))]
    if kind == "whole":
        return draw(JSON_VALUES)
    path = draw(st.sampled_from(list(_json_paths(json.loads(text)))))
    return _replaced(text, path, None if kind == "drop" else draw(JSON_VALUES))


@settings(max_examples=150, deadline=None)
@given(data=st.data(), reader=st.sampled_from(["model", "combiner"]))
def test_model_and_combiner_readers_fuzz_exits_zero_or_two_with_one_line(reader_world, data,
                                                                         reader):
    d = reader_world["dir"]
    source = {"model": d / "rel.json", "combiner": d / "half.json"}[reader]
    fuzzed = d / f"fuzz-{reader}.json"
    fuzzed.write_text(data.draw(fuzzed_documents(source.read_text())), encoding="utf-8")
    _run_reader(reader_world, fuzzed, **{reader: fuzzed})


@pytest.mark.parametrize("reader,path,raw", [
    ("model", ("label_set", 0), "null"),
    ("model", ("hidden_dim",), "Infinity"),
    ("model", ("recurrent", "bias", 0), "1" + "0" * 400),
    ("model", ("seed",), "9" * 5000),
    ("combiner", ("w_C",), "1" + "0" * 400),
], ids=["null-label", "infinite-hidden-dim", "huge-bias", "5000-digit-seed", "huge-w_C"])
def test_a_value_of_the_wrong_kind_or_range_exits_two_naming_its_file(reader_world, reader,
                                                                      path, raw):
    d = reader_world["dir"]
    source = {"model": d / "rel.json", "combiner": d / "half.json"}[reader]
    bad = d / f"bad-{reader}.json"
    bad.write_text(_replaced(source.read_text(), path, raw), encoding="utf-8")
    assert _run_reader(reader_world, bad, **{reader: bad}) == 2


LONG = "Q" * 3000
INDEX_HEADER = "# semrel path index v1\n"


def _rel_model_with(d, field, value):
    return _replaced((d / "rel.json").read_text(), (field,), json.dumps(value))


# A file of the reader world with a 3,000-character value in it: the role of
# the file, its text, and the exit code and message of the command reading it.
LONG_VALUE_CASES = {
    "label": ("pairs", lambda d: f"cata\tfeline\t{LONG}\n", 2, "invalid labels in training set"),
    "duplicate-token": ("embeddings", lambda d: EMBEDDINGS + f"{LONG} 1 0 0 0\n" * 2, 2,
                        "duplicate token"),
    "path-step": ("index", lambda d: f"{INDEX_HEADER}cata\tfeline\t{LONG}\t1\n", 2,
                  "malformed path step"),
    "direction": ("index", lambda d: f"{INDEX_HEADER}cata\tfeline\tcata/NOUN/nsubj/{LONG}\t1\n",
                  2, "unknown direction symbol"),
    "pair-differs": ("predictions", lambda d: PAIRS_TSV.replace("cata", LONG), 2,
                     "pair 1 differs"),
    "config-no-equals": ("config", lambda d: LONG + "\n", 1, "expected key=value"),
    "config-value": ("config", lambda d: f"epochs = {LONG}\n", 1, "'epochs' expects an integer"),
    "config-unknown": ("config", lambda d: f"{LONG} = 1\n", 1, "unknown setting"),
    "version": ("model", lambda d: _rel_model_with(d, "version", LONG), 2,
                "unsupported relation model version"),
    "model-labels": ("model", lambda d: _rel_model_with(d, "label_set", [LONG, "UNRELATED"]), 2,
                     "model has labels"),
    "path-average": ("model", lambda d: _rel_model_with(d, "path_average", LONG), 2,
                     "unknown path_average mode"),
    "combiner-value": ("combiner", lambda d: _replaced((d / "half.json").read_text(), ("t",),
                                                       json.dumps(LONG)), 2, "bad value"),
}


@pytest.mark.parametrize("case", list(LONG_VALUE_CASES))
def test_a_message_quotes_at_most_40_characters_of_a_long_value(reader_world, case):
    d = reader_world["dir"]
    role, text, expected_code, message = LONG_VALUE_CASES[case]
    bad = d / f"long-{case}"
    bad.write_text(text(d))
    files = {"pairs": d / "pairs.tsv", "index": d / "index.tsv",
             "embeddings": d / "embeddings.txt", "model": d / "rel.json",
             "combiner": d / "half.json", role: bad}
    data = ("--pairs", files["pairs"], "--index", files["index"],
            "--embeddings", files["embeddings"])
    out = d / "out"
    argv = {
        "pairs": ("train", "--task", "relations", *data, "--model", out),
        "config": ("train", "--task", "relations", *data, "--model", out, "--config", bad),
        "embeddings": ("tune", "--pairs", files["pairs"], "--embeddings", files["embeddings"],
                       "--output", out),
        "model": ("tune", *data, "--model", files["model"], "--output", out),
        "index": ("predict", "--task", "relatedness", *data, "--combiner", files["combiner"],
                  "--relatedness-model", files["model"], "--output", out),
        "predictions": ("evaluate", "--pairs", files["pairs"], "--predictions", bad),
    }
    argv["combiner"] = argv["index"]
    err = io.StringIO()
    with redirect_stderr(err), redirect_stdout(io.StringIO()):
        code = run(*argv[role])
    err = err.getvalue()
    assert code == expected_code, err[:300]
    assert message in err and err.count("\n") == 1, err[:300]
    assert "Q" * 20 in err and "Q" * 41 not in err, err[:300]
    assert not out.exists()


@pytest.fixture
def table_argv(micro):
    """With the index and combiner written, the argv of a command that loads
    the table and writes ``out``."""
    d = micro["dir"]
    run("extract-paths", "--corpus", micro["corpus"], "--pairs", micro["pairs"],
        "--output", d / "index.tsv")
    run("tune", "--pairs", micro["pairs"], "--embeddings", micro["embeddings"],
        "--output", d / "combiner.json")
    data = ["--index", d / "index.tsv", "--embeddings", micro["embeddings"]]

    def argv(command, out):
        return {
            "train": ("train", "--task", "relations", "--pairs", micro["pairs"], *data,
                      "--model", out, "--epochs", "1"),
            "tune": ("tune", "--pairs", micro["pairs"], "--embeddings", micro["embeddings"],
                     "--output", out),
            "predict": ("predict", "--task", "relatedness", "--pairs", micro["pairs"], *data,
                        "--combiner", d / "combiner.json", "--output", out),
        }[command]
    return argv


@pytest.mark.parametrize("command", ["train", "tune", "predict"])
def test_a_bad_value_in_a_row_no_command_uses_is_not_read(micro, table_argv, capsys, command):
    """Only the rows a command uses have their values parsed, so a nan in
    another row changes nothing that the command writes."""
    d = micro["dir"]
    (d / "clean").mkdir()
    (d / "zebra").mkdir()
    assert run(*table_argv(command, d / "clean" / "out")) == 0
    micro["embeddings"].write_text(EMBEDDINGS + "zebra 0.0 nan 0.0 0.0\n")
    assert run(*table_argv(command, d / "zebra" / "out")) == 0
    capsys.readouterr()
    written = {side: {f.name: f.read_bytes() for f in (d / side).iterdir()}
               for side in ("clean", "zebra")}
    assert written["clean"] and written["clean"] == written["zebra"]


@pytest.mark.parametrize("command", ["train", "tune", "predict"])
def test_a_bad_value_in_a_row_a_command_uses_exits_two_naming_its_line(
        micro, table_argv, capsys, command):
    d = micro["dir"]
    micro["embeddings"].write_text(EMBEDDINGS.replace("hot 0.0 0.0 1.0", "hot 0.0 0.0 1.x"))
    capsys.readouterr()
    assert run(*table_argv(command, d / "out")) == 2
    assert capsys.readouterr().err == (
        f"error: {micro['embeddings']}: unparsable value at line 5\n")
    assert not (d / "out").exists()


@pytest.mark.parametrize("command", ["train", "tune", "predict"])
@pytest.mark.parametrize("rows, message", [
    ("zebra 0 0 0 0\nZebra 1 1 1 1\n", "duplicate token 'Zebra' at line 12"),
    ("zebra\n", "no vector values at line 11"),
])
def test_a_duplicate_or_bare_row_no_command_uses_exits_two_naming_its_line(
        micro, table_argv, capsys, command, rows, message):
    d = micro["dir"]
    micro["embeddings"].write_text(EMBEDDINGS + rows)
    capsys.readouterr()
    assert run(*table_argv(command, d / "out")) == 2
    assert capsys.readouterr().err == f"error: {micro['embeddings']}: {message}\n"
    assert not (d / "out").exists()


# ------------------------------------------------------------ exit codes


def test_usage_errors_exit_one(micro, capsys):
    assert run() == 1
    assert run("frobnicate") == 1
    assert run("train") == 1  # missing required flags
    capsys.readouterr()


def test_relations_predict_requires_relation_model(micro, capsys):
    d = micro["dir"]
    run("extract-paths", "--corpus", micro["corpus"], "--pairs", micro["pairs"],
        "--output", d / "index.tsv")
    run("tune", "--pairs", micro["pairs"], "--embeddings", micro["embeddings"],
        "--output", d / "combiner.json")
    code = run("predict", "--task", "relations", "--pairs", micro["pairs"],
               "--index", d / "index.tsv", "--embeddings", micro["embeddings"],
               "--combiner", d / "combiner.json", "--output", d / "pred.tsv")
    assert code == 1
    assert "relation-model" in capsys.readouterr().err


@pytest.mark.parametrize("case", ["tune", "predict relations", "predict w_L", "evaluate"])
def test_a_missing_flag_combination_is_reported_before_any_input_is_read(micro, capsys, case):
    """The pairs file is malformed and the other inputs missing or malformed,
    yet the usage error comes first; only the combiner is read before it, as
    its w_L decides whether --relatedness-model is needed. Two flags that
    conflict are such a combination too."""
    d = micro["dir"]
    bad = d / "bad.tsv"
    bad.write_text("only-one-column\n")
    save_combiner(CombinerConfig(0.5, 0.5, 0.5), d / "combiner.json")
    data = ["--pairs", bad, "--embeddings", bad]
    argv, message = {
        "tune": (("tune", *data, "--model", d / "missing.json", "--output", d / "out.json"),
                 "--model and --index go together: give both or neither"),
        "predict relations": (("predict", "--task", "relations", *data, "--index", bad,
                               "--combiner", d / "missing.json", "--output", d / "out.tsv"),
                              "--task relations requires --relation-model"),
        "predict w_L": (("predict", "--task", "relatedness", *data, "--index", bad,
                         "--combiner", d / "combiner.json", "--output", d / "out.tsv"),
                        "this combiner has w_L > 0; pass --relatedness-model"),
        "evaluate": (("evaluate", "--pairs", bad, "--predictions", d / "missing.tsv",
                      "--exclude", "RANDOM", "--no-auto-exclude"),
                     "--exclude and --no-auto-exclude conflict: give one or neither"),
    }[case]
    assert run(*argv) == 1
    assert capsys.readouterr() == ("", f"usage error: {message}\n")


@pytest.mark.parametrize("command, flags, message", [
    ("train relations", ("--seed", "-1"), "seed must be nonnegative"),
    ("train relatedness", ("--epochs", "0"), "epochs must be at least 1"),
    ("predict relations", ("--syn-margin", "-1"), "syn_margin must be a nonnegative finite number"),
    ("predict relatedness", ("--syn-margin", "-1"),
     "syn_margin must be a nonnegative finite number"),
    ("predict relations", ("--syn-max-paths", "-1"), "syn_max_paths must be nonnegative"),
])
def test_a_bad_setting_is_reported_before_any_input_is_read(micro, capsys, command, flags,
                                                            message):
    """The pairs file is missing, yet the setting is the error reported and
    nothing is printed before it; predict reads its combiner first, as the
    settings of the SYN demotion are kept with it."""
    d = micro["dir"]
    save_combiner(CombinerConfig(1.0, 0.0, 0.5), d / "combiner.json")
    name, task = command.split()
    data = ["--task", task, "--pairs", d / "missing.tsv", "--index", d / "missing.tsv",
            "--embeddings", micro["embeddings"]]
    argv = {
        "train": ("train", *data, "--model", d / "model.json"),
        "predict": ("predict", *data, "--combiner", d / "combiner.json",
                    "--relation-model", d / "missing.json", "--output", d / "out.tsv"),
    }[name]
    assert run(*argv, *flags) == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")


def test_running_out_of_memory_exits_two_with_one_line(micro, capsys, monkeypatch):
    """An array too large for the machine is an error line, not numpy's
    traceback. The failure is faked, as a real attempt could take the
    machine's memory where it overcommits."""
    real = path_encoder.init_uniform

    def init_uniform(rng, *shape):
        if math.prod(shape) > 10**8:
            raise MemoryError(f"Unable to allocate 1013. GiB for an array with shape {shape}")
        return real(rng, *shape)

    monkeypatch.setattr(path_encoder, "init_uniform", init_uniform)
    d = micro["dir"]
    run("extract-paths", "--corpus", micro["corpus"], "--pairs", micro["pairs"],
        "--output", d / "index.tsv")
    capsys.readouterr()
    assert run("train", "--task", "relations", "--pairs", micro["pairs"], "--index", d / "index.tsv",
               "--embeddings", micro["embeddings"], "--model", d / "model.json",
               "--hidden-dim", "1000000000") == 2
    assert capsys.readouterr().err == ("error: Unable to allocate 1013. GiB for an array with "
                                       "shape (4000000000, 14)\n")
    assert not (d / "model.json").exists()


def test_predict_reports_a_malformed_combiner_before_a_malformed_pairs_file(micro, capsys):
    d = micro["dir"]
    bad = d / "bad.tsv"
    bad.write_text("only-one-column\n")
    (d / "combiner.json").write_text("{")
    assert run("predict", "--task", "relatedness", "--pairs", bad, "--index", d / "missing.tsv",
               "--embeddings", bad, "--combiner", d / "combiner.json",
               "--output", d / "out.tsv") == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {d / 'combiner.json'}: ") and err.count("\n") == 1, err


def test_missing_file_exits_two(micro, capsys):
    code = run("extract-paths", "--corpus", micro["dir"] / "nope.conll",
               "--pairs", micro["pairs"], "--output", micro["dir"] / "index.tsv")
    assert code == 2
    assert "error" in capsys.readouterr().err


def test_a_missing_input_file_is_named_with_the_reason(micro, capsys):
    d = micro["dir"]
    assert run("evaluate", "--pairs", d / "missing.tsv", "--predictions", micro["pairs"]) == 2
    assert capsys.readouterr().err == f"error: {d / 'missing.tsv'}: No such file or directory\n"


# Each command, as the reader world runs it, and the options that name its inputs.
INPUT_OPTIONS = {
    "extract-paths": ("--corpus", "--pairs"),
    "train": ("--pairs", "--index", "--embeddings", "--val", "--config"),
    "tune": ("--pairs", "--index", "--embeddings", "--model"),
    "predict relatedness": ("--pairs", "--index", "--embeddings", "--combiner",
                            "--relatedness-model", "--relation-model", "--config"),
    "predict relations": ("--pairs", "--index", "--embeddings", "--combiner",
                          "--relatedness-model", "--relation-model", "--config"),
    "evaluate": ("--pairs", "--predictions"),
}


@pytest.mark.parametrize("name", ["missing", ""])
@pytest.mark.parametrize("command, option", [
    (command, option) for command, options in INPUT_OPTIONS.items() for option in options])
def test_every_file_a_command_is_given_is_opened(reader_world, capsys, command, option, name):
    """A missing file, or an empty name, fails with one line that names it,
    whether or not the command uses the file: the relation model under
    --task relatedness, the relatedness model of a combiner with w_L = 0,
    and the validation set too. A config file is a usage error."""
    d = reader_world["dir"]
    (d / "settings.cfg").write_text("# the defaults\n")
    given = "" if name == "" else d / name
    f = {"--corpus": reader_world["corpus"], "--pairs": reader_world["pairs"],
         "--index": d / "index.tsv", "--embeddings": reader_world["embeddings"],
         "--val": reader_world["pairs"], "--config": d / "settings.cfg",
         "--model": d / "rel.json", "--combiner": d / "combiner.json",
         "--relatedness-model": d / "rel.json", "--relation-model": d / "four.json",
         "--predictions": reader_world["pairs"], option: given}
    out = d / "out"
    data = ("--pairs", f["--pairs"], "--index", f["--index"], "--embeddings", f["--embeddings"])
    models = ("--combiner", f["--combiner"], "--relatedness-model", f["--relatedness-model"],
              "--relation-model", f["--relation-model"], "--config", f["--config"])
    argv = {
        "extract-paths": ("extract-paths", "--corpus", f["--corpus"], "--pairs", f["--pairs"],
                          "--output", out),
        "train": ("train", "--task", "relations", *data, "--val", f["--val"],
                  "--config", f["--config"], "--model", out, "--epochs", "1"),
        "tune": ("tune", *data, "--model", f["--model"], "--output", out),
        "predict relatedness": ("predict", "--task", "relatedness", *data, *models,
                                "--output", out),
        "predict relations": ("predict", "--task", "relations", *data, *models,
                              "--output", out),
        "evaluate": ("evaluate", "--pairs", f["--pairs"], "--predictions", f["--predictions"],
                     "--output", out),
    }[command]
    if option == "--config":
        expected = (1, f"usage error: cannot read config file: [Errno 2] No such file or "
                       f"directory: '{given}'\n")
    else:
        expected = (2, f"error: {given}: No such file or directory\n")
    out.unlink(missing_ok=True)
    assert (run(*argv), capsys.readouterr().err) == expected
    assert not out.exists()


# Each command and the options that name the files it reads.
OUTPUT_INPUTS = {
    "extract-paths": ("--corpus", "--pairs"),
    "train": ("--pairs", "--index", "--embeddings", "--val", "--config"),
    "tune": ("--pairs", "--index", "--embeddings", "--model"),
    "predict": ("--pairs", "--index", "--embeddings", "--combiner", "--relatedness-model",
                "--relation-model", "--config"),
    "evaluate": ("--pairs", "--predictions"),
}


@pytest.mark.parametrize("command, option, spelling", [
    *((command, option, "same") for command, options in OUTPUT_INPUTS.items()
      for option in options),
    ("evaluate", "--pairs", "symlink"), ("extract-paths", "--pairs", "dot"),
    ("train", "--pairs", "manifest")])
def test_an_output_that_is_an_input_is_a_usage_error_and_no_file_changes(
        reader_world, tmp_path, capsys, command, option, spelling):
    """The output names the file of one input option, each input a file of
    its own: by the same name, through a symlink, with a ./ inside, or as the
    manifest beside train's --model."""
    d = tmp_path / "world"
    shutil.copytree(reader_world["dir"], d)
    for name in ("val.tsv", "predictions.tsv", "gold.manifest.json"):
        shutil.copyfile(d / "pairs.tsv", d / name)
    (d / "settings.cfg").write_text("# the defaults\n")
    f = {"--corpus": d / "corpus.conll", "--pairs": d / "pairs.tsv", "--index": d / "index.tsv",
         "--embeddings": d / "embeddings.txt", "--val": d / "val.tsv",
         "--config": d / "settings.cfg", "--model": d / "rel.json",
         "--combiner": d / "combiner.json", "--relatedness-model": d / "rel.json",
         "--relation-model": d / "four.json", "--predictions": d / "predictions.tsv"}
    out = written = f[option]
    if spelling == "symlink":
        out = written = d / "link.tsv"
        out.symlink_to(f[option])
    elif spelling == "dot":
        out = written = f"{d}/./{f[option].name}"
    elif spelling == "manifest":
        f["--pairs"] = written = d / "gold.manifest.json"
        out = d / "gold.json"
    data = ("--pairs", f["--pairs"], "--index", f["--index"], "--embeddings", f["--embeddings"])
    argv = {
        "extract-paths": ("extract-paths", "--corpus", f["--corpus"], "--pairs", f["--pairs"],
                          "--output", out),
        "train": ("train", "--task", "relations", *data, "--val", f["--val"],
                  "--config", f["--config"], "--model", out, "--epochs", "1"),
        "tune": ("tune", *data, "--model", f["--model"], "--output", out),
        "predict": ("predict", "--task", "relations", *data, "--combiner", f["--combiner"],
                    "--relatedness-model", f["--relatedness-model"],
                    "--relation-model", f["--relation-model"], "--config", f["--config"],
                    "--output", out),
        "evaluate": ("evaluate", "--pairs", f["--pairs"], "--predictions", f["--predictions"],
                     "--output", out),
    }[command]
    before = {p: p.is_dir() or p.read_bytes() for p in d.rglob("*")}
    assert run(*argv) == 1
    assert capsys.readouterr() == (
        "", f"usage error: output {written} would overwrite the {option} input\n")
    assert {p: p.is_dir() or p.read_bytes() for p in d.rglob("*")} == before


def test_an_unwritable_output_file_is_named_with_the_reason(micro, capsys):
    d = micro["dir"]
    assert run("extract-paths", "--corpus", micro["corpus"], "--pairs", micro["pairs"],
               "--output", d / "nodir" / "index.tsv") == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: {d / 'nodir' / 'index.tsv'}: No such file or directory\n"
    assert captured.out == ""


@pytest.mark.parametrize("parent, reason", [
    ("nodir", "No such file or directory"), ("pairs.tsv", "Not a directory"),
    ("outdir", "Is a directory"), (None, "No such file or directory")])  # None: an empty name
@pytest.mark.parametrize("command", ["extract-paths", "train", "tune", "predict", "evaluate"])
def test_an_output_directory_is_checked_before_any_input_is_read(micro, capsys, command, parent,
                                                                 reason):
    """Every input is malformed or missing, yet the output's directory, the
    output itself when it is a directory, or an empty output name, is the
    error reported, and the check leaves every file as it was."""
    d = micro["dir"]
    bad = d / "bad.tsv"
    bad.write_text("only-one-column\n")
    out = "" if parent is None else d / parent / "out"
    if reason == "Is a directory":
        out.mkdir(parents=True)
    data = ["--pairs", bad, "--index", d / "missing.tsv", "--embeddings", bad]
    argv = {
        "extract-paths": ("extract-paths", "--corpus", bad, "--pairs", bad, "--output", out),
        "train": ("train", "--task", "relations", *data, "--model", out),
        "tune": ("tune", *data, "--model", d / "missing.json", "--output", out),
        "predict": ("predict", "--task", "relations", *data, "--combiner", d / "missing.json",
                    "--relation-model", d / "missing.json", "--output", out),
        "evaluate": ("evaluate", "--pairs", bad, "--predictions", bad, "--output", out),
    }[command]
    before = {p: p.is_dir() or p.read_bytes() for p in d.rglob("*")}
    assert run(*argv) == 2
    assert capsys.readouterr() == ("", f"error: {out}: {reason}\n")
    assert {p: p.is_dir() or p.read_bytes() for p in d.rglob("*")} == before


def test_a_manifest_path_that_is_a_directory_fails_before_training(micro, capsys):
    """train writes its manifest beside the model, so that path is checked as
    early as the model's: no model is left without its manifest."""
    d = micro["dir"]
    run("extract-paths", "--corpus", micro["corpus"], "--pairs", micro["pairs"],
        "--output", d / "index.tsv")
    (d / "m.manifest.json").mkdir()
    capsys.readouterr()
    assert run("train", "--task", "relations", "--pairs", micro["pairs"], "--index", d / "index.tsv",
               "--embeddings", micro["embeddings"], "--model", d / "m.json", "--epochs", "1") == 2
    assert capsys.readouterr() == ("", f"error: {d / 'm.manifest.json'}: Is a directory\n")
    assert not (d / "m.json").exists()


def test_malformed_data_exits_two(micro, capsys):
    bad = micro["dir"] / "bad.tsv"
    bad.write_text("only-one-column\n")
    code = run("extract-paths", "--corpus", micro["corpus"], "--pairs", bad,
               "--output", micro["dir"] / "index.tsv")
    assert code == 2
    capsys.readouterr()


@pytest.mark.parametrize("task, flag", [("relations", "--relatedness-model"),
                                        ("relatedness", "--relation-model")])
def test_header_only_model_exits_two(micro, capsys, task, flag):
    """Also where the task does not use the model."""
    d = micro["dir"]
    run("extract-paths", "--corpus", micro["corpus"], "--pairs", micro["pairs"],
        "--output", d / "index.tsv")
    run("tune", "--pairs", micro["pairs"], "--embeddings", micro["embeddings"],
        "--output", d / "combiner.json")
    run("train", "--task", "relations", "--pairs", micro["pairs"], "--index", d / "index.tsv",
        "--embeddings", micro["embeddings"], "--model", d / "relations.json", "--epochs", "1")
    (d / "header.json").write_text('{"format": "semrel-relation-model", "version": 1}')
    capsys.readouterr()
    models = {"--relation-model": d / "relations.json", flag: d / "header.json"}
    code = run("predict", "--task", task, "--pairs", micro["pairs"],
               "--index", d / "index.tsv", "--embeddings", micro["embeddings"],
               "--combiner", d / "combiner.json", *(a for item in models.items() for a in item),
               "--output", d / "pred.tsv")
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error:") and err.count("\n") == 1, err
    assert "edge_vocab" in err and "header.json" in err, err
    assert not (d / "pred.tsv").exists()


def test_truncated_model_names_its_file(micro, capsys):
    d = micro["dir"]
    run("extract-paths", "--corpus", micro["corpus"], "--pairs", micro["pairs"],
        "--output", d / "index.tsv")
    run("train", "--task", "relatedness", "--pairs", micro["pairs"], "--index", d / "index.tsv",
        "--embeddings", micro["embeddings"], "--model", d / "model.json", "--epochs", "1")
    (d / "cut.json").write_text((d / "model.json").read_text()[:50])
    capsys.readouterr()
    code = run("tune", "--pairs", micro["pairs"], "--index", d / "index.tsv",
               "--embeddings", micro["embeddings"], "--model", d / "cut.json",
               "--output", d / "combiner.json")
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith(f"error: {d / 'cut.json'}: invalid JSON") and err.count("\n") == 1, err
    assert not (d / "combiner.json").exists()


@pytest.mark.parametrize("reader", ["model", "combiner"])
def test_deeply_nested_json_exits_two_naming_its_file(micro, capsys, reader):
    d = _trained_models(micro)
    deep = d / "deep.json"
    deep.write_text("[" * 200_000, encoding="utf-8")
    data = ["--pairs", micro["pairs"], "--index", d / "index.tsv",
            "--embeddings", micro["embeddings"]]
    argv = {
        "model": ("tune", *data, "--model", deep, "--output", d / "out"),
        "combiner": ("predict", "--task", "relatedness", *data, "--combiner", deep,
                     "--output", d / "out"),
    }[reader]
    capsys.readouterr()
    code = run(*argv)
    assert (code, capsys.readouterr().err) == (
        2, f"error: {deep}: invalid JSON: nested too deeply\n")
    assert not (d / "out").exists()


def _trained_models(micro):
    """The index, a cosine-only combiner, and a relatedness and a relation
    model trained on the 4-dim micro table, all under micro["dir"]."""
    d = micro["dir"]
    data = ["--index", d / "index.tsv", "--embeddings", micro["embeddings"]]
    run("extract-paths", "--corpus", micro["corpus"], "--pairs", micro["pairs"],
        "--output", d / "index.tsv")
    run("tune", "--pairs", micro["pairs"], "--embeddings", micro["embeddings"],
        "--output", d / "combiner.json")
    run("train", "--task", "relatedness", "--pairs", micro["pairs"], *data,
        "--model", d / "rel.json", "--epochs", "1")
    run("train", "--task", "relations", "--pairs", micro["pairs"], *data,
        "--model", d / "four.json", "--epochs", "1")
    return d


@pytest.mark.parametrize("command,model", [
    ("predict", "rel.json"),  # a relatedness model as --relation-model
    ("tune", "four.json"),  # a relation model as the relatedness model
    ("predict-relatedness", "four.json"),  # a relation model as --relatedness-model
])
def test_model_of_the_wrong_kind_exits_two_naming_its_file(micro, capsys, command, model):
    d = _trained_models(micro)
    data = ["--pairs", micro["pairs"], "--index", d / "index.tsv",
            "--embeddings", micro["embeddings"]]
    argv = {
        "predict": ("predict", "--task", "relations", *data, "--combiner", d / "combiner.json",
                    "--relation-model", d / model, "--output", d / "out"),
        "tune": ("tune", *data, "--model", d / model, "--output", d / "out"),
        "predict-relatedness": ("predict", "--task", "relatedness", *data,
                                "--combiner", d / "combiner.json",
                                "--relatedness-model", d / model, "--output", d / "out"),
    }[command]
    capsys.readouterr()
    code = run(*argv)
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith(f"error: {d / model}: model has labels ") and err.count("\n") == 1, err
    assert not (d / "out").exists()


@pytest.mark.parametrize("command,model", [
    ("predict", "four.json"), ("predict", "rel.json"), ("tune", "rel.json")])
def test_model_of_another_width_than_the_table_exits_two_naming_its_file(
        micro, capsys, command, model):
    d = _trained_models(micro)
    narrow = d / "narrow.txt"
    narrow.write_text("".join(line.rsplit(" ", 1)[0] + "\n"
                              for line in EMBEDDINGS.splitlines()))
    data = ["--pairs", micro["pairs"], "--index", d / "index.tsv", "--embeddings", narrow]
    if command == "tune":
        argv = ("tune", *data, "--model", d / model, "--output", d / "out")
    else:
        flag = "--relation-model" if model == "four.json" else "--relatedness-model"
        argv = ("predict", "--task", "relations", *data, "--combiner", d / "combiner.json",
                "--relation-model", d / "four.json", flag, d / model, "--output", d / "out")
    capsys.readouterr()
    code = run(*argv)
    err = capsys.readouterr().err
    assert code == 2
    assert err == (f"error: {d / model}: model has 4-dim word vectors, "
                   f"but the embedding table has 3\n"), err
    assert not (d / "out").exists()


def test_out_of_range_combiner_names_its_file(micro, capsys):
    d = micro["dir"]
    run("extract-paths", "--corpus", micro["corpus"], "--pairs", micro["pairs"],
        "--output", d / "index.tsv")
    (d / "combiner.json").write_text(
        '{"format": "semrel-combiner", "version": 1, "w_C": 2.0, "w_L": 0.0, "t": 0.5}')
    capsys.readouterr()
    code = run("predict", "--task", "relatedness", "--pairs", micro["pairs"],
               "--index", d / "index.tsv", "--embeddings", micro["embeddings"],
               "--combiner", d / "combiner.json", "--output", d / "pred.tsv")
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith(f"error: {d / 'combiner.json'}: ") and err.count("\n") == 1, err


def test_non_finite_settings_exit_two(micro, capsys):
    d = micro["dir"]
    run("extract-paths", "--corpus", micro["corpus"], "--pairs", micro["pairs"],
        "--output", d / "index.tsv")
    run("tune", "--pairs", micro["pairs"], "--embeddings", micro["embeddings"],
        "--output", d / "combiner.json")
    run("train", "--task", "relations", "--pairs", micro["pairs"], "--index", d / "index.tsv",
        "--embeddings", micro["embeddings"], "--model", d / "relations.json", "--epochs", "1")
    for value in ("nan", "inf"):
        capsys.readouterr()
        code = run("predict", "--task", "relations", "--pairs", micro["pairs"],
                   "--index", d / "index.tsv", "--embeddings", micro["embeddings"],
                   "--combiner", d / "combiner.json", "--relation-model", d / "relations.json",
                   "--output", d / "pred.tsv", "--syn-margin", value)
        err = capsys.readouterr().err
        assert code == 2 and "syn_margin" in err and err.count("\n") == 1, err
        code = run("train", "--task", "relations", "--pairs", micro["pairs"],
                   "--index", d / "index.tsv", "--embeddings", micro["embeddings"],
                   "--model", d / "diverged.json", "--learning-rate", value)
        err = capsys.readouterr().err
        assert code == 2 and "learning_rate" in err and err.count("\n") == 1, err
    assert not (d / "pred.tsv").exists() and not (d / "diverged.json").exists()


def _corpus_with_bad_row(path, good_sentences):
    """Many good sentences, then a row with too few columns; returns its line number."""
    block = HYPER_SENT + "\n"
    path.write_text(block * good_sentences + "1\tcata\tcata\n")
    return block.count("\n") * good_sentences + 1


def test_malformed_corpus_row_after_many_sentences_exits_two(micro, capsys):
    d = micro["dir"]
    line = _corpus_with_bad_row(d / "bad.conll", 2000)
    out = d / "index.tsv"
    code = run("extract-paths", "--corpus", d / "bad.conll", "--pairs", micro["pairs"],
               "--output", out)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith("error:") and captured.err.count("\n") == 1, captured.err
    assert "bad.conll: expected at least 8" in captured.err and f"line {line}" in captured.err
    assert "Traceback" not in captured.err + captured.out
    assert not out.exists()


def test_pairs_error_is_reported_before_corpus_error(micro, capsys):
    d = micro["dir"]
    _corpus_with_bad_row(d / "bad.conll", 3)
    (d / "bad.tsv").write_text("only-one-column\n")
    code = run("extract-paths", "--corpus", d / "bad.conll", "--pairs", d / "bad.tsv",
               "--output", d / "index.tsv")
    err = capsys.readouterr().err
    assert code == 2
    assert "bad.tsv: expected at least 2 tab-separated columns at line 1" in err, err
    assert not (d / "index.tsv").exists()


def test_max_edges_below_one_is_rejected_before_the_corpus(micro, capsys):
    d = micro["dir"]
    (d / "lonely.tsv").write_text("pencil\tcloud\tRANDOM\n")  # never co-occurs
    code = run("extract-paths", "--corpus", micro["corpus"], "--pairs", d / "lonely.tsv",
               "--output", d / "index.tsv", "--max-edges", "0")
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error:") and "max_edges" in err and err.count("\n") == 1, err
    assert not (d / "index.tsv").exists()


@pytest.mark.parametrize("bad", ["pairs", "corpus", "table", "model", "combiner"])
def test_non_utf8_input_names_its_file(micro, capsys, bad):
    d = micro["dir"]
    data = ["--index", d / "index.tsv", "--embeddings", micro["embeddings"]]
    run("extract-paths", "--corpus", micro["corpus"], "--pairs", micro["pairs"],
        "--output", d / "index.tsv")
    run("train", "--task", "relatedness", "--pairs", micro["pairs"], *data,
        "--model", d / "model.json", "--epochs", "1")
    run("tune", "--pairs", micro["pairs"], *data, "--model", d / "model.json",
        "--output", d / "combiner.json")
    extract = ("extract-paths", "--corpus", micro["corpus"], "--pairs", micro["pairs"],
               "--output", d / "out")
    tune = ("tune", "--pairs", micro["pairs"], *data, "--model", d / "model.json",
            "--output", d / "out")
    commands = {
        "pairs": (micro["pairs"], extract),
        "corpus": (micro["corpus"], extract),
        "table": (micro["embeddings"], ("tune", "--pairs", micro["pairs"], "--embeddings",
                                        micro["embeddings"], "--output", d / "out")),
        "model": (d / "model.json", tune),
        "combiner": (d / "combiner.json", ("predict", "--task", "relatedness", "--pairs",
                                           micro["pairs"], *data, "--combiner", d / "combiner.json",
                                           "--relatedness-model", d / "model.json",
                                           "--output", d / "out")),
    }
    target, argv = commands[bad]
    target.write_bytes(target.read_bytes().replace(b"a", b"\xe9", 1))  # Latin-1 "é"
    capsys.readouterr()
    code = run(*argv)
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith(f"error: {target}: not UTF-8") and err.count("\n") == 1, err
    assert not (d / "out").exists()


def test_non_utf8_config_file_is_a_usage_error(micro, capsys):
    d = micro["dir"]
    cfg = d / "latin1.cfg"
    cfg.write_bytes(b"# caf\xe9\nepochs = 1\n")
    code = run("train", "--task", "relatedness", "--pairs", micro["pairs"],
               "--index", d / "index.tsv", "--embeddings", micro["embeddings"],
               "--model", d / "rel.json", "--config", cfg)
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith(f"usage error: cannot read config file {cfg}") and err.count("\n") == 1, err


def test_bad_labels_exit_two(micro, capsys):
    bad = micro["dir"] / "bad.tsv"
    bad.write_text("a\tb\tNOT_A_LABEL\n")
    run("extract-paths", "--corpus", micro["corpus"], "--pairs", micro["pairs"],
        "--output", micro["dir"] / "index.tsv")
    code = run("train", "--task", "relations", "--pairs", bad,
               "--index", micro["dir"] / "index.tsv", "--embeddings", micro["embeddings"],
               "--model", micro["dir"] / "m.json")
    assert code == 2
    assert "NOT_A_LABEL" in capsys.readouterr().err


def test_bad_relation_validation_labels_exit_two(micro, capsys):
    d = micro["dir"]
    run("extract-paths", "--corpus", micro["corpus"], "--pairs", micro["pairs"],
        "--output", d / "index.tsv")
    (d / "val.tsv").write_text(PAIRS_TSV.replace("HYPER", "HYPR"))
    capsys.readouterr()
    code = run("train", "--task", "relations", "--pairs", micro["pairs"], "--val", d / "val.tsv",
               "--index", d / "index.tsv", "--embeddings", micro["embeddings"],
               "--model", d / "four.json")
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err == f"error: {d / 'val.tsv'}: invalid labels in validation set: HYPR\n", captured.err
    assert "epoch" not in captured.out and not (d / "four.json").exists()


@pytest.mark.parametrize("text, message", [
    ("cata\tfeline\tHYPER\n", "validation set must contain both RELATED and UNRELATED pairs"),
    ("", "validation set is empty"),
])
def test_tune_names_its_pairs_file_on_a_dataset_fault(micro, capsys, text, message):
    d = micro["dir"]
    (d / "tune.tsv").write_text(text)
    code = run("tune", "--pairs", d / "tune.tsv", "--embeddings", micro["embeddings"],
               "--output", d / "combiner.json")
    assert code == 2
    assert capsys.readouterr().err == f"error: {d / 'tune.tsv'}: {message}\n"
    assert not (d / "combiner.json").exists()


def test_evaluate_alignment_checks(micro, capsys):
    d = micro["dir"]
    (d / "short.tsv").write_text("cata\tfeline\tHYPER\n")
    assert run("evaluate", "--pairs", micro["pairs"], "--predictions", d / "short.tsv") == 2
    (d / "misaligned.tsv").write_text(PAIRS_TSV.replace("wheel\tcart", "cart\twheel"))
    assert run("evaluate", "--pairs", micro["pairs"], "--predictions", d / "misaligned.tsv") == 2
    err = capsys.readouterr().err
    assert "pair 2" in err


@pytest.mark.parametrize("gold, pred, blamed, message", [
    ("a\tb\tHYPER\nc\td\tSYN\n", "a\tb\tHYPER\n", "pred.tsv",
     "gold file has 2 pairs but predictions file has 1"),
    ("a\tb\tHYPER\nc\td\tSYN\n", "a\tb\tHYPER\nc\te\tSYN\n", "pred.tsv",
     "pair 2 differs: gold (c, d) vs prediction (c, e)"),
    ("", "", "gold.tsv", "no pairs to score"),
    ("# only a comment\n", "a\tb\tHYPER\n", "gold.tsv", "no pairs to score"),
])
def test_evaluate_names_the_file_of_a_count_alignment_or_empty_fault(tmp_path, capsys, gold,
                                                                       pred, blamed, message):
    (tmp_path / "gold.tsv").write_text(gold)
    (tmp_path / "pred.tsv").write_text(pred)
    assert run("evaluate", "--pairs", tmp_path / "gold.tsv",
               "--predictions", tmp_path / "pred.tsv") == 2
    assert capsys.readouterr() == ("", f"error: {tmp_path / blamed}: {message}\n")


@pytest.mark.parametrize("labels, flags, names_gold, excluded", [
    (("RANDOM", "RANDOM"), (), True, "RANDOM"),
    (("HYPER", "SYN"), ("--exclude", "SYN", "--exclude", "HYPER"), False, "HYPER, SYN"),
])
def test_evaluate_names_the_labels_and_only_an_auto_excluded_gold_file_when_every_label_is_excluded(
        tmp_path, capsys, labels, flags, names_gold, excluded):
    """The gold file is at fault when auto-exclusion leaves it no label to
    score; when --exclude does it, the flags are, and no file is named."""
    gold, pred = labels
    (tmp_path / "gold.tsv").write_text(f"a\tb\t{gold}\n")
    (tmp_path / "pred.tsv").write_text(f"a\tb\t{pred}\n")
    assert run("evaluate", "--pairs", tmp_path / "gold.tsv",
               "--predictions", tmp_path / "pred.tsv", *flags) == 2
    prefix = f"{tmp_path / 'gold.tsv'}: " if names_gold else ""
    assert capsys.readouterr() == (
        "", f"error: {prefix}all labels were excluded from scoring: {excluded}\n")


def test_evaluate_refuses_an_exclude_label_outside_the_gold_and_model_labels(tmp_path, capsys):
    """A misspelled --exclude label would leave the label it meant in the
    rows and the average; like the all-excluded case, no file is named."""
    (tmp_path / "gold.tsv").write_text("a\tb\tHYPER\nc\td\tRANDOM\ne\tf\tSYN\n")
    (tmp_path / "pred.tsv").write_text("a\tb\tHYPER\nc\td\tSYN\ne\tf\tSYN\n")
    argv = ("evaluate", "--pairs", tmp_path / "gold.tsv", "--predictions", tmp_path / "pred.tsv")
    assert run(*argv, "--exclude", "RANDON") == 2
    assert capsys.readouterr() == ("", "error: invalid labels in --exclude: RANDON\n")
    assert run(*argv, "--exclude", "RANDOM") == 0
    assert capsys.readouterr().out.splitlines()[-1] == "weighted\t0.750000\t1.000000\t0.833333\t2"
    # A label of either model that the gold file lacks may be excluded too.
    assert run(*argv, "--exclude", "RANDOM", "--exclude", "UNRELATED") == 0


def test_evaluate_no_auto_exclude_keeps_the_negative_class_in_the_rows_and_the_average(
        tmp_path, capsys):
    (tmp_path / "gold.tsv").write_text("a\tb\tHYPER\nc\td\tRANDOM\n")
    (tmp_path / "pred.tsv").write_text("a\tb\tHYPER\nc\td\tHYPER\n")
    argv = ("evaluate", "--pairs", tmp_path / "gold.tsv", "--predictions", tmp_path / "pred.tsv")
    header = "label\tprecision\trecall\tf1\tsupport\n"
    hyper = "HYPER\t0.500000\t1.000000\t0.666667\t1\n"
    assert run(*argv) == 0
    assert capsys.readouterr().out == header + hyper + "weighted\t0.500000\t1.000000\t0.666667\t1\n"
    assert run(*argv, "--no-auto-exclude") == 0
    assert capsys.readouterr().out == (header + hyper + "RANDOM\t0.000000\t0.000000\t0.000000\t1\n"
                                       "weighted\t0.250000\t0.500000\t0.333333\t2\n")


@pytest.mark.parametrize("gold, excluded", [
    (("HYPER", "FALSE", "UNRELATED", "RANDOM"), "RANDOM"),
    (("HYPER", "FALSE", "UNRELATED"), "UNRELATED"),
    (("HYPER", "FALSE"), "FALSE"),
    (("HYPER",), None),
])
def test_evaluate_auto_excludes_the_first_negative_class_that_the_gold_file_holds(
        tmp_path, capsys, gold, excluded):
    """RANDOM is left out of scoring if the gold file holds it, else
    UNRELATED, else FALSE; only one of them, and none when it holds none."""
    (tmp_path / "gold.tsv").write_text("".join(f"w{i}\tv\t{g}\n" for i, g in enumerate(gold)))
    (tmp_path / "pred.tsv").write_text("".join(f"w{i}\tv\tHYPER\n" for i in range(len(gold))))
    assert run("evaluate", "--pairs", tmp_path / "gold.tsv",
               "--predictions", tmp_path / "pred.tsv") == 0
    rows = [line.split("\t")[0] for line in capsys.readouterr().out.splitlines()[1:-1]]
    assert rows == sorted(set(gold) - {excluded})


def test_evaluate_scores_relatedness_predictions_as_tune_does(micro, capsys):
    """Relatedness predictions are scored against the gold labels folded as
    train and tune fold them: the report's RELATED row is tune's F1."""
    d = micro["dir"]
    run("extract-paths", "--corpus", micro["corpus"], "--pairs", micro["pairs"],
        "--output", d / "index.tsv")
    assert run("tune", "--pairs", micro["pairs"], "--embeddings", micro["embeddings"],
               "--output", d / "combiner.json") == 0
    assert run("predict", "--task", "relatedness", "--pairs", micro["pairs"],
               "--index", d / "index.tsv", "--embeddings", micro["embeddings"],
               "--combiner", d / "combiner.json", "--output", d / "pred.tsv") == 0
    capsys.readouterr()
    assert run("evaluate", "--pairs", micro["pairs"], "--predictions", d / "pred.tsv") == 0
    rows = [line.split("\t") for line in capsys.readouterr().out.splitlines()]
    assert [row[0] for row in rows] == ["label", "RELATED", "weighted"]
    tuned = json.loads((d / "combiner.json").read_text())["validation_f1"]
    assert rows[1][3] == f"{tuned:.6f}" and rows[1][4] == "4"


def test_evaluate_rejects_predictions_that_mix_the_two_label_spaces(micro, capsys):
    d = micro["dir"]
    (d / "pred.tsv").write_text(PAIRS_TSV.replace("RANDOM", "UNRELATED"))
    assert run("evaluate", "--pairs", micro["pairs"], "--predictions", d / "pred.tsv") == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {d / 'pred.tsv'}: ") and err.count("\n") == 1, err


def test_evaluate_rejects_a_predicted_label_outside_the_gold_and_model_labels(tmp_path, capsys):
    (tmp_path / "gold.tsv").write_text("a\tb\tHYPER\nc\td\tSYN\n")
    (tmp_path / "pred.tsv").write_text("a\tb\tHYPR\nc\td\tSYN\n")
    assert run("evaluate", "--pairs", tmp_path / "gold.tsv",
               "--predictions", tmp_path / "pred.tsv") == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith(f"error: {tmp_path / 'pred.tsv'}: ") and err.count("\n") == 1, err
    assert "HYPR" in err
    # A label of either model that the gold file lacks is a wrong prediction, not a stray one.
    for first, second in (("PART_OF", "RANDOM"), ("RELATED", "UNRELATED")):
        (tmp_path / "pred.tsv").write_text(f"a\tb\t{first}\nc\td\t{second}\n")
        assert run("evaluate", "--pairs", tmp_path / "gold.tsv",
                   "--predictions", tmp_path / "pred.tsv") == 0


def test_evaluate_names_the_malformed_file(micro, capsys):
    d = micro["dir"]
    (d / "pred.tsv").write_text("cata\tfeline\tHYPER\nwheel\n")
    assert run("evaluate", "--pairs", micro["pairs"], "--predictions", d / "pred.tsv") == 2
    err = capsys.readouterr().err
    assert err == f"error: {d / 'pred.tsv'}: expected at least 2 tab-separated columns at line 2\n"


def test_help_exits_zero(capsys):
    assert run("--help") == 0
    assert run("train", "--help") == 0
    out = capsys.readouterr().out
    assert "extract-paths" in out


ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("command", ["train", "predict"])
def test_the_benchmark_tracer_finds_every_function_it_wraps(micro, tmp_path, command):
    """bench/tracing.py wraps package functions by name and reads their
    arguments; a traced command must still record the path encoder's spans
    and, in training, the gradient step's."""
    d = _trained_models(micro)
    data = ["--pairs", micro["pairs"], "--index", d / "index.tsv",
            "--embeddings", micro["embeddings"]]
    argv = {
        "train": ["train", "--task", "relations", *data, "--model", d / "traced.json",
                  "--epochs", "2"],
        "predict": ["predict", "--task", "relations", *data, "--combiner", d / "combiner.json",
                    "--relatedness-model", d / "rel.json", "--relation-model", d / "four.json",
                    "--output", d / "traced.tsv"],
    }[command]
    spans_file = tmp_path / "spans.json"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(ROOT / "src"), *filter(None, [os.environ.get("PYTHONPATH")])]))
    result = subprocess.run([sys.executable, str(ROOT / "bench" / "tracing.py"), str(spans_file),
                             *map(str, argv)], capture_output=True, text=True, env=env)
    assert result.returncode == 0, result.stderr
    doc = json.loads(spans_file.read_text())
    assert set(doc["missing"]) <= {"cli.main"}
    names = {span[0] for span in doc["spans"]}
    expected = {"path_encoder.average_paths_with_cache"}
    if command == "train":
        expected |= {"path_encoder.backprop_average", "relation_model.loss_and_gradients",
                     "relation_model.apply_gradients"}
    assert expected <= names
    encodes = [span[4] for span in doc["spans"] if span[0] == "path_encoder.average_paths_with_cache"]
    if command == "predict":
        assert all(counts["paths"] >= counts["new"] for counts in encodes)
        assert sum(counts["steps"] for counts in encodes) > 0


def test_trained_models_do_not_depend_on_the_openblas_thread_count(tmp_path):
    """Both train tasks write the same bytes with one OpenBLAS thread as with
    two, set by the user, on the vocab world of bench/world.py, seed 1, with
    the epochs that the benchmark trains there: its products are too small
    for OpenBLAS to split. (semrel's own default is one thread.)"""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(ROOT / "src"), *filter(None, [os.environ.get("PYTHONPATH")])]))
    world = tmp_path / "world"
    subprocess.run([sys.executable, str(ROOT / "bench" / "world.py"), "--workload", "vocab",
                    "--seed", "1", "--out", str(world)], check=True, env=env)
    index = tmp_path / "index.tsv"
    subprocess.run([sys.executable, "-m", "semrel", "extract-paths", "--corpus",
                    str(world / "corpus.conll"), "--pairs", str(world / "all_pairs.tsv"),
                    "--output", str(index)], check=True, env=env, stdout=subprocess.DEVNULL)
    default = {k: v for k, v in env.items() if k not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")}
    runs = {}
    for threads, run_env in (("one", dict(default, OPENBLAS_NUM_THREADS="1")),
                             ("two", dict(default, OPENBLAS_NUM_THREADS="2"))):
        for task, epochs in (("relatedness", "1"), ("relations", "2")):
            model = tmp_path / f"{task}-{threads}.json"
            runs[model] = subprocess.Popen(
                [sys.executable, "-m", "semrel", "train", "--task", task, "--pairs",
                 str(world / "train.tsv"), "--index", str(index), "--embeddings",
                 str(world / "embeddings.txt"), "--model", str(model), "--seed", "7",
                 "--epochs", epochs], env=run_env, stdout=subprocess.DEVNULL)
    assert [proc.wait() for proc in runs.values()] == [0] * 4
    for task in ("relatedness", "relations"):
        single, multi = (tmp_path / f"{task}-{t}.json" for t in ("one", "two"))
        assert single.read_bytes() == multi.read_bytes(), task


def test_equal_indexes_train_the_same_bytes(tmp_path):
    """An index that build_path_index builds, the same index loaded from its
    file, that file with its lines shuffled, and that file with one path's X
    spelled %58 compare equal, and each trains the same model bytes, through
    train and through semrel train, on the acceptance world of bench/world.py,
    seed 1: a pair's paths enter training in the order of their canonical
    text, whatever order they were added in and however the file spells them."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(ROOT / "src"), *filter(None, [os.environ.get("PYTHONPATH")])]))
    world = tmp_path / "world"
    subprocess.run([sys.executable, str(ROOT / "bench" / "world.py"), "--workload", "acceptance",
                    "--seed", "1", "--out", str(world)], check=True, env=env)
    pairs = [(r.x, r.y) for r in read_pairs(world / "all_pairs.tsv", require_label=False)]
    with open(world / "corpus.conll", encoding="utf-8") as fh:
        built = build_path_index(iter_conll(fh), pairs)
    index = tmp_path / "index.tsv"
    save_index(built, index)
    header, *rows = index.read_text(encoding="utf-8").splitlines(keepends=True)
    last = max(i for i, row in enumerate(rows) if row.startswith("ax000\tay000\tX/"))
    respelled_rows = rows.copy()
    respelled_rows[last] = rows[last].replace("\tX/", "\t%58/", 1)
    respelled = tmp_path / "respelled.tsv"
    respelled.write_text(header + "".join(respelled_rows), encoding="utf-8")
    random.Random(3).shuffle(rows)
    shuffled = tmp_path / "shuffled.tsv"
    shuffled.write_text(header + "".join(rows), encoding="utf-8")
    assert respelled.read_bytes() != index.read_bytes()
    indexes = [built, load_index(index), load_index(shuffled), load_index(respelled)]
    assert indexes[0] == indexes[1] == indexes[2] == indexes[3]
    records = [r for r in read_pairs(world / "train.tsv") if r.label != "RANDOM"]
    table = load_table(world / "embeddings.txt")
    config = replace(RELATIONS_PRESET, epochs=2, seed=7)
    models = []
    for built_or_loaded in indexes:
        buf = io.StringIO()
        save_model(train(records, [], config, built_or_loaded, table, label_set=RELATED_LABELS),
                   buf)
        models.append(buf.getvalue().encode("utf-8"))
    for source in (index, shuffled, respelled):
        model = tmp_path / f"{source.stem}.json"
        assert run("train", "--task", "relations", "--pairs", world / "train.tsv", "--index",
                   source, "--embeddings", world / "embeddings.txt", "--model", model,
                   "--epochs", 2, "--seed", 7) == 0
        models.append(model.read_bytes())
    assert models == [models[0]] * 7


def test_module_entry_point():
    result = subprocess.run([sys.executable, "-m", "semrel", "--help"],
                            capture_output=True, text=True)
    assert result.returncode == 0
    assert "semrel" in result.stdout


def test_extract_paths_never_runs_numpy(micro):
    """The package takes numpy lazily and extract-paths computes nothing with
    it, so numpy's code never runs: no numpy submodule, such as numpy._core,
    is loaded, although the modules that compute with numpy are."""
    script = ("import json, sys\nfrom semrel.cli import main\n"
              "assert main(sys.argv[1:]) == 0\nprint(json.dumps(sorted(sys.modules)))")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(ROOT / "src"), *filter(None, [os.environ.get("PYTHONPATH")])]))
    result = subprocess.run(
        [sys.executable, "-c", script, "extract-paths", "--corpus", str(micro["corpus"]),
         "--pairs", str(micro["pairs"]), "--output", str(micro["dir"] / "index.tsv")],
        capture_output=True, text=True, env=env)
    assert result.returncode == 0, result.stderr
    loaded = json.loads(result.stdout.splitlines()[-1])
    assert "numpy._core" not in loaded
    assert [name for name in loaded if name.startswith("numpy.")] == []
    assert {"semrel.relation_model", "semrel.path_encoder", "semrel.evaluation"} <= set(loaded)


def test_the_workflow_loads_every_module_that_the_package_ships(micro):
    """Each module under src/semrel but the entry point is one that the six
    workflow commands load, so the package holds only what the commands run.
    One process runs all six, so its modules are the union of theirs."""
    d = micro["dir"]
    data = ["--pairs", micro["pairs"], "--index", d / "index.tsv",
            "--embeddings", micro["embeddings"]]
    workflow = [
        ["extract-paths", "--corpus", micro["corpus"], "--pairs", micro["pairs"],
         "--output", d / "index.tsv"],
        ["train", "--task", "relatedness", *data, "--model", d / "rel.json", "--epochs", 2],
        ["tune", *data, "--model", d / "rel.json", "--output", d / "combiner.json"],
        ["train", "--task", "relations", *data, "--model", d / "four.json", "--epochs", 2],
        ["predict", "--task", "relations", *data, "--combiner", d / "combiner.json",
         "--relatedness-model", d / "rel.json", "--relation-model", d / "four.json",
         "--output", d / "pred.tsv"],
        ["evaluate", "--pairs", micro["pairs"], "--predictions", d / "pred.tsv"],
    ]
    script = ("import json, sys\nfrom semrel.cli import main\n"
              "for argv in json.loads(sys.argv[1]):\n    assert main(argv) == 0, argv\n"
              "print(json.dumps(sorted(sys.modules)))")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(ROOT / "src"), *filter(None, [os.environ.get("PYTHONPATH")])]))
    result = subprocess.run(
        [sys.executable, "-c", script, json.dumps([[str(a) for a in argv] for argv in workflow])],
        capture_output=True, text=True, env=env)
    assert result.returncode == 0, result.stderr
    loaded = set(json.loads(result.stdout.splitlines()[-1]))
    shipped = {"semrel" if p.stem == "__init__" else f"semrel.{p.stem}"
               for p in (ROOT / "src" / "semrel").glob("*.py") if p.stem != "__main__"}
    assert sorted(shipped - loaded) == []


def test_no_command_loads_numpy_random(micro):
    """semrel draws numpy's seeded stream itself, so no command, word dropout
    included, loads numpy.random, whose import costs about 6 MB."""
    d = micro["dir"]
    data = ["--pairs", micro["pairs"], "--index", d / "index.tsv",
            "--embeddings", micro["embeddings"]]
    dropout = ["--epochs", 2, "--word-dropout", 0.3]
    workflow = [
        ["extract-paths", "--corpus", micro["corpus"], "--pairs", micro["pairs"],
         "--output", d / "index.tsv"],
        ["train", "--task", "relatedness", *data, "--model", d / "rel.json", *dropout],
        ["tune", *data, "--model", d / "rel.json", "--output", d / "combiner.json"],
        ["train", "--task", "relations", *data, "--model", d / "four.json", *dropout],
        ["predict", "--task", "relations", *data, "--combiner", d / "combiner.json",
         "--relatedness-model", d / "rel.json", "--relation-model", d / "four.json",
         "--output", d / "pred.tsv"],
        ["evaluate", "--pairs", micro["pairs"], "--predictions", d / "pred.tsv"],
    ]
    script = ("import json, sys\nfrom semrel.cli import main\n"
              "for argv in json.loads(sys.argv[1]):\n    assert main(argv) == 0, argv\n"
              "print(json.dumps(sorted(sys.modules)))")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(ROOT / "src"), *filter(None, [os.environ.get("PYTHONPATH")])]))
    result = subprocess.run(
        [sys.executable, "-c", script, json.dumps([[str(a) for a in argv] for argv in workflow])],
        capture_output=True, text=True, env=env)
    assert result.returncode == 0, result.stderr
    loaded = json.loads(result.stdout.splitlines()[-1])
    assert "numpy._core" in loaded
    assert [name for name in loaded if name.split(".")[:2] == ["numpy", "random"]] == []


BLAS_THREADS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _dense_world(d):
    """One pair with 100 distinct five-step paths: a weight gradient sums
    over 500 path steps, enough for a BLAS library to split the sum between
    threads."""
    (d / "pairs.tsv").write_text("cat\tanimal\tHYPER\n")
    (d / "embeddings.txt").write_text("cat 0.1 0.2 0.3\nanimal -0.2 0.1 0.05\n")
    lines = ["# semrel path index v1\n"]
    for k in range(100):
        a, b, c = k // 20, k // 4 % 5, k % 4
        steps = ["X/NOUN/nsubj/<", f"m{a}/VERB/dep{b}/<", f"n{c}/VERB/root/^",
                 f"p{a}/ADP/obl/>", "Y/NOUN/dobj/>"]
        lines.append(f"cat\tanimal\t{'::'.join(steps)}\t{1 + k % 3}\n")
    (d / "index.tsv").write_text("".join(lines))


# The CPUs this process may run on; a child is given the first one or two.
CPUS = sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else []


@pytest.mark.skipif(len(CPUS) < 2, reason="needs two CPUs")
def test_a_models_bytes_do_not_depend_on_the_cpu_count(tmp_path):
    """Trained on one CPU and on two, with no thread count set by the user,
    the model has the same bytes: BLAS runs one thread by default. (A BLAS
    library's own default is a thread per CPU, and the two-thread sum of a
    weight gradient here differs in its last bits.)"""
    _dense_world(tmp_path)
    env = {k: v for k, v in os.environ.items() if k not in BLAS_THREADS}
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), *filter(None, [os.environ.get("PYTHONPATH")])])
    models = []
    for n in (1, 2):
        model = tmp_path / f"model-{n}.json"
        result = subprocess.run(
            [sys.executable, "-m", "semrel", "train", "--task", "relations",
             "--pairs", tmp_path / "pairs.tsv", "--index", tmp_path / "index.tsv",
             "--embeddings", tmp_path / "embeddings.txt", "--model", model,
             "--epochs", "2", "--seed", "3"],
            capture_output=True, text=True, env=env,
            preexec_fn=lambda n=n: os.sched_setaffinity(0, CPUS[:n]))
        assert result.returncode == 0, result.stderr
        models.append(model.read_bytes())
    assert models[0] == models[1]


def test_a_thread_count_the_user_set_is_kept():
    """Importing semrel sets each BLAS thread count to 1 only where the
    environment has none, so a user's own setting decides."""
    env = {k: v for k, v in os.environ.items() if k not in BLAS_THREADS}
    env.update(PYTHONPATH=str(ROOT / "src"), OMP_NUM_THREADS="2")
    script = "import os, sys, semrel\nprint(*(os.environ[name] for name in sys.argv[1:]))"
    result = subprocess.run([sys.executable, "-c", script, *BLAS_THREADS],
                            capture_output=True, text=True, env=env)
    assert result.returncode == 0, result.stderr
    assert result.stdout.split() == ["1", "2", "1"]
