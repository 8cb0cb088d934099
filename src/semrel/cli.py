"""Command-line interface.

Subcommands cover the full workflow: ``extract-paths`` builds a path index
from a parsed corpus, ``train`` fits a relatedness or relation classifier,
``tune`` grid-searches the score combiner, ``predict`` labels pairs, and
``evaluate`` scores predictions against gold labels.

Exit codes: 0 on success, 1 for usage problems (bad flags, bad --config
entries, missing or conflicting combinations), 2 for data problems
(unreadable or malformed files, inconsistent datasets, invalid
hyperparameter values, sizes too large for memory).
"""

from __future__ import annotations

import argparse
import errno
import os
import sys
from contextlib import nullcontext
from dataclasses import asdict, fields, replace
from pathlib import Path

from ._io import excerpt, naming, open_lines, write_document, write_pieces
from .corpus import DEFAULT_MAX_EDGES, build_path_index, iter_conll, load_index, save_index
from .embeddings import load_table
from .errors import DataError, ParseError
from .evaluation import AVERAGES, report_tsv, scores
from .pairs import (
    NEGATIVE_LABEL,
    NEGATIVE_LABELS,
    RELATED,
    RELATED_LABELS,
    RELATEDNESS_LABELS,
    RELATION_LABELS,
    TO_RELATEDNESS,
    UNRELATED,
    PairRecord,
    check_labels,
    read_labelled,
    read_pairs,
    write_pairs,
)
from .pipeline import PATH_COUNT_MODES, PipelineConfig, predict_pairs
from .relatedness import load_combiner, predict_related, save_combiner, tune_combiner
from .relation_model import (
    RELATEDNESS_PRESET,
    RELATIONS_PRESET,
    ModelParams,
    TrainConfig,
    load_model,
    save_model,
    train,
)
from .path_encoder import AVERAGE_MODES

MANIFEST_FORMAT = "semrel-train-manifest"
MANIFEST_VERSION = 1

# What sets the two tasks apart in training: how a pair's label folds, the
# model's label set, and the preset. A pair whose folded label the model
# lacks (RANDOM, for relations) is read and checked but not trained on.
_TASKS = {
    "relatedness": (TO_RELATEDNESS, RELATEDNESS_LABELS, RELATEDNESS_PRESET),
    "relations": ({label: label for label in RELATION_LABELS}, RELATED_LABELS, RELATIONS_PRESET),
}


# A typed option's type, as a config file's error names it.
_TYPE_NAMES = {int: "an integer", float: "a number"}


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """ArgumentParser that reports usage problems as exceptions, not exits."""

    def error(self, message):
        raise _UsageError(message)


def build_parser() -> tuple[_Parser, dict[str, _Parser]]:
    parser = _Parser(prog="semrel", description="Semantic relation classification.")
    commands = parser.add_subparsers(dest="command", metavar="COMMAND")

    sub = commands.add_parser("extract-paths", help="build a dependency-path index for word pairs")
    sub.add_argument("--corpus", required=True, help="parsed corpus in tab-separated CoNLL layout")
    sub.add_argument("--pairs", required=True, help="TSV word pairs (labels optional)")
    sub.add_argument("--output", required=True, help="path index file to write")
    sub.add_argument("--max-edges", type=int, default=DEFAULT_MAX_EDGES,
                     help="longest tree path to keep, in edges (default %(default)s)")
    sub.set_defaults(handler=_cmd_extract_paths)

    sub = commands.add_parser("train", help="train a relatedness or relation classifier")
    sub.add_argument("--task", required=True, choices=tuple(_TASKS))
    sub.add_argument("--pairs", required=True, help="labelled training pairs (TSV)")
    sub.add_argument("--index", required=True, help="path index from extract-paths")
    sub.add_argument("--embeddings", required=True, help="word vector table (text format)")
    sub.add_argument("--model", required=True, help="model file to write")
    sub.add_argument("--val", help="optional labelled pairs, scored after each epoch")
    sub.add_argument("--epochs", type=int)
    sub.add_argument("--learning-rate", type=float)
    sub.add_argument("--seed", type=int)
    sub.add_argument("--hidden-layers", type=int, choices=(0, 1))
    sub.add_argument("--word-dropout", type=float, dest="word_dropout_rate",
                     help="probability of replacing a path lemma by the unknown row")
    sub.add_argument("--hidden-dim", type=int)
    sub.add_argument("--mlp-hidden-dim", type=int)
    sub.add_argument("--path-average", choices=AVERAGE_MODES)
    sub.add_argument("--train-word-vectors", action="store_true", default=None)
    sub.add_argument("--config", help="file of key=value lines overriding the task preset")
    sub.set_defaults(handler=_cmd_train)

    sub = commands.add_parser("tune", help="grid-search the relatedness combiner on labelled pairs")
    sub.add_argument("--pairs", required=True, help="labelled validation pairs (TSV)")
    sub.add_argument("--index", help="path index (given with --model)")
    sub.add_argument("--embeddings", required=True)
    sub.add_argument("--model", help="relatedness model; without it, a cosine threshold is tuned")
    sub.add_argument("--output", required=True, help="combiner file to write")
    sub.set_defaults(handler=_cmd_tune)

    sub = commands.add_parser("predict", help="label pairs with a trained model")
    sub.add_argument("--task", required=True, choices=tuple(_TASKS))
    sub.add_argument("--pairs", required=True, help="pairs to label (third column ignored)")
    sub.add_argument("--index", required=True)
    sub.add_argument("--embeddings", required=True)
    sub.add_argument("--combiner", required=True, help="combiner file from tune")
    sub.add_argument("--relatedness-model", help="needed whenever the combiner has w_L > 0")
    sub.add_argument("--relation-model", help="four-class model (required for --task relations)")
    sub.add_argument("--output", required=True, help="TSV predictions to write")
    sub.add_argument("--syn-margin", type=float, default=PipelineConfig.syn_margin)
    sub.add_argument("--syn-max-paths", type=int, default=PipelineConfig.syn_max_paths)
    sub.add_argument("--path-count", choices=PATH_COUNT_MODES, default=PipelineConfig.path_count_mode)
    sub.add_argument("--config", help="file of key=value lines overriding defaults")
    sub.set_defaults(handler=_cmd_predict)

    sub = commands.add_parser("evaluate", help="score predictions against gold labels")
    sub.add_argument("--pairs", required=True, help="gold-labelled pairs (TSV)")
    sub.add_argument("--predictions", required=True, help="predictions from predict")
    sub.add_argument("--output", help="optional report file (TSV)")
    sub.add_argument("--average", choices=AVERAGES, default=AVERAGES[0])
    sub.add_argument("--exclude", action="append", default=None, metavar="LABEL",
                     help="drop a label from scoring (repeatable; default: the negative class)")
    sub.add_argument("--no-auto-exclude", action="store_true",
                     help="score every label, including the negative class")
    sub.set_defaults(handler=_cmd_evaluate)

    return parser, commands.choices


def _config_flags(sub: _Parser, path: str) -> list[str]:
    """The flags that the ``key = value`` lines of a config file stand for.

    A key is a long option of ``sub`` without its dashes, with ``_`` read as
    ``-``; the line becomes ``--key=value``, once the value passes the
    option's type and choice checks. A switch takes true/false, 1/0 or
    yes/no and becomes its flag or nothing. An error names the file and the
    line.
    """
    try:
        with open_lines(path) as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise _UsageError(f"cannot read config file: {exc}") from None
    except ParseError:  # open_lines' error for text that is not UTF-8
        raise _UsageError(f"cannot read config file {path}: not UTF-8 text") from None

    def bad(problem):
        return _UsageError(f"{path}: {problem} at line {line_no}")

    flags = []
    for line_no, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise bad(f"expected key=value, got {excerpt(line)!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        flag = "--" + key.replace("_", "-")
        action = sub._option_string_actions.get(flag)
        if action is None or flag in ("--config", "--help"):
            raise bad(f"unknown setting {excerpt(key)!r}")
        if action.nargs != 0:
            if not _takes(action, value):
                expected = ("one of " + ", ".join(map(str, action.choices)) if action.choices
                            else _TYPE_NAMES[action.type])
                raise bad(f"{key!r} expects {expected}, got {excerpt(value)!r}")
            flags.append(f"{flag}={value}")
        elif value.lower() in ("true", "1", "yes"):
            flags.append(flag)
        elif value.lower() not in ("false", "0", "no"):
            raise bad(f"{key!r} expects true or false")
    return flags


def _takes(action: argparse.Action, value: str) -> bool:
    """Whether the parser takes ``value`` for ``action``: its type converts
    it, to one of its choices if it has them."""
    try:
        converted = value if action.type is None else action.type(value)
    except ValueError:
        return False
    return action.choices is None or converted in action.choices


def _check_output(path: str | Path | None) -> None:
    """Raise, before any input is read, the OSError that writing ``path``
    would raise for want of its directory or because ``path`` is a
    directory; nothing is created or opened."""
    if path is None:
        return
    if path == "":  # as open("") fails; os.stat would take "" for the current directory
        raise FileNotFoundError(errno.ENOENT, os.strerror(errno.ENOENT), path)
    if os.path.isdir(path):
        raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), path)
    try:  # with a trailing separator, a file fails as "Not a directory"
        os.stat(os.path.join(os.path.dirname(path) or ".", ""))
    except OSError as exc:
        raise OSError(exc.errno, exc.strerror, path) from None


def _pair_words(records) -> set[str]:
    """The x and y words of the records: the table rows that scoring looks up."""
    return {word for r in records for word in (r.x, r.y)}


def _cmd_extract_paths(args) -> int:
    _check_output(args.output)
    records = read_pairs(args.pairs, require_label=False)
    n_sentences = 0

    def counted(sentences):
        nonlocal n_sentences
        for sentence in sentences:
            n_sentences += 1
            yield sentence

    with open_lines(args.corpus) as fh:
        index = build_path_index(counted(iter_conll(fh)), [(r.x, r.y) for r in records],
                                 args.max_edges)
    save_index(index, args.output)
    with_paths = sum(1 for r in records if index.get(r.x, r.y))  # a repeated pair counts each time
    print(f"indexed {n_sentences} sentences; paths found for {with_paths} of {len(records)} pairs")
    return 0


def _resolved_config(args, preset):
    """``preset`` with every TrainConfig field that a flag of the same dest gave."""
    given = {f.name: getattr(args, f.name, None) for f in fields(TrainConfig)}
    return replace(preset, **{k: v for k, v in given.items() if v is not None})


def _load_model_for(path: str, label_set: tuple[str, ...], table) -> ModelParams:
    """The model at ``path``, checked against its role's label set and the
    table's width; a mismatch is a DataError that starts with the path."""
    params = load_model(path)
    if params.label_set != label_set:
        raise DataError(f"{path}: model has labels {excerpt(', '.join(params.label_set))}, "
                        f"expected {', '.join(label_set)}")
    if params.word_dim != table.dimension:
        raise DataError(f"{path}: model has {params.word_dim}-dim word vectors, "
                        f"but the embedding table has {table.dimension}")
    return params


def _print_validation_accuracy(epoch: int, accuracy: float) -> None:
    print(f"epoch {epoch}: validation accuracy {accuracy:.3f}")


def _cmd_train(args) -> int:
    _check_output(args.model)
    manifest_path = Path(args.model).with_suffix(".manifest.json")
    _check_output(manifest_path)
    folding, label_set, preset = _TASKS[args.task]
    config = _resolved_config(args, preset)
    read = read_labelled(args.pairs, folding, "training set")
    read_val = read_labelled(args.val, folding, "validation set") if args.val is not None else []
    records, val = ([r for r in rs if r.label in label_set] for rs in (read, read_val))
    dropped = len(read) - len(records)
    if dropped:
        print(f"dropped {dropped} {NEGATIVE_LABEL} pairs; the relation model trains on related pairs only")
    if len(val) < len(read_val):
        print(f"dropped {len(read_val) - len(val)} {NEGATIVE_LABEL} pairs from the validation set")
    if not records:
        raise DataError(f"{args.pairs}: no pairs left to train on")
    index = load_index(args.index)
    # Training looks up the pair words and seeds the lemma rows of the
    # training pairs' paths from the table by exact token.
    lemmas = {edge.lemma for r in records for path in index.get(r.x, r.y) for edge in path.edges}
    table = load_table(args.embeddings, _pair_words(records + val) | lemmas)
    params = train(records, val, config, index, table, label_set=label_set,
                   on_epoch=_print_validation_accuracy)
    save_model(params, args.model)
    manifest = {
        "format": MANIFEST_FORMAT,
        "version": MANIFEST_VERSION,
        "task": args.task,
        "label_set": list(label_set),
        "config": asdict(config),
        "n_train": len(records),
        "n_val": len(val),
        "dropped_negative": dropped,
    }
    write_document(manifest_path, manifest)
    print(f"trained {args.task} model on {len(records)} pairs "
          f"({config.epochs} epochs, seed {config.seed}) -> {args.model}")
    return 0


def _cmd_tune(args) -> int:
    if (args.model is None) != (args.index is None):
        raise _UsageError("--model and --index go together: give both or neither")
    _check_output(args.output)
    records = read_labelled(args.pairs, TO_RELATEDNESS, "tuning set")
    table = load_table(args.embeddings, _pair_words(records))
    params = index = None
    if args.model is not None:
        index = load_index(args.index)
        params = _load_model_for(args.model, RELATEDNESS_LABELS, table)
    with naming(args.pairs):  # the tuning set may be empty or lack a class
        config, f1 = tune_combiner(records, table, params, index)
    save_combiner(config, args.output, validation_f1=f1)
    print(f"w_C={config.w_c:.2f} w_L={config.w_l:.2f} t={config.t:.2f} (tuning F1 {f1:.3f})")
    return 0


def _cmd_predict(args) -> int:
    if args.task == "relations" and args.relation_model is None:
        raise _UsageError("--task relations requires --relation-model")
    _check_output(args.output)
    combiner = load_combiner(args.combiner)
    if combiner.w_l != 0.0 and args.relatedness_model is None:
        raise _UsageError("this combiner has w_L > 0; pass --relatedness-model")
    config = PipelineConfig(combiner, syn_margin=args.syn_margin, syn_max_paths=args.syn_max_paths,
                            path_count_mode=args.path_count)
    records = read_pairs(args.pairs, require_label=False)
    table = load_table(args.embeddings, _pair_words(records))
    index = load_index(args.index)
    relatedness_params = (None if args.relatedness_model is None
                          else _load_model_for(args.relatedness_model, RELATEDNESS_LABELS, table))
    relation_params = (None if args.relation_model is None
                       else _load_model_for(args.relation_model, RELATED_LABELS, table))
    if args.task == "relatedness":
        related = predict_related(combiner, table, [(r.x, r.y) for r in records],
                                  relatedness_params, index)
        labels = [RELATED if flag else UNRELATED for flag in related]
    else:
        labels = predict_pairs(config, relation_params, table, index, records, relatedness_params)
    write_pairs(
        [PairRecord(r.x, r.y, label) for r, label in zip(records, labels)], args.output
    )
    print(f"wrote {len(records)} predictions -> {args.output}")
    return 0


def _cmd_evaluate(args) -> int:
    if args.exclude and args.no_auto_exclude:
        raise _UsageError("--exclude and --no-auto-exclude conflict: give one or neither")
    _check_output(args.output)
    pred = read_pairs(args.predictions)
    relatedness = {r.label in RELATEDNESS_LABELS for r in pred}
    if relatedness == {True, False}:
        raise DataError(f"{args.predictions}: predictions mix RELATED/UNRELATED with other labels")
    # Relatedness predictions are scored against gold labels folded as train and tune fold them.
    gold = (read_labelled(args.pairs, TO_RELATEDNESS, "gold set") if relatedness == {True}
            else read_pairs(args.pairs))
    if not gold:
        raise DataError(f"{args.pairs}: no pairs to score")
    gold_labels = {r.label for r in gold}
    # Either model's labels may be predicted, or excluded, where the gold file lacks them; any
    # other label would be scored as a class that nothing belongs to, or excluded to no effect.
    labels = gold_labels.union(RELATION_LABELS, RELATEDNESS_LABELS)
    with naming(args.predictions):
        if len(gold) != len(pred):
            raise DataError(f"gold file has {len(gold)} pairs but predictions file has {len(pred)}")
        for position, (g, p) in enumerate(zip(gold, pred), start=1):
            if (g.x, g.y) != (p.x, p.y):
                raise DataError(f"pair {position} differs: gold ({excerpt(g.x)}, {excerpt(g.y)}) "
                                f"vs prediction ({excerpt(p.x)}, {excerpt(p.y)})")
        check_labels((r.label for r in pred), labels, "predictions")
    if args.exclude:
        exclude = tuple(args.exclude)
        check_labels(exclude, labels, "--exclude")
    elif args.no_auto_exclude:
        exclude = ()
    else:  # the first negative class that the gold file holds
        exclude = next(((label,) for label in NEGATIVE_LABELS if label in gold_labels), ())
    with nullcontext() if args.exclude else naming(args.pairs):  # --exclude is no file's fault
        report = scores([r.label for r in gold], [r.label for r in pred], average=args.average,
                        exclude=exclude)
    text = report_tsv(report)
    print(text, end="")
    if args.output is not None:
        write_pieces(args.output, [text])
    return 0


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    parser, commands = build_parser()
    try:
        args = parser.parse_args(argv)
        if getattr(args, "command", None) is None:
            raise _UsageError("a command is required (see --help)")
        if getattr(args, "config", None) is not None:
            flags = _config_flags(commands[args.command], args.config)
            args = parser.parse_args([args.command, *flags, *argv[1:]])
        return args.handler(args)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except SystemExit as exc:  # --help and friends
        return exc.code if isinstance(exc.code, int) else 0
    except (OSError, ValueError, MemoryError) as exc:  # numpy's MemoryError names the array
        named = isinstance(exc, OSError) and exc.filename is not None
        message = f"{exc.filename}: {exc.strerror}" if named else exc
        print(f"error: {message}", file=sys.stderr)
        return 2


def console_main() -> None:
    raise SystemExit(main())
