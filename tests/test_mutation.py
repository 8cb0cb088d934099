"""A seeded mutation test of the promise that a malformed input never ends a
command with a traceback: the command exits 0, or 2 (1 for a config file)
with one line on stderr that names the file at fault, and it leaves no
output file behind.

A micro world from ``synthcorpus`` is run through the six commands once.
Then each mutation changes one file that a command opens, and that command
runs in-process on the mutated file in place of the good one.
"""

import io
import json
import random
import re
from contextlib import redirect_stderr, redirect_stdout

import pytest

from semrel.cli import main
from semrel.evaluation import lexical_split
from semrel.pairs import write_pairs
from synthcorpus import generate_world

N_MUTATIONS = 200
SEED = 26

# Data errors that name no file, or another file than the one at fault, by
# design, each with why.
NAMES_NO_FILE = [
    r"^error: training diverged: ",  # the loss of a run, not a line of a file
    r"^error: \w+ must be ",  # a setting, from the command line or a config file
    # evaluate blames the predictions for a count or a pair that differs from the gold file's
    r": gold file has \d+ pairs but predictions file has \d+$",
    r": pair \d+ differs: ",
]

# Replacements for one field of a text line, and for one leaf of a JSON document.
FIELDS = ["nan", "1e999", "%zz", "", "x" * 500]
LEAVES = ["NaN", "1e999", '"%zz"', '""', json.dumps("x" * 500), "null", "true", "7", "1.5",
          "[]", "{}"]
# Characters to plant, as text, and bytes that are not UTF-8.
CHARACTERS = ["\x00", "\r", "\x85", "\u2028", "\ufeff"]
NOT_UTF8 = [b"\xff", b"\xc3", b"\xed\xa0\x80"]


def _micro_world(d):
    """The synthetic world cut to 90 pairs and 400 sentences, 24-dim vectors
    of the pair words only, and a config file for train and for predict."""
    world = generate_world(seed=5, n_sentences=0)
    rng = random.Random(SEED)
    by_label = {}
    for record in world.pairs:
        by_label.setdefault(record.label, []).append(record)
    pairs = [r for label, records in sorted(by_label.items())
             for r in rng.sample(records, 30 if label == "RANDOM" else 15)]
    words = {w for r in pairs for w in (r.x, r.y)}
    sentences = world.conll.rstrip("\n").split("\n\n")
    mentions = [s for s in sentences if words & {row.split("\t")[2] for row in s.split("\n")}]
    others = [s for s in sentences if s not in mentions]
    kept = (mentions + rng.sample(others, max(0, 400 - len(mentions))))[:400]
    (d / "corpus.conll").write_text("\n\n".join(kept) + "\n")
    (d / "embeddings.txt").write_text("".join(
        line + "\n" for line in world.embeddings.splitlines() if line.split(" ")[0] in words))
    train, val = lexical_split(pairs, 0.3, seed=SEED)
    write_pairs(pairs, d / "all.tsv")
    write_pairs(train, d / "train.tsv")
    write_pairs(val, d / "val.tsv")
    (d / "train.cfg").write_text("# training settings\nepochs = 1\nhidden-dim = 4\n"
                                 "learning-rate = 0.05\nseed = 3\n")
    (d / "predict.cfg").write_text("syn-margin = 0.2\nsyn-max-paths = 3\npath-count = total\n")


def _commands(f, out):
    """The argv of each command, with ``f`` naming each input file by role."""
    data = ["--index", f["index"], "--embeddings", f["embeddings"]]
    return {
        "extract-paths": ["extract-paths", "--corpus", f["corpus"], "--pairs", f["pairs"],
                          "--output", out],
        "train": ["train", "--task", "relations", "--pairs", f["train"], *data, "--val",
                  f["val"], "--config", f["train_config"], "--model", out, "--epochs", "1",
                  "--hidden-dim", "4"],
        "tune": ["tune", "--pairs", f["train"], *data, "--model", f["relatedness"],
                 "--output", out],
        "predict": ["predict", "--task", "relations", "--pairs", f["val"], *data,
                    "--combiner", f["combiner"], "--relatedness-model", f["relatedness"],
                    "--relation-model", f["relations"], "--config", f["predict_config"],
                    "--output", out],
        "evaluate": ["evaluate", "--pairs", f["val"], "--predictions", f["predictions"],
                     "--output", out],
    }


# Each command and the roles of the files it opens.
TARGETS = {
    "extract-paths": ["corpus", "pairs"],
    "train": ["train", "index", "embeddings", "val", "train_config"],
    "tune": ["train", "index", "embeddings", "relatedness"],
    "predict": ["val", "index", "embeddings", "combiner", "relatedness", "relations",
                "predict_config"],
    "evaluate": ["val", "predictions"],
}
JSON_ROLES = {"relatedness", "relations", "combiner"}
CONFIG_ROLES = {"train_config", "predict_config"}


def _run(argv):
    err = io.StringIO()
    with redirect_stderr(err), redirect_stdout(io.StringIO()):
        code = main([str(a) for a in argv])
    return code, err.getvalue()


@pytest.fixture(scope="module")
def world(tmp_path_factory):
    d = tmp_path_factory.mktemp("mutation")
    _micro_world(d)
    files = {"corpus": d / "corpus.conll", "pairs": d / "all.tsv", "train": d / "train.tsv",
             "val": d / "val.tsv", "embeddings": d / "embeddings.txt",
             "train_config": d / "train.cfg", "predict_config": d / "predict.cfg",
             "index": d / "index.tsv", "relatedness": d / "relatedness.json",
             "relations": d / "relations.json", "combiner": d / "combiner.json",
             "predictions": d / "pred.tsv"}
    data = ["--index", files["index"], "--embeddings", files["embeddings"]]
    steps = [
        _commands(files, files["index"])["extract-paths"],
        ["train", "--task", "relatedness", "--pairs", files["train"], *data,
         "--model", files["relatedness"], "--epochs", "1", "--hidden-dim", "4"],
        _commands(files, files["combiner"])["tune"],
        _commands(files, files["relations"])["train"],
        _commands(files, files["predictions"])["predict"],
        _commands(files, d / "report.tsv")["evaluate"],
    ]
    for argv in steps:
        assert _run(argv) == (0, ""), argv
    return d, files


def _lines(data: bytes) -> list[bytes]:
    return data.splitlines(keepends=True)


def _mutate_lines(rng, data):
    lines = _lines(data)
    i, j = rng.randrange(len(lines)), rng.randrange(len(lines))
    how = rng.choice(["drop", "duplicate", "swap"])
    if how == "drop":
        del lines[i]
    elif how == "duplicate":
        lines.insert(j, lines[i])
    else:
        lines[i], lines[j] = lines[j], lines[i]
    return b"".join(lines), f"{how} line {i + 1}"


def _mutate_field(rng, data, role):
    lines = _lines(data)
    i = rng.randrange(len(lines))
    line = lines[i].decode("utf-8")
    body = line.rstrip("\r\n")
    sep = " " if role == "embeddings" else "=" if role in CONFIG_ROLES else "\t"
    fields = body.split(sep)
    k = rng.randrange(len(fields))
    fields[k] = rng.choice(FIELDS)
    lines[i] = (sep.join(fields) + line[len(body):]).encode("utf-8")
    return b"".join(lines), f"field {k + 1} of line {i + 1} := {fields[k][:10]!r}"


def _member_paths(value, path=()):
    """The key path of every member of every container in ``value``."""
    items = (value.items() if isinstance(value, dict)
             else enumerate(value) if isinstance(value, list) else ())
    for key, item in items:
        yield path + (key,)
        yield from _member_paths(item, path + (key,))


def _mutate_json(rng, data):
    doc = json.loads(data)
    path = rng.choice(list(_member_paths(doc)))
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    if rng.random() < 0.25:
        del parent[path[-1]]
        return json.dumps(doc).encode("utf-8") + b"\n", f"delete {path}"
    sentinel = "\x00sentinel\x00"
    parent[path[-1]] = sentinel
    leaf = rng.choice(LEAVES)
    text = json.dumps(doc).replace(json.dumps(sentinel), leaf)
    return text.encode("utf-8") + b"\n", f"{path} := {leaf[:10]}"


def _mutate_bytes(rng, data):
    at = rng.randrange(len(data) + 1)
    if rng.random() < 0.5:
        planted = rng.choice(CHARACTERS).encode("utf-8")
    else:
        planted = rng.choice(NOT_UTF8)
    return data[:at] + planted + data[at:], f"plant {planted!r} at byte {at}"


def mutate(rng, data: bytes, role: str) -> tuple[bytes, str]:
    """``data`` with one seeded fault, and a description of it."""
    how = rng.choice(["truncate", "lines", "field", "bytes"])
    if how == "truncate":
        at = rng.randrange(len(data))
        return data[:at], f"truncate at byte {at}"
    if how == "lines":
        return _mutate_lines(rng, data)
    if how == "field":
        return _mutate_json(rng, data) if role in JSON_ROLES else _mutate_field(rng, data, role)
    return _mutate_bytes(rng, data)


def test_a_mutated_input_exits_zero_or_with_one_line_naming_its_file(world):
    d, files = world
    rng = random.Random(SEED)
    out = d / "out"
    outputs = [out, d / "out.manifest.json"]  # train writes its manifest beside the model
    failures = []
    for n in range(N_MUTATIONS):
        command = rng.choice(sorted(TARGETS))
        role = rng.choice(TARGETS[command])
        mutated = d / f"mutated-{role}"
        data, what = mutate(rng, files[role].read_bytes(), role)
        mutated.write_bytes(data)
        for path in outputs:
            path.unlink(missing_ok=True)
        code, err = _run(_commands({**files, role: mutated}, out)[command])
        case = f"mutation {n}: {command} with {role} ({what}): exit {code}, {err!r}"
        allowed = {0, 1, 2} if role in CONFIG_ROLES else {0, 2}
        if code not in allowed:
            failures.append(f"{case}: unexpected exit code")
        elif code == 0:
            if err or not out.exists():
                failures.append(f"{case}: a run that succeeds writes its output and no error")
        elif not err.endswith("\n") or err.count("\n") != 1:
            failures.append(f"{case}: not one line")
        elif any(path.exists() for path in outputs):
            failures.append(f"{case}: a failing run left an output file")
        elif (code == 2 and role not in CONFIG_ROLES and str(mutated) not in err
              and not any(re.search(pattern, err) for pattern in NAMES_NO_FILE)):
            failures.append(f"{case}: the message does not name the mutated file")
    assert failures == []
