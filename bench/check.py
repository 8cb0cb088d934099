"""Checks of one workflow round against facts computed apart from the program.

    python3 bench/check.py --workload NAME --world DIR --round DIR

Prints one JSON line: {"checks": {name: null, or what is wrong}, "relations_f1":
the weighted F1 over the related labels, recomputed from the predictions}.
Nothing here calls the semrel package; the acceptance world's path index is
checked with the breadth-first-search oracle of the test suite.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from collections import Counter, defaultdict
from pathlib import Path
from urllib.parse import quote

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "tests"))

from oracles import bfs_path, depth_directions  # noqa: E402

from workloads import WORKLOADS  # noqa: E402

LABELS = ("ANT", "HYPER", "PART_OF", "SYN", "RANDOM")
NEGATIVE = "RANDOM"
F1_FLOOR = {"acceptance": 0.80}  # acceptance criterion 7
MAX_EDGES = 4
T_GRID = [j / 100 for j in range(101)]
SYMBOL = {"up": "<", "down": ">", "root": "^"}


def read_rows(path, columns):
    rows = []
    for line in Path(path).read_text(encoding="utf-8").splitlines():
        if line.strip() and not line.startswith("#"):
            cols = line.split("\t")
            if len(cols) != columns:
                raise ValueError(f"{path.name}: expected {columns} columns in {line!r}")
            rows.append(cols)
    return rows


def read_index(path):
    index = defaultdict(Counter)
    for x, y, text, count in read_rows(path, 4):
        index[(x, y)][text] += int(count)
    return dict(index)


def bfs_index(world):
    """Every path of at most MAX_EDGES edges between each pair, by BFS."""
    pairs = {(x.lower(), y.lower()) for x, y, _ in read_rows(world / "all_pairs.tsv", 3)}
    sentences, where = [], defaultdict(set)
    for block in (world / "corpus.conll").read_text(encoding="utf-8").split("\n\n"):
        tokens = [line.split("\t") for line in block.splitlines()
                  if line.strip() and not line.startswith("#")]
        if tokens:
            for cols in tokens:
                where[cols[2].lower()].add(len(sentences))
            sentences.append(tokens)
    index = defaultdict(Counter)
    for x, y in pairs:
        for s in where[x] & where[y]:
            tokens = sentences[s]
            heads = [int(cols[6]) for cols in tokens]
            lemmas = [cols[2].lower() for cols in tokens]
            for xi in (i + 1 for i, lemma in enumerate(lemmas) if lemma == x):
                for yi in (i + 1 for i, lemma in enumerate(lemmas) if lemma == y):
                    if xi == yi:
                        continue
                    walk = bfs_path(heads, xi, yi)
                    if len(walk) - 1 > MAX_EDGES:
                        continue
                    steps = []
                    for k, (node, direction) in enumerate(zip(walk, depth_directions(heads, walk))):
                        cols = tokens[node - 1]
                        lemma = "X" if k == 0 else "Y" if k == len(walk) - 1 else cols[2].lower()
                        fields = (lemma, cols[3], cols[7])
                        steps.append("/".join([quote(f, safe="") for f in fields] + [SYMBOL[direction]]))
                    index[(x, y)]["::".join(steps)] += 1
    return dict(index)


def check_index(workload, world, run):
    expected = bfs_index(world) if WORKLOADS[workload]["generator"] == "synthcorpus" \
        else read_index(world / "planted.tsv")
    found = read_index(run / "index.tsv")
    wrong = sorted(k for k in expected.keys() | found.keys() if expected.get(k) != found.get(k))
    if wrong:
        return f"{len(wrong)} pairs differ from the planted paths, first {wrong[0]}"
    return None


def check_predictions(world, run):
    pairs = read_rows(world / "val.tsv", 3)
    predicted = read_rows(run / "pred.tsv", 3)
    if [p[:2] for p in predicted] != [p[:2] for p in pairs]:
        return f"{len(predicted)} predictions do not match the {len(pairs)} input pairs in order"
    stray = sorted({p[2] for p in predicted} - set(LABELS))
    return f"labels outside the label set: {stray}" if stray else None


def relations_f1(gold, pred):
    """Weighted F1 over every label but RANDOM, weighted by gold support."""
    total = weighted = 0.0
    for label in sorted((set(gold) | set(pred)) - {NEGATIVE}):
        tp = sum(g == p == label for g, p in zip(gold, pred))
        n_pred = sum(p == label for p in pred)
        n_gold = sum(g == label for g in gold)
        f1 = 2 * tp / (n_pred + n_gold) if tp else 0.0
        weighted += n_gold * f1
        total += n_gold
    return weighted / total


def check_f1(workload, world, run, f1):
    last = read_rows(run / "report.tsv", 5)[-1]
    if last[0] != "weighted" or abs(float(last[3]) - f1) > 5.0001e-7:
        return f"report says {last[:4]}, recomputed F1 is {f1:.6f}"
    floor = F1_FLOOR.get(workload)
    if floor is not None and f1 < floor:
        return f"F1 {f1:.4f} is below {floor}"
    return None


def _binary_f1(gold, pred):
    tp = int(np.sum(gold & pred))
    return 2 * tp / (int(gold.sum()) + int(pred.sum())) if tp else 0.0


def check_combiner(world, run):
    """The tuned F1 reaches the best cosine-only F1 on the grid (w_C = 1)."""
    rows = read_rows(world / "train.tsv", 3)
    wanted = {t.lower() for x, y, _ in rows for t in (x, y)} | {"<unk>"}
    vectors = {}
    with open(world / "embeddings.txt", encoding="utf-8") as fh:
        for line in fh:
            token, _, rest = line.partition(" ")
            if token in wanted:
                vectors[token] = np.array([float(v) for v in rest.split()])
    unk = vectors.get("<unk>", np.zeros(len(next(iter(vectors.values())))))

    def cosine_norm(u, v):
        nu, nv = np.linalg.norm(u), np.linalg.norm(v)
        return 0.5 if nu == 0.0 or nv == 0.0 else (float(u @ v) / (nu * nv) + 1.0) / 2.0

    cosines = np.array([cosine_norm(vectors.get(x.lower(), unk), vectors.get(y.lower(), unk))
                        for x, y, _ in rows])
    gold = np.array([label != NEGATIVE for _, _, label in rows])
    best = max(_binary_f1(gold, cosines >= t) for t in T_GRID)
    tuned = json.loads((run / "combiner.json").read_text(encoding="utf-8"))["validation_f1"]
    if tuned < best - 1e-12:
        return f"tuned F1 {tuned} is below the cosine-only F1 {best}"
    return None


def check_finite(run):
    bad = []
    for name in ("relatedness.json", "relations.json", "combiner.json"):
        pending = [json.loads((run / name).read_text(encoding="utf-8"),
                              parse_constant=lambda c: float("nan"))]
        while pending:
            value = pending.pop()
            if isinstance(value, dict):
                pending.extend(value.values())
            elif isinstance(value, list):
                pending.extend(value)
            elif isinstance(value, float) and not math.isfinite(value):
                bad.append(name)
                break
    return f"non-finite numbers in {bad}" if bad else None


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--world", required=True, type=Path)
    parser.add_argument("--round", required=True, type=Path)
    args = parser.parse_args()
    world, run = args.world, args.round
    gold = [r[2] for r in read_rows(world / "val.tsv", 3)]
    pred = [r[2] for r in read_rows(run / "pred.tsv", 3)]
    f1 = relations_f1(gold, pred) if len(gold) == len(pred) else float("nan")
    checks = {
        "index": lambda: check_index(args.workload, world, run),
        "predictions": lambda: check_predictions(world, run),
        "f1": lambda: check_f1(args.workload, world, run, f1),
        "combiner": lambda: check_combiner(world, run),
        "finite": lambda: check_finite(run),
    }
    results = {}
    for name, check in checks.items():
        try:
            results[name] = check()
        except (OSError, ValueError, KeyError, IndexError) as exc:
            results[name] = f"{type(exc).__name__}: {exc}"
    print(json.dumps({"checks": results, "relations_f1": f1}))


if __name__ == "__main__":
    main()
