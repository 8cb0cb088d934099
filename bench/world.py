"""Seeded synthetic worlds for the workflow benchmark.

    python3 bench/world.py --workload NAME --seed N --out DIR

writes corpus.conll, embeddings.txt, all_pairs.tsv, train.tsv and val.tsv
into DIR. The ``acceptance`` world is tests/synthcorpus.generate_world. The
other worlds are built here from path shapes: every co-occurrence sentence is
generated from the dependency path it plants between x and y, so the world
also knows its own path index, which goes to planted.tsv as
``x<TAB>y<TAB>path<TAB>count`` rows.

Word vectors follow tests/synthcorpus: y is close to x for every related
pair and independent of x for RANDOM pairs, so the vectors tell related from
unrelated. A world's ``class_offset`` also moves y along one direction per
relation; at 0, as in tests/synthcorpus, the vectors cannot tell one relation
from another.
"""

from __future__ import annotations

import argparse
import sys
from collections import Counter, namedtuple
from pathlib import Path
from urllib.parse import quote

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

from workloads import SPLIT_SEED, VAL_FRACTION, WORKLOADS  # noqa: E402

from semrel.evaluation import lexical_split  # noqa: E402
from semrel.pairs import PairRecord  # noqa: E402

NOISE = 0.15
RELATED_CLASSES = ("HYPER", "PART_OF", "ANT", "SYN")

# A path shape lists the walk's nodes from X to Y as (lemma, pos, deprel);
# the lemma None is drawn from the world's lemma pool. The apex is the node
# where the walk turns; it is the sentence root unless ``top`` names a token
# to hang it from. ``extras`` are (lemma, pos, deprel, node) leaves that sit
# off the walk and so leave the planted path unchanged.
Shape = namedtuple("Shape", "nodes apex extras top", defaults=((), None))

N, V = "NOUN", "VERB"

# Templated shapes with fixed lemmas, the patterns of tests/synthcorpus.
TEMPLATES = {
    "HYPER": (
        Shape((("X", N, "nsubj"), ("kind", N, "root"), ("Y", N, "nmod")), 1,
              (("be", V, "cop", 1), ("a", "DET", "det", 1), ("of", "ADP", "case", 2))),
        Shape((("X", N, "nmod"), ("Y", N, "root")), 1,
              (("such", "ADJ", "case", 0), ("as", "ADP", "case", 0))),
    ),
    "PART_OF": (
        Shape((("X", N, "nsubj"), ("part", N, "root"), ("Y", N, "nmod")), 1,
              (("be", V, "cop", 1), ("of", "ADP", "case", 2))),
        Shape((("X", N, "root"), ("Y", N, "nmod")), 0,
              (("the", "DET", "det", 0), ("of", "ADP", "case", 1), ("the", "DET", "det", 1))),
    ),
    "ANT": (
        Shape((("X", N, "dobj"), ("Y", N, "conj")), 0, (("or", "CCONJ", "cc", 1),), ("choose", V)),
        Shape((("X", N, "root"), ("Y", N, "conj")), 0, (("or", "CCONJ", "cc", 1),)),
    ),
    "SYN": (),
    "RANDOM": (Shape((("X", N, "root"), ("Y", N, "appos")), 0, ((",", "PUNCT", "punct", 1),)),),
}

# Pool shapes: one cue lemma per shape tells the classes apart, as "kind of"
# does in text, and the other inner lemmas come from the pool, so paths are
# rarely shared. SYN shares one shape with ANT, and every pair also draws
# from GENERIC, so the classes overlap and accuracy is not saturated.
_ANT_A = Shape((("X", N, "obj"), (None, V, "xcomp"), ("choose", V, "root"), (None, N, "obj"),
                ("Y", N, "conj")), 2)
GENERIC = (
    Shape((("X", N, "nsubj"), (None, V, "root"), (None, N, "obj"), ("Y", N, "nmod")), 1),
    Shape((("X", N, "obj"), (None, V, "root"), (None, N, "nsubj"), (None, N, "nmod"),
           ("Y", N, "nmod")), 1),
)
POOL_SHAPES = {
    "HYPER": (
        Shape((("X", N, "nsubj"), ("kind", N, "root"), (None, N, "nmod"), (None, N, "nmod"),
               ("Y", N, "nmod")), 1),
        Shape((("X", N, "nmod"), (None, N, "obl"), ("such", "ADJ", "root"), (None, N, "obj"),
               ("Y", N, "obj")), 2),
    ),
    "PART_OF": (
        Shape((("X", N, "nsubj"), ("part", N, "root"), (None, N, "nmod"), (None, N, "obj"),
               ("Y", N, "nmod")), 1),
        Shape((("X", N, "compound"), (None, N, "nsubj"), ("have", V, "root"), (None, N, "obl"),
               ("Y", N, "nmod")), 2),
    ),
    "ANT": (
        _ANT_A,
        Shape((("X", N, "nmod"), ("versus", "ADP", "root"), (None, N, "obj"), (None, N, "nmod"),
               ("Y", N, "conj")), 1),
    ),
    "SYN": (
        _ANT_A,
        Shape((("X", N, "root"), (None, V, "acl"), ("call", V, "xcomp"), (None, N, "obj"),
               ("Y", N, "appos")), 0),
    ),
    "RANDOM": GENERIC,
}
GENERIC_SHARE = 0.2

_DIR_SYMBOL = ("<", "^", ">")  # before, at and after the apex


def _unit(rng, dim):
    v = rng.normal(size=dim)
    return v / np.linalg.norm(v)


def _make_pairs(prefix, n_pairs):
    """Pair names; a quarter fewer x words than pairs, so some x label two pairs."""
    n_x = max(1, (3 * n_pairs + 3) // 4)
    return [(f"{prefix}x{i % n_x:04d}", f"{prefix}y{i:04d}") for i in range(n_pairs)]


def _field(text):
    return quote(text, safe="")


def plant(shape, x, y, lemmas):
    """One sentence in CoNLL layout and the text of the path it plants.

    ``lemmas`` supplies the pool lemmas for the shape's open nodes, in order.
    """
    fill = iter(lemmas)
    walk = [(x if lemma == "X" else y if lemma == "Y" else lemma or next(fill), pos, deprel)
            for lemma, pos, deprel in shape.nodes]
    rows = []  # (lemma, pos, head, deprel)
    for i, (lemma, pos, deprel) in enumerate(walk):
        if i < shape.apex:
            head = i + 2
        elif i > shape.apex:
            head = i
        else:
            head = len(walk) + 1 if shape.top else 0
        rows.append((lemma, pos, head, deprel))
    if shape.top:
        rows.append((shape.top[0], shape.top[1], 0, "root"))
    rows.extend((lemma, pos, node + 1, deprel) for lemma, pos, deprel, node in shape.extras)
    sentence = "\n".join(
        f"{i}\t{lemma}\t{lemma}\t{pos}\t_\t_\t{head}\t{deprel}"
        for i, (lemma, pos, head, deprel) in enumerate(rows, start=1)
    )
    last = len(walk) - 1
    steps = []
    for i, (lemma, pos, deprel) in enumerate(walk):
        name = "X" if i == 0 else "Y" if i == last else lemma
        symbol = _DIR_SYMBOL[(i > shape.apex) - (i < shape.apex) + 1]
        steps.append("/".join((_field(name), _field(pos), _field(deprel), symbol)))
    return sentence, "::".join(steps)


def _solo(word):  # the w sleeps
    return (f"1\tthe\tthe\tDET\t_\t_\t2\tdet\n2\t{word}\t{word}\tNOUN\t_\t_\t3\tnsubj\n"
            f"3\tsleeps\tsleep\tVERB\t_\t_\t0\troot")


def _filler(rng):  # the N V a N, from a vocabulary no pair uses
    a, b = (f"fill{int(i):03d}" for i in rng.integers(40, size=2))
    v = f"do{int(rng.integers(15)):02d}"
    return (f"1\tthe\tthe\tDET\t_\t_\t2\tdet\n2\t{a}\t{a}\tNOUN\t_\t_\t3\tnsubj\n"
            f"3\t{v}\t{v}\tVERB\t_\t_\t0\troot\n4\ta\ta\tDET\t_\t_\t5\tdet\n"
            f"5\t{b}\t{b}\tNOUN\t_\t_\t3\tdobj")


def planted_world(seed, spec):
    """Corpus text, pair records, table text and planted index of one world."""
    rng = np.random.default_rng(seed)
    dim, pool = spec["dim"], spec["lemma_pool"]
    per_class = spec["per_class"]
    share = spec["random_share"]
    n_random = int(round(4 * per_class * share / (1.0 - share)))
    by_label = {label: _make_pairs(label[0].lower(), per_class) for label in RELATED_CLASSES}
    by_label["RANDOM"] = _make_pairs("r", n_random)

    offsets = {label: spec["class_offset"] * _unit(rng, dim) for label in RELATED_CLASSES}
    records, vectors = [], {}
    for label, wordpairs in by_label.items():
        for x, y in wordpairs:
            records.append(PairRecord(x, y, label))
            vectors.setdefault(x, _unit(rng, dim))
            if label == "RANDOM":
                vectors.setdefault(y, _unit(rng, dim))
            else:
                noisy = vectors[x] + NOISE * _unit(rng, dim) + offsets[label]
                vectors[y] = noisy / np.linalg.norm(noisy)

    shapes = POOL_SHAPES if pool else TEMPLATES
    lo, hi = spec["paths_per_pair"]
    sentences, planted, pool_used = [], {}, set()
    for r in records:
        own = shapes[r.label]
        if r.label == "RANDOM" and rng.random() >= spec["random_cooccur"]:
            own = ()
        if not own:
            sentences.append(_solo(r.x))
            if r.label == "SYN":
                sentences.append(_solo(r.y))
            continue
        # A templated RANDOM pair co-occurs once, as in tests/synthcorpus.
        n = int(rng.integers(lo, hi + 1)) if r.label != "RANDOM" or pool else 1
        counts = planted.setdefault((r.x, r.y), Counter())
        for _ in range(n):
            options = GENERIC if pool and rng.random() < GENERIC_SHARE else own
            shape = options[int(rng.integers(len(options)))]
            open_nodes = sum(lemma is None for lemma, _, _ in shape.nodes)
            lemmas = [f"l{int(i):06d}" for i in rng.integers(pool, size=open_nodes)] if pool else []
            pool_used.update(lemmas)
            sentence, path = plant(shape, r.x, r.y, lemmas)
            sentences.append(sentence)
            counts[path] += 1
    while len(sentences) < spec["n_sentences"]:
        sentences.append(_filler(rng))
    order = rng.permutation(len(sentences))
    conll = "\n\n".join(sentences[int(i)] for i in order) + "\n"

    # A general-purpose table also holds the path lemmas and words no pair uses.
    extra = sorted(pool_used)
    extra += [f"pad{i:06d}" for i in range(max(0, spec["pad_rows"] - len(extra)))]
    for token in extra:
        vectors[token] = _unit(rng, dim)
    return conll, records, _table_text(vectors), planted


def _table_text(vectors):
    row = "%s" + " %.6f" * len(next(iter(vectors.values()))) + "\n"
    return "".join(row % (word, *vectors[word]) for word in sorted(vectors))


def _pairs_text(records):
    return "".join(f"{r.x}\t{r.y}\t{r.label}\n" for r in records)


def write_world(workload, seed, out):
    spec = WORKLOADS[workload]
    seed %= 2**32  # numpy seeds must be nonnegative
    out.mkdir(parents=True, exist_ok=True)
    if spec["generator"] == "synthcorpus":
        from synthcorpus import generate_world

        world = generate_world(seed=seed)
        conll, records, table = world.conll, world.pairs, world.embeddings
    else:
        conll, records, table, planted = planted_world(seed, spec)
        (out / "planted.tsv").write_text(
            "".join(f"{x}\t{y}\t{path}\t{count}\n"
                    for (x, y), paths in sorted(planted.items())
                    for path, count in sorted(paths.items())),
            encoding="utf-8",
        )
    train, val = lexical_split(records, VAL_FRACTION, seed=SPLIT_SEED)
    (out / "corpus.conll").write_text(conll, encoding="utf-8")
    (out / "embeddings.txt").write_text(table, encoding="utf-8")
    (out / "all_pairs.tsv").write_text(_pairs_text(records), encoding="utf-8")
    (out / "train.tsv").write_text(_pairs_text(train), encoding="utf-8")
    (out / "val.tsv").write_text(_pairs_text(val), encoding="utf-8")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--out", required=True, type=Path)
    args = parser.parse_args()
    write_world(args.workload, args.seed, args.out)


if __name__ == "__main__":
    main()
