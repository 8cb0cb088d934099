"""Package-level acceptance checks.

Each test covers one numbered criterion and prints a single PASS or FAIL line
directly to the terminal (bypassing capture), so a plain pytest run shows the
scorecard. Criteria 7 and 8 share one end-to-end run over a synthetic corpus,
driven entirely through the command-line interface.
"""

import contextlib
import itertools
import time
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

from baselines import baseline_classify, train_linear
from helpers import constant_model, dense_gradients, parse_rows, random_table
from oracles import bfs_path, central_difference, depth_directions, random_tree, rel_error
from synthcorpus import generate_world

from semrel.cli import main
from semrel.corpus import (
    DependencyPath,
    PathEdge,
    PathIndex,
    extract_paths,
)
from semrel.evaluation import lexical_split, scores
from semrel.pairs import (
    NEGATIVE_LABEL,
    PairRecord,
    RELATED,
    RELATED_LABELS,
    RELATEDNESS_LABELS,
    UNRELATED,
)
from semrel.pipeline import PipelineConfig, predict_pairs, syn_heuristic
from semrel.relatedness import (
    CombinerConfig,
    cosine_norm,
    predict_related,
    relatedness_scores,
    tune_combiner,
)
from semrel.relation_model import (
    TrainConfig,
    compile_example,
    forward,
    init_params,
    loss_and_gradients,
    pair_distribution,
    trainable_arrays,
)


@contextlib.contextmanager
def criterion(number, description, capsys):
    try:
        yield
    except BaseException:
        with capsys.disabled():
            print(f"[criterion {number}] FAIL  {description}")
        raise
    with capsys.disabled():
        print(f"[criterion {number}] PASS  {description}")


# ---------------------------------------------------------------- helpers


def _random_path(rng, n_steps):
    poses = ["NOUN", "VERB", "ADJ"]
    deprels = ["nsubj", "dobj", "nmod", "conj", "root"]
    edges = []
    for i in range(n_steps):
        if i == 0:
            lemma, direction = "X", "up"
        elif i == n_steps - 1:
            lemma, direction = "Y", "down"
        else:
            lemma, direction = f"m{int(rng.integers(3))}", "root"
        edges.append(PathEdge(lemma, poses[int(rng.integers(3))],
                              deprels[int(rng.integers(5))], direction))
    return DependencyPath(tuple(edges))


def _flip(path):
    """The expected transform of a path when the pair is reversed."""
    swap_lemma = {"X": "Y", "Y": "X"}
    swap_dir = {"up": "down", "down": "up", "root": "root"}
    return DependencyPath(tuple(
        PathEdge(swap_lemma.get(e.lemma, e.lemma), e.pos, e.deprel, swap_dir[e.direction])
        for e in reversed(path.edges)
    ))


# -------------------------------------------------------------- criterion 1


def test_criterion_1_gradients(capsys):
    desc = "analytic gradients match central finite differences on tiny models"
    with criterion(1, desc, capsys):
        start = time.monotonic()
        words = ["w0", "w1", "w2", "w3"]
        table = random_table(words, 2, seed=555)
        for trial in range(20):
            rng = np.random.default_rng(1000 + trial)
            paths = [_random_path(rng, int(rng.integers(2, 4))) for _ in range(2)]
            index = PathIndex()
            for x, y, path, count in [("w0", "w1", paths[0], 2), ("w0", "w1", paths[1], 1),
                                      ("w2", "w3", paths[1], 1)]:
                index.add(x, y, path, count)
            records = [PairRecord("w0", "w1", "ANT"), PairRecord("w2", "w3", "HYPER"),
                       PairRecord("w1", "w2", "SYN")]
            config = TrainConfig(
                hidden_layers=trial % 2,
                hidden_dim=2, mlp_hidden_dim=2, lemma_dim=2,
                pos_dim=1, deprel_dim=1, dir_dim=1,
                seed=trial,
                train_word_vectors=(trial % 3 == 0),
            )
            params = init_params(config, [(r.x, r.y) for r in records], index, table,
                                 ("ANT", "HYPER", "SYN"), np.random.default_rng(trial))
            examples = [compile_example(params, r.x, r.y, index.get(r.x, r.y), r.label)
                        for r in records]
            n_params = sum(arr.size for arr in trainable_arrays(params).values())
            assert n_params <= 200, f"model has {n_params} parameters"

            for ex in examples:
                _, grads = loss_and_gradients(ex, params, table)

                def loss():
                    return loss_and_gradients(ex, params, table)[0]

                assert list(vars(grads)) == list(trainable_arrays(params))
                for (name, param), (gname, grad) in zip(trainable_arrays(params).items(),
                                                        dense_gradients(params, grads).items()):
                    assert name == gname
                    flat_p = param.reshape(-1)
                    flat_g = grad.reshape(-1)
                    for i in range(flat_p.size):
                        fd = central_difference(loss, flat_p, i, eps=1e-5)
                        err = rel_error(fd, flat_g[i])
                        assert err < 1e-4, (f"trial {trial}, ({ex.x}, {ex.y}), {name}[{i}]: "
                                            f"rel err {err:.2e}")
        elapsed = time.monotonic() - start
        assert elapsed < 30.0, f"gradient checks took {elapsed:.1f}s"


# -------------------------------------------------------------- criterion 2


def test_criterion_2_paths_against_bfs_oracle(capsys):
    desc = "path extraction agrees with a BFS oracle and direction duality holds"
    with criterion(2, desc, capsys):
        start = time.monotonic()
        rng = np.random.default_rng(2000)
        poses = ["NOUN", "VERB", "ADJ", "ADV"]
        deprels = ["nsubj", "dobj", "nmod", "amod", "conj"]
        for _ in range(500):
            n = int(rng.integers(2, 11))
            heads = random_tree(rng, n)
            rows = [
                (f"w{i}", f"w{i}", poses[int(rng.integers(4))], heads[i - 1],
                 "root" if heads[i - 1] == 0 else deprels[int(rng.integers(5))])
                for i in range(1, n + 1)
            ]
            sentence = parse_rows(rows)
            a, b = (int(v) + 1 for v in rng.choice(n, size=2, replace=False))

            walk = bfs_path(heads, a, b)
            directions = depth_directions(heads, walk)
            edges = []
            for spot, node in enumerate(walk):
                _, row_lemma, pos, _, deprel = rows[node - 1]
                if spot == 0:
                    lemma = "X"
                elif spot == len(walk) - 1:
                    lemma = "Y"
                else:
                    lemma = row_lemma.lower()
                edges.append(PathEdge(lemma, pos, deprel, directions[spot]))
            expected = Counter({DependencyPath(tuple(edges)): 1})

            got = extract_paths(sentence, f"w{a}", f"w{b}", max_edges=10)
            assert got == expected

            reverse = extract_paths(sentence, f"w{b}", f"w{a}", max_edges=10)
            assert Counter({_flip(p): c for p, c in reverse.items()}) == got
        elapsed = time.monotonic() - start
        assert elapsed < 10.0, f"tree checks took {elapsed:.1f}s"


# -------------------------------------------------------------- criterion 3


def test_criterion_3_output_distributions(capsys):
    desc = "softmax outputs are distributions and the argmax ignores bias shifts"
    with criterion(3, desc, capsys):
        table = random_table(["a", "b"], 4, seed=3)
        index = PathIndex()
        index.add("a", "b", _random_path(np.random.default_rng(3), 3), 1)
        config = TrainConfig(hidden_layers=0, hidden_dim=8, lemma_dim=4, seed=3)
        params = init_params(config, [("a", "b")], index, table, RELATED_LABELS,
                             np.random.default_rng(3))
        shifted = [replace(params, b1=params.b1 + c) for c in (-7.0, 0.31, 12.5)]
        rng = np.random.default_rng(33)
        for _ in range(10_000):
            v = rng.normal(size=params.w1.shape[1])
            dist = forward(v, params)
            total = float(dist.sum())
            assert abs(total - 1.0) <= 1e-9
            assert np.all(dist > 0.0) and np.all(dist < 1.0)
            top = int(np.argmax(dist))
            for other in shifted:
                assert int(np.argmax(forward(v, other))) == top


# -------------------------------------------------------------- criterion 4


def test_criterion_4_combiner_equivalences(capsys):
    desc = "w_C=1 ranks exactly by cosine; w_L=1 at t=0.5 mirrors the classifier"
    with criterion(4, desc, capsys):
        rng = np.random.default_rng(4000)
        n_pairs = 1000
        words = [f"q{i}" for i in range(2 * n_pairs)]
        table = random_table(words, 6, seed=44)
        pairs = [(words[2 * i], words[2 * i + 1]) for i in range(n_pairs)]

        cos_only = CombinerConfig(w_c=1.0, w_l=0.0, t=0.5)
        cosines = np.array([cosine_norm(table.lookup(x), table.lookup(y)) for x, y in pairs])
        combined = relatedness_scores(cos_only, table, pairs)
        assert np.array_equal(cosines, combined)
        assert np.array_equal(np.argsort(cosines, kind="stable"),
                              np.argsort(combined, kind="stable"))

        index = PathIndex()
        for i, (x, y) in enumerate(pairs):
            if i % 2 == 0:
                index.add(x, y, _random_path(rng, int(rng.integers(2, 4))),
                          int(rng.integers(1, 4)))
        config = TrainConfig(hidden_dim=5, lemma_dim=6, seed=4)
        params = init_params(config, pairs[:10], index, table, RELATEDNESS_LABELS,
                             np.random.default_rng(4))
        model_only = CombinerConfig(w_c=0.0, w_l=1.0, t=0.5)
        by_threshold = predict_related(model_only, table, pairs, params, index)
        dists = pair_distribution(params, table, index, pairs)
        by_argmax = dists.argmax(axis=1) == params.label_index(RELATED)
        assert np.array_equal(by_threshold, by_argmax)


# -------------------------------------------------------------- criterion 5


def test_criterion_5_syn_demotion_truth_table(capsys):
    desc = "the SYN demotion fires exactly when SYN wins narrowly with enough paths"
    with criterion(5, desc, capsys):
        narrow_syn = (0.10, 0.35, 0.10, 0.45)   # SYN ahead of HYPER by 0.10
        wide_syn = (0.05, 0.20, 0.05, 0.70)     # SYN ahead by 0.50
        narrow_other = (0.10, 0.45, 0.10, 0.35)  # HYPER ahead of SYN by 0.10
        wide_other = (0.05, 0.70, 0.05, 0.20)
        cases = []
        for syn_top, margin_small, enough in itertools.product((True, False), repeat=3):
            probs = (narrow_syn if margin_small else wide_syn) if syn_top else \
                    (narrow_other if margin_small else wide_other)
            n_paths = 3 if enough else 2
            fires = syn_top and margin_small and enough
            expected = "HYPER" if fires or not syn_top else "SYN"
            cases.append((probs, n_paths, expected))
        assert len(cases) == 8

        table = random_table(["a", "b"], 2, seed=5)
        gate_open = CombinerConfig(w_c=1.0, w_l=0.0, t=0.0)
        for probs, n_paths, expected in cases:
            assert syn_heuristic(RELATED_LABELS, np.array(probs), n_paths,
                                 margin=0.2, max_paths=3) == expected

            model = constant_model(RELATED_LABELS, probs, word_dim=2)
            index = PathIndex()
            for k in range(n_paths):
                index.add("a", "b", DependencyPath((
                    PathEdge("X", "NOUN", f"d{k}", "root"),
                    PathEdge("Y", "NOUN", "dep", "down"),
                )))
            config = PipelineConfig(combiner=gate_open)
            pairs = [PairRecord("a", "b", "")]
            assert predict_pairs(config, model, table, index, pairs) == [expected]


# -------------------------------------------------------------- criterion 6


def test_criterion_6_evaluation_fixture(capsys):
    desc = "hand-computed F1 fixtures reproduce and all-negative data scores zero"
    with criterion(6, desc, capsys):
        gold = ["A"] * 4 + ["B"] * 2
        pred = ["A", "A", "A", "B", "B", "B"]
        report = scores(gold, pred, average="macro")
        assert abs(report.f1 - 29 / 35) < 1e-6

        all_negative = ["RANDOM"] * 12
        majority = ["RANDOM"] * 12
        zero = scores(all_negative, majority,
                      labels=RELATED_LABELS + (NEGATIVE_LABEL,),
                      average="weighted", exclude=(NEGATIVE_LABEL,))
        assert zero.precision == 0.0 and zero.recall == 0.0 and zero.f1 == 0.0


# ------------------------------------------------- criteria 7 and 8 (shared)


@pytest.fixture(scope="module")
def world_files(tmp_path_factory):
    root = tmp_path_factory.mktemp("world")
    world = generate_world(seed=20)
    (root / "corpus.conll").write_text(world.conll)
    (root / "embeddings.txt").write_text(world.embeddings)
    train_recs, val_recs = lexical_split(world.pairs, 0.3, seed=11)
    from semrel.pairs import write_pairs

    write_pairs(world.pairs, root / "all_pairs.tsv")
    write_pairs(train_recs, root / "train.tsv")
    write_pairs(val_recs, root / "val.tsv")
    return {
        "root": root,
        "pairs": world.pairs,
        "train_recs": train_recs,
        "val_recs": val_recs,
    }


def run_cli_pipeline(files, out):
    """The full workflow through the command line; returns elapsed seconds."""
    root = files["root"]
    out.mkdir(exist_ok=True)
    steps = [
        ["extract-paths", "--corpus", root / "corpus.conll",
         "--pairs", root / "all_pairs.tsv", "--output", out / "index.tsv"],
        ["train", "--task", "relatedness", "--pairs", root / "train.tsv",
         "--index", out / "index.tsv", "--embeddings", root / "embeddings.txt",
         "--model", out / "relatedness.json", "--seed", "7"],
        ["tune", "--pairs", root / "train.tsv", "--index", out / "index.tsv",
         "--embeddings", root / "embeddings.txt", "--model", out / "relatedness.json",
         "--output", out / "combiner.json"],
        ["train", "--task", "relations", "--pairs", root / "train.tsv",
         "--index", out / "index.tsv", "--embeddings", root / "embeddings.txt",
         "--model", out / "relations.json", "--epochs", "20", "--seed", "7"],
        ["predict", "--task", "relations", "--pairs", root / "val.tsv",
         "--index", out / "index.tsv", "--embeddings", root / "embeddings.txt",
         "--combiner", out / "combiner.json",
         "--relatedness-model", out / "relatedness.json",
         "--relation-model", out / "relations.json", "--output", out / "pred.tsv"],
        ["evaluate", "--pairs", root / "val.tsv", "--predictions", out / "pred.tsv",
         "--output", out / "report.tsv"],
    ]
    start = time.monotonic()
    for argv in steps:
        code = main([str(a) for a in argv])
        assert code == 0, f"command failed: {argv[0]}"
    return time.monotonic() - start


def weighted_f1_from_report(path):
    last = path.read_text().strip().split("\n")[-1].split("\t")
    assert last[0] == "weighted"
    return float(last[3])


@pytest.fixture(scope="module")
def first_run(world_files):
    out = world_files["root"] / "run1"
    elapsed = run_cli_pipeline(world_files, out)
    return {"out": out, "elapsed": elapsed,
            "f1": weighted_f1_from_report(out / "report.tsv")}


ARTIFACTS = ["index.tsv", "relatedness.json", "relatedness.manifest.json",
             "combiner.json", "relations.json", "relations.manifest.json",
             "pred.tsv", "report.tsv"]


def test_criterion_7_end_to_end_beats_baseline(capsys, world_files, first_run):
    desc = "synthetic corpus: weighted F1 >= 0.80 and above the linear baseline"
    with criterion(7, desc, capsys):
        f1 = first_run["f1"]
        assert first_run["elapsed"] < 300.0, f"pipeline took {first_run['elapsed']:.0f}s"
        assert f1 >= 0.80, f"integrated weighted F1 {f1:.3f}"

        from semrel.embeddings import load_table
        table = load_table(world_files["root"] / "embeddings.txt")
        train_recs = world_files["train_recs"]
        val_recs = world_files["val_recs"]
        folded = [PairRecord(r.x, r.y, RELATED if r.label != NEGATIVE_LABEL else UNRELATED)
                  for r in train_recs]
        threshold = tune_combiner(folded, table)[0].t
        related_only = [r for r in train_recs if r.label != NEGATIVE_LABEL]
        linear = train_linear(related_only, table, method="concat", epochs=10, seed=7,
                              label_set=RELATED_LABELS)
        baseline_labels = [baseline_classify(linear, table, threshold, r.x, r.y, NEGATIVE_LABEL)
                           for r in val_recs]
        baseline = scores([r.label for r in val_recs], baseline_labels,
                          average="weighted", exclude=(NEGATIVE_LABEL,))
        assert baseline.f1 < f1, (
            f"baseline {baseline.f1:.3f} not below integrated {f1:.3f}")
        with capsys.disabled():
            print(f"    integrated F1 {f1:.3f} vs baseline {baseline.f1:.3f} "
                  f"in {first_run['elapsed']:.0f}s", end=" ")


def test_criterion_8_reruns_are_byte_identical(capsys, world_files, first_run):
    desc = "rerunning the whole workflow with the same seeds reproduces every byte"
    with criterion(8, desc, capsys):
        out2 = world_files["root"] / "run2"
        run_cli_pipeline(world_files, out2)
        for name in ARTIFACTS:
            a = (first_run["out"] / name).read_bytes()
            b = (out2 / name).read_bytes()
            assert a == b, f"{name} differs between identical runs"


# -------------------------------------------------------------- criterion 9


def test_criterion_9_lexical_splits_are_disjoint(capsys, world_files):
    desc = "100 seeded lexical splits never share an x word across sides"
    with criterion(9, desc, capsys):
        records = world_files["pairs"]
        assert len(records) == 500
        for seed in range(100):
            train_recs, val_recs = lexical_split(records, 0.3, seed=seed)
            assert train_recs and val_recs
            assert len(train_recs) + len(val_recs) == len(records)
            train_x = {r.x for r in train_recs}
            val_x = {r.x for r in val_recs}
            assert train_x.isdisjoint(val_x)
