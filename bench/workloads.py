"""The benchmark's workloads: the make-up of each world and its command flags.

Plain data with no imports, so the runner can read it without loading numpy.
"""

# The lexical split of every world: 30% of the x words go to validation. The
# split seed stays 11, as in acceptance criterion 7; the pair names do not
# depend on the world seed, so every seed gives splits of the same size.
VAL_FRACTION = 0.3
SPLIT_SEED = 11

WORKLOADS = {
    # tests/synthcorpus.generate_world with the run's seed: 5k sentences,
    # 500 pairs, 24-dim vectors. Same commands as acceptance criterion 7.
    "acceptance": {
        "generator": "synthcorpus",
        "epochs": {"relations": 20},
    },
    # Many sentences and pairs, mostly RANDOM; few templated path shapes
    # with fixed lemmas, so the index holds few distinct paths.
    "corpus": {
        "generator": "planted",
        "epochs": {},
        "n_sentences": 20000,
        "per_class": 150,
        "random_share": 0.7,
        "dim": 24,
        "lemma_pool": 0,
        "paths_per_pair": (2, 4),
        "random_cooccur": 0.1,
        "class_offset": 0.0,
        "pad_rows": 0,
    },
    # 50-dim vectors, many paths per pair whose inner lemmas come from a
    # large pool, and a table padded with rows that no pair uses. Every path
    # step costs an LSTM step forward and back in each epoch, so the epochs
    # are cut to keep a round near ten seconds; the relation offset in the
    # word vectors lets two epochs reach an F1 that is high but not 1.
    "vocab": {
        "generator": "planted",
        "epochs": {"relatedness": 1, "relations": 2},
        "n_sentences": 5000,
        "per_class": 50,
        "random_share": 0.2,
        "dim": 50,
        "lemma_pool": 200000,
        "paths_per_pair": (5, 10),
        "random_cooccur": 1.0,
        "class_offset": 0.7,
        "pad_rows": 30000,
    },
}
