import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from helpers import constant_model, make_table
from oracles import reference_predict_pairs, reference_relatedness_score
from semrel.corpus import DependencyPath, PathEdge, PathIndex
from semrel.pairs import NEGATIVE_LABEL, PairRecord, RELATED_LABELS, RELATEDNESS_LABELS
from semrel.pipeline import PipelineConfig, path_count, predict_pairs, syn_heuristic
from semrel.relatedness import CombinerConfig, predict_related


def dist(**scores):
    """(labels, scores) for syn_heuristic, in keyword order."""
    return tuple(scores), np.array(list(scores.values()), dtype=float)


def seeded_index(n_paths):
    index = PathIndex()
    for i in range(n_paths):
        edge = PathEdge("X", "NOUN", f"dep{i}", "root")
        index.add("a", "b", DependencyPath((edge, PathEdge("Y", "NOUN", "d", "down"))))
    return index


def two_word_table(cos=1.0):
    x = np.array([1.0, 0.0])
    y = np.array([cos, np.sqrt(max(0.0, 1 - cos * cos))])
    return make_table({"a": x, "b": y})


def classify(config, model, table, index, x, y):
    """The pipeline's label for one pair."""
    [label] = predict_pairs(config, model, table, index, [PairRecord(x, y, "")])
    return label


# ------------------------------------------------------------ path_count


def test_path_count_modes():
    index = PathIndex()
    p1 = DependencyPath((PathEdge("X", "N", "r", "root"),))
    p2 = DependencyPath((PathEdge("X", "N", "q", "root"),))
    index.add("a", "b", p1, 4)
    index.add("a", "b", p2, 1)
    assert path_count(index, "a", "b", "total") == 5
    assert path_count(index, "a", "b", "distinct") == 2
    assert path_count(index, "nope", "b", "total") == 0
    with pytest.raises(ValueError):
        path_count(index, "a", "b", "median")


# --------------------------------------------------------- syn heuristic


def test_narrow_syn_win_with_enough_paths_is_demoted():
    d = dist(ANT=0.1, HYPER=0.35, PART_OF=0.1, SYN=0.45)
    assert syn_heuristic(*d, n_paths=3) == "HYPER"


def test_wide_syn_win_stands():
    d = dist(ANT=0.05, HYPER=0.2, PART_OF=0.05, SYN=0.7)
    assert syn_heuristic(*d, n_paths=10) == "SYN"


def test_narrow_syn_win_with_few_paths_stands():
    d = dist(ANT=0.1, HYPER=0.35, PART_OF=0.1, SYN=0.45)
    assert syn_heuristic(*d, n_paths=2) == "SYN"


def test_non_syn_argmax_is_never_touched():
    d = dist(ANT=0.45, HYPER=0.35, PART_OF=0.1, SYN=0.1)
    for n in (0, 3, 100):
        assert syn_heuristic(*d, n_paths=n) == "ANT"


def test_margin_boundary_is_exclusive():
    # lead exactly 0.2 does not trigger the demotion
    d = dist(ANT=0.1, HYPER=0.3, PART_OF=0.1, SYN=0.5)
    assert syn_heuristic(*d, n_paths=5, margin=0.2) == "SYN"


def test_runner_up_tie_resolves_by_label_order():
    d = dist(ANT=0.3, HYPER=0.3, PART_OF=0.0, SYN=0.4)
    assert syn_heuristic(*d, n_paths=5) == "ANT"


# ------------------------------------------------------------- pipeline


def test_below_threshold_is_random_even_with_paths():
    table = two_word_table(cos=0.0)  # cosine_norm = 0.5
    model = constant_model(RELATED_LABELS, [0.7, 0.1, 0.1, 0.1], word_dim=2)
    config = PipelineConfig(combiner=CombinerConfig(w_c=1.0, w_l=0.0, t=0.9))
    assert classify(config, model, table, seeded_index(5), "a", "b") == NEGATIVE_LABEL


def test_above_threshold_uses_the_model():
    table = two_word_table(cos=1.0)
    model = constant_model(RELATED_LABELS, [0.7, 0.1, 0.1, 0.1], word_dim=2)
    config = PipelineConfig(combiner=CombinerConfig(w_c=1.0, w_l=0.0, t=0.9))
    assert classify(config, model, table, seeded_index(0), "a", "b") == "ANT"


def test_pipeline_applies_syn_demotion():
    table = two_word_table(cos=1.0)
    model = constant_model(RELATED_LABELS, [0.1, 0.35, 0.1, 0.45], word_dim=2)
    config = PipelineConfig(combiner=CombinerConfig(w_c=1.0, w_l=0.0, t=0.5))
    assert classify(config, model, table, seeded_index(3), "a", "b") == "HYPER"
    assert classify(config, model, table, seeded_index(2), "a", "b") == "SYN"


def test_distinct_path_counting_changes_the_decision():
    table = two_word_table(cos=1.0)
    model = constant_model(RELATED_LABELS, [0.1, 0.35, 0.1, 0.45], word_dim=2)
    index = PathIndex()
    p = DependencyPath((PathEdge("X", "N", "r", "root"),))
    index.add("a", "b", p, 5)  # five occurrences of one path type
    total_cfg = PipelineConfig(combiner=CombinerConfig(w_c=1.0, w_l=0.0, t=0.5),
                               path_count_mode="total")
    distinct_cfg = PipelineConfig(combiner=CombinerConfig(w_c=1.0, w_l=0.0, t=0.5),
                                  path_count_mode="distinct")
    assert classify(total_cfg, model, table, index, "a", "b") == "HYPER"
    assert classify(distinct_cfg, model, table, index, "a", "b") == "SYN"


def test_predict_pairs_maps_classify():
    table = make_table({"a": [1.0, 0.0], "b": [1.0, 0.0], "c": [-1.0, 0.0]})
    model = constant_model(RELATED_LABELS, [0.7, 0.1, 0.1, 0.1], word_dim=2)
    config = PipelineConfig(combiner=CombinerConfig(w_c=1.0, w_l=0.0, t=0.5))
    pairs = [PairRecord("a", "b", ""), PairRecord("a", "c", ""), PairRecord("a", "b", "")]
    assert predict_pairs(config, model, table, seeded_index(0), pairs) == ["ANT", NEGATIVE_LABEL, "ANT"]
    assert predict_pairs(config, model, table, seeded_index(0), []) == []


def test_config_validation():
    combiner = CombinerConfig(w_c=1.0, w_l=0.0, t=0.5)
    with pytest.raises(ValueError):
        PipelineConfig(combiner=combiner, syn_margin=-0.1)
    with pytest.raises(ValueError):
        PipelineConfig(combiner=combiner, syn_max_paths=-1)
    with pytest.raises(ValueError):
        PipelineConfig(combiner=combiner, path_count_mode="sometimes")
    # A NaN margin makes "lead < margin" always false: the demotion would be off.
    for margin in (float("nan"), float("inf")):
        with pytest.raises(ValueError, match="syn_margin"):
            PipelineConfig(combiner=combiner, syn_margin=margin)


# ------------------------------------------------- batch against per-pair

COORD = st.sampled_from([-1.0, -0.5, 0.0, 0.5, 1.0])
# Narrow and wide SYN wins, a tie at the top and a non-SYN win, or any mix.
RELATION_PROBS = st.one_of(
    st.sampled_from([(0.10, 0.35, 0.10, 0.45), (0.05, 0.20, 0.05, 0.70),
                     (0.30, 0.30, 0.15, 0.25), (0.40, 0.30, 0.10, 0.20)]),
    st.lists(st.floats(0.05, 1.0), min_size=4, max_size=4).map(lambda w: np.array(w) / sum(w)),
)


def pair_dependent_model(labels, probs, scale, seed):
    """constant_model plus random weights on the classifier input, so each
    pair gets its own distribution near ``probs``."""
    model = constant_model(labels, probs, word_dim=2)
    model.w1[:] = scale * np.random.default_rng(seed).normal(size=model.w1.shape)
    return model


@settings(max_examples=150, deadline=None)
@given(
    vectors=st.lists(st.tuples(COORD, COORD), min_size=4, max_size=4),
    pair_ids=st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3), st.integers(0, 5)),
                      min_size=1, max_size=8),
    relation_probs=RELATION_PROBS,
    p_related=st.sampled_from([0.2, 0.5, 0.8]),
    scale=st.sampled_from([0.0, 0.5]),
    seed=st.integers(0, 2**16),
    w_c=st.sampled_from([1.0, 0.6, 0.25, 0.0]),
    t_choice=st.one_of(st.sampled_from([0.0, 0.3, 0.5, 0.7]), st.integers(0, 7)),
    syn_margin=st.sampled_from([0.0, 0.1, 0.2, 0.5]),
    syn_max_paths=st.integers(0, 4),
    path_count_mode=st.sampled_from(["total", "distinct"]),
)
def test_batch_prediction_matches_the_per_pair_oracle(
    vectors, pair_ids, relation_probs, p_related, scale, seed, w_c, t_choice,
    syn_margin, syn_max_paths, path_count_mode,
):
    words = [f"w{i}" for i in range(4)]
    table = make_table(dict(zip(words, vectors)))
    index = PathIndex()
    pairs = [(words[a], words[b]) for a, b, _ in pair_ids]
    for (x, y), (_, _, n_paths) in zip(pairs, pair_ids):
        for k in range(n_paths):  # n paths of k % 2 + 1 distinct types
            edge = PathEdge("X", "NOUN", f"dep{k % 2}", "root")
            index.add(x, y, DependencyPath((edge, PathEdge("Y", "NOUN", "d", "down"))))
    relation = pair_dependent_model(RELATED_LABELS, relation_probs, scale, seed)
    w_l = round(1.0 - w_c, 10)
    relatedness = (pair_dependent_model(RELATEDNESS_LABELS, [p_related, 1 - p_related], scale,
                                        seed + 1) if w_l else None)
    if isinstance(t_choice, int):  # t exactly at the score of one of the pairs
        x, y = pairs[t_choice % len(pairs)]
        probe = CombinerConfig(w_c=w_c, w_l=w_l, t=0.0)
        t = float(reference_relatedness_score(probe, table, index, x, y, relatedness))
        assume(0.0 <= t <= 1.0)
    else:
        t = t_choice
    config = PipelineConfig(CombinerConfig(w_c=w_c, w_l=w_l, t=t), syn_margin, syn_max_paths,
                            path_count_mode)
    expected = reference_predict_pairs(config.combiner, relation, table, index, pairs,
                                       relatedness, syn_margin, syn_max_paths, path_count_mode)
    records = [PairRecord(x, y, "") for x, y in pairs]
    assert predict_pairs(config, relation, table, index, records, relatedness) == expected
    related = predict_related(config.combiner, table, pairs, relatedness, index)
    assert related.tolist() == [label != NEGATIVE_LABEL for label in expected]
