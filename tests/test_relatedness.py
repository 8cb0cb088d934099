import io
import json
import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from helpers import constant_model, make_table
from oracles import reference_binary_f1
from semrel.corpus import PathIndex
from semrel.errors import DataError
from semrel.evaluation import binary_f1
from semrel.pairs import PairRecord, RELATED, RELATEDNESS_LABELS, UNRELATED
from semrel.relatedness import (
    CombinerConfig,
    T_GRID,
    W_GRID,
    cosine_norm,
    load_combiner,
    predict_related,
    relatedness_scores,
    save_combiner,
    tune_combiner,
)
from semrel.relation_model import pair_distribution


# ------------------------------------------------------------ cosine_norm


def test_cosine_norm_reference_points():
    assert cosine_norm([1.0, 0.0], [1.0, 0.0]) == pytest.approx(1.0)
    assert cosine_norm([1.0, 0.0], [-1.0, 0.0]) == pytest.approx(0.0)
    assert cosine_norm([1.0, 0.0], [0.0, 1.0]) == pytest.approx(0.5)


def test_cosine_norm_zero_vector_is_neutral():
    assert cosine_norm([0.0, 0.0], [1.0, 2.0]) == 0.5
    assert cosine_norm([0.0, 0.0], [0.0, 0.0]) == 0.5


def test_cosine_norm_of_tiny_and_huge_vectors():
    # 3.5e-158 squared underflows to a subnormal and 1e200 squared overflows,
    # which once gave 1.00000003 and NaN.
    tiny = [3.542954371448868e-158, 0.0]
    assert cosine_norm(tiny, tiny) == 1.0
    assert cosine_norm([0.125 * x for x in tiny], tiny) == 1.0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cosine_norm([1e200, 1.0], [1e200, 0.0]) == 1.0
        assert cosine_norm([1e200, 0.0], [-1e-200, 0.0]) == 0.0
    assert cosine_norm([3.0, 3.0], [-99.0, -99.0]) == 0.0  # once -1.1e-16


def test_cosine_norm_keeps_its_bits_under_power_of_two_scaling():
    rng = np.random.default_rng(8)
    for _ in range(200):
        u, v = rng.normal(size=5), rng.normal(size=5)
        plain = (float(u @ v) / (np.linalg.norm(u) * np.linalg.norm(v)) + 1.0) / 2.0
        assert cosine_norm(u, v) == plain
        assert cosine_norm(u * 2.0**-30, v * 2.0**40) == plain


@settings(max_examples=100, deadline=None)
@given(st.lists(st.floats(-1e3, 1e3), min_size=2, max_size=6),
       st.lists(st.floats(-1e3, 1e3), min_size=2, max_size=6),
       st.floats(0.1, 50.0))
def test_cosine_norm_properties(u, v, scale):
    n = min(len(u), len(v))
    u, v = u[:n], v[:n]
    # Scaling a subnormal entry such as 5e-324 by 0.5 gives 0: another vector.
    assume(all((scale * x == 0.0) == (x == 0.0) for x in u))
    s = cosine_norm(u, v)
    assert 0.0 <= s <= 1.0 + 1e-12
    assert s == pytest.approx(cosine_norm(v, u))
    assert cosine_norm([scale * x for x in u], v) == pytest.approx(s, abs=1e-9)


# ---------------------------------------------------------------- config


def test_weights_must_sum_to_one():
    with pytest.raises(ValueError):
        CombinerConfig(w_c=0.5, w_l=0.4, t=0.5)
    with pytest.raises(ValueError):
        CombinerConfig(w_c=1.2, w_l=-0.2, t=0.5)
    CombinerConfig(w_c=0.7, w_l=0.3, t=0.29)  # a valid operating point


def test_grids_cover_the_operating_points():
    assert len(W_GRID) == 21 and W_GRID[1] - W_GRID[0] == pytest.approx(0.05)
    assert len(T_GRID) == 101 and T_GRID[1] - T_GRID[0] == pytest.approx(0.01)
    assert 0.7 in W_GRID and 0.3 in [round(1 - w, 10) for w in W_GRID]
    assert 0.29 in T_GRID


# ----------------------------------------------------------------- score


def test_pure_cosine_score_skips_the_model():
    table = make_table({"a": [1.0, 0.0], "b": [0.0, 1.0], "c": [1.0, 1.0]})
    config = CombinerConfig(w_c=1.0, w_l=0.0, t=0.5)
    scores = relatedness_scores(config, table, [("a", "b"), ("a", "c")])  # no model, no index
    assert scores.tolist() == [cosine_norm(table.lookup("a"), table.lookup(y)) for y in "bc"]
    assert relatedness_scores(config, table, []).shape == (0,)


def test_model_term_requires_model_and_index():
    table = make_table({"a": [1.0, 0.0], "b": [0.0, 1.0]})
    config = CombinerConfig(w_c=0.5, w_l=0.5, t=0.5)
    model = constant_model(RELATEDNESS_LABELS, [0.8, 0.2], word_dim=2)
    for params, index in ((None, None), (model, None), (None, PathIndex())):
        with pytest.raises(ValueError):
            relatedness_scores(config, table, [("a", "b")], params, index)
        with pytest.raises(ValueError):
            predict_related(config, table, [("a", "b")], params, index)


def test_score_combines_both_terms():
    table = make_table({"a": [1.0, 0.0], "b": [1.0, 0.0], "c": [-1.0, 0.0]})
    model = constant_model(RELATEDNESS_LABELS, [0.8, 0.2], word_dim=2)
    config = CombinerConfig(w_c=0.25, w_l=0.75, t=0.5)
    scores = relatedness_scores(config, table, [("a", "b"), ("a", "c")], model, PathIndex())
    assert scores == pytest.approx([0.25 * 1.0 + 0.75 * 0.8, 0.25 * 0.0 + 0.75 * 0.8])


def test_threshold_is_inclusive():
    # Pairs scoring exactly t, and one ulp below it, against a pure-cosine
    # combiner whose threshold is the first pair's score.
    table = make_table({"a": [1.0, 0.0], "b": [0.6, 0.8], "c": [0.6, 0.8 + 1e-12]})
    t = cosine_norm(table.lookup("a"), table.lookup("b"))
    below = cosine_norm(table.lookup("a"), table.lookup("c"))
    assert below < t
    config = CombinerConfig(w_c=1.0, w_l=0.0, t=t)
    assert predict_related(config, table, [("a", "b"), ("a", "c")]).tolist() == [True, False]


def test_predict_related_labels():
    table = make_table({"a": [1.0, 0.0], "b": [1.0, 0.0], "c": [-1.0, 0.0]})
    config = CombinerConfig(w_c=1.0, w_l=0.0, t=0.5)
    related = predict_related(config, table, [("a", "b"), ("a", "c"), ("b", "a")])
    assert related.dtype == bool and related.tolist() == [True, False, True]


# ---------------------------------------------------------------- tuning


def tuning_world():
    table = make_table({
        "suna": [1.0, 0.0], "sunb": [1.0, 0.0],
        "moona": [0.0, 1.0], "moonb": [0.0, 1.0],
        "colda": [-1.0, 0.0], "coldb": [1.0, 0.0],
        "darka": [0.0, -1.0], "darkb": [0.0, 1.0],
    })
    val = [
        PairRecord("suna", "sunb", RELATED),    # cosine_norm 1.0
        PairRecord("moona", "moonb", RELATED),  # cosine_norm 1.0
        PairRecord("colda", "coldb", UNRELATED),  # cosine_norm 0.0
        PairRecord("darka", "darkb", UNRELATED),  # cosine_norm 0.0
    ]
    model = constant_model(RELATEDNESS_LABELS, [0.8, 0.2], word_dim=2)
    return table, val, model


def test_tuning_prefers_cosine_then_small_threshold():
    table, val, model = tuning_world()
    config, f1 = tune_combiner(val, table, model, PathIndex())
    # Many grid points reach F1 = 1; ties resolve to the smallest w_L, then
    # the smallest threshold, which here is w_C = 1 and the first t above 0.
    assert f1 == 1.0
    assert config.w_c == 1.0 and config.w_l == 0.0
    assert config.t == 0.01


def test_tuned_config_reproduces_its_f1():
    table, val, model = tuning_world()
    config, f1 = tune_combiner(val, table, model, PathIndex())
    pred = predict_related(config, table, [(r.x, r.y) for r in val], model, PathIndex())
    assert binary_f1([r.label == RELATED for r in val], pred, True) == f1


def test_tuned_f1_is_what_predict_gets_when_a_score_lands_on_t():
    # At w_C = 0.7, pair a-b scores 0.7 * 0.5 + w_L * 0.7, which is t = 0.56
    # with w_L = 1 - 0.7 = 0.30000000000000004 but 0.5599999999999999 with
    # the saved w_L = 0.3. Pair c-d scores near 0.555 at w_C = 0.7 and at or
    # above a-b for every w_C above 0.7, so (0.7, 0.56) would be the winner.
    table = make_table({"a": [0.0, 2.0], "b": [-8.0, 0.0],
                        "c": [1.0, 0.0], "d": [0.11, math.sqrt(1.0 - 0.11**2)]})
    model = constant_model(RELATEDNESS_LABELS, [0.7, 0.3], word_dim=2)
    model.w1[0, 0] = math.log(0.555 * 0.3 / (0.445 * 0.7))  # P(RELATED | c-d) = 0.555
    val = [PairRecord("a", "b", RELATED), PairRecord("c", "d", UNRELATED)]
    config, f1 = tune_combiner(val, table, model, PathIndex())
    saved = io.StringIO()
    save_combiner(config, saved)
    pred = predict_related(load_combiner(io.StringIO(saved.getvalue())), table,
                           [(r.x, r.y) for r in val], model, PathIndex())
    assert binary_f1([r.label == RELATED for r in val], pred, True) == f1


def test_tuning_requires_both_classes():
    table, val, model = tuning_world()
    with pytest.raises(DataError):
        tune_combiner([v for v in val if v.label == RELATED], table, model, PathIndex())
    with pytest.raises(DataError):
        tune_combiner([], table, model, PathIndex())


def test_cosine_only_tuning_hand_case():
    table = make_table({
        "r1": [1.0, 0.0], "r2": [1.0, 0.0],
        "u1": [1.0, 0.0], "u2": [-1.0, 0.0],
    })
    val = [PairRecord("r1", "r2", RELATED), PairRecord("u1", "u2", UNRELATED)]
    config, f1 = tune_combiner(val, table)
    assert f1 == 1.0
    assert config == CombinerConfig(w_c=1.0, w_l=0.0, t=0.01)  # smallest separating t


def test_cosine_only_tuning_needs_both_classes():
    table = make_table({"a": [1.0, 0.0], "b": [1.0, 0.0]})
    with pytest.raises(DataError):
        tune_combiner([PairRecord("a", "b", RELATED)], table)


def test_tuning_rejects_foreign_labels():
    table, val, model = tuning_world()
    bad = val + [PairRecord("x", "y", "HYPER")]
    with pytest.raises(DataError, match="HYPER"):
        tune_combiner(bad, table, model, PathIndex())


def test_tuning_with_a_model_requires_an_index():
    table, val, model = tuning_world()
    with pytest.raises(ValueError, match="tuning with a model requires a path index"):
        tune_combiner(val, table, model, index=None)


def test_imperfect_separation_still_picks_argmax_f1():
    # One related pair sits at the same score as the unrelated one, so no
    # threshold separates them. Predicting everything related gives
    # P=3/4, R=1, F1=6/7; predicting only the two clean pairs gives
    # P=1, R=2/3, F1=4/5. The tuner must prefer 6/7 at the lowest threshold.
    table = make_table({
        "a1": [1.0, 0.0], "a2": [1.0, 0.0],
        "b1": [1.0, 0.1], "b2": [1.0, 0.1],
        "low1": [1.0, 0.0], "low2": [-1.0, 0.0],
        "n1": [0.0, 1.0], "n2": [0.0, -1.0],
    })
    val = [
        PairRecord("a1", "a2", RELATED),
        PairRecord("b1", "b2", RELATED),
        PairRecord("low1", "low2", RELATED),   # cosine_norm 0.0
        PairRecord("n1", "n2", UNRELATED),     # cosine_norm 0.0
    ]
    model = constant_model(RELATEDNESS_LABELS, [0.5, 0.5], word_dim=2)
    config, f1 = tune_combiner(val, table, model, PathIndex())
    assert f1 == pytest.approx(6 / 7)
    assert config.w_c == 1.0 and config.t == 0.0
    assert (config.w_c, config.t, f1) == grid_oracle(val, model, table)


def grid_oracle(val, model, table):
    """(w_C, t, F1) by a plain loop over the grid and the reference F1; ties
    keep the first point, in order of descending w_C, then ascending t. Each
    point scores with the w_L that a combiner saves, 1 - w_C rounded to ten
    places. Without a model only w_C = 1 is searched."""
    gold = [r.label == RELATED for r in val]
    cosines = [cosine_norm(table.lookup(r.x), table.lookup(r.y)) for r in val]
    if model is None:
        weights, probs = [1.0], [0.0] * len(val)
    else:
        weights = sorted(W_GRID, reverse=True)
        probs = [pair_distribution(model, table, PathIndex(), [(r.x, r.y)])[0, 0] for r in val]
    best = None
    for w_c in weights:
        w_l = round(1.0 - w_c, 10)
        scores = [w_c * c + w_l * p for c, p in zip(cosines, probs)]
        for t in T_GRID:
            f1 = reference_binary_f1(gold, [s >= t for s in scores])
            if best is None or f1 > best[2]:
                best = (w_c, t, f1)
    return best


# A few coarse values, so that pairs and grid points tie often.
COORD = st.sampled_from([-1.0, -0.5, 0.0, 0.5, 1.0])


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(COORD, COORD, COORD, COORD, st.booleans()), min_size=2, max_size=8),
       st.sampled_from([0.1, 0.3, 0.5, 0.8, 0.9]))
def test_tuning_matches_a_plain_grid_loop(rows, p_related):
    vectors = {}
    val = []
    for i, (a, b, c, d, related) in enumerate(rows):
        vectors[f"x{i}"], vectors[f"y{i}"] = [a, b], [c, d]
        val.append(PairRecord(f"x{i}", f"y{i}", RELATED if related else UNRELATED))
    assume(len({r.label for r in val}) == 2)
    table = make_table(vectors)
    model = constant_model(RELATEDNESS_LABELS, [p_related, 1.0 - p_related], word_dim=2)
    config, f1 = tune_combiner(val, table, model, PathIndex())
    assert (config.w_c, config.t, f1) == grid_oracle(val, model, table)
    config, f1 = tune_combiner(val, table)
    assert (config.w_c, config.w_l, config.t, f1) == (1.0, 0.0) + grid_oracle(val, None, table)[1:]


# ----------------------------------------------------------- persistence


def test_save_load_round_trip(tmp_path):
    config = CombinerConfig(w_c=0.7, w_l=0.3, t=0.29)
    target = tmp_path / "combiner.json"
    save_combiner(config, target, validation_f1=0.91)
    assert load_combiner(target) == config
    text = target.read_text()
    assert '"w_C"' in text and '"w_L"' in text and '"t"' in text


@pytest.mark.parametrize("field, value", [("w_C", "2.0"), ("w_C", "NaN"), ("t", '"abc"'),
                                          ("w_L", "null")])
def test_load_combiner_names_the_file_of_a_bad_value(tmp_path, field, value):
    doc = {"format": "semrel-combiner", "version": 1, "w_C": 1.0, "w_L": 0.0, "t": 0.5}
    text = json.dumps(doc).replace(f'"{field}": {json.dumps(doc[field])}', f'"{field}": {value}')
    target = tmp_path / "combiner.json"
    target.write_text(text, encoding="utf-8")
    with pytest.raises(DataError) as caught:
        load_combiner(target)
    assert str(caught.value).startswith(f"{target}: ")


def test_load_combiner_quotes_an_integer_of_too_many_digits(tmp_path):
    target = tmp_path / "combiner.json"
    target.write_text('{"format": "semrel-combiner", "version": 1, "w_C": %s, "w_L": 0.0, '
                      '"t": 0.5}' % ("9" * 5000), encoding="utf-8")
    with pytest.raises(DataError) as caught:
        load_combiner(target)
    assert str(caught.value) == (
        f"{target}: invalid JSON: integer {repr('9' * 40 + '…')} has too many digits")


def test_load_combiner_rejects_wrong_format():
    with pytest.raises(DataError):
        load_combiner(io.StringIO('{"format": "nope", "w_C": 1.0}'))
    with pytest.raises(DataError, match="lacks the 'w_L' field"):
        load_combiner(io.StringIO('{"format": "semrel-combiner", "version": 1, "w_C": 1.0, "t": 0.5}'))
