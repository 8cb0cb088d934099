"""tools/compare_artifacts.py: the comparison of two JSON documents behind its
"0 differ" and its largest numeric difference, the masking of each side's
output directory in what the commands print, the --help texts it compares,
the count of each side's source lines, the median and range of the peak
memory of a side's runs, and the check that a later run repeats its side's first."""

import importlib.util
from pathlib import Path

import pytest

from semrel.cli import build_parser

_PATH = Path(__file__).resolve().parent.parent / "tools" / "compare_artifacts.py"
_SPEC = importlib.util.spec_from_file_location("compare_artifacts", _PATH)
compare_artifacts = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(compare_artifacts)
largest_difference = compare_artifacts.largest_difference
masked_output = compare_artifacts.masked_output
line_count = compare_artifacts.line_count
help_texts = compare_artifacts.help_texts
peak_summary = compare_artifacts.peak_summary
rerun_differences = compare_artifacts.rerun_differences

MODEL = {"format": "m", "w": [[0.5, -1.0], [2.0, 3.0]], "meta": {"seed": 7, "tokens": ["a"]},
         "w2": None, "flag": True}


def test_equal_documents_differ_by_zero():
    assert largest_difference(MODEL, {**MODEL}) == 0.0


def test_the_largest_numeric_difference_is_found_in_nested_lists_and_dicts():
    other = {**MODEL, "w": [[0.5, -1.0], [2.0, 3.0 + 1e-12]], "meta": {"seed": 9, "tokens": ["a"]}}
    assert largest_difference(MODEL, other) == 2.0
    other["meta"] = MODEL["meta"]
    assert largest_difference(MODEL, other) == pytest.approx(1e-12, rel=1e-3)


@pytest.mark.parametrize("change", [
    lambda doc: dict(reversed(list(doc.items()))),  # another key order
    lambda doc: {**doc, "w": doc["w"][:1]},  # another list length
    lambda doc: {**doc, "flag": 1},  # True against 1
    lambda doc: {**doc, "format": "n"},  # another string
    lambda doc: {**doc, "w2": 0.0},  # null against a number
], ids=["key-order", "list-length", "true-vs-1", "string", "null"])
def test_documents_of_another_structure_have_no_numeric_difference(change):
    other = change(MODEL)
    assert largest_difference(MODEL, other) is None
    assert largest_difference(other, MODEL) is None


def test_each_sides_output_directory_is_masked_and_the_rest_of_the_text_kept():
    world, parent, change = Path("/w/acc-1/world"), Path("/w/acc-1/parent"), Path("/w/acc-1/change")

    def printed(out):
        return (f"trained relations model on 4 pairs (5 epochs, seed 7) -> {out / 'relations.json'}\n"
                f"read {world / 'val.tsv'}; wrote 3 predictions -> {out / 'pred.tsv'}\n")

    assert masked_output(printed(parent), parent) == masked_output(printed(change), change) == (
        "trained relations model on 4 pairs (5 epochs, seed 7) -> <out>/relations.json\n"
        "read /w/acc-1/world/val.tsv; wrote 3 predictions -> <out>/pred.tsv\n")
    assert masked_output(printed(parent), parent) != masked_output(printed(parent), change)


def test_the_line_count_counts_the_newlines_of_the_package_modules_only(tmp_path):
    package = tmp_path / "semrel"
    (package / "sub").mkdir(parents=True)
    (package / "a.py").write_text("x = 1\n\ny = 2\n")
    (package / "b.py").write_text("z = 3")  # no final newline, which wc -l does not count
    (package / "notes.txt").write_text("not a module\n")
    (package / "sub" / "c.py").write_text("in a subpackage\n")
    assert line_count(tmp_path) == 3


def test_the_help_texts_compared_are_those_of_semrel_and_of_every_command():
    assert compare_artifacts.COMMANDS == tuple(build_parser()[1])
    texts = help_texts(_PATH.parent.parent / "src")
    commands = compare_artifacts.COMMANDS
    assert list(texts) == ["semrel --help", *(f"semrel {c} --help" for c in commands)]
    for line, (code, out, err) in texts.items():
        assert (code, err) == (0, ""), line
        assert out.startswith("usage: " + line.removesuffix(" --help")), line


def test_a_command_peak_is_the_median_and_range_of_the_runs_that_reached_it():
    runs = [{"extract": 30.0, "train_relations": 45.2, "predict": 40.0},
            {"extract": 31.0, "train_relations": 44.2},  # stopped after train_relations
            {"extract": 29.5, "train_relations": 45.5, "predict": 41.0}]
    assert list(peak_summary(runs)) == ["extract", "train_relations", "predict"]
    assert peak_summary(runs) == {"extract": (29.5, 30.0, 31.0),
                                  "train_relations": (44.2, 45.2, 45.5),
                                  "predict": (40.0, 40.5, 41.0)}
    assert peak_summary(runs[:1]) == {stage: (mb, mb, mb) for stage, mb in runs[0].items()}


def _write_run(out, index=b"x\ty\tX/NOUN/nsubj/^\n"):
    out.mkdir()
    for name in compare_artifacts.ARTIFACTS:
        (out / name).write_bytes(index if name == "index.tsv" else name.encode())
    for stage in compare_artifacts.STAGES:
        (out / f"{stage}.stdout").write_text(f"{stage} -> {out / 'pred.tsv'}\n")
    return out


def test_a_rerun_must_repeat_each_artifact_and_output_of_its_sides_first_run(tmp_path):
    """Only the bytes count, and the run's own directory in what it printed
    is masked; an artifact or output that one run lacks differs too."""
    first = _write_run(tmp_path / "parent-0")
    assert rerun_differences(first, _write_run(tmp_path / "parent-1")) == []
    later = _write_run(tmp_path / "parent-2", index=b"x\ty\tX/NOUN/nsubj/^ \n")
    (later / "report.tsv").unlink()
    (later / "tune.stdout").write_text("tune -> elsewhere\n")
    (later / "evaluate.stdout").unlink()
    assert rerun_differences(first, later) == ["index.tsv", "report.tsv", "output of tune",
                                               "output of evaluate"]
    assert rerun_differences(later, first) == rerun_differences(first, later)
