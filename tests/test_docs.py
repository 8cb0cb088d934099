"""The README's examples hold for the package as it stands."""

import importlib.util
import re
import shlex
from pathlib import Path

import semrel
from semrel.cli import build_parser
from test_acceptance import cli_workflow

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_import_block_runs():
    blocks = re.findall(r"^from semrel import \([^)]*\)", README.read_text(encoding="utf-8"),
                        flags=re.MULTILINE)
    assert blocks, "README.md has no `from semrel import (...)` block"
    for block in blocks:
        exec(block, {})


def test_every_public_name_resolves():
    assert [name for name in semrel.__all__ if not hasattr(semrel, name)] == []


def test_every_module_that_the_readme_names_exists():
    # Attributes such as `semrel.__all__` start with an underscore; modules with a letter.
    names = re.findall(r"`(semrel\.[a-z]\w*)`", README.read_text(encoding="utf-8"))
    assert names, "README.md names no `semrel.<module>`"
    assert [name for name in names if importlib.util.find_spec(name) is None] == []


# Flags that the README names for another program or as a placeholder.
NOT_SEMREL_FLAGS = {"--no-build-isolation",  # pip's
                    "--key"}  # the `--key=value` that a config line stands for


def test_every_flag_that_the_readme_names_exists():
    """A flag renamed or removed in the parser cannot stay in the README."""
    text = README.read_text(encoding="utf-8").split("## Development")[0]
    flags = set(re.findall(r"(?<![\w-])--[a-z][a-z0-9-]*", text))
    assert flags, "README.md names no flag"
    _, commands = build_parser()
    options = set().union(*(sub._option_string_actions for sub in commands.values()))
    assert sorted(flags - options - NOT_SEMREL_FLAGS) == []


# The options whose values are file paths; the walkthrough and the test
# name their files differently.
FILE_OPTIONS = {"corpus", "pairs", "output", "index", "embeddings", "model", "val", "combiner",
                "relatedness_model", "relation_model", "predictions", "config"}


def _parsed(argv):
    """The namespace of ``argv``, with each given file path as "<file>"."""
    parser, _ = build_parser()
    args = vars(parser.parse_args([str(a) for a in argv]))
    return {key: "<file>" if key in FILE_OPTIONS and value is not None else value
            for key, value in args.items()}


def test_the_walkthrough_is_the_workflow_that_criterion_7_runs():
    """Each `semrel` command of the README walkthrough parses as the step of
    test_acceptance's workflow at its place does, apart from file names."""
    text = README.read_text(encoding="utf-8")
    block = re.search(r"## Command-line walkthrough\n.*?```sh\n(.*?)```", text, flags=re.DOTALL)
    lines = block.group(1).replace("\\\n", " ").splitlines()
    walkthrough = [shlex.split(line)[1:] for line in lines if line.startswith("semrel ")]
    workflow = cli_workflow(Path("root"), Path("out"))
    assert [_parsed(step) for step in walkthrough] == [_parsed(step) for step in workflow]
