"""The README's library example runs against the package as it stands."""

import re
from pathlib import Path

import semrel

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_import_block_runs():
    blocks = re.findall(r"^from semrel import \([^)]*\)", README.read_text(encoding="utf-8"),
                        flags=re.MULTILINE)
    assert blocks, "README.md has no `from semrel import (...)` block"
    for block in blocks:
        exec(block, {})


def test_every_public_name_resolves():
    assert [name for name in semrel.__all__ if not hasattr(semrel, name)] == []
