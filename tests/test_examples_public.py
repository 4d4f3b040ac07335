"""The examples use the public API: none imports a name that starts with ``_``.

An example is what a user copies.  A private name it imports is one the
library may rename or delete without notice, so every ``import`` and
``from ... import`` in ``examples/*.py`` is parsed with :mod:`ast` and each
imported name (and each component of a dotted ``import a.b``) is checked.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

EXAMPLES = sorted((Path(__file__).resolve().parents[1] / "examples").glob("*.py"))


def _private_imports(path: Path):
    """``(line, name)`` of every ``_``-prefixed name ``path`` imports."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.Import):
            names = [part for alias in node.names for part in alias.name.split(".")]
        else:
            continue
        found += [(node.lineno, name) for name in names if name.startswith("_")]
    return found


def test_examples_exist():
    assert len(EXAMPLES) >= 10


@pytest.mark.parametrize("path", EXAMPLES, ids=[path.name for path in EXAMPLES])
def test_example_imports_no_private_name(path):
    assert _private_imports(path) == []


def test_the_check_sees_private_names(tmp_path):
    example = tmp_path / "example.py"
    example.write_text(
        "from __future__ import annotations\n"
        "import repro._hidden\n"
        "from repro.campaign.fleet_runner import FleetMix, _mix_instances\n",
        encoding="utf-8",
    )
    assert _private_imports(example) == [(2, "_hidden"), (3, "_mix_instances")]
