"""The package layering: each ``repro`` package imports only from lower levels.

Every module's top-level imports (imports inside functions are exempt) are
read with ``ast``, resolved to the ``repro`` package they name, and checked
against ``LEVELS``.  A package may import itself and any package on a lower
level, never one on its own level or above.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

SOURCE = Path(__file__).resolve().parents[1] / "src" / "repro"

#: The ``repro`` packages and top-level modules, lowest level first.
LEVELS = (
    ("errors",),
    ("utils", "jsonl_store"),
    ("nn", "soc"),
    ("perf",),
    ("dynamics",),
    ("search",),
    ("engine",),
    ("serving",),
    ("campaign",),
    ("core",),
)
LEVEL = {name: level for level, names in enumerate(LEVELS) for name in names}


def imported_packages(module, source):
    """``(package, line)`` of every ``repro`` package ``module``'s top level imports.

    ``module`` is the dotted name as a tuple, ``__init__`` included, so its
    last part is dropped to find the package relative imports start from.
    """
    package = module[:-1]
    for node in ast.parse(source).body:
        if isinstance(node, ast.Import):
            targets = [alias.name.split(".") for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            base = list(package[: len(package) - node.level + 1]) if node.level else []
            base += node.module.split(".") if node.module else []
            # ``from repro import x`` (or ``from .. import x``) names x.
            targets = [base + [alias.name] for alias in node.names] if base == ["repro"] else [base]
        else:
            continue
        for target in targets:
            if target[0] == "repro" and len(target) > 1:
                yield target[1], node.lineno


def violations(path, source):
    """Each import of ``source`` (the module at ``path``) that breaks the layering."""
    module = ("repro", *path.relative_to(SOURCE).with_suffix("").parts)
    own = module[1]
    return [
        f"{path.relative_to(SOURCE)}:{line} ({own}) imports {target}"
        for target, line in imported_packages(module, source)
        if target != own and not LEVEL[target] < LEVEL[own]
    ]


def modules():
    """Every module of ``repro`` but the package's own ``__init__``."""
    return sorted(path for path in SOURCE.rglob("*.py") if path != SOURCE / "__init__.py")


def test_every_package_has_a_level():
    names = {path.relative_to(SOURCE).parts[0].removesuffix(".py") for path in modules()}
    assert names == set(LEVEL)


def test_each_package_imports_only_from_lower_levels():
    found = [
        problem
        for path in modules()
        for problem in violations(path, path.read_text(encoding="utf-8"))
    ]
    assert found == []


@pytest.mark.parametrize(
    ("relative", "source", "expected"),
    [
        ("nn/layers.py", "from ..perf import layer_cost\n", ["perf"]),
        ("nn/layers.py", "from ..soc.platform import Platform\n", ["soc"]),
        ("perf/schedule.py", "from .. import serving\n", ["serving"]),
        ("utils.py", "import repro.jsonl_store\n", ["jsonl_store"]),
        ("nn/models/vit.py", "from ...search import space\n", ["search"]),
        ("search/space.py", "from ..nn.layers import Layer\nfrom .pareto import x\n", []),
        ("engine/engine.py", "def late():\n    from ..core import framework\n", []),
    ],
)
def test_the_scan_catches_an_upward_import(relative, source, expected):
    found = violations(SOURCE / relative, source)
    assert [problem.rsplit(" ", 1)[-1] for problem in found] == expected
