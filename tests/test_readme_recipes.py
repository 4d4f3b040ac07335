"""README.md's first two Python blocks run as written.

They are the quickstart and the recipe for looking at a candidate's network,
the first code a reader copies.  Both run in one namespace, in a temporary
directory (the quickstart writes its evaluation cache into the working
directory), so the recipe cannot drift from the API it shows.
"""

from __future__ import annotations

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def python_blocks(text):
    """The body of every fenced ``python`` block of ``text``, in order."""
    return re.findall(r"^```python\n(.*?)^```$", text, flags=re.MULTILINE | re.DOTALL)


def test_the_quickstart_and_the_network_recipe_run(tmp_path, monkeypatch, capsys):
    quickstart, recipe = python_blocks(README.read_text(encoding="utf-8"))[:2]
    assert "MapAndConquer" in quickstart
    assert "build_dynamic_network" in recipe
    monkeypatch.chdir(tmp_path)
    namespace: dict = {}
    exec(compile(quickstart, f"{README.name}:quickstart", "exec"), namespace)
    exec(compile(recipe, f"{README.name}:recipe", "exec"), namespace)
    assert (tmp_path / "results.jsonl").is_file()
    view, best = namespace["view"], namespace["best"]
    assert view.num_stages == best.config.partition.num_stages
    assert capsys.readouterr().out
