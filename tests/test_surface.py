"""The public surface: what bdom exports and what the README shows."""

import re
from pathlib import Path

import bdom

REMOVED = ("bounded_distances", "reception_undirected", "is_full", "witness_orientation")

README = Path(__file__).resolve().parents[1] / "README.md"


def test_exports_resolve_and_removed_names_are_gone():
    for name in bdom.__all__:
        assert hasattr(bdom, name), name
    text = README.read_text(encoding="utf-8")
    for name in REMOVED:
        assert name not in bdom.__all__
        assert not hasattr(bdom, name)
        assert f"`{name}`" not in text
    assert not hasattr(bdom.Digraph, "bounded_distances")
    assert bdom.Digraph.__slots__ == ("n", "out_adjacency", "_cover_cache")


def test_readme_python_snippet_runs():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    assert blocks
    for block in blocks:
        exec(compile(block, str(README), "exec"), {})
