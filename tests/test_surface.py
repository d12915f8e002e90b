"""The public surface: what bdom exports and what the README shows."""

import ast
import builtins
import re
import sys
from pathlib import Path

import bdom
import bdom.errors

REMOVED = (
    "bounded_distances",
    "reception_undirected",
    "is_full",
    "witness_orientation",
    "build_graph",
)

ROOT = Path(__file__).resolve().parents[1]
README = ROOT / "README.md"


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


def test_package_imports_only_the_stdlib():
    # dependencies = [] holds only while every absolute import is stdlib
    sources = sorted((ROOT / "src" / "bdom").glob("*.py"))
    assert sources
    for path in sources:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                assert name.split(".")[0] in sys.stdlib_module_names, (path.name, name)
    pyproject = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    assert re.search(r"^dependencies = \[\]$", pyproject, re.M)


def _raises(node, function=None):
    """(enclosing function name, Raise node) for every raise under node."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.Raise):
            yield function, child
        inner = child.name if isinstance(child, ast.FunctionDef) else function
        yield from _raises(child, inner)


def test_every_raise_is_a_bdom_error():
    # the CLI maps BdomError subclasses to exit codes 2-4; anything else
    # leaves the package as an internal error (exit 5)
    allowed = {("solver.py", "gamma_bruteforce", "AssertionError")}
    seen = set()
    for path in sorted((ROOT / "src" / "bdom").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        found = list(_raises(tree))
        assert len(found) == sum(isinstance(n, ast.Raise) for n in ast.walk(tree))
        for function, node in found:
            where = f"{path.name}:{node.lineno}"
            assert isinstance(node.exc, ast.Call), where
            assert isinstance(node.exc.func, ast.Name), where
            name = node.exc.func.id
            if (path.name, function, name) in allowed:
                seen.add((path.name, function, name))
                continue
            cls = getattr(bdom.errors, name, None) or getattr(builtins, name)
            assert issubclass(cls, bdom.errors.BdomError), (where, name)
    assert seen == allowed


def test_every_private_helper_is_used():
    # a helper that a refactor replaced must go with it: each module-level
    # _function is named somewhere in the package outside its own body
    trees = {
        path.name: ast.parse(path.read_text(encoding="utf-8"))
        for path in sorted((ROOT / "src" / "bdom").glob("*.py"))
    }
    helpers = [
        (name, node)
        for name, tree in trees.items()
        for node in tree.body
        if isinstance(node, ast.FunctionDef) and node.name.startswith("_")
    ]
    assert helpers
    for module, helper in helpers:
        own = {id(node) for node in ast.walk(helper)}
        uses = [
            node
            for tree in trees.values()
            for node in ast.walk(tree)
            if id(node) not in own
            and (
                isinstance(node, ast.Name) and node.id == helper.name
                or isinstance(node, ast.Attribute) and node.attr == helper.name
            )
        ]
        assert uses, f"{module}: {helper.name} is never used"
