"""Source hygiene checks that need no linter, only the standard library."""

import ast
import pathlib
import re
import shlex
import sys

import pytest

from cylseg import cli

ROOT = pathlib.Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "cylseg"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
READERS = sorted(p for d in ("src", "tests", "perfbench") for p in (ROOT / d).rglob("*.py"))


def unused_imports(source: str):
    """(line, name) of each name a module imports and never reads."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                imported.setdefault(alias.asname or alias.name.split(".")[0], node.lineno)
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in read)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_import_is_used(path):
    assert unused_imports(path.read_text()) == []


def test_the_check_finds_unused_imports():
    source = "import os\nfrom dataclasses import dataclass, field\n\n@dataclass\nclass A:\n    x: int\n"
    assert unused_imports(source) == [(1, "os"), (2, "field")]
    assert unused_imports("import os.path\nos.path.join('a')\n") == []


def undeclared_imports(source: str, declared):
    """(line, name) of each top-level module a source imports that is
    neither the standard library, ``cylseg`` itself nor in ``declared``."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module]
        else:
            continue
        found += [(node.lineno, top) for top in (n.split(".")[0] for n in names)
                  if top not in sys.stdlib_module_names and top != "cylseg"
                  and top not in declared]
    return found


def declared_dependencies():
    """The distribution names ``pyproject.toml`` lists as runtime dependencies."""
    import tomllib  # Python 3.11 on; the package itself supports 3.10

    with open(ROOT / "pyproject.toml", "rb") as fh:
        project = tomllib.load(fh)["project"]
    return {re.match(r"[A-Za-z0-9_.-]+", dep).group() for dep in project["dependencies"]}


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_every_module_imports_only_what_the_package_declares(path):
    # the README's "the only runtime dependency is numpy"; scipy and
    # hypothesis may be installed beside it without being declared
    assert undeclared_imports(path.read_text(), declared_dependencies()) == []


def test_the_check_finds_undeclared_imports():
    source = ("from __future__ import annotations\nimport os.path, scipy.sparse\n"
              "from . import sparse\nfrom .network import Conv\nimport cylseg.cli\n"
              "def f():\n    from hypothesis import given\n    import numpy as np\n")
    assert undeclared_imports(source, {"numpy"}) == [(2, "scipy"), (7, "hypothesis")]
    assert undeclared_imports(source, set()) == [(2, "scipy"), (7, "hypothesis"), (8, "numpy")]
    assert declared_dependencies() == {"numpy"}


def private_imports(source: str):
    """(line, module, name) of each underscore-prefixed name a module imports
    from another module, dunder names aside."""
    return [(node.lineno, node.module, alias.name)
            for node in ast.walk(ast.parse(source)) if isinstance(node, ast.ImportFrom)
            for alias in node.names
            if alias.name.startswith("_") and not alias.name.startswith("__")]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_module_imports_another_modules_private_name(path):
    assert private_imports(path.read_text()) == []


def test_the_check_finds_private_imports():
    source = ("from __future__ import annotations\nfrom .sparse import (\n    KernelSpec,\n"
              "    _row_blocks,\n)\nfrom os import __doc__, _exit as leave\n")
    assert private_imports(source) == [(2, "sparse", "_row_blocks"), (6, "os", "_exit")]


def definitions(source: str):
    """(line, name) of each function, class and constant a module defines at
    its top level, dunder names aside."""
    found = []
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            found.append((node.lineno, node.name))
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            found += [(node.lineno, n.id) for t in targets for n in ast.walk(t)
                      if isinstance(n, ast.Name)]
    return [(line, name) for line, name in found if not name.startswith("__")]


def names_read(source: str):
    """Every name a source reads, bare or as an attribute; an import alone
    (an ``__init__.py`` re-export, say) reads nothing."""
    read = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            read.add(node.attr)
    return read


def test_every_definition_is_read():
    read = set().union(*(names_read(p.read_text()) for p in READERS))
    unread = [(path.name, line, name) for path in MODULES
              for line, name in definitions(path.read_text()) if name not in read]
    assert unread == []


def test_the_check_finds_unread_definitions():
    source = ("A = 1\nB, _c = 2, 3\n__all__ = []\n"
              "def f():\n    return A\nclass K:\n    pass\n")
    assert definitions(source) == [(1, "A"), (2, "B"), (2, "_c"), (4, "f"), (6, "K")]
    assert names_read(source) == {"A"}
    assert names_read("from m import f\nimport m\nm.K\nm._c = 1\n") == {"m", "K"}


def calls(source: str, wanted):
    """(line, function) of each call for which ``wanted(call)`` holds.
    ``function`` is the innermost function around the call, None at module
    level."""
    found = []

    def visit(node, function):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Call) and wanted(child):
                found.append((child.lineno, function))
            visit(child, child.name if isinstance(child, ast.FunctionDef) else function)

    visit(ast.parse(source), None)
    return found


def file_writers(source: str):
    """(line, function) of each call that opens a file for writing: ``open``
    with a mode holding w, a, x or + (or a mode that is not a literal), or
    ``tofile``."""
    def writes(call):
        name = getattr(call.func, "id", None) or getattr(call.func, "attr", None)
        mode = call.args[1] if len(call.args) > 1 else next(
            (k.value for k in call.keywords if k.arg == "mode"), None)
        return name == "tofile" or name == "open" and mode is not None and (
            not isinstance(mode, ast.Constant) or any(c in str(mode.value) for c in "wax+"))

    return calls(source, writes)


# the publisher and the CSV writer of the commands, and the writers of the
# data formats: checkpoints, .bin and .label
FILE_WRITERS = {("cli.py", "_published"), ("cli.py", "_write_csv"),
                ("network.py", "save_checkpoint"), ("pointcloud.py", "write_kitti_bin"),
                ("pointcloud.py", "write_kitti_labels")}


def test_only_the_publisher_the_csv_writer_and_the_data_formats_write_files():
    found = {(path.name, function) for path in sorted(PACKAGE.glob("*.py"))
             for _, function in file_writers(path.read_text())}
    assert found == FILE_WRITERS


def test_the_check_finds_file_writers():
    source = ("def a(p):\n    open(p, 'w').close()\n"
              "def b(p):\n    with open(p) as fh, open(p, 'rb') as gh:\n        return fh, gh\n"
              "def c(p, x, m):\n    def inner():\n        x.tofile(p)\n"
              "    open(p, mode='xb'), open(p, m), io.open(p, 'r+')\n"
              "open('log', 'a')\n")
    assert file_writers(source) == [(2, "a"), (8, "inner"), (9, "c"), (9, "c"), (9, "c"),
                                    (10, None)]


def column_reductions(source: str):
    """(line, function) of each ``sum`` or ``mean`` called as an attribute
    (``x.sum``, ``np.mean``) over axis 0, given by keyword or by position."""
    def reduces(call):
        axes = call.args + [k.value for k in call.keywords if k.arg == "axis"]
        return getattr(call.func, "attr", None) in ("sum", "mean") and any(
            isinstance(a, ast.Constant) and a.value == 0 for a in axes)

    return calls(source, reduces)


def test_sparse_and_network_sum_columns_only_in_column_sums():
    # numpy's column sum calls its inner loop once per row; column_sums and
    # column_means give its bytes faster
    found = {(name, function) for name in ("sparse.py", "network.py")
             for _, function in column_reductions((PACKAGE / name).read_text())}
    assert found == {("sparse.py", "column_sums")}


def test_the_check_finds_column_reductions():
    source = ("def f(x):\n    return x.sum(axis=0), x.sum(axis=1), x.sum(), sum(x, 0)\n"
              "def g(x):\n    return np.mean(x, 0) + x.mean(0) + x.var(axis=0)\n"
              "x.sum(keepdims=True, axis=0)\n")
    assert column_reductions(source) == [(2, "f"), (4, "g"), (4, "g"), (5, None)]


def fold_calls(source: str):
    """(line, function) of each call of a ``fold`` attribute (``norm.fold(...)``)."""
    return calls(source, lambda call: getattr(call.func, "attr", None) == "fold")


def test_only_a_chain_folds_a_batch_norm():
    # a layer that folded the norm after it would decide a second time where
    # norms fold, and its forward would grow a path per route again
    source = (PACKAGE / "network.py").read_text()
    chain = next(n for n in ast.parse(source).body if getattr(n, "name", None) == "Chain")
    found = fold_calls(source)
    assert [function for _, function in found] == ["run"]
    assert all(chain.lineno <= line <= chain.end_lineno for line, _ in found)


def test_the_check_finds_folds():
    source = ("class Affine:\n    def forward(self, x):\n        w = self.norm.fold(self, x.dtype)\n"
              "def f(norm, layer):\n    return fold(layer), norm.fold\n"
              "n.fold(layer, t)\n")
    assert fold_calls(source) == [(3, "forward"), (6, None)]


def draws(source: str):
    """(line, class, function) of each call of a ``uniform`` attribute
    (``rng.uniform(...)``): the top-level class around it (None outside
    one) and the innermost function, as ``calls`` names it."""
    classes = [n for n in ast.parse(source).body if isinstance(n, ast.ClassDef)]
    found = calls(source, lambda call: getattr(call.func, "attr", None) == "uniform")
    return [(line, next((c.name for c in classes if c.lineno <= line <= c.end_lineno), None),
             function) for line, function in found]


def test_only_a_layer_draws_its_weights():
    # a second place that drew conv weights was a second holder of them; the
    # draws are what seeded tests and checkpoints depend on
    found = [(name, owner, function) for name in ("sparse.py", "network.py")
             for _, owner, function in draws((PACKAGE / name).read_text())]
    assert found == [("network.py", "Affine", "__init__"), ("network.py", "Conv", "__init__")]


def test_the_check_finds_draws():
    source = ("class Conv:\n    def __init__(self, rng):\n"
              "        self.w = rng.uniform(-1, 1, (2, 2))\n"
              "def draw_weights(rng):\n"
              "    return np.random.uniform(0, 1), hasattr(rng, 'uniform')\n"
              "class NoDraw:\n    def uniform(self, low, high, size):\n        return draw\n"
              "draw = rng.uniform\nrng.uniform(size=3)\n")
    assert draws(source) == [(3, "Conv", "__init__"), (5, None, "draw_weights"),
                             (10, None, None)]


def loads_in_comprehensions(source: str):
    """(line, name) of each call of a name that the ``for`` clauses of the
    list, set or dict comprehension around it bind, or of a generator passed
    to ``list`` or ``tuple``: the ``load()`` of ``[load() for _, load in
    loaders]``."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if (isinstance(node, ast.Call) and getattr(node.func, "id", None) in ("list", "tuple")
                and node.args and isinstance(node.args[0], ast.GeneratorExp)):
            node = node.args[0]
        elif not isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp)):
            continue
        bound = {n.id for clause in node.generators for n in ast.walk(clause.target)
                 if isinstance(n, ast.Name)}
        found += [(call.lineno, call.func.id) for call in ast.walk(node)
                  if isinstance(call, ast.Call) and getattr(call.func, "id", None) in bound]
    return sorted(found)


def test_no_command_loads_its_scans_into_a_collection():
    # a loader called while a collection is built loads every scan before
    # the first is used; each command calls a loader in the loop that needs it
    assert loads_in_comprehensions((PACKAGE / "cli.py").read_text()) == []


def test_the_check_finds_loads_in_comprehensions():
    source = ("clouds = [load() for _, load in loaders]\n"
              "d = {n: f(x) for n, (f, x) in items}\n"
              "t = tuple(g().labels for g in makers), list(h for h in makers)\n"
              "s = {m() for m in ms if m}\n"
              "lazy = (load() for _, load in loaders), [load for _, load in loaders]\n"
              "wrapped = [wrap(load) for load in loads], list(map(call, loads))\n")
    assert loads_in_comprehensions(source) == [(1, "load"), (2, "f"), (3, "g"), (4, "m")]


def readme_commands(text: str):
    """The arguments of each ``cylseg …`` line in the code blocks of ``text``."""
    blocks = text.split("```")[1::2]
    return [shlex.split(line)[1:] for block in blocks for line in block.splitlines()
            if line.startswith("cylseg ")]


def parses(argv) -> bool:
    """Whether the command-line parser accepts ``argv``, without running it."""
    try:
        cli._build_parser().parse_args(argv)
    except SystemExit:
        return False
    return True


def test_every_command_line_in_the_readme_parses():
    commands = readme_commands((ROOT / "README.md").read_text())
    assert {argv[0] for argv in commands} == {"selftest", "train", "eval", "infer", "stats",
                                              "bound"}
    assert [argv for argv in commands if not parses(argv)] == []


def test_the_check_rejects_what_the_parser_rejects():
    text = "cylseg eval --config x\n```\ncylseg eval --config 'a b'\nrun cylseg stats\n```\n"
    assert readme_commands(text) == [["eval", "--config", "a b"]]
    assert not parses(["eval", "--config", "x"])
    assert parses(["eval", "--config", "x", "--predictions", "p"])
