"""Rules the package source keeps, checked on its syntax trees."""

import ast
import functools
import re
from pathlib import Path

import pytest

import rabijudd
import rabijudd.svgplot  # noqa: F401  (perfbench/run.py imports it for rj.svgplot)

_SOURCES = sorted(Path(rabijudd.__file__).parent.glob("*.py"))
_PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
# rj.<name> or a dotted chain such as rj.svgplot.render_figure, in code or in a
# code string: the benchmark calls the package as the module rj
_RJ_NAME = re.compile(r"\brj((?:\.\w+)+)")
# a dotted name with a linalg part, as an import path or an importlib argument
_LINALG_NAME = re.compile(r"^(\w+\.)*linalg(\.\w+)*$")
# numpy or a numpy submodule, as an import path or an importlib argument
_NUMPY_NAME = re.compile(r"^numpy(\.\w+)*$")
# the one module that imports numpy, lazily, for all the others
_NUMPY_HELPER = "_numpy.py"


def _uses(tree: ast.AST, pattern: re.Pattern) -> list[tuple[int, str]]:
    """Lines and names matching pattern: import paths, imported and attribute names, strings."""
    uses = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            names = [node.module or ""] + [alias.name for alias in node.names]
        elif isinstance(node, ast.Attribute):
            names = [node.attr]
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            names = [node.value]
        else:
            continue
        uses += [(node.lineno, name) for name in names if pattern.match(name)]
    return uses


def test_the_package_sources_are_all_found():
    assert {"numerics.py", "rabi.py", "bosons.py", "juddian.py", "cli.py", _NUMPY_HELPER} <= {
        p.name for p in _SOURCES
    }


@pytest.mark.parametrize("path", _SOURCES, ids=lambda p: p.name)
def test_no_numpy_linalg_in_the_package(path):
    # the package solves its own eigenproblems; numpy.linalg (or any linalg
    # module) is left to the tests and the benchmark oracle as an outside check
    assert _uses(ast.parse(path.read_text(), filename=str(path)), _LINALG_NAME) == []


@pytest.mark.parametrize("source", [
    "import numpy.linalg",
    "from numpy import linalg as la",
    "from numpy.linalg import eigvalsh",
    "from scipy import linalg",
    "import numpy as np\nnp.linalg.eigvalsh",
    "import importlib\nimportlib.import_module('numpy.linalg')",
])
def test_the_rule_catches_each_form(source):
    assert _uses(ast.parse(source), _LINALG_NAME)


@pytest.mark.parametrize("path", _SOURCES, ids=lambda p: p.name)
def test_numpy_is_imported_by_the_helper_alone(path):
    # the other modules take np from the helper, so `import rabijudd` loads no
    # numpy until a numpy path runs
    imports = _uses(ast.parse(path.read_text(), filename=str(path)), _NUMPY_NAME)
    assert bool(imports) == (path.name == _NUMPY_HELPER), imports


@pytest.mark.parametrize("source", [
    "import numpy as np",
    "import numpy",
    "import numpy.linalg",
    "from numpy import ndarray",
    "from numpy.linalg import eigvalsh",
    "def f():\n    import numpy as np\n    return np",
    "import importlib\nimportlib.import_module('numpy')",
])
def test_the_numpy_rule_catches_each_form(source):
    assert _uses(ast.parse(source), _NUMPY_NAME)


def _resolves(dotted: str) -> bool:
    try:
        functools.reduce(getattr, dotted.split(".")[1:], rabijudd)
    except AttributeError:
        return False
    return True


def test_every_name_the_benchmark_calls_resolves():
    # the benchmark runs on its own copy of the sources; a package name it
    # calls that is renamed or deleted would otherwise first fail there
    names = {"rj" + m for path in _PERFBENCH.glob("*.py") for m in _RJ_NAME.findall(path.read_text())}
    assert {"rj.sym_eig", "rj.null_vector", "rj.svgplot.render_figure"} <= names
    assert sorted(name for name in names if not _resolves(name)) == []
