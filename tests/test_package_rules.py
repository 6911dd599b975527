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
# the package modules, each importing only those before it; the package's
# __init__ and __main__ stand above them all
_LAYERS = ("_numpy", "numerics", "bosons", "rabi", "juddian", "svgplot", "cli")
_ENTRY_POINTS = ("__init__", "__main__")


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


def _package_imports(tree: ast.AST) -> list[tuple[int, str]]:
    """Lines and package modules of every import at any depth, relative or
    through rabijudd; the package itself counts as __init__."""
    imports = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            paths = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            module = ".".join(filter(None, ["rabijudd" if node.level else "", node.module]))
            # from . import x and from rabijudd import x name modules or __init__'s names
            paths = [f"{module}.{alias.name}" for alias in node.names] if module == "rabijudd" else [module]
        else:
            continue
        imports += [(node.lineno, (path + ".__init__").split(".")[1]) for path in paths
                    if path.split(".")[0] == "rabijudd"]
    return imports


def _layer_breaches(tree: ast.AST, name: str) -> list[tuple[int, str]]:
    """The imports of module `name` that are not of a module below it."""
    below = _LAYERS[:_LAYERS.index(name)]
    return [(line, module) for line, module in _package_imports(tree) if module not in below]


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


def test_every_module_has_a_layer():
    assert sorted(p.stem for p in _SOURCES) == sorted(_LAYERS + _ENTRY_POINTS)


@pytest.mark.parametrize("path", [p for p in _SOURCES if p.stem not in _ENTRY_POINTS], ids=lambda p: p.name)
def test_modules_import_only_the_layers_below(path):
    # the imports run one way, _numpy -> numerics -> bosons -> rabi -> juddian
    # -> svgplot -> cli, so no module waits on one above it to load
    assert _layer_breaches(ast.parse(path.read_text(), filename=str(path)), path.stem) == []


@pytest.mark.parametrize("source", [
    "def f():\n    from .juddian import juddian_points",
    "from .juddian import juddian_points",
    "from . import juddian",
    "from . import numerics, cli",
    "import rabijudd.juddian",
    "from rabijudd.juddian import verify_point",
    "from rabijudd import juddian_points",
    "import rabijudd",
    "from .rabi import ModelParams",
    "class A:\n    def f(self):\n        import rabijudd.svgplot as s",
])
def test_the_layer_rule_catches_each_form(source):
    assert _layer_breaches(ast.parse(source), "rabi")


@pytest.mark.parametrize("source", [
    "from .bosons import support_rows",
    "from . import numerics",
    "import rabijudd.numerics",
    "from rabijudd._numpy import np",
    "import math\nfrom dataclasses import dataclass",
    "from rabijudd_extra import rabi",
])
def test_the_layer_rule_passes_the_layers_below(source):
    assert _layer_breaches(ast.parse(source), "rabi") == []


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


def _referrers(tree: ast.AST, module: str, name: str) -> set[str]:
    """module.f for each top-level function or class f that names `name` (a
    call, an attribute or a value), and module for a top-level statement that does."""
    found = set()
    for top in tree.body:
        for node in ast.walk(top):
            if (isinstance(node, ast.Name) and node.id == name) or (
                    isinstance(node, ast.Attribute) and node.attr == name):
                found.add(f"{module}.{top.name}" if hasattr(top, "name") else module)
    return found


# each Sturm kernel does one job (ROADMAP aim 2): the lockstep walk serves the
# sweep alone, the scalar count the block certificate and the single-matrix
# bisection, the compatibility count the root search
_KERNEL_CALLERS = {
    "_sturm_lowest_batch": {"rabi.spectrum_sweep"},
    "_sturm_count": {"juddian._block_counter", "numerics.tridiag_eigvals_lowest"},
    "_compatibility_count": {"juddian._compatibility_roots"},
}


@pytest.mark.parametrize("kernel", sorted(_KERNEL_CALLERS))
def test_each_sturm_kernel_has_only_its_own_callers(kernel):
    callers = set()
    for path in _SOURCES:
        callers |= _referrers(ast.parse(path.read_text(), filename=str(path)), path.stem, kernel)
    assert callers == _KERNEL_CALLERS[kernel]


@pytest.mark.parametrize("source, want", [
    ("def f(d, e, k):\n    return _sturm_lowest_batch(d[None, :], e[:, None], k)[0, 0]", {"m.f"}),
    ("def f(x):\n    def g():\n        return numerics._sturm_count(x)\n    return g", {"m.f"}),
    ("class A:\n    kernel = staticmethod(_sturm_count)", {"m.A"}),
    ("x = _sturm_count(1)", {"m"}),
    ("from .numerics import _sturm_count\ndef f():\n    return '_sturm_count'", set()),
])
def test_the_caller_scan_finds_each_form(source, want):
    name = "_sturm_lowest_batch" if "batch" in source else "_sturm_count"
    assert _referrers(ast.parse(source), "m", name) == want


def test_every_mutant_text_occurs_once_in_its_module():
    # tests/mutants.py is run by hand; a refactor that moves or rewrites a
    # mutated line would otherwise first show when the harness refuses it
    import mutants

    texts = {module: (Path(rabijudd.__file__).parent / module).read_text() for _, module, _, _ in mutants.MUTANTS}
    assert len({name for name, *_ in mutants.MUTANTS}) == len(mutants.MUTANTS)
    assert [(name, texts[module].count(old)) for name, module, old, _ in mutants.MUTANTS if texts[module].count(old) != 1] == []
