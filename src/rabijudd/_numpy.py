"""numpy for the package's modules, loaded on its first attribute use.

The point list (juddian_points), svgplot and the CLI's juddian and plot
paths run on Python floats alone, so importing rabijudd does not import
numpy: `np` is a lazy module that runs numpy's import the first time a
numpy path reads one of its names. A numpy already in sys.modules is used
as it is. This is the package's only numpy import.
"""

import importlib.util
import sys


def _lazy_module(name: str):
    if name in sys.modules:
        return sys.modules[name]
    spec = importlib.util.find_spec(name)
    if spec is None:
        raise ModuleNotFoundError(f"No module named {name!r}", name=name)
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


np = _lazy_module("numpy")
