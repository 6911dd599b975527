"""numpy loads on the first numpy path, not on `import rabijudd`.

Each test runs in a fresh interpreter, since the test process has numpy
loaded already.
"""

import subprocess
import sys

import pytest


def _run(code: str) -> None:
    proc = subprocess.run([sys.executable, "-W", "error", "-c", code],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr


def test_the_point_list_loads_no_numpy():
    # the lazy handle sits in sys.modules as "numpy"; numpy's own import,
    # which brings numpy._core, has not run
    _run(
        "import sys\n"
        "import rabijudd as rj\n"
        "import rabijudd.svgplot\n"
        "points = rj.juddian_points(20, rj.ModelParams())\n"
        "assert len(points) == 20, len(points)\n"
        "assert 'numpy._core' not in sys.modules, 'numpy loaded'\n"
    )


def test_a_numpy_loaded_first_is_used_as_it_is():
    _run(
        "import numpy\n"
        "import rabijudd.numerics\n"
        "assert rabijudd.numerics.np is numpy\n"
    )


_VERIFY = (
    "report = rj.verify_point(rj.juddian_points(1, rj.ModelParams())[0], 20)\n"
    "assert report.degeneracy_gap < 1e-9, report\n"
)


@pytest.mark.parametrize("steps", [
    [_VERIFY, "import numpy\n"],  # the package loads numpy, then the caller imports it
    ["import numpy.linalg\n", _VERIFY],  # the caller's import loads it
])
def test_numpy_imported_after_the_package_is_one_module(steps):
    _run(
        "import sys\n"
        "import rabijudd as rj\n"
        "from rabijudd import cli, numerics\n"
        "handle = numerics.np\n"
        + "".join(steps)
        + "import numpy\n"
        "assert handle is numpy is cli.np is sys.modules['numpy']\n"
        "assert numpy.linalg.eigvalsh([[2.0, 1.0], [1.0, 2.0]]).tolist() == [1.0, 3.0]\n"
    )
