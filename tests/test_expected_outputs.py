"""Expected-output gate: commands run through cli.main, checked against fixed literals.

Each entry holds the exit status, the exact stdout and, for every file the
command writes, its SHA-256 and line count. The literals were recorded once
by hand and are never rewritten by a test or script: a change that alters
an output byte updates the literal here and names the change.
"""

import hashlib

from rabijudd.cli import main

_OSC_HEADER = f"{'n':>4}  {'numeric':>18}  {'closed form':>18}  {'deviation':>11}\n"

# (argv, exit status, stdout, {file: (sha256, lines)}); the runs share one
# directory, in order, so plot reads the CSV that the README spectrum wrote
_EXPECTED = [
    (
        "spectrum --g-min 0.05 --g-max 0.8 --g-steps 201 --out sweep.csv",
        0, "",
        {"sweep.csv": ("63a16f61bc79b3325630850824cb5081c9414cc55a357362852505c7e7db0fc0", 3217)},
    ),
    (
        "plot --spectrum sweep.csv --out figure.svg",
        0, "",
        {"figure.svg": ("e45222eeb87a2ab0f1a050a55e08b0c468b952ea612be06b0ce171f79a9f3785", 72)},
    ),
    (
        "spectrum --g-steps 2001 --levels 16 --cutoff 60 --out wide.csv",
        0, "",
        {"wide.csv": ("949476f0d8982cb8f66cf0e6bb52095e53d97ed5d0580748d54b5dc8370208d9", 64033)},
    ),
    (
        "oscillator --type displaced --lambda 1 --cutoff 5000 --levels 5",
        0,
        _OSC_HEADER
        + "   0      0.499999999999      0.500000000000    6.501e-13\n"
        "   1      1.499999999999      1.500000000000    1.096e-12\n"
        "   2      2.500000000001      2.500000000000    7.407e-13\n"
        "   3      3.500000000000      3.500000000000    2.967e-13\n"
        "   4      4.500000000000      4.500000000000    1.457e-13\n"
        "max deviation = 1.096e-12\n",
        {},
    ),
    (
        "oscillator --type squeezed --lambda 0.3 --cutoff 5000",
        0,
        _OSC_HEADER
        + "   0      0.400000000000      0.400000000000    3.769e-13\n"
        "   1      1.200000000000      1.200000000000    2.542e-13\n"
        "   2      1.999999999999      2.000000000000    1.140e-12\n"
        "   3      2.799999999998      2.800000000000    1.527e-12\n"
        "   4      3.600000000002      3.600000000000    1.648e-12\n"
        "   5      4.400000000000      4.400000000000    2.398e-13\n"
        "   6      5.200000000001      5.200000000000    8.855e-13\n"
        "   7      5.999999999998      6.000000000000    1.540e-12\n"
        "   8      6.800000000000      6.800000000000    1.226e-13\n"
        "   9      7.600000000000      7.600000000000    2.292e-13\n"
        "max deviation = 1.648e-12\n",
        {},
    ),
]


def test_commands_print_and_write_the_expected_bytes(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    for command, status, stdout, files in _EXPECTED:
        assert main(command.split()) == status, command
        assert capsys.readouterr().out == stdout, command
        for name, (digest, lines) in files.items():
            data = (tmp_path / name).read_bytes()
            assert (hashlib.sha256(data).hexdigest(), data.count(b"\n")) == (digest, lines), f"{command}: {name}"
