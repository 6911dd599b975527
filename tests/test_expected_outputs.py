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
        "juddian --max-n 4",
        0,
        "N,index,lambda,g,E\n"
        "1,0,0.4330127019,0.2165063509,0.8125000000\n"
        "2,0,0.3323281464,0.1661640732,1.8895580031\n"
        "2,1,0.8920807156,0.4460403578,1.2041919969\n"
        "3,0,0.2801779179,0.1400889590,2.9215003343\n"
        "3,1,0.7329429773,0.3664714887,2.4627945920\n"
        "3,2,1.2327658305,0.6163829153,1.4802884071\n"
        "4,0,0.2468458798,0.1234229399,3.9390671116\n"
        "4,1,0.6398151560,0.3199075780,3.5906365661\n"
        "4,2,1.0486790241,0.5243395120,2.9002723045\n"
        "4,3,1.5164984830,0.7582492415,1.7002323512\n",
        {},
    ),
    (
        "juddian --max-n 4 --format json --out points.json",
        0, "",
        {"points.json": ("40f0a06f8f93f27686289b528db96ab2286ae4e960a922a40d3b0365443851cf", 72)},
    ),
    (
        # the baselines and point markers, which the plot above has none of
        "plot --spectrum sweep.csv --points points.json --out figure-points.svg",
        0, "",
        {"figure-points.svg": ("1d0e8b14d98fe5ff098db6047db1ce4aaabc25937a657b64928c1508b33bf23f", 86)},
    ),
    (
        # every point of every order up to the north-star N = 100: a header and 5,050 rows
        "juddian --max-n 100 --out points100.csv",
        0, "",
        {"points100.csv": ("163e48e79aca4b8caf795fa6cd20268f11d731819704fc18de090f04c027b637", 5051)},
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
