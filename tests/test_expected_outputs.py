"""Expected-output gate: commands run through cli.main, checked against fixed literals.

Each entry holds the exit status, the exact stdout (or, for a long one,
its SHA-256 and line count) and stderr and, for every file the command
writes, its SHA-256 and line count. The literals were recorded once
by hand and are never rewritten by a test or script: a change that alters
an output byte updates the literal here and names the change. Two sweep
tables, which the CSV prints to 12 digits only, are gated by the SHA-256 of
their bits.
"""

import hashlib

import numpy as np

from rabijudd.cli import main
from rabijudd.rabi import ModelParams, spectrum_sweep

_OSC_HEADER = f"{'n':>4}  {'numeric':>18}  {'closed form':>18}  {'deviation':>11}\n"
_VERIFY_HEADER = f"{'index':>5}  {'g':>14}  {'E':>14}  {'gap':>11}  {'eig_resid':>11}  status\n"

# (argv, exit status, stdout or its (sha256, lines), stderr, {file: (sha256, lines)}); the runs share one
# directory, in order, so plot reads the CSV that the README spectrum wrote
_EXPECTED = [
    (
        "spectrum --g-min 0.05 --g-max 0.8 --g-steps 201 --out sweep.csv",
        0, "", "",
        {"sweep.csv": ("63a16f61bc79b3325630850824cb5081c9414cc55a357362852505c7e7db0fc0", 3217)},
    ),
    (
        "plot --spectrum sweep.csv --out figure.svg",
        0, "", "",
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
        "",
        {},
    ),
    (
        "juddian --max-n 4 --format json --out points.json",
        0, "", "",
        {"points.json": ("40f0a06f8f93f27686289b528db96ab2286ae4e960a922a40d3b0365443851cf", 72)},
    ),
    (
        # the baselines and point markers, which the plot above has none of
        "plot --spectrum sweep.csv --points points.json --out figure-points.svg",
        0, "", "",
        {"figure-points.svg": ("1d0e8b14d98fe5ff098db6047db1ce4aaabc25937a657b64928c1508b33bf23f", 86)},
    ),
    (
        # every point of every order up to the north-star N = 100: a header and 5,050 rows
        "juddian --max-n 100 --out points100.csv",
        0, "", "",
        {"points100.csv": ("163e48e79aca4b8caf795fa6cd20268f11d731819704fc18de090f04c027b637", 5051)},
    ),
    (
        "spectrum --g-steps 2001 --levels 16 --cutoff 60 --out wide.csv",
        0, "", "",
        {"wide.csv": ("949476f0d8982cb8f66cf0e6bb52095e53d97ed5d0580748d54b5dc8370208d9", 64033)},
    ),
    (
        # the north-star grid size: a header and 2 parities x 8 levels per point
        "spectrum --g-steps 10001 --out sweep10001.csv",
        0, "", "",
        {"sweep10001.csv": ("f6490c53d08062a6230cea9f858ca327e410222d0dec917c7054a4ce77d828a2", 160017)},
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
        "",
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
        "",
        {},
    ),
    # verify prints a row per point; at the default cutoff 100 the points of
    # order 30 past g = 1.5 fail for want of a larger support R, and the
    # failure summary goes to stderr
    (
        "verify --n 4",
        0,
        _VERIFY_HEADER
        + "    0    0.1234229399    3.9390671116    2.968e-12    5.631e-16  ok\n"
        "    1    0.3199075780    3.5906365661    3.191e-12    1.088e-15  ok\n"
        "    2    0.5243395120    2.9002723045    3.423e-12    1.502e-15  ok\n"
        "    3    0.7582492415    1.7002323512    3.688e-12    2.108e-15  ok\n"
        "all 4 points verified at cutoff 100\n",
        "",
        {},
    ),
    (
        "verify --n 6 --omega0 2.6 --cutoff 200",
        0,
        _VERIFY_HEADER
        + "    0    0.2075415301    5.8277060531    6.026e-12    8.745e-16  ok\n"
        "    1    0.3880098544    5.3977934117    6.316e-12    1.525e-15  ok\n"
        "    2    0.5642139244    4.7266505899    6.599e-12    3.078e-15  ok\n"
        "    3    0.7502600867    3.7484392092    6.898e-12    4.557e-15  ok\n"
        "    4    0.9626101795    2.2935265694    7.239e-12    9.425e-15  ok\n"
        "all 5 points verified at cutoff 200\n",
        "",
        {},
    ),
    (
        "verify --n 30",
        1,
        _VERIFY_HEADER
        + "    0    0.0473373520   29.9910367004    2.883e-12    8.050e-15  ok\n"
        "    1    0.1211544670   29.9412863805    2.965e-12    9.421e-15  ok\n"
        "    2    0.1933062229   29.8505308167    3.047e-12    2.404e-14  ok\n"
        "    3    0.2651543817   29.7187726155    3.129e-12    2.324e-14  ok\n"
        "    4    0.3370009127   29.5457215394    3.210e-12    1.308e-14  ok\n"
        "    5    0.4089837447   29.3309291862    3.292e-12    2.990e-14  ok\n"
        "    6    0.4811946337   29.0738068981    3.374e-12    2.985e-14  ok\n"
        "    7    0.5537093788   28.7736236955    3.456e-12    4.473e-14  ok\n"
        "    8    0.6265985860   28.4294968483    3.539e-12    5.451e-14  ok\n"
        "    9    0.6999325671   28.0403776058    3.622e-12    3.337e-14  ok\n"
        "   10    0.7737841551   27.6050323250    3.705e-12    5.157e-14  ok\n"
        "   11    0.8482307476   27.1220183953    3.790e-12    5.353e-14  ok\n"
        "   12    0.9233561320   26.5896538143    3.875e-12    3.490e-14  ok\n"
        "   13    0.9992523813   26.0059787139    3.961e-12    6.453e-14  ok\n"
        "   14    1.0760220239   25.3687064167    4.048e-12    4.873e-14  ok\n"
        "   15    1.1537806775   24.6751605928    4.136e-12    8.759e-14  ok\n"
        "   16    1.2326603772   23.9221935775    4.226e-12    3.694e-12  ok\n"
        "   17    1.3128139037   23.1060786168    4.317e-12    1.550e-10  ok\n"
        "   18    1.3944205628   22.2223651759    4.409e-12    4.970e-09  ok\n"
        "   19    1.4776941037   21.2656805439    4.504e-12    1.242e-07  ok\n"
        "   20    1.5628938720   20.2294509800    4.600e-12    2.456e-06  FAIL"
        " (cutoff 100 is below the support R = 214 of order 30 at lambda = 3.1257877439;"
        " use --cutoff >= 214)\n"
        "   21    1.6503410212   19.1054980552    1.203e-09    3.885e-05  FAIL"
        " (cutoff 100 is below the support R = 219 of order 30 at lambda = 3.3006820424;"
        " use --cutoff >= 219)\n"
        "   22    1.7404429593   17.8834332212    1.967e-08    4.945e-04  FAIL"
        " (cutoff 100 is below the support R = 224 of order 30 at lambda = 3.4808859187;"
        " use --cutoff >= 224)\n"
        "   23    1.8337318875   16.5497094584    5.146e-06    5.071e-03  FAIL"
        " (cutoff 100 is below the support R = 230 of order 30 at lambda = 3.6674637751;"
        " use --cutoff >= 230)\n"
        "   24    1.9309289923   15.0860529075    1.347e-03    4.162e-02  FAIL"
        " (cutoff 100 is below the support R = 236 of order 30 at lambda = 3.8618579845;"
        " use --cutoff >= 236)\n"
        "   25    2.0330591810   13.4666814659            -            -  FAIL"
        " (no eigenvalue within 1e-3 of E=13.466681 in the parity +1 block at cutoff 100;"
        " increase the cutoff;"
        " cutoff 100 is below the support R = 242 of order 30 at lambda = 4.0661183620;"
        " use --cutoff >= 242)\n"
        "   26    2.1416764110   11.6528886014            -            -  FAIL"
        " (no eigenvalue within 1e-3 of E=11.652889 in the parity +1 block at cutoff 100;"
        " increase the cutoff;"
        " cutoff 100 is below the support R = 249 of order 30 at lambda = 4.2833528221;"
        " use --cutoff >= 249)\n"
        "   27    2.2593693162    9.5810011729            -            -  FAIL"
        " (no eigenvalue within 1e-3 of E=9.581001 in the parity +1 block at cutoff 100;"
        " increase the cutoff;"
        " cutoff 100 is below the support R = 256 of order 30 at lambda = 4.5187386323;"
        " use --cutoff >= 256)\n"
        "   28    2.3911566618    7.1294792753            -            -  FAIL"
        " (no eigenvalue within 1e-3 of E=7.129479 in the parity +1 block at cutoff 100;"
        " increase the cutoff;"
        " cutoff 100 is below the support R = 265 of order 30 at lambda = 4.7823133236;"
        " use --cutoff >= 265)\n"
        "   29    2.5501450400    3.9870410992            -            -  FAIL"
        " (no eigenvalue within 1e-3 of E=3.987041 in the parity +1 block at cutoff 100;"
        " increase the cutoff;"
        " cutoff 100 is below the support R = 275 of order 30 at lambda = 5.1002900801;"
        " use --cutoff >= 275)\n",
        "verification FAILED at cutoff 100; a larger --cutoff may be needed; largest tail weight 5.567e-03\n",
        {},
    ),
    (
        # every point of the north-star order at a cutoff above each support R:
        # a header, 100 rows and "all 100 points verified at cutoff 2500"
        "verify --n 100 --cutoff 2500",
        0,
        ("f58155a3fce05356a80ed5c03d91a62a12918ffb4fb7854a0d507d23c80162dd", 102),
        "",
        {},
    ),
]


def test_commands_print_and_write_the_expected_bytes(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    for command, status, stdout, stderr, files in _EXPECTED:
        assert main(command.split()) == status, command
        out, err = capsys.readouterr()
        if isinstance(stdout, tuple):
            out = (hashlib.sha256(out.encode()).hexdigest(), out.count("\n"))
        assert (out, err) == (stdout, stderr), command
        for name, (digest, lines) in files.items():
            data = (tmp_path / name).read_bytes()
            assert (hashlib.sha256(data).hexdigest(), data.count(b"\n")) == (digest, lines), f"{command}: {name}"


# the spectrum CSV prints 12 significant digits, so a level moved by one ulp
# prints the same bytes; the tables behind the README sweep and the wide one
# are gated bit for bit: (g grid, cutoff, levels per block) -> SHA-256 of
# levels_plus then levels_minus, C order
_SWEEP_TABLES = [
    ((0.05, 0.8, 201), 100, 8, "3a7da73eae3e770146be0df128439fd45a5971af6f1a83f5e18b5bf00a9e004b"),
    ((0.05, 0.8, 2001), 60, 16, "3c4ffbe3aad698df7551a2d8a594d8ca3451a451d4fe86993105b2a0e088909f"),
]


def test_sweep_tables_keep_every_bit():
    for grid, cutoff, levels, digest in _SWEEP_TABLES:
        table = spectrum_sweep(ModelParams(), np.linspace(*grid), cutoff=cutoff, levels_per_block=levels)
        data = table.levels_plus.tobytes() + table.levels_minus.tobytes()
        assert hashlib.sha256(data).hexdigest() == digest, grid
