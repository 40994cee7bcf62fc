"""Exact stdout of the CLI and the text renderers on fixed inputs.

Every expected string below is pinned byte for byte, so any change to a
value, a label, the decimal annotation or the CSV layout shows up here.
`fuzz` and `report` are pinned through the sampler (the first columns
`random_columns` draws), through their text at fixed seeds, and through
digests: bezout and lemma CSV, and af-square text.  The bezout digest was
updated on purpose when trial seeds changed from seed XOR trial to
`rng.trial_seed`, which mixes (seed, trial); the sampler draws did not move.
"""

import hashlib

import pytest

from zonomix.cli import main
from zonomix.numeric import render_matrix, vec3
from zonomix.rng import SplitMix64, random_columns
from zonomix.zonotope import Zonotope3, render_zonotope
from oracles import random_rational

INPUTS = {
    "A": "# body A\nzonotope3\n1 2 3\n\n1/2 -1 0\n0 1 -2/3\n# last one\n2 0 1\n",
    "B": "zonotope3\n1 0 0\n1/3 1 1\n",
    "C": "zonotope3\n0 1 0\n-1 1/2 2\n",
    "D": "zonotope3\n1 1 1\n0 -2 1/5\n3 0 1\n",
    "E": "# no generators\nzonotope3\n",
    "M": "matrix 3 4\n1 1/2 0 2\n# second row\n2 -1 1 0\n\n3 0 -2/3 1\n",
    "T": "matrix 3 3\n1 0 0\n0 2 0\n0 0 1/3\n",
    "G": "matrix 3 6\n1 1/2 0 2 1 0\n2 -1 1 0 0 1\n3 0 -2/3 1 0 0\n",
    "Z": "matrix 3 0\n",
}

BEZOUT_TEXT = """\
lhs   = 14749/216 (68.2824074074)
rhs   = 21533/162 (132.919753086)
slack = 41885/648 (64.6373456790)
ratio = 132741/172264 (0.770567268843)
holds = yes
"""

BEZOUT_CSV = ("lhs,rhs,slack,ratio,holds\n"
              "14749/216,21533/162,41885/648,132741/172264,True\n")

LEMMA_TEXT = """\
lhs   = 686/9 (76.2222222222)
rhs   = 112 (112)
slack = 322/9 (35.7777777778)
ratio = 49/72 (0.680555555556)
holds = yes
"""

MINORS_SEED5 = """\
1,2,3,-124067/15120
1,2,4,22093/2496
1,2,5,7174/195
1,2,6,10951/5400
1,3,4,-2315/1728
1,3,5,-103841/8820
1,3,6,-1330121/226800
1,4,5,2249/336
1,4,6,51799/8640
1,5,6,73663/3150
2,3,4,60611/78624
2,3,5,-193019/15288
2,3,6,-68701/7560
2,4,5,149173/8736
2,4,6,561221/56160
2,5,6,13695/364
3,4,5,-44699/14112
3,4,6,-92293/45360
3,5,6,-70823/17640
4,5,6,-40409/10080
"""

# The worst case of this run has 5 columns, written back as 3 rows.
LEMMA_FUZZ_SEED45 = """\
target      = lemma
trials      = 10
seed        = 45
failures    = 0
min slack   = 462747266993/32006016000 (14.4581339643)
max ratio   = 694055851250/847087820683 (0.819343442679)
worst case (minimum slack):
matrix 3 5
13/5 1/9 2 1/2 15/14
-3/7 -1/6 11/8 -8/9 0
-11/16 -1 -4/15 1/3 2/7
"""

REPORT_SEED3 = """\
== 4-generator equality configuration
lhs   = 8/3 (2.66666666667)
rhs   = 8/3 (2.66666666667)
slack = 0 (0)
ratio = 3/2 (1.5)
holds = yes

== square pyramid segment witness
lhs   = 1/18 (0.0555555555556)
rhs   = 1/18 (0.0555555555556)
slack = 0 (0)
ratio = 2 (2)
holds = yes

== unit cube vs its edge segments
lhs   = 1/6 (0.166666666667)
rhs   = 1/6 (0.166666666667)
slack = 0 (0)
ratio = 3/2 (1.5)
holds = yes

== generator-matrix form on the cube
lhs   = 1 (1)
rhs   = 1 (1)
slack = 0 (0)
ratio = 1 (1)
holds = yes

== quadratic minor inequality (6 columns)
lhs   = 16 (16)
rhs   = 16 (16)
slack = 0 (0)
ratio = 1 (1)
holds = yes

== exchange-relation residuals all zero: yes

fuzz bezout    trials=20 failures=0 min_slack=0
fuzz lemma     trials=20 failures=0 min_slack=0
fuzz af_square trials=20 failures=0 min_slack=726786215823401/8449588224000
"""

REPORT_SEED3_CSV = """\
name,lhs,rhs,slack,ratio,holds
4-generator equality configuration,8/3,8/3,0,3/2,True
square pyramid segment witness,1/18,1/18,0,2,True
unit cube vs its edge segments,1/6,1/6,0,3/2,True
generator-matrix form on the cube,1,1,0,1,True
quadratic minor inequality (6 columns),16,16,0,1,True
"""

GOLDEN = [
    (["mixedvol", "A", "B", "C"], "301/72 (4.18055555556)\n"),
    (["volume", "A"], "49/3 (16.3333333333)\n"),
    (["volume", "E"], "0 (0)\n"),
    (["check", "bezout", "A", "B", "C"], BEZOUT_TEXT),
    (["check", "bezout", "A", "B", "C", "--output", "csv"], BEZOUT_CSV),
    (["check", "bezout", "A", "B", "E"],
     "lhs   = 0 (0)\nrhs   = 0 (0)\nslack = 0 (0)\n"
     "ratio = undefined (a right-hand factor vanishes)\nholds = yes\n"),
    (["check", "bezout", "A", "B", "E", "--output", "csv"],
     "lhs,rhs,slack,ratio,holds\n0,0,0,,True\n"),
    (["check", "lemma", "M"], LEMMA_TEXT),
    (["check", "lemma", "M", "--output", "csv"],
     "lhs,rhs,slack,ratio,holds\n686/9,112,322/9,49/72,True\n"),
    (["check", "lemma", "Z"],
     "lhs   = 0 (0)\nrhs   = 0 (0)\nslack = 0 (0)\n"
     "ratio = undefined (a right-hand factor vanishes)\nholds = yes\n"),
    (["check", "lemma", "Z", "--output", "csv"], "lhs,rhs,slack,ratio,holds\n0,0,0,,True\n"),
    (["check", "af-square", "A", "B", "C", "D"],
     "lhs   = 568183/8100 (70.1460493827)\n"
     "rhs   = 869077/5400 (160.940185185)\n"
     "slack = 294173/3240 (90.7941358025)\n"
     "ratio = 4396/5043 (0.871703351180)\n"
     "holds = yes\n"),
    (["check", "af-square", "A", "B", "C", "D", "--output", "csv"],
     "lhs,rhs,slack,ratio,holds\n568183/8100,869077/5400,294173/3240,4396/5043,True\n"),
    (["check", "grassmann", "G"],
     "columns = 6, minor coordinates = 20\n"
     "exchange relations checked = 15, nonzero residuals = 0\n" + LEMMA_TEXT),
    (["check", "grassmann", "G", "--output", "csv"],
     "name,lhs,rhs,slack,ratio,holds\nquad-ineq,686/9,112,322/9,49/72,True\n"),
    # Under 5 columns there is no quadratic form: CSV is the header alone.
    (["check", "grassmann", "T"],
     "columns = 3, minor coordinates = 1\n"
     "exchange relations checked = 0, nonzero residuals = 0\n"),
    (["check", "grassmann", "T", "--output", "csv"], "name,lhs,rhs,slack,ratio,holds\n"),
    (["check", "grassmann", "M"],
     "columns = 4, minor coordinates = 4\n"
     "exchange relations checked = 0, nonzero residuals = 0\n"),
    (["check", "grassmann", "M", "--output", "csv"], "name,lhs,rhs,slack,ratio,holds\n"),
    (["extremal"], """\
generators of A:
zonotope3
0 0 1
0 1 1
1 0 1
1 1 1
V(A,A,A) = 4 (4)
V(A,B,C) = 2/3 (0.666666666667)
V(A,A,B) = 4/3 (1.33333333333)
V(A,A,C) = 4/3 (1.33333333333)
ratio    = 3/2 (1.5)
ratio equals 3/2: yes
s1*s4 == s2*s3: yes
"""),
    (["extremal", "--s1", "1", "--s2", "2", "--s3", "3", "--s4", "4"], """\
generators of A:
zonotope3
0 0 1
0 2 2
3 0 3
4 4 4
V(A,A,A) = 50 (50)
V(A,B,C) = 5/3 (1.66666666667)
V(A,A,B) = 8 (8)
V(A,A,C) = 7 (7)
ratio    = 125/84 (1.48809523810)
ratio equals 3/2: no
s1*s4 == s2*s3: no
"""),
    (["grassmann-sample", "--n", "6", "--seed", "5"],
     "# random 3x6 matrix, seed 5\n"
     "matrix 3 6\n"
     "7/9 7/6 11/14 -10/9 -4 -1/6\n"
     "-11/6 -3 1 -5/12 -3 -2/15\n"
     "-12/5 -1/13 -5/12 11/16 -12/7 -5/2\n"
     "# minor coordinates (20):\n"
     + MINORS_SEED5
     + "# exchange relations checked = 15, nonzero residuals = 0\n"),
    (["grassmann-sample", "--n", "6", "--seed", "5", "--output", "csv"], MINORS_SEED5),
    (["fuzz", "--target", "lemma", "--trials", "10", "--seed", "45"], LEMMA_FUZZ_SEED45),
    (["report", "--trials", "20", "--seed", "3"], REPORT_SEED3),
    (["report", "--trials", "20", "--seed", "3", "--output", "csv"], REPORT_SEED3_CSV),
]


@pytest.fixture
def paths(tmp_path):
    out = {}
    for name, text in INPUTS.items():
        path = tmp_path / name
        path.write_text(text)
        out[name] = str(path)
    return out


@pytest.mark.parametrize("argv,expected", GOLDEN, ids=[" ".join(a) for a, _ in GOLDEN])
def test_stdout_is_pinned(argv, expected, paths, capsys):
    assert main([paths.get(arg, arg) for arg in argv]) == 0
    captured = capsys.readouterr()
    assert captured.out == expected
    assert captured.err == ""


def test_out_file_matches_stdout(paths, tmp_path, capsys):
    target = tmp_path / "report.csv"
    assert main(["check", "bezout", paths["A"], paths["B"], paths["C"],
                 "--output", "csv", "--out", str(target)]) == 0
    assert capsys.readouterr().out == ""
    assert target.read_text() == BEZOUT_CSV


def test_render_zonotope():
    body = Zonotope3.from_generators([(1, "-1/2", 0), (0, 0, 0), ("7/3", 4, -5)])
    assert render_zonotope(body) == "zonotope3\n1 -1/2 0\n0 0 0\n7/3 4 -5\n"
    assert render_zonotope(Zonotope3(())) == "zonotope3\n"


def test_render_matrix():
    mat = (vec3(1, 2, 3), vec3("1/2", -1, 0))
    assert render_matrix(mat) == "matrix 3 2\n1 1/2\n2 -1\n3 0\n"
    assert render_matrix(()) == "matrix 3 0\n"


SAMPLER_STREAM = {
    1: "1/2 -4/3 2 -8/3 -16/7 2/15 7/11 -1/2 -7/2 16/9 -15/13 -1",
    42: "15/4 8/5 -3/7 -9/5 -2/5 -14/15 -1 16/3 1/2 -1 1/5 -1/2",
}


@pytest.mark.parametrize("seed", SAMPLER_STREAM)
def test_sampler_stream_is_pinned(seed):
    rng, rational = SplitMix64(seed), SplitMix64(seed)
    drawn = " ".join(str(q) for column in random_columns(rng, 4, 16) for q in column)
    assert drawn == SAMPLER_STREAM[seed]
    # One `Fraction` per coordinate, numerator then denominator, as `rng._body` documents.
    assert drawn == " ".join(str(random_rational(rational, 16)) for _ in range(12))


def test_bezout_fuzz_csv_is_pinned(capsys):
    assert main(["fuzz", "--target", "bezout", "--output", "csv",
                 "--trials", "50", "--seed", "9"]) == 0
    out = capsys.readouterr().out
    assert out.count("\n") == 51
    assert hashlib.sha256(out.encode()).hexdigest() == \
        "0479bae2cc978c5df64bf801575e63847a6b4dea158b2fa3d76f4bf9c37cc559"


# The second case draws up to 40 columns, so most of its matrices take the
# sweep (numeric.SWEEP_MIN) rather than the loop.
LEMMA_FUZZ_CSV = {
    "--trials 50 --seed 9":
        (51, "c802fecf59535bdae02b687dfe4466ce10c186ad2c00867f70eb4480e5d6adb4"),
    "--m-max 40 --trials 20 --seed 9":
        (21, "a9ee505620c2df7f71a3ffe667a74218d02f4ee6e4d6820a99ad3cd9e9b008db"),
}


@pytest.mark.parametrize("flags", LEMMA_FUZZ_CSV)
def test_lemma_fuzz_csv_is_pinned(flags, capsys):
    assert main(["fuzz", "--target", "lemma", "--output", "csv", *flags.split()]) == 0
    out = capsys.readouterr().out
    lines, digest = LEMMA_FUZZ_CSV[flags]
    assert out.count("\n") == lines
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# At these seeds the lcm of the drawn denominators is a larger scale than
# the lcm of the reduced ones (1294 against 1293 bits at the 2^32 bound, 20
# against 16 bits at n = 12), so the minors are pinned across that choice.
GRASSMANN_SAMPLE = {
    "--n 16 --seed 7 --coeff-bound 4294967296":
        (567, "cf126a332b4c3fe026f0e8a79621dfed7a7be279a56c446af6258990e0a8d719"),
    "--n 16 --seed 7 --coeff-bound 4294967296 --output csv":
        (560, "61a90d7fb9985abf9513efbfae7884f9e60881d9308672a69aa75ced7687f8ad"),
    "--n 12 --seed 3":
        (227, "408a61f8f4d222e78c3ddc158c3fe3cb4a65be18445b7483b83c777d7803ae98"),
    "--n 12 --seed 3 --output csv":
        (220, "a8409a325fcfd36a69d59c4351034527e2316a8c8cd42f3eb52aa21d983b3e0f"),
}


@pytest.mark.parametrize("flags", GRASSMANN_SAMPLE)
def test_grassmann_sample_is_pinned(flags, capsys):
    assert main(["grassmann-sample", *flags.split()]) == 0
    out = capsys.readouterr().out
    lines, digest = GRASSMANN_SAMPLE[flags]
    assert out.count("\n") == lines
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_af_square_fuzz_text_is_pinned(capsys):
    assert main(["fuzz", "--target", "af-square", "--trials", "20", "--seed", "3"]) == 0
    out = capsys.readouterr().out
    assert out.count("\n") == 25
    assert hashlib.sha256(out.encode()).hexdigest() == \
        "a9ea0777ea2e247a7151938e5a708ba2c1bbf5a2e1586f0bae945aac1518dcae"
