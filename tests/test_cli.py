import sys
from fractions import Fraction
from pathlib import Path

import pytest

from zonomix import cli, grassmann, numeric, verify
from zonomix.cli import main
from zonomix.grassmann import MAX_COLUMNS
from zonomix.numeric import MAX_GENERATORS, E1, E2, E3, Mat3xM, render_matrix, vec3
from zonomix.verify import MAX_M_MAX, FuzzSummary, IneqReport
from zonomix.zonotope import Zonotope3, parse_zonotope, render_zonotope


@pytest.fixture
def files(tmp_path):
    cube = Zonotope3((E1, E2, E3))
    paths = {}
    for name, z in (("cube", cube),
                    ("e1", Zonotope3((E1,))),
                    ("e2", Zonotope3((E2,))),
                    ("empty", Zonotope3(()))):
        p = tmp_path / f"{name}.zt"
        p.write_text(render_zonotope(z))
        paths[name] = str(p)
    mat = tmp_path / "cube.mat"
    mat.write_text(render_matrix(Mat3xM((E1, E2, E3))))
    paths["mat"] = str(mat)
    mat6 = tmp_path / "six.mat"
    mat6.write_text(render_matrix(Mat3xM((E1, E2, E3, vec3(1, 1, 0), E2, E3))))
    paths["mat6"] = str(mat6)
    paths["dir"] = str(tmp_path)
    return paths


class TestMixedvolVolume:
    def test_mixedvol(self, files, capsys):
        assert main(["mixedvol", files["cube"], files["e1"], files["e2"]]) == 0
        assert capsys.readouterr().out.startswith("1/6 ")

    def test_mixedvol_cube_cubed(self, files, capsys):
        assert main(["mixedvol", files["cube"], files["cube"], files["cube"]]) == 0
        assert capsys.readouterr().out.startswith("1 ")

    def test_empty_zonotope(self, files, capsys):
        assert main(["volume", files["empty"]]) == 0
        assert capsys.readouterr().out.startswith("0 ")

    def test_missing_file(self, files, capsys):
        assert main(["volume", files["dir"] + "/nope.zt"]) == 2

    def test_malformed_file(self, files, tmp_path, capsys):
        bad = tmp_path / "bad.zt"
        bad.write_text("zonotope3\n1 2\n")
        assert main(["volume", str(bad)]) == 2


class TestCheck:
    def test_bezout_holds(self, files, capsys):
        assert main(["check", "bezout", files["cube"], files["e1"], files["e2"]]) == 0
        out = capsys.readouterr().out
        assert "holds = yes" in out and "ratio = 3/2" in out

    def test_lemma(self, files, capsys):
        assert main(["check", "lemma", files["mat"]]) == 0
        out = capsys.readouterr().out
        assert "lhs   = 1 " in out and "rhs   = 1 " in out

    def test_af_square(self, files, capsys):
        assert main(["check", "af-square", files["cube"], files["e1"],
                     files["e2"], files["cube"]]) == 0

    def test_grassmann(self, files, capsys):
        assert main(["check", "grassmann", files["mat6"]]) == 0
        out = capsys.readouterr().out
        assert "nonzero residuals = 0" in out

    def test_csv_output(self, files, capsys):
        assert main(["check", "bezout", files["cube"], files["e1"], files["e2"],
                     "--output", "csv"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "lhs,rhs,slack,ratio,holds"
        assert lines[1] == "1/6,1/6,0,3/2,True"

    def test_wrong_arity(self, files, capsys):
        assert main(["check", "bezout", files["cube"]]) == 2

    def test_float_mode_refused(self, files, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["check", "bezout", files["cube"], files["e1"], files["e2"],
                  "--mode", "float"])
        assert exc.value.code == 2

    def test_unknown_target_is_usage_error(self, files):
        with pytest.raises(SystemExit) as exc:
            main(["check", "frobnicate", files["cube"]])
        assert exc.value.code == 2

    def test_input_rendered_only_on_violation(self, files, capsys, monkeypatch):
        def unrendered(*args):
            raise AssertionError("input rendered although the check held")

        monkeypatch.setattr(cli, "render_zonotope", unrendered)
        monkeypatch.setattr(cli, "render_matrix", unrendered)
        assert main(["check", "bezout", files["cube"], files["e1"], files["e2"]]) == 0
        assert main(["check", "lemma", files["mat"]]) == 0
        assert capsys.readouterr().err == ""

    @pytest.mark.parametrize("target,checker,names", [
        ("bezout", "check_bezout", ("cube", "e1", "e2")),
        ("af-square", "check_af_square", ("cube", "e1", "e2", "cube")),
        ("lemma", "check_lemma_matrix", ("mat",)),
    ])
    def test_violation_prints_input(self, target, checker, names, files, capsys, monkeypatch):
        violated = IneqReport(lhs=Fraction(2), rhs=Fraction(1), slack=Fraction(-1),
                              holds=False, ratio=Fraction(2))
        monkeypatch.setattr(cli, checker, lambda *args: violated)
        assert main(["check", target, *(files[n] for n in names)]) == 1
        texts = [Path(files[n]).read_text() for n in names]
        assert capsys.readouterr().err == "violated by input:\n" + "".join(texts)


class TestFuzzCommand:
    def test_text_summary(self, files, capsys):
        assert main(["fuzz", "--target", "bezout", "--trials", "25",
                     "--seed", "42", "--m-max", "4", "--coeff-bound", "6"]) == 0
        out = capsys.readouterr().out
        assert "failures    = 0" in out

    def test_csv_deterministic(self, files, tmp_path):
        out1 = tmp_path / "a.csv"
        out2 = tmp_path / "b.csv"
        argv = ["fuzz", "--target", "lemma", "--trials", "30", "--seed", "7",
                "--m-max", "5", "--coeff-bound", "8", "--output", "csv"]
        assert main(argv + ["--out", str(out1)]) == 0
        assert main(argv + ["--out", str(out2)]) == 0
        b1, b2 = out1.read_bytes(), out2.read_bytes()
        assert b1 == b2
        header = b1.decode().splitlines()[0]
        assert header == "trial,target,m,slack_num,slack_den,ratio_num,ratio_den"

    def test_zero_trials_is_usage_error(self, files):
        assert main(["fuzz", "--target", "bezout", "--trials", "0"]) == 2

    def test_float_mode_refused(self, files):
        with pytest.raises(SystemExit) as exc:
            main(["fuzz", "--target", "bezout", "--trials", "5", "--mode", "float"])
        assert exc.value.code == 2

    def test_target_has_one_spelling(self, capsys):
        # report and FuzzConfig name it af_square; the command line, as in check, af-square.
        with pytest.raises(SystemExit) as exc:
            main(["fuzz", "--target", "af_square", "--trials", "1"])
        assert exc.value.code == 2
        assert "invalid choice: 'af_square'" in capsys.readouterr().err


class TestExtremalCommand:
    def test_defaults_attain_bound(self, capsys):
        assert main(["extremal"]) == 0
        out = capsys.readouterr().out
        assert "ratio equals 3/2: yes" in out
        assert "s1*s4 == s2*s3: yes" in out

    def test_unbalanced(self, capsys):
        assert main(["extremal", "--s1", "1", "--s2", "2", "--s3", "3", "--s4", "4"]) == 0
        out = capsys.readouterr().out
        assert "ratio equals 3/2: no" in out
        assert "s1*s4 == s2*s3: no" in out

    def test_balanced_products(self, capsys):
        assert main(["extremal", "--s1", "1", "--s2", "2", "--s3", "2", "--s4", "4"]) == 0
        out = capsys.readouterr().out
        assert "ratio equals 3/2: yes" in out

    def test_negative_weight_rejected(self, capsys):
        assert main(["extremal", "--s1", "-1"]) == 2

    def test_rational_flags(self, capsys):
        # values starting with "-" need the --flag=value spelling
        assert main(["extremal", "--s1", "1/2", "--s4", "1/2", "--lo=-1/3",
                     "--hi", "2/3"]) == 0


class TestGrassmannSample:
    def test_csv_shape(self, capsys):
        assert main(["grassmann-sample", "--n", "6", "--seed", "5",
                     "--output", "csv"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 20  # C(6,3)
        assert all(len(line.split(",")) == 4 for line in lines)

    def test_text_reports_residuals(self, capsys):
        assert main(["grassmann-sample", "--n", "6", "--seed", "5"]) == 0
        assert "nonzero residuals = 0" in capsys.readouterr().out

    def test_bad_n(self, capsys):
        assert main(["grassmann-sample", "--n", "2"]) == 2


class TestResourceGuards:
    """A value just past each limit exits 2 naming the limit, before any work on it."""

    @staticmethod
    def _never(*args):
        raise AssertionError("reached the allocation the guard should prevent")

    def test_grassmann_sample_columns(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "random_vec3", self._never)
        assert main(["grassmann-sample", "--n", str(MAX_COLUMNS + 1)]) == 2
        assert capsys.readouterr().err == \
            f"error: --n must be <= {MAX_COLUMNS}, got {MAX_COLUMNS + 1}\n"

    # Unchecked, 0 and -5 failed inside the draw and -1 drew an all-ones matrix.
    @pytest.mark.parametrize("bound", [0, -1, -5])
    def test_grassmann_sample_coeff_bound(self, bound, capsys, monkeypatch):
        monkeypatch.setattr(cli, "random_vec3", self._never)
        assert main(["grassmann-sample", "--coeff-bound", str(bound)]) == 2
        assert capsys.readouterr().err == f"error: --coeff-bound must be >= 1, got {bound}\n"

    def test_check_grassmann_columns(self, tmp_path, capsys, monkeypatch):
        wide = tmp_path / "wide.mat"
        wide.write_text(render_matrix(Mat3xM((E1,) * (MAX_COLUMNS + 1))))
        monkeypatch.setattr(grassmann, "minor3", self._never)
        assert main(["check", "grassmann", str(wide)]) == 2
        assert capsys.readouterr().err == \
            f"error: need at most {MAX_COLUMNS} columns, got {MAX_COLUMNS + 1}\n"

    @pytest.mark.parametrize("target", ["bezout", "lemma", "af-square"])
    def test_fuzz_m_max(self, target, capsys, monkeypatch):
        monkeypatch.setattr(verify, "random_zonotope", self._never)
        monkeypatch.setattr(verify, "random_vectors", self._never)
        assert main(["fuzz", "--target", target, "--trials", "1",
                     "--m-max", str(MAX_M_MAX + 1)]) == 2
        assert capsys.readouterr().err == \
            f"error: m_max must be <= {MAX_M_MAX}, got {MAX_M_MAX + 1}\n"

    @pytest.mark.parametrize("command", ["check bezout", "check lemma", "mixedvol", "volume"])
    def test_generators_per_body(self, command, tmp_path, capsys, monkeypatch):
        over = MAX_GENERATORS + 1
        big = tmp_path / "big"
        big.write_text(render_matrix(Mat3xM((E1,) * over)) if command == "check lemma"
                       else render_zonotope(Zonotope3((E1,) * over)))
        small = tmp_path / "small.zt"
        small.write_text(render_zonotope(Zonotope3((E2,))))
        files = {"check bezout": [big, small, small], "check lemma": [big],
                 "mixedvol": [big, small, small], "volume": [big]}[command]
        monkeypatch.setattr(numeric, "parse_rational", self._never)
        assert main([*command.split(), *map(str, files)]) == 2
        kind = "matrix" if command == "check lemma" else "zonotope"
        assert capsys.readouterr().err == (
            f"error: {big}: {kind}: at most {MAX_GENERATORS} generators "
            f"({3 * MAX_GENERATORS} coordinates) per file\n")

    def test_limits_admit_the_defaults(self):
        # grassmann-sample --n 12, fuzz at m_max 6 and checks of 96 generators
        # are benchmark workloads.
        assert MAX_COLUMNS >= 12
        verify.FuzzConfig(target="bezout", trials=1, m_max=MAX_M_MAX).validate()
        at_cap = Zonotope3((E1,) * MAX_GENERATORS)
        assert parse_zonotope(render_zonotope(at_cap)) == at_cap
        assert MAX_GENERATORS >= 96


class TestExactOutputSize:
    """Exact results print at any size; only input literals have a digit limit.

    str() refuses integers over sys.get_int_max_str_digits() (4300 by default)
    digits; a 3-generator cube with coordinates 10**1500 has volume 10**4500.
    """

    @pytest.fixture
    def cube(self, tmp_path):
        path = tmp_path / "huge.zt"
        path.write_text(render_zonotope(Zonotope3.from_generators(
            [(10 ** 1500, 0, 0), (0, 10 ** 1500, 0), (0, 0, 10 ** 1500)])))
        return str(path)

    @staticmethod
    def _power(lead: str, exponent: int) -> str:
        """The digits of int(lead) * 10**exponent, spelt without str()."""
        return lead + "0" * exponent

    def test_text(self, cube, capsys):
        limit = sys.get_int_max_str_digits()
        assert main(["volume", cube]) == 0
        assert capsys.readouterr().out == f"{self._power('1', 4500)} (1.00000000000E+4500)\n"
        assert main(["check", "bezout", cube, cube, cube]) == 0
        out = capsys.readouterr().out
        assert f"lhs   = {self._power('1', 9000)} (1.00000000000E+9000)\n" in out
        assert "holds = yes\n" in out
        assert sys.get_int_max_str_digits() == limit

    def test_csv(self, cube, capsys):
        assert main(["check", "bezout", cube, cube, cube, "--output", "csv"]) == 0
        p = self._power
        assert capsys.readouterr().out == (
            f"lhs,rhs,slack,ratio,holds\n{p('1', 9000)},{p('15', 8999)},{p('5', 8999)},1,True\n")

    def test_fuzz_csv(self, capsys, monkeypatch):
        big = 10 ** 5000 + 1
        report = IneqReport(lhs=Fraction(big, 3), rhs=Fraction(big, 3), slack=Fraction(big, 3),
                            holds=True, ratio=Fraction(3, big))

        def one_trial(config, on_trial):
            on_trial(0, 3, report)
            return FuzzSummary(trials=1, failures=0, min_slack=report.slack, max_ratio=None,
                               worst_case="", seed=config.seed)

        monkeypatch.setattr(cli, "fuzz", one_trial)
        assert main(["fuzz", "--target", "bezout", "--trials", "1", "--output", "csv"]) == 0
        digits = "1" + "0" * 4999 + "1"
        assert capsys.readouterr().out == (
            "trial,target,m,slack_num,slack_den,ratio_num,ratio_den\n"
            f"0,bezout,3,{digits},3,3,{digits}\n")

    def test_oversized_literal(self, tmp_path, capsys):
        limit = sys.get_int_max_str_digits()
        path = tmp_path / "long.zt"
        path.write_text(f"zonotope3\n1 0 0\n-{self._power('1', limit)} 1 0\n")
        assert main(["volume", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: ")
        assert f"({limit} digits)" in err and f"has {limit + 1} digits" in err
        assert sys.get_int_max_str_digits() == limit


class TestReportCommand:
    def test_everything_holds(self, capsys):
        assert main(["report", "--trials", "40", "--seed", "3"]) == 0
        out = capsys.readouterr().out
        assert "square pyramid" in out
        assert "fuzz bezout" in out

    def test_csv(self, capsys):
        assert main(["report", "--trials", "20", "--output", "csv"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "name,lhs,rhs,slack,ratio,holds"


# Each subcommand accepts only the flags it reads; these are the pairs that
# are refused as usage errors.
REFUSED_FLAGS = [
    ("mixedvol", ["--mode", "float"]),
    ("volume", ["--mode", "exact"]),
    ("check", ["--mode", "exact"]),
    ("fuzz", ["--mode", "exact"]),
    ("extremal", ["--mode", "exact"]),
    ("grassmann-sample", ["--mode", "exact"]),
    ("report", ["--mode", "exact"]),
    ("mixedvol", ["--seed", "3"]),
    ("volume", ["--seed", "3"]),
    ("check", ["--seed", "3"]),
    ("extremal", ["--seed", "3"]),
    ("mixedvol", ["--output", "csv"]),
    ("volume", ["--output", "csv"]),
    ("extremal", ["--output", "csv"]),
]


@pytest.mark.parametrize("command,flag", REFUSED_FLAGS,
                         ids=[f"{c} {f[0]}" for c, f in REFUSED_FLAGS])
def test_unread_flag_is_usage_error(command, flag, files, capsys):
    valid = {
        "mixedvol": [files["cube"], files["e1"], files["e2"]],
        "volume": [files["cube"]],
        "check": ["bezout", files["cube"], files["e1"], files["e2"]],
        "fuzz": ["--target", "bezout", "--trials", "2"],
        "extremal": [],
        "grassmann-sample": ["--n", "4"],
        "report": ["--trials", "1"],
    }
    with pytest.raises(SystemExit) as exc:
        main([command, *valid[command], *flag])
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err
