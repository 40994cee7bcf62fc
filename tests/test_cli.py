import sys
import tracemalloc
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import pytest

from zonomix import cli, grassmann, numeric, verify, zonotope
from zonomix.cli import main
from zonomix.grassmann import MAX_COLUMNS
from zonomix.numeric import MAX_CLEARED_BITS, MAX_GENERATORS, E1, E2, render_matrix, vec3
from zonomix.verify import MAX_COEFF_BOUND, MAX_M_MAX, FuzzSummary, IneqReport
from zonomix.zonotope import Zonotope3, parse_zonotope, render_zonotope


E3 = vec3(0, 0, 1)


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
    mat.write_text(render_matrix((E1, E2, E3)))
    paths["mat"] = str(mat)
    mat6 = tmp_path / "six.mat"
    mat6.write_text(render_matrix((E1, E2, E3, vec3(1, 1, 0), E2, E3)))
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
        violated = IneqReport(2, 1, 1, 1)  # lhs 2, rhs 1, slack -1, ratio 2
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

    @pytest.mark.parametrize("target", sorted(verify.TARGETS))
    def test_csv_rows_match_report_fractions(self, target, tmp_path):
        # Rows come from the reports' integer pairs; they must print as the Fractions do.
        out = tmp_path / "run.csv"
        assert main(["fuzz", "--target", target.replace("_", "-"), "--trials", "2000",
                     "--seed", "11", "--output", "csv", "--out", str(out)]) == 0
        rows = ["trial,target,m,slack_num,slack_den,ratio_num,ratio_den\n"]

        def on_trial(index, m, report):
            slack, ratio = report.slack, report.ratio
            tail = f"{ratio.numerator},{ratio.denominator}" if ratio is not None else ","
            rows.append(f"{index},{target},{m},{slack.numerator},{slack.denominator},{tail}\n")

        verify.fuzz(verify.FuzzConfig(target=target, trials=2000, seed=11), on_trial=on_trial)
        assert out.read_bytes() == "".join(rows).encode()

    def test_zero_trials_is_usage_error(self, files):
        assert main(["fuzz", "--target", "bezout", "--trials", "0"]) == 2

    def test_refused_csv_run_creates_no_file(self, tmp_path, capsys):
        out = tmp_path / "never.csv"
        assert main(["fuzz", "--target", "lemma", "--trials", "0", "--output", "csv",
                     "--out", str(out)]) == 2
        assert capsys.readouterr().err == "error: --trials must be >= 1, got 0\n"
        assert not out.exists()

    def test_csv_rows_are_streamed(self, tmp_path):
        # Kept rows would grow the peak by about 160 bytes per trial.
        out = str(tmp_path / "run.csv")

        def peak(trials):
            tracemalloc.start()
            try:
                assert main(["fuzz", "--target", "lemma", "--trials", str(trials),
                             "--output", "csv", "--out", out]) == 0
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        peak(20)  # warm-up: first-call allocations of the modules
        short, long = peak(150), peak(1200)
        assert long <= short + 32 * 1024
        assert len(Path(out).read_text().splitlines()) == 1201

    def test_failures_are_counted(self, capsys, monkeypatch):
        violated = IneqReport(2, 1, 1, 1)  # lhs 2, rhs 1, slack -1, ratio 2
        monkeypatch.setattr(verify, "check_bezout", lambda *args: violated)
        summary = verify.fuzz(verify.FuzzConfig(target="bezout", trials=7))
        assert summary.failures == summary.trials == 7
        assert main(["fuzz", "--target", "bezout", "--trials", "7"]) == 1
        assert "failures    = 7\n" in capsys.readouterr().out

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
        assert main(["extremal", "--s1", "1/2", "--s4", "1/2", "--lo=-1/3",
                     "--hi", "2/3"]) == 0

    # argparse took "-1/2" for a flag: "--lo -1/2" exited 2 with "expected one argument".
    @pytest.mark.parametrize("flag", ["--s1", "--s2", "--s3", "--s4",
                                      "--lo", "--hi", "--lo2", "--hi2"])
    @pytest.mark.parametrize("value", ["-1/2", "-1", "-3/-2", "-0/5"])
    def test_negative_value_as_its_own_argument(self, flag, value, capsys):
        joined = main(["extremal", f"{flag}={value}"]), capsys.readouterr()
        assert (main(["extremal", flag, value]), capsys.readouterr()) == joined

    def test_negative_values_among_other_flags(self, capsys):
        code = main(["extremal", "--lo", "-1/3", "--hi", "2/3", "--lo2", "-5/4"])
        assert (code, capsys.readouterr()) == \
            (main(["extremal", "--lo=-1/3", "--hi", "2/3", "--lo2=-5/4"]), capsys.readouterr())
        assert code == 0

    @pytest.mark.parametrize("value", ["-x", "--hi"])
    def test_flag_like_value_is_a_usage_error(self, value, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["extremal", "--lo", value])
        assert exc.value.code == 2
        assert "argument --lo: expected one argument" in capsys.readouterr().err

    def test_vanishing_factor(self, capsys):
        assert main(["extremal", "--lo2", "1", "--hi2", "1"]) == 0
        assert "ratio    = undefined (a right-hand factor vanishes)\n" in capsys.readouterr().out


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

    @pytest.mark.parametrize("output", ["text", "csv"])
    def test_failing_verdict_exits_1_in_either_format(self, output, capsys, monkeypatch):
        argv = ["grassmann-sample", "--n", "6", "--seed", "5", "--output", output]
        assert main(argv) == 0
        expected = capsys.readouterr().out

        def perturbed(columns):
            point = grassmann.pluecker(columns)
            coords = dict(point.coords)
            coords[1, 2, 3] += 1
            return grassmann.PlueckerVector(point.n, coords, point.scale)

        monkeypatch.setattr(cli, "pluecker", perturbed)
        assert main(argv) == 1
        out = capsys.readouterr().out
        # Only the coordinate (1, 2, 3) changes, and in text the verdict line, which
        # names the first triple where the chart test fails.
        changed = [(old, new) for old, new in zip(expected.splitlines(), out.splitlines())
                   if old != new]
        assert len(out.splitlines()) == len(expected.splitlines())
        assert [old.split(",")[:3] for old, _ in changed[:1]] == [["1", "2", "3"]]
        assert [new for _, new in changed[1:]] == (
            ["# exchange relations checked = 15, not realizable at (1, 4, 5)"]
            if output == "text" else [])


class TestResourceGuards:
    """A value just past each limit exits 2 naming the limit, before any work on it."""

    @staticmethod
    def _never(*args):
        raise AssertionError("reached the allocation the guard should prevent")

    # The control for the grassmann-sample guards: a valid run does reach the trap.
    def test_grassmann_sample_reaches_the_trap(self, monkeypatch):
        monkeypatch.setattr(cli, "random_columns", self._never)
        with pytest.raises(AssertionError, match="reached the allocation"):
            main(["grassmann-sample", "--n", "6"])

    def test_grassmann_sample_columns(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "random_columns", self._never)
        assert main(["grassmann-sample", "--n", str(MAX_COLUMNS + 1)]) == 2
        assert capsys.readouterr().err == \
            f"error: --n must be <= {MAX_COLUMNS}, got {MAX_COLUMNS + 1}\n"

    # Unchecked, 0 and -5 failed inside the draw and -1 drew an all-ones matrix.
    @pytest.mark.parametrize("bound", [0, -1, -5])
    def test_grassmann_sample_coeff_bound(self, bound, capsys, monkeypatch):
        monkeypatch.setattr(cli, "random_columns", self._never)
        assert main(["grassmann-sample", "--coeff-bound", str(bound)]) == 2
        assert capsys.readouterr().err == f"error: --coeff-bound must be >= 1, got {bound}\n"

    # Unchecked, a bound of 2^64 or more drew only negative numerators.
    def test_grassmann_sample_coeff_bound_cap(self, capsys, monkeypatch):
        over = MAX_COEFF_BOUND + 1
        monkeypatch.setattr(cli, "random_columns", self._never)
        assert main(["grassmann-sample", "--coeff-bound", str(over)]) == 2
        assert capsys.readouterr().err == \
            f"error: --coeff-bound must be <= {MAX_COEFF_BOUND}, got {over}\n"

    @classmethod
    def _trap_fuzz_samplers(cls, monkeypatch):
        # The samplers the fuzz trials call, by the names they call them in verify.
        monkeypatch.setattr(verify, "random_vectors", cls._never)
        monkeypatch.setattr(verify, "random_bodies", cls._never)

    # The control for the fuzz guards: a valid run does reach the trap.
    @pytest.mark.parametrize("target", ["bezout", "lemma", "af-square"])
    def test_fuzz_trial_reaches_the_trap(self, target, monkeypatch):
        self._trap_fuzz_samplers(monkeypatch)
        with pytest.raises(AssertionError, match="reached the allocation"):
            main(["fuzz", "--target", target, "--trials", "1"])

    @pytest.mark.parametrize("target", ["bezout", "lemma", "af-square"])
    def test_fuzz_coeff_bound_cap(self, target, capsys, monkeypatch):
        over = MAX_COEFF_BOUND + 1
        self._trap_fuzz_samplers(monkeypatch)
        assert main(["fuzz", "--target", target, "--trials", "1",
                     "--coeff-bound", str(over)]) == 2
        assert capsys.readouterr().err == \
            f"error: --coeff-bound must be <= {MAX_COEFF_BOUND}, got {over}\n"

    @pytest.mark.parametrize("command", [
        "fuzz --target bezout --trials 3", "fuzz --target lemma --trials 3",
        "fuzz --target af-square --trials 3", "grassmann-sample --n 5"])
    def test_coeff_bound_at_the_cap(self, command, capsys):
        assert main([*command.split(), "--coeff-bound", str(MAX_COEFF_BOUND)]) == 0
        assert capsys.readouterr().err == ""

    SEEDED = ["fuzz --target bezout --trials 2", "fuzz --target lemma --trials 2 --output csv",
              "fuzz --target af-square --trials 2", "fuzz --target af-square --trials 2 --output csv",
              "grassmann-sample --n 4", "grassmann-sample --n 4 --output csv",
              "report --trials 2", "report --trials 2 --output csv"]

    # The generator keeps a seed's low 64 bits: unchecked, -1 replayed the
    # trials of 2^64 - 1 and 2^64 those of 0, under another printed seed.
    @pytest.mark.parametrize("seed", [-1, 2 ** 64])
    @pytest.mark.parametrize("command", SEEDED)
    def test_seed_outside_64_bits(self, command, seed, tmp_path, capsys, monkeypatch):
        self._trap_fuzz_samplers(monkeypatch)
        monkeypatch.setattr(cli, "random_columns", self._never)
        monkeypatch.setattr(cli, "extremal_config", self._never)  # report's first work
        out = tmp_path / "never.txt"
        assert main([*command.split(), "--seed", str(seed), "--out", str(out)]) == 2
        assert capsys.readouterr() == \
            ("", f"error: --seed must be between 0 and {2 ** 64 - 1}, got {seed}\n")
        assert not out.exists()

    # Unchecked until its first fuzz run, report ran the five named checks first.
    @pytest.mark.parametrize("trials", [0, -5])
    def test_report_trials_below_one(self, trials, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(cli, "extremal_config", self._never)  # report's first work
        out = tmp_path / "never.txt"
        assert main(["report", "--trials", str(trials), "--out", str(out)]) == 2
        assert capsys.readouterr() == ("", f"error: --trials must be >= 1, got {trials}\n")
        assert not out.exists()

    # The seed is checked before the fuzz settings, so a bad seed is named first.
    def test_report_seed_before_trials(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(cli, "extremal_config", self._never)  # report's first work
        out = tmp_path / "never.txt"
        assert main(["report", "--trials", "0", "--seed", "-1", "--out", str(out)]) == 2
        assert capsys.readouterr() == \
            ("", f"error: --seed must be between 0 and {2 ** 64 - 1}, got -1\n")
        assert not out.exists()

    @pytest.mark.parametrize("seed", [0, 2 ** 64 - 1])
    @pytest.mark.parametrize("command", SEEDED)
    def test_seed_at_either_end_of_64_bits(self, command, seed, capsys):
        assert main([*command.split(), "--seed", str(seed)]) == 0
        out, err = capsys.readouterr()
        assert out and err == ""

    def test_check_grassmann_columns(self, tmp_path, capsys, monkeypatch):
        wide = tmp_path / "wide.mat"
        wide.write_text(render_matrix((E1,) * (MAX_COLUMNS + 1)))
        # pluecker takes each minor by det3 on the parsed integers: it may not run.
        monkeypatch.setattr(grassmann, "det3", self._never)
        assert main(["check", "grassmann", str(wide)]) == 2
        assert capsys.readouterr().err == \
            f"error: need at most {MAX_COLUMNS} columns, got {MAX_COLUMNS + 1}\n"

    @pytest.mark.parametrize("target", ["bezout", "lemma", "af-square"])
    def test_fuzz_m_max(self, target, capsys, monkeypatch):
        self._trap_fuzz_samplers(monkeypatch)
        assert main(["fuzz", "--target", target, "--trials", "1",
                     "--m-max", str(MAX_M_MAX + 1)]) == 2
        assert capsys.readouterr().err == \
            f"error: --m-max must be <= {MAX_M_MAX}, got {MAX_M_MAX + 1}\n"

    @pytest.mark.parametrize("command", ["check bezout", "check lemma", "mixedvol", "volume"])
    def test_generators_per_body(self, command, tmp_path, capsys, monkeypatch):
        over = MAX_GENERATORS + 1
        big = tmp_path / "big"
        big.write_text(render_matrix((E1,) * over) if command == "check lemma"
                       else render_zonotope(Zonotope3((E1,) * over)))
        small = tmp_path / "small.zt"
        small.write_text(render_zonotope(Zonotope3((E2,))))
        files = {"check bezout": [big, small, small], "check lemma": [big],
                 "mixedvol": [big, small, small], "volume": [big]}[command]
        # The reader matches each literal with this pattern before it parses it.
        monkeypatch.setattr(numeric, "_RATIONAL_RE", SimpleNamespace(fullmatch=self._never))
        assert main([*command.split(), *map(str, files)]) == 2
        kind = "matrix" if command == "check lemma" else "zonotope"
        assert capsys.readouterr().err == (
            f"error: {big}: {kind}: at most {MAX_GENERATORS} generators "
            f"({3 * MAX_GENERATORS} coordinates) per file\n")

    # Each took seconds to minutes in the kernels before the limit.
    @pytest.mark.parametrize("shape", ["denominators", "digits"])
    @pytest.mark.parametrize("command", ["check bezout", "check lemma", "mixedvol", "volume"])
    def test_cleared_bits_per_body(self, command, shape, tmp_path, capsys, monkeypatch):
        if shape == "denominators":  # 80 generators, distinct 100-digit denominators
            den = 10 ** 99
            gens = [[Fraction(1, den + 3 * i + k) for k in range(3)] for i in range(80)]
        else:  # 200 generators of 4000-digit integers
            gens = [[10 ** 3999 + 3 * i + k for k in range(3)] for i in range(200)]
        big = tmp_path / "big"
        big.write_text(render_matrix(tuple(vec3(*g) for g in gens)) if command == "check lemma"
                       else render_zonotope(Zonotope3.from_generators(gens)))
        small = tmp_path / "small.zt"
        small.write_text(render_zonotope(Zonotope3((E2,))))
        files = {"check bezout": [big, small, small], "check lemma": [big],
                 "mixedvol": [big, small, small], "volume": [big]}[command]
        for module in (zonotope, verify):
            for kernel in ("sum_abs_det3_triples", "sum_abs_det3_pairs", "sum_abs_det3_combos",
                           "sum_abs_det3_bezout", "sum_abs_det3_lemma", "sum_abs_det2_pairs",
                           "int_scaled"):
                if hasattr(module, kernel):
                    monkeypatch.setattr(module, kernel, self._never)
        assert main([*command.split(), *map(str, files)]) == 2
        kind = "matrix" if command == "check lemma" else "zonotope"
        err = capsys.readouterr().err
        assert err.startswith(f"error: {big}: {kind}: {len(gens)} generators cleared to integers")
        assert err.endswith(f"at most {MAX_CLEARED_BITS} bits per file (generators times bits)\n")

    def test_limits_admit_the_defaults(self):
        # grassmann-sample --n 12, fuzz at m_max 6 and checks of 96 generators
        # are benchmark workloads.
        assert MAX_COLUMNS >= 12
        verify.FuzzConfig(target="bezout", trials=1, m_max=MAX_M_MAX)
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
        # lhs big/(big-3) and product big^2/(3(big-3)): slack big/3, ratio 3/big.
        report = IneqReport(big, big - 3, big * big, 3 * (big - 3))

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
        assert "set_int_max_str_digits" not in err
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
