"""The benchmark's workloads: their inputs, closed-loop steps and output checks.

Each workload runs in this process as a closed loop with one caller and no
threads: a step starts only after the previous step returned and its outputs
were checked.  A step returns a `Step` with the nanoseconds it spent inside
zonomix; output checks and oracle work run between steps and are never timed.

The benchmark draws its own inputs from ``random.Random`` seeded with the
workload seed, so the inputs stay the same when zonomix's own sampler
changes.  Fuzz workloads are the exception by nature: zonomix samples their
inputs, and the benchmark only chooses the fuzz seeds.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import random
import shutil
import sys
import time
from fractions import Fraction
from pathlib import Path
from typing import NamedTuple, Optional

import checks
import stats

SIZES = (24, 48, 96)  # check_large generator counts, either side of the ~40 sweep crossover
POOL = 16             # distinct inputs per size or pass; steps cycle through them
COEFF_BOUND = 16      # zonomix's CLI default
M_MAX = 6             # zonomix's CLI default
PROBES = {24: 21, 48: 15, 96: 12}  # checks per size in the check_m* probe
REPORT_TRIALS = 200   # fuzz trials per target in `zonomix report`, its default
ORACLE_TRIALS = 200   # trials of the untimed fuzz call whose every check meets the oracle
ORACLE_CALL = 0xFFFF  # its fuzz_seed call index, above those of the timed calls
GRASSMANN_N = 12
WITNESS_GENERATORS = 8  # 2^8 = 256 subset sums for the polytope pipeline

SEED_SPAN = 1 << 24   # workload seeds that give distinct fuzz seeds

clock = time.perf_counter_ns


def fuzz_seed(seed: int, call: int) -> int:
    """zonomix seed of the `call`-th fuzz call of a run with workload seed `seed`.

    Trial t of a fuzz call with seed s draws from the stream seeded s ^ t, so
    two seeds that agree above bit log2(trials) share trials.  Placing
    (seed, call) above bit 24 keeps the calls of every workload seed disjoint
    for up to 2^24 trials each, so the result fits zonomix's 64-bit seed.
    Any integer seed is taken modulo 2^24 first; needs call < 2^16.
    """
    return (((seed % SEED_SPAN) << 16) | call) << 24


class Step(NamedTuple):
    busy_ns: int                # time spent inside zonomix
    latencies_ns: list[int]     # one per operation of the step
    size: Optional[int] = None  # generator count of a check bezout step


def _rational(rnd: random.Random) -> Fraction:
    """Numerator in [-16, 16], denominator in [1, 16], as zonomix's fuzz draws them."""
    return Fraction(rnd.randint(-COEFF_BOUND, COEFF_BOUND), rnd.randint(1, COEFF_BOUND))


def _vectors(rnd: random.Random, m: int) -> list[tuple]:
    return [tuple(_rational(rnd) for _ in range(3)) for _ in range(m)]


class Workload:
    name = ""
    ops_per_step = 1
    steps_per_round = 1
    trace_steps = 1
    # Operations a timed run completes at least, however long they take, so
    # the tail rule never lands below the median.
    min_ops = 2 * stats.TAIL_BEYOND + 1
    probe = True  # measure check_m*_ms with a probe of checks between timed steps

    def __init__(self, root: Path, seed: int):
        self.seed = seed
        self.work = root / ".perfbench-work" / self.name
        self.oracles = checks.load_oracles(root)
        self.attempted = self.failed = 0
        self.problems: list[str] = []
        self._check_outputs: dict[tuple[int, int], str] = {}

    def fail(self, problems: list[str], count: int = 1) -> None:
        """Count `count` failed operations when `problems` is not empty."""
        if problems:
            self.failed += count
            self.problems += problems[:max(0, 20 - len(self.problems))]

    def setup(self) -> None:
        """Import zonomix afresh, then generate and write the workload's inputs."""
        for name in [n for n in sys.modules if n == "zonomix" or n.startswith("zonomix.")]:
            del sys.modules[name]
        self.cli = importlib.import_module("zonomix.cli")
        zonomix = sys.modules["zonomix"]
        self.numeric, self.verify = zonomix.numeric, zonomix.verify
        self.witness, self.zonotope = zonomix.witness, zonomix.zonotope

        shutil.rmtree(self.work, ignore_errors=True)
        self.work.mkdir(parents=True)
        rnd = random.Random(f"check:{self.seed}")
        self.check_inputs = {}
        for m in SIZES:
            for idx in range(POOL):
                bodies = [_vectors(rnd, m) for _ in "ABC"]
                paths = []
                for label, body in zip("ABC", bodies):
                    path = self.work / f"m{m}-{idx}-{label}.zt"
                    path.write_text(checks.zonotope_text(body))
                    paths.append(str(path))
                self.check_inputs[(m, idx)] = (bodies, paths)
        self.prepare()

    def prepare(self) -> None:
        """Workload-specific inputs, made during set-up."""

    def step(self, i: int) -> Step:
        raise NotImplementedError

    def final_checks(self) -> None:
        """Checks too slow to run between steps."""

    def recording(self, name: str, run):
        """Call `run()` while `verify.<name>` records the (arguments, report) of each call."""
        inner = getattr(self.verify, name)
        calls = []

        def record(*args):
            calls.append((args, inner(*args)))
            return calls[-1][1]

        setattr(self.verify, name, record)
        try:
            return run(), calls
        finally:
            setattr(self.verify, name, inner)

    def run_check(self, m: int, idx: int) -> int:
        """`zonomix check bezout` on one stored input triple; returns its duration."""
        _, paths = self.check_inputs[(m, idx)]
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            start = clock()
            code = self.cli.main(["check", "bezout", *paths])
            busy = clock() - start
        text = out.getvalue()
        self.attempted += 1
        problems = [] if code == 0 else [f"check m={m} #{idx} exited {code}"]
        if text != self._check_outputs.setdefault((m, idx), text):
            problems.append(f"check m={m} #{idx} printed a different report than before")
        problems += checks.check_output_problems(checks.parse_report(text))
        self.fail(problems)
        return busy

    def float_lane(self) -> tuple[float, float]:
        """Seconds of float `volume` and its speed-up over exact `volume`.

        Timed on body A of the first check input of each size, the fastest
        of three calls each, outside any traced span.
        """
        exact_ns = float_ns = 0
        for m in SIZES:
            generators = self.check_inputs[(m, 0)][0][0]
            body = self.zonotope.Zonotope3.from_generators(generators)
            exact_times, float_times = [], []
            for _ in range(3):
                t0 = clock()
                exact = self.zonotope.volume(body)
                t1 = clock()
                approx = self.zonotope.volume_float(body)
                float_times.append(clock() - t1)
                exact_times.append(t1 - t0)
            if abs(approx - exact) > 1e-9 * abs(exact):
                self.fail([f"float volume {approx} far from exact {exact} at m={m}"])
            exact_ns += min(exact_times)
            float_ns += min(float_times)
        return float_ns * 1e-9, exact_ns / float_ns


class FuzzBezout(Workload):
    """`verify.fuzz` in process on target bezout with the CLI defaults; one op is one trial."""

    name = "fuzz_bezout"
    ops_per_step = 1000
    trace_steps = 4

    def step(self, i: int) -> Step:
        verify = self.verify
        config = verify.FuzzConfig(target="bezout", trials=self.ops_per_step, m_max=M_MAX,
                                   coeff_bound=COEFF_BOUND, seed=fuzz_seed(self.seed, i))
        latencies = []
        violations = 0
        last = clock()

        def on_trial(t, m, report):
            nonlocal last, violations
            now = clock()
            latencies.append(now - last)
            last = now
            if not report.holds:
                violations += 1

        start = last
        summary = verify.fuzz(config, on_trial=on_trial)
        busy = clock() - start
        self.attempted += self.ops_per_step
        if violations:
            self.fail([f"{violations} bezout trials violated the bound"], violations)
        self.fail(checks.fuzz_summary_problems(self.oracles, summary, "bezout",
                                               self.ops_per_step))
        return Step(busy, latencies)

    def final_checks(self) -> None:
        """The oracle on every trial of one more fuzz call, untimed."""
        verify = self.verify
        config = verify.FuzzConfig(target="bezout", trials=ORACLE_TRIALS, m_max=M_MAX,
                                   coeff_bound=COEFF_BOUND,
                                   seed=fuzz_seed(self.seed, ORACLE_CALL))
        _, calls = self.recording("check_bezout", lambda: verify.fuzz(config))
        self.attempted += len(calls)
        for bodies, report in calls:
            sides = checks.bezout_sides(self.oracles, *(b.generators for b in bodies))
            if (report.lhs, report.rhs) != sides:
                self.fail([f"bezout trial reports {report.lhs} <= {report.rhs}, oracle {sides}"])


class CheckLarge(Workload):
    """`zonomix check bezout` on stored triples of 24, 48 and 96 generators, in turn."""

    name = "check_large"
    steps_per_round = len(SIZES)
    trace_steps = 2 * len(SIZES)
    # The tail falls among the m = 96 checks, at a rank that moves with their
    # count; 16 rounds hold that count fixed on hosts that finish fewer in time.
    min_ops = 16 * len(SIZES)
    probe = False  # its own steps give check_m*_ms

    def step(self, i: int) -> Step:
        m = SIZES[i % len(SIZES)]
        busy = self.run_check(m, (i // len(SIZES)) % POOL)
        return Step(busy, [busy], m)

    def final_checks(self) -> None:
        """Oracle values for the first m = 24 triple; larger ones take the oracle minutes."""
        bodies, _ = self.check_inputs[(24, 0)]
        values = checks.parse_report(self._check_outputs[(24, 0)])
        self.fail(checks.check_output_problems(values, self.oracles, bodies))


class FuzzCsv(Workload):
    """`zonomix fuzz --target lemma --output csv --out FILE`; one op is one trial."""

    name = "fuzz_csv"
    ops_per_step = 2000
    trace_steps = 4

    def step(self, i: int) -> Step:
        cli = self.cli
        inner = cli.fuzz
        latencies = []
        summaries = []

        def timed_fuzz(config, on_trial=None):
            # Times the intervals between cli's per-trial callbacks.
            last = clock()

            def stamped(t, m, report):
                nonlocal last
                now = clock()
                latencies.append(now - last)
                last = now
                on_trial(t, m, report)

            summaries.append(inner(config, on_trial=stamped))
            return summaries[-1]

        path = self.work / "fuzz.csv"
        args = ["fuzz", "--target", "lemma", "--output", "csv", "--out", str(path),
                "--trials", str(self.ops_per_step), "--seed", str(fuzz_seed(self.seed, i))]
        cli.fuzz = timed_fuzz
        try:
            start = clock()
            code = cli.main(args)
            busy = clock() - start
        finally:
            cli.fuzz = inner
        self.attempted += self.ops_per_step
        rows, min_slack, max_ratio = checks.fuzz_csv_problems(
            path.read_text(), self.ops_per_step, "lemma", M_MAX, checks.LEMMA)
        self.fail(rows, len(rows))
        problems = [] if code == 0 else [f"fuzz exited {code}"]
        (summary,) = summaries
        problems += checks.fuzz_summary_problems(self.oracles, summary, "lemma",
                                                 self.ops_per_step)
        if not rows and (min_slack, max_ratio) != (summary.min_slack, summary.max_ratio):
            problems.append("CSV rows disagree with the fuzz summary")
        self.fail(problems)
        return Step(busy, latencies)

    def final_checks(self) -> None:
        """The oracle on every trial of one more CLI fuzz call, untimed, row by row."""
        path = self.work / "oracle.csv"
        args = ["fuzz", "--target", "lemma", "--output", "csv", "--out", str(path),
                "--trials", str(ORACLE_TRIALS), "--seed", str(fuzz_seed(self.seed, ORACLE_CALL))]
        code, calls = self.recording("check_lemma_matrix", lambda: self.cli.main(args))
        rows = path.read_text().splitlines()[1:]
        self.attempted += len(calls)
        if code != 0 or len(rows) != len(calls):
            self.fail([f"oracle fuzz call exited {code} with {len(rows)} rows"])
            return
        for row, ((vectors,), report) in zip(rows, calls):
            sides = checks.lemma_sides(self.oracles, vectors)
            ratio = report.ratio
            expected = (f"{report.slack.numerator},{report.slack.denominator},"
                        + (f"{ratio.numerator},{ratio.denominator}" if ratio is not None else ","))
            if (report.lhs, report.rhs) != sides or not row.endswith("," + expected):
                self.fail([f"lemma row {row!r}: report {report.lhs} <= {report.rhs}, "
                           f"oracle {sides}"])


class WitnessGrassmann(Workload):
    """One op: `report`, `grassmann-sample --n 12`, then the polytope pipeline on 256 points."""

    name = "witness_grassmann"
    trace_steps = 3

    def prepare(self) -> None:
        rnd = random.Random(f"witness:{self.seed}")
        self.bodies = []
        for _ in range(POOL):
            generators = _vectors(rnd, WITNESS_GENERATORS)
            (u,) = _vectors(rnd, 1)
            self.bodies.append((generators, u,
                                self.zonotope.Zonotope3.from_generators(generators),
                                self.numeric.vec3(*u)))

    def step(self, i: int) -> Step:
        generators, u, body, segment = self.bodies[i % POOL]
        seed = str(fuzz_seed(self.seed, i))
        report, sample = io.StringIO(), io.StringIO()
        start = clock()
        with contextlib.redirect_stdout(report):
            report_code = self.cli.main(["report", "--seed", seed])
        with contextlib.redirect_stdout(sample):
            sample_code = self.cli.main(["grassmann-sample", "--n", str(GRASSMANN_N),
                                         "--seed", seed])
        polytope = self.witness.polytope_of_zonotope(body)
        volume = self.witness.volume_polytope(polytope)
        mixed = self.witness.mv_body_body_seg(polytope, segment)
        busy = clock() - start
        self.attempted += 1
        problems = [f"{name} exited {code}" for name, code in
                    (("report", report_code), ("grassmann-sample", sample_code)) if code != 0]
        problems += checks.battery_problems(report.getvalue(), REPORT_TRIALS)
        problems += checks.grassmann_sample_problems(self.oracles, sample.getvalue(), GRASSMANN_N)
        if volume != self.oracles.brute_volume(generators):
            problems.append(f"polytope volume {volume} disagrees with the oracle")
        if mixed != self.oracles.brute_mixed_volume(generators, generators, [u]):
            problems.append(f"V(P,P,[0,u]) = {mixed} disagrees with the oracle")
        self.fail(problems)
        return Step(busy, [busy])


WORKLOADS = {w.name: w for w in (FuzzBezout, CheckLarge, FuzzCsv, WitnessGrassmann)}
