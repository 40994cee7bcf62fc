"""Exact checks of zonomix outputs, independent of the package under test.

Outputs are parsed here with ``fractions.Fraction``, never with zonomix's
own readers, and expected values come from the naive Fraction oracles in
``tests/oracles.py``.  Nothing here depends on how fuzz derives its
per-trial random streams: fuzz results are checked through the inputs they
print (the worst case) and through bounds, never through pinned digests.

Every function returns a list of problems; an empty list means the output
is right.
"""

from __future__ import annotations

import importlib.util
import re
from fractions import Fraction
from itertools import combinations
from math import comb, gcd
from pathlib import Path

BEZOUT = Fraction(3, 2)
LEMMA = Fraction(1)

# The named witnesses of `zonomix report`, with the constant of each
# inequality.  Every one is an equality case, so its slack is exactly 0 and
# its ratio equals the constant.
BATTERY = {
    "4-generator equality configuration": BEZOUT,
    "square pyramid segment witness": Fraction(2),
    "unit cube vs its edge segments": BEZOUT,
    "generator-matrix form on the cube": LEMMA,
    "quadratic minor inequality (6 columns)": LEMMA,
}
FUZZ_TARGETS = ("bezout", "lemma", "af_square")
CSV_HEADER = "trial,target,m,slack_num,slack_den,ratio_num,ratio_den"

_VALUE = re.compile(r"^(lhs|rhs|slack|ratio)\s*= (-?\d+(?:/\d+)?) \(")
_FUZZ_LINE = re.compile(r"^fuzz (\w+)\s+trials=(\d+) failures=(\d+) min_slack=(-?\d+(?:/\d+)?)$")
_RELATIONS = re.compile(r"^# exchange relations checked = (\d+), nonzero residuals = (\d+)$")


def load_oracles(root: Path):
    """Import tests/oracles.py of the checkout under a private module name."""
    spec = importlib.util.spec_from_file_location("perfbench_oracles",
                                                  root / "tests" / "oracles.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _data_lines(text: str) -> list[str]:
    return [line.strip() for line in text.splitlines()
            if line.strip() and not line.strip().startswith("#")]


def parse_zonotopes(text: str) -> list[list[tuple]]:
    """Generator lists of the `zonotope3` blocks in `text`, in order."""
    bodies: list[list[tuple]] = []
    for line in _data_lines(text):
        if line == "zonotope3":
            bodies.append([])
        else:
            bodies[-1].append(tuple(Fraction(x) for x in line.split()))
    return bodies


def parse_matrix(text: str) -> list[tuple]:
    """Columns of the first `matrix 3 n` block in `text`."""
    lines = _data_lines(text)
    n = int(lines[0].split()[2])
    rows = [[Fraction(x) for x in line.split()] for line in lines[1:4]]
    return [tuple(row[j] for row in rows) for j in range(n)]


def zonotope_text(generators) -> str:
    return "zonotope3\n" + "".join(" ".join(map(str, g)) + "\n" for g in generators)


def bezout_sides(oracles, a, b, c) -> tuple[Fraction, Fraction]:
    """V(A,A,A)V(A,B,C) and (3/2)V(A,A,B)V(A,A,C) by full enumeration."""
    lhs = oracles.brute_volume(a) * oracles.brute_mixed_volume(a, b, c)
    rhs = BEZOUT * oracles.brute_mixed_volume(a, a, b) * oracles.brute_mixed_volume(a, a, c)
    return lhs, rhs


def lemma_sides(oracles, columns) -> tuple[Fraction, Fraction]:
    """Both sides of the generator-matrix form, by full enumeration."""
    xs, ys, zs = ([v[i] for v in columns] for i in range(3))
    lhs = oracles.brute_volume(columns) * sum(abs(z) for z in zs)
    rhs = oracles.brute_pair_abs_sum(ys, zs) * oracles.brute_pair_abs_sum(xs, zs)
    return lhs, rhs


def parse_report(text: str) -> dict:
    """lhs, rhs, slack, ratio (None when undefined) and holds of one report block."""
    values: dict = {}
    for line in text.splitlines():
        match = _VALUE.match(line)
        if match:
            values[match.group(1)] = Fraction(match.group(2))
        elif line.startswith("ratio = undefined"):
            values["ratio"] = None
        elif line.startswith("holds = "):
            values["holds"] = line == "holds = yes"
    return values


def report_problems(values: dict, constant: Fraction) -> list[str]:
    """Internal consistency of one printed report of lhs <= constant * f1 * f2."""
    missing = {"lhs", "rhs", "slack", "ratio", "holds"} - set(values)
    if missing:
        return [f"report lacks {sorted(missing)}"]
    problems = []
    lhs, rhs, slack, ratio = values["lhs"], values["rhs"], values["slack"], values["ratio"]
    if slack != rhs - lhs:
        problems.append(f"slack {slack} != rhs - lhs {rhs - lhs}")
    if not values["holds"] or slack < 0:
        problems.append(f"reported violation: slack {slack}")
    if ratio is not None:
        if ratio > constant:
            problems.append(f"ratio {ratio} exceeds the bound {constant}")
        if ratio * rhs != constant * lhs:
            problems.append(f"ratio {ratio} disagrees with lhs and rhs")
    return problems


def check_output_problems(values: dict, oracles=None, bodies=None) -> list[str]:
    """A `check bezout` report; with `bodies`, also against the oracle values."""
    problems = report_problems(values, BEZOUT)
    if bodies is not None and not problems:
        lhs, rhs = bezout_sides(oracles, *bodies)
        if (values["lhs"], values["rhs"]) != (lhs, rhs):
            problems.append(f"oracle gives lhs {lhs}, rhs {rhs}; "
                            f"output has {values['lhs']}, {values['rhs']}")
    return problems


def fuzz_summary_problems(oracles, summary, target: str, trials: int) -> list[str]:
    """A FuzzSummary: counts, bound, and its worst case re-checked by the oracles."""
    bound = BEZOUT if target == "bezout" else LEMMA
    problems = []
    if summary.trials != trials or summary.failures != 0:
        problems.append(f"summary reports {summary.failures} failures in {summary.trials}")
    if summary.max_ratio is not None and summary.max_ratio > bound:
        problems.append(f"max ratio {summary.max_ratio} exceeds {bound}")
    try:
        if target == "bezout":
            lhs, rhs = bezout_sides(oracles, *parse_zonotopes(summary.worst_case))
        else:
            lhs, rhs = lemma_sides(oracles, parse_matrix(summary.worst_case))
    except (ValueError, IndexError, TypeError):
        return problems + [f"unparsable worst case {summary.worst_case!r}"]
    if rhs - lhs != summary.min_slack:
        problems.append(f"worst case has slack {rhs - lhs}, summary says {summary.min_slack}")
    return problems


def fuzz_csv_problems(text: str, trials: int, target: str, m_max: int, bound: Fraction):
    """Row count, parse and sign of every row of `fuzz --output csv`.

    Returns (problems, minimum slack, maximum ratio) over the rows.
    """
    lines = text.splitlines()
    if not lines or lines[0] != CSV_HEADER:
        return ["missing CSV header"], None, None
    if len(lines) != trials + 1:
        return [f"{len(lines) - 1} CSV rows for {trials} trials"], None, None
    problems = []
    min_slack = max_ratio = None
    for index, row in enumerate(lines[1:]):
        fields = row.split(",")
        try:
            t, name, m, sn, sd = int(fields[0]), fields[1], int(fields[2]), \
                int(fields[3]), int(fields[4])
            rn, rd = fields[5], fields[6]
            ratio = Fraction(int(rn), int(rd)) if rn or rd else None
        except (IndexError, ValueError, ZeroDivisionError):
            problems.append(f"unparsable CSV row {row!r}")
            continue
        bad = (len(fields) != 7 or t != index or name != target or not 1 <= m <= m_max
               or sn < 0 or sd <= 0 or gcd(sn, sd) != 1
               or (ratio is not None and (int(rd) <= 0 or ratio < 0 or ratio > bound)))
        if bad:
            problems.append(f"bad CSV row {row!r}")
            continue
        slack = Fraction(sn, sd)
        if min_slack is None or slack < min_slack:
            min_slack = slack
        if ratio is not None and (max_ratio is None or ratio > max_ratio):
            max_ratio = ratio
    return problems, min_slack, max_ratio


def battery_problems(text: str, trials: int) -> list[str]:
    """`zonomix report`: every named witness sharp, residuals zero, fuzz clean."""
    problems = []
    blocks = {}
    for block in text.split("== ")[1:]:
        name, _, body = block.partition("\n")
        blocks[name] = body
    for name, constant in BATTERY.items():
        if name not in blocks:
            problems.append(f"report lacks {name!r}")
            continue
        values = parse_report(blocks[name])
        found = report_problems(values, constant)
        if not found and (values["slack"] != 0 or values["ratio"] != constant):
            found = [f"not an equality case (slack {values['slack']})"]
        problems += [f"{name}: {p}" for p in found]
    if "exchange-relation residuals all zero: yes" not in blocks:
        problems.append("report does not confirm zero exchange residuals")
    seen = set()
    for line in text.splitlines():
        match = _FUZZ_LINE.match(line)
        if match:
            target, n, failures, slack = match.groups()
            seen.add(target)
            if int(n) != trials or int(failures) != 0 or Fraction(slack) < 0:
                problems.append(f"bad fuzz line {line!r}")
    if seen != set(FUZZ_TARGETS):
        problems.append(f"report fuzzed {sorted(seen)}")
    return problems


def grassmann_sample_problems(oracles, text: str, n: int) -> list[str]:
    """`grassmann-sample`: every minor against the oracle, relation count, residuals."""
    lines = text.splitlines()
    try:
        start = lines.index(f"matrix 3 {n}")
        columns = parse_matrix("\n".join(lines[start:start + 4]))
    except (ValueError, IndexError):
        return ["grassmann-sample printed no readable matrix"]
    minors = [line.split(",") for line in lines if re.fullmatch(r"\d+,\d+,\d+,\S+", line)]
    problems = []
    expected = list(combinations(range(1, n + 1), 3))
    if [tuple(int(x) for x in row[:3]) for row in minors] != expected:
        problems.append("minor coordinates are missing or out of order")
    else:
        for (i, j, k), row in zip(expected, minors):
            value = oracles.leibniz_det3(columns[i - 1], columns[j - 1], columns[k - 1])
            if Fraction(row[3]) != value:
                problems.append(f"minor {i},{j},{k} is {row[3]}, oracle gives {value}")
    relations = [_RELATIONS.match(line) for line in lines]
    relations = [m for m in relations if m]
    if len(relations) != 1 or relations[0].groups() != (str(comb(n, 2) * comb(n - 2, 4)), "0"):
        problems.append("wrong exchange-relation summary")
    return problems
