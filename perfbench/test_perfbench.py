"""Tests of the benchmark's own helpers: python3 -m pytest perfbench"""

import random
import statistics
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import stats  # noqa: E402
import tracing  # noqa: E402
from tracing import Span  # noqa: E402
from workloads import Workload, fuzz_seed  # noqa: E402


def test_tail_percentile_leaves_exactly_ten_samples_beyond():
    samples = list(range(1, 101))
    random.Random(0).shuffle(samples)
    value, percentile, n = stats.tail_percentile(samples)
    assert (value, percentile, n) == (90, 90.0, 100)
    assert sum(s > value for s in samples) == 10


def test_tail_percentile_at_the_smallest_sample_count():
    value, percentile, n = stats.tail_percentile([5.0] + [1.0] * 10)
    assert (value, n) == (1.0, 11)
    assert percentile == pytest.approx(100 / 11)
    with pytest.raises(ValueError):
        stats.tail_percentile([1.0] * 10)


def test_tail_percentile_of_a_minimal_timed_run_is_not_below_the_median():
    samples = list(range(Workload.min_ops))
    random.Random(0).shuffle(samples)
    value, percentile, _ = stats.tail_percentile(samples)
    assert percentile > 50 and value >= statistics.median(samples)


def _nested_spans():
    # cli:main [0, 100] holds verify:check [10, 50], which holds a kernel
    # [20, 30], and then numeric:int_scaled [60, 80].  Each wrapper costs one
    # tick on entry and one on exit.
    return [
        Span("cli:main", "main", "cli", -1, 0, 1, 99, 100),
        Span("cli:check_bezout", "check_bezout", "verify", 0, 10, 11, 49, 50),
        Span("zonotope:sum_abs_det3_combos", "sum_abs_det3_combos", "numeric", 1,
             20, 21, 29, 30),
        Span("verify:int_scaled", "int_scaled", "numeric", 0, 60, 61, 79, 80),
    ]


def test_self_time_subtracts_what_children_cover():
    assert tracing.self_times(_nested_spans()) == [98 - 40 - 20, 38 - 10, 8, 18]


def test_self_time_clips_children_to_the_parent_and_merges_overlaps():
    spans = [Span("a", "a", "cli", -1, 0, 0, 100, 100),
             Span("b", "b", "cli", 0, 10, 10, 40, 40),
             Span("c", "c", "cli", 0, 30, 30, 60, 60),
             Span("d", "d", "cli", 0, 90, 90, 120, 120)]
    assert tracing.self_times(spans)[0] == 100 - 50 - 10


def test_layer_self_times_instrumentation_and_remainder_add_up_to_wall_time():
    counts = tracing.Tracer().counts
    m = tracing.layer_metrics(_nested_spans(), counts, wall_ns=120, ops=1)
    layers = sum(m[f"{layer}.self_s"][0] for layer in tracing.LAYERS)
    assert m["cli.self_s"][0] == pytest.approx(38e-9)
    assert m["numeric.self_s"][0] == pytest.approx(26e-9)
    assert m["trace.instrument_s"][0] == pytest.approx(8e-9)
    assert m["trace.untraced_s"][0] == pytest.approx(20e-9)
    assert layers + m["trace.instrument_s"][0] + m["trace.untraced_s"][0] == \
        pytest.approx(m["trace.wall_s"][0])


def test_outermost_counts_nested_calls_of_the_same_layer_once():
    spans = [Span("verify:random_zonotope", "random_zonotope", "rng", -1, 0, 1, 9, 10),
             Span("rng:random_vectors", "random_vectors", "rng", 0, 2, 3, 7, 8),
             Span("cli:random_vectors", "random_vectors", "rng", -1, 20, 21, 24, 25)]
    assert tracing.outermost(spans, lambda s: s.layer == "rng") == (8 + 3, 2)


class Tally:
    """An integer that counts the sign tests made on values derived from it."""

    sign_tests = 0

    def __init__(self, value):
        self.value = value

    @staticmethod
    def _v(other):
        return other.value if isinstance(other, Tally) else other

    def __add__(self, other):
        return Tally(self.value + self._v(other))

    __radd__ = __add__

    def __sub__(self, other):
        return Tally(self.value - self._v(other))

    def __rsub__(self, other):
        return Tally(self._v(other) - self.value)

    def __mul__(self, other):
        return Tally(self.value * self._v(other))

    __rmul__ = __mul__

    def __neg__(self):
        return Tally(-self.value)

    def __ge__(self, other):
        Tally.sign_tests += 1
        return self.value >= self._v(other)


@pytest.mark.parametrize("kernel, lengths", [
    ("sum_abs_det3_triples", (5, 4, 3)),
    ("sum_abs_det3_pairs", (6, 4)),
    ("sum_abs_det3_combos", (7,)),
    ("sum_abs_det2_pairs", (8, 8)),
])
def test_det_evals_matches_the_kernel_loop_bounds(kernel, lengths):
    from zonomix import numeric

    rnd = random.Random(kernel)
    if kernel == "sum_abs_det2_pairs":
        args = tuple([Tally(rnd.randint(-9, 9)) for _ in range(n)] for n in lengths)
    else:
        args = tuple([tuple(Tally(rnd.randint(-9, 9)) for _ in range(3)) for _ in range(n)]
                     for n in lengths)
    Tally.sign_tests = 0
    getattr(numeric, kernel)(*args)
    # Every determinant the kernel evaluates gets exactly one sign test.
    assert Tally.sign_tests == tracing.DET_EVALS[kernel](*args)


def test_tracer_wraps_every_binding_and_restores_them():
    import zonomix.cli  # noqa: F401  (cli binds names of every layer)
    from zonomix import numeric, verify, zonotope

    original = numeric.int_scaled
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for module in (numeric, zonotope, verify):
            assert module.int_scaled is not original
        body = zonotope.Zonotope3.from_generators([(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1)])
        assert zonotope.volume(body) == 4
    finally:
        tracer.uninstall()
    assert numeric.int_scaled is zonotope.int_scaled is verify.int_scaled is original
    labels = [s.label for s in tracer.spans]
    assert labels == ["zonotope:volume", "zonotope:int_scaled", "zonotope:sum_abs_det3_combos"]
    assert [s.parent for s in tracer.spans] == [-1, 0, 0]
    assert tracer.counts["det_evals"] == 4


def test_fuzz_seeds_of_different_runs_and_calls_share_no_trials():
    # Fuzz trial t uses seed ^ t with t < 2^24, so two calls share trials
    # exactly when their seeds agree above bit 24.
    high = {fuzz_seed(seed, call) >> 24 for seed in range(4) for call in range(4)}
    assert len(high) == 16
    assert fuzz_seed((1 << 24) - 1, (1 << 16) - 1) < 1 << 64


def test_fuzz_seed_takes_any_integer_seed():
    for seed in (-7, 3_000_000_000, 1 << 80):
        assert 0 <= fuzz_seed(seed, 5) < 1 << 64
        assert fuzz_seed(seed, 5) == fuzz_seed(seed % (1 << 24), 5)
