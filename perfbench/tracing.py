"""Span tracing of zonomix from outside the package, and the per-layer metrics.

The tracer replaces each traced function with a wrapper in every zonomix
namespace that binds it.  Modules import with ``from .numeric import
int_scaled``, so ``zonotope.int_scaled``, ``verify.int_scaled`` and
``witness.int_scaled`` are separate bindings and each is wrapped.  Spans stay
in memory with parent links until the run ends; nothing under ``src/`` is
changed, and `Tracer.uninstall` puts every original binding back.

A span keeps four clock readings: ``enter`` and ``exit`` bracket the whole
wrapper, ``start`` and ``end`` bracket the wrapped call.  A span's self time
is ``end - start`` minus the part of that interval its children cover, where
a child covers ``[enter, exit]``.  The wrapper's own cost therefore lands in
``trace.instrument_s`` instead of in the parent layer, and for the traced wall
time W of a run

    sum of <layer>.self_s + trace.instrument_s + trace.untraced_s == W

holds exactly in integer nanoseconds.
"""

from __future__ import annotations

import functools
import sys
import time
from math import comb
from pathlib import Path

# Traced functions by defining module; the module is the span's layer.
# Boundaries are coarse on purpose: per-coordinate helpers such as
# SplitMix64.next64, random_vec3, parse_rational or det3 are never wrapped.
TRACED = {
    "rng": ("random_zonotope", "random_vectors"),
    "numeric": ("int_scaled", "sum_abs_det3_triples", "sum_abs_det3_pairs",
                "sum_abs_det3_combos", "sum_abs_det2_pairs", "parse_matrix", "render_matrix"),
    "zonotope": ("mixed_volume", "mixed_volume_repeated", "volume", "parse_zonotope",
                 "render_zonotope"),
    "verify": ("fuzz", "check_bezout", "check_lemma_matrix", "check_af_square", "ineq_report"),
    "witness": ("polytope_of_zonotope", "volume_polytope", "mv_body_body_seg", "mv_seg_seg",
                "pyramid_equality_report"),
    "grassmann": ("pluecker", "abs_map", "check_gp3", "check_quad_ineq", "render_pluecker_csv"),
    # _emit is private, but it is the one place where cli writes its output.
    "cli": ("main", "_emit"),
}
LAYERS = tuple(TRACED)

# Determinants each |det| kernel evaluates, from its loop bounds.
DET_EVALS = {
    "sum_abs_det3_triples": lambda ga, gb, gc: len(ga) * len(gb) * len(gc),
    "sum_abs_det3_pairs": lambda ga, gb: comb(len(ga), 2) * len(gb),
    "sum_abs_det3_combos": lambda g: comb(len(g), 3),
    "sum_abs_det2_pairs": lambda us, vs: comb(len(us), 2),
}
KERNELS = frozenset(DET_EVALS)
ZONOTOPE_VOLUMES = frozenset({"mixed_volume", "mixed_volume_repeated", "volume"})
CHECKS = frozenset({"check_bezout", "check_lemma_matrix", "check_af_square"})
PARSERS = frozenset({"parse_zonotope", "parse_matrix"})
HULLS = frozenset({"volume_polytope", "mv_body_body_seg"})
CLI_RENDER = frozenset({"cli:_emit", "cli:render_matrix", "cli:render_zonotope",
                        "cli:render_pluecker_csv"})
# fuzz renders its worst case with these bindings in the verify namespace.
WORST_CASE_RENDER = frozenset({"verify:render_zonotope", "verify:render_matrix"})


def _bits(q) -> int:
    return max(q.numerator.bit_length(), q.denominator.bit_length())


def _count_int_scaled(counts, args, kwargs, result):
    ints, _ = result
    bits = max((abs(c).bit_length() for v in ints for c in v), default=0)
    counts["int_bits_max"] = max(counts["int_bits_max"], bits)


def _count_ineq_report(counts, args, kwargs, report):
    counts["reports"] += 1
    if report.ratio is None:
        counts["degenerate"] += 1
    else:
        constant = args[3] if len(args) > 3 else kwargs.get("constant", 1)
        over = report.ratio / constant
        if counts["max_ratio_over_bound"] is None or over > counts["max_ratio_over_bound"]:
            counts["max_ratio_over_bound"] = over
    counts["lhs_bits_max"] = max(counts["lhs_bits_max"], _bits(report.lhs))
    counts["rhs_bits_max"] = max(counts["rhs_bits_max"], _bits(report.rhs))


def _count_hull(points_per_vertex):
    def count(counts, args, kwargs, result):
        counts["hull_calls"] += 1
        counts["hull_points"] += points_per_vertex * len(args[0].vertices)
    return count


def _count_relations(counts, args, kwargs, residuals):
    counts["relations"] += len(residuals)


def _count_output(counts, args, kwargs, result):
    counts["output_bytes"] += len(args[0].encode())


def _count_kernel(name):
    evals = DET_EVALS[name]

    def count(counts, args, kwargs, result):
        counts["det_evals"] += evals(*args)
    return count


AFTER = {
    "int_scaled": _count_int_scaled,
    "ineq_report": _count_ineq_report,
    "volume_polytope": _count_hull(1),
    # one hull of the vertices and their translates; the hull of the body
    # alone is a nested volume_polytope span and counts itself.
    "mv_body_body_seg": _count_hull(2),
    "check_gp3": _count_relations,
    "_emit": _count_output,
    **{name: _count_kernel(name) for name in DET_EVALS},
}


class Span:
    __slots__ = ("label", "func", "layer", "parent", "enter", "start", "end", "exit")

    def __init__(self, label, func, layer, parent, enter=0, start=0, end=0, exit=0):
        self.label, self.func, self.layer, self.parent = label, func, layer, parent
        self.enter, self.start, self.end, self.exit = enter, start, end, exit


class Tracer:
    """Wraps the TRACED functions of the loaded zonomix modules and records spans."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counts = {key: 0 for key in (
            "int_bits_max", "reports", "degenerate", "lhs_bits_max", "rhs_bits_max",
            "hull_calls", "hull_points", "relations", "output_bytes", "det_evals")}
        self.counts["max_ratio_over_bound"] = None
        self._stack: list[int] = []
        self._installed: list[tuple[object, str, object]] = []

    def install(self) -> None:
        originals = {}
        for layer, names in TRACED.items():
            module = sys.modules[f"zonomix.{layer}"]
            for name in names:
                fn = getattr(module, name)
                originals[id(fn)] = (layer, name, fn)
        for modname, module in list(sys.modules.items()):
            if modname != "zonomix" and not modname.startswith("zonomix."):
                continue
            namespace = modname.rpartition(".")[2]
            for attr, value in list(vars(module).items()):
                hit = originals.get(id(value))
                if hit is not None and hit[2] is value:
                    layer, name, _ = hit
                    wrapper = self._wrap(f"{namespace}:{name}", name, layer, value, namespace)
                    setattr(module, attr, wrapper)
                    self._installed.append((module, attr, value))

    def uninstall(self) -> None:
        for module, attr, value in reversed(self._installed):
            setattr(module, attr, value)
        self._installed.clear()

    def _wrap(self, label, func, layer, fn, namespace):
        spans, stack, counts = self.spans, self._stack, self.counts
        after = AFTER.get(func)
        clock = time.perf_counter_ns
        # cli hands fuzz a per-trial closure that builds its CSV rows; that
        # work belongs to cli, so the callback gets a cli span of its own.
        wrap_callback = func == "fuzz" and namespace == "cli"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            enter = clock()
            span = Span(label, func, layer, stack[-1] if stack else -1, enter)
            stack.append(len(spans))
            spans.append(span)
            if wrap_callback and kwargs.get("on_trial") is not None:
                kwargs["on_trial"] = self._wrap("cli:on_trial", "on_trial", "cli",
                                                kwargs["on_trial"], "cli")
            span.start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = span.exit = clock()
                stack.pop()
            if after is not None:
                after(counts, args, kwargs, result)
            span.exit = clock()
            return result
        return traced

    def write(self, path: Path) -> None:
        """Write every span as one CSV row, parent by index (-1 for a root)."""
        lines = ["id,parent,label,layer,enter_ns,start_ns,end_ns,exit_ns"]
        lines += [f"{i},{s.parent},{s.label},{s.layer},{s.enter},{s.start},{s.end},{s.exit}"
                  for i, s in enumerate(self.spans)]
        path.write_text("\n".join(lines) + "\n")


def self_times(spans: list[Span]) -> list[int]:
    """Each span's duration minus the part of it that its children cover."""
    children: list[list[int]] = [[] for _ in spans]
    for i, span in enumerate(spans):
        if span.parent >= 0:
            children[span.parent].append(i)
    out = []
    for span, kids in zip(spans, children):
        covered, cursor = 0, span.start
        for k in sorted(kids, key=lambda k: spans[k].enter):
            lo, hi = max(spans[k].enter, cursor), min(spans[k].exit, span.end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out.append(span.end - span.start - covered)
    return out


def outermost(spans: list[Span], selected) -> tuple[int, int]:
    """Total duration and count of selected spans not nested in another selected span.

    `selected(span)` picks the spans.  Parents precede their children in
    `spans`, so one forward pass sees every ancestor first.
    """
    inside = [False] * len(spans)
    total = calls = 0
    for i, span in enumerate(spans):
        p = span.parent
        nested = p >= 0 and (inside[p] or selected(spans[p]))
        inside[i] = nested
        if not nested and selected(span):
            total += span.end - span.start
            calls += 1
    return total, calls


def worst_case_renders(spans: list[Span]) -> int:
    """Times fuzz serialized a new worst case.

    One serialization renders one body per call (three for bezout), with no
    other traced call in between, so each run of consecutive render spans
    directly under a fuzz span is one render.
    """
    renders = 0
    previous: dict[int, bool] = {}
    for span in spans:
        p = span.parent
        if p < 0 or spans[p].func != "fuzz":
            continue
        is_render = span.label in WORST_CASE_RENDER
        if is_render and not previous.get(p, False):
            renders += 1
        previous[p] = is_render
    return renders


def layer_metrics(spans: list[Span], counts: dict, wall_ns: int, ops: int) -> dict:
    """Per-layer metrics of one traced phase of `ops` operations taking `wall_ns`."""
    s = 1e-9
    wall = wall_ns * s

    def time_in(names):
        return outermost(spans, lambda span: span.func in names)

    selfs = self_times(spans)
    layer_self = dict.fromkeys(LAYERS, 0)
    for span, own in zip(spans, selfs):
        layer_self[span.layer] += own
    roots = sum(span.exit - span.enter for span in spans if span.parent < 0)
    instrument = sum((span.start - span.enter) + (span.exit - span.end) for span in spans)
    if sum(selfs) + instrument != roots:
        raise RuntimeError("child spans overlap or leave their parents; self times do not add up")

    rng_ns, rng_calls = time_in(frozenset(TRACED["rng"]))
    scaled_ns, scaled_calls = time_in({"int_scaled"})
    kernel_ns, kernel_calls = time_in(KERNELS)
    _, zonotope_calls = time_in(ZONOTOPE_VOLUMES)
    assemble_ns, assemble_calls = time_in({"ineq_report"})
    render_ns, _ = outermost(spans, lambda span: span.label in CLI_RENDER)
    ratio = counts["max_ratio_over_bound"]
    m = {
        "rng.sample_s": (rng_ns * s, "s"),
        "rng.sample_calls": (rng_calls, "count"),
        "rng.share": (rng_ns * s / wall, "share"),
        "numeric.int_scaled_s": (scaled_ns * s, "s"),
        "numeric.int_scaled_calls": (scaled_calls, "count"),
        "numeric.int_scaled_share": (scaled_ns * s / wall, "share"),
        "numeric.int_bits_max": (counts["int_bits_max"], "bits"),
        "numeric.kernel_s": (kernel_ns * s, "s"),
        "numeric.kernel_calls": (kernel_calls, "count"),
        "numeric.kernel_share": (kernel_ns * s / wall, "share"),
        "numeric.det_evals": (counts["det_evals"], "count"),
        "numeric.det_evals_per_s": (counts["det_evals"] / (kernel_ns * s) if kernel_ns else 0.0,
                                    "1/s"),
        "numeric.parse_s": (time_in(PARSERS)[0] * s, "s"),
        "zonotope.calls": (zonotope_calls, "count"),
        "verify.check_s": (time_in(CHECKS)[0] * s, "s"),
        "verify.assemble_s": (assemble_ns * s, "s"),
        "verify.assemble_calls": (assemble_calls, "count"),
        "verify.degenerate_ops": (counts["degenerate"], "count"),
        "verify.degenerate_ratio": (counts["degenerate"] / counts["reports"]
                                    if counts["reports"] else 0.0, "share"),
        "verify.max_ratio_over_bound": (float(ratio) if ratio is not None else 0.0, "ratio"),
        "verify.lhs_bits_max": (counts["lhs_bits_max"], "bits"),
        "verify.rhs_bits_max": (counts["rhs_bits_max"], "bits"),
        "verify.worst_case_renders": (worst_case_renders(spans), "count"),
        "cli.render_s": (render_ns * s, "s"),
        "cli.output_bytes": (counts["output_bytes"], "bytes"),
        "witness.hull_s": (time_in(HULLS)[0] * s, "s"),
        "witness.hull_calls": (counts["hull_calls"], "count"),
        "witness.hull_points": (counts["hull_points"], "count"),
        "grassmann.pluecker_s": (time_in({"pluecker"})[0] * s, "s"),
        "grassmann.relations_s": (time_in({"check_gp3"})[0] * s, "s"),
        "grassmann.relations": (counts["relations"], "count"),
        "trace.ops": (ops, "count"),
        "trace.wall_s": (wall, "s"),
        "trace.untraced_s": ((wall_ns - roots) * s, "s"),
        "trace.instrument_s": (instrument * s, "s"),
    }
    for layer in LAYERS:
        m[f"{layer}.self_s"] = (layer_self[layer] * s, "s")
    return m
