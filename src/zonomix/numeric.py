"""Exact rational scalars, 3-vectors, 3x3 determinants, |det| sums, text I/O.

Values at the edges (`parse_rational`, `Vec3` coordinates, reported
volumes) are ``fractions.Fraction``s, which keep canonical form (positive
denominator, gcd 1), so equality tests are exact and unambiguous.  Inside,
the |det| kernels work on plain integers, and results are divided back as
one `Fraction`.  The two text formats (zonotope, matrix) share one reader,
`parse_rows`, which reads each literal straight to a reduced integer pair and
returns the common scale with the rows, and one writer, `render_rows`.
`int_scaled` clears a body built from rational generators, once.
"""

from __future__ import annotations

import atexit
import gc
import marshal
import os
import re
import signal
import sys
import threading
from bisect import bisect_left, bisect_right
from decimal import Decimal, localcontext
from fractions import Fraction
from functools import cmp_to_key
from itertools import compress, islice
from math import gcd, lcm
from operator import eq, itemgetter
from typing import Iterable, NamedTuple, Sequence

# A rational literal: signed integer (group 1), then optionally "/" integer (group 2).
_RATIONAL_RE = re.compile(r"([+-]?[0-9]+)(?:/([0-9]+))?")


def _rational_pair(text: str) -> tuple[int, int]:
    """A rational literal as its reduced (numerator, denominator > 0) pair.

    The one literal rule and its three refusals, in order of precedence;
    `parse_rows` reads the literals that pass all three inline.
    """
    s = text.strip()
    match = _RATIONAL_RE.fullmatch(s)
    if match is None:
        raise ValueError(f"invalid rational literal: {text!r}")
    num, den = match.groups()
    # int() refuses more digits than the interpreter's limit, with advice
    # meant for programmers; name the limit in the literal's terms instead.
    limit = sys.get_int_max_str_digits()
    if limit and len(s) > limit:
        digits = max(len(num.lstrip("+-")), len(den or ""))
        if digits > limit:
            raise ValueError(f"integer in rational literal has {digits} digits, "
                             f"more than the limit ({limit} digits)")
    n, d = int(num), int(den or 1)
    if not d:
        raise ValueError(f"zero denominator in rational literal: {text!r}")
    g = gcd(n, d)
    return n // g, d // g


def parse_rational(text: str) -> Fraction:
    """Parse a rational literal: optional sign, integer, optional '/' integer."""
    return Fraction(*_rational_pair(text))


def int_str(n: int) -> str:
    """The decimal digits of n, at any size.

    str() refuses integers of more than sys.get_int_max_str_digits() digits
    (4300 by default), a guard against slow parsing that also stops exact
    results from printing; Decimal converts without that limit.
    """
    try:
        return str(n)
    except ValueError:
        return str(Decimal(n))


def render_rational(q: Fraction) -> str:
    """Canonical form: "p/q" with q > 0 and gcd(p, q) = 1, integers without "/"."""
    if q.denominator == 1:
        return int_str(q.numerator)
    return f"{int_str(q.numerator)}/{int_str(q.denominator)}"


_APPROX_DIGITS = 12


def approx_str(q: Fraction) -> str:
    """Decimal annotation for human-readable output; never parsed back."""
    with localcontext() as ctx:
        ctx.prec = _APPROX_DIGITS
        d = Decimal(q.numerator) / Decimal(q.denominator)
    return str(d)


class Vec3(NamedTuple):
    x: Fraction
    y: Fraction
    z: Fraction


def vec3(x, y, z) -> Vec3:
    """Build a Vec3, coercing ints and strings to exact rationals."""
    return Vec3(Fraction(x), Fraction(y), Fraction(z))


E1 = vec3(1, 0, 0)
E2 = vec3(0, 1, 0)


def cross(a, b) -> Vec3:
    """Cross product of two 3-tuples; like det3, exact for Vec3 and integer triples."""
    return Vec3(a[1] * b[2] - a[2] * b[1], a[2] * b[0] - a[0] * b[2], a[0] * b[1] - a[1] * b[0])


def det3(a, b, c):
    """Determinant of the 3x3 matrix with columns a, b, c (any numeric 3-tuples).

    Exact for Vec3 and for integer triples alike.  Direct cofactor expansion
    along the first column; no pivoting is ever needed at this size.
    """
    return (a[0] * (b[1] * c[2] - b[2] * c[1])
            - a[1] * (b[0] * c[2] - b[2] * c[0])
            + a[2] * (b[0] * c[1] - b[1] * c[0]))


# ---------------------------------------------------------------------------
# Integer scaling and absolute-determinant summation kernels.
#
# Clearing denominators once and summing plain-int determinants is much
# faster than Fraction arithmetic in the inner loops, and stays exact: all
# results are divided back by the scale factors as a single Fraction.  The
# clearing itself is integer-only: a coordinate p/q scaled by L (a multiple
# of q) is p * (L // q), with no Fraction product to build and normalise.
# A zonotope is cleared at most once: `Zonotope3.scaled` caches the result
# per body, so every volume of a check reads the same integer generators.
# A sampled or parsed zonotope is never cleared, nor is a matrix, which is the
# body of its columns: `rng.random_zonotope` scales the drawn numerators the
# same way, `parse_rows` returns reduced pairs with their lcm scale, and each
# builds the body from its integer view; `unscaled` makes its rational
# generators only when they are read.
#
# Every 3D sum is a total of one kernel contract: given (p, (A, B, C))
# pairs, return the sums of |det(p, u, v)| over the pairs u, v from A x A
# (i < j), A x B, A x C and B x C.  Two kernels keep it.  The loop,
# `_class_loop`, takes one determinant per pair, a cross product p x u
# dotted with v: O(m^3) for a single sum.  The sweep, `_class_sweep`,
# projects the classes into the plane along p, so that |det(p, u, v)|
# becomes a 2D |cross| scaled by a pivot coordinate; over the images in
# angular order, one pass of prefix sums (`_three_classes2`) gives all four
# totals.  That is O(m^2 log m).  Each dispatcher picks its kernel by size
# and reads one total.  For a single sum the sweep overtakes the loop at
# about m = 7 to 10 (triples first, combos last) and runs 10-16x faster at
# m = 96 (Python 3.11, Intel Xeon, coordinates p/q with |p|, q <= 16).
#
# A check needs four sums of the same bodies, and `sum_abs_det3_bezout` and
# `sum_abs_det3_af_square` take all four from one kernel call.  On the sweep
# each pivot projects and sorts the three classes once: a bezout check
# projects 2.5 m^2 images instead of 4.5 m^2, an af-square check 3 m^2
# instead of 7 m^2.  On the loop each cross product is taken once and dotted
# with every class it pairs with.  fuzz at its default m_max = 6 never
# leaves the loop.
#
# A large sweep splits its pivots across processes, with the same integer
# totals.  The first sweep that splits forks helper processes, and they
# serve every later one; no helper outlives the process.  See SPLIT_MIN
# and `_split_sweep`.

# Smallest size at which a sum sweeps instead of looping: the length of ga
# for pairs and combos, the middle length of the three lists for triples
# (both kernels pivot over the shortest list), and the longest list for the
# four sums of a check.
SWEEP_MIN = 9

# Fewest plane images each process of a split sweep projects (see
# `_sweep_processes`).  A round trip to a live helper took 25-40 us with
# bodies of 24 to 96 generators, and a sweep takes about 1 us per image, so
# a split over two processes breaks even near 100-200 images each.  A bezout
# sweep split over two processes took a median 0.65-0.7 of the serial time
# at m = 8 to 20 (156 to 990 images) and 0.52-0.6 at m = 24 to 96 (1428 to
# 23,000; 2-vCPU Intel Xeon, Python 3.11, in process, interleaved).  The
# threshold keeps a margin for a busy second CPU.  The first split sweep of
# a process also pays for forking its helpers.
SPLIT_MIN = 500


def int_scaled(vectors: Sequence[Vec3]) -> tuple[list[tuple[int, int, int]], int]:
    """Scale vectors by the lcm of all coordinate denominators.

    Returns integer coordinate triples and the scale factor L, so that the
    returned tuples are exactly L times the inputs.
    """
    scale = 1
    for v in vectors:
        scale = lcm(scale, v.x.denominator, v.y.denominator, v.z.denominator)
    out = [(x.numerator * (scale // x.denominator), y.numerator * (scale // y.denominator),
            z.numerator * (scale // z.denominator)) for x, y, z in vectors]
    return out, scale


def unscaled(ints: Iterable[tuple[int, int, int]], scale: int) -> tuple[Vec3, ...]:
    """The rational vectors ints[i] / scale: `int_scaled` undone."""
    return tuple(Vec3(Fraction(x, scale), Fraction(y, scale), Fraction(z, scale))
                 for x, y, z in ints)


def _pivot_images(a, classes):
    """The plane images of the generators of each class along the pivot a, and |a_p|.

    With a_p a nonzero coordinate of a (z if it can), each g maps to
    (a_p g_q - a_q g_p, a_p g_r - a_r g_p) over the other two coordinates q, r
    in cyclic order, so the cross product of the images of b and c is
    a_p * det(a, b, c) and a sum of |cross| over images divides exactly by
    |a_p|.  Each nonzero image is flipped into the upper half-plane (which
    leaves every |cross| alone) and returned as (key, x, y, tag), tag being
    the index of its class in `classes`; the key -x / (|x| + y) grows
    strictly with the angle in [0, pi) and lies in [-1, 1], so it never
    overflows.  A zero pivot gives no images.
    """
    ax, ay, az = a
    if not az:
        if ay:
            ax, ay, az = az, ax, ay
            classes = [[(z, x, y) for x, y, z in gens] for gens in classes]
        elif ax:
            ax, ay, az = ay, az, ax
            classes = [[(y, z, x) for x, y, z in gens] for gens in classes]
        else:
            return [], 0
    return [(-u / ((u if u >= 0 else -u) + v), u, v, tag) if v > 0 or (v == 0 and u > 0)
            else (u / ((u if u >= 0 else -u) - v), -u, -v, tag)
            for tag, gens in enumerate(classes) for x, y, z in gens
            for u, v in ((az * x - ax * z, az * y - ay * z),) if u or v], abs(az)


def _cross_order(u, v):
    """Negative if u comes before v in angular order, positive if after, 0 if parallel."""
    return u[2] * v[1] - u[1] * v[2]


_key = itemgetter(0)
_exact_angle = cmp_to_key(_cross_order)


def _angular_order(items):
    """Sort (key, x, y, tag) items by the exact angle of (x, y), in place.

    int / int division is correctly rounded, so the float keys are in exact
    angular order except inside runs of equal keys, which are re-sorted by
    the sign of the cross product.  Most runs are single items or exact
    parallels; only the runs of two or more are touched.
    """
    items.sort(key=_key)
    if len(set(map(_key, items))) == len(items):
        return items
    keys = list(map(_key, items))
    for key in set(compress(keys, map(eq, keys, islice(keys, 1, None)))):
        lo, hi = bisect_left(keys, key), bisect_right(keys, key)
        items[lo:hi] = sorted(items[lo:hi], key=_exact_angle)
    return items


def _three_classes2(items):
    """Pair-class sums AA, AB, AC, BC of |u x v| over items tagged 0 (A), 1 (B), 2 (C).

    The items are upper half-plane vectors (key, x, y, tag).  In angular
    order every u before v has u x v >= 0, so the sum of |u x v| over pairs
    within A is that of P_A(v) x v over the A items v, with P_A(v) the sum
    of the A items before v.  Across two classes X, Y, |x x y| is x x y for
    the x before y and y x x for the x after it, so each y adds
    (2 P_X(y) - T_X) x y, with T_X the sum of all of X; the T_X part is
    taken once, against the sum of all of Y, at the end.  Parallel vectors
    add 0 in either order.  All four sums come from one pass.
    """
    aa = ab = ac = bc = 0
    ax = ay = bx = by = cx = cy = 0
    for _, x, y, tag in _angular_order(items):
        if not tag:
            aa += ax * y - ay * x
            ax += x
            ay += y
        elif tag == 1:
            ab += ax * y - ay * x
            bx += x
            by += y
        else:
            ac += ax * y - ay * x
            bc += bx * y - by * x
            cx += x
            cy += y
    return (aa, 2 * ab - (ax * by - ay * bx), 2 * ac - (ax * cy - ay * cx),
            2 * bc - (bx * cy - by * cx))


class _Pivots:
    """The (pivot, classes) pairs (g[i], (A, b, c)) of a sweep, over the indices i of g.

    B and C are the lists b and c for every pivot, and A is the list a, or
    the g after the pivot, g[i + 1:], when a is None.  Each pair is built
    when read, so a kernel holds one slice g[i + 1:] at a time, where a list
    of the pairs would hold all m^2 / 2 references of the slices at once;
    and a split sweep sends its helpers the four lists, never the pairs.
    `images` is the class lengths summed over the pivots.
    """

    def __init__(self, g, a=None, b=(), c=()):
        self.lists = g, a, b, c
        m, shared = len(g), len(b) + len(c)
        self.images = m * (m - 1) // 2 + m * shared if a is None else m * (len(a) + shared)

    def share(self, j, k):
        """The pairs of the pivots j, j + k, j + 2k, ..."""
        g, a, b, c = self.lists
        for i in range(j, len(g), k):
            yield g[i], (g[i + 1:] if a is None else a, b, c)

    def __iter__(self):
        return self.share(0, 1)


def _class_sweep(pivots):
    """Sums of |det(p, u, v)| over the (p, (A, B, C)) pairs of a `_Pivots`, by the classes of u and v.

    Returns the four totals over pairs u, v from A x A (i < j), A x B, A x C
    and B x C.  Each pivot projects and sorts its three classes once; an
    empty class costs nothing.  A large sweep splits its pivots across
    processes (`_sweep_processes`); the totals are the same integers.
    """
    k = _sweep_processes(pivots.images)
    return _sweep_pivots(pivots) if k == 1 else _split_sweep(pivots, k)


def _sweep_pivots(pivoted):
    """`_class_sweep`'s four totals in this process, one pivot after another."""
    aa = ab = ac = bc = 0
    for p, classes in pivoted:
        images, f = _pivot_images(p, classes)
        if f:
            s_aa, s_ab, s_ac, s_bc = _three_classes2(images)
            aa += s_aa // f
            ab += s_ab // f
            ac += s_ac // f
            bc += s_bc // f
    return aa, ab, ac, bc


def _sweep_processes(images):
    """How many processes sweep pivots that project `images` plane images in all.

    Each process takes at least SPLIT_MIN images, and there is at most one
    per usable CPU.  A process without `os.fork` sweeps alone, and so does
    one with a second thread alive: a fork could copy a lock that the other
    thread holds, and two threads would mix their requests to the helpers.
    So does a fork child of the process that imported this module, and a
    sweep started while a split sweep is under way, as from a signal handler.
    """
    if (images < 2 * SPLIT_MIN or _pool.busy or os.getpid() != _pool.pid
            or not hasattr(os, "fork") or _threads() != 1):
        return 1
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:
        cpus = os.cpu_count() or 1
    return min(cpus, images // SPLIT_MIN)


def _threads():
    """The threads alive in this process.

    Linux lists every one in /proc/self/task, those started in C included;
    elsewhere only the threads of the `threading` module are counted.
    """
    try:
        return len(os.listdir("/proc/self/task"))
    except OSError:
        return threading.active_count()


def _split_sweep(pivots, k):
    """`_sweep_pivots` over k interleaved shares of the pivots, shares 1 to k-1 in helpers.

    Share j holds the pivots j, j + k, j + 2k, ...; interleaving balances
    the shares when the classes shrink along the pivots (the A after each
    pivot).  Helper j gets the request (j, k, the four lists of `pivots`)
    and replies with its share's four totals.  This process sweeps share 0
    while the helpers work, then every share whose helper could not be
    forked, and every share whose helper died or replied with anything but
    four integers, after reaping that helper.  Any exception while a
    request is out stops the whole pool, so that no reply is left to be
    read as the answer to a later request.
    """
    _pool.busy = True
    try:
        helpers = _pool.fork(k - 1)
        sent = []  # (share, helper) of each request out
        for j, helper in enumerate(helpers, 1):
            try:
                _send(helper[1], (j, k, pivots.lists))
                sent.append((j, helper))
            except OSError:  # the helper is gone: its read end is closed
                _pool.reap(helper)
        served = {j for j, _ in sent}
        totals = [_sweep_pivots(pivots.share(j, k)) for j in range(k) if j not in served]
        for j, helper in sent:
            share = _reply(helper[2])
            if share is None:
                _pool.reap(helper)
                share = _sweep_pivots(pivots.share(j, k))
            totals.append(share)
        return tuple(map(sum, zip(*totals)))
    except BaseException:
        _pool.stop()
        raise
    finally:
        _pool.busy = False


def _reply(fd):
    """The four integer totals a helper wrote to fd, or None if it wrote anything else."""
    try:
        share = _receive(fd)
    except (OSError, EOFError, ValueError, TypeError):
        return None
    if type(share) is tuple and len(share) == 4 and all(type(t) is int for t in share):
        return share
    return None


def _send(fd, obj):
    """Write obj to fd as one message: the length of its `marshal` bytes in 8 bytes, then them."""
    data = marshal.dumps(obj)
    view = memoryview(len(data).to_bytes(8, "little") + data)
    while view:
        view = view[os.write(fd, view):]


def _receive(fd):
    """The object of the next `_send` message on fd; EOFError if the writer closes first."""
    return marshal.loads(_read(fd, int.from_bytes(_read(fd, 8), "little")))


def _read(fd, n):
    """The next n bytes on fd, read in pieces of at most 64 KiB."""
    chunks = []
    while n:
        chunk = os.read(fd, min(n, 1 << 16))
        if not chunk:
            raise EOFError("pipe closed")
        chunks.append(chunk)
        n -= len(chunk)
    return b"".join(chunks)


def _serve(requests, replies):
    """A helper's life: sweep each requested share and reply with its totals, until end of file.

    The end comes when every write end of the request pipe is closed: when
    this helper's parent stops the pool or exits, however it exits.
    """
    gc.freeze()  # a collection here then never writes to the parent's pages
    while True:
        try:
            j, k, lists = _receive(requests)
        except EOFError:
            return
        _send(replies, _sweep_pivots(_Pivots(*lists).share(j, k)))


class _Pool:
    """The helper processes of the split sweeps, forked by the first one to need them.

    Each helper is (pid, write end of its request pipe, read end of its
    reply pipe) and waits on its request pipe for the next share.  Forks
    hold every signal, so none can land between a fork and its record; a
    helper is taken off the record before it is reaped, so it is never
    reaped or signalled twice.  `stop` runs at exit, and no helper outlives
    the process: each also leaves when the pipe closes under it.  The exit
    and fork hooks are registered by the first fork, so a pool that never
    forks leaves its module free to be collected.
    """

    def __init__(self):
        self.helpers = []
        self.pid = os.getpid()  # the process the helpers serve
        self.busy = False  # True while a split sweep runs
        self.hooked = False

    def fork(self, n):
        """The first n helpers, forking those missing; fewer if a fork fails."""
        if len(self.helpers) < n:
            if not self.hooked:
                atexit.register(self.stop)
                os.register_at_fork(after_in_child=self.forget)
                self.hooked = True
            mask = signal.pthread_sigmask(signal.SIG_BLOCK, signal.valid_signals())
            try:
                while len(self.helpers) < n:
                    fds = []
                    try:
                        fds += os.pipe()
                        fds += os.pipe()
                        pid = os.fork()
                    except OSError:
                        for fd in fds:
                            os.close(fd)
                        break
                    requests, request_end, reply_end, replies = fds
                    if not pid:
                        try:
                            os.close(request_end)
                            os.close(reply_end)
                            signal.pthread_sigmask(signal.SIG_SETMASK, mask)
                            # Ctrl-C reaches the whole process group; this
                            # process decides, and the helper ends with its pipe.
                            signal.signal(signal.SIGINT, signal.SIG_IGN)
                            _serve(requests, replies)
                        finally:
                            os._exit(0)
                    os.close(requests)
                    os.close(replies)
                    self.helpers.append((pid, request_end, reply_end))
            finally:
                signal.pthread_sigmask(signal.SIG_SETMASK, mask)
        return self.helpers[:n]

    def reap(self, helper):
        """Take a helper off the record, close its pipes and reap it, killed if it still runs."""
        mask = signal.pthread_sigmask(signal.SIG_BLOCK, signal.valid_signals())
        try:
            self.helpers.remove(helper)
            pid, request_end, reply_end = helper
            os.close(request_end)
            os.close(reply_end)
            if not os.waitpid(pid, os.WNOHANG)[0]:  # still running
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
        except ChildProcessError:  # reaped elsewhere: its pid may be another's now
            pass
        finally:
            signal.pthread_sigmask(signal.SIG_SETMASK, mask)

    def stop(self):
        """Reap every helper: at exit, and after an error while a request is out."""
        while self.helpers:
            self.reap(self.helpers[-1])

    def forget(self):
        """In a fork child: close the inherited pipe ends, which are the parent's."""
        for _, request_end, reply_end in self.helpers:
            os.close(request_end)
            os.close(reply_end)
        self.helpers = []


_pool = _Pool()


def _class_loop(pivoted):
    """`_class_sweep`'s four totals, one determinant at a time: the small-m path.

    For each pivot p, p x u is taken once per A item u and dotted with the
    A items after u, all of B and all of C; p x b once per B item and dotted
    with all of C.  Any numbers serve, floats included: nothing is divided.
    """
    aa = ab = ac = bc = 0
    for (px, py, pz), (ga, gb, gc) in pivoted:
        for i, (ux, uy, uz) in enumerate(ga):
            wx, wy, wz = py * uz - pz * uy, pz * ux - px * uz, px * uy - py * ux
            for vx, vy, vz in ga[i + 1:]:
                d = wx * vx + wy * vy + wz * vz
                aa += d if d >= 0 else -d
            for vx, vy, vz in gb:
                d = wx * vx + wy * vy + wz * vz
                ab += d if d >= 0 else -d
            for vx, vy, vz in gc:
                d = wx * vx + wy * vy + wz * vz
                ac += d if d >= 0 else -d
        for ux, uy, uz in gb:
            wx, wy, wz = py * uz - pz * uy, pz * ux - px * uz, px * uy - py * ux
            for vx, vy, vz in gc:
                d = wx * vx + wy * vy + wz * vz
                bc += d if d >= 0 else -d
    return aa, ab, ac, bc


def sum_abs_det3_triples(ga, gb, gc):
    """Sum of |det(a, b, c)| over all (a, b, c) in ga x gb x gc."""
    # Both paths pivot over the shortest list; the size rule reads the middle one.
    ga, gb, gc = sorted((ga, gb, gc), key=len)
    kernel = _class_loop if len(gb) < SWEEP_MIN else _class_sweep
    return kernel(_Pivots(ga, (), gb, gc))[3]


def sum_abs_det3_pairs(ga, gb):
    """Sum of |det(a_i, a_j, b)| over pairs i < j from ga and all b in gb."""
    # The loop pivots over ga, which takes each a_i x a_j once; the sweep
    # pivots over gb, which sorts ga once per b.
    if len(ga) < SWEEP_MIN:
        return _class_loop((a, ((), ga[i + 1:], gb)) for i, a in enumerate(ga))[3]
    return _class_sweep(_Pivots(gb, ga))[0]


def sum_abs_det3_combos(g):
    """Sum of |det(a_i, a_j, a_k)| over index triples i < j < k."""
    kernel = _class_loop if len(g) < SWEEP_MIN else _class_sweep
    return kernel(_Pivots(g))[0]


def sum_abs_det3_bezout(ga, gb, gc):
    """The four sums of a bezout check: combos(A), pairs(A, B), pairs(A, C), triples(A, B, C).

    Pivoting over A with the classes (the A after the pivot, B, C) gives all
    four at once: the A x A pairs after each pivot make combos(A), the A x B
    and A x C pairs the two pair sums, and the B x C pairs the triples.
    """
    kernel = _class_loop if max(len(ga), len(gb), len(gc)) < SWEEP_MIN else _class_sweep
    return kernel(_Pivots(ga, None, gb, gc))


def sum_abs_det3_af_square(ga, gb, gc, gd):
    """The four sums of an af-square check: pairs(A, D) and triples (A, B, D), (A, C, D), (B, C, D).

    Pivoting over D with the classes (A, B, C) gives all four at once.
    """
    kernel = _class_loop if max(len(ga), len(gb), len(gc), len(gd)) < SWEEP_MIN else _class_sweep
    return kernel(_Pivots(gd, ga, gb, gc))


def sum_abs_det2_pairs(us, vs):
    """Sum of |u_i v_j - u_j v_i| over index pairs i < j."""
    total = 0
    n = len(us)
    for i in range(n):
        ui, vi = us[i], vs[i]
        for j in range(i + 1, n):
            d = ui * vs[j] - us[j] * vi
            total += d if d >= 0 else -d
    return total


# ---------------------------------------------------------------------------
# Text formats.  Each is a header line followed by rows of whitespace-separated
# rational literals; "#" starts a comment line and blank lines are ignored.
#   zonotope: "zonotope3", then one generator "x y z" per row;
#   matrix:   "matrix 3 n", then 3 rows of n entries (none when n = 0).

# Most generators one body file may hold, 3 coordinates each.  A check costs
# O(m^2 log m) through one sweep for its four sums, split across the CPUs:
# with 2 processes on a 2-vCPU Intel Xeon (Python 3.11, coordinates p/q with
# |p|, q <= 16), check bezout took 1.0-1.4 s at m = 800 and 8.7-10.5 s at
# m = 2000, and check af-square 1.2 s and 8.3-10.2 s; in one process, timed
# alongside, 1.7-2.6 s and 15-17 s, and 2.2-2.9 s and 17-21 s.
MAX_GENERATORS = 2000

# Most bits one body file may clear to: its generator count times the bit
# length of its common scale L plus that of its largest numerator, a bound on
# the bit length of every integer `int_scaled` makes of it.  Kernel cost grows
# with digits as well as with generators: check bezout took 17 s on 50
# generators of 4000-digit integers.  Under this limit the generator cap is
# the slowest input: on 2000 generators of 31-bit integers (64,000 bits) check
# bezout took 22-23 s and check af-square 26-27 s in one process, about as
# long as on the cap's p/q with |p|, q <= 16 (50,000 bits), timed alongside
# (Python 3.11, Intel Xeon); split over 2 CPUs, 12.8 s and 13.7 s.
MAX_CLEARED_BITS = 2 ** 16

# A line of a text file: a run between the line boundaries of str.splitlines.
# Scanning runs lazily keeps an oversized file from being split whole.  Runs
# of boundaries ("\r\n", blank lines) match nothing, as blank lines are skipped.
_LINE_RE = re.compile(r"[^\n\r\v\f\x1c-\x1e\x85\u2028\u2029]+")


def parse_rows(text: str, kind: str) -> tuple[str, list[list[tuple[int, int]]], int]:
    """The header line, the rows of a `kind` file ("zonotope", ...), and their scale.

    Each literal becomes its reduced (numerator, denominator) pair, and the
    scale is the lcm of the denominators: the L of `int_scaled`.  Reading
    stops with an error as soon as the rows hold more than
    3 * MAX_GENERATORS literals, before any literal is parsed, and as soon
    as the literals read so far pass MAX_CLEARED_BITS, before any kernel.
    """
    lines = (match.group().strip() for match in _LINE_RE.finditer(text))
    lines = (line for line in lines if line and not line.startswith("#"))
    header = next(lines, None)
    if header is None:
        raise ValueError(f"empty {kind} file")
    rows, literals = [], 0
    for line in lines:
        row = line.split()
        literals += len(row)
        if literals > 3 * MAX_GENERATORS:
            raise ValueError(f"{kind}: at most {MAX_GENERATORS} generators "
                             f"({3 * MAX_GENERATORS} coordinates) per file")
        rows.append(row)
    generators = max(1, -(-literals // 3))
    budget = MAX_CLEARED_BITS // generators
    # `_rational_pair` read inline: a literal no longer than the digit limit
    # (0 is no limit) that matches has no refusal left but a zero denominator.
    limit = sys.get_int_max_str_digits() or len(text)
    fullmatch = _RATIONAL_RE.fullmatch
    scale, top = 1, 0
    for row in rows:
        for i, literal in enumerate(row):
            match = fullmatch(literal)
            if match is None or len(literal) > limit:
                n, d = _rational_pair(literal)
            else:
                num, den = match.groups()
                if den is None:
                    n, d = int(num), 1
                else:
                    n, d = int(num), int(den)
                    if not d:
                        _rational_pair(literal)  # raises its zero-denominator refusal
                    g = gcd(n, d)
                    n, d = n // g, d // g
            row[i] = n, d
            if scale % d or abs(n) > top:
                scale, top = lcm(scale, d), max(top, abs(n))
                if scale.bit_length() + top.bit_length() > budget:
                    raise ValueError(f"{kind}: {generators} generators cleared to integers "
                                     f"need more than {budget} bits each; at most "
                                     f"{MAX_CLEARED_BITS} bits per file (generators times bits)")
    return header, rows, scale


def render_rows(header: str, rows: Iterable[Iterable[Fraction]]) -> str:
    """The header line, then one line of canonical rationals per row."""
    lines = [header]
    for row in rows:
        lines.append(" ".join(render_rational(q) for q in row))
    return "\n".join(lines) + "\n"


def parse_matrix(text: str) -> "Zonotope3":
    """A 3 x n matrix file as the body of its n columns, in order.

    The body is built from its integer view, the reader's reduced pairs at
    their lcm scale, as `parse_zonotope` builds one; no `Fraction` is made
    until its columns are read.
    """
    from .zonotope import _from_pairs  # zonotope imports this module

    header, rows, scale = parse_rows(text, "matrix")
    fields = header.split()
    if len(fields) != 3 or fields[0] != "matrix" or fields[1] != "3":
        raise ValueError(f"expected header 'matrix 3 n', got {header!r}")
    try:
        n = int(fields[2])
    except ValueError:
        raise ValueError(f"invalid column count in header: {header!r}") from None
    if n < 0:
        raise ValueError(f"negative column count in header: {header!r}")
    if n == 0:
        if rows:
            raise ValueError("matrix with 0 columns must have no rows")
    elif len(rows) != 3:
        raise ValueError(f"expected 3 matrix rows, got {len(rows)}")
    for row in rows:
        if len(row) != n:
            raise ValueError(f"matrix: expected {n} entries per row, got {len(row)}")
    return _from_pairs(zip(*rows), scale)


def render_matrix(columns: Sequence[Vec3]) -> str:
    """The matrix file of these columns, a body or `Vec3`s: header, then the x, y and z rows."""
    return render_rows(f"matrix 3 {len(columns)}", zip(*columns))
