"""Weighted tiling models realizing the q-Fibonomials.

Two models are implemented:

* Rectangle model: a monotone lattice path from (0,0) to (m,n) splits the
  m x n rectangle; rows above the path are tiled with monominos and
  horizontal dominos, columns below with monominos and vertical dominos,
  and the tile touching the path from below in each column must be a
  vertical domino (the "special" domino).  A domino whose top-right corner
  sits at (i,j) weighs q^{F_i F_j}; the special one weighs q^{F_{i+1} F_j}.

* Staircase model: a W/N path from (k,0) to (0,n) inside the staircase
  Young diagram (n-1, n-2, ..., 1), every west step immediately followed
  by a north step.  Unforced rows tile the boxes left of the path, forced
  rows tile the boxes right of it starting with a special domino against
  the north step.  Weights come from per-tile floor/height statistics.

Coordinates: cell (c, r) is the unit square with top-right corner (c, r),
columns 1..m left to right, rows 1..n bottom to top.

Once the path is fixed, every strip (a row or column segment) is tiled on
its own and a tiling's weight is a product over its strips.  Each model
has one builder of a path's strips, ``(index, length, forced)`` triples,
and one rule that labels a strip tiling's dominos ``(kind, i, j)``: kind
D for a domino, S for the special one.  The labels carry the paper's
elliptic weights, omega1(i, j) for D and omega2(i, j) for S, including
the transpositions that are invisible at the q level (the rectangle's
vertical dominos, the staircase's special ones).  Both weight layers read
the labels: here ``tile_exponent`` gives q^{F_i F_j}, or q^{F_{i+1} F_j}
for S, the q-limit of those omegas; ``fibl.elliptic.elliptic_weight``
multiplies the omegas.  A strip's weight sum is a transfer along the
strip, ``strip_sum``: P(c) = P(c - 1) + omega1(c, index) P(c - 2) over
those labels, O(length) ring operations in either ring.  Each step of a
path fixes one strip, so the transfer over paths, ``rect_transfer``,
runs over lattice points: the sum over all paths reaching a point is
built once, from the sums one step back, each times the sum of the strip
that step fixes.  No strip depends on the target, so a point is the sum
of a smaller rectangle, and one lattice serves every target of both
models: the (n, k) staircase sum is point (k, n - k), as under
(s, x) -> (x, s - x) a staircase row of length s - 1 with its north step
at x is rectangle row s - x of length x, or, forced, column x of height
s - x.  Only ``*`` and ``+`` are used, so both weight rings run through
the transfer: the q generating functions over dense IntPoly strip sums,
the elliptic tiling sums over complex ones.

The tiling sum, the two-term recurrence (the transfer over the strips'
closed forms), the n = 2 spiral and the convolution over the last east
step are written once here, each as a function of a weight ring:
``Q_RING`` here, the limit p, a, b -> 0 of ``fibl.elliptic.EllipticRing``.
A ring supplies only arithmetic and keeps the strip sums and lattices,
and its products enforce its limits: Q_RING's check the degree cap
before they build anything.  Only the theorem and staircase checks,
whose reports differ, stay per ring (the elliptic ones in
``fibl.elliptic``).  Tilings are listed only for ``fibl enumerate``, the
tests (as the transfers' oracle) and the Catalan counterexample.

Enumeration is streaming and deterministic: paths in lexicographic step
order (E < N, N < W), strip tilings in lexicographic tile order (D < M).
The enumerators' counts are bounded by a configurable cap (default
10**8), rejected up front by comparing the exact integer Fibonomial
against the cap.  The generating functions list no tilings, so the
degree cap of ``fibl.qpoly`` is their only bound, checked up front in
the same way.
"""

from __future__ import annotations

from functools import lru_cache, partial
from itertools import product
from typing import Callable, Iterator, NamedTuple, Optional

from fibl import kernels
from fibl.errors import ResourceLimitError
from fibl.fib import fib
from fibl.qpoly import (IntPoly, _ensure_cap, _fibonomial_degree, fibonomial_int, q_fibonomial,
                        ratio_poly)
from fibl.report import VerificationReport, exact_report

DEFAULT_ENUMERATION_CAP = 10**8

MONOMINO = "M"
DOMINO = "D"
SPECIAL = "S"


class PathDominoTiling(NamedTuple):
    """A rectangle-model tiling.

    rows[r-1]: tiles of the above-path segment of row r, west to east.
    cols[c-1]: tiles of the below-path segment of column c, top to bottom,
    beginning with the special domino whenever the segment is nonempty.
    """

    m: int
    n: int
    path: str                 # over "E"/"N", length m+n
    rows: tuple[str, ...]
    cols: tuple[str, ...]

    def to_json(self) -> dict:
        return {"model": "rect", "m": self.m, "n": self.n, "path": self.path,
                "rows": list(self.rows), "cols": list(self.cols)}


class StaircaseTiling(NamedTuple):
    """A staircase-model tiling of the size-n staircase with k west steps.

    rows[r-1]: tiles of row r's prescribed segment, west to east.  In a
    forced row the first tile is the special domino against the north step.
    """

    n: int
    k: int
    path: str                 # over "W"/"N", length n+k
    rows: tuple[str, ...]

    def to_json(self) -> dict:
        return {"model": "staircase", "n": self.n, "k": self.k,
                "path": self.path, "rows": list(self.rows)}



# ---------------------------------------------------------------------------
# Strips

@lru_cache(maxsize=128)
def _strip_options(length: int) -> tuple[str, ...]:
    """All monomino/domino tilings of a 1 x length strip, lex order (D < M)."""
    if length < 0:
        raise ValueError("strip length must be >= 0")
    if length == 0:
        return ("",)
    if length == 1:
        return ("M",)
    out = []
    for rest in _strip_options(length - 2):
        out.append(DOMINO + rest)
    for rest in _strip_options(length - 1):
        out.append(MONOMINO + rest)
    out.sort()
    return tuple(out)


@lru_cache(maxsize=256)
def _strip_choices(length: int, forced: bool) -> tuple[str, ...]:
    """Tilings of one strip of a path.  A forced strip starts with the
    special domino against the path, so a one-cell forced strip has none."""
    if not forced:
        return _strip_options(length)
    if length == 1:
        return ()
    if length == 0:
        return ("",)
    return tuple(SPECIAL + rest for rest in _strip_options(length - 2))


def _strip_product(strips: list) -> Iterator[tuple[str, ...]]:
    """Every choice of one tiling per strip, in lexicographic order."""
    return product(*(_strip_choices(length, forced) for _, length, forced in strips))


def tile_exponent(kind: str, i: int, j: int) -> int:
    """The q-weight exponent of a labelled domino: F_i F_j, or F_{i+1} F_j
    for a special one (the q-limits of omega1(i, j) and omega2(i, j))."""
    return fib(i + 1 if kind == SPECIAL else i) * fib(j)


def _check_cap(expected: int, cap: int) -> None:
    if expected > cap:
        raise ResourceLimitError(
            f"enumeration of {expected} tilings exceeds the cap {cap}", cap=cap)


# ---------------------------------------------------------------------------
# Rectangle model

def _iter_rect_paths(m: int, n: int) -> Iterator[str]:
    """Monotone paths as E/N strings in lexicographic order (E < N)."""
    def rec(prefix: list, e_left: int, n_left: int):
        if e_left == 0 and n_left == 0:
            yield "".join(prefix)
            return
        if e_left:
            prefix.append("E")
            yield from rec(prefix, e_left - 1, n_left)
            prefix.pop()
        if n_left:
            prefix.append("N")
            yield from rec(prefix, e_left, n_left - 1)
            prefix.pop()
    return rec([], m, n)


def rect_path_profile(path: str, m: int, n: int) -> tuple[list, list]:
    """Per-row above-segment lengths and per-column below-segment heights."""
    if len(path) != m + n or path.count("E") != m or path.count("N") != n:
        raise ValueError(f"path {path!r} does not fit an {m} x {n} rectangle")
    x = y = 0
    row_len = [0] * n
    col_height = [0] * m
    for step in path:
        if step == "E":
            x += 1
            col_height[x - 1] = y
        else:
            y += 1
            row_len[y - 1] = x
    return row_len, col_height



def _rect_strips(path: str, m: int, n: int) -> list[tuple[int, int, bool]]:
    """The strips of one path as (index, length, forced): rows 1..n above
    the path, then columns 1..m below it, which are forced."""
    row_len, col_height = rect_path_profile(path, m, n)
    return ([(r, length, False) for r, length in enumerate(row_len, start=1)]
            + [(c, h, True) for c, h in enumerate(col_height, start=1)])


def _rect_strip_tiles(index: int, length: int, forced: bool,
                      strip: str) -> list[tuple[str, int, int]]:
    """The dominos of one rectangle strip as (kind, i, j), in tile order.

    Row r (unforced) runs west to east: a horizontal domino ending in
    column i is (D, i, r).  Column c (forced) of height ``length`` runs
    top to bottom: a vertical domino whose top cell is in row j is the
    transposed (D, j, c), the special one (S, c, j).
    """
    out = []
    done = 0
    for tile in strip:
        if tile != MONOMINO:
            offset = length - done if forced else done + 2
            out.append((SPECIAL, index, offset) if tile == SPECIAL else (DOMINO, offset, index))
        done += 1 if tile == MONOMINO else 2
    return out


def iter_rect_tilings(m: int, n: int) -> Iterator[PathDominoTiling]:
    if m < 0 or n < 0:
        raise ValueError("rectangle dimensions must be >= 0")
    for path in _iter_rect_paths(m, n):
        for strips in _strip_product(_rect_strips(path, m, n)):
            yield PathDominoTiling(m=m, n=n, path=path, rows=strips[:n], cols=strips[n:])


def enumerate_rect_tilings(m: int, n: int,
                           sink: Optional[Callable[[PathDominoTiling], None]] = None,
                           cap: int = DEFAULT_ENUMERATION_CAP) -> int:
    """Stream every path-domino tiling once; returns the count.

    The count equals the integer Fibonomial, which is computed first and
    checked against ``cap`` so oversized requests fail before enumeration.
    """
    _check_cap(fibonomial_int(m, n), cap)
    count = 0
    for t in iter_rect_tilings(m, n):
        count += 1
        if sink is not None:
            sink(t)
    return count


def rect_transfer(g: dict, m: int, n: int, table: Callable, one):
    """The weight sum over all tilings of the m x n rectangle, and so of
    the (m + n, m) staircase, in any ring.

    ``table(index, length, forced)`` is the weight sum over the tilings of
    one rectangle strip; ``one`` is the ring's unit.  Only ``*`` and ``+``
    are used.

    A transfer over lattice points: G(x, y), the sum over paths from
    (0, 0) to (x, y) of the product of their strips' sums, is
    G(x-1, y) T_col(x, height y) + G(x, y-1) T_row(y, length x), since an
    east step into column x fixes that column's below-path height and a
    north step into row y its above-path length; G(x, 0) = 1.  No strip
    depends on (m, n), so G(x, y) is the x x y rectangle's sum and one
    lattice ``g``, a ring's dict keyed (x, y) and filled in place, serves
    every target.
    """
    for y in range(n + 1):
        for x in range(m + 1):
            if (x, y) in g:
                continue
            total = g[x, y - 1] * table(y, x, False) if y else one
            if x and y:
                total = total + g[x - 1, y] * table(x, y, True)
            g[x, y] = total
    return g[m, n]


# ---------------------------------------------------------------------------
# Identities over a weight ring: its ``one`` and ``zero``,
# ``fibonomial(m, n)``, ``times_number(v, n, base)`` = v [n]_{q^base},
# ``times_omega1(v, i, j)`` = v omega1(i, j), ``times_omega2(v, i, j)`` =
# v omega2(i, j), the ``strips``, ``tiling_lattice`` and
# ``recurrence_lattice`` dicts it keeps, ``report(identity, inputs, lhs,
# rhs)``, and ``*`` and ``+`` on its values

def strip_sum(ring, index: int, length: int, forced: bool):
    """The weight sum over one rectangle strip's tilings, kept in the
    ring's ``strips``: row ``index`` of length L is P(L), with P(0) =
    P(1) = 1 and P(c) = P(c - 1) + omega1(c, index) P(c - 2), as cell c
    ends a monomino or the domino (D, c, index) of ``_rect_strip_tiles``;
    forced column ``index`` of height L >= 2 is omega2(index, L) P(L - 2),
    its special domino (S, index, L) over the same labels counted from the
    bottom (a domino with top cell in row j is (D, j, index)).  The unit
    at L = 0, the ring's zero at L = 1."""
    key = index, length, forced
    value = ring.strips.get(key)
    if value is None:
        if length < 2:
            value = ring.zero if forced and length else ring.one
        elif forced:
            value = ring.times_omega2(strip_sum(ring, index, length - 2, False), index, length)
        else:
            value = strip_sum(ring, index, length - 1, False) + ring.times_omega1(
                strip_sum(ring, index, length - 2, False), length, index)
        ring.strips[key] = value
    return value


def tiling_sum(ring, m: int, n: int):
    """The weight sum over the m x n rectangle's tilings, and so over the
    (m + n, m) staircase's: rect_transfer over ``strip_sum``, on the
    ring's tiling lattice."""
    return rect_transfer(ring.tiling_lattice, m, n, partial(strip_sum, ring), ring.one)


def recurrence_strip(ring, index: int, length: int, forced: bool):
    """A rectangle strip's weight sum in closed form: [F_{length+1}]_{q^{F_index}}
    for row ``index``, omega2(index, length) [F_{length-1}]_{q^{F_index}} for
    the forced column ``index``; the unit for an empty strip."""
    if not length:
        return ring.one
    if forced:
        return ring.times_omega2(ring.times_number(ring.one, fib(length - 1), fib(index)),
                                 index, length)
    return ring.times_number(ring.one, fib(length + 1), fib(index))


def recurrence(ring, m: int, n: int):
    """The Fibonomial via the two-term recurrence over the (m, n) grid,

    G(m, n) = [F_{m+1}]_{q^{F_n}} G(m, n-1)
              + omega2(m, n) [F_{n-1}]_{q^{F_m}} G(m-1, n),

    with G(m, 0) = G(0, n) = 1: rect_transfer over the closed forms of the
    strips the last step fixes, on the ring's recurrence lattice,
    independent of the ratio route.
    """
    if m < 0 or n < 0:
        raise ValueError("need m, n >= 0")
    return rect_transfer(ring.recurrence_lattice, m, n, partial(recurrence_strip, ring),
                         ring.one)


def spiral_check(ring, m: int) -> VerificationReport:
    """The n = 2 spiral, [F_{m+2}][F_{m+1}] = sum_k Omega_k^m [F_k][F_k]_{q^{F_2}}
    over 1 <= k <= m + 1, with Omega_k^m = prod_{i=k}^{m} omega2(i, 2) (F_2 = 1,
    so the last factor is literally the square).  The sum is nested
    Horner-style from k = 1 up, acc <- omega2(k - 1, 2) acc + [F_k][F_k],
    from [F_1][F_1] = 1."""
    if m < 1:
        raise ValueError("need m >= 1")
    lhs = ring.times_number(ring.times_number(ring.one, fib(m + 2), 1), fib(m + 1), 1)
    rhs = ring.one
    for k in range(2, m + 2):
        square = ring.times_number(ring.times_number(ring.one, fib(k), 1), fib(k), fib(2))
        rhs = ring.times_omega2(rhs, k - 1, 2) + square
    return ring.report("spiral", {"m": m}, lhs, rhs)


def convolution_check(ring, m: int, n: int) -> VerificationReport:
    """The convolution over the last east step's height,

    [m over n] = sum_{j=0}^{n} (prod_{i<j} [F_{m+1}]_{q^{F_{n-i}}})
                 [F_{n-1-j}]_{q^{F_m}} omega2(m, n-j) [m-1 over n-j],

    nested Horner-style from j = n down to j = 0,
    acc <- T_j + [F_{m+1}]_{q^{F_{n-j}}} acc, where T_j is term j without
    its leading product: T_n = 1, as omega2(m, 0) = [F_{-1}] = 1, and
    T_{n-1} = 0, as [F_0] = 0.  So each (m, n) takes 2n - 1 products by
    a q-number.
    """
    if m < 1 or n < 1:
        raise ValueError("need m, n >= 1")
    acc = ring.one
    for j in range(n - 1, -1, -1):
        acc = ring.times_number(acc, fib(m + 1), fib(n - j))
        if j < n - 1:
            term = ring.times_number(ring.fibonomial(m - 1, n - j), fib(n - 1 - j), fib(m))
            acc = ring.times_omega2(term, m, n - j) + acc
    return ring.report("convolution", {"m": m, "n": n}, ring.fibonomial(m, n), acc)


# ---------------------------------------------------------------------------
# The q weight ring

class QRing:
    """The q weight ring of the shared identities, over IntPoly: the limit
    p -> 0, a -> 0, b -> 0 of ``fibl.elliptic.EllipticRing``, where
    [n]_{q^base} stays itself, omega1(i, j) becomes q^{F_i F_j} and
    omega2(i, j) q^{F_{i+1} F_j}.  Its strip sums and lattices are kept
    across calls; a lattice past 2048 points is replaced by a fresh one,
    which a running transfer may still fill.  A product checks its degree
    against the cap before it builds anything; one by a q-number is one
    window sum, one by an omega a shift."""

    __slots__ = ("strips", "_tiling", "_recurrence")
    one, zero = IntPoly.one(), IntPoly.zero()

    def __init__(self):
        self.strips, self._tiling, self._recurrence = {}, {}, {}

    @property
    def tiling_lattice(self) -> dict:
        """The tiling sums' points G(x, y), which both models read."""
        if len(self._tiling) > 2048:
            self._tiling = {}
        return self._tiling

    @property
    def recurrence_lattice(self) -> dict:
        if len(self._recurrence) > 2048:
            self._recurrence = {}
        return self._recurrence

    def fibonomial(self, m: int, n: int) -> IntPoly:
        return q_fibonomial(m, n)

    def times_number(self, v: IntPoly, n: int, base: int) -> IntPoly:
        _ensure_cap(v.degree + (n - 1) * base)
        return IntPoly._wrap(kernels.mul_qnumber(list(v.coeffs), n, base))

    def times_omega1(self, v: IntPoly, i: int, j: int) -> IntPoly:
        return v.shift(fib(i) * fib(j))

    def times_omega2(self, v: IntPoly, i: int, j: int) -> IntPoly:
        return v.shift(fib(i + 1) * fib(j))

    def report(self, identity: str, inputs: dict, lhs, rhs) -> VerificationReport:
        return exact_report("q-" + identity, inputs, lhs, rhs)


Q_RING = QRing()


def reset_caches() -> None:
    """Drop every q table: the ratio route's memoized q-Fibonomials and
    Q_RING's strip sums and lattices (mainly for tests)."""
    q_fibonomial.cache_clear()
    Q_RING.__init__()           # fresh, empty tables


def rect_generating_function(m: int, n: int) -> IntPoly:
    """Sum of q-weights over all tilings of the m x n rectangle.

    Must coincide with q_fibonomial(m, n).  It is the tiling sum over
    Q_RING's strip transfers, on its lattice shared by all calls,
    never q-factorials: independent of the ratio route, it shares its loop
    but not its strip sums with q_fibonomial_recurrence.  It lists no
    tilings, so no enumeration cap applies; the degree cap is checked on
    every call, even for a point already built.
    """
    _ensure_cap(_fibonomial_degree(m, n))
    return tiling_sum(Q_RING, m, n)


def validate_rect_tiling(t: PathDominoTiling) -> None:
    """Independent geometric checker; raises ValueError on any violation.

    Rebuilds the occupancy of the full rectangle from the tile lists and
    re-verifies every model rule rather than trusting the enumerator.
    """
    row_len, col_height = rect_path_profile(t.path, t.m, t.n)
    if len(t.rows) != t.n or len(t.cols) != t.m:
        raise ValueError("strip list lengths do not match the rectangle")
    covered = set()
    for r in range(1, t.n + 1):
        i = 0
        for tile in t.rows[r - 1]:
            if tile == MONOMINO:
                cells = [(i + 1, r)]
                i += 1
            elif tile == DOMINO:
                cells = [(i + 1, r), (i + 2, r)]
                i += 2
            else:
                raise ValueError("above-path tiles must be monominos or horizontal dominos")
            for c, rr in cells:
                if rr <= col_height[c - 1]:
                    raise ValueError(f"above-path tile dips below the path at {(c, rr)}")
                if (c, rr) in covered:
                    raise ValueError(f"cell {(c, rr)} covered twice")
                covered.add((c, rr))
        if i != row_len[r - 1]:
            raise ValueError(f"row {r} strip length {i} != {row_len[r - 1]}")
    for c in range(1, t.m + 1):
        h = col_height[c - 1]
        strip = t.cols[c - 1]
        if h == 1:
            raise ValueError(f"column {c} has below-height 1: no valid tiling exists")
        if h >= 2 and (not strip or strip[0] != SPECIAL):
            raise ValueError(f"column {c} must start with its special domino")
        j = h
        for pos, tile in enumerate(strip):
            if tile == SPECIAL:
                if pos != 0:
                    raise ValueError("special domino must touch the path")
                cells = [(c, j), (c, j - 1)]
                j -= 2
            elif tile == DOMINO:
                cells = [(c, j), (c, j - 1)]
                j -= 2
            elif tile == MONOMINO:
                cells = [(c, j)]
                j -= 1
            else:
                raise ValueError(f"unknown tile {tile!r}")
            for cc, rr in cells:
                if rr < 1 or rr > h:
                    raise ValueError(f"below-path tile leaves column {c}")
                if (cc, rr) in covered:
                    raise ValueError(f"cell {(cc, rr)} covered twice")
                covered.add((cc, rr))
        if j != 0:
            raise ValueError(f"column {c} strip does not fill its {h} cells")
    if len(covered) != t.m * t.n:
        raise ValueError("tiling does not cover the rectangle exactly")


# ---------------------------------------------------------------------------
# Staircase model

def _check_staircase(n: int, k: int) -> None:
    if not 0 <= k <= n:
        raise ValueError("need n >= k >= 0")


def _iter_staircase_paths(n: int, k: int) -> Iterator[str]:
    """W/N paths from (k,0) to (0,n), every W followed by N, inside the
    staircase; lexicographic step order (N < W)."""
    def rec(prefix: list, row: int, x: int, w_left: int):
        # row = next north step's row index (1-based); x = current x position
        if row > n:
            if w_left == 0:
                yield "".join(prefix)
            return
        # option N (unforced north step): stays at x; needs x <= n - row
        if x <= n - row:
            prefix.append("N")
            yield from rec(prefix, row + 1, x, w_left)
            prefix.pop()
        # option WN (west step, then its forced north step)
        if w_left and x - 1 >= 0 and x - 1 <= n - row:
            prefix.append("W")
            prefix.append("N")
            yield from rec(prefix, row + 1, x - 1, w_left - 1)
            prefix.pop()
            prefix.pop()
    _check_staircase(n, k)
    return rec([], 1, k, k)


def staircase_path_profile(path: str, n: int, k: int) -> tuple[list, list]:
    """Per-row (x position of the north step, forced flag)."""
    if path.count("N") != n or path.count("W") != k or len(path) != n + k:
        raise ValueError(f"path {path!r} is not an ({n},{k}) staircase path")
    xs = []
    forced = []
    x = k
    prev_w = False
    for step in path:
        if step == "W":
            if prev_w:
                raise ValueError("west steps must be followed by north steps")
            x -= 1
            prev_w = True
        else:
            xs.append(x)
            forced.append(prev_w)
            prev_w = False
    if prev_w or x != 0:
        raise ValueError("path must end at (0, n) with a north step")
    for r, xr in enumerate(xs, start=1):
        if xr > n - r or xr < 0:
            raise ValueError(f"north step of row {r} at x={xr} leaves the staircase")
    return xs, forced


def _staircase_strips(path: str, n: int, k: int) -> list[tuple[int, int, bool]]:
    """The row strips of one path, bottom to top, as (row_len, length,
    forced): row r has row_len = n - r boxes; an unforced row tiles the
    boxes left of its north step, a forced row the boxes right of it."""
    xs, forced = staircase_path_profile(path, n, k)
    return [(n - r, n - r - x if f else x, f)
            for r, (x, f) in enumerate(zip(xs, forced), start=1)]


def _staircase_strip_tiles(row_len: int, length: int, forced: bool,
                           strip: str) -> list[tuple[str, int, int]]:
    """The dominos of one row strip as (kind, i, j), west to east.

    Left of the path a domino's floor counts boxes from the western border
    of the diagram to the tile's eastern border; right of it, from the
    eastern border to the tile's western border.  The row's height is
    1 + row_len - length.  A domino is (D, floor, height), the special
    one the transposed (S, height, floor): the order the bijection with
    the rectangle model forces.  Floor is counted as the rectangle rule
    counts i in a row and j in a column, so this is that rule with the
    height as the strip index.
    """
    return _rect_strip_tiles(1 + row_len - length, length, forced, strip)


def iter_staircase_tilings(n: int, k: int) -> Iterator[StaircaseTiling]:
    for path in _iter_staircase_paths(n, k):
        for rows in _strip_product(_staircase_strips(path, n, k)):
            yield StaircaseTiling(n=n, k=k, path=path, rows=rows)


def enumerate_staircase_tilings(n: int, k: int,
                                sink: Optional[Callable[[StaircaseTiling], None]] = None,
                                cap: int = DEFAULT_ENUMERATION_CAP) -> int:
    """Stream every (n, k)-tiling once; the count equals the integer
    Fibonomial with parts (n - k, k)."""
    _check_staircase(n, k)
    _check_cap(fibonomial_int(n - k, k), cap)
    count = 0
    for t in iter_staircase_tilings(n, k):
        count += 1
        if sink is not None:
            sink(t)
    return count


def staircase_generating_function(n: int, k: int) -> IntPoly:
    """Sum of q-weights over all (n, k)-tilings; equals q_fibonomial(n-k, k).
    It is rectangle point (k, n - k) of rect_generating_function's lattice
    (see the module docstring); the degree cap as for
    rect_generating_function."""
    _check_staircase(n, k)
    _ensure_cap(_fibonomial_degree(n - k, k))
    return tiling_sum(Q_RING, k, n - k)


def validate_staircase_tiling(t: StaircaseTiling) -> None:
    """Independent geometric checker for the staircase model."""
    xs, forced = staircase_path_profile(t.path, t.n, t.k)
    if len(t.rows) != t.n:
        raise ValueError("need one strip per row")
    for r in range(1, t.n + 1):
        row_len = t.n - r
        x = xs[r - 1]
        strip = t.rows[r - 1]
        if forced[r - 1]:
            b = row_len - x
            if b < 0:
                raise ValueError(f"row {r} segment is negative")
            if b == 1:
                raise ValueError(f"row {r}: one box cannot hold the special domino")
            if b >= 2 and (not strip or strip[0] != SPECIAL):
                raise ValueError(f"row {r} must start with the special domino")
            seen = 0
            for pos, tile in enumerate(strip):
                if tile == SPECIAL and pos != 0:
                    raise ValueError("special domino must touch the north step")
                if tile in (DOMINO, SPECIAL):
                    seen += 2
                elif tile == MONOMINO:
                    seen += 1
                else:
                    raise ValueError(f"unknown tile {tile!r}")
            if seen != b:
                raise ValueError(f"row {r} strip covers {seen} of {b} boxes")
        else:
            if SPECIAL in strip:
                raise ValueError(f"row {r} is unforced but contains a special domino")
            seen = sum(2 if tile == DOMINO else 1 for tile in strip)
            if seen != x:
                raise ValueError(f"row {r} strip covers {seen} of {x} boxes")




# ---------------------------------------------------------------------------
# Tile weights of either model

def tiling_tiles(t: PathDominoTiling | StaircaseTiling) -> list[tuple[str, int, int]]:
    """Every domino of a tiling as (kind, i, j), strip by strip: rows, then
    columns; west to east, top to bottom."""
    if isinstance(t, PathDominoTiling):
        rule, strips, tiles = _rect_strip_tiles, _rect_strips(t.path, t.m, t.n), t.rows + t.cols
    else:
        rule, strips, tiles = _staircase_strip_tiles, _staircase_strips(t.path, t.n, t.k), t.rows
    return [label for s, strip in zip(strips, tiles) for label in rule(*s, strip)]


def weight_exponent(t: PathDominoTiling | StaircaseTiling) -> int:
    """The exponent e with q_weight(t) = q^e."""
    return sum(tile_exponent(*label) for label in tiling_tiles(t))


def q_weight(t: PathDominoTiling | StaircaseTiling) -> IntPoly:
    """The q-weight of one tiling: a single power of q."""
    return IntPoly.monomial(weight_exponent(t))


# ---------------------------------------------------------------------------
# Cross-model checks

def model_bijection_check(m: int, n: int) -> VerificationReport:
    """The weight multiset of rectangle (m, n) tilings equals that of
    staircase (m+n, n) tilings, i.e. their generating functions agree.
    The staircase sum is rectangle point (n, m) of the same lattice, so
    the report compares G(m, n) with G(n, m): the symmetry of the
    q-Fibonomial, through the transfer over tiling sums."""
    return exact_report("model-bijection", {"m": m, "n": n},
                        rect_generating_function(m, n),
                        staircase_generating_function(m + n, n))


def catalan_partial_tilings(size: int) -> Iterator[StaircaseTiling]:
    """Partial tilings whose bottom row stays blank except for the forced
    special domino: (size, size/2 - 1)-tilings with the modified first row.

    ``size`` must be even (size = 2n for the n-th Catalan analog).
    """
    if size < 2 or size % 2:
        raise ValueError("size must be an even integer >= 2")
    n, k = size, size // 2 - 1
    for path in _iter_staircase_paths(n, k):
        first, *rest = _staircase_strips(path, n, k)
        _, b, forced = first
        if forced and b == 1:
            continue        # one box cannot hold the special domino
        blank = (SPECIAL,) if forced and b else ("",)   # untiled boxes allowed
        for rows in product(blank, *(_strip_choices(length, f) for _, length, f in rest)):
            yield StaircaseTiling(n=n, k=k, path=path, rows=rows)


def catalan_partial_tiling_counterexample(size: int = 6) -> VerificationReport:
    """Compare the ordinary q-Fibo-Catalan polynomial at n = size / 2 (the
    quotient of catalan.q_fibo_catalan_ordinary(n), from the ratio engine)
    against the weight sum over Catalan partial tilings of the given size;
    they are expected to DIFFER (the report passes when they do), while
    the q = 1 counts agree.
    """
    n = size // 2
    counts: dict[int, int] = {}
    total = 0
    for t in catalan_partial_tilings(size):
        e = weight_exponent(t)      # row 1's special domino weighs as in any forced row
        counts[e] = counts.get(e, 0) + 1
        total += 1
    tiling_sum = IntPoly([counts.get(e, 0) for e in range(max(counts) + 1)])
    catalan_poly = ratio_poly((fib(k) for k in range(n + 2, 2 * n + 1)),
                              (fib(k) for k in range(1, n + 1)))
    rep = exact_report("catalan-partial-tiling-counterexample", {"size": size},
                       catalan_poly, tiling_sum, expected="unequal")
    rep.notes["catalan_poly_at_1"] = catalan_poly.eval_q1()
    rep.notes["tiling_count"] = total
    return rep
