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
multiplies the omegas.  Each step of a path fixes one strip, so
``rect_transfer`` and ``staircase_transfer`` run a transfer over lattice
points: the sum over all paths reaching a point is built once, from the
sums one step back, each times the sum of the strip that step fixes.  No
strip depends on the target (the staircase transfer runs top down), so a
point is the sum of a smaller rectangle or staircase, and one lattice per
model serves every target.  Only ``*`` and ``+`` are used, so both weight
rings run through the transfers: the q generating functions over dense
IntPoly strip sums, on lattices kept across calls, the elliptic tiling
sums over complex ones.  The two-term recurrences of both rings are
``rect_transfer`` over the strips' closed forms instead of their sums.
Tilings are listed only for ``fibl enumerate``, the tests (as the
transfers' oracle) and the Catalan counterexample.

Enumeration is streaming and deterministic: paths in lexicographic step
order (E < N, N < W), strip tilings in lexicographic tile order (D < M).
Counts are bounded by a configurable cap (default 10**8), rejected up
front by comparing the exact integer Fibonomial against the cap.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import lru_cache
from importlib import resources
from itertools import product
from typing import Callable, Iterator, Optional

from fibl.errors import ResourceLimitError
from fibl.fib import fib
from fibl.qpoly import IntPoly, fibonomial_int, q_ratio_coeffs
from fibl.report import VerificationReport, exact_report

DEFAULT_ENUMERATION_CAP = 10**8

MONOMINO = "M"
DOMINO = "D"
SPECIAL = "S"


@dataclass(frozen=True)
class PathDominoTiling:
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

    @classmethod
    def from_json(cls, obj: dict) -> "PathDominoTiling":
        if obj.get("model") != "rect":
            raise ValueError("expected a rectangle-model tiling")
        return cls(m=obj["m"], n=obj["n"], path=obj["path"],
                   rows=tuple(obj["rows"]), cols=tuple(obj["cols"]))


@dataclass(frozen=True)
class StaircaseTiling:
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

    @classmethod
    def from_json(cls, obj: dict) -> "StaircaseTiling":
        if obj.get("model") != "staircase":
            raise ValueError("expected a staircase-model tiling")
        return cls(n=obj["n"], k=obj["k"], path=obj["path"],
                   rows=tuple(obj["rows"]))



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


@lru_cache(maxsize=4096)
def _strip_table(tiles: Callable, index: int, length: int, forced: bool) -> IntPoly:
    """The strip's q-weight sum, dense: coefficient e counts its tilings of
    weight q^e; zero when it has no tiling.  ``tiles`` is a model's strip
    rule."""
    counts: dict[int, int] = {}
    for strip in _strip_choices(length, forced):
        e = sum(tile_exponent(*tile) for tile in tiles(index, length, forced, strip))
        counts[e] = counts.get(e, 0) + 1
    return _poly_from_counts(counts)


_Q_LATTICES: list[dict] = [{}, {}, {}]


def _q_lattice(model: int) -> dict:
    """The q lattice points kept across calls: G(x, y) of the rectangle
    (model 0) and of the recurrence (2), W(s, x) of the staircase (1).  Beyond
    2048 points a fresh lattice replaces the old one, which a running
    transfer may still fill."""
    if len(_Q_LATTICES[model]) > 2048:
        _Q_LATTICES[model] = {}
    return _Q_LATTICES[model]


def reset_caches() -> None:
    """Drop the q lattices (mainly for tests)."""
    _Q_LATTICES[:] = [{}, {}, {}]


def _check_cap(expected: int, cap: int) -> None:
    if expected > cap:
        raise ResourceLimitError(
            f"enumeration of {expected} tilings exceeds the cap {cap}", cap=cap)


def enumerate_strips(length: int, sink: Optional[Callable[[str], None]] = None) -> int:
    """Emit every strip tiling; the returned count equals F_{length+1}."""
    opts = _strip_options(length)
    if sink is not None:
        for s in opts:
            sink(s)
    return len(opts)


def _poly_from_counts(counts: dict[int, int]) -> IntPoly:
    if not counts:
        return IntPoly.zero()
    out = [0] * (max(counts) + 1)
    for e, c in counts.items():
        out[e] = c
    return IntPoly(out)


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


def rect_transfer(m: int, n: int, table: Callable, one, lattice: Optional[dict] = None):
    """The weight sum over all tilings of the m x n rectangle, in any ring.

    ``table(rule, index, length, forced)`` is the weight sum over one
    strip's tilings under the strip rule ``rule``; ``one`` is the ring's
    unit.  Only ``*`` and ``+`` are used.

    A transfer over lattice points: G(x, y), the sum over paths from
    (0, 0) to (x, y) of the product of their strips' sums, is
    G(x-1, y) T_col(x, height y) + G(x, y-1) T_row(y, length x), since an
    east step into column x fixes that column's below-path height and a
    north step into row y its above-path length; G(x, 0) = 1.  No strip
    depends on (m, n), so G(x, y) is the x x y rectangle's sum and one
    ``lattice`` (a dict keyed (x, y), filled in place) serves every target.
    """
    g = {} if lattice is None else lattice
    for y in range(n + 1):
        for x in range(m + 1):
            if (x, y) in g:
                continue
            total = g[x, y - 1] * table(_rect_strip_tiles, y, x, False) if y else one
            if x and y:
                total = total + g[x - 1, y] * table(_rect_strip_tiles, x, y, True)
            g[x, y] = total
    return g[m, n]


def rect_generating_function(m: int, n: int, cap: int = DEFAULT_ENUMERATION_CAP) -> IntPoly:
    """Sum of q-weights over all tilings of the m x n rectangle.

    Must coincide with q_fibonomial(m, n).  It is rect_transfer over the
    strips' enumerated q-weight sums, on a lattice shared by all calls,
    never q-factorials: independent of the ratio route, it shares its loop
    but not its strip sums with q_fibonomial_recurrence.  ``cap`` bounds
    the number of tilings summed, even for a point already built.
    """
    _check_cap(fibonomial_int(m, n), cap)
    return rect_transfer(m, n, _strip_table, IntPoly.one(), _q_lattice(0))


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
    if k < 0 or n < k:
        raise ValueError("need n >= k >= 0")
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
    if n < 0 or k < 0 or k > n:
        raise ValueError("need n >= k >= 0")
    for path in _iter_staircase_paths(n, k):
        for rows in _strip_product(_staircase_strips(path, n, k)):
            yield StaircaseTiling(n=n, k=k, path=path, rows=rows)


def enumerate_staircase_tilings(n: int, k: int,
                                sink: Optional[Callable[[StaircaseTiling], None]] = None,
                                cap: int = DEFAULT_ENUMERATION_CAP) -> int:
    """Stream every (n, k)-tiling once; the count equals the integer
    Fibonomial with parts (n - k, k)."""
    _check_cap(fibonomial_int(n - k, k), cap)
    count = 0
    for t in iter_staircase_tilings(n, k):
        count += 1
        if sink is not None:
            sink(t)
    return count


def staircase_transfer(n: int, k: int, table: Callable, one, lattice: Optional[dict] = None):
    """The weight sum over all (n, k)-tilings, in any ring; ``table``,
    ``one`` and ``lattice`` (keyed (s, x)) as for rect_transfer.

    A transfer over the rows, top to bottom, so that no row depends on n:
    the top s rows of any staircase have lengths 0, 1, ..., s - 1.
    W(s, x) sums the products of their strip sums over the path suffixes
    entering them from below at x.  Their bottom row, of length s - 1, is
    unforced with its north step at x (needs x <= s - 1), or forced after
    a west step from x to x - 1 (needs x >= 1):
    W(s, x) = W(s-1, x) T(s-1, x) + W(s-1, x-1) T_forced(s-1, s-x),
    with W(0, 0) = 1.  The answer is W(n, k), which needs the points with
    k - (n - s) <= x <= min(k, s).
    """
    rule = _staircase_strip_tiles
    w = {} if lattice is None else lattice
    w.setdefault((0, 0), one)
    for s in range(1, n + 1):
        for x in range(max(0, k - n + s), min(k, s) + 1):
            if (s, x) in w:
                continue
            total = None
            if x < s:               # an unforced north step at x
                total = w[s - 1, x] * table(rule, s - 1, x, False)
            if x:                   # a west step to x - 1, then its forced north step
                west = w[s - 1, x - 1] * table(rule, s - 1, s - x, True)
                total = west if total is None else total + west
            w[s, x] = total
    return w[n, k]


def staircase_generating_function(n: int, k: int,
                                  cap: int = DEFAULT_ENUMERATION_CAP) -> IntPoly:
    """Sum of q-weights over all (n, k)-tilings; equals q_fibonomial(n-k, k).
    staircase_transfer over the strips' dense q-weight sums, on a lattice
    shared by all calls; ``cap`` as for rect_generating_function."""
    _check_cap(fibonomial_int(n - k, k), cap)
    return staircase_transfer(n, k, _strip_table, IntPoly.one(), _q_lattice(1))


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

def model_bijection_check(m: int, n: int,
                          cap: int = DEFAULT_ENUMERATION_CAP) -> VerificationReport:
    """The weight multiset of rectangle (m, n) tilings equals that of
    staircase (m+n, n) tilings, i.e. their generating functions agree."""
    return exact_report("model-bijection", {"m": m, "n": n},
                        rect_generating_function(m, n, cap=cap),
                        staircase_generating_function(m + n, n, cap=cap))


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
    tiling_sum = _poly_from_counts(counts)
    catalan_poly = IntPoly(q_ratio_coeffs((fib(k) for k in range(n + 2, 2 * n + 1)),
                                          (fib(k) for k in range(1, n + 1))))
    rep = exact_report("catalan-partial-tiling-counterexample", {"size": size},
                       catalan_poly, tiling_sum, expected="unequal")
    rep.notes["catalan_poly_at_1"] = catalan_poly.eval_q1()
    rep.notes["tiling_count"] = total
    return rep


# ---------------------------------------------------------------------------
# Golden data

def load_golden(name: str) -> dict:
    """Load one of the JSON fixtures shipped under fibl/data/golden."""
    path = resources.files("fibl").joinpath(f"data/golden/{name}")
    return json.loads(path.read_text())
