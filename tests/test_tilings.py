import cmath
import json
from fractions import Fraction

import pytest

from fibl import elliptic as ell
from fibl import qpoly, tilings
from fibl.errors import ResourceLimitError
from fibl.fib import fib
from fibl.qpoly import IntPoly, fibonomial_int, q_fibonomial, q_number
from fibl.tilings import (PathDominoTiling, catalan_partial_tiling_counterexample,
                          enumerate_rect_tilings, enumerate_staircase_tilings,
                          iter_rect_tilings, iter_staircase_tilings,
                          model_bijection_check, q_weight,
                          Q_RING, rect_generating_function,
                          staircase_generating_function, validate_rect_tiling,
                          validate_staircase_tiling, weight_exponent)
from oracles import (enumerate_strips, load_golden, rect_tiling_from_json,
                     staircase_tiling_from_json)


class TestStrips:
    def test_counts_are_fibonacci(self):
        for length in range(0, 13):
            assert enumerate_strips(length) == fib(length + 1)

    def test_explicit_listing(self):
        got = []
        enumerate_strips(3, got.append)
        assert got == ["DM", "MD", "MMM"]
        empty = []
        enumerate_strips(0, empty.append)
        assert empty == [""]

    def test_q_strip_sum(self):
        """Row 1 of length l: its tilings' q-weights sum to [F_{l+1}]_q."""
        def row(length):
            return tilings.strip_sum(Q_RING, 1, length, False)
        assert row(0) == IntPoly.one()
        assert row(2) == IntPoly([1, 1])
        assert row(7) == q_number(21)
        for length in range(0, 12):
            assert row(length) == q_number(fib(length + 1))

    def test_closed_form_strip_sums(self):
        """The lemma that makes the recurrence the tiling sum: row ``index``
        of length l sums to [F_{l+1}]_{q^{F_index}}, forced column ``index``
        of height l to q^{F_{index+1} F_l} [F_{l-1}]_{q^{F_index}}."""
        for index in range(1, 9):
            for length in range(0, 9):
                for forced in (False, True):
                    if forced:
                        want = q_number(fib(length - 1)).substitute_power(fib(index))
                        want = want.shift(fib(index + 1) * fib(length))
                    else:
                        want = q_number(fib(length + 1)).substitute_power(fib(index))
                    case = (index, length, forced)
                    assert tilings.strip_sum(Q_RING, *case) == want, case
                    assert tilings.recurrence_strip(Q_RING, *case) == want, case
        assert tilings.recurrence_strip(Q_RING, 1, 2, False) == IntPoly([1, 1])
        assert tilings.recurrence_strip(Q_RING, 1, 7, False) == q_number(21)
        assert tilings.recurrence_strip(Q_RING, 3, 1, True) == IntPoly.zero()


class TestRectEnumeration:
    def test_counts(self):
        assert enumerate_rect_tilings(2, 2) == 6
        assert enumerate_rect_tilings(4, 4) == 1820
        for m in range(0, 6):
            assert enumerate_rect_tilings(m, 0) == 1
            assert enumerate_rect_tilings(0, m) == 1

    def test_counts_match_integer_fibonomial(self):
        for m in range(0, 5):
            for n in range(0, 5):
                assert enumerate_rect_tilings(m, n) == fibonomial_int(m, n)

    def test_emitted_tilings_validate_and_are_distinct(self):
        seen = set()

        def sink(t):
            validate_rect_tiling(t)
            key = json.dumps(t.to_json(), sort_keys=True)
            assert key not in seen
            seen.add(key)

        count = enumerate_rect_tilings(3, 3, sink)
        assert count == len(seen) == fibonomial_int(3, 3)

    def test_weight_multiset_2_2(self):
        exps = sorted(weight_exponent(t) for t in iter_rect_tilings(2, 2))
        assert exps == [0, 1, 1, 2, 2, 3]

    def test_cap(self):
        with pytest.raises(ResourceLimitError) as exc:
            enumerate_rect_tilings(5, 5, cap=1000)
        assert "1000" in str(exc.value)

    def test_n2_paths_are_double_north_blocks(self):
        # with two rows, realized paths are exactly E^{k-1} N N E^{m-k+1}
        for m in range(1, 6):
            realized = {t.path for t in iter_rect_tilings(m, 2)}
            expected = {"E" * (k - 1) + "NN" + "E" * (m - k + 1)
                        for k in range(1, m + 2)}
            assert realized == expected

    def test_below_height_one_obstruction(self):
        realized = {t.path for t in iter_rect_tilings(1, 1)}
        assert realized == {"EN"}          # the path NE needs a 1-cell column

    def test_validator_rejects_broken_tilings(self):
        good = next(iter_rect_tilings(2, 2))
        bad = PathDominoTiling(m=2, n=2, path=good.path,
                               rows=("MM", "M"), cols=good.cols)
        with pytest.raises(ValueError):
            validate_rect_tiling(bad)
        bad2 = PathDominoTiling(m=2, n=2, path="NNEE", rows=("", ""),
                                cols=("MM", "S"))
        with pytest.raises(ValueError):
            validate_rect_tiling(bad2)


class TestRectGeneratingFunction:
    def test_2_2(self):
        assert rect_generating_function(2, 2) == IntPoly([1, 2, 2, 1])

    def test_1_1(self):
        assert rect_generating_function(1, 1) == IntPoly.one()

    def test_matches_division_route(self):
        for m in range(0, 7):
            for n in range(0, 7):
                if m + n <= 6:
                    assert rect_generating_function(m, n) == q_fibonomial(m, n)



def _tile_by_tile(tilings, exponent) -> IntPoly:
    counts: dict[int, int] = {}
    for t in tilings:
        e = exponent(t)
        counts[e] = counts.get(e, 0) + 1
    out = [0] * (max(counts) + 1)
    for e, c in counts.items():
        out[e] = c
    return IntPoly(out)


class TestFactoredGeneratingFunctions:
    """The generating functions multiply per-strip tables; summing the
    weight of every enumerated tiling must give the same polynomial."""

    def test_rect_matches_tile_by_tile_sum(self):
        for m in range(0, 9):
            for n in range(0, 9 - m):
                assert rect_generating_function(m, n) == _tile_by_tile(
                    iter_rect_tilings(m, n), weight_exponent), (m, n)

    def test_staircase_matches_tile_by_tile_sum(self):
        for n in range(0, 10):
            for k in range(0, n + 1):
                assert staircase_generating_function(n, k) == _tile_by_tile(
                    iter_staircase_tilings(n, k), weight_exponent), (n, k)

    def test_cap_applies_without_enumeration(self):
        # the sums list no tilings, so no enumeration cap applies: (5, 8)
        # has more tilings than the default cap; the degree cap still does
        assert fibonomial_int(5, 8) > tilings.DEFAULT_ENUMERATION_CAP
        assert rect_generating_function(5, 8) == q_fibonomial(5, 8)
        assert staircase_generating_function(13, 8) == q_fibonomial(5, 8)
        old = qpoly.set_degree_cap(q_fibonomial(5, 5).degree - 1)
        try:
            with pytest.raises(ResourceLimitError):
                rect_generating_function(5, 5)
            with pytest.raises(ResourceLimitError):
                staircase_generating_function(10, 5)
        finally:
            qpoly.set_degree_cap(old)


def _per_path_product(paths_strips, rule) -> IntPoly:
    """The sum over paths of the product of their strips' weight tables,
    multiplied out path by path from the strip tilings and the q-weights
    of a model's domino labels (the transfer's sum without shared
    prefixes)."""
    total: dict[int, int] = {}
    for strips in paths_strips:
        acc = {0: 1}
        for index, length, forced in strips:
            nxt: dict[int, int] = {}
            for strip in tilings._strip_choices(length, forced):
                f = sum(tilings.tile_exponent(*label)
                        for label in rule(index, length, forced, strip))
                for e, c in acc.items():
                    nxt[e + f] = nxt.get(e + f, 0) + c
            acc = nxt
        for e, c in acc.items():
            total[e] = total.get(e, 0) + c
    return IntPoly([total.get(e, 0) for e in range(max(total, default=-1) + 1)])


class TestTransferGeneratingFunctions:
    """The generating functions sum over lattice points; the per-path
    product of strip tables is the oracle."""

    def test_rect_matches_per_path_product(self):
        for m in range(0, 11):
            for n in range(0, 11 - m):
                want = _per_path_product(
                    (tilings._rect_strips(p, m, n) for p in tilings._iter_rect_paths(m, n)),
                    tilings._rect_strip_tiles)
                assert rect_generating_function(m, n) == want, (m, n)

    def test_staircase_matches_per_path_product(self):
        for n in range(0, 12):
            for k in range(0, n + 1):
                want = _per_path_product(
                    (tilings._staircase_strips(p, n, k)
                     for p in tilings._iter_staircase_paths(n, k)),
                    tilings._staircase_strip_tiles)
                assert staircase_generating_function(n, k) == want, (n, k)

    def test_shared_lattice_in_either_order(self):
        """Points built for one target serve the next, largest or smallest
        target first."""
        rect = [(m, n) for m in range(0, 9) for n in range(0, 9 - m)]
        stair = [(n, k) for n in range(0, 11) for k in range(0, n + 1)]
        want = {("rect", m, n): _per_path_product(
                    (tilings._rect_strips(p, m, n) for p in tilings._iter_rect_paths(m, n)),
                    tilings._rect_strip_tiles) for m, n in rect}
        want.update({("staircase", n, k): _per_path_product(
                         (tilings._staircase_strips(p, n, k)
                          for p in tilings._iter_staircase_paths(n, k)),
                         tilings._staircase_strip_tiles) for n, k in stair})
        for order in (reversed, list):
            tilings.reset_caches()
            for m, n in order(rect):
                assert rect_generating_function(m, n) == want["rect", m, n], (m, n)
            for n, k in order(stair):
                assert staircase_generating_function(n, k) == want["staircase", n, k], (n, k)

    def test_staircase_reads_the_rectangle_lattice(self, monkeypatch):
        """The (n, k) staircase sum is rectangle point (k, n - k): once the
        5 x 5 rectangle is built, no staircase inside it multiplies."""
        tilings.reset_caches()
        rect_generating_function(5, 5)
        products = 0
        mul = IntPoly.__mul__

        def counted_mul(a, b):
            nonlocal products
            products += 1
            return mul(a, b)

        monkeypatch.setattr(IntPoly, "__mul__", counted_mul)
        got = {(n, k): staircase_generating_function(n, k)
               for k in range(0, 6) for n in range(k, k + 6)}
        assert products == 0
        monkeypatch.undo()
        for (n, k), poly in got.items():
            assert poly == q_fibonomial(n - k, k), (n, k)

    def test_cap_holds_for_built_points(self):
        # the degree cap, which is checked before the lattice is read
        tilings.reset_caches()
        assert rect_generating_function(5, 5) == q_fibonomial(5, 5)
        assert staircase_generating_function(10, 5) == q_fibonomial(5, 5)
        assert (5, 5) in Q_RING.tiling_lattice
        old = qpoly.set_degree_cap(q_fibonomial(5, 5).degree - 1)
        try:
            with pytest.raises(ResourceLimitError):
                rect_generating_function(5, 5)
            with pytest.raises(ResourceLimitError):
                staircase_generating_function(10, 5)
            assert rect_generating_function(5, 4) == q_fibonomial(5, 4)
        finally:
            qpoly.set_degree_cap(old)

    def test_oversized_lattice_is_dropped(self):
        tilings.reset_caches()
        stale = {(-i, 0): None for i in range(2049)}
        Q_RING.tiling_lattice.update(stale)
        assert rect_generating_function(3, 4) == q_fibonomial(3, 4)
        assert len(Q_RING.tiling_lattice) == 4 * 5

    def test_q_strip_sum_matches_per_path_product(self):
        for length in range(0, 12):
            assert tilings.recurrence_strip(Q_RING, 1, length, False) == _per_path_product(
                [[(1, length, False)]], tilings._rect_strip_tiles)


@pytest.mark.parametrize("n, k", [(2, 3), (-1, 0), (3, -1)])
@pytest.mark.parametrize("call", [
    lambda n, k: staircase_generating_function(n, k),
    lambda n, k: enumerate_staircase_tilings(n, k, cap=0),
    lambda n, k: ell.elliptic_staircase_check(n, k, ell.EllipticRing(ell.sample_params(0))),
], ids=["generating-function", "enumerate", "elliptic-check"])
def test_bad_staircase_size_is_a_value_error(call, n, k):
    """Checked before any cap (the enumeration cap is 0 here) and before
    any lattice work."""
    with pytest.raises(ValueError, match=r"^need n >= k >= 0$"):
        call(n, k)


class TestStaircaseEnumeration:
    def test_counts(self):
        assert enumerate_staircase_tilings(4, 2) == 6
        assert enumerate_staircase_tilings(5, 2) == 15
        for n in range(0, 7):
            assert enumerate_staircase_tilings(n, 0) == 1
            assert enumerate_staircase_tilings(n, n) == 1

    def test_emitted_tilings_validate(self):
        for n, k in ((4, 2), (5, 2), (6, 3)):
            seen = set()
            for t in iter_staircase_tilings(n, k):
                validate_staircase_tiling(t)
                key = json.dumps(t.to_json(), sort_keys=True)
                assert key not in seen
                seen.add(key)
            assert len(seen) == fibonomial_int(n - k, k)

    def test_generating_function(self):
        assert staircase_generating_function(4, 2) == IntPoly([1, 2, 2, 1])
        for n in range(0, 7):
            for k in range(0, n + 1):
                assert staircase_generating_function(n, k) == q_fibonomial(n - k, k)

    def test_every_west_step_followed_by_north(self):
        for t in iter_staircase_tilings(5, 3):
            assert "WW" not in t.path and not t.path.endswith("W")


class TestGoldenFiles:
    def test_rect_2x2(self):
        doc = load_golden("rect_2x2.json")
        got = list(iter_rect_tilings(2, 2))
        assert [t.to_json() for t in got] == \
            [{k: v for k, v in entry.items() if k != "exponent"}
             for entry in doc["tilings"]]
        for t, entry in zip(got, doc["tilings"]):
            assert weight_exponent(t) == entry["exponent"]
            assert q_weight(t) == IntPoly.monomial(entry["exponent"])
        assert rect_generating_function(2, 2) == IntPoly(doc["weight_polynomial"])

    def test_staircase_4_2(self):
        doc = load_golden("staircase_4_2.json")
        got = list(iter_staircase_tilings(4, 2))
        assert [t.to_json() for t in got] == \
            [{k: v for k, v in entry.items() if k != "exponent"}
             for entry in doc["tilings"]]
        for t, entry in zip(got, doc["tilings"]):
            assert weight_exponent(t) == entry["exponent"]
            assert q_weight(t) == IntPoly.monomial(entry["exponent"])

    def test_rect_5x4_example(self):
        doc = load_golden("rect_5x4_example.json")
        t = rect_tiling_from_json(doc["tiling"])
        validate_rect_tiling(t)
        assert weight_exponent(t) == doc["weight_exponent"] == 51
        assert q_weight(t) == IntPoly.monomial(51)


class TestBijection:
    def test_small_cases(self):
        assert model_bijection_check(1, 1).passed
        assert model_bijection_check(2, 2).passed
        assert model_bijection_check(3, 2).passed

    def test_report_shape(self):
        rep = model_bijection_check(2, 2)
        assert rep.lhs == IntPoly([1, 2, 2, 1])
        assert rep.tolerance is None


class _Mutant:
    """A ring with one product changed.  It keeps its own strip sums and
    lattices, so that no value of the true ring's tables answers for it."""

    def __init__(self, ring):
        self.ring = ring
        self.strips, self.tiling_lattice, self.recurrence_lattice = {}, {}, {}

    def __getattr__(self, name):
        return getattr(self.ring, name)


class _TransposedOmega2(_Mutant):
    """times_omega2 reads omega2(j, i) for omega2(i, j)."""

    def times_omega2(self, v, i, j):
        return self.ring.times_omega2(v, j, i)


class _TransposedOmega1(_Mutant):
    """times_omega1 reads omega1(j, i) for omega1(i, j), which the q
    limit q^{F_i F_j} cannot tell apart."""

    def times_omega1(self, v, i, j):
        return self.ring.times_omega1(v, j, i)


class _DroppedSpecialDomino(_Mutant):
    """A forced strip without the weight of its special domino."""

    def times_omega2(self, v, i, j):
        return v


STRIP_CASES = [(index, length, forced) for index in range(1, 9) for length in range(0, 11)
               for forced in (False, True)]


def _q_strip_misses(ring):
    """The strips whose transfer in ``ring`` differs from the sum of the
    q-weights of the strip's listed tilings."""
    return [case for case in STRIP_CASES if tilings.strip_sum(ring, *case)
            != _per_path_product([[case]], tilings._rect_strip_tiles)]


def _elliptic_strip_misses(ring, true_ring, bits):
    """The strips whose transfer in ``ring`` differs from the sum of the
    elliptic weights in ``true_ring`` of the strip's listed tilings, as
    ``_rect_strip_tiles`` labels them, by more than 2^6 units of the
    last place of the sum of their magnitudes, and apart the strips with a
    weight that is not finite, which are not compared."""
    unit = 2.0 ** -(bits or 53)
    misses, non_finite = [], []
    for case in STRIP_CASES:
        index, length, forced = case
        weights = []
        for strip in tilings._strip_choices(length, forced):
            w = 1
            for kind, i, j in tilings._rect_strip_tiles(index, length, forced, strip):
                w = w * (true_ring.omega2 if kind == tilings.SPECIAL else true_ring.omega1)(i, j)
            weights.append(w)
        if any(isinstance(w, complex) and not cmath.isfinite(w) for w in weights):
            non_finite.append(case)
            continue
        want = 0
        for w in weights:
            want = want + w
        bound = 2 ** 6 * unit * sum(abs(w) for w in weights)
        if not abs(tilings.strip_sum(ring, *case) - want) <= bound:
            misses.append(case)
    return misses, non_finite


# Elliptic points: (precision_bits, sample seed, strips with a weight that
# is not finite).  In double precision theta overflows at the long strips
# of large index: 36 of the 176 rows and columns have a NaN weight at seed
# 15 (ROADMAP item 2, theta with its own exponent, mends it).  At seed 3,
# |q| = 0.71, the argument a q^4454 of omega2(8, 10) underflows to 0 in
# double precision and theta raises; 128 bits hold both.
ELLIPTIC_STRIP_POINTS = [(None, 15, 36), (128, 3, 0), (128, 15, 0)]


class TestStripTransfer:
    """strip_sum, a transfer along the strip, against the sum over the
    strip's listed tilings of their tile weights, for rows and forced
    columns of index 1-8 and length 0-10, in both rings; a ring with
    omega1 transposed or the special domino dropped fails it."""

    def test_q_ring(self):
        tilings.reset_caches()
        assert _q_strip_misses(Q_RING) == []
        assert tilings.strip_sum(Q_RING, 3, 1, True) == Q_RING.zero

    def test_q_ring_mutants(self):
        # the q limit of omega1 is symmetric, so only the dropped domino shows
        assert _q_strip_misses(_TransposedOmega1(Q_RING)) == []
        misses = _q_strip_misses(_DroppedSpecialDomino(Q_RING))
        assert misses == [case for case in STRIP_CASES if case[2] and case[1] >= 2]

    @pytest.mark.parametrize("bits, seed, non_finite", ELLIPTIC_STRIP_POINTS)
    def test_elliptic_ring(self, bits, seed, non_finite):
        ring = ell.EllipticRing(ell.sample_params(seed, precision_bits=bits))
        misses, skipped = _elliptic_strip_misses(ring, ring, bits)
        assert misses == [] and len(skipped) == non_finite
        assert tilings.strip_sum(ring, 3, 1, True) == ring.zero == 0
        assert tilings.strip_sum(ring, 3, 0, True) == ring.one == 1

    @pytest.mark.parametrize("bits, seed, non_finite", ELLIPTIC_STRIP_POINTS)
    @pytest.mark.parametrize("mutant", [_TransposedOmega1, _DroppedSpecialDomino])
    def test_elliptic_ring_mutants(self, bits, seed, non_finite, mutant):
        ring = ell.EllipticRing(ell.sample_params(seed, precision_bits=bits))
        assert _elliptic_strip_misses(mutant(ring), ring, bits)[0] != []


class TestSharedIdentities:
    """The recurrence, spiral and convolution, written once over a weight
    ring, run on the q ring and on the elliptic ring of one point."""

    def test_q_ring_is_the_elliptic_limit(self):
        one = Q_RING.one
        for q in (2, Fraction(1, 3)):
            for n in range(0, 11):
                for base in range(1, 4):
                    got = Q_RING.times_number(one, n, base).evaluate(q)
                    assert got == ell.limit_chain(("number", n), q ** base), (q, n, base)
            for i in range(1, 7):
                for j in range(0, 7):
                    got = Q_RING.times_omega2(one, i, j).evaluate(q)
                    assert got == ell.limit_chain(("omega2", i, j), q), (q, i, j)
                    if j:
                        got = Q_RING.times_omega1(one, i, j).evaluate(q)
                        assert got == ell.limit_chain(("omega1", i, j), q), (q, i, j)

    def test_q_reports_fail_under_transposed_omega2(self):
        bad = _TransposedOmega2(Q_RING)
        for m, n in ((3, 2), (2, 3), (3, 3)):
            assert tilings.recurrence(Q_RING, m, n) == q_fibonomial(m, n)
            assert tilings.recurrence(bad, m, n) != q_fibonomial(m, n), (m, n)
            assert tilings.tiling_sum(Q_RING, m, n) == q_fibonomial(m, n)
            assert tilings.tiling_sum(bad, m, n) != q_fibonomial(m, n), (m, n)
            assert tilings.convolution_check(Q_RING, m, n).passed
            assert not tilings.convolution_check(bad, m, n).passed, (m, n)
        for m in range(1, 6):
            assert tilings.spiral_check(Q_RING, m).passed
            assert not tilings.spiral_check(bad, m).passed, m

    def test_elliptic_reports_fail_under_transposed_omega2(self):
        good = ell.EllipticRing(ell.sample_params(3))
        bad = _TransposedOmega2(good)
        for ring, passed in ((good, True), (bad, False)):
            for route in (tilings.recurrence, tilings.tiling_sum):
                rep = good.report(route.__name__, {}, good.fibonomial(3, 3), route(ring, 3, 3))
                assert rep.passed is passed, route
            assert tilings.spiral_check(ring, 3).passed is passed
            assert tilings.convolution_check(ring, 3, 3).passed is passed


class TestCatalanCounterexample:
    def test_size_6_polynomials_differ(self):
        rep = catalan_partial_tiling_counterexample(6)
        assert rep.expected == "unequal"
        assert rep.passed                     # passes because the sides differ
        assert rep.lhs == IntPoly([1, 1, 2, 2, 3, 2, 3, 2, 2, 1, 1])
        assert rep.rhs == IntPoly([1, 2, 3, 3, 3, 2, 2, 1, 1, 1, 1])

    def test_q1_shadow_agrees(self):
        rep = catalan_partial_tiling_counterexample(6)
        assert rep.notes["tiling_count"] == 20
        assert rep.notes["catalan_poly_at_1"] == 20

    def test_size_2(self):
        rep = catalan_partial_tiling_counterexample(2)
        assert rep.lhs == IntPoly.one()       # trivial Catalan polynomial
        assert rep.rhs == IntPoly.one()       # single blank tiling
        assert not rep.passed                 # the sides agree, so "unequal" fails


class TestSerialization:
    def test_roundtrip(self):
        for t in iter_rect_tilings(2, 2):
            assert rect_tiling_from_json(t.to_json()) == t
        for t in iter_staircase_tilings(4, 2):
            assert staircase_tiling_from_json(t.to_json()) == t
