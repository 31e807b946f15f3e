import json

import pytest

from fibl import qpoly, tilings
from fibl.errors import ResourceLimitError
from fibl.fib import fib
from fibl.qpoly import IntPoly, fibonomial_int, q_fibonomial, q_number
from fibl.tilings import (PathDominoTiling, StaircaseTiling,
                          catalan_partial_tiling_counterexample,
                          enumerate_rect_tilings, enumerate_staircase_tilings,
                          enumerate_strips, iter_rect_tilings,
                          iter_staircase_tilings, load_golden,
                          model_bijection_check, q_weight,
                          rect_generating_function,
                          staircase_generating_function, validate_rect_tiling,
                          validate_staircase_tiling, weight_exponent)


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
            return tilings._strip_table(tilings._rect_strip_tiles, 1, length, False)
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
                    assert tilings._strip_table(tilings._rect_strip_tiles, *case) == want, case
                    assert qpoly._recurrence_strip(None, *case) == want, case
        assert qpoly._recurrence_strip(None, 1, 2, False) == IntPoly([1, 1])
        assert qpoly._recurrence_strip(None, 1, 7, False) == q_number(21)
        assert qpoly._recurrence_strip(None, 3, 1, True) == IntPoly.zero()


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
        with pytest.raises(ResourceLimitError):
            rect_generating_function(5, 5, cap=1000)
        with pytest.raises(ResourceLimitError):
            staircase_generating_function(10, 5, cap=1000)


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

    def test_cap_holds_for_built_points(self):
        tilings.reset_caches()
        assert rect_generating_function(5, 5) == q_fibonomial(5, 5)
        assert staircase_generating_function(10, 5) == q_fibonomial(5, 5)
        assert (5, 5) in tilings._Q_LATTICES[0] and (10, 5) in tilings._Q_LATTICES[1]
        with pytest.raises(ResourceLimitError):
            rect_generating_function(5, 5, cap=1000)
        with pytest.raises(ResourceLimitError):
            staircase_generating_function(10, 5, cap=1000)

    def test_oversized_lattice_is_dropped(self):
        tilings.reset_caches()
        stale = {(-i, 0): None for i in range(2049)}
        tilings._Q_LATTICES[0].update(stale)
        assert rect_generating_function(3, 4) == q_fibonomial(3, 4)
        assert len(tilings._Q_LATTICES[0]) == 4 * 5

    def test_q_strip_sum_matches_per_path_product(self):
        for length in range(0, 12):
            assert qpoly._recurrence_strip(None, 1, length, False) == _per_path_product(
                [[(1, length, False)]], tilings._rect_strip_tiles)


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
        t = PathDominoTiling.from_json(doc["tiling"])
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
            assert PathDominoTiling.from_json(t.to_json()) == t
        for t in iter_staircase_tilings(4, 2):
            assert StaircaseTiling.from_json(t.to_json()) == t
