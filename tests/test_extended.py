"""ExtComplex, the B-bit complex numbers of the extended regime, against
mpmath at the same B (+, - and * bit for bit) and at 4B + 64 bits (/,
** and abs within the bounds of ExtComplex's docstring), and ext:B theta
against the 300-bit factor-by-factor product."""

import cmath
import math
import random

import mpmath
import pytest
from hypothesis import example, given, settings, strategies as st

from fibl import elliptic as ell
from fibl.extended import ExtComplex, _make, _round
from oracles import theta_product, to_mpc

BITS = [53, 128, 256]


def ext(a: int, b: int, e: int, bits: int) -> ExtComplex:
    """(a + ib) 2^e rounded to ``bits`` bits."""
    return _make(*_round(a, b, e, bits), bits)


def half_ulp(part: int, e: int, bits: int):
    """Half a unit in the last of ``bits`` places of the part m 2^e, as an mpf."""
    return mpmath.ldexp(1, e + abs(part).bit_length() - bits - 1) if part else mpmath.mpf(0)


def _mantissa(bits_strategy):
    return st.integers(0, 1).flatmap(
        lambda zero: st.just(0) if zero else bits_strategy.flatmap(
            lambda n: st.integers(-(1 << n), 1 << n)))


# mantissas of up to 2B bits (zero in about one case of four), exponents
# inside and far past the double range
_parts = st.tuples(_mantissa(st.integers(1, 600)), _mantissa(st.integers(1, 600)),
                   st.integers(-5000, 5000) | st.integers(-80, 80))
_plain = (st.integers(-10**30, 10**30)
          | st.floats(allow_nan=False, allow_infinity=False)
          | st.complex_numbers(allow_nan=False, allow_infinity=False))


@settings(max_examples=300, deadline=None)
@given(x=_parts, y=_parts, bits=st.sampled_from(BITS))
@example(x=(1, 0, 5000), y=(1, 0, -5000), bits=128)
@example(x=(-(1 << 200) - 1, 3, -7), y=(1 << 200, -3, -7), bits=128)     # cancellation
@example(x=(0, 0, 0), y=(-5, 7, -5000), bits=53)
@example(x=((1 << 128) - 1, -((1 << 128) - 1), 0), y=(1, 1, -129), bits=128)   # ties
def test_add_sub_mul_are_mpmaths_at_the_same_bits(x, y, bits):
    """Each part rounded to nearest, ties to even, at B bits: mpmath's
    value at prec B, bit for bit, also with an int, float or complex."""
    u, v = ext(*x, bits), ext(*y, bits)
    with mpmath.workprec(bits):
        mu, mv = to_mpc(u), to_mpc(v)
        wants = (mu + mv, mu - mv, mu * mv, mv - mu)
    gots = (u + v, u - v, u * v, v - u)
    for got, want in zip(gots, wants):
        assert to_mpc(got) == want and got.bits == bits


@settings(max_examples=200, deadline=None)
@given(x=_parts, w=_plain, bits=st.sampled_from(BITS))
@example(x=(3, -1, 0), w=10**30 + 1, bits=53)
@example(x=(1, 1, -4000), w=-0.0, bits=128)
def test_plain_operands_are_taken_exactly(x, w, bits):
    u = ext(*x, bits)
    with mpmath.workprec(bits):
        mu, mw = to_mpc(u), to_mpc(w)
        wants = (mu + mw, mw + mu, mu - mw, mw - mu, mu * mw, mw * mu)
    gots = (u + w, w + u, u - w, w - u, u * w, w * u)
    for got, want in zip(gots, wants):
        assert type(got) is ExtComplex and to_mpc(got) == want


def _check_within(got: ExtComplex, exact, rel):
    """Each part of ``got`` within half its own ulp plus rel |exact| of
    the exact value's part."""
    with mpmath.workprec(4 * got.bits + 64):
        slack = rel * abs(exact)
        g = to_mpc(got)
        assert abs(g.real - exact.real) <= half_ulp(got.a, got.e, got.bits) + slack
        assert abs(g.imag - exact.imag) <= half_ulp(got.b, got.e, got.bits) + slack


@settings(max_examples=300, deadline=None)
@given(x=_parts, y=_parts, bits=st.sampled_from(BITS))
@example(x=(1, 0, 0), y=(3, 0, 0), bits=128)
@example(x=(7, -2, 5000), y=(-1, 5, -5000), bits=256)
@example(x=(1, 1 << 590, 0), y=(1 << 300, 1, -10), bits=53)     # parts 2^590 apart
def test_division_within_the_stated_bound(x, y, bits):
    u, v = ext(*x, bits), ext(*y, bits)
    if not v:
        with pytest.raises(ZeroDivisionError):
            u / v
        return
    with mpmath.workprec(4 * bits + 1300):
        exact = to_mpc(u) / to_mpc(v)
    _check_within(u / v, exact, mpmath.ldexp(1, -(bits + 24)))
    if u:
        with mpmath.workprec(4 * bits + 1300):
            exact = to_mpc(v) / to_mpc(u)
            reciprocal = 1 / to_mpc(u)
        _check_within(v / u, exact, mpmath.ldexp(1, -(bits + 24)))
        _check_within(1 / u, reciprocal, mpmath.ldexp(1, -(bits + 24)))


@settings(max_examples=200, deadline=None)
@given(x=_parts, bits=st.sampled_from(BITS))
@example(x=(3, 4, 0), bits=53)                  # |3 + 4i| = 5 exactly
@example(x=(-(1 << 300) - 1, 0, -5000), bits=128)
@example(x=(0, -7, 5000), bits=128)
@example(x=(1, 1, 0), bits=256)
def test_abs_is_correctly_rounded(x, bits):
    z = ext(*x, bits)
    got = abs(z)
    assert got.b == 0 and got >= 0 and got.bits == bits
    with mpmath.workprec(4 * bits + 1300):
        exact = abs(to_mpc(z))
        assert abs(to_mpc(got).real - exact) <= half_ulp(got.a, got.e, bits)


@settings(max_examples=100, deadline=None)
@given(x=_parts, n=st.integers(0, 400), bits=st.sampled_from(BITS))
@example(x=(3, -1, 0), n=0, bits=128)
@example(x=(-1, 1, 0), n=400, bits=53)
def test_power_within_the_stated_bound(x, n, bits):
    z = ext(*x, bits)
    if not z:
        assert z ** n == (1 if n == 0 else 0)
        return
    with mpmath.workprec(4 * bits + 1300):
        exact = to_mpc(z) ** n
    _check_within(z ** n, exact, mpmath.ldexp(1, -(bits + 24)))


class TestValues:
    def test_zero_and_sign(self):
        zero = ExtComplex(0, 128)
        assert not zero and zero == 0 and zero == 0j and -zero == 0
        x = ExtComplex(-1.5 + 2j, 128)
        assert (-x) == 1.5 - 2j and x - x == 0 and not (x - x)
        assert x + -x == zero and abs(-x) == abs(x) == 2.5
        assert ExtComplex(-3, 53) < 0 < abs(ExtComplex(-3, 53))

    def test_exponents_far_past_the_double_range(self):
        big = ExtComplex(2.0 ** 1000, 128) ** 5             # 2^5000
        tiny = 1 / big
        assert big == ext(1, 0, 5000, 128) and tiny == ext(1, 0, -5000, 128)
        assert big * tiny == 1 and (big + tiny) - big == 0
        assert complex(big) == complex(math.inf, 0) and float(tiny) == 0.0
        assert complex(-big * 1j) == complex(0, -math.inf)
        assert tiny > 0 and tiny < 1e-300 and big > 1e300 and big < math.inf
        assert -big > -math.inf and abs(big * (3 + 4j)) == 5 * big

    def test_plain_values_convert_exactly(self):
        for z in (0.1, -2.5e-300 + 1e300j, 3, 10**40, 5e-324j):
            x = ExtComplex(z, 2000)
            assert x == z and to_mpc(x) == to_mpc(z)
        assert ExtComplex(0.1, 53) == 0.1 and ExtComplex(0.1, 20) != 0.1

    def test_rounding_to_fewer_bits_is_to_nearest_even(self):
        assert ExtComplex(0b1011, 3) == 0b1100 and ExtComplex(0b1001, 3) == 0b1000
        assert ExtComplex(-0b1011, 3) == -0b1100 and ExtComplex(18j, 3) == 16j
        assert ExtComplex(22j, 3) == 24j
        x = ExtComplex(1 + 2.0 ** -60, 128)
        assert ExtComplex(x, 53) == 1 and ExtComplex(x, 128) == x

    @pytest.mark.parametrize("bad", [math.nan, math.inf, complex(0, -math.inf),
                                     complex(math.nan, 1), "1", None])
    def test_non_finite_and_non_numbers_are_rejected(self, bad):
        with pytest.raises(ValueError, match="not a finite number"):
            ExtComplex(bad, 128)
        x = ExtComplex(0.5, 128)
        if not isinstance(bad, complex):
            assert not (x == bad)
        with pytest.raises(TypeError):
            x + bad

    def test_order_is_of_reals_only(self):
        x, one = ExtComplex(0.5, 128), ExtComplex(1, 128)
        assert x < one and x <= one and one > x and one >= x and x <= 0.5 and x >= 0.5
        assert max(x, one) is one and max(abs(x - one), 0.25) == 0.5
        for bad in (ExtComplex(1j, 128), 1j, math.nan):
            with pytest.raises(TypeError):
                x < bad
        with pytest.raises(TypeError):
            float(ExtComplex(1 + 1j, 128))
        with pytest.raises(TypeError):
            hash(x)

    def test_parts_are_reals(self):
        z = ExtComplex(0.25 - 3j, 128)
        assert z.real == 0.25 and z.imag == -3 and z.imag.b == 0 and z.real.bits == 128
        assert float(z.imag) == -3.0 and complex(z) == 0.25 - 3j

    def test_precision_is_the_ext_operands(self):
        x, y = ExtComplex(1 / 3, 64), ExtComplex(1 / 7, 200)
        assert (x * y).bits == 64 and (y * x).bits == 200 and (2 * y).bits == 200
        assert (1 / x).bits == 64 and (x ** 3).bits == 64 and abs(y).bits == 200

    def test_no_subclass_of_complex_or_float(self):
        assert not issubclass(ExtComplex, (complex, float, int))


@pytest.mark.parametrize("bits", [128, 256])
def test_theta_against_the_300_bit_product(bits):
    """ext:B theta at suite-shaped points (x a product or quotient of two
    arguments of modulus 0.4 to 1.5, 0.05 <= |p| <= 0.35), cut at
    eps = 2^-(B+16), is within 2^(1-B) |theta| of the factor-by-factor
    product at 300 bits: each part rounds once, within half an ulp of its
    own, and the kernel's own error is far below that (measured: under
    0.97 2^-B |theta| at B = 128 and 256, 300 points each)."""
    rng = random.Random(bits)
    eps = min(ell.EXTENDED_TRUNC_EPS, 2.0 ** -(bits + 16))
    worst = 0
    for i in range(60):
        u, v = (ell._random_complex(rng, 0.4, 1.5) for _ in range(2))
        x = u * v if i % 2 else u / v
        p = ell._random_complex(rng, 0.05, 0.35)
        got = ell.theta(ExtComplex(x, bits), ExtComplex(p, bits), eps)
        assert type(got) is ExtComplex and got.bits == bits
        want = theta_product(x, p)
        with mpmath.workprec(400):
            worst = max(worst, abs(to_mpc(got) - want) / abs(want))
    assert worst <= mpmath.ldexp(1, 1 - bits)


def test_theta_arguments_may_be_plain_numbers():
    """The ExtComplex argument sets B and converts the other one."""
    p, x = ExtComplex(0.2 + 0.1j, 128), 0.7 - 1.3j
    want = ell.theta(ExtComplex(x, 128), p, 1e-44)
    assert ell.theta(x, p, 1e-44) == want
    assert ell.theta(ExtComplex(x, 128), complex(p), 1e-44) == want
    assert cmath.isclose(complex(want), ell.theta(x, complex(p)), rel_tol=1e-12)
