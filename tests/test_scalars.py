"""Tests for exact field arithmetic in Q(i, r3)."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from revfactor.scalars import (
    I,
    ONE,
    R3,
    TWELFTH_ROOTS,
    ZERO,
    ZETA12,
    FieldExtensionError,
    Scalar,
    ScalarFormatError,
    ScalarTooLargeError,
    format_scalar,
    is_root_of_unity,
    parse_scalar,
    rat,
    reverser_seeds,
    root_of_unity_order,
    scalar,
    solve_quadratic,
)

rationals = st.fractions(min_value=-50, max_value=50, max_denominator=12)


def scalars(allow_zero=True):
    base = st.builds(Scalar, rationals, rationals, rationals, rationals)
    if allow_zero:
        return base
    return base.filter(lambda x: not x.is_zero())


def test_basis_relations():
    assert I * I == -ONE
    assert R3 * R3 == scalar(3)
    assert I * R3 == Scalar(0, 0, 0, 1)
    assert (I * R3) * (I * R3) == scalar(-3)


def test_inverse_frozen_example():
    # 1/((-3 + r3)/6) = -3 - r3
    x = Scalar(rat(-1, 2), 0, rat(1, 6), 0)
    assert x.inverse() == Scalar(-3, 0, -1, 0)
    assert x * x.inverse() == ONE


def test_solve_quadratic_frozen_example():
    r_plus, r_minus = solve_quadratic(6, 6, 1)
    assert r_plus == Scalar(rat(-1, 2), 0, rat(1, 6), 0)
    assert r_minus == Scalar(rat(-1, 2), 0, rat(-1, 6), 0)
    # both really are roots
    for r in (r_plus, r_minus):
        assert 6 * r * r + 6 * r + 1 == ZERO


def test_solve_quadratic_field_extension_error():
    with pytest.raises(FieldExtensionError) as exc:
        solve_quadratic(1, 0, -2)
    assert "8" in str(exc.value)
    assert "field extension required" in str(exc.value)


def test_solve_quadratic_rejects_degenerate():
    with pytest.raises(ValueError):
        solve_quadratic(0, 1, 1)


def test_twelfth_roots_are_all_roots_of_unity():
    assert len(set(TWELFTH_ROOTS)) == 12
    orders = sorted(root_of_unity_order(z) for z in TWELFTH_ROOTS)
    assert orders == [1, 2, 3, 3, 4, 4, 6, 6, 12, 12, 12, 12]
    assert ZETA12**6 == -ONE
    assert not is_root_of_unity(scalar(2))
    assert not is_root_of_unity(ZERO)
    assert root_of_unity_order(ONE + I) is None


def test_reverser_seeds():
    assert reverser_seeds(1) == [-ONE]
    assert set(reverser_seeds(2)) == {I, -I}
    assert all(c**3 == -ONE for c in reverser_seeds(3))
    assert len(reverser_seeds(3)) == 3
    # p divisible by 4 needs an 8th root, which the field lacks
    assert reverser_seeds(4) == []
    assert reverser_seeds(8) == []


def test_sqrt_examples():
    assert Scalar(12).sqrt() == Scalar(0, 0, 2, 0)
    assert Scalar(-4).sqrt() == Scalar(0, 2, 0, 0)
    assert Scalar(rat(9, 4)).sqrt() == Scalar(rat(3, 2))
    assert Scalar(2).sqrt() is None
    assert I.sqrt() is None  # sqrt(i) is an 8th root of unity
    two_i = 2 * I
    s = two_i.sqrt()
    assert s is not None and s * s == two_i


@given(scalars(allow_zero=False))
@settings(max_examples=80)
def test_sqrt_of_square_roundtrips(x):
    s = (x * x).sqrt()
    assert s is not None
    assert s * s == x * x
    assert s in (x, -x)


@given(scalars(), scalars(), scalars())
@settings(max_examples=100)
def test_field_axioms(x, y, z):
    assert (x + y) + z == x + (y + z)
    assert (x * y) * z == x * (y * z)
    assert x * (y + z) == x * y + x * z
    assert x + y == y + x
    assert x * y == y * x


@given(scalars(allow_zero=False))
@settings(max_examples=100)
def test_inverses(x):
    assert x * x.inverse() == ONE
    assert (x**3) * (x**-3) == ONE


@given(scalars())
@settings(max_examples=100)
def test_parse_format_roundtrip(x):
    assert parse_scalar(format_scalar(x)) == x


def test_parse_variants():
    assert parse_scalar("i") == I
    assert parse_scalar("-i") == -I
    assert parse_scalar("r3*i") == Scalar(0, 0, 0, 1)
    assert parse_scalar("3") == scalar(3)
    assert parse_scalar("1/2 - 1/3*i + r3") == Scalar(
        Fraction(1, 2), Fraction(-1, 3), 1, 0
    )
    with pytest.raises(ValueError):
        parse_scalar("1/2*q")
    with pytest.raises(ValueError):
        parse_scalar("")


def test_interop_with_plain_rationals():
    x = Scalar(0, 1)
    assert 1 + x == Scalar(1, 1)
    assert Fraction(1, 2) * x == Scalar(0, Fraction(1, 2))
    assert (2 - x) == Scalar(2, -1)
    assert x / 2 == Scalar(0, Fraction(1, 2))
    assert 2 / Scalar(2) == ONE


def test_floats_are_refused():
    with pytest.raises(TypeError):
        Scalar(0.1)
    with pytest.raises(TypeError):
        Scalar(1, 0, 0, 2.5)
    with pytest.raises(TypeError):
        rat(0.5)
    with pytest.raises(TypeError):
        rat(1, 2.0)
    with pytest.raises(TypeError):
        ONE + 0.5


@pytest.mark.parametrize(
    "text, value",
    [
        ("-1/2*i", Scalar(0, Fraction(-1, 2))),
        ("1.5", Scalar(Fraction(3, 2))),
        ("1e2", Scalar(100)),
        ("1_000", Scalar(1000)),
        ("2/4*r3 - r3*i", Scalar(0, 0, Fraction(1, 2), -1)),
        ("1/0", None),
        ("1//2", None),
        ("nan", None),
        ("+", None),
        ("1e-2", Scalar(Fraction(1, 100))),
        ("1E+2", Scalar(100)),
        ("-1e-2*i", Scalar(0, Fraction(-1, 100))),
        ("2*", None),
        ("2*+1", None),
        ("*i", None),
        ("1 -", None),
        ("1e4300", Scalar(10**4300)),
        ("1e-4301", None),
        ("1e999999999", None),
    ],
)
def test_parse_scalar_grammar(text, value):
    if value is None:
        with pytest.raises(ScalarFormatError):
            parse_scalar(text)
    else:
        assert parse_scalar(text) == value


def test_format_scalar_refuses_what_the_reader_would_reject():
    longest = 10**4300 - 1  # 4300 nines
    for x in (Scalar(longest), Scalar(Fraction(-1, longest)), Scalar(0, longest, 1)):
        assert parse_scalar(format_scalar(x)) == x
    too_long = 10**4300
    for x in (Scalar(too_long), Scalar(Fraction(1, too_long)), Scalar(0, 0, -too_long)):
        with pytest.raises(ScalarTooLargeError):
            format_scalar(x)


# ---------------------------------------------------------------------------
# the integer kernel against a Fraction-coordinate reference


class Ref:
    """a + b*i + c*r3 + d*i*r3 with four Fraction coordinates."""

    def __init__(self, a, b, c, d):
        self.v = tuple(Fraction(x) for x in (a, b, c, d))

    def __add__(self, o):
        return Ref(*(x + y for x, y in zip(self.v, o.v)))

    def __sub__(self, o):
        return Ref(*(x - y for x, y in zip(self.v, o.v)))

    def __mul__(self, o):
        a, b, c, d = self.v
        e, f, g, h = o.v
        return Ref(
            a * e - b * f + 3 * (c * g - d * h),
            a * f + b * e + 3 * (c * h + d * g),
            a * g + c * e - b * h - d * f,
            a * h + d * e + b * g + c * f,
        )

    def inverse(self):
        # the product of the three other Galois conjugates over the norm
        a, b, c, d = self.v
        num = Ref(a, -b, c, -d) * Ref(a, b, -c, -d) * Ref(a, -b, -c, d)
        norm = (self * num).v[0]
        return Ref(*(x / norm for x in num.v))

    def __pow__(self, k):
        base = self if k >= 0 else self.inverse()
        out = Ref(1, 0, 0, 0)
        for _ in range(abs(k)):
            out = out * base
        return out


def ref(x):
    return Ref(x.a, x.b, x.c, x.d)


def assert_normal_form(x):
    p, q, r, s, den = x._v
    assert den > 0
    assert math.gcd(den, p, q, r, s) == 1
    if not (p or q or r or s):
        assert x._v == (0, 0, 0, 0, 1)


mixed_rationals = st.fractions(min_value=-30, max_value=30, max_denominator=60)
coords = st.tuples(mixed_rationals, mixed_rationals, mixed_rationals, mixed_rationals)


@given(coords, coords, st.integers(min_value=-3, max_value=3))
@settings(max_examples=200)
def test_kernel_matches_fraction_reference(u, w, k):
    x, y = Scalar(*u), Scalar(*w)
    rx, ry = Ref(*u), Ref(*w)
    assert ref(x).v == rx.v
    results = [(x + y, rx + ry), (x - y, rx - ry), (x * y, rx * ry), (-x, Ref(0, 0, 0, 0) - rx)]
    if not x.is_zero():
        results += [(x.inverse(), rx.inverse()), (y / x, ry * rx.inverse()), (x**k, rx**k)]
    for got, want in results:
        assert_normal_form(got)
        assert ref(got).v == want.v


@given(mixed_rationals, mixed_rationals)
@settings(max_examples=100)
def test_rational_scalars_equal_and_hash_like_rationals(r, t):
    x = Scalar(r)
    assert x.is_rational() and x.rational() == r
    assert x == r and hash(x) == hash(r)
    if r.denominator == 1:
        assert x == int(r) and hash(x) == hash(int(r))
    assert len({x, r, Scalar(r)}) == 1
    z = Scalar(r, t)
    assert (z == r) == (t == 0)
    assert_normal_form(z)
    assert_normal_form(Scalar(0) * z)
