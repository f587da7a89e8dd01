"""Exact arithmetic in the degree-4 field Q(i, r3).

Every coefficient in this package lives in the fixed field Q(i, sqrt(3)),
represented as a 4-dimensional vector space over Q with basis

    1,  i,  r3 = sqrt(3),  i*r3.

The field contains exactly the 12th roots of unity (it is the 12th
cyclotomic field), which is what the factorization pipelines need for
reverser seeds; nothing here ever falls back to floating point.

An element is stored as four Python-int numerators over one positive
common denominator, (p + q*i + r*r3 + s*i*r3) / den, in lowest terms:
gcd(p, q, r, s, den) == 1, and zero is stored as (0, 0, 0, 0) over 1.
The normal form is unique, so equality and hashing are structural.  A
product costs 16 integer multiplications and one gcd, and a sum over
equal denominators needs no cross-multiplication.  This is the only
arithmetic path; there is no optional accelerator.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from math import gcd, lcm


class FieldExtensionError(ValueError):
    """Raised when a result would leave Q(i, r3)."""


def _exact(x):
    """x as an int or a Fraction; floats are refused."""
    if isinstance(x, (int, Fraction)):
        return x
    if isinstance(x, float):
        raise TypeError(f"{x!r} is a float; exact arithmetic needs ints or Fractions")
    return Fraction(x)


def rat(p, q=1):
    """Build an exact rational, a fractions.Fraction; floats are refused."""
    return Fraction(_exact(p), _exact(q))


def _rat_sqrt(r):
    """Exact square root of a nonnegative rational, or None."""
    if r < 0:
        return None
    p, q = r.numerator, r.denominator
    sp, sq = math.isqrt(int(p)), math.isqrt(int(q))
    if sp * sp == p and sq * sq == q:
        return Fraction(sp, sq)
    return None


def _qi_sqrt(p, q):
    """Square root of p + q*i inside Q(i), as a (re, im) pair, or None.

    Solving (u + v*i)^2 = p + q*i needs u^2 = (p + n)/2 with
    n = sqrt(p^2 + q^2); the root exists in Q(i) iff n and then u are
    rational, with v = q/(2u).
    """
    if q == 0:
        s = _rat_sqrt(p)
        if s is not None:
            return (s, Fraction(0))
        s = _rat_sqrt(-p)
        if s is not None:
            return (Fraction(0), s)
        return None
    n = _rat_sqrt(p * p + q * q)
    if n is None:
        return None
    u = _rat_sqrt((p + n) / 2)
    if u is None or u == 0:
        return None
    v = q / (2 * u)
    return (u, v)


def _coordinate(k, unit):
    return property(
        lambda self: Fraction(self._v[k], self._v[4]),
        doc=f"The rational coordinate of {unit}, as a Fraction.",
    )


class Scalar:
    """An element a + b*i + c*r3 + d*i*r3 of Q(i, r3).

    Parameters
    ----------
    a, b, c, d :
        Rational coordinates with respect to the basis (1, i, r3, i*r3):
        ints, Fractions, or anything else ``fractions.Fraction`` takes
        alone.  Floats are refused with TypeError.

    Notes
    -----
    ``_v`` holds the normal form (p, q, r, s, den) described in the module
    docstring; the coordinates a, b, c, d are read-only Fraction views of
    it.  Instances are immutable.  Arithmetic with plain ints and
    Fractions is supported and produces Scalars.
    """

    __slots__ = ("_v",)

    def __init__(self, a=0, b=0, c=0, d=0):
        coords = [_exact(x) for x in (a, b, c, d)]
        den = lcm(*(x.denominator for x in coords))
        # each coordinate is reduced, so the common numerators and den
        # already have gcd 1
        _set(self, tuple(x.numerator * (den // x.denominator) for x in coords) + (den,))

    def __setattr__(self, name, value):
        raise AttributeError("Scalar is immutable")

    a = _coordinate(0, "1")
    b = _coordinate(1, "i")
    c = _coordinate(2, "r3")
    d = _coordinate(3, "i*r3")

    # -- predicates ----------------------------------------------------

    def is_zero(self) -> bool:
        return self._v == (0, 0, 0, 0, 1)

    def is_one(self) -> bool:
        return self._v == (1, 0, 0, 0, 1)

    def is_rational(self) -> bool:
        v = self._v
        return not (v[1] or v[2] or v[3])

    def rational(self):
        """Return self as a bare Fraction; raises if the imaginary or
        radical parts are nonzero."""
        if not self.is_rational():
            raise FieldExtensionError(f"{self} is not rational")
        return Fraction(self._v[0], self._v[4])

    # -- arithmetic ----------------------------------------------------

    def __add__(self, other):
        o = _vec(other)
        if o is None:
            return NotImplemented
        p, q, r, s, m = self._v
        e, f, g, h, n = o
        if m == n:
            return _make(p + e, q + f, r + g, s + h, m)
        return _make(p * n + e * m, q * n + f * m, r * n + g * m, s * n + h * m, m * n)

    __radd__ = __add__

    def __sub__(self, other):
        o = _vec(other)
        if o is None:
            return NotImplemented
        return self + -_wrap(o)

    def __rsub__(self, other):
        return self.__neg__().__add__(other)

    def __neg__(self):
        p, q, r, s, m = self._v
        return _wrap((-p, -q, -r, -s, m))

    def __mul__(self, other):
        o = _vec(other)
        if o is None:
            return NotImplemented
        p, q, r, s, m = self._v
        e, f, g, h, n = o
        P, Q, R, S = _product(p, q, r, s, e, f, g, h)
        return _make(P, Q, R, S, m * n)

    __rmul__ = __mul__

    def inverse(self) -> "Scalar":
        """Multiplicative inverse via the field norm, in integers.

        With A = p + q*i and B = r + s*i, the numerator is A + B*r3, and
        (A + B*r3)(A - B*r3) = A^2 - 3*B^2 = C lies in Z[i], so
        1/(A + B*r3) = (A - B*r3) * conj(C) / |C|^2 with |C|^2 a positive
        integer.
        """
        p, q, r, s, m = self._v
        if not (q or r or s):
            if p == 0:
                raise ZeroDivisionError("inverse of 0 in Q(i, r3)")
            return _wrap((m if p > 0 else -m, 0, 0, 0, abs(p)))
        c1 = p * p - q * q - 3 * (r * r - s * s)
        c2 = 2 * (p * q - 3 * r * s)
        return _make(
            m * (p * c1 + q * c2),
            m * (q * c1 - p * c2),
            -m * (r * c1 + s * c2),
            m * (r * c2 - s * c1),
            c1 * c1 + c2 * c2,
        )

    def __truediv__(self, other):
        o = _vec(other)
        if o is None:
            return NotImplemented
        return self * _wrap(o).inverse()

    def __rtruediv__(self, other):
        o = _vec(other)
        if o is None:
            return NotImplemented
        return _wrap(o) * self.inverse()

    def __pow__(self, k: int):
        if not isinstance(k, int):
            return NotImplemented
        if k < 0:
            return self.inverse() ** (-k)
        out = ONE
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    # -- comparison ----------------------------------------------------

    def __eq__(self, other):
        o = _vec(other)
        if o is None:
            return NotImplemented
        return self._v == o

    def __hash__(self):
        # a rational Scalar equals an int or a Fraction, so it hashes like one
        p, q, r, s, m = self._v
        if q or r or s:
            return hash(self._v)
        return hash(p) if m == 1 else hash(Fraction(p, m))

    # -- conversion ----------------------------------------------------

    def __repr__(self):
        return f"Scalar({format_scalar(self)!r})"

    def __str__(self):
        return format_scalar(self)

    # -- roots ---------------------------------------------------------

    def sqrt(self):
        """An exact square root in Q(i, r3), or None if there is none.

        Writes self as A + B*r3 with A, B in Q(i) and reduces to square
        roots in Q(i).  The returned root is sign-normalized so that its
        first nonzero coordinate is positive.
        """
        if self.is_zero():
            return ZERO
        A = (self.a, self.b)
        B = (self.c, self.d)
        root = None
        if B == (0, 0):
            z = _qi_sqrt(*A)
            if z is not None:
                root = Scalar(z[0], z[1])
            else:
                # maybe the root has the shape beta*r3 with beta in Q(i)
                z = _qi_sqrt(A[0] / 3, A[1] / 3)
                if z is not None:
                    root = Scalar(0, 0, z[0], z[1])
        else:
            # alpha^2 + 3 beta^2 = A and 2 alpha beta = B force alpha^2 to
            # satisfy 4 s^2 - 4 A s + 3 B^2 = 0 over Q(i).
            Da = A[0] * A[0] - A[1] * A[1] - 3 * (B[0] * B[0] - B[1] * B[1])
            Db = 2 * A[0] * A[1] - 6 * B[0] * B[1]
            w = _qi_sqrt(Da, Db)
            if w is not None:
                for sgn in (1, -1):
                    sa = (A[0] + sgn * w[0]) / 2
                    sb = (A[1] + sgn * w[1]) / 2
                    alpha = _qi_sqrt(sa, sb)
                    if alpha is None or alpha == (0, 0):
                        continue
                    # beta = B / (2 alpha) in Q(i)
                    den = 2 * (alpha[0] * alpha[0] + alpha[1] * alpha[1])
                    br = (B[0] * alpha[0] + B[1] * alpha[1]) / den
                    bi = (B[1] * alpha[0] - B[0] * alpha[1]) / den
                    cand = Scalar(alpha[0], alpha[1], br, bi)
                    if cand * cand == self:
                        root = cand
                        break
        if root is None:
            return None
        for num in root._v[:4]:
            if num > 0:
                return root
            if num < 0:
                return -root
        return root


_new = object.__new__
_set = Scalar._v.__set__  # the one writer of the slot, past __setattr__


def _wrap(v) -> Scalar:
    # trusts v to be a normal-form tuple (p, q, r, s, den)
    x = _new(Scalar)
    _set(x, v)
    return x


def _make(p, q, r, s, den) -> Scalar:
    """The Scalar (p + q*i + r*r3 + s*i*r3) / den, for ints with den > 0;
    the series layer builds its sums of products with it."""
    g = gcd(den, p, q, r, s)
    x = _new(Scalar)
    _set(x, (p, q, r, s, den) if g == 1 else (p // g, q // g, r // g, s // g, den // g))
    return x


def _product(p, q, r, s, e, f, g, h):
    """The numerators of (p + q*i + r*r3 + s*i*r3)(e + f*i + g*r3 + h*i*r3),
    with i^2 = -1 and r3^2 = 3; the series layer sums these over one
    denominator before reducing."""
    if not (q or r or s):
        return p * e, p * f, p * g, p * h
    if not (f or g or h):
        return p * e, q * e, r * e, s * e
    return (
        p * e - q * f + 3 * (r * g - s * h),
        p * f + q * e + 3 * (r * h + s * g),
        p * g + r * e - q * h - s * f,
        p * h + s * e + q * g + r * f,
    )


def _vec(x):
    """The normal-form tuple of a Scalar, an int or a Fraction, else None."""
    if isinstance(x, Scalar):
        return x._v
    if isinstance(x, (int, Fraction)):
        return (x.numerator, 0, 0, 0, x.denominator)
    return None


ZERO = Scalar(0)
ONE = Scalar(1)
I = Scalar(0, 1)
R3 = Scalar(0, 0, 1)


def scalar(x) -> Scalar:
    """Coerce a rational-like or Scalar to Scalar."""
    if isinstance(x, Scalar):
        return x
    v = _vec(x)
    return Scalar(x) if v is None else _wrap(v)


# ---------------------------------------------------------------------------
# roots of unity

# zeta = (r3 + i)/2 is a primitive 12th root of unity; the field contains
# exactly the 12th roots and no others.
ZETA12 = Scalar(0, rat(1, 2), rat(1, 2), 0)

TWELFTH_ROOTS = tuple(ZETA12**k for k in range(12))


def root_of_unity_order(x: Scalar):
    """The multiplicative order of x if it is a root of unity, else None."""
    x = scalar(x)
    if x.is_zero():
        return None
    p = x
    for d in range(1, 13):
        if p.is_one():
            return d
        p = p * x
    return None


def is_root_of_unity(x: Scalar) -> bool:
    return root_of_unity_order(x) is not None


def reverser_seeds(p: int):
    """All 12th roots of unity c with c**p == -1, in a fixed order.

    These are the admissible linear parts for a reverser of a 1-variable
    map t + a*t**(p+1) + ...; for p divisible by 4 the list is empty
    because the needed roots live outside Q(i, r3).
    """
    minus_one = -ONE
    return [c for c in TWELFTH_ROOTS if c**p == minus_one]


# ---------------------------------------------------------------------------
# parsing and printing

_UNIT_NAMES = ("", "i", "r3", "i*r3")


class TextFormatError(ValueError):
    """Malformed text in one of the package's formats.

    ``offset`` is the index in the text read at which the fault was found,
    0 <= offset <= len(text).
    """

    def __init__(self, message: str, offset: int):
        super().__init__(message)
        self.offset = offset

    def line_col(self, text: str):
        """The 1-based (line, column) of the offset in ``text``."""
        line = text.count("\n", 0, self.offset) + 1
        return line, self.offset - text.rfind("\n", 0, self.offset)


class ScalarFormatError(TextFormatError):
    """Raised for malformed scalar text."""


class ScalarTooLargeError(ValueError):
    """Raised when a numerator or denominator has more than DIGIT_LIMIT
    digits, so its text could not be read back."""


def _digits(x: int) -> str:
    # every x >= 10**DIGIT_LIMIT has at least _TOO_LONG_BITS bits, so the
    # bit_length test spares ordinary coefficients the big comparison
    if x.bit_length() >= _TOO_LONG_BITS and x >= _TOO_LONG:
        raise ScalarTooLargeError(
            f"coefficient with {x.bit_length()} bits has more than "
            f"{DIGIT_LIMIT} digits, the longest number the reader accepts"
        )
    return str(x)


def format_scalar(x: Scalar) -> str:
    """Canonical text form: terms in basis order 1, i, r3, i*r3.

    Examples: ``1/2``, ``-1/2*i``, ``1 + 1*i``, ``-3/6 + 1/6*r3``  (the
    last would of course print reduced as ``-1/2 + 1/6*r3``).  Raises
    ScalarTooLargeError for a numerator or denominator longer than
    DIGIT_LIMIT digits.
    """
    *nums, den = x._v
    parts = []
    for num, unit in zip(nums, _UNIT_NAMES):
        if num == 0:
            continue
        g = gcd(num, den)
        body = _digits(abs(num) // g)
        if den != g:
            body += "/" + _digits(den // g)
        if unit:
            body += "*" + unit
        parts.append(("-" if num < 0 else "+", body))
    if not parts:
        return "0"
    sign, body = parts[0]
    out = ("-" if sign == "-" else "") + body
    for sign, body in parts[1:]:
        out += f" {sign} {body}"
    return out


# The int-string digit limit that Python 3.11 applies by default, applied
# on every version: no digit string read or written may be longer, and no
# decimal exponent larger in absolute value.  int() of a long digit string
# and 10**e are computed eagerly, so one unbounded literal could stall a
# reader.
DIGIT_LIMIT = 4300
_TOO_LONG = 10**DIGIT_LIMIT
_TOO_LONG_BITS = _TOO_LONG.bit_length()

_DIGITS = r"[0-9]+(?:_[0-9]+)*"
_UNIT = r"i\s*\*\s*r3|r3\s*\*\s*i|i|r3"
# one signed term: a run of signs, then a rational with an optional unit,
# or a bare unit
_TERM = re.compile(
    rf"\s*(?P<sign>[+-][\s+-]*)?(?:(?P<rat>(?P<p>{_DIGITS})/(?P<q>{_DIGITS})"
    rf"|(?=\.?[0-9])(?P<int>{_DIGITS})?(?:\.(?P<frac>{_DIGITS})?)?"
    rf"(?:[eE](?P<exp>[+-]?{_DIGITS}))?)(?:\s*\*\s*(?P<unit>{_UNIT}))?"
    rf"|(?P<bare>{_UNIT}))"
)
# the common coefficient, an integer or a fraction, read without the loop;
# the digit bounds keep int() inside the int-string limit
_PLAIN = re.compile(
    rf"\s*(-?[0-9]{{1,{DIGIT_LIMIT}}})(?:/([1-9][0-9]{{0,{DIGIT_LIMIT - 1}}}))?\s*\Z"
)


def _int(digits: str, offset: int) -> int:
    if len(digits) > DIGIT_LIMIT:
        raise ScalarFormatError(f"number longer than {DIGIT_LIMIT} digits", offset)
    return int(digits)


def _rational(m, offset: int):
    """(numerator, positive denominator) of the rational a _TERM matched."""
    p, q = m.group("p", "q")
    if p is not None:
        den = _int(q, offset)
        if not den:
            raise ScalarFormatError(f"zero denominator in {m.group('rat')!r}", offset)
        return _int(p, offset), den
    whole, frac, exp = m.group("int", "frac", "exp")
    frac = (frac or "").replace("_", "")
    num, den = _int((whole or "") + frac, offset), 10 ** len(frac)
    if exp is not None:
        k = _int(exp.replace("_", ""), offset)
        if abs(k) > DIGIT_LIMIT:
            raise ScalarFormatError(
                f"decimal exponent {k} exceeds {DIGIT_LIMIT} in absolute value", offset
            )
        if k < 0:
            den *= 10**-k
        else:
            num *= 10**k
    return num, den


def parse_scalar(text: str) -> Scalar:
    """Parse the textual scalar format.

    A scalar is a sum of terms ``p/q``, ``p/q*i``, ``p/q*r3``,
    ``p/q*i*r3`` (or ``r3*i``) and bare units ``i``, ``r3``, ``i*r3``,
    joined by runs of + and -.  A rational is ``p/q`` with digit strings p
    and q, q nonzero, or a decimal such as ``3``, ``1.5``, ``.5`` or
    ``1e-2``; digits may be grouped by underscores.  No digit string
    is longer than DIGIT_LIMIT, and no decimal exponent is larger in
    absolute value.  The README gives the grammar.  Errors carry the
    offset in ``text``.
    """
    plain = _PLAIN.match(text)
    if plain is not None:
        p, q = plain.groups()
        return _make(int(p), 0, 0, 0, int(q) if q else 1)
    end = len(text.rstrip())
    if not end:
        raise ScalarFormatError("empty scalar", 0)
    nums, den = [0, 0, 0, 0], 1
    pos = 0
    while pos < end:
        m = _TERM.match(text, pos)
        if m is None:
            at = len(text) - len(text[pos:].lstrip())
            raise ScalarFormatError(f"expected a term at {text[at:at + 12]!r}", at)
        sign = m.group("sign")
        rat = m.group("rat")
        if pos and sign is None:
            at = m.start("rat" if rat is not None else "bare")
            raise ScalarFormatError("terms must be joined by '+' or '-'", at)
        if rat is not None:
            num, q = _rational(m, m.start("rat"))
            unit = m.group("unit")
        else:
            num, q, unit = 1, 1, m.group("bare")
        idx = 0 if unit is None else 3 if "*" in unit else 1 if unit == "i" else 2
        if sign is not None and sign.count("-") % 2:
            num = -num
        if q != den:
            l = lcm(den, q)
            nums = [x * (l // den) for x in nums]
            num *= l // q
            den = l
        nums[idx] += num
        pos = m.end()
    return _make(*nums, den)


# ---------------------------------------------------------------------------
# quadratics


def solve_quadratic(a, b, c):
    """Exact roots of a*x^2 + b*x + c = 0 over Q(i, r3).

    Returns the pair ((-b + s)/(2a), (-b - s)/(2a)) where s is the
    sign-normalized square root of the discriminant.  Raises
    FieldExtensionError when the discriminant has no square root in the
    field, naming the discriminant in the message.
    """
    a, b, c = scalar(a), scalar(b), scalar(c)
    if a.is_zero():
        raise ValueError("leading coefficient is zero; not a quadratic")
    disc = b * b - 4 * a * c
    s = disc.sqrt()
    if s is None:
        raise FieldExtensionError(
            f"field extension required: discriminant {format_scalar(disc)} "
            "has no square root in Q(i, r3)"
        )
    inv2a = (2 * a).inverse()
    return ((-b + s) * inv2a, (-b - s) * inv2a)
