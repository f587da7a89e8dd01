"""Truncated multivariate power series over Q(i, r3).

A Series is a sparse polynomial representative of a power series mod
total degree > trunc, zeros never stored.  All ring operations prune to
the common truncation degree; combining series with different truncation
degrees or variable counts is an error, never a silent coercion.

The canonical ordering of monomials everywhere (printing, iteration) is
graded: total degree first, then lexicographic on the exponent tuple.

Inside, coefficients live in a dict keyed by one int per monomial, a
Kronecker packing for the ring of n variables truncated at N: with base
B = N + 1, the exponent tuple e of total degree d packs to

    d * B**n + e[0] * B**(n-1) + ... + e[n-1].

Every exponent is at most N < B, so the packing is one-to-one, and int
order is the canonical graded order.  The key of a product monomial is
the sum of the two keys: a sum of degree at most N carries no digit, and
a sum of degree above N is at least (N+1) * B**n, so truncating a product
is one compare per term pair.  Tuples appear only at the boundary: the
constructor, ``coefficient``, ``terms`` and the read-only ``coeffs`` view.

Products run on integer numerator rows over a denominator kept outside,
in one of two forms chosen from the coefficients.  A row whose
coefficients are all rational holds one int numerator per term; a row
with an i or r3 part anywhere holds (p, q, r, s) quadruples.  Most rows
the pipeline makes are rational, and their products cost one integer
multiply-add per term pair.  ``_accumulate`` sums products on ints when
every operand is rational, and otherwise brings the rational operands to
quadruples for the one quadruple kernel, ``_mul_into``.  It multiplies
two rows that lie in one quadratic subfield Q(w), w one of i, r3 and
i*r3, in a two-part loop of four integer multiplications a term pair (a
rational row lies in every subfield), and any other two rows with the
generic field product.
``Series.__mul__`` brings each operand over the lcm of its coefficients'
denominators and reduces each coefficient of the product once.  A
substitution runs on a ``Table``, which brings the inner series over one
common denominator D and keeps the value of a monomial of degree d as raw
numerators over D**d: a monomial power costs integer multiply-adds only,
with no gcd, lcm or Scalar, and each output coefficient is reduced once.
The normal form of a Scalar is unique, so results do not depend on where
the reduction happens.

A ``Table`` is the only substitution cache, with one recurrence for a
monomial's value.  It serves every outer series of one ring composed
with the inner map it was built for (``compose`` and ``maps.map_compose``
take it, and the verifier shares one per factor) and refuses other inner
series with ValueError.  A table of fixed inner series keeps each value
whole; a growing table, for inner series that a degree loop solves one
homogeneous part at a time (``maps.map_invert``, the normal form's
conjugator), keeps each value by degree, so a new part changes none.

The text format of series and maps lives here too: ``format_series``,
``parse_series``, and the one lexer and reader behind ``maps.parse_map``.
"""

from __future__ import annotations

import re
from collections.abc import Mapping
from functools import cache
from math import lcm
from operator import mul

from .scalars import (
    DIGIT_LIMIT,
    ONE,
    ZERO,
    Scalar,
    ScalarFormatError,
    TextFormatError,
    _make,
    _product,
    format_scalar,
    parse_scalar,
    scalar,
)


class TruncationMismatch(ValueError):
    """Raised when series with different truncation/arity are combined."""


class SeriesFormatError(TextFormatError):
    """Raised for malformed series or map text."""


# ---------------------------------------------------------------------------
# monomial packing


@cache
def _ring(nvars: int, trunc: int):
    """(B**n, (B**(n-1), ..., B, 1), (N+1) * B**n) for B = N + 1: the
    degree unit, the variables' place values and the bound every key of
    degree at most N stays below."""
    B = trunc + 1
    return B**nvars, tuple(B**j for j in reversed(range(nvars))), B ** (nvars + 1)


def _pack(e, base: int) -> int:
    key = sum(e)
    for x in e:
        key = key * base + x
    return key


def _unpack(key: int, nvars: int, base: int) -> tuple:
    e = [0] * nvars
    for j in range(nvars - 1, -1, -1):
        key, e[j] = divmod(key, base)
    return tuple(e)


def _repack(key: int, nvars: int, base: int, new_base: int) -> int:
    low, place = 0, 1
    for _ in range(nvars):
        key, x = divmod(key, base)
        low += x * place
        place *= new_base
    return key * place + low


def _new(nvars: int, trunc: int, terms: dict) -> "Series":
    # internal: trusts clean packed dicts (Scalar values, no zeros, keys
    # of degree at most trunc)
    s = object.__new__(Series)
    s.nvars = nvars
    s.trunc = trunc
    s._terms = terms
    s._view = None
    return s


class Coeffs(Mapping):
    """The read-only exponent-tuple view of a Series, in canonical order.

    The tuple-keyed dict is built on the first lookup or iteration; the
    length is read off the packed dict without building it.
    """

    __slots__ = ("_terms", "_nvars", "_base", "_dict")

    def __init__(self, terms: dict, nvars: int, base: int):
        self._terms = terms
        self._nvars = nvars
        self._base = base
        self._dict = None

    def _built(self) -> dict:
        if self._dict is None:
            n, base, terms = self._nvars, self._base, self._terms
            self._dict = {_unpack(k, n, base): terms[k] for k in sorted(terms)}
        return self._dict

    def __len__(self):
        return len(self._terms)

    def __iter__(self):
        return iter(self._built())

    def __getitem__(self, e):
        return self._built()[e]

    def items(self):
        return self._built().items()


class Series:
    """A power series truncated at total degree `trunc`, in `nvars`
    variables, with Scalar coefficients.  Series are immutable.

    Parameters
    ----------
    nvars : int
        Number of variables.
    trunc : int
        Truncation degree N; monomials of total degree > N are dropped.
    coeffs : dict, optional
        Mapping exponent tuple -> coefficient (anything scalar() takes).
        Exponents are nonnegative ints.
    """

    __slots__ = ("nvars", "trunc", "_terms", "_view")

    def __init__(self, nvars: int, trunc: int, coeffs=None):
        self.nvars = nvars
        self.trunc = trunc
        self._view = None
        terms = {}
        if coeffs:
            base = trunc + 1
            for e, v in coeffs.items():
                e = tuple(e)
                if len(e) != nvars:
                    raise ValueError(f"exponent {e} has wrong arity for n={nvars}")
                if not all(isinstance(x, int) and x >= 0 for x in e):
                    raise ValueError(f"exponent {e} must hold nonnegative ints")
                if sum(e) > trunc:
                    continue
                v = scalar(v)
                if not v.is_zero():
                    terms[_pack(e, base)] = v
        self._terms = terms

    # -- constructors --------------------------------------------------

    @classmethod
    def zero(cls, nvars, trunc):
        return cls(nvars, trunc)

    @classmethod
    def const(cls, nvars, trunc, value):
        return cls(nvars, trunc, {(0,) * nvars: value})

    @classmethod
    def one(cls, nvars, trunc):
        return _new(nvars, trunc, {0: ONE})

    @classmethod
    def variable(cls, nvars, trunc, j):
        """The coordinate series t_j (0-based j)."""
        unit, place, _ = _ring(nvars, trunc)
        return _new(nvars, trunc, {unit + place[j]: ONE})

    @classmethod
    def _linear(cls, nvars, trunc, row) -> "Series":
        """The linear form row[0] t_1 + ... + row[n-1] t_n, row a
        sequence of Scalars, written at the degree-one keys."""
        unit, place, _ = _ring(nvars, trunc)
        return _new(nvars, trunc, {unit + p: c for p, c in zip(place, row) if not c.is_zero()})

    def _raw(self, terms: dict) -> "Series":
        return _new(self.nvars, self.trunc, terms)

    # -- inspection ----------------------------------------------------

    @property
    def coeffs(self) -> "Coeffs":
        """Read-only mapping exponent tuple -> coefficient, in canonical
        order."""
        view = self._view
        if view is None:
            view = self._view = Coeffs(self._terms, self.nvars, self.trunc + 1)
        return view

    def __bool__(self):
        return bool(self._terms)

    def is_zero(self) -> bool:
        return not self._terms

    def constant_term(self) -> Scalar:
        return self._terms.get(0, ZERO)

    def coefficient(self, e) -> Scalar:
        e = tuple(e)
        if len(e) != self.nvars or sum(e) > self.trunc or min(e) < 0:
            return ZERO
        return self._terms.get(_pack(e, self.trunc + 1), ZERO)

    def _degree_one(self) -> tuple:
        """The coefficients of t_1, ..., t_n, read at the degree-one keys."""
        unit, place, _ = _ring(self.nvars, self.trunc)
        get = self._terms.get
        return tuple(get(unit + p, ZERO) for p in place)

    def _is_variable(self, j: int) -> bool:
        """Whether the series is exactly the coordinate t_j (0-based j)."""
        terms = self._terms
        if len(terms) != 1:
            return False
        unit, place, _ = _ring(self.nvars, self.trunc)
        c = terms.get(unit + place[j])
        return c is not None and c.is_one()

    def homogeneous_component(self, d: int) -> "Series":
        unit = _ring(self.nvars, self.trunc)[0]
        lo, hi = d * unit, (d + 1) * unit
        return self._raw({k: v for k, v in self._terms.items() if lo <= k < hi})

    def truncate(self, new_trunc: int) -> "Series":
        """The series truncated at a (usually lower) degree, its keys
        repacked for the new base."""
        if new_trunc == self.trunc:
            return self
        n, base = self.nvars, self.trunc + 1
        limit = (new_trunc + 1) * _ring(n, self.trunc)[0]
        return _new(
            n,
            new_trunc,
            {
                _repack(k, n, base, new_trunc + 1): v
                for k, v in self._terms.items()
                if k < limit
            },
        )

    def terms(self):
        """Items (exponent tuple, coefficient) in canonical (degree, lex)
        order."""
        return list(self.coeffs.items())

    # -- ring operations -----------------------------------------------

    def _check(self, other: "Series"):
        if self.nvars != other.nvars or self.trunc != other.trunc:
            raise TruncationMismatch(
                f"cannot combine series with (n={self.nvars}, N={self.trunc}) "
                f"and (n={other.nvars}, N={other.trunc})"
            )

    def __eq__(self, other):
        if not isinstance(other, Series):
            return NotImplemented
        return (
            self.nvars == other.nvars
            and self.trunc == other.trunc
            and self._terms == other._terms
        )

    def __hash__(self):
        return hash((self.nvars, self.trunc, frozenset(self._terms.items())))

    def __add__(self, other):
        if not isinstance(other, Series):
            other = Series.const(self.nvars, self.trunc, other)
        self._check(other)
        out = dict(self._terms)
        for k, v in other._terms.items():
            w = out.get(k)
            if w is None:
                out[k] = v
            else:
                w = w + v
                if w.is_zero():
                    del out[k]
                else:
                    out[k] = w
        return self._raw(out)

    __radd__ = __add__

    def __neg__(self):
        return self._raw({k: -v for k, v in self._terms.items()})

    def __sub__(self, other):
        if not isinstance(other, Series):
            other = Series.const(self.nvars, self.trunc, other)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def scale(self, k) -> "Series":
        k = scalar(k)
        if k.is_zero():
            return self._raw({})
        return self._raw({e: v * k for e, v in self._terms.items()})

    def __mul__(self, other):
        if not isinstance(other, Series):
            return self.scale(other)
        self._check(other)
        a, b = self._terms, other._terms
        if not a or not b:
            return self._raw({})
        da, db = _den(a), _den(b)
        pair = (_numerators(a, da), _numerators(b, db))
        return self._raw(_accumulate([pair], _ring(self.nvars, self.trunc)[2], da * db))

    __rmul__ = __mul__

    def invert_unit(self) -> "Series":
        """Reciprocal of a unit (nonzero constant term), by Newton steps."""
        c = self.constant_term()
        if c.is_zero():
            raise ZeroDivisionError("series has zero constant term")
        g = Series.const(self.nvars, self.trunc, c.inverse())
        correct = 1
        while correct <= self.trunc:
            g = g * (2 - self * g)
            correct *= 2
        return g

    def shift_down(self, j: int) -> "Series":
        """Divide by the coordinate t_j exactly; raises if not divisible."""
        unit, place, _ = _ring(self.nvars, self.trunc)
        step = unit + place[j]
        base = self.trunc + 1
        out = {}
        for k, v in self._terms.items():
            if k // place[j] % base == 0:
                raise ValueError(f"series is not divisible by variable {j}")
            out[k - step] = v
        # dividing lowers degree, so the result is still within trunc
        return self._raw(out)

    def shift_up(self, j: int) -> "Series":
        """Multiply by the coordinate t_j (pruning at trunc)."""
        unit, place, limit = _ring(self.nvars, self.trunc)
        step = unit + place[j]
        return self._raw(
            {k + step: v for k, v in self._terms.items() if k + step < limit}
        )

    def __repr__(self):
        return f"<{format_series(self)}>"


# ---------------------------------------------------------------------------
# raw numerator arithmetic: a series over one denominator is a list of
# (key, numerators) rows; products accumulate on rows and each output
# coefficient is normalized once, into one Scalar.  The numerators of a
# row whose coefficients are all rational are plain ints; a row with an i
# or r3 part anywhere holds (p, q, r, s) quadruples in every entry.


def _den(terms: dict) -> int:
    """The lcm of the denominators of a packed dict's coefficients."""
    return lcm(*[v._v[4] for v in terms.values()])


def _numerators(terms: dict, den: int) -> list:
    """The coefficients of a packed dict as numerator rows over den, a
    multiple of every coefficient's denominator, sorted by key: ints if
    every coefficient is rational, else quadruples."""
    keys = sorted(terms)
    rows = []
    for key in keys:
        p, q, r, s, m = terms[key]._v
        if q or r or s:
            break
        rows.append((key, p * (den // m)))
    else:
        return rows
    rows = []
    for key in keys:
        p, q, r, s, m = terms[key]._v
        u = den // m
        rows.append((key, (p * u, q * u, r * u, s * u)))
    return rows


def _quads(rows) -> list:
    """Integer rows as quadruple rows."""
    return [(key, (x, 0, 0, 0)) for key, x in rows]


def _scaled(rows, r: int) -> list:
    """rows with every numerator multiplied by r."""
    if type(rows[0][1]) is int:
        return [(key, x * r) for key, x in rows]
    return [(key, (p * r, q * r, x * r, s * r)) for key, (p, q, x, s) in rows]


def _accumulate(pairs, limit: int, den: int = 0, acc=None):
    """The sum of a * b over the (a, b) in pairs, a and b nonempty
    numerator rows, plus the integer sums in acc (key -> int, taken over)
    when given: its nonzero coefficients over den as Scalars, or with den
    0 its nonzero rows, ints if every operand's are, else quadruples.

    A product key not below limit is dropped, and each row of a stops at
    the first key of b not below limit, so b is sorted by key unless no
    pair reaches the limit."""
    if acc is None:
        acc = {}
    for a, b in pairs:
        if type(a[0][1]) is not int or type(b[0][1]) is not int:
            break
    else:  # every operand is rational
        get = acc.get
        for a, b in pairs:
            for ka, x in a:
                for kb, y in b:
                    key = ka + kb
                    if key >= limit:
                        break
                    acc[key] = get(key, 0) + x * y
        if den:
            return {key: _make(t, 0, 0, 0, den) for key, t in acc.items() if t}
        return [(key, t) for key, t in acc.items() if t]
    acc = {key: [t, 0, 0, 0] for key, t in acc.items()}
    for a, b in pairs:
        if type(a[0][1]) is int:
            a = _quads(a)
        if type(b[0][1]) is int:
            b = _quads(b)
        _mul_into(acc, a, b, limit)
    if den:
        return {key: _make(*t, den) for key, t in acc.items() if t[0] or t[1] or t[2] or t[3]}
    return [(key, t) for key, t in acc.items() if t[0] or t[1] or t[2] or t[3]]


# the subfield {1, w} that a union of supports lies in, as (index of w in a
# quadruple, w**2); a rational union takes the Q(i) loop, whose w part is 0
_SUBFIELD = {0: (1, -1), 1: (1, -1), 2: (2, 3), 4: (3, -3)}


def _support(rows) -> int:
    """The units among i, r3 and i*r3 present anywhere in quadruple rows,
    as the bits 1, 2 and 4."""
    m = 0
    for _, x in rows:
        if x[1]:
            m |= 1
        if x[2]:
            m |= 2
        if x[3]:
            m |= 4
    return m


def _mul_into(acc: dict, a, b, limit: int) -> None:
    """acc[ka + kb] += x * y for every (ka, x) in a and (kb, y) in b with
    ka + kb below limit, x and y numerator quadruples, and acc mapping
    keys to lists [p, q, r, s] of integer sums.

    When every entry of a and b lies in one subfield Q(w), w one of i, r3
    and i*r3, a product (p + u*w)(e + v*w) is (pe + w**2 uv) + (pv + ue)w,
    four multiplications; any other pair of rows takes the generic
    product of the field."""
    get = acc.get
    sub = _SUBFIELD.get(_support(a) | _support(b))
    if sub is not None:
        j, d = sub
        for ka, x in a:
            p, u = x[0], x[j]
            du = d * u
            for kb, y in b:
                key = ka + kb
                if key >= limit:
                    break
                e, v = y[0], y[j]
                t = get(key)
                if t is None:
                    t = acc[key] = [p * e + du * v, 0, 0, 0]
                    t[j] = p * v + u * e
                else:
                    t[0] += p * e + du * v
                    t[j] += p * v + u * e
        return
    for ka, (p, q, r, s) in a:
        for kb, (e, f, g, h) in b:
            key = ka + kb
            if key >= limit:
                break
            P, Q, R, S = _product(p, q, r, s, e, f, g, h)
            t = get(key)
            if t is None:
                acc[key] = [P, Q, R, S]
            else:
                t[0] += P
                t[1] += Q
                t[2] += R
                t[3] += S


# ---------------------------------------------------------------------------
# composition


def compose(f: Series, args, table=None) -> Series:
    """Substitute args[j] for variable j of f, truncating throughout.

    Parameters
    ----------
    f : Series in k variables.
    args : sequence of k Series, all in the same ring (n variables, same
        truncation degree), which need not be constant-free: substitution
        into a truncated series is a finite exact sum.
    table : Table, optional
        The substitution table of args.  Pass one table to several
        compositions with these args and outer series of one ring to
        share the monomial values, as map composition does per component.
        A table built for other series raises ValueError, and so does a
        growing table that does not know every degree through N.

    Returns
    -------
    Series in n variables: c_e times every chunk of g^e, summed over the
    monomials e of f in one accumulator and reduced once.
    """
    k = f.nvars
    if len(args) != k:
        raise TruncationMismatch(f"need {k} substitution series, got {len(args)}")
    args = tuple(args)
    if table is None:
        table = Table(args)
    elif table.degree < table.trunc:
        raise ValueError(f"table knows degree {table.degree}, too low for all of f")
    elif table._inner() != args:
        raise ValueError("table was built for other substitution series")
    n, N = table.nvars, table.trunc
    if f.trunc != N:
        raise TruncationMismatch(
            f"outer series has N={f.trunc}, substitutions have N={N}"
        )
    items = f._terms.items()
    # min-degrees let us skip monomials whose value must vanish mod N
    mins = table._low
    if max(mins) > 1:
        items = [
            (e, c) for e, c in items if sum(map(mul, _unpack(e, k, N + 1), mins)) <= N
        ]
    if not items:
        return _new(n, N, {})
    return table._sum(items, None if table._step else (0,))


# the value of the constant monomial: 1 at key 0, over D**0
_ONE = [(0, 1)]


class Table:
    """The substitution table of one inner map g = (g_1, ..., g_k).

    It keeps each g_j as numerator rows over one running denominator D,
    and the value g^e of each monomial of the outer ring as numerators
    over D**|e|, both by chunk of degrees.  g^e is g^(e - u_j) times g_j,
    peeled off the first variable present, so chunk s of g^e sums chunk
    s - m of the parent's value times chunk m of g_j (``_chunk``).

    ``Table(args)`` holds fixed inner series, which may have constant
    terms or no linear part.  It knows every degree through N, and each
    series and each value is one chunk, so a monomial costs one product
    of its parent's value by g_j's rows.

    ``Table(linear, growing=True)`` holds inner series that a degree loop
    solves one homogeneous part at a time (``maps.map_invert``, the
    normal form's conjugator).  It knows their degree-1 parts, ``extend``
    adds the next degree, and ``part(f, d)`` gives the degree-d part of
    f o g.  Chunk s is degree s, so a new part changes no stored chunk.
    When a part's denominators do not divide D, D becomes D * r, and
    every stored row is scaled by r and every chunk of g^e by r**|e|.

    Every row and every memoized chunk keeps its own form: ints while its
    coefficients are rational, quadruples once an i or r3 part is in it.
    A chunk is rational when every chunk and row it is summed from is, so
    a growing table whose first irrational part arrives at a later
    ``extend`` keeps its rational chunks and builds quadruple chunks from
    then on.
    """

    __slots__ = (
        "nvars", "trunc", "degree", "_step", "_args", "_den", "_rows", "_values",
        "_unit", "_place", "_limit", "_width", "_low",
    )

    def __init__(self, args, growing: bool = False):
        args = tuple(args)
        n, N, k = args[0].nvars, args[0].trunc, len(args)
        self.nvars, self.trunc = n, N
        # the outer ring's degree unit and place values; the inner ring's
        # key bound
        self._unit, self._place, _ = _ring(k, N)
        self._limit, self._width = _ring(n, N)[2], N + 1
        # the lowest chunk of a degree-p value is _step * p
        self._step = int(growing)
        # _rows[j][m]: chunk m of g_j as numerator rows over D, sorted
        self._rows = [{} for _ in args]
        # _low[j]: the lowest degree of g_j, 0 while g_j is zero
        self._low = [0] * k
        # _values[e * (N + 1) + s]: chunk s of g^e as {key: numerators}
        # over D**deg(e), for deg(e) >= 2
        self._values = {}
        # _args: one tuple of inner parts per chunk added; _inner sums them
        self.degree, self._den, self._args = 0, 1, []
        if growing:
            self.extend(args, 1)
        else:
            self._add(args, 0)
            self.degree = N

    def extend(self, parts, d: int) -> None:
        """Add the inner series' degree-d parts to a growing table, d one
        above the degree known so far."""
        if d != self.degree + 1 or d > self.trunc:
            raise ValueError(f"table knows degree {self.degree}; cannot add degree {d}")
        parts = tuple(parts)
        if len(parts) != len(self._rows):
            raise TruncationMismatch(f"need {len(self._rows)} parts, got {len(parts)}")
        self._add(parts, d)
        self.degree = d

    def _add(self, parts, m: int) -> None:
        """Store chunk m of the inner series, over a D that the parts'
        denominators divide."""
        unit = _ring(self.nvars, self.trunc)[0]
        for g in parts:
            if (g.nvars, g.trunc) != (self.nvars, self.trunc):
                raise TruncationMismatch("substitution series lie in different rings")
            if self._step and not all(m * unit <= key < (m + 1) * unit for key in g._terms):
                raise ValueError(f"part is not homogeneous of degree {m}")
        D = lcm(self._den, *[_den(g._terms) for g in parts])
        if D != self._den:
            self._rescale(D // self._den)
            self._den = D
        for j, g in enumerate(parts):
            if g._terms:
                row = self._rows[j][m] = _numerators(g._terms, D)
                self._low[j] = self._low[j] or row[0][0] // unit
        self._args.append(parts)

    def _rescale(self, r: int) -> None:
        for rows in self._rows:
            for m, row in rows.items():
                rows[m] = _scaled(row, r)
        for e, chunk in self._values.items():
            if chunk:
                self._values[e] = _scaled(chunk, r ** (e // self._width // self._unit))

    def _inner(self) -> tuple:
        """The inner series as far as the table knows them."""
        if len(self._args) > 1:
            self._args = [tuple(sum(cs[1:], cs[0]) for cs in zip(*self._args))]
        return self._args[0]

    def part(self, f: Series, d: int) -> Series:
        """The degree-d part of f o inner on a growing table, a Series in
        the inner ring.

        A monomial of f of degree p reads the inner parts up to degree
        d - p + 1; one the table does not know yet raises ValueError."""
        k, N = len(self._rows), self.trunc
        if (f.nvars, f.trunc) != (k, N):
            raise TruncationMismatch(
                f"outer series has (n={f.nvars}, N={f.trunc}), table needs (n={k}, N={N})"
            )
        if not self._step:
            raise ValueError("a table of fixed inner series has no degree parts")
        unit = self._unit
        items = [(e, c) for e, c in f._terms.items() if e and e // unit <= d]
        if not items:
            return _new(self.nvars, N, {})
        if d - min(e for e, _ in items) // unit >= self.degree:
            raise ValueError(f"table knows degree {self.degree}, too low for degree {d}")
        return self._sum(items, (d,))

    def _sum(self, items, chunks) -> Series:
        """The sum of c times the given chunks of g^e over the (e, c) in
        items, reduced once; chunks None is every chunk of a growing
        table.  A rational c times an integer chunk is added term by term
        into the integer sums; every other pair goes to ``_accumulate``
        with c as a one-term row at key 0."""
        D, unit, N, limit = self._den, self._unit, self.trunc, self._limit
        top = max(e for e, _ in items) // unit
        L = lcm(*[c._v[4] for _, c in items])
        acc, pairs = {}, []
        get = acc.get
        for e, c in items:
            p, q, r, s, m = c._v
            u = L // m * D ** (top - e // unit)
            x = None if q or r or s else p * u
            head = [(0, (p * u, q * u, r * u, s * u) if x is None else x)]
            for chunk in chunks or range(e // unit, N + 1):
                value = self._chunk(e, chunk)
                if not value:
                    continue
                if x is not None and type(value[0][1]) is int:
                    # the head's key is 0, so no key reaches the limit
                    for kb, y in value:
                        acc[kb] = get(kb, 0) + x * y
                else:
                    pairs.append((head, value))
        return _new(self.nvars, self.trunc, _accumulate(pairs, limit, L * D**top, acc))

    def _chunk(self, e: int, s: int):
        """Chunk s of g^e, e a packed monomial of the outer ring, as
        (key, numerators) pairs over D**deg(e), memoized."""
        key = e * self._width + s
        got = self._values.get(key)
        if got is not None:
            return got
        if e == 0:
            return _ONE if s == 0 else ()
        unit, place = self._unit, self._place
        # peel one factor off the first variable present: the first
        # place value the exponent digits below the degree reach
        low, j = e % unit, 0
        while low < place[j]:
            j += 1
        rows, parent = self._rows[j], e - unit - place[j]
        if not parent:
            return rows.get(s, ())
        pairs = []
        step = self._step
        for m in range(step, s - step * (e // unit - 1) + 1):
            row = rows.get(m)
            head = self._chunk(parent, s - m) if row else None
            if head:
                pairs.append((head, row))
        got = self._values[key] = _accumulate(pairs, self._limit)
        return got


# ---------------------------------------------------------------------------
# text format

def format_series(s: Series, header: bool = True) -> str:
    """Canonical text: ``series n=2 N=6 { [1,1]: 1 ; [2,2]: -1/2 }``."""
    body = " ; ".join(
        "[" + ",".join(str(x) for x in e) + "]: " + format_scalar(v)
        for e, v in s.terms()
    )
    inner = "{ " + body + " }" if body else "{ }"
    if not header:
        return inner
    return f"series n={s.nvars} N={s.trunc} {inner}"


# One lexer and one reader serve both formats:
#
#     series n=<k> N=<d> { [e1,...,ek]: <scalar> ; ... }
#     map n=<k> N=<d> { comp1: { ... } ; ... ; compk: { ... } }
#
# A token is one match of _TOKEN at the reader's position; its kind is the
# name of the alternative that matched, and every error carries the offset
# of the token it is about.
_NUM = rf"[0-9]{{1,{DIGIT_LIMIT}}}"
_TOKEN = re.compile(
    rf"\s*(?:(?P<term>\[(?P<exps>\s*{_NUM}(?:\s*,\s*{_NUM})*\s*)\]\s*:\s*"
    r"(?P<value>[^\]\[{};:]*))"
    r"|(?P<open>\{)|(?P<close>\})|(?P<semi>;)"
    rf"|(?P<comp>comp(?P<index>{_NUM})\s*:)"
    rf"|(?P<header>(?P<kind>[a-z]+)\s+n=(?P<n>{_NUM})\s+N=(?P<N>{_NUM}))"
    r"|(?P<end>\Z))"
)


class _Reader:
    """Reads series and map text token by token, left to right."""

    __slots__ = ("text", "pos")

    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def _next(self):
        m = _TOKEN.match(self.text, self.pos)
        if m is None:
            text = self.text
            at = len(text) - len(text[self.pos:].lstrip())
            raise SeriesFormatError(f"cannot read {text[at:at + 16]!r}", at)
        self.pos = m.end()
        return m.lastgroup, m

    def _unexpected(self, what: str, kind: str, m) -> SeriesFormatError:
        at = m.start(kind)
        found = "the end of the text" if kind == "end" else repr(self.text[at:at + 16])
        return SeriesFormatError(f"expected {what}, found {found}", at)

    def _expect(self, kind: str, what: str):
        got, m = self._next()
        if got != kind:
            raise self._unexpected(what, got, m)
        return m

    def _more(self) -> bool:
        """Read the ';' before another item (True) or the closing '}'."""
        kind, m = self._next()
        if kind == "close":
            return False
        if kind != "semi":
            raise self._unexpected("';' or '}'", kind, m)
        return True

    def header(self, kind: str):
        """Read '<kind> n=<k> N=<d>' and return (k, d)."""
        m = self._expect("header", f"'{kind} n=<k> N=<d>'")
        at = m.start("header")
        if m.group("kind") != kind:
            raise SeriesFormatError(f"expected {kind} text, found {m.group('kind')!r}", at)
        n, N = int(m.group("n")), int(m.group("N"))
        if n < 1 or N < 1:
            raise SeriesFormatError(f"{kind} needs n >= 1 and N >= 1", at)
        return n, N

    def end(self) -> None:
        self._expect("end", "the end of the text")

    def series(self, nvars: int, trunc: int) -> Series:
        """Read '{ }' or '{' term (';' term)* '}'."""
        self._expect("open", "'{'")
        base = trunc + 1
        seen = set()
        terms = {}
        kind, m = self._next()
        if kind == "close":
            return _new(nvars, trunc, terms)
        while True:
            if kind != "term":
                raise self._unexpected("a term '[exponents]: coefficient'", kind, m)
            at = m.start("term")
            e = tuple(map(int, m.group("exps").split(",")))
            if len(e) != nvars:
                raise SeriesFormatError(
                    f"monomial has {len(e)} exponents, expected {nvars}", at
                )
            if e in seen:
                raise SeriesFormatError(f"duplicate monomial {list(e)}", at)
            seen.add(e)
            try:
                v = parse_scalar(m.group("value"))
            except ScalarFormatError as exc:
                exc.offset += m.start("value")
                raise
            if sum(e) <= trunc and not v.is_zero():
                terms[_pack(e, base)] = v
            if not self._more():
                return _new(nvars, trunc, terms)
            kind, m = self._next()

    def components(self, nvars: int, trunc: int) -> dict:
        """Read '{' compK: series (';' compK: series)* '}' into a dict
        K -> Series; each K is in 1..nvars and appears once, and no
        component has a constant term."""
        self._expect("open", "'{'")
        comps = {}
        while True:
            m = self._expect("comp", "a component label 'compK:'")
            at = m.start("comp")
            k = int(m.group("index"))
            if not 1 <= k <= nvars:
                raise SeriesFormatError(f"component index {k} out of range", at)
            if k in comps:
                raise SeriesFormatError(f"duplicate component comp{k}", at)
            s = comps[k] = self.series(nvars, trunc)
            if 0 in s._terms:
                raise SeriesFormatError(f"comp{k} has a constant term; maps fix the origin", at)
            if not self._more():
                return comps


def parse_series(text: str) -> Series:
    """Parse ``series n=<k> N=<d> { ... }``."""
    reader = _Reader(text)
    nvars, trunc = reader.header("series")
    s = reader.series(nvars, trunc)
    reader.end()
    return s
