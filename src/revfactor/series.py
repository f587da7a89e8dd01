"""Truncated multivariate power series over Q(i, r3).

A Series is a sparse polynomial representative of a power series mod
total degree > trunc: coefficients live in a dict keyed by exponent
tuples, zeros never stored.  All ring operations prune to the common
truncation degree; combining series with different truncation degrees or
variable counts is an error, never a silent coercion.

The canonical ordering of monomials everywhere (printing, iteration) is
graded: total degree first, then lexicographic on the exponent tuple.
"""

from __future__ import annotations

from math import lcm
from operator import add

from .scalars import ZERO, Scalar, _make, _product, format_scalar, parse_scalar, scalar


class TruncationMismatch(ValueError):
    """Raised when series with different truncation/arity are combined."""


class SeriesFormatError(ValueError):
    """Raised for malformed series text."""


def _key_order(item):
    e = item[0]
    return (sum(e), e)


class Series:
    """A power series truncated at total degree `trunc`, in `nvars`
    variables, with Scalar coefficients.

    Parameters
    ----------
    nvars : int
        Number of variables.
    trunc : int
        Truncation degree N; monomials of total degree > N are dropped.
    coeffs : dict, optional
        Mapping exponent tuple -> coefficient (anything scalar() takes).
    """

    __slots__ = ("nvars", "trunc", "coeffs")

    def __init__(self, nvars: int, trunc: int, coeffs=None):
        self.nvars = nvars
        self.trunc = trunc
        clean = {}
        if coeffs:
            for e, v in coeffs.items():
                if len(e) != nvars:
                    raise ValueError(f"exponent {e} has wrong arity for n={nvars}")
                if sum(e) > trunc:
                    continue
                v = scalar(v)
                if not v.is_zero():
                    clean[tuple(e)] = v
        self.coeffs = clean

    # -- constructors --------------------------------------------------

    @classmethod
    def zero(cls, nvars, trunc):
        return cls(nvars, trunc)

    @classmethod
    def const(cls, nvars, trunc, value):
        return cls(nvars, trunc, {(0,) * nvars: value})

    @classmethod
    def one(cls, nvars, trunc):
        return cls.const(nvars, trunc, 1)

    @classmethod
    def variable(cls, nvars, trunc, j):
        """The coordinate series t_j (0-based j)."""
        e = [0] * nvars
        e[j] = 1
        return cls(nvars, trunc, {tuple(e): 1})

    def _raw(self, coeffs: dict) -> "Series":
        # internal: trusts clean coefficient dicts (Scalar values, no zeros,
        # degrees within trunc)
        s = object.__new__(Series)
        s.nvars = self.nvars
        s.trunc = self.trunc
        s.coeffs = coeffs
        return s

    def copy(self) -> "Series":
        return self._raw(dict(self.coeffs))

    # -- inspection ----------------------------------------------------

    def __bool__(self):
        return bool(self.coeffs)

    def is_zero(self) -> bool:
        return not self.coeffs

    def constant_term(self) -> Scalar:
        return self.coeffs.get((0,) * self.nvars, ZERO)

    def coefficient(self, e) -> Scalar:
        return self.coeffs.get(tuple(e), ZERO)

    def min_degree(self):
        """Smallest total degree with a nonzero coefficient (None if 0)."""
        if not self.coeffs:
            return None
        return min(sum(e) for e in self.coeffs)

    def homogeneous_component(self, d: int) -> "Series":
        return self._raw({e: v for e, v in self.coeffs.items() if sum(e) == d})

    def truncate(self, new_trunc: int) -> "Series":
        """A copy truncated at a (usually lower) degree."""
        s = Series(self.nvars, new_trunc)
        s.coeffs = {e: v for e, v in self.coeffs.items() if sum(e) <= new_trunc}
        return s

    def terms(self):
        """Items in canonical (degree, lex) order."""
        return sorted(self.coeffs.items(), key=_key_order)

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
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        return hash((self.nvars, self.trunc, frozenset(self.coeffs.items())))

    def __add__(self, other):
        if not isinstance(other, Series):
            other = Series.const(self.nvars, self.trunc, other)
        self._check(other)
        out = dict(self.coeffs)
        for e, v in other.coeffs.items():
            w = out.get(e)
            if w is None:
                out[e] = v
            else:
                w = w + v
                if w.is_zero():
                    del out[e]
                else:
                    out[e] = w
        return self._raw(out)

    __radd__ = __add__

    def __neg__(self):
        return self._raw({e: -v for e, v in self.coeffs.items()})

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
        return self._raw({e: v * k for e, v in self.coeffs.items()})

    def __mul__(self, other):
        if not isinstance(other, Series):
            return self.scale(other)
        self._check(other)
        if not self.coeffs or not other.coeffs:
            return self._raw({})
        N = self.trunc
        a, b = self.coeffs, other.coeffs
        if len(a) > len(b):
            a, b = b, a
        # the longer operand with its degrees, for pruning at N
        b_deg = [(eb, sum(eb), y) for eb, y in b.items()]
        acc: dict = {}
        for ea, x in a.items():
            room = N - sum(ea)
            terms = [(tuple(map(add, ea, eb)), y) for eb, deg, y in b_deg if deg <= room]
            if terms:
                _accumulate(acc, x._v, terms)
        return self._raw(_normalized(acc))

    __rmul__ = __mul__

    def __pow__(self, k: int):
        if not isinstance(k, int) or k < 0:
            raise ValueError("series powers need a nonnegative int")
        out = Series.one(self.nvars, self.trunc)
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

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

    def __truediv__(self, other):
        if isinstance(other, Series):
            return self * other.invert_unit()
        return self.scale(scalar(other).inverse())

    def shift_down(self, j: int) -> "Series":
        """Divide by the coordinate t_j exactly; raises if not divisible."""
        out = {}
        for e, v in self.coeffs.items():
            if e[j] == 0:
                raise ValueError(f"series is not divisible by variable {j}")
            key = e[:j] + (e[j] - 1,) + e[j + 1:]
            out[key] = v
        # dividing lowers degree, so the result is still within trunc
        return self._raw(out)

    def shift_up(self, j: int) -> "Series":
        """Multiply by the coordinate t_j (pruning at trunc)."""
        out = {}
        for e, v in self.coeffs.items():
            if sum(e) + 1 > self.trunc:
                continue
            key = e[:j] + (e[j] + 1,) + e[j + 1:]
            out[key] = v
        return self._raw(out)

    def __repr__(self):
        return f"<{format_series(self)}>"


# ---------------------------------------------------------------------------
# raw numerator arithmetic: a sum of products accumulates on the integer
# numerators of its terms and is normalized once, into one Scalar


def _accumulate(acc: dict, x, terms) -> None:
    """acc[key] += x * y for every (key, y) in terms.

    x is the normal-form tuple (p, q, r, s, den) of a Scalar and each y a
    Scalar; acc maps keys to lists [p, q, r, s, den] of integer sums over
    a common denominator, the lcm of the terms' denominators.
    """
    for key, y in terms:
        P, Q, R, S, n = _product(x, y._v)
        t = acc.get(key)
        if t is None:
            acc[key] = [P, Q, R, S, n]
        elif t[4] == n:
            t[0] += P
            t[1] += Q
            t[2] += R
            t[3] += S
        else:
            # bring the sum and the term over the lcm of their denominators
            l = lcm(t[4], n)
            u, w = l // t[4], l // n
            t[:] = [t[0] * u + P * w, t[1] * u + Q * w, t[2] * u + R * w, t[3] * u + S * w, l]


def _normalized(acc: dict) -> dict:
    """The nonzero sums of acc as Scalars."""
    return {key: _make(*t) for key, t in acc.items() if t[0] or t[1] or t[2] or t[3]}


# ---------------------------------------------------------------------------
# composition


def compose(f: Series, args, memo=None) -> Series:
    """Substitute args[j] for variable j of f, truncating throughout.

    Parameters
    ----------
    f : Series in k variables.
    args : sequence of k Series, all in the same ring (n variables, same
        truncation degree), which need not be constant-free: substitution
        into a truncated series is a finite exact sum.
    memo : dict, optional
        Cache of monomial values keyed by exponent tuple; pass the same
        dict across several compositions with identical args to share the
        work (map composition does this per component).

    Returns
    -------
    Series in n variables.
    """
    k = f.nvars
    if len(args) != k:
        raise TruncationMismatch(f"need {k} substitution series, got {len(args)}")
    proto = args[0]
    for g in args[1:]:
        proto._check(g)
    N = proto.trunc
    if f.trunc != N:
        raise TruncationMismatch(
            f"outer series has N={f.trunc}, substitutions have N={N}"
        )
    if memo is None:
        memo = {}
    # min-degrees let us skip monomials whose value must vanish mod N
    mins = [g.min_degree() for g in args]
    mins = [0 if m is None else m for m in mins]

    def value(e):
        got = memo.get(e)
        if got is not None:
            return got
        if sum(e) == 0:
            out = Series.one(proto.nvars, N)
        else:
            j = next(i for i, x in enumerate(e) if x)
            parent = e[:j] + (e[j] - 1,) + e[j + 1:]
            out = value(parent) * args[j]
        memo[e] = out
        return out

    acc: dict = {}
    for e, coeff in f.coeffs.items():
        if sum(x * m for x, m in zip(e, mins)) <= N:
            _accumulate(acc, coeff._v, value(e).coeffs.items())
    out = Series(proto.nvars, N)
    out.coeffs = _normalized(acc)
    return out


def cw_product(us, vs):
    """Coordinatewise product of two equal-length series tuples."""
    if len(us) != len(vs):
        raise ValueError("coordinatewise product needs equal lengths")
    return tuple(u * v for u, v in zip(us, vs))


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


def _parse_braced_terms(body: str, nvars: int, trunc: int) -> Series:
    body = body.strip()
    if not (body.startswith("{") and body.endswith("}")):
        raise SeriesFormatError(f"expected braced term list, got {body[:40]!r}")
    inner = body[1:-1].strip()
    coeffs = {}
    if inner:
        for chunk in inner.split(";"):
            chunk = chunk.strip()
            if not chunk:
                continue
            if ":" not in chunk:
                raise SeriesFormatError(f"missing ':' in term {chunk!r}")
            mono, _, val = chunk.partition(":")
            mono = mono.strip()
            if not (mono.startswith("[") and mono.endswith("]")):
                raise SeriesFormatError(f"bad monomial {mono!r}")
            try:
                e = tuple(int(x) for x in mono[1:-1].split(","))
            except ValueError as exc:
                raise SeriesFormatError(f"bad monomial {mono!r}") from exc
            if len(e) != nvars:
                raise SeriesFormatError(
                    f"monomial {mono} has {len(e)} exponents, expected {nvars}"
                )
            if any(x < 0 for x in e):
                raise SeriesFormatError(f"negative exponent in {mono}")
            if e in coeffs:
                raise SeriesFormatError(f"duplicate monomial {mono}")
            coeffs[e] = parse_scalar(val.strip())
    return Series(nvars, trunc, coeffs)


def parse_series(text: str) -> Series:
    """Parse ``series n=<k> N=<d> { ... }``."""
    s = text.strip()
    if not s.startswith("series"):
        raise SeriesFormatError("series text must start with 'series'")
    rest = s[len("series"):].strip()
    try:
        ntok, rest = rest.split(None, 1)
        dtok, rest = rest.split(None, 1)
        if not ntok.startswith("n=") or not dtok.startswith("N="):
            raise ValueError
        nvars = int(ntok[2:])
        trunc = int(dtok[2:])
    except ValueError as exc:
        raise SeriesFormatError(
            "series header must look like 'series n=2 N=6'"
        ) from exc
    if nvars < 1 or trunc < 1:
        raise SeriesFormatError("series needs n >= 1 and N >= 1")
    return _parse_braced_terms(rest, nvars, trunc)
