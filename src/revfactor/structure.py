"""Structural subgroups of the truncated map group under a paired-diagonal
symmetry, and the exact sequence connecting them.

Coordinates are grouped into m = floor(n/2) consecutive pairs, plus a
leftover last coordinate when n is odd; k = ceil(n/2).  The cast:

* ``pair_products``/``pair_projection`` — the monomial maps p (the m
  pairwise products) and the projection onto k variables.
* ``PairedDiagonal`` — diagonal linear maps diag(mu_1, 1/mu_1, ...,[1])
  with an exact genericity test (no multiplicative relation among the
  multipliers).
* ``swap_perm``/``pair_swap`` — the permutation and the linear
  involution swapping each pair, which reverses every paired diagonal.
* centralizer elements — maps commuting with every generic paired
  diagonal: component j is z_j times a unit series in the pair products
  (and z_n), with an "admissible" last component when n is odd.
* the visibility rule: a base monomial survives the lifts to the ambient
  when its weighted degree fits the budget; the projection, the split
  and the factor pipeline's recursion all prune by it.
* ``project_base`` / ``lift_section`` / ``kernel_embed`` /
  ``split_centralizer`` — the surjection onto the coordinate-units group
  in k variables, its homomorphic section, the kernel parametrization,
  and the unique splitting into a section image and a kernel map, read
  off F's units.  A map outside the centralizer raises ``ShapeError``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import count, islice, takewhile
from math import gcd
from operator import mul

from .scalars import ONE, Scalar, root_of_unity_order, scalar
from .series import Series, Table, TruncationMismatch, compose
from .maps import FormalMap, Matrix


# ---------------------------------------------------------------------------
# pairing combinatorics


def half_counts(n: int):
    """(m, k) = (number of pairs, ceil(n/2)) for ambient dimension n."""
    if n < 2:
        raise ValueError("pairing structure needs n >= 2")
    return n // 2, (n + 1) // 2


def pair_products(n: int, N: int):
    """The m quadratic monomial series z_1 z_2, ..., z_{2m-1} z_{2m}."""
    m, _ = half_counts(n)
    out = []
    for i in range(m):
        e = [0] * n
        e[2 * i] = 1
        e[2 * i + 1] = 1
        out.append(Series(n, N, {tuple(e): 1}))
    return tuple(out)


def pair_projection(n: int, N: int):
    """The k-component projection: pair products, plus z_n when n is odd."""
    out = list(pair_products(n, N))
    if n % 2:
        out.append(Series.variable(n, N, n - 1))
    return tuple(out)


def swap_perm(n: int) -> tuple:
    """The permutation (1, 0, 3, 2, ..., [n-1]) swapping each pair."""
    m, _ = half_counts(n)
    perm = []
    for i in range(m):
        perm += [2 * i + 1, 2 * i]
    if n % 2:
        perm.append(n - 1)
    return tuple(perm)


def pair_swap(n: int, N: int) -> FormalMap:
    """The linear involution (z_2, z_1, z_4, z_3, ..., [z_n])."""
    return FormalMap.permutation(swap_perm(n), N)


# ---------------------------------------------------------------------------
# paired diagonals and genericity


def _coprime_base(values):
    """Pairwise coprime integers > 1 whose products give every value > 1.

    Naive gcd refinement (Bernstein 2005, "Factoring into coprimes in
    essentially linear time", J. Algorithms 54, for the fast version):
    any pair with a gcd g > 1 is replaced by g, a/g and b/g.  Each split
    shrinks the product of the pending and kept integers, so the loop ends.
    """
    base = []
    todo = [v for v in values if v > 1]
    while todo:
        a = todo.pop()
        for i, b in enumerate(base):
            g = gcd(a, b)
            if g > 1:
                del base[i]
                todo += [x for x in (g, a // g, b // g) if x > 1]
                break
        else:
            base.append(a)
    return base


def _valuation(x: int, c: int) -> int:
    e = 0
    while x % c == 0:
        x //= c
        e += 1
    return e


def _rational_exponent_rows(values):
    """Exponent vectors of nonzero rationals over a coprime base of their
    numerators and denominators, or None if some value is not rational.

    Every prime divides exactly one base element, so the base-to-prime
    exponent matrix has full row rank and these rows have the same rank
    as the prime-exponent vectors, with no integer factoring.  Signs are
    torsion and are dropped.
    """
    if not all(v.is_rational() for v in values):
        return None
    pairs = [v.rational().as_integer_ratio() for v in values]
    base = _coprime_base([abs(x) for pair in pairs for x in pair])
    return [
        [Fraction(_valuation(abs(num), c) - _valuation(den, c)) for c in base]
        for num, den in pairs
    ]


def _rational_rank(rows):
    if not rows:
        return 0
    rows = [list(r) for r in rows]
    cols = len(rows[0])
    rank = 0
    for c in range(cols):
        piv = next((i for i in range(rank, len(rows)) if rows[i][c] != 0), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        inv = Fraction(1) / rows[rank][c]
        rows[rank] = [x * inv for x in rows[rank]]
        for i in range(len(rows)):
            if i != rank and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[rank])]
        rank += 1
    return rank


@dataclass(frozen=True)
class GenericityReport:
    status: str  # "generic" | "not-generic" | "undecided"
    detail: str = ""

    def __bool__(self):
        return self.status == "generic"


@dataclass(frozen=True)
class PairedDiagonal:
    """diag(mu_1, 1/mu_1, ..., mu_m, 1/mu_m [, 1]) in ambient dimension n."""

    multipliers: tuple
    n: int

    def __post_init__(self):
        m, _ = half_counts(self.n)
        mult = tuple(scalar(x) for x in self.multipliers)
        if len(mult) != m:
            raise ValueError(f"need {m} multipliers for n={self.n}")
        if any(x.is_zero() for x in mult):
            raise ValueError("multipliers must be nonzero")
        object.__setattr__(self, "multipliers", mult)

    def entries(self):
        out = []
        for mu in self.multipliers:
            out += [mu, mu.inverse()]
        if self.n % 2:
            out.append(ONE)
        return tuple(out)

    def matrix(self) -> Matrix:
        return Matrix.diagonal(self.entries())

    def realize(self, N: int) -> FormalMap:
        return FormalMap.diagonal(self.entries(), N)

    def genericity(self) -> GenericityReport:
        """Exact for rational multipliers (exponent ranks over a coprime
        base); detects root-of-unity relations otherwise, else reports
        undecided."""
        for j, mu in enumerate(self.multipliers):
            d = root_of_unity_order(mu)
            if d is not None:
                return GenericityReport(
                    "not-generic", f"multiplier {j + 1} satisfies mu^{d} = 1"
                )
        rows = _rational_exponent_rows(self.multipliers)
        if rows is None:
            return GenericityReport(
                "undecided",
                "non-rational multiplier; construct from primes to certify",
            )
        if _rational_rank(rows) == len(self.multipliers):
            return GenericityReport("generic")
        return GenericityReport(
            "not-generic", "exponent vectors are linearly dependent"
        )

    def is_generic(self) -> bool:
        return bool(self.genericity())


def _primes():
    """2, 3, 5, 7, ... by trial division against the primes found so far."""
    found = []
    for p in count(2):
        if all(p % q for q in takewhile(lambda q: q * q <= p, found)):
            found.append(p)
            yield p


def fresh_prime_diagonal(n: int, avoid=()) -> PairedDiagonal:
    """A generic paired diagonal built from the smallest primes dividing no
    numerator or denominator of the rational values in avoid (nonzero
    scalars or ints)."""
    m, _ = half_counts(n)
    avoid = [
        abs(x)
        for v in map(scalar, avoid)
        if v.is_rational()
        for x in v.rational().as_integer_ratio()
        if abs(x) > 1
    ]
    mult = islice((p for p in _primes() if all(a % p for a in avoid)), m)
    return PairedDiagonal(tuple(Scalar(p) for p in mult), n)


# ---------------------------------------------------------------------------
# centralizer shape


class ShapeError(ValueError):
    """Raised when a map does not have the required structural shape."""


def _is_unit(s: Series) -> bool:
    return not s.constant_term().is_zero()


def _check_admissible(psi: Series, var_index: int):
    if not psi.constant_term().is_zero():
        raise ShapeError("admissible series must vanish at 0")
    e = [0] * psi.nvars
    e[var_index] = 1
    if psi.coefficient(tuple(e)).is_zero():
        raise ShapeError(
            "admissible series needs a nonzero coefficient on the last variable"
        )


def make_centralizer(phi, psi: Series | None = None) -> FormalMap:
    """Realize a centralizer element from its unit data.

    Parameters
    ----------
    phi : sequence of 2m unit series; in m variables for even ambient
        n = 2m (psi None), in k = m+1 variables for odd n = 2m+1.
    psi : admissible series in k variables (odd case only): zero constant
        term, nonzero coefficient on the last variable.

    Returns the map with components z_j * phi_j(pair products [, z_n]),
    plus last component psi(pair products, z_n) in the odd case.
    """
    phi = tuple(phi)
    if len(phi) % 2:
        raise ShapeError("unit data must have an even number of components")
    m = len(phi) // 2
    n = 2 * m + (1 if psi is not None else 0)
    expected_vars = m if psi is None else m + 1
    N = phi[0].trunc
    for s in phi:
        if s.nvars != expected_vars or s.trunc != N:
            raise TruncationMismatch("unit data must share arity and truncation")
        if not _is_unit(s):
            raise ShapeError("unit series must have nonzero constant term")
    args = list(pair_products(n, N))
    if psi is not None:
        if psi.nvars != expected_vars or psi.trunc != N:
            raise TruncationMismatch("last-component data must match units")
        _check_admissible(psi, expected_vars - 1)
        args.append(Series.variable(n, N, n - 1))
    table = Table(args)
    comps = []
    for j, s in enumerate(phi):
        comps.append(compose(s, args, table).shift_up(j))
    if psi is not None:
        comps.append(compose(psi, args, table))
    return FormalMap(comps)


@dataclass(frozen=True)
class MembershipResult:
    ok: bool
    reason: str = ""

    def __bool__(self):
        return self.ok


def extract_centralizer(F: FormalMap):
    """Inverse of make_centralizer: recover (phi, psi).

    Raises ShapeError when F is not a centralizer element.
    """
    n, N = F.nvars, F.trunc
    m, k = half_counts(n)
    odd = bool(n % 2)
    width = k if odd else m

    def to_base(e, allow_last):
        # exponents must match within each pair; collapse to base variables
        out = []
        for i in range(m):
            if e[2 * i] != e[2 * i + 1]:
                return None
            out.append(e[2 * i])
        if odd:
            if not allow_last and e[n - 1]:
                return None
            out.append(e[n - 1])
        elif any(x for x in e[2 * m:]):
            return None
        return tuple(out)

    phi = []
    for j in range(2 * m):
        comp = F.comps[j]
        data = {}
        for e, v in comp.coeffs.items():
            if e[j] == 0:
                raise ShapeError(
                    f"component {j + 1} has a monomial not divisible by z{j + 1}"
                )
            e2 = list(e)
            e2[j] -= 1
            base = to_base(e2, allow_last=odd)
            if base is None:
                raise ShapeError(
                    f"component {j + 1} has off-shape monomial {tuple(e)}"
                )
            data[base] = v
        s = Series(width, N, data)
        if not _is_unit(s):
            raise ShapeError(f"component {j + 1} has no linear term")
        phi.append(s)
    psi = None
    if odd:
        comp = F.comps[n - 1]
        data = {}
        for e, v in comp.coeffs.items():
            base = to_base(e, allow_last=True)
            if base is None:
                raise ShapeError(f"last component has off-shape monomial {e}")
            data[base] = v
        psi = Series(width, N, data)
        _check_admissible(psi, width - 1)
    return tuple(phi), psi


def centralizer_membership(F: FormalMap) -> MembershipResult:
    """Shape test for membership in the paired-diagonal centralizer."""
    try:
        extract_centralizer(F)
    except ShapeError as exc:
        return MembershipResult(False, str(exc))
    return MembershipResult(True)


# ---------------------------------------------------------------------------
# coordinate-units group in the base variables


def make_unit_shape(lams, psi: Series | None = None) -> FormalMap:
    """The base-variable map (t_1 lam_1(t), ..., t_m lam_m(t) [, psi(t)]).

    With psi=None this is the plain coordinate-units shape; with psi an
    admissible series it is the augmented shape arising under odd ambient
    dimension.
    """
    lams = tuple(lams)
    width = len(lams) + (1 if psi is not None else 0)
    if not lams:
        raise ShapeError("need at least one unit")
    N = lams[0].trunc
    comps = []
    for i, lam in enumerate(lams):
        if lam.nvars != width or lam.trunc != N:
            raise TruncationMismatch("unit data must share arity and truncation")
        if not _is_unit(lam):
            raise ShapeError("unit series must have nonzero constant term")
        comps.append(lam.shift_up(i))
    if psi is not None:
        if psi.nvars != width or psi.trunc != N:
            raise TruncationMismatch("last-component data must match units")
        _check_admissible(psi, width - 1)
        comps.append(psi)
    return FormalMap(comps)


def extract_unit_shape(chi: FormalMap, hat: bool):
    """Recover (lams, psi) from a coordinate-units map.

    hat selects the augmented shape (last component admissible rather
    than a coordinate unit).  Raises ShapeError on mismatch.
    """
    width = chi.nvars
    m = width - 1 if hat else width
    lams = []
    for i in range(m):
        comp = chi.comps[i]
        try:
            lam = comp.shift_down(i)
        except ValueError as exc:
            raise ShapeError(
                f"component {i + 1} is not divisible by its coordinate"
            ) from exc
        if not _is_unit(lam):
            raise ShapeError(f"component {i + 1} has no linear term")
        lams.append(lam)
    psi = None
    if hat:
        psi = chi.comps[width - 1]
        _check_admissible(psi, width - 1)
    return tuple(lams), psi


# ---------------------------------------------------------------------------
# visibility: which base monomials survive the lifts to the ambient


def _prune(s: Series, weights, budget: int) -> Series:
    """The monomials of s whose weighted degree weights . e fits the budget."""
    kept = {e: v for e, v in s.coeffs.items() if sum(map(mul, weights, e)) <= budget}
    return Series(s.nvars, s.trunc, kept)


def _half_weights(w: tuple) -> tuple:
    """Weights one pairing down: base variable i stands for the ambient
    degree of its pair, w_{2i} + w_{2i+1}, and the trailing variable of an
    odd parent keeps its own."""
    k = len(w)
    out = [w[2 * i] + w[2 * i + 1] for i in range(k // 2)]
    if k % 2:
        out.append(w[-1])
    return tuple(out)


def _weighted_canonical(F: FormalMap, weights, odd_last: bool) -> FormalMap:
    """Drop monomials that cannot survive the chain of lifts back to the
    ambient dimension.  weights[i] is the ambient degree that base
    variable i stands for; a unit-slot monomial q survives when
    w . q <= N - 1 + w_j, the trailing slot of an odd parent when
    w . q <= N.  Deeper windows are tighter than shallow ones, so this
    single check matches the nested truncations exactly."""
    N, k = F.trunc, F.nvars
    return FormalMap([
        _prune(s, weights, N if (odd_last and j == k - 1) else N - 1 + weights[j])
        for j, s in enumerate(F.comps)
    ])


# ---------------------------------------------------------------------------
# the exact sequence: kernel embedding, projection, section


def _base_map(units, psi, n: int, N: int) -> FormalMap:
    # a unit multiplies z_j, so only its monomials of weighted degree
    # N - 1 or less survive in the ambient
    weights = _half_weights((1,) * n)
    lams = [
        _prune(units[2 * i] * units[2 * i + 1], weights, N - 1)
        for i in range(n // 2)
    ]
    return make_unit_shape(tuple(lams), psi)


def project_base(F: FormalMap) -> FormalMap:
    """Push a centralizer element down to the base variables.

    Components multiply in pairs: the image map is
    t_i -> t_i * phi_{2i-1}(t) * phi_{2i}(t), with the admissible last
    component carried along unchanged in the odd case.  Satisfies the
    semiconjugacy (projection o F) = (result o projection).  The result
    is canonical: monomials invisible through the pairing are pruned.
    """
    units, psi = extract_centralizer(F)
    return _base_map(units, psi, F.nvars, F.trunc)


def lift_section(chi: FormalMap, n: int) -> FormalMap:
    """The homomorphic section: rebuild a centralizer element whose
    even-indexed components are identity coordinates.

    chi must be a coordinate-units map in k = ceil(n/2) variables
    (augmented shape when n is odd).  project_base(lift_section(chi)) is
    chi again.
    """
    m, k = half_counts(n)
    odd = bool(n % 2)
    if chi.nvars != (k if odd else m):
        raise ShapeError(
            f"section input must have {k if odd else m} variables for n={n}"
        )
    lams, psi = extract_unit_shape(chi, hat=odd)
    one = Series.one(chi.nvars, chi.trunc)
    phi = []
    for lam in lams:
        phi += [lam, one]
    return make_centralizer(tuple(phi), psi)


def kernel_embed(phi, n: int) -> FormalMap:
    """Embed m units as a kernel element (pairs carry phi_i and 1/phi_i).

    The image projects to the identity, and is reversed by the pair swap:
    conjugating by it inverts the element exactly.
    """
    phi = tuple(phi)
    m, k = half_counts(n)
    odd = bool(n % 2)
    if len(phi) != m:
        raise ShapeError(f"need {m} units for n={n}")
    width = k if odd else m
    if any(u.nvars != width for u in phi):
        raise ShapeError(f"kernel units must be in {width} variables for n={n}")
    N = phi[0].trunc
    units = []
    for u in phi:
        units += [u, u.invert_unit()]
    psi = Series.variable(width, N, width - 1) if odd else None
    return make_centralizer(tuple(units), psi)


def split_centralizer(F: FormalMap):
    """Unique factorization F = lift_section(chi) o Phi, Phi in the kernel.

    Returns (chi, Phi): chi is project_base(F).  lift_section fixes every
    odd slot, so slot 2i+1 of F is the kernel's: Phi carries F's unit u_i
    there and the visible part of 1/u_i in slot 2i, which makes it
    kernel_embed of those visible reciprocals.  Raises ShapeError, from
    extract_centralizer, when F is not a centralizer element.
    """
    n, N = F.nvars, F.trunc
    units, psi = extract_centralizer(F)
    weights = _half_weights((1,) * n)
    kernel = []
    for u in units[1::2]:
        kernel += [_prune(u.invert_unit(), weights, N - 1), u]
    width = units[0].nvars
    last = Series.variable(width, N, width - 1) if n % 2 else None
    return _base_map(units, psi, n, N), make_centralizer(tuple(kernel), last)
