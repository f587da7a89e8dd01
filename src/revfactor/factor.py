"""Factor pipelines: reversible and involutive factorizations with
verified witnesses, plus portable certificates.

The drivers accept maps whose linear part is diagonal (or upper
triangular with distinct eigenvalues, which is diagonalized first) and
has determinant +-1.  The engine walks the pair recursion: split the
map against the half-dimensional base, recurse, and lift the child
factors back through the section homomorphism.  Witnesses travel as
small symbolic specs so lifting preserves their meaning; they are
materialized and re-verified at the top.

A factorization can be frozen into a JSON certificate whose digest
covers the target, the factors, their witnesses and the trace; the
verifier replays everything by composition alone.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass

from . import dim1
from .bounds import compute_bounds, compute_involution_bounds
from .maps import (
    FormalMap,
    Matrix,
    conjugate_linear,
    dress,
    format_map,
    is_involution,
    map_compose,
    map_invert,
    parse_map,
)
from .normalform import Obstruction, Witness, poincare_dulac, verify_witness
from .scalars import ONE, Scalar, TextFormatError, rat, scalar
from .structure import (
    PairedDiagonal,
    ShapeError,
    _half_weights,
    _weighted_canonical,
    centralizer_membership,
    extract_unit_shape,
    fresh_prime_diagonal,
    half_counts,
    kernel_embed,
    lift_section,
    pair_swap,
    split_centralizer,
    swap_perm,
)


class FactorObstruction(Exception):
    """A pipeline step could not continue; carries the step trace and,
    when available, the exact coefficient equation that failed."""

    def __init__(self, message, obstruction: Obstruction | None = None, trace=()):
        super().__init__(message)
        self.message = message
        self.obstruction = obstruction
        self.trace = tuple(trace)


@dataclass(frozen=True)
class Factor:
    map: FormalMap
    witness: Witness
    kind: str  # reversible | involution | order4-reversible | linear


@dataclass(frozen=True)
class Factorization:
    target: FormalMap
    mode: str  # reversible | involutive
    factors: tuple
    trace: tuple

    def __len__(self):
        return len(self.factors)

    def recompose(self) -> FormalMap:
        prod = FormalMap.identity(self.target.nvars, self.target.trunc)
        for f in self.factors:
            prod = map_compose(prod, f.map)
        return prod


# ---------------------------------------------------------------------------
# witness specs: liftable symbolic witnesses

class _SelfSpec:
    """Witness is the factor itself (an involution)."""


SELF = _SelfSpec()


@dataclass(frozen=True)
class PermSpec:
    perm: tuple


@dataclass(frozen=True)
class UnitSpec:
    h: FormalMap


@dataclass(frozen=True)
class DressSpec:
    dress: FormalMap
    inverse: FormalMap  # of dress; lift_section lifts both alike
    inner: object


def lift_permutation(perm: tuple, n: int) -> tuple:
    """Lift a permutation of the k base variables to the n ambient ones.

    Base variable i owns the ambient pair (2i, 2i+1); over an odd parent
    the last base variable is the ambient singleton.  Two singleton
    behaviours lift: it stays fixed (pairs move as rigid blocks), or it
    swaps with the last pair variable, which the ambient realizes by
    transposing the two unit-carrying slots z_{n-2} and z_n while the
    bare slot between them stays put.
    """
    m, k = half_counts(n)
    if len(perm) != k:
        raise ShapeError(f"permutation acts on {len(perm)} slots, need {k}")
    out = list(range(n))
    blocks = m
    if n % 2 and perm[k - 1] != k - 1:
        if not (k >= 2 and perm[k - 2] == k - 1 and perm[k - 1] == k - 2):
            raise ShapeError("singleton moves in a way the ambient cannot realize")
        blocks = k - 2
        out[n - 3], out[n - 1] = n - 1, n - 3
    for i in range(blocks):
        j = perm[i]
        if j >= blocks:
            raise ShapeError("pair block collides with the trailing swap")
        out[2 * i], out[2 * i + 1] = 2 * j, 2 * j + 1
    return tuple(out)


def _lift_spec(spec, n: int):
    if spec is SELF:
        return SELF
    if isinstance(spec, PermSpec):
        return PermSpec(lift_permutation(spec.perm, n))
    if isinstance(spec, UnitSpec):
        return UnitSpec(lift_section(spec.h, n))
    if isinstance(spec, DressSpec):
        return DressSpec(
            lift_section(spec.dress, n),
            lift_section(spec.inverse, n),
            _lift_spec(spec.inner, n),
        )
    raise TypeError(f"unknown witness spec {spec!r}")


def _materialize_spec(spec, m: FormalMap) -> FormalMap:
    if spec is SELF:
        return m
    if isinstance(spec, PermSpec):
        return FormalMap.permutation(spec.perm, m.trunc)
    if isinstance(spec, UnitSpec):
        return spec.h
    if isinstance(spec, DressSpec):
        # _dress_pieces leaves SELF undressed, so the inner spec is not SELF
        return dress([_materialize_spec(spec.inner, m)], spec.dress, spec.inverse)[0]
    raise TypeError(f"unknown witness spec {spec!r}")


def _involution(m: FormalMap) -> Factor:
    """The involution m as a factor that is its own witness."""
    return Factor(m, Witness("involution_self", m, m.trunc), "involution")


def _piece_factor(piece, N: int) -> Factor:
    m, spec, kind = piece
    h = _materialize_spec(spec, m)
    if spec is SELF:
        w = Witness("involution_self", m, N)
    elif map_compose(h, h).is_identity():
        w = Witness("involutive_reverser", h, N)
    else:
        w = Witness("reverser", h, N)
    if not verify_witness(m, w):  # pragma: no cover - lifts preserve witnesses
        raise AssertionError("materialized witness failed verification")
    return Factor(m, w, kind)


def unit_pairing_perm(m: FormalMap):
    """A permutation reversing a slot-unit map by transposing slots that
    carry reciprocal units; bare and self-reciprocal slots stay fixed.
    Verified exactly before returning; None when no pairing works."""
    try:
        units, _ = extract_unit_shape(m, hat=False)
    except ShapeError:
        return None
    k = m.nvars
    inv = [u.invert_unit() for u in units]
    perm = [None] * k
    for i in range(k):
        if perm[i] is not None:
            continue
        if units[i] == inv[i]:
            perm[i] = i
            continue
        for j in range(i + 1, k):
            if perm[j] is None and units[j] == inv[i] and units[i] == inv[j]:
                perm[i], perm[j] = j, i
                break
        else:
            return None
    perm = tuple(perm)
    # P reverses m exactly when m o P o m = P (P is invertible)
    P = FormalMap.permutation(perm, m.trunc)
    if map_compose(map_compose(m, P), m) != P:
        return None
    return perm


def _respec(spec, m: FormalMap, n: int):
    """Rebuild a liftable witness spec for a piece whose literal
    permutation witness cannot pass through an odd parent."""
    if isinstance(spec, PermSpec):
        # Pair reciprocal units in the lifted map itself; the resulting
        # ambient permutation needs no further adjustment.
        tau = unit_pairing_perm(lift_section(m, n))
        if tau is None:
            raise FactorObstruction(
                "no liftable reverser found for a kernel piece"
            )
        return PermSpec(tau)
    if isinstance(spec, DressSpec):
        inner_m = dress([m], spec.inverse, spec.dress)[0]
        return DressSpec(
            lift_section(spec.dress, n),
            lift_section(spec.inverse, n),
            _respec(spec.inner, inner_m, n),
        )
    raise FactorObstruction("witness spec cannot pass through an odd parent")


def _lift_piece(piece, n: int):
    m, spec, kind = piece
    try:
        lspec = _lift_spec(spec, n)
    except ShapeError:
        lspec = _respec(spec, m, n)
    return lift_section(m, n), lspec, kind


def _dress_pieces(pieces, K: FormalMap, Kinv: FormalMap) -> list:
    """Each piece conjugated to K o m o Kinv, Kinv the inverse of K.  A
    conjugated involution is still its own witness, so SELF stays."""
    dressed = dress([m for m, _, _ in pieces], K, Kinv)
    return [
        (m, spec if spec is SELF else DressSpec(K, Kinv, spec), kind)
        for m, (_, spec, kind) in zip(dressed, pieces)
    ]


def _dress_factors(factors, C: FormalMap, Cinv: FormalMap) -> list:
    """Each factor and its witness conjugated to C o f o Cinv, for Cinv
    the inverse of C, all on one substitution table for Cinv."""
    selfs = [f.witness.kind == "involution_self" for f in factors]
    hs = [f.witness.h for f, own in zip(factors, selfs) if not own]
    dressed = dress([f.map for f in factors] + hs, C, Cinv)
    dressed_hs = iter(dressed[len(factors):])
    out = []
    for f, m, own in zip(factors, dressed, selfs):
        w = f.witness
        h = m if own else next(dressed_hs)
        out.append(Factor(m, Witness(w.kind, h, w.checked_degree), f.kind))
    return out


def _kind_for_witness(w: Witness) -> str:
    if w.kind == "involution_self":
        return "involution"
    lam = w.h.comps[0].coefficient((1,) + (0,) * (w.h.nvars - 1))
    if (lam * lam) == scalar(-1):
        return "order4-reversible"
    return "reversible"


# ---------------------------------------------------------------------------
# linear diagonal splitting

def _paired_entries(entries):
    """Multipliers when the diagonal is pair-reciprocal (trailing 1 when
    odd), else None."""
    n = len(entries)
    if n % 2 and entries[-1] != ONE:
        return None
    mult = []
    for i in range(n // 2):
        a, b = entries[2 * i], entries[2 * i + 1]
        if (a * b) != ONE:
            return None
        mult.append(a)
    return tuple(mult)


def _permuted_entries(entries, perm):
    return tuple(entries[perm[i]] for i in range(len(perm)))


def _inverse_perm(perm):
    out = [0] * len(perm)
    for i, j in enumerate(perm):
        out[j] = i
    return tuple(out)


def split_diagonal_pair(T: Matrix):
    """A diagonal matrix of determinant 1 as T1 * T2 where T1 is
    pair-reciprocal and some permutation sigma makes T2 pair-reciprocal.

    Returns (T1 as PairedDiagonal, T2 as Matrix, sigma).  The entries of
    the permuted matrix are read as (T2^sigma)_i = (T2)_{sigma(i)};
    candidates are the swap of the first and last slot, then the cyclic
    shift, whichever lands in the paired shape first.
    """
    if not T.is_diagonal():
        raise ValueError("need a diagonal matrix")
    d = list(T.diagonal_entries())
    n = len(d)
    if n < 2:
        raise ValueError("need at least two variables")
    det = ONE
    for x in d:
        det = det * x
    if det != ONE:
        raise ValueError("determinant must be 1 to split the diagonal")
    t1 = []
    run = ONE
    for i in range(n // 2):
        run = run * d[2 * i]
        t1 += [run, run.inverse()]
        run = run * d[2 * i + 1]
    if n % 2:
        t1.append(run * d[n - 1])  # equals det == 1
    mult1 = _paired_entries(t1)
    if mult1 is None:  # pragma: no cover - construction guarantees the shape
        raise AssertionError("prefix product lost the paired shape")
    t2 = tuple(x / y for x, y in zip(d, t1))
    if _paired_entries(t2) is not None:
        return PairedDiagonal(mult1, n), Matrix.diagonal(t2), tuple(range(n))
    cands = []
    swap = list(range(n))
    swap[0], swap[n - 1] = n - 1, 0
    cands.append(tuple(swap))
    cands.append(tuple((i + 1) % n for i in range(n)))
    for perm in cands:
        if _paired_entries(_permuted_entries(t2, perm)) is not None:
            return PairedDiagonal(mult1, n), Matrix.diagonal(t2), perm
    raise AssertionError("no admissible permutation")  # pragma: no cover


def split_paired_generic(T: PairedDiagonal):
    """A pair-reciprocal diagonal as a product of two generic ones.

    Fresh primes dividing no numerator or denominator of the multipliers
    go into the first factor; the second factor is their reciprocal diagonal.
    Non-rational multipliers are rejected: pick the rebalancing primes
    by hand in that case and multiply directly.
    """
    for a in T.multipliers:
        if not a.is_rational():
            raise ValueError(
                "rebalancing needs rational multipliers; "
                "compose with a generic paired diagonal of your choice instead"
            )
    n = T.n
    fresh = fresh_prime_diagonal(n, avoid=T.multipliers)
    lam = fresh.multipliers
    first = PairedDiagonal(
        tuple(a * p for a, p in zip(T.multipliers, lam)), n
    )
    second = PairedDiagonal(tuple(p.inverse() for p in lam), n)
    if not (first.is_generic() and second.is_generic()):  # pragma: no cover
        raise AssertionError("fresh primes failed to give generic factors")
    return first, second


def split_diagonal_generic(T: Matrix):
    """A diagonal matrix of determinant 1 as T1 * T2 * T3 with T1
    pair-reciprocal and T2, T3 pair-reciprocal and generic after one
    permutation sigma.  Returns (T1, T2, sigma); T3 is the rest."""
    T1, T2, sigma = split_diagonal_pair(T)
    permuted = _permuted_entries(T2.diagonal_entries(), sigma)
    mult = _paired_entries(permuted)
    B1, _ = split_paired_generic(PairedDiagonal(mult, len(permuted)))
    T2b = Matrix.diagonal(_permuted_entries(B1.entries(), _inverse_perm(sigma)))
    return T1, T2b, sigma


# ---------------------------------------------------------------------------
# diagonalize, normalize, rebalance: the step every level repeats

def _flipped(A: Matrix) -> Matrix:
    """R A R for the order-reversing permutation R."""
    return Matrix([row[::-1] for row in reversed(A.rows)])


def _triangular_eigenbasis(L: Matrix) -> Matrix:
    """The eigenbasis E of an upper or lower triangular L with distinct
    eigenvalues, normalized to a unit diagonal, so E^-1 L E is diagonal.

    E is triangular the same way as L.  For diag + (last row) it is a
    last-row shear again, so it stays inside the augmented unit-shape
    group and lifts.  A lower-triangular L is solved as R L R."""
    lower = not L.is_upper_triangular()
    U = _flipped(L) if lower else L
    if not U.is_upper_triangular():
        raise ValueError("need an upper or lower triangular matrix")
    n = L.n
    lam = L.diagonal_entries()
    for i in range(n):
        for j in range(i + 1, n):
            if lam[i] == lam[j]:
                raise FactorObstruction(
                    f"eigenvalue collision in slots {i + 1} and {j + 1}: "
                    "cannot diagonalize the triangular linear part"
                )
    lam = U.diagonal_entries()
    cols = []
    for i in range(n):
        v = [Scalar(0)] * n
        v[i] = ONE
        for j in range(i - 1, -1, -1):
            acc = Scalar(0)
            for k in range(j + 1, i + 1):
                acc = acc + U.entry(j, k) * v[k]
            v[j] = acc / (lam[i] - lam[j])
        cols.append(v)
    E = Matrix([[cols[j][i] for j in range(n)] for i in range(n)])
    return _flipped(E) if lower else E


def _diagonalized(M: FormalMap):
    """(E^-1 o M o E, E) for the eigenbasis E of M's triangular linear
    part, or (M, None) when that part is already diagonal."""
    L = M.linear_part()
    if L.is_diagonal():
        return M, None
    E = _triangular_eigenbasis(L)
    return conjugate_linear(M, E), E


def _paired_normal_form(M: FormalMap, what: str, trace):
    """The normal form M = K o G o K^-1 as (G, K, K^-1), with G checked to
    lie in the paired centralizer; ``what`` names G in the obstruction."""
    G, K, Kinv = poincare_dulac(M)
    back = centralizer_membership(G)
    if not back:
        raise FactorObstruction(
            f"{what} left the paired shape: " + back.reason, trace=trace
        )
    return G, K, Kinv


def _rebalance(X: FormalMap, avoid, what: str, trace):
    """Make X's linear part generic with a fresh-prime paired diagonal D,
    diagonalize what stays triangular, and normalize:
    D o X = K o G o K^-1.  Returns (G, K, K^-1, D^-1 as a map)."""
    N = X.trunc
    D = fresh_prime_diagonal(X.nvars, avoid=avoid)
    M, E = _diagonalized(map_compose(D.realize(N), X))
    G, K, Kinv = _paired_normal_form(M, what, trace)
    if E is not None:
        K = map_compose(FormalMap.from_linear(E, N), K)
        Kinv = map_compose(Kinv, FormalMap.from_linear(E.inverse(), N))
    return G, K, Kinv, FormalMap.from_linear(D.matrix().inverse(), N)


# ---------------------------------------------------------------------------
# the level machine over base variables


def _factor_unit_group(X: FormalMap, weights, odd_last: bool, mode: str, trace):
    """Factor a map of coordinate-unit shape over k base variables into
    liftable pieces (map, witness spec, kind).  The unit slots are
    tangent; over an odd parent the trailing slot may carry a linear
    shear, which the rebalancing branch absorbs."""
    N, k = X.trunc, X.nvars
    X = _weighted_canonical(X, weights, odd_last)
    if X.is_identity():
        return []
    if k == 1:
        if mode == "involutive":
            parts = dim1.split_involutions(X)
            if isinstance(parts, Obstruction):
                # The leaf weight hides the cubic coefficient, so the
                # visible jet extends to a homography with vanishing
                # invariant; that completion recomposes X through the
                # visibility window and splits into two involutions.
                g2 = dim1.coeff(X, 2)
                mu = dim1.poly1({1: 1, 2: g2, 3: g2 * g2}, N)
                if _weighted_canonical(mu, weights, odd_last) == X:
                    parts = dim1.split_involutions(mu)
                    trace.append(
                        "completed a leaf jet to a homography before "
                        "splitting into involutions"
                    )
            if isinstance(parts, Obstruction):
                raise FactorObstruction(
                    "one-variable leaf admits no involution product: "
                    + parts.note,
                    obstruction=parts,
                    trace=trace,
                )
            return [(I, SELF, "involution") for I in parts]
        return [
            (m, UnitSpec(w.h), _kind_for_witness(w))
            for m, w in dim1.split_reversibles(X)
        ]
    pre = []
    K = None
    if centralizer_membership(X):
        G = X
        trace.append(f"paired member at width {k}: direct split")
    else:
        # a trailing-slot shear from resonant pair products is diagonalized
        G, K, Kinv, Dinv = _rebalance(X, (), f"normal form at width {k}", trace)
        pre.append((Dinv, PermSpec(swap_perm(k)), "linear"))
        trace.append(f"fresh-prime rebalance and normalization at width {k}")
    chi, phi = split_centralizer(G)
    inner = [
        _lift_piece(p, k)
        for p in _factor_unit_group(
            chi, _half_weights(weights), k % 2 == 1, mode, trace
        )
    ]
    Phi = kernel_embed(phi, k)
    if not Phi.is_identity():
        inner.append((Phi, PermSpec(swap_perm(k)), "reversible"))
    if K is not None:
        inner = _dress_pieces(inner, K, Kinv)
    return pre + inner


# ---------------------------------------------------------------------------
# ambient-level helpers

def _phi_factor(phi, n: int, N: int):
    Phi = kernel_embed(phi, n)
    if Phi.is_identity():
        return None
    J = pair_swap(n, N)
    w = Witness("involutive_reverser", J, N)
    if not verify_witness(Phi, w):  # pragma: no cover
        raise AssertionError("pair swap failed to reverse the kernel part")
    return Factor(Phi, w, "reversible")


def _ambient_factors(G: FormalMap, mode: str, trace):
    n, N = G.nvars, G.trunc
    chi, phi = split_centralizer(G)
    out = []
    if mode == "involutive" and n == 2:
        out += _base2_involutions(chi, trace)
    else:
        pieces = _factor_unit_group(
            chi, _half_weights((1,) * n), n % 2 == 1, mode, trace
        )
        out += [_piece_factor(_lift_piece(p, n), N) for p in pieces]
    pf = _phi_factor(phi, n, N)
    if pf is not None:
        out.append(pf)
    return out


def reduce_to_centralizer(F: FormalMap):
    """Write F with general diagonal linear part (det 1) as
    T1 o T2 o C o G o C^-1 with T1, T2 strongly reversible linear maps
    and G a paired-centralizer element with generic linear part.

    Accepts an upper-triangular linear part as well: the prefix absorbs
    only the diagonal, after which the remaining triangular part has the
    distinct fresh-prime eigenvalues and diagonalizes exactly.

    Returns (G, prefix_factors, C, C^-1)."""
    n, N = F.nvars, F.trunc
    if n < 3:
        raise ValueError("reduction needs at least three variables")
    L = F.linear_part()
    if not L.is_diagonal() and not L.is_upper_triangular():
        raise ValueError("reduction needs a diagonal or triangular linear part")
    T1, T2, sigma = split_diagonal_generic(
        Matrix.diagonal(L.diagonal_entries())
    )
    J = pair_swap(n, N)
    P = FormalMap.permutation(sigma, N)
    Pinv = FormalMap.permutation(_inverse_perm(sigma), N)
    prefix = []
    T1m = FormalMap.from_linear(T1.matrix(), N)
    if not T1m.is_identity():
        prefix.append(Factor(T1m, Witness("involutive_reverser", J, N), "linear"))
    T2m = FormalMap.from_linear(T2, N)
    if not T2m.is_identity():
        w2 = dress([J], Pinv, P)[0]
        prefix.append(Factor(T2m, Witness("involutive_reverser", w2, N), "linear"))
    W = map_compose(FormalMap.from_linear((T1.matrix() * T2).inverse(), N), F)
    W, E = _diagonalized(W)
    # P o W o P^-1, whose linear part is T3^sigma, generic and paired
    F2 = dress([W], P, Pinv)[0]
    G, K1, K1inv = _paired_normal_form(F2, "normal form after rebalancing", ())
    C, Cinv = map_compose(Pinv, K1), map_compose(K1inv, P)
    if E is not None:
        C = map_compose(FormalMap.from_linear(E, N), C)
        Cinv = map_compose(Cinv, FormalMap.from_linear(E.inverse(), N))
    for f in prefix:
        if not verify_witness(f.map, f.witness):  # pragma: no cover
            raise AssertionError("prefix witness failed")
    return G, prefix, C, Cinv


# ---------------------------------------------------------------------------
# two-variable involutive base

def _lifted_involution(I: FormalMap, n: int) -> Factor:
    m = lift_section(I, n)
    if not is_involution(m):  # pragma: no cover - the section is a homomorphism
        raise AssertionError("lift broke an involution")
    return _involution(m)


def balance_matrix() -> Matrix:
    """The SL(2) change of basis that equalizes the two resonant slots of
    the quintic obstruction: with bc a root of 6x^2 + 6x + 1, both
    components of the normal form carry the same coefficient up to sign,
    so the base map of the normal form starts at degree >= 4."""
    # rho = bc = -1/2 + sqrt(3)/6, the root (-6 + 2 r3)/12 of 6x^2 + 6x + 1
    rho = Scalar(rat(-1, 2), 0, rat(1, 6), 0)
    return Matrix([[ONE, ONE], [rho, ONE + rho]])


def _s_machine(S: FormalMap, trace) -> list:
    """Split the lifted cubic-led part into at most eight involutions.

    A non-paired SL(2) conjugation balances the two resonant quintic
    slots; after normalizing, the base of the normal form is free of its
    quadratic and cubic coefficients, so the inner split avoids the
    cubic invariant obstruction.  All eight pieces are materialized
    two-variable involutions.
    """
    N = S.trunc
    T = balance_matrix()
    Tm = FormalMap.from_linear(T, N)
    L1 = Matrix.diagonal([scalar(2), scalar(rat(1, 2))])
    M1 = map_compose(FormalMap.from_linear(L1, N), conjugate_linear(S, T))
    # resonant terms are paired here, so the check cannot fail
    N1, K1, K1inv = _paired_normal_form(M1, "balanced normal form", trace)
    chi_i, phi_i = split_centralizer(N1)
    if not (
        dim1.coeff(chi_i, 2).is_zero() and dim1.coeff(chi_i, 3).is_zero()
    ):  # pragma: no cover - this is what the balancing buys
        raise AssertionError("balancing left a low-order base coefficient")
    inner = []
    if not chi_i.is_identity():
        parts = dim1.split_involutions(chi_i)
        if isinstance(parts, Obstruction):  # pragma: no cover
            raise FactorObstruction(
                "balanced base map still obstructed", obstruction=parts
            )
        inner += [lift_section(I, 2) for I in parts]
    Phi = kernel_embed(phi_i, 2)
    J = pair_swap(2, N)
    if not Phi.is_identity():
        inner += [map_compose(Phi, J), J]
    X0 = FormalMap.from_linear(T * L1.inverse() * T.inverse(), N)
    W0 = FormalMap.from_linear(
        T * Matrix.permutation((1, 0)) * T.inverse(), N
    )
    D = map_compose(Tm, K1)
    Dinv = map_compose(K1inv, FormalMap.from_linear(T.inverse(), N))
    out = [map_compose(X0, W0), W0] + dress(inner, D, Dinv)
    for I in out:
        if not is_involution(I):  # pragma: no cover
            raise AssertionError("balanced piece is not an involution")
    trace.append("order-four balancing over SL(2) at width 2")
    return out


def _base2_involutions(chi: FormalMap, trace) -> list:
    """Involutions multiplying to lift(chi) for a one-variable base map:
    a quadratic-led homography piece (two involutions), then either a
    plain split or the balancing machine for the cubic-led remainder."""
    N = chi.trunc
    out = []
    alpha = dim1.coeff(chi, 2)
    rest = chi
    if not alpha.is_zero():
        chi1 = dim1.poly1({1: 1, 2: alpha, 3: alpha * alpha}, N)
        rest = map_compose(map_invert(chi1), chi)
        parts = dim1.split_involutions(chi1)
        if isinstance(parts, Obstruction):  # pragma: no cover - invariant 0
            raise FactorObstruction("homography piece obstructed")
        out += [_lifted_involution(I, 2) for I in parts]
    if not rest.is_identity():
        theta = dim1.theta_invariant(rest)
        if theta.is_zero():
            parts = dim1.split_involutions(rest)
            if isinstance(parts, Obstruction):  # pragma: no cover
                raise FactorObstruction("remainder obstructed", obstruction=parts)
            out += [_lifted_involution(I, 2) for I in parts]
        else:
            S = lift_section(rest, 2)
            out += [_involution(I) for I in _s_machine(S, trace)]
    return out


# ---------------------------------------------------------------------------
# top drivers

def _split_det_one(W: FormalMap, mode: str, trace) -> list:
    n, N = W.nvars, W.trunc
    if W.is_identity():
        return []
    L = W.linear_part()
    entries = L.diagonal_entries()
    mult = _paired_entries(entries)
    if mult is None:
        G, prefix, C, Cinv = reduce_to_centralizer(W)
        trace.append("split the diagonal and rebalanced to a generic paired part")
        return prefix + _dress_factors(_ambient_factors(G, mode, trace), C, Cinv)
    pd = PairedDiagonal(mult, n)
    pre = []
    K = Kinv = None
    if centralizer_membership(W):
        G = W
        trace.append("paired-centralizer member: direct split")
    elif pd.is_generic():
        # generic resonances are paired, so the check cannot fail
        G, K, Kinv = _paired_normal_form(W, "normal form", trace)
        trace.append("generic paired linear part: normalization")
    else:
        # a leftover triangular part now has distinct eigenvalues
        G, K, Kinv, Dinv = _rebalance(
            W,
            entries,
            "linear part is not paired-generic and the rebalanced normal form",
            trace,
        )
        J = pair_swap(n, N)
        pre.append(Factor(Dinv, Witness("involutive_reverser", J, N), "linear"))
        trace.append("fresh-prime rebalance of a non-generic linear part")
    inner = _ambient_factors(G, mode, trace)
    if K is not None:
        inner = _dress_factors(inner, K, Kinv)
    return pre + inner


def _involutionize(factors: list, trace) -> list:
    out = []
    for f in factors:
        if f.kind == "involution" or is_involution(f.map):
            out.append(_involution(f.map))
            continue
        if f.witness.kind != "involutive_reverser":
            raise FactorObstruction(
                "factor has no involutive witness to split against",
                trace=trace,
            )
        out += [_involution(I) for I in dim1.involution_pair(f.map, f.witness)]
    return out


def _drive(F: FormalMap, mode: str) -> Factorization:
    n, N = F.nvars, F.trunc
    if n < 2:
        raise ValueError(
            "drivers need at least two variables; "
            "use factor_dim1_reversibles for one"
        )
    trace: list = []
    factors: list = []
    work = F
    L = F.linear_part()
    det = L.det()
    if det == -ONE:
        V = FormalMap.diagonal([-ONE] + [ONE] * (n - 1), N)
        factors.append(_involution(V))
        work = map_compose(V, work)
        trace.append("flip prefix absorbs determinant -1")
        L = work.linear_part()
        det = L.det()
    if det != ONE:
        raise ValueError("linear part must have determinant 1 or -1")
    E = None
    if not L.is_diagonal():
        if not L.is_upper_triangular():
            raise ValueError("linear part must be diagonal or upper triangular")
        try:
            work, E = _diagonalized(work)
        except FactorObstruction:
            # Repeated eigenvalues: the fresh-prime rebalance below makes
            # them distinct, so keep the triangular part and move on.
            trace.append("repeated eigenvalues: deferred to the rebalance step")
        else:
            trace.append("diagonalized the triangular linear part")
    core = _split_det_one(work, mode, trace)
    if mode == "involutive":
        core = _involutionize(core, trace)
    if E is not None:
        core = _dress_factors(
            core, FormalMap.from_linear(E, N), FormalMap.from_linear(E.inverse(), N)
        )
    factors += core
    return _recomposed(Factorization(F, mode, tuple(factors), tuple(trace)))


def _recomposed(fz: Factorization) -> Factorization:
    """fz, once its factors are checked to compose to its target: the
    one recomposition each front end makes."""
    if fz.recompose() != fz.target:  # pragma: no cover - every stage is exact
        raise AssertionError(f"{fz.mode} factorization failed to recompose")
    return fz


def factor_reversibles(F: FormalMap) -> Factorization:
    """Factor F into reversible maps, each with a verified witness."""
    return _drive(F, "reversible")


def factor_involutions(F: FormalMap) -> Factorization:
    """Factor F into exact involutions."""
    return _drive(F, "involutive")


def factor_dim1_reversibles(g: FormalMap, seeds=None) -> Factorization:
    """One-variable front end: at most two reversible factors."""
    if g.nvars != 1:
        raise ValueError("expected a one-variable map")
    parts = dim1.split_reversibles(g, seeds=seeds)
    factors = tuple(
        Factor(m, w, _kind_for_witness(w)) for m, w in parts
    )
    return _recomposed(
        Factorization(g, "reversible", factors, ("one-variable split",))
    )


def factor_dim1_involutions(g: FormalMap) -> Factorization:
    """One-variable front end: a tangent map as at most four exact
    involutions.  Maps with a nonzero cubic invariant, or multiplier
    other than 1, are outside the class and raise FactorObstruction."""
    if g.nvars != 1:
        raise ValueError("expected a one-variable map")
    if is_involution(g) and not g.is_identity():
        parts, note = [g], "already an involution"
    else:
        try:
            parts = dim1.split_involutions(g)
        except ValueError as exc:
            raise FactorObstruction(str(exc)) from None
        if isinstance(parts, Obstruction):
            raise FactorObstruction(
                "no involution product exists: " + parts.note, obstruction=parts
            )
        note = "one-variable involution split"
    return _recomposed(
        Factorization(g, "involutive", tuple(_involution(m) for m in parts), (note,))
    )


# ---------------------------------------------------------------------------
# verification and certificates

@dataclass
class FactorReport:
    checks: list  # (name, ok, detail)

    @property
    def ok(self) -> bool:
        return all(ok for _, ok, _ in self.checks)

    def as_text(self) -> str:
        lines = [
            f"{'PASS' if ok else 'FAIL'}  {name}: {detail}"
            for name, ok, detail in self.checks
        ]
        lines.append("certificate OK" if self.ok else "certificate BAD")
        return "\n".join(lines)


def factor_budget(n: int, mode: str, det_minus: bool) -> int:
    if n == 1:
        budget = 4 if mode == "involutive" else 2
    elif mode == "involutive":
        budget = compute_involution_bounds(n).row(n).general
    else:
        budget = compute_bounds(n).row(n).general
    return budget + (1 if det_minus else 0)


def verify_factorization(fz: Factorization) -> FactorReport:
    checks = []
    n = fz.target.nvars
    det = fz.target.linear_part().det()
    k = len(fz.factors)
    prod = FormalMap.identity(n, fz.target.trunc)
    for i, f in enumerate(fz.factors, start=1):
        # one substitution table for f serves every composition with f
        # inside: the recomposition step, the square and (f o h) o f; one
        # square serves the involution check and the witness check
        memo: dict = {}
        prod = map_compose(prod, f.map, memo)
        square = map_compose(f.map, f.map, memo) if fz.mode == "involutive" else None
        checks.append(
            (
                f"witness {i}/{k}",
                verify_witness(f.map, f.witness, square, memo),
                f"kind {f.kind}, witness {f.witness.kind}",
            )
        )
        fd = f.map.linear_part().det()
        checks.append(
            (
                f"determinant {i}/{k}",
                fd == ONE or fd == -ONE,
                "factor determinant is +-1",
            )
        )
        if fz.mode == "involutive":
            checks.append(
                (
                    f"involution {i}/{k}",
                    square.is_identity(),
                    "factor squares to the identity",
                )
            )
    checks.insert(
        0,
        (
            "recomposition",
            prod == fz.target,
            "product of factors equals the target exactly",
        ),
    )
    budget = factor_budget(n, fz.mode, det == -ONE)
    checks.append(
        (
            "count",
            len(fz.factors) <= budget,
            f"{len(fz.factors)} factors within budget {budget}",
        )
    )
    return FactorReport(checks)


class CertificateError(ValueError):
    pass


_MODES = ("reversible", "involutive")
_FACTOR_KINDS = ("reversible", "involution", "order4-reversible", "linear")
_WITNESS_KINDS = ("reverser", "involutive_reverser", "involution_self")


def _digest(payload: dict) -> str:
    body = {k: v for k, v in payload.items() if k != "digest"}
    canon = json.dumps(body, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()


def certificate(fz: Factorization) -> dict:
    payload = {
        "format": "revfactor-certificate",
        "version": 1,
        "mode": fz.mode,
        "degree": fz.target.trunc,
        "target": format_map(fz.target),
        "factors": [
            {
                "map": format_map(f.map),
                "kind": f.kind,
                "witness": f.witness.to_json(),
            }
            for f in fz.factors
        ],
        "trace": list(fz.trace),
    }
    payload["digest"] = _digest(payload)
    return payload


def format_certificate(cert: dict) -> str:
    return json.dumps(cert, indent=2, sort_keys=True) + "\n"


def parse_certificate(text: str) -> dict:
    try:
        cert = json.loads(text)
    except ValueError as exc:
        # JSONDecodeError, or an integer literal over the int-string limit
        raise CertificateError(f"not valid JSON: {exc}") from None
    except RecursionError:
        raise CertificateError("not valid JSON: nested too deeply") from None
    if not isinstance(cert, dict) or cert.get("format") != "revfactor-certificate":
        raise CertificateError("missing certificate format marker")
    for key in _CERT_KEYS:
        if key not in cert:
            raise CertificateError(f"certificate lacks the '{key}' field")
    return cert


# field name -> JSON type, for the certificate, each factor and each witness
_CERT_FIELDS = {
    "version": int,
    "mode": str,
    "degree": int,
    "target": str,
    "factors": list,
    "trace": list,
}
_CERT_KEYS = ("format", *_CERT_FIELDS, "digest")
_FACTOR_FIELDS = {"map": str, "kind": str, "witness": dict}
_WITNESS_FIELDS = {"kind": str, "h": str, "degree": int}


def _check_fields(node, fields: dict, where: str) -> None:
    if not isinstance(node, dict):
        raise CertificateError(f"{where} must be an object")
    for key, kind in fields.items():
        if key not in node:
            raise CertificateError(f"{where} lacks the '{key}' field")
        value = node[key]
        # bool is an int subclass, but true is not a degree
        if not isinstance(value, kind) or isinstance(value, bool):
            raise CertificateError(
                f"{where}: '{key}' must be {kind.__name__}, not {type(value).__name__}"
            )


def certificate_factorization(cert: dict) -> Factorization:
    _check_fields(cert, _CERT_FIELDS, "certificate")
    # a field this reader does not know could carry meaning it would ignore
    for key in cert:
        if key not in _CERT_KEYS:
            raise CertificateError(f"unknown certificate field {key!r}")
    if cert["version"] != 1:
        raise CertificateError(f"unknown certificate version {cert['version']}")
    for k, item in enumerate(cert["factors"], 1):
        _check_fields(item, _FACTOR_FIELDS, f"factor {k}")
        _check_fields(item["witness"], _WITNESS_FIELDS, f"factor {k} witness")
    if not all(isinstance(step, str) for step in cert["trace"]):
        raise CertificateError("'trace' must be a list of strings")
    # a format error names the field it is in and the line:col inside it
    where, text = "target", cert["target"]
    try:
        target = parse_map(text)
        factors = []
        for k, item in enumerate(cert["factors"], 1):
            where, text = f"factor {k} map", item["map"]
            g = parse_map(text)
            w = item["witness"]
            where, text = f"factor {k} witness", w["h"]
            # an involution is its own witness: the same text is the same map
            h = g if text == item["map"] else parse_map(text)
            factors.append(
                Factor(g, Witness(w["kind"], h, w["degree"]), item["kind"])
            )
    except TextFormatError as exc:
        line, col = exc.line_col(text)
        raise CertificateError(f"{where}:{line}:{col}: {exc}") from None
    # an unknown value must not fall through to some default check
    if cert["mode"] not in _MODES:
        raise CertificateError(f"unknown mode {cert['mode']!r}")
    if cert["degree"] != target.trunc:
        raise CertificateError(
            f"degree {cert['degree']} differs from the target's N={target.trunc}"
        )
    shape = (target.nvars, target.trunc)
    for k, f in enumerate(factors, 1):
        if f.kind not in _FACTOR_KINDS:
            raise CertificateError(f"factor {k}: unknown kind {f.kind!r}")
        if f.witness.kind not in _WITNESS_KINDS:
            raise CertificateError(f"factor {k}: unknown witness kind {f.witness.kind!r}")
        for name, m in (("map", f.map), ("witness", f.witness.h)):
            if (m.nvars, m.trunc) != shape:
                raise CertificateError(
                    f"factor {k}: {name} has n={m.nvars} N={m.trunc}, "
                    f"the target n={shape[0]} N={shape[1]}"
                )
        if f.witness.checked_degree != target.trunc:
            raise CertificateError(
                f"factor {k}: witness degree {f.witness.checked_degree} "
                f"differs from the target's N={target.trunc}"
            )
    return Factorization(target, cert["mode"], tuple(factors), tuple(cert["trace"]))


def _truncate_factorization(fz: Factorization, degree: int) -> Factorization:
    factors = tuple(
        Factor(
            f.map.truncate(degree),
            Witness(f.witness.kind, f.witness.h.truncate(degree), degree),
            f.kind,
        )
        for f in fz.factors
    )
    return Factorization(fz.target.truncate(degree), fz.mode, factors, fz.trace)


def verify_certificate(cert: dict, degree: int | None = None) -> FactorReport:
    """Replay a certificate's checks by composition.

    ``degree`` asks for verification at that truncation; a certificate
    only claims its embedded degree, so a higher request is refused."""
    digest_ok = _digest(cert) == cert.get("digest")
    fz = certificate_factorization(cert)
    if degree is not None:
        if degree > fz.target.trunc:
            raise CertificateError(
                f"certificate claims degree {fz.target.trunc}; "
                f"cannot verify at degree {degree}"
            )
        if degree < fz.target.trunc:
            fz = _truncate_factorization(fz, degree)
    report = verify_factorization(fz)
    report.checks.insert(
        0, ("digest", digest_ok, "sha256 over the canonical payload")
    )
    return report
