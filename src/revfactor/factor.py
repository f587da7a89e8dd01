"""Factor pipelines: reversible and involutive factorizations with
verified witnesses, plus portable certificates.

The drivers accept maps whose linear part is diagonal (or upper
triangular with distinct eigenvalues, which is diagonalized first) and
has determinant +-1.  A diagonal that is not pair-reciprocal has one
split, ``_split_diagonal``, into two strongly reversible linear factors
and a generic paired rest.  One routine, ``_rebalance``, composes a
linear map onto the map, diagonalizes, permutes and normalizes, for that
rest and for each fresh-prime rebalance.  The engine walks the pair
recursion: split the map against the half-dimensional base, recurse, and
lift the child factors back through the section homomorphism.  Each
piece carries a flat witness spec: itself (an involution), a reverser h,
or a framed permutation C o P o C^-1.  Lifting and dressing act on the
spec, and one constructor turns it into a verified witness at the top.
In involutive mode each piece is split into involutions there instead,
before any conjugation, and the squares of the involutions are its
check.

A factorization can be frozen into a JSON certificate whose digest
covers the target, the factors, their witnesses and the trace; the
verifier replays everything by composition alone.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from math import prod

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
from .series import Table
from .structure import (
    PairedDiagonal,
    ShapeError,
    _half_weights,
    _weighted_canonical,
    centralizer_membership,
    extract_unit_shape,
    fresh_prime_diagonal,
    half_counts,
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
        """The product of the factors, in order; the identity when there
        are none."""
        if not self.factors:
            return FormalMap.identity(self.target.nvars, self.target.trunc)
        prod = self.factors[0].map
        for f in self.factors[1:]:
            prod = map_compose(prod, f.map)
        return prod


# ---------------------------------------------------------------------------
# witness specs: flat, liftable witnesses
#
# A piece is (map, spec, kind), and its spec is SELF (the map is an
# involution), a reverser h of unit shape, or a Framed permutation.  The
# section is a homomorphism, so dressing a piece at its own width and then
# lifting gives the same map as lifting and then dressing, and one folded
# frame gives the same map as dressing level by level.

class _SelfSpec:
    """Witness is the factor itself (an involution)."""


SELF = _SelfSpec()


@dataclass(frozen=True)
class Framed:
    """The witness C o P o C^-1 for the permutation map P and the frame C
    (the identity when None); inverse is C^-1."""

    perm: tuple
    frame: FormalMap | None = None
    inverse: FormalMap | None = None


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


def _involution(m: FormalMap) -> Factor:
    """The involution m as a factor that is its own witness."""
    return Factor(m, Witness("involution_self", m, m.trunc), "involution")


def _spec_witness(m: FormalMap, spec) -> Witness:
    """The witness a spec stands for, unchecked."""
    N = m.trunc
    if spec is SELF:
        return Witness("involution_self", m, N)
    if isinstance(spec, Framed):
        # P is an involution, so C o P o C^-1 is one
        P = FormalMap.permutation(spec.perm, N)
        h = P if spec.frame is None else dress([P], spec.frame, spec.inverse)[0]
        return Witness("involutive_reverser", h, N)
    return Witness("reverser", spec, N)


def _piece_factor(piece) -> Factor:
    """The one place a reversible factor is made: its spec turns into a
    Witness, which is verified before the factor is handed on."""
    m, spec, kind = piece
    w = _spec_witness(m, spec)
    if not verify_witness(m, w):
        raise AssertionError(f"{kind} piece failed its {w.kind} check")
    # one square of a checked reverser h labels it
    if w.kind == "reverser" and map_compose(spec, spec).is_identity():
        w = Witness("involutive_reverser", spec, m.trunc)
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


def _lift_piece(piece, n: int):
    """A piece over ceil(n/2) base variables lifted to n variables."""
    m, spec, kind = piece
    if isinstance(spec, Framed):
        C, Cinv = spec.frame, spec.inverse
        try:
            perm = lift_permutation(spec.perm, n)
        except ShapeError:
            # The permutation cannot pass through an odd parent: pair
            # reciprocal units in the lifted, un-framed piece instead.
            bare = m if C is None else dress([m], Cinv, C)[0]
            perm = unit_pairing_perm(lift_section(bare, n))
            if perm is None:
                raise FactorObstruction(
                    "no liftable reverser found for a kernel piece"
                ) from None
        if C is not None:
            C, Cinv = lift_section(C, n), lift_section(Cinv, n)
        spec = Framed(perm, C, Cinv)
    elif spec is not SELF:
        spec = lift_section(spec, n)
    return lift_section(m, n), spec, kind


def _dress_pieces(pieces, K: FormalMap, Kinv: FormalMap) -> list:
    """Each piece conjugated to K o m o Kinv, Kinv the inverse of K: the
    maps and every reverser h on one substitution table for Kinv, with K
    composed into each frame.  A conjugated involution is still its own
    witness, so SELF stays."""
    hs = [spec for _, spec, _ in pieces if isinstance(spec, FormalMap)]
    dressed = dress([m for m, _, _ in pieces] + hs, K, Kinv)
    dressed_hs = iter(dressed[len(pieces):])
    out = []
    for m, (_, spec, kind) in zip(dressed, pieces):
        if isinstance(spec, Framed):
            if spec.frame is None:
                spec = Framed(spec.perm, K, Kinv)
            else:
                spec = Framed(
                    spec.perm,
                    map_compose(K, spec.frame),
                    map_compose(spec.inverse, Kinv),
                )
        elif spec is not SELF:
            spec = next(dressed_hs)
        out.append((m, spec, kind))
    return out


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


def _inverse_perm(perm):
    out = [0] * len(perm)
    for i, j in enumerate(perm):
        out[j] = i
    return tuple(out)


def _split_diagonal(entries):
    """A diagonal of determinant 1 that is not pair-reciprocal as
    T1 * T2 * T3, entry by entry: T1 is pair-reciprocal, and T2 and T3
    are pair-reciprocal and generic after one permutation sigma, read as
    (T^sigma)_i = T_{sigma(i)}.  Returns the entries of T1 and T2, and
    sigma.

    T1 holds the running prefix products, so pair i of the rest d / T1
    multiplies to d_{2i} d_{2i+1}: the identity never pairs it.  The
    candidates are the swap of the first and last slot, then the cyclic
    shift, which always pairs it.  Fresh primes dividing no numerator or
    denominator of the paired rest go into T2, and T3 keeps their
    reciprocals."""
    n = len(entries)
    if n < 2:
        raise ValueError("need at least two variables")
    if prod(entries, start=ONE) != ONE:
        raise ValueError("determinant must be 1 to split the diagonal")
    t1 = []
    run = ONE
    for i in range(n // 2):
        run = run * entries[2 * i]
        t1 += [run, run.inverse()]
        run = run * entries[2 * i + 1]
    if n % 2:
        t1.append(ONE)  # the full product is det == 1
    rest = [x / y for x, y in zip(entries, t1)]
    swap = list(range(n))
    swap[0], swap[n - 1] = n - 1, 0
    for sigma in (tuple(swap), tuple((i + 1) % n for i in range(n))):
        mult = _paired_entries([rest[j] for j in sigma])
        if mult is not None:
            break
    else:  # pragma: no cover - the cyclic shift always pairs the rest
        raise AssertionError("no admissible permutation")
    for a in mult:
        if not a.is_rational():
            raise ValueError(
                f"the fresh-prime rebalance needs rational multipliers, "
                f"but the diagonal split leaves the multiplier {a}"
            )
    fresh = fresh_prime_diagonal(n, avoid=mult)
    first = PairedDiagonal(
        tuple(a * p for a, p in zip(mult, fresh.multipliers)), n
    )
    if not first.is_generic():  # pragma: no cover - fresh primes are independent
        raise AssertionError("fresh primes failed to give a generic factor")
    t2 = first.entries()
    return tuple(t1), tuple(t2[j] for j in _inverse_perm(sigma)), sigma


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


def _rebalance(X: FormalMap, M: Matrix, sigma: tuple, what: str, trace):
    """Compose the linear map M onto X, diagonalize what stays triangular
    with E, conjugate by the permutation map P of sigma unless sigma is
    the identity (a diagonal T becomes T^sigma), and normalize:
    P o E^-1 o M o X o E o P^-1 = K o G o K^-1.  Returns (G, C, C^-1) for
    the frame C = E o P^-1 o K, so M o X = C o G o C^-1."""
    N = X.trunc
    Y, E = _diagonalized(map_compose(FormalMap.from_linear(M, N), X))
    permuted = sigma != tuple(range(len(sigma)))
    if permuted:
        P = FormalMap.permutation(sigma, N)
        Pinv = FormalMap.permutation(_inverse_perm(sigma), N)
        Y = dress([Y], P, Pinv)[0]
    G, C, Cinv = _paired_normal_form(Y, what, trace)
    if permuted:
        C, Cinv = map_compose(Pinv, C), map_compose(Cinv, P)
    if E is not None:
        C = map_compose(FormalMap.from_linear(E, N), C)
        Cinv = map_compose(Cinv, FormalMap.from_linear(E.inverse(), N))
    return G, C, Cinv


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
            (m, w.h, _kind_for_witness(w)) for m, w in dim1.split_reversibles(X)
        ]
    pre = []
    K = None
    if centralizer_membership(X):
        G = X
        trace.append(f"paired member at width {k}: direct split")
    else:
        # a trailing-slot shear from resonant pair products is diagonalized
        D = fresh_prime_diagonal(k).matrix()
        what = f"normal form at width {k}"
        G, K, Kinv = _rebalance(X, D, tuple(range(k)), what, trace)
        Dinv = FormalMap.from_linear(D.inverse(), N)
        pre.append((Dinv, Framed(swap_perm(k)), "linear"))
        trace.append(f"fresh-prime rebalance and normalization at width {k}")
    chi, Phi = split_centralizer(G)
    inner = [
        _lift_piece(p, k)
        for p in _factor_unit_group(
            chi, _half_weights(weights), k % 2 == 1, mode, trace
        )
    ]
    if not Phi.is_identity():
        inner.append((Phi, Framed(swap_perm(k)), "reversible"))
    if K is not None:
        inner = _dress_pieces(inner, K, Kinv)
    return pre + inner


# ---------------------------------------------------------------------------
# two-variable involutive base

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
    chi_i, Phi = split_centralizer(N1)
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
    X0 = FormalMap.from_linear(T * L1.inverse() * T.inverse(), N)
    W0 = FormalMap.from_linear(
        T * Matrix.permutation((1, 0)) * T.inverse(), N
    )
    outer = [map_compose(X0, W0), W0]
    J = pair_swap(2, N)
    kernel = [] if Phi.is_identity() else [map_compose(Phi, J), J]
    # _involutionize squares no SELF piece: the lifted base involutions
    # were squared by involution_pair, and these four are squared here,
    # before dressing
    if not all(is_involution(I) for I in outer + kernel):
        raise AssertionError("a balancing involution failed its square check")
    D = map_compose(Tm, K1)
    Dinv = map_compose(K1inv, FormalMap.from_linear(T.inverse(), N))
    trace.append("order-four balancing over SL(2) at width 2")
    return outer + dress(inner + kernel, D, Dinv)


def _base2_involutions(chi: FormalMap, trace) -> list:
    """Involution pieces multiplying to lift(chi) for a one-variable base
    map: a quadratic-led homography piece (two involutions), then either a
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
        out += [(lift_section(I, 2), SELF, "involution") for I in parts]
    if not rest.is_identity():
        theta = dim1.theta_invariant(rest)
        if theta.is_zero():
            parts = dim1.split_involutions(rest)
            if isinstance(parts, Obstruction):  # pragma: no cover
                raise FactorObstruction("remainder obstructed", obstruction=parts)
            out += [(lift_section(I, 2), SELF, "involution") for I in parts]
        else:
            S = lift_section(rest, 2)
            out += [(I, SELF, "involution") for I in _s_machine(S, trace)]
    return out


# ---------------------------------------------------------------------------
# top drivers

def _split_det_one(W: FormalMap, mode: str, trace) -> list:
    """W, of diagonal or triangular linear part with determinant 1, as
    linear prefix factors times C o G o C^-1 for a paired-centralizer
    element G, whose pieces come from the pair recursion."""
    n, N = W.nvars, W.trunc
    if W.is_identity():
        return []
    entries = W.linear_part().diagonal_entries()
    mult = _paired_entries(entries)
    swap = swap_perm(n)
    pre = []
    C = Cinv = None
    if mult is None:
        T1, T2, sigma = _split_diagonal(entries)
        P = FormalMap.permutation(sigma, N)
        Pinv = FormalMap.permutation(_inverse_perm(sigma), N)
        # the pair swap reverses T1, and its conjugate by P^-1 reverses T2;
        # T1 is the identity when every prefix product is 1, T2 never is
        T1m = FormalMap.diagonal(T1, N)
        pre = [] if T1m.is_identity() else [(T1m, Framed(swap), "linear")]
        pre.append((FormalMap.diagonal(T2, N), Framed(swap, Pinv, P), "linear"))
        # after (T1 T2)^-1 the linear part is T3, generic and paired after sigma
        T12inv = Matrix.diagonal([(a * b).inverse() for a, b in zip(T1, T2)])
        G, C, Cinv = _rebalance(W, T12inv, sigma, "normal form after rebalancing", trace)
        trace.append("split the diagonal and rebalanced to a generic paired part")
    elif centralizer_membership(W):
        G = W
        trace.append("paired-centralizer member: direct split")
    elif PairedDiagonal(mult, n).is_generic():
        # generic resonances are paired, so the check cannot fail
        G, C, Cinv = _paired_normal_form(W, "normal form", trace)
        trace.append("generic paired linear part: normalization")
    else:
        # a leftover triangular part now has distinct eigenvalues
        D = fresh_prime_diagonal(n, avoid=entries).matrix()
        what = "linear part is not paired-generic and the rebalanced normal form"
        G, C, Cinv = _rebalance(W, D, tuple(range(n)), what, trace)
        pre.append((FormalMap.from_linear(D.inverse(), N), Framed(swap), "linear"))
        trace.append("fresh-prime rebalance of a non-generic linear part")
    chi, Phi = split_centralizer(G)
    if mode == "involutive" and n == 2:
        pieces = _base2_involutions(chi, trace)
    else:
        pieces = [
            _lift_piece(p, n)
            for p in _factor_unit_group(
                chi, _half_weights((1,) * n), n % 2 == 1, mode, trace
            )
        ]
    if not Phi.is_identity():
        # the pair swap reverses the kernel part
        pieces.append((Phi, Framed(swap), "reversible"))
    inner = _involutionize(pieces, mode)
    if C is not None:
        inner = _dress_factors(inner, C, Cinv)
    return _involutionize(pre, mode) + inner


def _involutionize(pieces: list, mode: str) -> list:
    """The pieces as factors, or in involutive mode as involutions: a
    piece X that is no involution has a framed h, and X = (X o h) o h once
    ``involution_pair`` has squared both.  Conjugating them later gives
    (C X C^-1) o (C h C^-1) and C h C^-1 exactly, so no split or its
    checks meets a dressed map.  A SELF piece was squared where it was
    made, before any lift (a homomorphism) or dressing (a conjugation),
    so it is kept as it is."""
    if mode != "involutive":
        return [_piece_factor(p) for p in pieces]
    out = []
    for m, spec, _ in pieces:
        if spec is SELF or is_involution(m):
            out.append(_involution(m))
        else:
            pair = dim1.involution_pair(m, _spec_witness(m, spec))
            out += [_involution(I) for I in pair]
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
    if E is not None:
        core = _dress_factors(
            core, FormalMap.from_linear(E, N), FormalMap.from_linear(E.inverse(), N)
        )
    factors += core
    return _recomposed(Factorization(F, mode, tuple(factors), tuple(trace)))


def _recomposed(fz: Factorization) -> Factorization:
    """fz, once its factors are checked to compose to its target: the
    one recomposition each front end makes."""
    if fz.recompose() != fz.target:
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
    factors = tuple(
        _piece_factor(
            (m, SELF if w.kind == "involution_self" else w.h, _kind_for_witness(w))
        )
        for m, w in dim1.split_reversibles(g, seeds=seeds)
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
    prod = None if k else FormalMap.identity(n, fz.target.trunc)
    for i, f in enumerate(fz.factors, start=1):
        # one substitution table for f serves every composition with f
        # inside: the recomposition step, the square and (f o h) o f; one
        # square serves the involution check and the witness check
        table = Table(f.map.comps)
        prod = f.map if prod is None else map_compose(prod, f.map, table)
        square = map_compose(f.map, f.map, table) if fz.mode == "involutive" else None
        checks.append(
            (
                f"witness {i}/{k}",
                verify_witness(f.map, f.witness, square, table),
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
    factors = []
    for f in fz.factors:
        text, w = format_map(f.map), f.witness
        # an involution is its own witness: its text is the map's
        h = text if w.h is f.map else format_map(w.h)
        witness = {"kind": w.kind, "h": h, "degree": w.checked_degree}
        factors.append({"map": text, "kind": f.kind, "witness": witness})
    payload = {
        "format": "revfactor-certificate",
        "version": 1,
        "mode": fz.mode,
        "degree": fz.target.trunc,
        "target": format_map(fz.target),
        "factors": factors,
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
