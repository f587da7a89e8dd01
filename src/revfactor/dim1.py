"""One-variable building blocks for the factor pipelines.

Everything here works on FormalMap instances with a single variable.
The multiplier (linear coefficient) of the maps we split is 1 or -1;
those are the only values that can appear at the bottom of the pair
recursion.

Conjugacy is solved degree by degree (``conjugate_to``): one equation
may move several unknowns, and the solver takes the highest one whose
slope, read off g' o h, is nonzero, then rechecks the whole equation.
The splitters return witnesses unchecked, each exact by construction or
just solved for: a factor is checked once, where it is made, by
``involution_pair`` or by the factor pipeline.

The order-four reversed family is solved directly: its defining
equation is triangular, and ``quarter_family`` solves it one
coefficient at a time; its member for -c is the inverse of its member
for c.  The quadratic-led split peels that family's member for the
cubic invariant, and the quadratic dress that flattens the quartic slot
of a cubic-led map has a closed form.
"""

from __future__ import annotations

from .maps import FormalMap, dress, is_involution, map_compose, map_invert
from .normalform import Obstruction, Witness
from .scalars import ONE, ZERO, Scalar, rat, reverser_seeds, scalar
from .series import Series, Table, compose

I_UNIT = Scalar(0, 1)


def poly1(coeffs: dict, N: int) -> FormalMap:
    """One-variable map from {degree: coefficient}."""
    data = {}
    for d, v in coeffs.items():
        if 1 <= d <= N:
            v = scalar(v)
            if not v.is_zero():
                data[(d,)] = v
    return FormalMap([Series(1, N, data)])


def coeff(g: FormalMap, d: int) -> Scalar:
    return g.comps[0].coefficient((d,))


def multiplier(g: FormalMap) -> Scalar:
    return coeff(g, 1)


def lowest_nonlinear_degree(g: FormalMap):
    """Smallest degree >= 2 carrying a coefficient, or None."""
    degs = [e[0] for e in g.comps[0].coeffs if e[0] >= 2]
    return min(degs) if degs else None


def flip(N: int) -> FormalMap:
    """The linear involution t -> -t."""
    return poly1({1: -ONE}, N)


def quarter_turn(N: int) -> FormalMap:
    """The order-four linear map t -> i t."""
    return poly1({1: I_UNIT}, N)


def mobius(beta, N: int) -> FormalMap:
    """The homography t / (1 - beta t), truncated."""
    beta = scalar(beta)
    return poly1({d: beta ** (d - 1) for d in range(1, N + 1)}, N)


def theta_invariant(g: FormalMap) -> Scalar:
    """Additive cubic invariant on the multiplier +-1 group.

    For tangent maps this is g3 - g2^2; it adds under composition and
    scales by c^2 under conjugation by a map with multiplier c.  For
    multiplier -1 we remove a linear flip first.  The invariant vanishes
    on every involution, so it obstructs involution products; a tangent
    map with nonzero invariant can only be reversed by a multiplier of
    order four.
    """
    lam = multiplier(g)
    if lam == -ONE:
        g = map_compose(flip(g.trunc), g)
    elif lam != ONE:
        raise ValueError("invariant defined for multiplier 1 or -1 only")
    return coeff(g, 3) - coeff(g, 2) ** 2


# ---------------------------------------------------------------------------
# conjugacy, degree by degree

def reverser_search(g: FormalMap, seeds=None):
    """Search for h with h^-1 g h = g^-1, one linear seed at a time.

    Seeds default to the twelfth roots of unity compatible with the
    lowest coefficient of g.  Returns a Witness, whose equation
    ``conjugate_to`` has just checked, or None.
    """
    N = g.trunc
    lam = multiplier(g)
    if seeds is None:
        if lam == ONE:
            d = lowest_nonlinear_degree(g)
            if d is None:
                return Witness("involutive_reverser", flip(N), N)
            seeds = reverser_seeds(d - 1)
        else:
            seeds = [c for c in (ONE, -ONE, I_UNIT, -I_UNIT)]
    ginv = map_invert(g)
    for c in seeds:
        # a reverser conjugates g to its inverse: conjugate_to has checked
        # g o h == h o g^-1 with h invertible, the witness equation itself
        h = conjugate_to(g, ginv, c)
        if h is None:
            continue
        kind = (
            "involutive_reverser"
            if map_compose(h, h).is_identity()
            else "reverser"
        )
        return Witness(kind, h, N)
    return None


def conjugate_to(g: FormalMap, target: FormalMap, c=ONE):
    """h with h^-1 o g o h == target (multiplier of h is c), or None;
    always None for c = 0, since h must be invertible.

    Solves g o h = h o T, T the target, degree by degree for
    h = c t + sum_k p_k t^k.  While p_k is free (zero), the degree-d
    coefficient of g o h - h o T moves with p_k at the slope
    [g' o h]_(d-k) - [T^k]_d, by Taylor's formula for g(h + p t^k).  The
    free unknowns with k <= d are tried highest first, and the first with
    a nonzero slope is set to p_k = -base/slope.  Unknowns never taken stay
    zero: in a staggered system those are free choices.  The solution is
    rechecked on the whole equation, and that recheck decides every
    outcome: a wrong h never comes out, at worst None does.

    The dropped Taylor terms [(g^(j)/j!) o h]_(d-jk) p^j, j >= 2, never
    touch the unknowns a degree reaches first.  Let g = lam t + a t^m + ...
    (a != 0) and T = mu t + O(t^m), as for g^-1 and the homographies
    ``mobius_witness`` aims at.  p_d has slope lam - mu^d and, as jd > d,
    no such term.  For d-m+1 < k < d the slope is 0, as g' o h and
    T^k / (mu t)^k have no terms of degree 1 to m-2.  For k = d-m+1 >= 2,
    g^(j)/j! starts at degree m-j > d-jk (j <= m), and d-jk < 0 (j > m).
    Lower unknowns, where the terms can be nonzero, change no outcome
    seen: a solve that kept them, with affinity and root tests, agreed on
    all 19289 calls the splits make on 3000 random maps (multiplier +-1,
    N = 4..10), though it rejected a non-affine candidate 1632 times, and
    gave the same corpus certificates.  ``NON_AFFINE`` in the tests pins
    three such maps.
    """
    N = g.trunc
    c = scalar(c)
    if c.is_zero():
        return None
    gc = [coeff(g, m) for m in range(N + 1)]
    # [T^k]_d is powers[k].coefficient((d,))
    T = Table(target.comps)
    powers = {k: compose(Series(1, N, {(k,): ONE}), target.comps, T) for k in range(1, N + 1)}
    p = {1: c}
    free = list(range(2, N + 1))
    for d in range(2, N + 1):
        h = poly1(p, d).comps
        table = Table(h)
        gh = compose(Series(1, d, {(m,): gc[m] for m in range(d + 1)}), h, table)
        base = gh.coefficient((d,)) - sum((v * powers[k].coefficient((d,)) for k, v in p.items()), ZERO)
        if base.is_zero():
            continue
        # g' o h; p_d is always free, so every degree that gets here uses it
        dg = {(m,): (m + 1) * gc[m + 1] for m in range(min(d, N - 1) + 1)}
        dgh = compose(Series(1, d, dg), h, table)
        for k in reversed([k for k in free if k <= d]):
            slope = dgh.coefficient((d - k,)) - powers[k].coefficient((d,))
            if not slope.is_zero():
                p[k] = -base / slope
                free.remove(k)
                break
        else:
            return None
    h = poly1(p, N)
    return h if map_compose(g, h) == map_compose(h, target) else None


def mobius_witness(g: FormalMap):
    """Involutive reverser for a map conjugate to a standard homography.

    Conjugates g to t/(1 - g2 t) and pulls the exact linear reverser -t
    back through the conjugacy.  Returns a Witness, or None when the
    cubic invariant blocks the conjugacy (the solver hits the
    inconsistent degree on its own; no separate test is needed).
    """
    N = g.trunc
    s = conjugate_to(g, mobius(coeff(g, 2), N))
    if s is None:
        return None
    # s o flip o s^-1 reverses s o f o s^-1 = g exactly, for f the
    # truncated homography: flip o f o flip = f^-1 holds in every degree
    return Witness("involutive_reverser", dress([flip(N)], s, map_invert(s))[0], N)


# ---------------------------------------------------------------------------
# the order-four reversed family

def quarter_family(c, N: int) -> FormalMap:
    """The odd map with cubic coefficient c reversed exactly by t -> i t.

    The defining equation A o h = h o A^-1 (h = i t) says A o B = id,
    where B = h^-1 o A o h is A with the signs of its degree-3-mod-4
    coefficients flipped.  The degree-k coefficient of A o B is
    a_k + b_k + [t^k](A_<k o B_<k), so a_k = -1/2 [t^k](A_<k o B_<k)
    for k = 1 mod 4 (the quintic one comes out as 3/2 c^2).  For
    k = 3 mod 4, b_k = -a_k leaves the slot free: a_3 = c and the
    others are 0, as are the even slots.  B grows on one
    growing ``Table``.

    The inverse of A is B, and B is this family's member for -c: the
    slots k = 1 mod 4 carry c^((k-1)/2) with (k-1)/2 even, so they do not
    see the sign of c.  No caller needs ``map_invert`` for a member.
    """
    c = scalar(c)
    data = {1: ONE, 3: c}
    B = Table(poly1({1: ONE}, N).comps, growing=True)
    for k in range(2, N + 1):
        if k % 4 == 1:
            A_high = Series(1, N, {(d,): v for d, v in data.items() if d > 1})
            data[k] = B.part(A_high, k).coefficient((k,)) / -2
        if k < N:
            b = data.get(k, ZERO)
            B.extend([Series(1, N, {(k,): -b if k % 4 == 3 else b})], k)
    return poly1(data, N)


def quarter_witness(N: int) -> Witness:
    return Witness("reverser", quarter_turn(N), N)


def _class_member(c3: Scalar, c4: Scalar, N: int):
    """The order-four reversed map with prescribed cubic and quartic
    coefficients, its inverse and its witness.  A quadratic dress of the
    odd family tunes the quartic slot; the quintic coefficient is then
    forced."""
    A, Ainv = quarter_family(c3, N), quarter_family(-c3, N)
    if c4.is_zero():
        return A, Ainv, quarter_witness(N)
    v = poly1({1: ONE, 2: c4 / c3}, N)
    A, Ainv, h = dress([A, Ainv, quarter_turn(N)], v, map_invert(v))
    return A, Ainv, Witness("reverser", h, N)


# ---------------------------------------------------------------------------
# splitting into at most two reversible factors

def _p1_split(g: FormalMap):
    """Quadratic-led tangent map as (homography class) o (order-four class).

    The order-four factor A = quarter_family(theta) carries the cubic
    invariant theta of g.  The invariant is additive, so the cofactor
    G = g o A^-1 has invariant zero and keeps g's quadratic term: it lies
    in the homography class, and ``mobius_witness`` reverses it.
    """
    N = g.trunc
    th = theta_invariant(g)
    G = map_compose(g, quarter_family(-th, N))
    wG = mobius_witness(G)
    if wG is None:  # pragma: no cover - invariant is additive
        raise AssertionError("quadratic-led cofactor lost the homography class")
    parts = [(G, wG), (quarter_family(th, N), quarter_witness(N))]
    return [(m, w) for m, w in parts if not m.is_identity()]


def _p2_split(g: FormalMap):
    """Cubic-led tangent map as a product of two order-four reversed maps.

    After flattening the quartic slot by a quadratic dress, the quintic
    defect delta fixes a conic y^2 = (delta/a) x (a - x) relating the
    cubic coefficients x, a - x and the shared quartic coefficient y of
    the two factors; the line y = s x sweeps out rational points, so no
    square roots are needed.
    """
    N = g.trunc
    a = coeff(g, 3)
    # for q = t + c t^2 the quartic coefficient of q^-1 o g o q is
    # g4 + a c, so c = -g4/a flattens it
    q = poly1({1: ONE, 2: -coeff(g, 4) / a}, N)
    qinv = map_invert(q)
    gt = dress([g], qinv, q)[0]
    delta = coeff(gt, 5) - rat(3, 2) * a * a
    if delta.is_zero():
        x, y = 2 * a, ZERO
    else:
        s = ONE
        if (a * s * s + delta).is_zero():
            s = scalar(2)
        x = delta * a / (a * s * s + delta)
        y = s * x
    F, Finv, wF = _class_member(x, y, N)
    G = map_compose(Finv, gt)
    wG = reverser_search(G, seeds=(I_UNIT, -I_UNIT))
    if wG is None:  # pragma: no cover - invariant bookkeeping guarantees it
        raise AssertionError("cofactor left the order-four class")
    F, G, hF, hG = dress([F, G, wF.h, wG.h], q, qinv)
    return [(F, Witness(wF.kind, hF, N)), (G, Witness(wG.kind, hG, N))]


def _shift_split(g: FormalMap):
    """Tangent map with no quadratic or cubic term: shift by the standard
    homography; the cofactor inherits a zero cubic invariant and lands in
    the homography class."""
    N = g.trunc
    # t / (1 + t) is the inverse of the shift t / (1 - t)
    F = mobius(ONE, N)
    G = map_compose(mobius(-ONE, N), g)
    wG = mobius_witness(G)
    if wG is None:  # pragma: no cover - invariant is additive
        raise AssertionError("shift cofactor lost the homography class")
    return [(F, Witness("involutive_reverser", flip(N), N)), (G, wG)]


def split_reversibles(g: FormalMap, seeds=None):
    """A one-variable map with multiplier +-1 as at most two reversible
    factors, each with a reversing witness that the caller checks.

    Returns a list of (factor, Witness) pairs whose left-to-right
    composition is exactly g.  ``seeds`` overrides the linear seeds the
    reverser search tries first.
    """
    N = g.trunc
    lam = multiplier(g)
    if lam == ONE:
        if g.is_identity():
            return []
        d = lowest_nonlinear_degree(g)
        p = d - 1
        if p == 1:
            w = mobius_witness(g)
            if w is not None:
                return [(g, w)]
            out = _p1_split(g)
        elif p == 2:
            w = reverser_search(g, seeds=seeds or (I_UNIT, -I_UNIT))
            out = [(g, w)] if w is not None else _p2_split(g)
        else:
            w = reverser_search(g, seeds=seeds)
            out = [(g, w)] if w is not None else _shift_split(g)
    elif lam == -ONE:
        if is_involution(g):
            return [(g, Witness("involution_self", g, N))]
        w = reverser_search(g, seeds=seeds)
        if w is not None:
            out = [(g, w)]
        else:
            out = _flip_split(g)
    else:
        raise ValueError("one-variable splitter needs multiplier 1 or -1")
    return out


def _flip_split(g: FormalMap):
    """Multiplier -1, not reversible on its own: peel an order-four
    reversed factor carrying the full cubic invariant; the cofactor is
    tangent with invariant zero and a tuned quadratic term, hence in the
    homography class."""
    N = g.trunc
    c = theta_invariant(g)
    u2 = ZERO if not coeff(g, 2).is_zero() else rat(1, 2)
    core = map_compose(flip(N), quarter_family(c, N))
    core_inv = map_compose(quarter_family(-c, N), flip(N))
    for _ in range(3):
        u = poly1({1: ONE, 2: u2}, N)
        uinv = map_invert(u)
        R, Rinv = dress([core, core_inv], u, uinv)
        B = map_compose(Rinv, g)
        if B.is_identity() or not coeff(B, 2).is_zero():
            break
        u2 = u2 + ONE
    if is_involution(R):
        wR = Witness("involution_self", R, N)
    else:
        wR = Witness("reverser", dress([quarter_turn(N)], u, uinv)[0], N)
    if B.is_identity():
        return [(R, wR)]
    wB = mobius_witness(B)
    if wB is None:  # pragma: no cover - invariant was transferred to R
        raise AssertionError("flip cofactor lost the homography class")
    return [(R, wR), (B, wB)]


# ---------------------------------------------------------------------------
# splitting into involutions

def involution_pair(X: FormalMap, w: Witness):
    """Split a map with an involutive reversing witness into two
    involutions: X = (X o h) o h."""
    if w.kind not in ("involutive_reverser", "involution_self"):
        raise ValueError("need an involutive witness to pair-split")
    h = w.h
    I1 = map_compose(X, h)
    if not (is_involution(I1) and is_involution(h)):
        raise AssertionError("pair split produced a non-involution")
    return [I1, h]


def split_involutions(g: FormalMap):
    """A tangent one-variable map as at most four exact involutions.

    The additive cubic invariant vanishes on involutions, so a map with
    nonzero invariant admits no such product; that case is returned as
    an Obstruction rather than an answer.
    """
    if g.is_identity():
        return []
    if multiplier(g) != ONE:
        raise ValueError("involution splitter expects a tangent map")
    th = theta_invariant(g)
    if not th.is_zero():
        return Obstruction(
            3, 1, (3,), th, ZERO,
            "additive cubic invariant obstructs an involution product",
        )
    d = lowest_nonlinear_degree(g)
    if d == 2:
        w = mobius_witness(g)
        if w is None:  # pragma: no cover - invariant vanishes
            raise AssertionError("homography conjugacy failed")
        return involution_pair(g, w)
    parts = _shift_split(g)
    out = []
    for m, w in parts:
        out += involution_pair(m, w)
    return out
