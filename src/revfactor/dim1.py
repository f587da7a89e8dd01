"""One-variable building blocks for the factor pipelines.

Everything here works on FormalMap instances with a single variable.
The multiplier (linear coefficient) of the maps we split is 1 or -1;
those are the only values that can appear at the bottom of the pair
recursion.

The common engine is a degree-by-degree solver for coefficient
equations.  Tangent functional equations have no eigenvalue separation,
so instead of dividing by multiplier differences we *probe*: each
unknown coefficient enters the first equation it influences affinely,
and we detect that influence numerically rather than symbolically.

The solver works on degree slices: the equation at degree d is built
from maps truncated at d, since the degree-d coefficient of a composite
or an inverse depends only on the parts of degree <= d.  Each unknown
sits in a slot of known degree and cannot move any coefficient below
it, so at degree d only the unknowns with slots at or below d are
probed.

The order-four reversed family needs no probing: its defining equation
is triangular, and ``quarter_family`` solves it one coefficient at a
time.  Nor does the quadratic dress that flattens the quartic slot of a
cubic-led map, which has a closed form.
"""

from __future__ import annotations

from .maps import FormalMap, dress, is_involution, map_compose, map_invert
from .normalform import Obstruction, Witness, verify_witness
from .scalars import ONE, ZERO, Scalar, rat, reverser_seeds, scalar
from .series import DegreeTable, Series

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
# the degree-by-degree probe solver

def _slices(F: FormalMap) -> list:
    """F truncated at each degree d = 0..N, as entry d (entry 0 unused)."""
    return [None] + [F.truncate(d) for d in range(1, F.trunc + 1)]


def _solve_degreewise(build, slots, N: int):
    """Drive the coefficients of build(params, d) in degrees 2..N to zero.

    build(params, d) returns a one-variable Series truncated at d, and
    slots[i] is the lowest degree parameter i can move.  Parameters start
    at zero; at each degree d the first free parameter that moves the
    degree-d coefficient (and whose affine estimate actually clears it)
    is consumed.  A parameter whose slot lies above d would show a slope
    of exactly zero, so it is not probed there.  Parameters never
    consumed stay zero -- in a staggered system those are genuine free
    choices.  The solved parameter list is re-verified on build(params,
    N) at the end, so a non-None return is a checked solution.
    """
    params = [ZERO] * len(slots)
    free = list(range(len(slots)))
    for d in range(2, N + 1):
        base = build(params, d).coefficient((d,))
        if base.is_zero():
            continue
        solved = False
        # Highest index first: a parameter's first (affine) influence
        # degree grows with its index, so at degree d the genuine unknown
        # is the highest-indexed one that moves the coefficient.  Lower
        # indices only echo nonlinearly; the two-point probe rejects them.
        for idx in reversed(free):
            if slots[idx] > d:
                continue
            probe = list(params)
            probe[idx] = probe[idx] + ONE
            v1 = build(probe, d).coefficient((d,))
            slope = v1 - base
            if slope.is_zero():
                continue
            probe[idx] = probe[idx] + ONE
            if build(probe, d).coefficient((d,)) - v1 != slope:
                continue
            cand = list(params)
            cand[idx] = params[idx] - base / slope
            if build(cand, d).coefficient((d,)).is_zero():
                params = cand
                free.remove(idx)
                solved = True
                break
        if not solved:
            return Obstruction(
                d, 1, (d,), base, ZERO,
                "no free coefficient controls this degree",
            )
    final = build(params, N)
    for d in range(2, N + 1):
        v = final.coefficient((d,))
        if not v.is_zero():
            return Obstruction(d, 1, (d,), v, ZERO, "solution failed recheck")
    return params


def _dressing(c: Scalar, params, N: int) -> FormalMap:
    data = {1: c}
    for k, v in enumerate(params, start=2):
        data[k] = v
    return poly1(data, N)


def reverser_search(g: FormalMap, seeds=None):
    """Search for h with h^-1 g h = g^-1, one linear seed at a time.

    Seeds default to the twelfth roots of unity compatible with the
    lowest coefficient of g.  Returns a verified Witness or None.
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
        # a reverser conjugates g to its inverse
        h = conjugate_to(g, ginv, c)
        if h is None:
            continue
        kind = (
            "involutive_reverser"
            if map_compose(h, h).is_identity()
            else "reverser"
        )
        w = Witness(kind, h, N)
        if verify_witness(g, w):
            return w
    return None


def conjugate_to(g: FormalMap, target: FormalMap, c=ONE):
    """h with h^-1 o g o h == target (multiplier of h is c), or None."""
    N = g.trunc
    c = scalar(c)
    gs, ts = _slices(g), _slices(target)
    # one substitution table per slice of the target serves every probe
    tables = [{} for _ in ts]

    def build(params, d):
        h = _dressing(c, params, d)
        return map_compose(gs[d], h).comps[0] - map_compose(h, ts[d], tables[d]).comps[0]

    sol = _solve_degreewise(build, range(2, N + 1), N)
    if isinstance(sol, Obstruction):
        return None
    return _dressing(c, sol, N)


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
    w = Witness("involutive_reverser", dress([flip(N)], s, map_invert(s))[0], N)
    return w if verify_witness(g, w) else None


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
    ``DegreeTable``.  A is checked against the witness equation
    A o h o A = h before it is returned.
    """
    c = scalar(c)
    data = {1: ONE, 3: c}
    B = DegreeTable(poly1({1: ONE}, N).comps)
    for k in range(2, N + 1):
        if k % 4 == 1:
            A_high = Series(1, N, {(d,): v for d, v in data.items() if d > 1})
            data[k] = B.part(A_high, k).coefficient((k,)) / -2
        if k < N:
            b = data.get(k, ZERO)
            B.extend([Series(1, N, {(k,): -b if k % 4 == 3 else b})], k)
    A = poly1(data, N)
    h = quarter_turn(N)
    if map_compose(map_compose(A, h), A) != h:  # pragma: no cover
        raise AssertionError("family equation failed")
    return A


def quarter_witness(N: int) -> Witness:
    return Witness("reverser", quarter_turn(N), N)


def _class_member(c3: Scalar, c4: Scalar, N: int):
    """The order-four reversed map with prescribed cubic and quartic
    coefficients, plus its witness.  A quadratic dress of the odd family
    tunes the quartic slot; the quintic coefficient is then forced."""
    A = quarter_family(c3, N)
    if c4.is_zero():
        return A, quarter_witness(N)
    v = poly1({1: ONE, 2: c4 / c3}, N)
    A, h = dress([A, quarter_turn(N)], v, map_invert(v))
    return A, Witness("reverser", h, N)


# ---------------------------------------------------------------------------
# splitting into at most two reversible factors

def _p1_split(g: FormalMap):
    """Quadratic-led tangent map as (homography class) o (order-four class)."""
    N = g.trunc
    gs, fs = _slices(g), _slices(mobius(coeff(g, 2), N))
    tables = [{} for _ in gs]
    unit = quarter_family(ONE, N)

    def family(c, d):
        # t -> a t with a^2 = c conjugates the c = 1 member to the one
        # with cubic coefficient c; the family is odd, so its degree-k
        # coefficient scales by c^((k-1)/2) and no root is taken
        return poly1({k: coeff(unit, k) * c ** ((k - 1) // 2) for k in range(1, d + 1, 2)}, d)

    # g = s o f o s^-1 o A is solved as u o g = f o u o A for u = s^-1,
    # which needs no inverse per probe
    def build(params, d):
        u, A = _dressing(ONE, [ZERO] + params[1:], d), family(params[0], d)
        return (
            map_compose(u, gs[d], tables[d]).comps[0]
            - map_compose(fs[d], map_compose(u, A)).comps[0]
        )

    # params[0] is the family's cubic coefficient; the rest fill u from
    # degree 3 up
    sol = _solve_degreewise(build, [3] + list(range(3, N)), N)
    if isinstance(sol, Obstruction):  # pragma: no cover - always solvable
        raise AssertionError(f"quadratic-led split failed: {sol.note}")
    s = map_invert(_dressing(ONE, [ZERO] + sol[1:], N))
    # the solve fixes s below degree N only; F does not see its degree-N
    # coefficient, but at even N the witness s o flip o s^-1 does: zero
    # it, and add it to u so that u stays the inverse of s
    top = coeff(s, N)
    s = _dressing(ONE, [coeff(s, k) for k in range(2, N)], N)
    u = _dressing(ONE, [ZERO] + sol[1:] + [top], N)
    F, h = dress([fs[N], flip(N)], s, u)
    A = quarter_family(sol[0], N)
    parts = [(F, Witness("involutive_reverser", h, N)), (A, quarter_witness(N))]
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
    F, wF = _class_member(x, y, N)
    G = map_compose(map_invert(F), gt)
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
    F = mobius(ONE, N)
    G = map_compose(map_invert(F), g)
    wG = mobius_witness(G)
    if wG is None:  # pragma: no cover - invariant is additive
        raise AssertionError("shift cofactor lost the homography class")
    return [(F, Witness("involutive_reverser", flip(N), N)), (G, wG)]


def split_reversibles(g: FormalMap, seeds=None):
    """A one-variable map with multiplier +-1 as at most two reversible
    factors, each with a verified reversing witness.

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
    for _ in range(3):
        u = poly1({1: ONE, 2: u2}, N)
        uinv = map_invert(u)
        R = dress([core], u, uinv)[0]
        B = map_compose(map_invert(R), g)
        if B.is_identity() or not coeff(B, 2).is_zero():
            break
        u2 = u2 + ONE
    if is_involution(R):
        wR = Witness("involution_self", R, N)
    else:
        wR = Witness("reverser", dress([quarter_turn(N)], u, uinv)[0], N)
        if not verify_witness(R, wR):  # pragma: no cover
            raise AssertionError("flip factor lost its witness")
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
