"""One-variable splitters: frozen examples plus randomized round trips."""

import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from revfactor import dim1, maps
from revfactor.dim1 import (
    coeff,
    conjugate_to,
    flip,
    involution_pair,
    mobius,
    mobius_witness,
    multiplier,
    poly1,
    quarter_family,
    quarter_turn,
    reverser_search,
    split_involutions,
    split_reversibles,
    theta_invariant,
)
from revfactor.maps import (
    FormalMap,
    conjugate,
    is_involution,
    map_compose,
    map_invert,
)
from revfactor.normalform import Obstruction, Witness, verify_witness
from revfactor.scalars import ONE, ZERO, Scalar, reverser_seeds, scalar
from revfactor.series import Series


def recompose(factors):
    assert factors, "empty product"
    N = factors[0][0].trunc if isinstance(factors[0], tuple) else factors[0].trunc
    prod = FormalMap.identity(1, N)
    for f in factors:
        m = f[0] if isinstance(f, tuple) else f
        prod = map_compose(prod, m)
    return prod


def small_rationals():
    return st.fractions(min_value=-3, max_value=3, max_denominator=4)


def tangent_map(coeffs, N=6):
    return poly1({1: 1, **{d + 2: c for d, c in enumerate(coeffs)}}, N)


# -- frozen oracles ---------------------------------------------------------

def test_homography_reversed_by_flip():
    f = mobius(1, 6)
    assert [coeff(f, d) for d in range(1, 7)] == [scalar(1)] * 6
    w = mobius_witness(f)
    assert w is not None and w.kind == "involutive_reverser"
    assert w.h == flip(6)


def test_quarter_family_frozen():
    A = quarter_family(1, 6)
    assert A == poly1({1: 1, 3: 1, 5: Fraction(3, 2)}, 6)
    h = quarter_turn(6)
    assert map_compose(A, h) == map_compose(h, map_invert(A))
    A2 = quarter_family(2, 6)
    assert coeff(A2, 5) == scalar(6)  # 3/2 * c^2


def test_quartic_led_map_reversed_by_flip_at_degree_8():
    g = poly1({1: 1, 4: 1, 7: 2}, 8)
    assert map_invert(g) == poly1({1: 1, 4: -1, 7: 2}, 8)
    w = reverser_search(g)
    assert w is not None
    assert verify_witness(g, w)


def test_flip_reverses_quartic_led_map_directly():
    g = poly1({1: 1, 4: 1, 7: 2}, 8)
    V = flip(8)
    assert map_compose(g, V) == map_compose(V, map_invert(g))


def test_invariant_additive_and_scaling():
    F = tangent_map([Fraction(1, 2), 3, 0, 1])
    G = tangent_map([2, -1, 5, 0])
    assert theta_invariant(map_compose(F, G)) == theta_invariant(
        F
    ) + theta_invariant(G)
    c = scalar(3)
    s = poly1({1: c}, 6)
    dressed = map_compose(map_compose(map_invert(s), F), s)
    assert theta_invariant(dressed) == c * c * theta_invariant(F)


def test_quadratic_led_split_carries_invariant():
    g = tangent_map([1, 5, 0, 0])  # theta = 4
    parts = split_reversibles(g)
    assert len(parts) == 2
    F, A = parts[0][0], parts[1][0]
    assert theta_invariant(F).is_zero()
    assert theta_invariant(A) == scalar(4)
    assert coeff(A, 2).is_zero() and coeff(A, 3) == scalar(4)
    assert recompose(parts) == g
    for m, w in parts:
        assert verify_witness(m, w)
    # the second witness has a multiplier of order four
    h = parts[1][1].h
    square = map_compose(h, h)
    assert not square.is_identity() and map_compose(square, square).is_identity()


def test_cubic_led_split_needs_two_order_four_factors():
    g = tangent_map([0, 1, 0, 0])  # t + t^3
    assert reverser_search(g) is None
    parts = split_reversibles(g)
    assert len(parts) == 2
    assert recompose(parts) == g
    for m, w in parts:
        assert verify_witness(m, w)
        lam = multiplier(w.h)
        assert lam * lam == scalar(-1)


def test_order_four_family_member_is_single():
    g = quarter_family(2, 6)
    parts = split_reversibles(g)
    assert len(parts) == 1
    assert verify_witness(g, parts[0][1])


def test_identity_and_linear_flip():
    assert split_reversibles(FormalMap.identity(1, 6)) == []
    parts = split_reversibles(flip(6))
    assert len(parts) == 1 and parts[0][1].kind == "involution_self"


def test_flip_with_cubic_splits_in_two():
    g = poly1({1: -1, 3: 1}, 6)
    parts = split_reversibles(g)
    assert len(parts) <= 2
    assert recompose(parts) == g
    for m, w in parts:
        assert verify_witness(m, w)


def test_multiplier_out_of_range_rejected():
    with pytest.raises(ValueError):
        split_reversibles(poly1({1: 2}, 6))


# -- involution splitting ---------------------------------------------------

def test_homography_two_involutions():
    f = mobius(1, 6)
    parts = split_involutions(f)
    assert len(parts) == 2
    assert all(is_involution(I) for I in parts)
    assert recompose(parts) == f


def test_quartic_led_four_involutions():
    g = poly1({1: 1, 4: 1}, 6)
    parts = split_involutions(g)
    assert len(parts) == 4
    assert all(is_involution(I) for I in parts)
    assert recompose(parts) == g


def test_cubic_invariant_obstructs_involutions():
    g = tangent_map([0, 1, 0, 0])
    out = split_involutions(g)
    assert isinstance(out, Obstruction)
    assert out.degree == 3
    assert out.lhs == scalar(1)


def test_involution_pair_checks_witness_kind():
    f = mobius(1, 6)
    w = reverser_search(quarter_family(1, 6))
    with pytest.raises(ValueError):
        involution_pair(f, w)


def test_zero_seed_finds_no_conjugacy():
    # the zero map solves g o h = h o g^-1 for every g, but is no reverser;
    # reverser_search tries the seeds it is given as they are
    g = poly1({1: 1, 2: 1}, 6)
    assert conjugate_to(g, map_invert(g), 0) is None
    assert reverser_search(g, seeds=(ZERO,)) is None


# -- randomized -------------------------------------------------------------

@settings(max_examples=40, deadline=None)
@given(st.lists(small_rationals(), min_size=5, max_size=5))
def test_random_tangent_splits(cs):
    g = tangent_map(cs)
    parts = split_reversibles(g)
    assert len(parts) <= 2
    if parts:
        assert recompose(parts) == g
    for m, w in parts:
        assert verify_witness(m, w)


@settings(max_examples=40, deadline=None)
@given(st.lists(small_rationals(), min_size=5, max_size=5))
def test_random_flip_splits(cs):
    g = poly1({1: -1, **{d + 2: c for d, c in enumerate(cs)}}, 6)
    parts = split_reversibles(g)
    assert len(parts) <= 2
    if parts:
        assert recompose(parts) == g
    for m, w in parts:
        assert verify_witness(m, w)


@settings(max_examples=40, deadline=None)
@given(
    small_rationals(),
    st.lists(small_rationals(), min_size=3, max_size=3),
)
def test_random_zero_invariant_involutions(c2, rest):
    cs = [c2, Fraction(c2) ** 2] + rest
    g = tangent_map(cs)
    parts = split_involutions(g)
    assert not isinstance(parts, Obstruction)
    assert len(parts) <= 4
    assert all(is_involution(I) for I in parts)
    if parts:
        assert recompose(parts) == g


@settings(max_examples=25, deadline=None)
@given(st.lists(small_rationals(), min_size=7, max_size=7))
def test_random_tangent_splits_degree_8(cs):
    g = tangent_map(cs, N=8)
    parts = split_reversibles(g)
    assert len(parts) <= 2
    if parts:
        assert recompose(parts) == g
    for m, w in parts:
        assert verify_witness(m, w)


# -- the direct solves against the probe solver ------------------------------

def _solve_reference(build, nparams, N, start=2, log=None):
    """The probe solver: drive the coefficients of build(params) in degrees
    start..N to zero, params starting at zero.  At each degree the free
    parameters are probed highest index first, at +1 and +2, and the
    first whose two steps agree (affine) and whose affine root clears the
    coefficient is consumed.  Every build is a whole degree-N map.  When
    ``log`` is a list, it gets ("non-affine", d, idx) for each probe whose
    two steps disagree and ("taken", d, idx) for each parameter consumed."""
    params = [ZERO] * nparams
    free = list(range(nparams))
    for d in range(start, N + 1):
        base = build(params).coefficient((d,))
        if base.is_zero():
            continue
        solved = False
        for idx in reversed(free):
            probe = list(params)
            probe[idx] = probe[idx] + ONE
            v1 = build(probe).coefficient((d,))
            slope = v1 - base
            if slope.is_zero():
                continue
            probe[idx] = probe[idx] + ONE
            if build(probe).coefficient((d,)) - v1 != slope:
                if log is not None:
                    log.append(("non-affine", d, idx))
                continue
            cand = list(params)
            cand[idx] = params[idx] - base / slope
            if build(cand).coefficient((d,)).is_zero():
                if log is not None:
                    log.append(("taken", d, idx))
                params = cand
                free.remove(idx)
                solved = True
                break
        if not solved:
            return Obstruction(
                d, 1, (d,), base, ZERO,
                "no free coefficient controls this degree",
            )
    final = build(params)
    for d in range(start, N + 1):
        v = final.coefficient((d,))
        if not v.is_zero():
            return Obstruction(d, 1, (d,), v, ZERO, "solution failed recheck")
    return params


def _conjugate_to_reference(g, target, c=ONE, log=None):
    """conjugate_to as the probe solver finds h = c t + sum_k p_k t^k from
    g o h = h o target; parameter idx is p_(idx + 2)."""
    N = g.trunc

    def member(params):
        return poly1({1: c, **dict(enumerate(params, start=2))}, N)

    def build(params):
        h = member(params)
        return map_compose(g, h).comps[0] - map_compose(h, target).comps[0]

    sol = _solve_reference(build, N - 1, N, log=log)
    return None if isinstance(sol, Obstruction) else member(sol)


def _quarter_family_reference(c, N):
    """quarter_family as the probe solver found it from A o h = h o A^-1."""
    c = scalar(c)
    h = quarter_turn(N)
    deg = [d for d in range(2, N + 1) if d != 3]

    def member(params):
        return poly1({1: ONE, 3: c, **dict(zip(deg, params))}, N)

    def build(params):
        A = member(params)
        return map_compose(A, h).comps[0] - map_compose(h, map_invert(A)).comps[0]

    sol = _solve_reference(build, len(deg), N)
    assert not isinstance(sol, Obstruction), sol
    return member(sol)


def field_elements():
    return st.builds(Scalar, *[small_rationals()] * 4)


@settings(max_examples=30, deadline=None)
@given(field_elements(), st.integers(2, 10))
def test_quarter_family_solves_its_equation_and_scales(c, N):
    A = quarter_family(c, N)
    h = quarter_turn(N)
    assert map_compose(A, h) == map_compose(h, map_invert(A))
    assert all(coeff(A, k).is_zero() for k in range(2, N + 1, 2))
    assert coeff(A, 3) == (c if N >= 3 else ZERO)
    assert all(coeff(A, k).is_zero() for k in range(7, N + 1, 4))
    unit = quarter_family(1, N)
    assert all(
        coeff(A, k) == coeff(unit, k) * c ** ((k - 1) // 2) for k in range(1, N + 1)
    )
    assert A == _quarter_family_reference(c, N)
    # the member for -c is the inverse
    assert map_compose(A, quarter_family(-c, N)).is_identity()


def _quartic_flattening_reference(g):
    """The dress q = t + c t^2 that the probe solver finds to clear the
    quartic coefficient of q^-1 o g o q."""
    N = g.trunc

    def dress(params):
        return poly1({1: ONE, 2: params[0]}, N)

    def build(params):
        return Series(1, N, {(4,): coeff(conjugate(g, dress(params)), 4)})

    sol = _solve_reference(build, 1, N, start=4)
    assert not isinstance(sol, Obstruction), sol
    return dress(sol)


@st.composite
def cubic_led_maps(draw):
    N = draw(st.integers(4, 8))
    a = draw(small_rationals().filter(bool))
    rest = draw(st.lists(small_rationals(), min_size=N - 3, max_size=N - 3))
    return poly1({1: 1, 3: a, **{d + 4: c for d, c in enumerate(rest)}}, N)


@settings(max_examples=30, deadline=None)
@given(cubic_led_maps())
def test_quartic_flattening_matches_the_probe_solve(g):
    # the first dressing _p2_split makes conjugates g by its quadratic
    # dress q, as q^-1 o g o q
    dresses = []

    def recording(Fs, K, Kinv):
        dresses.append(Kinv)
        return maps.dress(Fs, K, Kinv)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(dim1, "dress", recording)
        parts = dim1._p2_split(g)
    assert recompose(parts) == g
    q = dresses[0]
    assert q == _quartic_flattening_reference(g)
    assert coeff(conjugate(g, q), 4).is_zero()


def _p1_split_reference(g):
    """The quadratic-led split as the probe solve for the family's cubic
    coefficient c and the dressing s of the homography f: every build
    dresses f as s o f o s^-1, inverting s."""
    N = g.trunc
    f = mobius(coeff(g, 2), N)

    def dressed(F, s):
        # through the module, so that _counted sees it
        return map_compose(map_compose(s, F), maps.map_invert(s))

    def dressing(params):
        # params[0] is c; the rest fill s from degree 3 up
        return poly1({1: ONE, **dict(enumerate(params[1:], start=3))}, N)

    def build(params):
        F = dressed(f, dressing(params))
        return g.comps[0] - map_compose(F, quarter_family(params[0], N)).comps[0]

    sol = _solve_reference(build, N - 2, N)
    assert not isinstance(sol, Obstruction), sol
    s = dressing(sol)
    parts = [(dressed(f, s), Witness("involutive_reverser", dressed(flip(N), s), N)),
             (quarter_family(sol[0], N), dim1.quarter_witness(N))]
    return [(m, w) for m, w in parts if not m.is_identity()]


@st.composite
def quadratic_led_maps(draw):
    N = draw(st.integers(3, 9))
    a = draw(small_rationals().filter(bool))
    rest = draw(st.lists(small_rationals(), min_size=N - 2, max_size=N - 2))
    return poly1({1: 1, 2: a, **{d + 3: c for d, c in enumerate(rest)}}, N)


@settings(max_examples=30, deadline=None)
@given(quadratic_led_maps())
def test_p1_split_matches_the_probe_solve_on_s(g):
    parts = dim1._p1_split(g)
    assert parts == _p1_split_reference(g)
    assert recompose(parts) == g


def test_p1_split_inverts_as_often_at_every_degree():
    # only the homography factor's conjugator is inverted, once
    g6, g10 = (poly1({1: 1, 2: 1, 3: 3, 5: 1}, N) for N in (6, 10))

    def inversions(split, g):
        return _counted("map_invert", split, g)[1]

    assert inversions(dim1._p1_split, g6) == inversions(dim1._p1_split, g10)
    assert inversions(_p1_split_reference, g6) < inversions(_p1_split_reference, g10)


@pytest.mark.parametrize("N", [5, 6, 7, 8])
@pytest.mark.parametrize("a", [1, 2, Fraction(-1, 3)])
@pytest.mark.parametrize("retry", [False, True], ids=["delta-zero", "s-retry"])
def test_p2_split_degenerate_conic_branches(a, N, retry):
    # g4 = 0 makes the quadratic dress the identity, so delta = g5 - 3/2 a^2:
    # delta = 0 takes x = 2a; delta = -a zeroes a s^2 + delta at s = 1, and
    # s = 2 gives x = -a/3
    a = scalar(a)
    g5 = 3 * a * a / 2 - (a if retry else ZERO)
    g = poly1({1: 1, 3: a, 5: g5, 6: Fraction(1, 5)}, N)
    parts = dim1._p2_split(g)
    assert coeff(parts[0][0], 3) == (-a / 3 if retry else 2 * a)
    assert recompose(parts) == g
    assert all(verify_witness(m, w) for m, w in parts)


@st.composite
def unit_multiplier_maps(draw):
    """One-variable maps with multiplier +-1, N <= 8; tangent ones often
    have a zero cubic invariant, so that they split into involutions."""
    N = draw(st.integers(2, 8))
    lam = draw(st.sampled_from([1, -1]))
    cs = draw(st.lists(small_rationals(), min_size=N - 1, max_size=N - 1))
    if N >= 3 and draw(st.booleans()):
        cs[1] = cs[0] ** 2
    return poly1({1: lam, **{d + 2: c for d, c in enumerate(cs)}}, N)


def _splits(g):
    inv = split_involutions(g) if multiplier(g) == ONE else None
    return split_reversibles(g), inv


def _counted(name, run, g):
    """run(g) and the number of calls it made to maps.<name>."""
    calls = [0]
    original = getattr(maps, name)

    def counted(*args):
        calls[0] += 1
        return original(*args)

    with pytest.MonkeyPatch.context() as mp:
        for modname, module in list(sys.modules.items()):
            if modname.startswith("revfactor") and getattr(module, name, None) is original:
                mp.setattr(module, name, counted)
        out = run(g)
    return out, calls[0]


def _compositions(g):
    """The splits of g and the number of map_compose calls they made."""
    return _counted("map_compose", _splits, g)


def _check_conjugacies(g, log=None):
    """conjugate_to against the probe reference on every (target, seed)
    that reverser_search(g) tries, on the homography target that
    mobius_witness(g) tries for a tangent g, and on every call that the
    splits of g make, cofactors included.  Returns what each call found,
    None where it found no conjugacy."""
    found = []

    def checked(G, target, c=ONE):
        h = conjugate_to(G, target, c)
        assert h == _conjugate_to_reference(G, target, c, log)
        found.append(h)
        return h

    N, lam = g.trunc, multiplier(g)
    if lam == ONE:
        d = dim1.lowest_nonlinear_degree(g)
        seeds = reverser_seeds(d - 1) if d is not None else []
        checked(g, mobius(coeff(g, 2), N))
    else:
        seeds = [ONE, -ONE, dim1.I_UNIT, -dim1.I_UNIT]
    ginv = map_invert(g)
    for c in seeds:
        checked(g, ginv, c)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(dim1, "conjugate_to", checked)
        _splits(g)
    return found


@settings(max_examples=30, deadline=None)
@given(unit_multiplier_maps())
def test_conjugate_to_matches_the_probe_reference(g):
    first, calls = _compositions(g)
    # no state survives a call: the same input costs the same again
    assert _compositions(g) == (first, calls)
    _check_conjugacies(g)


# each map makes the probe reject a non-affine candidate p_(idx + 2),
# logged as ("non-affine", d, idx); a cofactor of the first takes p_2 at
# degree 4, where 2 * 2 <= 4 lets p_2 enter nonlinearly
NON_AFFINE = {
    "t+t^3": (poly1({1: 1, 3: 1}, 6), [("non-affine", 5, 0), ("taken", 4, 0)]),
    "-t+t^3": (poly1({1: -1, 3: 1}, 6), [("non-affine", 5, 0)]),
    "t+t^4": (poly1({1: 1, 4: 1}, 7), [("non-affine", 7, 0)]),
}


@pytest.mark.parametrize("name", sorted(NON_AFFINE))
def test_conjugate_to_matches_the_probe_on_non_affine_degrees(name):
    g, events = NON_AFFINE[name]
    log = []
    found = _check_conjugacies(g, log)
    assert all(e in log for e in events), log
    assert None in found and any(h is not None for h in found)


def _compose_oracle(f, g, N):
    """Coefficients 0..N of f o g, substituted term by term over Fraction;
    f and g list coefficients 0..N with f[0] = g[0] = 0."""
    out = [Fraction(0)] * (N + 1)
    power = [Fraction(1)] + [Fraction(0)] * N
    for k in range(1, N + 1):
        power = [sum(power[i] * g[j - i] for i in range(j + 1)) for j in range(N + 1)]
        out = [o + f[k] * p for o, p in zip(out, power)]
    return out


def _invert_oracle(f, N):
    """Coefficients 0..N of the compositional inverse of f: with g known
    below degree k, f o g has f[1] g[k] as its only term of degree k in g[k]."""
    g = [Fraction(0), 1 / f[1]] + [Fraction(0)] * (N - 1)
    for k in range(2, N + 1):
        g[k] = -_compose_oracle(f, g, N)[k] / f[1]
    return g


def _coefficients(F, N):
    return [coeff(F, k) for k in range(N + 1)]


@st.composite
def rational_maps(draw, N):
    lead = draw(small_rationals().filter(bool))
    rest = draw(st.lists(small_rationals(), min_size=N - 1, max_size=N - 1))
    return [Fraction(0), Fraction(lead)] + [Fraction(x) for x in rest]


@settings(max_examples=30, deadline=None)
@given(st.integers(1, 8).flatmap(lambda N: st.tuples(st.just(N), rational_maps(N), rational_maps(N))))
def test_truncation_commutes_with_compose_and_invert(case):
    N, f, g = case
    F, G = (poly1(dict(enumerate(x)), N) for x in (f, g))
    fg, finv = _compose_oracle(f, g, N), _invert_oracle(f, N)
    for d in range(1, N + 1):
        assert _coefficients(map_compose(F.truncate(d), G.truncate(d)), d) == fg[: d + 1]
        assert _coefficients(map_invert(F.truncate(d)), d) == finv[: d + 1]
