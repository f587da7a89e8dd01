"""The degree-sliced solvers and the inversion-free witness check against
the full-composition algorithms they replace, kept here as references."""

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from revfactor.maps import (
    FormalMap,
    Matrix,
    apply_linear,
    conjugate,
    map_compose,
    map_invert,
)
from revfactor.normalform import Witness, poincare_dulac, verify_witness
from revfactor.scalars import ONE, scalar
from revfactor.series import Series, Table


# ---------------------------------------------------------------------------
# references: every step composes the whole maps at degree N


def homogeneous_part(F, d):
    """The degree-d homogeneous piece of F, as a map with zero elsewhere."""
    return FormalMap.__new_raw__(
        F.nvars, F.trunc, tuple(c.homogeneous_component(d) for c in F.comps)
    )


def invert_reference(F):
    Li = F.linear_part().inverse()
    G = FormalMap.from_linear(Li, F.trunc)
    for d in range(2, F.trunc + 1):
        E = homogeneous_part(map_compose(F, G), d)
        corr = apply_linear(Li, E)
        G = FormalMap.__new_raw__(
            F.nvars, F.trunc, tuple(g - c for g, c in zip(G.comps, corr.comps))
        )
    return G


def poincare_dulac_reference(F):
    """At degree d the defect e of F o K - K o G, one monomial z^q of
    component j at a time: K takes e / (lam^q - lam_j) when that
    divisor is nonzero, else G takes e."""
    lam = F.linear_part().diagonal_entries()
    n, N = F.nvars, F.trunc
    K = FormalMap.identity(n, N)
    G = FormalMap.from_linear(F.linear_part(), N)
    for d in range(2, N + 1):
        FK, KG = map_compose(F, K), map_compose(K, G)
        kappa_comps, g_comps = [], []
        for j in range(n):
            part = (FK.comps[j] - KG.comps[j]).homogeneous_component(d)
            kappa, gnew = {}, {}
            for q, e in part.coeffs.items():
                power = ONE
                for l, k in zip(lam, q):
                    power = power * l**k
                if power == lam[j]:
                    gnew[q] = e
                else:
                    kappa[q] = e / (power - lam[j])
            kappa_comps.append(Series(n, N, kappa))
            g_comps.append(Series(n, N, gnew))
        K = FormalMap([c + k for c, k in zip(K.comps, kappa_comps)])
        G = FormalMap([c + g for c, g in zip(G.comps, g_comps)])
    return G, K


def reverses_reference(g, h):
    """h^-1 g h = g^-1, written without inverting h."""
    return map_compose(g, h) == map_compose(h, map_invert(g))


# ---------------------------------------------------------------------------
# strategies: small dense maps, n <= 3, N <= 5


small = st.fractions(min_value=-2, max_value=2, max_denominator=3)
nonzero = small.filter(lambda x: x != 0)


def _exponents(n, N):
    out = [()]
    for _ in range(n):
        out = [e + (k,) for e in out for k in range(N + 1)]
    return [e for e in out if 2 <= sum(e) <= N]


@st.composite
def shapes(draw):
    return draw(st.integers(1, 3)), draw(st.integers(2, 5))


@st.composite
def maps(draw, n, N, linear=None):
    """A map with the given linear part (a random nonsingular one when
    None) and up to four random terms of degree 2..N per component."""
    if linear is None:
        linear = Matrix([[draw(small) for _ in range(n)] for _ in range(n)])
        assume(not linear.det().is_zero())
    pool = _exponents(n, N)
    comps = []
    for i in range(n):
        coeffs = {
            tuple(1 if k == j else 0 for k in range(n)): linear.entry(i, j)
            for j in range(n)
        }
        for e in draw(st.lists(st.sampled_from(pool), max_size=4, unique=True)):
            coeffs[e] = scalar(draw(small))
        comps.append(Series(n, N, coeffs))
    return FormalMap(comps)


@st.composite
def map_pairs(draw):
    n, N = draw(shapes())
    return draw(maps(n, N)), draw(maps(n, N))


def _involution(K, signs):
    """K^-1 o diag(signs) o K, an involution."""
    J = FormalMap.diagonal([scalar(s) for s in signs], K.trunc)
    return conjugate(J, K)


# ---------------------------------------------------------------------------


@settings(max_examples=40, deadline=None)
@given(map_pairs())
def test_degree_table_part_is_the_slice_of_the_full_composite(pair):
    """A table fed G one degree at a time gives every slice of F o G: the
    nonlinear part of F before G's degree-d part arrives, all of F after."""
    F, G = pair
    full = map_compose(F, G)
    table = Table(homogeneous_part(G, 1).comps, growing=True)
    high = [c - c.homogeneous_component(1) for c in F.comps]
    for d in range(1, F.trunc + 1):
        want = homogeneous_part(full, d)
        if d > 1:
            linear = homogeneous_part(map_compose(homogeneous_part(F, 1), G), d)
            assert [table.part(c, d) + l for c, l in zip(high, linear.comps)] == list(want.comps)
            table.extend(homogeneous_part(G, d).comps, d)
        assert [table.part(c, d) for c in F.comps] == list(want.comps)


@settings(max_examples=40, deadline=None)
@given(shapes().flatmap(lambda s: maps(*s)))
def test_sliced_inverse_matches_the_reference(F):
    G = map_invert(F)
    identity = FormalMap.identity(F.nvars, F.trunc)
    assert map_compose(F, G) == identity
    assert map_compose(G, F) == identity
    assert G == invert_reference(F)


@st.composite
def diagonal_maps(draw):
    n, N = draw(shapes())
    lam = [scalar(draw(nonzero)) for _ in range(n)]
    return draw(maps(n, N, Matrix.diagonal(lam)))


@settings(max_examples=40, deadline=None)
@given(diagonal_maps())
def test_sliced_poincare_dulac_matches_the_reference(F):
    G, K, _ = poincare_dulac(F)
    assert (G, K) == poincare_dulac_reference(F)
    assert conjugate(F, K) == G


@settings(max_examples=40, deadline=None)
@given(diagonal_maps())
def test_poincare_dulac_returns_the_inverse_conjugator(F):
    _, K, Kinv = poincare_dulac(F)
    identity = FormalMap.identity(F.nvars, F.trunc)
    assert map_compose(K, Kinv) == identity
    assert map_compose(Kinv, K) == identity


@st.composite
def reversible_pairs(draw):
    """(g, h) with h reversing g: g = I1 o I2 for involutions I1, I2 and
    h = I2, since I2^-1 (I1 I2) I2 = I2 I1 = g^-1."""
    n, N = draw(shapes())
    signs = st.lists(st.sampled_from([1, -1]), min_size=n, max_size=n)
    I1 = _involution(draw(maps(n, N)), draw(signs))
    I2 = _involution(draw(maps(n, N)), draw(signs))
    return map_compose(I1, I2), I2


@settings(max_examples=30, deadline=None)
@given(reversible_pairs())
def test_witness_equation_accepts_true_reversers(pair):
    g, h = pair
    assert reverses_reference(g, h)
    assert verify_witness(g, Witness("reverser", h, g.trunc))


@settings(max_examples=40, deadline=None)
@given(st.one_of(map_pairs(), reversible_pairs()), st.integers(0, 2))
def test_witness_equation_agrees_with_the_reference(pair, nudge):
    g, h = pair
    if nudge:
        # move one coefficient of h, so most pairs stop being reversing
        comp = h.comps[0]
        e = sorted(comp.coeffs)[0]
        bumped = Series(comp.nvars, comp.trunc, {**comp.coeffs, e: comp.coeffs[e] + nudge})
        h = FormalMap((bumped,) + h.comps[1:])
        assume(not h.linear_part().det().is_zero())
    w = Witness("reverser", h, g.trunc)
    assert verify_witness(g, w) == reverses_reference(g, h)
