"""Tests for the formal-map group operations and exact matrices."""

from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from revfactor.scalars import I, Scalar, rat
from revfactor.maps import (
    FormalMap,
    Matrix,
    apply_linear,
    conjugate,
    dress,
    format_map,
    is_involution,
    map_compose,
    map_invert,
    parse_map,
)
from revfactor.series import Series, SeriesFormatError, TruncationMismatch, compose


def lin1(coeffs, trunc=4):
    return FormalMap([Series(1, trunc, {(k,): v for k, v in coeffs.items()})])


J4 = FormalMap.permutation([1, 0, 3, 2], 4)


def order(F, max_order):
    """Order of F in the truncated group, or None if it exceeds max_order."""
    P = F
    for d in range(1, max_order + 1):
        if P.is_identity():
            return d
        P = map_compose(P, F)
    return None


# -- matrices ----------------------------------------------------------


def test_matrix_det_and_inverse():
    M = Matrix([[1, 2], [3, 4]])
    assert M.det() == Scalar(-2)
    assert M * M.inverse() == Matrix.identity(2)
    assert Matrix.permutation([2, 0, 1]).det() == Scalar(1)
    assert Matrix.permutation([1, 0]).det() == Scalar(-1)
    with pytest.raises(ZeroDivisionError):
        Matrix([[1, 2], [2, 4]]).inverse()


def test_matrix_shape_predicates():
    D = Matrix.diagonal([2, 3])
    assert D.is_diagonal() and D.is_upper_triangular()
    P = Matrix.permutation([1, 0])
    assert not P.is_diagonal()
    assert Matrix([[1, 1], [0, 2]]).is_upper_triangular()


# -- group operations --------------------------------------------------


def test_invert_frozen_example():
    F = lin1({1: 1, 2: 1}, trunc=3)
    assert map_invert(F) == lin1({1: 1, 2: -1, 3: 2}, trunc=3)


def test_invert_scaling():
    F = FormalMap.diagonal([rat(5, 2)], 4)
    assert map_invert(F) == FormalMap.diagonal([rat(2, 5)], 4)


def test_invert_geometric_closed_form():
    # f1 = t/(1-t); inverse is t/(1+t)
    N = 6
    f1 = lin1({k: 1 for k in range(1, N + 1)}, trunc=N)
    expect = lin1({k: (-1) ** (k + 1) for k in range(1, N + 1)}, trunc=N)
    assert map_invert(f1) == expect


def test_invert_requires_invertible_linear_part():
    F = FormalMap([Series(1, 3, {(2,): 1})])
    with pytest.raises(ZeroDivisionError, match="not invertible"):
        map_invert(F)


def test_compose_functoriality_of_linear_part():
    F = FormalMap(
        [Series(2, 4, {(1, 0): 2, (0, 2): 1}), Series(2, 4, {(0, 1): rat(1, 2)})]
    )
    G = FormalMap(
        [Series(2, 4, {(0, 1): 1, (2, 0): 3}), Series(2, 4, {(1, 0): 1})]
    )
    assert map_compose(F, G).linear_part() == F.linear_part() * G.linear_part()
    assert map_compose(F, FormalMap.identity(2, 4)) == F


def test_conjugate_scaling_frozen_example():
    a = rat(3, 7)
    F = lin1({1: 1, 2: a, 3: a * a}, trunc=3)
    K = lin1({1: Scalar(1) / a}, trunc=3)
    assert conjugate(F, K) == lin1({1: 1, 2: 1, 3: 1}, trunc=3)
    assert conjugate(F, FormalMap.identity(1, 3)) == F


def test_involutions_and_orders():
    assert is_involution(J4)
    assert order(J4, 5) == 2
    rot = FormalMap.diagonal([I], 6)
    assert order(rot, 6) == 4
    theta = lin1({k: (-1) ** k for k in range(1, 7)}, trunc=6)  # -z/(1+z)
    assert is_involution(theta)
    assert order(lin1({1: 1, 2: 1}), 8) is None
    assert order(FormalMap.identity(2, 4), 3) == 1


def test_conjugation_preserves_order():
    rot = FormalMap.diagonal([I, -I], 5)
    K = FormalMap(
        [Series(2, 5, {(1, 0): 1, (1, 1): 1}), Series(2, 5, {(0, 1): 1})]
    )
    assert order(conjugate(rot, K), 8) == order(rot, 8)


def test_homogeneous_parts_reconstitute():
    F = FormalMap(
        [Series(2, 4, {(1, 0): 1, (0, 2): 5, (2, 2): 1}), Series(2, 4, {(0, 1): 1})]
    )
    acc = None
    for d in range(1, 5):
        H = F.homogeneous_part(d)
        acc = H if acc is None else FormalMap.__new_raw__(
            2, 4, tuple(a + b for a, b in zip(acc.comps, H.comps))
        )
    assert tuple(acc.comps) == tuple(F.comps)
    L2 = F.homogeneous_part(2)
    assert L2.comps[0] == Series(2, 4, {(0, 2): 5})
    assert L2.comps[1].is_zero()


def test_format_roundtrip():
    M = FormalMap(
        [Series(2, 6, {(1, 0): 1, (1, 1): rat(1, 2)}), Series(2, 6, {(0, 1): 1})]
    )
    text = format_map(M)
    assert text.startswith("map n=2 N=6 { comp1:")
    assert parse_map(text) == M


@pytest.mark.parametrize(
    "bad",
    [
        "n=2 N=6 { comp1: { } ; comp2: { } }",
        "map n=2 N=6 { comp1: { [0,1]: 1 } }",
        "map n=2 N=6 { comp1: { [0,1]: 1 } ; comp1: { [1,0]: 1 } }",
        "map n=2 N=6 { comp3: { [0,1]: 1 } ; comp2: { [1,0]: 1 } }",
        "map n=2 N=6 { comp1: { [0,1]: 1 ; comp2: { [1,0]: 1 } }",
    ],
)
def test_parse_map_rejects_malformed(bad):
    with pytest.raises(SeriesFormatError):
        parse_map(bad)


def test_trunc_mismatch_rejected():
    with pytest.raises(TruncationMismatch):
        map_compose(FormalMap.identity(2, 4), FormalMap.identity(2, 5))
    with pytest.raises(TruncationMismatch):
        FormalMap([Series(2, 4, {(1, 0): 1}), Series(2, 5, {(0, 1): 1})])


@st.composite
def invertible_maps(draw, n=2, N=4):
    coeff = st.integers(min_value=-3, max_value=3)
    lin = [[draw(coeff) for _ in range(n)] for _ in range(n)]
    M = Matrix(lin)
    if M.det().is_zero():
        lin = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
        M = Matrix(lin)
    comps = []
    keys = [(2, 0), (1, 1), (0, 2), (2, 1)]
    for i in range(n):
        extra = {k: draw(coeff) for k in draw(st.sets(st.sampled_from(keys), max_size=2))}
        base = {tuple(1 if k == j else 0 for k in range(n)): lin[i][j] for j in range(n)}
        base.update(extra)
        comps.append(Series(n, N, base))
    return FormalMap(comps)


@given(invertible_maps(), invertible_maps())
@settings(max_examples=30, deadline=None)
def test_group_axioms(F, G):
    Fi = map_invert(F)
    assert map_compose(F, Fi).is_identity()
    assert map_compose(Fi, F).is_identity()
    assert map_invert(map_compose(F, G)) == map_compose(map_invert(G), Fi)


@given(invertible_maps())
@settings(max_examples=20, deadline=None)
def test_apply_linear_matches_compose(F):
    M = Matrix([[2, 1], [1, 1]])
    assert apply_linear(M, F) == map_compose(
        FormalMap.from_linear(M, F.trunc), F
    )


@st.composite
def maps_in_one_ring(draw, most=3, fewest_vars=1):
    """One to ``most`` rational maps and an invertible K, all in one ring
    (fewest_vars-3 variables, N <= 6); each map draws its own number of
    terms."""
    n, N = draw(st.integers(fewest_vars, 3)), draw(st.integers(1, 6))
    monomials = [e for e in product(range(N + 1), repeat=n) if 1 <= sum(e) <= N]
    value = st.fractions(min_value=-3, max_value=3, max_denominator=5)

    def rational_map(terms):
        return [
            draw(st.dictionaries(st.sampled_from(monomials), value, max_size=terms))
            for _ in range(n)
        ]

    sizes = draw(st.lists(st.sampled_from([0, 1, 3, 12]), min_size=1, max_size=most))
    Fs = [FormalMap([Series(n, N, c) for c in rational_map(size)]) for size in sizes]
    # K's linear part is upper triangular with a nonzero diagonal
    comps = rational_map(draw(st.sampled_from([1, 3, 12])))
    for i, c in enumerate(comps):
        for j in range(n):
            unit = tuple(int(k == j) for k in range(n))
            if j < i:
                c.pop(unit, None)
            elif j == i:
                c[unit] = draw(value.filter(bool))
    return Fs, FormalMap([Series(n, N, c) for c in comps])


@given(maps_in_one_ring())
@settings(max_examples=40, deadline=None)
def test_dress_matches_compose_then_invert(case):
    Fs, K = case
    Kinv = map_invert(K)
    assert dress(Fs, K, Kinv) == [map_compose(map_compose(K, F), Kinv) for F in Fs]


@given(maps_in_one_ring(most=4))
@settings(max_examples=40, deadline=None)
def test_one_table_serves_every_outer_map(case):
    Fs, G = case
    memo: dict = {}
    assert [map_compose(F, G, memo) for F in Fs] == [map_compose(F, G) for F in Fs]


def _fractions(F):
    return [{e: v.rational() for e, v in c.coeffs.items()} for c in F.comps]


def _oracle_compose(F, G, N):
    """F o G on lists of {exponent: Fraction} components, substituted term
    by term; every product drops the monomials of degree above N."""

    def mul(a, b):
        out = {}
        for e, x in a.items():
            for f, y in b.items():
                key = tuple(i + j for i, j in zip(e, f))
                if sum(key) <= N:
                    out[key] = out.get(key, 0) + x * y
        return out

    out = []
    for comp in F:
        acc = {}
        for e, c in comp.items():
            term = {(0,) * len(G): Fraction(1)}
            for g, k in zip(G, e):
                for _ in range(k):
                    term = mul(term, g)
            for key, v in term.items():
                acc[key] = acc.get(key, 0) + c * v
        out.append({key: v for key, v in acc.items() if v})
    return out


@given(maps_in_one_ring(most=2, fewest_vars=2))
@settings(max_examples=40, deadline=None)
def test_compose_and_invert_match_the_substitution_oracle(case):
    Fs, K = case
    n, N = K.nvars, K.trunc
    maps = Fs + [K]
    for A in maps:
        for B in maps:
            assert _fractions(map_compose(A, B)) == _oracle_compose(
                _fractions(A), _fractions(B), N
            )
    # K o (z reversed) has a linear part that is not triangular
    flipped = [{e[::-1]: v for e, v in c.items()} for c in _fractions(K)]
    identity = [{tuple(int(i == j) for i in range(n)): 1} for j in range(n)]
    for M in (_fractions(K), flipped):
        # the inverse is unique, so composing to the identity both ways pins it
        Minv = _fractions(map_invert(FormalMap([Series(n, N, c) for c in M])))
        assert _oracle_compose(M, Minv, N) == identity
        assert _oracle_compose(Minv, M, N) == identity


def test_a_table_refuses_another_inner_map():
    F = FormalMap([Series(2, 4, {(1, 0): 1, (1, 1): 2}), Series(2, 4, {(0, 1): 1})])
    G = FormalMap([Series(2, 4, {(1, 0): 1, (0, 2): 3}), Series(2, 4, {(0, 1): -1})])
    memo: dict = {}
    first = map_compose(F, G, memo)
    # an equal copy of G is the same inner map
    assert map_compose(F, parse_map(format_map(G)), memo) == first
    for other in (F, map_compose(G, G)):
        with pytest.raises(ValueError, match="other substitution series"):
            map_compose(F, other, memo)
    with pytest.raises(ValueError, match="other substitution series"):
        compose(F.comps[0], F.comps, memo)

