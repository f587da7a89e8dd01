import hashlib
import json
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import assume, given, settings, strategies as st

from revfactor.scalars import I, ONE, R3, Scalar, scalar
from revfactor.series import Series
from revfactor.maps import (
    FormalMap,
    Matrix,
    conjugate,
    format_map,
    is_involution,
    map_compose,
    map_invert,
    parse_map,
)
from revfactor import dim1, maps
from revfactor import factor as factor_module
from revfactor.cli import main
from revfactor.normalform import Witness, poincare_dulac, verify_witness
from revfactor.structure import (
    PairedDiagonal,
    ShapeError,
    centralizer_membership,
    lift_section,
    pair_swap,
)
from revfactor.factor import (
    CertificateError,
    _digest,
    _triangular_eigenbasis,
    Factor,
    FactorObstruction,
    Factorization,
    balance_matrix,
    certificate,
    certificate_factorization,
    factor_budget,
    factor_involutions,
    factor_reversibles,
    format_certificate,
    lift_permutation,
    parse_certificate,
    unit_pairing_perm,
    verify_certificate,
    verify_factorization,
)


def Q(a, b=1):
    return Scalar(a) / Scalar(b)


def _diag_map(entries, N):
    return FormalMap.from_linear(Matrix.diagonal([scalar(e) for e in entries]), N)


# ---------------------------------------------------------------------------
# the diagonal split

_split_diagonal = factor_module._split_diagonal
_paired_entries = factor_module._paired_entries


def _rest_of_split(d, T1, T2):
    """The third factor T3 = d / (T1 T2) of the diagonal split."""
    return tuple(x / (y * z) for x, y, z in zip(d, T1, T2))


def _permuted(T, sigma):
    return [T[j] for j in sigma]


def test_split_diagonal_pair_three_vars():
    # the pair-reciprocal T1 leaves the rest d/T1 = T2 T3 = (1, 6, 1/6),
    # which the swap sigma pairs as (1/6, 6, 1)
    d = [Q(2), Q(3), Q(1, 6)]
    T1, T2, sigma = _split_diagonal(d)
    rest = tuple(x / y for x, y in zip(d, T1))
    assert T1 == (Q(2), Q(1, 2), Q(1))
    assert rest == (Q(1), Q(6), Q(1, 6))
    assert sigma == (2, 1, 0)
    assert _paired_entries(_permuted(rest, sigma)) == (Q(1, 6),)


def test_split_diagonal_pair_four_vars():
    # the swap would leave (1, 6, 1/6, 1) unpaired; the cyclic shift pairs
    # it as (6, 1/6, 1, 1)
    d = [Q(2), Q(3), Q(5), Q(1, 30)]
    T1, T2, sigma = _split_diagonal(d)
    rest = tuple(x / y for x, y in zip(d, T1))
    assert T1 == (Q(2), Q(1, 2), Q(30), Q(1, 30))
    assert rest == (Q(1), Q(6), Q(1, 6), Q(1))
    assert sigma == (1, 2, 3, 0)
    assert _paired_entries(_permuted(rest, sigma)) == (Q(6), Q(1))
    # entrywise product recovers the input
    assert [x * y for x, y in zip(T1, rest)] == d


def test_split_diagonal_generic_three_vars():
    # the swap pairs the rest (1, 6, 1/6) as (1/6, 6, 1), and the fresh
    # prime 5 avoids its 2 and 3
    d = [Q(2), Q(3), Q(1, 6)]
    T1, T2, sigma = _split_diagonal(d)
    assert T1 == (Q(2), Q(1, 2), Q(1))
    assert T2 == (Q(1), Q(6, 5), Q(5, 6))
    assert _rest_of_split(d, T1, T2) == (Q(1), Q(5), Q(1, 5))
    assert sigma == (2, 1, 0)


def test_split_diagonal_generic_four_vars():
    # the swap leaves (1, 6, 1/6, 1) unpaired; the cyclic shift pairs it
    d = [Q(2), Q(3), Q(5), Q(1, 30)]
    T1, T2, sigma = _split_diagonal(d)
    assert T1 == (Q(2), Q(1, 2), Q(30), Q(1, 30))
    assert T2 == (Q(1, 7), Q(30), Q(1, 30), Q(7))
    assert _rest_of_split(d, T1, T2) == (Q(7), Q(1, 5), Q(5), Q(1, 7))
    assert sigma == (1, 2, 3, 0)


def test_split_diagonal_pair_rejects_bad_input():
    with pytest.raises(ValueError, match="determinant"):
        _split_diagonal([Q(2), Q(3)])
    with pytest.raises(ValueError, match="two variables"):
        _split_diagonal([ONE])


def test_split_paired_generic_frozen():
    # the cyclic shift pairs the rest as (4, 1/4, 9, 1/9, 1), and the
    # fresh primes 5 and 7 avoid its 2 and 3
    d = [Q(1), Q(4), Q(1), Q(9, 4), Q(1, 9)]
    T1, T2, sigma = _split_diagonal(d)
    assert T1 == (Q(1), Q(1), Q(4), Q(1, 4), Q(1))
    assert sigma == (1, 2, 3, 4, 0)
    assert _permuted(T2, sigma) == [Q(20), Q(1, 20), Q(63), Q(1, 63), ONE]
    assert _permuted(_rest_of_split(d, T1, T2), sigma) == [
        Q(1, 5), Q(5), Q(1, 7), Q(7), ONE
    ]


def test_split_paired_generic_rejects_irrational():
    # the swap pairs the rest (1, 2i, -i/2) as (-i/2, 2i, 1), whose
    # multiplier has no fresh prime to avoid
    with pytest.raises(ValueError, match=r"rational multipliers.*-1/2\*i"):
        _split_diagonal([Q(2), I, -I / Scalar(2)])


def test_split_diagonal_pair_reversal_witnesses():
    # Both linear factors are strongly reversible: T1 by the pair swap,
    # T2 by the sigma-conjugated swap.
    N = 4
    for d in ([Q(2), Q(3), Q(1, 6)], [Q(2), Q(3), Q(5), Q(1, 30)]):
        n = len(d)
        T1, T2, sigma = _split_diagonal(d)
        J = pair_swap(n, N)
        P = FormalMap.permutation(sigma, N)
        w2 = map_compose(map_compose(map_invert(P), J), P)
        T1m = FormalMap.diagonal(T1, N)
        T2m = FormalMap.diagonal(T2, N)
        assert verify_witness(T1m, Witness("involutive_reverser", J, N))
        assert verify_witness(T2m, Witness("involutive_reverser", w2, N))


_NONZERO = st.fractions(-40, 40, max_denominator=40).filter(lambda x: x != 0)


@settings(max_examples=60, deadline=None)
@given(st.integers(3, 6), st.data())
def test_split_diagonal_of_random_non_paired_diagonals(n, data):
    fractions = data.draw(st.lists(_NONZERO, min_size=n - 1, max_size=n - 1))
    head = [Q(x.numerator, x.denominator) for x in fractions]
    last = ONE
    for x in head:
        last = last / x
    d = head + [last]
    assume(_paired_entries(d) is None)
    T1, T2, sigma = _split_diagonal(d)
    T3 = _rest_of_split(d, T1, T2)
    assert all(x * y * z == e for x, y, z, e in zip(T1, T2, T3, d))
    assert _paired_entries(T1) is not None
    for T in (T2, T3):
        mult = _paired_entries(_permuted(T, sigma))
        assert mult is not None and PairedDiagonal(mult, n).is_generic()
    assert sigma != tuple(range(n))


# ---------------------------------------------------------------------------
# permutation lifting and unit pairing


def test_lift_permutation_even_blocks():
    assert lift_permutation((1, 0), 4) == (2, 3, 0, 1)
    assert lift_permutation((0, 1), 4) == (0, 1, 2, 3)


def test_lift_permutation_odd_fixed_singleton():
    assert lift_permutation((1, 0, 2), 5) == (2, 3, 0, 1, 4)
    assert lift_permutation((0, 1), 3) == (0, 1, 2)


def test_lift_permutation_odd_trailing_swap():
    # the singleton trades places with the last unit-carrying slot
    assert lift_permutation((1, 0), 3) == (2, 1, 0)
    assert lift_permutation((0, 2, 1), 5) == (0, 1, 4, 3, 2)


def test_lift_permutation_rejects_unliftable():
    with pytest.raises(ShapeError):
        lift_permutation((2, 1, 0), 5)
    with pytest.raises(ShapeError):
        lift_permutation((1, 0), 5)  # wrong width


def test_lift_permutation_is_functorial_on_blocks():
    a, b = (1, 0, 2), (0, 1, 2)
    la, lb = lift_permutation(a, 5), lift_permutation(b, 5)
    comp = tuple(a[b[i]] for i in range(3))
    assert lift_permutation(comp, 5) == tuple(la[lb[i]] for i in range(5))


def test_unit_pairing_perm_reciprocal_diagonal():
    m = _diag_map([Q(1, 3), Q(1), Q(3)], 4)
    assert unit_pairing_perm(m) == (2, 1, 0)
    # honest unit maps pair as well when the units ride the invariant
    # pair product and stay fully visible below the truncation
    u = Series(2, 5, {(0, 0): 1, (1, 1): 2})
    paired = FormalMap(
        [
            Series(2, 5, {(1, 0): 1}) * u,
            Series(2, 5, {(0, 1): 1}) * u.invert_unit(),
        ]
    )
    assert unit_pairing_perm(paired) == (1, 0)


def test_unit_pairing_perm_none_when_units_do_not_match():
    m = _diag_map([Q(2), Q(3)], 4)
    assert unit_pairing_perm(m) is None


# ---------------------------------------------------------------------------
# reduction to the paired centralizer


N3_GENERAL = (
    "map n=3 N=6 { "
    "comp1: { [1,0,0]: 2 ; [1,1,1]: 1 } ; "
    "comp2: { [0,1,0]: 3 ; [0,2,1]: 5 } ; "
    "comp3: { [0,0,1]: 1/6 ; [1,1,1]: 7 } }"
)


def test_reduce_to_centralizer_contract(monkeypatch):
    # a non-paired diagonal makes F = T1 o T2 o C o G o C^-1: the two
    # linear factors come first, and the first rebalance hands back G
    # in the paired centralizer and the frame C with its inverse
    rebalance = factor_module._rebalance
    seen = []

    def spy(*args):
        seen.append(rebalance(*args))
        return seen[-1]

    monkeypatch.setattr(factor_module, "_rebalance", spy)
    F = parse_map(N3_GENERAL)
    fz = factor_reversibles(F)
    assert "split the diagonal and rebalanced to a generic paired part" in fz.trace
    G, C, Cinv = seen[0]
    assert map_compose(C, Cinv).is_identity()
    assert centralizer_membership(G)
    T1, T2, _ = _split_diagonal(F.linear_part().diagonal_entries())
    prefix = fz.factors[:2]
    assert [f.map for f in prefix] == [
        FormalMap.diagonal(T, F.trunc) for T in (T1, T2)
    ]
    assert [f.kind for f in prefix] == ["linear", "linear"]
    rebuilt = map_compose(map_compose(C, G), Cinv)
    rebuilt = map_compose(prefix[0].map, map_compose(prefix[1].map, rebuilt))
    assert rebuilt == F
    assert verify_factorization(fz).ok


def test_a_diagonal_split_drops_an_identity_first_factor():
    # the prefix products of (1, 2, 1/2) are all 1, so T1 is the identity
    # and the first factor is T2, reversed by the sigma-conjugated swap
    F = parse_map(
        "map n=3 N=5 { comp1: { [1,0,0]: 1 ; [0,1,1]: 1 } ; "
        "comp2: { [0,1,0]: 2 ; [2,0,0]: 1 } ; comp3: { [0,0,1]: 1/2 ; [1,1,0]: 3 } }"
    )
    T1, T2, _ = _split_diagonal(F.linear_part().diagonal_entries())
    assert T1 == (ONE, ONE, ONE)
    fz = factor_reversibles(F)
    assert fz.factors[0].map == FormalMap.diagonal(T2, F.trunc)
    assert verify_factorization(fz).ok
    assert verify_factorization(factor_involutions(F)).ok


def test_factoring_inverts_no_map_of_several_variables(monkeypatch):
    # every normal form hands back its conjugator's inverse, so only the
    # one-variable layer still calls map_invert
    original = maps.map_invert
    sizes = []

    def counted(F):
        sizes.append(F.nvars)
        return original(F)

    for name, module in list(sys.modules.items()):
        if name.startswith("revfactor") and getattr(module, "map_invert", None) is original:
            monkeypatch.setattr(module, "map_invert", counted)
    F = parse_map(N3_GENERAL)
    assert factor_reversibles(F).recompose() == F
    assert factor_involutions(F).recompose() == F
    assert all(n == 1 for n in sizes), sizes


@pytest.mark.parametrize("name", ["n3-general", "n4-jordan"])
def test_each_factor_is_checked_once_where_it_is_made(monkeypatch, name):
    # a reversible factor's witness is verified once, when _piece_factor
    # makes it; involutions are checked by squaring, not as witnesses
    calls = []

    def counted(*args):
        calls.append(args)
        return verify_witness(*args)

    for modname, module in list(sys.modules.items()):
        if modname.startswith("revfactor") and getattr(module, "verify_witness", None) is verify_witness:
            monkeypatch.setattr(module, "verify_witness", counted)
    F = parse_map(next(text for key, text, *_ in INSTANCES if key == name))
    fz = factor_reversibles(F)
    assert len(calls) == len(fz.factors)
    calls.clear()
    factor_involutions(F)
    assert calls == []


# ---------------------------------------------------------------------------
# the eigenbasis of a triangular linear part


def _shear_reference(L):
    """Closed form for diag + (last row): the last-row shear with entries
    L[k-1][i] / (d_i - d_{k-1})."""
    k = L.n
    d = L.diagonal_entries()
    rows = [[ONE if i == j else Scalar(0) for j in range(k)] for i in range(k)]
    for i in range(k - 1):
        rows[k - 1][i] = L.entry(k - 1, i) / (d[i] - d[k - 1])
    return Matrix(rows)


_small_q = st.fractions(min_value=-5, max_value=5, max_denominator=4)


@st.composite
def _triangular_case(draw):
    shape = draw(st.sampled_from(["upper", "lower", "shear"]))
    k = draw(st.integers(min_value=2, max_value=4))
    diag = draw(
        st.lists(_small_q.filter(bool), min_size=k, max_size=k, unique=True)
    )
    keep = {
        "upper": lambda i, j: i < j,
        "lower": lambda i, j: i > j,
        "shear": lambda i, j: i == k - 1 and j < i,
    }[shape]
    rows = [[0] * k for _ in range(k)]
    for i in range(k):
        for j in range(k):
            rows[i][j] = diag[i] if i == j else draw(_small_q) if keep(i, j) else 0
    return shape, Matrix(rows)


@settings(max_examples=60, deadline=None)
@given(_triangular_case())
def test_triangular_eigenbasis_diagonalizes(case):
    shape, L = case
    E = _triangular_eigenbasis(L)
    assert E.diagonal_entries() == (ONE,) * L.n
    D = E.inverse() * L * E
    assert D.is_diagonal() and D.diagonal_entries() == L.diagonal_entries()
    if shape == "shear":
        assert E == _shear_reference(L)


def test_triangular_eigenbasis_rejects_other_shapes_and_collisions():
    with pytest.raises(ValueError, match="triangular"):
        _triangular_eigenbasis(Matrix([[1, 2, 0], [0, 2, 0], [3, 0, 3]]))
    lower = Matrix([[3, 0, 0], [1, 2, 0], [4, 0, 3]])
    for L in (Matrix([[2, 5], [0, 2]]), lower):
        with pytest.raises(FactorObstruction, match="collision"):
            _triangular_eigenbasis(L)


# ---------------------------------------------------------------------------
# the two-variable balancing step


def test_balance_matrix_frozen():
    T = balance_matrix()
    rho = Q(-1, 2) + R3 / Scalar(6)
    assert 6 * rho * rho + 6 * rho + 1 == Scalar(0)
    assert T.rows[0] == (ONE, ONE)
    assert T.rows[1] == (rho, ONE + rho)
    assert T.det() == ONE


def test_balance_matrix_equalizes_the_quintic_slots():
    T = balance_matrix()
    a, b = T.rows[0]
    c, d = T.rows[1]
    left = a * d * (a * a * d * d + Scalar(6) * a * b * c * d + Scalar(3) * b * b * c * c)
    right = b * c * (b * b * c * c + Scalar(6) * a * b * c * d + Scalar(3) * a * a * d * d)
    assert left == right
    # bc solves the balancing quadratic
    x = b * c
    assert Scalar(6) * x * x + Scalar(6) * x + ONE == Scalar(0)


def test_balanced_normal_form_coefficients():
    # Conjugating the cubic-led shift by the balance matrix and scaling
    # the pair leaves a normal form whose two resonant quintic slots
    # carry -sqrt(3)/9 and +sqrt(3)/9.
    N = 6
    S = parse_map("map n=2 N=6 { comp1: { [1,0]: 1 ; [3,2]: 1 } ; comp2: { [0,1]: 1 } }")
    T = FormalMap.from_linear(balance_matrix(), N)
    lam = _diag_map([Q(2), Q(1, 2)], N)
    M1 = map_compose(lam, conjugate(S, T))
    G, K, _ = poincare_dulac(M1)
    third = -R3 / Scalar(9)
    assert G.comps[0].coefficient((3, 2)) == Q(2) * third
    assert G.comps[1].coefficient((2, 3)) == Q(1, 2) * -third


def test_cubic_led_shift_splits_into_four_involutions():
    S = parse_map("map n=2 N=6 { comp1: { [1,0]: 1 ; [3,2]: 1 } ; comp2: { [0,1]: 1 } }")
    fz = factor_involutions(S)
    assert len(fz.factors) <= 8
    assert len(fz.factors) == 4
    assert verify_factorization(fz).ok
    assert "paired-centralizer member: direct split" in fz.trace
    assert "order-four balancing over SL(2) at width 2" in fz.trace


def test_a_corrupted_balancing_involution_raises(monkeypatch):
    # the balancing machine squares its linear and kernel involutions
    # where it makes them, since _involutionize keeps them unsquared: a
    # kernel swap that is no involution fails there, before any dressing
    S = parse_map("map n=2 N=6 { comp1: { [1,0]: 1 ; [3,2]: 1 } ; comp2: { [0,1]: 1 } }")
    assert "order-four balancing over SL(2) at width 2" in factor_involutions(S).trace

    def skewed_swap(n, N):
        return map_compose(_diag_map([Q(2), Q(1)], N), pair_swap(n, N))

    monkeypatch.setattr(factor_module, "pair_swap", skewed_swap)
    with pytest.raises(AssertionError, match="balancing involution failed"):
        factor_involutions(S)


def test_balancing_with_a_nonidentity_balanced_base():
    # The balanced normal form keeps a base map t + O(t^4) that is not the
    # identity, so the balancing step lifts and conjugates its involutions.
    S = parse_map(
        "map n=2 N=9 { comp1: { [1,0]: 1 ; [2,1]: 2 ; [3,2]: 1 ; [4,3]: 1 } ; "
        "comp2: { [0,1]: 1 } }"
    )
    fz = factor_involutions(S)
    assert len(fz.factors) == 10 <= factor_budget(2, "involutive", False)
    assert verify_factorization(fz).ok
    assert "order-four balancing over SL(2) at width 2" in fz.trace


def test_base_remainder_with_zero_cubic_invariant_splits_directly():
    # The lifted base map t + t^4 has no quadratic term and a zero cubic
    # invariant, so it splits into involutions without the balancing step.
    S = lift_section(dim1.poly1({1: 1, 4: 1}, 8), 2)
    fz = factor_involutions(S)
    assert len(fz.factors) == 4 <= factor_budget(2, "involutive", False)
    assert verify_factorization(fz).ok
    assert "order-four balancing over SL(2) at width 2" not in fz.trace


# ---------------------------------------------------------------------------
# the driver matrix: parse, factor both ways, verify, stay within budget


INSTANCES = [
    (
        "n2-member",
        "map n=2 N=6 { comp1: { [1,0]: 3 ; [2,1]: 1 } ; "
        "comp2: { [0,1]: 1/3 ; [1,2]: 5 } }",
        3,
        8,
    ),
    (
        "n2-unipotent",
        "map n=2 N=6 { comp1: { [1,0]: 1 ; [0,1]: 1 ; [2,1]: 3 } ; "
        "comp2: { [0,1]: 1 ; [1,2]: 2 } }",
        4,
        10,
    ),
    (
        "n2-neg-unipotent",
        "map n=2 N=6 { comp1: { [1,0]: -1 ; [0,1]: 2 } ; "
        "comp2: { [0,1]: -1 ; [3,0]: 1 } }",
        4,
        10,
    ),
    (
        "n3-triangular",
        "map n=3 N=6 { comp1: { [1,0,0]: 2 ; [0,1,0]: 1 ; [0,2,0]: 1 } ; "
        "comp2: { [0,1,0]: 3 ; [0,0,1]: 4 } ; comp3: { [0,0,1]: 1/6 } }",
        5,
        10,
    ),
    ("n3-general", N3_GENERAL, 5, 10),
    (
        "n3-det-minus",
        "map n=3 N=6 { comp1: { [1,0,0]: -2 ; [1,1,1]: 1 } ; "
        "comp2: { [0,1,0]: 3 ; [0,2,1]: 5 } ; comp3: { [0,0,1]: 1/6 } }",
        6,
        11,
    ),
    (
        "n4-jordan",
        "map n=4 N=6 { comp1: { [1,0,0,0]: 2 ; [0,1,0,0]: 1 } ; "
        "comp2: { [0,1,0,0]: 2 ; [0,0,1,0]: 1 ; [1,1,1,0]: 3 } ; "
        "comp3: { [0,0,1,0]: 1 ; [0,0,0,1]: 1 } ; "
        "comp4: { [0,0,0,1]: 1/4 ; [0,2,0,1]: 1 } }",
        7,
        12,
    ),
    (
        "n4-dense",
        "map n=4 N=6 { comp1: { [1,0,0,0]: 2 ; [2,1,0,0]: 1 ; [1,1,1,1]: 2 } ; "
        "comp2: { [0,1,0,0]: 3 ; [0,2,1,0]: 5 } ; "
        "comp3: { [0,0,1,0]: 5 ; [1,0,1,1]: 1/2 } ; "
        "comp4: { [0,0,0,1]: 1/30 ; [0,0,2,1]: 7 } }",
        7,
        12,
    ),
    (
        "n5-dense",
        "map n=5 N=6 { comp1: { [1,0,0,0,0]: 2 ; [1,1,1,0,0]: 1 } ; "
        "comp2: { [0,1,0,0,0]: 1/2 ; [0,2,1,0,0]: 5 } ; "
        "comp3: { [0,0,1,0,0]: 3 ; [0,0,1,1,1]: 1/2 } ; "
        "comp4: { [0,0,0,1,0]: 1/3 ; [0,0,0,2,1]: 7 } ; "
        "comp5: { [0,0,0,0,1]: 1 ; [1,1,0,0,2]: 2 ; [0,0,1,1,0]: 4 } }",
        5,
        10,
    ),
    (
        "n6-sparse",
        "map n=6 N=6 { comp1: { [1,0,0,0,0,0]: 2 ; [1,1,1,0,0,0]: 1 } ; "
        "comp2: { [0,1,0,0,0,0]: 3 } ; "
        "comp3: { [0,0,1,0,0,0]: 5 ; [0,0,1,1,1,0]: 2 } ; "
        "comp4: { [0,0,0,1,0,0]: 7 } ; "
        "comp5: { [0,0,0,0,1,0]: 1/5 } ; "
        "comp6: { [0,0,0,0,0,1]: 1/42 ; [0,0,0,0,2,1]: 3 } }",
        7,
        14,
    ),
]


@pytest.mark.parametrize(
    "name,text,rev_count,inv_count", INSTANCES, ids=[i[0] for i in INSTANCES]
)
def test_reversible_driver(name, text, rev_count, inv_count):
    F = parse_map(text)
    det_minus = F.linear_part().det() == -ONE
    fz = factor_reversibles(F)
    assert fz.recompose() == F
    assert len(fz.factors) == rev_count
    assert len(fz.factors) <= factor_budget(F.nvars, "reversible", det_minus)
    assert verify_factorization(fz).ok


@pytest.mark.parametrize(
    "name,text,rev_count,inv_count", INSTANCES, ids=[i[0] for i in INSTANCES]
)
def test_involutive_driver(name, text, rev_count, inv_count):
    F = parse_map(text)
    det_minus = F.linear_part().det() == -ONE
    fz = factor_involutions(F)
    assert fz.recompose() == F
    assert len(fz.factors) == inv_count
    assert len(fz.factors) <= factor_budget(F.nvars, "involutive", det_minus)
    for f in fz.factors:
        assert is_involution(f.map)
    assert verify_factorization(fz).ok


def test_driver_is_deterministic():
    F = parse_map(N3_GENERAL)
    a = factor_reversibles(F)
    b = factor_reversibles(F)
    assert [format_map(f.map) for f in a.factors] == [
        format_map(f.map) for f in b.factors
    ]
    assert a.trace == b.trace


def test_driver_rejects_bad_linear_part():
    with pytest.raises(ValueError):
        factor_reversibles(_diag_map([Q(2), Q(3)], 4))  # det 6
    F = parse_map(
        "map n=2 N=4 { comp1: { [0,1]: 1 } ; comp2: { [1,0]: 1 } }"
    )
    with pytest.raises(ValueError):
        factor_reversibles(F)  # linear part not triangular


# diag(2, 1/2, 4, 1/4) is paired but not generic (4 = 2^2): the driver
# checks genericity, then rebalances with fresh primes
NON_GENERIC_N4 = (
    "map n=4 N=4 { comp1: { [1,0,0,0]: 2 ; [0,1,1,0]: 1 } ; "
    "comp2: { [0,1,0,0]: 1/2 } ; comp3: { [0,0,1,0]: 4 ; [2,0,0,0]: 1 } ; "
    "comp4: { [0,0,0,1]: 1/4 } }"
)

SYMPY_FREE_RUN = """
import sys
sys.modules["sympy"] = None  # any import of sympy now raises
sys.path.insert(0, sys.argv[1])
from revfactor import factor, maps, structure

calls = []
fresh, genericity = factor.fresh_prime_diagonal, structure.PairedDiagonal.genericity
factor.fresh_prime_diagonal = lambda *a, **k: calls.append("fresh") or fresh(*a, **k)
structure.PairedDiagonal.genericity = lambda d: calls.append("generic") or genericity(d)
F = maps.parse_map(sys.argv[2])
fz = factor.factor_reversibles(F)
cert = factor.parse_certificate(factor.format_certificate(factor.certificate(fz)))
assert fz.recompose() == F and factor.verify_certificate(cert).ok
assert "fresh" in calls and "generic" in calls, calls
"""


def test_non_generic_factorization_runs_without_sympy():
    src = Path(__file__).resolve().parents[1] / "src"
    run = subprocess.run(
        [sys.executable, "-c", SYMPY_FREE_RUN, str(src), NON_GENERIC_N4],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert run.returncode == 0, run.stderr


def test_semiprime_multiplier_factors_quickly():
    # lam is the product of two 24-digit primes; deciding genericity by
    # factoring it took about 30 s
    lam = 30000000000000000004401800000000000000084634319
    F = parse_map(
        f"map n=4 N=4 {{ comp1: {{ [1,0,0,0]: {lam} ; [0,1,1,0]: 1 }} ; "
        "comp2: { [0,1,0,0]: 3 } ; comp3: { [0,0,1,0]: 1/3 ; [2,0,0,0]: 1 } ; "
        f"comp4: {{ [0,0,0,1]: 1/{lam} }} }}"
    )
    start = time.perf_counter()
    fz = factor_reversibles(F)
    assert time.perf_counter() - start < 1
    assert fz.recompose() == F


def test_factor_dim1():
    g = parse_map("map n=1 N=8 { comp1: { [1]: 1 ; [2]: 3 ; [3]: -2 } }")
    fz = factor_reversibles(g)
    assert len(fz.factors) <= 2
    assert fz.recompose() == g
    assert verify_factorization(fz).ok


def test_factor_dim1_checks_the_witnesses_it_returns(monkeypatch):
    # the splitters leave the witness check to the factor pipeline, so a
    # wrong homography reverser cannot come out of it
    def wrong(g):
        return Witness("involutive_reverser", dim1.flip(g.trunc), g.trunc)

    monkeypatch.setattr(dim1, "mobius_witness", wrong)
    with pytest.raises(AssertionError):
        factor_reversibles(dim1.poly1({1: 1, 2: 1, 3: 3}, 6))


def test_factor_dim1_quartic_led_map_shifts():
    # t + t^4 has no reverser, so the split shifts by the standard
    # homography and reverses the cofactor.
    g = dim1.poly1({1: 1, 4: 1}, 8)
    fz = factor_reversibles(g)
    assert len(fz.factors) == 2 <= factor_budget(1, "reversible", False)
    assert verify_factorization(fz).ok


@pytest.mark.parametrize(
    "coeffs, count",
    [({1: 1, 2: 1, 3: 1}, 2), ({1: 1, 4: 2}, 4)],
    ids=["homography-class", "quartic-led"],
)
def test_factor_dim1_involutions_splits(coeffs, count):
    fz = factor_involutions(dim1.poly1(coeffs, 6))
    assert len(fz.factors) == count
    assert fz.trace == ("one-variable involution split",)
    assert verify_factorization(fz).ok


def test_factor_dim1_involutions_keeps_an_involution_whole():
    g = dim1.flip(6)
    fz = factor_involutions(g)
    assert [f.map for f in fz.factors] == [g]
    assert fz.trace == ("already an involution",)
    assert verify_factorization(fz).ok


def test_factor_dim1_involutions_refuses_multiplier_minus_one():
    # -t + t^2 squares to t - 2t^3 + t^4, so it is no involution either
    with pytest.raises(FactorObstruction):
        factor_involutions(dim1.poly1({1: -1, 2: 1}, 6))


@pytest.mark.parametrize("factor", [factor_reversibles, factor_involutions])
@pytest.mark.parametrize(
    "entries, trace",
    [([1, 1], ()), ([1, 1, 1], ()), ([-1, 1], ("flip prefix absorbs determinant -1",))],
    ids=["n2-identity", "n3-identity", "n2-flip"],
)
def test_nothing_left_to_factor(entries, trace, factor):
    # the identity has no factors, and a linear flip only the flip prefix
    F = _diag_map(entries, 5)
    fz = factor(F)
    assert [f.map for f in fz.factors] == ([F] if trace else [])
    assert fz.trace == trace
    assert verify_certificate(certificate(fz)).ok


def test_zero_factors_recompose_to_the_identity_only():
    # the product of no factors is the identity, so a re-digested
    # certificate that keeps them but claims another target fails
    cert = certificate(factor_reversibles(_diag_map([1, 1], 5)))
    assert cert["factors"] == []
    cert["target"] = format_map(_diag_map([2, Q(1, 2)], 5))
    cert["digest"] = _digest(cert)
    assert _failing(verify_certificate(cert)) == ["recomposition"]
    target = parse_map(cert["target"])
    fz = Factorization(target, "reversible", (), ())
    assert fz.recompose().is_identity()
    assert _failing(verify_factorization(fz)) == ["recomposition"]


@pytest.mark.parametrize("mode", ["reversible", "involutive"])
def test_one_factor_must_equal_the_target(mode):
    # the product starts at the first factor: a lone factor that differs
    # from the target in one coefficient still fails the recomposition
    F = _diag_map([-1, 1], 5)
    cert = certificate(factor_reversibles(F) if mode == "reversible" else factor_involutions(F))
    assert [f["map"] for f in cert["factors"]] == [format_map(F)]
    changed = parse_map("map n=2 N=5 { comp1: { [1,0]: -1 } ; comp2: { [0,1]: 1 ; [2,0]: 1 } }")
    cert["target"] = format_map(changed)
    cert["digest"] = _digest(cert)
    assert _failing(verify_certificate(cert)) == ["recomposition"]


# ---------------------------------------------------------------------------
# verification reports


def test_verify_catches_a_broken_factor():
    F = parse_map(INSTANCES[0][1])
    fz = factor_reversibles(F)
    bad = list(fz.factors)
    tweaked = map_compose(bad[0].map, _diag_map([Q(2), Q(1, 2)], F.trunc))
    bad[0] = Factor(tweaked, bad[0].witness, bad[0].kind)
    broken = Factorization(F, fz.mode, tuple(bad), fz.trace)
    report = verify_factorization(broken)
    assert not report.ok
    assert any(name == "recomposition" and not ok for name, ok, _ in report.checks)
    assert "certificate BAD" in report.as_text()


def _failing(report):
    return [name for name, ok, _ in report.checks if not ok]


@pytest.mark.parametrize("i", [1, 2, 3])
def test_a_tampered_factor_fails_only_the_recomposition(i):
    # g^-1 has the reverser of g (h^-1 g^-1 h = g), so inverting one
    # factor keeps every witness, and only the product can notice; a
    # substitution table carried from one factor to the next would not
    cert = certificate(factor_reversibles(parse_map(INSTANCES[0][1])))
    assert len(cert["factors"]) == 3
    entry = cert["factors"][i - 1]
    g = parse_map(entry["map"])
    assert map_invert(g) != g
    entry["map"] = format_map(map_invert(g))
    cert["digest"] = _digest(cert)
    assert _failing(verify_certificate(cert)) == ["recomposition"]


@pytest.mark.parametrize("i", [1, 2, 3])
def test_a_tampered_witness_fails_only_its_own_check(i):
    # factor i gets the witness of the next factor, which reverses that
    # factor but not factor i
    cert = certificate(factor_reversibles(parse_map(INSTANCES[0][1])))
    factors = cert["factors"]
    assert len(factors) == 3
    factors[i - 1]["witness"] = dict(factors[i % 3]["witness"])
    cert["digest"] = _digest(cert)
    assert _failing(verify_certificate(cert)) == [f"witness {i}/3"]


def test_factor_budget_values():
    assert factor_budget(2, "reversible", False) == 4
    assert factor_budget(3, "reversible", False) == 7
    assert factor_budget(3, "reversible", True) == 8
    assert factor_budget(2, "involutive", False) == 14
    assert factor_budget(4, "involutive", False) == 20
    assert factor_budget(1, "reversible", False) == 2


# ---------------------------------------------------------------------------
# certificates


def test_certificate_roundtrip():
    F = parse_map(INSTANCES[0][1])
    fz = factor_reversibles(F)
    cert = certificate(fz)
    assert cert["format"] == "revfactor-certificate"
    assert cert["degree"] == 6
    text = format_certificate(cert)
    again = parse_certificate(text)
    assert again == cert
    fz2 = certificate_factorization(again)
    assert fz2.recompose() == F
    report = verify_certificate(again)
    assert report.ok


def test_a_self_witness_is_formatted_once(monkeypatch):
    # an involution is its own witness, so its text is written once and
    # copied into the witness
    F = parse_map(INSTANCES[0][1])
    fz = factor_involutions(F)
    selfs = sum(f.witness.kind == "involution_self" for f in fz.factors)
    assert selfs
    # format_map writes each component with format_series
    format_series = maps.format_series
    calls = []

    def spy(s, header=True):
        calls.append(s)
        return format_series(s, header)

    monkeypatch.setattr(maps, "format_series", spy)
    cert = certificate(fz)
    assert len(calls) == F.nvars * (1 + 2 * len(fz.factors) - selfs)
    for item in cert["factors"]:
        if item["witness"]["kind"] == "involution_self":
            assert item["witness"]["h"] == item["map"]


def test_certificate_digest_detects_tampering():
    F = parse_map(INSTANCES[0][1])
    cert = certificate(factor_reversibles(F))
    cert["trace"] = list(cert["trace"]) + ["sneaky extra step"]
    report = verify_certificate(cert)
    digest = [ok for name, ok, _ in report.checks if name == "digest"]
    assert digest == [False]
    assert not report.ok


def test_parse_certificate_errors():
    with pytest.raises(CertificateError):
        parse_certificate("{ not json")
    with pytest.raises(CertificateError):
        parse_certificate(json.dumps({"format": "something-else"}))
    cert = certificate(factor_reversibles(parse_map(INSTANCES[0][1])))
    del cert["digest"]
    with pytest.raises(CertificateError):
        parse_certificate(json.dumps(cert))


def test_certificate_rejects_malformed_body():
    cert = certificate(factor_reversibles(parse_map(INSTANCES[0][1])))
    cert["factors"][0]["map"] = "map n=2 N=6 { broken"
    with pytest.raises(CertificateError):
        certificate_factorization(cert)


@pytest.mark.parametrize(
    "path",
    [("mode",), ("factors", 0, "kind"), ("factors", 0, "witness", "kind")],
    ids=["mode", "factor-kind", "witness-kind"],
)
def test_certificate_rejects_unknown_enum_values(path):
    cert = certificate(factor_reversibles(parse_map(INSTANCES[0][1])))
    assert verify_certificate(cert).ok
    node = cert
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = "banana"
    cert["digest"] = _digest(cert)
    with pytest.raises(CertificateError, match="banana"):
        verify_certificate(cert)


# ---------------------------------------------------------------------------
# property tests


def _random_instance(n, seed):
    rng = random.Random(seed)
    N = 6
    primes = [2, 3, 5, 7, 11]
    diag = [Q(rng.choice(primes)) for _ in range(n - 1)]
    last = ONE
    for x in diag:
        last = last * x
    diag.append(last.inverse())
    comps = []
    for i in range(n):
        e = [0] * n
        e[i] = 1
        data = {tuple(e): diag[i]}
        for _ in range(rng.randint(1, 2)):
            exp = [0] * n
            for _ in range(rng.randint(2, 3)):
                exp[rng.randrange(n)] += 1
            data[tuple(exp)] = Q(rng.choice([1, -1, 2, -2, 3, 5]))
        comps.append(Series(n, N, data))
    return FormalMap(comps)


@settings(max_examples=12, deadline=None)
@given(st.integers(min_value=0, max_value=10 ** 6))
def test_random_reversible_roundtrip(seed):
    F = _random_instance(2, seed)
    fz = factor_reversibles(F)
    assert fz.recompose() == F
    assert len(fz.factors) <= factor_budget(2, "reversible", False)
    assert verify_factorization(fz).ok


@settings(max_examples=8, deadline=None)
@given(st.integers(min_value=0, max_value=10 ** 6))
def test_random_involutive_roundtrip(seed):
    F = _random_instance(3, seed)
    fz = factor_involutions(F)
    assert fz.recompose() == F
    assert all(is_involution(f.map) for f in fz.factors)
    assert verify_factorization(fz).ok


# ---------------------------------------------------------------------------
# singular witnesses and schema validation


def _forged_single_factor(F, h):
    """A re-digested certificate claiming F is one reversible factor
    reversed by h."""
    fz = Factorization(
        F,
        "reversible",
        (Factor(F, Witness("reverser", h, F.trunc), "reversible"),),
        ("forged",),
    )
    return certificate(fz)


def _witness_checks(report):
    return [ok for name, ok, _ in report.checks if name.startswith("witness")]


def test_zero_witness_is_rejected():
    # g o 0 = 0 = 0 o g^-1 holds for every g, so the zero map must fail
    F = parse_map(INSTANCES[0][1])
    zero = parse_map("map n=2 N=6 { comp1: { } ; comp2: { } }")
    report = verify_certificate(_forged_single_factor(F, zero))
    assert _witness_checks(report) == [False]
    assert not report.ok


def test_singular_nonzero_witness_is_rejected():
    # h = diag(1, 0) satisfies g o h o g = h and g o h = h o g^-1 for
    # g = -id, but is not invertible, so it reverses nothing
    g = _diag_map([-1, -1], 6)
    h = _diag_map([1, 0], 6)
    assert map_compose(map_compose(g, h), g) == h
    assert not verify_witness(g, Witness("reverser", h, 6))
    report = verify_certificate(_forged_single_factor(g, h))
    assert _witness_checks(report) == [False]


def _set(path, value):
    def mutate(cert):
        node = cert
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value
    return mutate


def _lower_witness(cert):
    w = cert["factors"][0]["witness"]
    w["h"] = format_map(parse_map(w["h"]).truncate(5))


def _lower_factor(cert):
    item = cert["factors"][0]
    item["map"] = format_map(parse_map(item["map"]).truncate(5))


def _widen_witness(cert):
    cert["factors"][0]["witness"]["h"] = format_map(FormalMap.identity(3, 6))


SCHEMA_MUTATIONS = {
    "witness-at-N5": _lower_witness,
    "factor-at-N5": _lower_factor,
    "witness-in-3-variables": _widen_witness,
    "factors-object": lambda c: c.update(factors={"0": c["factors"][0]}),
    "factors-of-strings": lambda c: c.update(factors=["map n=2 N=6 { }"]),
    "factor-without-witness": lambda c: c["factors"][0].pop("witness"),
    "trace-number": _set(("trace",), 5),
    "trace-of-numbers": _set(("trace",), ["ok", 5]),
    "degree-string": _set(("degree",), "6"),
    "degree-float": _set(("degree",), 6.5),
    "degree-bool": _set(("degree",), True),
    "degree-mismatch": _set(("degree",), 5),
    "witness-degree-string": _set(("factors", 0, "witness", "degree"), "6"),
    "witness-degree-mismatch": _set(("factors", 0, "witness", "degree"), 7),
    "target-number": _set(("target",), 7),
    "witness-h-list": _set(("factors", 0, "witness", "h"), []),
}


@pytest.mark.parametrize("mutation", sorted(SCHEMA_MUTATIONS))
def test_certificate_schema_violations_are_malformed(mutation):
    cert = certificate(factor_reversibles(parse_map(INSTANCES[0][1])))
    SCHEMA_MUTATIONS[mutation](cert)
    cert["digest"] = _digest(cert)
    with pytest.raises(CertificateError):
        verify_certificate(cert)


# the version must be the integer 1, and a top-level field the verifier
# does not know is malformed rather than ignored
VERSION_MUTATIONS = {
    "version-99": _set(("version",), 99),
    "version-null": _set(("version",), None),
    "version-string": _set(("version",), "x"),
    "version-true": _set(("version",), True),
    "version-deleted": lambda c: c.pop("version"),
    "unknown-top-level-key": _set(("extra",), 1),
}


@pytest.mark.parametrize("mutation", sorted(VERSION_MUTATIONS))
def test_certificate_version_and_unknown_fields_exit_2(tmp_path, capsys, mutation):
    cert = certificate(factor_reversibles(parse_map(INSTANCES[0][1])))
    VERSION_MUTATIONS[mutation](cert)
    cert["digest"] = _digest(cert)
    path = tmp_path / "c.json"
    path.write_text(format_certificate(cert))
    assert main(["verify", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err


# ---------------------------------------------------------------------------
# certificate bytes: refactors of the arithmetic must not move a byte

# five variables over an odd parent: its lifted witnesses nest two frames
# and need re-pairing, which no benchmark map (n <= 4) reaches
N5_ODD_PARENT = (
    "map n=5 N=4 { comp1: { [1,0,0,0,0]: 11 ; [0,1,0,1,0]: 1 ; [1,0,1,0,0]: -1 } ; "
    "comp2: { [0,1,0,0,0]: 2 ; [0,0,1,0,1]: -3 } ; "
    "comp3: { [0,0,1,0,0]: 7 ; [1,0,1,0,2]: 2 } ; "
    "comp4: { [0,0,0,1,0]: 13 ; [0,0,0,1,1]: -5 } ; "
    "comp5: { [0,0,0,0,1]: 1/2002 ; [0,0,1,1,0]: -2 ; [1,1,1,0,0]: 2 } }"
)

I_R3 = "map n=2 N=6 { comp1: { [1,0]: 3 ; [2,1]: 1*i*r3 } ; comp2: { [0,1]: 1/3 ; [1,2]: 5 } }"

# sha256 of format_certificate(certificate(fz)) per instance, recorded
# before the series layer moved to packed monomial keys.  The cases cover
# both modes, coefficients with i and r3, and each place that conjugates
# by a linear eigenbasis (triangular prefix, fresh-prime rebalance,
# shear at a unit-group level, reduction to the centralizer).
PINNED_CERTIFICATES = [
    ("rev-n2", "reversible", "map n=2 N=6 { comp1: { [1,0]: 2 ; [0,2]: 1 ; [2,1]: -1/3 } ; comp2: { [0,1]: 1/2 ; [2,0]: -1 } }",
     "7b2fa7278cefce43790b0b8a41b15225c4eab249bf4ef421aeae9e455a04f0fd"),
    ("rev-n3", "reversible", "map n=3 N=5 { comp1: { [1,0,0]: 2 ; [0,1,1]: 1 } ; comp2: { [0,1,0]: 3 ; [2,0,0]: -2 } ; comp3: { [0,0,1]: 1/6 ; [1,1,0]: 5 } }",
     "03e3ce3505b346598770cb97d1a01d2e8c9b8cef85cf160637ee2eed03b416aa"),
    ("rev-field", "reversible", "map n=2 N=5 { comp1: { [1,0]: 3 ; [1,1]: r3 } ; comp2: { [0,1]: 1/3 ; [0,2]: 1 + i } }",
     "071e1a351ce0587ebbff887b607f6e109f700e4b608ea56627240d8b7c2e1f32"),
    ("rev-triangular-n2", "reversible", "map n=2 N=5 { comp1: { [1,0]: 2 ; [0,1]: 1 ; [1,1]: 1 } ; comp2: { [0,1]: 1/2 ; [2,0]: 3 } }",
     "1082a4dfef7b6891ef45f1c7b48b526621cf57ca3830fa9eed2b7741195a797c"),
    ("rev-unipotent-n3", "reversible", "map n=3 N=4 { comp1: { [1,0,0]: 1 ; [0,1,0]: 1 ; [0,0,2]: 1 } ; comp2: { [0,1,0]: 1 ; [0,0,1]: 2 } ; comp3: { [0,0,1]: 1 ; [2,0,0]: -1 } }",
     "b510bbb7996b60fda3379b2b322a106b4e60f91b1ee94b8548579b2cf9d019a1"),
    ("rev-triangular-n3", "reversible", "map n=3 N=4 { comp1: { [1,0,0]: 2 ; [0,0,1]: 1 ; [1,1,0]: 1 } ; comp2: { [0,1,0]: 3 } ; comp3: { [0,0,1]: 1/6 ; [0,2,0]: 1 } }",
     "53db77d2bdd03fbf5d4f86518e773f7e8a2f10cd3d98284c56cc98da02f320a8"),
    ("inv-unipotent", "involutive", "map n=2 N=5 { comp1: { [1,0]: 1 ; [0,1]: 1 ; [2,0]: 1 } ; comp2: { [0,1]: 1 ; [1,1]: -1 } }",
     "0120d78caa1edef2aad3835ed1f1d0c30e83219929779660268adff5716e6054"),
    # the rev-field map in involutive mode: i and r3 coefficients through
    # the involutive pipeline and its verifier
    ("inv-field", "involutive", "map n=2 N=5 { comp1: { [1,0]: 3 ; [1,1]: r3 } ; comp2: { [0,1]: 1/3 ; [0,2]: 1 + i } }",
     "4bf6626cf2aadeb57a3f98f15ca09bc26b3cd98ce31432de6da61d3901d023c5"),
    ("inv-neg-identity", "involutive", "map n=2 N=6 { comp1: { [1,0]: -1 ; [2,0]: 2 } ; comp2: { [0,1]: -1 ; [0,3]: 3 } }",
     "5a632db08c82dac0333394b7f62b0fce3645894d71f5e0c294da06e32ff36f10"),
    ("inv-prime", "involutive", "map n=2 N=5 { comp1: { [1,0]: 3 ; [0,2]: 1 } ; comp2: { [0,1]: 1/3 ; [1,1]: -2 } }",
     "31d0098d5e332b08ce444beac8ee1a2ffea18d2f4581cfa638c5652d20eb7a73"),
    ("inv-triangular-n2", "involutive", "map n=2 N=5 { comp1: { [1,0]: 2 ; [0,1]: 1 ; [1,1]: 1 } ; comp2: { [0,1]: 1/2 ; [2,0]: 3 } }",
     "ba040c75745eaf36432af91e156944878c920af103c5d4412eac9b406987e50c"),
    ("inv-n4-jordan", "involutive", "map n=4 N=4 { comp1: { [1,0,0,0]: 2 ; [0,1,0,0]: 1 } ; comp2: { [0,1,0,0]: 2 ; [0,0,1,0]: 1 ; [1,1,1,0]: 3 } ; comp3: { [0,0,1,0]: 1 ; [0,0,0,1]: 1 } ; comp4: { [0,0,0,1]: 1/4 ; [0,2,0,1]: 1 } }",
     "ec6198f278b42d9f61bea89878d49316fc74eda9d6d89a4e551f5a12f91ff5bd"),
    # deep denominators: factor and witness denominators reach 200 bits
    ("rev-n4-jordan-N5", "reversible", "map n=4 N=5 { comp1: { [1,0,0,0]: 2 ; [0,1,0,0]: 1 } ; comp2: { [0,1,0,0]: 2 ; [0,0,1,0]: 1 ; [1,1,1,0]: 3 } ; comp3: { [0,0,1,0]: 1 ; [0,0,0,1]: 1 } ; comp4: { [0,0,0,1]: 1/4 ; [0,2,0,1]: 1 } }",
     "a578b63e9b6c9d20797e05af2c7873209697929edcee215f5ac345d5285f7afb"),
    ("inv-n4-jordan-N5", "involutive", "map n=4 N=5 { comp1: { [1,0,0,0]: 2 ; [0,1,0,0]: 1 } ; comp2: { [0,1,0,0]: 2 ; [0,0,1,0]: 1 ; [1,1,1,0]: 3 } ; comp3: { [0,0,1,0]: 1 ; [0,0,0,1]: 1 } ; comp4: { [0,0,0,1]: 1/4 ; [0,2,0,1]: 1 } }",
     "ff02b8ec161629128a01f6755d0d8bb990527b1e8051df9b8f49bdcc930f495a"),
    ("inv-n4-jordan-N6", "involutive", "map n=4 N=6 { comp1: { [1,0,0,0]: 2 ; [0,1,0,0]: 1 } ; comp2: { [0,1,0,0]: 2 ; [0,0,1,0]: 1 ; [1,1,1,0]: 3 } ; comp3: { [0,0,1,0]: 1 ; [0,0,0,1]: 1 } ; comp4: { [0,0,0,1]: 1/4 ; [0,2,0,1]: 1 } }",
     "512a3bcdb56dd4863a61b750d5e5239e711d3a6a83ae1038eb6d6438a2e900da"),
    # an odd parent: two frames nest, and kernel pieces are re-paired
    # after the literal swap fails to lift
    ("rev-n5-odd-parent", "reversible", N5_ODD_PARENT,
     "d3bb0996400c3641e564d9f2d694ec97906676be591ed851ebda0abb0b6c7398"),
    ("inv-n5-odd-parent", "involutive", N5_ODD_PARENT,
     "33b83b27ae77c45beb4dbe0bb97258be8687ed567fa31ce9d0818035ddf7137f"),
    # an i*r3 coefficient: products whose rows lie in Q(i*r3) take the
    # two-part loop with w**2 = -3
    ("rev-i-r3", "reversible", I_R3,
     "beb95e232eb21ac9255161d34c23658b3a1ce20246b9c90dce592146a84603cb"),
    ("inv-i-r3", "involutive", I_R3,
     "3a327dc41769a3f9ec6bbe79321b57b456e84e7115738a701b39d27531ba7e47"),
    # one variable, the base case: the quadratic-led, cubic-led, shift
    # and flip splits, and in involutive mode a four-involution split and
    # an involution kept whole
    ("rev-n1-quadratic-led", "reversible", "map n=1 N=6 { comp1: { [1]: 1 ; [2]: 1 ; [3]: 3 } }",
     "a03796b2a8bad6772674f5d9148bcdf18af413903b0d0aa5f6da719b39d94878"),
    ("rev-n1-cubic-led", "reversible", "map n=1 N=6 { comp1: { [1]: 1 ; [3]: 1 ; [4]: 1 } }",
     "ded67f8d14605ae5189b258664fd580f4e12053fa198ea1cd51e9998775af4f4"),
    ("rev-n1-quartic-led-N8", "reversible", "map n=1 N=8 { comp1: { [1]: 1 ; [4]: 1 } }",
     "1b5cb45eebbe74fdae7b01e175aa81450b6e1a089c687738a0a4bd253756ea65"),
    ("rev-n1-flip-split", "reversible", "map n=1 N=6 { comp1: { [1]: -1 ; [3]: 1 } }",
     "b745af41091e901ec91bcbb266417851a1aa7140a95050f3ce4c323330f31e4b"),
    ("inv-n1-quartic-led", "involutive", "map n=1 N=6 { comp1: { [1]: 1 ; [4]: 2 } }",
     "c55969774c04286c1b1e96ed589f6f948c09aeef63728b81532e42d7e504d03f"),
    ("inv-n1-flip", "involutive", "map n=1 N=6 { comp1: { [1]: -1 } }",
     "268a8ad548f2de8c0223eb227a5d7ae30d689c64b7ca70caf3441af1b34ffb57"),
]


@pytest.mark.parametrize(
    "mode, text, sha", [c[1:] for c in PINNED_CERTIFICATES], ids=[c[0] for c in PINNED_CERTIFICATES]
)
def test_certificate_bytes_are_pinned(mode, text, sha):
    factor = factor_reversibles if mode == "reversible" else factor_involutions
    text = format_certificate(certificate(factor(parse_map(text))))
    assert hashlib.sha256(text.encode()).hexdigest() == sha


# In involutive mode each factor is split into involutions where it is
# made, before any conjugation: the split and its checks meet only the
# undressed pieces, and a conjugation dresses only involutions.
# The i*r3 map is a paired-centralizer member, split directly with no
# conjugation, and a one-variable map is never conjugated, so nothing
# dresses their factors.
INVOLUTIVE_PINS = [
    c for c in PINNED_CERTIFICATES
    if c[1] == "involutive" and c[0] != "inv-i-r3" and not c[0].startswith("inv-n1-")
]


def _dressing_spy(monkeypatch, change=None):
    """Wrap _dress_factors: record the witness kinds of every factor it
    receives, and let ``change`` edit the dressed list."""
    dress_factors = factor_module._dress_factors
    kinds = []

    def spy(factors, C, Cinv):
        kinds.extend(f.witness.kind for f in factors)
        out = dress_factors(factors, C, Cinv)
        return out if change is None else change(out)

    monkeypatch.setattr(factor_module, "_dress_factors", spy)
    return kinds


@pytest.mark.parametrize(
    "text", [c[2] for c in INVOLUTIVE_PINS], ids=[c[0] for c in INVOLUTIVE_PINS]
)
def test_involutive_mode_dresses_only_involutions(monkeypatch, text):
    kinds = _dressing_spy(monkeypatch)
    factor_involutions(parse_map(text))
    assert kinds and set(kinds) == {"involution_self"}


def test_a_corrupted_dressed_involution_fails_the_recomposition(monkeypatch):
    # a dressed involution is not squared again, so a wrong one is caught
    # by the final recomposition
    def corrupt(factors):
        f = factors[0]
        n, N = f.map.nvars, f.map.trunc
        bump = Series(n, N, {(N,) + (0,) * (n - 1): 1})
        m = FormalMap([f.map.comps[0] + bump, *f.map.comps[1:]])
        factors[0] = Factor(m, Witness("involution_self", m, N), f.kind)
        return factors

    kinds = _dressing_spy(monkeypatch, corrupt)
    with pytest.raises(AssertionError, match="failed to recompose"):
        factor_involutions(parse_map(INVOLUTIVE_PINS[0][2]))
    assert kinds


# The lifted witnesses are checked where they turn into factors: a wrong
# permutation, a wrong re-pairing or a failed re-pairing must not pass.
ODD_PARENT_FACTORS = [factor_reversibles, factor_involutions]


@pytest.mark.parametrize("factor", ODD_PARENT_FACTORS)
@pytest.mark.parametrize("name", ["lift_permutation", "unit_pairing_perm"])
def test_a_wrong_lifted_permutation_is_caught(monkeypatch, factor, name):
    if name == "lift_permutation":
        monkeypatch.setattr(factor_module, name, lambda perm, n: tuple(range(n)))
    else:
        monkeypatch.setattr(factor_module, name, lambda m: tuple(range(m.nvars)))
    with pytest.raises(AssertionError):
        factor(parse_map(N5_ODD_PARENT))


@pytest.mark.parametrize("factor", ODD_PARENT_FACTORS)
def test_a_failed_repairing_is_an_obstruction(monkeypatch, tmp_path, capsys, factor):
    monkeypatch.setattr(factor_module, "unit_pairing_perm", lambda m: None)
    with pytest.raises(FactorObstruction, match="no liftable reverser found for a kernel piece"):
        factor(parse_map(N5_ODD_PARENT))
    path = tmp_path / "n5.map"
    path.write_text(N5_ODD_PARENT + "\n")
    mode = "reversible" if factor is factor_reversibles else "involutive"
    assert main(["factor", "--mode", mode, str(path), "--truncation", "4"]) == 3
    assert "no liftable reverser" in capsys.readouterr().err
