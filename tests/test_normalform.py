import random

import pytest

from revfactor.scalars import I, Scalar, scalar
from revfactor.series import Series
from revfactor.maps import (
    FormalMap,
    Matrix,
    conjugate,
    conjugate_linear,
    map_compose,
    map_invert,
)
from revfactor.normalform import (
    Obstruction,
    Witness,
    poincare_dulac,
    solve_conjugacy,
    verify_witness,
)
from revfactor.structure import centralizer_membership, fresh_prime_diagonal, pair_swap


def _one_d(coeffs, N=6):
    data = {}
    for d, c in coeffs.items():
        data[(d,)] = c
    return FormalMap([Series(1, N, data)])


def _eigenvalue(lam, q):
    power = Scalar(1)
    for l, k in zip(lam, q):
        power = power * l**k
    return power


def _extend_seed(g, seed):
    """h = seed o U with h^-1 g h = g^-1: U conjugates seed^-1 g seed to
    g^-1, or the Obstruction solve_conjugacy returns."""
    U = solve_conjugacy(conjugate_linear(g, seed), map_invert(g))
    if isinstance(U, Obstruction):
        return U
    return map_compose(FormalMap.from_linear(seed, g.trunc), U)


# ---------------------------------------------------------------------------
# poincare_dulac


def test_normalization_frozen_example():
    F = FormalMap(
        [Series(2, 6, {(1, 0): 2, (0, 2): 1}), Series(2, 6, {(0, 1): scalar(1) / 2})]
    )
    G, K = poincare_dulac(F)
    assert G == FormalMap.diagonal([2, scalar(1) / 2], 6)
    assert K.comps[0] == Series(2, 6, {(1, 0): 1, (0, 2): scalar(-4) / 7})
    assert K.comps[1] == Series(2, 6, {(0, 1): 1})
    assert map_compose(F, K) == map_compose(K, G)


def test_normalization_of_linear_is_trivial():
    F = FormalMap.diagonal([3, 5], 5)
    G, K = poincare_dulac(F)
    assert G == F
    assert K.is_identity()


def test_normalization_is_idempotent():
    F = FormalMap(
        [Series(2, 5, {(1, 0): 2, (0, 2): 1, (2, 1): 3}), Series(2, 5, {(0, 1): 5})]
    )
    G, K = poincare_dulac(F)
    G2, K2 = poincare_dulac(G)
    assert G2 == G
    assert K2.is_identity()


def test_normalization_requires_diagonal_linear_part():
    F = FormalMap([Series(2, 4, {(1, 0): 1, (0, 1): 1}), Series(2, 4, {(0, 1): 1})])
    with pytest.raises(ValueError):
        poincare_dulac(F)


def test_generic_paired_linear_part_normalizes_into_centralizer():
    rng = random.Random(5)
    for n in (2, 3, 4):
        D = fresh_prime_diagonal(n).realize(5)
        junk = []
        for j in range(n):
            data = dict(D.comps[j].coeffs)
            for _ in range(3):
                e = [0] * n
                for _ in range(rng.randint(2, 4)):
                    e[rng.randrange(n)] += 1
                data[tuple(e)] = rng.choice([1, -1, 2])
            junk.append(Series(n, 5, data))
        F = FormalMap(junk)
        G, K = poincare_dulac(F)
        assert K.is_tangent_to_identity()
        assert map_compose(F, K) == map_compose(K, G)
        assert centralizer_membership(G)


def test_surviving_monomials_are_exactly_resonant():
    F = FormalMap(
        [
            Series(2, 5, {(1, 0): 2, (2, 1): 1, (0, 2): 3}),
            Series(2, 5, {(0, 1): scalar(1) / 2, (1, 2): -1, (3, 0): 1}),
        ]
    )
    G, K = poincare_dulac(F)
    lam = (Scalar(2), scalar(1) / 2)
    for j in range(2):
        for q in G.comps[j].coeffs:
            assert _eigenvalue(lam, q) == lam[j]
        for q in K.comps[j].coeffs:
            if sum(q) > 1:
                assert _eigenvalue(lam, q) != lam[j]
    assert any(sum(q) > 1 for c in K.comps for q in c.coeffs)
    # the resonant coefficients kept: z1^2 z2 in comp 1, z1 z2^2 in comp 2
    assert G.comps[0] == Series(2, 5, {(1, 0): 2, (2, 1): 1})
    assert G.comps[1] == Series(2, 5, {(0, 1): scalar(1) / 2, (1, 2): -1})


# ---------------------------------------------------------------------------
# solve_conjugacy


def test_conjugacy_identity_case():
    F = _one_d({1: 1, 2: 1})
    K = solve_conjugacy(F, F)
    assert isinstance(K, FormalMap) and K.is_identity()


def test_conjugacy_scaling_seed():
    G = _one_d({1: 1, 2: 1, 3: 1})
    F = _one_d({1: 1, 2: 2, 3: 4})
    seed = Matrix([[2]])
    U = solve_conjugacy(conjugate_linear(G, seed), F)
    assert isinstance(U, FormalMap)
    K = map_compose(FormalMap.from_linear(seed, 6), U)
    assert K == _one_d({1: 2})
    assert map_compose(G, K) == map_compose(K, F)


def test_conjugacy_obstruction_frozen():
    F = _one_d({1: 1, 2: 1})
    G = _one_d({1: 1, 3: 1})
    res = solve_conjugacy(F, G)
    assert isinstance(res, Obstruction)
    assert not res
    assert res.degree == 2 and res.component == 1
    assert "degree 2" in res.equation()


def test_conjugacy_mismatched_linear_parts_need_seed():
    F = _one_d({1: 2})
    G = _one_d({1: 3})
    res = solve_conjugacy(F, G)
    assert isinstance(res, Obstruction)
    assert "seed" in res.note


def test_conjugacy_solves_non_resonant_two_dim():
    D = FormalMap.diagonal([2, 3], 5)
    F = FormalMap(
        [Series(2, 5, {(1, 0): 2, (0, 2): 1}), Series(2, 5, {(0, 1): 3, (2, 0): 5})]
    )
    K = solve_conjugacy(F, D)
    assert isinstance(K, FormalMap)
    assert conjugate(F, K) == D


# ---------------------------------------------------------------------------
# solve_conjugacy against g^-1: extending a linear reverser seed


def test_reverser_frozen_moebius():
    g = _one_d({1: 1, 2: 1, 3: 1, 4: 1, 5: 1, 6: 1})  # t/(1-t) truncated
    h = _extend_seed(g, Matrix([[-1]]))
    assert h == _one_d({1: -1})
    assert map_compose(h, h).is_identity()
    assert verify_witness(g, Witness("involutive_reverser", h, 6))


def test_reverser_frozen_order_four():
    g = _one_d({1: 1, 3: 1, 5: scalar(3) / 2})
    h = _extend_seed(g, Matrix([[I]]))
    assert h == _one_d({1: I})
    square = map_compose(h, h)
    assert not square.is_identity() and map_compose(square, square).is_identity()
    assert verify_witness(g, Witness("reverser", h, 6))


def test_reverser_frozen_paired_diagonal():
    for n in (2, 3, 4, 5):
        Lam = fresh_prime_diagonal(n).realize(4)
        J = pair_swap(n, 4)
        assert _extend_seed(Lam, J.linear_part()) == J


def test_reverser_rejects_bad_linear_seed():
    g = _one_d({1: 2, 2: 1})
    res = _extend_seed(g, Matrix([[1]]))
    assert isinstance(res, Obstruction)
    assert "linear part" in res.note


def test_reverser_obstruction_at_higher_degree():
    g = _one_d({1: 1, 2: 1, 3: 1, 4: 1, 5: 1, 6: 1})
    res = _extend_seed(g, Matrix([[2]]))  # preserves linear part but fails later
    assert isinstance(res, Obstruction)
    assert res.degree == 2


def test_reverser_nontrivial_correction():
    # conjugating a paired diagonal by a tangent-to-identity map hides the
    # obvious swap witness; the solver must extend the seed nontrivially
    Lam = FormalMap.diagonal([2, scalar(1) / 2], 6)
    V = FormalMap([Series(2, 6, {(1, 0): 1, (0, 2): 1}), Series(2, 6, {(0, 1): 1})])
    g = conjugate(Lam, V)
    J = pair_swap(2, 6)
    h = _extend_seed(g, J.linear_part())
    assert isinstance(h, FormalMap)
    assert verify_witness(g, Witness("reverser", h, 6))
    assert h != J


# ---------------------------------------------------------------------------
# witnesses


def test_witness_serialization_roundtrip():
    h = _one_d({1: -1, 2: 2})
    w = Witness("reverser", h, 6)
    again = Witness.from_json(w.to_json())
    assert again == w


def test_verify_witness_rejects_tampering():
    g = _one_d({1: 1, 2: 1, 3: 1, 4: 1, 5: 1, 6: 1})  # t/(1-t) truncated
    w = Witness("involutive_reverser", _one_d({1: -1}), 6)
    assert verify_witness(g, w)
    bad = Witness(w.kind, _one_d({1: -1, 2: 1}), w.checked_degree)
    assert not verify_witness(g, bad)


def test_verify_witness_involution_self():
    g = _one_d({1: -1})
    w = Witness("involution_self", g, 6)
    assert verify_witness(g, w)
    not_inv = _one_d({1: 1, 2: 1})
    assert not verify_witness(not_inv, Witness("involution_self", not_inv, 6))
