import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from revfactor.scalars import Scalar, scalar
from revfactor.series import Series, Table, compose
from revfactor.maps import FormalMap, map_compose, map_invert, conjugate
from revfactor.structure import (
    GenericityReport,
    PairedDiagonal,
    ShapeError,
    centralizer_membership,
    extract_centralizer,
    extract_unit_shape,
    fresh_prime_diagonal,
    half_counts,
    kernel_embed,
    lift_section,
    make_centralizer,
    make_unit_shape,
    pair_projection,
    pair_swap,
    project_base,
    split_centralizer,
)
from revfactor.structure import _primes, _rational_exponent_rows, _rational_rank


def _random_unit(nvars, N, rng, allow_zero_linear=False):
    """A unit series with small random coefficients."""
    data = {(0,) * nvars: rng.choice([1, -1, 2])}
    for _ in range(4):
        e = [0] * nvars
        for _ in range(rng.randint(1, min(3, N))):
            e[rng.randrange(nvars)] += 1
        if sum(e) <= N:
            data[tuple(e)] = rng.choice([1, -1, 2, -2, 3])
    return Series(nvars, N, data)


def _random_admissible(nvars, N, rng):
    e_last = [0] * nvars
    e_last[-1] = 1
    data = {tuple(e_last): rng.choice([1, -1, 2])}
    for _ in range(3):
        e = [0] * nvars
        for _ in range(rng.randint(1, min(3, N))):
            e[rng.randrange(nvars)] += 1
        if 0 < sum(e) <= N:
            data[tuple(e)] = rng.choice([1, -1, 2])
    return Series(nvars, N, data)


def _random_member(n, N, rng):
    m, k = half_counts(n)
    width = k if n % 2 else m
    phi = tuple(_random_unit(width, N, rng) for _ in range(2 * m))
    psi = _random_admissible(width, N, rng) if n % 2 else None
    return make_centralizer(phi, psi)


def _weighted_exponents(width, odd, budget, N):
    """Exponent tuples whose pairing-weighted degree fits the budget."""
    out = []
    for e in itertools.product(range(N + 1), repeat=width):
        if sum(e) <= N and 2 * sum(e) - (e[-1] if odd else 0) <= budget:
            out.append(e)
    return out


def _random_canonical_unit(width, N, odd, rng):
    """A unit whose monomials all stay visible through the pairing."""
    data = {(0,) * width: rng.choice([1, -1, 2])}
    pool = [e for e in _weighted_exponents(width, odd, N - 1, N) if sum(e)]
    for e in rng.sample(pool, min(3, len(pool))):
        data[e] = rng.choice([1, -1, 2, -2])
    return Series(width, N, data)


def _random_canonical_admissible(width, N, rng):
    e_last = (0,) * (width - 1) + (1,)
    data = {e_last: rng.choice([1, -1, 2])}
    pool = [e for e in _weighted_exponents(width, True, N, N) if sum(e)]
    for e in rng.sample(pool, min(3, len(pool))):
        data[e] = data.get(e, scalar(0)) + scalar(rng.choice([1, -1]))
    return Series(width, N, data)


# ---------------------------------------------------------------------------
# monomial maps


def test_pair_projection_n3():
    pi = pair_projection(3, 6)
    assert len(pi) == 2
    assert pi[0] == Series(3, 6, {(1, 1, 0): 1})
    assert pi[1] == Series(3, 6, {(0, 0, 1): 1})


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7])
def test_projection_insertion_is_identity(n):
    N = 5
    pi = pair_projection(n, N)
    m, k = half_counts(n)
    # the right inverse (t_1, 1, t_2, 1, ..., [t_k]): not origin-preserving,
    # but composition with it is still exact on truncated series
    eps = []
    for i in range(m):
        eps += [Series.variable(k, N, i), Series.one(k, N)]
    if n % 2:
        eps.append(Series.variable(k, N, k - 1))
    got = [compose(c, eps) for c in pi]
    want = [Series.variable(k, N, i) for i in range(k)]
    assert got == want


def test_pair_swap_shapes():
    J2 = pair_swap(2, 6)
    assert J2.comps[0] == Series(2, 6, {(0, 1): 1})
    assert J2.comps[1] == Series(2, 6, {(1, 0): 1})
    J5 = pair_swap(5, 4)
    assert [s.coeffs for s in J5.comps] == [
        {(0, 1, 0, 0, 0): Scalar(1)},
        {(1, 0, 0, 0, 0): Scalar(1)},
        {(0, 0, 0, 1, 0): Scalar(1)},
        {(0, 0, 1, 0, 0): Scalar(1)},
        {(0, 0, 0, 0, 1): Scalar(1)},
    ]
    assert map_compose(J5, J5).is_identity()


# ---------------------------------------------------------------------------
# paired diagonals


def test_genericity_frozen_examples():
    assert PairedDiagonal((2, 3), 4).is_generic()
    assert PairedDiagonal((6, 12), 4).is_generic()
    assert not PairedDiagonal((2, scalar(1) / 2), 4).is_generic()
    assert not PairedDiagonal((4, 2), 4).is_generic()
    assert not PairedDiagonal((6, 36), 4).is_generic()
    rep = PairedDiagonal((Fraction(10, 3), Fraction(9, 100)), 4).genericity()
    assert rep.status == "not-generic"


def _prime_exponent_rows(values):
    """Reference rows by trial division: one column per prime."""
    rows = []
    for v in values:
        row = {}
        for x, sign in ((abs(v.numerator), 1), (v.denominator, -1)):
            p = 2
            while p * p <= x:
                while x % p == 0:
                    row[p] = row.get(p, 0) + sign
                    x //= p
                p += 1
            if x > 1:
                row[x] = row.get(x, 0) + sign
        rows.append(row)
    primes = sorted({p for row in rows for p in row})
    return [[Fraction(row.get(p, 0)) for p in primes] for row in rows]


# small bases make multiplicative relations common
_factor = st.one_of(
    st.integers(1, 10**6), st.sampled_from([1, 2, 3, 4, 6, 8, 9, 12, 18, 27, 36, 1000])
)
_rational = st.builds(
    lambda sign, p, q: Fraction(sign * p, q), st.sampled_from([1, -1]), _factor, _factor
)


@given(st.lists(_rational, min_size=1, max_size=5))
@settings(max_examples=200, deadline=None)
def test_coprime_base_rank_equals_prime_exponent_rank(values):
    rows = _rational_exponent_rows([scalar(v) for v in values])
    assert _rational_rank(rows) == _rational_rank(_prime_exponent_rows(values))


def test_prime_generator_yields_the_primes():
    first_50 = [
        2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67,
        71, 73, 79, 83, 89, 97, 101, 103, 107, 109, 113, 127, 131, 137, 139,
        149, 151, 157, 163, 167, 173, 179, 181, 191, 193, 197, 199, 211, 223,
        227, 229,
    ]
    assert list(itertools.islice(_primes(), 50)) == first_50


def test_genericity_root_of_unity_and_tower():
    rep = PairedDiagonal((Scalar(0, 1), 2), 4).genericity()
    assert rep.status == "not-generic"
    r3 = Scalar(0, 0, 1)
    rep2 = PairedDiagonal((r3, 2), 4).genericity()
    assert rep2.status == "undecided"
    assert isinstance(rep2, GenericityReport) and not rep2


def test_realize_odd_has_trailing_one():
    d = PairedDiagonal((2,), 3)
    F = d.realize(5)
    assert F.comps[0] == Series(3, 5, {(1, 0, 0): 2})
    assert F.comps[1] == Series(3, 5, {(0, 1, 0): scalar(1) / 2})
    assert F.comps[2] == Series(3, 5, {(0, 0, 1): 1})


def test_fresh_prime_diagonal_avoids_and_is_generic():
    d = fresh_prime_diagonal(6, avoid=(3, 5))
    assert d.multipliers == (Scalar(2), Scalar(7), Scalar(11))
    assert d.is_generic()


def test_pair_swap_reverses_paired_diagonals():
    for n in (2, 3, 4, 5):
        d = fresh_prime_diagonal(n)
        D = d.realize(4)
        J = pair_swap(n, 4)
        assert conjugate(D, J) == map_invert(D)


# ---------------------------------------------------------------------------
# centralizer shape


def test_make_centralizer_odd_frozen_example():
    # units all 1, last component built from t2 + t1 -> z3 + z1*z2
    one = Series.one(2, 6)
    psi = Series(2, 6, {(0, 1): 1, (1, 0): 1})
    F = make_centralizer((one, one), psi)
    assert F.comps[0] == Series(3, 6, {(1, 0, 0): 1})
    assert F.comps[1] == Series(3, 6, {(0, 1, 0): 1})
    assert F.comps[2] == Series(3, 6, {(0, 0, 1): 1, (1, 1, 0): 1})


def test_membership_rejects_off_shape():
    F = FormalMap([Series(2, 6, {(1, 0): 1, (0, 2): 1}), Series(2, 6, {(0, 1): 1})])
    res = centralizer_membership(F)
    assert not res
    assert "component 1" in res.reason


def test_membership_accepts_and_extracts():
    rng = random.Random(7)
    for n in (2, 3, 4, 5):
        F = _random_member(n, 5, rng)
        assert centralizer_membership(F)
        phi, psi = extract_centralizer(F)
        assert make_centralizer(phi, psi) == F


def test_members_commute_with_generic_diagonals():
    rng = random.Random(11)
    for n in (2, 3, 4, 5):
        F = _random_member(n, 5, rng)
        D = fresh_prime_diagonal(n).realize(5)
        assert map_compose(F, D) == map_compose(D, F)


def test_non_member_fails_to_commute():
    F = FormalMap([Series(2, 4, {(1, 0): 1, (0, 2): 1}), Series(2, 4, {(0, 1): 1})])
    D = fresh_prime_diagonal(2).realize(4)
    assert map_compose(F, D) != map_compose(D, F)


def test_make_centralizer_validates_units():
    bad = Series(1, 4, {(1,): 1})  # no constant term
    with pytest.raises(ShapeError):
        make_centralizer((bad, Series.one(1, 4)))
    with pytest.raises(ShapeError):
        # admissible last component must involve the last variable
        make_centralizer(
            (Series.one(2, 4), Series.one(2, 4)),
            Series(2, 4, {(1, 0): 1}),
        )


# ---------------------------------------------------------------------------
# projection, section, kernel


def test_project_base_frozen_even():
    # z1 (1 + p), z2  ->  t (1 + t)
    F = FormalMap([Series(2, 6, {(1, 0): 1, (2, 1): 1}), Series(2, 6, {(0, 1): 1})])
    chi = project_base(F)
    assert chi.comps[0] == Series(1, 6, {(1,): 1, (2,): 1})


def test_project_base_frozen_odd():
    one = Series.one(2, 6)
    psi = Series(2, 6, {(0, 1): 1, (1, 0): 1})
    F = make_centralizer((one, one), psi)
    chi = project_base(F)
    assert chi.comps[0] == Series(2, 6, {(1, 0): 1})
    assert chi.comps[1] == psi


def test_lift_section_frozen():
    chi = FormalMap([Series(1, 6, {(1,): 1, (2,): 1})])
    H = lift_section(chi, 2)
    assert H.comps[0] == Series(2, 6, {(1, 0): 1, (2, 1): 1})
    assert H.comps[1] == Series(2, 6, {(0, 1): 1})


def test_lift_section_even_slots_are_coordinates():
    rng = random.Random(3)
    for n in (4, 6):
        m, _ = half_counts(n)
        lams = tuple(_random_unit(m, 5, rng) for _ in range(m))
        H = lift_section(make_unit_shape(lams), n)
        for i in range(m):
            assert H.comps[2 * i + 1] == Series.variable(n, 5, 2 * i + 1)


def test_section_is_right_inverse_and_homomorphism():
    rng = random.Random(19)
    for n in (2, 3, 4, 5):
        m, k = half_counts(n)
        odd = bool(n % 2)
        width = k if odd else m

        def rand_chi(canonical):
            make = _random_canonical_unit if canonical else (
                lambda w, N, o, r: _random_unit(w, N, r)
            )
            lams = tuple(make(width, 5, odd, rng) for _ in range(m))
            psi = None
            if odd:
                psi = (
                    _random_canonical_admissible(width, 5, rng)
                    if canonical
                    else _random_admissible(width, 5, rng)
                )
            return make_unit_shape(lams, psi)

        a = rand_chi(canonical=True)
        Ha = lift_section(a, n)
        # right inverse holds exactly on canonical base maps
        assert project_base(Ha) == a
        # the section is a homomorphism on arbitrary base maps
        b = rand_chi(canonical=False)
        Hb = lift_section(b, n)
        assert map_compose(Ha, Hb) == lift_section(map_compose(a, b), n)
        assert map_invert(Ha) == lift_section(map_invert(a), n)


def test_projection_is_homomorphism_and_semiconjugacy():
    rng = random.Random(23)
    for n in (2, 3, 4, 5):
        F, G = _random_member(n, 5, rng), _random_member(n, 5, rng)
        assert project_base(map_compose(F, G)) == project_base(
            lift_section(map_compose(project_base(F), project_base(G)), n)
        )
        # projection o F  ==  project_base(F) o projection (exact, no
        # canonicalization needed)
        pi = pair_projection(n, 5)
        chi = project_base(F)
        table = Table(F.comps)
        left = [compose(c, F.comps, table) for c in pi]
        table2 = Table(pi)
        right = [compose(c, pi, table2) for c in chi.comps]
        assert left == right


def test_kernel_embed_frozen_phi_inverse_pairs():
    # one unit 1 + t: pairs carry the unit and its reciprocal
    phi = (Series(1, 6, {(0,): 1, (1,): 1}),)
    K = kernel_embed(phi, 2)
    assert K.comps[0] == Series(2, 6, {(1, 0): 1, (2, 1): 1})
    # the reciprocal 1 - t + t^2 - ... is recovered up to the degree
    # visible through the degree-2 pairing
    assert extract_centralizer(K)[0][1] == Series(1, 6, {(0,): 1, (1,): -1, (2,): 1})


def test_kernel_projects_to_identity_and_swap_inverts():
    rng = random.Random(31)
    for n in (2, 3, 4, 5):
        m, k = half_counts(n)
        width = k if n % 2 else m
        phi = tuple(_random_unit(width, 5, rng) for _ in range(m))
        K = kernel_embed(phi, n)
        assert project_base(K).is_identity()
        J = pair_swap(n, 5)
        assert conjugate(K, J) == map_invert(K)


def test_kernel_is_abelian():
    rng = random.Random(37)
    for n in (2, 3, 4, 5):
        m, k = half_counts(n)
        width = k if n % 2 else m
        a = kernel_embed(tuple(_random_unit(width, 5, rng) for _ in range(m)), n)
        b = kernel_embed(tuple(_random_unit(width, 5, rng) for _ in range(m)), n)
        assert map_compose(a, b) == map_compose(b, a)


def test_exactness_kernel_equals_image():
    rng = random.Random(41)
    for n in (2, 3, 4, 5):
        m, k = half_counts(n)
        width = k if n % 2 else m
        # image contained in kernel: checked by projects-to-identity above;
        # kernel contained in image: a member whose pair products are 1 and
        # whose last component is the coordinate must be an embedded tuple.
        units = []
        firsts = []
        for _ in range(m):
            u = _random_unit(width, 5, rng)
            units += [u, u.invert_unit()]
            firsts.append(u)
        psi = Series.variable(width, 5, width - 1) if n % 2 else None
        F = make_centralizer(tuple(units), psi)
        assert project_base(F).is_identity()
        assert F == kernel_embed(tuple(firsts), n)


def test_split_centralizer_roundtrip_and_uniqueness():
    rng = random.Random(43)
    for n in (2, 3, 4, 5):
        F = _random_member(n, 5, rng)
        chi, Phi = split_centralizer(F)
        assert chi == project_base(F)
        H = lift_section(chi, n)
        assert map_compose(H, Phi) == F
        units, _ = extract_centralizer(map_compose(map_invert(H), F))
        assert Phi == kernel_embed(units[::2], n)
        # uniqueness: same split from the reconstruction
        chi2, Phi2 = split_centralizer(map_compose(H, Phi))
        assert chi2 == chi and Phi2 == Phi


def test_split_rejects_non_member():
    F = FormalMap([Series(2, 4, {(1, 0): 1, (0, 2): 1}), Series(2, 4, {(0, 1): 1})])
    with pytest.raises(ShapeError):
        split_centralizer(F)


# ---------------------------------------------------------------------------
# composition laws for unit data


def _compose_units(phi, phi2, chi2):
    """Pointwise law: (phi'' )_j = phi2_j * (phi_j o chi2)."""
    table = Table(chi2.comps)
    return tuple(
        p2 * compose(p, chi2.comps, table) for p, p2 in zip(phi, phi2)
    )


def test_composition_law_even():
    rng = random.Random(47)
    for n in (2, 4):
        m, _ = half_counts(n)
        phi = tuple(_random_unit(m, 5, rng) for _ in range(2 * m))
        phi2 = tuple(_random_unit(m, 5, rng) for _ in range(2 * m))
        F, G = make_centralizer(phi), make_centralizer(phi2)
        chi2 = project_base(G)
        want = make_centralizer(_compose_units(phi, phi2, chi2))
        assert map_compose(F, G) == want


def test_composition_law_odd():
    rng = random.Random(53)
    for n in (3, 5):
        m, k = half_counts(n)
        phi = tuple(_random_unit(k, 5, rng) for _ in range(2 * m))
        psi = _random_admissible(k, 5, rng)
        phi2 = tuple(_random_unit(k, 5, rng) for _ in range(2 * m))
        psi2 = _random_admissible(k, 5, rng)
        F, G = make_centralizer(phi, psi), make_centralizer(phi2, psi2)
        chi2 = project_base(G)
        want = make_centralizer(
            _compose_units(phi, phi2, chi2), compose(psi, chi2.comps)
        )
        assert map_compose(F, G) == want


def test_composition_law_unit_shape():
    rng = random.Random(59)
    lams = tuple(_random_unit(2, 5, rng) for _ in range(2))
    lams2 = tuple(_random_unit(2, 5, rng) for _ in range(2))
    a, b = make_unit_shape(lams), make_unit_shape(lams2)
    want = make_unit_shape(_compose_units(lams, lams2, b))
    assert map_compose(a, b) == want


def test_extract_unit_shape_flags():
    lam = Series(2, 5, {(0, 0): 1, (1, 0): 1})
    psi = Series(2, 5, {(0, 1): 1, (2, 0): 1})
    chi = make_unit_shape((lam,), psi)
    lams, got_psi = extract_unit_shape(chi, hat=True)
    assert lams == (lam,) and got_psi == psi
    with pytest.raises(ShapeError):
        extract_unit_shape(chi, hat=False)


# ---------------------------------------------------------------------------
# property checks


units_strategy = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=3), st.integers(min_value=-3, max_value=3)
    ),
    min_size=0,
    max_size=4,
)


def _series_from(pairs, N=4):
    data = {(0,): 1}
    for deg, c in pairs:
        if 0 < deg <= N and c:
            data[(deg,)] = data.get((deg,), scalar(0)) + scalar(c)
    return Series(1, N, data)


@st.composite
def centralizer_members(draw):
    """A centralizer member for n = 2..5 at N = 3..7, with an admissible
    last component when n is odd."""
    n, N = draw(st.integers(2, 5)), draw(st.integers(3, 7))
    m, k = half_counts(n)
    width = k if n % 2 else m
    monomials = [
        e for e in itertools.product(range(N + 1), repeat=width) if 1 <= sum(e) <= N
    ]
    value = st.integers(min_value=-3, max_value=3)

    def series(lead):
        data = draw(st.dictionaries(st.sampled_from(monomials), value, max_size=3))
        data[lead] = draw(value.filter(bool))
        return Series(width, N, data)

    phi = tuple(series((0,) * width) for _ in range(2 * m))
    psi = series((0,) * (width - 1) + (1,)) if n % 2 else None
    return make_centralizer(phi, psi)


@given(centralizer_members())
@settings(max_examples=40, deadline=None)
def test_split_of_product_recombines(F):
    n = F.nvars
    chi, Phi = split_centralizer(F)
    H = lift_section(chi, n)
    assert map_compose(H, Phi) == F
    # the reference readout: the even-slot units of the kernel remainder
    units, _ = extract_centralizer(map_compose(map_invert(H), F))
    assert Phi == kernel_embed(units[::2], n)


@given(units_strategy)
@settings(max_examples=40, deadline=None)
def test_kernel_inverse_is_reciprocal(u):
    phi = (_series_from(u),)
    K = kernel_embed(phi, 2)
    assert map_invert(K) == kernel_embed((phi[0].invert_unit(),), 2)
