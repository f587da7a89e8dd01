"""End-to-end acceptance suite.

One test per numbered claim; each prints a single PASS/FAIL gate line
(visible under ``pytest -s`` or in captured output) and asserts it.
"""

import itertools
import random
import time

from revfactor.scalars import ONE, R3, Scalar, scalar
from revfactor.series import Series, compose
from revfactor.maps import (
    FormalMap,
    Matrix,
    conjugate,
    is_involution,
    map_compose,
    map_invert,
    parse_map,
)
from revfactor.normalform import poincare_dulac
from revfactor.structure import (
    PairedDiagonal,
    half_counts,
    kernel_embed,
    lift_section,
    make_centralizer,
    pair_projection,
    pair_swap,
    project_base,
    split_centralizer,
)
from revfactor.bounds import (
    chain_estimate,
    compute_bounds,
    order4_class_count,
    table_text,
)
from revfactor.factor import (
    balance_matrix,
    factor_involutions,
    factor_reversibles,
    verify_factorization,
)
from revfactor import dim1


def _gate(num, ok, summary):
    line = f"{'PASS' if ok else 'FAIL'}  criterion {num}: {summary}"
    print(line)
    assert ok, line


def Q(a, b=1):
    return Scalar(a) / Scalar(b)


# ---------------------------------------------------------------------------
# 1. the three-column factor-count table, all 48 entries


TABLE1 = {
    1: (2, 2, 2),
    2: (4, 4, 3),
    3: (7, 6, 5),
    4: (7, 6, 5),
    5: (10, 9, 8),
    6: (9, 8, 7),
    7: (10, 9, 8),
    8: (9, 8, 7),
    9: (13, 12, 11),
    10: (12, 11, 10),
    11: (12, 11, 10),
    12: (11, 10, 9),
    13: (13, 12, 11),
    14: (12, 11, 10),
    15: (12, 11, 10),
    16: (11, 10, 9),
}


def test_criterion_1_table_reproduction():
    t0 = time.perf_counter()
    table = compute_bounds(16)
    elapsed = time.perf_counter() - t0
    bad = [
        n
        for n, (g, d, c) in TABLE1.items()
        if (table.row(n).general, table.row(n).diagonal, table.row(n).centralizer)
        != (g, d, c)
    ]
    assert table_text(16) == table.as_text()
    _gate(
        1,
        not bad and elapsed < 1.0,
        f"all 48 table entries match exactly in {elapsed:.3f}s"
        + (f"; mismatches at n={bad}" if bad else ""),
    )


# ---------------------------------------------------------------------------
# 2. dyadic chain estimates


def test_criterion_2_chain_estimates():
    t0 = time.perf_counter()
    est96, chain96 = chain_estimate(96)
    est97, _ = chain_estimate(97)
    table = compute_bounds(1024)
    # the best certified count is the sharper of the halving recurrence
    # and the dyadic chain; for powers of two the chain gives 2k
    power_ok = all(
        min(table.row(2 ** k).general, chain_estimate(2 ** k)[0]) <= 2 + 2 * k
        for k in range(1, 11)
    )
    elapsed = time.perf_counter() - t0
    ok = (
        est96 <= 14
        and chain96 == (96, 48, 24, 12, 6, 3, 2)
        and est97 <= 20
        and power_ok
        and elapsed < 1.0
    )
    _gate(
        2,
        ok,
        f"96 -> {est96} factors along {'->'.join(map(str, chain96))}, "
        f"97 -> {est97}, powers of two within 2+2k, in {elapsed:.3f}s",
    )


# ---------------------------------------------------------------------------
# 3. reversible pipeline on random prime-diagonal instances


def _prime_instance(n, seed, N=6):
    """Determinant-one map: distinct-prime diagonal plus sparse junk."""
    rng = random.Random(seed)
    primes = (2, 3, 5, 7, 11, 13)
    diag = [Scalar(p) for p in rng.sample(primes, n - 1)]
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
            for _ in range(rng.randint(2, 4)):
                exp[rng.randrange(n)] += 1
            data[tuple(exp)] = Scalar(rng.choice([1, -1, 2, -2, 3, 5]))
        comps.append(Series(n, N, data))
    return FormalMap(comps)


def test_criterion_3_reversible_pipeline():
    t0 = time.perf_counter()
    budgets = {2: 4, 3: 7, 4: 7}
    count = 0
    for n in (2, 3, 4):
        for i in range(100):
            F = _prime_instance(n, seed=1000 * n + i)
            fz = factor_reversibles(F)
            assert fz.recompose() == F, f"recompose failed at n={n} seed {i}"
            assert len(fz.factors) <= budgets[n], f"budget broken at n={n} seed {i}"
            report = verify_factorization(fz)
            assert report.ok, report.as_text()
            count += 1
    elapsed = time.perf_counter() - t0
    _gate(
        3,
        count == 300 and elapsed < 300.0,
        f"{count} instances (100 per n in 2..4) verified in {elapsed:.1f}s",
    )


# ---------------------------------------------------------------------------
# 4. involutive pipeline over two variables


def _n2_det1_instance(seed, N=6):
    rng = random.Random(seed)
    style = rng.randrange(4)
    if style == 0:
        row1 = {(1, 0): ONE, (0, 1): ONE}
        row2 = {(0, 1): ONE}
    elif style == 1:
        row1 = {(1, 0): -ONE, (0, 1): Scalar(rng.choice([0, 1, 2]))}
        row2 = {(0, 1): -ONE}
    else:
        p = Scalar(rng.choice([1, 2, 3, 5]))
        row1 = {(1, 0): p}
        row2 = {(0, 1): p.inverse()}
    for data in (row1, row2):
        for _ in range(rng.randint(1, 2)):
            exp = [0, 0]
            for _ in range(rng.randint(2, 4)):
                exp[rng.randrange(2)] += 1
            data[tuple(exp)] = Scalar(rng.choice([1, -1, 2, -2, 3]))
    return FormalMap(
        [
            Series(2, N, {e: v for e, v in row1.items() if not v.is_zero()}),
            Series(2, N, {e: v for e, v in row2.items() if not v.is_zero()}),
        ]
    )


def test_criterion_4_involutive_pipeline():
    t0 = time.perf_counter()
    for i in range(100):
        F = _n2_det1_instance(4000 + i)
        fz = factor_involutions(F)
        assert fz.recompose() == F, f"recompose failed at seed {i}"
        assert len(fz.factors) <= 14, f"more than 14 involutions at seed {i}"
        for f in fz.factors:
            assert is_involution(f.map)
        assert verify_factorization(fz).ok
    # the worked two-variable instance z1 (1 + (z1 z2)^2), z2
    S = parse_map(
        "map n=2 N=6 { comp1: { [1,0]: 1 ; [3,2]: 1 } ; comp2: { [0,1]: 1 } }"
    )
    fz = factor_involutions(S)
    s_ok = len(fz.factors) <= 8 and fz.recompose() == S
    elapsed = time.perf_counter() - t0
    _gate(
        4,
        s_ok and elapsed < 300.0,
        f"100 instances within 14 involutions, worked instance in "
        f"{len(fz.factors)} <= 8, in {elapsed:.1f}s",
    )


# ---------------------------------------------------------------------------
# 5. normalization correctness


def _pd_instance(n, flavor, seed, N=6):
    rng = random.Random(seed)
    if flavor == "paired":
        m, _ = half_counts(n)
        mult = [Scalar(p) for p in rng.sample((2, 3, 5, 7), m)]
        L = Matrix.diagonal(PairedDiagonal(tuple(mult), n).entries())
    else:
        L = Matrix.diagonal([Scalar(p) for p in rng.sample((2, 3, 5, 7, 11), n)])
    comps = []
    d = L.diagonal_entries()
    for i in range(n):
        e = [0] * n
        e[i] = 1
        data = {tuple(e): d[i]}
        for _ in range(rng.randint(1, 2)):
            exp = [0] * n
            for _ in range(rng.randint(2, 3)):
                exp[rng.randrange(n)] += 1
            data[tuple(exp)] = Scalar(rng.choice([1, -1, 2, 3]))
        comps.append(Series(n, N, data))
    return FormalMap(comps)


def test_criterion_5_normal_form():
    t0 = time.perf_counter()
    count = 0
    for n in (2, 3, 4):
        for flavor in ("paired", "primes"):
            for i in range(17):
                F = _pd_instance(n, flavor, seed=5000 + 100 * n + i)
                G, K, _ = poincare_dulac(F)
                Lm = FormalMap.from_linear(F.linear_part(), F.trunc)
                assert map_compose(G, Lm) == map_compose(Lm, G)
                assert K.linear_part().is_identity()
                G2, K2, _ = poincare_dulac(G)
                assert G2 == G and K2.is_identity()
                assert conjugate(F, K) == G
                count += 1
    elapsed = time.perf_counter() - t0
    _gate(
        5,
        count == 102 and elapsed < 120.0,
        f"{count} normalizations commute with L, tangent conjugators, "
        f"idempotent, in {elapsed:.1f}s",
    )


# ---------------------------------------------------------------------------
# 6. exact-sequence structure of the centralizer


def _unit(width, N, rng):
    data = {(0,) * width: rng.choice([1, -1, 2])}
    for _ in range(4):
        e = [0] * width
        for _ in range(rng.randint(1, 3)):
            e[rng.randrange(width)] += 1
        if sum(e) <= N:
            data[tuple(e)] = rng.choice([1, -1, 2, -2, 3])
    return Series(width, N, data)


def _admissible(width, N, rng):
    e_last = [0] * width
    e_last[-1] = 1
    data = {tuple(e_last): rng.choice([1, -1, 2])}
    for _ in range(3):
        e = [0] * width
        for _ in range(rng.randint(1, 3)):
            e[rng.randrange(width)] += 1
        if 0 < sum(e) <= N:
            data[tuple(e)] = rng.choice([1, -1, 2])
    return Series(width, N, data)


def _member(n, N, rng):
    m, k = half_counts(n)
    width = k if n % 2 else m
    phi = tuple(_unit(width, N, rng) for _ in range(2 * m))
    psi = _admissible(width, N, rng) if n % 2 else None
    return make_centralizer(phi, psi)


def test_criterion_6_structural_exactness():
    t0 = time.perf_counter()
    rng = random.Random(606)
    for n in (2, 3, 4, 5):
        m, k = half_counts(n)
        width = k if n % 2 else m
        N = 6
        pi = pair_projection(n, N)
        J = pair_swap(n, N)
        for _ in range(6):
            F = _member(n, N, rng)
            chi = project_base(F)
            # the projection semiconjugates F to its base map
            memo, memo2 = {}, {}
            left = [compose(c, F.comps, memo) for c in pi]
            right = [compose(c, pi, memo2) for c in chi.comps]
            assert left == right
            # the section is a right inverse on canonical base data
            assert project_base(lift_section(chi, n)) == chi
            # split round-trips
            base, phi = split_centralizer(F)
            assert base == chi
            assert map_compose(lift_section(base, n), kernel_embed(phi, n)) == F
        for _ in range(6):
            # kernel: image of the embedding projects to the identity ...
            phi = tuple(_unit(width, N, rng) for _ in range(m))
            K = kernel_embed(phi, n)
            assert project_base(K).is_identity()
            # ... and every identity-based member is an embedded tuple
            units, firsts = [], []
            for _ in range(m):
                u = _unit(width, N, rng)
                units += [u, u.invert_unit()]
                firsts.append(u)
            psi = Series.variable(width, N, width - 1) if n % 2 else None
            M = make_centralizer(tuple(units), psi)
            assert M == kernel_embed(tuple(firsts), n)
            # the kernel is abelian
            K2 = kernel_embed(tuple(_unit(width, N, rng) for _ in range(m)), n)
            assert map_compose(K, K2) == map_compose(K2, K)
            # the pair swap reverses block-diagonal elements and kernels
            mult = tuple(
                Scalar(rng.choice([2, 3, 5])) / Scalar(rng.choice([1, 7]))
                for _ in range(m)
            )
            D = PairedDiagonal(mult, n).realize(N)
            assert conjugate(D, J) == map_invert(D)
            assert conjugate(K, J) == map_invert(K)
    elapsed = time.perf_counter() - t0
    _gate(
        6,
        elapsed < 120.0,
        f"projection/section/kernel exactness over n in 2..5 in {elapsed:.1f}s",
    )


# ---------------------------------------------------------------------------
# 7. closed-form composition laws and the order-four class count


def _compose_units(phi, phi2, chi2):
    memo = {}
    return tuple(p2 * compose(p, chi2.comps, memo) for p, p2 in zip(phi, phi2))


def test_criterion_7_composition_laws():
    t0 = time.perf_counter()
    rng = random.Random(707)
    pairs = {"even": 0, "odd": 0, "kernel-even": 0, "kernel-odd": 0}
    for _ in range(26):
        for n in (2, 4):
            m, _ = half_counts(n)
            phi = tuple(_unit(m, 6, rng) for _ in range(2 * m))
            phi2 = tuple(_unit(m, 6, rng) for _ in range(2 * m))
            F, G = make_centralizer(phi), make_centralizer(phi2)
            want = make_centralizer(_compose_units(phi, phi2, project_base(G)))
            assert map_compose(F, G) == want
            pairs["even"] += 1
        for n in (3, 5):
            m, k = half_counts(n)
            phi = tuple(_unit(k, 6, rng) for _ in range(2 * m))
            psi = _admissible(k, 6, rng)
            phi2 = tuple(_unit(k, 6, rng) for _ in range(2 * m))
            psi2 = _admissible(k, 6, rng)
            F, G = make_centralizer(phi, psi), make_centralizer(phi2, psi2)
            chi2 = project_base(G)
            want = make_centralizer(
                _compose_units(phi, phi2, chi2), compose(psi, chi2.comps)
            )
            assert map_compose(F, G) == want
            pairs["odd"] += 1
        for n in (2, 4, 3, 5):
            m, k = half_counts(n)
            width = k if n % 2 else m
            a = tuple(_unit(width, 6, rng) for _ in range(m))
            b = tuple(_unit(width, 6, rng) for _ in range(m))
            F, G = kernel_embed(a, n), kernel_embed(b, n)
            want = kernel_embed(tuple(x * y for x, y in zip(a, b)), n)
            assert map_compose(F, G) == want
            pairs["kernel-odd" if n % 2 else "kernel-even"] += 1
    counts_ok = all(v >= 50 for v in pairs.values())
    enum_ok = all(
        order4_class_count(n)
        == sum(
            1
            for _ in itertools.combinations_with_replacement(range(4), n)
        )
        for n in range(1, 11)
    )
    elapsed = time.perf_counter() - t0
    _gate(
        7,
        counts_ok and enum_ok and elapsed < 120.0,
        f"composition laws on {sum(pairs.values())} pairs "
        f"(>=50 per variant), order-4 class count matches enumeration "
        f"for n <= 10, in {elapsed:.1f}s",
    )


# ---------------------------------------------------------------------------
# 8. the balancing construction over two variables


def test_criterion_8_balancing_construction():
    r1, r2 = Q(-1, 2) + R3 / Scalar(6), Q(-1, 2) - R3 / Scalar(6)
    roots_ok = all(
        Scalar(6) * r * r + Scalar(6) * r + ONE == Scalar(0) for r in (r1, r2)
    )

    T = balance_matrix()
    a, b = T.rows[0]
    c, d = T.rows[1]
    det_ok = T.det() == ONE
    balance_ok = a * d * (
        a * a * d * d + Scalar(6) * a * b * c * d + Scalar(3) * b * b * c * c
    ) == b * c * (
        b * b * c * c + Scalar(6) * a * b * c * d + Scalar(3) * a * a * d * d
    )

    # conjugate the worked instance, rescale the pair, normalize: the two
    # resonant slots now cancel in the base, leaving t + O(t^4)
    N = 6
    S = parse_map(
        "map n=2 N=6 { comp1: { [1,0]: 1 ; [3,2]: 1 } ; comp2: { [0,1]: 1 } }"
    )
    Tm = FormalMap.from_linear(T, N)
    lam = FormalMap.from_linear(Matrix.diagonal([Q(2), Q(1, 2)]), N)
    M1 = map_compose(lam, conjugate(S, Tm))
    G, _, _ = poincare_dulac(M1)
    slots_ok = (
        G.comps[0].coefficient((3, 2)) == Q(2) * (-R3 / Scalar(9))
        and G.comps[1].coefficient((2, 3)) == Q(1, 2) * (R3 / Scalar(9))
    )
    chi = project_base(G)
    chi_ok = (
        dim1.multiplier(chi) == ONE
        and dim1.coeff(chi, 2).is_zero()
        and dim1.coeff(chi, 3).is_zero()
    )
    _gate(
        8,
        roots_ok and det_ok and balance_ok and slots_ok and chi_ok,
        "quadratic roots exact, SL(2) balance identity holds, "
        "base of the normal form is t + O(t^4)",
    )
