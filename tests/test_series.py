"""Tests for the truncated series ring."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from revfactor.maps import FormalMap, format_map, parse_map
from revfactor.scalars import Scalar, ScalarFormatError, rat
from revfactor.series import (
    DegreeTable,
    Series,
    SeriesFormatError,
    TruncationMismatch,
    compose,
    format_series,
    parse_series,
)


def S1(coeffs, trunc=4):
    return Series(1, trunc, {(k,): v for k, v in coeffs.items()})


def small_series(nvars=2, trunc=4):
    keys = [
        e
        for total in range(trunc + 1)
        for e in _exponents(nvars, total)
    ]
    coeff = st.integers(min_value=-4, max_value=4)
    return st.lists(
        st.tuples(st.sampled_from(keys), coeff), max_size=6
    ).map(lambda items: Series(nvars, trunc, {e: v for e, v in items}))


def _exponents(nvars, total):
    if nvars == 1:
        yield (total,)
        return
    for head in range(total + 1):
        for rest in _exponents(nvars - 1, total - head):
            yield (head,) + rest


def test_geometric_inverse_frozen():
    inv = S1({0: 1, 1: -1}).invert_unit()
    assert inv == S1({0: 1, 1: 1, 2: 1, 3: 1, 4: 1})


def test_self_composition_frozen():
    f1 = S1({1: 1, 2: 1, 3: 1, 4: 1})
    assert compose(f1, [f1]) == S1({1: 1, 2: 2, 3: 4, 4: 8})


def test_truncation_drops_high_degrees():
    s = Series(2, 3, {(2, 2): 5, (1, 1): 1})
    assert s.coefficient((2, 2)).is_zero()  # degree 4 > N at construction
    assert not s.coefficient((1, 1)).is_zero()
    assert (s * s).coefficient((2, 2)).is_zero()  # pruned in the product
    wide = Series(2, 4, {(1, 1): 1})
    assert (wide * wide).coefficient((2, 2)) == Scalar(1)


def test_mixing_truncations_is_an_error():
    a = Series(1, 4, {(1,): 1})
    b = Series(1, 5, {(1,): 1})
    with pytest.raises(TruncationMismatch):
        a + b
    with pytest.raises(TruncationMismatch):
        a * b
    with pytest.raises(TruncationMismatch):
        compose(a, [b])


def test_compose_allows_constant_terms():
    f = Series(2, 4, {(1, 1): 1})
    g = Series(2, 4, {(0, 0): 1, (1, 0): 1})
    h = Series(2, 4, {(0, 1): 1})
    assert compose(f, [g, h]) == Series(2, 4, {(0, 1): 1, (1, 1): 1})


def test_unit_inverse_requires_unit():
    with pytest.raises(ZeroDivisionError):
        Series(1, 4, {(1,): 1}).invert_unit()


def test_shift_up_down():
    s = Series(2, 6, {(1, 0): 2, (2, 1): 3})
    assert s.shift_down(0) == Series(2, 6, {(0, 0): 2, (1, 1): 3})
    assert s.shift_down(0).shift_up(0) == s
    with pytest.raises(ValueError):
        s.shift_down(1)


def test_format_roundtrip_canonical():
    text = "series n=2 N=6 { [1,1]: 1 ; [2,2]: -1/2 }"
    s = parse_series(text)
    assert format_series(s) == text
    assert s.coefficient((2, 2)) == Scalar(rat(-1, 2))
    assert format_series(parse_series("series n=3 N=5 { }")) == "series n=3 N=5 { }"


def test_format_orders_by_degree_then_lex():
    s = Series(2, 4, {(0, 2): 1, (2, 0): 1, (1, 0): 1, (1, 1): 1})
    assert (
        format_series(s)
        == "series n=2 N=4 { [1,0]: 1 ; [0,2]: 1 ; [1,1]: 1 ; [2,0]: 1 }"
    )


@pytest.mark.parametrize(
    "bad",
    [
        "n=2 N=6 { }",
        "series n=2 N=6 [1,1]: 1",
        "series n=2 N=6 { [1]: 1 }",
        "series n=2 N=6 { [1,1] 1 }",
        "series n=2 N=6 { [1,1]: 1 ; [1,1]: 2 }",
        "series n=2 N=6 { [-1,1]: 1 }",
        "series n=0 N=6 { }",
    ],
)
def test_parse_rejects_malformed(bad):
    with pytest.raises(SeriesFormatError):
        parse_series(bad)


@given(small_series(), small_series(), small_series())
@settings(max_examples=60, deadline=None)
def test_ring_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c


@given(small_series())
@settings(max_examples=40, deadline=None)
def test_unit_inverse_roundtrip(s):
    u = s + 1 if s.constant_term().is_zero() else s
    if u.constant_term().is_zero():
        u = u + 2
    assert (u * u.invert_unit()) == Series.one(u.nvars, u.trunc)


@given(small_series(nvars=1, trunc=5), small_series(nvars=1, trunc=5))
@settings(max_examples=40, deadline=None)
def test_composition_associates(f, g):
    # make the inner maps constant-free so min-degree pruning kicks in
    g = g - Series.const(1, 5, g.constant_term())
    h = Series(1, 5, {(1,): 1, (2,): 1})
    lhs = compose(compose(f, [g]), [h])
    rhs = compose(f, [compose(g, [h])])
    assert lhs == rhs


@pytest.mark.parametrize("e", [(-1, 2), (1.0, 0), (0, "1")])
def test_exponents_must_be_nonnegative_ints(e):
    with pytest.raises(ValueError):
        Series(2, 6, {e: 1})


# ---------------------------------------------------------------------------
# the packed layer against a tuple-keyed reference


def _nonzero(d):
    return {e: v for e, v in d.items() if not v.is_zero()}


def ref_mul(a, b, N):
    """Truncated product of two {exponent tuple: Scalar} dicts."""
    out = {}
    for ea, x in a.items():
        for eb, y in b.items():
            e = tuple(i + j for i, j in zip(ea, eb))
            if sum(e) <= N:
                out[e] = out.get(e, Scalar(0)) + x * y
    return _nonzero(out)


def ref_compose(f, args, n, N):
    """Substitute args[j] for variable j of f, monomial by monomial."""
    out = {}
    for e, c in f.items():
        term = {(0,) * n: c}
        for j, k in enumerate(e):
            for _ in range(k):
                term = ref_mul(term, args[j], N)
        for t, v in term.items():
            out[t] = out.get(t, Scalar(0)) + v
    return _nonzero(out)


def graded(e):
    return (sum(e), e)


field_coeffs = st.builds(
    Scalar, *[st.integers(min_value=-3, max_value=3)] * 3, st.fractions(-2, 2, max_denominator=3)
)


@st.composite
def rings(draw):
    return draw(st.integers(1, 3)), draw(st.integers(1, 5))


@st.composite
def series_in(draw, n, N, low=0, coeffs=field_coeffs):
    """Up to seven terms of degree low..N; every pure power z_j^N, whose
    single exponent is the largest digit the packing holds, is drawn
    often."""
    pool = [e for total in range(low, N + 1) for e in _exponents(n, total)]
    edges = [tuple(N if k == j else 0 for k in range(n)) for j in range(n)]
    keys = draw(
        st.lists(st.one_of(st.sampled_from(pool), st.sampled_from(edges)), max_size=7)
    )
    return {e: draw(coeffs) for e in keys}


@settings(max_examples=80, deadline=None)
@given(rings().flatmap(lambda r: st.tuples(st.just(r), series_in(*r), series_in(*r))))
def test_packed_product_matches_the_reference(case):
    (n, N), a, b = case
    sa, sb = Series(n, N, a), Series(n, N, b)
    want = ref_mul(_nonzero(a), _nonzero(b), N)
    assert dict((sa * sb).coeffs) == want
    assert dict((sb * sa).coeffs) == want


@settings(max_examples=40, deadline=None)
@given(rings(), st.integers(1, 3), st.data())
def test_packed_compose_matches_the_reference(ring, k, data):
    n, N = ring
    f = data.draw(series_in(k, N))
    # some substitutions start at degree 2, so the min-degree prune runs
    lows = st.integers(0, min(2, N))
    args = [data.draw(series_in(n, N, low=data.draw(lows))) for _ in range(k)]
    got = compose(Series(k, N, f), [Series(n, N, g) for g in args])
    assert dict(got.coeffs) == ref_compose(_nonzero(f), args, n, N)


@settings(max_examples=80, deadline=None)
@given(rings().flatmap(lambda r: st.tuples(st.just(r), series_in(*r))), st.integers(0, 7))
def test_packed_slices_match_the_reference(case, d):
    (n, N), a = case
    s, ref = Series(n, N, a), _nonzero(a)
    assert dict(s.truncate(d).coeffs) == {e: v for e, v in ref.items() if sum(e) <= d}
    assert s.truncate(d).trunc == d
    assert dict(s.homogeneous_component(d).coeffs) == {
        e: v for e, v in ref.items() if sum(e) == d
    }
    # the view round-trips and iterates in graded-lex order
    assert Series(n, N, s.coeffs) == s
    assert list(s.coeffs) == sorted(ref, key=graded)
    assert [e for e, _ in s.terms()] == sorted(ref, key=graded)
    for e, v in ref.items():
        assert s.coefficient(e) == v
    # raising the truncation repacks every key into the wider base
    wide = s.truncate(N + 3)
    assert dict(wide.coeffs) == ref
    assert wide * Series.one(n, N + 3) == wide


# ---------------------------------------------------------------------------
# the raw-numerator kernel: compose keeps monomial values over D**deg, D
# the lcm of the substitutions' denominators, so large pairwise-coprime
# denominators make every rescale visible

PRIMES = (7919, 104729, 1299709, 2147483647, 10**9 + 7)

big_coeffs = st.builds(
    lambda nums, den: Scalar(*(Fraction(x, den) for x in nums)),
    st.tuples(
        st.integers(-9, 9), *[st.sampled_from([0, 0, -5, 1, 7])] * 3
    ),
    st.sampled_from(PRIMES),
).filter(lambda c: not c.is_zero())


@st.composite
def substitutions(draw, n, N):
    """A zero series, a series with a constant term, or one starting at
    degree 1 or 2, over large denominators."""
    kind = draw(st.sampled_from(["zero", "constant", "low"]))
    if kind == "zero":
        return {}
    g = draw(series_in(n, N, low=draw(st.integers(1, min(2, N))), coeffs=big_coeffs))
    if kind == "constant":
        g[(0,) * n] = draw(big_coeffs)
    return g


@settings(max_examples=60, deadline=None)
@given(rings(), st.integers(1, 3), st.data())
def test_compose_over_coprime_denominators_shares_one_memo(ring, k, data):
    n, N = ring
    args = [data.draw(substitutions(n, N)) for _ in range(k)]
    sargs = [Series(n, N, g) for g in args]
    # several outer series, each with a constant term, share one memo as
    # the components of a map composite do
    memo = {}
    for _ in range(data.draw(st.integers(1, 3))):
        f = data.draw(series_in(k, N, coeffs=big_coeffs))
        f[(0,) * k] = data.draw(big_coeffs)
        got = compose(Series(k, N, f), sargs, memo)
        assert dict(got.coeffs) == ref_compose(_nonzero(f), args, n, N)


@settings(max_examples=60, deadline=None)
@given(rings(), st.integers(1, 3), st.data())
def test_degree_table_over_coprime_denominators_matches_the_reference(ring, k, data):
    # the args arrive one degree at a time, and a part over a new prime
    # rescales every stored row and slice
    n, N = ring
    args = [data.draw(series_in(n, N, low=1, coeffs=big_coeffs)) for _ in range(k)]
    sargs = [Series(n, N, g) for g in args]
    outer = [data.draw(series_in(k, N, low=1, coeffs=big_coeffs)) for _ in range(2)]
    want = [ref_compose(_nonzero(f), args, n, N) for f in outer]
    table = DegreeTable([g.homogeneous_component(1) for g in sargs])
    for d in range(1, N + 1):
        if d > 1:
            table.extend([g.homogeneous_component(d) for g in sargs], d)
        for f, ref in zip(outer, want):
            got = table.part(Series(k, N, f), d)
            assert (got.nvars, got.trunc) == (n, N)
            assert dict(got.coeffs) == {e: v for e, v in ref.items() if sum(e) == d}


def test_degree_table_refuses_what_it_does_not_know():
    x, y = Series.variable(2, 4, 0), Series.variable(2, 4, 1)
    table = DegreeTable([x, y])
    for linear in ([x + 1, y], [x * y, y]):
        with pytest.raises(ValueError, match="not homogeneous of degree 1"):
            DegreeTable(linear)
    # a linear monomial of the outer series reads the args' degree-2 part
    with pytest.raises(ValueError, match="too low"):
        table.part(x + x * y, 2)
    assert table.part(x * y, 2) == x * y
    with pytest.raises(ValueError, match="cannot add degree 3"):
        table.extend([x * x * x, y * y * y], 3)
    with pytest.raises(ValueError, match="not homogeneous"):
        table.extend([x * x + x * x * x, Series.zero(2, 4)], 2)
    with pytest.raises(TruncationMismatch):
        table.part(Series.variable(3, 4, 0), 2)


@settings(max_examples=60, deadline=None)
@given(rings().flatmap(
    lambda r: st.tuples(
        st.just(r), series_in(*r, coeffs=big_coeffs), series_in(*r, coeffs=big_coeffs)
    )
))
def test_product_over_differing_denominators(case):
    (n, N), a, b = case
    sa, sb = Series(n, N, a), Series(n, N, b)
    want = ref_mul(_nonzero(a), _nonzero(b), N)
    assert dict((sa * sb).coeffs) == want
    assert dict((sb * sa).coeffs) == want


# ---------------------------------------------------------------------------
# the text reader under mutation


@st.composite
def texts(draw):
    """(parser, formatter, text): a formatted series or map."""
    n, N = draw(rings())
    if draw(st.booleans()):
        return parse_series, format_series, format_series(Series(n, N, draw(series_in(n, N))))
    comps = [Series(n, N, draw(series_in(n, N, low=1))) for _ in range(n)]
    return parse_map, format_map, format_map(FormalMap(comps))


@st.composite
def mutated(draw):
    """A formatted text truncated, with one character deleted, or with one
    of the format's punctuation characters inserted or duplicated."""
    parse, fmt, text = draw(texts())
    at = draw(st.integers(0, len(text)))
    how = draw(st.sampled_from(["truncate", "delete", "insert", "duplicate"]))
    if how == "truncate":
        text = text[:at]
    elif how == "delete":
        text = text[:at] + text[at + 1:]
    elif how == "insert":
        text = text[:at] + draw(st.sampled_from("{}[];:,/*+-e")) + text[at:]
    else:
        marks = [k for k, c in enumerate(text) if c in "{}[];:,/*+-e"]
        k = draw(st.sampled_from(marks))
        text = text[:k] + text[k] + text[k:]
    return parse, fmt, text


@settings(max_examples=150, deadline=None)
@given(texts())
def test_reader_round_trips_formatted_text(case):
    parse, fmt, text = case
    assert fmt(parse(text)) == text


@settings(max_examples=400, deadline=None)
@given(mutated())
def test_reader_rejects_mutations_with_an_offset(case):
    parse, fmt, text = case
    try:
        value = parse(text)
    except (SeriesFormatError, ScalarFormatError) as exc:
        assert 0 <= exc.offset <= len(text)
    else:
        assert parse(fmt(value)) == value
