"""Formal maps: tuples of truncated series acting on n coordinates.

A FormalMap is an n-tuple of Series in n variables, each truncated at the
same degree N, with zero constant terms (maps fix the origin).  The group
operations (composition, inversion, conjugation) all work mod total degree
N+1, exactly.  Every conjugation goes through ``dress``, which conjugates
several maps by one K and its inverse on one substitution table.

Also here: exact small matrices over the scalar field, used for linear
parts.
"""

from __future__ import annotations

from .scalars import ONE, ZERO, Scalar, scalar
from .series import (
    Series,
    SeriesFormatError,
    Table,
    TruncationMismatch,
    _Reader,
    compose,
    format_series,
)


class Matrix:
    """A dense exact matrix over Q(i, r3)."""

    __slots__ = ("n", "rows")

    def __init__(self, rows):
        self.rows = tuple(tuple(scalar(x) for x in row) for row in rows)
        self.n = len(self.rows)
        for row in self.rows:
            if len(row) != self.n:
                raise ValueError("matrix must be square")

    @classmethod
    def identity(cls, n):
        return cls(
            [[1 if i == j else 0 for j in range(n)] for i in range(n)]
        )

    @classmethod
    def diagonal(cls, entries):
        entries = list(entries)
        n = len(entries)
        return cls(
            [[entries[i] if i == j else 0 for j in range(n)] for i in range(n)]
        )

    @classmethod
    def permutation(cls, perm):
        """Matrix of z -> (z_perm[0], ..., z_perm[n-1]) (0-based images)."""
        n = len(perm)
        if sorted(perm) != list(range(n)):
            raise ValueError(f"not a permutation: {perm}")
        return cls(
            [[1 if j == perm[i] else 0 for j in range(n)] for i in range(n)]
        )

    def __eq__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        return self.rows == other.rows

    def __hash__(self):
        return hash(self.rows)

    def __repr__(self):
        return "Matrix([" + ", ".join(
            "[" + ", ".join(str(x) for x in row) + "]" for row in self.rows
        ) + "])"

    def __mul__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        if self.n != other.n:
            raise ValueError("size mismatch")
        cols = list(zip(*other.rows))
        return Matrix(
            [
                [
                    sum((a * b for a, b in zip(row, col)), ZERO)
                    for col in cols
                ]
                for row in self.rows
            ]
        )

    def det(self) -> Scalar:
        """Exact determinant by fraction-free-ish Gaussian elimination."""
        n = self.n
        rows = [list(r) for r in self.rows]
        det = ONE
        for col in range(n):
            pivot = next(
                (r for r in range(col, n) if not rows[r][col].is_zero()), None
            )
            if pivot is None:
                return ZERO
            if pivot != col:
                rows[col], rows[pivot] = rows[pivot], rows[col]
                det = -det
            p = rows[col][col]
            det = det * p
            inv = p.inverse()
            for r in range(col + 1, n):
                f = rows[r][col] * inv
                if f.is_zero():
                    continue
                rows[r] = [
                    x - f * y for x, y in zip(rows[r], rows[col])
                ]
        return det

    def inverse(self) -> "Matrix":
        n = self.n
        work = [
            list(row) + [ONE if i == j else ZERO for j in range(n)]
            for i, row in enumerate(self.rows)
        ]
        for col in range(n):
            pivot = next(
                (r for r in range(col, n) if not work[r][col].is_zero()), None
            )
            if pivot is None:
                raise ZeroDivisionError("matrix is singular")
            work[col], work[pivot] = work[pivot], work[col]
            inv = work[col][col].inverse()
            work[col] = [x * inv for x in work[col]]
            for r in range(n):
                if r == col:
                    continue
                f = work[r][col]
                if f.is_zero():
                    continue
                work[r] = [x - f * y for x, y in zip(work[r], work[col])]
        return Matrix([row[n:] for row in work])

    def entry(self, i, j) -> Scalar:
        return self.rows[i][j]

    def diagonal_entries(self):
        return tuple(self.rows[i][i] for i in range(self.n))

    def is_diagonal(self) -> bool:
        return all(
            self.rows[i][j].is_zero()
            for i in range(self.n)
            for j in range(self.n)
            if i != j
        )

    def is_upper_triangular(self) -> bool:
        return all(
            self.rows[i][j].is_zero()
            for i in range(self.n)
            for j in range(i)
        )

    def is_identity(self) -> bool:
        return self == Matrix.identity(self.n)


# ---------------------------------------------------------------------------


class FormalMap:
    """An origin-preserving formal map of n variables mod degree N+1."""

    __slots__ = ("nvars", "trunc", "comps")

    def __init__(self, comps):
        comps = tuple(comps)
        if not comps:
            raise ValueError("map needs at least one component")
        n = comps[0].nvars
        N = comps[0].trunc
        if len(comps) != n:
            raise ValueError(
                f"map in {n} variables needs {n} components, got {len(comps)}"
            )
        for c in comps:
            if c.nvars != n or c.trunc != N:
                raise TruncationMismatch(
                    "all components must share the same n and N"
                )
            if not c.constant_term().is_zero():
                raise ValueError("maps must fix the origin (no constant term)")
        self.nvars = n
        self.trunc = N
        self.comps = comps

    # -- constructors --------------------------------------------------

    @classmethod
    def identity(cls, n, N):
        return cls([Series.variable(n, N, j) for j in range(n)])

    @classmethod
    def from_linear(cls, M: Matrix, N: int):
        n = M.n
        return cls(
            [
                Series(
                    n,
                    N,
                    {
                        tuple(1 if k == j else 0 for k in range(n)): M.entry(i, j)
                        for j in range(n)
                        if not M.entry(i, j).is_zero()
                    },
                )
                for i in range(n)
            ]
        )

    @classmethod
    def diagonal(cls, entries, N: int):
        return cls.from_linear(Matrix.diagonal(entries), N)

    @classmethod
    def permutation(cls, perm, N: int):
        return cls.from_linear(Matrix.permutation(perm), N)

    # -- inspection ----------------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, FormalMap):
            return NotImplemented
        return (
            self.nvars == other.nvars
            and self.trunc == other.trunc
            and self.comps == other.comps
        )

    def __hash__(self):
        return hash((self.nvars, self.trunc, self.comps))

    def __repr__(self):
        return f"<{format_map(self)}>"

    def is_identity(self) -> bool:
        return self == FormalMap.identity(self.nvars, self.trunc)

    def linear_part(self) -> Matrix:
        n = self.nvars
        units = [tuple(1 if k == j else 0 for k in range(n)) for j in range(n)]
        return Matrix(
            [[self.comps[i].coefficient(units[j]) for j in range(n)] for i in range(n)]
        )

    def truncate(self, new_trunc: int) -> "FormalMap":
        """A copy truncated at a (usually lower) degree."""
        return FormalMap([c.truncate(new_trunc) for c in self.comps])

    @classmethod
    def __new_raw__(cls, n, N, comps):
        # internal constructor skipping validation (used for non-invertible
        # pieces like homogeneous parts)
        self = object.__new__(cls)
        self.nvars = n
        self.trunc = N
        self.comps = comps
        return self


def map_compose(F: FormalMap, G: FormalMap, table=None) -> FormalMap:
    """The composite F after G, every component on one substitution table.

    ``table`` is G's ``series.Table``: pass one to several compositions
    with the inner map G to build it once.  A table built for another
    inner map raises ValueError.
    """
    if F.nvars != G.nvars or F.trunc != G.trunc:
        raise TruncationMismatch("composition needs matching n and N")
    if table is None:
        table = Table(G.comps)
    return FormalMap.__new_raw__(
        F.nvars,
        F.trunc,
        tuple(compose(c, G.comps, table) for c in F.comps),
    )


def apply_linear(M: Matrix, F: FormalMap) -> FormalMap:
    """The map z -> M(F(z)) (matrix acting on components)."""
    comps = []
    for i in range(M.n):
        acc = Series.zero(F.nvars, F.trunc)
        for j in range(M.n):
            a = M.entry(i, j)
            if not a.is_zero():
                acc = acc + F.comps[j].scale(a)
        comps.append(acc)
    return FormalMap.__new_raw__(F.nvars, F.trunc, tuple(comps))


def map_invert(F: FormalMap) -> FormalMap:
    """Compositional inverse, degree by degree.

    Writes F = L + H, H the nonlinear part, and solves F o G = id for G
    from G_1 = L^{-1}: the degree-d part of F o G is L G_d + [H o G]_d,
    and H reaches degree d only through the parts of G below d, so
    G_d = -L^{-1} [H o G_{<d}]_d = [(-L^{-1} H) o G_{<d}]_d, since
    composition is linear in the outer series.  -L^{-1} H is formed once,
    and G grows on one growing ``Table``, which computes each monomial
    value of G once, by degree.
    """
    L = F.linear_part()
    try:
        Li = L.inverse()
    except ZeroDivisionError:
        raise ZeroDivisionError("not invertible: singular linear part")
    n, N = F.nvars, F.trunc
    G = FormalMap.from_linear(Li, N)
    table = Table(G.comps, growing=True)
    minus_H = FormalMap.__new_raw__(
        n, N, tuple(c.homogeneous_component(1) - c for c in F.comps)
    )
    K = apply_linear(Li, minus_H).comps
    comps = list(G.comps)
    for d in range(2, N + 1):
        parts = [table.part(k, d) for k in K]
        if d < N:  # no later step reads the top part
            table.extend(parts, d)
        comps = [g + c for g, c in zip(comps, parts)]
    return FormalMap.__new_raw__(n, N, tuple(comps))


def dress(Fs, K: FormalMap, Kinv: FormalMap) -> list:
    """K after F after Kinv for each F in Fs, Kinv the inverse of K.

    Every K o F lies in one ring, and a ``Table`` keeps the values of
    that ring's monomials, so one table for Kinv serves them all.
    """
    table = Table(Kinv.comps)
    out = []
    for F in Fs:
        KF = map_compose(K, F)
        comps = tuple(compose(c, Kinv.comps, table) for c in KF.comps)
        out.append(FormalMap.__new_raw__(KF.nvars, KF.trunc, comps))
    return out


def conjugate(F: FormalMap, K: FormalMap) -> FormalMap:
    """The conjugate K^{-1} after F after K."""
    return dress([F], map_invert(K), K)[0]


def conjugate_linear(F: FormalMap, M: Matrix) -> FormalMap:
    """The conjugate K^{-1} after F after K for the linear map K with
    matrix M; K^{-1} comes from the matrix inverse, not from map_invert."""
    N = F.trunc
    return dress([F], FormalMap.from_linear(M.inverse(), N), FormalMap.from_linear(M, N))[0]


def is_involution(F: FormalMap) -> bool:
    return map_compose(F, F).is_identity()


# ---------------------------------------------------------------------------
# text format

def format_map(F: FormalMap) -> str:
    """Canonical text: ``map n=2 N=6 { comp1: { ... } ; comp2: { ... } }``."""
    parts = [
        f"comp{i + 1}: " + format_series(c, header=False)
        for i, c in enumerate(F.comps)
    ]
    return f"map n={F.nvars} N={F.trunc} " + "{ " + " ; ".join(parts) + " }"


def parse_map(text: str) -> FormalMap:
    """Parse the map text format (component series inherit n and N)."""
    reader = _Reader(text)
    n, N = reader.header("map")
    comps = reader.components(n, N)
    if len(comps) != n:
        raise SeriesFormatError(
            f"map needs components comp1..comp{n}, got {sorted(comps)}", reader.pos - 1
        )
    reader.end()
    # the reader checked what the constructor would: n components in one
    # ring, none with a constant term
    return FormalMap.__new_raw__(n, N, tuple(comps[k] for k in range(1, n + 1)))
