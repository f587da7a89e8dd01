"""Degree-by-degree conjugacy machinery for maps with diagonal linear part.

Two entry points share one solve:

* ``poincare_dulac`` — normalize a map relative to its diagonal linear
  part, eliminating every non-resonant monomial and keeping the resonant
  ones; returns the normal form, the tangent-to-identity conjugator and
  its inverse.
* ``solve_conjugacy`` — solve K^{-1} F K = G for K when it exists
  degree by degree; failures come back as structured ``Obstruction``
  data, not exceptions.

All free (resonant-direction) coefficients are pinned to zero so output
is deterministic; callers needing a different homogeneous solution
reroute at a higher level.
"""

from __future__ import annotations

from dataclasses import dataclass

from .scalars import ONE, Scalar, format_scalar
from .series import Series, Table
from .maps import FormalMap, map_compose


@dataclass(frozen=True)
class Obstruction:
    """A degree-by-degree solve that stopped: the first coefficient
    equation with no solution.  ``lhs`` is the (vanishing) multiplier of
    the unknown, ``rhs`` the value it would need to produce."""

    degree: int
    component: int  # 1-based, as in the text format
    exponent: tuple
    lhs: Scalar
    rhs: Scalar
    note: str = ""

    def __bool__(self):
        return False

    def equation(self) -> str:
        return (
            f"{format_scalar(self.lhs)} * k = {format_scalar(self.rhs)}"
            f" at degree {self.degree}, component {self.component},"
            f" exponent {list(self.exponent)}"
        )


@dataclass(frozen=True)
class Witness:
    """A verified reversing/involutive certificate for a map g.

    kind: 'reverser' (h^{-1} g h = g^{-1}, checked as g o h o g = h with
    h nonsingular), 'involutive_reverser' (additionally h o h = id), or
    'involution_self' (g o g = id, h = g).
    checked_degree is the truncation degree of the verification.
    """

    kind: str
    h: FormalMap
    checked_degree: int


def verify_witness(
    g: FormalMap, w: Witness, square: FormalMap | None = None, table=None
) -> bool:
    """Recheck a witness by composition alone (no shared search code).

    A reverser is checked as g o h o g = h, which for a nonsingular h is
    h^{-1} g h = g^{-1} and needs no inverse; a singular h is refused,
    since the zero map would satisfy the equation for every g.
    ``square`` is g o g when the caller already has it, and ``table`` is
    g's substitution ``Table`` (see ``map_compose``) when the caller
    shares one: it serves (g o h) o g.  h's own table is built once and
    serves g o h and h o h.
    """
    if w.kind == "involution_self":
        if square is None:
            square = map_compose(g, g, table)
        return w.h == g and square.is_identity()
    h = w.h
    if h.linear_part().det().is_zero():
        return False
    h_table = Table(h.comps)
    ok = map_compose(map_compose(g, h, h_table), g, table) == h
    if w.kind == "involutive_reverser":
        ok = ok and map_compose(h, h, h_table).is_identity()
    return ok


def _diagonal_eigenvalues(F: FormalMap):
    L = F.linear_part()
    if not L.is_diagonal():
        raise ValueError(
            "requires a diagonal linear part; triangularize/diagonalize first"
        )
    lam = L.diagonal_entries()
    if any(x.is_zero() for x in lam):
        raise ValueError("linear part is singular")
    return lam


def _monomial_eigenvalue(lam, q: tuple, mus: dict) -> Scalar:
    """lam^q, memoized in mus, which holds lam^0 = 1: the parent
    monomial's eigenvalue times one lam_j, peeled off the first variable
    present as a ``Table`` peels monomials."""
    mu = mus.get(q)
    if mu is None:
        j = next(j for j, x in enumerate(q) if x)
        parent = q[:j] + (q[j] - 1,) + q[j + 1:]
        mu = mus[q] = _monomial_eigenvalue(lam, parent, mus) * lam[j]
    return mu


def _conjugate_away(F: FormalMap, target: FormalMap | None):
    """Solve K^{-1} F K = G degree by degree with K tangent to the identity.

    At degree d each component j reads the defect e of F o K - K o G and,
    for each monomial q, solves e + (lam_j - lam^q) k - g = 0.
    Non-resonant monomials determine k.  Resonant ones keep k = 0: with
    no target, g = e goes into the normal form G; against a target, G is
    the target and a resonant defect left over is an Obstruction.

    K and G grow one degree per step, each on one growing ``Table``: F o K
    is read from K's table and K o G from G's, and each monomial's
    eigenvalue lam^q is computed once.  K's table also gives K^{-1} = I
    in the same loop: I o K = id reads I_d = -k_d - [I_{<d} o K]_d, and
    the nonlinear part of I reaches degree d through K's parts below d
    only.  Returns (G, K, K^{-1}) or that Obstruction.
    """
    lam = _diagonal_eigenvalues(F)
    n, N = F.nvars, F.trunc
    if target is not None and target.linear_part() != F.linear_part():
        return Obstruction(
            1, 1, (0,) * n, Scalar(0), Scalar(1),
            "linear parts differ; conjugate by a linear seed first",
        )
    linear = FormalMap.from_linear(F.linear_part(), N).comps
    X = FormalMap.identity(n, N).comps
    K_table, G_table = Table(X, growing=True), Table(linear, growing=True)
    # the nonlinear parts: of F, and of K, G and K^{-1} as known so far
    F_high = [c - c.homogeneous_component(1) for c in F.comps]
    K_high = G_high = I_high = [Series.zero(n, N)] * n
    mus = {(0,) * n: ONE}
    for d in range(2, N + 1):
        kappa_comps, g_comps = [], []
        for j in range(n):
            defect = K_table.part(F_high[j], d) - G_table.part(K_high[j], d)
            if target is not None:
                g = target.comps[j].homogeneous_component(d)
                defect = defect - g
            kappa, gnew = {}, {}
            for q, e in defect.coeffs.items():
                mu = _monomial_eigenvalue(lam, q, mus)
                if mu != lam[j]:
                    kappa[q] = e / (mu - lam[j])
                elif target is None:
                    gnew[q] = e
                else:
                    return Obstruction(d, j + 1, q, Scalar(0), -e)
            kappa_comps.append(Series(n, N, kappa))
            g_comps.append(Series(n, N, gnew) if target is None else g)
        if d < N:  # no later step reads the top parts
            K_table.extend(kappa_comps, d)
            G_table.extend(g_comps, d)
        iota = [-k - K_table.part(c, d) for k, c in zip(kappa_comps, I_high)]
        K_high = [c + k for c, k in zip(K_high, kappa_comps)]
        G_high = [c + g for c, g in zip(G_high, g_comps)]
        I_high = [c + i for c, i in zip(I_high, iota)]
    return tuple(
        FormalMap([a + b for a, b in zip(low, high)])
        for low, high in ((linear, G_high), (X, K_high), (X, I_high))
    )


def poincare_dulac(F: FormalMap):
    """Normalize F relative to its diagonal linear part.

    Returns (F_norm, K, K^{-1}) with K tangent to the identity,
    K^{-1} F K = F_norm, and F_norm containing only resonant monomials
    (coefficients as produced with all free choices zero), so F_norm
    commutes with the linear part.  K^{-1} comes out of the same degree
    loop, so a caller that conjugates back needs no ``map_invert``.
    """
    return _conjugate_away(F, None)


def solve_conjugacy(F: FormalMap, G: FormalMap):
    """Solve K^{-1} F K = G degree by degree, K tangent to the identity.

    The common linear part must be diagonal.  Returns K, or an
    Obstruction describing the first unsolvable coefficient equation.
    Free coefficients are pinned to zero, so a returned Obstruction
    means this deterministic scheme failed, not that no conjugacy exists.
    """
    if (F.nvars, F.trunc) != (G.nvars, G.trunc):
        raise ValueError("maps must share dimension and truncation degree")
    res = _conjugate_away(F, G)
    return res if isinstance(res, Obstruction) else res[1]
