"""Degree-by-degree conjugacy machinery for maps with diagonal linear part.

Two entry points share one solve:

* ``poincare_dulac`` — normalize a map relative to its diagonal linear
  part, eliminating every non-resonant monomial and keeping the resonant
  ones; returns the normal form and the tangent-to-identity conjugator.
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
from .series import Series
from .maps import (
    FormalMap,
    composite_part,
    format_map,
    map_compose,
    parse_map,
)


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

    def to_json(self) -> dict:
        return {
            "kind": self.kind,
            "h": format_map(self.h),
            "degree": self.checked_degree,
        }

    @classmethod
    def from_json(cls, payload: dict) -> "Witness":
        return cls(payload["kind"], parse_map(payload["h"]), int(payload["degree"]))


def verify_witness(
    g: FormalMap, w: Witness, square: FormalMap | None = None, memo=None
) -> bool:
    """Recheck a witness by composition alone (no shared search code).

    A reverser is checked as g o h o g = h, which for a nonsingular h is
    h^{-1} g h = g^{-1} and needs no inverse; a singular h is refused,
    since the zero map would satisfy the equation for every g.
    ``square`` is g o g when the caller already has it, and ``memo`` is
    g's substitution table (see ``map_compose``) when the caller shares
    one: it serves (g o h) o g.  h's own table is built once and serves
    g o h and h o h.
    """
    if w.kind == "involution_self":
        if square is None:
            square = map_compose(g, g, memo)
        return w.h == g and square.is_identity()
    h = w.h
    if h.linear_part().det().is_zero():
        return False
    h_memo: dict = {}
    ok = map_compose(map_compose(g, h, h_memo), g, memo) == h
    if w.kind == "involutive_reverser":
        ok = ok and map_compose(h, h, h_memo).is_identity()
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


def _monomial_eigenvalue(lam, exponent) -> Scalar:
    power = ONE
    for l, e in zip(lam, exponent):
        if e:
            power = power * l**e
    return power


def _conjugate_away(F: FormalMap, target: FormalMap | None):
    """Solve K^{-1} F K = G degree by degree with K tangent to the identity.

    At degree d each component j reads the defect e of F o K - K o G and,
    for each monomial q, solves e + (lam_j - lam^q) k - g = 0.
    Non-resonant monomials determine k.  Resonant ones keep k = 0: with
    no target, g = e goes into the normal form G; against a target, G is
    the target and a resonant defect left over is an Obstruction.
    Returns (G, K) or that Obstruction.
    """
    lam = _diagonal_eigenvalues(F)
    n, N = F.nvars, F.trunc
    if target is None:
        G = FormalMap.from_linear(F.linear_part(), N)
    elif target.linear_part() != F.linear_part():
        return Obstruction(
            1, 1, (0,) * n, Scalar(0), Scalar(1),
            "linear parts differ; conjugate by a linear seed first",
        )
    else:
        G = target
    K = FormalMap.identity(n, N)
    for d in range(2, N + 1):
        FK, KG = composite_part(F, K, d), composite_part(K, G, d)
        kappa_comps, g_comps = [], []
        for j in range(n):
            kappa, gnew = {}, {}
            for q, e in (FK.comps[j] - KG.comps[j]).coeffs.items():
                mu = _monomial_eigenvalue(lam, q)
                if mu != lam[j]:
                    kappa[q] = e / (mu - lam[j])
                elif target is None:
                    gnew[q] = e
                else:
                    return Obstruction(d, j + 1, q, Scalar(0), -e)
            kappa_comps.append(Series(n, N, kappa))
            g_comps.append(Series(n, N, gnew))
        K = FormalMap([c + k for c, k in zip(K.comps, kappa_comps)])
        if target is None:
            G = FormalMap([c + g for c, g in zip(G.comps, g_comps)])
    return G, K


def poincare_dulac(F: FormalMap):
    """Normalize F relative to its diagonal linear part.

    Returns (F_norm, K) with K tangent to the identity,
    K^{-1} F K = F_norm, and F_norm containing only resonant monomials
    (coefficients as produced with all free choices zero), so F_norm
    commutes with the linear part.
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
