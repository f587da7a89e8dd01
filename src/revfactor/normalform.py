"""Degree-by-degree conjugacy machinery for maps with diagonal linear part.

Three entry points:

* ``poincare_dulac`` — normalize a map relative to its diagonal linear
  part, eliminating every non-resonant monomial and keeping the resonant
  ones; returns the normal form, the tangent-to-identity conjugator, and
  a resonance report.
* ``solve_conjugacy`` — solve K^{-1} F K = G for K when it exists
  degree by degree, with an optional stated linear seed for K; failures
  come back as structured ``Obstruction`` data, not exceptions.
* ``find_reverser`` — extend a linear seed to a witness h with
  h^{-1} g h = g^{-1}, verifying the result independently.

All free (resonant-direction) coefficients are pinned to zero so output
is deterministic; callers needing a different homogeneous solution
reroute at a higher level.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .scalars import ONE, Scalar, format_scalar
from .series import Series
from .maps import (
    FormalMap,
    Matrix,
    composite_part,
    conjugate_linear,
    format_map,
    map_compose,
    map_invert,
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
class ResonanceReport:
    """Resonance bookkeeping for a diagonal linear part.

    Keyed by (component, exponent vector), components 1-based.
    ``resonant`` lists surviving monomials with their retained
    coefficients; ``eliminated`` the removed ones with the coefficient
    they had in the defect when removed.
    """

    eigenvalues: tuple
    resonant: tuple = field(default_factory=tuple)
    eliminated: tuple = field(default_factory=tuple)

    def is_resonant(self, component: int, exponent) -> bool:
        lam = self.eigenvalues
        power = ONE
        for l, e in zip(lam, exponent):
            power = power * l**e
        return power == lam[component - 1]


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


def verify_witness(g: FormalMap, w: Witness, square: FormalMap | None = None) -> bool:
    """Recheck a witness by composition alone (no shared search code).

    A reverser is checked as g o h o g = h, which for a nonsingular h is
    h^{-1} g h = g^{-1} and needs no inverse; a singular h is refused,
    since the zero map would satisfy the equation for every g.
    ``square`` is g o g when the caller already has it.
    """
    if w.kind == "involution_self":
        if square is None:
            square = map_compose(g, g)
        return w.h == g and square.is_identity()
    h = w.h
    if h.linear_part().det().is_zero():
        return False
    ok = map_compose(map_compose(g, h), g) == h
    if w.kind == "involutive_reverser":
        ok = ok and map_compose(h, h).is_identity()
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


def _solve_step(defect_component, lam, j, kappa, gnew, record):
    """Distribute one component's degree-d defect into corrections.

    For each monomial q: e + (lam_j - lam^q) k - g = 0.  Non-resonant
    monomials determine k; resonant ones keep k = 0 and hand e to the
    normal form (gnew) when allowed, else signal inconsistency.
    """
    for q, e in defect_component.items():
        mult = lam[j] - _monomial_eigenvalue(lam, q)
        if not mult.is_zero():
            kappa[q] = e / (_monomial_eigenvalue(lam, q) - lam[j])
            record("eliminated", j, q, e)
        elif gnew is not None:
            gnew[q] = e
            record("resonant", j, q, e)
        elif not e.is_zero():
            return q, e
    return None


def poincare_dulac(F: FormalMap):
    """Normalize F relative to its diagonal linear part.

    Returns (F_norm, K, report) with K tangent to the identity,
    K^{-1} F K = F_norm, and F_norm containing only resonant monomials
    (coefficients as produced with all free choices zero), so F_norm
    commutes with the linear part.
    """
    lam = _diagonal_eigenvalues(F)
    n, N = F.nvars, F.trunc
    K = FormalMap.identity(n, N)
    G = FormalMap.from_linear(F.linear_part(), N)
    resonant, eliminated = [], []

    def record(tag, j, q, e):
        (resonant if tag == "resonant" else eliminated).append((j + 1, q, e))

    for d in range(2, N + 1):
        FK, KG = composite_part(F, K, d), composite_part(K, G, d)
        kappa_comps, g_comps = [], []
        for j in range(n):
            part = FK.comps[j] - KG.comps[j]
            kappa, gnew = {}, {}
            _solve_step(part.coeffs, lam, j, kappa, gnew, record)
            kappa_comps.append(Series(n, N, kappa))
            g_comps.append(Series(n, N, gnew))
        K = FormalMap([c + k for c, k in zip(K.comps, kappa_comps)])
        G = FormalMap([c + g for c, g in zip(G.comps, g_comps)])
    report = ResonanceReport(tuple(lam), tuple(resonant), tuple(eliminated))
    return G, K, report


def solve_conjugacy(F: FormalMap, G: FormalMap, seed: Matrix | None = None):
    """Solve K^{-1} F K = G degree by degree, K tangent to the identity
    times the stated linear seed (default: identity).

    The common linear part (after absorbing the seed) must be diagonal.
    Returns K, or an Obstruction describing the first unsolvable
    coefficient equation.  Free coefficients are pinned to zero, so a
    returned Obstruction means this deterministic scheme failed, not
    that no conjugacy exists.
    """
    if (F.nvars, F.trunc) != (G.nvars, G.trunc):
        raise ValueError("maps must share dimension and truncation degree")
    n, N = F.nvars, F.trunc
    base = F
    if seed is not None:
        base = conjugate_linear(F, seed)
    lam = _diagonal_eigenvalues(base)
    if base.linear_part() != G.linear_part():
        return Obstruction(
            1, 1, (0,) * n, Scalar(0), Scalar(1),
            "linear parts differ; supply a seed conjugating them",
        )
    K = FormalMap.identity(n, N)
    for d in range(2, N + 1):
        FK, KG = composite_part(base, K, d), composite_part(K, G, d)
        kappa_comps = []
        for j in range(n):
            part = FK.comps[j] - KG.comps[j]
            kappa: dict = {}
            bad = _solve_step(part.coeffs, lam, j, kappa, None, lambda *a: None)
            if bad is not None:
                q, e = bad
                return Obstruction(d, j + 1, q, Scalar(0), -e)
            kappa_comps.append(Series(n, N, kappa))
        K = FormalMap([c + k for c, k in zip(K.comps, kappa_comps)])
    if seed is not None:
        K = map_compose(FormalMap.from_linear(seed, N), K)
    return K


def find_reverser(g: FormalMap, seed: Matrix):
    """Extend a linear seed to a reversing witness h^{-1} g h = g^{-1}.

    The seed must already reverse the linear part.  Returns a verified
    Witness (kind upgraded to involutive_reverser when h o h = id) or an
    Obstruction.
    """
    n, N = g.nvars, g.trunc
    L = g.linear_part()
    if seed.inverse() * L * seed != L.inverse():
        return Obstruction(
            1, 1, (0,) * n, Scalar(0), Scalar(1),
            "seed does not reverse the linear part",
        )
    ginv = map_invert(g)
    U = solve_conjugacy(conjugate_linear(g, seed), ginv)
    if isinstance(U, Obstruction):
        return U
    h = map_compose(FormalMap.from_linear(seed, N), U)
    kind = "involutive_reverser" if map_compose(h, h).is_identity() else "reverser"
    w = Witness(kind, h, N)
    if not verify_witness(g, w):
        return Obstruction(
            N, 1, (0,) * n, Scalar(0), Scalar(1),
            "candidate failed independent verification",
        )
    return w
