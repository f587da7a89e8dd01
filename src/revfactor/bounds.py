"""Recurrence tables for factor counts.

Three closely related quantities per dimension n, in both the reversible
and the involutive mode:

* ``centralizer`` — factors needed for a map already inside the
  paired-diagonal centralizer;
* ``diagonal`` — for a map whose linear part is a paired diagonal;
* ``general`` — for an arbitrary map with compatible linear part.

The halving recurrences bound the centralizer count of dimension n by a
table lookup at roughly n/2; dimension bookkeeping differs between even
n (via the diagonal column at n/2) and odd n (via the general column at
(n+1)/2).  ``chain_estimate`` reproduces the cruder dyadic-chain
arithmetic whose headline values are 14 at n=96 and 20 at n=97; it is
kept separate from the dynamic program on purpose (the two disagree —
the table is authoritative, see the acceptance tests).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from math import comb


@dataclass(frozen=True)
class BoundRow:
    n: int
    general: int
    diagonal: int
    centralizer: int
    via: str

    def as_dict(self):
        return {
            "n": self.n,
            "general": self.general,
            "diagonal": self.diagonal,
            "centralizer": self.centralizer,
            "via": self.via,
        }


@dataclass(frozen=True)
class BoundTable:
    mode: str  # "reversible" | "involutive"
    rows: tuple

    def row(self, n: int) -> BoundRow:
        first = self.rows[0].n
        return self.rows[n - first]

    def as_text(self) -> str:
        lines = [" n  general  diagonal  centralizer"]
        for r in self.rows:
            lines.append(
                f"{r.n:>2}  {r.general:>7}  {r.diagonal:>8}  {r.centralizer:>11}"
            )
        return "\n".join(lines)

    def as_json(self) -> str:
        return json.dumps(
            {"mode": self.mode, "rows": [r.as_dict() for r in self.rows]},
            indent=2,
        )


def _halving_table(mode: str, base, step: int, n_max: int) -> BoundTable:
    """Extend the base rows by the halving recurrence up to n_max.

    centralizer(2m) = step + diagonal(m), centralizer(2m+1) =
    step + general(m+1), then diagonal = centralizer + step and general =
    centralizer + 2 step.
    """
    rows = {r.n: r for r in base}
    for n in range(max(rows) + 1, n_max + 1):
        m, column = (n // 2, "diagonal") if n % 2 == 0 else ((n + 1) // 2, "general")
        c = step + getattr(rows[m], column)
        rows[n] = BoundRow(
            n, c + 2 * step, c + step, c, f"centralizer({n}) = {step} + {column}({m})"
        )
    return BoundTable(mode, tuple(r for n, r in rows.items() if n <= n_max))


def compute_bounds(n_max: int) -> BoundTable:
    """Best reversible-factor counts derivable from the halving
    recurrences, minimized bottom-up.

    Bases: dimension 1 needs 2 everywhere; dimension 2 needs (4, 4, 3).
    For n >= 3: centralizer(2m) = 1 + diagonal(m), centralizer(2m+1) =
    1 + general(m+1), then diagonal = centralizer + 1 and general =
    centralizer + 2.
    """
    if n_max < 1:
        raise ValueError("n_max must be at least 1")
    base = (
        BoundRow(1, 2, 2, 2, "base (one dimension)"),
        BoundRow(2, 4, 4, 3, "base (two dimensions)"),
    )
    return _halving_table("reversible", base, 1, n_max)


def compute_involution_bounds(n_max: int) -> BoundTable:
    """Involution counts; defined from dimension 2 up.

    Bases: dimension 2 needs (14, 14, 12).  For n >= 3:
    centralizer(2m) = 2 + diagonal(m), centralizer(2m+1) =
    2 + general(m+1), then diagonal = centralizer + 2 and general =
    centralizer + 4.  Every halving step therefore adds at most 6 to the
    total count.
    """
    if n_max < 2:
        raise ValueError("involution counts start at dimension 2")
    base = (BoundRow(2, 14, 14, 12, "base (two dimensions)"),)
    return _halving_table("involutive", base, 2, n_max)


def halving_chain(n: int):
    """The dyadic chain n -> ceil(n/2) -> ... -> 2."""
    if n < 2:
        raise ValueError("chains start at 2")
    chain = [n]
    while chain[-1] > 2:
        chain.append((chain[-1] + 1) // 2)
    return tuple(chain)


def chain_estimate(n: int):
    """Crude reversible-count estimate read off the dyadic chain: 2 plus
    2 per link for even n, 3 per link for odd n.

    Returns (estimate, chain).  Matches the headline values 14 at n=96
    and 20 at n=97 and gives 2k at n = 2^k.  For small n the dynamic
    program in compute_bounds is sharper and authoritative.
    """
    chain = halving_chain(n)
    links = len(chain) - 1
    per_link = 2 if n % 2 == 0 else 3
    return 2 + per_link * links, chain


def order4_class_count(n: int) -> int:
    """Number of conjugacy classes of diagonalizable linear maps of
    order dividing 4: multisets of n eigenvalues drawn from the four
    fourth roots of unity, i.e. C(n+3, 3)."""
    if n < 1:
        raise ValueError("n must be at least 1")
    return comb(n + 3, 3)


def table_text(n_max: int = 16) -> str:
    """The canonical fixed-width rendering of the reversible table."""
    return compute_bounds(n_max).as_text()
