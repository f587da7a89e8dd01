"""Seeded instance generator for the benchmark workloads.

Instances are produced as map text in the format ``revfactor.parse_map``
reads, so the program under test receives only the generated maps.

Each workload is a fixed list of slots.  A slot's map -- dimension,
mode, linear part, and the exponents and coefficients of its higher-order
terms -- is drawn once from a constant catalogue seed.  The ``--seed`` of a
run conjugates each map by a seeded sign change of the coordinates,
z_i -> +-z_i.  So each seed gives other maps and certificates, but every
run does the same amount of work.  Letting the seed draw the primes or
the coefficients instead moved single instances by 10-15%, and flipping
single terms changed some involutive factorizations from 10 factors to 4:
too much for comparing runs made on different seeds.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

CATALOGUE_SEED = 1310_4857
PRIMES = (2, 3, 5, 7, 11, 13)
JUNK = (1, -1, 2, -2, 3, 5)
INV_JUNK = (1, -1, 2, -2, 3)
INV_STYLES = ("unipotent", "neg-jordan", "neg-identity", "prime-diagonal")

# The ROADMAP item 3 target: four variables, Jordan blocks at 2 and 1.
N4_JORDAN = (
    "map n=4 N=6 { comp1: { [1,0,0,0]: 2 ; [0,1,0,0]: 1 } ; "
    "comp2: { [0,1,0,0]: 2 ; [0,0,1,0]: 1 ; [1,1,1,0]: 3 } ; "
    "comp3: { [0,0,1,0]: 1 ; [0,0,0,1]: 1 } ; "
    "comp4: { [0,0,0,1]: 1/4 ; [0,2,0,1]: 1 } }"
)


@dataclass(frozen=True)
class Instance:
    name: str
    mode: str  # "reversible" or "involutive"
    text: str
    truncation: int | None = None  # lower the map to this degree first


def _fmt(x) -> str:
    x = Fraction(x)
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def map_text(n: int, N: int, comps) -> str:
    """Map text from one {exponent tuple: rational} dict per component."""
    parts = []
    for i, comp in enumerate(comps, start=1):
        terms = sorted(
            (e for e, v in comp.items() if v != 0), key=lambda e: (sum(e), e)
        )
        body = " ; ".join(
            "[" + ",".join(map(str, e)) + "]: " + _fmt(comp[e]) for e in terms
        )
        parts.append(f"comp{i}: {{ {body} }}")
    return f"map n={n} N={N} {{ " + " ; ".join(parts) + " }"


def _junk(shape: random.Random, n: int, values):
    """Per component, one to two terms of total degree 2..4."""
    out = []
    for _ in range(n):
        terms = {}
        for _ in range(shape.randint(1, 2)):
            e = [0] * n
            for _ in range(shape.randint(2, 4)):
                e[shape.randrange(n)] += 1
            terms[tuple(e)] = Fraction(shape.choice(values))
        out.append(terms)
    return out


def _unit(n: int, i: int):
    return tuple(1 if k == i else 0 for k in range(n))


def _flip(slot: str, seed: int, comps):
    """Conjugate the map by z_i -> s_i z_i with seeded signs s_i: the
    coefficient of z^e in component i is multiplied by s_i * s^e."""
    rng = random.Random(f"{seed}:{slot}")
    s = [rng.choice((1, -1)) for _ in comps]
    out = []
    for i, comp in enumerate(comps):
        flipped = {}
        for e, v in comp.items():
            sign = s[i]
            for j, k in enumerate(e):
                sign *= s[j] ** k
            flipped[e] = v * sign
        out.append(flipped)
    return out


def prime_instance(slot: str, n: int, N: int, seed: int) -> Instance:
    """Determinant-one map: distinct-prime diagonal plus sparse terms."""
    shape = random.Random(f"{CATALOGUE_SEED}:{slot}")
    diag = [Fraction(p) for p in shape.sample(PRIMES, n - 1)]
    prod = Fraction(1)
    for x in diag:
        prod *= x
    diag.append(1 / prod)
    comps = [
        {_unit(n, i): diag[i], **junk} for i, junk in enumerate(_junk(shape, n, JUNK))
    ]
    return Instance(slot, "reversible", map_text(n, N, _flip(slot, seed, comps)))


def involutive_instance(slot: str, style: str, N: int, seed: int) -> Instance:
    """Two-variable determinant-one map in one of the four linear styles."""
    shape = random.Random(f"{CATALOGUE_SEED}:{slot}")
    if style == "unipotent":
        rows = [{(1, 0): 1, (0, 1): 1}, {(0, 1): 1}]
    elif style == "neg-jordan":
        rows = [{(1, 0): -1, (0, 1): shape.choice([1, 2])}, {(0, 1): -1}]
    elif style == "neg-identity":
        rows = [{(1, 0): -1}, {(0, 1): -1}]
    else:
        p = Fraction(shape.choice([2, 3, 5]))
        rows = [{(1, 0): p}, {(0, 1): 1 / p}]
    for row, junk in zip(rows, _junk(shape, 2, INV_JUNK)):
        row.update(junk)
    return Instance(slot, "involutive", map_text(2, N, _flip(slot, seed, rows)))


# ---------------------------------------------------------------------------
# workloads


@dataclass(frozen=True)
class Workload:
    why: str
    slots: tuple  # one function seed -> Instance per slot, in pass order


def _prime_slots(prefix: str, n: int, N: int, count: int):
    return tuple(
        lambda seed, name=f"{prefix}-{k}": prime_instance(name, n, N, seed)
        for k in range(count)
    )


def _involutive_slots(prefix: str, styles, N: int, count: int):
    return tuple(
        lambda seed, name=f"{prefix}-{st}-{k}", st=st: involutive_instance(name, st, N, seed)
        for st in styles
        for k in range(count)
    )


def _n4_jordan(N: int):
    return (lambda seed: Instance(f"n4-jordan-N{N}", "involutive", N4_JORDAN, N),)


def warm_up_instance(seed: int) -> Instance:
    """The small instance every set-up runs once before timing starts."""
    return prime_instance("warm-up", 2, 6, seed)


WORKLOADS = {
    # The traffic the acceptance suite and typical users send: small
    # coefficients, so per-call overhead in scalars/series and the pipeline's
    # control flow (normal form, structure, dim1 seed search) dominate.
    "mixed-n6": Workload(
        why="acceptance-style N=6 traffic with small coefficients: per-call "
        "overhead and the pipeline's control flow dominate, factoring and "
        "verifying cost about the same",
        slots=_prime_slots("rev2", 2, 6, 6)
        + _prime_slots("rev3", 3, 6, 6)
        + _prime_slots("rev4", 4, 6, 5)
        + _involutive_slots("inv2", INV_STYLES, 6, 1),
    ),
    # Coefficient growth dominates: big rationals, series multiply and the
    # map inversion inside witness checks do almost all the work.  The
    # n4-jordan map runs at N=4, the deepest truncation at which one
    # involutive factorization fits many times into a run.
    "deep-jet": Workload(
        why="n4-jordan involutive plus two-variable N=8 instances: big-rational "
        "arithmetic, series multiply and map inversion dominate, so kernel "
        "and composition-count changes show their size",
        slots=_n4_jordan(4) + _prime_slots("deep2", 2, 8, 6),
    ),
    # The trust-boundary path third parties run: parsing, maps and series,
    # none of the normal form, structure or dim1 code.  The slots are the
    # certificates' sources; run.py derives the replayed entries from them.
    "verify-replay": Workload(
        why="replay of honest, tampered and lowered-degree N=6 certificates: "
        "only parsing, maps and series run, so a factor-pipeline change "
        "predicts no change here",
        slots=_prime_slots("rev2", 2, 6, 2)
        + _prime_slots("rev3", 3, 6, 2)
        + _prime_slots("rev4", 4, 6, 1)
        + _involutive_slots("inv2", ("neg-identity",), 6, 1),
    ),
}


def build(workload: str, seed: int) -> list:
    """The workload's instances for one seed, in pass order."""
    return [make(seed) for make in WORKLOADS[workload].slots]
