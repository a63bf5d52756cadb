"""Canonical sequences of baskets via Farey-neighbor unpacking.

The admissible fraction sets are

    S(0) = {1/k : k >= 2},   S(5) = S(0) + {2/5},
    S(n) = S(n-1) + {b/n in lowest terms, 0 < b < n/2}   for n >= 6,

each dividing (0, 1/2] into intervals whose endpoints q_i/p_i, q_{i+1}/p_{i+1}
satisfy q_i*p_{i+1} - p_i*q_{i+1} = 1.  Unpacking an entry (b, r) whose
fraction b/r is not admissible at level n splits it along the bracketing
division points:

    (r*q_l - b*p_l) copies of (q_{l+1}, p_{l+1})
    (-r*q_{l+1} + b*p_{l+1}) copies of (q_l, p_l)

Unimodularity makes this preserve sigma and sum(r) on the nose.  Applying
it entrywise defines the level-n approximation of a basket; levels 0, 5,
6, ... form a descending chain under the packing order that stabilizes at
the basket itself, and the number of prime packings consumed between
consecutive levels is epsilon_n = Delta^n(level n-1) - Delta^n(B).

The division points come from one integer descent, ``_bracket``: from the
unit fractions around b/r, each step moves one end by a whole run of
Stern-Brocot mediants.  The runs are the partial quotients of b/r cut off
at level n, so one entry at one level costs O(log r) integer steps.

Both are entrywise, so ``canonical_sequence`` reads the chain off one
memoized table per pair (``_chain``); ``unpack`` and ``epsilon_n`` keep
the direct definitions as its independent oracle.

Levels 1-4 are not part of the construction and are rejected.  ``unpack``
and a pair's chain raise ClosureTruncated before they build a level of
more than ``_MAX_ENTRIES`` entries.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from itertools import zip_longest
from typing import NamedTuple

from .core import PAIR_CACHE_SIZE, Basket, ClosureTruncated, OrbifoldPair, _delta

__all__ = [
    "in_level_set",
    "farey_neighbors",
    "unpack",
    "epsilon_n",
    "CanonicalSequence",
    "canonical_sequence",
    "Infeasible",
    "b0_from_plurigenera",
    "b5_from_plurigenera",
    "epsilon5_from_plurigenera",
    "epsilon6_residual",
    "epsilon7_from_plurigenera",
    "epsilon8_from_plurigenera",
]


def _check_level(level: int) -> None:
    if level != 0 and level < 5:
        raise ValueError(f"levels 1-4 are not defined (got {level})")


def in_level_set(frac: Fraction, level: int) -> bool:
    """Membership of a fraction in (0, 1/2] in S(level)."""
    _check_level(level)
    if not 0 < frac <= Fraction(1, 2):
        raise ValueError(f"fraction {frac} outside (0, 1/2]")
    return frac.numerator == 1 or frac.denominator <= level


def farey_neighbors(frac: Fraction, level: int) -> tuple[Fraction, Fraction]:
    """Adjacent division points (upper, lower) of S(level) around ``frac``.

    Precondition: ``frac`` is in (0, 1/2] but not in S(level).  The result
    satisfies lower < frac < upper with the unimodularity relation
    upper.n * lower.d - upper.d * lower.n = 1.
    """
    if in_level_set(frac, level):
        raise ValueError(f"{frac} already lies in S({level})")
    (ln, ld, _), (un, ud, _) = _unpack_entry(frac.numerator, frac.denominator, level)
    return Fraction(un, ud), Fraction(ln, ld)


def _bracket(q: int, p: int, level: int) -> tuple[int, int, int, int]:
    """(un, ud, ln, ld): ln/ld < q/p < un/ud adjacent in S(level), q/p reduced."""
    un, ud, ln, ld = 1, p // q, 1, p // q + 1
    while True:
        # q/p - ln/ld = a/(p ld) and un/ud - q/p = c/(p ud); t mediants stay
        # on their side of q/p while t c < a (t a < c), and within the level
        a, c = q * ld - ln * p, un * p - q * ud
        t = min((a - 1) // c, (level - ld) // ud)
        if t > 0:  # the lower end takes t upper ends
            ln, ld = ln + t * un, ld + t * ud
            continue
        t = min((c - 1) // a, (level - ud) // ld)
        if t < 1:
            return un, ud, ln, ld
        un, ud = un + t * ln, ud + t * ld  # the upper end takes t lower ends


def _unpack_entry(b: int, r: int, level: int) -> tuple[tuple[int, int, int], ...]:
    g = math.gcd(b, r)
    q, p = b // g, r // g
    if q == 1 or p <= level:
        return ((b, r, 1),)
    un, ud, ln, ld = _bracket(q, p, level)
    if un * ld - ud * ln != 1:
        raise AssertionError(
            f"invariant violated: Farey neighbors {un}/{ud}, {ln}/{ld} of {q}/{p} "
            f"at level {level} are not unimodular"
        )
    # copies of ln/ld and of un/ud; with D = un*ld - ud*ln they sum back to
    # (g*q*D, g*p*D), which is (b, r) since D = 1 was checked above
    m_low, m_high = g * (un * p - q * ud), g * (q * ld - ln * p)
    if m_low < 1 or m_high < 1:
        raise AssertionError(
            f"invariant violated: unpacking ({b},{r}) at level {level} "
            f"needs positive multiplicities, got {m_low} and {m_high}"
        )
    return ((ln, ld, m_low), (un, ud, m_high))


def _unpacked(triples: list[tuple[int, int, int]], level: int) -> list[tuple[int, int, int]]:
    """The level-n approximation of (b, r, multiplicity) triples, as triples."""
    return [(qb, qr, m * k) for b, r, k in triples for qb, qr, m in _unpack_entry(b, r, level)]


def _basket(triples: list[tuple[int, int, int]]) -> Basket:
    entries: list[OrbifoldPair] = []
    for b, r, mult in triples:
        entries.extend([OrbifoldPair(b, r)] * mult)
    return Basket(entries)


def _check_entries(size: int, what: str) -> None:
    if size > _MAX_ENTRIES:
        raise ClosureTruncated(f"{what} holds {size} entries, past the entry budget {_MAX_ENTRIES}")


def unpack(basket: Basket, level: int) -> Basket:
    """The level-n approximation: entrywise Farey unpacking (idempotent)."""
    _check_level(level)
    triples = _unpacked(basket.counts(), level)
    _check_entries(sum(m for *_, m in triples), f"level {level}")
    return _basket(triples)


def epsilon_n(basket: Basket, n: int) -> int:
    """Number of prime packings in the chain step from level n-1 to level n.

    The chain jumps from level 0 straight to level 5, so the predecessor
    of level 5 is level 0.  Always non-negative; a negative value
    indicates a broken invariant and raises AssertionError (an explicit
    check, so it also runs under ``python -O``).
    """
    if n < 5:
        raise ValueError(f"epsilon_n needs n >= 5, got {n}")
    triples = basket.counts()
    previous = _unpacked(triples, 0 if n == 5 else n - 1)
    return _checked(n, _delta(previous, n) - _delta(triples, n))


def _checked(n: int, value: int) -> int:
    if value < 0:
        raise AssertionError(f"invariant violated: epsilon_{n} = {value} is negative")
    return value


class CanonicalSequence(NamedTuple):
    """The chain of level approximations of a basket, with packing counts."""

    levels: tuple[tuple[int, Basket, int], ...]  # (n, level-n basket, epsilon_n)
    stabilization_level: int


# one pair's level budget: (1,2),(3,300001) lists in 6-8 s, (2,599999) in 13 s at 177 MB
_MAX_TOP = 600_000

# the entries of one level, just above the most that printed within 200 MB:
# --levels 0 on (2200000,4400001), 2,200,000 entries in 1.3 s at 201 MB
_MAX_ENTRIES = 2_250_000


@lru_cache(maxsize=PAIR_CACHE_SIZE)
def _chain(b: int, r: int) -> tuple[int, tuple, tuple[int, ...], frozenset[int]]:
    """One pair's chain table (top, levels, shares, changes).

    top is the lowest-terms denominator of b/r, 0 for a unit fraction.
    levels[n] holds the pair's level-n entries for n < top (levels 1-4
    repeat level 0) and levels[top] the pair itself.  shares[n - 5] is
    Delta^n(level before n) - Delta^n(pair) for 5 <= n <= top, and
    changes holds the levels n >= 5 at which the unpacking changes.  A top
    past ``_MAX_TOP``, or a level 0 (the largest level, as each packing step
    merges two entries into one) of more than ``_MAX_ENTRIES`` entries,
    raises ClosureTruncated before any level is built.
    """
    g = math.gcd(b, r)
    top = 0 if g == b else r // g
    if top > _MAX_TOP:
        raise ClosureTruncated(f"canonical chain of ({b},{r}) runs to level {top}, past the level budget {_MAX_TOP}")
    level0 = _unpack_entry(b, r, 0)
    _check_entries(sum(m for *_, m in level0), f"level 0 of the canonical chain of ({b},{r})")
    triples = [level0] * min(top, 5) + [_unpack_entry(b, r, n) for n in range(5, top)] + [((b, r, 1),)]
    # one tuple of OrbifoldPairs per distinct unpacking, shared by its levels
    entries = {t: sum(((OrbifoldPair(qb, qr),) * m for qb, qr, m in t), ()) for t in triples}
    steps = range(5, top + 1)
    shares = tuple(_delta(triples[n - 1], n) - _delta(triples[top], n) for n in steps)
    changes = frozenset(n for n in steps if triples[n] != triples[n - 1])
    return top, tuple(entries[t] for t in triples), shares, changes


def canonical_sequence(basket: Basket) -> CanonicalSequence:
    """Levels 0, 5, 6, ... up to stabilization, from per-pair chain tables.

    The chain stops at the largest lowest-terms denominator of an entry
    that is no unit fraction, where every entry is its own level, or at 5,
    and lists the basket itself there.  epsilon_n is the column sum of the
    entries' shares.  A level is built only where some entry's unpacking
    changes and otherwise shares the Basket before it; the stabilization
    level is 0 when level 0 already is the basket.
    """
    chains = [_chain(p.b, p.r) for p in basket.entries]
    # an entry's shares run over levels 5..top, so the longest ends at the top
    eps = list(map(sum, zip_longest(*[shares for _, _, shares, _ in chains], fillvalue=0)))
    top = len(eps) + 4 if eps else 0
    if eps and min(eps) < 0:
        _checked(*next((n, e) for n, e in enumerate(eps, 5) if e < 0))
    changes = frozenset().union(*[changed for *_, changed in chains])
    level = Basket([p for _, entries, _, _ in chains for p in entries[0]]) if top else basket
    levels: list[tuple[int, Basket, int]] = [(0, level, 0)]
    for n in range(5, max(top, 5)):
        if n in changes:
            level = Basket([p for last, entries, _, _ in chains for p in entries[min(n, last)]])
        levels.append((n, level, eps[n - 5]))
    levels.append((max(top, 5), basket, eps[-1] if top else 0))
    return CanonicalSequence(levels=tuple(levels), stabilization_level=top)


# ---------------------------------------------------------------------------
# level-0 / level-5 baskets from anti-plurigenera
#
# With p_m short for P_{-m} and sigma5 = sum of the prescribed multiplicities
# n0[1,r] for r >= 5, the level-0 basket has
#
#   n0[1,2] = 5 - 6 p1 + 4 p2 - p3
#   n0[1,3] = 4 - 2 p1 - 2 p2 + 3 p3 - p4
#   n0[1,4] = 1 + 3 p1 - p2 - 2 p3 + p4 - sigma5
#
# Each of the epsilon_5 = 2 + p2 - 2 p4 + p5 - sigma5 packings of level 5
# merges one (1,2) and one (1,3) into a (2,5), so the level-5 basket has
#
#   n5[1,2] = n0[1,2] - epsilon_5
#   n5[2,5] = epsilon_5
#   n5[1,3] = n0[1,3] - epsilon_5
#   n5[1,4] = n0[1,4]
#   n5[1,r] = n0[1,r] for r >= 5.
#
# A negative multiplicity means the plurigenus tuple is infeasible; that is
# data for the classifier, not an error.
# ---------------------------------------------------------------------------

class Infeasible(NamedTuple):
    """Named witness of an impossible plurigenus tuple."""

    coefficient: str
    value: int

    def __bool__(self) -> bool:
        return False


def _level0_counts(p1: int, p2: int, p3: int, p4: int, sigma5: int) -> tuple[int, int, int]:
    """n0[1,2], n0[1,3] and n0[1,4] of the level-0 basket."""
    return (
        5 - 6 * p1 + 4 * p2 - p3,
        4 - 2 * p1 - 2 * p2 + 3 * p3 - p4,
        1 + 3 * p1 - p2 - 2 * p3 + p4 - sigma5,
    )


def _from_counts(level: int, counts: tuple, tail: dict[int, int]) -> Basket | Infeasible:
    """The basket of the (b, r, multiplicity) ``counts`` and the r >= 5
    tail, or the first negative multiplicity, named n<level>[b,r]."""
    for b, r, k in counts:
        if k < 0:
            return Infeasible(coefficient=f"n{level}[{b},{r}]", value=k)
    for r in sorted(tail):
        if r < 5:
            raise ValueError(f"tail indices start at r = 5, got {r}")
        if tail[r] < 0:
            raise ValueError(f"tail multiplicity for r = {r} is negative")
        counts += ((1, r, tail[r]),)
    return _basket(list(counts))


def b0_from_plurigenera(
    p1: int, p2: int, p3: int, p4: int, tail: dict[int, int] | None = None
) -> Basket | Infeasible:
    """The level-0 basket determined by P_{-1}..P_{-4} and the r >= 5 tail."""
    tail = tail or {}
    n12, n13, n14 = _level0_counts(p1, p2, p3, p4, sum(tail.values()))
    return _from_counts(0, ((1, 2, n12), (1, 3, n13), (1, 4, n14)), tail)


def b5_from_plurigenera(
    p1: int, p2: int, p3: int, p4: int, p5: int, tail: dict[int, int] | None = None
) -> Basket | Infeasible:
    """The level-5 basket determined by P_{-1}..P_{-5} and the r >= 5 tail."""
    tail = tail or {}
    sigma5 = sum(tail.values())
    n12, n13, n14 = _level0_counts(p1, p2, p3, p4, sigma5)
    eps5 = epsilon5_from_plurigenera(p2, p4, p5, sigma5)
    return _from_counts(5, ((1, 2, n12 - eps5), (2, 5, eps5), (1, 3, n13 - eps5), (1, 4, n14)), tail)


def epsilon5_from_plurigenera(p2: int, p4: int, p5: int, sigma5: int) -> int:
    return 2 + p2 - 2 * p4 + p5 - sigma5


def epsilon6_residual(
    p1: int, p2: int, p3: int, p4: int, p5: int, p6: int, tail: dict[int, int] | None = None
) -> tuple[int, int]:
    """(epsilon_6, epsilon) for the tuple; feasible iff epsilon_6 = 0 and epsilon >= 0.

    epsilon = 2*sigma5 - n0[1,5] is automatically >= 0 when the tail is a
    genuine multiplicity table, but the identity linking P_{-6} to the tail
    is a real constraint: epsilon_6 = 3p1 + p2 - p3 - p4 - p5 + p6 - epsilon
    must vanish.
    """
    tail = tail or {}
    sigma5 = sum(tail.values())
    eps = 2 * sigma5 - tail.get(5, 0)
    eps6 = 3 * p1 + p2 - p3 - p4 - p5 + p6 - eps
    return eps6, eps


def epsilon7_from_plurigenera(
    p1: int, p2: int, p5: int, p6: int, p7: int, tail: dict[int, int] | None = None
) -> int:
    tail = tail or {}
    sigma5 = sum(tail.values())
    return (
        1 + p1 + p2 - p5 - p6 + p7
        - 2 * sigma5 + 2 * tail.get(5, 0) + tail.get(6, 0)
    )


def epsilon8_from_plurigenera(
    p1: int, p2: int, p3: int, p4: int, p5: int, p7: int, p8: int,
    tail: dict[int, int] | None = None,
) -> int:
    tail = tail or {}
    sigma5 = sum(tail.values())
    return (
        2 * p1 + p2 + p3 - p4 - p5 - p7 + p8
        - 3 * sigma5 + 3 * tail.get(5, 0) + 2 * tail.get(6, 0) + tail.get(7, 0)
    )
