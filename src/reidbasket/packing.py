"""The packing partial order on baskets.

A single *packing* replaces two entries (b1, r1), (b2, r2) by their sum
(b1+b2, r1+r2); it is *prime* when |b1*r2 - b2*r1| = 1.  Compositions of
packings generate the domination order ``B >= B'``.  Along any packing

    sigma stays fixed, sigma' / Delta^n / gamma never increase,
    -K^3 and P_{-m} (m >= 2) never decrease,

which is what makes breadth-first closure search with monotone pruning
sound: a clause like ``gamma >= c`` that fails now fails forever, and
``-K^3 <= c`` that fails now fails forever.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable, NamedTuple

from .core import (
    MAX_VISITED,
    Basket,
    ClosureTruncated,
    OrbifoldPair,
    WeightedBasket,
    _record,
    _volume,
)

__all__ = [
    "merge_pairs",
    "is_prime_packing",
    "pack_once",
    "single_packings",
    "ClosureResult",
    "ClosureTruncated",
    "closure",
    "dominates",
    "gamma_at_least",
    "volume_at_most",
    "all_of",
    "coprime_only",
]

Predicate = Callable[[Basket], bool]


def merge_pairs(p: OrbifoldPair, q: OrbifoldPair) -> OrbifoldPair:
    # 2(b1+b2) <= r1+r2 holds automatically, so the merge is always legal
    return OrbifoldPair(p.b + q.b, p.r + q.r)


def is_prime_packing(p: OrbifoldPair, q: OrbifoldPair) -> bool:
    """True iff |b1*r2 - b2*r1| = 1 (a unimodular, "Farey-neighbor" merge)."""
    return abs(p.b * q.r - q.b * p.r) == 1


def pack_once(basket: Basket, i: int, j: int) -> Basket:
    """Merge the entries at multiset positions i and j (canonical order).

    The same pair type may be merged with itself when its multiplicity
    is >= 2, by giving two distinct positions.
    """
    n = len(basket)
    if i == j or not (0 <= i < n and 0 <= j < n):
        raise ValueError(f"pack_once needs two distinct positions in 0..{n - 1}")
    entries = list(basket.entries)
    i, j = min(i, j), max(i, j)
    q = entries.pop(j)
    p = entries.pop(i)
    entries.append(merge_pairs(p, q))
    return Basket(entries)


def single_packings(basket: Basket) -> list[Basket]:
    """All distinct results of one packing step, canonically sorted.

    One child per unordered pair of distinct entry types, plus one per type
    that repeats (the self-merge).  No two are equal: equal children need
    equal merged pairs (a merged pair has a larger r than either part, so
    it cannot be one of the other child's removed entries), and then equal
    removed entries.  Each child is sliced out of the canonical entries:
    the first position of each type, and the next one for a self-merge.
    """
    entries = basket.entries
    key = basket.sort_key()
    n = len(entries)
    firsts = [i for i in range(n) if i == 0 or key[i] != key[i - 1]]
    out = []
    for a, i in enumerate(firsts):
        head = entries[:i]
        if i + 1 < n and key[i + 1] == key[i]:
            out.append(Basket(head + entries[i + 2:] + (merge_pairs(entries[i], entries[i]),)))
        for j in firsts[a + 1:]:
            out.append(Basket(
                head + entries[i + 1:j] + entries[j + 1:] + (merge_pairs(entries[i], entries[j]),)
            ))
    out.sort(key=Basket.sort_key)
    return out


# ---------------------------------------------------------------------------
# closure search
# ---------------------------------------------------------------------------

class ClosureResult(NamedTuple):
    baskets: tuple[Basket, ...]
    visited: int
    truncated: bool

    def require_complete(self) -> "ClosureResult":
        if self.truncated:
            raise ClosureTruncated(
                f"closure truncated after visiting {self.visited} baskets"
            )
        return self


def closure(
    root: Basket,
    prune: Predicate | None = None,
    emit: Predicate | None = None,
    max_visited: int = MAX_VISITED,
) -> ClosureResult:
    """All packings of ``root`` (the root included) passing the filters.

    A root that fails ``prune`` gives an empty result.  ``prune`` must be
    downward-closed along packing (helpers below build safe clauses); a
    basket failing it is cut together with its whole subtree.  ``emit`` is
    applied only at output and may be arbitrary.  The result is
    deduplicated by canonical form and canonically sorted, so any traversal
    order yields the same answer.  A search that would visit more than
    ``max_visited`` baskets (at least 1) stops and reports itself truncated.
    """
    if max_visited < 1:
        raise ValueError(f"max_visited must be >= 1, got {max_visited}")
    seen = {root} if prune is None or prune(root) else set()
    frontier = list(seen)
    truncated = False
    while frontier:
        nxt: list[Basket] = []
        for current in frontier:
            for child in single_packings(current):
                if child in seen:
                    continue
                if len(seen) >= max_visited:
                    truncated = True
                    nxt = []
                    break
                if prune is not None and not prune(child):
                    continue
                seen.add(child)
                nxt.append(child)
            if truncated:
                break
        frontier = nxt
    kept = sorted((b for b in seen if emit is None or emit(b)), key=Basket.sort_key)
    return ClosureResult(baskets=tuple(kept), visited=len(seen), truncated=truncated)


def dominates(basket: Basket, other: Basket) -> bool:
    """True iff ``other`` is reachable from ``basket`` by finitely many packings."""
    # packing preserves sigma and sum(r), shortens the basket and never
    # increases sigma', so every basket on a path to ``other``, ``basket``
    # included, is longer and has sigma' >= its own (numerators over each r_X)
    target_rx, _, target_sig, target_sp, _ = _record(other)
    if _record(basket)[2] != target_sig or sum(p.r for p in basket) != sum(p.r for p in other):
        return False

    def on_a_path(b: Basket) -> bool:
        if len(b) <= len(other):
            return b == other
        rx, _, _, sp, _ = _record(b)
        return sp * target_rx >= target_sp * rx

    return other in closure(basket, prune=on_a_path).require_complete().baskets


# -- prune / emission clause helpers ----------------------------------------

def gamma_at_least(bound: Fraction | int) -> Predicate:
    """Prune-safe: gamma never increases along packing."""
    bound = Fraction(bound)
    num, den = bound.numerator, bound.denominator

    def clause(basket: Basket) -> bool:
        rec = _record(basket)
        return rec[4] * den >= num * rec[0]

    return clause


def volume_at_most(bound: Fraction | int, p1: int) -> Predicate:
    """Prune-safe: -K^3 never decreases along packing (p1 fixed)."""
    bound = Fraction(bound)
    num, den = bound.numerator, bound.denominator
    WeightedBasket(Basket(), p1)  # the P_{-1} rule, checked once

    def clause(basket: Basket) -> bool:
        rec = _record(basket)
        return _volume(p1, rec) * den <= num * rec[0]

    return clause


def all_of(*predicates: Predicate) -> Predicate:
    return lambda basket: all(p(basket) for p in predicates)


def coprime_only(basket: Basket) -> bool:
    return basket.all_terminal
