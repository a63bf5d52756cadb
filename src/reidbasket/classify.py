"""Constraint-driven enumeration of geometric weighted baskets.

The engine walks the same road the classification arguments do:

1. draw the level-0 roots lazily, as (1, r, multiplicity) integers
   (``_roots``): the multisets of (1, r) entries bounded a priori by gamma
   >= 0 (which caps every local index at 24 and the total entry weight at
   Sigma(r - 1/r) <= 24), each once, with the span of P_{-1} at which
   their P_{-2}..P_{-4} and r >= 5 tail meet the constraints.  The roots
   come from the counts: at P_{-1} = 0, P_{-2}..P_{-4} are linear in the
   numbers of entries, of (1,2) and of (1,3), which are chosen inside their
   rows first, then the number of (1,4) and so the size of the tail, and
   last the tails of that size that the rest of the gamma budget pays for;
2. walk up the canonical chain B^(0) >= B^(5) >= B^(6) >= ... >= B from
   each root (``_walk``): level n merges Farey neighbours of S(n-1) into
   the new fractions b/n of S(n), so every terminal basket is reached
   once, from its own level-0 basket.  No merge reads P_{-1}: a state
   carries gamma, -K^3 and the constrained P_{-m} at P_{-1} = 0 as integers
   a merge adds fixed steps to, and the span of P_{-1} its cuts leave.  The
   cuts are monotone along the chain: gamma >= 0, and the upper ends of
   -K^3 and P_{-m}, which only grow; a lower end of P_{-n} once level n is
   done, since P_{-n} is then final; and r_max at most the ceiling the
   constraints put on every admitted basket, where the walk stops;
3. re-verify every leaf of the walk against the full constraint set and
   the geometric filter -- mandatory, not an optimization -- from its entry
   counts and the integers the walk carried into it, the filter alone at
   each P_{-1} of its span, and build one ``Basket`` per admitted leaf.

Everything is exact, and the output, sorted once by (P_{-1}, basket), has
no duplicates.  Every rational ``classify`` reads is a numerator over one
scale, S = lcm(2..32): gamma, -K^3 and its ends, and the entry costs r -
1/r of the gamma budget that the roots and the index profiles spend.  A
unit of P_{-1} moves -K^3 by 2 S and P_{-m} by U[m], so one table
(``_rows``) and one rule (``_trim``) cut P_{-1} for the roots, the walk,
the leaves and the route of an exact r_X, ``enumerate_index_profiles``.
"""

from __future__ import annotations

import math
import re
import sys
from fractions import Fraction
from itertools import combinations_with_replacement, groupby, islice, product
from operator import add, itemgetter, sub
from types import MappingProxyType
from typing import Iterable, Iterator, Mapping, NamedTuple, Sequence

from .core import (
    FILTER_HORIZON,
    MAX_VISITED,
    Basket,
    ClosureTruncated,
    FilterConfig,
    FilterResult,
    OrbifoldPair,
    WeightedBasket,
    _INT,
    _U,
    _V,
    _basket,
    _basket_terms,
    _beyond,
    _int,
    _pair_terms,
    _table,
    _unpack_entry,
    _unpacked,
    parse_rational,
)

__all__ = [
    "ClassificationConstraints",
    "parse_constraints",
    "enumerate_b0",
    "classify",
    "enumerate_index_profiles",
]

# a basket read as its (b, r, multiplicity) triples
_Triples = list[tuple[int, int, int]]

# Every root has at most 16 entries and Sigma(r - 1/r) <= 24, so Sigma r <= 32
# bounds every index along its chains: the walk counts gamma and -K^3, and
# the gamma budget its entry costs, as numerators over this one scale
TOP = 32
S = math.lcm(*range(2, TOP + 1))
_COST = {r: r * S - S // r for r in range(2, 25)}


def _multisets(indices: tuple[int, ...], covers: tuple[int, ...] = (), need: int = 0) -> Iterator[tuple[int, ...]]:
    """Every ascending multiset over ``indices`` whose costs sum to at most 24
    and whose ``covers``, one bit mask per index, together hold every bit of
    ``need`` (with no covers: every multiset).

    ``indices`` ascend within 2..24 (each divides S).  The multisets come
    shortest first, from the empty one; the cost r - 1/r grows with r, so
    each multiset is extended only by the indices that still fit, and only
    while the least cost of the bits it still misses fits too.
    """
    covers = covers or (0,) * len(indices)
    # least[i][m]: the least cost of holding the bits m with indices[i:],
    # past the budget if they cannot; an index taken twice holds no more
    least = [[0] + [25 * S] * need]
    for r, cover in zip(indices[::-1], covers[::-1]):
        after = least[-1]
        least.append([min(after[m], _COST[r] + after[m & ~cover]) for m in range(need + 1)])
    least.reverse()
    # (multiset, position of its last index, budget left, bits missing), extended in turn
    found = [((), 0, 24 * S, need)]
    for current, start, budget, missing in found:
        if not missing:
            yield current
        for i in range(start, len(indices)):
            left = budget - _COST[indices[i]]
            if left < 0:
                break
            rest = missing & ~covers[i]
            if least[i][rest] <= left:
                found.append((current + (indices[i],), i, left, rest))


# the read-only empty default of the plurigenus maps: no instance shares a
# mutable default with another
_NO_PLURIGENERA: Mapping = MappingProxyType({})


class _ConstraintFields(NamedTuple):
    p_fixed: Mapping[int, int] = _NO_PLURIGENERA
    p_ranges: Mapping[int, tuple[int, int]] = _NO_PLURIGENERA
    sigma5: tuple[int, int] | None = None
    k3_min: Fraction | None = None
    k3_min_strict: bool = False
    k3_max: Fraction | None = None
    k3_max_strict: bool = False
    rmax_range: tuple[int, int] | None = None
    rx_exact: int | None = None
    rx_max: int | None = None
    allowed_indices: frozenset[int] | None = None
    filters: FilterConfig = FilterConfig()
    tail_max_index: int = 24
    max_visited: int = MAX_VISITED


class ClassificationConstraints(_ConstraintFields):
    """Exact search constraints.

    ``p_fixed`` pins anti-plurigenera, ``p_ranges`` bounds them (closed
    integer ranges); each m is given in one of the two.  P_{-1} must be
    pinned or finitely ranged: an unbounded constraint set is rejected
    when it is searched.  Volume bounds carry their own strictness flags
    so open intervals like (0, 1/30) are representable.

    The record holds every rule on its values, and checks them when it is
    built, by ``_replace`` too: each m is at least 1, the ranges of P_{-m},
    ``sigma5`` and ``rmax_range`` and the k3 interval are non-empty (an
    interval [a, a] is not), P_{-1} is at least 0, ``rx_exact`` and
    ``rx_max`` at least 1, ``tail_max_index`` at least 4 (the level-0
    indices 2..4 are always used) and ``max_visited``, the budget of one
    ``classify`` call, at least 1: a walk state or a profile candidate
    spends one unit per P_{-1} of its span.
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs) -> "ClassificationConstraints":
        self = super().__new__(cls, *args, **kwargs)
        both = sorted(set(self.p_fixed) & set(self.p_ranges))
        if both:
            raise ValueError(f"P_{{-m}} for m = {both[0]} is both in p_fixed and in p_ranges")
        ms = self.constrained_ms()
        if ms and ms[0] < 1:
            raise ValueError(f"P_{{-m}} needs m >= 1, got m = {ms[0]}")
        if ms and ms[-1] > sys.maxsize:
            raise ValueError(f"P_{{-m}} needs m <= {sys.maxsize}, got m = {ms[-1]}")
        ranges = [(f"P_{{-{m}}}", self.p_bounds(m)) for m in ms]
        ranges += [(name, getattr(self, name)) for name in ("sigma5", "rmax_range")]
        for name, bounds in ranges:
            if bounds is not None and bounds[0] > bounds[1]:
                raise ValueError("empty range {}..{} for {}".format(*bounds, name))
        p1_lo = self.p_bounds(1)[0]
        if p1_lo is not None and p1_lo < 0:
            raise ValueError(f"P_{{-1}} must be >= 0, got {p1_lo}")
        lo, hi, strict = self.k3_min, self.k3_max, self.k3_min_strict or self.k3_max_strict
        if lo is not None and hi is not None and (lo > hi or lo == hi and strict):
            ends = "[("[self.k3_min_strict], "])"[self.k3_max_strict]
            try:
                interval = f" {ends[0]}{lo},{hi}{ends[1]}"
            except ValueError:  # an end past the int-digit limit does not print
                interval = ""
            raise ValueError(f"empty k3 interval{interval}")
        for name in ("rx_exact", "rx_max", "max_visited"):
            if (value := getattr(self, name)) is not None and value < 1:
                raise ValueError(f"{name} must be >= 1, got {value}")
        if self.tail_max_index < 4:
            raise ValueError(f"tail_max_index must be >= 4, got {self.tail_max_index}")
        return self

    @classmethod
    def _make(cls, iterable) -> "ClassificationConstraints":
        # ``_replace`` builds through ``_make``: validate there too
        return cls(*iterable)

    def __reduce__(self):
        # a mappingproxy does not pickle: the empty default goes as a dict
        return ClassificationConstraints, tuple(
            dict(v) if isinstance(v, MappingProxyType) else v for v in self
        )

    # -- plurigenus range helpers -------------------------------------------

    def p_bounds(self, m: int) -> tuple[int | None, int | None]:
        if m in self.p_fixed:
            v = self.p_fixed[m]
            return v, v
        if m in self.p_ranges:
            return self.p_ranges[m]
        return None, None

    def constrained_ms(self) -> list[int]:
        return sorted(set(self.p_fixed) | set(self.p_ranges))

    def p1_values(self) -> range:
        lo, hi = self.p_bounds(1)
        if lo is None or hi is None:
            raise ValueError("P_{-1} must be fixed or finitely ranged")
        return range(lo, hi + 1)

    # -- emission checks ----------------------------------------------------

    def _indices_ok(self, rs: list[int], rx: int) -> bool:
        """The index constraints on the entries' indices ``rs`` and r_X."""
        if self.allowed_indices is not None and not self.allowed_indices.issuperset(rs):
            return False
        if self.rmax_range is not None:
            lo, hi = self.rmax_range
            if not rs or not lo <= max(rs) <= hi:
                return False
        if self.rx_exact is not None and rx != self.rx_exact:
            return False
        if self.rx_max is not None and rx > self.rx_max:
            return False
        return True

    def admits(self, wb: WeightedBasket) -> bool:
        """Whether ``classify`` lists ``wb``: the constraints, the filter and
        the rules every root of the walk meets -- coprime entries, P_{-2..4}
        >= 0, and level-0 indices at most ``tail_max_index`` whose costs fit
        the gamma budget 24 (so none is above 24).  Once the
        level-0 rules pass, every index is at most the level-0 Sigma r <= 32
        and divides S, so gamma and -K^3 are read over S as the walk reads
        them (``_chain_state``) for ``_leaf_check`` at the P_{-1} of ``wb``."""
        counts = wb.basket.counts()
        state = self._basket_state(counts)
        return state is not None and bool(_leaf_check(self, _rows(self))(counts, *state, wb.p1, wb.p1))

    def _basket_state(self, counts: _Triples) -> tuple[int, int] | None:
        """Gamma and -K^3 at P_{-1} = 0, over S, of the basket of (b, r,
        multiplicity) ``counts`` if it meets ``admits``' coprime and level-0
        rules, else None: what ``admits`` reads of the basket alone."""
        if any(math.gcd(b, r) > 1 for b, r, _ in counts):
            return None
        level0, tail = _unpacked(counts, 0), min(self.tail_max_index, 24)
        if any(r > tail for _, r, _ in level0) or sum(_COST[r] * k for _, r, k in level0) > 24 * S:
            return None
        if self.sigma5 is not None:
            # sigma5 is a property of the basket itself: the number of
            # r >= 5 entries of its own level-0 unpacking
            lo, hi = self.sigma5
            if not lo <= sum(k for _, r, k in level0 if r >= 5) <= hi:
                return None
        return _chain_state(0, counts, ())[:2]


def _sequence(p1: int, triples: _Triples, upto: int) -> list[int]:
    """[0, P_{-1}, ..., P_{-m}] of the basket of (b, r, multiplicity)
    ``triples``, m = max(upto, FILTER_HORIZON): the table, and the recursion
    carried on past it."""
    terms = []
    for b, r, k in triples:
        terms += [_pair_terms(b, r)] * k
    p = _table(p1, terms)
    if upto > FILTER_HORIZON:
        p += [v for _, v in islice(_beyond(p1, triples, p), upto - FILTER_HORIZON)]
    return p


def _rows(constraints: ClassificationConstraints) -> tuple[tuple, ...]:
    """What one unit of P_{-1} moves, as (m, step, lo, hi) rows: -K^3 over S
    (step 2 S), then P_{-1}..P_{-4} and every other constrained P_{-m},
    ascending (step U[m] = 1 + 4 + ... + m^2).  The ends are integers, None
    if missing: the numerators v over S whose v/S the k3 ends allow are
    exactly lo <= v <= hi, strictness folded in, and every root has
    P_{-2..4} >= 0, so their lower ends are cut at 0.  The lower end of
    P_{-m} holds once P_{-m} is final, from level m of the walk on, and
    -K^3 is final only at a leaf: its m is TOP + 1."""

    def top(end: Fraction, strict: bool) -> int:
        # the largest v with v/S <= end, or < end if strict
        num, den = end.numerator * S, end.denominator
        return -(-num // den) - 1 if strict else num // den

    # the least v with v/S >= end is -top(-end): the same cut, mirrored
    lo = None if constraints.k3_min is None else -top(-constraints.k3_min, constraints.k3_min_strict)
    hi = None if constraints.k3_max is None else top(constraints.k3_max, constraints.k3_max_strict)
    rows = [(TOP + 1, 2 * S, lo, hi)]
    for m in sorted({1, 2, 3, 4, *constraints.constrained_ms()}):
        lo, hi = constraints.p_bounds(m)
        rows.append((m, m * (m + 1) * (2 * m + 1) // 6, max(lo or 0, 0) if 2 <= m <= 4 else lo, hi))
    return tuple(rows)


def _trim(rows: Sequence[tuple], values: Iterable[int], lo: int, hi: int, final: int) -> tuple[int, int]:
    """The span lo..hi of P_{-1} narrowed to where every row of ``_rows``
    holds, from ``values``, the rows' values at P_{-1} = 0: a value v is v +
    P_{-1} step.  Upper ends always cut, and the lower end of a row once its
    m <= ``final``.  Returns the new (lo, hi), lo > hi when none is left."""
    for (m, step, low, high), v in zip(rows, values):
        if high is not None and v + hi * step > high:
            hi = (high - v) // step
        if low is not None and v + lo * step < low and m <= final:
            lo = -((v - low) // step)
    return lo, hi


def _roots(constraints: ClassificationConstraints, rows: tuple[tuple, ...]) -> Iterator[tuple[_Triples, int, int]]:
    """The walk's level-0 roots, lazily, each as (1, r, multiplicity)
    triples and a span lo..hi of P_{-1}.

    A level-0 basket is a multiset of (1, r) entries within the gamma budget
    24, so of n <= 16 entries (each costs at least 3/2).  At P_{-1} = 0 its
    P_{-m} is V[m] plus each entry's share T_{1,r}[m] (``_pair_terms``), and
    for m <= 4 every r >= 4 has one share (Delta^j(1, r) = 0 for j <= 4 <=
    r): P_{-2} reads n alone, P_{-3} also the count n2 of (1,2), and P_{-4}
    also the count n3 of (1,3).  So n, n2 and n3 are chosen in turn, each
    narrowing the span of P_{-1} by its row of ``rows`` (``_trim``); then the
    count n4 of (1,4), which leaves t = n - n2 - n3 - n4 entries with r >= 5
    for ``sigma5``; and last the tails of t indices 5..``tail_max_index``
    that the rest of the budget pays for (``_tails``).  Each level-0 basket
    comes at most once, in no particular order.
    """
    p1s = constraints.p1_values()
    s5lo, s5hi = constraints.sigma5 or (0, math.inf)
    tails = tuple(range(5, min(constraints.tail_max_index, 24) + 1))
    t2, t3, t4 = (_pair_terms(1, r) for r in (2, 3, 4))
    c2, c3, c4, c5 = (_COST[r] for r in (2, 3, 4, 5))
    budget = 24 * S
    for n in range(budget // c2 + 1):
        lo, hi = _trim(rows[2:3], (_V[2] + n * t4[2],), p1s.start, p1s.stop - 1, 4)
        if lo > hi:
            continue
        # the fewer (1,2), (1,3) and (1,4) of n entries, the more they cost:
        # each count descends until the cheapest rest is past the budget
        for n2 in range(n, -1, -1):
            if n2 * c2 + (n - n2) * c3 > budget:
                break
            lo2, hi2 = _trim(rows[3:4], (_V[3] + n2 * t2[3] + (n - n2) * t4[3],), lo, hi, 4)
            if lo2 > hi2:
                continue
            for n3 in range(n - n2, -1, -1):
                spent = n2 * c2 + n3 * c3
                if spent + (n - n2 - n3) * c4 > budget:
                    break
                lo3, hi3 = _trim(rows[4:5], (_V[4] + n2 * t2[4] + n3 * t3[4] + (n - n2 - n3) * t4[4],), lo2, hi2, 4)
                if lo3 > hi3:
                    continue
                for n4 in range(n - n2 - n3, -1, -1):
                    t, left = n - n2 - n3 - n4, budget - spent - n4 * c4
                    if t * c5 > left or t > s5hi:
                        break
                    if t >= s5lo:
                        head = [(1, r, k) for r, k in ((2, n2), (3, n3), (4, n4)) if k]
                        for tail in _tails(tails, t, left):
                            yield head + [(1, r, len(list(group))) for r, group in groupby(tail)], lo3, hi3


def _tails(indices: tuple[int, ...], size: int, budget: int) -> Iterator[tuple[int, ...]]:
    """Every ascending multiset of ``size`` of the ascending ``indices``
    whose costs sum to at most ``budget``: an index is taken only while
    ``size`` copies of it, the cheapest rest, still fit."""
    if not size:
        yield ()
        return
    for i, r in enumerate(indices):
        if size * _COST[r] > budget:
            break
        for rest in _tails(indices[i:], size - 1, budget - _COST[r]):
            yield (r, *rest)


def enumerate_b0(constraints: ClassificationConstraints) -> list[tuple[WeightedBasket, tuple[int, int, int, int]]]:
    """The walk's roots (``_roots``) as weighted baskets with their
    (P_{-1}..P_{-4}), sorted by (P_{-1}, basket).  Each level-0 basket is
    built once, for every P_{-1} of its span."""
    roots = [(_basket(triples), range(lo, hi + 1)) for triples, lo, hi in _roots(constraints, _rows(constraints))]
    return [(wb, tuple(_table(wb.p1, _basket_terms(wb.basket))[1:5])) for wb in _listing(roots)]


def _rmax_ceiling(constraints: ClassificationConstraints) -> int | None:
    """The largest r_max an admitted basket can have, or None if unbounded.

    Only upper ends give a ceiling: r_max never decreases along packing,
    so a lower end says nothing about what a state's packings reach.
    """
    caps = []
    if constraints.rmax_range is not None:
        caps.append(constraints.rmax_range[1])
    if constraints.allowed_indices is not None:
        caps.append(max(constraints.allowed_indices, default=1))
    # r_max divides r_X
    if constraints.rx_max is not None:
        caps.append(constraints.rx_max)
    if constraints.rx_exact is not None:
        caps.append(constraints.rx_exact)
        if constraints.rx_exact == 840 and constraints.filters.index_bound:
            # the filter's own rule: r_X = 840 needs r_max = 8
            caps.append(8)
    # under gamma >= 0 alone no cap is needed: the walk's gamma cut
    # already cuts every merge into an index above 24
    if constraints.filters.rmax_le_24:
        caps.append(24)
    return min(caps, default=None)


def _chain_state(p1: int, triples: _Triples, ms: tuple[int, ...]) -> tuple[int, int, tuple[int, ...]]:
    """What the walk carries for the basket of (b, r, multiplicity)
    ``triples`` at ``p1``: gamma = (24 - Sigma r) + Sigma 1/r and -K^3 =
    2 P_{-1} + sigma - 6 - Sigma b^2/r as numerators over S (every index
    divides it), and P_{-m} for the ascending ``ms``."""
    gamma, volume = 24 * S, (2 * p1 - 6) * S
    for b, r, k in triples:
        q = S // r
        gamma += k * (q - r * S)
        volume += k * b * (S - b * q)
    seq = _sequence(p1, triples, ms[-1]) if ms else ()
    return gamma, volume, tuple(seq[m] for m in ms)


def _leaf_check(constraints: ClassificationConstraints, rows: tuple[tuple, ...]):
    """``admits`` but for the coprime and level-0 rules, as ``leaf(triples,
    gamma, volume, lo, hi)``: the P_{-1} of lo..hi at which the basket of
    (b, r, multiplicity) ``triples``, with gamma and -K^3 over S at P_{-1} =
    0, meets every end of the ``rows`` and the rest of the constraints and
    the filter.  Only the filter is run once per P_{-1}."""
    pick, top, filters = itemgetter(*(m for m, *_ in rows[1:])), rows[-1][0], constraints.filters

    def leaf(triples: _Triples, gamma: int, volume: int, lo: int, hi: int) -> list[int]:
        rs = [r for _, r, _ in triples]
        rx = math.lcm(*rs)
        if not constraints._indices_ok(rs, rx):
            return []
        # the values at P_{-1} = lo, so the rows trim the offsets 0..hi - lo
        seq = _sequence(lo, triples, top)
        start, stop = _trim(rows, (volume + 2 * S * lo, *pick(seq)), 0, hi - lo, sys.maxsize)
        p, rmax, admitted = seq[:FILTER_HORIZON + 1], max(rs, default=0), []
        for p1 in range(lo, lo + stop + 1):
            if p1 > lo:
                p = list(map(add, p, _U))
            if p1 >= lo + start and FilterResult(filters, volume + 2 * p1 * S, gamma, S, rx, rmax, p).ok:
                admitted.append(p1)
        return admitted

    return leaf


def _merge_steps(top: int, ms: tuple[int, ...]) -> tuple:
    """The walk's merges up to level ``top``, carrying P_{-m} for ``ms``.

    A new fraction b/n of S(n) is the mediant of its Farey neighbours in
    S(n-1) (in S(0) at n = 5), and merging them into (b, n) adds the
    difference of the carried integers.  Returns ``(steps, ends, uses)``:
    ``steps`` lists the merges in level order, ``(n, p, q, (b, n), dgamma,
    (dvolume, *dwindow))``, and a level n with a P_{-n} window ends in a marker
    (p = None); ``ends[n]`` is where level n ends; ``uses`` lists per
    fraction the merges it is a parent of, with the other parent.
    """
    steps: list[tuple] = []
    ends = [0] * (top + 1)
    uses: dict[tuple, list[tuple[int, tuple]]] = {}
    for n in range(5, top + 1):
        for b in range(2, (n + 1) // 2):
            if math.gcd(b, n) == 1:
                # b/n unpacks one level down into its two parents, one entry each
                p, q = (entry[:2] for entry in _unpack_entry(b, n, 0 if n == 5 else n - 1))
                (g0, v0, w0), (g1, v1, w1) = (
                    _chain_state(0, triples, ms) for triples in ([(*p, 1), (*q, 1)], [(b, n, 1)])
                )
                uses.setdefault(p, []).append((len(steps), q))
                uses.setdefault(q, []).append((len(steps), p))
                steps.append((n, p, q, (b, n), g1 - g0, (v1 - v0, *map(sub, w1, w0))))
        if n in ms:
            steps.append((n, None, None, None, 0, ()))
        ends[n] = len(steps)
    return steps, ends, uses


def _walk(roots: Iterable[tuple[_Triples, int, int]], constraints: ClassificationConstraints,
          rows: tuple[tuple, ...]) -> tuple[list[tuple], int]:
    """The leaves of the canonical chains up from ``roots`` that the cuts
    keep, and the number of states visited.  A root is the (b, r,
    multiplicity) triples of a level-0 basket, ascending in r, and its span
    lo..hi of P_{-1}, as ``_roots`` yields them; a leaf is its own triples,
    the gamma and -K^3 at P_{-1} = 0 the walk carried into it, and its span.

    Level n = 5, 6, ... chooses how many merges into each new fraction b/n
    of S(n) to make, up to the root's Sigma r or the r_max ceiling.  Every
    terminal basket has one chain, so each leaf comes once, from its own
    level-0 basket.  A merge adds fixed steps to the integers a state
    carries, and its count is tried ascending up to the first cut: gamma
    < 0, or an empty span of P_{-1} left by ``_trim`` on the rows of -K^3 and
    P_{-m}, m >= 5 (the root fixes P_{-1}..P_{-4}).  A state counts once per
    P_{-1} of its span; ClosureTruncated is raised past ``max_visited``.
    """
    cut = rows[:1] + rows[5:]
    ms = tuple(m for m, *_ in rows[5:])
    use_gamma = constraints.filters.gamma_nonneg
    ceiling = _rmax_ceiling(constraints)
    top = TOP if ceiling is None else min(ceiling, TOP)
    steps, ends, uses = _merge_steps(top, ms)
    leaves: list[tuple] = []
    visited = 0
    counts: dict[tuple, int] = {}

    def descend(live: list[int], j: int, gamma: int, values: tuple[int, ...], lo: int, hi: int) -> None:
        # one state: ``live`` lists the markers and the merges whose parents
        # were both present, in order, and live[j:] are ahead
        nonlocal visited
        visited += hi - lo + 1
        if visited > constraints.max_visited:
            raise _truncated(constraints)
        while j < len(live):
            n, p, q, new, dg, dv = steps[live[j]]
            j += 1
            if p is None:
                lo, hi = _trim(cut, values, lo, hi, n)
                if lo > hi:
                    return
                continue
            most = min(counts[p], counts[q])
            if not most:
                continue
            # the states with 1, 2, ... merges go first; this one goes on
            # with none.  The new fraction is a parent of later merges
            born = [i for i, other in uses.get(new, ()) if i < end and counts.get(other)]
            ahead, at = (sorted(live[j:] + born), 0) if born else (live, j)
            g, v, klo, khi = gamma, values, lo, hi
            for k in range(1, most + 1):
                g, v = g + dg, tuple(map(add, v, dv))
                # a span kept at k merges is kept at k - 1: narrow it on
                klo, khi = _trim(cut, v, klo, khi, n - 1)
                if (use_gamma and g < 0) or klo > khi:
                    break
                counts[p] -= 1
                counts[q] -= 1
                counts[new] = k
                descend(ahead, at, g, v, klo, khi)
            k = counts.pop(new, 0)
            counts[p] += k
            counts[q] += k
        leaves.append(([(b, r, k) for (b, r), k in counts.items() if k], gamma, values[0], lo, hi))

    for triples, lo, hi in roots:
        gamma, volume, window = _chain_state(0, triples, ms)
        values = (volume, *window)
        lo, hi = _trim(cut, values, lo, hi, 4)
        if (ceiling is not None and triples and triples[-1][1] > ceiling) or (use_gamma and gamma < 0) or lo > hi:
            continue
        counts.clear()
        counts.update(((b, r), k) for b, r, k in triples)
        level = min(sum(r * k for _, r, k in triples), top)
        end = ends[level] if level >= 5 else 0
        live = {i for i in range(end) if steps[i][1] is None}
        live.update(i for key in counts for i, other in uses.get(key, ()) if i < end and other in counts)
        descend(sorted(live), 0, gamma, values, lo, hi)
    return leaves, visited


def _truncated(constraints: ClassificationConstraints) -> ClosureTruncated:
    return ClosureTruncated(f"classification truncated after visiting {constraints.max_visited} states")


def _listing(found: list[tuple[Basket, list[int]]]) -> list[WeightedBasket]:
    """The weighted baskets of (basket, its P_{-1}s) pairs, sorted by (P_{-1},
    basket): the baskets are sorted once, and the sort by P_{-1} is stable."""
    found.sort(key=lambda item: item[0].sort_key())
    return sorted((WeightedBasket(basket, p1) for basket, p1s in found for p1 in p1s), key=itemgetter(1))


def classify(constraints: ClassificationConstraints) -> list[WeightedBasket]:
    """The weighted baskets that ``admits`` accepts, sorted by (P_{-1},
    basket).  An exact ``rx_exact`` with the gamma filter on scans the index
    profiles of r_X; any other record walks the canonical chain.
    ``max_visited`` budgets the whole call on either route: ClosureTruncated
    is raised when it runs out, and a partial answer is never returned."""
    if constraints.rx_exact is not None and constraints.filters.gamma_nonneg:
        return enumerate_index_profiles(constraints)
    return _classify_walk(constraints)


def _classify_walk(constraints: ClassificationConstraints) -> list[WeightedBasket]:
    """``classify`` by one chain walk up from every level-0 root (``_walk``),
    each leaf re-verified over its span by ``admits``' own check."""
    rows = _rows(constraints)
    leaves, _ = _walk(_roots(constraints, rows), constraints, rows)
    check = _leaf_check(constraints, rows)
    return _listing([(_basket(leaf[0]), p1s) for leaf in leaves if (p1s := check(*leaf))])


# ---------------------------------------------------------------------------
# index-profile enumeration (fixed Gorenstein index)
# ---------------------------------------------------------------------------

def enumerate_index_profiles(constraints: ClassificationConstraints) -> list[WeightedBasket]:
    """All coprime baskets whose local indices have lcm exactly the record's
    ``rx_exact``, filtered by the constraint set: every coprime numerator
    assignment of an index multiset cut down a priori by the gamma budget
    (``_index_profiles``) is screened by ``admits`` over the P_{-1} that its
    P_{-2..4} rows leave, as the walk's roots are cut, one step of
    ``max_visited`` each.  An ``rx_exact`` of 1 stands for the empty basket.
    """
    if constraints.rx_exact is None:
        raise ValueError("enumerate_index_profiles needs rx_exact, got None")
    p1s, rows, checked, found = constraints.p1_values(), _rows(constraints), 0, []
    # the empty basket's P_{-0..4} at P_{-1} = 0: zipped with a basket's
    # tables it sums only their first five columns, and the leaf check sums
    # the whole table once
    head = _V[:5]
    check = _leaf_check(constraints, rows)
    for profile in _index_profiles(constraints.rx_exact):
        for basket in _numerator_assignments(profile):
            p = list(map(sum, zip(head, *_basket_terms(basket))))
            lo, hi = _trim(rows[2:5], p[2:], p1s.start, p1s.stop - 1, 4)
            checked += max(hi - lo + 1, 0)
            if checked > constraints.max_visited:
                raise _truncated(constraints)
            counts = basket.counts()
            if lo <= hi and (state := constraints._basket_state(counts)) is not None:
                found.append((basket, check(counts, *state, lo, hi)))
    return _listing(found)


def _index_profiles(lcm_target: int) -> list[tuple[int, ...]]:
    """Index multisets with lcm exactly ``lcm_target`` and Sigma(r - 1/r) <= 24.

    Each index divides the target and is at most 24 (gamma >= 0), and the
    lcm is the target exactly when each prime power of the target divides an
    index: ``_multisets`` covers them, one bit each, shortest multiset
    first.  Each profile lists its indices in descending order.
    """
    divisors = tuple(d for d in range(2, min(lcm_target, 24) + 1) if lcm_target % d == 0)
    if math.lcm(*divisors) != lcm_target:
        return []
    # a divisor that divides what is left is a prime: its smaller factors are gone
    powers, rest = [], lcm_target
    for p in divisors:
        power = 1
        while rest % p == 0:
            rest, power = rest // p, power * p
        if power > 1:
            powers.append(power)
    covers = tuple(sum(1 << j for j, q in enumerate(powers) if d % q == 0) for d in divisors)
    return [m[::-1] for m in _multisets(divisors, covers, (1 << len(powers)) - 1)]


def _numerator_assignments(profile: tuple[int, ...]):
    """All coprime (b, r) choices over an index multiset, deduplicated."""
    per_group: list[list[tuple[OrbifoldPair, ...]]] = []
    for r, group in groupby(sorted(profile)):
        options = [
            OrbifoldPair(b, r)
            for b in range(1, r // 2 + 1)
            if math.gcd(b, r) == 1
        ]
        per_group.append(list(combinations_with_replacement(options, len(list(group)))))
    for chosen in product(*per_group):
        yield Basket([p for combo in chosen for p in combo])


# ---------------------------------------------------------------------------
# constraints file format
#
#   p[1]=1  p[2]=1  p[8]=2  sigma5=0..3  k3=(0,1/30)  rmax=2..24
#   rx=840             (or rx<=660)
#   indices={2,3,5,7,8}
#   filters=default    (or filters=none, or filters=volume,gamma,...)
#
# Tokens are whitespace-separated; '#' starts a comment.  Interval ends for
# k3 are read by ``core.parse_rational``: integers, fractions p/q and exact
# decimals like 0.21, -1.5 or 1e-3; '(' / ')' mean strict, '[' / ']' inclusive.
# ---------------------------------------------------------------------------

_FILTER_FIELDS = {
    "volume": "volume_positive",
    "min_volume": "min_volume",
    "gamma": "gamma_nonneg",
    "rmax24": "rmax_le_24",
    "index": "index_bound",
    "integrality": "integrality",
    "p6": "p_positive_from_6",
    "p8": "p8_at_least_2",
    # the sigma identity holds on every basket (``FilterConfig``): the name
    # parses and selects no check
    "sigma": None,
    "superadditive": "superadditivity",
}


def _parse_int_range(text: str) -> tuple[int, int]:
    """An integer "v" (read as v..v) or a closed range "lo..hi"."""
    lo, sep, hi = text.partition("..")
    try:
        return _int(lo), _int(hi if sep else lo)
    except ValueError:
        raise ValueError(f"expected an integer or a range lo..hi, got {text!r}") from None


def _k3_fields(text: str) -> dict:
    ends = text[1:-1].split(",")
    if len(text) < 2 or text[0] not in "([" or text[-1] not in ")]" or len(ends) != 2:
        raise ValueError("expected k3=(lo,hi) with ( or [ ends")
    return {
        "k3_min": parse_rational(ends[0]), "k3_min_strict": text[0] == "(",
        "k3_max": parse_rational(ends[1]), "k3_max_strict": text[-1] == ")",
    }


def _index_fields(text: str) -> dict:
    if not (text.startswith("{") and text.endswith("}")):
        raise ValueError("expected indices={r,r,...}")
    return {"allowed_indices": frozenset(_int(r) for r in text[1:-1].split(",") if r)}


def _filter_fields(text: str) -> dict:
    if text in ("default", "none"):
        return {"filters": FilterConfig() if text == "default" else FilterConfig.none()}
    names = set(text.split(",")) - {""}
    if not names:
        raise ValueError("no filter names (filters=none selects no check)")
    unknown = sorted(names - set(_FILTER_FIELDS))
    if unknown:
        raise ValueError(f"unknown filter names {unknown}")
    return {"filters": FilterConfig.none()._replace(
        **{_FILTER_FIELDS[name]: True for name in names if _FILTER_FIELDS[name]},
    )}


# key -> the record fields that the text after "=" gives; p[m] is apart
_KEYS = {
    "sigma5": lambda text: {"sigma5": _parse_int_range(text)},
    "k3": _k3_fields,
    "rmax": lambda text: {"rmax_range": _parse_int_range(text)},
    "rx": lambda text: {"rx_exact": _int(text)},
    "rx<": lambda text: {"rx_max": _int(text)},
    "indices": _index_fields,
    "tailmax": lambda text: {"tail_max_index": _int(text)},
    "filters": _filter_fields,
}
_P_KEY = re.compile(rf"p\[({_INT})\]")


def parse_constraints(text: str) -> ClassificationConstraints:
    """The record of a constraints text.  Each token is read by its key and
    checked by the record it alone gives, so a bad one names itself."""
    fields: dict = {"p_fixed": {}, "p_ranges": {}}
    keys: set[int | str] = set()
    for token in (t for line in text.splitlines() for t in line.split("#", 1)[0].split()):
        key, sep, value = token.partition("=")
        # p[m] by its m: p[8] and p[08] are one key
        match = _P_KEY.fullmatch(key)
        key = int(match.group(1)) if match else key
        if key in keys:
            raise ValueError(f"repeated constraints key in {token!r} (each key is given once)")
        keys.add(key)
        try:
            if match:
                lo, hi = _parse_int_range(value)
                got = {"p_fixed": {key: lo}} if lo == hi else {"p_ranges": {key: (lo, hi)}}
            elif sep and key in _KEYS:
                got = _KEYS[key](value)
            else:
                raise ValueError(f"unknown key, expected key=value with a key in p[m], {', '.join(_KEYS)}")
            ClassificationConstraints(**got)
        except ValueError as exc:
            raise ValueError(f"bad constraints token {token!r}: {exc}") from None
        for name in ("p_fixed", "p_ranges"):
            fields[name].update(got.pop(name, {}))
        fields.update(got)

    if keys <= {"filters"}:
        raise ValueError("empty constraint set is rejected (unbounded search)")
    return ClassificationConstraints(**fields)
