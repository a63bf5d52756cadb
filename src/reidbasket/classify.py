"""Constraint-driven enumeration of geometric weighted baskets.

The engine walks the same road the classification arguments do:

1. draw the level-0 roots lazily, as P_{-1} and (1, r, multiplicity)
   integers (``_roots``): the multisets of (1, r) entries bounded a priori
   by gamma >= 0 (which caps every local index at 24 and the total entry
   weight at Sigma(r - 1/r) <= 24), at each P_{-1} where the P_{-2}..P_{-4}
   their counts give, and their r >= 5 tail, meet the constraints;
2. walk up the canonical chain B^(0) >= B^(5) >= B^(6) >= ... >= B from
   each root (``_walk``): level n merges Farey neighbours of S(n-1) into
   the new fractions b/n of S(n), so every terminal basket is reached
   once, from its own level-0 basket.  A state carries gamma, -K^3 and the
   constrained P_{-m} as integers, and a merge adds fixed steps to them.
   The cuts are monotone along the chain: gamma >= 0, and the upper ends
   of -K^3 and P_{-m}, which only grow; a lower end of P_{-n} once level
   n is done, since P_{-n} is then final; and r_max at most the ceiling
   the constraints put on every admitted basket, where the walk stops;
3. re-verify every leaf of the walk against the full constraint set and
   the geometric filter -- mandatory, not an optimization -- from its entry
   counts and the gamma and -K^3 the walk carried into it, build a
   ``Basket`` only for an admitted leaf, and sort them once by (P_{-1},
   basket).

Everything is exact, and the output has no duplicates.  Every rational
``classify`` reads is a numerator over one scale, S = lcm(2..32): gamma,
-K^3 and its ends (``_k3_window``) on both routes, and the entry costs r -
1/r of the gamma budget that ``_multisets`` spends.  Step 1 and the route
of an exact r_X, ``enumerate_index_profiles``, draw their index multisets
from that one generator, and cut P_{-1} by one rule, ``_p1_span``.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from itertools import combinations_with_replacement, groupby, islice, product
from operator import add, itemgetter, sub
from types import MappingProxyType
from typing import Iterable, Iterator, Mapping, NamedTuple, Sequence

from .canonical import _basket, _unpack_entry, _unpacked
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
    _basket_terms,
    _beyond,
    _int,
    _pair_terms,
    _table,
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


def _multisets(indices: tuple[int, ...]) -> Iterator[tuple[int, ...]]:
    """Every ascending multiset over ``indices`` whose costs sum to at most 24.

    ``indices`` ascend within 2..24 (each divides S).  The multisets come
    shortest first, from the empty one; the cost r - 1/r grows with r, so
    each multiset is extended only by the indices that still fit.
    """
    # (multiset, position of its last index, budget left), extended in turn
    found = [((), 0, 24 * S)]
    for current, start, budget in found:
        yield current
        for i in range(start, len(indices)):
            left = budget - _COST[indices[i]]
            if left < 0:
                break
            found.append((current + (indices[i],), i, left))


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
    indices 2..4 are always used) and ``max_visited``, the state budget of
    one ``classify`` call, at least 1.
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
        the gamma budget of ``_multisets`` (so none is above 24).  Once the
        level-0 rules pass, every index is at most the level-0 Sigma r <= 32
        and divides S, so gamma and -K^3 are read over S as the walk reads
        them (``_chain_state``)."""
        counts = wb.basket.counts()
        if any(math.gcd(b, r) > 1 for b, r, _ in counts):
            return False
        level0, tail = _unpacked(counts, 0), min(self.tail_max_index, 24)
        if any(r > tail for _, r, _ in level0) or sum(_COST[r] * k for _, r, k in level0) > 24 * S:
            return False
        if self.sigma5 is not None:
            # sigma5 is a property of the basket itself: the number of
            # r >= 5 entries of its own level-0 unpacking
            lo, hi = self.sigma5
            if not lo <= sum(k for _, r, k in level0 if r >= 5) <= hi:
                return False
        gamma, volume, _ = _chain_state(wb.p1, counts, ())
        return self._admits(wb.p1, counts, gamma, volume)

    def _admits(self, p1: int, triples: _Triples, gamma: int, volume: int) -> bool:
        """``admits`` but for the coprime and level-0 rules, on integers: the (b, r,
        multiplicity) ``triples`` of the basket, and gamma and -K^3 as
        numerators over S.  -K^3 is checked against ``_k3_window``; one
        plurigenus table serves P_{-2..4} >= 0 and the filter, carried on by
        the recursion to a constrained m above.
        """
        lo, hi = _k3_window(self)
        if not lo <= volume <= hi:
            return False
        rs = [r for _, r, _ in triples]
        rx = math.lcm(*rs)
        if not self._indices_ok(rs, rx):
            return False
        ms = self.constrained_ms()
        seq = _sequence(p1, triples, ms[-1] if ms else 0)
        for m in ms:
            lo, hi = self.p_bounds(m)
            if not lo <= seq[m] <= hi:
                return False
        p = seq[:FILTER_HORIZON + 1]
        return min(p[2:5]) >= 0 and FilterResult(self.filters, volume, gamma, S, rx, max(rs, default=0), p).ok


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


def _k3_window(constraints: ClassificationConstraints) -> tuple[int | float, int | float]:
    """(lo, hi): the numerators v over S whose v/S the k3 ends allow are
    exactly lo <= v <= hi, strictness folded in; a missing end is -inf or inf."""

    def top(end: Fraction, strict: bool) -> int:
        # the largest v with v/S <= end, or < end if strict
        num, den = end.numerator * S, end.denominator
        return -(-num // den) - 1 if strict else num // den

    # the least v with v/S >= end is -top(-end): the same cut, mirrored
    lo = -math.inf if constraints.k3_min is None else -top(-constraints.k3_min, constraints.k3_min_strict)
    hi = math.inf if constraints.k3_max is None else top(constraints.k3_max, constraints.k3_max_strict)
    return lo, hi


def _root_windows(constraints: ClassificationConstraints) -> list[tuple[int, int | float]]:
    """The (lo, hi) that a walk root keeps P_{-2}, P_{-3} and P_{-4} in: their ranges, cut at 0."""
    return [(max(lo or 0, 0), math.inf if hi is None else hi) for lo, hi in map(constraints.p_bounds, (2, 3, 4))]


def _p1_span(p1s: range, at0: Sequence[int], windows: list[tuple[int, int | float]]) -> range:
    """The P_{-1} of ``p1s`` that hold P_{-2}, P_{-3}, ... within ``windows``,
    from their values ``at0[m]`` at P_{-1} = 0: P_{-m} grows by _U[m] per
    unit of P_{-1}."""
    lo, hi = p1s.start, p1s.stop - 1
    for m, (wlo, whi) in zip((2, 3, 4), windows):
        lo, hi = max(lo, -((at0[m] - wlo) // _U[m])), min(hi, (whi - at0[m]) // _U[m])
    return range(lo, hi + 1)


def _roots(constraints: ClassificationConstraints) -> Iterator[tuple[int, _Triples]]:
    """The walk's level-0 roots, lazily, each as (P_{-1}, (1, r, multiplicity) triples).

    A level-0 basket is a multiset of (1, r) entries, and gamma >= 0 bounds
    it: ``_multisets`` lists every candidate over the indices 2..24 (2152
    of them), the r >= 5 tail cut at ``tail_max_index``.  A root keeps its
    r >= 5 count within ``sigma5``, and P_{-2}..P_{-4} >= 0 and within their
    ranges at each P_{-1} that ``_p1_span`` gives.  The roots are distinct
    and come in no particular order.
    """
    indices = tuple(range(2, min(constraints.tail_max_index, 24) + 1))
    p1s, windows = constraints.p1_values(), _root_windows(constraints)
    s5lo, s5hi = constraints.sigma5 or (0, math.inf)
    # P_{-2} = 5 P_{-1} + n - 10 reads the entry count n alone, so the span
    # of its window is found once per n <= 16 (every entry costs at least
    # 3/2 of the budget 24)
    spans = [_p1_span(p1s, (0, 0, n - 10), windows[:1]) for n in range(17)]
    # one (1, r) entry's share of P_{-1}..P_{-4}
    head = {r: _pair_terms(1, r)[:5] for r in indices}
    for entries in _multisets(indices):
        span = spans[len(entries)]
        if span and s5lo <= sum(r >= 5 for r in entries) <= s5hi:
            span = _p1_span(span, _table(0, [head[r] for r in entries]), windows)
            if span:
                triples = [(1, r, len(list(group))) for r, group in groupby(entries)]
                yield from ((p1, triples) for p1 in span)


def enumerate_b0(constraints: ClassificationConstraints) -> list[tuple[WeightedBasket, tuple[int, int, int, int]]]:
    """The walk's roots (``_roots``) as weighted baskets with their
    (P_{-1}..P_{-4}), sorted by (P_{-1}, basket).  The roots of one level-0
    basket come in a row, and share its ``Basket`` and its P_{-m} at P_{-1} = 0."""
    groups = []
    for triples, roots in groupby(_roots(constraints), key=itemgetter(1)):
        at0 = _table(0, [_pair_terms(1, r)[:5] for _, r, k in triples for _ in range(k)])
        groups.append((_basket(triples), [(p1, tuple([at0[m] + p1 * _U[m] for m in (1, 2, 3, 4)])) for p1, _ in roots]))
    groups.sort(key=lambda group: group[0].sort_key())
    # the sort is stable, so the baskets of one P_{-1} stay in order
    return sorted(((WeightedBasket(basket, p1), p) for basket, roots in groups for p1, p in roots),
                  key=lambda root: root[0].p1)


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
    # under gamma >= 0 alone no cap is needed: the gamma clause of
    # ``prune_ok`` already cuts every merge into an index above 24
    if constraints.filters.rmax_le_24:
        caps.append(24)
    return min(caps, default=None)


def _windows(constraints: ClassificationConstraints) -> tuple[tuple[int, int, int], ...]:
    """(m, lo, hi) of each constrained P_{-m} with m >= 5: the root fixes
    P_{-1}..P_{-4}, and ``_roots`` draws the roots from their ranges."""
    return tuple((m, *constraints.p_bounds(m)) for m in constraints.constrained_ms() if m >= 5)


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


def _prune_factory(constraints: ClassificationConstraints):
    """The walk's cut, ``prune_ok(gamma, volume, window, final)``, on the
    integers of ``_chain_state`` for the ms of ``_windows``.

    Along the chain gamma never grows, and -K^3 and every P_{-m} never
    shrink, so their upper ends cut a state with all the states above it.
    P_{-m} is final from level m on (P_{-m}(B^(n)) = P_{-m}(B) for m <= n),
    so the lower ends of the P_{-m} with m <= ``final`` cut too.
    """
    windows = _windows(constraints)
    use_gamma = constraints.filters.gamma_nonneg
    cap = _k3_window(constraints)[1]

    def prune_ok(gamma: int, volume: int, window: tuple[int, ...], final: int) -> bool:
        if (use_gamma and gamma < 0) or volume > cap:
            return False
        for (m, lo, hi), p in zip(windows, window):
            if p > hi or (p < lo and m <= final):
                return False
        return True

    return prune_ok


def _merge_steps(top: int, ms: tuple[int, ...]) -> tuple:
    """The walk's merges up to level ``top``, carrying P_{-m} for ``ms``.

    A new fraction b/n of S(n) is the mediant of its Farey neighbours in
    S(n-1) (in S(0) at n = 5), and merging them into (b, n) adds the
    difference of the carried integers.  Returns ``(steps, ends, uses)``:
    ``steps`` lists the merges in level order, ``(n, p, q, (b, n), dgamma,
    dvolume, dwindow)``, and a level n with a P_{-n} window ends in a marker
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
                steps.append((n, p, q, (b, n), g1 - g0, v1 - v0, tuple(map(sub, w1, w0))))
        if n in ms:
            steps.append((n, None, None, None, 0, 0, ()))
        ends[n] = len(steps)
    return steps, ends, uses


def _walk(roots: Iterable[tuple[int, _Triples]], constraints: ClassificationConstraints) -> tuple[list[tuple], int]:
    """The leaves of the canonical chains up from ``roots`` that the cuts
    keep, and the number of states visited.  A root is a P_{-1} and the
    (b, r, multiplicity) triples of a level-0 basket, ascending in r, as
    ``_roots`` yields them; a leaf is its root's P_{-1}, its own triples
    and the gamma and -K^3 numerators over S that the walk carried into it.

    Level n = 5, 6, ... chooses how many merges into each new fraction b/n
    of S(n) to make, up to the root's Sigma r or the r_max ceiling.  Every
    terminal basket has one chain, so each leaf comes once, from its own
    level-0 basket.  A merge adds fixed steps to the integers a state
    carries, and its count is tried ascending up to the first cut.  Raises
    ClosureTruncated when more than ``max_visited`` states pass the cuts.
    """
    ms = tuple(m for m, _, _ in _windows(constraints))
    prune_ok = _prune_factory(constraints)
    ceiling = _rmax_ceiling(constraints)
    top = TOP if ceiling is None else min(ceiling, TOP)
    steps, ends, uses = _merge_steps(top, ms)
    leaves: list[tuple] = []
    visited = 0
    counts: dict[tuple, int] = {}

    def descend(live: list[int], j: int, gamma: int, volume: int, window: tuple[int, ...]) -> None:
        # one state: ``live`` lists the markers and the merges whose parents
        # were both present, in order, and live[j:] are ahead
        nonlocal visited
        visited += 1
        if visited > constraints.max_visited:
            raise _truncated(constraints)
        while j < len(live):
            n, p, q, new, dg, dv, dp = steps[live[j]]
            j += 1
            if p is None:
                if not prune_ok(gamma, volume, window, n):
                    return
                continue
            most = min(counts[p], counts[q])
            if not most:
                continue
            # the states with 1, 2, ... merges go first; this one goes on
            # with none.  The new fraction is a parent of later merges
            born = [i for i, other in uses.get(new, ()) if i < end and counts.get(other)]
            ahead, at = (sorted(live[j:] + born), 0) if born else (live, j)
            g, v, w = gamma, volume, window
            for k in range(1, most + 1):
                g, v, w = g + dg, v + dv, tuple(map(add, w, dp))
                if not prune_ok(g, v, w, n - 1):
                    break
                counts[p] -= 1
                counts[q] -= 1
                counts[new] = k
                descend(ahead, at, g, v, w)
            k = counts.pop(new, 0)
            counts[p] += k
            counts[q] += k
        leaves.append((p1, [(b, r, k) for (b, r), k in counts.items() if k], gamma, volume))

    for p1, triples in roots:
        state = _chain_state(p1, triples, ms)
        # the root fixes P_{-1}..P_{-4}
        if (ceiling is not None and triples and triples[-1][1] > ceiling) or not prune_ok(*state, 4):
            continue
        counts.clear()
        counts.update(((b, r), k) for b, r, k in triples)
        level = min(sum(r * k for _, r, k in triples), top)
        end = ends[level] if level >= 5 else 0
        live = {i for i in range(end) if steps[i][1] is None}
        live.update(i for key in counts for i, other in uses.get(key, ()) if i < end and other in counts)
        descend(sorted(live), 0, *state)
    return leaves, visited


def _truncated(constraints: ClassificationConstraints) -> ClosureTruncated:
    return ClosureTruncated(f"classification truncated after visiting {constraints.max_visited} states")


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
    each leaf re-verified from its integers by ``admits``' own check."""
    leaves, _ = _walk(_roots(constraints), constraints)
    found = [WeightedBasket(_basket(triples), p1) for p1, triples, gamma, volume in leaves
             if constraints._admits(p1, triples, gamma, volume)]
    return sorted(found, key=lambda wb: (wb.p1, wb.basket.sort_key()))


# ---------------------------------------------------------------------------
# index-profile enumeration (fixed Gorenstein index)
# ---------------------------------------------------------------------------

def enumerate_index_profiles(constraints: ClassificationConstraints) -> list[WeightedBasket]:
    """All coprime baskets whose local indices have lcm exactly the record's
    ``rx_exact``, filtered by the constraint set: every coprime numerator
    assignment of an index multiset cut down a priori by the gamma budget
    (``_index_profiles``) is screened by ``admits`` at each P_{-1} that
    ``_p1_span`` keeps in the root windows, one step of ``max_visited``
    each.  An ``rx_exact`` of 1 stands for the empty basket alone.
    """
    if constraints.rx_exact is None:
        raise ValueError("enumerate_index_profiles needs rx_exact, got None")
    p1s, checked, windows = constraints.p1_values(), 0, _root_windows(constraints)
    out: list[WeightedBasket] = []
    for profile in _index_profiles(constraints.rx_exact):
        for basket in _numerator_assignments(profile):
            span = _p1_span(p1s, _table(0, _basket_terms(basket)), windows)
            checked += len(span)
            if checked > constraints.max_visited:
                raise _truncated(constraints)
            for p1 in span:
                wb = WeightedBasket(basket, p1)
                if constraints.admits(wb):
                    out.append(wb)
    return sorted(out, key=lambda wb: (wb.p1, wb.basket.sort_key()))


def _index_profiles(lcm_target: int) -> list[tuple[int, ...]]:
    """Index multisets with lcm exactly ``lcm_target`` and Sigma(r - 1/r) <= 24.

    Each index divides the target and is at most 24 (gamma >= 0); the
    multisets come from ``_multisets``.  Each profile lists its indices in
    descending order.
    """
    divisors = tuple(d for d in range(2, min(lcm_target, 24) + 1) if lcm_target % d == 0)
    return [m[::-1] for m in _multisets(divisors) if math.lcm(*m) == lcm_target]


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
