"""Constraint-driven enumeration of geometric weighted baskets.

The engine walks the same road the classification arguments do:

1. enumerate the feasible level-0 baskets, the multisets of (1, r) entries
   bounded a priori by gamma >= 0 (which caps every local index at 24 and
   the total entry weight at Sigma(r - 1/r) <= 24), and keep those whose
   P_{-1}..P_{-4} and r >= 5 tail meet the constraints;
2. close the level-0 candidates under packing (``packing.closure``, all
   roots of one P_{-1} in one search), pruning with the monotone
   clauses (gamma >= 0 downward-closed; -K^3 and P_{-m} upper bounds
   downward-closed because both only grow along packings; r_max at most
   the ceiling that the constraints put on every admitted basket, because
   r_max never decreases along packings);
3. re-verify every terminal state of that closure, in the sorted order
   it lists them, against the full constraint set and the geometric
   filter -- mandatory, not an optimization.

Everything is exact.  The roots come sorted by P_{-1}, so the output is
built in (P_{-1}, basket) order, without duplicates.  Step 1 and
``enumerate_index_profiles`` draw their index multisets from one
generator, ``_multisets``, which spends the gamma budget in integers:
every entry cost r - 1/r is scaled by one L = lcm(2..24).
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from itertools import combinations_with_replacement, groupby, product
from types import MappingProxyType
from typing import Iterator, Mapping, NamedTuple

from .canonical import unpack
from .core import (
    Basket,
    FilterConfig,
    OrbifoldPair,
    WeightedBasket,
    _plurigenera,
    _scaled_gamma,
    _scaled_volume,
    geometric_filter,
    parse_rational,
    r_index,
    r_max,
)
from .packing import MAX_VISITED, closure, coprime_only

__all__ = [
    "ClassificationConstraints",
    "parse_constraints",
    "enumerate_b0",
    "classify",
    "enumerate_index_profiles",
]

# gamma >= 0 caps every local index at 24 and the entry costs r - 1/r at a
# total of 24; both budgets count them in integers over this one scale
L = math.lcm(*range(2, 25))
_COST = {r: r * L - L // r for r in range(2, 25)}


def _multisets(indices: tuple[int, ...]) -> Iterator[tuple[int, ...]]:
    """Every ascending multiset over ``indices`` whose costs sum to at most 24.

    ``indices`` ascend within 2..24.  The multisets come shortest first,
    from the empty one; the cost r - 1/r grows with r, so each multiset
    is extended only by the indices that still fit.
    """
    # (multiset, position of its last index, budget left), extended in turn
    found = [((), 0, 24 * L)]
    for current, start, budget in found:
        yield current
        for i in range(start, len(indices)):
            left = budget - _COST[indices[i]]
            if left < 0:
                break
            found.append((current + (indices[i],), i, left))


def _compare(num: int, den: int, bound: Fraction) -> int:
    """Sign of num/den - bound for den > 0, by cross-multiplied integers."""
    a, b = num * bound.denominator, bound.numerator * den
    return (a > b) - (a < b)


# the read-only empty default of the plurigenus maps: no instance shares a
# mutable default with another
_NO_PLURIGENERA: Mapping = MappingProxyType({})


class ClassificationConstraints(NamedTuple):
    """Exact search constraints.

    ``p_fixed`` pins anti-plurigenera, ``p_ranges`` bounds them (closed
    integer ranges).  P_{-1} must be pinned or finitely ranged: an
    unbounded constraint set is rejected.  Volume bounds carry their own
    strictness flags so open intervals like (0, 1/30) are representable.
    """

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

    def volume_ok(self, num: int, den: int) -> bool:
        """Whether -K^3 = num / den (den > 0) lies within the k3 bounds."""
        if self.k3_min is not None:
            c = _compare(num, den, self.k3_min)
            if c < 0 or (c == 0 and self.k3_min_strict):
                return False
        if self.k3_max is not None:
            c = _compare(num, den, self.k3_max)
            if c > 0 or (c == 0 and self.k3_max_strict):
                return False
        return True

    def indices_ok(self, basket: Basket) -> bool:
        if self.allowed_indices is not None:
            if any(p.r not in self.allowed_indices for p in basket):
                return False
        if self.rmax_range is not None:
            if not len(basket):
                return False
            lo, hi = self.rmax_range
            if not lo <= r_max(basket) <= hi:
                return False
        rx = r_index(basket)
        if self.rx_exact is not None and rx != self.rx_exact:
            return False
        if self.rx_max is not None and rx > self.rx_max:
            return False
        return True

    def admits(self, wb: WeightedBasket) -> bool:
        """Full re-verification of one candidate (the mandatory final pass).

        Compares integers only: -K^3 as its numerator over r_X and the
        P_{-m} themselves, which are integers for an integer P_{-1}.
        """
        rx = r_index(wb.basket)
        if not self.volume_ok(_scaled_volume(wb, rx), rx):
            return False
        if not self.indices_ok(wb.basket):
            return False
        if self.sigma5 is not None:
            # sigma5 is a property of the basket itself: the number of
            # r >= 5 entries of its own level-0 unpacking
            lo, hi = self.sigma5
            s5 = sum(1 for p in unpack(wb.basket, 0) if p.r >= 5)
            if not lo <= s5 <= hi:
                return False
        ms = self.constrained_ms()
        if ms:
            for m, p in _plurigenera(wb):
                if m in self.p_fixed or m in self.p_ranges:
                    lo, hi = self.p_bounds(m)
                    if lo is not None and p < lo:
                        return False
                    if hi is not None and p > hi:
                        return False
                if m == ms[-1]:
                    break
        return geometric_filter(wb, self.filters).ok


def enumerate_b0(constraints: ClassificationConstraints) -> list[tuple[WeightedBasket, tuple[int, int, int, int]]]:
    """All feasible level-0 weighted baskets with their (P_{-1}..P_{-4}).

    A level-0 basket is a multiset of (1, r) entries, and gamma >= 0 bounds
    it: ``_multisets`` lists every candidate over the indices 2..24 (2152
    of them), the r >= 5 tail cut at ``tail_max_index``.  P_{-2}..P_{-4}
    follow from the entry counts by the plurigenus recursion with the
    level-0 values Delta^2 = 0, Delta^3 = n_{1,2} and Delta^4 = 2 n_{1,2}
    + n_{1,3} (``core._delta``).  A root keeps them >= 0 and within their
    ranges, and its r >= 5 count within ``sigma5``.  Each candidate is one
    basket, so the roots are distinct; they come sorted by (P_{-1}, basket).
    """
    indices = tuple(range(2, max(min(constraints.tail_max_index, 24), 4) + 1))
    pairs = {r: OrbifoldPair(1, r) for r in indices}
    (lo2, hi2), (lo3, hi3), (lo4, hi4) = (
        (max(lo or 0, 0), math.inf if hi is None else hi)
        for lo, hi in map(constraints.p_bounds, (2, 3, 4))
    )
    s5lo, s5hi = constraints.sigma5 or (0, math.inf)
    # P_{-m} = P_{-(m-1)} + m^2 (P_{-1} - 3) + sigma m(m-1)/2 + 2 - Delta^m
    # with sigma = n, the entry count.  P_{-2} = 5 P_{-1} + n - 10 reads n
    # alone, so the P_{-1} it admits are listed per n, for n <= 16 (every
    # entry costs at least 3/2 of the budget 24); the multisets come
    # shortest first, so the longest n admitted ends the search
    p1s = constraints.p1_values()
    live = [[p1 for p1 in p1s if lo2 <= 5 * p1 + n - 10 <= hi2] for n in range(17)]
    longest = max((n for n in range(17) if live[n]), default=-1)
    out: list[tuple[WeightedBasket, tuple[int, int, int, int]]] = []
    for entries in _multisets(indices):
        n = len(entries)
        if n > longest:
            break
        if not live[n]:
            continue
        n12, n13 = entries.count(2), entries.count(3)
        if not s5lo <= n - n12 - n13 - entries.count(4) <= s5hi:
            continue
        basket = None
        for p1 in live[n]:
            p2 = 5 * p1 + n - 10
            p3 = p2 + 9 * p1 + 3 * n - 25 - n12
            p4 = p3 + 16 * p1 + 6 * n - 46 - 2 * n12 - n13
            if lo3 <= p3 <= hi3 and lo4 <= p4 <= hi4:
                if basket is None:
                    basket = Basket([pairs[r] for r in entries])
                out.append((WeightedBasket(basket, p1), (p1, p2, p3, p4)))
    out.sort(key=lambda item: (item[0].p1, item[0].basket.sort_key()))
    return out


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
    # ``prune_ok`` already cuts every state with an index above 24
    if constraints.filters.rmax_le_24:
        caps.append(24)
    return min(caps, default=None)


def _prune_factory(constraints: ClassificationConstraints, p1: int):
    """Downward-closed clause used during closure expansion.

    Compares integers only, like ``admits``: gamma and -K^3 as numerators
    over r_X, and the P_{-m} themselves.  The r_max ceiling, read off
    the last entry, goes first; the weighted basket is built only for the
    clauses that read it.
    """
    upper: dict[int, int] = {}
    for m in constraints.constrained_ms():
        # P_{-1} is fixed along the search, and P_{-2} = 5 P_{-1} + sigma - 10
        # with sigma invariant under packing: ``enumerate_b0`` draws the
        # roots from the P_{-2} range already, so no packing can leave it
        if m <= 2:
            continue
        _, hi = constraints.p_bounds(m)
        if hi is not None:
            upper[m] = hi
    top = max(upper, default=0)
    ceiling = _rmax_ceiling(constraints)
    use_gamma = constraints.filters.gamma_nonneg
    k3_hi, k3_hi_strict = constraints.k3_max, constraints.k3_max_strict

    def prune_ok(basket: Basket) -> bool:
        entries = basket.entries
        # entries are sorted by (r, b), so the last one carries r_max
        if ceiling is not None and entries and entries[-1].r > ceiling:
            return False
        rx = r_index(basket)
        if use_gamma and _scaled_gamma(basket, rx) < 0:
            return False
        if k3_hi is None and not top:
            return True
        wb = WeightedBasket(basket, p1)
        if k3_hi is not None:
            c = _compare(_scaled_volume(wb, rx), rx, k3_hi)
            if c > 0 or (c == 0 and k3_hi_strict):
                return False
        if top:
            for m, p in _plurigenera(wb):
                if m in upper and p > upper[m]:
                    return False
                if m == top:
                    break
        return True

    return prune_ok


def classify(constraints: ClassificationConstraints) -> list[WeightedBasket]:
    """All weighted baskets meeting the constraints and the geometric filter.

    One closure per P_{-1}, its sorted terminal states re-verified in
    turn.  Raises ClosureTruncated if a visited budget runs out: a partial
    classification is never returned silently.
    """
    found: list[WeightedBasket] = []
    for p1, roots in groupby(enumerate_b0(constraints), key=lambda root: root[0].p1):
        states = closure(
            *(wb.basket for wb, _ in roots), prune=_prune_factory(constraints, p1),
            emit=coprime_only, max_visited=constraints.max_visited,
        ).require_complete()
        for basket in states.baskets:
            wb = WeightedBasket(basket, p1)
            if constraints.admits(wb):
                found.append(wb)
    return found


# ---------------------------------------------------------------------------
# index-profile enumeration (fixed Gorenstein index)
# ---------------------------------------------------------------------------

def enumerate_index_profiles(
    lcm_target: int, constraints: ClassificationConstraints
) -> list[WeightedBasket]:
    """All coprime baskets whose local indices have lcm exactly ``lcm_target``,

    filtered by the constraint set.  Index multisets are cut down a priori
    by the gamma budget (``_index_profiles``), then every coprime
    numerator assignment is screened by the mandatory re-verification pass.
    ``lcm_target`` must be >= 1; 1 stands for the empty basket alone.
    """
    if lcm_target < 1:
        raise ValueError(f"index profile lcm must be >= 1, got {lcm_target}")
    out: set[WeightedBasket] = set()
    for profile in _index_profiles(lcm_target):
        for basket in _numerator_assignments(profile):
            for p1 in constraints.p1_values():
                wb = WeightedBasket(basket, p1)
                if constraints.admits(wb):
                    out.add(wb)
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
    groups: dict[int, int] = {}
    for r in profile:
        groups[r] = groups.get(r, 0) + 1
    per_group: list[list[tuple[OrbifoldPair, ...]]] = []
    for r, count in sorted(groups.items()):
        options = [
            OrbifoldPair(b, r)
            for b in range(1, r // 2 + 1)
            if math.gcd(b, r) == 1
        ]
        per_group.append(
            [combo for combo in combinations_with_replacement(options, count)]
        )
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


_P_TOKEN = re.compile(r"p\[(-?\d+)\]=(.*)")


def _parse_int_range(text: str) -> tuple[int, int]:
    """An integer "v" (read as v..v) or a closed range "lo..hi"."""
    lo, sep, hi = text.partition("..")
    try:
        lo, hi = int(lo), int(hi if sep else lo)
    except ValueError:
        raise ValueError(f"expected an integer or a range lo..hi, got {text!r}") from None
    if lo > hi:
        raise ValueError(f"empty range {text!r} (lower end above upper end)")
    return lo, hi


def _parse_index_set(text: str) -> frozenset[int]:
    """The indices of "2,3,5}", the text after "indices={"."""
    return frozenset(int(x) for x in text.removesuffix("}").split(",") if x)


def _token_value(token: str, prefix: str, parse):
    """``parse`` of the text after ``prefix``; a ValueError names the whole ``token``."""
    try:
        return parse(token[len(prefix):])
    except ValueError as exc:
        raise ValueError(f"bad constraints token {token!r}: {exc}") from None


def parse_constraints(text: str) -> ClassificationConstraints:
    p_fixed: dict[int, int] = {}
    p_ranges: dict[int, tuple[int, int]] = {}
    kwargs: dict = {}
    filters = FilterConfig()

    tokens: list[str] = []
    for line in text.splitlines():
        line = line.split("#", 1)[0]
        tokens.extend(line.split())

    keys: set[int | str] = set()
    for token in tokens:
        if "=" not in token and not token.startswith("rx"):
            raise ValueError(f"bad constraints token {token!r}")
        # p[m] by its m, the rest by the text before "=": rx and rx< differ
        match = _P_TOKEN.fullmatch(token)
        key = int(match.group(1)) if match else token.partition("=")[0]
        if key in keys:
            raise ValueError(f"repeated constraints key in {token!r} (each key is given once)")
        keys.add(key)
        if token.startswith("p["):
            if match is None or int(match.group(1)) < 1:
                raise ValueError(f"bad plurigenus token {token!r} (expected p[m]=... with m >= 1)")
            m = int(match.group(1))
            try:
                lo, hi = _parse_int_range(match.group(2))
            except ValueError as exc:
                raise ValueError(f"bad plurigenus token {token!r}: {exc}") from None
            if m == 1 and lo < 0:
                raise ValueError(f"bad plurigenus token {token!r}: P_{{-1}} must be >= 0")
            if lo == hi:
                p_fixed[m] = lo
            else:
                p_ranges[m] = (lo, hi)
        elif token.startswith("sigma5="):
            kwargs["sigma5"] = _token_value(token, "sigma5=", _parse_int_range)
        elif token.startswith("k3="):
            body = token[len("k3="):]
            ends = body[1:-1].split(",")
            if len(body) < 2 or body[0] not in "([" or body[-1] not in ")]" or len(ends) != 2:
                raise ValueError(f"bad k3 interval {token!r} (expected k3=(lo,hi) with ( or [ ends)")
            lo_s, hi_s = ends
            kwargs["k3_min"] = parse_rational(lo_s)
            kwargs["k3_min_strict"] = body[0] == "("
            kwargs["k3_max"] = parse_rational(hi_s)
            kwargs["k3_max_strict"] = body[-1] == ")"
        elif token.startswith("rmax="):
            kwargs["rmax_range"] = _token_value(token, "rmax=", _parse_int_range)
        elif token.startswith("rx<="):
            kwargs["rx_max"] = _token_value(token, "rx<=", int)
        elif token.startswith("rx="):
            kwargs["rx_exact"] = _token_value(token, "rx=", int)
        elif token.startswith("indices={") and token.endswith("}"):
            kwargs["allowed_indices"] = _token_value(token, "indices={", _parse_index_set)
        elif token.startswith("tailmax="):
            kwargs["tail_max_index"] = _token_value(token, "tailmax=", int)
        elif token.startswith("filters="):
            body = token[len("filters="):]
            if body == "default":
                filters = FilterConfig()
            elif body == "none":
                filters = FilterConfig.none()
            else:
                enabled = {f.strip() for f in body.split(",") if f.strip()}
                unknown = enabled - set(_FILTER_FIELDS)
                if unknown:
                    raise ValueError(f"unknown filter names {sorted(unknown)}")
                filters = FilterConfig.none()._replace(
                    **{_FILTER_FIELDS[name]: True for name in enabled if _FILTER_FIELDS[name]},
                )
        else:
            raise ValueError(f"bad constraints token {token!r}")

    if not p_fixed and not p_ranges and not kwargs:
        raise ValueError("empty constraint set is rejected (unbounded search)")
    return ClassificationConstraints(
        p_fixed=p_fixed, p_ranges=p_ranges, filters=filters, **kwargs
    )
