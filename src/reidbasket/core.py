"""Exact arithmetic for Reid baskets of terminal weak Q-Fano 3-folds.

A *basket* is a finite multiset of pairs (b, r) with 0 < b <= r/2, each pair
standing for a virtual cyclic quotient singularity of type 1/r(1, -1, b).
Together with the first anti-plurigenus P_{-1}, a basket determines the
anti-canonical volume -K^3 and the whole sequence of anti-plurigenera
P_{-m} through Reid's orbifold Riemann-Roch formula.

Everything here is exact; there is deliberately no floating point anywhere
in this module.  The plurigenus kernel works on integers: for an integer
P_{-1} every P_{-m} is an integer, and so is every step of the recursion,
so ``plurigenus``, ``plurigenus_sequence`` and ``delta_n`` return ``int``.
Summed from P_{-1}, the recursion's terms split into a part fixed by
P_{-1} and one part per basket entry, so each pair (b, r) keeps a bounded,
memoized table of its share of P_{-1} .. P_{-FILTER_HORIZON}, and
P_{-m} up to the horizon is a column sum of the entries' tables; past the
horizon the recursion carries on from P_{-FILTER_HORIZON}.  The geometric
filter runs on integers too: a ``FilterResult`` decides ``ok`` from them and
words a failure only when it is read, so ``classify`` checks a candidate
from the integers it carries.  A basket sums its integers once, on first
use, and keeps them: r_X, r_max, sigma, and sigma' and gamma as numerators
over r_X, with -K^3 = 2 P_{-1} + sigma - sigma' - 6 over r_X from them.
The invariants, the filter, ``classify`` and the packing prune clauses all
read that record; the public functions wrap one numerator in one
``Fraction``, and the predicates compare numerators.
``plurigenus_closed`` evaluates the Riemann-Roch closed form in
``Fraction``s as the independent oracle for that kernel.

The integer Farey descent (``_bracket``) and the entrywise unpacking it
gives (``_unpack_entry``, ``_unpacked``, and ``_basket`` from the triples)
live here too: ``canonical`` builds its chains from them, and ``classify``
its level 0 and its merges, so classifying does not load ``canonical``.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate, groupby, islice, repeat
from operator import add, attrgetter, ge, itemgetter, mul, sub
from typing import Iterable, Iterator, NamedTuple

__all__ = [
    "OrbifoldPair",
    "Basket",
    "WeightedBasket",
    "BasketSyntaxError",
    "ClosureTruncated",
    "parse_basket",
    "format_basket",
    "format_rational",
    "parse_rational",
    "sigma",
    "sigma_prime",
    "delta_n",
    "gamma",
    "anti_volume",
    "plurigenus",
    "plurigenus_sequence",
    "plurigenus_closed",
    "l_term",
    "r_index",
    "r_max",
    "FilterConfig",
    "FilterResult",
    "geometric_filter",
]


class _Frozen:
    """Base of the immutable ``__slots__`` classes: a subclass sets its
    slots once, with ``object.__setattr__`` or the slot's own ``__set__``,
    in ``__init__`` or, for a cache, on first use."""

    __slots__ = ()

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"{type(self).__name__} is immutable")


class OrbifoldPair(_Frozen):
    """One basket entry (b, r): a point of type 1/r(1, -1, b).

    Entries produced by packing may have gcd(b, r) > 1; such generalized
    pairs are legal lattice elements but are not terminal singularities.

    Immutable, hashable and equal only to an OrbifoldPair with the same
    (b, r).  Deliberately not a tuple: a tuple would compare in (b, r)
    order and equal the bare tuple (b, r).
    """

    __slots__ = ("b", "r")

    b: int
    r: int

    def __init__(self, b: int, r: int) -> None:
        if b < 1:
            raise ValueError(f"pair ({b},{r}): b must be >= 1")
        if r < 2:
            raise ValueError(f"pair ({b},{r}): r must be >= 2")
        if 2 * b > r:
            raise ValueError(f"pair ({b},{r}): needs 2b <= r")
        _SET_B(self, b)
        _SET_R(self, r)

    def __reduce__(self):
        return (OrbifoldPair, (self.b, self.r))

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not OrbifoldPair:
            return NotImplemented
        return self.b == other.b and self.r == other.r

    def __hash__(self) -> int:
        return hash((self.b, self.r))

    def __repr__(self) -> str:
        return f"OrbifoldPair(b={self.b}, r={self.r})"

    def __lt__(self, other: "OrbifoldPair") -> bool:
        # canonical entry order inside a basket is by (r, b)
        return (self.r, self.b) < (other.r, other.b)

    @property
    def terminal(self) -> bool:
        return math.gcd(self.b, self.r) == 1

    def __str__(self) -> str:
        return f"({self.b},{self.r})"


# the (r, b) order of OrbifoldPair.__lt__ as a C-level sort key
_PAIR_ORDER = attrgetter("r", "b")


class Basket(_Frozen):
    """Canonical immutable multiset of OrbifoldPairs, sorted by (r, b).

    Two baskets compare equal iff their sorted entry tuples agree, so the
    canonical form doubles as the deduplication key everywhere.  The empty
    basket is legal and corresponds to the Gorenstein (smooth) case.
    """

    __slots__ = ("entries", "_hash", "_ints")

    entries: tuple[OrbifoldPair, ...]

    def __init__(self, entries: Iterable[OrbifoldPair] = ()) -> None:
        _SET_ENTRIES(self, tuple(sorted(entries, key=_PAIR_ORDER)))
        # both filled on first use: a level basket of a canonical sequence
        # is never hashed, and a packing child already seen never sums
        # its invariants
        _SET_HASH(self, None)
        _SET_INTS(self, None)

    @staticmethod
    def of(*pairs: tuple[int, int]) -> "Basket":
        """Build from (b, r) tuples: Basket.of((1, 2), (2, 5))."""
        return Basket(OrbifoldPair(b, r) for b, r in pairs)

    @staticmethod
    def parse(text: str) -> "Basket":
        return parse_basket(text)

    def __reduce__(self):
        return (Basket, (self.entries,))

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Basket) and self.entries == other.entries

    def __hash__(self) -> int:
        h = self._hash
        if h is None:
            h = hash(self.entries)
            _SET_HASH(self, h)
        return h

    def __lt__(self, other: "Basket") -> bool:
        # canonical cross-basket order, used to sort listings deterministically
        return self.sort_key() < other.sort_key()

    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self) -> Iterator[OrbifoldPair]:
        return iter(self.entries)

    def __str__(self) -> str:
        return format_basket(self)

    def __repr__(self) -> str:
        return f"Basket({format_basket(self)!r})"

    def sort_key(self) -> tuple:
        return tuple(map(_PAIR_ORDER, self.entries))

    def counts(self) -> list[tuple[int, int, int]]:
        """(b, r, multiplicity) of each distinct entry, in canonical order."""
        return [(b, r, len(list(group))) for (r, b), group in groupby(map(_PAIR_ORDER, self.entries))]

    @property
    def all_terminal(self) -> bool:
        return all(p.terminal for p in self.entries)


# the slot setters, a little cheaper than object.__setattr__ on the pack path
_SET_ENTRIES = Basket.entries.__set__
_SET_HASH = Basket._hash.__set__
_SET_INTS = Basket._ints.__set__
_SET_B, _SET_R = OrbifoldPair.b.__set__, OrbifoldPair.r.__set__


# ---------------------------------------------------------------------------
# Farey unpacking: the level-n approximation of one entry (b, r) splits it
# along the division points of S(n) around b/r (the levels: ``canonical``)
# ---------------------------------------------------------------------------

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


class _WeightedBasketFields(NamedTuple):
    basket: Basket
    p1: int


class WeightedBasket(_WeightedBasketFields):
    """A basket weighted by the first anti-plurigenus P_{-1} >= 0."""

    __slots__ = ()

    def __new__(cls, basket: Basket, p1: int) -> "WeightedBasket":
        if p1 < 0:
            raise ValueError("P_{-1} must be a non-negative integer")
        return tuple.__new__(cls, (basket, p1))

    @classmethod
    def _make(cls, iterable) -> "WeightedBasket":
        # ``_replace`` builds through ``_make``: validate there too
        return cls(*iterable)

    def __str__(self) -> str:
        return f"({format_basket(self.basket)}; p1={self.p1})"


# ---------------------------------------------------------------------------
# search budget, shared by ``packing.closure`` and the ``classify`` walk
# ---------------------------------------------------------------------------

# all the classification searches are far smaller than this; a hard stop
# with an explicit report beats an unbounded search
MAX_VISITED = 10 ** 6


class ClosureTruncated(RuntimeError):
    """The visited-state budget ran out; the answer would be partial."""


# ---------------------------------------------------------------------------
# text grammar
#
#   basket := item ("," item)* | ""          ("" is the empty basket)
#   item   := [ mult "x" ] "(" int "," int ")"
#
# Whitespace is ignored around tokens; mult >= 1, and all the multiplicities
# together at most MAX_BASKET_ENTRIES.  Example:
#   "2x(1,2),(2,5),(1,3)"
# ---------------------------------------------------------------------------

class BasketSyntaxError(ValueError):
    """Malformed basket text; the message names the offending token."""


# A gamma >= 0 basket has at most 16 entries (each costs r - 1/r >= 3/2 of
# the budget 24); the cap only stops "10**12x(1,2)" from exhausting memory.
MAX_BASKET_ENTRIES = 1000

# The largest decimal exponent ``parse_rational`` reads, the interpreter's
# default limit on the digits of an int read from text: Fraction("1e-10000000")
# takes seconds, and each further exponent digit about 30 times longer
_MAX_EXPONENT = 4300

# the one integer token of every grammar (baskets, constraints, the CLI's
# options): ASCII digits, as many as a decimal exponent may have
_DIGITS = rf"[0-9]{{1,{_MAX_EXPONENT}}}"
_INT = "-?" + _DIGITS


def _int(text: str) -> int:
    """The integer of one ``_INT`` token; ValueError naming ``text`` otherwise."""
    if not re.fullmatch(_INT, text):
        raise ValueError(f"expected an integer, got {text!r}")
    return int(text)


_ITEM = re.compile(rf"\s*(?:({_DIGITS})\s*x\s*)?\(\s*({_DIGITS})\s*,\s*({_DIGITS})\s*\)\s*")


def parse_basket(text: str) -> Basket:
    if text.strip() == "":
        return Basket()
    pairs: list[OrbifoldPair] = []
    pos = 0
    total = 0
    while True:
        m = _ITEM.match(text, pos)
        if m is None:
            raise BasketSyntaxError(
                f"bad basket item at {text[pos:pos + 20]!r} (expected '[Nx](b,r)')"
            )
        mult, b, r = m.groups()
        mult = int(mult) if mult else 1
        if mult < 1:
            raise BasketSyntaxError(f"bad multiplicity in {m.group(0).strip()!r}")
        total += mult
        if total > MAX_BASKET_ENTRIES:
            raise BasketSyntaxError(
                f"too many basket entries at {m.group(0).strip()!r} "
                f"(at most {MAX_BASKET_ENTRIES} in all)"
            )
        try:
            pair = OrbifoldPair(int(b), int(r))
        except ValueError as exc:
            raise BasketSyntaxError(str(exc)) from exc
        pairs.extend([pair] * mult)
        pos = m.end()
        if pos == len(text):
            break
        if text[pos] != ",":
            raise BasketSyntaxError(
                f"expected ',' at {text[pos:pos + 20]!r}"
            )
        pos += 1
    return Basket(pairs)


def format_basket(basket: Basket) -> str:
    return ",".join(f"{k}x({b},{r})" if k > 1 else f"({b},{r})" for b, r, k in basket.counts())


def format_rational(q: Fraction | int) -> str:
    """Serialize exactly: "p/q" in lowest terms, plain "p" for integers; an
    int or a Fraction is read as it is, any other input through Fraction."""
    if not isinstance(q, (int, Fraction)):
        q = Fraction(q)
    num, den = q.numerator, q.denominator
    return str(num) if den == 1 else f"{num}/{den}"


def parse_rational(text: str) -> Fraction:
    """Read an exact rational: "p", "p/q" or an exact decimal like "0.21" or "1e-3".

    The inverse of ``format_rational``.  Bad text, a zero denominator and an
    exponent beyond _MAX_EXPONENT either way included, raises ValueError
    naming the token.  ASCII "p" and "p/q" (p with an optional "-") are read
    by ``int`` alone; every other form goes through ``Fraction``'s parser.
    """
    try:
        num, slash, den = text.partition("/")
        digits = num[num.startswith("-"):]
        if digits.isascii() and digits.isdigit() and (not slash or den.isascii() and den.isdigit()):
            return Fraction(int(num), int(den)) if slash else Fraction(int(num))
        if abs(int(text.lower().partition("e")[2] or 0)) > _MAX_EXPONENT:
            raise ValueError(f"exponent beyond {_MAX_EXPONENT}")
        return Fraction(text.strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"not an exact rational: {text!r}") from exc


# ---------------------------------------------------------------------------
# basket invariants
# ---------------------------------------------------------------------------

_R = attrgetter("r")


def _record(basket: Basket) -> tuple[int, int, int, int, int]:
    """(r_X, r_max, sigma, r_X sigma', r_X gamma) of ``basket``, summed in one
    pass on first use and kept on the basket; r_max is 0 and r_X is 1 on the
    empty basket.  Every r_i divides r_X, so sigma' and gamma are integers over it.
    """
    rec = basket._ints
    if rec is None:
        # r_X sigma' = sum b^2 (r_X / r), r_X gamma = (24 - sum r) r_X + sum r_X / r
        entries = basket.entries
        rx = math.lcm(*map(_R, entries))
        sig = sp = shares = total_r = 0
        for p in entries:
            b, r = p.b, p.r
            q = rx // r
            sig += b
            sp += b * b * q
            shares += q
            total_r += r
        rec = (rx, entries[-1].r if entries else 0, sig, sp, (24 - total_r) * rx + shares)
        _SET_INTS(basket, rec)
    return rec


def _volume(p1: int, rec: tuple[int, int, int, int, int]) -> int:
    """r_X (-K^3) = (2 P_{-1} + sigma - 6) r_X - r_X sigma' from a ``_record``."""
    rx, _, sig, sp, _ = rec
    return (2 * p1 + sig - 6) * rx - sp


def sigma(basket: Basket) -> int:
    """sigma(B) = sum of the b_i, counted with multiplicity."""
    return _record(basket)[2]


def sigma_prime(basket: Basket) -> Fraction:
    """sigma'(B) = sum of b_i^2 / r_i, summed as integers over r_X, one Fraction."""
    rec = _record(basket)
    return Fraction(rec[3], rec[0])


def _delta(pairs: list[tuple[int, int, int]], n: int) -> int:
    """Delta^n over (b, r, multiplicity) triples, as an integer.

    Per pair the correction is (s(r - s) - bn(r - bn)) / (2r) with s = bn
    mod r: the first summand reduces b*n modulo r and the second
    deliberately uses the unreduced product, so it can go negative.  With
    bn = qr + s the quotient is q(qr + 2s - r)/2, and q(qr + 2s - r) is
    even, so the division is exact.  This reading is pinned down by the
    identities Delta^3 = n_{1,2} and Delta^4 = 2 n_{1,2} + n_{1,3} on
    unpacked baskets.
    """
    total = 0
    for b, r, k in pairs:
        bn = b * n
        s = bn % r
        total += (s * (r - s) - bn * (r - bn)) // (2 * r) * k
    return total


def delta_n(basket: Basket, n: int) -> int:
    """The correction term Delta^n(B) of the plurigenus recursion, n >= 2."""
    if n < 2:
        raise ValueError(f"delta_n needs n >= 2, got {n}")
    return _delta(basket.counts(), n)


def gamma(basket: Basket) -> Fraction:
    """gamma(B) = sum 1/r_i - sum r_i + 24.

    Geometric baskets satisfy gamma >= 0 (the Kollar-Miyaoka-Mori-Takagi
    positivity constraint), which bounds both the number of entries and
    every local index.  Summed as integers over r_X, one Fraction.
    """
    rec = _record(basket)
    return Fraction(rec[4], rec[0])


def anti_volume(wb: WeightedBasket) -> Fraction:
    """The anti-canonical volume -K^3 = 2*P_{-1} + sigma - sigma' - 6.

    Summed as integers over r_X, one Fraction.
    """
    rec = _record(wb.basket)
    return Fraction(_volume(wb.p1, rec), rec[0])


def r_index(basket: Basket) -> int:
    """Gorenstein index r_X = lcm of the local indices (1 for the empty basket)."""
    return _record(basket)[0]


def r_max(basket: Basket) -> int:
    if not len(basket):
        raise ValueError("r_max is undefined on the empty basket")
    return _record(basket)[1]


# ---------------------------------------------------------------------------
# anti-plurigenera
#
# Recursion:   P_{-(m+1)} - P_{-m}
#                = (m+1)^2/2 * (-K^3 + sigma') + 2 - (m+1)/2 * sigma
#                  - Delta^{m+1}(B)
# seeded at P_{-1} = p1.  Note -K^3 + sigma' = 2*p1 + sigma - 6.
#
# Every step is an integer: the polynomial part is
# m^2 P_{-1} + sigma m(m-1)/2 - 3 m^2 + 2 and Delta^m is an integer (see
# ``_delta``), so the kernel runs on the integers P_{-m} themselves.
#
# Closed form (Reid Riemann-Roch):
#   P_{-n} = n(n+1)(2n+1)/12 * (-K^3) + (2n+1) - l(-n)
# with the orbifold term l(-n) below.  The two routes agree identically;
# they are kept separate on purpose as mutual oracles.
# ---------------------------------------------------------------------------

# P_{-1} .. P_{-FILTER_HORIZON} are the plurigenera the geometric filter reads,
# and the span of the per-pair table below
FILTER_HORIZON = 24

# The bound of the memoized per-pair helpers (here and in ``canonical``).
# Every coprime pair with r <= 24 (about 90) at n <= 24 is about 2200 keys,
# so this holds that working set with room to spare while a long session
# cannot grow it.
PAIR_CACHE_SIZE = 4096

# Summed from P_{-1}, the recursion reads
#   P_{-m} = p1 U[m] + V[m] + sum over entries (b, r) of T_{b,r}[m]
# with U[m] = sum_{j<=m} j^2, V[m] = sum_{2<=j<=m} (2 - 3 j^2), and the
# per-pair table T_{b,r}[m] = sum_{j<=m} (b j(j-1)/2 - Delta^j(b, r)),
# since sigma is the sum of the b.  Index m = 0 holds 0 in all three.
_U = tuple(m * (m + 1) * (2 * m + 1) // 6 for m in range(FILTER_HORIZON + 1))
_V = tuple(2 * (m - 1) - 3 * (_U[m] - 1) if m else 0 for m in range(FILTER_HORIZON + 1))


@lru_cache(maxsize=PAIR_CACHE_SIZE)
def _pair_terms(b: int, r: int) -> tuple[int, ...]:
    """T_{b,r}[0..FILTER_HORIZON]: one pair's share of every P_{-m}, with
    its Delta^j read as ``_delta`` reads it."""
    total, out, bj = 0, [0], 0
    for j in range(1, FILTER_HORIZON + 1):
        bj += b
        s = bj % r
        total += b * (j * (j - 1) // 2) - (s * (r - s) - bj * (r - bj)) // (2 * r)
        out.append(total)
    return tuple(out)


@lru_cache(maxsize=PAIR_CACHE_SIZE)
def _base_row(p1: int) -> tuple[int, ...]:
    """p1 U[m] + V[m] for m = 0..FILTER_HORIZON: the share of P_{-1} itself."""
    return tuple(map(add, map(mul, _U, repeat(p1)), _V))


def _table(p1: int, terms: list[tuple[int, ...]]) -> list[int]:
    """[0, P_{-1}, ..., P_{-FILTER_HORIZON}] from the ``_pair_terms`` of every
    entry, a pair's table repeated once per entry."""
    return list(map(sum, zip(_base_row(p1), *terms)))


def _basket_terms(basket: Basket) -> list[tuple[int, ...]]:
    return [_pair_terms(p.b, p.r) for p in basket.entries]


def _beyond(p1: int, pairs: list[tuple[int, int, int]], table: list[int]) -> Iterator[tuple[int, int]]:
    """(m, P_{-m}) for m = FILTER_HORIZON + 1, ... without end: the recursion
    carried on from the table over (b, r, multiplicity) triples."""
    sig = sum(b * k for b, _, k in pairs)
    m, p = FILTER_HORIZON, table[FILTER_HORIZON]
    while True:
        m += 1
        p += m * m * (p1 - 3) + sig * (m * (m - 1) // 2) + 2 - _delta(pairs, m)
        yield m, p


def _plurigenera(wb: WeightedBasket, table: list[int] | None = None) -> Iterator[tuple[int, int]]:
    """Yield (m, P_{-m}) as integers for m = 1, 2, ... without end, from ``table`` if given."""
    table = table or _table(wb.p1, _basket_terms(wb.basket))
    yield from islice(enumerate(table), 1, None)
    yield from _beyond(wb.p1, wb.basket.counts(), table)


def plurigenus(wb: WeightedBasket, m: int) -> int:
    """P_{-m} by the recursion.

    For an integer P_{-1} every P_{-m} is an integer; non-negativity is
    the condition that actually fails on non-geometric seeds, and callers
    that screen for geometric baskets test it.
    """
    if m < 1:
        raise ValueError(f"plurigenus needs m >= 1, got {m}")
    # one value read off the stream: no list of P_{-1..m} is built
    return next(islice(_plurigenera(wb), m - 1, None))[1]


def plurigenus_sequence(wb: WeightedBasket, upto: int) -> list[int]:
    """[0, P_{-1}, ..., P_{-upto}] computed in one sweep (index = m)."""
    if upto < 1:
        raise ValueError(f"plurigenus_sequence needs upto >= 1, got {upto}")
    if upto <= FILTER_HORIZON:
        table = _table(wb.p1, _basket_terms(wb.basket))
        return table if upto == FILTER_HORIZON else table[:upto + 1]
    seq = [0]
    seq.extend(p for _, p in islice(_plurigenera(wb), upto))
    return seq


@lru_cache(maxsize=PAIR_CACHE_SIZE)
def _l_entry(b: int, r: int, n: int) -> Fraction:
    # sum_{j<=n} of the reduced-residue parabola for one pair, over 2r once
    total = 0
    for j in range(1, n + 1):
        s = (j * b) % r
        total += s * (r - s)
    return Fraction(total, 2 * r)


def l_term(basket: Basket, n: int) -> Fraction:
    """l(-n) = sum_i sum_{j=1..n} jb_i~(r_i - jb_i~)/(2 r_i), residues mod r_i."""
    if n < 1:
        raise ValueError(f"l_term needs n >= 1, got {n}")
    return sum((_l_entry(p.b, p.r, n) for p in basket), Fraction(0))


def plurigenus_closed(basket: Basket, k3: Fraction, n: int) -> Fraction:
    """P_{-n} by the Riemann-Roch closed form, given the volume -K^3."""
    if n < 1:
        raise ValueError(f"plurigenus_closed needs n >= 1, got {n}")
    return Fraction(n * (n + 1) * (2 * n + 1), 12) * k3 + (2 * n + 1) - l_term(basket, n)


# ---------------------------------------------------------------------------
# geometric filter
# ---------------------------------------------------------------------------

class FilterConfig(NamedTuple):
    """Which geometric constraints to test, each individually toggleable.

    The default set is the one that the classification arguments actually
    invoke: positivity of the volume, the known lower bound -K^3 >= 1/330,
    gamma >= 0 with its consequence r_max <= 24, the Gorenstein index
    restriction (r_X <= 660 or r_X = 840 with r_max = 8), non-negativity of
    every P_{-m} up to ``FILTER_HORIZON``, P_{-m} > 0 for m >= 6,
    P_{-8} >= 2, and superadditivity P_{-m-n} >= P_{-m} + P_{-n} - 1.

    For an integer P_{-1} every P_{-m} is an integer, so ``integrality``
    tests non-negativity only.  The sigma identity
    sigma = 10 - 5 P_{-1} + P_{-2} is no check at all: Delta^2 = 0 for
    every pair (2b <= r), so the recursion satisfies it on every basket.
    The volume and gamma stay numerators over r_X.
    """

    volume_positive: bool = True
    min_volume: bool = True
    gamma_nonneg: bool = True
    rmax_le_24: bool = True
    index_bound: bool = True
    integrality: bool = True
    p_positive_from_6: bool = True
    p8_at_least_2: bool = True
    superadditivity: bool = True

    @staticmethod
    def none() -> "FilterConfig":
        return FilterConfig(*[False] * len(FilterConfig._fields))


# for j = 2..FILTER_HORIZON, the position of d_{j//2} in the increments below
_HALVES = itemgetter(*(j // 2 - 1 for j in range(2, FILTER_HORIZON + 1)))


def _superadditivity_failure(p: list[int]) -> tuple[int, int] | None:
    """The first (m, n), m <= n, with P_{-m}, P_{-n} > 0 and P_{-m-n} <
    P_{-m} + P_{-n} - 1, or None.

    With d_k = P_{-k} - P_{-(k-1)}, d_1 lowered by one, d_j >= max(d_1, ...,
    d_{j//2}) for every j >= 2 gives P_{-m-n} - P_{-n} = d_{n+1} + ... +
    d_{n+m} >= d_1 + ... + d_m = P_{-m} - 1 for every m <= n.  Nondecreasing
    increments meet it at once (the max is d_{j//2} <= d_j); otherwise one
    C-level pass of running maxima tests it.  Only where it fails does the
    ordered scan run; it skips every m with P_{-m} <= 0.
    """
    d = list(map(sub, p[1:], p[:-1]))
    d[0] -= 1
    if d == sorted(d) or all(map(ge, d[1:], _HALVES(list(accumulate(d, max))))):
        return None
    return next((
        (m, n) for m in range(1, FILTER_HORIZON) if p[m] > 0
        for n in range(m, FILTER_HORIZON - m + 1) if p[n] > 0 and p[m + n] < p[m] + p[n] - 1
    ), None)


class FilterResult(_Frozen):
    """The verdict of the checks ``config`` enables on what they read: -K^3
    and gamma as numerators over ``den``, r_X, r_max (0 for no entries) and p =
    [0, P_{-1}, ..., P_{-FILTER_HORIZON}].  ``ok`` is decided on building, at the
    first failed check; ``failures`` and ``first_failure`` word them on each read.
    """

    __slots__ = ("ok", "_config", "_volume", "_gamma", "_den", "_rx", "_rmax", "_p")

    def __init__(self, config: FilterConfig, volume: int, gamma: int, den: int, rx: int,
                 rmax: int, p: list[int]) -> None:
        for put, value in zip(_PUT, (config, volume, gamma, den, rx, rmax, p)):
            put(self, value)
        _SET_OK(self, next(self._failed(), None) is None)

    def _failed(self) -> Iterator[str]:
        """The fields of the enabled checks these integers fail, in
        ``FilterConfig`` order: each rule, once."""
        c, volume, rx, rmax, p = self._config, self._volume, self._rx, self._rmax, self._p
        if c.volume_positive and volume <= 0:
            yield "volume_positive"
        if c.min_volume and 330 * volume < self._den:
            yield "min_volume"
        if c.gamma_nonneg and self._gamma < 0:
            yield "gamma_nonneg"
        if c.rmax_le_24 and rmax > 24:
            yield "rmax_le_24"
        if c.index_bound and rx > 660 and (rx != 840 or rmax != 8):
            yield "index_bound"
        if c.integrality and min(p) < 0:
            yield "integrality"
        if c.p_positive_from_6 and min(p[6:]) < 1:
            yield "p_positive_from_6"
        if c.p8_at_least_2 and p[8] < 2:
            yield "p8_at_least_2"
        if c.superadditivity and _superadditivity_failure(p) is not None:
            yield "superadditivity"

    @property
    def failures(self) -> tuple[str, ...]:
        return tuple(f"{name}: {_CHECKS[name](self)}" for name in self._failed())

    @property
    def first_failure(self) -> str | None:
        return next((f"{name}: {_CHECKS[name](self)}" for name in self._failed()), None)

    def __bool__(self) -> bool:
        return self.ok

    def _over(self, num: int) -> str:
        return format_rational(Fraction(num, self._den))

    def _first_below(self, start: int, bound: int) -> str:
        m = next(m for m in range(start, len(self._p)) if self._p[m] < bound)
        return f"P[-{m}] = {self._p[m]}"

    def _superadditivity(self) -> str:
        m, n = _superadditivity_failure(self._p)
        return f"P[-{m + n}] = {self._p[m + n]} < P[-{m}] + P[-{n}] - 1"


# the slot setters of ``ok`` and of the integers the checks read, in slot order
_SET_OK, *_PUT = [getattr(FilterResult, name).__set__ for name in FilterResult.__slots__]


# The wording of each check's failure, by its ``FilterConfig`` field
_CHECKS = {
    "volume_positive": lambda f: f"-K^3 = {f._over(f._volume)} <= 0",
    "min_volume": lambda f: f"-K^3 = {f._over(f._volume)} < 1/330",
    "gamma_nonneg": lambda f: f"gamma = {f._over(f._gamma)} < 0",
    "rmax_le_24": lambda f: f"r_max = {f._rmax}",
    "index_bound": lambda f: f"r_X = {f._rx}" if f._rx != 840 else f"r_X = 840 needs r_max = 8, got {f._rmax}",
    "integrality": lambda f: f._first_below(1, 0),
    "p_positive_from_6": lambda f: f._first_below(6, 1),
    "p8_at_least_2": lambda f: f"P[-8] = {f._p[8]}",
    "superadditivity": FilterResult._superadditivity,
}


def geometric_filter(wb: WeightedBasket, config: FilterConfig = FilterConfig()) -> FilterResult:
    """Run the selected geometric checks; failures are reported in check order."""
    rec = _record(wb.basket)
    rx = rec[0]
    return FilterResult(
        config, _volume(wb.p1, rec), rec[4], rx, rx, rec[1], _table(wb.p1, _basket_terms(wb.basket)),
    )
