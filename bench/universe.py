"""Input generation for the ``session`` workload.

The universe is every terminal basket whose entries cost
``sum(r - 1/r) <= 24`` in total, i.e. every multiset of coprime pairs
``(b, r)`` with ``0 < b <= r/2`` and ``gamma >= 0`` (the empty basket
included).  It is built from plain integer tuples, without the library,
so that the inputs do not depend on the code under test.
"""

from __future__ import annotations

import math
import random

# costs r - 1/r are scaled by lcm(2..24) so the budget test is integer-only
_SCALE = math.lcm(*range(2, 25))
GAMMA_BUDGET = 24 * _SCALE


def _pair_types() -> list[tuple[int, int, int]]:
    """Coprime pairs (b, r) that fit the budget on their own, with scaled cost."""
    types = []
    for r in range(2, 25):
        cost = r * _SCALE - _SCALE // r
        if cost > GAMMA_BUDGET:
            break
        for b in range(1, r // 2 + 1):
            if math.gcd(b, r) == 1:
                types.append((b, r, cost))
    return types


def terminal_baskets() -> list[tuple[tuple[int, int], ...]]:
    """All terminal baskets with gamma >= 0, as sorted tuples of (b, r)."""
    types = _pair_types()
    out: list[tuple[tuple[int, int], ...]] = []

    def grow(start: int, budget: int, current: list[tuple[int, int]]) -> None:
        out.append(tuple(sorted(current, key=lambda p: (p[1], p[0]))))
        for i in range(start, len(types)):
            b, r, cost = types[i]
            if cost <= budget:
                current.append((b, r))
                grow(i, budget - cost, current)
                current.pop()

    grow(0, GAMMA_BUDGET, [])
    out.sort(key=lambda basket: [(r, b) for b, r in basket])
    return out


def basket_text(basket: tuple[tuple[int, int], ...]) -> str:
    """The basket in the library's text grammar, one item per entry."""
    return ",".join(f"({b},{r})" for b, r in basket)


def draw_session(
    universe: list[tuple[tuple[int, int], ...]], seed: int, count: int
) -> list[tuple[str, int]]:
    """``count`` seeded draws of (non-empty basket text, P_{-1} in 0..2)."""
    pool = [basket for basket in universe if basket]
    rng = random.Random(seed)
    return [(basket_text(rng.choice(pool)), rng.randint(0, 2)) for _ in range(count)]
