"""Farey unpacking and the canonical approximation chain.

Every basket has a unique maximal unpacking at each admissible level:
level 0 splits everything into unit-fraction points 1/k, level 5 allows
2/5 as well, level n allows every reduced b/n.  The chain

    B(0) >= B(5) >= B(6) >= ... >= B

descends by prime packings only, and the number of prime packings
spent in each step (epsilon_n) is computable straight from the
anti-plurigenera.  That is what lets a classification run backwards:
from plurigenus constraints to candidate level-0 baskets.
"""

from fractions import Fraction

from reidbasket.canonical import (
    b0_from_plurigenera,
    b5_from_plurigenera,
    canonical_sequence,
    epsilon_n,
    farey_neighbors,
    unpack,
)
from reidbasket.core import Basket, WeightedBasket, plurigenus_sequence

# Farey neighbors: the division points bracketing 2/5 at level 0
print("level-0 neighbors of 2/5:", farey_neighbors(Fraction(2, 5), 0))
print("level-5 neighbors of 3/7:", farey_neighbors(Fraction(3, 7), 5))

basket = Basket.parse("(2,5),(3,7)")
seq = canonical_sequence(basket)
print(f"\ncanonical sequence of {basket}:")
for n, approx, eps in seq.levels:
    eps_note = f"   epsilon_{n} = {eps}" if n >= 5 else ""
    print(f"  B({n}) = {approx}{eps_note}")
print(f"stabilizes at level {seq.stabilization_level}")

# epsilon_6 vanishes for every basket: level 6 adds no new fractions.
assert epsilon_n(basket, 6) == 0

# Reconstruction: the first anti-plurigenera of (B, p1) pin down B(0) and
# B(5) exactly (the r >= 5 tail is carried separately).  Here on a basket
# from the P_{-8} = 2 classification:
geom = Basket.parse("(1,2),(2,5),(1,3),(1,4),(1,9)")
wb = WeightedBasket(geom, 1)
p = plurigenus_sequence(wb, 5)
tail = {}
for pair in unpack(geom, 0):
    if pair.r >= 5:
        tail[pair.r] = tail.get(pair.r, 0) + 1
print(f"\n{geom} with p1 = 1:")
print("P_{-1..5} =", p[1:6], " tail:", tail)
print("rebuilt B(0):", b0_from_plurigenera(p[1], p[2], p[3], p[4], tail))
print("rebuilt B(5):", b5_from_plurigenera(p[1], p[2], p[3], p[4], p[5], tail))
assert b0_from_plurigenera(p[1], p[2], p[3], p[4], tail) == unpack(geom, 0)
assert b5_from_plurigenera(p[1], p[2], p[3], p[4], p[5], tail) == unpack(geom, 5)
