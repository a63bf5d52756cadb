"""Constraint-driven classification of geometric baskets.

Give the engine plurigenus constraints; it enumerates the feasible
level-0 baskets, walks up the canonical chain B^(0) >= B^(5) >= B^(6)
>= ... from each of them with monotone cuts, and re-verifies every leaf.
Two classics:

* P_{-1} = P_{-2} = 1 and P_{-8} = 2 has exactly three solutions;
* Gorenstein index exactly 840 forces one of five baskets once
  P_{-2} < 2 (and the volume is at least 47/840 in every case).
"""

from fractions import Fraction

from reidbasket.classify import (
    ClassificationConstraints,
    classify,
    enumerate_b0,
    enumerate_index_profiles,
    parse_constraints,
)
from reidbasket.core import WeightedBasket, anti_volume, r_index

c = ClassificationConstraints(p_fixed={1: 1, 2: 1, 8: 2})
roots = enumerate_b0(c)
print(f"feasible level-0 candidates: {len(roots)}")
print("classification of P_{-1} = P_{-2} = 1, P_{-8} = 2:")
for wb in classify(c):
    print(f"  {wb.basket}    -K^3 = {anti_volume(wb)}")

# the same constraints in the flat text format used by the CLI
text = "p[1]=1  p[2]=1  p[8]=2  filters=default"
assert classify(parse_constraints(text)) == classify(c)

print("\nGorenstein index 840 with P_{-1} = P_{-2} = 1:")
c840 = ClassificationConstraints(p_fixed={1: 1, 2: 1}, rx_exact=840)
for wb in enumerate_index_profiles(c840):
    print(f"  {wb.basket}    -K^3 = {anti_volume(wb)}")

every = enumerate_index_profiles(ClassificationConstraints(p_ranges={1: (0, 4)}, rx_exact=840))
print("\nacross every admissible index-840 weighted basket:")
print("  count:", len(every))
print("  min -K^3:", min(anti_volume(wb) for wb in every), "(= 47/840)")
print("  min P_{-1}:", min(wb.p1 for wb in every), "(volume positivity forces P_{-1} >= 1)")
assert min(anti_volume(wb) for wb in every) == Fraction(47, 840)
assert all(r_index(wb.basket) == 840 for wb in every)
