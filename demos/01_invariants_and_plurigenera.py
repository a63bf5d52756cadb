"""Tour of the basic calculus on one famous basket.

The general degree-66 weighted hypersurface in P(1,5,6,22,33) is a
terminal Q-Fano 3-fold whose anti-canonical degree is the smallest
possible, 1/330.  Its singular content is captured by the basket
{(1,2),(2,5),(1,3),(2,11)} together with P_{-1} = 1, and from those two
pieces of data every anti-plurigenus follows.
"""

from fractions import Fraction

from reidbasket.core import (
    Basket,
    WeightedBasket,
    anti_volume,
    gamma,
    geometric_filter,
    plurigenus_closed,
    plurigenus_sequence,
    r_index,
    r_max,
    sigma,
    sigma_prime,
)

basket = Basket.parse("(1,2),(2,5),(1,3),(2,11)")
wb = WeightedBasket(basket, p1=1)

print("basket:", basket)
print("sigma       =", sigma(basket))
print("sigma'      =", sigma_prime(basket))
print("gamma       =", gamma(basket), "(>= 0: the positivity constraint holds)")
print("r_X         =", r_index(basket))
print("r_max       =", r_max(basket))
print("-K^3        =", anti_volume(wb))
assert anti_volume(wb) == Fraction(1, 330)

# The recursion produces the whole anti-plurigenus sequence...
seq = plurigenus_sequence(wb, 24)
print("\nP_{-m} for m = 1..24:")
print(" ", seq[1:])

# ...and the Riemann-Roch closed form retraces every value independently.
for m in (1, 5, 12, 24):
    closed = plurigenus_closed(basket, anti_volume(wb), m)
    print(f"closed form at m = {m:>2}: {closed}  (recursion: {seq[m]})")
    assert closed == seq[m]

# The geometric filter bundles the known necessary conditions.
print("\ngeometric filter:", "pass" if geometric_filter(wb).ok else "fail")

# A failing example: twelve half-points have volume exactly zero.
dead = WeightedBasket(Basket.parse("12x(1,2)"), 0)
result = geometric_filter(dead)
print("12x(1,2) with p1 = 0:", result.first_failure)
