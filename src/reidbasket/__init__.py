"""Exact Reid-basket calculus for terminal weak Q-Fano 3-folds.

Submodules:

* ``core``      -- baskets, anti-plurigenera, geometric filters
* ``packing``   -- the packing partial order and closure search
* ``canonical`` -- Farey-level approximations and packing counts
* ``criteria``  -- pencil-exclusion and birationality bounds
* ``classify``  -- constraint-driven enumeration of geometric baskets
* ``fixtures``  -- bundled reference tables and the verification harness
* ``cli``       -- the ``reidbasket`` command-line front end
"""

__version__ = "0.1.0"

# The names of ``core`` that the package re-exports.  They resolve on first
# use (PEP 562), so importing the package compiles no submodule: the CLI
# loads only the modules its command runs.
__all__ = [
    "Basket",
    "BasketSyntaxError",
    "FilterConfig",
    "OrbifoldPair",
    "WeightedBasket",
    "anti_volume",
    "delta_n",
    "gamma",
    "geometric_filter",
    "l_term",
    "parse_basket",
    "plurigenus",
    "plurigenus_closed",
    "plurigenus_sequence",
    "r_index",
    "r_max",
    "sigma",
    "sigma_prime",
]


def __getattr__(name: str):
    # any other name raises, so ``from reidbasket import cli`` still
    # imports the submodule
    if name in __all__:
        from . import core

        return getattr(core, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
