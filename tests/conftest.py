import importlib.util
import math
import os
import random
from pathlib import Path

import pytest
from hypothesis import strategies as st

import reidbasket
from reidbasket.classify import _COST, S, _pair_multisets, parse_constraints
from reidbasket.core import Basket, OrbifoldPair


def src_env() -> dict[str, str]:
    """The environment for a child Python that imports this same ``reidbasket``.

    The package's directory leads PYTHONPATH, so subprocess tests also work
    when pytest itself found the package only through its ``pythonpath``.
    """
    env = dict(os.environ)
    src = str(Path(reidbasket.__file__).resolve().parents[1])
    rest = [env["PYTHONPATH"]] if env.get("PYTHONPATH") else []
    env["PYTHONPATH"] = os.pathsep.join([src, *rest])
    return env


def pair_strategy(rmax: int = 24, coprime: bool = False):
    return st.integers(min_value=2, max_value=rmax).flatmap(
        lambda r: st.integers(min_value=1, max_value=r // 2)
        .filter(lambda b: not coprime or math.gcd(b, r) == 1)
        .map(lambda b: OrbifoldPair(b, r))
    )


def random_pair(rng: random.Random, rmax: int = 24, coprime: bool = True) -> OrbifoldPair:
    while True:
        r = rng.randint(2, rmax)
        b = rng.randint(1, r // 2)
        if not coprime or math.gcd(b, r) == 1:
            return OrbifoldPair(b, r)


def random_basket(
    rng: random.Random,
    max_entries: int = 8,
    rmax: int = 24,
    coprime: bool = True,
    min_entries: int = 0,
) -> Basket:
    n = rng.randint(min_entries, max_entries)
    return Basket(random_pair(rng, rmax, coprime) for _ in range(n))


def all_coprime_baskets(max_sum_r: int) -> list[Basket]:
    """Every coprime basket with sum of local indices <= max_sum_r.

    Independent of the packing machinery on purpose: a plain multiset
    enumeration used as the brute-force oracle.
    """
    pairs = sorted(
        ((b, r) for r in range(2, max_sum_r + 1)
         for b in range(1, r // 2 + 1) if math.gcd(b, r) == 1),
        key=lambda t: (t[1], t[0]),
    )
    results: list[Basket] = []

    def rec(idx: int, budget: int, acc: list) -> None:
        results.append(Basket.of(*acc))
        for i in range(idx, len(pairs)):
            b, r = pairs[i]
            if r <= budget:
                acc.append((b, r))
                rec(i, budget - r, acc)
                acc.pop()

    rec(0, max_sum_r, [])
    return results


def scan_multisets(indices):
    """Every ascending multiset over ``indices`` within the gamma budget,
    shortest first, extended by every index that still fits: over 2..24,
    the 2,152 level-0 baskets."""
    found = [((), 0, 24 * S)]
    for current, start, budget in found:
        yield current
        for i in range(start, len(indices)):
            left = budget - _COST[indices[i]]
            if left < 0:
                break
            found.append((current + (indices[i],), i, left))


def candidate_profiles(lcm_target: int) -> dict[tuple[int, ...], int]:
    """The index multisets, descending, of the candidates that the search of
    an exact r_X = ``lcm_target`` yields under the gamma filter alone, each
    with the number of candidates that have it."""
    c = parse_constraints(f"p[1]=0 rx={lcm_target} filters=gamma")
    profiles: dict[tuple[int, ...], int] = {}
    for triples in _pair_multisets(c):
        profile = tuple(sorted((r for _, r, k in triples for _ in range(k)), reverse=True))
        profiles[profile] = profiles.get(profile, 0) + 1
    return profiles


def numerator_assignments(profile: tuple[int, ...]) -> int:
    """How many coprime baskets have the index multiset ``profile``: per
    index r taken k times, the multisets of k of its numerators b <= r/2."""
    count = 1
    for r in set(profile):
        numerators = sum(math.gcd(b, r) == 1 for b in range(1, r // 2 + 1))
        count *= math.comb(numerators + profile.count(r) - 1, profile.count(r))
    return count


@pytest.fixture(scope="session")
def baskets_sum_r_20() -> list[Basket]:
    return all_coprime_baskets(20)


@pytest.fixture(scope="session")
def bench_universe() -> list[Basket]:
    """The 8338 terminal gamma >= 0 baskets of ``bench/universe.py``, in
    canonical order, the empty basket first.

    The generator builds them from plain integer tuples, without the
    library, so it is an independent oracle; it is loaded by path once per
    session, and no test loads it on its own.
    """
    path = Path(__file__).resolve().parents[1] / "bench" / "universe.py"
    spec = importlib.util.spec_from_file_location("bench_universe", path)
    universe = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(universe)
    return [Basket.of(*entries) for entries in universe.terminal_baskets()]
