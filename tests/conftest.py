from __future__ import annotations

from functools import lru_cache

import pytest

from clanorbits import (
    FamilyA,
    FamilyC,
    FamilyD,
    build_poset,
    enumerate_clans,
    is_antisymmetric,
    is_symmetric,
)


@pytest.fixture(scope="session")
def poset_a22():
    return build_poset(FamilyA(2, 2))


@pytest.fixture(scope="session")
def poset_a33():
    return build_poset(FamilyA(3, 3))


@pytest.fixture(scope="session")
def poset_c22():
    return build_poset(FamilyC(2, 2))


@pytest.fixture(scope="session")
def poset_d3():
    return build_poset(FamilyD(3))


@pytest.fixture(scope="session")
def poset_d4():
    return build_poset(FamilyD(4))


@pytest.fixture(scope="session")
def ambient_a44():
    return build_poset(FamilyA(4, 4))


@pytest.fixture(scope="session")
def mirror_filter():
    """The definitions of the type-C and type-D orbits: mirror_filter(p, q)
    maps "symmetric", "paper" and "figure" to the type-A clans of signature
    (p, q) that are symmetric, or antisymmetric in that convention.  One
    pass per signature serves both families' tests, so the 845,691 clans
    of (6, 6), for C(3,3) and D(6), are listed once."""

    @lru_cache(maxsize=None)
    def filtered(p: int, q: int) -> dict[str, set]:
        out: dict[str, set] = {"symmetric": set(), "paper": set(), "figure": set()}
        for c in enumerate_clans(p, q):
            if is_symmetric(c):
                out["symmetric"].add(c)
            if p == q:
                for convention in ("paper", "figure"):
                    if is_antisymmetric(c, convention):
                        out[convention].add(c)
        return out

    return filtered
