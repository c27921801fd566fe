"""The fiber forms read at cut points against the forms they replace.

The oracles below are the fiber-form searches the package used before it
found cut points with `clans.cuts`: they call `clans.block` at every
prefix length, build every piece as a clan, compare the middle block
with the open core as clans, and decide avoidance by the pattern
definition.  The new forms must give equal witnesses on every orbit of
the families checked here.
"""

from __future__ import annotations

import pytest

from clanorbits import (
    BAD_PATTERNS,
    Clan,
    FamilyC,
    FamilyD,
    FiberFormC,
    FiberFormD,
    enumerate_clans,
    gamma_circ_c,
    gamma_circ_d,
    includes_pattern,
    negate,
)
from clanorbits.clans import _half_parity, block, cuts
from clanorbits.closure import _swap
from clanorbits.family_c import fiber_form_c
from clanorbits.family_d import fiber_form_d

from clan_transforms import mirror_clans

# ------------------------------------------------------- block-based oracle


def _avoids(clan: Clan) -> bool:
    return not any(includes_pattern(clan, bad) for bad in BAD_PATTERNS)


def _oracle_c(clan: Clan) -> FiberFormC | None:
    n = len(clan) // 2
    p, q = (half // 2 for half in clan.signature)
    for m in range(0, n + 1):
        prefix = block(clan, 0, m)
        if prefix is None:
            continue
        r, s = prefix.signature
        core_p, core_q = p - r, q - s
        if core_p < 0 or core_q < 0:
            continue
        core = gamma_circ_c(core_p, core_q)
        if block(clan, m, 2 * n - m) == core and _avoids(prefix):
            return FiberFormC(prefix, core, r, s, core_p, core_q)
    return None


def _oracle_threaded_inner(core: Clan) -> Clan | None:
    rank = len(core) // 2
    code = core.code
    if rank < 2 or code[0] != rank:
        return None
    inner = block(core, 1, rank - 1)
    if inner is None:
        return None
    wrapped = Clan((rank - 1,) + code[1 : rank - 1] + (0,))
    return inner if _avoids(wrapped) else None


def _oracle_d(clan: Clan) -> FiberFormD | None:
    n = len(clan) // 2
    if n == 0:
        return None
    open_clan = gamma_circ_d(n)
    if clan == open_clan or clan == negate(open_clan):
        return FiberFormD("open", Clan(()), clan, n)
    inner = _oracle_threaded_inner(clan)
    if inner is not None:
        return FiberFormD("threaded", Clan(()), clan, n, inner)
    for m in range(1, n + 1):
        flank = block(clan, 0, m)
        if flank is None or not _avoids(flank):
            continue
        core = block(clan, m, 2 * n - m)
        rank = n - m
        if rank == 0:
            return FiberFormD("mirror", flank)
        reading = core
        if rank % 2 == 0 and _half_parity(core):
            reading = Clan(_swap(core.code, rank - 1, rank))
        if _avoids(reading):
            return FiberFormD("block", flank, core, rank)
        nested = _oracle_d(reading)
        if nested is not None:
            return FiberFormD("block", flank, core, rank, None, nested)
    return None


def _agrees(new, old) -> bool:
    if new is None or old is None:
        return new is None and old is None
    return new == old and new.describe() == old.describe()


# ------------------------------------------------------------------- tests


def test_cut_points_are_where_blocks_start():
    pool = [c for n in range(8) for p in range(n + 1) for c in enumerate_clans(p, n - p)]
    pool += [c for n in range(4) for c in mirror_clans(n, opposite=True)]
    for c in pool:
        want = [m for m in range(len(c) + 1) if block(c, 0, m) is not None]
        assert list(cuts(c.code)) == want, c


@pytest.mark.parametrize("family", [FamilyC(3, 3), FamilyC(4, 2)], ids=repr)
def test_type_c_forms_match_the_block_oracle(family):
    witnesses = 0
    for clan in family.enumerate():
        form = fiber_form_c(clan)
        assert _agrees(form, _oracle_c(clan)), clan
        witnesses += form is not None
    assert witnesses > 1


def test_type_d_forms_match_the_block_oracle():
    kinds = set()
    for clan in FamilyD(7).enumerate():
        form = fiber_form_d(clan)
        assert _agrees(form, _oracle_d(clan)), clan
        if form is not None:
            kinds.add(form.kind)
    assert kinds == {"open", "threaded", "mirror", "block"}


def test_only_bounded_caches_remain():
    """The searches keep nothing per clan: only the open cores are kept,
    by signature or rank, in caches of fixed size."""
    for search in (fiber_form_c, fiber_form_d):
        assert not hasattr(search, "cache_info")
    for core in (gamma_circ_c, gamma_circ_d):
        assert core.cache_info().maxsize is not None
