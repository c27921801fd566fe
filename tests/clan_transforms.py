"""Clan transforms the tests build expectations with: reversal,
reversal with every sign flipped, juxtaposition, and the mate list.
The package builds its mirror clans with `clans.mirror_double`, cuts
them with `clans.block` and reads mates off `Clan.code`, so it needs
none of these."""

from __future__ import annotations

from clanorbits import Clan, negate


def reverse_rename(clan: Clan) -> Clan:
    """Reverse the position order; pair ids renumber canonically."""
    last = len(clan) - 1
    return Clan(tuple(last - m if isinstance(m, int) else m for m in clan.code[::-1]))


def reverse_negate_rename(clan: Clan) -> Clan:
    return negate(reverse_rename(clan))


def concat(*clans: Clan) -> Clan:
    """Juxtapose: each clan's mate positions shift by the length before it."""
    code: list = []
    for c in clans:
        offset = len(code)
        code.extend(m + offset if isinstance(m, int) else m for m in c.code)
    return Clan(tuple(code))


def mate_list(clan: Clan) -> tuple:
    """mates[i] is the position paired with i, or -1 at a sign."""
    return tuple(m if isinstance(m, int) else -1 for m in clan.code)
