"""The Sp(p,q) family: Sp(2p) x Sp(2q) orbits on the type-C flag variety.

Orbits are the *symmetric* clans of signature (2p, 2q) and length 2n,
n = p + q: mirror positions carry equal signs, pairs mirror to pairs and
never onto themselves.  Simple roots 1..n-1 lift to a pair of mirrored
adjacent moves on the doubled string; root n is a single move at the
middle.  Dimension is d(K) + (l + middle crossings)/2 with d(K) = p^2 + q^2.

A closure is smooth iff the clan avoids the bad patterns or splits as
prefix + open core + mirrored prefix with a pattern-avoiding prefix (the
closure then fibers over a partial flag variety with smooth fiber).
Smooth and rationally smooth coincide, at both isogeny levels.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .clans import (
    Clan,
    MINUS,
    PLUS,
    all_sign_clans,
    avoids_bad_patterns,
    concat,
    count_mirror_clans,
    is_symmetric,
    length_stat,
    reverse_rename,
)
from .closure import _move
from .errors import ClanError, ConsistencyError, NotSymmetric, SignatureMismatch
from .family import MirrorFamily, middle_crossings


def gamma_circ_c(p: int, q: int) -> Clan:
    """Open-orbit clan: ascending run, doubled sign block, crossed tail.

    Length 2p + 2q; the sign block has 2|p - q| entries ('+' when p > q).
    """
    k = min(p, q)
    sign = PLUS if p >= q else MINUS
    head = list(range(1, 2 * k + 1))
    tail: list[int] = []
    for t in range(k, 0, -1):
        tail += [2 * t - 1, 2 * t]
    return Clan(tuple(head + [sign] * (2 * abs(p - q)) + tail))


@dataclass(frozen=True)
class FiberFormC:
    """Witness that a clan splits as prefix + open core + mirrored prefix.

    The orbit closure then fibers over a partial flag variety for K with
    fiber (full type-C flag variety of the core) x (closure of the
    prefix's GL(r) x GL(s) orbit), hence is smooth whenever the prefix
    avoids the bad patterns.
    """

    prefix: Clan
    core: Clan
    r: int
    s: int
    core_p: int
    core_q: int

    def describe(self) -> str:
        return (
            f"prefix {self.prefix or 'empty'} in ({self.r},{self.s}); "
            f"core open orbit of ({self.core_p},{self.core_q})"
        )


@lru_cache(maxsize=None)
def fiber_form_c(clan: Clan) -> FiberFormC | None:
    """Search all core sizes for a smooth-fiber decomposition of a
    mirror-symmetric clan; its signature (2p, 2q) fixes each core's."""
    n = len(clan) // 2
    p, q = (half // 2 for half in clan.signature)
    for m in range(0, n + 1):
        try:
            prefix = Clan.from_symbols(clan.symbols[:m])
        except ValueError:
            continue
        r, s = prefix.signature
        core_p, core_q = p - r, q - s
        if core_p < 0 or core_q < 0:
            continue
        core = gamma_circ_c(core_p, core_q)
        if concat(prefix, core, reverse_rename(prefix)) == clan and avoids_bad_patterns(prefix):
            return FiberFormC(prefix, core, r, s, core_p, core_q)
    return None


class FamilyC(MirrorFamily):
    name = "c"
    opposite = False

    def __init__(self, p: int, q: int):
        if p < 0 or q < 0:
            raise ClanError("signature parts must be nonnegative")
        self.p = p
        self.q = q
        self.n = p + q
        self.clan_length = 2 * self.n
        self.d_K = p * p + q * q

    def meta(self) -> dict:
        return {"family": "c", "p": self.p, "q": self.q}

    def __repr__(self) -> str:
        return f"FamilyC(p={self.p}, q={self.q})"

    def root_indices(self) -> range:
        return range(1, self.n + 1)

    def contains(self, clan: Clan) -> bool:
        return (
            len(clan) == self.clan_length
            and clan.signature == (2 * self.p, 2 * self.q)
            and is_symmetric(clan)
        )

    def _check(self, clan: Clan) -> None:
        if len(clan) != self.clan_length or clan.signature != (2 * self.p, 2 * self.q):
            raise SignatureMismatch(f"{clan} does not live in Sp({self.p},{self.q})")
        if not is_symmetric(clan):
            raise NotSymmetric(f"{clan} is not mirror-symmetric")

    def dimension(self, clan: Clan) -> int:
        self._check(clan)
        total = length_stat(clan) + middle_crossings(clan)
        if total % 2:
            raise ConsistencyError(f"odd length statistic for symmetric clan {clan}")
        return self.d_K + total // 2

    def _middle_move(self, sym: tuple):
        return _move(sym, self.n - 1)

    def count(self) -> int:
        return count_mirror_clans(self.n, self.p)

    def closed_clans(self) -> list[Clan]:
        out = []
        for half in all_sign_clans(self.n, self.p):
            out.append(Clan(half.symbols + half.symbols[::-1]))
        return out

    def open_clan(self) -> Clan:
        return gamma_circ_c(self.p, self.q)

    def fiber_form(self, clan: Clan) -> FiberFormC | None:
        self._check(clan)
        return fiber_form_c(clan)
