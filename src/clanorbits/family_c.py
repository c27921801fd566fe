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
    _check_length,
    avoids_bad_patterns,
    count_mirror_clans,
    cuts,
    enumerate_clans,
    is_symmetric,
    mirror_doubles,
)
from .closure import _move
from .errors import ClanError, NotSymmetric, SignatureMismatch
from .family import MirrorFamily, crossed_open


@lru_cache(maxsize=128)  # the fiber-form search asks for cores by signature
def gamma_circ_c(p: int, q: int) -> Clan:
    """Open-orbit clan: ascending run, doubled sign block, crossed tail,
    i.e. min(p, q) adjacent pairs and |p - q| signs ('+' when p > q),
    doubled with every pair crossing."""
    return crossed_open(min(p, q), (PLUS if p >= q else MINUS,) * abs(p - q), False)


@lru_cache(maxsize=1024)
def _placed_core_c(p: int, q: int, at: int) -> tuple:
    """The code of `gamma_circ_c(p, q)` placed at position `at`."""
    return tuple(m + at if isinstance(m, int) else m for m in gamma_circ_c(p, q).code)


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


def fiber_form_c(clan: Clan) -> FiberFormC | None:
    """Search the cut points m <= n of a mirror-symmetric clan for a
    smooth-fiber decomposition; its signature (2p, 2q) and the prefix's
    fix each core's.  The mirror (`FamilyC.fiber_form` checks it) makes
    a prefix that no pair leaves fix its suffix, so only the middle of
    the code is compared, with the open core's code placed at m."""
    code = clan.code
    n = len(code) // 2
    p, q = (half // 2 for half in clan.signature)
    for m in cuts(code):
        if m > n:
            break
        head = code[:m]
        plus, minus = head.count(PLUS), head.count(MINUS)
        r, s = (m + plus - minus) // 2, (m - plus + minus) // 2
        core_p, core_q = p - r, q - s
        if core_p < 0 or core_q < 0:
            continue
        if code[m : 2 * n - m] == _placed_core_c(core_p, core_q, m):
            prefix = Clan(head)
            if avoids_bad_patterns(prefix):
                return FiberFormC(prefix, gamma_circ_c(core_p, core_q), r, s, core_p, core_q)
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
        self.closed_plus = (p,)
        self.fold_levels = ("adjoint",) if p == q else ()

    def meta(self) -> dict:
        return {"family": "c", "p": self.p, "q": self.q}

    def __repr__(self) -> str:
        return f"FamilyC(p={self.p}, q={self.q})"

    def root_indices(self) -> range:
        return range(1, self.n + 1)

    def _check(self, clan: Clan) -> None:
        if len(clan) != self.clan_length or clan.signature != (2 * self.p, 2 * self.q):
            raise SignatureMismatch(f"{clan} does not live in Sp({self.p},{self.q})")
        if not is_symmetric(clan):
            raise NotSymmetric(f"{clan} is not mirror-symmetric")

    def _middle_move(self, code: tuple):
        return _move(code, self.n - 1)

    def enumerate(self) -> list[Clan]:
        """The doubles of the clans of signature (p, q): a first half of
        signature (p, q) doubles to one of (2p, 2q), under either flag."""
        _check_length(self.clan_length)  # before the halves, which pass their own cap
        return mirror_doubles(enumerate_clans(self.p, self.q), opposite=False)

    def count(self) -> int:
        return count_mirror_clans(self.n, self.p)

    def open_clan(self) -> Clan:
        return gamma_circ_c(self.p, self.q)

    _fiber_form = staticmethod(fiber_form_c)
