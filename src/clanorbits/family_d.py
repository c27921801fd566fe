"""The SO*(2n) family: GL(n) orbits on the type-D flag variety.

Orbits are the *antisymmetric* clans of signature (n, n): mirror
positions carry opposite signs, pairs mirror to pairs and never onto
themselves, and the number of plus signs plus whole pairs in the first
half has fixed parity (see `clans.is_antisymmetric`; the default
convention asks for an even count).

Simple roots 1..n-1 lift to mirrored adjacent moves exactly as in the
type-C family.  Root n twists through the middle: conjugate by the swap
of the two middle positions, apply the two lifted moves of root n-1,
and conjugate back; no extra sign change.  Dimension is
d(K) + (l - middle crossings)/2 with d(K) = n(n-1)/2.

The outer involution tau flips all signs, after swapping the middle
positions when n is odd; it realizes the diagram flip of rank-n
closure diagrams.  Only the tests build it: at even n, where the
package folds, it is the sign flip `negate`.  Orbit sets at the four
isogeny levels (simply connected, SO, the primed SO quotient, adjoint)
coincide or, for even n, fold into sign-flip classes, as in types A
and C: at the adjoint level, and at the primed SO quotient when n/2 is
odd (`fold_levels`).

A closure is smooth iff the clan avoids the bad patterns or carries an
exceptional fiber-bundle form (`fiber_form`): a pattern-avoiding flank
wrapped around a core that is the open clan up to sign flip, a threaded
block (two pairs around a nested type-A fiber), empty, or recursively of
the same shape; even-rank cores in the odd parity class are read through
the outer twist.  Smooth and rationally smooth coincide at every isogeny
level.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .clans import (
    CONVENTIONS,
    Clan,
    MINUS,
    PLUS,
    _check_length,
    _half_parity,
    _is_mirror,
    avoids_bad_patterns,
    block,
    count_mirror_clans,
    cuts,
    enumerate_clans,
    is_antisymmetric,
    mirror_double,
    mirror_doubles,
    negate,
)
from .closure import _swap, lifted_double_move
from .errors import ClanError, NotAntisymmetric
from .family import MirrorFamily, crossed_open

ISOGENY_LEVELS_D = ("sc", "so", "so-prime", "adjoint")


@lru_cache(maxsize=32)  # the fiber-form search asks for cores by rank
def gamma_circ_d(n: int) -> Clan:
    """Open-orbit clan under the default (even-parity) convention: n // 2
    adjacent pairs, then '-' when n is odd, doubled with every pair
    crossing.  The other convention's open orbit is the global sign flip.
    """
    if n < 1:
        raise ValueError("rank must be at least 1")
    return crossed_open(n // 2, (MINUS,) * (n % 2), True)


@lru_cache(maxsize=32)
def _open_codes_d(n: int) -> tuple[tuple, tuple]:
    """The codes of `gamma_circ_d(n)` and of its sign flip."""
    base = gamma_circ_d(n)
    return base.code, negate(base).code


@dataclass(frozen=True)
class FiberFormD:
    """Witness that an orbit closure fibers smoothly over a partial flag
    variety.

    kind "open": the whole clan is the rank-n open clan or its sign flip
    (the fiber is everything).  kind "threaded": the whole clan is
    (1, inner, 2, 1, inner', 2) with inner' the reversed-negated inner
    clan, and the fiber is the closure of the type-A orbit of the nested
    clan (1, inner, 1), smooth because that clan avoids the bad
    patterns.  kind "mirror": the clan doubles a pattern-avoiding flank
    around an empty core.  kind "block": flank + core + reversed-negated
    flank with a pattern-avoiding flank and a core whose own closure is
    smooth (`nested` carries its witness when pattern containment makes
    one necessary).  An even-rank core whose first-half parity is odd is
    read through the outer twist, i.e. with its two middle positions
    swapped: that is how the embedded smaller flag variety identifies
    the other parity class.
    """

    kind: str
    flank: Clan
    core: Clan | None = None
    core_rank: int = 0
    inner: Clan | None = None
    nested: "FiberFormD | None" = None

    def describe(self) -> str:
        r, s = self.flank.signature
        flank = f"flank {self.flank or 'empty'} in ({r},{s})"
        if self.kind == "open":
            return f"open orbit clan of rank {self.core_rank}"
        if self.kind == "threaded":
            return f"two pairs threading {self.inner or 'empty'}"
        if self.kind == "mirror":
            return f"{flank}; mirror doubling"
        via = self.nested.describe() if self.nested else "pattern avoidance"
        return f"{flank}; core {self.core} of rank {self.core_rank} smooth via {via}"


def _threaded_inner(core: Clan) -> Clan | None:
    """The inner clan when `core` = (1, inner, 2, 1, inner', 2) and the
    nested type-A clan (1, inner, 1) avoids the bad patterns.  The
    mirror (see `fiber_form_d`) gives the pair 2 and inner' from the
    pair 1 and inner."""
    rank = len(core) // 2
    code = core.code
    if rank < 2 or code[0] != rank:
        return None
    inner = block(core, 1, rank - 1)
    if inner is None:
        return None
    wrapped = Clan((rank - 1,) + code[1 : rank - 1] + (0,))  # (1, inner, 1)
    return inner if avoids_bad_patterns(wrapped) else None


def fiber_form_d(clan: Clan) -> FiberFormD | None:
    """Smooth fiber-bundle witness for a mirror-antisymmetric clan.

    The whole clan may be the open clan up to sign flip or a threaded
    block; otherwise the flank at each cut point m <= n that avoids the
    bad patterns is peeled off and the remaining core (read through the
    outer twist when its rank is even and its first-half parity odd)
    must avoid the bad patterns or carry a witness of its own.
    Convention-free: only the mirror structure matters, so it applies to
    central blocks whose parity class differs from their ambient clan's.
    The members `FamilyD.fiber_form` checks, and the cores and twisted
    readings the recursion passes, are all mirror-antisymmetric: a flank
    that no pair leaves fixes its suffix, so the core is a block too.
    """
    code = clan.code
    n = len(code) // 2
    if n == 0:
        return None
    if code in _open_codes_d(n):
        return FiberFormD("open", Clan(()), clan, n)
    inner = _threaded_inner(clan)
    if inner is not None:
        return FiberFormD("threaded", Clan(()), clan, n, inner)
    for m in cuts(code):
        if m > n:
            break
        if m == 0:
            continue
        flank = Clan(code[:m])
        if not avoids_bad_patterns(flank):
            continue
        rank = n - m
        if rank == 0:
            return FiberFormD("mirror", flank)
        core = block(clan, m, 2 * n - m)
        reading = core
        if rank % 2 == 0 and _half_parity(core):
            reading = Clan(_swap(core.code, rank - 1, rank))
        if avoids_bad_patterns(reading):
            return FiberFormD("block", flank, core, rank)
        nested = fiber_form_d(reading)
        if nested is not None:
            return FiberFormD("block", flank, core, rank, None, nested)
    return None


class FamilyD(MirrorFamily):
    name = "d"
    opposite = True
    levels = ISOGENY_LEVELS_D

    def __init__(self, n: int, convention: str = "paper"):
        if n < 1:
            raise ClanError("rank must be at least 1")
        if convention not in CONVENTIONS:
            raise ClanError(f"unknown convention {convention!r}; have {CONVENTIONS}")
        self.n = n
        self.convention = convention
        self.clan_length = 2 * n
        self.d_K = n * (n - 1) // 2
        #: plus signs plus whole pairs of the first half, mod 2
        self.parity = 0 if convention == "paper" else n % 2
        self.closed_plus = range(self.parity, n + 1, 2)
        # even n folds at adjoint, and at so-prime too when n/2 is odd
        self.fold_levels = () if n % 2 else ("so-prime", "adjoint") if n % 4 else ("adjoint",)

    def meta(self) -> dict:
        return {"family": "d", "n": self.n, "convention": self.convention}

    def __repr__(self) -> str:
        return f"FamilyD(n={self.n}, convention={self.convention!r})"

    def root_indices(self) -> range:
        # rank 1 is a torus: no simple roots at all
        return range(1, self.n + 1) if self.n >= 2 else range(0)

    def _check(self, clan: Clan) -> None:
        if len(clan) != self.clan_length or not is_antisymmetric(clan, self.convention):
            raise NotAntisymmetric(
                f"{clan} is not antisymmetric of rank {self.n} ({self.convention} convention)"
            )

    def _middle_move(self, code: tuple):
        # conjugate by the middle swap, lift root n-1, conjugate back
        n = self.n
        moved = lifted_double_move(_swap(code, n - 1, n), n - 2, n)
        return None if moved is None else _swap(moved, n - 1, n)

    def enumerate(self) -> list[Clan]:
        """The opposite-sign mirror clans of length 2n of the family's
        parity: each half, by falling plus count, doubled under each
        choice of crossing flags."""
        _check_length(self.clan_length)  # before the halves, which pass their own cap
        halves = (h for p in range(self.n, -1, -1) for h in enumerate_clans(p, self.n - p))
        return mirror_doubles(halves, True, self.parity)

    def count(self) -> int:
        # the first half fixes a mirror clan under either sign rule, so
        # opposite-sign ones are as many as equal-sign ones of every
        # signature; flipping a first-half sign, or the shape of a matched
        # pair, flips the half parity, so each convention keeps half
        return sum(count_mirror_clans(self.n, p) for p in range(self.n + 1)) // 2

    def open_clan(self) -> Clan:
        base = gamma_circ_d(self.n)
        if self.convention == "figure" and self.n % 2:
            return negate(base)
        return base

    _fiber_form = staticmethod(fiber_form_d)


# Compressed 4-symbol notation for rank-4 clans: the first half, with
# each pair written as a letter, and its crossing flag as the letter's
# case: a lower-case letter at positions i < j <= 4 is the closed pair
# (i, j) plus its mirror; an upper-case letter at (i, j) is the crossing
# pair (i, 9-j) plus its mirror.

def expand_compressed(text: str) -> Clan:
    if len(text) != 4:
        raise ValueError("compressed form encodes rank-4 clans with 4 symbols")
    letters: dict[str, list[int]] = {}
    for pos, ch in enumerate(text):
        if ch not in (PLUS, MINUS):
            if not ch.isalpha():
                raise ValueError(f"bad compressed symbol {ch!r}")
            letters.setdefault(ch, []).append(pos)
    half = list(text)
    for ch, positions in letters.items():
        if len(positions) != 2:
            raise ValueError(f"letter {ch!r} must occur exactly twice")
        i, j = positions
        half[i], half[j] = j, i
    # letters in order of first occurrence are the half's pairs in order
    return mirror_double(Clan(tuple(half)), [not ch.islower() for ch in letters], True)


def compress(clan: Clan) -> str:
    if len(clan) != 8:
        raise ValueError("compressed form encodes rank-4 clans only")
    if not _is_mirror(clan, opposite=True):
        raise ValueError(f"{clan} is not mirror-antisymmetric")
    letters = {False: iter("abcd"), True: iter("ABCD")}
    out = list(clan.code[:4])
    for a, m in enumerate(clan.code[:4]):
        if isinstance(m, int):
            crossing = m >= 4
            b = 7 - m if crossing else m  # a's mate in the first half
            if a < b:
                out[a] = out[b] = next(letters[crossing])
    return "".join(out)
