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

The outer involution `tau` swaps the middle positions and flips all
signs, renormalizing to the antisymmetric representative; it realizes
the diagram flip of rank-n closure diagrams.  Orbit sets at the four
isogeny levels (simply connected, SO, the primed SO quotient, adjoint)
coincide or fold by tau exactly as `FamilyD.isogeny_fold` encodes.

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
    _canonicalize,
    _half_parity,
    all_sign_clans,
    avoids_bad_patterns,
    concat,
    count_mirror_clans,
    is_antisymmetric,
    length_stat,
    negate,
    reverse_negate_rename,
)
from .closure import _swap, lifted_double_move
from .errors import ClanError, ConsistencyError, NeitherAntisymmetric, NotAntisymmetric
from .family import MirrorFamily, middle_crossings

ISOGENY_LEVELS_D = ("sc", "so", "so-prime", "adjoint")


def gamma_circ_d(n: int) -> Clan:
    """Open-orbit clan under the default (even-parity) convention.

    Even n: crossed runs with no signs.  Odd n: the same around a central
    '-,+'.  The other convention's open orbit is the global sign flip.
    """
    if n < 1:
        raise ValueError("rank must be at least 1")
    m = n // 2
    head = list(range(1, 2 * m + 1))
    tail: list[int] = []
    for t in range(m, 0, -1):
        tail += [2 * t - 1, 2 * t]
    middle = [] if n % 2 == 0 else [MINUS, PLUS]
    return Clan(_canonicalize(head + middle + tail))


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


def _standalone(symbols: tuple) -> Clan | None:
    try:
        return Clan.from_symbols(symbols)
    except ValueError:
        return None


def _threaded_inner(core: Clan) -> Clan | None:
    """The inner clan when `core` = (1, inner, 2, 1, inner', 2) and the
    nested type-A clan (1, inner, 1) avoids the bad patterns."""
    rank = len(core) // 2
    if rank < 2:
        return None
    mates = core.mates
    if mates[0] != rank or mates[rank - 1] != 2 * rank - 1:
        return None
    inner = _standalone(core.symbols[1 : rank - 1])
    if inner is None:
        return None
    k = len(inner.pairs)
    wrapped = (k + 1,) + inner.symbols + (k + 1,)
    if not avoids_bad_patterns(Clan(_canonicalize(wrapped))):
        return None
    shift = tuple(s + 1 if isinstance(s, int) else s for s in inner.symbols)
    shift2 = tuple(
        s + 1 + k if isinstance(s, int) else s
        for s in reverse_negate_rename(inner).symbols
    )
    rebuilt = (1,) + shift + (2 + 2 * k, 1) + shift2 + (2 + 2 * k,)
    if Clan(_canonicalize(rebuilt)) != core:
        return None
    return inner


@lru_cache(maxsize=None)
def fiber_form_d(clan: Clan) -> FiberFormD | None:
    """Smooth fiber-bundle witness for a mirror-antisymmetric clan.

    The whole clan may be the open clan up to sign flip or a threaded
    block; otherwise every pattern-avoiding flank is peeled off and the
    remaining core (read through the outer twist when its rank is even
    and its first-half parity odd) must avoid the bad patterns or carry
    a witness of its own.  Convention-free: only the mirror structure
    matters, so it applies to central blocks whose parity class differs
    from their ambient clan's.
    """
    n = len(clan) // 2
    if n == 0:
        return None
    open_clan = gamma_circ_d(n)
    if clan == open_clan or clan == negate(open_clan):
        return FiberFormD("open", Clan(()), clan, n)
    inner = _threaded_inner(clan)
    if inner is not None:
        return FiberFormD("threaded", Clan(()), clan, n, inner)
    for m in range(1, n + 1):
        flank = _standalone(clan.symbols[:m])
        if flank is None or not avoids_bad_patterns(flank):
            continue
        core = _standalone(clan.symbols[m : 2 * n - m])
        if core is None:
            continue
        if concat(flank, core, reverse_negate_rename(flank)) != clan:
            continue
        rank = n - m
        if rank == 0:
            return FiberFormD("mirror", flank)
        reading = core
        if rank % 2 == 0 and _half_parity(core):
            reading = Clan(_canonicalize(_swap(core.symbols, rank - 1, rank)))
        if avoids_bad_patterns(reading):
            return FiberFormD("block", flank, core, rank)
        nested = fiber_form_d(reading)
        if nested is not None:
            return FiberFormD("block", flank, core, rank, None, nested)
    return None


class FamilyD(MirrorFamily):
    name = "d"
    opposite = True

    def __init__(self, n: int, convention: str = "paper"):
        if n < 1:
            raise ClanError("rank must be at least 1")
        if convention not in CONVENTIONS:
            raise ClanError(f"unknown convention {convention!r}; have {CONVENTIONS}")
        self.n = n
        self.convention = convention
        self.clan_length = 2 * n
        self.d_K = n * (n - 1) // 2

    def meta(self) -> dict:
        return {"family": "d", "n": self.n, "convention": self.convention}

    def __repr__(self) -> str:
        return f"FamilyD(n={self.n}, convention={self.convention!r})"

    def root_indices(self) -> range:
        # rank 1 is a torus: no simple roots at all
        return range(1, self.n + 1) if self.n >= 2 else range(0)

    def contains(self, clan: Clan) -> bool:
        return len(clan) == self.clan_length and is_antisymmetric(clan, self.convention)

    def _check(self, clan: Clan) -> None:
        if not self.contains(clan):
            raise NotAntisymmetric(
                f"{clan} is not antisymmetric of rank {self.n} ({self.convention} convention)"
            )

    def dimension(self, clan: Clan) -> int:
        self._check(clan)
        total = length_stat(clan) - middle_crossings(clan)
        if total % 2:
            raise ConsistencyError(f"odd length statistic for antisymmetric clan {clan}")
        return self.d_K + total // 2

    def _middle_move(self, sym: tuple):
        # conjugate by the middle swap, lift root n-1, conjugate back
        n = self.n
        moved = lifted_double_move(_swap(sym, n - 1, n), n - 2, n)
        return None if moved is None else _swap(moved, n - 1, n)

    def count(self) -> int:
        # the first half fixes a mirror clan under either sign rule, so
        # opposite-sign ones are as many as equal-sign ones of every
        # signature; flipping a first-half sign, or the shape of a matched
        # pair, flips the half parity, so each convention keeps half
        return sum(count_mirror_clans(self.n, p) for p in range(self.n + 1)) // 2

    def closed_clans(self) -> list[Clan]:
        want = 0 if self.convention == "paper" else self.n % 2
        out = []
        for plus_count in range(self.n + 1):
            if plus_count % 2 != want:
                continue
            for half in all_sign_clans(self.n, plus_count):
                mirror = negate(Clan(half.symbols[::-1]))
                out.append(Clan(half.symbols + mirror.symbols))
        return out

    def open_clan(self) -> Clan:
        base = gamma_circ_d(self.n)
        if self.convention == "figure" and self.n % 2:
            return negate(base)
        return base

    def tau(self, clan: Clan) -> Clan:
        """Swap the middle positions and flip all signs, then take the
        unique antisymmetric member of the result and its middle swap."""
        self._check(clan)
        n = self.n
        swapped = Clan(_canonicalize(_swap(clan.symbols, n - 1, n)))
        candidates = [negate(swapped), negate(clan)]
        picks = [c for c in candidates if is_antisymmetric(c, self.convention)]
        if len(picks) != 1:
            raise NeitherAntisymmetric(
                f"twist of {clan} produced {len(picks)} antisymmetric candidates"
            )
        return picks[0]

    def fiber_form(self, clan: Clan) -> FiberFormD | None:
        self._check(clan)
        return fiber_form_d(clan)

    def isogeny_fold(self, level: str):
        """None when orbits at the level match the simply connected ones;
        `tau` when they fold into twist classes."""
        if level not in ISOGENY_LEVELS_D:
            raise ClanError(f"family d levels are {ISOGENY_LEVELS_D}, got {level!r}")
        if self.n % 2 == 1 or level in ("sc", "so"):
            return None
        m = self.n // 2
        if level == "so-prime" and m % 2 == 0:
            return None
        return self.tau


# Compressed 4-symbol notation for rank-4 clans: signs are copied from
# the first half; a lower-case letter at positions i < j <= 4 is the pair
# (i, j) plus its mirror; an upper-case letter at (i, j) is the crossing
# pair (i, 9-j) plus its mirror.

def expand_compressed(text: str) -> Clan:
    if len(text) != 4:
        raise ValueError("compressed form encodes rank-4 clans with 4 symbols")
    letters: dict[str, list[int]] = {}
    for pos, ch in enumerate(text, start=1):
        if ch in (PLUS, MINUS):
            continue
        if not ch.isalpha():
            raise ValueError(f"bad compressed symbol {ch!r}")
        letters.setdefault(ch, []).append(pos)
    out: list = [None] * 8
    pid = 0
    for ch, positions in letters.items():
        if len(positions) != 2:
            raise ValueError(f"letter {ch!r} must occur exactly twice")
        i, j = positions
        if ch.islower():
            pairs = ((i, j), (9 - j, 9 - i))
        else:
            pairs = ((i, 9 - j), (j, 9 - i))
        for a, b in pairs:
            pid += 1
            out[a - 1] = out[b - 1] = pid
    for pos, ch in enumerate(text, start=1):
        if ch in (PLUS, MINUS):
            out[pos - 1] = ch
            out[8 - pos] = MINUS if ch == PLUS else PLUS
    if any(s is None for s in out):
        raise ValueError(f"compressed form {text!r} does not fill all 8 positions")
    return Clan.from_symbols(out)


def compress(clan: Clan) -> str:
    if len(clan) != 8:
        raise ValueError("compressed form encodes rank-4 clans only")
    out: list[str] = [""] * 4
    lower = iter("abcdefgh")
    upper = iter("ABCDEFGH")
    seen: set[frozenset[int]] = set()
    for i, j in clan.pairs:
        a, b = i + 1, j + 1
        if b <= 4:
            spots, letters = frozenset((a, b)), lower
        elif a > 4:
            continue  # mirror image of a pair already handled from the first half
        else:
            spots, letters = frozenset((a, 9 - b)), upper
        if spots in seen:
            continue
        seen.add(spots)
        ch = next(letters)
        for pos in spots:
            out[pos - 1] = ch
    for pos in range(1, 5):
        s = clan.symbols[pos - 1]
        if not isinstance(s, int):
            out[pos - 1] = s
    return "".join(out)
