"""The U(p,q) family: GL(p) x GL(q) orbits on the type-A flag variety.

Orbits are the clans of signature (p, q).  Simple roots are the adjacent
transpositions 1..n-1; the raising action is the plain adjacent move.
The positive roots are e_i - e_j, each pairing up positions i and j.
Dimension is d(K) + l(clan) with d(K) = (p(p-1) + q(q-1))/2.  An orbit
closure is smooth exactly when the clan avoids the eight bad patterns,
and smooth and rationally smooth coincide.

When p = q the adjoint form's symmetric subgroup gains a component and
its orbits are the sign-flip classes {clan, -clan}; classification is
flip-invariant, so it descends to classes.
"""

from __future__ import annotations

from .clans import Clan, MINUS, PLUS, all_sign_clans, count_clans, enumerate_clans, length_stat
from .clans import avoids_bad_patterns  # noqa: F401  perfbench's tracer test patches it here
from .closure import _move
from .errors import ClanError, SignatureMismatch
from .family import Family, Root


def nested_open_clan(p: int, q: int) -> Clan:
    """The dense orbit's clan: min(p,q) nested pairs around a sign block."""
    k = min(p, q)
    last = p + q - 1
    sign = PLUS if p >= q else MINUS
    head = tuple(range(last, last - k, -1))  # position i pairs with last - i
    tail = tuple(range(k - 1, -1, -1))
    return Clan(head + (sign,) * abs(p - q) + tail)


class FamilyA(Family):
    name = "a"
    root_signs = (-1,)

    def __init__(self, p: int, q: int):
        if p < 0 or q < 0:
            raise ClanError("signature parts must be nonnegative")
        self.p = p
        self.q = q
        self.n = p + q
        self.clan_length = self.n
        self.d_K = (p * (p - 1) + q * (q - 1)) // 2
        self.fold_levels = ("adjoint",) if p == q else ()

    def meta(self) -> dict:
        return {"family": "a", "p": self.p, "q": self.q}

    def __repr__(self) -> str:
        return f"FamilyA(p={self.p}, q={self.q})"

    def root_indices(self) -> range:
        return range(1, self.n)

    def _check(self, clan: Clan) -> None:
        if len(clan) != self.n or clan.signature != (self.p, self.q):
            raise SignatureMismatch(
                f"{clan} has signature {clan.signature}, family wants {(self.p, self.q)}"
            )

    def _dimension(self, clan: Clan) -> int:
        return self.d_K + length_stat(clan)

    def _raise(self, code: tuple, root: int) -> tuple | None:
        return _move(code, root - 1)

    def enumerate(self) -> list[Clan]:
        return enumerate_clans(self.p, self.q)

    def count(self) -> int:
        return count_clans(self.p, self.q)

    def closed_clans(self) -> list[Clan]:
        return all_sign_clans(self.n, self.p)

    def open_clan(self) -> Clan:
        return nested_open_clan(self.p, self.q)

    def _root_slots(self, root: Root) -> tuple[tuple[int, int], ...]:
        i, j, _ = root  # eps is -1: type A has no e_i + e_j roots
        return ((i - 1, j - 1),)
