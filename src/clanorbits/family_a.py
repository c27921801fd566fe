"""The U(p,q) family: GL(p) x GL(q) orbits on the type-A flag variety.

Orbits are the clans of signature (p, q).  Simple roots are the adjacent
transpositions 1..n-1; the raising action is the plain adjacent move.
Dimension is d(K) + l(clan) with d(K) = (p(p-1) + q(q-1))/2.  An orbit
closure is smooth exactly when the clan avoids the seven bad patterns,
and smooth and rationally smooth coincide.

When p = q the adjoint form's symmetric subgroup gains a component and
its orbits are the sign-flip classes {clan, -clan}; classification is
flip-invariant, so it descends to classes.
"""

from __future__ import annotations

from .clans import Clan, MINUS, PLUS, all_sign_clans, count_clans, enumerate_clans, length_stat
from .clans import avoids_bad_patterns  # noqa: F401  perfbench's tracer test patches it here
from .closure import simple_move_a
from .errors import ClanError, InvalidRoot, NotClosed, SignatureMismatch
from .family import Family


def nested_open_clan(p: int, q: int) -> Clan:
    """The dense orbit's clan: min(p,q) nested pairs around a sign block."""
    k = min(p, q)
    sign = PLUS if p >= q else MINUS
    symbols = list(range(1, k + 1)) + [sign] * abs(p - q) + list(range(k, 0, -1))
    return Clan(tuple(symbols))


class FamilyA(Family):
    name = "a"

    def __init__(self, p: int, q: int):
        if p < 0 or q < 0:
            raise ClanError("signature parts must be nonnegative")
        self.p = p
        self.q = q
        self.n = p + q
        self.clan_length = self.n
        self.d_K = (p * (p - 1) + q * (q - 1)) // 2

    def meta(self) -> dict:
        return {"family": "a", "p": self.p, "q": self.q}

    def __repr__(self) -> str:
        return f"FamilyA(p={self.p}, q={self.q})"

    def root_indices(self) -> range:
        return range(1, self.n)

    def contains(self, clan: Clan) -> bool:
        return len(clan) == self.n and clan.signature == (self.p, self.q)

    def _check(self, clan: Clan) -> None:
        if not self.contains(clan):
            raise SignatureMismatch(
                f"{clan} has signature {clan.signature}, family wants {(self.p, self.q)}"
            )

    def dimension(self, clan: Clan) -> int:
        self._check(clan)
        return self.d_K + length_stat(clan)

    def raise_by(self, clan: Clan, root: int) -> Clan | None:
        if not 1 <= root < self.n:
            raise InvalidRoot(f"root {root} out of range 1..{self.n - 1}")
        return simple_move_a(clan, root)

    def enumerate(self) -> list[Clan]:
        return enumerate_clans(self.p, self.q)

    def count(self) -> int:
        return count_clans(self.p, self.q)

    def closed_clans(self) -> list[Clan]:
        return all_sign_clans(self.n, self.p)

    def open_clan(self) -> Clan:
        return nested_open_clan(self.p, self.q)

    # Springer-criterion ingredients: positive roots e_i - e_j act on the
    # all-sign clans of closed orbits.
    def positive_roots(self) -> list[tuple[int, int, int]]:
        return [(i, j, -1) for i in range(1, self.n + 1) for j in range(i + 1, self.n + 1)]

    def is_noncompact(self, closed: Clan, root: tuple[int, int, int]) -> bool:
        if not closed.is_all_signs():
            raise NotClosed(f"{closed} is not an all-sign clan")
        i, j, eps = root
        if eps > 0:
            raise InvalidRoot("type A has no e_i + e_j roots")
        return closed.symbols[i - 1] != closed.symbols[j - 1]

    def springer_move(self, closed: Clan, root: tuple[int, int, int]) -> Clan:
        """The raised orbit: the two opposite signs become one pair."""
        i, j, _ = root
        fresh = 1 + self.n
        out = list(closed.symbols)
        out[i - 1] = out[j - 1] = fresh
        return Clan.from_symbols(out)
