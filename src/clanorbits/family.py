"""The family protocol, and the code the three families share.

`Family` is what `build_poset`, the Springer cross-validation, the CLI
and the cache read of a family, with the defaults types A and C share:
root names, sign-flip isogeny folding, and classification by pattern
avoidance or a fiber-bundle form.

`MirrorFamily` is the machinery types C and D share: clans of length
2n doubled by a mirror, enumerated from their first half, the roots
e_i - e_j and e_i + e_j of a closed orbit with their coordinate
quadruples, and simple roots below n lifted to a mirrored pair of
adjacent moves.  Each subclass supplies its mirror sign rule, its orbit
count and its move for the middle root n.
"""

from __future__ import annotations

from typing import Callable, Protocol

from .clans import Clan, _canonicalize, avoids_bad_patterns, mirror_clans, negate
from .closure import OrbitPoset, lifted_double_move
from .errors import ClanError, ConsistencyError, InvalidRoot, NotClosed

Root = tuple[int, int, int]

SIGN_FLIP_LEVELS = ("sc", "adjoint")


class Family(Protocol):
    """An orbit family: clans, simple-root raising moves, closed orbits
    with their Springer root data, classification and isogeny levels."""

    name: str
    n: int

    def meta(self) -> dict:
        """The JSON-able parameters that identify the family (cache key)."""
        ...

    def root_indices(self) -> range:
        """The 1-based simple-root labels."""
        ...

    def contains(self, clan: Clan) -> bool: ...

    def _check(self, clan: Clan) -> None:
        """Raise a `ClanError` unless the family contains `clan`."""
        ...

    def dimension(self, clan: Clan) -> int: ...

    def raise_by(self, clan: Clan, root: int) -> Clan | None:
        """The simple-root action when it raises dimension by one, else None."""
        ...

    def enumerate(self) -> list[Clan]: ...

    def count(self) -> int:
        """The number of orbits, in closed form: checked before any work.
        Raises `RankTooLarge` where `enumerate` would."""
        ...

    def closed_clans(self) -> list[Clan]: ...

    def open_clan(self) -> Clan: ...

    def positive_roots(self) -> list[Root]:
        """(i, j, eps) for e_i - e_j (eps = -1) and e_i + e_j (eps = +1)."""
        ...

    def is_noncompact(self, closed: Clan, root: Root) -> bool: ...

    def springer_move(self, closed: Clan, root: Root) -> Clan:
        """The orbit the noncompact imaginary `root` raises `closed` to."""
        ...

    @staticmethod
    def root_str(root: Root) -> str:
        i, j, eps = root
        return f"e{i}-e{j}" if eps < 0 else f"e{i}+e{j}"

    def fiber_form(self, clan: Clan):
        """Witness of an exceptional fiber-bundle form; None when there is
        none (always, in type A)."""
        return None

    def classify(self, clan: Clan) -> bool:
        """True when the orbit closure is smooth: the clan avoids the bad
        patterns, or carries an exceptional fiber-bundle form."""
        self._check(clan)
        return avoids_bad_patterns(clan) or self.fiber_form(clan) is not None

    def verdicts(self, poset: OrbitPoset) -> list[bool]:
        """`classify` per node of `poset`.  Every member of a node is
        classified: smoothness does not depend on the isogeny level, so
        members of one class that disagree raise `ConsistencyError`."""
        out = []
        for orbit, members in zip(poset.orbits, poset.members):
            found = {self.classify(m) for m in members}
            if len(found) != 1:
                raise ConsistencyError(f"classification differs across the class of {orbit}")
            out.append(found.pop())
        return out

    def isogeny_fold(self, level: str) -> Callable[[Clan], Clan] | None:
        """None when orbits at the level match the simply connected ones;
        for a signature (p, q) with p = q the adjoint level folds orbits
        into sign-flip classes."""
        if level not in SIGN_FLIP_LEVELS:
            raise ClanError(f"family {self.name} levels are {SIGN_FLIP_LEVELS}, got {level!r}")
        if level == "adjoint" and self.p == self.q:
            return negate
        return None


def middle_crossings(clan: Clan) -> int:
    """Pairs (s, t) with s in the first half, t in the second, reaching no
    further than the mirror of s (1-based: s <= n < t <= 2n+1-s)."""
    n = len(clan) // 2
    return sum(1 for i, j in clan.pairs if i < n <= j and i + j <= 2 * n - 1)


class MirrorFamily(Family):
    """Clans of length 2n whose position k mirrors position 2n+1-k."""

    #: mirror positions carry opposite signs (type D), not equal ones (type C)
    opposite: bool

    def enumerate(self) -> list[Clan]:
        return [c for c in mirror_clans(self.n, self.opposite) if self.contains(c)]

    def _middle_move(self, sym: tuple):
        """Raw symbols after the move of the middle root n, or None."""
        raise NotImplementedError

    def raise_by(self, clan: Clan, root: int) -> Clan | None:
        n = self.n
        if root not in self.root_indices():
            raise InvalidRoot(f"root {root} out of range for {self!r}")
        sym = clan.symbols
        if root < n:
            moved = lifted_double_move(sym, root - 1, 2 * n - root - 1)
        else:
            moved = self._middle_move(sym)
        if moved is None:
            return None
        out = Clan(_canonicalize(moved))
        if not self.contains(out) or self.dimension(out) != self.dimension(clan) + 1:
            raise ConsistencyError(f"raise of {clan} by {root} left the family: {out}")
        return out

    def positive_roots(self) -> list[Root]:
        # long roots 2e_i are never noncompact imaginary, so never listed
        out = []
        for i in range(1, self.n + 1):
            for j in range(i + 1, self.n + 1):
                out.append((i, j, -1))
                out.append((i, j, +1))
        return out

    def is_noncompact(self, closed: Clan, root: Root) -> bool:
        if not closed.is_all_signs():
            raise NotClosed(f"{closed} is not an all-sign clan")
        i, j, eps = root
        sym = closed.symbols
        other = j - 1 if eps < 0 else 2 * self.n - j
        return sym[i - 1] != sym[other]

    def springer_move(self, closed: Clan, root: Root) -> Clan:
        """Replace the root's coordinate quadruple by two fresh pairs."""
        i, j, eps = root
        m = 2 * self.n + 1
        if eps < 0:
            quads = ((i, j), (m - j, m - i))
        else:
            quads = ((i, m - j), (j, m - i))
        out = list(closed.symbols)
        fresh = 2 * self.n + 1
        for pid, (a, b) in enumerate(quads):
            out[a - 1] = out[b - 1] = fresh + pid
        return Clan.from_symbols(out)
