"""The family protocol, and the code the three families share.

`Family` is what `build_poset`, the Springer cross-validation, the CLI
and the cache read of a family, with the defaults types A and C share:
root names, sign-flip isogeny folding, and classification by pattern
avoidance or a fiber-bundle form.

`MirrorFamily` is the machinery types C and D share: clans of length
2n built by `clans.mirror_double` from their first half; the closed
orbits, doubles of all-sign halves; the dimension, whose middle-crossing
term changes sign with the mirror sign rule; the roots e_i - e_j and
e_i + e_j of a closed orbit with their coordinate quadruples; and simple
roots below n lifted to a mirrored pair of adjacent moves.  Each
subclass supplies its sign rule, the plus counts of its closed halves,
its enumeration, its orbit count and its move for the middle root n.
"""

from __future__ import annotations

from typing import Callable, Iterable, Protocol

from .clans import Clan, all_sign_clans, avoids_bad_patterns, length_stat, negate
from .clans import mirror_double, mirror_doubles
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

    def _check(self, clan: Clan) -> None:
        """Raise a `ClanError` unless the family contains `clan`."""
        ...

    def contains(self, clan: Clan) -> bool:
        try:
            self._check(clan)
        except ClanError:
            return False
        return True

    def _dimension(self, clan: Clan) -> int:
        """The dimension without the membership check: for the weak-order
        walk, whose comparison with the enumeration checks membership once."""
        ...

    def dimension(self, clan: Clan) -> int:
        self._check(clan)
        return self._dimension(clan)

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
        self._check(clan)
        return self._fiber_form(clan)

    _fiber_form = staticmethod(lambda clan: None)  # unchecked, for `classify`

    def classify(self, clan: Clan) -> bool:
        """True when the orbit closure is smooth: the clan avoids the bad
        patterns, or carries an exceptional fiber-bundle form."""
        self._check(clan)
        return avoids_bad_patterns(clan) or self._fiber_form(clan) is not None

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


def pair_signs(code: tuple, pairs) -> tuple:
    """The code with each (a, b) of `pairs`, two signed positions, made a
    pair: the Springer move of a closed orbit."""
    out = list(code)
    for a, b in pairs:
        if isinstance(out[a], int) or isinstance(out[b], int):
            raise NotClosed(f"position {a + 1} or {b + 1} of {Clan(code)} is not a sign")
        out[a], out[b] = b, a
    return tuple(out)


def middle_crossings(clan: Clan) -> int:
    """Pairs (s, t) with s in the first half, t in the second, reaching no
    further than the mirror of s (1-based: s <= n < t <= 2n+1-s)."""
    n = len(clan) // 2
    return sum(
        1 for i, j in enumerate(clan.code[:n]) if isinstance(j, int) and n <= j <= 2 * n - 1 - i
    )


def crossed_open(pairs: int, signs: tuple, opposite: bool) -> Clan:
    """`pairs` adjacent pairs, then `signs`, doubled with every pair
    crossing: the open orbits of types C and D."""
    half = Clan(tuple(i ^ 1 for i in range(2 * pairs)) + signs)
    return mirror_double(half, (True,) * pairs, opposite)


class MirrorFamily(Family):
    """Clans of length 2n whose position k mirrors position 2n+1-k."""

    #: mirror positions carry opposite signs (type D), not equal ones (type C)
    opposite: bool
    #: the plus counts of the first halves of the closed orbits
    closed_plus: Iterable[int]

    def closed_clans(self) -> list[Clan]:
        halves = (h for plus in self.closed_plus for h in all_sign_clans(self.n, plus))
        return mirror_doubles(halves, self.opposite)

    def _dimension(self, clan: Clan) -> int:
        """d(K) + (l +- middle crossings)/2: minus when `opposite`."""
        crossings = middle_crossings(clan)
        total = length_stat(clan) + (-crossings if self.opposite else crossings)
        if total % 2:
            raise ConsistencyError(f"odd length statistic for clan {clan}")
        return self.d_K + total // 2

    def _middle_move(self, code: tuple):
        """The code after the move of the middle root n, or None."""
        raise NotImplementedError

    def raise_by(self, clan: Clan, root: int) -> Clan | None:
        """The lifted move; membership and grading of the result are
        checked once per orbit by the weak-order walk, not per move."""
        n = self.n
        if root not in self.root_indices():
            raise InvalidRoot(f"root {root} out of range for {self!r}")
        if root < n:
            moved = lifted_double_move(clan.code, root - 1, 2 * n - root - 1)
        else:
            moved = self._middle_move(clan.code)
        return None if moved is None else Clan(moved)

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
        code = closed.code
        other = j - 1 if eps < 0 else 2 * self.n - j
        return code[i - 1] != code[other]

    def springer_move(self, closed: Clan, root: Root) -> Clan:
        """Pair up the root's coordinate quadruple: two 2-slot edits."""
        i, j, eps = root
        m = 2 * self.n
        if eps < 0:
            quads = ((i - 1, j - 1), (m - j, m - i))
        else:
            quads = ((i - 1, m - j), (j - 1, m - i))
        return Clan(pair_signs(closed.code, quads))
