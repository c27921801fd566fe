"""The family protocol, and the code the three families share.

`Family` is what `build_poset`, the Springer cross-validation, the CLI
and the cache read of a family, with the code all three share: the root
table (positive roots, noncompact test, Springer move), the one raise
loop `raised` (each closed orbit's noncompact roots with the orbits
they raise it to), the checked raising move, classification, and the
isogeny fold, which is the sign flip in all three types.  A family
states only its data: its `root_signs`, the position pairs
`_root_slots` of a root, its simple-root move `_raise`, its isogeny
`levels` and the `fold_levels` among them.

Smoothness does not depend on the isogeny level, so a clan's verdict
is a fact of its family: `_judge` checks a clan, searches its fiber
form and decides it once per family object, and `classify`,
`fiber_form` and `verdicts` read that memo (checking no member of a
poset the same object walked).  It holds at most `count()` entries,
keyed by the code tuples the clans hold.  `raised` is memoized the same
way, once per closed orbit, moving each root by `_pair_up`.

`MirrorFamily` is the machinery types C and D share: clans of length
2n built by `clans.mirror_double` from their first half; the closed
orbits, doubles of all-sign halves; the dimension, whose middle-crossing
term changes sign with the mirror sign rule; the roots e_i - e_j and
e_i + e_j with their mirrored slot pairs; and simple roots below n
lifted to a mirrored pair of adjacent moves.  Each subclass supplies
its sign rule, the plus counts of its closed halves, its enumeration,
its orbit count and its move for the middle root n.
"""

from __future__ import annotations

from functools import cached_property
from itertools import combinations
from typing import Callable, Iterable, Protocol

from .clans import Clan, all_sign_clans, avoids_bad_patterns, length_stat, negate
from .clans import mirror_double, mirror_doubles
from .closure import OrbitPoset, lifted_double_move
from .errors import ClanError, ConsistencyError, InvalidRoot, NotClosed

Root = tuple[int, int, int]

SIGN_FLIP_LEVELS = ("sc", "adjoint")

# the verdicts without a witness, shared by every memo entry that has one
_SMOOTH = (True, None)
_SINGULAR = (False, None)


class Family(Protocol):
    """An orbit family: clans, simple-root raising moves, closed orbits
    with their Springer root data, classification and isogeny levels."""

    name: str
    n: int
    clan_length: int

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
        """Whether the family holds `clan`: the walk asks each new orbit once."""
        try:
            self._check(clan)
        except ClanError:
            return False
        return True

    def _dimension(self, clan: Clan) -> int:
        """The dimension without the membership check: for the weak-order
        walk, which has checked the orbit with `contains`."""
        ...

    def dimension(self, clan: Clan) -> int:
        self._check(clan)
        return self._dimension(clan)

    def _raise(self, code: tuple, root: int) -> tuple | None: ...  # the moved code, or None

    def raise_by(self, clan: Clan, root: int) -> Clan | None:
        """The simple-root action when it raises dimension by one, else None.
        The checked entry to `_raise`: the weak-order walk moves codes with
        `_raise` itself and checks the results' membership and grading."""
        if root not in self.root_indices():
            raise InvalidRoot(f"root {root} out of range for {self!r}")
        moved = self._raise(clan.code, root)
        return None if moved is None else Clan(moved)

    def enumerate(self) -> list[Clan]: ...

    def count(self) -> int:
        """The number of orbits, in closed form: checked before any work.
        Raises `RankTooLarge` where `enumerate` would."""
        ...

    def closed_clans(self) -> list[Clan]: ...

    def open_clan(self) -> Clan: ...

    root_signs: tuple[int, ...]  # the eps of the positive roots e_i + eps e_j

    def _root_slots(self, root: Root) -> tuple[tuple[int, int], ...]: ...  # 0-based

    @cached_property
    def _root_table(self) -> dict[Root, tuple[tuple[int, int], ...]]:
        # `_root_slots` of each positive root, computed once: the explain
        # path reads them for every root
        pairs = combinations(range(1, self.n + 1), 2)
        return {(i, j, e): self._root_slots((i, j, e)) for i, j in pairs for e in self.root_signs}

    def positive_roots(self) -> list[Root]:
        """(i, j, eps), i < j <= n, for e_i - e_j (eps = -1) and e_i + e_j
        (eps = +1), each eps of `root_signs` in turn."""
        return list(self._root_table)

    def _slots(self, root: Root) -> tuple[tuple[int, int], ...]:
        """The root's slot pairs; `InvalidRoot` unless it is a positive root."""
        try:
            return self._root_table[root]
        except KeyError:
            raise InvalidRoot(f"{root!r} is not a positive root of {self!r}") from None

    def is_noncompact(self, closed: Clan, root: Root) -> bool:
        if not closed.is_all_signs():
            raise NotClosed(f"{closed} is not an all-sign clan")
        self._check(closed)
        a, b = self._slots(root)[0]
        return closed.code[a] != closed.code[b]

    @staticmethod
    def _pair_up(code: tuple, slots: tuple[tuple[int, int], ...]) -> tuple:
        """The code with each slot pair (a, b) made a pair: the unchecked
        slot edit of `springer_move` and `raised`."""
        out = list(code)
        for a, b in slots:
            out[a], out[b] = b, a
        return tuple(out)

    def springer_move(self, closed: Clan, root: Root) -> Clan:
        """The orbit the noncompact imaginary `root` raises the closed
        member `closed` to: each slot pair of the root, two opposite signs,
        becomes a pair.  A compact root (equal signs) raises `InvalidRoot`:
        pairing them would leave the family."""
        if not self.is_noncompact(closed, root):  # checks the orbit and the root
            raise InvalidRoot(f"{self.root_str(root)} is compact for {closed}")
        return Clan(self._pair_up(closed.code, self._slots(root)))

    @cached_property
    def _raised(self) -> dict[tuple, tuple[tuple[Root, Clan], ...]]:
        return {}  # closed code -> `raised` of it

    def raised(self, closed: Clan) -> tuple[tuple[Root, Clan], ...]:
        """(root, orbit) for each noncompact root of the closed orbit
        `closed`, with the orbit the root raises it to: the one raise
        loop of both Springer root counts.  Checked and moved once per
        closed orbit and family object: on a member, a root's mirrored
        slot pair is noncompact when its first is."""
        done = self._raised.get(closed.code)
        if done is not None:
            return done
        if not closed.is_all_signs():
            raise NotClosed(f"{closed} is not a closed orbit")
        self._check(closed)
        code, pair_up = closed.code, self._pair_up
        done = self._raised[code] = tuple(
            (root, Clan(pair_up(code, slots)))
            for root, slots in self._root_table.items() if code[slots[0][0]] != code[slots[0][1]])
        return done

    @staticmethod
    def root_str(root: Root) -> str:
        i, j, eps = root
        return f"e{i}-e{j}" if eps < 0 else f"e{i}+e{j}"

    _fiber_form = staticmethod(lambda clan: None)  # unchecked: `_judge` checks first

    @cached_property
    def _judged(self) -> dict[tuple, tuple[bool, object]]:
        return {}  # code -> (smooth, witness), one entry per judged member

    def _judge(self, clan: Clan, checked: bool = False) -> tuple[bool, object]:
        """(smooth, fiber-form witness) of a member clan: checked unless
        `checked`, searched and decided once per family object."""
        verdict = self._judged.get(clan.code)
        if verdict is None:
            if not checked:
                self._check(clan)
            form = self._fiber_form(clan)
            if form is not None:
                verdict = (True, form)
            else:
                verdict = _SMOOTH if avoids_bad_patterns(clan) else _SINGULAR
            self._judged[clan.code] = verdict
        return verdict

    def fiber_form(self, clan: Clan):
        """Witness of an exceptional fiber-bundle form; None when there is
        none (always, in type A).  Read off the memoized verdict; a clan
        outside the family raises its `ClanError`."""
        return self._judge(clan)[1]

    def classify(self, clan: Clan) -> bool:
        """True when the orbit closure is smooth: the clan carries an
        exceptional fiber-bundle form, or avoids the bad patterns.  Read
        off the memoized verdict; a clan outside the family raises."""
        return self._judge(clan)[0]

    def verdicts(self, poset: OrbitPoset) -> list[tuple[bool, object]]:
        """(smooth, fiber-form witness) per node of `poset`, the
        representative's memoized verdict.  Smoothness does not depend on
        the isogeny level, so every other member's verdict must agree, or
        `ConsistencyError` is raised.  Each member is searched
        once per family object, and checked once unless that object walked `poset`."""
        walked = poset.walked_by is self
        judge = self._judge
        out = []
        for orbit, members in zip(poset.orbits, poset.members):
            verdict = judge(orbit, walked)
            for m in members:  # judged as the orbit is, its memo read once
                if m != orbit and judge(m, walked)[0] != verdict[0]:
                    raise ConsistencyError(f"classification differs across the class of {orbit}")
            out.append(verdict)
        return out

    levels: tuple[str, ...] = SIGN_FLIP_LEVELS  # the levels `isogeny_fold` accepts
    fold_levels: tuple[str, ...]  # the levels whose orbits fold into sign-flip classes

    def isogeny_fold(self, level: str) -> Callable[[Clan], Clan] | None:
        """`negate` where orbits at the level fold into sign-flip classes,
        None where they match the simply connected ones."""
        if level not in self.levels:
            raise ClanError(f"family {self.name} levels are {self.levels}, got {level!r}")
        return negate if level in self.fold_levels else None


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
    root_signs = (-1, +1)  # long roots 2e_i are never noncompact imaginary

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

    def _raise(self, code: tuple, root: int) -> tuple | None:
        n = self.n
        if root < n:
            return lifted_double_move(code, root - 1, 2 * n - root - 1)
        return self._middle_move(code)

    def _root_slots(self, root: Root) -> tuple[tuple[int, int], ...]:
        """The root's coordinate quadruple, as two mirrored slot pairs."""
        i, j, eps = root
        m = 2 * self.n
        if eps < 0:
            return ((i - 1, j - 1), (m - j, m - i))
        return ((i - 1, m - j), (j - 1, m - i))
