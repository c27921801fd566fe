"""Clans: involutions with signed fixed points, kept as canonical strings.

A clan of signature ``(p, q)`` is a string of length ``p + q`` whose
entries are ``'+'``, ``'-'`` or natural numbers, with every number
occurring exactly twice.  Two entries carrying the same number form a
*pair* (the two positions swapped by the underlying involution); sign
entries are the signed fixed points.  The number of distinct pairs plus
the number of ``'+'`` entries is ``p``; pairs plus ``'-'`` entries is
``q``.

Pair labels are opaque: only "same number" matters.  Clans are stored
canonically, with pair ids renumbered 1, 2, 3, ... in order of first
occurrence, so ``2,2,5,5`` and ``1,1,2,2`` are the same clan and
equality is tuple equality.

Text format: comma-separated tokens (``1,+,-,1``).  A compact digit form
without commas (``1+-1``) is accepted whenever every pair id is a single
digit; multi-digit ids need the comma form.
"""

from __future__ import annotations

import math
from itertools import combinations
from typing import Iterator, Sequence

from .errors import (
    MalformedToken,
    OddLength,
    PairCountNotTwo,
    RankTooLarge,
)

PLUS = "+"
MINUS = "-"

#: cap on clan length accepted by `enumerate_clans`
MAX_ENUM_LENGTH = 16


def _canonicalize(symbols) -> tuple:
    relabel: dict[int, int] = {}
    out = []
    for s in symbols:
        if s == PLUS or s == MINUS:
            out.append(s)
        else:
            if s not in relabel:
                relabel[s] = len(relabel) + 1
            out.append(relabel[s])
    return tuple(out)


class Clan:
    """An immutable clan in canonical form.

    Construct via :meth:`from_symbols` or :func:`parse_clan`; the bare
    constructor trusts its argument to be canonical already.
    """

    __slots__ = ("symbols", "_mates", "_sig")

    def __init__(self, symbols: tuple):
        self.symbols = symbols
        self._mates = None
        self._sig = None

    @classmethod
    def from_symbols(cls, symbols: Sequence) -> "Clan":
        counts: dict[int, int] = {}
        for s in symbols:
            if s == PLUS or s == MINUS:
                continue
            if not isinstance(s, int) or s < 1:
                raise MalformedToken(f"clan entry must be '+', '-' or a positive integer, got {s!r}")
            counts[s] = counts.get(s, 0) + 1
        bad = [k for k, c in counts.items() if c != 2]
        if bad:
            raise PairCountNotTwo(f"pair ids {sorted(bad)} do not occur exactly twice")
        return cls(_canonicalize(symbols))

    @property
    def mates(self) -> tuple:
        """mates[i] is the position paired with i, or -1 at a sign."""
        if self._mates is None:
            first: dict[int, int] = {}
            mates = [-1] * len(self.symbols)
            for i, s in enumerate(self.symbols):
                if isinstance(s, int):
                    if s in first:
                        j = first[s]
                        mates[i] = j
                        mates[j] = i
                    else:
                        first[s] = i
            self._mates = tuple(mates)
        return self._mates

    @property
    def pairs(self) -> tuple:
        """Pair positions (i, j) with i < j, 0-based, ordered by i."""
        m = self.mates
        return tuple((i, m[i]) for i in range(len(m)) if m[i] > i)

    @property
    def signature(self) -> tuple[int, int]:
        if self._sig is None:
            npair = nplus = nminus = 0
            for s in self.symbols:
                if s == PLUS:
                    nplus += 1
                elif s == MINUS:
                    nminus += 1
                else:
                    npair += 1
            npair //= 2
            self._sig = (npair + nplus, npair + nminus)
        return self._sig

    def is_all_signs(self) -> bool:
        return all(not isinstance(s, int) for s in self.symbols)

    def compact(self) -> str:
        """Digit-string form, falling back to comma form for ids > 9."""
        if any(isinstance(s, int) and s > 9 for s in self.symbols):
            return str(self)
        return "".join(str(s) for s in self.symbols)

    def __len__(self) -> int:
        return len(self.symbols)

    def __eq__(self, other) -> bool:
        return isinstance(other, Clan) and self.symbols == other.symbols

    def __hash__(self) -> int:
        return hash(self.symbols)

    def __lt__(self, other: "Clan") -> bool:
        return str(self) < str(other)

    def __str__(self) -> str:
        return ",".join(str(s) for s in self.symbols)

    def __repr__(self) -> str:
        return f"Clan({str(self)!r})"


def parse_clan(text: str) -> Clan:
    """Parse the comma token form, or the compact digit form.

    >>> str(parse_clan("2,2,5,5"))
    '1,1,2,2'
    >>> parse_clan("1+-1").signature
    (2, 2)
    """
    text = text.strip()
    if "," in text:
        tokens = [t.strip() for t in text.split(",")]
    else:
        tokens = list(text)
    symbols = []
    for tok in tokens:
        if tok == PLUS or tok == MINUS:
            symbols.append(tok)
        elif tok.isdigit() and tok != "0" and not tok.startswith("0"):
            symbols.append(int(tok))
        elif tok == "":
            raise MalformedToken("empty clan token")
        else:
            raise MalformedToken(f"bad clan token {tok!r}")
    return Clan.from_symbols(symbols)


def _perfect_matchings(positions: tuple) -> Iterator[tuple]:
    if not positions:
        yield ()
        return
    first, rest = positions[0], positions[1:]
    for k, other in enumerate(rest):
        for sub in _perfect_matchings(rest[:k] + rest[k + 1 :]):
            yield ((first, other),) + sub


def enumerate_clans(p: int, q: int, max_length: int = MAX_ENUM_LENGTH) -> list[Clan]:
    """All canonical clans of signature (p, q)."""
    if p < 0 or q < 0:
        raise ValueError("signature parts must be nonnegative")
    n = p + q
    if n > max_length:
        raise RankTooLarge(f"clan length {n} exceeds enumeration cap {max_length}")
    out = []
    for k in range(min(p, q) + 1):
        for pair_positions in combinations(range(n), 2 * k):
            rest = [i for i in range(n) if i not in pair_positions]
            for matching in _perfect_matchings(pair_positions):
                base: list = [None] * n
                for pid, (i, j) in enumerate(matching, start=1):
                    base[i] = base[j] = pid
                for plus_positions in combinations(rest, p - k):
                    plus = set(plus_positions)
                    symbols = tuple(
                        base[i] if base[i] is not None else (PLUS if i in plus else MINUS)
                        for i in range(n)
                    )
                    out.append(Clan(_canonicalize(symbols)))
    return out


def count_clans(p: int, q: int) -> int:
    """Closed-form count of clans of signature (p, q).

    Sums over the number of pairs k: choose the 2k paired positions,
    match them ((2k-1)!! ways), then place p-k plus signs.
    """
    n = p + q
    total = 0
    for k in range(min(p, q) + 1):
        matchings = math.prod(range(1, 2 * k, 2)) if k else 1
        total += math.comb(n, 2 * k) * matchings * math.comb(n - 2 * k, p - k)
    return total


def length_stat(clan: Clan) -> int:
    """Sum over pairs (i, j) of (j - i) minus the pairs started before i
    and finished strictly inside (i, j).

    >>> length_stat(parse_clan("1,2,2,1"))
    4
    >>> length_stat(parse_clan("1,2,1,2"))
    3
    """
    ps = clan.pairs
    total = 0
    for i, j in ps:
        inner = sum(1 for s, t in ps if s < i < t < j)
        total += (j - i) - inner
    return total


def includes_pattern(clan: Clan, pattern: Clan) -> bool:
    """Order-preserving containment of `pattern` inside `clan`.

    Positions of `clan` are selected left to right; a pattern sign must
    land on the identical sign, and a pattern pair must land on both
    mates of one clan pair, in the same relative positions.  Selecting
    one mate of a clan pair without the other never matches.
    """
    g = clan.symbols
    p = pattern.symbols
    m, n = len(p), len(g)
    if m > n:
        return False
    gm = clan.mates
    pm = pattern.mates
    chosen = [0] * m

    def extend(k: int, start: int) -> bool:
        if k == m:
            return True
        if n - start < m - k:
            return False
        want = p[k]
        if isinstance(want, int):
            if pm[k] < k:
                gi = gm[chosen[pm[k]]]
                if gi < start:
                    return False
                chosen[k] = gi
                return extend(k + 1, gi + 1)
            for gi in range(start, n):
                if isinstance(g[gi], int) and gm[gi] > gi:
                    chosen[k] = gi
                    if extend(k + 1, gi + 1):
                        return True
            return False
        for gi in range(start, n):
            if g[gi] == want and extend(k + 1, gi + 1):
                return True
        return False

    return extend(0, 0)


#: the patterns whose containment forces a singular orbit closure.  The
#: last, sign-free one (an outer pair over two disjoint pairs) needs six
#: entries and so first matters at rank 6; dropping it would contradict
#: the root-counting criterion on 1,2,2,3,3,1, whose raised closed
#: orbits all stay below it by plain sign-pair moves.
BAD_PATTERNS: tuple[Clan, ...] = tuple(
    parse_clan(s)
    for s in (
        "1,+,-,1",
        "1,-,+,1",
        "1,2,1,2",
        "1,+,2,2,1",
        "1,-,2,2,1",
        "1,2,2,+,1",
        "1,2,2,-,1",
        "1,2,2,3,3,1",
    )
)


def avoids_bad_patterns(clan: Clan) -> bool:
    return not any(includes_pattern(clan, bad) for bad in BAD_PATTERNS)


def negate(clan: Clan) -> Clan:
    """Flip every sign; pairs are untouched."""
    return Clan(
        tuple(MINUS if s == PLUS else PLUS if s == MINUS else s for s in clan.symbols)
    )


def reverse_rename(clan: Clan) -> Clan:
    """Reverse the position order; pair ids renumber canonically."""
    return Clan(_canonicalize(clan.symbols[::-1]))


def reverse_negate_rename(clan: Clan) -> Clan:
    return negate(reverse_rename(clan))


def concat(*clans: Clan) -> Clan:
    """Juxtapose with disjoint pair ids, then canonicalize."""
    symbols: list = []
    offset = 0
    for c in clans:
        symbols.extend(s + offset if isinstance(s, int) else s for s in c.symbols)
        offset += len(c.pairs)
    return Clan(_canonicalize(symbols))


def _check_even(clan: Clan) -> int:
    n2 = len(clan)
    if n2 % 2:
        raise OddLength(f"clan of odd length {n2} has no mirror structure")
    return n2


def _mirror_pairs_ok(clan: Clan) -> bool:
    sym = clan.symbols
    mates = clan.mates
    last = len(sym) - 1
    for i, s in enumerate(sym):
        if isinstance(s, int):
            j = mates[i]
            if j == last - i:
                return False
            if mates[last - i] != last - j:
                return False
    return True


def is_symmetric(clan: Clan) -> bool:
    """Mirror position carries the same sign; pairs mirror to pairs,
    never onto themselves."""
    _check_even(clan)
    sym = clan.symbols
    last = len(sym) - 1
    for i, s in enumerate(sym):
        if not isinstance(s, int) and sym[last - i] != s:
            return False
    return _mirror_pairs_ok(clan)


CONVENTIONS = ("paper", "figure")


def _half_parity(clan: Clan) -> int:
    # plus signs plus whole pairs among the first half
    n = len(clan) // 2
    sym = clan.symbols
    plus = sum(1 for s in sym[:n] if s == PLUS)
    pairs_first_half = sum(1 for i, j in clan.pairs if j < n)
    return (plus + pairs_first_half) % 2


def is_antisymmetric(clan: Clan, convention: str = "paper") -> bool:
    """Mirror position carries the opposite sign; pairs mirror to pairs;
    plus a parity condition on the first half.

    The parity of (plus signs + whole pairs in the first half) must be 0
    under the ``paper`` convention, or congruent to n mod 2 under the
    ``figure`` convention.  The two agree for even n and are global sign
    flips of each other for odd n.
    """
    if convention not in CONVENTIONS:
        raise ValueError(f"unknown convention {convention!r}")
    n2 = _check_even(clan)
    n = n2 // 2
    sym = clan.symbols
    last = n2 - 1
    for i, s in enumerate(sym):
        if not isinstance(s, int):
            other = sym[last - i]
            if isinstance(other, int) or other == s:
                return False
    if not _mirror_pairs_ok(clan):
        return False
    want = 0 if convention == "paper" else n % 2
    return _half_parity(clan) == want


def all_sign_clans(n: int, plus: int) -> list[Clan]:
    """All length-n sign strings with the given number of plus entries."""
    out = []
    for pos in combinations(range(n), plus):
        chosen = set(pos)
        out.append(Clan(tuple(PLUS if i in chosen else MINUS for i in range(n))))
    return out
