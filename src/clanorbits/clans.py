"""Clans: involutions with signed fixed points, stored by mate position.

A clan of signature ``(p, q)`` is a string of length ``p + q`` whose
entries are ``'+'``, ``'-'`` or natural numbers, with every number
occurring exactly twice.  Two entries carrying the same number form a
*pair* (the two positions swapped by the underlying involution); sign
entries are the signed fixed points.  The number of distinct pairs plus
the number of ``'+'`` entries is ``p``; pairs plus ``'-'`` entries is
``q``.

Pair labels are opaque: only "same number" matters.  A clan is stored
as its *code*, one slot per position: the sign at a signed fixed point,
the 0-based position of the mate at a pair.  The code names no labels,
so it is canonical by construction: ``2,2,5,5`` and ``1,1,2,2`` both
store ``(1, 0, 3, 2)``, equality is tuple equality, and a move edits a
few slots without relabelling the rest.  The labelled form
(`Clan.symbols`, pair ids 1, 2, 3, ... in order of first occurrence) is
derived from the code once per clan, for the text format only; code
that cuts a clan into blocks reads the code through `block`.

Text format, unchanged by the storage: comma-separated tokens
(``1,+,-,1``).  A compact digit form without commas (``1+-1``) is
accepted whenever every pair id is a single digit; multi-digit ids need
the comma form.
"""

from __future__ import annotations

import math
from itertools import combinations, product
from typing import Iterator, Sequence

from .errors import (
    MalformedToken,
    OddLength,
    PairCountNotTwo,
    RankTooLarge,
)

PLUS = "+"
MINUS = "-"

#: cap on clan length accepted by the enumerators and their closed-form counts
MAX_ENUM_LENGTH = 16


class Clan:
    """An immutable clan, stored as its code.

    ``code[i]`` is ``'+'`` or ``'-'`` at a signed fixed point and the
    0-based position of the mate at a pair.  Construct via
    :meth:`from_symbols` or :func:`parse_clan`; the bare constructor
    trusts its argument to be a valid code (mates point at each other).
    """

    __slots__ = ("code", "_symbols")

    def __init__(self, code: tuple):
        self.code = code
        self._symbols = None

    @classmethod
    def from_symbols(cls, symbols: Sequence) -> "Clan":
        """The clan of a labelled string: signs, and pair ids occurring twice."""
        code = list(symbols)
        first: dict[int, int] = {}
        bad = set()
        for i, s in enumerate(symbols):
            if s == PLUS or s == MINUS:
                continue
            if not isinstance(s, int) or s < 1:
                raise MalformedToken(f"clan entry must be '+', '-' or a positive integer, got {s!r}")
            j = first.get(s)
            if j is None:
                first[s] = i
                code[i] = None
            elif code[j] is None:
                code[i], code[j] = j, i
            else:
                bad.add(s)
        bad.update(s for s, j in first.items() if code[j] is None)
        if bad:
            raise PairCountNotTwo(f"pair ids {sorted(bad)} do not occur exactly twice")
        return cls(tuple(code))

    @property
    def symbols(self) -> tuple:
        """The labelled form: pair ids 1, 2, 3, ... in order of first
        occurrence.  Derived from the code on first use, then kept."""
        if self._symbols is None:
            out = list(self.code)
            label = 0
            for i, m in enumerate(self.code):
                if isinstance(m, int):
                    if m > i:
                        label += 1
                        out[i] = label
                    else:
                        out[i] = out[m]
            self._symbols = tuple(out)
        return self._symbols

    @property
    def mates(self) -> tuple:
        """mates[i] is the position paired with i, or -1 at a sign."""
        return tuple(m if isinstance(m, int) else -1 for m in self.code)

    @property
    def pairs(self) -> tuple:
        """Pair positions (i, j) with i < j, 0-based, ordered by i."""
        return tuple((i, m) for i, m in enumerate(self.code) if isinstance(m, int) and m > i)

    @property
    def signature(self) -> tuple[int, int]:
        code = self.code
        nplus = code.count(PLUS)
        nminus = code.count(MINUS)
        npair = (len(code) - nplus - nminus) // 2
        return (npair + nplus, npair + nminus)

    def is_all_signs(self) -> bool:
        code = self.code
        return code.count(PLUS) + code.count(MINUS) == len(code)

    def compact(self) -> str:
        """Digit-string form, falling back to comma form for ids > 9."""
        if len(self.pairs) > 9:
            return str(self)
        return "".join(str(s) for s in self.symbols)

    def __len__(self) -> int:
        return len(self.code)

    def __eq__(self, other) -> bool:
        return isinstance(other, Clan) and self.code == other.code

    def __hash__(self) -> int:
        return hash(self.code)

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


def enumerate_clans(p: int, q: int) -> list[Clan]:
    """All clans of signature (p, q)."""
    if p < 0 or q < 0:
        raise ValueError("signature parts must be nonnegative")
    n = p + q
    _check_length(n)
    out = []
    for k in range(min(p, q) + 1):
        for pair_positions in combinations(range(n), 2 * k):
            rest = [i for i in range(n) if i not in pair_positions]
            for matching in _perfect_matchings(pair_positions):
                base: list = [MINUS] * n
                for i, j in matching:
                    base[i], base[j] = j, i
                for plus_positions in combinations(rest, p - k):
                    code = base[:]
                    for i in plus_positions:
                        code[i] = PLUS
                    out.append(Clan(tuple(code)))
    return out


def mirror_clans(n: int, opposite: bool) -> list[Clan]:
    """All clans of length 2n equal to their own mirror image:
    position 2n-1-i carries the sign of position i (the opposite sign
    when `opposite`), and pairs mirror to pairs, never onto themselves.

    Such a clan is fixed by its first half.  Match 2k first-half
    positions; each matched (a, b) is either closed, the pairs (a, b)
    and (2n-1-b, 2n-1-a), or crossing, the pairs (a, 2n-1-b) and
    (b, 2n-1-a); sign the other positions.  Every clan comes out once.
    Signatures are mixed: the families keep their own.

    >>> [str(c) for c in mirror_clans(1, opposite=True)]
    ['+,-', '-,+']
    >>> sorted(str(c) for c in mirror_clans(2, opposite=False) if not c.is_all_signs())
    ['1,1,2,2', '1,2,1,2']
    """
    if n < 0:
        raise ValueError("rank must be nonnegative")
    _check_length(2 * n)
    last = 2 * n - 1
    mirror_sign = {PLUS: MINUS, MINUS: PLUS} if opposite else {PLUS: PLUS, MINUS: MINUS}
    out = []
    for k in range(n // 2 + 1):
        for paired in combinations(range(n), 2 * k):
            rest = [i for i in range(n) if i not in paired]
            for matching in _perfect_matchings(paired):
                for crossing in product((False, True), repeat=k):
                    base: list = [None] * (2 * n)
                    for (a, b), cross in zip(matching, crossing):
                        # a pairs with b, or with the mirror of b
                        c = last - b if cross else b
                        base[a], base[c] = c, a
                        base[last - a], base[last - c] = last - c, last - a
                    for signs in product((PLUS, MINUS), repeat=len(rest)):
                        code = base[:]
                        for i, s in zip(rest, signs):
                            code[i] = s
                            code[last - i] = mirror_sign[s]
                        out.append(Clan(tuple(code)))
    return out


def _check_length(length: int) -> None:
    if length > MAX_ENUM_LENGTH:
        raise RankTooLarge(f"clan length {length} exceeds enumeration cap {MAX_ENUM_LENGTH}")


def _matchings(k: int) -> int:
    """(2k-1)!!, the number of perfect matchings on 2k points."""
    return math.prod(range(1, 2 * k, 2))


def count_clans(p: int, q: int) -> int:
    """Closed-form count of clans of signature (p, q).

    Sums over the number of pairs k: choose the 2k paired positions,
    match them ((2k-1)!! ways), then place p-k plus signs.  Refuses
    the lengths `enumerate_clans` refuses, so a count taken first
    stands in for the enumeration's cap.
    """
    n = p + q
    _check_length(n)
    total = 0
    for k in range(min(p, q) + 1):
        total += math.comb(n, 2 * k) * _matchings(k) * math.comb(n - 2 * k, p - k)
    return total


def count_mirror_clans(n: int, p: int) -> int:
    """Closed-form count of the clans of `mirror_clans(n, opposite=False)`
    with signature (2p, 2(n-p)).

    Sums over the k matched first-half pairs: choose their 2k positions,
    match them, pick one of two shapes for each, then place the p-k
    first-half plus signs.  Refuses the lengths `mirror_clans` refuses.
    """
    _check_length(2 * n)
    total = 0
    for k in range(min(p, n - p) + 1):
        total += math.comb(n, 2 * k) * _matchings(k) * 2**k * math.comb(n - 2 * k, p - k)
    return total


def length_stat(clan: Clan) -> int:
    """Sum over pairs (i, j) of (j - i) minus the pairs started before i
    and finished strictly inside (i, j).

    >>> length_stat(parse_clan("1,2,2,1"))
    4
    >>> length_stat(parse_clan("1,2,1,2"))
    3
    """
    code = clan.code
    total = 0
    for i, j in enumerate(code):
        if isinstance(j, int) and j > i:
            total += j - i
            for s in code[i + 1 : j]:
                if isinstance(s, int) and s < i:  # its pair started before i
                    total -= 1
    return total


def includes_pattern(clan: Clan, pattern: Clan) -> bool:
    """Order-preserving containment of `pattern` inside `clan`.

    Positions of `clan` are selected left to right; a pattern sign must
    land on the identical sign, and a pattern pair must land on both
    mates of one clan pair, in the same relative positions.  Selecting
    one mate of a clan pair without the other never matches.
    """
    g = clan.code
    p = pattern.code
    m, n = len(p), len(g)
    if m > n:
        return False
    chosen = [0] * m

    def extend(k: int, start: int) -> bool:
        if k == m:
            return True
        if n - start < m - k:
            return False
        want = p[k]
        if isinstance(want, int):
            if want < k:
                gi = g[chosen[want]]
                if gi < start:
                    return False
                chosen[k] = gi
                return extend(k + 1, gi + 1)
            for gi in range(start, n):
                if isinstance(g[gi], int) and g[gi] > gi:
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
        tuple(MINUS if s == PLUS else PLUS if s == MINUS else s for s in clan.code)
    )


def reverse_rename(clan: Clan) -> Clan:
    """Reverse the position order; pair ids renumber canonically."""
    last = len(clan) - 1
    return Clan(tuple(last - m if isinstance(m, int) else m for m in clan.code[::-1]))


def reverse_negate_rename(clan: Clan) -> Clan:
    return negate(reverse_rename(clan))


def concat(*clans: Clan) -> Clan:
    """Juxtapose: each clan's mate positions shift by the length before it."""
    code: list = []
    for c in clans:
        offset = len(code)
        code.extend(m + offset if isinstance(m, int) else m for m in c.code)
    return Clan(tuple(code))


def block(clan: Clan, lo: int, hi: int) -> Clan | None:
    """Positions lo..hi-1 as a clan of their own, or None when a pair
    leaves them.

    >>> str(block(parse_clan("1,+,2,2,1,-"), 2, 4))
    '1,1'
    >>> block(parse_clan("1,+,2,2,1,-"), 0, 3) is None
    True
    >>> block(parse_clan("1,+,2,2,1,-"), 3, 3)
    Clan('')
    """
    code = clan.code[lo:hi]
    if any(isinstance(m, int) and not lo <= m < hi for m in code):
        return None
    return Clan(tuple(m - lo if isinstance(m, int) else m for m in code))


def _check_even(clan: Clan) -> int:
    n2 = len(clan)
    if n2 % 2:
        raise OddLength(f"clan of odd length {n2} has no mirror structure")
    return n2


def _mirror_pairs_ok(clan: Clan) -> bool:
    code = clan.code
    last = len(code) - 1
    for i, j in enumerate(code):
        if isinstance(j, int) and (j == last - i or code[last - i] != last - j):
            return False
    return True


def is_symmetric(clan: Clan) -> bool:
    """Mirror position carries the same sign; pairs mirror to pairs,
    never onto themselves."""
    _check_even(clan)
    code = clan.code
    last = len(code) - 1
    for i, s in enumerate(code):
        if not isinstance(s, int) and code[last - i] != s:
            return False
    return _mirror_pairs_ok(clan)


CONVENTIONS = ("paper", "figure")


def _half_parity(clan: Clan) -> int:
    # plus signs plus whole pairs among the first half
    n = len(clan) // 2
    half = clan.code[:n]
    pairs_first_half = sum(1 for i, j in enumerate(half) if isinstance(j, int) and i < j < n)
    return (half.count(PLUS) + pairs_first_half) % 2


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
    code = clan.code
    last = n2 - 1
    for i, s in enumerate(code):
        if not isinstance(s, int):
            other = code[last - i]
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
