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
(pair ids 1, 2, 3, ... in order of first occurrence) is written from the
code once per clan, as its text, and kept, since sorting and saving read
it again and again; `Clan.symbols` is read off the text on each call.
It and `Clan.from_symbols` have no caller in the package: they are
public API, kept for library callers.  Code that cuts a clan into
blocks finds the cut points with `cuts` and reads each block through
`block`.

The clans of types C and D have length 2n and mirror themselves:
position 2n-1-i repeats (or, in type D, flips) the sign at position i,
and pairs mirror to pairs.  One constructor, `mirror_double`, writes
every such clan from its first half, a clan of length n, and a closed
or crossing choice for each pair of that half; `mirror_doubles` doubles
a run of halves, and `is_symmetric`/`is_antisymmetric` check the mirror.

Text format, unchanged by the storage: comma-separated tokens
(``1,+,-,1``).  A compact digit form without commas (``1+-1``) is
accepted whenever every pair id is a single digit; multi-digit ids need
the comma form.
"""

from __future__ import annotations

import math
from collections import Counter
from itertools import combinations, product
from typing import Iterable, Iterator, Sequence

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

    __slots__ = ("code", "_text")

    def __init__(self, code: tuple):
        self.code = code
        self._text = None

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
        occurrence.  Read off the text on each call."""
        text = str(self)
        return tuple(t if t in (PLUS, MINUS) else int(t) for t in text.split(",")) if text else ()

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
        """Digit-string form, falling back to comma form for ids > 9:
        the text without its commas, unless a token has two digits."""
        text = str(self)
        digits = text.replace(",", "")
        return digits if len(digits) == len(self.code) else text

    def __len__(self) -> int:
        return len(self.code)

    def __eq__(self, other) -> bool:
        return isinstance(other, Clan) and self.code == other.code

    def __hash__(self) -> int:
        return hash(self.code)

    def __lt__(self, other: "Clan") -> bool:
        return str(self) < str(other)

    def __str__(self) -> str:
        """The labelled form, comma-separated.  Made on the first call and
        kept: the rank sort, the save and the tables all read it."""
        text = self._text
        if text is None:
            out = list(self.code)
            label = 0
            for i, m in enumerate(self.code):
                if isinstance(m, int):
                    if m > i:
                        label += 1
                        out[i] = str(label)
                    else:
                        out[i] = out[m]
            text = self._text = ",".join(out)
        return text

    def __repr__(self) -> str:
        return f"Clan({str(self)!r})"


def parse_clan(text: str) -> Clan:
    """Parse the comma token form, or the compact digit form.

    One pass, linear in the text: the text is split once and each token
    is read once, in position order.  A pair id is checked at its first
    occurrence and remembered with its position; its second occurrence
    closes the pair.  The first bad token is a `MalformedToken` (a comma
    token with whitespace around it is checked again stripped); if any
    position is left unpaired, the ids that do not occur exactly twice
    are a `PairCountNotTwo`.  Pair ids are ASCII digits without a leading
    zero.

    >>> str(parse_clan("2,2,5,5"))
    '1,1,2,2'
    >>> parse_clan("1+-1").signature
    (2, 2)
    """
    text = text.strip()
    comma = "," in text
    tokens = text.split(",") if comma else list(text)
    code = tokens[:]
    first: dict[str, int] = {}
    placed = tokens.count(PLUS) + tokens.count(MINUS)
    for k, tok in enumerate(tokens):
        if tok == PLUS or tok == MINUS:
            continue
        i = first.get(tok)
        if i is None:
            if not (tok.isdigit() and tok.isascii() and tok[0] != "0"):
                if comma and tok != tok.strip():
                    return parse_clan(",".join([t.strip() for t in tokens]))
                raise MalformedToken(f"bad clan token {tok!r}" if tok else "empty clan token")
            first[tok] = k
        elif code[i] == tok:  # still unpaired: this is the second occurrence
            code[i], code[k] = k, i
            placed += 2
    if placed != len(tokens):
        bad = sorted(int(t) for t, c in Counter(tokens).items()
                     if c != 2 and t != PLUS and t != MINUS)
        raise PairCountNotTwo(f"pair ids {bad} do not occur exactly twice")
    return Clan(tuple(code))


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


def mirror_double(half: Clan, crossing: Sequence[bool], opposite: bool) -> Clan:
    """The clan of length 2n fixed by `half`, of length n: position
    2n-1-i carries the sign at i (flipped when `opposite`), and the k-th
    pair (a, b) of `half` is closed, pairs (a, b) and (2n-1-b, 2n-1-a),
    or, when `crossing[k]`, crossing, pairs (a, 2n-1-b) and (b, 2n-1-a).

    >>> str(mirror_double(parse_clan("1,1,+"), [True], opposite=True))
    '1,2,+,-,1,2'
    """
    h = half.code
    last = 2 * len(h) - 1
    code = list(h) + [None] * len(h)
    flags = iter(crossing)
    for a, b in enumerate(h):
        if not isinstance(b, int):
            code[last - a] = (MINUS if b == PLUS else PLUS) if opposite else b
        elif b > a:
            c = last - b if next(flags) else b  # a pairs with b, or with its mirror
            code[a], code[c] = c, a
            code[last - a], code[last - c] = last - c, last - a
    return Clan(tuple(code))


def mirror_doubles(halves: Iterable[Clan], opposite: bool, parity: int | None = None) -> list[Clan]:
    """`mirror_double` of each half with each choice of crossing flags, or
    only the choices that give the double the `_half_parity` `parity`:
    the half's plus signs plus its closed pairs."""
    return [
        mirror_double(half, crossing, opposite)
        for half in halves
        for crossing in product((False, True), repeat=len(half.pairs))
        if parity is None or (half.code.count(PLUS) + crossing.count(False)) % 2 == parity
    ]


def _check_length(length: int) -> None:
    if length > MAX_ENUM_LENGTH:
        raise RankTooLarge(f"clan length {length} exceeds enumeration cap {MAX_ENUM_LENGTH}")


def _matchings(k: int) -> int:
    """(2k-1)!!, the number of perfect matchings on 2k points."""
    return math.prod(range(1, 2 * k, 2))


def _count(n: int, p: int, weight: int) -> int:
    """Sum over the k pairs among n positions: choose their 2k positions,
    match them ((2k-1)!! ways), weight the matching by weight**k, then
    place the p-k plus signs on the rest."""
    return sum(
        math.comb(n, 2 * k) * _matchings(k) * weight**k * math.comb(n - 2 * k, p - k)
        for k in range(min(p, n - p) + 1)
    )


def count_clans(p: int, q: int) -> int:
    """Closed-form count of clans of signature (p, q): `_count` with
    weight 1.  Refuses the lengths `enumerate_clans` refuses, so a count
    taken first stands in for the enumeration's cap.
    """
    _check_length(p + q)
    return _count(p + q, p, 1)


def count_mirror_clans(n: int, p: int) -> int:
    """Closed-form count of the mirror clans of length 2n with equal signs
    at mirror positions and signature (2p, 2(n-p)): `_count` over the
    first half, weight 2, since each matched first-half pair takes one of
    two shapes.  Refuses a length 2n over the enumeration cap.
    """
    _check_length(2 * n)
    return _count(n, p, 2)


def length_stat(clan: Clan) -> int:
    """Sum over pairs (i, j) of (j - i) minus the pairs started before i
    and finished strictly inside (i, j), in one pass: spans minus crossings.

    >>> length_stat(parse_clan("1,2,2,1"))
    4
    >>> length_stat(parse_clan("1,2,1,2"))
    3
    """
    total, opened = 0, []  # the first ends of the open pairs, in order
    for j, i in enumerate(clan.code):
        if isinstance(i, int):
            if i > j:
                opened.append(j)
            else:  # the pairs opened after i and still open cross (i, j)
                total += j - i - (len(opened) - 1 - opened.index(i))
                opened.remove(i)
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
    """True when `clan` contains none of the `BAD_PATTERNS`, which stay
    the definition (`includes_pattern` against each is the oracle).

    Read on single pairs (McGovern's type-A criterion), the eight
    patterns ask of each pair (s, t) one of three things: t = s + 1; one
    pair directly inside, s + 1 paired with t - 1; or an interior of
    signs only, all of one sign.  A pair that passes by the middle rule
    reads none of its interior.  A pair whose interior is read passes
    only when that interior is all signs, which no other passing pair
    reads, and the first pair that fails ends the scan: the test is
    linear in the length.

    >>> avoids_bad_patterns(parse_clan("1,2,+,+,2,1"))
    True
    >>> avoids_bad_patterns(parse_clan("1,2,2,3,3,1"))
    False
    """
    code = clan.code
    for s, t in enumerate(code):
        if isinstance(t, int) and t > s + 1 and code[s + 1] != t - 1:
            sign = code[s + 1]
            if isinstance(sign, int) or code[s + 2 : t].count(sign) != t - s - 2:
                return False
    return True


def negate(clan: Clan) -> Clan:
    """Flip every sign; pairs are untouched."""
    return Clan(
        tuple(MINUS if s == PLUS else PLUS if s == MINUS else s for s in clan.code)
    )


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


def cuts(code: tuple) -> Iterator[int]:
    """The cut points of a code, in order: the m, 0 <= m <= len(code),
    that no pair steps over, read off one running max of mate positions.
    `block` cuts positions lo..hi-1 out whole when lo and hi are both
    cut points.

    >>> list(cuts(parse_clan("1,+,2,2,1,-").code))
    [0, 5, 6]
    """
    reach = 0  # one past the furthest mate seen so far
    for m, x in enumerate(code):
        if m >= reach:
            yield m
        if isinstance(x, int) and x >= reach:
            reach = x + 1
    yield len(code)


#: the sign a mirror position must carry, by sign rule (`opposite`) and sign
_FACING = {False: {PLUS: PLUS, MINUS: MINUS}, True: {PLUS: MINUS, MINUS: PLUS}}


def _is_mirror(clan: Clan, opposite: bool) -> bool:
    """Position 2n-1-i carries the sign of i (the opposite sign when
    `opposite`); pairs mirror to pairs, never onto themselves.  Only the
    first half is scanned: a sign must face its sign, and a pair end
    facing the mirror of its mate makes the mirrored pair, since mates
    point at each other."""
    code = clan.code
    if len(code) % 2:
        raise OddLength(f"clan of odd length {len(code)} has no mirror structure")
    last = len(code) - 1
    facing = _FACING[opposite]
    for i in range(len(code) // 2):
        m = code[i]
        other = code[last - i]
        if isinstance(m, int):
            if m == last - i or other != last - m:
                return False
        elif other != facing[m]:
            return False
    return True


def is_symmetric(clan: Clan) -> bool:
    """Mirror position carries the same sign; pairs mirror to pairs,
    never onto themselves."""
    return _is_mirror(clan, opposite=False)


CONVENTIONS = ("paper", "figure")


def _half_parity(clan: Clan) -> int:
    # plus signs plus whole pairs among the first half: a whole pair has
    # both ends there, each with its mate there too
    n = len(clan) // 2
    half = clan.code[:n]
    ends = len([j for j in half if isinstance(j, int) and j < n])
    return (half.count(PLUS) + ends // 2) % 2


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
    if not _is_mirror(clan, opposite=True):
        return False
    want = 0 if convention == "paper" else len(clan) // 2 % 2
    return _half_parity(clan) == want


def all_sign_clans(n: int, plus: int) -> list[Clan]:
    """All length-n sign strings with the given number of plus entries."""
    out = []
    for pos in combinations(range(n), plus):
        chosen = set(pos)
        out.append(Clan(tuple(PLUS if i in chosen else MINUS for i in range(n))))
    return out
