"""Every type C/D clan the package builds against the constructions that
`clans.mirror_double` replaced.

The oracle below is the code the package used before it built each
mirror clan from its first half: open orbits written out as runs and
tails of pair labels, closed orbits as a sign half glued to its reversed
(and, in type D, negated) copy, the rank-4 compressed codec that wrote
both halves position by position, and the mirror predicates with their
separate sign loops.  The new code must give the same clans, in the
same order where the oracle fixes one, and raise where it raised.
"""

from __future__ import annotations

import time
from itertools import product

import pytest

from clanorbits import (
    Clan,
    FamilyC,
    FamilyD,
    all_sign_clans,
    compress,
    enumerate_clans,
    expand_compressed,
    gamma_circ_c,
    gamma_circ_d,
    is_antisymmetric,
    is_symmetric,
    mirror_double,
    negate,
)
from clanorbits.clans import MINUS, PLUS, _half_parity, _is_mirror
from clanorbits.errors import OddLength, RankTooLarge

from clan_transforms import mirror_clans

# ---------------------------------------------------------------- oracle


def _old_gamma_circ_c(p: int, q: int) -> Clan:
    k = min(p, q)
    sign = PLUS if p >= q else MINUS
    head = list(range(1, 2 * k + 1))
    tail: list[int] = []
    for t in range(k, 0, -1):
        tail += [2 * t - 1, 2 * t]
    return Clan.from_symbols(head + [sign] * (2 * abs(p - q)) + tail)


def _old_gamma_circ_d(n: int) -> Clan:
    m = n // 2
    head = list(range(1, 2 * m + 1))
    tail: list[int] = []
    for t in range(m, 0, -1):
        tail += [2 * t - 1, 2 * t]
    middle = [] if n % 2 == 0 else [MINUS, PLUS]
    return Clan.from_symbols(head + middle + tail)


def _old_closed_c(family: FamilyC) -> list[Clan]:
    return [Clan(h.code + h.code[::-1]) for h in all_sign_clans(family.n, family.p)]


def _old_closed_d(family: FamilyD) -> list[Clan]:
    want = 0 if family.convention == "paper" else family.n % 2
    out = []
    for plus_count in range(family.n + 1):
        if plus_count % 2 != want:
            continue
        for half in all_sign_clans(family.n, plus_count):
            out.append(Clan(half.code + negate(Clan(half.code[::-1])).code))
    return out


def _old_expand(text: str) -> Clan:
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
        pairs = ((i, j), (9 - j, 9 - i)) if ch.islower() else ((i, 9 - j), (j, 9 - i))
        for a, b in pairs:
            pid += 1
            out[a - 1] = out[b - 1] = pid
    for pos, ch in enumerate(text, start=1):
        if ch in (PLUS, MINUS):
            out[pos - 1] = ch
            out[8 - pos] = MINUS if ch == PLUS else PLUS
    return Clan.from_symbols(out)


def _old_compress(clan: Clan) -> str:
    out: list[str] = [""] * 4
    lower, upper = iter("abcdefgh"), iter("ABCDEFGH")
    seen: set[frozenset[int]] = set()
    for i, j in clan.pairs:
        a, b = i + 1, j + 1
        if b <= 4:
            spots, letters = frozenset((a, b)), lower
        elif a > 4:
            continue
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


def _old_mirror_pairs_ok(code: tuple) -> bool:
    last = len(code) - 1
    return all(
        not isinstance(j, int) or (j != last - i and code[last - i] == last - j)
        for i, j in enumerate(code)
    )


def _old_is_symmetric(clan: Clan) -> bool:
    code, last = clan.code, len(clan) - 1
    if any(not isinstance(s, int) and code[last - i] != s for i, s in enumerate(code)):
        return False
    return _old_mirror_pairs_ok(code)


def _old_is_antisymmetric(clan: Clan, convention: str) -> bool:
    code, last = clan.code, len(clan) - 1
    for i, s in enumerate(code):
        if not isinstance(s, int):
            other = code[last - i]
            if isinstance(other, int) or other == s:
                return False
    if not _old_mirror_pairs_ok(code):
        return False
    return _half_parity(clan) == (0 if convention == "paper" else len(clan) // 2 % 2)


def _full_scan_mirror(clan: Clan, opposite: bool) -> bool:
    """The mirror check over all 2n positions, before it scanned one half."""
    code = clan.code
    last = len(code) - 1
    for i, m in enumerate(code):
        other = code[last - i]
        if isinstance(m, int):
            if m == last - i or other != last - m:
                return False
        elif (other == m) == opposite:
            return False
    return True


def _generator_half_parity(clan: Clan) -> int:
    """Plus signs plus whole pairs of the first half, by a generator."""
    n = len(clan) // 2
    half = clan.code[:n]
    return (half.count(PLUS) + sum(1 for i, j in enumerate(half) if isinstance(j, int)
                                   and i < j < n)) % 2


# ----------------------------------------------------------------- tests

C_UP_TO_8 = [FamilyC(p, n - p) for n in range(9) for p in range(n + 1)]
D_UP_TO_12 = [FamilyD(n, conv) for n in range(1, 13) for conv in ("paper", "figure")]


@pytest.mark.parametrize("family", C_UP_TO_8, ids=repr)
def test_type_c_open_and_closed_orbits_match_the_oracle(family):
    assert gamma_circ_c(family.p, family.q) == _old_gamma_circ_c(family.p, family.q)
    assert family.open_clan() == _old_gamma_circ_c(family.p, family.q)
    assert family.closed_clans() == _old_closed_c(family)


@pytest.mark.parametrize("family", D_UP_TO_12, ids=repr)
def test_type_d_open_and_closed_orbits_match_the_oracle(family):
    old_open = _old_gamma_circ_d(family.n)
    assert gamma_circ_d(family.n) == old_open
    flip = family.convention == "figure" and family.n % 2
    assert family.open_clan() == (negate(old_open) if flip else old_open)
    assert family.closed_clans() == _old_closed_d(family)


@pytest.mark.parametrize("family", [
    *(FamilyC(p, n - p) for n in range(7) for p in range(n + 1)),
    *(FamilyD(n, conv) for n in range(1, 8) for conv in ("paper", "figure")),
], ids=repr)
def test_closed_clans_are_the_all_sign_orbits(family):
    closed = family.closed_clans()
    assert len(closed) == len(set(closed))
    assert set(closed) == {c for c in family.enumerate() if c.is_all_signs()}


def test_compressed_codec_matches_the_oracle():
    """Every 4-symbol string over signs and two letters of each case
    expands as before, or is refused as before; every D(4) clan
    compresses as before, and expands back."""
    for chars in product("+-abAB", repeat=4):
        text = "".join(chars)
        try:
            old = _old_expand(text)
        except ValueError:
            with pytest.raises(ValueError):
                expand_compressed(text)
            continue
        assert expand_compressed(text) == old, text
    for text in ("+a-", "a!a+", "aaa+", "+++++"):
        with pytest.raises(ValueError):
            _old_expand(text)
        with pytest.raises(ValueError):
            expand_compressed(text)
    members = set(FamilyD(4).enumerate()) | set(FamilyD(4, "figure").enumerate())
    assert len(members) == 38
    for clan in members:
        assert compress(clan) == _old_compress(clan), clan
        assert expand_compressed(compress(clan)) == clan


def test_compress_refuses_a_clan_without_mirror():
    with pytest.raises(ValueError):
        compress(Clan.from_symbols([1, 2, 3, 4, 1, 2, 4, 3]))
    with pytest.raises(ValueError):
        compress(Clan.from_symbols([PLUS] * 8))


def test_mirror_predicates_match_the_oracle():
    for n in range(0, 9, 2):
        for p in range(n + 1):
            for clan in enumerate_clans(p, n - p):
                assert is_symmetric(clan) == _old_is_symmetric(clan), clan
                for conv in ("paper", "figure"):
                    assert is_antisymmetric(clan, conv) == _old_is_antisymmetric(clan, conv)
    for odd in (Clan.from_symbols([PLUS]), Clan.from_symbols([1, PLUS, 1])):
        with pytest.raises(OddLength):
            is_symmetric(odd)
        with pytest.raises(OddLength):
            is_antisymmetric(odd)


def test_half_scans_match_the_full_scan():
    """The first-half mirror scan and the counted half parity agree with
    the full-length scan and the generator on every code of even length
    up to 10, under both sign rules and both type-D conventions."""
    mirrors = {False: 0, True: 0}
    for length in range(0, 11, 2):
        for p in range(length + 1):
            for clan in enumerate_clans(p, length - p):
                assert _half_parity(clan) == _generator_half_parity(clan), clan
                for opposite in (False, True):
                    full = _full_scan_mirror(clan, opposite)
                    assert _is_mirror(clan, opposite) == full, (clan, opposite)
                    mirrors[opposite] += full
                for conv in ("paper", "figure"):
                    want = (_full_scan_mirror(clan, True) and _generator_half_parity(clan)
                            == (0 if conv == "paper" else length // 2 % 2))
                    assert is_antisymmetric(clan, conv) == want, (clan, conv)
    # mirror clans of length 2n number 1, 2, 6, 20, 76, 312 per sign rule up to n = 5
    assert mirrors == {False: 417, True: 417}


def test_mirror_clans_examples():
    assert [str(c) for c in mirror_clans(1, opposite=True)] == ["+,-", "-,+"]
    got = sorted(str(c) for c in mirror_clans(2, opposite=False) if not c.is_all_signs())
    assert got == ["1,1,2,2", "1,2,1,2"]


@pytest.mark.parametrize("opposite", [False, True])
def test_mirror_double_reads_back_its_half(opposite):
    """Each mirror clan is the double of its first half folded back (a
    pair crossing the middle names the mirror of its far end), with
    crossing flags read off in the half's pair order."""
    for n in range(6):
        for clan in mirror_clans(n, opposite):
            last = 2 * n - 1
            code = clan.code[:n]
            half = Clan(tuple(last - m if isinstance(m, int) and m >= n else m for m in code))
            flags = [code[a] >= n for a, _ in half.pairs]
            assert mirror_double(half, flags, opposite) == clan
            assert _is_mirror(clan, opposite)


@pytest.mark.parametrize("make", [
    lambda: FamilyC(5, 5).enumerate(),
    lambda: FamilyC(8, 8).enumerate(),
    lambda: FamilyD(9).enumerate(),
    lambda: mirror_clans(9, True),
], ids=["C(5,5)", "C(8,8)", "D(9)", "mirror_clans(9)"])
def test_oversized_mirror_enumeration_fails_fast(make):
    """The length-2n cap fires before any half is listed: the halves of
    C(8,8), of length 16, pass their own cap and would take hours."""
    start = time.perf_counter()
    with pytest.raises(RankTooLarge):
        make()
    assert time.perf_counter() - start < 1.0
