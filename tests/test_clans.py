from __future__ import annotations

from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from clanorbits import (
    BAD_PATTERNS,
    Clan,
    avoids_bad_patterns,
    concat,
    count_clans,
    enumerate_clans,
    includes_pattern,
    is_antisymmetric,
    is_symmetric,
    length_stat,
    negate,
    parse_clan,
    reverse_negate_rename,
    reverse_rename,
)
from clanorbits.clans import MINUS, PLUS
from clanorbits.errors import (
    MalformedToken,
    OddLength,
    PairCountNotTwo,
    RankTooLarge,
)

P = parse_clan


# ---------------------------------------------------------------- parsing

def test_parse_comma_and_compact_agree():
    assert P("1,+,-,1") == P("1+-1")
    assert str(P("1,+,-,1")) == "1,+,-,1"


def test_parse_canonicalizes_pair_ids():
    assert str(P("2,2,5,5")) == "1,1,2,2"
    assert P("2,2,5,5") == P("1,1,2,2")


def test_parse_signature():
    assert P("1,+,-,1").signature == (2, 2)
    assert P("+").signature == (1, 0)
    assert P("1,1").signature == (1, 1)


def test_parse_rejects_bad_tokens():
    for text in ("1,x,1", "0,0", "1,01,1", "1,,1"):
        with pytest.raises(MalformedToken):
            P(text)


def test_parse_rejects_unbalanced_pairs():
    with pytest.raises(PairCountNotTwo):
        P("1,1,1")
    with pytest.raises(PairCountNotTwo):
        P("1,2,1")


def test_round_trip_compact():
    g = P("1,2,+,1,2,-")
    assert P(g.compact()) == g


# ----------------------------------------------------------- enumeration

def test_enumerate_1_1_by_hand():
    got = {str(c) for c in enumerate_clans(1, 1)}
    assert got == {"+,-", "-,+", "1,1"}


def test_enumerate_counts_match_figures():
    assert len(enumerate_clans(2, 2)) == 21
    assert len(enumerate_clans(4, 4)) == 2835 == count_clans(4, 4)


def test_enumerate_cap():
    with pytest.raises(RankTooLarge):
        enumerate_clans(10, 7)
    with pytest.raises(RankTooLarge):
        count_clans(10, 7)


def _brute_clans(n: int) -> list[Clan]:
    # independent generator: fill the leftmost open slot with a sign or
    # pair it with any later open slot
    out: list[Clan] = []

    def rec(symbols: list, next_id: int):
        try:
            i = symbols.index(None)
        except ValueError:
            out.append(Clan.from_symbols(symbols))
            return
        for sign in (PLUS, MINUS):
            symbols[i] = sign
            rec(symbols, next_id)
        for j in range(i + 1, n):
            if symbols[j] is None:
                symbols[i] = symbols[j] = next_id
                rec(symbols, next_id + 1)
                symbols[j] = None
        symbols[i] = None

    rec([None] * n, 1)
    return out


@pytest.mark.parametrize("n", range(0, 7))
def test_enumeration_against_brute_force(n):
    pool = _brute_clans(n)
    for p in range(n + 1):
        q = n - p
        expected = {c for c in pool if c.signature == (p, q)}
        got = set(enumerate_clans(p, q))
        assert got == expected
        assert len(got) == count_clans(p, q)


# ------------------------------------------------------------- patterns

def test_pattern_worked_example():
    g = P("1,1,2,+,3,2,-,3")
    assert includes_pattern(g, P("1,1,2,2"))
    assert includes_pattern(g, P("1,2,1,2"))
    assert includes_pattern(g, P("1,+,1,-"))
    assert not includes_pattern(g, P("1,+,-,1"))
    assert not includes_pattern(g, P("1,+,+,1"))
    assert not includes_pattern(g, P("1,2,2,1"))


def test_pattern_requires_both_mates():
    # the lone mate of a pair cannot stand in for a sign, and two halves
    # of different pairs cannot impersonate one pattern pair
    assert not includes_pattern(P("1,+,1"), P("+,+"))
    assert includes_pattern(P("1,2,1,2"), P("1,1"))  # pair positions need not be adjacent
    assert not includes_pattern(P("1,2,2,1"), P("1,2,1,2"))
    assert not includes_pattern(P("1,1"), P("1,2,1,2"))


def test_bad_patterns_list():
    assert len(BAD_PATTERNS) == 8
    assert not avoids_bad_patterns(P("1,2,1,2"))
    assert avoids_bad_patterns(P("1,2,2,1"))
    assert avoids_bad_patterns(P("+,1,-,1,2,+,2,-"))


def test_eighth_pattern_lives_at_rank_six():
    # an outer pair over two disjoint pairs: smallest vehicle has 6 slots
    assert not avoids_bad_patterns(P("1,2,2,3,3,1"))
    assert all(avoids_bad_patterns(c) or len(c) >= 4 for c in enumerate_clans(2, 1))


# --------------------------------------------------------------- length

def test_length_statistic_examples():
    assert length_stat(P("1,2,2,1")) == 4
    assert length_stat(P("1,2,1,2")) == 3
    assert length_stat(P("+,-,+,-")) == 0


# ----------------------------------------------------------- transforms

def test_reverse_rename_example():
    assert str(reverse_rename(P("1,2,+,1,2,-"))) == "-,1,2,+,1,2"


def test_negate_fixes_pairs():
    assert negate(P("1,1")) == P("1,1")
    assert str(negate(P("1,+,-,1"))) == "1,-,+,1"


def test_concat():
    assert str(concat(P("+"), P("-"))) == "+,-"
    assert str(concat(P("1,1"), P("1,1"))) == "1,1,2,2"


def test_symmetry_predicates():
    assert is_symmetric(P("1,2,+,-,-,+,1,2"))
    assert not is_symmetric(P("1,2,2,1"))
    assert not is_antisymmetric(P("1,2,3,1,2,3"))  # pair hits its mirror slot
    assert is_antisymmetric(P("1,+,-,1,2,+,-,2"))
    with pytest.raises(OddLength):
        is_symmetric(P("+,-,+"))
    with pytest.raises(ValueError):
        is_antisymmetric(P("+,-"), convention="flipped")


def test_antisymmetric_conventions_flip_for_odd_rank():
    assert is_antisymmetric(P("-,+"), "paper")
    assert is_antisymmetric(P("+,-"), "figure")
    assert not is_antisymmetric(P("+,-"), "paper")


# ------------------------------------------------------- property tests

@lru_cache(maxsize=None)
def _pool(p: int, q: int) -> tuple[Clan, ...]:
    return tuple(enumerate_clans(p, q))


@st.composite
def clans(draw, max_side=3):
    p = draw(st.integers(0, max_side))
    q = draw(st.integers(0, max_side))
    pool = _pool(p, q)
    return draw(st.sampled_from(pool)) if pool else Clan(())


@given(clans())
def test_canonical_form_idempotent(c):
    assert Clan.from_symbols(c.symbols) == c
    assert P(str(c)) == c


@given(clans())
def test_includes_pattern_reflexive(c):
    assert includes_pattern(c, c)


@given(clans(max_side=2), clans(max_side=2))
def test_includes_monotone_under_concat(c, d):
    for bad in BAD_PATTERNS:
        if includes_pattern(c, bad):
            assert includes_pattern(concat(c, d), bad)
            assert includes_pattern(concat(d, c), bad)


@given(clans())
def test_negate_and_reverse_are_involutions(c):
    assert negate(negate(c)) == c
    assert reverse_rename(reverse_rename(c)) == c
    assert reverse_negate_rename(c) == negate(reverse_rename(c)) == reverse_rename(negate(c))


@given(clans())
@settings(max_examples=60)
def test_flip_invariance_of_patterns_and_length(c):
    assert avoids_bad_patterns(c) == avoids_bad_patterns(negate(c))
    assert length_stat(c) == length_stat(negate(c))
