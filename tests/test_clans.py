from __future__ import annotations

import time
from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from clanorbits import (
    BAD_PATTERNS,
    Clan,
    FamilyC,
    FamilyD,
    avoids_bad_patterns,
    count_clans,
    enumerate_clans,
    includes_pattern,
    is_antisymmetric,
    is_symmetric,
    length_stat,
    negate,
    parse_clan,
)
from clanorbits.clans import MINUS, PLUS
from clanorbits.errors import (
    MalformedToken,
    OddLength,
    PairCountNotTwo,
    RankTooLarge,
)

from clan_transforms import (
    concat,
    mate_list,
    mirror_clans,
    parse_clan_by_symbols,
    reverse_negate_rename,
    reverse_rename,
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


def _outcome(parse, text: str):
    """The code `parse` reads from `text`, or the type and message it raises."""
    try:
        return parse(text).code
    except Exception as exc:
        return type(exc), str(exc)


def test_parse_matches_the_symbol_parser_on_every_orbit():
    """On every clan up to A(4,4), C(3,3) and D(6), the one-pass parser
    reads the text, and the compact form where it has no commas, to the
    code the parser through `Clan.from_symbols` reads."""
    families = (
        [FamilyC(p, q) for p in range(4) for q in range(4)]
        + [FamilyD(n) for n in range(1, 7)]
    )
    every = [c for p in range(5) for q in range(5) for c in enumerate_clans(p, q)]
    every += [c for f in families for c in f.enumerate()]
    for c in every:
        for text in {str(c), c.compact()}:
            assert P(text).code == parse_clan_by_symbols(text).code == c.code, text


@pytest.mark.parametrize("text", [
    "", "1,,1", "0,0", "01,01", "1,x,1", "1,1,1,1", "1,2,1", "1,+,2",
    " 1 , + ,-, 1 ", "\t1,1\n", "1, ,1", "1 1", "1+ -1", "x,1,y", "1,2,x,01",
    "3,1,1,3,+", "12,12", "1,2,3", "+,-", "11", "1,1,2,2,2,3",
])
def test_parse_errors_match_the_symbol_parser(text):
    """Same code, or same exception type and message: the first bad token
    in position order, else the sorted ids that do not occur twice."""
    assert _outcome(P, text) == _outcome(parse_clan_by_symbols, text)


@pytest.mark.parametrize("text", ["\u0661,\u0661", "\u00b2,\u00b2", "1\u0661"])
def test_parse_takes_ascii_digits_only(text):
    """Pair ids are ASCII digits: `str.isdigit` alone would let an
    Arabic-Indic one pair with a 1, or a superscript reach `int`."""
    with pytest.raises(MalformedToken):
        P(text)


def test_parse_is_linear_in_the_text():
    """A text of 40,000 tokens (20,000 nested pairs) parses in well under
    a second; a parser that searched the token list once per pair id
    takes some 20 s.  A third occurrence there is still found."""
    n = 20_000
    ids = [str(i) for i in range(1, n + 1)]
    text = ",".join(ids + ids[::-1])
    start = time.perf_counter()
    c = P(text)
    assert time.perf_counter() - start < 1.0
    assert c.code == tuple(range(2 * n - 1, -1, -1))
    start = time.perf_counter()
    with pytest.raises(PairCountNotTwo, match=r"pair ids \[7\] "):
        P(text + ",7")
    assert time.perf_counter() - start < 1.0


def _labelled(c: Clan) -> tuple:
    """The symbols of `c`: pair ids 1, 2, 3, ... by first position, read
    off `Clan.pairs`."""
    out = list(c.code)
    for label, (i, j) in enumerate(c.pairs, 1):
        out[i] = out[j] = label
    return tuple(out)


def test_text_is_made_once_and_matches_the_symbols():
    """On every clan up to A(4,4), C(3,3) and D(6): `symbols`, the text
    and `compact()` equal the forms built from the labelled symbols, and
    a second `str` returns the kept text itself."""
    families = (
        [FamilyC(p, q) for p in range(4) for q in range(4)]
        + [FamilyD(n) for n in range(1, 7)]
    )
    every = [c for p in range(5) for q in range(5) for c in enumerate_clans(p, q)]
    every += [c for f in families for c in f.enumerate()]
    for c in every:
        sym = _labelled(c)
        assert c.symbols == sym
        text = str(c)
        assert text == ",".join(str(s) for s in sym)
        assert str(c) is text
        digits = "".join(str(s) for s in sym)
        assert c.compact() == (text if len(c.pairs) > 9 else digits)


def test_compact_keeps_the_commas_past_nine_pairs():
    nine = P(",".join(str(k) for k in range(1, 10) for _ in "ab"))
    assert nine.compact() == "112233445566778899"
    ten = P(",".join(str(k) for k in range(1, 11) for _ in "ab") + ",+")
    assert ten.compact() == str(ten) == "1,1,2,2,3,3,4,4,5,5,6,6,7,7,8,8,9,9,10,10,+"


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


def _by_definition(clan: Clan) -> bool:
    return not any(includes_pattern(clan, bad) for bad in BAD_PATTERNS)


@pytest.mark.parametrize("n", range(9))
def test_pair_rule_is_the_definition_on_type_a(n):
    for p in range(n + 1):
        for c in enumerate_clans(p, n - p):
            assert avoids_bad_patterns(c) == _by_definition(c), c


@pytest.mark.parametrize("opposite", [False, True])
@pytest.mark.parametrize("n", range(7))
def test_pair_rule_is_the_definition_on_mirror_clans(n, opposite):
    for c in mirror_clans(n, opposite):
        assert avoids_bad_patterns(c) == _by_definition(c), c


def _bracket_clan(tokens: tuple) -> Clan:
    """Signs, with '(' and ')' matched as the two mates of a pair."""
    code, opened = list(tokens), []
    for i, t in enumerate(tokens):
        if t == "(":
            opened.append(i)
        elif t == ")":
            j = opened.pop()
            code[i], code[j] = j, i
    return Clan(tuple(code))


_signs = st.sampled_from((PLUS, MINUS)).map(lambda s: (s,))
_nested = st.recursive(
    _signs,
    lambda inner: st.lists(inner, max_size=3).map(lambda parts: ("(", *sum(parts, ()), ")")),
    max_leaves=6,
)
# non-crossing clans: each pair's interior is itself a run of such clans
non_crossing_clans = (
    st.lists(_nested, max_size=4)
    .map(lambda parts: sum(parts, ()))
    .filter(lambda tokens: len(tokens) <= 16)
    .map(_bracket_clan)
)


@st.composite
def long_clans(draw, max_length=16):
    """Any clan up to `max_length`: random positions paired at random."""
    n = draw(st.integers(0, max_length))
    order = draw(st.permutations(range(n)))
    k = draw(st.integers(0, n // 2))
    code: list = [None] * n
    for a, b in zip(order[: 2 * k : 2], order[1 : 2 * k : 2]):
        code[a], code[b] = b, a
    for i in order[2 * k :]:
        code[i] = draw(st.sampled_from((PLUS, MINUS)))
    return Clan(tuple(code))


@given(st.one_of(long_clans(), non_crossing_clans))
@settings(max_examples=300, deadline=None)
def test_pair_rule_is_the_definition_on_long_clans(c):
    assert avoids_bad_patterns(c) == _by_definition(c)


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


@st.composite
def mirror_pool_clans(draw):
    return draw(st.sampled_from(mirror_clans(draw(st.integers(0, 4)), draw(st.booleans()))))


@given(st.one_of(clans(), mirror_pool_clans()))
def test_canonical_form_idempotent(c):
    """The stored code, the labelled symbols and the text name one clan,
    and a pair's two positions carry one label and are each other's mates."""
    assert Clan.from_symbols(c.symbols) == c
    assert P(str(c)) == c
    sym, mates = c.symbols, mate_list(c)
    for i, s in enumerate(sym):
        if isinstance(s, int):
            assert [j for j, t in enumerate(sym) if t == s and j != i] == [mates[i]]
        else:
            assert mates[i] == -1 and c.code[i] == s
    assert c.code == tuple(m if m >= 0 else s for m, s in zip(mates, sym))


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
