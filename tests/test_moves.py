"""Every move on clan codes against the labelled-symbol moves they replace.

The oracle below is the symbol-form move code the package used before
clans were stored by mate position: each move rewrote a tuple of signs
and pair labels, and `_canonicalize` renumbered the labels afterwards.
A new move agrees with it when both come up empty, or when the new
clan's labelled form equals the oracle's canonical tuple.
"""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from clanorbits import (
    Clan,
    FamilyA,
    FamilyC,
    FamilyD,
    enumerate_clans,
    raising_moves_oracle,
)
from clanorbits.errors import ConsistencyError

from clan_transforms import concat, mate_list, mirror_clans, reverse_rename, simple_move_a, tau

PLUS, MINUS = "+", "-"


# ------------------------------------------------------- symbol-form oracle

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


def _move_symbols(sym: tuple, u: int):
    v = u + 1
    a, b = sym[u], sym[v]
    a_int = isinstance(a, int)
    b_int = isinstance(b, int)
    if a_int and b_int:
        if a == b:
            return None
        ja = kb = -1
        for i, s in enumerate(sym):
            if s == a and i != u:
                ja = i
            elif s == b and i != v:
                kb = i
        if ja < kb:
            out = list(sym)
            out[u], out[v] = b, a
            return tuple(out)
        return None
    if not a_int and b_int:
        for i, s in enumerate(sym):
            if s == b and i != v:
                if i > v:
                    out = list(sym)
                    out[u], out[v] = b, a
                    return tuple(out)
                return None
    if a_int and not b_int:
        for i, s in enumerate(sym):
            if s == a and i != u:
                if i < u:
                    out = list(sym)
                    out[u], out[v] = b, a
                    return tuple(out)
                return None
    if not a_int and not b_int and a != b:
        fresh = 1 + max((s for s in sym if isinstance(s, int)), default=0)
        out = list(sym)
        out[u] = out[v] = fresh
        return tuple(out)
    return None


def _swap_symbols(sym: tuple, u: int, v: int) -> tuple:
    out = list(sym)
    out[u], out[v] = out[v], out[u]
    return tuple(out)


def _lifted_symbols(sym: tuple, u: int, v: int):
    first = _move_symbols(sym, u)
    if (first is None) != (_move_symbols(sym, v) is None):
        raise ConsistencyError(f"mirrored moves disagree on {sym}")
    return None if first is None else _move_symbols(first, v)


def _raise_symbols(family, sym: tuple, root: int):
    n = family.n
    if isinstance(family, FamilyA):
        return _move_symbols(sym, root - 1)
    if root < n:
        return _lifted_symbols(sym, root - 1, 2 * n - root - 1)
    if isinstance(family, FamilyC):
        return _move_symbols(sym, n - 1)
    moved = _lifted_symbols(_swap_symbols(sym, n - 1, n), n - 2, n)
    return None if moved is None else _swap_symbols(moved, n - 1, n)


def _springer_symbols(family, sym: tuple, root) -> tuple:
    i, j, eps = root
    out = list(sym)
    fresh = len(sym) + 1
    if isinstance(family, FamilyA):
        out[i - 1] = out[j - 1] = fresh
        return tuple(out)
    m = 2 * family.n + 1
    quads = ((i, j), (m - j, m - i)) if eps < 0 else ((i, m - j), (j, m - i))
    for pid, (a, b) in enumerate(quads):
        out[a - 1] = out[b - 1] = fresh + pid
    return tuple(out)


def _agrees(new: Clan | None, old: tuple | None) -> bool:
    if new is None or old is None:
        return new is None and old is None
    return new.symbols == _canonicalize(old)


# ------------------------------------------------------------------ inputs

ALL_CLANS_TO_7 = [c for n in range(8) for p in range(n + 1) for c in enumerate_clans(p, n - p)]

MIRROR_FAMILIES = [
    FamilyC(2, 2),
    FamilyC(3, 2),
    FamilyD(4),
    FamilyD(4, "figure"),
    FamilyD(5),
    FamilyD(5, "figure"),
]


# ------------------------------------------------------------------- tests

def test_plain_moves_match_the_oracle():
    assert len(ALL_CLANS_TO_7) == 2_556
    for clan in ALL_CLANS_TO_7:
        for u in range(len(clan) - 1):
            old = _move_symbols(clan.symbols, u)
            assert _agrees(simple_move_a(clan, u + 1), old), (clan, u)
        if len(clan) > 1:
            family = FamilyA(*clan.signature)
            for root in family.root_indices():
                old = _move_symbols(clan.symbols, root - 1)
                assert _agrees(family.raise_by(clan, root), old), (clan, root)


@pytest.mark.parametrize("family", MIRROR_FAMILIES, ids=repr)
def test_lifted_and_middle_moves_match_the_oracle(family):
    for clan in family.enumerate():
        for root in family.root_indices():
            old = _raise_symbols(family, clan.symbols, root)
            assert _agrees(family.raise_by(clan, root), old), (clan, root)


@pytest.mark.parametrize("family", MIRROR_FAMILIES, ids=repr)
def test_springer_moves_match_the_oracle(family):
    pairs = 0
    for closed in family.closed_clans():
        sym = closed.symbols
        for root in family.positive_roots():
            i, j, eps = root
            other = j - 1 if eps < 0 else 2 * family.n - j
            assert family.is_noncompact(closed, root) == (sym[i - 1] != sym[other])
            if family.is_noncompact(closed, root):
                old = _springer_symbols(family, sym, root)
                assert _agrees(family.springer_move(closed, root), old), (closed, root)
                pairs += 1
    assert pairs > 0


def test_type_a_springer_moves_match_the_oracle():
    for n in range(2, 8):
        for p in range(n + 1):
            family = FamilyA(p, n - p)
            for closed in family.closed_clans():
                for root in family.positive_roots():
                    if family.is_noncompact(closed, root):
                        old = _springer_symbols(family, closed.symbols, root)
                        assert _agrees(family.springer_move(closed, root), old)


def _negate_symbols(sym: tuple) -> tuple:
    return tuple(MINUS if s == PLUS else PLUS if s == MINUS else s for s in sym)


def test_tau_matches_the_oracle():
    # exactly one of the two candidates is antisymmetric, so membership
    # pins which one `tau` picks at each rank parity
    for family in (FamilyD(3), FamilyD(4), FamilyD(4, "figure"), FamilyD(5),
                   FamilyD(5, "figure"), FamilyD(6)):
        n = family.n
        for clan in family.enumerate():
            swapped = _canonicalize(_swap_symbols(clan.symbols, n - 1, n))
            candidates = {_negate_symbols(swapped), _negate_symbols(clan.symbols)}
            twisted = tau(family, clan)
            assert twisted.symbols in candidates
            assert family.contains(twisted)


def _oracle_raising_moves(clan: Clan) -> set[tuple]:
    sym = clan.symbols
    mates = mate_list(clan)
    n = len(sym)
    out: set[tuple] = set()
    fresh = 1 + max((s for s in sym if isinstance(s, int)), default=0)
    for i in range(n):
        for j in range(i + 1, n):
            a, b = sym[i], sym[j]
            a_int, b_int = isinstance(a, int), isinstance(b, int)
            if not a_int and not b_int:
                if a != b:
                    lifted = list(sym)
                    lifted[i] = lifted[j] = fresh
                    out.add(_canonicalize(lifted))
            elif (a_int and b_int and a != b and mates[i] < mates[j]) \
                    or (a_int and not b_int and mates[i] < i) \
                    or (b_int and not a_int and mates[j] > j):
                out.add(_canonicalize(_swap_symbols(sym, i, j)))
    return out


def test_raising_moves_oracle_matches_the_symbol_form():
    for clan in ALL_CLANS_TO_7:
        assert {c.symbols for c in raising_moves_oracle(clan)} == _oracle_raising_moves(clan)


@st.composite
def any_clans(draw):
    if draw(st.booleans()):
        n = draw(st.integers(0, 7))
        p = draw(st.integers(0, n))
        pool = enumerate_clans(p, n - p)
    else:
        pool = mirror_clans(draw(st.integers(0, 4)), draw(st.booleans()))
    return draw(st.sampled_from(pool)) if pool else Clan(())


@given(any_clans(), any_clans())
def test_reverse_and_concat_match_the_oracle(c, d):
    assert reverse_rename(c).symbols == _canonicalize(c.symbols[::-1])
    shifted = tuple(s + len(c.pairs) if isinstance(s, int) else s for s in d.symbols)
    assert concat(c, d).symbols == _canonicalize(c.symbols + shifted)
